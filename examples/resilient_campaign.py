"""A campaign that expects the machine to fail — and finishes anyway.

The same search + final-training loop as ``full_campaign.py``, run under
an injected fault schedule: trials crash and are retried, stragglers
stall their barrier, NaN trials are quarantined, a worker leaves the
pool permanently, and the final training checkpoint/restarts through
two node crashes at the Daly-optimal interval.  The fault seed makes
the whole ordeal reproducible; the clean run alongside shows what the
faults cost, and a third run repeats the ordeal at ``precision="bf16"``
— checkpoint/restart is a state of the one fit loop, so it composes
with every datapath.  Exits non-zero unless that run restarted at least
twice without ever skipping an unreadable snapshot.

Run: ``python examples/resilient_campaign.py``
"""

import sys
import tempfile

from repro.hpo import Float, Int, SearchSpace
from repro.resilience import CRASH, FaultSchedule
from repro.utils import format_table
from repro.workflow import run_campaign

space = SearchSpace({
    "lr": Float(1e-4, 3e-2, log=True),
    "hidden1": Int(16, 128, log=True),
    "hidden2": Int(8, 64, log=True),
})

faults = FaultSchedule(
    crash=0.05,               # 5% of trial attempts / training steps die
    straggler=0.10,           # 10% of attempts run 4x slower
    straggler_factor=4.0,
    nan=0.05,                 # 5% of attempts / gradients diverge to NaN
    storage=0.05,             # 5% of checkpoint writes fail cleanly
    worker_loss_times=(40.0,),  # one node leaves the pool for good
    # Two guaranteed crashes in final training, keyed (incarnation, step):
    # the drawn crashes restart the run before it reaches steps 25 and 60.
    entries={("step", 1, 25): CRASH, ("step", 8, 60): CRASH},
    seed=12,
)

rows = []
for name, spec, precision in (
    ("clean", None, "fp32"), ("faulty", faults, "fp32"), ("faulty bf16", faults, "bf16"),
):
    report = run_campaign(
        "p1b2", space,
        strategy="evolutionary", n_trials=32, n_workers=8,
        final_epochs=10, precision=precision,
        max_search_samples=200, seed=1, max_retries=3,
        faults=spec,
        checkpoint_dir=tempfile.mkdtemp(prefix=f"repro-{name.replace(' ', '-')}-"),
        strategy_kwargs={"population_size": 8},
    )
    print(report.summary())
    r = report.resilience
    rows.append([
        name,
        f"{report.metric_name}={report.final_metric:.3f}",
        f"{report.search_wallclock:.3g}",
        f"{report.final_train_time:.3g}",
        "-" if r is None else r.total_faults(),
        "-" if r is None else r.restarts,
        "-" if r is None else r.retries,
        "-" if r is None else f"{r.measured_efficiency:.3f}",
    ])

print("\n" + format_table(
    ["run", "final metric", "search s", "train s",
     "faults", "restarts", "retries", "efficiency"],
    rows,
))
print(
    "\nThe faulty campaign survived every injected failure: crashed trials"
    "\nwere retried, NaN trials quarantined as inf, the shrunken pool kept"
    "\nsearching, and the final training replayed from its atomic snapshots"
    "\nafter each crash.  Same API, one extra argument — the resilience"
    "\nreport above is the bill."
)

r = report.resilience  # the bf16 row: precision x faults, gated on every push
if r.restarts < 2 or r.snapshots_skipped != 0:
    sys.exit(f"bf16 final training did not checkpoint/restart cleanly: {r.summary()}")
