"""A fully observed campaign: one recorder, six instrumented subsystems.

Attach a :class:`repro.obs.TraceRecorder` and run the same campaign the
other examples run — search, fault injection, resilient final training —
publish the winner into an :class:`repro.registry.ArtifactStore`
(``traced_registry/``), and serve a short burst from what was published:
campaign → publish → resolve → serve, the whole hand-off on one
timeline.  Every subsystem reports into it:

* the campaign driver (top-level span + search/train/evaluate phases),
* the HPO scheduler (one span per trial attempt, on the simulated clock),
* ``Model.fit`` (epoch/step spans with loss and gradient-norm gauges),
* op timing (``TraceRecorder(ops=True)``: one ``op.<name>`` histogram per
  kernel, the calls, seconds and tail of every op the run executed),
* the fault schedule and checkpoint/restart loop (instant events),
* the registry publish (``campaign.publish``) and the inference server
  (per-batch ``serve.batch`` spans with queue-depth gauges).

The trace is exported as JSONL (validated against the versioned schema)
and converted to a Chrome trace-event file.  Inspect either with::

    python -m repro trace traced_campaign.jsonl
    # or load traced_campaign_chrome.json in chrome://tracing / Perfetto
    python -m repro registry traced_registry p1b1 --verify

Run: ``python examples/traced_campaign.py [--smoke]``
"""

import sys
import tempfile

import numpy as np

from repro.hpo.space import Float, Int, SearchSpace
from repro.obs import (
    TraceRecorder, format_summary, read_jsonl, summarize_trace,
    validate_trace, write_chrome_trace, write_jsonl,
)
from repro.registry import ArtifactStore
from repro.resilience import FaultSchedule
from repro.serve import BatchPolicy, InferenceServer
from repro.workflow.campaign import run_campaign

smoke = "--smoke" in sys.argv[1:]

space = SearchSpace({
    "lr": Float(1e-4, 1e-2, log=True),
    "hidden1": Int(8, 64),
    "batch_size": Int(16, 64),
})

# ----------------------------------------------------------------------
# 1. Run the campaign with the recorder attached.
# ----------------------------------------------------------------------
recorder = TraceRecorder(ops=True)  # ops=True: time every op by name
store = ArtifactStore("traced_registry")
with tempfile.TemporaryDirectory() as ckpt_dir:
    with recorder:
        report = run_campaign(
            "p1b1",
            space,
            n_trials=2 if smoke else 6,
            n_workers=2,
            final_epochs=1 if smoke else 3,
            max_search_samples=60 if smoke else 150,
            seed=7,
            faults=FaultSchedule(crash=0.10, nan=0.05, seed=3),
            checkpoint_dir=ckpt_dir,
            publish_to=store,
            model_name="p1b1",
        )

        # A serving burst against what the campaign just published, on
        # the same timeline.
        server = InferenceServer.from_store(
            store, "p1b1@latest", BatchPolicy(max_batch_size=8, max_wait_s=0.0)
        )
        rng = np.random.default_rng(1)
        for _ in range(8 if smoke else 64):
            server.submit(rng.normal(size=report.published.input_shape))
            server.step(force=True)
        server.drain()

print(report.summary())

# ----------------------------------------------------------------------
# 2. Export, validate, convert.
# ----------------------------------------------------------------------
jsonl_path = write_jsonl(recorder, "traced_campaign.jsonl")
records = read_jsonl(jsonl_path)
counts = validate_trace(records)
print(f"\nwrote {jsonl_path}: "
      f"{counts['span']} spans, {counts['event']} events, {counts['metric']} metrics "
      "(schema-valid)")

# The final training is the one fit loop, faults or not: its step spans
# must hang off the campaign's final-training phase.  The trace-smoke CI
# job gates on this.
spans = {r["id"]: r for r in records if r.get("type") == "span"}


def under_final_training(span):
    while span is not None and span["kind"] != "campaign.final_training":
        span = spans.get(span["parent"])
    return span is not None


n_steps = sum(under_final_training(s) for s in spans.values() if s["kind"] == "fit.step")
print(f"{n_steps} fit.step spans under campaign.final_training")
if n_steps == 0:
    sys.exit("no fit.step span under campaign.final_training: a trainer is missing from the trace")

# Op time comes from the op.<name> histograms (count and mean per op):
# the kernels ran inside the fit steps and served batches, so their
# total cannot exceed those spans' wall time.
ops = {r["name"]: r for r in records if r.get("type") == "metric" and r["name"].startswith("op.")}
op_s = sum(r["mean_s"] * r["count"] for r in ops.values())
step_s = sum(s["dur_wall"] for s in spans.values() if s["kind"] in ("fit.step", "serve.batch"))
print(f"{len(ops)} op histograms: {1e3 * op_s:.3f} ms of op time, "
      f"{1e3 * step_s:.3f} ms of fit.step + serve.batch spans")
if "op.linear_act" not in ops or op_s > step_s:
    sys.exit("op histograms missing linear_act or exceeding the step and batch spans")

chrome_path = write_chrome_trace(records, "traced_campaign_chrome.json")
print(f"wrote {chrome_path} (load in chrome://tracing or ui.perfetto.dev)")

# ----------------------------------------------------------------------
# 3. Summarize: where the time went, what watching it cost.
# ----------------------------------------------------------------------
print()
print(format_summary(summarize_trace(records)))
