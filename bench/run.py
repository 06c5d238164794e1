"""The repository's one benchmark command.

    python3 bench/run.py --workload W --seed S --seconds T --trace 0|1 [--out FILE]

runs one workload in this process, prints every metric by name with its
unit, and ends with one JSON line: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``).  Without
``--workload`` every workload runs in turn, each in a fresh interpreter,
so a workload measures the same alone as in the full pass.  ``--out``
appends one JSON record per run; ``bench/compare.py`` reads those files.
"""

from __future__ import annotations

import os

# BLAS must be pinned before NumPy is first imported: one process is one
# compute lane, in the driver and in every worker it forks.
for _pin in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_pin] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

OUT_DIR = Path("bench_out")  # relative to the working directory; git-ignored


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    from bench.common import (
        Context, LeakAudit, NullTracer, Tracer, environment, peak_rss_mb, summarize,
    )
    from bench.workloads import WORKLOADS

    spec = _spec()
    audit = LeakAudit()
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)).resolve()
    # Everything the program writes through tempfile lands in the scratch
    # directory too, so the run stays inside its checkout.
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = None
    tracer = Tracer(workload) if traced else NullTracer()
    ctx = Context(seed, seconds, traced, scratch, tracer)
    # Dirty pages left by whatever ran before (a checkout being copied, the
    # previous run's scratch files being deleted) are written back by this
    # run's first fsyncs -- registry publishes, queue commits -- which then
    # take twice as long: registry set-up read 9 ms after a pause and 15 ms
    # back to back.  Flush before the clock starts and after the scratch
    # directory is gone, so every run starts from the same state.
    os.sync()
    t0 = time.perf_counter()
    try:
        outcome = WORKLOADS[workload](ctx)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        os.sync()
    wall = time.perf_counter() - t0

    leaks = audit.leaks()
    leaked = len(leaks["shm"]) + len(leaks["children"])
    checks = dict(outcome.checks, no_leaks=leaked == 0)
    failed = outcome.failed + leaked
    ok_share = 1.0 - failed / outcome.attempted
    notes = dict(outcome.notes)
    # Both readings are kept in the record; BENCHMARK.json's metrics are
    # the normalised one unless the workload says its times do not scale
    # with the machine's speed.
    readings = {"raw": summarize(outcome, False), "normalised": summarize(outcome, True)}
    notes["reported"] = "normalised" if outcome.normalise else "raw"
    if traced:
        tracer.write(OUT_DIR / f"trace-{workload}.jsonl")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = {name: float(outcome.layers.get(name, 0.0)) for name in units}
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = dict(readings[notes["reported"]])
        values["setup_s"] = readings["normalised"]["setup_s"]  # set-up is always compute
        values["slo_attained_share"] *= ok_share
        values["peak_rss_mb"] = peak_rss_mb()
        if set(values) != set(units):
            raise RuntimeError("BENCHMARK.json and bench/run.py name different end-to-end metrics")
    return {
        "workload": workload,
        "trace": int(traced),
        "correct": all(checks.values()),
        "attempted": int(outcome.attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "supplied": sorted(outcome.layers),
        "checks": checks,
        "leaks": leaks,
        "notes": notes,
        "wall_s": wall,
        "setups": len(outcome.setups),
        "readings": readings,
        "env": environment(seed),
    }


def report(record: dict) -> None:
    name = record["workload"]
    print(f"== {name} (seed {record['env']['seed']}, trace {record['trace']}, "
          f"{record['wall_s']:.1f} s wall, {record['setups']} set-ups)")
    for key, m in record["metrics"].items():
        if record["trace"] and key not in record["supplied"]:
            print(f"  {key:<40} {'-':>14} (not a layer of this workload; reported as 0)")
        else:
            print(f"  {key:<40} {m['value']:>14.6g} {m['unit']}")
    for key, value in record["notes"].items():
        print(f"  note {key:<35} {value}")
    raw = ", ".join(f"{k}={v:.5g}" for k, v in record["readings"]["raw"].items())
    print(f"  raw reading (not speed-normalised): {raw}")
    bad = [k for k, ok in record["checks"].items() if not ok]
    print(f"  checks: {len(record['checks']) - len(bad)}/{len(record['checks'])} ok"
          + (f", FAILED: {', '.join(bad)}" if bad else "")
          + f"; attempted {record['attempted']}, failed {record['failed']}")


def main() -> int:
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, help="default: all, one process each")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="append one JSON record per run")
    args = ap.parse_args()

    if args.workload is None:
        status = 0
        for name in names:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            if args.out:
                cmd += ["--out", str(args.out)]
            status |= subprocess.run(cmd).returncode
        return status

    from bench.common import adopt_orphans, stop_children

    adopt_orphans()
    try:
        record = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        # On every path out, no process this run started is still alive
        # (or waiting to be reaped) when the interpreter exits.
        stop_children()
    report(record)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
