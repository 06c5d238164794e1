"""Observability overhead gate: tracing the MLP train step must be cheap.

Times a full-batch MLP train step (batch 256, d=64, hidden (64, 32),
10 classes) through ``Model.fit`` — once detached and
once with a :class:`repro.obs.TraceRecorder` attached.  Attached runs
pay for the fit/epoch/step spans, the loss and gradient-norm gauges,
and the recorder bookkeeping; the gate is that this costs **under 5%**
of the step.

Measurement protocol: alternating detached/attached samples, then the
**minimum of each side** — on a shared machine the minimum is the
least-interfered observation and approaches each side's noise floor
(the same reasoning behind ``timeit``'s min recommendation).  Paired
per-round ratios were tried and rejected: a single interference burst
inside one round swings the round's ratio by ±10%, far above the
effect being gated.

``python benchmarks/bench_obs_overhead.py [--smoke] [--reps N]
[--out PATH]`` emits ``BENCH_obs.json`` (schema:
``repro.obs.schema.BENCH_OBS_SCHEMA``), validates the recorded trace and
exits nonzero if the gate fails.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

import numpy as np  # noqa: E402

GATE_FRAC = 0.05  # attached fit may cost at most 5% over detached

# The gated MLP: one step is one full-batch forward/backward/Adam
# update over all 256 samples.
N, D, HIDDEN, CLASSES = 256, 64, (64, 32), 10


def _make_model():
    from repro.nn import Sequential
    from repro.nn.layers import Activation, Dense

    model = Sequential()
    for h in HIDDEN:
        model.add(Dense(h)).add(Activation("relu"))
    model.add(Dense(CLASSES))
    return model


def _fit_seconds(x, y, epochs, attached):
    from repro.obs import TraceRecorder

    model = _make_model()
    if not attached:
        t0 = time.perf_counter()
        model.fit(x, y, epochs=epochs, batch_size=N, loss="cross_entropy",
                  lr=1e-3, seed=0)
        return time.perf_counter() - t0, None
    recorder = TraceRecorder()
    with recorder:
        t0 = time.perf_counter()
        model.fit(x, y, epochs=epochs, batch_size=N, loss="cross_entropy",
                  lr=1e-3, seed=0)
        dt = time.perf_counter() - t0
    return dt, recorder


def run_overhead_bench(smoke: bool = False, reps: int = None) -> dict:
    rng = np.random.default_rng(4)
    x = rng.standard_normal((N, D))
    y = rng.integers(0, CLASSES, N)

    epochs = 10 if smoke else 20   # = steps per fit (full-batch)
    rounds = reps if reps is not None else (6 if smoke else 12)

    # Warm both paths (numpy caches, imports, first-touch pages).
    _fit_seconds(x, y, 2, attached=False)
    _, recorder = _fit_seconds(x, y, 2, attached=True)

    det_times, att_times = [], []
    for _ in range(rounds):
        d, _ = _fit_seconds(x, y, epochs, attached=False)
        a, recorder = _fit_seconds(x, y, epochs, attached=True)
        det_times.append(d)
        att_times.append(a)

    detached_s = min(det_times)
    attached_s = min(att_times)
    overhead_frac = attached_s / detached_s - 1.0
    detached_ms = detached_s * 1e3
    attached_ms = attached_s * 1e3

    # The last attached recorder doubles as the trace sanity check.
    from repro.obs import trace_records, validate_trace

    counts = validate_trace(trace_records(recorder))

    return {
        "acceptance": {
            "overhead_ok": bool(overhead_frac < GATE_FRAC),
            "overhead_frac": float(overhead_frac),
            "gate_frac": GATE_FRAC,
        },
        "overhead": {
            "detached_ms": float(detached_ms),
            "attached_ms": float(attached_ms),
            "overhead_frac": float(overhead_frac),
            "steps": epochs,
            "shape": f"n={N} d={D} hidden={'x'.join(map(str, HIDDEN))} classes={CLASSES}",
        },
        "trace": {
            "records": int(sum(counts.values()) - 1),  # minus the header
            "records_per_step": float((sum(counts.values()) - 1) / epochs),
        },
        "meta": {
            "numpy": np.__version__,
            "reps": int(rounds),
            "smoke": bool(smoke),
        },
    }


def format_results(results: dict) -> str:
    over = results["overhead"]
    acc = results["acceptance"]
    trace = results["trace"]
    verdict = "PASS" if acc["overhead_ok"] else "FAIL"
    return "\n".join([
        f"MLP train step ({over['shape']}), {over['steps']} steps/fit:",
        f"  detached  {over['detached_ms']:8.2f} ms",
        f"  attached  {over['attached_ms']:8.2f} ms",
        f"  overhead  {over['overhead_frac'] * 100:7.2f}%  "
        f"(gate < {acc['gate_frac'] * 100:.0f}%)  {verdict}",
        f"  trace     {trace['records']} records "
        f"({trace['records_per_step']:.1f}/step), schema-valid",
    ])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="fewer steps and rounds (CI)")
    parser.add_argument("--reps", type=int, default=None, help="ABBA measurement rounds")
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).parent.parent / "BENCH_obs.json",
        help="output JSON path (default: repo-root BENCH_obs.json)",
    )
    args = parser.parse_args(argv)

    results = run_overhead_bench(smoke=args.smoke, reps=args.reps)
    print(format_results(results))

    from repro.obs import BENCH_OBS_SCHEMA, validate

    validate(results, BENCH_OBS_SCHEMA)
    args.out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {args.out}")

    if not results["acceptance"]["overhead_ok"]:
        print(
            f"FAIL: overhead {results['acceptance']['overhead_frac'] * 100:.2f}% "
            f"exceeds gate {GATE_FRAC * 100:.0f}%",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
