"""E9 — Compute density / roofline study (claim C6).

Achieved fraction of peak vs arithmetic intensity for the kernel classes a
DNN step is made of, at each precision, on the summit-era accelerator.
Expected shape: elementwise ops are bandwidth-bound everywhere; GEMMs
approach peak once intensity clears the machine-balance ridge; lower
precision raises the effective peak (and moves the ridge right).
"""

import numpy as np
import pytest

from conftest import print_experiment
from repro.hpc import SUMMIT_ERA, achieved_flops, arithmetic_intensity, roofline_time
from repro.hpc.hardware import DTYPE_BYTES
from repro.utils import format_table


def _kernels(precision):
    """(name, flops, bytes) for representative step kernels."""
    e = DTYPE_BYTES[precision]
    b, n, k = 256, 4096, 4096
    out = []
    # GEMM: 2*b*n*k flops; traffic = A + B + C.
    out.append(("gemm 256x4096x4096", 2.0 * b * n * k, (b * k + k * n + b * n) * e))
    out.append(("gemm 32x512x512", 2.0 * 32 * 512 * 512, (32 * 512 + 512 * 512 + 32 * 512) * e))
    # Matrix-vector: 2*n*k flops, reads the whole matrix.
    out.append(("gemv 4096x4096", 2.0 * n * k, (n * k + k + n) * e))
    # Elementwise activation: 1 flop per element, read+write.
    m = b * n
    out.append(("elementwise relu", 1.0 * m, 2.0 * m * e))
    # Batch norm: ~5 flops/elem, read+write.
    out.append(("batch norm", 5.0 * m, 2.0 * m * e))
    return out


def test_e9_roofline():
    acc = SUMMIT_ERA.accelerator
    ridge = {}
    rows = []
    for precision in ("fp64", "fp32", "fp16"):
        peak = acc.effective_flops(precision)
        ridge[precision] = peak / acc.mem_bandwidth  # machine balance (flops/byte)
        for name, flops, nbytes in _kernels(precision):
            ai = arithmetic_intensity(flops, nbytes)
            frac = achieved_flops(flops, nbytes, acc, precision) / peak
            rows.append([precision, name, ai, frac])
    print_experiment(
        "E9  Roofline: fraction of effective peak vs arithmetic intensity (summit_era)",
        format_table(["precision", "kernel", "flops/byte", "frac of peak"], rows),
    )
    ridge_rows = [[p, r] for p, r in ridge.items()]
    print_experiment("E9b Machine balance (ridge point, flops/byte)", format_table(["precision", "ridge"], ridge_rows))

    by = {(r[0], r[1]): r[3] for r in rows}
    # Big GEMMs hit peak at every precision.
    for p in ("fp64", "fp32"):
        assert by[(p, "gemm 256x4096x4096")] == pytest.approx(1.0)
    # Elementwise ops are bandwidth-bound: tiny fraction of peak.
    assert by[("fp32", "elementwise relu")] < 0.01
    # GEMV (matrix-vector) is bandwidth-bound too — the keynote's
    # matrix-vector workloads motivate high memory bandwidth.
    assert by[("fp32", "gemv 4096x4096")] < 0.05
    # Lower precision has a higher ridge: the same big GEMM that saturates
    # fp32 no longer saturates fp16 (its intensity stays put, peak grows).
    assert ridge["fp16"] > ridge["fp32"] > ridge["fp64"]
    assert by[("fp16", "gemm 256x4096x4096")] <= by[("fp32", "gemm 256x4096x4096")] + 1e-12


def test_e9c_measured_vs_modeled():
    """Measured op-level profile of a real train step vs the modeled story.

    The roofline model above *predicts* that a DNN step is GEMM-dominated
    (claim C6).  Here we train an actual MLP under a recorder that times
    every op (``TraceRecorder(ops=True)``) and check the prediction
    against measured wall time: the fused GEMM-bearing op (linear_act)
    must dominate the elementwise rest.
    Absolute times are host-CPU and machine-dependent, so the assertions
    are about *shares*, not seconds.
    """
    from repro.nn import Dense, Sequential
    from repro.obs import TraceRecorder

    rng = np.random.default_rng(9)
    x = rng.standard_normal((512, 128))
    y = rng.integers(0, 10, 512)
    model = Sequential([Dense(128, activation="relu"), Dense(64, activation="relu"), Dense(10)])
    rec = TraceRecorder(ops=True)
    with rec:
        model.fit(x, y, epochs=2, batch_size=64, loss="cross_entropy")

    # One op.<name> histogram per op: calls and total seconds, by total.
    stats = {
        r["name"][len("op."):]: {"calls": r["count"], "total_s": r["mean_s"] * r["count"]}
        for r in rec.metrics.snapshot() if r["name"].startswith("op.")
    }
    stats = dict(sorted(stats.items(), key=lambda kv: kv[1]["total_s"], reverse=True))
    total = sum(s["total_s"] for s in stats.values())
    assert total > 0, "the recorder timed no op"
    rows = [
        [name, s["calls"], 1e3 * s["total_s"], 100.0 * s["total_s"] / total]
        for name, s in stats.items()
    ]
    print_experiment(
        "E9c Measured op profile of a real MLP train step (host CPU)",
        format_table(["op", "calls", "total ms", "% of op time"], rows),
    )

    share = {name: s["total_s"] / total for name, s in stats.items()}
    # The modeled claim, checked against measurement: the GEMM-bearing op
    # dominates the op-time budget...
    assert share.get("linear_act", 0.0) > 0.4, f"expected GEMM-dominated step, got {share}"
    # ...and beats the loss + any elementwise epilogues combined.
    rest = sum(v for k, v in share.items() if k != "linear_act")
    assert share["linear_act"] > rest, f"linear_act does not dominate: {share}"

    # Modeled arithmetic intensity of the first layer's forward GEMM, for
    # the printed comparison (the measured host has no fp16 tensor cores —
    # the point of the modeled column is the *target* machine).
    flops = 2.0 * 64 * 128 * 128
    nbytes = (64 * 128 + 128 * 128 + 64 * 128) * 8.0
    ai = arithmetic_intensity(flops, nbytes)
    print_experiment(
        "E9d Modeled intensity of the measured step's first GEMM",
        format_table(["kernel", "flops/byte"], [["gemm 64x128x128 fp64", ai]]),
    )
