"""E14 (ablation) — Gradient sparsification: accuracy vs communication
volume (the keynote's "future DNNs may rely less on dense communication
patterns").

Top-k SGD with error feedback across sparsity levels, on real training.
Expected shape: with error feedback, 10-100x communication reduction at
near-dense accuracy; without it, aggressive sparsity stalls.  The second
table converts the byte savings into simulated allreduce time on the
2017-era fabric.
"""

import numpy as np
import pytest

from conftest import print_experiment
from repro.candle import build_p1b2_classifier
from repro.datasets import make_tumor_expression
from repro.hpc import SimCluster, allreduce_ring
from repro.utils import format_table
from repro.workflow import train_topk_sgd

FRACTIONS = (1.0, 0.1, 0.01, 0.001)
EPOCHS = 6


def test_e14_gradient_compression():
    ds = make_tumor_expression(n_samples=256, n_genes=60, n_classes=3, seed=0)

    rows = []
    results = {}
    for frac in FRACTIONS:
        model = build_p1b2_classifier(3, hidden=(32,), dropout=0.0)
        res = train_topk_sgd(model, ds.x, ds.y, fraction=frac, epochs=EPOCHS,
                             loss="cross_entropy", lr=0.05, seed=0)
        results[frac] = res
        rows.append([frac, res.final_loss, res.compression_ratio, res.comm_bytes / 1e6])
    # No-error-feedback control at the most aggressive level.
    model = build_p1b2_classifier(3, hidden=(32,), dropout=0.0)
    no_ef = train_topk_sgd(model, ds.x, ds.y, fraction=0.01, error_feedback=False,
                           epochs=EPOCHS, loss="cross_entropy", lr=0.05, seed=0)
    rows.append(["0.01 (no EF)", no_ef.final_loss, no_ef.compression_ratio, no_ef.comm_bytes / 1e6])
    print_experiment(
        "E14a Top-k sparsified SGD: final loss vs kept fraction (with error feedback)",
        format_table(["kept fraction", "final loss", "compression", "MB sent"], rows),
    )

    dense = results[1.0]
    # 1% sparsity with EF: near-dense accuracy at >20x compression.
    assert results[0.01].final_loss < dense.final_loss * 3 + 0.1
    assert results[0.01].compression_ratio > 20
    # Error feedback is essential at this sparsity.
    assert no_ef.final_loss > results[0.01].final_loss * 2

    # E14b: what the byte savings buy on the simulated fabric.
    cluster = SimCluster.build("summit_era", 256, "fat_tree")
    grad_bytes = 500e6 * 2  # a 500M-param fp16 model
    rows = []
    for frac in FRACTIONS:
        sent = grad_bytes * frac * 1.5  # 12B/entry sparse vs 8B dense
        t = allreduce_ring(cluster.network, 256, min(sent, grad_bytes))
        rows.append([frac, min(sent, grad_bytes) / 1e6, t * 1e3])
    print_experiment(
        "E14b Simulated 256-node allreduce time for the sparsified gradient",
        format_table(["kept fraction", "MB on wire", "allreduce ms"], rows),
    )
