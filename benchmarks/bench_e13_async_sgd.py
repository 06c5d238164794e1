"""E13 (ablation) — Asynchronous SGD staleness vs convergence (claim C10).

The keynote's scaling story implies asynchrony (to hide allreduce
latency); this ablation quantifies its numerical price by training the
*same* model with exactly-controlled gradient staleness.  Expected shape:
staleness up to ~the number of workers is benign; far beyond it, early
convergence collapses.
"""

import numpy as np
import pytest

from conftest import print_experiment
from repro.candle import build_p1b2_classifier
from repro.datasets import make_tumor_expression
from repro.utils import format_table
from repro.workflow import train_async_sgd

STALENESS = (0, 2, 8, 32, 96)
EPOCHS = 4


def test_e13_staleness_ablation():
    ds = make_tumor_expression(n_samples=256, n_genes=60, n_classes=3, seed=0)

    rows = []
    finals = {}
    early = {}
    for s in STALENESS:
        model = build_p1b2_classifier(3, hidden=(32,), dropout=0.0)
        res = train_async_sgd(model, ds.x, ds.y, n_workers=8, staleness=s,
                              epochs=EPOCHS, loss="cross_entropy", lr=0.05, seed=0)
        finals[s] = res.final_loss
        early[s] = res.epoch_losses[0]
        rows.append([s] + [round(v, 4) for v in res.epoch_losses])
    print_experiment(
        "E13  Async SGD: training loss per epoch vs gradient staleness",
        format_table(["staleness"] + [f"epoch {i+1}" for i in range(EPOCHS)], rows),
    )

    # Moderate staleness is benign...
    assert finals[8] < finals[0] * 3 + 0.1
    # ...extreme staleness wrecks early convergence.
    assert early[96] > early[0] * 2
    assert finals[96] > finals[0]
