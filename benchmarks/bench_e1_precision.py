"""E1 — Precision ablation (claim C7: "rarely require 64bit or even 32bits").

Trains three CANDLE-style models at fp64/fp32/fp16/bf16/int8 under the
emulated precision policies and reports the headline metric per format.
Expected shape: fp32/fp16/bf16 within noise of fp64; int8 degrades mildly.
"""

import numpy as np
import pytest

from conftest import print_experiment
from repro.candle import build_combo_mlp, build_nt3_classifier, build_p1b2_classifier
from repro.datasets import make_combo_response, make_tumor_expression
from repro.nn import metrics
from repro.precision import PrecisionPolicy, train_with_policy
from repro.utils import format_table

FORMATS = ("fp64", "fp32", "fp16", "bf16", "int8")


from repro.nn import train_val_split


def _train_p1b2(fmt: str) -> float:
    # noise=1.4: a hard problem, so held-out accuracy sits well below 1.0
    # and format-induced degradation is visible.
    ds = make_tumor_expression(n_samples=500, n_genes=100, n_classes=4, noise=1.4, seed=0)
    x_tr, y_tr, x_te, y_te = train_val_split(ds.x, ds.y, val_frac=0.3, rng=np.random.default_rng(0))
    model = build_p1b2_classifier(4, hidden=(64, 32), dropout=0.0)
    train_with_policy(model, x_tr, y_tr, PrecisionPolicy(fmt), epochs=15,
                      loss="cross_entropy", lr=1e-3, seed=0)
    return metrics.accuracy(model.predict(x_te), y_te)


def _train_nt3(fmt: str) -> float:
    ds = make_tumor_expression(n_samples=400, n_genes=120, n_classes=2, noise=1.6, seed=1)
    x = ds.as_conv_input()
    x_tr, y_tr, x_te, y_te = train_val_split(x, ds.y, val_frac=0.3, rng=np.random.default_rng(0))
    model = build_nt3_classifier(2, conv_filters=(8,), dense_units=(32,), kernel_size=5, dropout=0.0)
    train_with_policy(model, x_tr, y_tr, PrecisionPolicy(fmt), epochs=8,
                      loss="cross_entropy", lr=1e-3, seed=0)
    return metrics.accuracy(model.predict(x_te), y_te)


def _train_combo(fmt: str) -> float:
    ds = make_combo_response(n_samples=1200, seed=0)
    x_tr, y_tr, x_te, y_te = train_val_split(ds.x, ds.y, val_frac=0.3, rng=np.random.default_rng(0))
    mu, sd = x_tr.mean(axis=0), x_tr.std(axis=0) + 1e-9
    model = build_combo_mlp(hidden=(64, 32), dropout=0.0)
    train_with_policy(model, (x_tr - mu) / sd, y_tr.reshape(-1, 1), PrecisionPolicy(fmt), epochs=25,
                      loss="mse", lr=3e-3, seed=0)
    return metrics.r2_score(model.predict((x_te - mu) / sd), y_te)


def test_e1_precision_ablation():
    rows = []
    results = {}
    for fmt in FORMATS:
        acc_p1b2 = _train_p1b2(fmt)
        acc_nt3 = _train_nt3(fmt)
        r2_combo = _train_combo(fmt)
        results[fmt] = (acc_p1b2, acc_nt3, r2_combo)
        rows.append([fmt, acc_p1b2, acc_nt3, r2_combo])
    print_experiment(
        "E1  Precision ablation: metric vs numeric format",
        format_table(["format", "P1B2 acc", "NT3 acc", "Combo R2"], rows),
    )

    # Shape assertions (the reproduction criteria).
    for fmt in ("fp32", "fp16", "bf16"):
        assert results[fmt][0] >= results["fp64"][0] - 0.1, f"{fmt} P1B2 degraded"
        assert results[fmt][2] >= results["fp64"][2] - 0.15, f"{fmt} Combo degraded"
    # int8 may degrade but must stay usable.
    assert results["int8"][0] > 0.5
