"""E16 (ablation) — Combo architecture: two-tower vs flat MLP vs linear,
across planted synergy strengths.

DESIGN.md's Combo entry commits to the two-tower topology with a
symmetric (sum + product) merge; this ablation justifies it: the product
merge carries the pairwise interaction, so the tower's advantage over the
flat MLP should *grow* with the planted synergy strength, while the
linear baseline stays flat (it can never see the interaction).
"""

import numpy as np
import pytest

from conftest import print_experiment
from repro.candle import ComboModel, RidgeRegression, build_combo_mlp
from repro.datasets import make_combo_response
from repro.nn import metrics, train_val_split
from repro.utils import format_table

STRENGTHS = (0.0, 1.5, 3.0)


def _r2(model_kind: str, strength: float, seed: int = 0) -> float:
    ds = make_combo_response(
        n_samples=2400, n_drugs=15, synergy_strength=strength,
        response_noise=0.02, seed=seed,
    )
    x_tr, y_tr, x_te, y_te = train_val_split(ds.x, ds.y, val_frac=0.3, rng=np.random.default_rng(seed))
    if model_kind == "ridge":
        model = RidgeRegression(alpha=1.0).fit(x_tr, y_tr)
        return metrics.r2_score(model.predict(x_te), y_te)
    mu, sd = x_tr.mean(axis=0), x_tr.std(axis=0) + 1e-9
    xs_tr, xs_te = (x_tr - mu) / sd, (x_te - mu) / sd
    if model_kind == "flat":
        model = build_combo_mlp(hidden=(96, 48), dropout=0.0)
    else:
        model = ComboModel(ds.n_cell_features, ds.n_drug_features,
                           tower_units=(64, 32), head_units=(64, 32))
    model.fit(xs_tr, y_tr.reshape(-1, 1), epochs=40, batch_size=32, loss="mse", lr=3e-3, seed=0)
    return metrics.r2_score(model.predict(xs_te), y_te)


def test_e16_combo_architecture_ablation():
    rows = []
    results = {}
    for strength in STRENGTHS:
        r2s = {kind: _r2(kind, strength) for kind in ("ridge", "flat", "tower")}
        results[strength] = r2s
        rows.append([strength, r2s["ridge"], r2s["flat"], r2s["tower"],
                     r2s["tower"] - r2s["ridge"]])
    print_experiment(
        "E16  Combo architecture ablation: held-out R2 vs planted synergy strength",
        format_table(["synergy strength", "ridge", "flat MLP", "two-tower", "tower - ridge"], rows),
    )

    # Nonlinear models beat the linear baseline at every strength.
    for s in STRENGTHS:
        assert results[s]["tower"] > results[s]["ridge"]
        assert results[s]["flat"] > results[s]["ridge"]
    # The nonlinear advantage over ridge does not shrink as the
    # interaction signal grows (ridge can't represent it at all).
    gaps = [results[s]["tower"] - results[s]["ridge"] for s in STRENGTHS]
    assert gaps[-1] >= gaps[0] - 0.05
