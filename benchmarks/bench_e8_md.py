"""E8 — DL-supervised adaptive MD sampling (claim C3).

Basin coverage per unit simulation budget: adaptive (autoencoder-novelty-
guided) vs uniform restarts vs replica (restart-from-endpoint).  Expected
shape: adaptive >= uniform >> replica.
"""

import numpy as np
import pytest

from conftest import print_experiment
from repro.datasets import make_rugged_landscape
from repro.utils import format_table
from repro.workflow import run_sampling_campaign

SETTINGS = dict(n_rounds=7, trajectories_per_round=3, steps_per_trajectory=200, temperature=0.15, extent=9.0)


def test_e8_md_supervision():
    pot = make_rugged_landscape(n_wells=16, extent=8.0, min_separation=2.0, seed=1)
    rows = []
    coverage = {}
    curves = {}
    for strategy in ("uniform", "adaptive", "replica"):
        finals = []
        curve_acc = None
        for seed in range(4):
            res = run_sampling_campaign(pot, strategy=strategy, seed=seed, **SETTINGS)
            finals.append(res.final_coverage)
            c = np.array(res.coverage_curve)
            curve_acc = c if curve_acc is None else curve_acc + c
        coverage[strategy] = float(np.mean(finals))
        curves[strategy] = curve_acc / 4
        rows.append([strategy, coverage[strategy]] + list(np.round(curves[strategy], 3)))
    header = ["strategy", "final cov"] + [f"rnd{i+1}" for i in range(SETTINGS["n_rounds"])]
    print_experiment(
        "E8  Basin coverage vs sampling strategy (16-well landscape, 4 seeds)",
        format_table(header, rows),
    )

    assert coverage["adaptive"] > coverage["replica"], "supervision must beat blind continuation"
    assert coverage["adaptive"] >= coverage["uniform"] - 1e-9, "supervision must not lose to uniform"
