"""E5 — Hyperparameter-search strategy shoot-out (claims C13, C14).

All strategies on the surrogate CANDLE landscape at equal *epoch* budget
(the keynote's "tens of thousands of model configurations" scale is
feasible because the surrogate is instant).  Expected shape:
random >= grid; multi-fidelity (halving/Hyperband) reaches good configs
with far fewer epochs; model-guided methods (GP, evolutionary,
generative-NN) find better optima at equal budget.
"""

import numpy as np
import pytest

from conftest import print_experiment
from repro.hpo import (
    STRATEGIES,
    SurrogateLandscape,
    candle_mlp_space,
)
from repro.utils import format_table

EPOCH_BUDGET = 3000  # total training epochs each strategy may spend
FULL_FIDELITY = 27


def _run(name, space, seed):
    land = SurrogateLandscape(space, noise=0.01, seed=5)
    kwargs = {}
    if name in ("random", "grid", "evolutionary", "bayesian", "generative"):
        kwargs["default_budget"] = FULL_FIDELITY
    if name == "generative":
        kwargs.update(n_init=25, elite_frac=0.15, refit_every=15, latent_dim=4)
    if name == "bayesian":
        kwargs.update(n_candidates=256)
    if name == "grid":
        kwargs["points_per_dim"] = 3
    strat = STRATEGIES[name](space, seed=seed, **kwargs)
    # Manual ask/tell loop with a hard epoch-budget stop.
    spent, n_cfg, best = 0, 0, float("inf")
    stalls = 0
    while spent < EPOCH_BUDGET:
        sug = strat.ask()
        if sug is None:
            stalls += 1
            if strat.exhausted() or stalls > 5:
                break
            continue
        stalls = 0
        if spent + sug.budget > EPOCH_BUDGET:
            break
        value = land(sug.config, sug.budget)
        strat.tell(sug, value)
        spent += sug.budget
        n_cfg += 1
        if np.isfinite(value):
            best = min(best, value)
    return best, n_cfg, spent


def test_e5_strategy_comparison():
    space = candle_mlp_space()
    land_ref = SurrogateLandscape(space, noise=0.0, seed=5)
    rows = []
    bests = {}
    for name in ("grid", "random", "successive_halving", "hyperband", "evolutionary", "bayesian", "generative"):
        per_seed = [_run(name, space, seed)[0] for seed in range(3)]
        best, n_cfg, spent = _run(name, space, 0)
        med = float(np.median(per_seed))
        bests[name] = med
        rows.append([name, med, min(per_seed), n_cfg, spent])
    rows.append(["(optimum)", land_ref.optimum(), land_ref.optimum(), "-", "-"])
    print_experiment(
        f"E5  Best validation loss at equal epoch budget ({EPOCH_BUDGET} epochs)",
        format_table(["strategy", "median best", "min best", "configs", "epochs"], rows),
    )

    # Claim C14's shape: every intelligent strategy is at least as good as
    # random search, and the best of them beats both naive searches by a
    # clear margin.
    smart_names = ("successive_halving", "hyperband", "evolutionary", "bayesian", "generative")
    for smart in smart_names:
        assert bests[smart] <= bests["random"] + 0.05, f"{smart} did not match random search"
    naive = min(bests["grid"], bests["random"])
    assert min(bests[s] for s in smart_names) < naive - 0.2
