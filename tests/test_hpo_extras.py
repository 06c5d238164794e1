"""Tests for LHS / median stopping / PBT strategies and model serialization."""

import numpy as np
import pytest

from repro.hpo import (
    Float,
    LatinHypercubeSearch,
    MedianStoppingWrapper,
    PopulationBasedTraining,
    RandomSearch,
    SearchSpace,
    SurrogateLandscape,
    candle_mlp_space,
    run_sequential,
)
from repro.nn import (
    Adam,
    Dense,
    SGD,
    Sequential,
    load_training_state,
    load_weights,
    save_training_state,
    save_weights,
)


def small_space():
    return SearchSpace({"x": Float(0.0, 1.0), "y": Float(0.0, 1.0)})


def sphere(config, budget=1):
    return (config["x"] - 0.3) ** 2 + (config["y"] - 0.7) ** 2


class TestLatinHypercube:
    def test_wave_stratification(self):
        """Property: within one wave, every dimension has exactly one
        sample per 1/wave_size bin."""
        space = small_space()
        strat = LatinHypercubeSearch(space, seed=0, wave_size=8)
        us = np.array([space.to_unit(strat.ask().config) for _ in range(8)])
        for dim in range(2):
            bins = np.floor(us[:, dim] * 8).astype(int)
            bins = np.clip(bins, 0, 7)
            assert sorted(bins.tolist()) == list(range(8))

    def test_multiple_waves(self):
        strat = LatinHypercubeSearch(small_space(), seed=0, wave_size=4)
        configs = [strat.ask().config for _ in range(12)]  # 3 waves
        assert len(configs) == 12

    def test_better_minimum_coverage_than_random(self):
        """LHS's stratification eliminates random's bad tail: the *mean*
        best-found over many seeds is lower (the median is comparable)."""
        space = small_space()
        lhs_best = np.mean([
            run_sequential(LatinHypercubeSearch(space, seed=s, wave_size=16), sphere, 16).best_value()
            for s in range(50)
        ])
        rnd_best = np.mean([
            run_sequential(RandomSearch(space, seed=s), sphere, 16).best_value()
            for s in range(50)
        ])
        assert lhs_best < rnd_best

    def test_validation(self):
        with pytest.raises(ValueError):
            LatinHypercubeSearch(small_space(), wave_size=1)


class TestMedianStopping:
    def test_promotes_good_probes_only(self):
        space = candle_mlp_space()
        land = SurrogateLandscape(space, noise=0.0, seed=1)
        strat = MedianStoppingWrapper(RandomSearch(space, seed=0), probe_budget=3, full_budget=27, warmup=5)
        run_sequential(strat, land, 120)
        assert strat.stopped_early > 0
        assert strat.promoted > 0
        # Roughly half the post-warmup probes should be stopped.
        post = strat.stopped_early + strat.promoted - 5
        assert strat.stopped_early >= post * 0.25

    def test_spends_less_budget_than_full_fidelity(self):
        space = candle_mlp_space()
        land = SurrogateLandscape(space, noise=0.0, seed=1)
        strat = MedianStoppingWrapper(RandomSearch(space, seed=0), probe_budget=3, full_budget=27)
        log = run_sequential(strat, land, 100)
        assert log.total_budget() < 100 * 27 * 0.7

    def test_validation(self):
        with pytest.raises(ValueError):
            MedianStoppingWrapper(RandomSearch(small_space()), probe_budget=5, full_budget=5)

    def test_exhaustion_follows_inner(self):
        from repro.hpo import GridSearch

        inner = GridSearch(small_space(), points_per_dim=2)
        strat = MedianStoppingWrapper(inner, probe_budget=1, full_budget=4, warmup=99)
        log = run_sequential(strat, sphere, 100)
        # 4 probes (all promoted during warmup) + 4 continuations.
        assert len(log) == 8
        assert strat.exhausted()


class TestPBT:
    def test_budgets_accumulate_per_member(self):
        space = small_space()
        strat = PopulationBasedTraining(space, seed=0, population_size=4, step_budget=2)
        budgets = [strat.ask().budget for _ in range(8)]  # 2 rounds
        assert budgets[:4] == [2, 2, 2, 2]
        assert budgets[4:] == [4, 4, 4, 4]

    def test_exploit_copies_improve_population(self):
        space = candle_mlp_space()
        land = SurrogateLandscape(space, noise=0.0, seed=2)
        strat = PopulationBasedTraining(space, seed=0, population_size=8, step_budget=3)
        log = run_sequential(strat, land, 160)
        # After many rounds, the population best should beat the initial round's best.
        first_round = min(t.value for t in log.trials[:8])
        assert strat.best_member_value <= first_round

    def test_beats_random_on_budget_sensitive_landscape(self):
        """PBT's continuation advantage: cumulative budgets mean late
        evaluations run at high fidelity without paying for restarts."""
        space = candle_mlp_space()
        results = {"pbt": [], "random": []}
        for s in range(3):
            land = SurrogateLandscape(space, noise=0.0, seed=2)
            pbt_log = run_sequential(
                PopulationBasedTraining(space, seed=s, population_size=8, step_budget=3), land, 120
            )
            results["pbt"].append(pbt_log.best_value())
            land = SurrogateLandscape(space, noise=0.0, seed=2)
            rnd_log = run_sequential(RandomSearch(space, seed=s, default_budget=27), land, 120)
            results["random"].append(rnd_log.best_value())
        assert np.median(results["pbt"]) <= np.median(results["random"]) + 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            PopulationBasedTraining(small_space(), population_size=2)
        with pytest.raises(ValueError):
            PopulationBasedTraining(small_space(), truncation=0.9)


@pytest.fixture()
def trained_model():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((60, 5))
    y = (x @ rng.standard_normal(5)).reshape(-1, 1)
    m = Sequential([Dense(8, activation="tanh"), Dense(1)])
    m.build((5,), np.random.default_rng(0))
    opt = Adam(m.parameters(), lr=1e-2)
    m.fit(x, y, epochs=3, optimizer=opt, seed=0)
    return m, opt, x, y


class TestSerialization:
    def test_weights_roundtrip(self, trained_model, tmp_path):
        m, _, x, _ = trained_model
        save_weights(m, tmp_path / "w.npz", metadata={"tag": "v1"})
        m2 = Sequential([Dense(8, activation="tanh"), Dense(1)])
        m2.build((5,), np.random.default_rng(42))
        meta = load_weights(m2, tmp_path / "w.npz")
        assert meta == {"tag": "v1"}
        assert np.allclose(m.predict(x), m2.predict(x))

    def test_checkpoint_restores_optimizer_state(self, trained_model, tmp_path):
        m, opt, x, y = trained_model
        save_training_state(m, opt, tmp_path / "c.npz", epoch=3)
        m2 = Sequential([Dense(8, activation="tanh"), Dense(1)])
        m2.build((5,), np.random.default_rng(7))
        opt2 = Adam(m2.parameters(), lr=999.0)
        header = load_training_state(m2, opt2, tmp_path / "c.npz")
        assert header["epoch"] == 3
        assert opt2.lr == opt.lr
        assert opt2.step_count == opt.step_count
        # Adam moments restored for every parameter.
        assert opt2.state["m"].size == m2.param_count()

    def test_resume_training_continues_identically(self, trained_model, tmp_path):
        """Checkpoint/restore then train must match uninterrupted training."""
        m, opt, x, y = trained_model
        save_training_state(m, opt, tmp_path / "c.npz")
        # Continue original for 2 epochs.
        m.fit(x, y, epochs=2, optimizer=opt, seed=1)
        ref = m.predict(x)
        # Restore into a clone and do the same.
        m2 = Sequential([Dense(8, activation="tanh"), Dense(1)])
        m2.build((5,), np.random.default_rng(3))
        opt2 = Adam(m2.parameters(), lr=1e-2)
        load_training_state(m2, opt2, tmp_path / "c.npz")
        m2.fit(x, y, epochs=2, optimizer=opt2, seed=1)
        assert np.allclose(m2.predict(x), ref)

    def test_sgd_momentum_checkpoint(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((40, 3))
        y = (x @ np.ones(3)).reshape(-1, 1)
        m = Sequential([Dense(1)])
        m.build((3,), np.random.default_rng(0))
        opt = SGD(m.parameters(), lr=0.01, momentum=0.9)
        m.fit(x, y, epochs=2, optimizer=opt, seed=0)
        save_training_state(m, opt, tmp_path / "sgd.npz")
        m2 = Sequential([Dense(1)])
        m2.build((3,), np.random.default_rng(9))
        opt2 = SGD(m2.parameters(), lr=0.01, momentum=0.9)
        load_training_state(m2, opt2, tmp_path / "sgd.npz")
        assert opt2.state["velocity"].size == m2.param_count()

    def test_shape_mismatch_raises(self, trained_model, tmp_path):
        m, _, _, _ = trained_model
        save_weights(m, tmp_path / "w.npz")
        wrong = Sequential([Dense(9), Dense(1)])
        wrong.build((5,), np.random.default_rng(0))
        with pytest.raises(ValueError):
            load_weights(wrong, tmp_path / "w.npz")


class TestAnalysis:
    def _logs(self, n=4, length=10, offset=0.0, seed=0):
        from repro.hpo import ResultLog, Trial

        rng = np.random.default_rng(seed)
        logs = []
        for _ in range(n):
            log = ResultLog()
            for i in range(length):
                log.add(Trial(i, {}, float(rng.random() + offset)))
            logs.append(log)
        return logs

    def test_aggregate_shapes_and_monotonicity(self):
        from repro.hpo import aggregate_trajectories

        agg = aggregate_trajectories(self._logs())
        assert len(agg["median"]) == 10
        # Best-so-far medians are non-increasing.
        assert all(b <= a + 1e-12 for a, b in zip(agg["median"], agg["median"][1:]))
        assert np.all(agg["q25"] <= agg["median"] + 1e-12)
        assert np.all(agg["median"] <= agg["q75"] + 1e-12)

    def test_aggregate_pads_shorter_runs(self):
        from repro.hpo import ResultLog, Trial, aggregate_trajectories

        short = ResultLog()
        short.add(Trial(0, {}, 1.0))
        long = ResultLog()
        for i in range(5):
            long.add(Trial(i, {}, 2.0))
        agg = aggregate_trajectories([short, long])
        assert len(agg["median"]) == 5
        assert agg["median"][-1] == pytest.approx(1.5)

    def test_aggregate_validation(self):
        from repro.hpo import aggregate_trajectories

        with pytest.raises(ValueError):
            aggregate_trajectories([])

    def test_bootstrap_detects_clear_difference(self):
        from repro.hpo import bootstrap_compare

        a = [0.1, 0.12, 0.09, 0.11, 0.10]
        b = [0.5, 0.52, 0.48, 0.51, 0.49]
        cmp = bootstrap_compare(a, b, seed=0)
        assert cmp.mean_diff < 0
        assert cmp.significant
        assert cmp.p_a_better > 0.99

    def test_bootstrap_no_difference_not_significant(self):
        from repro.hpo import bootstrap_compare

        rng = np.random.default_rng(0)
        a = rng.normal(1.0, 0.1, 10)
        b = rng.normal(1.0, 0.1, 10)
        cmp = bootstrap_compare(a, b, seed=1)
        assert not cmp.significant

    def test_bootstrap_validation(self):
        from repro.hpo import bootstrap_compare

        with pytest.raises(ValueError):
            bootstrap_compare([1.0], [1.0, 2.0])

    def test_rank_strategies_sorted(self):
        from repro.hpo import rank_strategies

        ranked = rank_strategies({"bad": [2.0, 2.1], "good": [1.0, 1.1], "mid": [1.5, 1.6]})
        assert [r[0] for r in ranked] == ["good", "mid", "bad"]
