"""Tests for search strategies and the schedulers (repro.hpo)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import ScanASHA

from repro.hpo import (
    ASHA,
    STRATEGIES,
    BayesianSearch,
    ConfigVAE,
    EvolutionarySearch,
    Float,
    GaussianProcess,
    GenerativeSearch,
    GridSearch,
    Hyperband,
    RandomSearch,
    SearchSpace,
    SuccessiveHalving,
    Suggestion,
    SurrogateLandscape,
    candle_mlp_space,
    constant_cost,
    expected_improvement,
    run_parallel,
    run_sequential,
)
from repro.resilience import FaultSchedule


def small_space():
    return SearchSpace({"x": Float(0.0, 1.0), "y": Float(0.0, 1.0)})


def sphere(config, budget=1):
    """Simple convex objective with optimum at (0.3, 0.7)."""
    return (config["x"] - 0.3) ** 2 + (config["y"] - 0.7) ** 2


class TestRandomGrid:
    def test_random_reproducible(self):
        a = run_sequential(RandomSearch(small_space(), seed=4), sphere, 20)
        b = run_sequential(RandomSearch(small_space(), seed=4), sphere, 20)
        assert a.values == b.values

    def test_grid_exhausts(self):
        strat = GridSearch(small_space(), points_per_dim=3)
        log = run_sequential(strat, sphere, 100)
        assert len(log) == 9
        assert strat.exhausted()

    def test_grid_covers_all_points(self):
        strat = GridSearch(small_space(), points_per_dim=2)
        seen = set()
        while (s := strat.ask()) is not None:
            seen.add((s.config["x"], s.config["y"]))
        assert len(seen) == 4

    def test_random_beats_grid_on_low_effective_dim(self):
        """Bergstra-Bengio: when only one dimension matters, random search
        explores it better than a coarse grid."""
        space = SearchSpace({f"d{i}": Float(0.0, 1.0) for i in range(4)})

        def needle(config, budget=1):
            return (config["d0"] - 0.137) ** 2  # only d0 matters

        budget = 2 ** 4  # grid with 2 points/dim = 16 configs
        g = run_sequential(GridSearch(space, points_per_dim=2, seed=0), needle, budget)
        r_best = np.median(
            [run_sequential(RandomSearch(space, seed=s), needle, budget).best_value() for s in range(10)]
        )
        assert r_best < g.best_value()


class TestSuccessiveHalvingHyperband:
    def test_promotes_best_configs(self):
        space = small_space()
        strat = SuccessiveHalving(space, seed=0, min_budget=1, max_budget=9, eta=3)
        land = SurrogateLandscape(space, noise=0.0, seed=0)
        log = run_sequential(strat, land, 13)  # 9 + 3 + 1 = one full bracket
        budgets = [t.budget for t in log.trials]
        assert budgets.count(1) == 9
        assert budgets.count(3) == 3
        assert budgets.count(9) == 1
        # The config promoted to budget 9 was among the best at budget 3.
        b3 = sorted(t.value for t in log.trials if t.budget == 3)
        promoted_cfg = [t.config for t in log.trials if t.budget == 9][0]
        b3_cfgs = {tuple(sorted(t.config.items())): t.value for t in log.trials if t.budget == 3}
        assert b3_cfgs[tuple(sorted(promoted_cfg.items()))] == b3[0]

    def test_restarts_new_bracket(self):
        space = small_space()
        strat = SuccessiveHalving(space, seed=0, min_budget=1, max_budget=4, eta=2)
        log = run_sequential(strat, sphere, 30)
        assert len(log) == 30  # keeps producing work across brackets

    def test_validation(self):
        with pytest.raises(ValueError):
            SuccessiveHalving(small_space(), min_budget=0)
        with pytest.raises(ValueError):
            SuccessiveHalving(small_space(), min_budget=5, max_budget=2)
        with pytest.raises(ValueError):
            SuccessiveHalving(small_space(), eta=1)

    def test_hyperband_mixes_budgets(self):
        space = small_space()
        strat = Hyperband(space, seed=0, max_budget=9, eta=3)
        land = SurrogateLandscape(space, noise=0.0, seed=0)
        log = run_sequential(strat, land, 40)
        budgets = {t.budget for t in log.trials}
        assert len(budgets) >= 2  # multiple fidelities in play
        assert max(budgets) == 9

    def test_hyperband_validation(self):
        with pytest.raises(ValueError):
            Hyperband(small_space(), max_budget=0)
        with pytest.raises(ValueError):
            Hyperband(small_space(), eta=1)

    def test_halving_beats_random_at_equal_epoch_budget(self):
        """Claim C14: multi-fidelity spends epochs where they matter."""
        space = candle_mlp_space()
        land = SurrogateLandscape(space, noise=0.005, seed=3)
        sh_bests, rnd_bests = [], []
        for seed in range(5):
            sh = SuccessiveHalving(space, seed=seed, min_budget=1, max_budget=27, eta=3)
            sh_log = run_sequential(sh, land, 200)
            epoch_budget = sh_log.total_budget()
            n_full_random = max(epoch_budget // 27, 1)  # random at full fidelity
            rnd = RandomSearch(space, seed=seed, default_budget=27)
            rnd_log = run_sequential(rnd, land, n_full_random)
            sh_bests.append(sh_log.best_value())
            rnd_bests.append(rnd_log.best_value())
        assert np.median(sh_bests) < np.median(rnd_bests) + 0.05

    def test_tie_break_promotes_earlier_launch(self):
        """Equal values must promote the earlier *launch*, not whichever
        completion happened to land first under parallel execution."""
        strat = SuccessiveHalving(small_space(), seed=0, min_budget=1,
                                  max_budget=3, eta=3)
        sugs = [strat.ask() for _ in range(3)]  # fills the bottom rung
        for s in reversed(sugs):  # completions land in reverse launch order
            strat.tell(s, 1.0)
        promo = strat.ask()
        assert promo.budget == 3
        assert promo.config == sugs[0].config

    def test_stale_bracket_tell_is_dropped(self):
        """A trial launched before a bracket restart must not pollute the
        new bracket's rungs when its result finally lands."""
        strat = SuccessiveHalving(small_space(), seed=0, min_budget=1,
                                  max_budget=3, eta=3)
        sugs = [strat.ask() for _ in range(3)]
        for i, s in enumerate(sugs):
            strat.tell(s, float(i))
        top = strat.ask()  # the promotion that finishes bracket 0
        strat.tell(top, 0.0)
        fresh = strat.ask()  # triggers the bracket restart
        assert fresh.tag[0] == 1
        n_results = len(strat.rungs[0].results)
        strat.tell(sugs[2], -100.0)  # bracket-0 straggler reports late
        assert strat.stale_tells == 1
        assert len(strat.rungs[0].results) == n_results  # unpolluted


class TestASHA:
    def test_registered(self):
        assert STRATEGIES["asha"] is ASHA

    def test_validation(self):
        with pytest.raises(ValueError):
            ASHA(small_space(), min_budget=0)
        with pytest.raises(ValueError):
            ASHA(small_space(), min_budget=5, max_budget=2)
        with pytest.raises(ValueError):
            ASHA(small_space(), eta=1)

    def test_ask_never_returns_none(self):
        """The no-barrier property elastic workers lean on: with nothing
        told yet, ask keeps growing the bottom rung instead of stalling."""
        strat = ASHA(small_space(), seed=0, max_budget=27)
        sugs = [strat.ask() for _ in range(50)]
        assert all(s is not None for s in sugs)
        assert all(s.tag[0] == 0 for s in sugs)  # all bottom-rung work

    def test_promotes_top_fraction_asynchronously(self):
        strat = ASHA(small_space(), seed=0, min_budget=1, max_budget=9, eta=3)
        sugs = [strat.ask() for _ in range(3)]
        for i, s in enumerate(sugs):
            strat.tell(s, float(i))
        promo = strat.ask()  # 3 results -> top 1/3 promotable, no barrier
        assert promo.tag[0] == 1 and promo.budget == 3
        assert promo.config == sugs[0].config  # the best so far
        assert strat.promotions == 1

    def test_tie_break_prefers_earlier_launch(self):
        strat = ASHA(small_space(), seed=0, min_budget=1, max_budget=9, eta=3)
        sugs = [strat.ask() for _ in range(3)]
        for s in reversed(sugs):
            strat.tell(s, 0.5)
        assert strat.ask().config == sugs[0].config

    def test_reaches_max_budget(self):
        space = small_space()
        strat = ASHA(space, seed=1, min_budget=1, max_budget=9, eta=3)
        land = SurrogateLandscape(space, noise=0.0, seed=0)
        log = run_sequential(strat, land, 60)
        assert max(t.budget for t in log.trials) == 9
        assert strat.promotions > 0

    def test_reproducible(self):
        a = run_sequential(ASHA(small_space(), seed=4, max_budget=9), sphere, 40)
        b = run_sequential(ASHA(small_space(), seed=4, max_budget=9), sphere, 40)
        assert a.values == b.values
        assert [t.budget for t in a.trials] == [t.budget for t in b.trials]

    @settings(max_examples=60, deadline=None)
    @given(
        eta=st.sampled_from([2, 3, 4]),
        ops=st.lists(
            st.one_of(
                st.just(("ask",)),
                st.tuples(st.just("tell"), st.integers(0, 10**6),
                          st.sampled_from([0.0, 0.5, 0.5, 1.0, 2.0, float("inf")]),
                          st.booleans()),
            ),
            max_size=120,
        ),
    )
    def test_same_choices_as_the_prefix_scan(self, eta, ops):
        """Over any ask/tell interleaving — tied values, ``inf``, a launch
        told twice — the heap check asks exactly what the old scan of the
        ranked prefix asked, and promotes as often."""
        new = ASHA(small_space(), seed=9, min_budget=1, max_budget=eta ** 3, eta=eta)
        old = ScanASHA(small_space(), seed=9, min_budget=1, max_budget=eta ** 3, eta=eta)
        asked, told = [], []
        for op in ops:
            if op[0] == "ask":
                sug = new.ask()
                assert sug == old.ask()
                asked.append(sug)
            elif asked or told:
                _, pick, value, again = op
                if again and told or not asked:
                    sug = told[pick % len(told)]  # a launch told twice
                else:
                    sug = asked.pop(pick % len(asked))
                    told.append(sug)
                new.tell(sug, value)
                old.tell(sug, value)
            assert new.promotions == old.promotions
        for _ in range(3):  # the rungs as the interleaving left them
            assert new.ask() == old.ask()
        assert new.promotions == old.promotions


class TestEvolutionary:
    def test_improves_over_random_on_sphere(self):
        space = small_space()
        evo_best = np.median(
            [run_sequential(EvolutionarySearch(space, seed=s, population_size=10), sphere, 150).best_value()
             for s in range(5)]
        )
        rnd_best = np.median(
            [run_sequential(RandomSearch(space, seed=s), sphere, 150).best_value() for s in range(5)]
        )
        assert evo_best <= rnd_best

    def test_population_bounded(self):
        strat = EvolutionarySearch(small_space(), seed=0, population_size=5)
        run_sequential(strat, sphere, 50)
        assert len(strat._population) <= 5

    def test_population_keeps_best(self):
        strat = EvolutionarySearch(small_space(), seed=0, population_size=5)
        log = run_sequential(strat, sphere, 60)
        assert strat.population_best == pytest.approx(log.best_value())

    def test_ignores_inf_results(self):
        strat = EvolutionarySearch(small_space(), seed=0, population_size=4)
        sug = strat.ask()
        strat.tell(sug, float("inf"))
        assert len(strat._population) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            EvolutionarySearch(small_space(), population_size=1)
        with pytest.raises(ValueError):
            EvolutionarySearch(small_space(), mutation_sigma=0.0)


class TestGaussianProcess:
    def test_interpolates_training_points(self):
        rng = np.random.default_rng(0)
        x = rng.random((12, 2))
        y = np.sin(3 * x[:, 0]) + x[:, 1]
        gp = GaussianProcess(noise=1e-8).fit(x, y)
        mean, std = gp.predict(x)
        assert np.allclose(mean, y, atol=1e-3)
        assert np.all(std < 0.1)

    def test_uncertainty_grows_away_from_data(self):
        x = np.array([[0.5, 0.5]])
        gp = GaussianProcess().fit(x, np.array([1.0]))
        _, std_near = gp.predict(np.array([[0.5, 0.5]]))
        _, std_far = gp.predict(np.array([[0.0, 0.0]]))
        assert std_far[0] > std_near[0]

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            GaussianProcess().predict(np.zeros((1, 2)))

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            GaussianProcess().fit(np.zeros((3, 2)), np.zeros(2))

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianProcess(length_scale=0.0)

    def test_ei_zero_when_no_improvement_possible(self):
        ei = expected_improvement(np.array([10.0]), np.array([1e-9]), best=0.0)
        assert ei[0] == pytest.approx(0.0, abs=1e-6)

    def test_ei_prefers_low_mean(self):
        ei = expected_improvement(np.array([0.1, 0.9]), np.array([0.1, 0.1]), best=1.0)
        assert ei[0] > ei[1]


class TestBayesian:
    def test_beats_random_on_smooth_objective(self):
        space = small_space()
        bo_best = np.median(
            [run_sequential(BayesianSearch(space, seed=s, n_init=6), sphere, 40).best_value()
             for s in range(5)]
        )
        rnd_best = np.median(
            [run_sequential(RandomSearch(space, seed=s), sphere, 40).best_value() for s in range(5)]
        )
        assert bo_best < rnd_best

    def test_validation(self):
        with pytest.raises(ValueError):
            BayesianSearch(small_space(), n_init=1)

    def test_handles_inf_values(self):
        strat = BayesianSearch(small_space(), seed=0, n_init=3)
        for _ in range(6):
            s = strat.ask()
            strat.tell(s, float("inf"))
        # All-inf observations: ask must still work (falls back to random
        # because nothing was recorded).
        assert strat.ask() is not None


class TestGenerative:
    def test_vae_reconstructs_clustered_configs(self):
        rng = np.random.default_rng(0)
        data = np.clip(0.3 + 0.05 * rng.standard_normal((40, 4)), 0, 1)
        vae = ConfigVAE(dim=4, latent_dim=2)
        losses = vae.train_vae(data, epochs=150, rng=rng)
        assert losses[-1] < losses[0]
        samples = vae.sample(100, rng)
        assert samples.shape == (100, 4)
        # Generated samples concentrate near the training cluster.
        assert np.abs(samples.mean(axis=0) - 0.3).max() < 0.2

    def test_vae_validation(self):
        with pytest.raises(ValueError):
            ConfigVAE(dim=3, latent_dim=0)

    def test_search_concentrates_sampling(self):
        """After warmup, generated proposals should cluster near the elites."""
        space = small_space()
        strat = GenerativeSearch(space, seed=0, n_init=20, refit_every=10, exploration=0.0, vae_epochs=120)
        run_sequential(strat, sphere, 60)
        proposals = np.array([space.to_unit(strat.ask().config) for _ in range(50)])
        mean = proposals.mean(axis=0)
        assert abs(mean[0] - 0.3) < 0.25 and abs(mean[1] - 0.7) < 0.25

    def test_beats_random_on_basin_landscape(self):
        space = candle_mlp_space()
        land = SurrogateLandscape(space, noise=0.0, seed=1)
        gen_best = np.median([
            run_sequential(
                GenerativeSearch(space, seed=s, n_init=25, refit_every=15, vae_epochs=60), land, 120
            ).best_value()
            for s in range(3)
        ])
        rnd_best = np.median(
            [run_sequential(RandomSearch(space, seed=s), land, 120).best_value() for s in range(3)]
        )
        assert gen_best <= rnd_best + 0.02

    def test_validation(self):
        with pytest.raises(ValueError):
            GenerativeSearch(small_space(), n_init=2)
        with pytest.raises(ValueError):
            GenerativeSearch(small_space(), elite_frac=0.0)
        with pytest.raises(ValueError):
            GenerativeSearch(small_space(), exploration=2.0)


class TestSchedulers:
    def test_sequential_validation(self):
        with pytest.raises(ValueError):
            run_sequential(RandomSearch(small_space()), sphere, 0)

    def test_parallel_validation(self):
        with pytest.raises(ValueError):
            run_parallel(RandomSearch(small_space()), sphere, 10, 0)

    def test_async_reaches_optimal_makespan(self):
        """Constant costs: 100 trials on 8 workers must take exactly
        ceil(100/8) waves."""
        strat = RandomSearch(small_space(), seed=0)
        log = run_parallel(strat, sphere, 100, 8, constant_cost(10.0))
        assert max(t.sim_time for t in log.trials) == pytest.approx(130.0)

    def test_async_beats_sync_with_variable_costs(self):
        space = small_space()

        def cost(config, budget):
            return 1.0 + 9.0 * config["x"]

        a = run_parallel(RandomSearch(space, seed=1), sphere, 120, 16, cost)
        s = run_parallel(RandomSearch(space, seed=1), sphere, 120, 16, cost, sync=True)
        assert max(t.sim_time for t in a.trials) < max(t.sim_time for t in s.trials)

    def test_parallel_same_results_as_sequential_for_random(self):
        """Random search is order-independent: parallel and sequential must
        find the same best value for the same seed."""
        seq = run_sequential(RandomSearch(small_space(), seed=5), sphere, 50)
        par = run_parallel(RandomSearch(small_space(), seed=5), sphere, 50, 4)
        assert seq.best_value() == pytest.approx(par.best_value())

    def test_parallel_with_hyperband_completes(self):
        space = small_space()
        strat = Hyperband(space, seed=0, max_budget=9, eta=3)
        land = SurrogateLandscape(space, seed=0)
        log = run_parallel(strat, land, 50, 8, constant_cost(1.0))
        assert len(log) == 50

    def test_more_workers_shorter_wallclock(self):
        space = small_space()
        t_by_workers = []
        for w in (1, 4, 16):
            strat = RandomSearch(space, seed=2)
            log = run_parallel(strat, sphere, 64, w, constant_cost(5.0))
            t_by_workers.append(max(t.sim_time for t in log.trials))
        assert t_by_workers[0] > t_by_workers[1] > t_by_workers[2]

    def test_workers_recorded(self):
        log = run_parallel(RandomSearch(small_space(), seed=0), sphere, 20, 4, constant_cost(1.0))
        assert {t.worker for t in log.trials} == {0, 1, 2, 3}


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_every_strategy_runs_on_candle_space(name):
    """Integration: every registered strategy completes 30 trials on the
    canonical space and improves over its own first trial."""
    space = candle_mlp_space()
    land = SurrogateLandscape(space, seed=7)
    kwargs = {"vae_epochs": 30, "n_init": 10} if name == "generative" else {}
    strat = STRATEGIES[name](space, seed=0, **kwargs)
    log = run_sequential(strat, land, 30)
    assert len(log) >= 9  # grid may exhaust, halving may stall, others hit 30
    assert log.best_value() <= log.values[0]


class TestFailureInjection:
    def test_all_trials_complete_despite_failures(self):
        space = small_space()
        log = run_parallel(
            RandomSearch(space, seed=0), sphere, 60, 8,
            constant_cost(5.0), max_retries=8,
            faults=FaultSchedule(crash=0.25, seed=3),
        )
        assert len(log) == 60
        # P(9 consecutive crashes) ~ 4e-6: retries make every trial finish.
        assert all(np.isfinite(t.value) for t in log.trials)

    def test_failures_extend_wallclock(self):
        space = small_space()
        clean = run_parallel(RandomSearch(space, seed=0), sphere, 60, 8, constant_cost(5.0))
        faulty = run_parallel(
            RandomSearch(space, seed=0), sphere, 60, 8,
            constant_cost(5.0), faults=FaultSchedule(crash=0.3, seed=1),
        )
        assert max(t.sim_time for t in faulty.trials) > max(t.sim_time for t in clean.trials)

    def test_exhausted_retries_reported_as_inf(self):
        space = small_space()
        log = run_parallel(
            RandomSearch(space, seed=0), sphere, 30, 4,
            constant_cost(1.0), max_retries=0,
            faults=FaultSchedule(crash=0.9, seed=2),
        )
        assert len(log) == 30
        assert any(t.value == float("inf") for t in log.trials)

    def test_failure_injection_deterministic(self):
        space = small_space()
        a = run_parallel(RandomSearch(space, seed=0), sphere, 40, 4,
                         constant_cost(2.0), faults=FaultSchedule(crash=0.2, seed=7))
        b = run_parallel(RandomSearch(space, seed=0), sphere, 40, 4,
                         constant_cost(2.0), faults=FaultSchedule(crash=0.2, seed=7))
        assert [t.sim_time for t in a.trials] == [t.sim_time for t in b.trials]

    def test_validation(self):
        space = small_space()
        with pytest.raises(ValueError):
            run_parallel(RandomSearch(space), sphere, 10, 2,
                         faults=FaultSchedule(crash=1.0))
        with pytest.raises(ValueError):
            run_parallel(RandomSearch(space), sphere, 10, 2, max_retries=-1)
        # The pre-schedule spellings are gone, not shimmed.
        for stale in ({"failure_rate": 0.1}, {"failure_seed": 1}, {"retry_backoff": 1.0}):
            with pytest.raises(TypeError):
                run_parallel(RandomSearch(space), sphere, 10, 2, **stale)

    def test_stats_account_for_every_crash(self):
        """Every injected crash is either retried or ends an inf trial:
        failures == retries + #inf — the ledger balances."""
        space = small_space()
        log = run_parallel(
            RandomSearch(space, seed=0), sphere, 40, 4,
            constant_cost(1.0), max_retries=2,
            faults=FaultSchedule(crash=0.35, seed=9),
        )
        stats = log.stats
        n_inf = sum(t.value == float("inf") for t in log.trials)
        assert stats["failures"] > 0
        assert stats["failures"] == stats["retries"] + n_inf
        # Exhausted trials burned exactly max_retries + 1 attempts each.
        assert stats["retries"] >= n_inf * 2 or n_inf == 0

    def test_stats_deterministic_under_failure_seed(self):
        space = small_space()
        runs = [
            run_parallel(RandomSearch(space, seed=0), sphere, 40, 4,
                         constant_cost(2.0), faults=FaultSchedule(crash=0.2, seed=7)).stats
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        other = run_parallel(RandomSearch(space, seed=0), sphere, 40, 4,
                             constant_cost(2.0), faults=FaultSchedule(crash=0.2, seed=8)).stats
        assert other != runs[0]

    def test_values_deterministic_under_failure_seed(self):
        space = small_space()
        a = run_parallel(RandomSearch(space, seed=0), sphere, 40, 4,
                         constant_cost(2.0), faults=FaultSchedule(crash=0.2, seed=7))
        b = run_parallel(RandomSearch(space, seed=0), sphere, 40, 4,
                         constant_cost(2.0), faults=FaultSchedule(crash=0.2, seed=7))
        assert [t.value for t in a.trials] == [t.value for t in b.trials]
        assert [t.trial_id for t in a.trials] == [t.trial_id for t in b.trials]

    def test_sync_mode_failure_injection(self):
        """The BSP scheduler shares the async fault model: crashes retry
        in place, exhausted trials land as inf, stats balance."""
        space = small_space()
        log = run_parallel(
            RandomSearch(space, seed=0), sphere, 24, 4,
            constant_cost(1.0), sync=True, max_retries=1,
            faults=FaultSchedule(crash=0.4, seed=5),
        )
        assert len(log) == 24
        n_inf = sum(t.value == float("inf") for t in log.trials)
        assert log.stats["failures"] == log.stats["retries"] + n_inf
        # Barrier times stay monotone non-decreasing even with retries.
        times = [t.sim_time for t in log.trials]
        assert times == sorted(times)
