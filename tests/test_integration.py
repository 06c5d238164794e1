"""Cross-module integration scenarios: the library's pieces composed the
way the keynote's campaigns compose them."""

import numpy as np
import pytest

from repro.candle import build_p1b2_classifier, get_benchmark
from repro.datasets import make_tumor_expression
from repro.hpc import DataParallel, SimCluster
from repro.hpo import (
    Float,
    Int,
    RandomSearch,
    SearchSpace,
    benchmark_objective,
    run_parallel,
)
from repro.nn import Adam, load_training_state, metrics, save_training_state, train_val_split
from repro.precision import PrecisionPolicy, train_with_policy
from repro.workflow import (
    run_training_job,
    simulated_trial_cost,
    train_sync_data_parallel,
)


class TestSearchThenTrain:
    """HPO over a real benchmark -> train the winner under a low-precision
    policy -> verify it beats an untuned default."""

    def test_campaign(self):
        space = SearchSpace(
            {
                "lr": Float(1e-4, 3e-2, log=True),
                "hidden1": Int(16, 128, log=True),
                "hidden2": Int(8, 64, log=True),
            }
        )
        objective = benchmark_objective("p1b2", data_seed=0, max_samples=200, base_epochs=2)
        cluster = SimCluster.build("summit_era", 8)
        cost = simulated_trial_cost("p1b2", cluster)
        log = run_parallel(RandomSearch(space, seed=0), objective, 12, 4, cost)
        best = log.best_config()
        assert np.isfinite(log.best_value())

        # Final training at fp16 with the tuned config on fresh data.
        ds = make_tumor_expression(n_samples=400, n_genes=200, n_classes=4, seed=1)
        x_tr, y_tr, x_te, y_te = train_val_split(ds.x, ds.y, val_frac=0.3, rng=np.random.default_rng(0))
        tuned = build_p1b2_classifier(4, hidden=(int(best["hidden1"]), int(best["hidden2"])), dropout=0.0)
        train_with_policy(tuned, x_tr, y_tr, PrecisionPolicy("fp16"), epochs=10,
                          loss="cross_entropy", lr=float(best["lr"]), seed=0)
        acc = metrics.accuracy(tuned.predict(x_te), y_te)
        assert acc > 0.5  # far above 0.25 chance

    def test_registry_objective_roundtrip(self):
        """Every registry benchmark's objective returns finite values for
        its own default model hyperparameters."""
        for name in ("p1b2", "imaging", "p3b2"):
            obj = benchmark_objective(name, max_samples=80, base_epochs=1)
            val = obj({"lr": 1e-3, "batch_size": 16}, 1)
            assert np.isfinite(val), name


class TestCheckpointAcrossNodes:
    """Checkpoint on 'node A', restore on 'node B', continue data-parallel
    training — the restart path of a real campaign."""

    def test_restart_continues_training(self, tmp_path):
        ds = make_tumor_expression(n_samples=200, n_genes=50, n_classes=3, seed=0)
        model = build_p1b2_classifier(3, hidden=(16,), dropout=0.0)
        model.build(ds.x.shape[1:], np.random.default_rng(0))
        opt = Adam(model.parameters(), lr=1e-3)
        model.fit(ds.x, ds.y, epochs=3, loss="cross_entropy", optimizer=opt, seed=0)
        loss_before = model.evaluate(ds.x, ds.y, loss="cross_entropy")["loss"]
        save_training_state(model, opt, tmp_path / "job.npz", epoch=3)

        # "Node B": fresh process state.
        restored = build_p1b2_classifier(3, hidden=(16,), dropout=0.0)
        restored.build(ds.x.shape[1:], np.random.default_rng(123))
        opt2 = Adam(restored.parameters(), lr=1e-3)
        header = load_training_state(restored, opt2, tmp_path / "job.npz")
        assert header["epoch"] == 3
        loss_restored = restored.evaluate(ds.x, ds.y, loss="cross_entropy")["loss"]
        assert loss_restored == pytest.approx(loss_before)

        # Continue with exact data parallelism; loss keeps going down.
        res = train_sync_data_parallel(restored, ds.x, ds.y, n_workers=4, epochs=3,
                                       loss="cross_entropy", lr=0.02, seed=1)
        assert res.final_loss < loss_restored


class TestTrainingJobOnEveryMachine:
    """The same real training priced on each catalog machine: newer
    machines must be faster at the precision they support."""

    def test_machine_generations_ordered(self):
        ds = make_tumor_expression(n_samples=150, n_genes=60, n_classes=3, seed=0)
        times = {}
        for machine, precision in (("titan_era", "fp32"), ("summit_era", "fp16"), ("future_dl", "fp16")):
            model = build_p1b2_classifier(3, hidden=(64, 32), dropout=0.0)
            cluster = SimCluster.build(machine, 4)
            rep = run_training_job(model, ds.x, ds.y, cluster, DataParallel(4), precision,
                                   epochs=1, loss="cross_entropy", seed=0)
            times[machine] = rep.sim_step_time
        assert times["future_dl"] < times["summit_era"] < times["titan_era"]


class TestCampaignDriver:
    def test_full_campaign_produces_consistent_report(self):
        from repro.hpo import Float, Int, SearchSpace
        from repro.workflow import run_campaign

        space = SearchSpace({
            "lr": Float(1e-4, 3e-2, log=True),
            "hidden1": Int(16, 64, log=True),
            "hidden2": Int(8, 32, log=True),
        })
        rep = run_campaign("p1b2", space, n_trials=8, n_workers=4,
                           final_epochs=5, precision="fp32", max_search_samples=120)
        assert rep.benchmark == "p1b2"
        assert len(rep.search_log) == 8
        assert rep.search_wallclock > 0
        assert rep.final_train_time > 0
        assert rep.total_energy > 0
        assert 0.0 <= rep.final_metric <= 1.0  # accuracy
        assert rep.final_metric > 0.4  # well above 0.25 chance
        assert "campaign[p1b2]" in rep.summary()

    def test_campaign_fp16_branch(self):
        from repro.hpo import Float, Int, SearchSpace
        from repro.workflow import run_campaign

        space = SearchSpace({
            "lr": Float(1e-4, 1e-2, log=True),
            "hidden1": Int(16, 32),
        })
        rep = run_campaign("p1b2", space, n_trials=4, n_workers=2,
                           final_epochs=4, precision="fp16", max_search_samples=100)
        assert rep.final_train_time > 0
        assert rep.total_energy > 0
        assert np.isfinite(rep.final_metric)

    def test_campaign_validation(self):
        from repro.hpo import Float, SearchSpace
        from repro.workflow import run_campaign

        with pytest.raises(ValueError):
            run_campaign("p1b2", SearchSpace({"lr": Float(1e-4, 1e-2)}), n_trials=0)
