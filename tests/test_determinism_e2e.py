"""End-to-end determinism: one seed, one set of weights — always.

The repo's reproducibility contract, checked at the system level rather
than per-module:

* two fresh ``Model.fit`` runs from the same seed produce bit-identical
  weights and loss history (dropout masks included);
* a fault-injected run that crashes **mid-epoch** and restarts from its
  checkpoints (``repro.resilience``) matches the uninterrupted run bit
  for bit;
* attaching the observability recorder does not perturb training — the
  instrumented run's weights equal the detached run's exactly;
* a whole ``run_campaign`` (search + final training) repeated from the
  same seeds reproduces its report numbers exactly.
"""

import numpy as np
import pytest

from repro.hpo.space import Float, Int, SearchSpace
from repro.nn import Sequential
from repro.nn.layers import Activation, Dense, Dropout
from repro.obs import TraceRecorder
from repro.resilience import CRASH, FaultSchedule, run_resilient_training
from repro.workflow.campaign import run_campaign


def _model(dropout=0.25):
    model = Sequential()
    model.add(Dense(12)).add(Activation("relu"))
    if dropout:
        model.add(Dropout(dropout))
    model.add(Dense(3))
    return model


def _data(seed=0, n=60, d=7, classes=3):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d)), rng.integers(0, classes, n)


def _assert_bit_identical(model_a, model_b):
    wa, wb = model_a.get_weights(), model_b.get_weights()
    assert len(wa) == len(wb)
    for a, b in zip(wa, wb):
        np.testing.assert_array_equal(a, b)


class TestFitDeterminism:
    def test_same_seed_bit_identical(self):
        x, y = _data()
        runs = []
        for _ in range(2):
            model = _model()
            hist = model.fit(x, y, epochs=4, batch_size=16, loss="cross_entropy",
                             lr=1e-3, seed=11)
            runs.append((model, hist.series("loss")))
        _assert_bit_identical(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_different_seed_differs(self):
        x, y = _data()
        models = []
        for seed in (0, 1):
            model = _model()
            model.fit(x, y, epochs=2, batch_size=16, loss="cross_entropy",
                      lr=1e-3, seed=seed)
            models.append(model)
        assert any(
            not np.array_equal(a, b)
            for a, b in zip(models[0].get_weights(), models[1].get_weights())
        )

    def test_recorder_does_not_perturb_training(self):
        x, y = _data()
        detached = _model()
        detached.fit(x, y, epochs=3, batch_size=16, loss="cross_entropy",
                     lr=1e-3, seed=5)
        attached = _model()
        rec = TraceRecorder()
        with rec:
            attached.fit(x, y, epochs=3, batch_size=16, loss="cross_entropy",
                         lr=1e-3, seed=5)
        assert len(rec.spans(kind="fit.step")) > 0  # it really was watching
        _assert_bit_identical(detached, attached)


class TestCheckpointRestartDeterminism:
    # 60 samples / batch 16 = 4 steps per epoch: step 6 is mid-epoch 2.
    # checkpoint_every=4 puts the nearest snapshot at step 4, so a crash
    # at step 6 must rewind and replay steps 4-5 to catch back up.
    MID_EPOCH_STEP = 6

    def _run(self, tmp_path, tag, crash_steps=(), instrumented=False):
        x, y = _data(seed=3)
        model = _model()
        # The k-th crash step kills the k-th incarnation (keyed by restart count).
        faults = FaultSchedule(
            entries={("step", k, step): CRASH for k, step in enumerate(crash_steps)}
        ) if crash_steps else None
        kwargs = dict(
            checkpoint_dir=tmp_path / tag, epochs=3, batch_size=16,
            loss="cross_entropy", lr=1e-3, seed=9, checkpoint_every=4,
            faults=faults,
        )
        if instrumented:
            with TraceRecorder():
                history, report = run_resilient_training(model, x, y, **kwargs)
        else:
            history, report = run_resilient_training(model, x, y, **kwargs)
        return model, history, report

    def test_mid_epoch_crash_restart_bit_identical(self, tmp_path):
        clean, clean_hist, _ = self._run(tmp_path, "clean")
        crashed, crashed_hist, report = self._run(
            tmp_path, "crashed", crash_steps=(self.MID_EPOCH_STEP,)
        )
        assert report.restarts == 1
        assert report.steps_replayed > 0  # it really did rewind and replay
        _assert_bit_identical(clean, crashed)
        assert clean_hist.series("loss") == crashed_hist.series("loss")

    def test_multi_crash_restart_bit_identical(self, tmp_path):
        clean, clean_hist, _ = self._run(tmp_path, "clean")
        crashed, crashed_hist, report = self._run(
            tmp_path, "crashed", crash_steps=(2, 5, 9)
        )
        assert report.restarts == 3
        _assert_bit_identical(clean, crashed)
        assert clean_hist.series("loss") == crashed_hist.series("loss")

    def test_instrumented_restart_still_bit_identical(self, tmp_path):
        """The recorder watches the crash/restart cycle without changing it."""
        clean, _, _ = self._run(tmp_path, "clean")
        crashed, _, report = self._run(
            tmp_path, "crashed", crash_steps=(self.MID_EPOCH_STEP,), instrumented=True
        )
        assert report.restarts == 1
        _assert_bit_identical(clean, crashed)


class TestCampaignDeterminism:
    @pytest.mark.slow
    def test_campaign_reproduces_exactly(self):
        space = SearchSpace({
            "lr": Float(1e-4, 1e-2, log=True),
            "hidden1": Int(4, 12),
        })
        reports = [
            run_campaign("p1b1", space, n_trials=2, n_workers=2,
                         final_epochs=1, max_search_samples=50,
                         seed=2, data_seed=2)
            for _ in range(2)
        ]
        a, b = reports
        assert a.best_config == b.best_config
        assert a.final_metric == b.final_metric
        assert a.search_wallclock == b.search_wallclock
        assert [t.value for t in a.search_log.trials] == [t.value for t in b.search_log.trials]


class TestElasticKillResumeDeterminism:
    """The durable-queue contract at system level: a campaign killed at
    any boundary — consumers dying at claim/ack, the driver dying
    mid-search — and resumed from its queue file must reproduce the
    uninterrupted run bit for bit (configs, values, budgets, simulated
    times, worker assignment)."""

    def _rows(self, log):
        return [
            (t.trial_id, dict(t.config), t.value, t.budget, t.sim_time, t.worker)
            for t in log.trials
        ]

    def test_chaos_kill_resume_bit_identical(self, tmp_path):
        from repro.hpo import ASHA, Float as F, SearchSpace as S, run_elastic
        from repro.hpo.objectives import SurrogateLandscape

        space = S({"x": F(0.0, 1.0), "y": F(0.0, 1.0)})
        land = SurrogateLandscape(space, noise=0.0, seed=5)
        cost = lambda config, budget: float(budget)  # noqa: E731
        kills = {(j, 1): ("claim" if j % 2 else "ack") for j in range(2, 30, 5)}
        kw = dict(n_workers=4, cost_model=cost,
                  faults=FaultSchedule(entries={("consumer", *k): b for k, b in kills.items()}),
                  lease_s=6.0)
        mk = lambda: ASHA(space, seed=17, max_budget=9)  # noqa: E731

        full = run_elastic(mk(), land, 48, tmp_path / "full.db", **kw)
        # Driver killed mid-campaign (consumers dying underneath), then
        # resumed with a fresh same-seed strategy on the same queue file.
        run_elastic(mk(), land, 48, tmp_path / "chaos.db", stop_after=19, **kw)
        resumed = run_elastic(mk(), land, 48, tmp_path / "chaos.db", **kw)

        assert resumed.stats["resumed"]
        assert self._rows(resumed) == self._rows(full)

    @pytest.mark.slow
    def test_campaign_over_durable_queue_reproduces_exactly(self, tmp_path):
        space = SearchSpace({
            "lr": Float(1e-4, 1e-2, log=True),
            "hidden1": Int(4, 12),
        })
        reports = [
            run_campaign("p1b1", space, n_trials=2, n_workers=2,
                         final_epochs=1, max_search_samples=50,
                         seed=2, data_seed=2,
                         queue_path=tmp_path / f"camp{i}.db")
            for i in range(2)
        ]
        a, b = reports
        assert a.best_config == b.best_config
        assert a.final_metric == b.final_metric
        assert [t.value for t in a.search_log.trials] == [t.value for t in b.search_log.trials]
