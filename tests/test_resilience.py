"""Tests for the checkpoint/restart resilience model (repro.hpc.resilience)."""

import numpy as np
import pytest

from repro.hpc import (
    SUMMIT_ERA,
    campaign_efficiency,
    checkpoint_time_for_training,
    daly_interval,
    efficiency,
    expected_runtime,
    mlp_profile,
    system_mtbf,
)

HOUR = 3600.0


class TestMTBF:
    def test_scales_inverse_with_nodes(self):
        assert system_mtbf(1000 * HOUR, 1000) == pytest.approx(HOUR)

    def test_validation(self):
        with pytest.raises(ValueError):
            system_mtbf(0, 10)
        with pytest.raises(ValueError):
            system_mtbf(HOUR, 0)


def young_interval(checkpoint_time, mtbf):
    """Young's first-order optimal checkpoint period, sqrt(2 C M): the
    reference Daly's refinement is checked against."""
    return np.sqrt(2.0 * checkpoint_time * mtbf)


class TestIntervals:
    def test_young_formula(self):
        # Daly's period with the correction terms stripped is Young's.
        c, m = 10.0, 2000.0
        ratio = np.sqrt(c / (2 * m))
        daly = daly_interval(c, m)
        assert (daly + c) / (1 + ratio / 3 + (c / (2 * m)) / 9) == pytest.approx(
            young_interval(c, m))

    def test_daly_close_to_young_when_c_small(self):
        c, m = 1.0, 1e6
        assert daly_interval(c, m) == pytest.approx(young_interval(c, m), rel=0.01)

    def test_daly_shorter_than_young_generally(self):
        c, m = 60.0, HOUR
        assert daly_interval(c, m) < young_interval(c, m)

    def test_daly_failure_dominated_regime(self):
        # C >= 2M: checkpoint back-to-back.
        assert daly_interval(100.0, 40.0) == 100.0

    def test_validation(self):
        with pytest.raises(ValueError):
            daly_interval(0, 100)
        with pytest.raises(ValueError):
            daly_interval(10, 0)


class TestExpectedRuntime:
    def test_no_failures_limit(self):
        """MTBF -> infinity: runtime = work + checkpoint overhead."""
        t = expected_runtime(work=1000.0, checkpoint_time=10.0, restart_time=30.0,
                             mtbf=1e15, interval=100.0)
        assert t == pytest.approx(1000.0 + 10 * 10.0, rel=1e-6)

    def test_runtime_exceeds_work(self):
        t = expected_runtime(1000.0, 10.0, 30.0, mtbf=500.0, interval=100.0)
        assert t > 1000.0

    def test_optimal_interval_beats_extremes(self):
        """Numerical check of the Young/Daly optimum: the analytic interval
        must beat both very frequent and very rare checkpointing."""
        c, m, work, restart = 20.0, 2 * HOUR, 24 * HOUR, 60.0
        tau_opt = daly_interval(c, m)
        t_opt = expected_runtime(work, c, restart, m, tau_opt)
        t_dense = expected_runtime(work, c, restart, m, interval=c)
        t_sparse = expected_runtime(work, c, restart, m, interval=50 * tau_opt)
        assert t_opt < t_dense
        assert t_opt < t_sparse

    def test_efficiency_in_unit_interval(self):
        eff = efficiency(HOUR, 10.0, 30.0, mtbf=10 * HOUR, interval=600.0)
        assert 0 < eff < 1

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_runtime(0, 1, 1, 100, 10)
        with pytest.raises(ValueError):
            expected_runtime(10, 1, 1, 100, 0)

    def test_failure_dominated_regime_finite(self):
        """Regression: seg >> mtbf underflowed exp(-seg/M) to exactly 0.0,
        making 1 - p_fail zero and raising ZeroDivisionError."""
        t = expected_runtime(work=1000.0, checkpoint_time=10.0, restart_time=30.0,
                             mtbf=1.0, interval=1000.0)
        assert np.isfinite(t)
        assert t > 1000.0

    def test_clamp_does_not_perturb_normal_regime(self):
        t = expected_runtime(1000.0, 10.0, 30.0, mtbf=500.0, interval=100.0)
        assert np.isfinite(t) and t > 1000.0


@pytest.fixture(scope="module")
def big_profile():
    return mlp_profile([16384] * 10, batch_size=1024)  # ~2.4B params


class TestTrainingCheckpoints:
    def test_checkpoint_bytes_include_optimizer(self, big_profile):
        pfs = SUMMIT_ERA.tier("pfs")
        with_opt = checkpoint_time_for_training(big_profile, pfs, include_optimizer=True)
        without = checkpoint_time_for_training(big_profile, pfs, include_optimizer=False)
        assert with_opt > without

    def test_nvram_checkpoint_cheaper_than_pfs(self, big_profile):
        nv = checkpoint_time_for_training(big_profile, SUMMIT_ERA.tier("nvram"))
        pfs = checkpoint_time_for_training(big_profile, SUMMIT_ERA.tier("pfs"))
        assert nv < pfs

    def test_campaign_efficiency_drops_with_scale(self, big_profile):
        effs = [
            campaign_efficiency(big_profile, SUMMIT_ERA, n)["efficiency"]
            for n in (64, 4096, 65536)
        ]
        assert effs[0] > effs[1] > effs[2]

    def test_nvram_checkpointing_raises_efficiency(self, big_profile):
        """The C12/resilience coupling: cheap node-local checkpoints beat
        PFS checkpoints at scale."""
        pfs = campaign_efficiency(big_profile, SUMMIT_ERA, 16384, tier_name="pfs")
        nv = campaign_efficiency(big_profile, SUMMIT_ERA, 16384, tier_name="nvram")
        assert nv["efficiency"] > pfs["efficiency"]
        assert nv["checkpoint_time"] < pfs["checkpoint_time"]

    def test_interval_shrinks_with_scale(self, big_profile):
        tau_small = campaign_efficiency(big_profile, SUMMIT_ERA, 64)["interval"]
        tau_big = campaign_efficiency(big_profile, SUMMIT_ERA, 16384)["interval"]
        assert tau_big < tau_small
