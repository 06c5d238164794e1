"""Tests for the numerically-exact distributed-SGD simulations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.candle import build_p1b2_classifier
from repro.datasets import make_tumor_expression
from repro.nn import SGD
from repro.workflow import (
    topk_sparsify,
    train_async_sgd,
    train_sync_data_parallel,
    train_topk_sgd,
)

RNG = np.random.default_rng(23)


@pytest.fixture(scope="module")
def data():
    ds = make_tumor_expression(n_samples=256, n_genes=40, n_classes=3, seed=0)
    return ds.x, ds.y


def make_model():
    return build_p1b2_classifier(3, hidden=(16,), dropout=0.0)


class TestSyncDataParallel:
    def test_converges(self, data):
        x, y = data
        res = train_sync_data_parallel(make_model(), x, y, n_workers=4, epochs=6,
                                       loss="cross_entropy", lr=0.05, seed=0)
        assert res.final_loss < res.epoch_losses[0] * 0.4

    def test_matches_large_batch_single_worker(self, data):
        """Averaging K worker gradients at the same weights must equal one
        big-batch gradient over the union — the allreduce identity."""
        x, y = data
        # Build two identical models.
        m1, m2 = make_model(), make_model()
        rng = np.random.default_rng(5)
        m1.build(x.shape[1:], np.random.default_rng(5))
        m2.build(x.shape[1:], np.random.default_rng(5))
        from repro.nn import losses as L
        from repro.nn.tensor import Tensor

        # Worker batches = disjoint halves of one big batch.
        xb, yb = x[:32], y[:32]
        halves = [(xb[:16], yb[:16]), (xb[16:], yb[16:])]
        grads_avg = None
        for hx, hy in halves:
            for p in m1.parameters():
                p.grad = None
            L.cross_entropy(m1.forward(Tensor(hx), training=True), hy).backward()
            gs = [p.grad.copy() for p in m1.parameters()]
            grads_avg = gs if grads_avg is None else [a + b for a, b in zip(grads_avg, gs)]
        grads_avg = [g / 2 for g in grads_avg]

        for p in m2.parameters():
            p.grad = None
        L.cross_entropy(m2.forward(Tensor(xb), training=True), yb).backward()
        grads_big = [p.grad for p in m2.parameters()]
        for ga, gb in zip(grads_avg, grads_big):
            assert np.allclose(ga, gb, atol=1e-12)

    def test_comm_volume_accounting(self, data):
        x, y = data
        res = train_sync_data_parallel(make_model(), x, y, n_workers=4, epochs=1,
                                       loss="cross_entropy", seed=0)
        assert res.comm_bytes > 0
        assert res.comm_bytes == res.dense_bytes
        assert res.compression_ratio == 1.0

    def test_validation(self, data):
        x, y = data
        with pytest.raises(ValueError):
            train_sync_data_parallel(make_model(), x, y, n_workers=0)


class TestAsyncSGD:
    def test_zero_staleness_converges(self, data):
        x, y = data
        res = train_async_sgd(make_model(), x, y, n_workers=4, staleness=0, epochs=5,
                              loss="cross_entropy", lr=0.05, seed=0)
        assert res.final_loss < 0.3

    def test_moderate_staleness_tolerated(self, data):
        """Claim: async hides latency at acceptable convergence cost for
        moderate staleness."""
        x, y = data
        fresh = train_async_sgd(make_model(), x, y, 4, staleness=0, epochs=5,
                                loss="cross_entropy", lr=0.05, seed=0)
        stale = train_async_sgd(make_model(), x, y, 4, staleness=4, epochs=5,
                                loss="cross_entropy", lr=0.05, seed=0)
        assert stale.final_loss < fresh.final_loss * 3 + 0.1

    def test_extreme_staleness_hurts_early_convergence(self, data):
        x, y = data
        fresh = train_async_sgd(make_model(), x, y, 4, staleness=0, epochs=2,
                                loss="cross_entropy", lr=0.05, seed=0)
        very_stale = train_async_sgd(make_model(), x, y, 4, staleness=64, epochs=2,
                                     loss="cross_entropy", lr=0.05, seed=0)
        assert very_stale.final_loss > fresh.final_loss * 2

    def test_validation(self, data):
        x, y = data
        with pytest.raises(ValueError):
            train_async_sgd(make_model(), x, y, 4, staleness=-1)
        with pytest.raises(ValueError):
            train_async_sgd(make_model(), x, y, 0)


class TestTopkSparsify:
    def test_keeps_largest(self):
        g = np.array([1.0, -5.0, 0.1, 3.0])
        sparse, kept = topk_sparsify(g, 0.5)
        assert kept == 2
        assert sparse.tolist() == [0.0, -5.0, 0.0, 3.0]

    def test_fraction_one_identity(self):
        g = RNG.standard_normal(10)
        sparse, kept = topk_sparsify(g, 1.0)
        assert kept == 10
        assert np.array_equal(sparse, g)

    def test_at_least_one_kept(self):
        sparse, kept = topk_sparsify(RNG.standard_normal(1000), 1e-9)
        assert kept == 1
        assert np.count_nonzero(sparse) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            topk_sparsify(np.ones(4), 0.0)
        with pytest.raises(ValueError):
            topk_sparsify(np.ones(4), 1.5)

    @given(st.integers(0, 1000), st.floats(0.01, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_sparse_norm_bounded_by_dense(self, seed, fraction):
        """Property: sparsification never increases the gradient norm, and
        the kept part plus residual reconstructs the original."""
        g = np.random.default_rng(seed).standard_normal(64)
        sparse, _ = topk_sparsify(g, fraction)
        assert np.linalg.norm(sparse) <= np.linalg.norm(g) + 1e-12
        assert np.allclose(sparse + (g - sparse), g)


class TestTopkSGD:
    def test_dense_fraction_matches_plain_sgd_trajectory(self, data):
        """What being a FitLoop driver buys: top-k that keeps everything
        and async with nothing stale *are* Model.fit under SGD(lr) —
        weights and epoch losses, bit for bit."""
        x, y = data
        kw = dict(epochs=3, loss="cross_entropy", seed=0)
        plain = make_model()
        plain.build(x.shape[1:], np.random.default_rng(4))
        want = plain.fit(x, y, optimizer=SGD(plain.parameters(), lr=0.05), **kw).series("loss")
        assert want[-1] < want[0] * 0.5
        for study in (lambda m: train_topk_sgd(m, x, y, fraction=1.0, lr=0.05, **kw),
                      lambda m: train_async_sgd(m, x, y, 4, staleness=0, batch_size=32, lr=0.05, **kw)):
            model = make_model()
            model.build(x.shape[1:], np.random.default_rng(4))
            assert study(model).epoch_losses == want
            for got, ref in zip(model.get_weights(), plain.get_weights()):
                assert np.array_equal(got, ref)

    def test_aggressive_compression_with_error_feedback_converges(self, data):
        """The 'less dense communication' claim: 1% top-k with error
        feedback must roughly match dense training."""
        x, y = data
        dense = train_topk_sgd(make_model(), x, y, fraction=1.0, epochs=6,
                               loss="cross_entropy", lr=0.05, seed=0)
        sparse = train_topk_sgd(make_model(), x, y, fraction=0.01, epochs=6,
                                loss="cross_entropy", lr=0.05, seed=0)
        assert sparse.final_loss < dense.final_loss * 3 + 0.1
        assert sparse.compression_ratio > 20

    def test_error_feedback_is_what_makes_it_work(self, data):
        x, y = data
        with_ef = train_topk_sgd(make_model(), x, y, fraction=0.01, epochs=6,
                                 loss="cross_entropy", lr=0.05, seed=0)
        without_ef = train_topk_sgd(make_model(), x, y, fraction=0.01, error_feedback=False,
                                    epochs=6, loss="cross_entropy", lr=0.05, seed=0)
        assert with_ef.final_loss < without_ef.final_loss * 0.5

    def test_comm_bytes_scale_with_fraction(self, data):
        x, y = data
        r10 = train_topk_sgd(make_model(), x, y, fraction=0.1, epochs=1,
                             loss="cross_entropy", seed=0)
        r1 = train_topk_sgd(make_model(), x, y, fraction=0.01, epochs=1,
                            loss="cross_entropy", seed=0)
        assert r1.comm_bytes < r10.comm_bytes
        assert r1.compression_ratio > r10.compression_ratio
