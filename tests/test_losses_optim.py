"""Tests for losses, optimizers, and schedules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn.losses as L
from repro.nn import (
    SGD,
    AdaGrad,
    Adam,
    CosineAnnealing,
    ExponentialDecay,
    RMSProp,
    ScheduledOptimizer,
    StepDecay,
    Tensor,
    WarmupCosine,
)
from repro.nn.schedules import Constant

from helpers import check_grad, numerical_grad

RNG = np.random.default_rng(21)


class TestLosses:
    def test_mse_value(self):
        pred = Tensor(np.array([1.0, 2.0]))
        assert L.mse(pred, np.array([0.0, 0.0])).item() == pytest.approx(2.5)

    def test_mse_grad(self):
        t = RNG.standard_normal((4, 2))
        check_grad(lambda p: L.mse(p, t), RNG.standard_normal((4, 2)))

    def test_mae_grad(self):
        t = RNG.standard_normal((4, 2))
        p = RNG.standard_normal((4, 2)) + 3.0  # keep |diff| away from 0
        check_grad(lambda x: L.mae(x, t), p)

    def test_huber_quadratic_region(self):
        pred = Tensor(np.array([0.5]))
        assert L.huber(pred, np.array([0.0]), delta=1.0).item() == pytest.approx(0.125)

    def test_huber_linear_region(self):
        pred = Tensor(np.array([3.0]))
        assert L.huber(pred, np.array([0.0]), delta=1.0).item() == pytest.approx(2.5)

    def test_huber_grad(self):
        t = np.zeros((5,))
        p = np.array([-3.0, -0.5, 0.2, 0.7, 2.5])
        check_grad(lambda x: L.huber(x, t), p)

    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((2, 4)))
        ce = L.cross_entropy(logits, np.array([0, 1]))
        assert ce.item() == pytest.approx(np.log(4))

    def test_cross_entropy_int_labels_grad(self):
        labels = np.array([0, 2, 1])
        check_grad(lambda x: L.cross_entropy(x, labels), RNG.standard_normal((3, 4)))

    def test_cross_entropy_onehot_matches_int(self):
        logits = RNG.standard_normal((5, 3))
        labels = np.array([0, 1, 2, 1, 0])
        onehot = np.eye(3)[labels]
        a = L.cross_entropy(Tensor(logits), labels).item()
        b = L.cross_entropy(Tensor(logits), onehot).item()
        assert a == pytest.approx(b)

    def test_bce_logits_matches_naive(self):
        x = RNG.standard_normal((20,))
        y = (RNG.random(20) > 0.5).astype(float)
        stable = L.binary_cross_entropy_with_logits(Tensor(x), y).item()
        p = 1 / (1 + np.exp(-x))
        naive = -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()
        assert stable == pytest.approx(naive)

    def test_bce_logits_extreme_stable(self):
        x = np.array([-500.0, 500.0])
        y = np.array([0.0, 1.0])
        out = L.binary_cross_entropy_with_logits(Tensor(x), y).item()
        assert np.isfinite(out) and out < 1e-6

    def test_bce_grad(self):
        y = (RNG.random(8) > 0.5).astype(float)
        check_grad(lambda x: L.binary_cross_entropy_with_logits(x, y), RNG.standard_normal(8))

    def test_kl_gaussian_zero_at_standard_normal(self):
        mu = Tensor(np.zeros((3, 4)), requires_grad=True)
        lv = Tensor(np.zeros((3, 4)), requires_grad=True)
        assert L.kl_divergence_gaussian(mu, lv).item() == pytest.approx(0.0)

    def test_kl_gaussian_positive(self):
        mu = Tensor(RNG.standard_normal((3, 4)), requires_grad=True)
        lv = Tensor(RNG.standard_normal((3, 4)), requires_grad=True)
        assert L.kl_divergence_gaussian(mu, lv).item() > 0

    def test_r2_loss_perfect_prediction(self):
        t = RNG.standard_normal(10)
        assert L.r2_loss(Tensor(t.copy()), t).item() == pytest.approx(0.0, abs=1e-9)

    def test_get_unknown(self):
        with pytest.raises(ValueError):
            L.get("nope")


def quadratic_params(dim=5, seed=0):
    rng = np.random.default_rng(seed)
    target = rng.standard_normal(dim)
    p = Tensor(np.zeros(dim), requires_grad=True)
    return p, target


def run_opt(opt_cls, steps=300, **kwargs):
    p, target = quadratic_params()
    opt = opt_cls([p], **kwargs)
    for _ in range(steps):
        diff = p - Tensor(target)
        loss = (diff * diff).sum()
        opt.zero_grad()
        loss.backward()
        opt.step()
    return p.data, target


class TestOptimizers:
    def test_sgd_converges(self):
        got, want = run_opt(SGD, lr=0.1)
        assert np.allclose(got, want, atol=1e-4)

    def test_sgd_momentum_converges(self):
        got, want = run_opt(SGD, lr=0.05, momentum=0.9)
        assert np.allclose(got, want, atol=1e-4)

    def test_sgd_nesterov_converges(self):
        got, want = run_opt(SGD, lr=0.05, momentum=0.9, nesterov=True)
        assert np.allclose(got, want, atol=1e-4)

    def test_nesterov_requires_momentum(self):
        p, _ = quadratic_params()
        with pytest.raises(ValueError):
            SGD([p], lr=0.1, nesterov=True)

    def test_adam_converges(self):
        got, want = run_opt(Adam, lr=0.05, steps=800)
        assert np.allclose(got, want, atol=1e-3)

    def test_rmsprop_converges(self):
        got, want = run_opt(RMSProp, lr=0.02, steps=800)
        assert np.allclose(got, want, atol=1e-2)

    def test_adagrad_converges(self):
        got, want = run_opt(AdaGrad, lr=0.5, steps=800)
        assert np.allclose(got, want, atol=1e-2)

    def test_weight_decay_shrinks_solution(self):
        got_wd, want = run_opt(SGD, lr=0.1, weight_decay=1.0)
        assert np.linalg.norm(got_wd) < np.linalg.norm(want)

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_bad_lr_raises(self):
        p, _ = quadratic_params()
        with pytest.raises(ValueError):
            Adam([p], lr=0.0)

    def test_skips_none_grads(self):
        p, _ = quadratic_params()
        opt = SGD([p], lr=0.1)
        before = p.data.copy()
        opt.step()  # no backward happened
        assert np.array_equal(p.data, before)

    def test_grad_norm_and_clip(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        p.grad = np.full(4, 3.0)
        opt = SGD([p], lr=0.1)
        assert opt.grad_norm() == pytest.approx(6.0)
        opt.clip_grad_norm(3.0)
        assert opt.grad_norm() == pytest.approx(3.0)

    def test_zero_grad_clears(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        p.grad = np.ones(4)
        SGD([p], lr=0.1).zero_grad()
        assert p.grad is None


class TestSchedules:
    def test_constant(self):
        assert Constant(0.1)(100) == 0.1

    def test_step_decay(self):
        s = StepDecay(1.0, step_size=10, gamma=0.5)
        assert s(0) == 1.0
        assert s(10) == 0.5
        assert s(20) == 0.25

    def test_exponential(self):
        s = ExponentialDecay(1.0, decay_rate=0.5, decay_steps=10)
        assert s(10) == pytest.approx(0.5)

    def test_cosine_endpoints(self):
        s = CosineAnnealing(1.0, total_steps=100, min_lr=0.1)
        assert s(0) == pytest.approx(1.0)
        assert s(100) == pytest.approx(0.1)
        assert s(200) == pytest.approx(0.1)  # clamps past the end

    def test_warmup_cosine(self):
        s = WarmupCosine(1.0, warmup_steps=10, total_steps=110)
        assert s(0) == pytest.approx(0.1)
        assert s(9) == pytest.approx(1.0)
        assert s(110) == pytest.approx(0.0, abs=1e-12)

    def test_warmup_validation(self):
        with pytest.raises(ValueError):
            WarmupCosine(1.0, warmup_steps=10, total_steps=5)

    def test_scheduled_optimizer_applies_lr(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        opt = ScheduledOptimizer(SGD([p], lr=999.0), StepDecay(1.0, step_size=1, gamma=0.5))
        p.grad = np.ones(2)
        opt.step()
        assert opt.lr == pytest.approx(1.0)  # step 0 -> lr 1.0
        p.grad = np.ones(2)
        opt.step()
        assert opt.lr == pytest.approx(0.5)


class TestFocalLoss:
    def test_reduces_to_scaled_bce_at_gamma_zero(self):
        logits = RNG.standard_normal(20)
        y = (RNG.random(20) > 0.5).astype(float)
        # gamma=0, alpha=0.5: focal = 0.5 * BCE.
        focal = L.focal_loss_with_logits(Tensor(logits), y, gamma=0.0, alpha=0.5).item()
        bce = L.binary_cross_entropy_with_logits(Tensor(logits), y).item()
        assert focal == pytest.approx(0.5 * bce, rel=1e-9)

    def test_downweights_easy_examples(self):
        """Confident-correct predictions contribute far less under focal
        loss than under BCE (relative to a hard example)."""
        easy = np.array([6.0])   # confident positive
        hard = np.array([0.0])   # uncertain
        y = np.array([1.0])
        f_easy = L.focal_loss_with_logits(Tensor(easy), y, gamma=2.0, alpha=0.5).item()
        f_hard = L.focal_loss_with_logits(Tensor(hard), y, gamma=2.0, alpha=0.5).item()
        b_easy = L.binary_cross_entropy_with_logits(Tensor(easy), y).item()
        b_hard = L.binary_cross_entropy_with_logits(Tensor(hard), y).item()
        assert (f_easy / f_hard) < (b_easy / b_hard) * 0.1

    def test_alpha_weights_positives(self):
        logits = np.array([0.0])
        pos = L.focal_loss_with_logits(Tensor(logits), np.array([1.0]), gamma=0.0, alpha=0.9).item()
        neg = L.focal_loss_with_logits(Tensor(logits), np.array([0.0]), gamma=0.0, alpha=0.9).item()
        assert pos == pytest.approx(9 * neg, rel=1e-9)

    def test_gradient_finite_and_matches_numeric(self):
        y = (RNG.random(6) > 0.5).astype(float)
        x = RNG.standard_normal(6)
        check_grad(lambda t: L.focal_loss_with_logits(t, y), x)

    def test_validation(self):
        with pytest.raises(ValueError):
            L.focal_loss_with_logits(Tensor(np.zeros(2)), np.zeros(2), gamma=-1)
        with pytest.raises(ValueError):
            L.focal_loss_with_logits(Tensor(np.zeros(2)), np.zeros(2), alpha=1.0)

    def test_registered_in_losses(self):
        assert L.get("focal") is L.focal_loss_with_logits


class TestOptimizerGradIntegrity:
    """step() must never write through p.grad — the scratch-buffer update
    forms stage everything through optimizer-owned memory."""

    @pytest.mark.parametrize("make_opt", [
        lambda ps: SGD(ps, lr=0.1),
        lambda ps: SGD(ps, lr=0.1, momentum=0.9, nesterov=True),
        lambda ps: SGD(ps, lr=0.1, weight_decay=0.01),
        lambda ps: Adam(ps, lr=0.1, weight_decay=0.01),
        lambda ps: RMSProp(ps, lr=0.1),
        lambda ps: AdaGrad(ps, lr=0.1),
    ])
    def test_step_does_not_mutate_grad(self, make_opt):
        p = Tensor(RNG.standard_normal((4, 3)), requires_grad=True)
        opt = make_opt([p])
        for _ in range(3):
            p.grad = RNG.standard_normal((4, 3))
            snapshot = p.grad.copy()
            opt.step()
            np.testing.assert_array_equal(p.grad, snapshot)

    def test_step_allocates_nothing_after_warmup(self):
        import tracemalloc

        p = Tensor(RNG.standard_normal((64, 64)), requires_grad=True)
        opt = Adam([p], lr=1e-3)
        p.grad = RNG.standard_normal((64, 64))
        opt.step()  # warmup: moments + scratch allocated here
        opt.step()
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(5):
            opt.step()
        after = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        # A handful of interpreter-level bytes is fine; array-sized
        # allocations (64*64*8 = 32 KiB each) are not.
        assert after - before < 16_384, f"steady-state step() allocated {after - before} bytes"


class TestLossTargetShape:
    """A target that broadcasting would grow pred by — a 1-D ``y`` under a
    ``Dense(1)`` head — is refused instead of scoring every (i, j) pair."""

    ELEMENTWISE = [L.mse, L.mae, L.huber, L.binary_cross_entropy_with_logits, L.focal_loss_with_logits, L.r2_loss]

    @pytest.mark.parametrize("loss", ELEMENTWISE, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("pred_shape, target_shape", [((16, 1), (16,)), ((16,), (16, 1)), ((4, 3), (4,))])
    def test_growing_target_is_refused(self, loss, pred_shape, target_shape):
        pred = Tensor(RNG.standard_normal(pred_shape), requires_grad=True)
        with pytest.raises(ValueError, match=r"target shape .* prediction shape"):
            loss(pred, RNG.random(target_shape))

    @pytest.mark.parametrize("loss", ELEMENTWISE, ids=lambda f: f.__name__)
    def test_broadcast_within_pred_is_kept(self, loss):
        pred = Tensor(RNG.standard_normal((5, 3)), requires_grad=True)
        out = loss(pred, RNG.random((1, 3)))
        assert out.shape == () and np.isfinite(out.item())

    def test_fit_with_flat_target_under_a_one_unit_head_is_refused(self):
        from repro.nn import Dense, Sequential

        model = Sequential([Dense(4, activation="relu"), Dense(1)])
        x, y = RNG.standard_normal((32, 3)), RNG.standard_normal(32)
        with pytest.raises(ValueError, match=r"\(16,\) .* \(16, 1\)"):
            model.fit(x, y, epochs=1, batch_size=16, loss="mse")
        model.fit(x, y.reshape(-1, 1), epochs=1, batch_size=16, loss="mse")


class TestMseEntry:
    """``mse`` is one op-table node with the floats of the four-node chain
    it replaced (frozen in ``tests/reference.py``)."""

    @staticmethod
    def composed(pred, target):
        diff = pred - Tensor(target)
        return (diff * diff).mean()

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from([(32, 64), (7, 3), (5, 1), (4, 2, 3), (6,), (1, 1)]),
        broadcast=st.booleans(), dtype=st.sampled_from([np.float64, np.float32]),
        window=st.sampled_from([1, 3]), plan=st.sampled_from([None, "bf16", "fp16"]),
        seed=st.integers(0, 10**6),
    )
    def test_matches_composed_chain_byte_for_byte(self, shape, broadcast, dtype, window, plan, seed):
        from repro.nn import amp
        import reference

        rng = np.random.default_rng(seed)
        pd = rng.standard_normal(shape).astype(dtype)
        target = rng.standard_normal((1,) * (len(shape) - 1) + shape[-1:] if broadcast else shape).astype(dtype)
        g = np.asarray(1.0 / window, dtype=dtype)
        ref_loss, ref_grad = reference.mse_forward_backward(pd, target, g)
        with amp.autocast(plan):
            fused, chain = Tensor(pd.copy(), requires_grad=True), Tensor(pd.copy(), requires_grad=True)
            out, out_chain = L.mse(fused, target), self.composed(chain, target)
            out.backward(g)
            out_chain.backward(g)
        for got, want in ((out.data, ref_loss), (fused.grad, ref_grad), (out_chain.data, ref_loss),
                          (chain.grad, ref_grad)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_one_tape_node_per_call(self):
        from repro.nn.tensor import tape_node_count

        pred = Tensor(RNG.standard_normal((8, 4)), requires_grad=True)
        before = tape_node_count()
        L.mse(pred, RNG.standard_normal((8, 4)))
        assert tape_node_count() - before == 1

    def test_untaped_forward_saves_nothing(self):
        from repro.nn import no_grad
        from repro.nn.tensor import tape_node_count

        pred = Tensor(RNG.standard_normal((8, 4)), requires_grad=True)
        before = tape_node_count()
        with no_grad():
            out = L.mse(pred, np.zeros((8, 4)))
        assert tape_node_count() == before and out._backward_fn is None


OPTIMIZERS = {
    "sgd": lambda ps, wd: SGD(ps, lr=0.05, weight_decay=wd),
    "momentum": lambda ps, wd: SGD(ps, lr=0.05, momentum=0.9, weight_decay=wd),
    "nesterov": lambda ps, wd: SGD(ps, lr=0.05, momentum=0.9, nesterov=True, weight_decay=wd),
    "adam": lambda ps, wd: Adam(ps, lr=1e-2, weight_decay=wd),
    "rmsprop": lambda ps, wd: RMSProp(ps, lr=1e-2, weight_decay=wd),
    "adagrad": lambda ps, wd: AdaGrad(ps, lr=1e-1, weight_decay=wd),
}


def count_ranges(opt):
    """Wrap ``opt``'s update body; the returned list collects each call's range."""
    calls, body = [], opt._update

    def counted(r, grad, dtype):
        calls.append(r)
        return body(r, grad, dtype)

    opt._update = counted
    return calls


class TestOneUpdateBody:
    """The body swept once over arena-view gradients and run once per
    parameter over tape-owned ones reads the same floats."""

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(sorted(OPTIMIZERS)), wd=st.sampled_from([0.0, 0.01]),
        dtype=st.sampled_from([np.float64, np.float32]),
        shapes=st.lists(st.sampled_from([(3,), (4, 5), (2, 3, 2), (1,), (7, 1)]), min_size=1, max_size=5),
        seed=st.integers(0, 10**6),
    )
    def test_arena_sweep_matches_per_parameter_ranges(self, name, wd, dtype, shapes, seed):
        from repro.nn.tensor import GradArena

        rng = np.random.default_rng(seed)
        init = [rng.standard_normal(s).astype(dtype) for s in shapes]
        swept = [Tensor(a.copy(), requires_grad=True) for a in init]
        ranged = [Tensor(a.copy(), requires_grad=True) for a in init]
        opt_s, opt_r = OPTIMIZERS[name](swept, wd), OPTIMIZERS[name](ranged, wd)
        arena = GradArena(swept)
        calls_s, calls_r = count_ranges(opt_s), count_ranges(opt_r)
        for _ in range(25):
            grads = [rng.standard_normal(s).astype(dtype) for s in shapes]
            for v, g in zip(arena.views, grads):
                v[...] = g
            arena.bind()
            for p, g in zip(ranged, grads):
                p.grad = g.copy()
            opt_s.step()
            opt_r.step()
            opt_s.zero_grad()
            opt_r.zero_grad()
        assert len(calls_s) == 25 and len(calls_r) == 25 * len(shapes)
        for a, b in zip(swept, ranged):
            assert a.data.tobytes() == b.data.tobytes()
        assert opt_s.state.keys() == opt_r.state.keys()
        for k in opt_s.state:
            assert opt_s.state[k].tobytes() == opt_r.state[k].tobytes()

    @staticmethod
    def model_and_data(seed=0):
        from repro.nn import Dense, Sequential

        model = Sequential([Dense(8, activation="tanh"), Dense(6)])
        model.build((6,), np.random.default_rng(seed))
        return model, np.random.default_rng(seed + 1).standard_normal((48, 6))

    def test_fit_step_runs_one_range(self):
        from repro.nn.optim import BLOCK

        model, x = self.model_and_data()
        opt = Adam(model.parameters(), lr=1e-2)
        calls = count_ranges(opt)
        model.fit(x, None, epochs=2, batch_size=16, loss="mse", optimizer=opt)
        assert calls == [slice(0, BLOCK)] * 6  # 3 batches x 2 epochs, one range each

    def test_hand_loop_runs_one_range_per_parameter(self):
        model, x = self.model_and_data()
        params = list(model.parameters())
        opt = Adam(params, lr=1e-2)
        calls = count_ranges(opt)
        L.mse(model.forward(Tensor(x[:16]), training=True), x[:16]).backward()
        opt.step()
        sizes = [p.data.size for p in params]
        assert [r.stop - r.start for r in calls] == sizes

    def test_parameter_without_grad_is_untouched(self):
        a = Tensor(RNG.standard_normal((3, 2)), requires_grad=True)
        b = Tensor(RNG.standard_normal(4), requires_grad=True)
        opt = Adam([a, b], lr=1e-2)
        a.grad, b.grad = RNG.standard_normal((3, 2)), RNG.standard_normal(4)
        opt.step()
        b_data, m, v = b.data.copy(), opt.state["m"][6:].copy(), opt.state["v"][6:].copy()
        a.grad, b.grad = RNG.standard_normal((3, 2)), None
        opt.step()
        assert b.data.tobytes() == b_data.tobytes()
        assert opt.state["m"][6:].tobytes() == m.tobytes() and opt.state["v"][6:].tobytes() == v.tobytes()

    def test_fit_and_hand_loop_alternating_match_per_parameter_reference(self):
        # One optimizer stepped from fit (arena views) and from a hand loop
        # (tape-owned grads) in turn, against one that only ever sees copies.
        runs = []
        for per_parameter in (False, True):
            model, x = self.model_and_data()
            opt = Adam(model.parameters(), lr=1e-2, weight_decay=0.01)
            if per_parameter:
                step = opt.step

                def copied_step(step=step, opt=opt):
                    for p in opt.params:
                        p.grad = None if p.grad is None else p.grad.copy()
                    step()

                opt.step = copied_step
            for epoch in range(3):
                model.fit(x, None, epochs=1, batch_size=16, loss="mse", optimizer=opt, seed=epoch)
                for i in range(0, 48, 16):
                    L.mse(model.forward(Tensor(x[i:i + 16]), training=True), x[i:i + 16]).backward()
                    opt.step()
                    opt.zero_grad()
            runs.append(([p.data.tobytes() for p in model.parameters()],
                         {k: v.tobytes() for k, v in opt.state.items()}))
        assert runs[0] == runs[1]

    def test_arena_step_allocates_nothing_after_warmup(self):
        import tracemalloc

        from repro.nn.tensor import GradArena

        params = [Tensor(RNG.standard_normal((64, 64)), requires_grad=True),
                  Tensor(RNG.standard_normal(64), requires_grad=True)]
        opt = Adam(params, lr=1e-3, weight_decay=0.01)
        arena = GradArena(params)
        arena.flat[:] = RNG.standard_normal(arena.flat.size)
        arena.bind()
        calls = count_ranges(opt)
        opt.step()  # warmup: moments + scratch allocated, the arena matched
        opt.step()
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(5):
            opt.step()
        after = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        assert len(calls) == 7  # every step swept the arena as one range
        assert after - before < 16_384, f"steady-state step() allocated {after - before} bytes"
