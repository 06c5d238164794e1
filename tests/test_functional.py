"""Tests for differentiable ops (repro.nn.functional)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn.functional as F
from repro.nn.amp import autocast
from repro.nn.tensor import Tensor

from helpers import check_dead_input_grad, check_grad, check_grad_multi

RNG = np.random.default_rng(7)


class TestElementwise:
    def test_exp(self):
        check_grad(F.exp, RNG.standard_normal((3, 4)))

    def test_log(self):
        check_grad(F.log, np.abs(RNG.standard_normal((3, 4))) + 0.5)

    def test_tanh(self):
        check_grad(F.tanh, RNG.standard_normal((3, 4)))

    def test_sigmoid(self):
        check_grad(F.sigmoid, RNG.standard_normal((3, 4)))

    def test_sigmoid_extreme_values_stable(self):
        out = F.sigmoid(Tensor(np.array([-1000.0, 1000.0])))
        assert np.all(np.isfinite(out.data))
        assert out.data[0] == pytest.approx(0.0, abs=1e-12)
        assert out.data[1] == pytest.approx(1.0, abs=1e-12)

    def test_relu(self):
        x = RNG.standard_normal((3, 4))
        x[np.abs(x) < 0.1] += 0.5  # keep away from the kink
        check_grad(F.relu, x)

    def test_leaky_relu(self):
        x = RNG.standard_normal((3, 4))
        x[np.abs(x) < 0.1] += 0.5
        check_grad(lambda t: F.leaky_relu(t, alpha=0.1), x)

    def test_elu(self):
        x = RNG.standard_normal((3, 4))
        x[np.abs(x) < 0.1] += 0.5
        check_grad(lambda t: F.elu(t, alpha=1.0), x)

    def test_gelu(self):
        check_grad(F.gelu, RNG.standard_normal((3, 4)))

    def test_softplus(self):
        check_grad(F.softplus, RNG.standard_normal((3, 4)))

    def test_softplus_large_input_stable(self):
        out = F.softplus(Tensor(np.array([800.0])))
        assert np.isfinite(out.data[0])
        assert out.data[0] == pytest.approx(800.0)

    def test_abs(self):
        x = RNG.standard_normal((3, 4))
        x[np.abs(x) < 0.1] += 0.5
        check_grad(F.abs, x)

    def test_clip(self):
        x = RNG.standard_normal((4, 4)) * 2
        x[np.abs(np.abs(x) - 1.0) < 0.1] += 0.3  # keep away from the clip edges
        check_grad(lambda t: F.clip(t, -1.0, 1.0), x)

    def test_where(self):
        cond = RNG.random((3, 4)) > 0.5
        check_grad_multi(
            lambda a, b: F.where(cond, a, b),
            [RNG.standard_normal((3, 4)), RNG.standard_normal((3, 4))],
        )


class TestSoftmaxFamily:
    def test_softmax_rows_sum_to_one(self):
        out = F.softmax(Tensor(RNG.standard_normal((5, 7))))
        assert np.allclose(out.data.sum(axis=-1), 1.0)

    def test_softmax_grad(self):
        # Weighted sum so the gradient isn't trivially zero.
        w = RNG.standard_normal((3, 5))
        check_grad(lambda t: F.softmax(t) * Tensor(w), RNG.standard_normal((3, 5)))

    def test_softmax_invariant_to_shift(self):
        x = RNG.standard_normal((2, 4))
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 100.0)).data
        assert np.allclose(a, b)

    def test_softmax_huge_logits_stable(self):
        out = F.softmax(Tensor(np.array([[1e4, 0.0, -1e4]])))
        assert np.all(np.isfinite(out.data))

    def test_log_softmax_matches_log_of_softmax(self):
        x = RNG.standard_normal((4, 6))
        assert np.allclose(F.log_softmax(Tensor(x)).data, np.log(F.softmax(Tensor(x)).data))

    def test_log_softmax_grad(self):
        w = RNG.standard_normal((3, 5))
        check_grad(lambda t: F.log_softmax(t) * Tensor(w), RNG.standard_normal((3, 5)))

    def test_logsumexp_matches_numpy(self):
        x = RNG.standard_normal((3, 5))
        expected = np.log(np.exp(x).sum(axis=-1))
        assert np.allclose(F.logsumexp(Tensor(x)).data, expected)

    def test_logsumexp_grad(self):
        check_grad(lambda t: F.logsumexp(t, axis=-1), RNG.standard_normal((3, 5)))

    def test_logsumexp_keepdims(self):
        out = F.logsumexp(Tensor(RNG.standard_normal((3, 5))), axis=1, keepdims=True)
        assert out.shape == (3, 1)


class TestDropout:
    def test_eval_is_identity(self):
        x = Tensor(RNG.standard_normal((10, 10)))
        out = F.dropout(x, 0.5, np.random.default_rng(0), training=False)
        assert out is x

    def test_preserves_expectation(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.3, rng, training=True)
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_zero_rate_identity(self):
        x = Tensor(np.ones((4, 4)))
        assert F.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0, np.random.default_rng(0))

    def test_grad_flows_through_mask(self):
        rng = np.random.default_rng(3)
        x = Tensor(np.ones((50,)), requires_grad=True)
        out = F.dropout(x, 0.5, rng, training=True)
        out.sum().backward()
        # Gradient equals the mask: zero where dropped, 1/keep where kept.
        assert set(np.round(np.unique(x.grad), 6)) <= {0.0, 2.0}


class TestEmbedding:
    def test_lookup_shape(self):
        w = Tensor(RNG.standard_normal((10, 4)), requires_grad=True)
        out = F.embedding(w, np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 4)

    def test_grad_scatter(self):
        w = Tensor(np.zeros((5, 3)), requires_grad=True)
        out = F.embedding(w, np.array([0, 0, 2]))
        out.sum().backward()
        assert np.allclose(w.grad[0], 2.0)
        assert np.allclose(w.grad[2], 1.0)
        assert np.allclose(w.grad[1], 0.0)


class TestConv1D:
    def test_output_shape_valid(self):
        x = Tensor(RNG.standard_normal((2, 3, 10)))
        w = Tensor(RNG.standard_normal((5, 3, 3)))
        assert F.conv1d(x, w).shape == (2, 5, 8)

    def test_output_shape_stride(self):
        x = Tensor(RNG.standard_normal((2, 3, 11)))
        w = Tensor(RNG.standard_normal((4, 3, 3)))
        assert F.conv1d(x, w, stride=2).shape == (2, 4, 5)

    def test_output_shape_padding(self):
        x = Tensor(RNG.standard_normal((1, 2, 8)))
        w = Tensor(RNG.standard_normal((3, 2, 3)))
        assert F.conv1d(x, w, padding=1).shape == (1, 3, 8)

    def test_matches_direct_convolution(self):
        x = RNG.standard_normal((1, 1, 6))
        w = RNG.standard_normal((1, 1, 3))
        out = F.conv1d(Tensor(x), Tensor(w)).data[0, 0]
        expected = np.correlate(x[0, 0], w[0, 0], mode="valid")
        assert np.allclose(out, expected)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.conv1d(Tensor(np.zeros((1, 2, 5))), Tensor(np.zeros((1, 3, 3))))

    def test_too_small_input_raises(self):
        with pytest.raises(ValueError):
            F.conv1d(Tensor(np.zeros((1, 1, 2))), Tensor(np.zeros((1, 1, 5))))

    def test_grad_x_w_b(self):
        x = RNG.standard_normal((2, 2, 7))
        w = RNG.standard_normal((3, 2, 3))
        b = RNG.standard_normal(3)
        check_grad_multi(lambda a, ww, bb: F.conv1d(a, ww, bb), [x, w, b])

    def test_grad_with_stride_and_padding(self):
        x = RNG.standard_normal((2, 2, 8))
        w = RNG.standard_normal((3, 2, 3))
        check_grad_multi(lambda a, ww: F.conv1d(a, ww, stride=2, padding=1), [x, w])


class TestPooling:
    def test_maxpool_shape(self):
        x = Tensor(RNG.standard_normal((2, 3, 8)))
        assert F.maxpool1d(x, 2).shape == (2, 3, 4)

    def test_maxpool_values(self):
        x = Tensor(np.array([[[1.0, 5.0, 2.0, 3.0]]]))
        assert np.allclose(F.maxpool1d(x, 2).data, [[[5.0, 3.0]]])

    def test_maxpool_grad(self):
        x = RNG.standard_normal((2, 2, 8))
        check_grad(lambda t: F.maxpool1d(t, 2), x)

    def test_maxpool_overlapping_stride_grad(self):
        x = RNG.standard_normal((1, 2, 9))
        check_grad(lambda t: F.maxpool1d(t, 3, stride=2), x)

    def test_avgpool_values(self):
        x = Tensor(np.array([[[1.0, 3.0, 5.0, 7.0]]]))
        assert np.allclose(F.avgpool1d(x, 2).data, [[[2.0, 6.0]]])

    def test_avgpool_grad(self):
        check_grad(lambda t: F.avgpool1d(t, 2), RNG.standard_normal((2, 2, 8)))

    def test_global_avgpool(self):
        x = RNG.standard_normal((2, 3, 5))
        out = F.global_avgpool1d(Tensor(x))
        assert out.shape == (2, 3)
        assert np.allclose(out.data, x.mean(axis=2))


class TestNormalization:
    def test_batchnorm_normalizes(self):
        x = Tensor(RNG.standard_normal((64, 8)) * 3 + 5)
        gamma = Tensor(np.ones(8), requires_grad=True)
        beta = Tensor(np.zeros(8), requires_grad=True)
        rm, rv = np.zeros(8), np.ones(8)
        out = F.batch_norm(x, gamma, beta, rm, rv, training=True)
        assert np.allclose(out.data.mean(axis=0), 0.0, atol=1e-7)
        assert np.allclose(out.data.std(axis=0), 1.0, atol=1e-2)

    def test_batchnorm_updates_running_stats(self):
        x = Tensor(RNG.standard_normal((128, 4)) + 10.0)
        gamma, beta = Tensor(np.ones(4), requires_grad=True), Tensor(np.zeros(4), requires_grad=True)
        rm, rv = np.zeros(4), np.ones(4)
        F.batch_norm(x, gamma, beta, rm, rv, momentum=1.0, training=True)
        assert np.allclose(rm, 10.0, atol=0.5)

    def test_batchnorm_eval_uses_running_stats(self):
        gamma, beta = Tensor(np.ones(2), requires_grad=True), Tensor(np.zeros(2), requires_grad=True)
        rm, rv = np.array([1.0, 2.0]), np.array([4.0, 9.0])
        x = Tensor(np.array([[1.0, 2.0]]))
        out = F.batch_norm(x, gamma, beta, rm, rv, training=False)
        assert np.allclose(out.data, 0.0, atol=1e-3)

    def test_batchnorm_grad(self):
        x = RNG.standard_normal((8, 3))
        gamma = RNG.standard_normal(3) + 1.5
        beta = RNG.standard_normal(3)

        def op(a, g, b):
            return F.batch_norm(a, g, b, np.zeros(3), np.ones(3), training=True)

        check_grad_multi(op, [x, gamma, beta], atol=1e-4)

    def test_batchnorm_conv_axis(self):
        x = Tensor(RNG.standard_normal((16, 4, 10)))
        gamma, beta = Tensor(np.ones(4), requires_grad=True), Tensor(np.zeros(4), requires_grad=True)
        rm, rv = np.zeros(4), np.ones(4)
        out = F.batch_norm(x, gamma, beta, rm, rv, training=True, axis=(0, 2))
        assert out.shape == (16, 4, 10)
        assert np.allclose(out.data.mean(axis=(0, 2)), 0.0, atol=1e-7)

    def test_layernorm_normalizes_rows(self):
        x = Tensor(RNG.standard_normal((4, 16)) * 7 + 3)
        gamma = Tensor(np.ones(16), requires_grad=True)
        beta = Tensor(np.zeros(16), requires_grad=True)
        out = F.layer_norm(x, gamma, beta)
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-7)

    def test_layernorm_grad(self):
        x = RNG.standard_normal((5, 8))
        gamma = RNG.standard_normal(8) + 1.5
        beta = RNG.standard_normal(8)
        check_grad_multi(lambda a, g, b: F.layer_norm(a, g, b), [x, gamma, beta], atol=1e-4)


class TestLinear:
    def test_linear_with_bias(self):
        check_grad_multi(
            F.linear,
            [RNG.standard_normal((4, 3)), RNG.standard_normal((3, 2)), RNG.standard_normal(2)],
        )

    def test_linear_no_bias(self):
        x = RNG.standard_normal((4, 3))
        w = RNG.standard_normal((3, 2))
        out = F.linear(Tensor(x), Tensor(w))
        assert np.allclose(out.data, x @ w)


@given(st.integers(2, 6), st.integers(2, 6))
@settings(max_examples=15, deadline=None)
def test_softmax_cross_entropy_consistency(n, c):
    """Property: -sum(softmax log_softmax) equals entropy >= 0."""
    x = np.random.default_rng(n * 100 + c).standard_normal((n, c))
    sm = F.softmax(Tensor(x)).data
    lsm = F.log_softmax(Tensor(x)).data
    entropy = -(sm * lsm).sum(axis=-1)
    assert np.all(entropy >= -1e-9)
    assert np.all(entropy <= np.log(c) + 1e-9)


class TestFusedLinearAct:
    def test_grad_x_w_b_all_activations(self):
        for act in (None, "relu", "tanh"):
            x = RNG.standard_normal((4, 5))
            w = RNG.standard_normal((5, 3))
            b = RNG.standard_normal(3)
            check_grad_multi(
                lambda a, ww, bb, act=act: F.linear_act(a, ww, bb, activation=act), [x, w, b]
            )
            # ... and with a data batch (no grad) as the input.
            check_dead_input_grad(
                lambda a, ww, bb, act=act: F.linear_act(a, ww, bb, activation=act), x, [w, b]
            )
            with autocast("bf16"):
                check_dead_input_grad(
                    lambda a, ww, bb, act=act: F.linear_act(a, ww, bb, activation=act),
                    x, [w, b], count_matmuls=False,
                )

    def test_matches_unfused_composition(self):
        x = RNG.standard_normal((6, 4))
        w = RNG.standard_normal((4, 3))
        b = RNG.standard_normal(3)
        for act, unfused in (("relu", F.relu), ("tanh", F.tanh)):
            xf, wf, bf = (Tensor(a.copy(), requires_grad=True) for a in (x, w, b))
            fused = F.linear_act(xf, wf, bf, activation=act)
            fused.sum().backward()
            xu, wu, bu = (Tensor(a.copy(), requires_grad=True) for a in (x, w, b))
            ref = unfused(F.linear(xu, wu, bu))
            ref.sum().backward()
            np.testing.assert_allclose(fused.data, ref.data, atol=1e-6)
            for f, u in ((xf, xu), (wf, wu), (bf, bu)):
                np.testing.assert_allclose(f.grad, u.grad, atol=1e-6)

    def test_single_tape_node(self):
        from repro.nn.tensor import tape_node_count

        x = Tensor(RNG.standard_normal((4, 5)), requires_grad=True)
        w = Tensor(RNG.standard_normal((5, 3)), requires_grad=True)
        b = Tensor(RNG.standard_normal(3), requires_grad=True)
        before = tape_node_count()
        F.linear_act(x, w, b, activation="relu")
        assert tape_node_count() - before == 1

    def test_unknown_activation_raises(self):
        x = Tensor(RNG.standard_normal((2, 3)))
        w = Tensor(RNG.standard_normal((3, 2)))
        with pytest.raises(ValueError, match="unsupported fused activation"):
            F.linear_act(x, w, activation="gelu")

    def test_3d_falls_back(self):
        x = RNG.standard_normal((2, 3, 4))
        w = RNG.standard_normal((4, 5))
        b = RNG.standard_normal(5)
        check_grad_multi(lambda a, ww, bb: F.linear_act(a, ww, bb, activation="relu"), [x, w, b])


class TestFusedSoftmaxCrossEntropy:
    def test_grad_int_labels(self):
        labels = np.array([0, 2, 1, 2])
        check_grad(lambda z: F.softmax_cross_entropy(z, labels), RNG.standard_normal((4, 3)))

    def test_grad_soft_labels(self):
        soft = np.array([[0.7, 0.2, 0.1], [0.1, 0.1, 0.8], [0.3, 0.4, 0.3]])
        check_grad(lambda z: F.softmax_cross_entropy(z, soft), RNG.standard_normal((3, 3)))

    def test_matches_unfused_int_and_onehot(self):
        from repro.nn.losses import cross_entropy_unfused

        z = RNG.standard_normal((8, 5))
        labels = RNG.integers(0, 5, 8)
        onehot = np.eye(5)[labels]
        for target in (labels, onehot):
            zf = Tensor(z.copy(), requires_grad=True)
            fused = F.softmax_cross_entropy(zf, target)
            fused.backward()
            zu = Tensor(z.copy(), requires_grad=True)
            unfused = cross_entropy_unfused(zu, target)
            unfused.backward()
            assert fused.item() == pytest.approx(unfused.item(), abs=1e-6)
            np.testing.assert_allclose(zf.grad, zu.grad, atol=1e-6)

    def test_second_backward_gives_the_same_gradient(self):
        # The backward reads the saved softmax without consuming it, so a
        # node walked twice adds the same gradient twice.
        from repro.nn.losses import cross_entropy_unfused

        z = RNG.standard_normal((4, 3))
        labels = np.array([0, 2, 1, 2])
        for target in (labels, np.eye(3)[labels]):
            once = Tensor(z.copy(), requires_grad=True)
            F.softmax_cross_entropy(once, target).backward()
            twice = Tensor(z.copy(), requires_grad=True)
            loss = F.softmax_cross_entropy(twice, target)
            loss.backward()
            loss.backward()
            np.testing.assert_allclose(twice.grad, 2 * once.grad, rtol=0, atol=1e-12)
            ref = Tensor(z.copy(), requires_grad=True)
            cross_entropy_unfused(ref, target).backward()
            np.testing.assert_allclose(once.grad, ref.grad, rtol=0, atol=1e-12)

    def test_extreme_logits_stable(self):
        z = Tensor(np.array([[1000.0, -1000.0], [-1000.0, 1000.0]]), requires_grad=True)
        loss = F.softmax_cross_entropy(z, np.array([0, 1]))
        loss.backward()
        assert np.isfinite(loss.item())
        assert np.all(np.isfinite(z.grad))


class TestConvStrideOddPadding:
    def test_conv1d_stride3_odd_padding(self):
        x = RNG.standard_normal((2, 2, 11))
        w = RNG.standard_normal((3, 2, 3))
        b = RNG.standard_normal(3)
        check_grad_multi(lambda a, ww, bb: F.conv1d(a, ww, bb, stride=3, padding=1), [x, w, b])

    def test_conv2d_stride2_odd_padding(self):
        x = RNG.standard_normal((2, 2, 6, 6))
        w = RNG.standard_normal((3, 2, 3, 3))
        b = RNG.standard_normal(3)
        check_grad_multi(lambda a, ww, bb: F.conv2d(a, ww, bb, stride=2, padding=1), [x, w, b])

    def test_conv2d_fused_activation_matches_unfused(self):
        x = RNG.standard_normal((2, 2, 5, 5))
        w = RNG.standard_normal((3, 2, 3, 3))
        b = RNG.standard_normal(3)
        for act, unfused in (("relu", F.relu), ("tanh", F.tanh)):
            xf, wf, bf = (Tensor(a.copy(), requires_grad=True) for a in (x, w, b))
            fused = F.conv2d(xf, wf, bf, padding=1, activation=act)
            fused.sum().backward()
            xu, wu, bu = (Tensor(a.copy(), requires_grad=True) for a in (x, w, b))
            ref = unfused(F.conv2d(xu, wu, bu, padding=1))
            ref.sum().backward()
            np.testing.assert_allclose(fused.data, ref.data, atol=1e-6)
            for f, u in ((xf, xu), (wf, wu), (bf, bu)):
                np.testing.assert_allclose(f.grad, u.grad, atol=1e-6)

    def test_conv1d_fused_activation_grad(self):
        x = RNG.standard_normal((2, 2, 8))
        w = RNG.standard_normal((3, 2, 3))
        check_grad_multi(
            lambda a, ww: F.conv1d(a, ww, stride=2, padding=1, activation="tanh"), [x, w]
        )
        check_dead_input_grad(
            lambda a, ww: F.conv1d(a, ww, stride=2, padding=1, activation="tanh"), x, [w]
        )


class TestPoolNonContiguousInput:
    # Regression: pool backward once built its scatter target with
    # zeros_like (order='K'), whose reshape on conv's transposed-view
    # output silently copies — dropping every scattered gradient.
    def test_maxpool2d_grad_through_transposed_view(self):
        x = RNG.standard_normal((2, 3, 4, 4))

        def op(t):
            return F.maxpool2d(t.transpose(0, 1, 3, 2), 2)

        check_grad(op, x)

    def test_conv2d_maxpool_chain_grad(self):
        x = RNG.standard_normal((2, 2, 6, 6))
        w = RNG.standard_normal((3, 2, 3, 3))
        check_grad_multi(lambda a, ww: F.maxpool2d(F.conv2d(a, ww, padding=1), 2), [x, w])
        # The conv of that chain fed a data batch (no grad), bare and fused.
        for act in (None, "relu"):
            b = RNG.standard_normal(3)
            check_dead_input_grad(
                lambda a, ww, bb, act=act: F.conv2d(a, ww, bb, padding=1, activation=act),
                x, [w, b],
            )


class TestDropoutDtype:
    def test_float32_mask_stays_float32(self):
        x = Tensor(RNG.standard_normal((64, 32)).astype(np.float32), requires_grad=True)
        rng = np.random.default_rng(0)
        out = F.dropout(x, 0.5, rng, training=True)
        assert out.data.dtype == np.float32
        out.sum().backward()
        assert x.grad.dtype == np.float32

    def test_float64_unchanged(self):
        x = Tensor(RNG.standard_normal((64, 32)), requires_grad=True)
        rng = np.random.default_rng(0)
        out = F.dropout(x, 0.5, rng, training=True)
        assert out.data.dtype == np.float64
        out.sum().backward()
        assert x.grad.dtype == np.float64
