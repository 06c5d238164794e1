"""Property-based gradient sweep: every public layer and loss, checked.

Hypothesis draws batch sizes, feature dims, sequence lengths, and seeds;
each draw builds the layer (or calls the loss) on fresh random data and
compares the autograd gradient against central finite differences via
:func:`repro.nn.gradcheck.gradient_check`.

Coverage is enforced, not hoped for: the final tests enumerate every
public ``Layer`` subclass (including the recurrent cells), every public
loss in :mod:`repro.nn.losses` and every op-table entry
(``functional.OPS``, seen running under a ``TraceRecorder(ops=True)``)
and assert each one appears in the sweep.  A new layer, loss or entry
added without a gradcheck case fails the suite.

Numerics notes baked into the cases:

* gradchecks run in float64 — a 1e-6 central difference is below
  float32 resolution; dtype coverage is instead a float32-vs-float64
  forward-consistency property;
* kinked ops (relu-family activations, max pools, mae, huber) are
  checked at inputs bounded away from their kinks, where they are
  differentiable — :func:`gradient_check`'s documented contract;
* dropout resets its mask RNG before every forward so the finite
  differences see the same mask the autograd pass saw.

The narrow-format sweep at the bottom extends the dtype property to the
real reduced-precision datapaths: every public layer and loss runs
forward+backward at fp32 and under ``autocast("bf16")`` and must match
its float64 reference within relaxed per-format tolerances — with the
same enforced coverage, and with a no-silent-upcast assertion (a float32
input that comes back float64 fails the sweep).
"""

import inspect

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn import losses as losses_mod
from repro.nn import recurrent as recurrent_mod
from repro.nn.gradcheck import gradient_check
from repro.nn import layers as layers_mod
from repro.nn.layers import (
    Activation,
    AvgPool1D,
    BatchNorm,
    Conv1D,
    Conv2D,
    Dense,
    Dropout,
    Embedding,
    Flatten,
    GlobalAvgPool2D,
    Layer,
    MaxPool1D,
    MaxPool2D,
)
from repro.nn.recurrent import GRU, LSTM, SimpleRNN
from repro.nn.tensor import Tensor

from helpers import SeenOps

SWEEP = settings(
    max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: Filled by the case functions; the coverage tests assert completeness.
COVERED_LAYERS = set()
COVERED_LOSSES = set()
COVERED_OPS = set()


def _away_from_zero(rng, shape, gap=0.08):
    """Continuous values with |x| >= gap: safe for relu-family kinks."""
    x = rng.uniform(gap, 1.0, size=shape)
    return x * rng.choice([-1.0, 1.0], size=shape)


def _distinct(rng, shape, spacing=0.1):
    """Values with pairwise gaps >= spacing: safe for max-pool argmax ties."""
    n = int(np.prod(shape))
    return (rng.permutation(n).astype(np.float64) * spacing).reshape(shape)


def _check(op, x, atol=1e-5, rtol=1e-4):
    with SeenOps(COVERED_OPS):
        passed, err = gradient_check(op, x, atol=atol, rtol=rtol)
    assert passed, f"max grad error {err:.3e}"


def _built(layer, feature_shape, seed):
    layer.build(tuple(feature_shape), np.random.default_rng(seed))
    return layer


def _weight_check(layer, x, param, atol=1e-5, rtol=1e-4):
    """Gradcheck wrt one parameter tensor by rebinding its attribute(s)."""
    names = [k for k, v in vars(layer).items() if v is param]
    assert names, "parameter is not an attribute of its layer"

    def op(w):
        for name in names:
            setattr(layer, name, w)
        try:
            return layer.forward(Tensor(x), training=True)
        finally:
            for name in names:
                setattr(layer, name, param)

    _check(op, param.data, atol=atol, rtol=rtol)


# ----------------------------------------------------------------------
# Layers
# ----------------------------------------------------------------------
class TestDenseFamily:
    @SWEEP
    @given(n=st.integers(1, 5), d=st.integers(1, 6), units=st.integers(1, 5),
           seed=st.integers(0, 10**6))
    def test_dense_input_and_weights(self, n, d, units, seed):
        COVERED_LAYERS.add(Dense)
        rng = np.random.default_rng(seed)
        # tanh epilogue exercises the fused linear_act path; smooth, no kink.
        layer = _built(Dense(units, activation="tanh"), (d,), seed)
        x = rng.standard_normal((n, d))
        _check(lambda t: layer.forward(t), x)
        _weight_check(layer, x, layer.weight)
        _weight_check(layer, x, layer.bias)

    @SWEEP
    @given(n=st.integers(1, 4), d=st.integers(1, 6), seed=st.integers(0, 10**6),
           kind=st.sampled_from(
               ["relu", "tanh", "sigmoid", "softmax", "leaky_relu", "elu",
                "gelu", "softplus", "linear"]))
    def test_activation_kinds(self, n, d, seed, kind):
        COVERED_LAYERS.add(Activation)
        rng = np.random.default_rng(seed)
        layer = Activation(kind)
        x = _away_from_zero(rng, (n, d))  # clear of the relu/leaky/elu kink
        _check(lambda t: layer.forward(t), x)

    @SWEEP
    @given(n=st.integers(2, 5), d=st.integers(1, 6), rate=st.floats(0.1, 0.7),
           seed=st.integers(0, 10**6))
    def test_dropout_with_frozen_mask(self, n, d, rate, seed):
        COVERED_LAYERS.add(Dropout)
        rng = np.random.default_rng(seed)
        layer = _built(Dropout(rate), (d,), seed)
        x = rng.standard_normal((n, d))

        def op(t):
            layer._rng = np.random.default_rng(seed + 1)  # same mask every call
            return layer.forward(t, training=True)

        _check(op, x)

    @SWEEP
    @given(n=st.integers(1, 4), d=st.integers(2, 6), seed=st.integers(0, 10**6))
    def test_flatten(self, n, d, seed):
        COVERED_LAYERS.add(Flatten)
        rng = np.random.default_rng(seed)
        layer = Flatten()
        _check(lambda t: layer.forward(t), rng.standard_normal((n, d, 2)))


class TestNormalization:
    @SWEEP
    @given(n=st.integers(2, 5), d=st.integers(1, 5), seed=st.integers(0, 10**6))
    def test_batchnorm_input_and_affine(self, n, d, seed):
        COVERED_LAYERS.add(BatchNorm)
        rng = np.random.default_rng(seed)
        layer = _built(BatchNorm(), (d,), seed)
        x = rng.standard_normal((n, d))
        _check(lambda t: layer.forward(t, training=True), x, atol=1e-4)
        _weight_check(layer, x, layer.gamma, atol=1e-4)
        _weight_check(layer, x, layer.beta, atol=1e-4)

    @SWEEP
    @given(n=st.integers(1, 4), d=st.integers(2, 6), seed=st.integers(0, 10**6))
    def test_layernorm_input_and_affine(self, n, d, seed):
        COVERED_LAYERS.add(layers_mod.LayerNorm)
        rng = np.random.default_rng(seed)
        layer = _built(layers_mod.LayerNorm(), (d,), seed)
        x = rng.standard_normal((n, d))
        _check(lambda t: layer.forward(t), x, atol=1e-4)
        _weight_check(layer, x, layer.gamma, atol=1e-4)
        _weight_check(layer, x, layer.beta, atol=1e-4)


class TestConvolutionAndPooling:
    @SWEEP
    @given(n=st.integers(1, 3), c=st.integers(1, 3), length=st.integers(4, 8),
           filters=st.integers(1, 3), k=st.integers(1, 3),
           padding=st.sampled_from(["valid", "same"]), seed=st.integers(0, 10**6))
    def test_conv1d_input_and_weights(self, n, c, length, filters, k, padding, seed):
        COVERED_LAYERS.add(Conv1D)
        rng = np.random.default_rng(seed)
        layer = _built(Conv1D(filters, k, padding=padding, activation="tanh"),
                       (c, length), seed)
        x = rng.standard_normal((n, c, length))
        _check(lambda t: layer.forward(t), x)
        _weight_check(layer, x, layer.weight)
        _weight_check(layer, x, layer.bias)

    @SWEEP
    @given(n=st.integers(1, 2), c=st.integers(1, 2), hw=st.integers(4, 6),
           filters=st.integers(1, 2), seed=st.integers(0, 10**6))
    def test_conv2d_input_and_weights(self, n, c, hw, filters, seed):
        COVERED_LAYERS.add(Conv2D)
        rng = np.random.default_rng(seed)
        layer = _built(Conv2D(filters, 3, padding="same", activation="tanh"),
                       (c, hw, hw), seed)
        x = rng.standard_normal((n, c, hw, hw))
        _check(lambda t: layer.forward(t), x)
        _weight_check(layer, x, layer.weight)
        _weight_check(layer, x, layer.bias)

    @SWEEP
    @given(n=st.integers(1, 3), c=st.integers(1, 3), length=st.integers(4, 9),
           pool=st.integers(2, 3), seed=st.integers(0, 10**6))
    def test_maxpool1d(self, n, c, length, pool, seed):
        COVERED_LAYERS.add(MaxPool1D)
        rng = np.random.default_rng(seed)
        x = _distinct(rng, (n, c, length))  # no argmax ties anywhere
        _check(lambda t: MaxPool1D(pool).forward(t), x)

    @SWEEP
    @given(n=st.integers(1, 3), c=st.integers(1, 3), length=st.integers(4, 9),
           pool=st.integers(2, 3), seed=st.integers(0, 10**6))
    def test_avgpool1d(self, n, c, length, pool, seed):
        COVERED_LAYERS.add(AvgPool1D)
        rng = np.random.default_rng(seed)
        _check(lambda t: AvgPool1D(pool).forward(t), rng.standard_normal((n, c, length)))

    @SWEEP
    @given(n=st.integers(1, 2), c=st.integers(1, 2), hw=st.integers(4, 6),
           seed=st.integers(0, 10**6))
    def test_maxpool2d(self, n, c, hw, seed):
        COVERED_LAYERS.add(MaxPool2D)
        rng = np.random.default_rng(seed)
        x = _distinct(rng, (n, c, hw, hw))
        _check(lambda t: MaxPool2D(2).forward(t), x)

    @SWEEP
    @given(n=st.integers(1, 3), c=st.integers(1, 3), hw=st.integers(2, 5),
           seed=st.integers(0, 10**6))
    def test_global_avgpool2d(self, n, c, hw, seed):
        COVERED_LAYERS.add(GlobalAvgPool2D)
        rng = np.random.default_rng(seed)
        _check(lambda t: GlobalAvgPool2D().forward(t), rng.standard_normal((n, c, hw, hw)))


class TestEmbedding:
    @SWEEP
    @given(n=st.integers(1, 3), t=st.integers(1, 4), vocab=st.integers(2, 8),
           dim=st.integers(1, 4), seed=st.integers(0, 10**6))
    def test_embedding_weight_grad(self, n, t, vocab, dim, seed):
        # Integer ids have no input gradient; the weight table does —
        # including repeated ids, whose rows must accumulate.
        COVERED_LAYERS.add(Embedding)
        rng = np.random.default_rng(seed)
        layer = _built(Embedding(vocab, dim), (t,), seed)
        ids = rng.integers(0, vocab, (n, t))
        _check(lambda w: F.embedding(w, ids), layer.weight.data)
        # Layer forward parity with the functional op it wraps.
        out = layer.forward(Tensor(ids.astype(np.float64)))
        np.testing.assert_array_equal(out.data, layer.weight.data[ids])


class TestRecurrent:
    @SWEEP
    @given(n=st.integers(1, 3), t=st.integers(1, 3), f=st.integers(1, 3),
           units=st.integers(1, 3), seq=st.booleans(), seed=st.integers(0, 10**6))
    def test_simple_rnn(self, n, t, f, units, seq, seed):
        COVERED_LAYERS.add(SimpleRNN)
        rng = np.random.default_rng(seed)
        layer = _built(SimpleRNN(units, return_sequences=seq), (t, f), seed)
        x = rng.standard_normal((n, t, f))
        _check(lambda xt: layer.forward(xt), x)
        _weight_check(layer, x, layer.wx)
        _weight_check(layer, x, layer.wh)

    @SWEEP
    @given(n=st.integers(1, 2), t=st.integers(1, 3), f=st.integers(1, 3),
           units=st.integers(1, 3), seq=st.booleans(), seed=st.integers(0, 10**6))
    def test_gru(self, n, t, f, units, seq, seed):
        COVERED_LAYERS.add(GRU)
        rng = np.random.default_rng(seed)
        layer = _built(GRU(units, return_sequences=seq), (t, f), seed)
        x = rng.standard_normal((n, t, f))
        _check(lambda xt: layer.forward(xt), x)
        _weight_check(layer, x, layer.wxz)
        _weight_check(layer, x, layer.whn)

    @SWEEP
    @given(n=st.integers(1, 2), t=st.integers(1, 3), f=st.integers(1, 3),
           units=st.integers(1, 3), seq=st.booleans(), seed=st.integers(0, 10**6))
    def test_lstm(self, n, t, f, units, seq, seed):
        COVERED_LAYERS.add(LSTM)
        rng = np.random.default_rng(seed)
        layer = _built(LSTM(units, return_sequences=seq), (t, f), seed)
        x = rng.standard_normal((n, t, f))
        _check(lambda xt: layer.forward(xt), x)
        _weight_check(layer, x, layer.wxf)   # forget path, bias-1 init
        _weight_check(layer, x, layer.whg)   # candidate recurrence


# ----------------------------------------------------------------------
# Losses (gradient wrt predictions/logits)
# ----------------------------------------------------------------------
class TestLosses:
    @SWEEP
    @given(n=st.integers(1, 5), d=st.integers(1, 5), seed=st.integers(0, 10**6))
    def test_mse(self, n, d, seed):
        COVERED_LOSSES.add("mse")
        rng = np.random.default_rng(seed)
        target = rng.standard_normal((n, d))
        _check(lambda p: losses_mod.mse(p, target), rng.standard_normal((n, d)))

    @SWEEP
    @given(n=st.integers(1, 5), d=st.integers(1, 5), seed=st.integers(0, 10**6))
    def test_mae_away_from_kink(self, n, d, seed):
        COVERED_LOSSES.add("mae")
        rng = np.random.default_rng(seed)
        target = rng.standard_normal((n, d))
        pred = target + _away_from_zero(rng, (n, d), gap=0.1)  # |pred-target| >= 0.1
        _check(lambda p: losses_mod.mae(p, target), pred)

    @SWEEP
    @given(n=st.integers(1, 5), d=st.integers(1, 4), seed=st.integers(0, 10**6),
           tail=st.booleans())
    def test_huber_both_branches(self, n, d, seed, tail):
        COVERED_LOSSES.add("huber")
        rng = np.random.default_rng(seed)
        target = rng.standard_normal((n, d))
        # delta=1: residuals pinned well inside (quadratic) or outside
        # (linear) the branch switch at |r| = 1.
        mag = rng.uniform(1.5, 2.5, (n, d)) if tail else rng.uniform(0.1, 0.5, (n, d))
        pred = target + mag * rng.choice([-1.0, 1.0], (n, d))
        _check(lambda p: losses_mod.huber(p, target), pred)

    @SWEEP
    @given(n=st.integers(1, 5), c=st.integers(2, 6), seed=st.integers(0, 10**6))
    def test_cross_entropy_fused_and_unfused(self, n, c, seed):
        COVERED_LOSSES.add("cross_entropy")
        COVERED_LOSSES.add("cross_entropy_unfused")
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, c, n)
        logits = rng.standard_normal((n, c))
        _check(lambda p: losses_mod.cross_entropy(p, labels), logits)
        _check(lambda p: losses_mod.cross_entropy_unfused(p, labels), logits)

    @SWEEP
    @given(n=st.integers(1, 6), seed=st.integers(0, 10**6))
    def test_bce_with_logits(self, n, seed):
        COVERED_LOSSES.add("binary_cross_entropy_with_logits")
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, n).astype(np.float64)
        _check(lambda p: losses_mod.binary_cross_entropy_with_logits(p, labels),
               rng.standard_normal(n))

    @SWEEP
    @given(n=st.integers(1, 6), seed=st.integers(0, 10**6))
    def test_focal_loss(self, n, seed):
        COVERED_LOSSES.add("focal_loss_with_logits")
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, n).astype(np.float64)
        _check(lambda p: losses_mod.focal_loss_with_logits(p, labels),
               rng.standard_normal(n), atol=1e-4)

    @SWEEP
    @given(n=st.integers(1, 5), d=st.integers(1, 4), seed=st.integers(0, 10**6))
    def test_kl_divergence_gaussian_both_args(self, n, d, seed):
        COVERED_LOSSES.add("kl_divergence_gaussian")
        rng = np.random.default_rng(seed)
        mu = rng.standard_normal((n, d))
        log_var = rng.standard_normal((n, d)) * 0.5
        _check(lambda m: losses_mod.kl_divergence_gaussian(m, Tensor(log_var)), mu)
        _check(lambda lv: losses_mod.kl_divergence_gaussian(Tensor(mu), lv), log_var)

    @SWEEP
    @given(n=st.integers(3, 6), d=st.integers(1, 4), seed=st.integers(0, 10**6))
    def test_r2_loss(self, n, d, seed):
        COVERED_LOSSES.add("r2_loss")
        rng = np.random.default_rng(seed)
        target = rng.standard_normal((n, d)) * 2.0  # nonzero variance
        _check(lambda p: losses_mod.r2_loss(p, target), rng.standard_normal((n, d)))


# ----------------------------------------------------------------------
# Fused functional ops (checked directly, all argument slots)
# ----------------------------------------------------------------------
class TestFusedOps:
    @SWEEP
    @given(n=st.integers(1, 4), d=st.integers(1, 5), units=st.integers(1, 4),
           act=st.sampled_from([None, "relu", "tanh"]), seed=st.integers(0, 10**6))
    def test_linear_act_all_slots(self, n, d, units, act, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((d, units))
        b = rng.standard_normal(units)
        # Keep pre-activations away from the relu kink for every probe:
        # |x W + b| stays > ~0.05 for these magnitudes with prob ~1; the
        # seed is fixed per example so a pathological draw would be
        # reproducible, and tolerances absorb the rest.
        x = _away_from_zero(rng, (n, d), gap=0.2)
        if act == "relu":
            b = b + np.where(b >= 0, 0.5, -0.5)  # push pre-acts off zero
        _check(lambda t: F.linear_act(t, Tensor(w), Tensor(b), activation=act), x)
        _check(lambda wt: F.linear_act(Tensor(x), wt, Tensor(b), activation=act), w)
        _check(lambda bt: F.linear_act(Tensor(x), Tensor(w), bt, activation=act), b)

    @SWEEP
    @given(n=st.integers(1, 5), c=st.integers(2, 6), seed=st.integers(0, 10**6))
    def test_softmax_cross_entropy(self, n, c, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, c, n)
        _check(lambda t: F.softmax_cross_entropy(t, labels), rng.standard_normal((n, c)))


# ----------------------------------------------------------------------
# dtype coverage: float32 weights produce the float64 forward, closely
# ----------------------------------------------------------------------
class TestDtypeConsistency:
    @SWEEP
    @given(n=st.integers(1, 4), d=st.integers(2, 6), units=st.integers(1, 5),
           seed=st.integers(0, 10**6))
    def test_dense_float32_matches_float64(self, n, d, units, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, d))
        out = {}
        for dtype in (np.float64, np.float32):
            layer = _built(Dense(units, dtype=dtype), (d,), seed)
            out[dtype] = layer.forward(Tensor(x.astype(dtype))).data
        assert out[np.float32].dtype == np.float32
        np.testing.assert_allclose(out[np.float32], out[np.float64], atol=1e-4)

    @SWEEP
    @given(n=st.integers(1, 2), t=st.integers(1, 3), f=st.integers(1, 3),
           units=st.integers(1, 3), seed=st.integers(0, 10**6))
    def test_lstm_float32_matches_float64(self, n, t, f, units, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, t, f))
        out = {}
        for dtype in (np.float64, np.float32):
            layer = _built(LSTM(units, dtype=dtype), (t, f), seed)
            out[dtype] = layer.forward(Tensor(x.astype(dtype))).data
        np.testing.assert_allclose(out[np.float32], out[np.float64], atol=1e-4)


# ----------------------------------------------------------------------
# Coverage enforcement (run last: sweep classes fill the sets above)
# ----------------------------------------------------------------------
def _public_layer_classes():
    classes = set()
    for mod in (layers_mod, recurrent_mod):
        for _, obj in inspect.getmembers(mod, inspect.isclass):
            if (issubclass(obj, Layer) and obj is not Layer
                    and obj.__module__ == mod.__name__):
                classes.add(obj)
    return classes


def _public_losses():
    names = set()
    for name, obj in inspect.getmembers(losses_mod, inspect.isfunction):
        if name.startswith("_") or obj.__module__ != losses_mod.__name__:
            continue
        if name == "get":
            continue
        names.add(name)
    return names


class TestZCoverage:
    """Named to sort after the sweep classes (pytest runs file order,
    these classes are defined last anyway — the name is belt and braces)."""

    def test_every_public_layer_is_gradchecked(self):
        missing = _public_layer_classes() - COVERED_LAYERS
        assert not missing, (
            "layers with no gradcheck sweep case: "
            + ", ".join(sorted(c.__name__ for c in missing))
        )

    def test_every_public_loss_is_gradchecked(self):
        missing = _public_losses() - COVERED_LOSSES
        assert not missing, f"losses with no gradcheck sweep case: {sorted(missing)}"

    def test_every_op_table_entry_is_gradchecked(self):
        missing = set(F.OPS) - COVERED_OPS
        assert not missing, f"op-table entries no gradcheck sweep case ran: {sorted(missing)}"


# ----------------------------------------------------------------------
# Narrow-format sweep: the real fp32 / bf16 datapaths vs float64
# ----------------------------------------------------------------------
from contextlib import nullcontext  # noqa: E402

from repro.nn.amp import autocast  # noqa: E402

NARROW_FORMATS = ("fp32", "bf16")
#: Relaxed per-format tolerances.  fp32 keeps ~7 significant digits per
#: op; bf16 has a 7-bit mantissa (~0.4% per rounding), compounded over a
#: layer's op chain (worst case: the recurrent cells).
NARROW_TOL = {"fp32": dict(rtol=1e-3, atol=1e-3), "bf16": dict(rtol=6e-2, atol=6e-2)}

#: Filled by the narrow-sweep tests; coverage enforced at the bottom.
COVERED_NARROW_LAYERS = set()
COVERED_NARROW_LOSSES = set()
COVERED_NARROW_OPS = set()


def _cast_layer_f32(layer):
    """Cast a built layer's parameters (and dtype-bearing buffers) to
    float32 in place — the standalone-layer analogue of Model.astype."""
    for p in layer.parameters():
        p.data = p.data.astype(np.float32)
        p.grad = None
    if hasattr(layer, "dtype"):
        layer.dtype = np.float32
    for buf in ("running_mean", "running_var"):
        b = getattr(layer, buf, None)
        if b is not None:
            setattr(layer, buf, b.astype(np.float32))
    return layer


def _run_narrow_layer(factory, feature_shape, x, fmt, seed=0, training=False,
                      prep=None, grad_of="input"):
    """Forward+backward a freshly built layer at fp64 and at ``fmt``;
    returns ``{mode: (out, grad)}`` with both arrays upcast to float64.

    The narrow run also asserts dtype preservation: a float32 input must
    produce a float32 output and gradient (no silent float64 upcast
    anywhere in the layer's op chain).
    """
    results = {}
    for mode in ("fp64", fmt):
        layer = _built(factory(), feature_shape, seed)
        xi = np.array(x)
        if mode != "fp64":
            _cast_layer_f32(layer)
            if xi.dtype.kind == "f":
                xi = xi.astype(np.float32)
        if prep is not None:
            prep(layer)
        xt = Tensor(xi, requires_grad=xi.dtype.kind == "f")
        ctx = autocast("bf16") if mode == "bf16" else nullcontext()
        seen = nullcontext() if mode == "fp64" else SeenOps(COVERED_NARROW_OPS)
        with ctx, seen:
            out = layer.forward(xt, training=training)
            out.backward(np.ones(out.data.shape, dtype=out.data.dtype))
        grad = xt.grad if grad_of == "input" else next(iter(layer.parameters())).grad
        if mode != "fp64":
            assert out.data.dtype != np.float64, (
                f"{type(layer).__name__} silently upcast float32 -> float64 (forward)"
            )
            assert grad.dtype != np.float64, (
                f"{type(layer).__name__} silently upcast float32 -> float64 (backward)"
            )
        results[mode] = (
            np.asarray(out.data, dtype=np.float64),
            np.asarray(grad, dtype=np.float64),
        )
    return results


def _assert_narrow_close(results, fmt):
    tol = NARROW_TOL[fmt]
    out64, g64 = results["fp64"]
    outn, gn = results[fmt]
    np.testing.assert_allclose(outn, out64, **tol)
    np.testing.assert_allclose(gn, g64, **tol)


class _FixedUniform:
    """Stand-in dropout RNG: the same uniforms in any requested dtype.

    ``Generator.random(dtype=float32)`` consumes different bits than the
    float64 draw, so a seed-frozen generator still yields *different*
    masks per dtype — this pins the realized mask across the fp64 and
    narrow runs so their outputs are comparable.
    """

    def __init__(self, u):
        self.u = u

    def random(self, shape, dtype=np.float64):
        assert tuple(shape) == self.u.shape
        return self.u.astype(dtype)


def _narrow_layer_cases():
    """(id, layer class, factory, feature_shape, x, training, prep, grad_of)."""
    rng = np.random.default_rng(7)
    dropout_u = np.random.default_rng(99).random((5, 6))
    cases = [
        ("dense_tanh", Dense, lambda: Dense(5, activation="tanh"), (6,),
         rng.standard_normal((4, 6)), False, None, "input"),
        ("dropout", Dropout, lambda: Dropout(0.5), (6,),
         rng.standard_normal((5, 6)), True,
         lambda layer: setattr(layer, "_rng", _FixedUniform(dropout_u)), "input"),
        ("flatten", Flatten, Flatten, (4, 2),
         rng.standard_normal((3, 4, 2)), False, None, "input"),
        ("batchnorm", BatchNorm, BatchNorm, (5,),
         rng.standard_normal((6, 5)), True, None, "input"),
        ("layernorm", layers_mod.LayerNorm, layers_mod.LayerNorm, (6,),
         rng.standard_normal((4, 6)), False, None, "input"),
        ("conv1d_tanh", Conv1D,
         lambda: Conv1D(3, 3, padding="same", activation="tanh"), (2, 8),
         rng.standard_normal((2, 2, 8)), False, None, "input"),
        ("conv2d_tanh", Conv2D,
         lambda: Conv2D(2, 3, padding="same", activation="tanh"), (2, 6, 6),
         rng.standard_normal((2, 2, 6, 6)), False, None, "input"),
        ("maxpool1d", MaxPool1D, lambda: MaxPool1D(2), (2, 8),
         _distinct(rng, (3, 2, 8)), False, None, "input"),
        ("avgpool1d", AvgPool1D, lambda: AvgPool1D(2), (2, 8),
         rng.standard_normal((3, 2, 8)), False, None, "input"),
        ("maxpool2d", MaxPool2D, lambda: MaxPool2D(2), (2, 6, 6),
         _distinct(rng, (2, 2, 6, 6)), False, None, "input"),
        ("global_avgpool2d", GlobalAvgPool2D, GlobalAvgPool2D, (3, 4, 4),
         rng.standard_normal((2, 3, 4, 4)), False, None, "input"),
        ("embedding", Embedding, lambda: Embedding(7, 4), (3,),
         rng.integers(0, 7, (2, 3)), False, None, "weight"),
        ("simple_rnn", SimpleRNN, lambda: SimpleRNN(3), (3, 4),
         rng.standard_normal((2, 3, 4)), False, None, "input"),
        ("gru", GRU, lambda: GRU(3), (3, 4),
         rng.standard_normal((2, 3, 4)), False, None, "input"),
        ("lstm", LSTM, lambda: LSTM(3), (3, 4),
         rng.standard_normal((2, 3, 4)), False, None, "input"),
    ]
    # Every activation kind, at inputs clear of the relu/leaky/elu kinks
    # (a bf16 snap moves a value by <0.4%, which cannot cross zero from
    # |x| >= 0.1).
    for kind in ("relu", "tanh", "sigmoid", "softmax", "leaky_relu", "elu",
                 "gelu", "softplus", "linear"):
        cases.append((
            f"activation_{kind}", Activation, lambda k=kind: Activation(k), (6,),
            _away_from_zero(rng, (4, 6), gap=0.1), False, None, "input",
        ))
    return cases


_NARROW_LAYER_CASES = _narrow_layer_cases()


class TestNarrowLayerSweep:
    @pytest.mark.parametrize("fmt", NARROW_FORMATS)
    @pytest.mark.parametrize(
        "case", _NARROW_LAYER_CASES, ids=[c[0] for c in _NARROW_LAYER_CASES]
    )
    def test_layer_matches_fp64(self, case, fmt):
        _, cls, factory, feature_shape, x, training, prep, grad_of = case
        COVERED_NARROW_LAYERS.add(cls)
        results = _run_narrow_layer(
            factory, feature_shape, x, fmt, training=training,
            prep=prep, grad_of=grad_of,
        )
        _assert_narrow_close(results, fmt)


def _run_narrow_loss(make, x, fmt):
    """``make(pred_tensor, np_dtype) -> scalar Tensor``, run at fp64 and
    ``fmt``; returns ``{mode: (loss, grad)}`` upcast to float64."""
    results = {}
    for mode in ("fp64", fmt):
        xi = np.array(x) if mode == "fp64" else np.array(x, dtype=np.float32)
        xt = Tensor(xi, requires_grad=True)
        ctx = autocast("bf16") if mode == "bf16" else nullcontext()
        seen = nullcontext() if mode == "fp64" else SeenOps(COVERED_NARROW_OPS)
        with ctx, seen:
            out = make(xt, xi.dtype)
            out.backward()
        if mode != "fp64":
            assert xt.grad.dtype != np.float64, (
                "loss silently upcast float32 gradients to float64"
            )
        results[mode] = (float(out.data), np.asarray(xt.grad, dtype=np.float64))
    return results


def _assert_narrow_loss_close(results, fmt):
    tol = NARROW_TOL[fmt]
    loss64, g64 = results["fp64"]
    lossn, gn = results[fmt]
    np.testing.assert_allclose(lossn, loss64, **tol)
    np.testing.assert_allclose(gn, g64, **tol)


class TestNarrowLossSweep:
    @pytest.mark.parametrize("fmt", NARROW_FORMATS)
    def test_mse(self, fmt):
        COVERED_NARROW_LOSSES.add("mse")
        rng = np.random.default_rng(3)
        target = rng.standard_normal((4, 3))
        pred = rng.standard_normal((4, 3))
        res = _run_narrow_loss(
            lambda p, dt: losses_mod.mse(p, target.astype(dt)), pred, fmt)
        _assert_narrow_loss_close(res, fmt)

    @pytest.mark.parametrize("fmt", NARROW_FORMATS)
    def test_mae(self, fmt):
        COVERED_NARROW_LOSSES.add("mae")
        rng = np.random.default_rng(4)
        target = rng.standard_normal((4, 3))
        pred = target + _away_from_zero(rng, (4, 3), gap=0.2)
        res = _run_narrow_loss(
            lambda p, dt: losses_mod.mae(p, target.astype(dt)), pred, fmt)
        _assert_narrow_loss_close(res, fmt)

    @pytest.mark.parametrize("fmt", NARROW_FORMATS)
    def test_huber_both_branches(self, fmt):
        COVERED_NARROW_LOSSES.add("huber")
        rng = np.random.default_rng(5)
        target = rng.standard_normal((4, 4))
        # Residuals pinned well inside (quadratic) and outside (linear)
        # the |r| = 1 branch switch, alternating across the batch.
        mag = np.where(np.arange(16).reshape(4, 4) % 2 == 0,
                       rng.uniform(0.1, 0.5, (4, 4)),
                       rng.uniform(1.5, 2.5, (4, 4)))
        pred = target + mag * rng.choice([-1.0, 1.0], (4, 4))
        res = _run_narrow_loss(
            lambda p, dt: losses_mod.huber(p, target.astype(dt)), pred, fmt)
        _assert_narrow_loss_close(res, fmt)

    @pytest.mark.parametrize("fmt", NARROW_FORMATS)
    def test_cross_entropy_fused_and_unfused(self, fmt):
        COVERED_NARROW_LOSSES.add("cross_entropy")
        COVERED_NARROW_LOSSES.add("cross_entropy_unfused")
        rng = np.random.default_rng(6)
        labels = rng.integers(0, 4, 5)
        logits = rng.standard_normal((5, 4))
        for fn in (losses_mod.cross_entropy, losses_mod.cross_entropy_unfused):
            res = _run_narrow_loss(lambda p, dt: fn(p, labels), logits, fmt)
            _assert_narrow_loss_close(res, fmt)

    @pytest.mark.parametrize("fmt", NARROW_FORMATS)
    def test_bce_with_logits(self, fmt):
        COVERED_NARROW_LOSSES.add("binary_cross_entropy_with_logits")
        rng = np.random.default_rng(8)
        labels = rng.integers(0, 2, 6).astype(np.float64)
        res = _run_narrow_loss(
            lambda p, dt: losses_mod.binary_cross_entropy_with_logits(
                p, labels.astype(dt)),
            rng.standard_normal(6), fmt)
        _assert_narrow_loss_close(res, fmt)

    @pytest.mark.parametrize("fmt", NARROW_FORMATS)
    def test_focal_loss(self, fmt):
        COVERED_NARROW_LOSSES.add("focal_loss_with_logits")
        rng = np.random.default_rng(9)
        labels = rng.integers(0, 2, 6).astype(np.float64)
        res = _run_narrow_loss(
            lambda p, dt: losses_mod.focal_loss_with_logits(p, labels.astype(dt)),
            rng.standard_normal(6), fmt)
        _assert_narrow_loss_close(res, fmt)

    @pytest.mark.parametrize("fmt", NARROW_FORMATS)
    def test_kl_divergence_gaussian(self, fmt):
        COVERED_NARROW_LOSSES.add("kl_divergence_gaussian")
        rng = np.random.default_rng(10)
        log_var = rng.standard_normal((4, 3)) * 0.5
        res = _run_narrow_loss(
            lambda p, dt: losses_mod.kl_divergence_gaussian(
                p, Tensor(log_var.astype(dt))),
            rng.standard_normal((4, 3)), fmt)
        _assert_narrow_loss_close(res, fmt)

    @pytest.mark.parametrize("fmt", NARROW_FORMATS)
    def test_r2_loss(self, fmt):
        COVERED_NARROW_LOSSES.add("r2_loss")
        rng = np.random.default_rng(11)
        target = rng.standard_normal((5, 3)) * 2.0
        res = _run_narrow_loss(
            lambda p, dt: losses_mod.r2_loss(p, target.astype(dt)),
            rng.standard_normal((5, 3)), fmt)
        _assert_narrow_loss_close(res, fmt)


class TestZZNarrowCoverage:
    """Every public layer and loss must appear in the narrow-format
    sweep too (defined after the sweep classes, so pytest's file order
    runs it last)."""

    def test_every_public_layer_in_narrow_sweep(self):
        missing = _public_layer_classes() - COVERED_NARROW_LAYERS
        assert not missing, (
            "layers with no narrow-format sweep case: "
            + ", ".join(sorted(c.__name__ for c in missing))
        )

    def test_every_public_loss_in_narrow_sweep(self):
        missing = _public_losses() - COVERED_NARROW_LOSSES
        assert not missing, f"losses with no narrow-format case: {sorted(missing)}"

    def test_every_op_table_entry_in_narrow_sweep(self):
        missing = set(F.OPS) - COVERED_NARROW_OPS
        assert not missing, f"op-table entries no narrow-format case ran: {sorted(missing)}"
