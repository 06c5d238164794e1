"""Differentiable functional ops built on :class:`repro.nn.tensor.Tensor`.

Everything here is vectorized NumPy: convolutions use an im2col
(``sliding_window_view``) lowering so the inner loop is a single GEMM,
softmax and log-softmax use the log-sum-exp trick, and backward closures
avoid re-computing forward quantities.

The GEMM-bearing ops, the two they feed and mse (``linear_act``, ``conv1d``,
``conv2d``, ``maxpool1d``, ``maxpool2d``, ``softmax_cross_entropy``, ``mse``)
are entries of one table, :data:`OPS`: forward and backward on raw arrays plus
their dtype rule, cost and frozen oracle, run by :func:`apply`.  The
elementwise ops are still closures.

Hot-path conventions (a ``TraceRecorder(ops=True)`` times each op by name;
``bench/`` times the engine from outside):

* im2col materializes its copy in a (C*K, N*L_out) "kn" layout whose inner
  runs are contiguous in the source image, then feeds one GEMM; the column
  buffer is saved on the ctx and reused by backward for the weight
  gradient.
* conv/pool backward scatter through strided slice assignment or ``+=``
  (index sets from a uniform stride never collide), never ``np.add.at``;
  max pooling is tap-wise in both directions (see :class:`MaxPool1d`).
* :func:`apply` works out once which inputs need a gradient
  (``ctx.needs``); a backward returns ``None`` for the rest instead of
  computing it (the data batch under the first layer), and a forward with
  no ctx (no node will be recorded) saves nothing.
* ``conv1d``/``conv2d``/``linear_act`` optionally fuse a relu/tanh
  epilogue into the same tape node, applied in place on the GEMM output.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import amp as _amp
from ..obs.context import get_recorder, instrument as _instrument
from .tensor import Tensor, is_grad_enabled, unbroadcast


# Activation epilogues fusable into conv / linear nodes.  Each entry maps
# name -> (in-place forward on the pre-activation buffer,
#          derivative from the *post*-activation output; backward
#          multiplies the incoming gradient by it, in whatever layout the
#          node keeps that output).
_FUSED_ACTS = {
    "relu": (
        lambda buf: np.maximum(buf, 0.0, out=buf),
        lambda out: out > 0,
    ),
    "tanh": (
        lambda buf: np.tanh(buf, out=buf),
        lambda out: 1.0 - out * out,
    ),
}


def _fused_act(activation: Optional[str]) -> Optional[str]:
    if activation is not None and activation not in _FUSED_ACTS:
        raise ValueError(
            f"unsupported fused activation {activation!r}; choose from {sorted(_FUSED_ACTS)} or None"
        )
    return activation


# Batch sizes repeat every step, so the row-gather index is worth caching
# (read-only: it is shared across every caller with the same n).
_ROW_INDEX: dict = {}


def _row_index(n: int) -> np.ndarray:
    rows = _ROW_INDEX.get(n)
    if rows is None:
        rows = np.arange(n)
        rows.flags.writeable = False
        _ROW_INDEX[n] = rows
    return rows


def _pad_nd(xd: np.ndarray, padding: int, spatial_axes: int) -> np.ndarray:
    """Zero-pad the trailing ``spatial_axes`` axes by ``padding`` on both
    sides.  Hand-rolled (zeros + slice assign) because ``np.pad`` spends
    most of its time in Python bookkeeping for this common case."""
    if padding <= 0:
        return xd
    shape = list(xd.shape)
    sl = [slice(None)] * xd.ndim
    for ax in range(xd.ndim - spatial_axes, xd.ndim):
        shape[ax] += 2 * padding
        sl[ax] = slice(padding, padding + xd.shape[ax])
    buf = np.zeros(tuple(shape), dtype=xd.dtype)
    buf[tuple(sl)] = xd
    return buf


# ----------------------------------------------------------------------
# The op table (DESIGN.md, "Ops: one table")
# ----------------------------------------------------------------------
class Op:
    """One table entry, a namespace.  ``forward(ctx, *arrays, *params)`` is
    the kernel on raw arrays (``ctx`` None: no node will be recorded, save
    nothing); ``backward(ctx, g)`` returns a gradient per input, None where
    ``ctx.needs`` is False, reading what forward saved without consuming it.
    ``cast`` is the dtype rule under autocast: the ``amp.Format`` method per
    input (None: run in the inputs' dtype); a ``narrow`` entry stores its
    output narrow, takes its gradient in fp32 and returns the activation's
    (first input's) gradient narrow, the rest fp32.  ``layout`` transposes
    the stored output into the result.  ``oracle`` names the frozen kernels
    in ``tests/reference.py`` (forward first) or is None.  ``cost(b,
    in_shape, out_shape, kernel)`` is (flops fwd, flops bwd, activation
    elements) of a layer over a batch of ``b``; None for a non-layer."""

    name = cast = layout = oracle = cost = None
    narrow = False


OPS: dict = {}


def register(name: str, op: type) -> None:
    op.name = name  # the op.<name> histogram an ops recorder fills
    OPS[name] = op


class Ctx:
    """One recorded call; ``backward`` is its tape node's backward function."""

    __slots__ = ("op", "needs", "ac", "out", "saved")

    def __init__(self, op, needs, ac) -> None:
        self.op, self.needs, self.ac = op, needs, ac

    def output(self) -> np.ndarray:
        """The stored output in compute dtype (what an epilogue derivative reads)."""
        return self.out if self.ac is None else self.ac.to_compute(self.out)

    def backward(self, g: np.ndarray):
        op, ac = self.op, self.ac
        if ac is None or not op.narrow:
            return op.backward(self, g)
        gx, *rest = op.backward(self, ac.to_compute(g))
        if gx is not None:
            # A contiguous gradient is a fresh buffer and snaps in place; a
            # strided one (a padded conv's interior slice) is copied.
            gx = ac.snap_out(gx) if gx.flags.c_contiguous else ac.snap(gx)
        return (gx, *rest)


def apply(op, inputs: tuple, *params) -> Tensor:
    """Run table entry ``op`` on ``inputs`` (Tensors; an absent bias is None
    and comes last) and its forward's ``params``, recording a tape node when
    grad mode is on and an input needs a gradient.  The one place a table
    op is timed (under an ``ops=True`` recorder) and the autocast plan is
    read."""
    rec = get_recorder()
    if rec is not None and rec.ops:
        return rec.time_op(op.name, _run, op, inputs, params)
    return _run(op, inputs, params)


def _run(op, inputs: tuple, params: tuple) -> Tensor:
    arrays = [None if t is None else t.data for t in inputs]
    ac = None if op.cast is None else _amp.active()
    if ac is not None:
        arrays = [a if a is None else getattr(ac, m)(a) for a, m in zip(arrays, op.cast)]
    needs = [t is not None and t.requires_grad for t in inputs] if is_grad_enabled() else ()
    ctx = Ctx(op, needs, ac) if True in needs else None
    out = op.forward(ctx, *arrays, *params)
    if ac is not None and op.narrow:
        out = ac.snap_out(out)  # before the layout view: downstream sums run in memory order
    data = out if op.layout is None else out.transpose(op.layout)
    if ctx is None:
        return Tensor(data)
    ctx.out = out
    parents = inputs if inputs[-1] is not None else inputs[:-1]
    return Tensor(data, requires_grad=True, parents=parents, backward_fn=ctx.backward)


# ----------------------------------------------------------------------
# Elementwise
# ----------------------------------------------------------------------
def exp(x: Tensor) -> Tensor:
    out = np.exp(x.data)

    def backward(g: np.ndarray):
        return (g * out,)

    return x._unary_out(out, backward)


def log(x: Tensor) -> Tensor:
    data = np.log(x.data)
    xd = x.data

    def backward(g: np.ndarray):
        return (g / xd,)

    return x._unary_out(data, backward)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def backward(g: np.ndarray):
        return (g * (1.0 - out * out),)

    return x._unary_out(out, backward)


def sigmoid(x: Tensor) -> Tensor:
    # Numerically stable piecewise formulation (expit identity).
    xd = x.data
    out = np.empty_like(xd, dtype=np.result_type(xd.dtype, np.float32))
    pos = xd >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    e = np.exp(xd[~pos])
    out[~pos] = e / (1.0 + e)
    out = out.astype(xd.dtype, copy=False)

    def backward(g: np.ndarray):
        return (g * out * (1.0 - out),)

    return x._unary_out(out, backward)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    data = np.where(mask, x.data, 0.0).astype(x.data.dtype, copy=False)

    def backward(g: np.ndarray):
        return (g * mask,)

    return x._unary_out(data, backward)


def leaky_relu(x: Tensor, alpha: float = 0.01) -> Tensor:
    mask = x.data > 0
    data = np.where(mask, x.data, alpha * x.data).astype(x.data.dtype, copy=False)

    def backward(g: np.ndarray):
        return (g * np.where(mask, 1.0, alpha).astype(g.dtype),)

    return x._unary_out(data, backward)


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    mask = x.data > 0
    expm1 = np.expm1(np.minimum(x.data, 0.0))
    data = np.where(mask, x.data, alpha * expm1).astype(x.data.dtype, copy=False)

    def backward(g: np.ndarray):
        return (g * np.where(mask, 1.0, alpha * (expm1 + 1.0)).astype(g.dtype),)

    return x._unary_out(data, backward)


def gelu(x: Tensor) -> Tensor:
    """Tanh approximation of GELU (Hendrycks & Gimpel)."""
    xd = x.data
    # Python float, not np.sqrt's float64 scalar: NumPy 2 treats np.float64
    # scalars as strong types, so the latter silently upcasts float32
    # activations to float64 for the whole op (round-tripped back only at
    # the final astype).
    c = float(np.sqrt(2.0 / np.pi))
    inner = c * (xd + 0.044715 * xd ** 3)
    t = np.tanh(inner)
    data = 0.5 * xd * (1.0 + t)

    def backward(g: np.ndarray):
        dinner = c * (1.0 + 3 * 0.044715 * xd ** 2)
        dt = (1.0 - t * t) * dinner
        return (g * (0.5 * (1.0 + t) + 0.5 * xd * dt),)

    return x._unary_out(data.astype(xd.dtype, copy=False), backward)


def softplus(x: Tensor) -> Tensor:
    xd = x.data
    data = np.logaddexp(0.0, xd).astype(xd.dtype, copy=False)

    def backward(g: np.ndarray):
        s = np.empty_like(xd)
        pos = xd >= 0
        s[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
        e = np.exp(xd[~pos])
        s[~pos] = e / (1.0 + e)
        return (g * s,)

    return x._unary_out(data, backward)


def abs(x: Tensor) -> Tensor:  # noqa: A001 - mirrors np.abs
    sign = np.sign(x.data)
    data = np.abs(x.data)

    def backward(g: np.ndarray):
        return (g * sign,)

    return x._unary_out(data, backward)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    mask = (x.data >= lo) & (x.data <= hi)
    data = np.clip(x.data, lo, hi)

    def backward(g: np.ndarray):
        return (g * mask,)

    return x._unary_out(data, backward)


def where(cond: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable select; ``cond`` is a boolean array (non-diff)."""
    cond = np.asarray(cond, dtype=bool)
    data = np.where(cond, a.data, b.data)

    def backward(g: np.ndarray):
        return (
            unbroadcast(np.where(cond, g, 0.0), a.shape),
            unbroadcast(np.where(cond, 0.0, g), b.shape),
        )

    req = a.requires_grad or b.requires_grad
    return Tensor(data, requires_grad=req, parents=(a, b), backward_fn=backward)


# ----------------------------------------------------------------------
# Softmax family
# ----------------------------------------------------------------------
def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    xd = x.data
    m = xd.max(axis=axis, keepdims=True)
    shifted = xd - m
    s = np.exp(shifted).sum(axis=axis, keepdims=True)
    out_keep = m + np.log(s)
    data = out_keep if keepdims else np.squeeze(out_keep, axis=axis)
    softmax_vals = np.exp(shifted) / s

    def backward(g: np.ndarray):
        g_exp = g if keepdims else np.expand_dims(g, axis)
        return (g_exp * softmax_vals,)

    return x._unary_out(data, backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    xd = x.data
    shifted = xd - xd.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return x._unary_out(out, backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    xd = x.data
    shifted = xd - xd.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse
    sm = np.exp(data)

    def backward(g: np.ndarray):
        return (g - sm * g.sum(axis=axis, keepdims=True),)

    return x._unary_out(data, backward)


# ----------------------------------------------------------------------
# Linear algebra helpers
# ----------------------------------------------------------------------
def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``x @ weight + bias`` with weight of shape (in, out)."""
    out = x @ weight
    if bias is not None:
        out = out + bias
    return out


class LinearAct(Op):
    """``act(x @ weight + bias)`` on (N, F) rows: one GEMM, then the bias
    add and the relu/tanh epilogue in place on its output.  The backward
    applies the epilogue's derivative to the incoming gradient before the
    two grad GEMMs — one node where the unfused composition records three.
    ``Dense.infer`` calls the forward with no ctx."""

    cast = ("cast_in", "cast_in", "to_compute")
    narrow = True

    @staticmethod
    def forward(ctx, xd, wd, bd=None, activation=None):
        out = xd @ wd  # (N, units)
        if bd is not None:
            out += bd
        if activation is not None:
            _FUSED_ACTS[activation][0](out)
        if ctx is not None:
            ctx.saved = (xd, wd, None if bd is None else bd.shape, activation)
        return out

    @staticmethod
    def backward(ctx, g):
        xd, wd, b_shape, activation = ctx.saved
        needs = ctx.needs
        if activation is not None:
            g = g * _FUSED_ACTS[activation][1](ctx.output())
        grad_x = g @ wd.T if needs[0] else None
        grad_w = xd.T @ g if needs[1] else None
        if not needs[2]:
            return (grad_x, grad_w, None)
        # g is (N, units) here; a 1-D bias reduces over the batch axis
        # directly, skipping the generic unbroadcast machinery.
        grad_b = g.sum(axis=0) if len(b_shape) == 1 else unbroadcast(g, b_shape)
        return (grad_x, grad_w, grad_b)

    @staticmethod
    def cost(b, in_shape, out_shape, kernel=None):
        rows = b * int(np.prod(in_shape[:-1])) if len(in_shape) > 1 else b
        flops_fwd = 2.0 * rows * in_shape[-1] * out_shape[-1]
        return flops_fwd, 2.0 * flops_fwd, b * int(np.prod(out_shape))  # bwd: dX and dW GEMMs


register("linear_act", LinearAct)


def linear_act(x: Tensor, weight: Tensor, bias=None, activation: Optional[str] = None) -> Tensor:
    """Fused ``act(x @ weight + bias)`` as one tape node (:class:`LinearAct`);
    an input that is not 2-D (the Dense hot path is (N, F)) takes the
    unfused ops."""
    activation = _fused_act(activation)
    if x.data.ndim == 2:
        return apply(LinearAct, (x, weight, bias), activation)
    out = linear(x, weight, bias)
    return out if activation is None else (relu if activation == "relu" else tanh)(out)


class SoftmaxCrossEntropy(Op):
    """Fused softmax + cross-entropy with the stable ``(p - y) / n``
    backward.  Equivalent to ``-mean(log_softmax(logits)[y])`` but skips
    the intermediate log-prob node and the fancy-index gather node whose
    backward is an ``np.add.at`` scatter."""

    cast = ("to_compute",)  # the loss runs in fp32; its gradient returns fp32
    oracle = ("cross_entropy_forward_backward",)

    @staticmethod
    def forward(ctx, zd, labels):
        labels = np.asarray(labels)
        if zd.ndim != 2:
            raise ValueError(f"softmax_cross_entropy expects (N, C) logits, got {zd.shape}")
        n = zd.shape[0]
        shifted = zd - zd.max(axis=1, keepdims=True)
        if labels.ndim == 1:
            rows, idx = _row_index(n), labels.astype(np.int64)
            picked = shifted[rows, idx]  # (N,) gather before exp clobbers it
            np.exp(shifted, out=shifted)
            denom = shifted.sum(axis=1, keepdims=True)
            if ctx is not None:
                shifted /= denom  # the softmax, saved for backward
                ctx.saved = (shifted, (rows, idx))
            # -mean(logp[y]) = (sum(log denom) - sum(shifted[y])) / n, all
            # pre-exp quantities, so no log-of-underflowed-softmax
            # instability.  denom is dead after the divide, so log lands in
            # it; .sum() skips the np.mean wrapper's per-call overhead.
            np.log(denom, out=denom)
            loss = float((denom.sum() - picked.sum()) / n)
        else:
            soft = labels.astype(zd.dtype, copy=False)
            denom = np.exp(shifted).sum(axis=1, keepdims=True)
            logp = shifted
            logp -= np.log(denom)
            loss = -float(np.sum(soft * logp)) / n
            if ctx is not None:
                ctx.saved = (np.exp(logp), soft)
        return np.asarray(loss, dtype=zd.dtype)

    @staticmethod
    def backward(ctx, g):
        # d loss / d z = (p - y) / n, built in a fresh buffer: the saved
        # softmax is read, not consumed, so every walk gets the same gradient.
        p, target = ctx.saved
        if isinstance(target, tuple):  # integer class ids: (rows, idx)
            grad = p.copy()
            grad[target] -= 1.0
        else:
            # General soft labels: d(-sum(y*logp)/n)/dz = (p*sum_c(y) - y)/n;
            # the row sums collapse to 1 for proper one-hot/soft targets.
            grad = p * target.sum(axis=1, keepdims=True)
            np.subtract(grad, target, out=grad)
        np.multiply(grad, np.asarray(g).reshape(()) / p.shape[0], out=grad)
        return (grad,)


register("softmax_cross_entropy", SoftmaxCrossEntropy)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Fused softmax + cross-entropy as one tape node (:class:`SoftmaxCrossEntropy`);
    ``labels`` are integer class ids (N,) or one-hot / soft labels (N, C)."""
    return apply(SoftmaxCrossEntropy, (logits,), labels)


class MeanSquaredError(Op):
    """``mean((pred - target)**2)`` as one node where the composed chain
    records four, in that chain's float order (the backward sums the
    square's two edges as ``x + x``).  ``losses`` refuses a target that
    would grow pred, so the gradient has pred's shape."""

    oracle = ("mse_forward_backward",)

    @staticmethod
    def forward(ctx, pd, target):
        diff = pd - target
        inv = np.asarray(1.0 / diff.size, dtype=diff.dtype)
        if ctx is not None:
            ctx.saved = (diff, inv)
        return (diff * diff).sum() * inv

    @staticmethod
    def backward(ctx, g):
        diff, inv = ctx.saved
        grad = np.full(diff.shape, np.asarray(g).reshape(()) * inv)
        np.multiply(grad, diff, out=grad)
        return (np.add(grad, grad, out=grad),)


register("mse", MeanSquaredError)  # losses.mse runs it


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: scales at train time so eval is identity."""
    if not training or p <= 0.0:
        return x
    if p >= 1.0:
        raise ValueError("dropout probability must be < 1")
    keep = 1.0 - p
    dt = x.data.dtype
    # Draw uniforms directly in the input dtype (float32 inputs never touch
    # float64), then overwrite the same buffer with the scaled 0/(1/keep)
    # mask — one allocation total, reused again by backward.
    if dt == np.float64 or dt == np.float32:
        mask = rng.random(x.shape, dtype=dt)
    else:
        mask = rng.random(x.shape).astype(dt)
    kept = mask < keep
    np.multiply(kept, dt.type(1.0 / keep), out=mask)
    data = x.data * mask

    def backward(g: np.ndarray):
        return (g * mask,)

    return x._unary_out(data, backward)


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup: out[i] = weight[indices[i]]."""
    indices = np.asarray(indices)
    data = weight.data[indices]
    vocab, dim = weight.shape

    def backward(g: np.ndarray):
        grad = np.zeros((vocab, dim), dtype=g.dtype)
        np.add.at(grad, indices.reshape(-1), g.reshape(-1, dim))
        return (grad,)

    return weight._unary_out(data, backward)


# ----------------------------------------------------------------------
# Convolution via im2col (NT3 is Conv1D-heavy, tumor imaging 2-D) and pooling
# ----------------------------------------------------------------------
def _im2col(x: np.ndarray, ks: Tuple[int, ...], stride: int) -> np.ndarray:
    """(N, C, *S) -> (C*prod(ks), N*prod(S_out)) patch matrix ("kn" layout).

    The windowed view stays zero-copy until the reshape at the GEMM
    boundary; putting (C, *K) on the rows keeps each copied run contiguous
    along the last spatial axis of the source, which is what makes the copy
    fast.  Rows are ordered (C, *K) to match ``weight.reshape``.
    """
    d = len(ks)
    win = sliding_window_view(x, ks, axis=tuple(range(2, 2 + d)))  # (N, C, *S_full, *K)
    if stride > 1:
        win = win[(slice(None),) * 2 + (slice(None, None, stride),) * d]
    win = win.transpose(1, *range(2 + d, 2 + 2 * d), 0, *range(2, 2 + d))  # (C, *K, N, *S_out)
    return win.reshape(x.shape[1] * math.prod(ks), -1)


class _Conv(Op):
    """x (N, C_in, *S) * weight (C_out, C_in, *K) + bias (C_out,), optional
    relu/tanh epilogue, as one im2col GEMM -> (N, C_out, *S_out), a view of
    the (C_out, N, *S_out) output; S_out = (S + 2*padding - K)//stride + 1."""

    cast = ("cast_in", "cast_in", "to_compute")
    narrow = True

    @staticmethod
    def forward(ctx, xd, wd, bd=None, stride=1, padding=0, activation=None):
        d = wd.ndim - 2
        xd_pad = _pad_nd(xd, padding, d)
        (n, c_in, *size), (c_out, c_in_w, *ks) = xd_pad.shape, wd.shape
        out_size = [(s - k) // stride + 1 for s, k in zip(size, ks)]
        if xd.ndim != wd.ndim or c_in != c_in_w:
            raise ValueError(f"conv{d}d input {xd.shape} does not match weight {wd.shape}")
        if min(out_size) <= 0:
            raise ValueError(f"conv{d}d output {out_size} <= 0 (input {size}, kernel {ks})")
        cols = _im2col(xd_pad, ks, stride)  # saved for the weight gradient
        w2 = wd.reshape(c_out, -1)
        out2d = w2 @ cols  # (C_out, N*prod(S_out)) — one GEMM
        if bd is not None:
            out2d += bd[:, None]
        if activation is not None:
            _FUSED_ACTS[activation][0](out2d)
        if ctx is not None:
            ctx.saved = (cols, w2, wd.shape, xd.shape, xd_pad.shape, stride, padding, activation)
        return out2d.reshape(c_out, n, *out_size)

    @staticmethod
    def backward(ctx, g):
        cols, w2, w_shape, x_shape, pad_shape, stride, padding, activation = ctx.saved
        c_out, n, *out_size = ctx.out.shape
        g2d, grad_b = ctx.op.gemm_grad(ctx, g, activation)
        grad_w = (g2d @ cols.T).reshape(w_shape) if ctx.needs[1] else None
        if not ctx.needs[0]:
            return (None, grad_w, grad_b)
        d = len(out_size)
        grad_cols = (w2.T @ g2d).reshape(w_shape[1], -1, n, *out_size)  # (C_in, prod(K), N, *S_out)
        grad_x_pad = np.zeros(pad_shape, dtype=g2d.dtype)
        # One strided slice += per kernel tap (row-major, grad_cols' order): the
        # targets tap + stride*[0, S_out) of one tap never collide, no np.add.at.
        per_axis = ([slice(t, t + (o - 1) * stride + 1, stride) for t in range(k)]
                    for k, o in zip(w_shape[2:], out_size))
        axes = (1, 0, *range(2, 2 + d))
        for t, window in enumerate(itertools.product(*per_axis)):
            grad_x_pad[(slice(None), slice(None)) + window] += grad_cols[:, t].transpose(axes)
        grad_x = grad_x_pad[(slice(None),) * 2 + (slice(padding, -padding),) * d] if padding > 0 else grad_x_pad
        return (grad_x.reshape(x_shape), grad_w, grad_b)

    @staticmethod
    def gemm_grad(ctx, g, activation):
        """The incoming gradient in the (C_out, N*prod(S_out)) GEMM layout,
        through the epilogue's derivative, and the bias gradient."""
        if activation is not None:
            g = g * _FUSED_ACTS[activation][1](ctx.output().transpose(ctx.op.layout))
        g2d = g.transpose(ctx.op.layout).reshape(len(ctx.out), -1)  # copy once
        return g2d, (g.sum(axis=(0, *range(2, g.ndim))) if ctx.needs[2] else None)

    @staticmethod
    def cost(b, in_shape, out_shape, kernel):
        flops_fwd = 2.0 * b
        for s in out_shape:
            flops_fwd *= s
        flops_fwd = flops_fwd * in_shape[0] * kernel ** (len(out_shape) - 1)
        return flops_fwd, 2.0 * flops_fwd, b * int(np.prod(out_shape))  # bwd: dX and dW GEMMs


class Conv1d(_Conv):
    layout = (1, 0, 2)
    oracle = ("conv1d_forward",)


class Conv2d(_Conv):
    layout = (1, 0, 2, 3)
    oracle = ("conv2d_forward", "conv2d_backward")

    @staticmethod
    def gemm_grad(ctx, g, activation):
        if activation is None:
            return _Conv.gemm_grad(ctx, g, None)
        # The derivative is taken from the stored output where it lies and
        # multiplied in during the one transposing copy, so g2d lands in the
        # GEMM layout directly.
        slope = _FUSED_ACTS[activation][1](ctx.output())
        g2d = np.empty((len(slope), slope[0].size), dtype=np.result_type(g, slope))
        np.multiply(g.transpose(1, 0, 2, 3), slope, out=g2d.reshape(slope.shape))
        if not ctx.needs[2]:
            return g2d, None
        # Per-image sums added up in image order: how summing the N-major
        # product over (0, 2, 3) associates (with one channel its images
        # are adjacent and sum as a single run).
        runs = slope.shape[1] if len(slope) > 1 else 1
        return g2d, g2d.reshape(len(slope), runs, -1).sum(axis=2).cumsum(axis=1)[:, -1]


register("conv1d", Conv1d)
register("conv2d", Conv2d)


def conv1d(x: Tensor, weight: Tensor, bias=None, stride: int = 1, padding: int = 0, activation=None) -> Tensor:
    """(N, C_in, L) -> (N, C_out, L_out) convolution through :class:`Conv1d`."""
    return apply(Conv1d, (x, weight, bias), stride, padding, _fused_act(activation))


def conv2d(x: Tensor, weight: Tensor, bias=None, stride: int = 1, padding: int = 0, activation=None) -> Tensor:
    """(N, C_in, H, W) -> (N, C_out, H_out, W_out) convolution through :class:`Conv2d`."""
    return apply(Conv2d, (x, weight, bias), stride, padding, _fused_act(activation))


def _window_taps(xd: np.ndarray, pool: int, stride: int, spatial_axes: int) -> list:
    """The ``pool ** spatial_axes`` strided slices of ``xd`` (views) that
    hold, for every pooling window at once, the element at one window
    offset — in window (row-major) order, so tap ``t`` of a 2-D window is
    offset ``divmod(t, pool)``."""
    taps = [xd]
    for ax in range(xd.ndim - spatial_axes, xd.ndim):
        span = (xd.shape[ax] - pool) // stride * stride + 1
        lead = (slice(None),) * ax
        taps = [t[lead + (slice(k, k + span, stride),)] for t in taps for k in range(pool)]
    return taps


class MaxPool1d(Op):
    """Tap-wise max pooling over the trailing ``spatial_axes`` axes (the body
    of :class:`MaxPool2d` too): the taps are folded with ``np.maximum`` into
    one contiguous output, no window tensor.  NaN in a window reaches its
    output (which input then gets the gradient is not pinned).  The winning
    tap is tracked only when there is a ctx; a tap wins only by strictly
    raising the running maximum, so ties keep the first maximum in window
    order (post-ReLU zeros tie all the time).  It is all branch-free: the
    masks are close to random, so ``np.where`` would mispredict a lot."""

    oracle = ("maxpool1d_forward", "maxpool1d_backward")

    @staticmethod
    def forward(ctx, xd, pool, stride, spatial_axes):
        taps = _window_taps(xd, pool, stride, spatial_axes)
        out = np.array(taps[0], order="C")
        nxt = np.empty_like(out)
        if ctx is not None:
            winner = np.zeros(out.shape, dtype=np.min_scalar_type(len(taps)))
            raised = np.empty(out.shape, dtype=bool)
        for t in range(1, len(taps)):
            np.maximum(out, taps[t], out=nxt)
            if ctx is not None:
                np.not_equal(nxt, out, out=raised)
                # t exceeds every index stored so far: max() overwrites.
                np.maximum(winner, np.multiply(raised, t, dtype=winner.dtype), out=winner)
            out, nxt = nxt, out
        if ctx is not None:
            ctx.saved = (winner, xd.shape, xd.dtype, pool, stride, spatial_axes)
        return out

    @staticmethod
    def backward(ctx, g):
        winner, shape, dtype, pool, stride, spatial_axes = ctx.saved
        grad = np.zeros(shape, dtype=dtype)
        grad_taps = _window_taps(grad, pool, stride, spatial_axes)
        g_bits = g.view(f"i{g.itemsize}")
        # Descending tap order visits the windows that share an input
        # position in ascending window order — the order a scatter-add
        # over the outputs accumulates in.
        for t in range(len(grad_taps) - 1, -1, -1):
            # Integer multiply by the 0/1 mask is an exact select: the
            # winner keeps g's bits (-0.0 included), the rest are +0.0.
            routed = np.multiply(g_bits, winner == t).view(g.dtype)
            if stride >= pool:
                # Disjoint windows: each position has one window, assign.
                grad_taps[t][...] = routed
            else:
                grad_taps[t] += routed
        return (grad,)

    @staticmethod
    def cost(b, in_shape, out_shape, kernel=None):
        out_elems = b * int(np.prod(out_shape))
        return float(b * int(np.prod(in_shape))), float(out_elems), out_elems


class MaxPool2d(MaxPool1d):
    oracle = ("maxpool2d_forward", "maxpool2d_backward")


register("maxpool1d", MaxPool1d)
register("maxpool2d", MaxPool2d)


def maxpool1d(x: Tensor, pool: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling over the last axis of (N, C, L)."""
    return apply(MaxPool1d, (x,), pool, stride or pool, 1)


def maxpool2d(x: Tensor, pool: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling over the last two axes of (N, C, H, W)."""
    return apply(MaxPool2d, (x,), pool, stride or pool, 2)


def avgpool1d(x: Tensor, pool: int, stride: Optional[int] = None) -> Tensor:
    """Average pooling over the last axis of (N, C, L)."""
    stride = stride or pool
    xd = x.data
    n, c, length = xd.shape
    l_out = (length - pool) // stride + 1
    s_n, s_c, s_l = xd.strides
    windows = np.lib.stride_tricks.as_strided(
        xd,
        shape=(n, c, l_out, pool),
        strides=(s_n, s_c, s_l * stride, s_l),
        writeable=False,
    )
    out = windows.mean(axis=3)

    def backward(g: np.ndarray):
        grad = np.zeros_like(xd)
        share = g / pool
        # Strided slice += per tap — indices within a tap never collide.
        span = (l_out - 1) * stride + 1
        for kk in range(pool):
            grad[:, :, kk : kk + span : stride] += share
        return (grad,)

    return x._unary_out(out, backward)


def global_avgpool1d(x: Tensor) -> Tensor:
    """Mean over the length axis of (N, C, L) -> (N, C)."""
    return x.mean(axis=2)


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    momentum: float = 0.1,
    eps: float = 1e-5,
    training: bool = True,
    axis: Tuple[int, ...] = (0,),
) -> Tensor:
    """Batch normalization over ``axis`` (the reduction axes).

    For (N, F) inputs use axis=(0,); for (N, C, L) use axis=(0, 2).
    Running stats are updated in place when training.
    """
    xd = x.data
    # Shape that broadcasts per-feature vectors against x.
    bshape = [1] * xd.ndim
    for a in range(xd.ndim):
        if a not in axis:
            bshape[a] = xd.shape[a]
    if training:
        mean = xd.mean(axis=axis, keepdims=True)
        var = xd.var(axis=axis, keepdims=True)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean.squeeze()
        running_var *= 1.0 - momentum
        running_var += momentum * var.squeeze()
    else:
        mean = running_mean.reshape(bshape)
        var = running_var.reshape(bshape)

    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (xd - mean) * inv_std

    gamma_b = gamma.data.reshape(bshape)
    out = x_hat * gamma_b + beta.data.reshape(bshape)

    m = 1
    for a in axis:
        m *= xd.shape[a]

    def backward(g: np.ndarray):
        grad_beta = g.sum(axis=axis).reshape(beta.shape)
        grad_gamma = (g * x_hat).sum(axis=axis).reshape(gamma.shape)
        if not x.requires_grad:
            return (None, grad_gamma, grad_beta)
        if training:
            gxh = g * gamma_b
            grad_x = (
                inv_std
                / m
                * (m * gxh - gxh.sum(axis=axis, keepdims=True) - x_hat * (gxh * x_hat).sum(axis=axis, keepdims=True))
            )
        else:
            grad_x = g * gamma_b * inv_std
        return (grad_x, grad_gamma, grad_beta)

    req = x.requires_grad or gamma.requires_grad or beta.requires_grad
    return Tensor(out, requires_grad=req, parents=(x, gamma, beta), backward_fn=backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis."""
    xd = x.data
    mean = xd.mean(axis=-1, keepdims=True)
    var = xd.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (xd - mean) * inv_std
    out = x_hat * gamma.data + beta.data
    d = xd.shape[-1]

    def backward(g: np.ndarray):
        grad_beta = unbroadcast(g, beta.shape)
        grad_gamma = unbroadcast(g * x_hat, gamma.shape)
        if not x.requires_grad:
            return (None, grad_gamma, grad_beta)
        gxh = g * gamma.data
        grad_x = (
            inv_std
            / d
            * (d * gxh - gxh.sum(axis=-1, keepdims=True) - x_hat * (gxh * x_hat).sum(axis=-1, keepdims=True))
        )
        return (grad_x, grad_gamma, grad_beta)

    req = x.requires_grad or gamma.requires_grad or beta.requires_grad
    return Tensor(out, requires_grad=req, parents=(x, gamma, beta), backward_fn=backward)


def global_avgpool2d(x: Tensor) -> Tensor:
    """Mean over (H, W) of (N, C, H, W) -> (N, C)."""
    return x.mean(axis=(2, 3))


# ----------------------------------------------------------------------
# Op-level instrumentation of the ops outside the table (see repro.obs)
# ----------------------------------------------------------------------
# Wrap them so an ops=True recorder times every call, as apply() does for
# the table entries.  With no recorder active the wrapper is one global read
# + branch.  This runs at the end of module init, so layers.py (imported
# after us) binds the instrumented functions.
_INSTRUMENTED_OPS = (
    "relu", "tanh", "sigmoid", "leaky_relu", "elu", "gelu", "softplus",
    "softmax", "log_softmax", "logsumexp",
    "linear", "dropout", "embedding", "batch_norm", "layer_norm", "avgpool1d",
)
for _name in _INSTRUMENTED_OPS:
    globals()[_name] = _instrument(_name, globals()[_name])
del _name
