"""Frozen copies of the pre-optimization kernels.

These are the engine's hot-path implementations as they stood before the
kernel/memory pass (copying im2col in the (N, L_out, C*K) layout,
``np.pad``, batched matmul, broadcast bias adds, allocating optimizer
updates), the window-tensor + ``argmax`` max-pooling kernels the tap-wise
ones in ``nn.functional`` replaced, and the four-node mse chain.  They
exist so the optimized ops have an independent, *recorded* reference to
be checked against (``test_perf.py``); the op table's ``oracle``
names resolve here.  ``ScanASHA`` keeps ASHA's promotion check as the
ranked-prefix scan it was before it became a heap plus a bisection
(``test_hpo_strategies.py``).

Everything here works on raw ``np.ndarray`` s — no tape: the quantity
being pinned is the kernel's arithmetic, not autodiff overhead.
Do not "fix" or speed these up: their value is being frozen.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.hpo import ASHA


# ----------------------------------------------------------------------
# Pre-PR conv kernels (im2col with the patch copy on the N-major axis)
# ----------------------------------------------------------------------
def im2col_1d(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """(N, C, L) -> (N, L_out, C*kernel) patch matrix (copies at reshape)."""
    n, c, length = x.shape
    l_out = (length - kernel) // stride + 1
    s_n, s_c, s_l = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, l_out, c, kernel),
        strides=(s_n, s_l * stride, s_c, s_l),
        writeable=False,
    )
    return patches.reshape(n, l_out, c * kernel)


def conv1d_forward(
    xd: np.ndarray,
    w: np.ndarray,
    b: Optional[np.ndarray],
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Pre-PR conv1d forward: pad, N-major im2col, batched matmul."""
    if padding > 0:
        xd = np.pad(xd, ((0, 0), (0, 0), (padding, padding)))
    c_out, c_in, k = w.shape
    cols = im2col_1d(xd, k, stride)
    w2 = w.reshape(c_out, c_in * k)
    out = cols @ w2.T
    out = out.transpose(0, 2, 1)
    if b is not None:
        out = out + b[None, :, None]
    return out


def im2col_2d(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """(N, C, H, W) -> (N, H_out, W_out, C*kh*kw) patch matrix."""
    n, c, h, w = x.shape
    h_out = (h - kh) // stride + 1
    w_out = (w - kw) // stride + 1
    s_n, s_c, s_h, s_w = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, h_out, w_out, c, kh, kw),
        strides=(s_n, s_h * stride, s_w * stride, s_c, s_h, s_w),
        writeable=False,
    )
    return patches.reshape(n, h_out, w_out, c * kh * kw)


def conv2d_forward(
    xd: np.ndarray,
    w: np.ndarray,
    b: Optional[np.ndarray],
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Pre-PR conv2d forward: pad, N-major im2col, batched matmul."""
    if padding > 0:
        xd = np.pad(xd, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    c_out, c_in, kh, kw = w.shape
    cols = im2col_2d(xd, kh, kw, stride)
    w2 = w.reshape(c_out, c_in * kh * kw)
    out = cols @ w2.T
    out = out.transpose(0, 3, 1, 2)
    if b is not None:
        out = out + b[None, :, None, None]
    return out


def conv2d_backward(
    g: np.ndarray,
    cols: np.ndarray,
    w: np.ndarray,
    padded_hw: Tuple[int, int],
    n: int,
    stride: int = 1,
    padding: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Pre-PR conv2d backward: tensordot weight grad + per-tap fancy-index
    scatter of the input grad.  ``cols`` is the N-major im2col matrix."""
    h, w_sp = padded_hw
    c_out, c_in, kh, kw = w.shape
    h_out, w_out = g.shape[2], g.shape[3]
    w2 = w.reshape(c_out, c_in * kh * kw)
    g_t = g.transpose(0, 2, 3, 1)
    grad_w = np.tensordot(g_t, cols, axes=([0, 1, 2], [0, 1, 2])).reshape(c_out, c_in, kh, kw)
    grad_cols = (g_t @ w2).reshape(n, h_out, w_out, c_in, kh, kw)
    grad_x_pad = np.zeros((n, c_in, h, w_sp), dtype=g.dtype)
    hi = np.arange(h_out) * stride
    wi = np.arange(w_out) * stride
    for dh in range(kh):
        for dw in range(kw):
            grad_x_pad[:, :, hi[:, None] + dh, wi[None, :] + dw] += grad_cols[
                :, :, :, :, dh, dw
            ].transpose(0, 3, 1, 2)
    if padding > 0:
        return grad_x_pad[:, :, padding : h - padding, padding : w_sp - padding], grad_w
    return grad_x_pad, grad_w


# ----------------------------------------------------------------------
# Pre-PR max pooling (as_strided window tensor + max/argmax over it)
# ----------------------------------------------------------------------
def maxpool1d_forward(xd: np.ndarray, pool: int, stride: int) -> Tuple[np.ndarray, np.ndarray]:
    """Pre-PR maxpool1d forward: (N, C, L_out, pool) window view, ``max``
    and ``argmax`` over the window axis.  Returns ``(out, arg)``."""
    n, c, length = xd.shape
    l_out = (length - pool) // stride + 1
    s_n, s_c, s_l = xd.strides
    windows = np.lib.stride_tricks.as_strided(
        xd,
        shape=(n, c, l_out, pool),
        strides=(s_n, s_c, s_l * stride, s_l),
        writeable=False,
    )
    out = windows.max(axis=3)
    arg = windows.argmax(axis=3)  # (N, C, L_out)
    return out, arg


def maxpool1d_backward(
    g: np.ndarray, arg: np.ndarray, xd: np.ndarray, pool: int, stride: int
) -> np.ndarray:
    """Pre-PR maxpool1d backward: fancy-index scatter of ``g`` to the
    argmax positions (``np.add.at`` when windows overlap)."""
    n, c, length = xd.shape
    l_out = (length - pool) // stride + 1
    # np.zeros (not zeros_like): xd may be a non-contiguous view from
    # an upstream op, and the flat scatter below needs the reshape to
    # be a view, which only a C-contiguous buffer guarantees.
    grad = np.zeros(xd.shape, dtype=xd.dtype)
    pos = arg + np.arange(l_out)[None, None, :] * stride  # absolute index into L
    g2 = grad.reshape(n * c, length)
    rows = np.arange(n * c)[:, None]
    if stride >= pool:
        # Disjoint windows: every (row, pos) target is unique, so a
        # plain fancy-index assignment works — no np.add.at scatter.
        g2[rows, pos.reshape(n * c, l_out)] = g.reshape(n * c, l_out)
    else:
        np.add.at(g2, (rows, pos.reshape(n * c, l_out)), g.reshape(n * c, l_out))
    return grad


def maxpool2d_forward(xd: np.ndarray, pool: int, stride: int) -> Tuple[np.ndarray, np.ndarray]:
    """Pre-PR maxpool2d forward: 6-D window view, copying reshape to
    (..., pool*pool), ``max`` and ``argmax`` over it.  Returns
    ``(out, arg)`` with ``arg`` the flat index within the window."""
    n, c, h, w = xd.shape
    h_out = (h - pool) // stride + 1
    w_out = (w - pool) // stride + 1
    s_n, s_c, s_h, s_w = xd.strides
    windows = np.lib.stride_tricks.as_strided(
        xd,
        shape=(n, c, h_out, w_out, pool, pool),
        strides=(s_n, s_c, s_h * stride, s_w * stride, s_h, s_w),
        writeable=False,
    )
    flat = windows.reshape(n, c, h_out, w_out, pool * pool)
    out = flat.max(axis=4)
    arg = flat.argmax(axis=4)  # flat index within the window
    return out, arg


def maxpool2d_backward(
    g: np.ndarray, arg: np.ndarray, xd: np.ndarray, pool: int, stride: int
) -> np.ndarray:
    """Pre-PR maxpool2d backward: one 2-D fancy-index scatter over the
    flattened (H, W) plane (``np.add.at`` when windows overlap)."""
    n, c, h, w = xd.shape
    h_out = (h - pool) // stride + 1
    w_out = (w - pool) // stride + 1
    # C-contiguous zeros so the flat reshape below is a view (xd may
    # be a non-contiguous transpose from conv2d).
    grad = np.zeros(xd.shape, dtype=xd.dtype)
    dh, dw = np.divmod(arg, pool)
    hh = dh + np.arange(h_out)[None, None, :, None] * stride
    ww = dw + np.arange(w_out)[None, None, None, :] * stride
    # Flatten (H, W) so the scatter is a single 2-D fancy index.
    pos = (hh * w + ww).reshape(n * c, h_out * w_out)
    g2 = grad.reshape(n * c, h * w)
    rows = np.arange(n * c)[:, None]
    if stride >= pool:
        # Disjoint windows: unique targets, plain assignment suffices.
        g2[rows, pos] = g.reshape(n * c, h_out * w_out)
    else:
        np.add.at(g2, (rows, pos), g.reshape(n * c, h_out * w_out))
    return grad


# ----------------------------------------------------------------------
# Pre-PR cross-entropy (log-softmax node + fancy-index gather + mean)
# ----------------------------------------------------------------------
def cross_entropy_forward_backward(zd: np.ndarray, labels: np.ndarray) -> Tuple[float, np.ndarray]:
    """Pre-PR CE data path on raw arrays: separate log-softmax, gather and
    mean stages forward; backward re-broadcasts through each stage,
    including the ``np.add.at`` scatter the gather's adjoint needs."""
    n = zd.shape[0]
    shifted = zd - zd.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    sm = np.exp(logp)
    idx = labels.astype(np.int64)
    picked = logp[np.arange(n), idx]
    loss = -float(picked.mean())
    # backward: d(-mean(picked))/dpicked = -1/n, scattered then through
    # log-softmax's adjoint.
    g_logp = np.zeros_like(logp)
    np.add.at(g_logp, (np.arange(n), idx), np.full(n, -1.0 / n))
    grad = g_logp - sm * g_logp.sum(axis=1, keepdims=True)
    return loss, grad


# ----------------------------------------------------------------------
# Pre-PR mean squared error (sub → mul → sum → mul tape chain)
# ----------------------------------------------------------------------
def mse_forward_backward(pd: np.ndarray, target: np.ndarray, g) -> Tuple[np.ndarray, np.ndarray]:
    """The composed ``((pred - target) ** 2).mean()`` chain on raw arrays,
    forward, then ``g`` back through each node's adjoint."""
    diff = pd - target
    sq = diff * diff
    total = np.asarray(sq.sum())
    inv = np.asarray(1.0 / sq.size, dtype=total.dtype)  # mean's 0-d 1/n
    edge = np.broadcast_to(np.asarray(g) * inv, sq.shape).copy() * diff
    return np.asarray(total * inv), edge + edge  # the square's two edges


# ----------------------------------------------------------------------
# Pre-PR autodiff accumulation loop
# ----------------------------------------------------------------------
def backward_pre(loss) -> None:
    """The seed engine's ``Tensor.backward`` accumulation, verbatim: a
    fresh ``np.ones_like`` seed every call, ``g.copy()`` into every leaf,
    and ``a + b`` (allocating) gradient accumulation.  Runs on the current
    tape structure (``_parents`` / ``_backward_fn``), so the train-step
    benchmarks can charge the pre-PR engine its real backward cost."""
    grad = np.ones_like(loss.data)
    grad = np.asarray(grad, dtype=loss.data.dtype)

    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    grads = {id(loss): grad}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.grad is None:
            node.grad = g.copy() if node._backward_fn is None else g
        else:
            node.grad = node.grad + g
        if node._backward_fn is None:
            continue
        parent_grads = node._backward_fn(g)
        for p, pg in zip(node._parents, parent_grads):
            if pg is None or not p.requires_grad:
                continue
            if id(p) in grads:
                grads[id(p)] = grads[id(p)] + pg
            else:
                grads[id(p)] = pg


# ----------------------------------------------------------------------
# Pre-PR optimizer updates (allocating expression forms)
# ----------------------------------------------------------------------
class AdamReference:
    """Pre-PR Adam data path: every step allocates the moment/update temps."""

    def __init__(self, shapes, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self.t = 0

    def step(self, params, grads) -> None:
        self.t += 1
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g * g
            m_hat = m / (1 - self.beta1 ** self.t)
            v_hat = v / (1 - self.beta2 ** self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


# ----------------------------------------------------------------------
# Pre-PR ASHA promotion check (scan of the ranked prefix)
# ----------------------------------------------------------------------
class ScanASHA(ASHA):
    """ASHA whose promotion check scans the top ``len // eta`` of the
    rung's ranked results past every promoted entry: cost grows with the
    rung, the choice is the one the heap check must reproduce."""

    def _promotable(self, rung_idx):
        rung = self.rungs[rung_idx]
        k = len(rung.results) // self.eta
        for value, launch_idx, cfg in rung.results[:k]:
            if launch_idx not in rung.promoted:
                return launch_idx, cfg
        return None
