"""Optimizers.

State (momentum buffers, Adam moments) lives in the optimizer, by
parameter position: one flat vector per declared slot in the gradient
arena's layout (:func:`repro.nn.tensor.flat_layout`), so a snapshot needs
no knowledge of the optimizer.  All updates are in-place on ``param.data``.

Each optimizer has one update body, ``_update``, over a range of its flat
vectors.  ``step()`` sweeps it over the whole vector when every ``p.grad``
is its slot of one buffer in this layout (``Model.fit``'s gradient arena),
else runs it per parameter (gradients the tape owns, a parameter without
one, mixed dtypes): elementwise, the same floats either way.

The body runs through preallocated scratch (``out=`` forms), so ``step()``
allocates nothing after the first call, and follows the reference
expressions factor for factor: IEEE-754 ``+``/``*`` commute but do not
associate.  ``p.grad`` itself is never written.
"""

from __future__ import annotations

import operator
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from .tensor import Tensor, flat_layout, flat_ranges

#: Values per range of a whole-vector sweep: on P1B1's 116k fp64 values
#: one range runs ~10% slower than 32k-value ones, which stay in L2.
BLOCK = 32768


class Optimizer:
    """Base optimizer over a list of parameters.

    A subclass names its state in ``slots`` and writes ``_update(r, grad,
    dtype)``: advance range ``r`` of the state by the 1-D ``grad`` of
    parameters of ``dtype``; return the step (``_s1[r]``, or a fresh array
    in the mixed-dtype fallback).  ``state`` maps each slot to its flat
    vector, allocated by the first step: lazily, so an optimizer built
    before ``fit(precision=)`` casts gets the dtype the cast leaves.
    """

    slots: Tuple[str, ...] = ()

    def __init__(self, params: Iterable[Tensor], lr: float, weight_decay: float = 0.0) -> None:
        self.params: List[Tensor] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.state: Optional[Dict[str, np.ndarray]] = None
        self._tiled: Optional[Tuple[list, np.ndarray]] = None  # (grads, their vector) last matched

    def _allocate(self) -> None:
        # Zeroed: the slots, then (never serialized) two scratch vectors,
        # the first holding the step, and the weight-decay staging buffer.
        vectors = [flat_layout(self.params) for _ in range(len(self.slots) + 3)]
        self.state = {name: flat for name, (flat, _) in zip(self.slots, vectors)}
        (self._s1, self._deltas), (self._s2, _), (self._wd, self._wd_views) = vectors[-3:]
        self._ranges = flat_ranges(self.params)

    def load_state(self, state: Optional[Mapping[str, np.ndarray]]) -> None:
        """Install a saved ``state`` (copied in).  None clears it: the
        next step starts from zeros.  Anything but exactly this
        optimizer's slots, at this parameter list's length, is refused."""
        if state is None:
            self.state = None
            return
        size = sum(p.data.size for p in self.params)
        shapes = {name: saved.shape for name, saved in state.items()}
        if shapes != dict.fromkeys(self.slots, (size,)):
            raise ValueError(f"optimizer state {shapes} is not slots {self.slots} of shape ({size},)")
        self._allocate()
        for name, saved in state.items():
            self.state[name][:] = saved

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def _grad_vector(self) -> Optional[np.ndarray]:
        """The gradients as one vector if every ``p.grad`` is its slot of
        one 1-D buffer in this layout and its parameter's dtype, else None;
        a match is kept, so re-checking it costs one ``is`` per parameter."""
        grads = [p.grad for p in self.params]
        if self._tiled is not None and all(map(operator.is_, grads, self._tiled[0])):
            return self._tiled[1]
        base = getattr(grads[0], "base", None)
        if base is None or base.ndim != 1 or not base.flags.c_contiguous:
            return None
        start = grads[0].ctypes.data
        for g, p, r in zip(grads, self.params, self._ranges):
            if (g is None or g.base is not base or g.dtype != base.dtype or p.data.dtype != base.dtype
                    or g.shape != p.data.shape or not g.flags.c_contiguous
                    or g.ctypes.data != start + r.start * base.itemsize):
                return None
        lo = (start - base.ctypes.data) // base.itemsize
        self._tiled = (grads, base[lo:lo + self._ranges[-1].stop])
        return self._tiled[1]

    def step(self) -> None:
        if self.state is None:
            self._allocate()
        self.step_count += 1
        wd, vec = self.weight_decay, self._grad_vector()
        if vec is not None:
            if wd:
                # grad + wd*p.data, staged so p.grad stays untouched.
                for p, buf in zip(self.params, self._wd_views):
                    np.multiply(p.data, wd, out=buf)
                vec = np.add(self._wd, vec, out=self._wd)
            for lo in range(0, vec.size, BLOCK):
                self._update(slice(lo, lo + BLOCK), vec[lo:lo + BLOCK], vec.dtype)
            for p, delta in zip(self.params, self._deltas):
                p.data -= delta
            return
        for p, r, buf in zip(self.params, self._ranges, self._wd_views):
            grad = p.grad
            if grad is None:
                continue
            if wd:
                if grad.dtype == p.data.dtype:
                    np.multiply(p.data, wd, out=buf)
                    grad = np.add(buf, grad, out=buf)
                else:
                    grad = grad + wd * p.data
            p.data -= self._update(r, grad.reshape(-1), p.data.dtype).reshape(p.data.shape)

    def grad_norm(self) -> float:
        """Global L2 norm of all gradients (diagnostics / clipping)."""
        sq = 0.0
        for p in self.params:
            if p.grad is not None:
                sq += float(np.sum(p.grad.astype(np.float64) ** 2))
        return float(np.sqrt(sq))

    def clip_grad_norm(self, max_norm: float) -> float:
        """Scale all grads so the global norm is at most ``max_norm``."""
        norm = self.grad_norm()
        if norm > max_norm and norm > 0:
            scale = max_norm / norm
            for p in self.params:
                if p.grad is not None:
                    p.grad *= scale
        return norm


class SGD(Optimizer):
    """SGD with optional (Nesterov) momentum."""

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 0.01,
        momentum: float = 0.0,
        nesterov: bool = False,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr, weight_decay)
        if nesterov and momentum == 0.0:
            raise ValueError("nesterov requires momentum > 0")
        self.momentum = momentum
        self.nesterov = nesterov
        self.slots = ("velocity",) if momentum else ()

    def _update(self, r: slice, grad: np.ndarray, dtype: np.dtype) -> np.ndarray:
        s = self._s1[r]
        step = grad
        if self.momentum:
            v = self.state["velocity"][r]
            v *= self.momentum
            v += grad
            step = v
        if grad.dtype != dtype:  # mixed-dtype fallback (rare)
            if self.nesterov:
                step = grad + self.momentum * v
            return self.lr * step
        if self.nesterov:
            np.multiply(v, self.momentum, out=s)  # momentum * v
            np.add(s, grad, out=s)                # grad + momentum * v
            step = s
        return np.multiply(step, self.lr, out=s)  # lr * step, in scratch: grad is never written


class Adam(Optimizer):
    """Adam (Kingma & Ba 2015) with bias correction."""

    slots = ("m", "v")

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr, weight_decay)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps

    def _update(self, r: slice, grad: np.ndarray, dtype: np.dtype) -> np.ndarray:
        m, v, s1, s2 = self.state["m"][r], self.state["v"][r], self._s1[r], self._s2[r]
        t = self.step_count
        if grad.dtype != dtype:  # mixed-dtype fallback (rare)
            m *= self.beta1
            m += (1 - self.beta1) * grad
            v *= self.beta2
            v += (1 - self.beta2) * grad * grad
            m_hat = m / (1 - self.beta1 ** t)
            v_hat = v / (1 - self.beta2 ** t)
            return self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        m *= self.beta1
        np.multiply(grad, 1 - self.beta1, out=s1)  # (1-b1) * grad
        m += s1
        v *= self.beta2
        np.multiply(grad, 1 - self.beta2, out=s2)  # ((1-b2) * grad) * grad,
        np.multiply(s2, grad, out=s2)              # same factor order as ref
        v += s2
        np.divide(m, 1 - self.beta1 ** t, out=s1)  # m_hat
        np.divide(v, 1 - self.beta2 ** t, out=s2)  # v_hat
        np.multiply(s1, self.lr, out=s1)           # lr * m_hat
        np.sqrt(s2, out=s2)
        s2 += self.eps
        return np.divide(s1, s2, out=s1)


class RMSProp(Optimizer):
    """RMSProp (Tieleman & Hinton)."""

    slots = ("sq",)

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 1e-3,
        rho: float = 0.9,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr, weight_decay)
        self.rho, self.eps = rho, eps

    def _update(self, r: slice, grad: np.ndarray, dtype: np.dtype) -> np.ndarray:
        sq, s1, s2 = self.state["sq"][r], self._s1[r], self._s2[r]
        if grad.dtype != dtype:  # mixed-dtype fallback (rare)
            sq *= self.rho
            sq += (1 - self.rho) * grad * grad
            return self.lr * grad / (np.sqrt(sq) + self.eps)
        sq *= self.rho
        np.multiply(grad, 1 - self.rho, out=s1)  # ((1-rho) * grad) * grad
        np.multiply(s1, grad, out=s1)
        sq += s1
        np.multiply(grad, self.lr, out=s1)       # lr * grad
        np.sqrt(sq, out=s2)
        s2 += self.eps
        return np.divide(s1, s2, out=s1)


class AdaGrad(Optimizer):
    """AdaGrad — included for the HPO search-space experiments."""

    slots = ("acc",)

    def __init__(self, params: Iterable[Tensor], lr: float = 0.01, eps: float = 1e-10, weight_decay: float = 0.0) -> None:
        super().__init__(params, lr, weight_decay)
        self.eps = eps

    def _update(self, r: slice, grad: np.ndarray, dtype: np.dtype) -> np.ndarray:
        acc, s1, s2 = self.state["acc"][r], self._s1[r], self._s2[r]
        if grad.dtype != dtype:  # mixed-dtype fallback (rare)
            acc += grad * grad
            return self.lr * grad / (np.sqrt(acc) + self.eps)
        np.multiply(grad, grad, out=s1)
        acc += s1
        np.multiply(grad, self.lr, out=s1)  # lr * grad
        np.sqrt(acc, out=s2)
        s2 += self.eps
        return np.divide(s1, s2, out=s1)
