"""Optimizers.

State (momentum buffers, Adam moments) lives in the optimizer, by
parameter position: one flat vector per declared slot in the gradient
arena's layout (:func:`repro.nn.tensor.flat_layout`), so a snapshot needs
no knowledge of the optimizer.  All updates are in-place on ``param.data``.

Update arithmetic runs through preallocated per-parameter scratch views
(``out=`` ufunc forms) so ``step()`` allocates nothing after the first
call.  The in-place sequences replicate the reference expressions
factor-for-factor — IEEE-754 ``+``/``*`` are commutative (though not
associative), so reordering commutative pairs keeps results bit-identical
while reassociation would not.  ``p.grad`` itself is never written.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from .tensor import Tensor, flat_layout


class Optimizer:
    """Base optimizer over a list of parameters.

    A subclass names its state in ``slots``.  ``state`` maps each name to
    its flat vector; it is None until the first step allocates it —
    lazily, so an optimizer built before ``fit(precision=)`` casts the
    parameters gets the dtype the cast leaves.  ``_views[i]`` is parameter
    ``i``'s slice of each slot, then of two scratch vectors.
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

    def _allocate(self) -> None:
        # Zeroed: the slots, then (never serialized) two scratch vectors
        # and the weight-decay staging buffer.
        vectors = [flat_layout(self.params) for _ in range(len(self.slots) + 3)]
        self.state = {name: flat for name, (flat, _) in zip(self.slots, vectors)}
        *per_param, self._wd = (views for _, views in vectors)
        self._views = list(zip(*per_param))

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

    def step(self) -> None:
        if self.state is None:
            self._allocate()
        self.step_count += 1
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                if grad.dtype == p.data.dtype:
                    # grad + wd*p.data, staged so p.grad stays untouched.
                    buf = self._wd[i]
                    np.multiply(p.data, self.weight_decay, out=buf)
                    np.add(buf, grad, out=buf)
                    grad = buf
                else:
                    grad = grad + self.weight_decay * p.data
            self._update(i, p, grad)

    def _update(self, i: int, p: Tensor, grad: np.ndarray) -> None:
        raise NotImplementedError

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

    def _update(self, i: int, p: Tensor, grad: np.ndarray) -> None:
        *velocity, s, _ = self._views[i]
        step = grad
        if self.momentum:
            v, = velocity
            v *= self.momentum
            v += grad
            step = v
        if grad.dtype != p.data.dtype:  # mixed-dtype fallback (rare)
            if self.nesterov:
                step = grad + self.momentum * v
            p.data -= self.lr * step
            return
        if self.nesterov:
            np.multiply(v, self.momentum, out=s)  # momentum * v
            np.add(s, grad, out=s)                # grad + momentum * v
            step = s
        # p.data -= lr * step, staged through scratch so ``grad`` (possibly
        # p.grad itself) is never written.
        np.multiply(step, self.lr, out=s)
        p.data -= s


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

    def _update(self, i: int, p: Tensor, grad: np.ndarray) -> None:
        m, v, s1, s2 = self._views[i]
        t = self.step_count
        if grad.dtype != p.data.dtype:  # mixed-dtype fallback (rare)
            m *= self.beta1
            m += (1 - self.beta1) * grad
            v *= self.beta2
            v += (1 - self.beta2) * grad * grad
            m_hat = m / (1 - self.beta1 ** t)
            v_hat = v / (1 - self.beta2 ** t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            return
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
        np.divide(s1, s2, out=s1)
        p.data -= s1


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

    def _update(self, i: int, p: Tensor, grad: np.ndarray) -> None:
        sq, s1, s2 = self._views[i]
        if grad.dtype != p.data.dtype:  # mixed-dtype fallback (rare)
            sq *= self.rho
            sq += (1 - self.rho) * grad * grad
            p.data -= self.lr * grad / (np.sqrt(sq) + self.eps)
            return
        sq *= self.rho
        np.multiply(grad, 1 - self.rho, out=s1)  # ((1-rho) * grad) * grad
        np.multiply(s1, grad, out=s1)
        sq += s1
        np.multiply(grad, self.lr, out=s1)       # lr * grad
        np.sqrt(sq, out=s2)
        s2 += self.eps
        np.divide(s1, s2, out=s1)
        p.data -= s1


class AdaGrad(Optimizer):
    """AdaGrad — included for the HPO search-space experiments."""

    slots = ("acc",)

    def __init__(self, params: Iterable[Tensor], lr: float = 0.01, eps: float = 1e-10, weight_decay: float = 0.0) -> None:
        super().__init__(params, lr, weight_decay)
        self.eps = eps

    def _update(self, i: int, p: Tensor, grad: np.ndarray) -> None:
        acc, s1, s2 = self._views[i]
        if grad.dtype != p.data.dtype:  # mixed-dtype fallback (rare)
            acc += grad * grad
            p.data -= self.lr * grad / (np.sqrt(acc) + self.eps)
            return
        np.multiply(grad, grad, out=s1)
        acc += s1
        np.multiply(grad, self.lr, out=s1)  # lr * grad
        np.sqrt(acc, out=s2)
        s2 += self.eps
        np.divide(s1, s2, out=s1)
        p.data -= s1
