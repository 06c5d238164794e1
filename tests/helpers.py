"""Shared test utilities: numerical gradient checking."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.nn.tensor import Tensor
from repro.perf import set_sink


def numerical_grad(fn: Callable[[np.ndarray], float], x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar ``fn`` at ``x``."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = fn(x)
        flat[i] = orig - eps
        f_minus = fn(x)
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2 * eps)
    return grad


def check_grad(
    op: Callable[[Tensor], Tensor],
    x: np.ndarray,
    atol: float = 1e-5,
    rtol: float = 1e-4,
) -> None:
    """Assert that autograd of ``op(x).sum()`` matches finite differences."""
    x = np.asarray(x, dtype=np.float64)
    t = Tensor(x.copy(), requires_grad=True)
    out = op(t)
    loss = out.sum()
    loss.backward()
    analytic = t.grad

    def scalar_fn(arr: np.ndarray) -> float:
        return float(op(Tensor(arr)).sum().item())

    numeric = numerical_grad(scalar_fn, x)
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=rtol)


def check_grad_multi(
    op: Callable[..., Tensor],
    arrays: Sequence[np.ndarray],
    atol: float = 1e-5,
    rtol: float = 1e-4,
) -> None:
    """Gradient check w.r.t. each of several inputs of a multi-arg op."""
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    op(*tensors).sum().backward()
    for i, (t, a) in enumerate(zip(tensors, arrays)):
        def scalar_fn(arr: np.ndarray, i=i) -> float:
            args = [Tensor(x) for x in arrays]
            args[i] = Tensor(arr)
            return float(op(*args).sum().item())

        numeric = numerical_grad(scalar_fn, a)
        np.testing.assert_allclose(
            t.grad, numeric, atol=atol, rtol=rtol,
            err_msg=f"gradient mismatch for argument {i}",
        )


class _MatmulCounting(np.ndarray):
    """ndarray view that counts the ``@`` products it (or a reshape or
    transpose of it) takes part in, then computes them as plain arrays."""

    matmuls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _MatmulCounting.matmuls += 1
        inputs = tuple(np.asarray(i) for i in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


def check_dead_input_grad(
    op: Callable[..., Tensor],
    x: np.ndarray,
    params: Sequence[np.ndarray],
    count_matmuls: bool = True,
) -> None:
    """Dead-gradient contract of ``op(x, weight, *more_params)``: when ``x``
    does not require grad, the parameter grads are byte-identical to the
    run where it does, ``x.grad`` stays None, the closure leaves x's slot
    None and the weight takes part in one ``@`` fewer (the forward GEMM
    only — no input-gradient GEMM).  ``count_matmuls=False`` for datapaths
    that copy the weight before using it (autocast), where the counting
    view does not survive."""

    def run(x_requires_grad: bool):
        xt = Tensor(x.copy(), requires_grad=x_requires_grad)
        pts = [Tensor(p.copy(), requires_grad=True) for p in params]
        pts[0].data = pts[0].data.view(_MatmulCounting)
        _MatmulCounting.matmuls = 0
        out = op(xt, *pts)
        g = np.random.default_rng(0).standard_normal(out.shape).astype(out.data.dtype)
        x_slot = out._backward_fn(g)[0]
        out.backward(g)
        return xt, pts, x_slot, _MatmulCounting.matmuls

    live_x, live_params, live_slot, live_matmuls = run(True)
    dead_x, dead_params, dead_slot, dead_matmuls = run(False)
    assert live_x.grad is not None and live_slot is not None
    assert dead_x.grad is None and dead_slot is None
    for live, dead in zip(live_params, dead_params):
        assert live.grad.dtype == dead.grad.dtype
        assert live.grad.tobytes() == dead.grad.tobytes()
    if count_matmuls:
        # Each run calls the closure twice (once directly, once through
        # backward()): forward + 2 input-grad GEMMs against forward only.
        assert (live_matmuls, dead_matmuls) == (3, 1)


class SeenOps:
    """Pass-through profiler sink: adds the name of every op that runs to
    ``into``.  Used as a context manager, it is the active sink inside."""

    def __init__(self, into: set) -> None:
        self.into = into

    def record(self, name, fn, args, kwargs):
        self.into.add(name)
        return fn(*args, **kwargs)

    def __enter__(self) -> "SeenOps":
        self.prev = set_sink(self)
        return self

    def __exit__(self, *exc) -> None:
        set_sink(self.prev)
