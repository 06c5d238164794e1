"""Reverse-mode automatic differentiation on NumPy arrays.

This module provides the :class:`Tensor` class, the computational substrate
for every model in :mod:`repro`.  A ``Tensor`` wraps an ``np.ndarray`` and
records the operations applied to it on a tape (a DAG of parent links plus
per-node backward closures).  Calling :meth:`Tensor.backward` walks the DAG
in reverse topological order and accumulates gradients into ``.grad``.

Design notes
------------
* Gradients are plain ``np.ndarray`` objects (not Tensors): we never need
  higher-order derivatives for the paper's workloads, and keeping grads as
  raw arrays keeps the backward pass allocation-light.
* Broadcasting is handled once, in :func:`unbroadcast`, so each op's
  backward closure can be written as if shapes matched exactly.
* All computation stays in the array's own dtype.  The precision-emulation
  layer (:mod:`repro.precision`) wraps ops with rounding hooks rather than
  forking this engine.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

# Grad mode: a module-level switch (cheaper than threading a context object
# through every op).  ``no_grad`` is used by evaluation loops.
_GRAD_ENABLED = True

# Count of tape (non-leaf) nodes created since process start.  The
# inference fast path is verified against this: a forward pass under
# ``no_grad`` must not grow it.
_TAPE_NODES = 0

# Cached all-ones seed gradients for scalar losses, keyed by (dtype, shape).
# Scalar outputs only, so the cache stays a handful of 1-element arrays.
_SEED_ONES: dict = {}


class no_grad:
    """Context manager disabling graph construction (like torch.no_grad)."""

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev


def is_grad_enabled() -> bool:
    return _GRAD_ENABLED


def tape_node_count() -> int:
    """Number of graph (non-leaf) nodes created so far.

    Unchanged across a ``no_grad`` forward pass — the assertion the
    inference fast path is held to.
    """
    return _TAPE_NODES


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` (shape produced by broadcasting) back to ``shape``.

    NumPy broadcasting either prepends axes or stretches length-1 axes;
    the adjoint of broadcasting is summation over exactly those axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over stretched (originally length-1) axes.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    arr = np.asarray(value)
    if dtype is not None and arr.dtype != dtype:
        arr = arr.astype(dtype)
    return arr


class Tensor:
    """A NumPy array with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array (or nested sequence / scalar) holding the values.
    requires_grad:
        If True, operations on this tensor are recorded and ``backward``
        will populate ``.grad``.
    parents:
        Internal — tensors this one was computed from.
    backward_fn:
        Internal — closure mapping the output gradient to a tuple of
        gradients, one per parent (entries may be None).
    name:
        Optional label used in error messages and graph dumps.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
        backward_fn: Optional[Callable[[np.ndarray], Tuple[Optional[np.ndarray], ...]]] = None,
        name: str = "",
    ) -> None:
        self.data = _as_array(data)
        if self.data.dtype.kind not in "fc" and requires_grad:
            raise TypeError(
                f"requires_grad=True needs a floating dtype, got {self.data.dtype}"
            )
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: Optional[np.ndarray] = None
        self._parents: Tuple[Tensor, ...] = tuple(parents) if self.requires_grad else ()
        self._backward_fn = backward_fn if self.requires_grad else None
        self.name = name
        if self._parents:
            global _TAPE_NODES
            _TAPE_NODES += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad_flag}{label})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """A tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def astype(self, dtype) -> "Tensor":
        dtype = np.dtype(dtype)
        out_data = self.data.astype(dtype)

        def backward(g: np.ndarray):
            return (g.astype(self.data.dtype),)

        return self._unary_out(out_data, backward)

    # ------------------------------------------------------------------
    # Graph bookkeeping
    # ------------------------------------------------------------------
    def _unary_out(self, data: np.ndarray, backward) -> "Tensor":
        return Tensor(data, requires_grad=self.requires_grad, parents=(self,), backward_fn=backward)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(
        self,
        grad: Optional[np.ndarray] = None,
        grad_ready_hook: Optional[Callable[["Tensor"], None]] = None,
        arena: Optional["GradArena"] = None,
    ) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to ones (appropriate for scalar losses).  Grads
        accumulate into ``.grad`` on every reachable tensor that has
        ``requires_grad`` set.

        ``grad_ready_hook(leaf)`` fires on each leaf tensor (no backward
        fn — i.e. a parameter) the moment its ``.grad`` is final for this
        pass: a per-tensor consumer-edge count tracks how many graph
        edges can still contribute, and the hook fires when the last one
        delivers — mid-backward, in the order backward actually finishes
        parameters.  This is the attachment point for overlapped
        gradient communication (``repro.parallel.ddp``): buckets of
        parameters can start their allreduce while the rest of backward
        is still running.

        ``arena`` names where leaf gradients live: a leaf with a slot in
        it gets its first contribution written there and ``.grad`` set
        to that view, instead of a buffer of its own.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    f"backward() without an explicit gradient requires a scalar output, "
                    f"got shape {self.shape}"
                )
            # Preallocated-seed fast path: scalar losses reuse a cached
            # all-ones array instead of allocating one per step.  The seed
            # is never mutated (accumulation below copies before writing).
            key = (self.data.dtype.str, self.data.shape)
            grad = _SEED_ONES.get(key)
            if grad is None:
                grad = np.ones_like(self.data)
                # Read-only: the cached seed may end up stored as a .grad;
                # freezing it turns accidental in-place writes into errors
                # instead of silently corrupting every later backward().
                grad.flags.writeable = False
                _SEED_ONES[key] = grad
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)

        topo: List[Tensor] = []
        visited = set()
        # Consumer-edge counts for every reachable requires-grad tensor.
        # A leaf's gradient is final the moment its *last* consumer edge
        # has delivered (or skipped) its contribution — that is when the
        # grad-ready hook must fire.  The leaf's own position in the
        # reversed topo order is far too late: DFS appends a layer's
        # params before descending the rest of the chain, so last-layer
        # params (whose grads backward finishes first) pop last.
        pending: Dict[int, int] = {}
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        # Iterative DFS (deep MLPs would blow the recursion limit).
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
                if p.requires_grad:
                    pending[id(p)] = pending.get(id(p), 0) + 1
                    if id(p) not in visited:
                        stack.append((p, False))

        # ``owned`` marks accumulation buffers this pass allocated itself and
        # may therefore mutate with in-place adds.  First contributions are
        # stored as-is (they can alias closure internals or the seed), so
        # the second contribution pays the one allocation and every further
        # one is an in-place ``np.add``.
        grads = {id(self): grad}
        owned = set()
        slots = arena.slots if arena is not None else {}

        def _finalize_leaf(leaf: "Tensor", g: np.ndarray) -> None:
            if leaf.grad is None:
                # Leaves (params) get a buffer this pass may write, so
                # cross-step accumulation below can run in place: their
                # arena slot, else an owned buffer adopted as-is, else a copy.
                slot = slots.get(id(leaf))
                if slot is not None:
                    np.copyto(slot, g)
                    leaf.grad = slot
                else:
                    leaf.grad = g if id(leaf) in owned else g.copy()
            else:
                # Accumulate into the existing (owned) leaf buffer without
                # reallocating — the grad-accumulation hot path.
                np.add(leaf.grad, g, out=leaf.grad)
            if grad_ready_hook is not None:
                grad_ready_hook(leaf)

        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is not None:
                if node._backward_fn is None:
                    # Only the root itself can reach its pop while still
                    # carrying a buffer — every other leaf was finalized
                    # below when its last consumer edge cleared.
                    _finalize_leaf(node, g)
                elif node.grad is None:
                    # Non-leaf grads may share (same semantics as storing
                    # the closure output).
                    node.grad = g
                else:
                    node.grad = node.grad + g
            if node._backward_fn is None:
                continue
            parent_grads = node._backward_fn(g) if g is not None else None
            for i, p in enumerate(node._parents):
                if not p.requires_grad:
                    continue
                key = id(p)
                pg = None if parent_grads is None else parent_grads[i]
                if pg is not None:
                    buf = grads.get(key)
                    if buf is None:
                        grads[key] = pg
                    elif key in owned:
                        np.add(buf, pg, out=buf)
                    else:
                        grads[key] = buf + pg
                        owned.add(key)
                # This consumer edge has now delivered (or skipped) its
                # contribution; a leaf whose last edge clears is final.
                pending[key] -= 1
                if pending[key] == 0 and p._backward_fn is None:
                    buf = grads.pop(key, None)
                    if buf is not None:
                        _finalize_leaf(p, buf)
        # Leaf-only .grad semantics would drop intermediate grads; we keep
        # them all (useful for attribution studies in the AMR workload).

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other: ArrayLike) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        data = self.data + other.data

        def backward(g: np.ndarray):
            return (unbroadcast(g, self.shape), unbroadcast(g, other.shape))

        return _binary_out(self, other, data, backward)

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        data = self.data - other.data

        def backward(g: np.ndarray):
            return (unbroadcast(g, self.shape), unbroadcast(-g, other.shape))

        return _binary_out(self, other, data, backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        data = self.data * other.data
        a_data, b_data = self.data, other.data

        def backward(g: np.ndarray):
            return (
                unbroadcast(g * b_data, self.shape),
                unbroadcast(g * a_data, other.shape),
            )

        return _binary_out(self, other, data, backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        data = self.data / other.data
        a_data, b_data = self.data, other.data

        def backward(g: np.ndarray):
            return (
                unbroadcast(g / b_data, self.shape),
                unbroadcast(-g * a_data / (b_data * b_data), other.shape),
            )

        return _binary_out(self, other, data, backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray):
            return (-g,)

        return self._unary_out(-self.data, backward)

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp(b*log(a))")
        data = self.data ** exponent
        x = self.data

        def backward(g: np.ndarray):
            return (g * exponent * x ** (exponent - 1),)

        return self._unary_out(data, backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        a, b = self.data, other.data
        data = a @ b

        def backward(g: np.ndarray):
            if a.ndim == 1 and b.ndim == 1:  # inner product
                return (g * b, g * a)
            if a.ndim == 1:  # (k,) @ (k, n) -> (n,)
                return (g @ b.T, np.outer(a, g))
            if b.ndim == 1:  # (m, k) @ (k,) -> (m,)
                return (np.outer(g, b), a.T @ g)
            # A side that does not require grad (the data batch under a
            # first layer) is skipped: backward() discards its slot.
            ga = unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape) if self.requires_grad else None
            gb = unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape) if other.requires_grad else None
            return (ga, gb)

        return _binary_out(self, other, data, backward)

    # Comparisons produce detached boolean tensors (non-differentiable).
    def __gt__(self, other: ArrayLike) -> "Tensor":
        return Tensor(self.data > _as_array(other))

    def __lt__(self, other: ArrayLike) -> "Tensor":
        return Tensor(self.data < _as_array(other))

    def __ge__(self, other: ArrayLike) -> "Tensor":
        return Tensor(self.data >= _as_array(other))

    def __le__(self, other: ArrayLike) -> "Tensor":
        return Tensor(self.data <= _as_array(other))

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old_shape = self.shape
        data = self.data.reshape(shape)

        def backward(g: np.ndarray):
            return (g.reshape(old_shape),)

        return self._unary_out(data, backward)

    def flatten(self) -> "Tensor":
        """Flatten all axes after the first (batch) axis."""
        n = self.shape[0] if self.ndim > 0 else 1
        return self.reshape(n, -1)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = np.argsort(axes)
        data = self.data.transpose(axes)

        def backward(g: np.ndarray):
            return (g.transpose(inverse),)

        return self._unary_out(data, backward)

    def __getitem__(self, idx) -> "Tensor":
        data = self.data[idx]
        shape = self.shape
        dtype = self.data.dtype

        def backward(g: np.ndarray):
            full = np.zeros(shape, dtype=dtype)
            np.add.at(full, idx, g)
            return (full,)

        return self._unary_out(data, backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.shape

        def backward(g: np.ndarray):
            if axis is None:
                return (np.broadcast_to(g, shape).copy() if np.ndim(g) == 0 else np.full(shape, g, dtype=g.dtype),)
            g_exp = g
            if not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % len(shape) for a in axes)
                for a in sorted(axes):
                    g_exp = np.expand_dims(g_exp, a)
            return (np.broadcast_to(g_exp, shape).astype(g.dtype, copy=True),)

        return self._unary_out(data, backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        n = self.size if axis is None else _axis_size(self.shape, axis)
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        out = (centered * centered).mean(axis=axis, keepdims=keepdims)
        return out

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)
        x = self.data

        def backward(g: np.ndarray):
            if axis is None:
                mask = (x == x.max()).astype(x.dtype)
                mask /= mask.sum()
                return (mask * g,)
            d = data if keepdims else np.expand_dims(data, axis)
            g_exp = g if keepdims else np.expand_dims(g, axis)
            mask = (x == d).astype(x.dtype)
            mask /= mask.sum(axis=axis, keepdims=True)
            return (mask * g_exp,)

        return self._unary_out(data, backward)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    def argmax(self, axis=None) -> np.ndarray:
        return self.data.argmax(axis=axis)

    # Convenience elementwise wrappers (implemented in functional.py but
    # mirrored as methods for fluent model code).
    def exp(self) -> "Tensor":
        from . import functional as F

        return F.exp(self)

    def log(self) -> "Tensor":
        from . import functional as F

        return F.log(self)

    def tanh(self) -> "Tensor":
        from . import functional as F

        return F.tanh(self)

    def sigmoid(self) -> "Tensor":
        from . import functional as F

        return F.sigmoid(self)

    def relu(self) -> "Tensor":
        from . import functional as F

        return F.relu(self)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def abs(self) -> "Tensor":
        from . import functional as F

        return F.abs(self)


def flat_ranges(params: Sequence[Tensor]) -> List[slice]:
    """Each tensor's slot in :func:`flat_layout`'s vector, as a slice."""
    ends = np.cumsum([p.data.size for p in params]).tolist()
    return [slice(hi - p.data.size, hi) for p, hi in zip(params, ends)]


def flat_layout(params: Sequence[Tensor], extra: int = 0) -> Tuple[np.ndarray, List[np.ndarray]]:
    """The one layout everything a training run carries per parameter is
    addressed in (gradients, optimizer state): a zeroed vector with a slot
    per tensor back to back in list order, plus ``extra`` trailing slots,
    in the promotion of the tensors' dtypes — and each slot as a view in
    its tensor's shape."""
    ranges = flat_ranges(params)
    dtype = np.result_type(*(p.data.dtype for p in params)) if ranges else np.float64
    flat = np.zeros((ranges[-1].stop if ranges else 0) + extra, dtype=dtype)
    return flat, [flat[r].reshape(p.data.shape) for p, r in zip(params, ranges)]


class GradArena:
    """One contiguous gradient buffer for a fixed list of leaf tensors.

    ``flat`` holds every parameter's gradient in :func:`flat_layout`
    (``views[i]`` is parameter ``i``'s slice, in its shape) plus one
    trailing slot for the owner.  ``Tensor.backward(arena=...)`` writes a
    leaf's gradient into its slot and points ``.grad`` at it, so the
    owner can scale, reduce or ship all gradients as slices of one vector.
    The tensors hold nothing of it: ``.grad = None`` drops a view.
    """

    def __init__(self, params: Iterable[Tensor]) -> None:
        self.params = list(params)
        self.flat, self.views = flat_layout(self.params, extra=1)
        self.slots = {id(p): v for p, v in zip(self.params, self.views)}

    def bind(self, zero_unreached: bool = False) -> None:
        """Point every ``.grad`` that is None at its slot, whose contents
        are the gradient — or, with ``zero_unreached``, stale: zeroed first."""
        for p, v in zip(self.params, self.views):
            if p.grad is None:
                if zero_unreached:
                    v[...] = 0.0
                p.grad = v

    def release(self) -> None:
        """Drop every ``.grad``; the next backward starts the slots afresh."""
        for p in self.params:
            p.grad = None


def _binary_out(a: Tensor, b: Tensor, data: np.ndarray, backward) -> Tensor:
    req = a.requires_grad or b.requires_grad
    return Tensor(data, requires_grad=req, parents=(a, b), backward_fn=backward)


def _axis_size(shape: Tuple[int, ...], axis) -> int:
    if isinstance(axis, tuple):
        n = 1
        for a in axis:
            n *= shape[a % len(shape)]
        return n
    return shape[axis % len(shape)]


def tensor(data: ArrayLike, requires_grad: bool = False, dtype=None) -> Tensor:
    """Create a Tensor, optionally casting to ``dtype``."""
    arr = _as_array(data, dtype=dtype)
    return Tensor(arr, requires_grad=requires_grad)


def zeros(shape, dtype=np.float64, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)


def ones(shape, dtype=np.float64, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray):
        grads = []
        for i in range(len(tensors)):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(sl)])
        return tuple(grads)

    req = any(t.requires_grad for t in tensors)
    return Tensor(data, requires_grad=req, parents=tuple(tensors), backward_fn=backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stack along a new axis."""
    tensors = list(tensors)
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g: np.ndarray):
        moved = np.moveaxis(g, axis, 0)
        return tuple(moved[i] for i in range(len(tensors)))

    req = any(t.requires_grad for t in tensors)
    return Tensor(data, requires_grad=req, parents=tuple(tensors), backward_fn=backward)
