"""Real data-parallel training: per-rank shards, shared-memory allreduce.

:func:`fit_data_parallel` trains one model on ``world`` ranks.  Each
step, every rank takes its ``batch_size / world`` share of the *same*
global batch (the data-order RNG is replicated bit-for-bit into every
rank), and the gradients are averaged through the deterministic
shared-memory allreduce of :mod:`repro.parallel.allreduce`.  A rank
then steps only its owned run of whole parameters (:func:`_owned_runs`),
keeping about ``1/world`` of the optimizer state, in place in one weight
slab that every rank's parameters are views of: ZeRO stage 1 on processes.

There is no training loop here: a rank is a :class:`repro.nn.FitLoop`
under one driver, a :class:`_Shares`, so every ``fit`` keyword means
what it means in ``Model.fit``; the driver wraps the step body and ends
it with the exchange of ``fit``'s own gradient arena.  Two backends, one
contract: ``backend="process"`` runs one :class:`_Rank` per
:class:`~repro.parallel.pool.ProcessWorkerPool` slot, the dataset and
the allreduce slabs its shared-memory data plane; ``backend="serial"``
runs every rank's share in turn in one process (:class:`_Serial` says
what that checks).  With the reduction order pinned and each optimizer
update elementwise per parameter, the two give **bit-identical**
weights, buffers and histories — checked inside every ``ddp_mlp`` run of
``bench/`` and per wire dtype by ``tests/test_ddp_overlap.py``.  With
``world=1`` this is plain ``Model.fit``, ragged last batch included.

Gradient communication is one engine, :class:`_GradBucketScheduler`
(protocol and safety argument: :mod:`repro.parallel.allreduce`).
Parameters are partitioned into size-targeted buckets in reverse layout
order (:func:`~repro.parallel.allreduce.plan_buckets`; ``bucket_bytes``
at least the gradient vector's size gives one bucket); a tape hook
publishes each bucket as backward completes it and collects every
earlier one all ranks have published — one thread per rank, no barrier.
``overlap=False`` publishes only after backward (the ablation baseline).
``wire_dtype`` is the slab format (``float64`` | ``float32`` |
``bf16``); accumulation is in ascending rank order, and the serial
backend replays the identical schedule and codec.
"""

from __future__ import annotations

import functools
import inspect
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.dataloader import DataLoader
from ..nn.model import FitLoop, History, Model, cast_for_fit
from ..nn.optim import Adam, Optimizer
from ..nn.tensor import GradArena, flat_ranges
from ..obs.context import get_recorder
from .allreduce import (
    DEFAULT_BUCKET_BYTES,
    WIRE_DTYPES,
    BucketAllreduceHandle,
    BucketPlan,
    BucketRankReducer,
    WireScratch,
    chunk_bounds,
    create_bucketed_allreduce,
    plan_buckets,
    reduce_ranks_bucketed,
    wire_itemsize,
)
from .pool import ProcessWorkerPool
from .shm import SharedArrayStore

#: ``fit``'s keywords and defaults, read off the one place they are declared.
_FIT_SIGNATURE = inspect.signature(FitLoop)


@dataclass
class DataParallelResult:
    """Outcome of a data-parallel fit (either backend).

    ``history`` is rank 0's :class:`~repro.nn.History` (``epoch_losses``
    and ``epoch_times`` are its ``loss`` and ``time`` columns; ``epochs``
    is how many it ran, fewer than asked for after an early stop).
    ``comm_stats`` (process backend, rank 0's view) is what the
    gradient-communication engine actually did: bucket spans, bytes on
    the wire per step and the timings :class:`_GradBucketScheduler`
    defines; ``owned``, each rank's ``[lo, hi)`` run of the arena; and
    ``gather_s``, rank 0's wait for its peers' steps of the shared weights.
    """

    world: int
    backend: str
    epochs: int
    steps_per_epoch: int
    elapsed_s: float
    epoch_losses: List[float]
    epoch_times: List[float] = field(default_factory=list)
    comm_stats: Optional[Dict] = None
    history: Optional[History] = None

    @property
    def steps(self) -> int:
        return self.epochs * self.steps_per_epoch

    @property
    def steps_per_s(self) -> float:
        """Global train-step throughput."""
        return self.steps / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1]


@dataclass
class _TrainSpec:
    """What a driver needs beside model and data, in one picklable bundle."""

    rng_state: dict  # the shuffle stream, after the caller's process built the model
    world: int
    fit_kwargs: dict
    optimizer_factory: Callable  # params -> Optimizer
    owned: List[Tuple[int, int]]  # per rank: [first, end) parameter index it steps
    pre_step_hook: Optional[Callable[[int, int], None]]
    wire_dtype: str
    plan: BucketPlan  # over fit's gradient arena: the parameters, then the loss slot
    overlap: bool
    drop_last: bool
    timeout_s: float  # bounds every allreduce wait inside a rank


class _GradBucketScheduler:
    """Per-rank bucket engine: count parameters down as backward
    finalises them in the arena, publish completed buckets in pinned
    schedule order, collect them as soon as every rank has — all on the
    calling thread, all as slices of the arena.

    ``grad_ready`` is the tape hook.  While a step hides its exchange
    (``begin_step(hide=True)``), the hook that completes the next
    scheduled bucket publishes it (never a wait) and collects whatever
    earlier buckets every peer has published too; ``wait_step`` blocks
    only for the remainder.  Otherwise nothing leaves the rank before
    ``wait_step``, which does the whole step.

    Timing: ``total_comm_s`` is busy time (publish + collect) and
    ``bucket_comm_s`` splits exactly that by bucket; ``exposed_wait_s``
    is the time inside ``wait_step``, i.e. after backward, polling
    included; ``comm_chain_s`` is each step's first publish to its last
    collect.  The overlap fraction is the share of that chain which ran
    under backward, ``1 - exposed / chain``.
    """

    def __init__(self, arena: GradArena, reducer: BucketRankReducer, *,
                 overlap: bool = True) -> None:
        self.plan = reducer.plan
        self._vec = arena.flat
        self._bucket_of = {id(p): b for p, b in zip(arena.params, self.plan.param_bucket)}
        self._counts0 = self.plan.param_counts()
        self._reducer = reducer
        self._overlap = overlap
        self.total_comm_s = 0.0
        self.exposed_wait_s = 0.0
        self.comm_chain_s = 0.0
        self.bucket_comm_s = [0.0] * self.plan.n_buckets

    # -- per-step protocol ------------------------------------------------
    def begin_step(self, step: int, hide: bool) -> None:
        self._step = step
        self._hide = hide and self._overlap
        self._counts = list(self._counts0)  # parameters still missing, per bucket
        self._sent = 0  # buckets published so far this step
        self._got = 0   # buckets collected so far this step

    def grad_ready(self, leaf) -> None:
        """Tape hook: ``leaf``'s gradient for this backward is final."""
        b = self._bucket_of.get(id(leaf))
        if b is not None:
            self._counts[b] -= 1
            if self._hide and self._counts[b] == 0:
                self._pump(block=False)

    def wait_step(self) -> None:
        """Block until every bucket of the step is reduced into the arena."""
        t0 = time.perf_counter()
        self._pump(block=True)
        t1 = time.perf_counter()
        self.exposed_wait_s += t1 - t0
        self.comm_chain_s += t1 - self._t_first

    def stats(self, steps: int) -> Dict:
        wire = self._reducer.wire_dtype
        chain_s = self.comm_chain_s
        frac = 0.0 if chain_s <= 0 else min(1.0, max(0.0, 1.0 - self.exposed_wait_s / chain_s))
        return {
            "wire_dtype": wire,
            "overlap": bool(self._overlap),
            "n_buckets": self.plan.n_buckets,
            "steps": int(steps),
            "total_comm_s": float(self.total_comm_s),
            "exposed_wait_s": float(self.exposed_wait_s),
            "comm_chain_s": float(chain_s),
            "overlap_fraction": float(frac),
            "wire_bytes_per_step": int(self._reducer.world * self.plan.wire_bytes(wire)),
            "bucket_spans": [[int(lo), int(hi)] for lo, hi in self.plan.spans],
            "bucket_comm_s": [float(t) for t in self.bucket_comm_s],
        }

    # -- internals --------------------------------------------------------
    def _pump(self, block: bool) -> None:
        """Publish, in order, every bucket that is complete and collect
        every published bucket all ranks have delivered; with ``block``,
        publish and collect the whole rest of the step."""
        red, n = self._reducer, self.plan.n_buckets
        while self._sent < n and (block or self._counts[self._sent] == 0):
            if self._sent == 0:
                self._t_first = time.perf_counter()
            self._timed(red.publish, self._sent)
            self._sent += 1
        while self._got < self._sent:
            if block:
                red.wait(self._got, self._step)
            elif not red.ready(self._got, self._step):
                break
            self._timed(red.collect, self._got)
            self._got += 1

    def _timed(self, op, b: int) -> None:
        t0 = time.perf_counter()
        op(b, self._vec, self._step)
        dt = time.perf_counter() - t0
        self.total_comm_s += dt
        self.bucket_comm_s[b] += dt


class _ShareLoader(DataLoader):
    """``FitLoop``'s loader over *global* batches: an item is ``ranks``'
    shares of one, in rank order, each a :func:`chunk_bounds` slice of
    the batch's permutation indices.  ``steps`` full batches split evenly
    (``batch_size`` divides by ``world``); a kept ragged ``tail`` splits
    pad-free, so a rank's share of it can be empty.  The staging hook
    runs here, in the generator, while each share is gathered.
    """

    def __init__(self, data: DataLoader, spec: _TrainSpec, ranks: Sequence[int]) -> None:
        super().__init__(data.x, data.y, data.batch_size, drop_last=spec.drop_last)
        self.world, self.ranks, self.hook = spec.world, ranks, spec.pre_step_hook
        self.steps = self.n_samples // self.batch_size
        self.tail = 0 if spec.drop_last else self.n_samples % self.batch_size

    def batches(self, perm: np.ndarray, first: int = 0):
        for step in range(first, len(self)):
            batch = perm[step * self.batch_size:(step + 1) * self.batch_size]
            xs, ys = [], []
            for rank in self.ranks:
                if self.hook is not None:
                    self.hook(rank, step)
                lo, hi = chunk_bounds(len(batch), self.world, rank)
                xs.append(self.x[batch[lo:hi]])
                ys.append(None if self.y is None else self.y[batch[lo:hi]])
            yield xs, ys


class _Shares:
    """Driver whose batch is a global batch: ``batch_grads`` runs the step
    body on each of its ``ranks``' shares (:meth:`share_grads`) and
    leaves the arena holding the mean over all ``world`` ranks, loss slot
    included — which is then what ``fit`` unscales, clips and steps on.
    A subclass wraps ``share_grads`` and provides ``exchange(loop)``: sum
    the ranks' arenas, ascending, into the loop's.

    The ragged tail batch is sample-weighted: each rank scales its
    share-mean gradient (and loss) by ``n_r * world / n_tail`` before the
    exchange, so after the usual ``1/world`` the arena is exactly
    ``sum_r (n_r / n_tail) * g_r``.  A rank whose share is empty skips
    compute and contributes zeros; no fabricated sample touches the
    statistics.  Every float in that sequence is identical across
    backends.
    """

    def __init__(self, loop: FitLoop, spec: _TrainSpec, ranks: Sequence[int]) -> None:
        loop.rng.bit_generator.state = spec.rng_state
        loop.loader = _ShareLoader(loop.loader, spec, ranks)
        self.world, self.ranks = spec.world, ranks

    def share_grads(self, loop: FitLoop, body, rank: int, xb, yb, window: int, tail: int) -> None:
        """``rank``'s weighted gradients and loss into the arena; ``tail``
        is the ragged batch's sample count, 0 for a full batch."""
        flat = loop.arena.flat
        if len(xb):
            body(xb, yb, window)
            # A parameter this share's backward did not reach may be
            # reached on a peer: it takes part with a zero gradient.
            loop.arena.bind(zero_unreached=True)
            if tail:
                flat *= len(xb) * self.world / tail
        else:
            flat[:] = 0.0

    def batch_grads(self, loop: FitLoop, body, xs, ys, window: int) -> None:
        flat = loop.arena.flat
        tail = loop.loader.tail if loop.batch == loop.loader.steps else 0
        for rank, xb, yb in zip(self.ranks, xs, ys):
            self.share_grads(loop, body, rank, xb, yb, window, tail)
        self.exchange(loop)
        flat *= 1.0 / self.world
        loop.arena.bind()
        loop.last_loss = float(flat[-1])


def _owned_runs(sizes: Sequence[int], world: int) -> List[Tuple[int, int]]:
    """Each rank's ``[first, end)`` run of whole parameters, balanced by
    element count: the cut between ranks ``r - 1`` and ``r`` is the
    parameter boundary nearest ``r / world`` of the elements (the lower
    one on a tie).  A run may be empty (more ranks than parameters, or
    one parameter holding most of the elements)."""
    ends = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
    cuts = [0]
    for r in range(1, world):
        nearest = int(np.argmin(np.abs(ends * world - ends[-1] * r)))
        cuts.append(max(nearest, cuts[-1]))
    cuts.append(len(sizes))
    return list(zip(cuts[:-1], cuts[1:]))


class _ShardedOptimizer:
    """The optimizer ``fit`` holds on a process rank: ``step`` steps
    ``optimizer_factory(owned)``, an optimizer over the rank's run of whole
    parameters (nothing, for a rank that owns none), and counts in
    ``step_count`` the windows every rank accepted alike.
    ``clip_grad_norm`` and ``zero_grad`` see every parameter: the arena
    holds the whole reduced gradient on every rank, so the clip factor is
    the serial one.
    """

    grad_norm = Optimizer.grad_norm
    clip_grad_norm = Optimizer.clip_grad_norm
    zero_grad = Optimizer.zero_grad

    def __init__(self, params: List, owned: Tuple[int, int], factory: Callable) -> None:
        self.params = params
        first, end = owned
        self._owned_step = factory(params[first:end]).step if end > first else (lambda: None)
        self.step_count = 0

    def step(self) -> None:
        self.step_count += 1
        self._owned_step()


class _Rank(_Shares):
    """One rank process: the tape hook publishes and collects arena
    slices under backward, the exchange waits out the rest, ``fit``'s
    optimizer steps the owned run of the parameters in place — they are
    views of the reducer's weight slab until the run ends — and the
    cursor move after a step waits until every peer has stepped its run."""

    def __init__(self, loop: FitLoop, spec: _TrainSpec, rank: int,
                 reducer: BucketRankReducer) -> None:
        super().__init__(loop, spec, (rank,))
        loop.verbose = loop.verbose and rank == 0
        self.reducer = reducer
        self.sched = _GradBucketScheduler(loop.arena, reducer, overlap=spec.overlap)
        loop.grad_ready = self.sched.grad_ready
        self.params = list(loop.model.parameters())
        loop.opt = _ShardedOptimizer(self.params, spec.owned[rank], spec.optimizer_factory)
        slab, ranges = reducer.weights, flat_ranges(self.params)
        if {p.data.dtype for p in self.params} != {slab.dtype}:
            raise TypeError(f"rank {rank}'s parameters do not match the {slab.dtype} weight slab")
        for p, r in zip(self.params, ranges):  # the parent filled the slab with these values
            p.data = slab[r].reshape(p.data.shape)
        bounds = [r.start for r in ranges] + [ranges[-1].stop]
        self.arena_runs = [[bounds[a], bounds[b]] for a, b in spec.owned]
        self._gathered, self.gather_s = 0, 0.0

    def share_grads(self, loop: FitLoop, body, rank: int, xb, yb, window: int, tail: int) -> None:
        # The tail is weighted after backward, so it has nothing to hide under.
        self.sched.begin_step(loop.global_step, hide=not tail)
        super().share_grads(loop, body, rank, xb, yb, window, tail)

    def exchange(self, loop: FitLoop) -> None:
        self.sched.wait_step()

    def cursor_moved(self, loop: FitLoop) -> None:
        if loop.opt.step_count > self._gathered:
            self._gathered = loop.opt.step_count
            t0 = time.perf_counter()
            self.reducer.gather(loop.global_step - 1)
            self.gather_s += time.perf_counter() - t0
        if loop.finished:
            # Off the slab before fit restores its best weights: a peer may still validate on it.
            for p in self.params:
                p.data = p.data.copy()

    def stats(self, steps: int) -> Dict:
        return {**self.sched.stats(steps), "owned": self.arena_runs,
                "gather_s": float(self.gather_s)}


class _Serial(_Shares):
    """The single-process reference: every rank's share in turn, same
    shards, same schedule, same codec.  What it checks the process
    backend against: a rank's arena is copied to its row *after* backward
    returns, not shipped from the tape hook (so parity also shows every
    hook saw a final gradient); rows combine through
    :func:`reduce_ranks_bucketed`, never a slab; and each rank's share
    runs under that rank's own layer state (dropout stream, BatchNorm
    statistics), as ``world`` replicas would — the model is left with
    rank 0's, which is also what validation sees.  Those layer states are
    the driver's snapshot ``state``: each rank's generators, and every
    rank's buffers back to back.
    """

    def __init__(self, loop: FitLoop, spec: _TrainSpec) -> None:
        super().__init__(loop, spec, range(spec.world))
        self.model = loop.model
        loop.opt = spec.optimizer_factory(list(loop.model.parameters()))
        self.rows = np.empty((spec.world, loop.arena.flat.size), dtype=loop.arena.flat.dtype)
        self.spans, self.wire_dtype = spec.plan.spans, spec.wire_dtype
        self.scratch = WireScratch(spec.world, self.spans, spec.wire_dtype)
        rngs, buffers = self._layer_state()
        self.state = ([rngs] * spec.world, buffers * spec.world)  # replicas start identical

    def _layer_state(self) -> Tuple[Dict, List[np.ndarray]]:
        return self.model.layer_rng_states(), [b.copy() for b in self.model.buffers()]

    def _buffers_of(self, rank: int) -> slice:
        n = len(self.state[1]) // self.world
        return slice(rank * n, (rank + 1) * n)

    def _install(self, rank: int) -> None:
        rngs, buffers = self.state
        self.model.set_layer_rng_states(rngs[rank])
        for dst, src in zip(self.model.buffers(), buffers[self._buffers_of(rank)]):
            dst[...] = src

    def share_grads(self, loop: FitLoop, body, rank: int, xb, yb, window: int, tail: int) -> None:
        self._install(rank)
        super().share_grads(loop, body, rank, xb, yb, window, tail)
        self.rows[rank] = loop.arena.flat
        loop.arena.release()
        rngs, buffers = self.state
        rngs[rank], buffers[self._buffers_of(rank)] = self._layer_state()

    def exchange(self, loop: FitLoop) -> None:
        reduce_ranks_bucketed(list(self.rows), self.spans, self.wire_dtype,
                              out=loop.arena.flat, scratch=self.scratch)
        self._install(0)


def _serial_fit(model: Model, x, y, spec: _TrainSpec) -> History:
    """Every rank in this process, under the :class:`_Serial` driver."""
    loop = FitLoop(model, x, y, **spec.fit_kwargs)
    loop.drivers = (_Serial(loop, spec),)
    return loop.run()


#: What :func:`_init_rank` installed: (model, x, y, spec, allreduce handle).
_RANK: Optional[Tuple] = None


def _init_rank(arrays, model: Model, spec: _TrainSpec, handle: BucketAllreduceHandle) -> None:
    """Pool initializer: the model crosses the boundary once, here."""
    global _RANK
    _RANK = (model, arrays["x"], arrays.get("y"), spec, handle)


def _train_rank(rank: int) -> Optional[Tuple]:
    """The pool's task function, ``rank == slot``: drive ``fit`` on the
    state :func:`_init_rank` installed.  Rank 0 returns (weights,
    history, comm stats); the others None.  A finished run has left the weight slab."""
    model, x, y, spec, handle = _RANK
    reducer = BucketRankReducer(handle, rank, timeout_s=spec.timeout_s)
    try:
        loop = FitLoop(model, x, y, **spec.fit_kwargs)
        driver = _Rank(loop, spec, rank, reducer)
        loop.drivers = (driver,)
        history = loop.run()
    finally:
        reducer.close()
    return (model.get_weights(), history, driver.stats(loop.global_step)) if rank == 0 else None


def fit_data_parallel(
    model: Model,
    x: np.ndarray,
    y: Optional[np.ndarray] = None,
    *,
    world: int = 2,
    backend: str = "process",
    start_method: Optional[str] = None,
    env: Optional[Dict[str, str]] = None,
    timeout_s: float = 600.0,
    wire_dtype: str = "float64",
    bucket_bytes: int = DEFAULT_BUCKET_BYTES,
    overlap: bool = True,
    drop_last: Optional[bool] = None,
    pre_step_hook: Optional[Callable[[int, int], None]] = None,
    optimizer_factory: Optional[Callable] = None,
    **fit_kwargs,
) -> DataParallelResult:
    """Train ``model`` data-parallel on ``world`` ranks; weights (and
    layer buffers) land in ``model``.

    Every keyword not named here is :meth:`Model.fit`'s, with ``fit``'s
    defaults and meaning: ``epochs``, ``batch_size``, ``loss``, ``lr``,
    ``seed``, ``clip_norm``, ``validation_data`` + ``metrics`` +
    ``early_stopping_patience``, ``step_hook`` (runs on every rank),
    ``verbose`` (rank 0 prints), ``precision``.  Three are
    refused, because ranks could not honour them identically:
    ``optimizer=`` (an instance cannot be shared; pass
    ``optimizer_factory(params) -> Optimizer``, default ``Adam(lr=lr)``),
    ``validation_split`` (split before the call) and
    ``grad_accumulation > 1`` when ``world > 1``.

    On the process backend the factory receives only the parameters the
    rank owns (a contiguous run of whole parameters; none, and no call,
    for a rank that owns nothing), the serial backend all of them.  So
    the factory's update may read only each parameter's own gradient and
    state — every optimizer in :mod:`repro.nn.optim` does — and a global
    quantity such as a gradient-norm clip belongs in ``clip_norm``,
    which sees every parameter on every rank.  A rank's ``step_hook``
    runs before it waits for its peers' steps of the shared weights.

    ``batch_size`` is the *global* batch and must be divisible by
    ``world``.  When it does not divide the dataset, ``drop_last=True``
    drops the ragged tail, ``False`` trains on it as one extra
    sample-weighted step per epoch (pad-free and exact: see
    :class:`_Shares`), and the default ``None`` drops it with a
    warning — the silent drop used to be an easy way to lose data.

    ``backend``, ``wire_dtype``, ``bucket_bytes`` and ``overlap`` are
    described in the module docstring.  ``pre_step_hook(rank, step)`` runs
    during share assembly — the place a real pipeline pays its staging
    latency.  ``timeout_s`` bounds the call; a rank that waits longer
    than that for a peer, or whose parent is gone, raises instead of
    polling on.  With ``start_method="spawn"``
    the factory, a loss callable and the hooks must be module-level
    picklables.
    """
    if world < 1:
        raise ValueError("world must be >= 1")
    if backend not in ("process", "serial"):
        raise ValueError(f"unknown backend {backend!r}")
    if wire_dtype not in WIRE_DTYPES:
        raise ValueError(f"unknown wire dtype {wire_dtype!r}; choose from {WIRE_DTYPES}")
    # TypeError, as from ``fit`` itself, on a keyword ``fit`` does not have.
    bound = _FIT_SIGNATURE.bind(model, x, y, **fit_kwargs)
    bound.apply_defaults()
    fit = bound.arguments
    if fit["optimizer"] is not None:
        raise ValueError("optimizer= is one instance and every rank needs its own: "
                         "pass optimizer_factory(params) -> Optimizer")
    if fit["validation_split"]:
        raise ValueError("validation_split would be drawn inside every rank: split the "
                         "data before the call and pass validation_data")
    if fit["grad_accumulation"] > 1 and world > 1:
        raise ValueError("grad_accumulation > 1 with world > 1 is refused: the per-batch "
                         "loss of a window that is not reduced yet is undefined")
    epochs, batch_size = fit["epochs"], fit["batch_size"]
    if batch_size % world != 0:
        raise ValueError(f"batch_size {batch_size} not divisible by world {world}")
    x = np.ascontiguousarray(x)
    y_arr = None if y is None else np.ascontiguousarray(y)
    n = len(x)
    if y_arr is not None and len(y_arr) != n:
        raise ValueError(f"x and y length mismatch: {n} vs {len(y_arr)}")
    steps = n // batch_size
    if steps < 1:
        raise ValueError(f"dataset ({n}) smaller than one global batch ({batch_size})")
    tail = n - steps * batch_size
    if tail and drop_last is None:
        warnings.warn(
            f"batch_size {batch_size} does not divide the dataset ({n}); "
            f"dropping the {tail}-sample ragged tail each epoch. Pass "
            f"drop_last=True to silence this, or drop_last=False to train "
            f"on the tail as a weighted step.",
            UserWarning, stacklevel=2,
        )
    drop_tail = True if drop_last is None else bool(drop_last)
    steps_per_epoch = steps + (1 if (tail and not drop_tail) else 0)

    rng = np.random.default_rng(fit["seed"])
    if not model.built:
        model.build(x.shape[1:], rng)
    if world > 1 and fit["early_stopping_patience"] is not None and any(True for _ in model.buffers()):
        raise ValueError("early stopping with layer buffers and world > 1 is refused: each "
                         "rank's running statistics give it its own validation loss, so "
                         "ranks would stop at different epochs")
    cast_for_fit(model, fit["precision"])  # what the ranks train, and so the slab's dtype
    sizes = [p.data.size for p in model.parameters()]
    spec = _TrainSpec(
        rng_state=rng.bit_generator.state, world=world, fit_kwargs=fit_kwargs,
        optimizer_factory=optimizer_factory or functools.partial(Adam, lr=fit["lr"]),
        owned=_owned_runs(sizes, world), pre_step_hook=pre_step_hook,
        wire_dtype=wire_dtype, plan=plan_buckets(sizes, sum(sizes) + 1, bucket_bytes),
        overlap=overlap, drop_last=drop_tail, timeout_s=timeout_s,
    )

    rec = get_recorder()
    if rec is not None:
        span_id = rec.begin(
            "ddp_fit", kind="ddp.fit", world=world, backend=backend,
            epochs=epochs, steps_per_epoch=steps_per_epoch, batch_size=batch_size,
            wire_dtype=wire_dtype, overlap=bool(overlap),
            data_bytes=x.nbytes + (0 if y_arr is None else y_arr.nbytes),
        )

    t0 = time.perf_counter()
    try:
        if backend == "serial" or world == 1:
            # world==1 process mode would pay the data-plane setup for a
            # pool of one; run it in-process (identical numerics).
            history, stats = _serial_fit(model, x, y_arr, spec), None
        else:
            history, stats = _fit_on_pool(model, x, y_arr, spec, start_method, env)
        elapsed = time.perf_counter() - t0
    except BaseException:
        if rec is not None:
            rec.end(span_id, aborted=True)
        raise

    losses, times = history.series("loss"), history.series("time")
    if rec is not None:
        for i, (dt, lv) in enumerate(zip(times, losses)):
            rec.add_complete("epoch", kind="ddp.epoch", dur_wall=dt, epoch=i, loss=lv)
        if stats is not None:
            itemsize = wire_itemsize(stats["wire_dtype"])
            for b, (span, comm_s) in enumerate(
                zip(stats["bucket_spans"], stats["bucket_comm_s"])
            ):
                rec.add_complete(
                    "bucket", kind="ddp.bucket", dur_wall=comm_s, bucket=b,
                    lo=span[0], hi=span[1], wire_dtype=stats["wire_dtype"],
                    wire_bytes_per_step=(span[1] - span[0]) * itemsize * world,
                )
            rec.metrics.gauge("ddp.overlap_fraction").set(stats["overlap_fraction"])
        rec.end(span_id, elapsed_s=elapsed, final_loss=losses[-1])
    return DataParallelResult(
        world=world, backend=backend, epochs=len(history), steps_per_epoch=steps_per_epoch,
        elapsed_s=elapsed, epoch_losses=losses, epoch_times=times, comm_stats=stats,
        history=history,
    )


def _fit_on_pool(model: Model, x, y, spec: _TrainSpec, start_method: Optional[str],
                 env: Optional[Dict[str, str]]) -> Tuple[History, Dict]:
    """One pool slot per rank, one :func:`_train_rank` task per slot;
    rank 0's weights go into ``model``."""
    store = SharedArrayStore("repro_ddp", {"x": x} if y is None else {"x": x, "y": y})
    try:
        handle = create_bucketed_allreduce(store, spec.world, spec.plan, spec.wire_dtype, weights=(
            np.concatenate([p.data.ravel() for p in model.parameters()])))
    except BaseException:
        store.close()
        raise
    pool = ProcessWorkerPool(
        _train_rank, spec.world, initializer=_init_rank, initargs=(model, spec, handle),
        start_method=start_method, env=env, dedicated_queues=True,
        max_task_retries=0,  # a lost rank loses the fit: its peers hold its gradients
        shared=store,
    )
    try:
        ranks = {pool.submit(rank, slot=rank): rank for rank in range(spec.world)}
        deadline = time.perf_counter() + spec.timeout_s
        payload = None
        for _ in ranks:
            res = pool.next_result(timeout=max(deadline - time.perf_counter(), 0.0))
            rank = ranks[res.task_id]
            if res.status == "err":
                raise RuntimeError(f"rank {rank} failed:\n{res.value}")
            if res.status != "ok":
                raise RuntimeError(f"a data-parallel rank died: rank {rank} ({res.status})")
            if rank == 0:
                payload = res.value
    except BaseException:
        # The surviving ranks are blocked on a peer that will never
        # publish: terminate them now instead of waiting out the join.
        pool.close(join_timeout=0.0)
        raise
    pool.close()
    weights, history, stats = payload
    model.set_weights(weights)
    return history, stats
