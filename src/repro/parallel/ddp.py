"""Real data-parallel training: per-rank shards, shared-memory allreduce.

:func:`fit_data_parallel` trains one model on ``world`` ranks.  Each
step, every rank draws the *same* global-batch permutation slice (the
data-order RNG is replicated bit-for-bit into every rank), computes
gradients on its ``batch_size / world`` micro-batch, and the gradients
are averaged through the deterministic shared-memory allreduce of
:mod:`repro.parallel.allreduce`.  All ranks then apply the identical
averaged gradient with identical optimizer state, so replica weights
never diverge — standard DDP, actually running on processes.

Two backends, one contract:

* ``backend="process"`` — real OS processes: one
  :class:`~repro.parallel.pool.ProcessWorkerPool` slot per rank, the
  dataset and the allreduce slabs its shared-memory data plane.
* ``backend="serial"`` — the same algorithm executed by one process
  (rank micro-batches evaluated sequentially, combined with
  :func:`~repro.parallel.allreduce.reduce_ranks_bucketed`).

Because the reduction association order is pinned (ascending rank
order in both backends) the two produce **bit-identical** weights —
the parity the ``ddp_mlp`` workload of ``bench/`` checks inside every
run and ``tests/test_ddp_overlap.py`` pins per wire dtype.  With
``world=1`` the loop degenerates to plain mini-batch SGD and matches
``Model.fit`` exactly (same RNG draw order, provided ``batch_size``
divides the dataset; see ``drop_last`` for the ragged tail).

Gradient communication is one engine.  Parameters are partitioned into
size-targeted buckets in reverse layout order
(:func:`~repro.parallel.allreduce.plan_buckets`; ``bucket_bytes`` at
least the gradient vector's size gives a single whole-vector bucket); a
per-parameter grad-ready tape hook (``Tensor.backward(grad_ready_hook=…)``)
packs each gradient the moment backward finalises it; the hook that
completes a bucket *publishes* it (a slab write and a sequence flag,
never a wait) and *collects* — reduces into the rank's own gradient
vector — every earlier bucket all ranks have published by then, and
``wait_step`` collects the rest.  One thread per rank, no barrier
(protocol and safety argument: :mod:`repro.parallel.allreduce`).
``overlap=False`` publishes only after backward (the ablation
baseline).  ``wire_dtype`` selects the slab format (``float64`` |
``float32`` | ``bf16``); accumulation is always float64 in ascending
rank order, so the serial backend replaying the identical schedule
(:func:`~repro.parallel.allreduce.reduce_ranks_bucketed`) stays
bit-identical at every wire precision.

``pre_step_hook(rank, step)`` runs during micro-batch assembly — the
place a real pipeline pays its staging latency; ``prefetch=True``
overlaps that assembly with compute via
:class:`~repro.parallel.prefetch.PrefetchLoader`.  ``timeout_s`` bounds
the call and every rank's wait for a peer.
"""

from __future__ import annotations

import pickle
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..nn import losses as losses_mod
from ..nn.model import Model
from ..nn.optim import Adam, Optimizer
from ..nn.tensor import Tensor
from ..obs.context import get_recorder
from .allreduce import (
    DEFAULT_BUCKET_BYTES,
    WIRE_DTYPES,
    BucketAllreduceHandle,
    BucketRankReducer,
    WireScratch,
    chunk_bounds,
    create_bucketed_allreduce,
    plan_buckets,
    reduce_ranks_bucketed,
    wire_itemsize,
)
from .pool import ProcessWorkerPool
from .prefetch import PrefetchLoader
from .shm import SharedArrayStore


@dataclass
class DataParallelResult:
    """Outcome of a data-parallel fit (either backend).

    ``comm_stats`` (process backend, rank 0's view) reports what the
    gradient-communication engine actually did: per-bucket spans and
    cumulative busy seconds (publish + collect, which also sum to
    ``total_comm_s``), *exposed* time (blocked after backward in
    ``wait_step`` / ``flush_inline``), the first-publish-to-last-collect
    chain, the derived overlap fraction, and bytes-on-wire per step.
    """

    world: int
    backend: str
    epochs: int
    steps_per_epoch: int
    elapsed_s: float
    epoch_losses: List[float]
    epoch_times: List[float] = field(default_factory=list)
    comm_stats: Optional[Dict] = None

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
    """Everything a rank needs, in one picklable bundle (the model and
    RNG state cross the process boundary once, at rank startup)."""

    model_bytes: bytes
    rng_state: dict
    world: int
    epochs: int
    batch_size: int  # global batch; each rank takes batch_size/world
    loss: object  # name or picklable callable
    lr: float
    optimizer_factory: Optional[Callable]
    shuffle: bool
    pre_step_hook: Optional[Callable[[int, int], None]]
    prefetch: bool
    n_samples: int
    wire_dtype: str = "float64"
    bucket_bytes: int = DEFAULT_BUCKET_BYTES
    overlap: bool = True
    drop_last: bool = True
    timeout_s: float = 600.0  # bounds every allreduce wait inside a rank


def _param_layout(params) -> Tuple[List[Tuple[int, int, Tuple[int, ...]]], int]:
    """(offset, size, shape) per parameter in one flat float64 vector,
    plus the vector length (one trailing slot carries the batch loss)."""
    layout = []
    off = 0
    for p in params:
        layout.append((off, p.data.size, p.data.shape))
        off += p.data.size
    return layout, off + 1


def _grads_into(model, loss_fn, params, layout, xb, yb, out_vec,
                sched: Optional["_GradBucketScheduler"] = None, step: int = 0) -> None:
    """One micro-batch forward/backward; pack grads + loss into out_vec.

    Without a scheduler the gradients are packed after backward returns
    (and the scheduler path packs the *same* floats — each hook reads
    the finalised ``.grad``); with one, every parameter is packed the
    moment the tape finishes it, so completed buckets start
    communicating while backward is still running.  The loss lands in
    the trailing slot before backward — bucket 0 carries it and may
    ship mid-backward.
    """
    for p in params:
        p.grad = None
    target = xb if yb is None else yb
    loss = loss_fn(model.forward(Tensor(xb), training=True), target)
    if sched is not None:
        sched.begin_step(out_vec, step)
        out_vec[-1] = loss.item()
        loss.backward(grad_ready_hook=sched.grad_ready)
        sched.finish_backward()
    else:
        loss.backward()
        for p, (off, size, _) in zip(params, layout):
            if p.grad is None:
                out_vec[off:off + size] = 0.0
            else:
                out_vec[off:off + size] = p.grad.ravel()
        out_vec[-1] = loss.item()


def _apply_combined(params, layout, combined, opt) -> None:
    """Point each param's grad at its slice of the averaged vector and step."""
    for p, (off, size, shape) in zip(params, layout):
        p.grad = combined[off:off + size].reshape(shape)
    opt.step()


class _GradBucketScheduler:
    """Per-rank bucket engine: pack gradients as backward produces them,
    publish completed buckets in pinned schedule order, collect them as
    soon as every rank has — all on the calling thread.

    ``grad_ready`` is handed to ``Tensor.backward(grad_ready_hook=…)``.
    With ``overlap``, the hook that completes the next scheduled bucket
    publishes it (never a wait) and collects whatever earlier buckets
    every peer has published too; ``wait_step`` blocks only for the
    remainder.  Without ``overlap`` nothing leaves the rank before
    backward returns and ``wait_step`` does the whole step.

    Timing: ``total_comm_s`` is busy time (publish + collect) and
    ``bucket_comm_s`` splits exactly that by bucket; ``exposed_wait_s``
    is the time inside ``wait_step`` / ``flush_inline``, i.e. after
    backward, polling included; ``comm_chain_s`` is each step's first
    publish to its last collect.  The overlap fraction is the share of
    that chain which ran under backward, ``1 - exposed / chain``.
    """

    def __init__(self, params, layout, reducer: BucketRankReducer, *,
                 overlap: bool = True) -> None:
        self.plan = reducer.plan
        self._layout = layout
        self._id2idx = {id(p): i for i, p in enumerate(params)}
        self._counts0 = self.plan.param_counts()
        self._reducer = reducer
        self._overlap = overlap
        self.total_comm_s = 0.0
        self.exposed_wait_s = 0.0
        self.comm_chain_s = 0.0
        self.bucket_comm_s = [0.0] * self.plan.n_buckets

    # -- per-step protocol ------------------------------------------------
    def begin_step(self, buf: np.ndarray, step: int) -> None:
        self._buf = buf
        self._step = step
        self._counts = list(self._counts0)  # parameters still missing, per bucket
        self._seen = [False] * len(self._layout)
        self._sent = 0  # buckets published so far this step
        self._got = 0   # buckets collected so far this step

    def grad_ready(self, node) -> None:
        """Tape hook: ``node``'s gradient for this backward is final."""
        idx = self._id2idx.get(id(node))
        if idx is None or self._seen[idx]:
            return
        self._seen[idx] = True
        off, size, _ = self._layout[idx]
        self._buf[off:off + size] = node.grad.ravel()
        self._bucket_down(self.plan.param_bucket[idx])

    def finish_backward(self) -> None:
        """Zero-fill parameters backward never reached; flush their buckets."""
        for idx, seen in enumerate(self._seen):
            if not seen:
                off, size, _ = self._layout[idx]
                self._buf[off:off + size] = 0.0
                self._bucket_down(self.plan.param_bucket[idx])

    def wait_step(self) -> None:
        """Block until every bucket of the step is reduced into ``buf``."""
        t0 = time.perf_counter()
        self._pump(block=True)
        t1 = time.perf_counter()
        self.exposed_wait_s += t1 - t0
        self.comm_chain_s += t1 - self._t_first

    def flush_inline(self, buf: np.ndarray, step: int) -> None:
        """One whole step with no backward to hide under (the ragged-tail
        step): every bucket published, then collected, from ``buf``."""
        self.begin_step(buf, step)
        self.wait_step()

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
    def _bucket_down(self, b: int) -> None:
        self._counts[b] -= 1
        if self._overlap and self._counts[b] == 0:
            self._pump(block=False)

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
        op(b, self._buf, self._step)
        dt = time.perf_counter() - t0
        self.total_comm_s += dt
        self.bucket_comm_s[b] += dt


def _epoch_batches(x, y, perm, steps, batch, micro, ranks, hook):
    """Micro-batch assembly for one epoch, staging hook included.

    Yields one ``(xb, yb)`` per (step, rank) pair in deterministic
    order.  This generator is what ``prefetch=True`` overlaps with
    compute — the gather *and* the staging hook run on the producer
    thread while the consumer computes the previous step.
    """
    for step in range(steps):
        base = step * batch
        for rank in ranks:
            if hook is not None:
                hook(rank, step)
            idx = perm[base + rank * micro: base + (rank + 1) * micro]
            yield x[idx], (None if y is None else y[idx])


def _make_optimizer(spec: _TrainSpec, params) -> Optimizer:
    if spec.optimizer_factory is not None:
        return spec.optimizer_factory(params)
    return Adam(params, lr=spec.lr)


def _restore_rng(state: dict) -> np.random.Generator:
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    return rng


def _epoch_steps(spec: _TrainSpec) -> Tuple[int, int]:
    """(full steps per epoch, ragged-tail sample count or 0)."""
    steps = spec.n_samples // spec.batch_size
    tail = 0 if spec.drop_last else spec.n_samples - steps * spec.batch_size
    return steps, tail


def _tail_grads(model, loss_fn, params, layout, x, y, perm, steps, spec,
                rank, out_vec, hook) -> None:
    """One rank's share of the ragged tail batch, pre-weighted.

    The tail (``n_tail < batch_size`` samples) is split across ranks by
    :func:`chunk_bounds` — pad-free, so no fabricated samples touch the
    statistics.  Each rank scales its micro-batch-mean gradient (and
    loss) by ``n_r * world / n_tail`` before the allreduce; after the
    usual ``1/world`` the combined vector is exactly the sample-weighted
    tail-batch average ``sum_r (n_r / n_tail) * g_r``.  A rank whose
    share is empty skips compute and contributes zeros.  Every float in
    that sequence is identical across backends.
    """
    if hook is not None:
        hook(rank, steps)
    tail = spec.n_samples - steps * spec.batch_size
    lo, hi = chunk_bounds(tail, spec.world, rank)
    if hi > lo:
        idx = perm[steps * spec.batch_size + lo: steps * spec.batch_size + hi]
        _grads_into(model, loss_fn, params, layout,
                    x[idx], None if y is None else y[idx], out_vec)
        out_vec *= (hi - lo) * spec.world / tail
    else:
        out_vec[:] = 0.0


#: Rank-process state, installed once per worker by :func:`_init_rank`:
#: (model, x, y, spec, allreduce handle).
_RANK: Optional[Tuple] = None


def _init_rank(arrays, spec: _TrainSpec, handle: BucketAllreduceHandle) -> None:
    """Pool initializer: the model crosses the boundary once, here."""
    global _RANK
    _RANK = (pickle.loads(spec.model_bytes), arrays["x"], arrays.get("y"), spec, handle)


def _train_rank(rank: int) -> Optional[Tuple]:
    """The pool's task function, ``rank == slot``: run the rank loop on
    the state :func:`_init_rank` installed.  Rank 0 returns (weights,
    epoch mean losses, epoch wall times, comm stats); the others None."""
    model, x, y, spec, handle = _RANK
    reducer = BucketRankReducer(handle, rank, timeout_s=spec.timeout_s)
    try:
        losses, times, stats = _rank_loop(model, x, y, spec, rank, reducer)
    finally:
        reducer.close()
    return (model.get_weights(), losses, times, stats) if rank == 0 else None


def _rank_loop(model, x, y, spec: _TrainSpec, rank: int,
               reducer: BucketRankReducer) -> Tuple[List[float], List[float], Dict]:
    """The per-rank training loop (process backend).

    Returns (epoch mean losses, epoch wall times, comm stats).  The
    combined gradient is ``(sum over ranks in ascending order) *
    (1/world)`` — the exact float sequence the serial backend replays.
    """
    params = list(model.parameters())
    loss_fn = losses_mod.get(spec.loss) if isinstance(spec.loss, str) else spec.loss
    opt = _make_optimizer(spec, params)
    rng = _restore_rng(spec.rng_state)
    layout, total = _param_layout(params)
    buf = np.empty(total, dtype=np.float64)
    micro = spec.batch_size // spec.world
    steps, tail = _epoch_steps(spec)
    inv_world = 1.0 / spec.world
    sched = _GradBucketScheduler(params, layout, reducer, overlap=spec.overlap)
    step_no = 0
    epoch_losses: List[float] = []
    epoch_times: List[float] = []
    for _ in range(spec.epochs):
        t0 = time.perf_counter()
        perm = rng.permutation(spec.n_samples) if spec.shuffle else np.arange(spec.n_samples)
        batches = _epoch_batches(
            x, y, perm, steps, spec.batch_size, micro, (rank,), spec.pre_step_hook
        )
        if spec.prefetch:
            batches = iter(PrefetchLoader(batches))
        loss_sum = 0.0
        for xb, yb in batches:
            _grads_into(model, loss_fn, params, layout, xb, yb, buf,
                        sched=sched, step=step_no)
            sched.wait_step()
            buf *= inv_world
            _apply_combined(params, layout, buf, opt)
            loss_sum += buf[-1]
            step_no += 1
        if tail:
            _tail_grads(model, loss_fn, params, layout, x, y, perm, steps,
                        spec, rank, buf, spec.pre_step_hook)
            sched.flush_inline(buf, step_no)
            buf *= inv_world
            _apply_combined(params, layout, buf, opt)
            loss_sum += buf[-1]
            step_no += 1
        epoch_losses.append(loss_sum / max(steps + (1 if tail else 0), 1))
        epoch_times.append(time.perf_counter() - t0)
    return epoch_losses, epoch_times, sched.stats(step_no)


def _train_serial(model, x, y, spec: _TrainSpec) -> Tuple[List[float], List[float], Optional[Dict]]:
    """Single-process reference: same shards, same schedule, same codec.

    Ranks combine through :func:`reduce_ranks_bucketed` — the identical
    encode/decode and ascending accumulation the process engine
    performs on the slabs.
    Gradients are packed after backward, not from the tape hook: the
    same floats, so parity with the process backend also checks that
    every hook saw a final gradient.
    """
    params = list(model.parameters())
    loss_fn = losses_mod.get(spec.loss) if isinstance(spec.loss, str) else spec.loss
    opt = _make_optimizer(spec, params)
    rng = _restore_rng(spec.rng_state)
    layout, total = _param_layout(params)
    world = spec.world
    rank_vecs = np.empty((world, total), dtype=np.float64)
    micro = spec.batch_size // world
    steps, tail = _epoch_steps(spec)
    inv_world = 1.0 / world
    spans = plan_buckets([sz for _, sz, _ in layout], total, spec.bucket_bytes).spans
    combined_buf = np.empty(total, dtype=np.float64)
    scratch = WireScratch(world, spans, spec.wire_dtype)

    def combine() -> np.ndarray:
        return reduce_ranks_bucketed(list(rank_vecs), spans, spec.wire_dtype,
                                     out=combined_buf, scratch=scratch)

    epoch_losses: List[float] = []
    epoch_times: List[float] = []
    for _ in range(spec.epochs):
        t0 = time.perf_counter()
        perm = rng.permutation(spec.n_samples) if spec.shuffle else np.arange(spec.n_samples)
        batches = _epoch_batches(
            x, y, perm, steps, spec.batch_size, micro, range(world), spec.pre_step_hook
        )
        if spec.prefetch:
            batches = iter(PrefetchLoader(batches))
        loss_sum = 0.0
        for _step in range(steps):
            for r in range(world):
                xb, yb = next(batches)
                _grads_into(model, loss_fn, params, layout, xb, yb, rank_vecs[r])
            combined = combine()
            combined *= inv_world
            _apply_combined(params, layout, combined, opt)
            loss_sum += combined[-1]
        if tail:
            for r in range(world):
                _tail_grads(model, loss_fn, params, layout, x, y, perm, steps,
                            spec, r, rank_vecs[r], spec.pre_step_hook)
            combined = combine()
            combined *= inv_world
            _apply_combined(params, layout, combined, opt)
            loss_sum += combined[-1]
        epoch_losses.append(loss_sum / max(steps + (1 if tail else 0), 1))
        epoch_times.append(time.perf_counter() - t0)
    return epoch_losses, epoch_times, None


def fit_data_parallel(
    model: Model,
    x: np.ndarray,
    y: Optional[np.ndarray] = None,
    *,
    world: int = 2,
    epochs: int = 5,
    batch_size: int = 32,
    loss="mse",
    lr: float = 1e-3,
    optimizer_factory: Optional[Callable] = None,
    seed: int = 0,
    shuffle: bool = True,
    backend: str = "process",
    start_method: Optional[str] = None,
    pre_step_hook: Optional[Callable[[int, int], None]] = None,
    prefetch: bool = False,
    env: Optional[Dict[str, str]] = None,
    timeout_s: float = 600.0,
    wire_dtype: str = "float64",
    bucket_bytes: int = DEFAULT_BUCKET_BYTES,
    overlap: bool = True,
    drop_last: Optional[bool] = None,
) -> DataParallelResult:
    """Train ``model`` data-parallel on ``world`` ranks; weights land in
    ``model``.

    ``batch_size`` is the *global* batch and must be divisible by
    ``world``.  When it does not divide the dataset, ``drop_last``
    decides the ragged tail's fate: ``True`` drops it (every rank
    always holds an equal micro-batch), ``False`` trains on it as one
    extra sample-weighted step per epoch (pad-free: each rank takes its
    :func:`~repro.parallel.allreduce.chunk_bounds` share and pre-scales
    by ``n_r * world / n_tail``, so the averaged gradient is exact and
    deterministic).  The default ``None`` behaves like ``True`` but
    warns — the silent drop used to be an easy way to lose data.

    ``backend="process"`` runs real rank processes over the shared-
    memory data plane; ``backend="serial"`` executes the identical
    algorithm in-process.  Both produce bit-identical weights (the
    allreduce association order is pinned), which is the testable
    definition of "the parallel path does not change the numerics".

    ``wire_dtype``/``bucket_bytes``/``overlap`` shape the gradient
    exchange (see the module docstring); a ``bucket_bytes`` at least
    the gradient vector's size is a single whole-vector allreduce.
    ``timeout_s`` bounds the call; a rank that waits longer than that
    for a peer, or whose parent is gone, raises instead of polling on.

    ``optimizer_factory(params) -> Optimizer`` builds each rank's local
    optimizer (default: ``Adam(lr=lr)``); with ``start_method="spawn"``
    it, the loss callable, and ``pre_step_hook`` must be module-level
    picklables.
    """
    if world < 1:
        raise ValueError("world must be >= 1")
    if backend not in ("process", "serial"):
        raise ValueError(f"unknown backend {backend!r}")
    if wire_dtype not in WIRE_DTYPES:
        raise ValueError(f"unknown wire dtype {wire_dtype!r}; choose from {WIRE_DTYPES}")
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

    rng = np.random.default_rng(seed)
    if not model.built:
        model.build(x.shape[1:], rng)
    params = list(model.parameters())
    layout, total = _param_layout(params)

    spec = _TrainSpec(
        model_bytes=pickle.dumps(model),
        rng_state=rng.bit_generator.state,
        world=world, epochs=epochs, batch_size=batch_size, loss=loss, lr=lr,
        optimizer_factory=optimizer_factory, shuffle=shuffle,
        pre_step_hook=pre_step_hook, prefetch=prefetch, n_samples=n,
        wire_dtype=wire_dtype, bucket_bytes=bucket_bytes, overlap=overlap,
        drop_last=drop_tail, timeout_s=timeout_s,
    )

    rec = get_recorder()
    span_id = None
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
            losses, times, stats = _train_serial(model, x, y_arr, spec)
        else:
            losses, times, stats = _fit_on_pool(
                model, x, y_arr, spec, layout, total, start_method, env, timeout_s
            )
        elapsed = time.perf_counter() - t0
    except BaseException:
        if rec is not None:
            rec.end(span_id, aborted=True)
        raise

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
        world=world, backend=backend, epochs=epochs, steps_per_epoch=steps_per_epoch,
        elapsed_s=elapsed, epoch_losses=losses, epoch_times=times, comm_stats=stats,
    )


def _fit_on_pool(model, x, y, spec: _TrainSpec, layout, vec_len: int,
                 start_method: Optional[str], env: Optional[Dict[str, str]],
                 timeout_s: float) -> Tuple[List[float], List[float], Optional[Dict]]:
    """One pool slot per rank, one :func:`_train_rank` task per slot."""
    store = SharedArrayStore("repro_ddp", {"x": x} if y is None else {"x": x, "y": y})
    try:
        plan = plan_buckets([sz for _, sz, _ in layout], vec_len, spec.bucket_bytes)
        handle = create_bucketed_allreduce(store, spec.world, plan, spec.wire_dtype)
    except BaseException:
        store.close()
        raise
    pool = ProcessWorkerPool(
        _train_rank, spec.world, initializer=_init_rank, initargs=(spec, handle),
        start_method=start_method, env=env, dedicated_queues=True,
        max_task_retries=0,  # a lost rank loses the fit: its peers hold its gradients
        shared=store,
    )
    try:
        ranks = {pool.submit(rank, slot=rank): rank for rank in range(spec.world)}
        deadline = time.perf_counter() + timeout_s
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
    weights, losses, times, stats = payload
    model.set_weights(weights)
    return losses, times, stats
