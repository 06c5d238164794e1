"""Shared-memory allreduce with a fixed, deterministic reduction order.

On a shared-memory node the rings of a ring allreduce collapse to slab
reads: every rank writes its contribution into its own row of a shared
slab, and every rank reduces the rows it needs straight into its own
gradient vector (:class:`BucketRankReducer`).

Determinism is the point: whoever reduces accumulates contributions in
**ascending rank order** (``((g0 + g1) + g2) + ...``), so the floating-
point association is fixed — independent of scheduling, and *identical
to the serial reference* :func:`reduce_ranks`, which sums the same way.
That is what makes process-parallel training bit-identical to the
single-process path (IEEE-754 addition is deterministic; only the
association order had to be pinned).

The engine, :class:`BucketRankReducer`, is **one-sided, flag-polled and
thread-free**.  The vector is partitioned into size-targeted spans
(:func:`plan_buckets`, reverse layout order, matching the order
backward produces gradients; a ``bucket_bytes`` at least the vector's
size gives one bucket, i.e. a single whole-vector allreduce).  A rank
*publishes* a bucket by encoding its slice into its own row of the
step-parity slab and then storing ``step + 1`` into its cell of a shared
``(world, n_buckets)`` sequence array; it never blocks doing so.  A
rank *collects* a bucket once every rank's cell shows the step, by
running :func:`accumulate_rows` over the slab rows straight into its
own gradient vector — no output slab, chunk ownership, copy-out,
barrier or helper thread.  Contributions cross the slab in a
selectable **wire dtype** (``float64`` | ``float32`` | ``bf16`` as
uint16); decoding is exact widening and accumulation is in ascending
rank order in the vector's own dtype, so :func:`reduce_ranks_bucketed` —
the serial reference with the same codec and schedule — is
bit-identical at every wire precision.

Why that is safe without barriers:

* *Slab before flag.*  ``publish`` issues the slab stores (one NumPy
  copy) and then the flag store (one aligned 8-byte write) from one
  thread in program order; a collector loads the flag before the rows.
  x86-64 keeps stores in order and loads in order, so whoever sees the
  flag sees the rows.  On weaker memory models the order rests on the
  interpreter work between the two NumPy calls, which is no
  architectural guarantee: the bit-parity tests are the gate for a port.
* *Generation reuse.*  Steps ``t`` and ``t + 2`` share a slab.  A rank
  overwrites its step-``t`` row only when it publishes step ``t + 2``,
  which program order puts after it finished step ``t + 1``, i.e. after
  it saw every peer's step-``t + 1`` flag for every bucket — and a peer
  raises a step-``t + 1`` flag only after its last read of the
  step-``t`` rows.  So every read of a row precedes the write that
  replaces it.  Flags only grow, hence the ``>`` readiness test; a peer
  can be one step ahead, never two.

The same flags carry one more exchange: the **weight all-gather** after
a sharded optimizer step (:mod:`repro.parallel.ddp`).  Every rank's
parameters are views of one shared ``weights`` slab in their dtype, and
each rank's optimizer steps its own run of it in place, so
:meth:`BucketRankReducer.gather` only raises the rank's cell of one
extra flag column and waits for every cell to show the step.

* *One generation is enough.*  A rank reads no weight after its last
  gradient publish of a step: the ``grad_ready`` hook publishes the last
  bucket once every gradient is final, i.e. after backward's last read
  of a weight, and the tail step publishes after backward.  A peer steps
  its run in place only after it collected that publish.  So every read
  of the step's weights (epoch-end validation included) precedes the
  write that replaces them, and the wait is the only synchronisation.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..nn.amp import snap_bf16
from .shm import AttachedArray, SharedArrayRef, SharedArrayStore

#: Selectable wire formats for bucketed gradient exchange.  Encoding is
#: round-to-nearest-even narrowing; decoding is exact widening back to
#: float64, so the only precision loss is the publish-side rounding —
#: identical on every rank and in the serial reference.
WIRE_DTYPES = ("float64", "float32", "bf16")

_WIRE_STORAGE = {
    "float64": np.float64,
    "float32": np.float32,
    "bf16": np.uint16,  # bf16 payload carried as raw upper-half bits
}


def reduce_ranks(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Explicit-loop reference reduction: ascending-rank-order sum.

    Element ``i`` is accumulated ``((v0[i] + v1[i]) + v2[i]) + ...`` —
    the association :func:`accumulate_rows` must reproduce bit for bit
    (``tests/test_ddp_overlap.py`` compares the two).
    """
    if not vectors:
        raise ValueError("reduce_ranks needs at least one vector")
    acc = vectors[0].astype(np.float64, copy=True)
    for v in vectors[1:]:
        acc += v
    return acc


def chunk_bounds(n: int, world: int, rank: int) -> tuple:
    """[lo, hi) of the chunk ``rank`` owns; same split as np.array_split."""
    base, extra = divmod(n, world)
    lo = rank * base + min(rank, extra)
    hi = lo + base + (1 if rank < extra else 0)
    return lo, hi


# ----------------------------------------------------------------------
# Wire codecs
# ----------------------------------------------------------------------
def wire_itemsize(wire_dtype: str) -> int:
    """Bytes per element the given wire format puts on the slab."""
    return np.dtype(_WIRE_STORAGE[_check_wire(wire_dtype)]).itemsize


def _check_wire(wire_dtype: str) -> str:
    if wire_dtype not in _WIRE_STORAGE:
        raise ValueError(f"unknown wire dtype {wire_dtype!r}; choose from {WIRE_DTYPES}")
    return wire_dtype


def encode_wire(src: np.ndarray, wire_dtype: str, out: np.ndarray) -> None:
    """Narrow a float contribution into its wire storage, in ``out``.

    ``float32`` is the C cast (round-to-nearest-even); ``bf16`` is the
    bf16 grid's snap (:func:`repro.nn.amp.snap_bf16`, a copy) with the
    upper 16 bits of each float32 pattern stored as uint16.  Every rank
    (and the serial reference) runs this exact function, so the
    rounding it introduces is part of the pinned float sequence.
    """
    wire_dtype = _check_wire(wire_dtype)
    if wire_dtype == "float64":
        out[...] = src
    elif wire_dtype == "float32":
        out[...] = src.astype(np.float32)
    else:  # bf16
        out[...] = snap_bf16(src).view(np.uint32) >> 16


def decode_wire(src: np.ndarray, wire_dtype: str, out: np.ndarray) -> None:
    """Widen wire storage back to float64 in ``out`` — exact, no rounding."""
    wire_dtype = _check_wire(wire_dtype)
    if wire_dtype == "bf16":
        out[...] = (src.astype(np.uint32) << np.uint32(16)).view(np.float32)
    else:
        out[...] = src


def accumulate_rows(rows: np.ndarray, wire_dtype: str, out: np.ndarray,
                    dec: Optional[np.ndarray] = None) -> None:
    """Sum the (world, m) wire ``rows`` into ``out``, ascending, in
    ``out``'s dtype (float64, or a reduced-precision fit's float32 arena).

    The accumulation itself is ``np.add.reduce`` over the rank axis —
    a reduction over the *outer* (strided) axis of a C-order array,
    which NumPy performs as sequential row adds in index order (pairwise
    summation applies only to contiguous inner-axis reductions), i.e.
    the same ``((g0 + g1) + g2) + ...`` association as the explicit
    loop in :func:`reduce_ranks`.  ``tests/test_ddp_overlap.py`` pins
    that bit-parity as a regression gate.

    ``dec`` is caller-owned decode scratch for the reduced-precision
    wires (flat float64, at least ``rows.size`` elements; see
    :class:`WireScratch`); without it one is allocated per call.
    """
    if wire_dtype == "float64":
        np.add.reduce(rows, axis=0, out=out)
        return
    if dec is None:
        dec = np.empty(rows.size, dtype=np.float64)
    dec = dec[:rows.size].reshape(rows.shape)
    decode_wire(rows, wire_dtype, dec)
    np.add.reduce(dec, axis=0, out=out)


class WireScratch:
    """Caller-owned staging for bucketed reductions over one plan: the
    wire-format rows of the widest span and (reduced-precision wires
    only) their float64 decode.  Flat buffers, so every span's
    ``(world, m)`` block is a C-contiguous prefix view.  Allocate once
    per serial fit / per reducer instead of per bucket per step."""

    def __init__(self, world: int, spans: Sequence[Tuple[int, int]], wire_dtype: str) -> None:
        widest = max(hi - lo for lo, hi in spans)
        self.rows = np.empty(world * widest, dtype=_WIRE_STORAGE[_check_wire(wire_dtype)])
        self.dec = None if wire_dtype == "float64" else np.empty(world * widest)


def reduce_ranks_bucketed(
    vectors: Sequence[np.ndarray],
    spans: Sequence[Tuple[int, int]],
    wire_dtype: str = "float64",
    out: Optional[np.ndarray] = None,
    scratch: Optional[WireScratch] = None,
) -> np.ndarray:
    """Serial reference for the bucketed engine: same schedule, same codec.

    Each span is encoded to the wire format per rank, decoded back, and
    accumulated in ascending rank order — exactly the float sequence
    :class:`BucketRankReducer` produces, so a single process can replay
    a bucketed parallel run bit-for-bit.  With one rank the exchange is
    skipped entirely (both engines do), so no codec rounding applies.

    A caller that reduces every step passes ``out`` (full length) and
    ``scratch`` so nothing is allocated per call.
    """
    if not vectors:
        raise ValueError("reduce_ranks_bucketed needs at least one vector")
    _check_wire(wire_dtype)
    world = len(vectors)
    n = vectors[0].shape[0]
    if out is None:
        out = np.empty(n, dtype=np.float64)
    if world == 1:
        out[...] = vectors[0]
        return out
    if sum(hi - lo for lo, hi in spans) != n:
        raise ValueError("bucket spans must tile the whole vector")
    if scratch is None:
        scratch = WireScratch(world, spans, wire_dtype)
    for lo, hi in spans:
        rows = scratch.rows[:world * (hi - lo)].reshape(world, hi - lo)
        for r, v in enumerate(vectors):
            encode_wire(v[lo:hi], wire_dtype, rows[r])
        accumulate_rows(rows, wire_dtype, out[lo:hi], scratch.dec)
    return out


# ----------------------------------------------------------------------
# Bucketed, double-buffered engine
# ----------------------------------------------------------------------
#: Default bucket size budget, in bytes of the *logical* float64 gradient
#: vector.  Bucketing on logical size (not wire size) keeps the schedule
#: identical across wire dtypes, so wire-format ablations compare the
#: same bucket structure.
DEFAULT_BUCKET_BYTES = 1 << 16


@dataclass
class BucketPlan:
    """How one flat gradient vector is partitioned into comm buckets.

    ``spans`` are contiguous ``[lo, hi)`` ranges in **schedule order** —
    bucket 0 covers the tail of the vector (the last parameters in
    layout order, whose gradients backward produces first, plus any
    trailing extra slots such as the DDP loss scalar) and later buckets
    walk toward the head.  ``param_bucket[i]`` is the bucket of the
    ``i``-th layout parameter.  Together they let a scheduler know, per
    parameter, which bucket to count down and, per bucket, which slice
    of the vector to ship.
    """

    spans: List[Tuple[int, int]]
    param_bucket: List[int]
    n: int

    @property
    def n_buckets(self) -> int:
        return len(self.spans)

    def param_counts(self) -> List[int]:
        """Parameters per bucket (the scheduler's countdown seeds)."""
        counts = [0] * self.n_buckets
        for b in self.param_bucket:
            counts[b] += 1
        return counts

    def wire_bytes(self, wire_dtype: str) -> int:
        """Bytes one rank publishes per step at the given wire format."""
        return self.n * wire_itemsize(wire_dtype)


def plan_buckets(
    sizes: Sequence[int],
    total: int,
    bucket_bytes: int = DEFAULT_BUCKET_BYTES,
) -> BucketPlan:
    """Partition a flat vector of ``total`` float64 slots into buckets.

    ``sizes`` are the per-parameter element counts in layout order
    (their offsets are the running prefix sums); slots past the last
    parameter (e.g. the loss scalar the DDP layout appends) ride in
    bucket 0.  Parameters are walked in *reverse* layout order —
    matching the order backward finishes them — and greedily grouped
    until a bucket reaches ``bucket_bytes`` of float64 payload.  A
    parameter is never split, so every bucket is one contiguous span.
    """
    if total < 1:
        raise ValueError("total must be >= 1")
    if sum(sizes) > total:
        raise ValueError("parameter sizes exceed the vector length")
    if bucket_bytes < 8:
        raise ValueError("bucket_bytes must be at least one float64")
    offsets = []
    off = 0
    for s in sizes:
        offsets.append(off)
        off += s
    budget = bucket_bytes // 8
    spans: List[Tuple[int, int]] = []
    param_bucket = [0] * len(sizes)
    hi = total  # current bucket's open upper edge
    elems = total - off  # trailing extra slots seed bucket 0
    for i in reversed(range(len(sizes))):
        param_bucket[i] = len(spans)
        elems += sizes[i]
        if elems >= budget and i > 0:
            spans.append((offsets[i], hi))
            hi = offsets[i]
            elems = 0
    if hi > 0 or not spans:
        spans.append((0, hi))
    return BucketPlan(spans, param_bucket, total)


@dataclass
class BucketAllreduceHandle:
    """Parent-built, rank-shipped state for one bucketed allreduce group.
    Plain picklable data: no synchronisation primitive crosses the
    process boundary."""

    world: int
    plan: BucketPlan
    wire_dtype: str
    slab_refs: list              # [step parity] -> (world, n) wire-storage slab
    seq_ref: SharedArrayRef      # (world, n_buckets + 1) int64: last step published + 1
    weights_ref: SharedArrayRef  # the ranks' parameters, back to back, in their dtype


def create_bucketed_allreduce(store: SharedArrayStore, world: int, plan: BucketPlan,
                              wire_dtype: str = "float64", *,
                              weights: np.ndarray) -> BucketAllreduceHandle:
    """Allocate the double-buffered slabs and the zeroed flags (one column
    per bucket, then the gather's); publish ``weights`` as the weight slab."""
    if world < 1:
        raise ValueError("world must be >= 1")
    storage = _WIRE_STORAGE[_check_wire(wire_dtype)]
    for parity in (0, 1):
        store.allocate(f"bucket_slab{parity}", (world, plan.n), storage)
    store.allocate("bucket_seq", (world, plan.n_buckets + 1), np.int64)[...] = 0
    store.publish("gather_slab", weights)
    return BucketAllreduceHandle(
        world, plan, wire_dtype,
        [store.ref("bucket_slab0"), store.ref("bucket_slab1")],
        store.ref("bucket_seq"), store.ref("gather_slab"),
    )


#: Back-off of a blocked :meth:`BucketRankReducer.wait`: polls that stay
#: on the core, then sleeps that start at ``sleep(0)`` and grow by one
#: step every ``_POLLS_PER_STEP`` polls up to ``_SLEEP_MAX_S``.  The spin is
#: short: with more ranks than cores a waiter's peer needs this core.
_SPIN_POLLS = 200
_POLLS_PER_STEP = 50
_SLEEP_STEP_S = 50e-6
_SLEEP_MAX_S = 1e-3


class BucketRankReducer:
    """Per-rank endpoint of the one-sided bucketed allreduce.

    ``publish`` ships one bucket's slice of ``vec`` and returns at once;
    ``collect`` reduces a bucket every rank has published into ``vec``
    in place; ``ready`` is the non-blocking test, ``wait`` the blocking
    one.  Callers issue buckets in schedule order and pass the global
    step index, whose parity selects the slab generation.  ``weights``
    is the shared weight slab and ``gather`` its all-gather, whose flag
    is column ``plan.n_buckets``.  ``timeout_s`` bounds every wait of
    this reducer's lifetime.
    """

    def __init__(self, handle: BucketAllreduceHandle, rank: int, *,
                 timeout_s: float = 600.0) -> None:
        if not 0 <= rank < handle.world:
            raise ValueError(f"rank {rank} out of range for world {handle.world}")
        self.rank = rank
        self.world = handle.world
        self.plan = handle.plan
        self.wire_dtype = handle.wire_dtype
        self._atts = [AttachedArray(r) for r in (*handle.slab_refs, handle.seq_ref, handle.weights_ref)]
        self._slabs = [a.array for a in self._atts[:2]]
        self._seq = self._atts[2].array
        self.weights = self._atts[3].array
        self._dec = WireScratch(self.world, self.plan.spans, self.wire_dtype).dec
        self._deadline = time.perf_counter() + timeout_s
        self._ppid = os.getppid()

    def publish(self, bucket: int, vec: np.ndarray, step: int) -> None:
        """Encode this rank's slice into the slab, then raise its flag."""
        lo, hi = self.plan.spans[bucket]
        encode_wire(vec[lo:hi], self.wire_dtype, self._slabs[step & 1][self.rank, lo:hi])
        self._seq[self.rank, bucket] = step + 1  # last: the flag covers the stores above

    def ready(self, bucket: int, step: int) -> bool:
        """Every rank has published the bucket."""
        return self._seq[:, bucket].min() > step

    def wait(self, bucket: int, step: int) -> None:
        """Block until :meth:`ready`; raise ``RuntimeError`` past the
        deadline or when the parent process is gone."""
        polls = 0
        while not self.ready(bucket, step):
            polls += 1
            if polls <= _SPIN_POLLS:
                continue
            timed_out = time.perf_counter() > self._deadline
            if timed_out or os.getppid() != self._ppid:
                what = "weight gather" if bucket == self.plan.n_buckets else f"bucket {bucket}"
                raise RuntimeError(
                    f"allreduce wait {'timed out' if timed_out else 'lost its parent process'}: "
                    f"rank {self.rank}, {what}, step {step}, "
                    f"flags {self._seq[:, bucket].tolist()}")
            time.sleep(min(_SLEEP_MAX_S,
                           (polls - _SPIN_POLLS) // _POLLS_PER_STEP * _SLEEP_STEP_S))

    def collect(self, bucket: int, vec: np.ndarray, step: int) -> None:
        """Reduce a :meth:`ready` bucket across ranks into ``vec``, in place."""
        lo, hi = self.plan.spans[bucket]
        accumulate_rows(self._slabs[step & 1][:, lo:hi], self.wire_dtype, vec[lo:hi], self._dec)

    def gather(self, step: int) -> None:
        """This rank's run of :attr:`weights` is stepped in place for step
        ``step``: raise its gather flag, then wait until every rank's is up."""
        self._seq[self.rank, -1] = step + 1  # the flag covers the run written before it
        self.wait(self.plan.n_buckets, step)

    def close(self) -> None:
        self._slabs = []
        self._seq = self.weights = None  # type: ignore[assignment]
        for a in self._atts:
            a.close()
