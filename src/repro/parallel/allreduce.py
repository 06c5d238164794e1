"""Shared-memory allreduce with a fixed, deterministic reduction order.

The classic ring allreduce is a reduce-scatter (each rank ends up owning
the reduced value of one chunk) followed by an allgather (owners
broadcast their chunks).  On a shared-memory node the rings collapse to
slab reads: every rank writes its contribution into its own input slab,
then each rank *owns* one contiguous chunk of the vector and reduces
that chunk across all ranks — chunk reductions run in parallel, each
element is summed exactly once, and the allgather is a single shared
output slab everyone copies from.  Three barriers sequence the phases
(:class:`RankReducer`).

Determinism is the point: whoever reduces accumulates contributions in
**ascending rank order** (``((g0 + g1) + g2) + ...``), so the floating-
point association is fixed — independent of scheduling, and *identical
to the serial reference* :func:`reduce_ranks`, which sums the same way.
That is what makes process-parallel training bit-identical to the
single-process path (IEEE-754 addition is deterministic; only the
association order had to be pinned).

Two engines share that contract:

* :class:`RankReducer` — the monolithic 3-barrier allreduce (one slab,
  one call per step covering the whole gradient vector); the tests'
  reference engine.
* :class:`BucketRankReducer` — the bucketed engine: **one-sided,
  flag-polled, thread-free**.  The vector is partitioned into
  size-targeted spans (:func:`plan_buckets`, reverse layout order,
  matching the order backward produces gradients).  A rank *publishes*
  a bucket by encoding its slice into its own row of the step-parity
  slab and then storing ``step + 1`` into its cell of a shared
  ``(world, n_buckets)`` sequence array; it never blocks doing so.  A
  rank *collects* a bucket once every rank's cell shows the step, by
  running :func:`accumulate_rows` over the slab rows straight into its
  own gradient vector — no output slab, chunk ownership, copy-out,
  barrier or helper thread.  Contributions cross the slab in a
  selectable **wire dtype** (``float64`` | ``float32`` | ``bf16`` as
  uint16); decoding is exact widening and accumulation is always
  float64 in ascending rank order, so :func:`reduce_ranks_bucketed` —
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
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

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
    """Serial reference reduction: ascending-rank-order sum.

    Bit-identical to what :class:`RankReducer.allreduce` computes —
    element ``i`` is accumulated ``((v0[i] + v1[i]) + v2[i]) + ...`` in
    both — so a single process can replay a parallel run exactly.
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
    """Narrow a float64 contribution into its wire storage, in ``out``.

    ``float32`` is the C cast (round-to-nearest-even); ``bf16`` rounds
    the float32 bit pattern to its upper 16 bits with the same RNE
    trick as :func:`repro.nn.amp.snap_bf16_` and stores them as uint16.
    Every rank (and the serial reference) runs this exact function, so
    the rounding it introduces is part of the pinned float sequence.
    """
    wire_dtype = _check_wire(wire_dtype)
    if wire_dtype == "float64":
        out[...] = src
    elif wire_dtype == "float32":
        out[...] = src.astype(np.float32)
    else:  # bf16
        bits = np.ascontiguousarray(src, dtype=np.float32).view(np.uint32)
        lsb = (bits >> 16) & np.uint32(1)
        bits += np.uint32(0x7FFF) + lsb
        out[...] = (bits >> 16).astype(np.uint16)


def decode_wire(src: np.ndarray, wire_dtype: str, out: np.ndarray) -> None:
    """Widen wire storage back to float64 in ``out`` — exact, no rounding."""
    wire_dtype = _check_wire(wire_dtype)
    if wire_dtype == "bf16":
        out[...] = (src.astype(np.uint32) << np.uint32(16)).view(np.float32)
    else:
        out[...] = src


def accumulate_rows(rows: np.ndarray, wire_dtype: str, out: np.ndarray,
                    dec: Optional[np.ndarray] = None) -> None:
    """Sum the (world, m) wire ``rows`` into float64 ``out``, ascending.

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

    A caller that reduces every step passes ``out`` (float64, full
    length) and ``scratch`` so nothing is allocated per call.
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


class AllreduceHandle:
    """Parent-built, rank-shipped state for one allreduce group.

    Carries the shared slab refs and the barrier.  Passable to
    ``Process(args=...)`` under both fork and spawn (multiprocessing
    synchronisation primitives pickle through process inheritance).
    """

    def __init__(self, world: int, n: int, in_ref, out_ref, barrier) -> None:
        self.world = world
        self.n = n
        self.in_ref = in_ref
        self.out_ref = out_ref
        self.barrier = barrier


def create_allreduce(store: SharedArrayStore, ctx, world: int, n: int) -> AllreduceHandle:
    """Allocate the slabs for a ``world``-rank group reducing ``n`` floats.

    ``store`` owns the segments (parent cleans up); ``ctx`` is the
    multiprocessing context whose Barrier the group synchronises on.
    """
    if world < 1:
        raise ValueError("world must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    store.allocate("allreduce_in", (world, n), np.float64)
    store.allocate("allreduce_out", (n,), np.float64)
    return AllreduceHandle(
        world, n, store.ref("allreduce_in"), store.ref("allreduce_out"),
        ctx.Barrier(world),
    )


class RankReducer:
    """Per-rank endpoint of the shared-memory allreduce.

    Built inside each rank process from the shipped handle.  One
    ``allreduce`` call per step; the result lands in place.
    """

    def __init__(self, handle: AllreduceHandle, rank: int) -> None:
        if not 0 <= rank < handle.world:
            raise ValueError(f"rank {rank} out of range for world {handle.world}")
        self.rank = rank
        self.world = handle.world
        self._barrier = handle.barrier
        self._in_att = AttachedArray(handle.in_ref)
        self._out_att = AttachedArray(handle.out_ref)
        self._in = self._in_att.array  # (world, n)
        self._out = self._out_att.array  # (n,)
        self._lo, self._hi = chunk_bounds(handle.n, handle.world, rank)

    def allreduce(self, vec: np.ndarray, stall_s: float = 0.0) -> None:
        """Sum ``vec`` across all ranks, in place, deterministic order.

        Phases (3 barriers): publish inputs -> owners reduce their chunk
        in ascending rank order -> everyone copies the full result out.
        The trailing barrier keeps a fast rank from republishing step
        ``t+1`` inputs while a slow rank still reads step ``t`` output.

        ``stall_s`` injects a wire-transfer stall *after* the publish
        barrier — the bandwidth term of the alpha-beta collective cost
        model, charged once all ranks have arrived (every rank sleeps it
        concurrently, so it adds ``stall_s`` of wall per call).  Timing
        only; numerics are unchanged.
        """
        if vec.shape != (self._in.shape[1],):
            raise ValueError(f"expected shape ({self._in.shape[1]},), got {vec.shape}")
        if self.world == 1:
            return
        self._in[self.rank, :] = vec
        self._barrier.wait()
        if stall_s > 0.0:
            time.sleep(stall_s)
        lo, hi = self._lo, self._hi
        if hi > lo:
            # One vectorized reduction over the rank axis; same ascending
            # association as the old explicit loop (see accumulate_rows).
            accumulate_rows(self._in[:, lo:hi], "float64", self._out[lo:hi])
        self._barrier.wait()
        vec[:] = self._out
        self._barrier.wait()

    def close(self) -> None:
        self._in = None  # type: ignore[assignment]
        self._out = None  # type: ignore[assignment]
        self._in_att.close()
        self._out_att.close()


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
    slab_refs: list          # [step parity] -> (world, n) wire-storage slab
    seq_ref: SharedArrayRef    # (world, n_buckets) int64: last step published + 1
    stamp_ref: SharedArrayRef  # (2, world, n_buckets) float64: publish times by parity


def create_bucketed_allreduce(store: SharedArrayStore, world: int, plan: BucketPlan,
                              wire_dtype: str = "float64") -> BucketAllreduceHandle:
    """Allocate the double-buffered slabs, zeroed flags and stamps."""
    if world < 1:
        raise ValueError("world must be >= 1")
    storage = _WIRE_STORAGE[_check_wire(wire_dtype)]
    for parity in (0, 1):
        store.allocate(f"bucket_slab{parity}", (world, plan.n), storage)
    store.allocate("bucket_seq", (world, plan.n_buckets), np.int64)[...] = 0
    store.allocate("bucket_stamp", (2, world, plan.n_buckets), np.float64)[...] = 0.0
    return BucketAllreduceHandle(
        world, plan, wire_dtype,
        [store.ref("bucket_slab0"), store.ref("bucket_slab1")],
        store.ref("bucket_seq"), store.ref("bucket_stamp"),
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
    step index, whose parity selects the slab generation.
    ``stall_s_per_mib`` models wire transfer time as an arrival
    deadline: bucket ``b`` arrives ``stall(b)`` after the later of its
    last publish stamp and bucket ``b - 1``'s arrival (one wire, buckets
    in order) and is not ready before; only ``wait`` sleeps for it.
    ``timeout_s`` bounds every wait of this reducer's lifetime.
    """

    def __init__(self, handle: BucketAllreduceHandle, rank: int, *,
                 stall_s_per_mib: float = 0.0, timeout_s: float = 600.0) -> None:
        if not 0 <= rank < handle.world:
            raise ValueError(f"rank {rank} out of range for world {handle.world}")
        self.rank = rank
        self.world = handle.world
        self.plan = handle.plan
        self.wire_dtype = handle.wire_dtype
        self._atts = [AttachedArray(r) for r in
                      (*handle.slab_refs, handle.seq_ref, handle.stamp_ref)]
        self._slabs = [a.array for a in self._atts[:2]]
        self._seq = self._atts[2].array
        self._stamps = self._atts[3].array
        self._dec = WireScratch(self.world, self.plan.spans, self.wire_dtype).dec
        mib = wire_itemsize(self.wire_dtype) / 2**20
        self._stalls = [stall_s_per_mib * (hi - lo) * mib for lo, hi in self.plan.spans]
        self._arrived = 0.0  # arrival time of the last bucket collected
        self._deadline = time.perf_counter() + timeout_s
        self._ppid = os.getppid()

    def publish(self, bucket: int, vec: np.ndarray, step: int) -> None:
        """Encode this rank's slice into the slab, then raise its flag."""
        lo, hi = self.plan.spans[bucket]
        parity = step & 1
        encode_wire(vec[lo:hi], self.wire_dtype, self._slabs[parity][self.rank, lo:hi])
        self._stamps[parity, self.rank, bucket] = time.perf_counter()
        self._seq[self.rank, bucket] = step + 1  # last: the flag covers the stores above

    def _arrival(self, bucket: int, step: int) -> Optional[float]:
        """When the bucket is deliverable, or None while a flag is missing."""
        if self._seq[:, bucket].min() <= step:
            return None
        stall = self._stalls[bucket]
        if stall <= 0.0:
            return 0.0
        sent = float(self._stamps[step & 1, :, bucket].max())
        return (max(sent, self._arrived) if bucket else sent) + stall

    def ready(self, bucket: int, step: int) -> bool:
        """Every rank has published the bucket and its transfer is over."""
        at = self._arrival(bucket, step)
        return at is not None and time.perf_counter() >= at

    def wait(self, bucket: int, step: int) -> None:
        """Block until :meth:`ready`; raise ``RuntimeError`` past the
        deadline or when the parent process is gone."""
        polls = 0
        while (at := self._arrival(bucket, step)) is None:
            polls += 1
            if polls <= _SPIN_POLLS:
                continue
            timed_out = time.perf_counter() > self._deadline
            if timed_out or os.getppid() != self._ppid:
                raise RuntimeError(
                    f"allreduce wait {'timed out' if timed_out else 'lost its parent process'}: "
                    f"rank {self.rank}, bucket {bucket}, step {step}, "
                    f"flags {self._seq[:, bucket].tolist()}")
            time.sleep(min(_SLEEP_MAX_S,
                           (polls - _SPIN_POLLS) // _POLLS_PER_STEP * _SLEEP_STEP_S))
        if at > 0.0:  # every flag is up: sleep out the rest of the modelled transfer
            time.sleep(max(0.0, at - time.perf_counter()))

    def collect(self, bucket: int, vec: np.ndarray, step: int) -> None:
        """Reduce a :meth:`ready` bucket across ranks into ``vec``, in place."""
        lo, hi = self.plan.spans[bucket]
        if self._stalls[bucket] > 0.0:
            self._arrived = self._arrival(bucket, step)
        accumulate_rows(self._slabs[step & 1][:, lo:hi], self.wire_dtype, vec[lo:hi], self._dec)

    def close(self) -> None:
        self._slabs = []
        self._seq = self._stamps = None  # type: ignore[assignment]
        for a in self._atts:
            a.close()
