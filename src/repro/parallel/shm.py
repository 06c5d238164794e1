"""Shared-memory data plane: publish dataset arrays once, attach zero-copy.

The simulated schedulers never move data; a *real* process-parallel run
must, and naively that means re-pickling the training set into every
worker for every trial — exactly the data-staging overhead the keynote
warns about.  This module is the fix: the parent publishes each array
into a POSIX shared-memory segment once (:class:`SharedArrayStore`),
ships only a tiny picklable :class:`SharedArrayRef` (name/shape/dtype)
to workers, and each worker attaches a zero-copy NumPy view
(:func:`attach`).  A 100 MB training set costs 100 MB total, not
100 MB x workers x trials.

Lifecycle: the *publishing* process owns the segments and unlinks them
in :meth:`SharedArrayStore.close` (or at context exit); a store handed
to a :class:`~repro.parallel.pool.ProcessWorkerPool` (``shared=``) is
closed by the pool, which is also what attaches it in every worker.
Attaching processes only close their mapping.  Either side unmaps a
segment only once the last NumPy view of it is gone.  When the attacher runs a
*private* resource tracker (spawn children), attach unregisters the
segment from it — otherwise the tracker of the first worker to exit
unlinks segments the parent still owns (the long-standing CPython gotcha
for cross-process shared memory).  Fork children share the publisher's
tracker and must leave it alone.
"""

from __future__ import annotations

import secrets
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class SharedArrayRef:
    """Picklable handle to a published array: everything a worker needs
    to attach, and nothing else (a few dozen bytes on the wire)."""

    shm_name: str
    shape: Tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


# Per-pid latch: True when this process inherited an already-running
# resource tracker (fork child, or the publishing parent itself).  Such
# a process must NOT unregister attached segments — the tracker is
# shared, its cache is keyed by name, and the publisher's eventual
# ``unlink`` performs the one legitimate unregister.  A process whose
# tracker starts fresh (spawn child) owns a private tracker that would
# unlink the publisher's segments when the child exits, so there the
# attach must unregister.  Decided once, before the first attach.
_TRACKER_INHERITED: Dict[int, bool] = {}


def _tracker_inherited() -> bool:
    import os

    pid = os.getpid()
    if pid not in _TRACKER_INHERITED:
        try:  # pragma: no cover - depends on interpreter internals
            from multiprocessing import resource_tracker

            fd = getattr(resource_tracker._resource_tracker, "_fd", None)
        except Exception:
            fd = None
        _TRACKER_INHERITED[pid] = fd is not None
    return _TRACKER_INHERITED[pid]


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Keep this process's *private* resource tracker from unlinking a
    segment the publisher still owns.  No-op when the tracker is shared
    with the publisher (fork).  Best-effort: tracker internals are not a
    stable API.
    """
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:
        pass


def _mapped_view(shm: shared_memory.SharedMemory, shape: Tuple[int, ...], dtype) -> np.ndarray:
    """A NumPy view of the whole segment that unmaps it when the view and
    every view taken of it are gone.  NumPy holds no buffer export on the
    mapping, so ``shm.close()`` under a live view would succeed and leave
    the view pointing at unmapped memory; every view of this array keeps
    this array alive (its ``base``), so the finalizer runs after the last."""
    view = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
    weakref.finalize(view, shm.close).atexit = False  # exit unmaps anyway
    return view


class AttachedArray:
    """A zero-copy NumPy view over a published segment.

    The mapping lives as long as :attr:`array` or any view taken of it:
    :meth:`close` drops this handle's reference, and the last view to go
    unmaps the segment.
    """

    def __init__(self, ref: SharedArrayRef) -> None:
        self.ref = ref
        inherited = _tracker_inherited()  # must be sampled before attach
        shm = shared_memory.SharedMemory(name=ref.shm_name)
        if not inherited:
            _untrack(shm)
        self.array: np.ndarray = _mapped_view(shm, ref.shape, np.dtype(ref.dtype))

    def close(self) -> None:
        self.array = None  # type: ignore[assignment]

    def __enter__(self) -> "AttachedArray":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def attach(ref: SharedArrayRef) -> AttachedArray:
    """Attach to a published array; returns the view-holding handle."""
    return AttachedArray(ref)


class SharedArrayStore:
    """Owner of a set of named shared-memory arrays (the data plane).

    ``publish`` copies an array in once (``arrays`` publishes a whole
    dict at construction, unlinking what it made if one of them fails);
    ``allocate`` creates an empty shared array (scratch slabs for the
    allreduce).  ``refs()`` returns the picklable handles to ship to
    workers.  ``close`` unlinks everything; it is idempotent and runs at
    context exit.
    """

    def __init__(self, prefix: str = "repro",
                 arrays: Optional[Dict[str, np.ndarray]] = None) -> None:
        self._prefix = prefix
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._refs: Dict[str, SharedArrayRef] = {}
        self._arrays: Dict[str, np.ndarray] = {}
        try:
            for key, array in (arrays or {}).items():
                self.publish(key, array)
        except BaseException:
            self.close()
            raise

    def _new_segment(self, key: str, nbytes: int) -> shared_memory.SharedMemory:
        if key in self._refs:
            raise ValueError(f"array {key!r} already published")
        name = f"{self._prefix}_{secrets.token_hex(6)}"
        return shared_memory.SharedMemory(name=name, create=True, size=max(nbytes, 1))

    def allocate(self, key: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """Create an uninitialised shared array; returns the owner's view."""
        dt = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
        shm = self._new_segment(key, nbytes)
        view = _mapped_view(shm, shape, dt)
        self._segments[key] = shm
        self._refs[key] = SharedArrayRef(shm.name, tuple(shape), dt.str)
        self._arrays[key] = view
        return view

    def publish(self, key: str, array: np.ndarray, dtype=None) -> SharedArrayRef:
        """Copy ``array`` into shared memory once; returns its ref.

        ``dtype`` casts at publish time (e.g. float64 weights into
        float32 segments — half the shared bytes); the source array is
        untouched.
        """
        array = np.ascontiguousarray(array, dtype=dtype)
        view = self.allocate(key, array.shape, array.dtype)
        view[...] = array
        return self._refs[key]

    def ref(self, key: str) -> SharedArrayRef:
        return self._refs[key]

    def refs(self) -> Dict[str, SharedArrayRef]:
        return dict(self._refs)

    def array(self, key: str) -> np.ndarray:
        """The owner-side view of a published/allocated array."""
        return self._arrays[key]

    @property
    def total_bytes(self) -> int:
        return sum(r.nbytes for r in self._refs.values())

    def close(self) -> None:
        """Unlink every segment (publisher-side cleanup).  A segment stays
        mapped until the last owner-side view of it is gone."""
        self._arrays.clear()
        for key, shm in list(self._segments.items()):
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            del self._segments[key]
        self._refs.clear()

    def __enter__(self) -> "SharedArrayStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._refs)
