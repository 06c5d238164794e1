"""Persistent process worker pool with a pickle-light task protocol.

This is the repo's one process boundary: DDP ranks, HPO trial workers
and serving replicas are all task functions over this pool, and nothing
else under ``src/repro`` starts a process, exports the BLAS pins or
attaches a shared segment in a child.  Design points, in the order they
matter:

* **Persistent workers.**  Each worker is forked/spawned once, pins its
  BLAS threads, attaches the pool's shared arrays, runs an optional
  initializer, then loops on a private task pipe until shutdown.
  Per-task cost is one small pickle each way — the task function and
  any bulk data cross the process boundary exactly once, at startup.
* **The pool owns its data plane.**  A :class:`SharedArrayStore` handed
  in as ``shared=`` belongs to the pool from that call on: every worker
  incarnation attaches its arrays zero-copy before the initializer runs
  and holds the mappings for its lifetime, and the segments are unlinked
  by :meth:`ProcessWorkerPool.close` — or by the constructor, if it
  raises.  A caller never pairs "close the pool" with "close the store".
* **Parent-side dispatch.**  Submitted tasks queue *in the parent*; a
  task is written to a worker's pipe only when that worker has reported
  ready and has no task in flight.  One task in flight per worker means
  a worker death can strand at most one task — everything else is still
  safely in the parent — and a replacement worker on a *fresh* pipe can
  never deadlock on a lock its dead predecessor held (the failure mode
  of sharing one ``mp.Queue`` across incarnations).
* **Slots, not just workers.**  The pool is organized as ``n_workers``
  *slots*; a respawn replaces the process in a slot but keeps the
  slot's parent-side backlog, so with ``dedicated_queues=True`` (per-
  slot backlogs — the serving tier's replica-scoped dispatch) tasks
  queued behind a dead worker survive its replacement.
* **Fork/spawn safe.**  The start method is selectable; with ``spawn``
  the task function and initializer must be module-level picklables.
  BLAS thread-count env pins are exported around worker startup so
  spawned interpreters import NumPy already pinned (the oversubscription
  guard the parallel benchmarks rely on).
* **Graceful degradation.**  A worker that dies mid-task (segfault,
  ``os._exit``) is detected by liveness polling; its lost task is
  *resubmitted* up to ``max_task_retries`` times (default 1) before
  being reported with status ``"died"``, and a replacement worker is
  spawned either way so pool capacity survives: a slot never stays
  empty, whatever its task's fate.  A worker that *hangs* past
  ``task_timeout_s`` on one task is terminated and takes the same
  resubmit-or-report path with status ``"hung"``.

Observability: with a recorder attached, the pool maintains a
``parallel.queue_depth`` gauge (tasks submitted but not finished),
``parallel.tasks_completed`` / ``parallel.tasks_lost`` /
``parallel.tasks_retried`` / ``parallel.worker_respawns`` counters, and
``parallel.worker`` lifecycle events.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..obs.context import get_recorder
from .shm import SharedArrayStore, attach

#: BLAS/OpenMP pins exported to workers: one process == one compute lane.
#: Oversubscribed BLAS thread pools are the classic way a "4x" parallel
#: run measures 1.1x, so the pool defaults to pinning them all.
DEFAULT_WORKER_ENV: Dict[str, str] = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

_POLL_S = 0.02  # liveness-check cadence while waiting on results
_ORPHAN_POLL_S = 1.0  # how often an idle worker checks its parent is alive


@dataclass
class TaskResult:
    """One finished task, as the parent sees it."""

    task_id: int
    worker: int
    status: str  # "ok" | "err" | "died" | "hung"
    value: Any  # result, or traceback text for "err", or None for died/hung
    duration_s: float  # worker-measured wall time of the task body


def echo_task(payload: Any) -> Any:
    """Module-level identity task (spawn-mode smoke tests)."""
    return payload


def _worker_main(idx, task_fn, initializer, initargs, env, refs, task_r, result_q) -> None:
    if env:
        os.environ.update(env)
    try:
        # The mappings live in this frame, i.e. for as long as tasks run:
        # a view outliving its mapping is a dangling pointer.
        attached = {k: attach(r) for k, r in (refs or {}).items()}
        if initializer is not None and refs is not None:
            initializer({k: a.array for k, a in attached.items()}, *initargs)
        elif initializer is not None:
            initializer(*initargs)
    except BaseException:
        result_q.put((None, idx, "init_err", traceback.format_exc(), 0.0))
        return
    result_q.put((None, idx, "ready", os.getpid(), 0.0))
    parent_pid = mp.parent_process().pid
    while True:
        # A forked worker inherits a copy of its own pipe's write end, so
        # a killed parent never reads as EOF: watch the parent itself.
        while not task_r.poll(_ORPHAN_POLL_S):
            if os.getppid() != parent_pid:
                return
        try:
            item = task_r.recv()
        except EOFError:  # parent closed the pipe: shutdown
            break
        if item is None:
            break
        task_id, payload = item
        t0 = time.perf_counter()
        try:
            value = task_fn(payload)
            result_q.put((task_id, idx, "ok", value, time.perf_counter() - t0))
        except BaseException:
            result_q.put((task_id, idx, "err", traceback.format_exc(), time.perf_counter() - t0))


class ProcessWorkerPool:
    """N persistent worker processes executing ``task_fn`` on payloads.

    Parameters
    ----------
    task_fn:
        ``payload -> result``.  Crosses the process boundary once per
        worker at startup; must be picklable under ``spawn``.
    n_workers:
        Pool width (slots; one real process per slot).
    initializer / initargs:
        Run once in each worker before its task loop, as
        ``initializer(*initargs)`` — or, with ``shared``, as
        ``initializer(arrays, *initargs)``.  Re-runs in every respawned
        replacement worker, so slot state (built models) survives a
        crash.
    start_method:
        ``"fork"`` (default on Linux: instant, inherits the parent) or
        ``"spawn"`` (fresh interpreters; everything must pickle).
    env:
        Environment exported to workers *before* the initializer runs;
        defaults to :data:`DEFAULT_WORKER_ENV` (BLAS pinned to 1 thread).
    dedicated_queues:
        One parent-side backlog per slot instead of a shared backlog.
        ``submit`` then targets a slot (``slot=``, default round-robin)
        — the replica-scoped dispatch the distributed serving tier
        routes on.
    max_task_retries:
        How many times a task lost to a dead or hung worker is silently
        resubmitted before it is surfaced as ``"died"``/``"hung"``.
    task_timeout_s:
        If set, a worker that holds one dispatched task longer than this
        is declared hung, terminated, and respawned (its task follows
        the retry policy).  ``None`` (default) disables hang detection.
    shared:
        The pool's data plane: a :class:`SharedArrayStore` the pool owns
        from here on.  Each worker incarnation attaches every array in
        it before the initializer runs and passes the initializer the
        ``{key: zero-copy view}`` dict; :meth:`close` — or a failing
        constructor — unlinks the segments.
    """

    def __init__(
        self,
        task_fn: Callable[[Any], Any],
        n_workers: int,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple = (),
        start_method: Optional[str] = None,
        env: Optional[Dict[str, str]] = None,
        dedicated_queues: bool = False,
        max_task_retries: int = 1,
        task_timeout_s: Optional[float] = None,
        shared: Optional[SharedArrayStore] = None,
    ) -> None:
        self.task_fn = task_fn
        self.n_workers = n_workers
        self.max_task_retries = max_task_retries
        self.task_timeout_s = task_timeout_s
        self.dedicated_queues = dedicated_queues
        self._initializer = initializer
        self._initargs = initargs
        self._env = DEFAULT_WORKER_ENV if env is None else env
        self._shared = shared
        self._refs = None if shared is None else shared.refs()  # shipped to every incarnation
        self._result_q = None
        self._procs: Dict[int, Any] = {}          # slot -> live process
        self._pipes: Dict[int, Any] = {}          # slot -> parent Connection
        self._widx: Dict[int, int] = {}           # slot -> incarnation id
        self._slot_of: Dict[int, int] = {}        # incarnation id -> slot
        self._ready: Dict[int, bool] = {}         # slot -> sent "ready"
        self._running: Dict[int, Optional[int]] = {}   # slot -> task id
        self._dispatched_at: Dict[int, float] = {}     # slot -> dispatch time
        self._kill_reason: Dict[int, str] = {}    # slot -> "hung"|"terminated"
        self._pending: List[TaskResult] = []      # reaped terminal results
        self._payloads: Dict[int, Any] = {}       # task id -> payload (live)
        self._retries: Dict[int, int] = {}        # task id -> resubmissions
        self._task_slot: Dict[int, Optional[int]] = {}  # task id -> target slot
        self._next_task = 0
        self._next_worker = 0
        self._rr = 0
        self._outstanding = 0
        self.respawns = 0
        self.tasks_lost = 0
        self.tasks_retried = 0
        self._closed = False
        try:
            if n_workers < 1:
                raise ValueError("n_workers must be >= 1")
            if max_task_retries < 0:
                raise ValueError("max_task_retries must be >= 0")
            if task_timeout_s is not None and task_timeout_s <= 0:
                raise ValueError("task_timeout_s must be positive")
            self._ctx = mp.get_context(start_method)
            # Results ride a SimpleQueue on purpose: its put() writes the
            # message synchronously into the pipe, so a worker's result is
            # durable the moment put() returns — even if the worker then
            # dies (mp.Queue's background feeder thread would lose it).
            self._result_q = self._ctx.SimpleQueue()
            # Parent-side backlogs: one per slot (dedicated) or one shared.
            n_backlogs = n_workers if dedicated_queues else 1
            self._backlogs: List[Deque[int]] = [deque() for _ in range(n_backlogs)]
            for slot in range(n_workers):
                self._spawn_worker(slot)
        except BaseException:
            self.close(join_timeout=0.0)  # workers started so far, and the segments
            raise

    # -- workers ---------------------------------------------------------
    def _backlog_for(self, slot: Optional[int]) -> Deque[int]:
        if self.dedicated_queues and slot is not None:
            return self._backlogs[slot]
        return self._backlogs[0]

    def _spawn_worker(self, slot: int) -> None:
        idx = self._next_worker
        self._next_worker += 1
        # A fresh pipe per incarnation: nothing a dead predecessor was
        # blocked on can poison the replacement.
        task_r, task_w = self._ctx.Pipe(duplex=False)
        # Export the env pins in the parent around startup too: a spawned
        # interpreter reads them when it first imports NumPy, which
        # happens before the worker's own os.environ.update could run.
        saved = {k: os.environ.get(k) for k in self._env}
        os.environ.update(self._env)
        try:
            proc = self._ctx.Process(
                target=_worker_main,
                args=(idx, self.task_fn, self._initializer, self._initargs,
                      self._env, self._refs, task_r, self._result_q),
                daemon=True,
            )
            proc.start()
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        task_r.close()  # parent keeps only the write end
        self._procs[slot] = proc
        self._pipes[slot] = task_w
        self._widx[slot] = idx
        self._slot_of[idx] = slot
        self._ready[slot] = False
        self._running[slot] = None
        rec = get_recorder()
        if rec is not None:
            rec.event("worker_spawn", kind="parallel.worker",
                      worker=idx, slot=slot, pid=proc.pid)

    def terminate_worker(self, slot: int, reason: str = "terminated") -> None:
        """Kill the process in ``slot`` (chaos injection, supervisor
        recycling a wedged replica).  The next result poll reaps it:
        its in-flight task follows the retry policy and a replacement
        worker spawns on the same slot — backlogged tasks survive."""
        if slot not in self._procs:
            raise KeyError(f"no worker in slot {slot}")
        self._kill_reason.setdefault(slot, reason)
        proc = self._procs[slot]
        # Every worker writes results under the queue's one write lock; a
        # worker killed while holding it would wedge all the others (and
        # its own replacement) in put() for good.  Holding the lock here
        # means the victim is not inside that critical section.
        with self._result_q._wlock:
            proc.terminate()
            proc.join(timeout=5.0)

    def _check_hung(self) -> None:
        """Terminate any worker that has sat on one task past the bound."""
        if self.task_timeout_s is None:
            return
        now = time.perf_counter()
        for slot, t0 in list(self._dispatched_at.items()):
            if self._running.get(slot) is not None and now - t0 > self.task_timeout_s:
                self.terminate_worker(slot, reason="hung")

    def _reap_dead(self) -> None:
        """Detect dead workers; respawn them and resubmit or surface
        their lost tasks.  Tasks that exhausted their retries land in
        the pending buffer as terminal ``"died"``/``"hung"`` results."""
        for slot, proc in list(self._procs.items()):
            if proc.is_alive():
                continue
            task_id = self._running[slot]
            self._dispatched_at.pop(slot, None)
            reason = self._kill_reason.pop(slot, "died")
            status = "hung" if reason == "hung" else "died"
            idx = self._widx.pop(slot)
            self._slot_of.pop(idx, None)
            del self._procs[slot]
            try:
                self._pipes.pop(slot).close()
            except OSError:  # pragma: no cover - already closed
                pass
            rec = get_recorder()
            if rec is not None:
                rec.event(
                    "worker_death", kind="parallel.worker",
                    worker=idx, slot=slot, reason=reason,
                    exitcode=proc.exitcode, lost_task=task_id,
                )
            self.respawns += 1
            if rec is not None:
                rec.metrics.counter("parallel.worker_respawns").inc()
            self._spawn_worker(slot)
            if task_id is None or task_id not in self._payloads:
                continue
            self.tasks_lost += 1
            if rec is not None:
                rec.metrics.counter("parallel.tasks_lost").inc()
            if self._retries.get(task_id, 0) < self.max_task_retries:
                # Re-backlog to the same target (the slot's replacement
                # worker drains the same backlog).
                self._retries[task_id] = self._retries.get(task_id, 0) + 1
                self.tasks_retried += 1
                if rec is not None:
                    rec.metrics.counter("parallel.tasks_retried").inc()
                self._backlog_for(self._task_slot.get(task_id)).append(task_id)
            else:
                self._pending.append(TaskResult(task_id, idx, status, None, 0.0))
                self._forget(task_id)

    def _dispatch(self) -> None:
        """Write backlogged tasks to every free, ready worker's pipe."""
        for slot in self._procs:
            if not self._ready[slot] or self._running[slot] is not None:
                continue
            backlog = self._backlog_for(slot)
            task_id = None
            while backlog:
                candidate = backlog.popleft()
                if candidate in self._payloads and self._running_nowhere(candidate):
                    task_id = candidate
                    break
            if task_id is None:
                continue
            try:
                self._pipes[slot].send((task_id, self._payloads[task_id]))
            except (OSError, BrokenPipeError):  # dead worker: next reap fixes it
                backlog.appendleft(task_id)
                continue
            self._running[slot] = task_id
            self._dispatched_at[slot] = time.perf_counter()

    def _running_nowhere(self, task_id: int) -> bool:
        return all(t != task_id for t in self._running.values())

    def _forget(self, task_id: int) -> None:
        """Drop a task's bookkeeping once its outcome is decided.
        ``_outstanding`` is only decremented when the result is handed
        to the caller (the pending buffer still owes it one)."""
        self._payloads.pop(task_id, None)
        self._retries.pop(task_id, None)
        self._task_slot.pop(task_id, None)

    def _gauge(self) -> None:
        rec = get_recorder()
        if rec is not None:
            rec.metrics.gauge("parallel.queue_depth").set(self._outstanding)

    # -- task protocol ---------------------------------------------------
    def submit(self, payload: Any, slot: Optional[int] = None) -> int:
        """Enqueue one task; returns its id (results arrive unordered).

        With ``dedicated_queues``, ``slot`` picks the target worker slot
        (round-robin when omitted); without, ``slot`` must be None.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        if slot is not None:
            if not self.dedicated_queues:
                raise ValueError("slot targeting requires dedicated_queues=True")
            if not 0 <= slot < self.n_workers:
                raise ValueError(f"slot must be in [0, {self.n_workers})")
        elif self.dedicated_queues:
            slot = self._rr
            self._rr = (self._rr + 1) % self.n_workers
        task_id = self._next_task
        self._next_task += 1
        self._outstanding += 1
        self._payloads[task_id] = payload
        self._task_slot[task_id] = slot
        self._backlog_for(slot).append(task_id)
        self._dispatch()
        self._gauge()
        return task_id

    @property
    def outstanding(self) -> int:
        """Tasks submitted whose results have not been returned yet."""
        return self._outstanding

    def backlog_depth(self, slot: Optional[int] = None) -> int:
        """Tasks queued in the parent, not yet dispatched to a worker."""
        if slot is None:
            return sum(len(b) for b in self._backlogs)
        return len(self._backlog_for(slot))

    def worker_alive(self, slot: int) -> bool:
        """Liveness of the process currently occupying ``slot``."""
        proc = self._procs.get(slot)
        return proc is not None and proc.is_alive()

    def worker_busy(self, slot: int) -> bool:
        """Does ``slot`` have a task in flight right now?"""
        return self._running.get(slot) is not None

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        """Block until every slot's worker has finished its initializer.

        Purely optional — dispatch already waits per worker — but timed
        code (benches) calls it so worker startup is not billed to the
        first tasks.  Any task results consumed while waiting are
        re-buffered, not lost.
        """
        deadline = time.perf_counter() + timeout_s
        # Held aside until the wait ends: _poll_once hands back anything in
        # _pending before it reads the queue, so a result re-buffered
        # there mid-wait would come straight back on every poll and the
        # "ready" queued behind it would never be read.
        held: List[TaskResult] = []
        try:
            while not all(self._ready.get(s, False) for s in range(self.n_workers)):
                res = self._poll_once(wait_s=0.005)
                if res is not None:
                    held.append(res)
                if time.perf_counter() > deadline:
                    raise TimeoutError("workers not ready within bound")
        finally:
            # _emit already settled accounting; re-credit and buffer.
            self._outstanding += len(held)
            self._pending[:0] = held

    def next_result(self, timeout: Optional[float] = 300.0) -> TaskResult:
        """Block until one task finishes; returns its :class:`TaskResult`.

        Interleaves pipe reads with worker-liveness and hang checks so a
        worker that died (or wedged) without replying still produces a
        ``"died"``/``"hung"`` result (and a replacement worker) instead
        of a parent-side hang.
        """
        if self._outstanding <= 0:
            raise RuntimeError("no outstanding tasks")
        deadline = None if timeout is None else time.perf_counter() + timeout
        while True:
            res = self._poll_once()
            if res is not None:
                return res
            if deadline is not None and time.perf_counter() > deadline:
                raise TimeoutError(
                    f"no result within {timeout}s ({self._outstanding} outstanding)"
                )

    def poll_result(self, timeout: float = 0.0) -> Optional[TaskResult]:
        """Non-blocking variant of :meth:`next_result`: returns None when
        nothing finishes within ``timeout`` (or nothing is outstanding) —
        the router's pump loop interleaves this with dispatching."""
        if self._outstanding <= 0:
            return None
        deadline = time.perf_counter() + timeout
        while True:
            res = self._poll_once(wait_s=min(timeout, _POLL_S))
            if res is not None:
                return res
            if time.perf_counter() >= deadline:
                return None

    def _poll_once(self, wait_s: float = _POLL_S) -> Optional[TaskResult]:
        """One poll step: reap/hang-check/dispatch, then one message."""
        if self._pending:
            return self._emit(self._pending.pop(0))
        self._dispatch()
        # SimpleQueue has no get(timeout=); poll the read pipe so
        # liveness checks interleave with the wait.
        if not self._result_q._reader.poll(wait_s):
            self._check_hung()
            self._reap_dead()
            self._dispatch()
            return self._emit(self._pending.pop(0)) if self._pending else None
        task_id, idx, status, value, dur = self._result_q.get()
        if status == "init_err":
            raise RuntimeError(f"worker {idx} initializer failed:\n{value}")
        slot = self._slot_of.get(idx)
        if status == "ready":
            if slot is not None:
                self._ready[slot] = True
                self._dispatch()
            return None
        if slot is not None and self._running.get(slot) == task_id:
            self._running[slot] = None
            self._dispatched_at.pop(slot, None)
            self._dispatch()
        if task_id not in self._payloads:
            # Stale duplicate: the task was already resolved (e.g. a
            # hang-verdict retry and the original both finished).
            return None
        rec = get_recorder()
        if rec is not None:
            rec.metrics.counter("parallel.tasks_completed").inc()
        self._forget(task_id)
        return self._emit(TaskResult(task_id, idx, status, value, dur))

    def _emit(self, result: TaskResult) -> TaskResult:
        """Hand one terminal result to the caller; settles accounting."""
        self._outstanding -= 1
        self._gauge()
        return result

    def map(self, payloads, timeout: Optional[float] = 300.0):
        """Submit every payload; returns results ordered by *submission*.

        Convenience for benches/tests; the scheduler uses submit/next_result
        directly to react to completions as they land.
        """
        ids = [self.submit(p) for p in payloads]
        by_id = {}
        for _ in ids:
            res = self.next_result(timeout=timeout)
            by_id[res.task_id] = res
        return [by_id[i] for i in ids]

    # -- lifecycle -------------------------------------------------------
    def close(self, join_timeout: float = 5.0) -> None:
        """Shut down workers and unlink the ``shared`` segments
        (idempotent); drains nothing — callers should have consumed
        their results first.  A worker still inside a task after
        ``join_timeout`` is terminated; pass ``0.0`` when the work is
        already lost and waiting for it would only delay the error."""
        if self._closed:
            return
        self._closed = True
        for slot, pipe in self._pipes.items():
            try:
                pipe.send(None)
            except (OSError, BrokenPipeError):  # pragma: no cover - dead worker
                pass
        for slot, proc in self._procs.items():
            proc.join(timeout=join_timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        rec = get_recorder()
        if rec is not None:
            for slot, idx in self._widx.items():
                rec.event("worker_exit", kind="parallel.worker", worker=idx, slot=slot)
        for pipe in self._pipes.values():
            try:
                pipe.close()
            except OSError:  # pragma: no cover
                pass
        self._procs.clear()
        self._pipes.clear()
        self._running.clear()
        self._widx.clear()
        self._slot_of.clear()
        if self._result_q is not None:
            self._result_q.close()
        if self._shared is not None:
            self._shared.close()

    def __enter__(self) -> "ProcessWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
