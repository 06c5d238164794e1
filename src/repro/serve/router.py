"""Routing, admission control, and failure policy for replica groups.

The :class:`Router` fronts one or more :class:`~repro.serve.distributed.ReplicaGroup`
instances (per-model routing) and owns every *policy* decision the
replica plane deliberately does not make:

* **Admission control** — ``max_queue`` bounds the requests each model
  holds: queued in its micro-batch queue
  (:class:`~repro.serve.batcher.MicroBatcher`), or dispatched (in flight
  or awaiting a retry) and not yet resolved.  Requests beyond the bound
  are shed *at the door* (rejecting cheap beats timing out expensive in
  the queue), so sustained overload degrades into an explicit shed rate,
  never an unbounded backlog behind busy replicas.
* **Work-conserving dispatch** — ``pump`` absorbs finished results
  first, then hands whatever is queued to each *idle* replica (nothing
  in flight — inference batch or canary — and a breaker that would let
  a dispatch through), one batch per idle replica, without waiting;
  ``max_wait_s`` only bounds how long a partial batch keeps collecting
  while every replica is busy, after which (or once it is full) it is
  queued behind the least-loaded one.
* **Per-request deadlines** — requests carry a deadline (defaulting to
  the policy's ``timeout_s``); they expire at batch formation and again
  before any retry dispatch, so no replica computes answers nobody is
  waiting for.
* **Bounded retries with exponential backoff** — a batch lost to a dead
  or hung replica is re-dispatched (to a *different* replica when one is
  available) up to ``max_retries`` times, with backoff
  ``backoff_base_s * 2**attempt`` between attempts; requests that
  exhaust their retries are surfaced as ``retried_away``.
* **Per-replica circuit breaker** — consecutive failures open a
  replica's breaker (no dispatch) for ``breaker_cooldown_s``, then one
  half-open probe batch decides recovery vs re-open; a replica recycled
  by the supervisor gets its breaker reset (fresh process, clean slate).

Accounting is the load-bearing invariant::

    submitted == completed + shed + timed_out + retried_away + queued

:class:`RouterStats.accounted` checks it; the chaos suite asserts it
under seeded kill/hang/slow fault schedules.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..obs.context import get_recorder
from ..parallel.pool import TaskResult
from ..resilience.faults import FaultSchedule, record
from .batcher import BatchPolicy, MicroBatcher, Request
from .distributed import ReplicaGroup
from .metrics import ServingStats


@dataclass
class RoutedRequest(Request):
    """A :class:`Request` with routing state: row-addressed payloads,
    a per-request deadline, and its retry trail."""

    row: Optional[int] = None          # index into the published request pool
    deadline_s: Optional[float] = None  # from enqueue_time; None: never expires
    attempts: int = 0                  # dispatches so far (1 = no retries yet)


@dataclass
class RouterStats(ServingStats):
    """Serving counters plus the distributed-tier outcomes."""

    retried_away: int = 0  # terminal: retries exhausted on replica failures
    retries: int = 0       # non-terminal: request re-dispatched after a failure
    faults: Counter = field(default_factory=Counter)  # drawn from Router(faults=), by kind

    def accounted(self, still_queued: int = 0) -> bool:
        return self.submitted == (
            self.completed + self.shed + self.timed_out + self.retried_away + still_queued
        )


class CircuitBreaker:
    """Per-replica failure gate: closed -> open -> half-open -> closed."""

    def __init__(self, threshold: int = 3, cooldown_s: float = 1.0) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if cooldown_s <= 0:
            raise ValueError("cooldown_s must be positive")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.state = "closed"
        self.failures = 0
        self.opens = 0
        self._open_until = 0.0
        self._probe_inflight = False

    def available(self, now: float) -> bool:
        if self.state == "closed":
            return True
        if self.state == "open":
            return now >= self._open_until  # cooldown over: a probe may go
        return not self._probe_inflight      # half-open: one probe at a time

    def on_dispatch(self, now: float) -> None:
        if self.state == "open" and now >= self._open_until:
            self.state = "half_open"
        if self.state == "half_open":
            self._probe_inflight = True

    def on_success(self) -> None:
        self.state = "closed"
        self.failures = 0
        self._probe_inflight = False

    def on_failure(self, now: float) -> None:
        self.failures += 1
        probe_failed = self.state == "half_open"
        self._probe_inflight = False
        if probe_failed or self.failures >= self.threshold:
            self.state = "open"
            self._open_until = now + self.cooldown_s
            self.opens += 1

    def reset(self) -> None:
        """Fresh process behind this slot: forget its predecessor's sins."""
        self.state = "closed"
        self.failures = 0
        self._probe_inflight = False


@dataclass
class _Batch:
    """One dispatched (or retry-pending) unit of work."""

    model: str
    requests: List[RoutedRequest]
    kind: str = "infer"  # "infer" | "canary"
    attempt: int = 0
    slot: Optional[int] = None
    not_before: float = 0.0
    expected: Any = None  # canary: parent-side reference output


class Router:
    """Policy front-end over ``{model name -> ReplicaGroup}``.

    Caller-driven like :class:`repro.serve.InferenceServer`: ``submit``
    enqueues, ``pump`` forms batches, dispatches to replicas, polls
    results, and runs the retry/breaker machinery.  A ``submit``/``pump``
    loop is the serving event loop; :func:`drain` runs it to completion.
    ``clock`` is the only time it reads, so the same code runs on
    simulated time: :func:`~repro.serve.simulate.simulate_serving` drives
    it on :class:`~repro.hpc.events.EventLoop` time.  With ``faults``
    every dispatch draws its fault from that schedule (site ``dispatch``)
    and the replica executes it; ``stats.faults`` counts them by kind.
    """

    def __init__(
        self,
        groups: Dict[str, ReplicaGroup],
        policy: Optional[BatchPolicy] = None,
        max_retries: int = 2,
        backoff_base_s: float = 0.05,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 1.0,
        clock: Optional[Callable[[], float]] = None,
        record_batches: bool = False,
        faults: Optional[FaultSchedule] = None,
    ) -> None:
        if not groups:
            raise ValueError("need at least one replica group")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if backoff_base_s < 0:
            raise ValueError("backoff_base_s must be non-negative")
        self.groups = dict(groups)
        self.policy = policy or BatchPolicy()
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.clock = clock or time.perf_counter
        self.record_batches = record_batches
        self.stats = RouterStats()
        self.batch_log: List[Tuple[str, Tuple[int, ...]]] = []
        self.faults = faults
        self.supervisor = None  # duck-typed: .handle_canary(model, slot, result, now)
        self._batchers = {name: MicroBatcher(self.policy) for name in self.groups}
        self._breakers: Dict[Tuple[str, int], CircuitBreaker] = {
            (name, slot): CircuitBreaker(breaker_threshold, breaker_cooldown_s)
            for name, group in self.groups.items()
            for slot in range(group.n_replicas)
        }
        self._inflight: Dict[Tuple[str, int], _Batch] = {}  # (model, task_id)
        # Batches + canaries in flight on each replica.
        self._slot_load: Dict[Tuple[str, int], int] = dict.fromkeys(self._breakers, 0)
        self._retry_q: List[_Batch] = []
        # Admitted requests without an outcome yet, per model: what
        # max_queue bounds (queued, in flight or awaiting a retry).
        self._held: Dict[str, int] = dict.fromkeys(self.groups, 0)
        self._next_id = 0

    # -- ingress ---------------------------------------------------------
    def submit(
        self,
        model: str,
        x: Optional[np.ndarray] = None,
        row: Optional[int] = None,
        now: Optional[float] = None,
        deadline_s: Optional[float] = None,
    ) -> RoutedRequest:
        """Queue one request (sample ``x`` or pool ``row``); may shed.

        The returned handle resolves in place as the router pumps:
        ``completed`` (with ``result``), ``shed``, ``timed_out``, or
        ``retried_away``.
        """
        if model not in self.groups:
            raise KeyError(f"unknown model {model!r}; routed: {sorted(self.groups)}")
        if (x is None) == (row is None):
            raise ValueError("pass exactly one of x or row")
        now = self.clock() if now is None else now
        req = RoutedRequest(
            request_id=self._next_id,
            x=None if x is None else np.asarray(x),
            enqueue_time=now,
            row=row,
            deadline_s=self.policy.timeout_s if deadline_s is None else deadline_s,
        )
        self._next_id += 1
        self.stats.submitted += 1
        if self._held[model] < self.policy.max_queue and self._batchers[model].offer(req):
            self._held[model] += 1
        else:
            req.status = "shed"
            self.stats.shed += 1
            rec = get_recorder()
            if rec is not None:
                rec.event("shed", kind="serve.shed", request_id=req.request_id, model=model)
        self._gauges()
        return req

    def submit_canary(
        self, model: str, replica: int, x: np.ndarray, expected: np.ndarray,
        now: Optional[float] = None,
    ) -> int:
        """Dispatch a supervisor health probe to one specific replica.

        Canaries bypass admission and batching (they must reach the
        replica even when the breaker has it ejected — that is how an
        ejected replica proves it recovered) and are excluded from the
        request accounting; the result is handed to the attached
        supervisor's ``handle_canary``.
        """
        now = self.clock() if now is None else now
        group = self.groups[model]
        task_id = group.submit(replica, x=np.asarray(x))
        self._inflight[(model, task_id)] = _Batch(
            model, [], kind="canary", slot=replica, expected=expected,
        )
        self._slot_load[(model, replica)] += 1
        return task_id

    # -- event loop ------------------------------------------------------
    def pump(self, now: Optional[float] = None) -> int:
        """One scheduler turn: absorb what's done, dispatch what's due.

        Results come first, so a replica freed by this call is idle
        capacity when batches are formed and takes the waiting requests
        in the same call.

        Returns the number of requests completed by this call.
        """
        now = self.clock() if now is None else now
        completed = 0
        for model, group in self.groups.items():
            while True:
                res = group.poll(timeout=0.0)
                if res is None:
                    break
                completed += self._resolve(model, res)
        due = [b for b in self._retry_q if b.not_before <= now]
        if due:
            self._retry_q = [b for b in self._retry_q if b.not_before > now]
            for batch in due:
                self._dispatch(batch, now)
        for model, batcher in self._batchers.items():
            while batcher.ready(now, idle=self._idle_capacity(model, now)):
                formed, expired = batcher.take(now)
                self._finish(model, expired, "timed_out", now)
                if formed:
                    self._dispatch(_Batch(model, formed), now)
        self._gauges()
        return completed

    def drain(self, timeout_s: float = 60.0) -> int:
        """Pump until every submitted request has an outcome (or timeout).

        Returns completions; raises TimeoutError if requests are still
        unresolved at the bound (which would itself be an accounting
        leak, so the bound is generous).
        """
        deadline = self.clock() + timeout_s
        completed = 0
        while self.pending > 0:
            completed += self.pump()
            if self.clock() > deadline:
                raise TimeoutError(
                    f"router failed to drain: {self.pending} requests unresolved"
                )
        return completed

    @property
    def queue_depth(self) -> int:
        """Requests admitted but not yet dispatched (incl. retry backlog)."""
        return sum(b.depth for b in self._batchers.values()) + sum(
            len(b.requests) for b in self._retry_q
        )

    @property
    def pending(self) -> int:
        """Requests with no outcome yet (queued, in flight, or awaiting retry)."""
        inflight = sum(
            len(b.requests) for b in self._inflight.values() if b.kind == "infer"
        )
        return self.queue_depth + inflight

    # -- internals -------------------------------------------------------
    def _finish(self, model: str, requests: List[RoutedRequest], status: str, now: float) -> None:
        """Give ``requests`` their outcome — ``completed``, ``timed_out`` or
        ``retried_away``, each also the name of its ``stats`` counter — and
        release their hold on ``model``'s admission bound."""
        for req in requests:
            req.status = status
            req.complete_time = now
        setattr(self.stats, status, getattr(self.stats, status) + len(requests))
        self._held[model] -= len(requests)

    def _live(self, model: str, requests: List[RoutedRequest], now: float) -> List[RoutedRequest]:
        """Time out the requests past their deadline; return the rest."""
        live, expired = [], []
        for req in requests:
            late = req.deadline_s is not None and now - req.enqueue_time > req.deadline_s
            (expired if late else live).append(req)
        self._finish(model, expired, "timed_out", now)
        return live

    def _idle_capacity(self, model: str, now: float) -> bool:
        """Could some replica of ``model`` start a batch right now?  It has
        nothing in flight (inference batch or canary) and its breaker
        would let a dispatch through."""
        return any(
            not self._slot_load[(model, s)] and self._breakers[(model, s)].available(now)
            for s in range(self.groups[model].n_replicas)
        )

    def _choose_slot(self, model: str, now: float, avoid: Optional[int]) -> Optional[int]:
        group = self.groups[model]
        candidates = [
            s for s in range(group.n_replicas)
            if self._breakers[(model, s)].available(now)
        ]
        if avoid is not None and len(candidates) > 1:
            candidates = [s for s in candidates if s != avoid] or candidates
        if not candidates:
            return None
        return min(candidates, key=lambda s: self._slot_load[(model, s)])

    def _dispatch(self, batch: _Batch, now: float) -> None:
        batch.requests = self._live(batch.model, batch.requests, now)
        if not batch.requests:
            return
        slot = self._choose_slot(batch.model, now, avoid=batch.slot)
        if slot is None:
            # Every replica ejected: park briefly; deadlines bound the wait.
            batch.not_before = now + self.backoff_base_s
            self._retry_q.append(batch)
            return
        self._breakers[(batch.model, slot)].on_dispatch(now)
        group = self.groups[batch.model]
        fault = None
        if self.faults is not None:
            fault = self.faults.draw("dispatch", batch.requests[0].request_id, slot)
            if fault is not None:
                record(fault, self.stats.faults)
        if batch.requests[0].row is not None:
            rows = [r.row for r in batch.requests]
            task_id = group.submit(slot, rows=rows, fault=fault)
        else:
            xb = np.stack([r.x for r in batch.requests], axis=0)
            task_id = group.submit(slot, x=xb, fault=fault)
        batch.slot = slot
        batch.attempt += 1
        for r in batch.requests:
            r.attempts += 1
        self._inflight[(batch.model, task_id)] = batch
        self._slot_load[(batch.model, slot)] += 1
        rec = get_recorder()
        if rec is not None:
            rec.metrics.counter("serve.dispatches").inc()

    def _resolve(self, model: str, res: TaskResult) -> int:
        batch = self._inflight.pop((model, res.task_id), None)
        if batch is None:  # not ours (stale duplicate already handled by pool)
            return 0
        now = self.clock()
        if batch.slot is not None:
            key = (model, batch.slot)
            self._slot_load[key] = max(0, self._slot_load[key] - 1)
        breaker = self._breakers[(model, batch.slot)]
        if batch.kind == "canary":
            if self.supervisor is not None:
                self.supervisor.handle_canary(model, batch.slot, res, batch.expected, now)
            return 0
        if res.status == "ok":
            breaker.on_success()
            outs = res.value
            for i, req in enumerate(batch.requests):
                req.result = outs[i]
                self.stats.latency.observe(now - req.enqueue_time)
            self._finish(model, batch.requests, "completed", now)
            self.stats.record_batch(len(batch.requests), res.duration_s)
            if self.record_batches:
                self.batch_log.append(
                    (model, tuple(r.request_id for r in batch.requests))
                )
            return len(batch.requests)
        # Replica failure: died / hung / err.
        breaker.on_failure(now)
        rec = get_recorder()
        if rec is not None:
            rec.event(
                "replica_failure", kind="serve.replica",
                model=model, slot=batch.slot, status=res.status,
                batch_size=len(batch.requests), attempt=batch.attempt,
            )
            rec.metrics.counter("serve.replica_failures").inc()
        if batch.attempt <= self.max_retries:
            live = self._live(model, batch.requests, now)
            if live:
                self.stats.retries += len(live)
                if rec is not None:
                    rec.metrics.counter("serve.retries").inc(len(live))
                backoff = self.backoff_base_s * (2.0 ** (batch.attempt - 1))
                self._retry_q.append(
                    _Batch(model, live, attempt=batch.attempt,
                           slot=batch.slot, not_before=now + backoff)
                )
            return 0
        self._finish(model, batch.requests, "retried_away", now)
        if rec is not None:
            rec.metrics.counter("serve.retried_away").inc(len(batch.requests))
        return 0

    def note_recycled(self, model: str, slot: int) -> None:
        """A fresh process now backs (model, slot): reset its breaker."""
        self._breakers[(model, slot)].reset()

    def breaker_state(self, model: str, slot: int) -> str:
        return self._breakers[(model, slot)].state

    @property
    def breakers_open(self) -> int:
        return sum(1 for b in self._breakers.values() if b.state == "open")

    def _gauges(self) -> None:
        rec = get_recorder()
        if rec is not None:
            rec.metrics.gauge("serve.queue_depth").set(self.queue_depth)
            rec.metrics.gauge("serve.breaker_open").set(self.breakers_open)

    def close(self) -> None:
        for group in self.groups.values():
            group.close()
