"""Elastic, durable search campaigns over the on-disk trial queue.

:func:`run_elastic` drives a strategy through a
:class:`~repro.hpo.queue.DurableTrialQueue`: the driver asks the
strategy and enqueues jobs; consumers claim jobs under a lease,
evaluate the objective, and ack exactly once.  Because every state
transition lands in a durable queue transaction, the campaign survives
the death of anything:

* a **consumer** killed between claim and ack leaves a leased claim
  behind; the lease expires and another consumer re-runs the trial —
  at-least-once execution, exactly-once completion (the queue rejects
  a second ack);
* the **driver** killed mid-search leaves the queue as a complete
  checkpoint — jobs, leases, and the ask/tell replay log.  Re-running
  :func:`run_elastic` on the same queue path with a fresh strategy
  instance (same seed) replays the log to reconstruct the strategy's
  internal state bit-for-bit, resets orphaned claims, and continues
  where the dead incarnation stopped.

Workers are *elastic*: a :class:`WorkerPlan` joins and removes workers
mid-campaign (sim mode), or throttles the number of active executor
slots (real mode) — with an asynchronous strategy such as
:class:`~repro.hpo.strategies.hyperband.ASHA` the pool never idles at
rung barriers, so joins translate directly into throughput.

This is the repo's one asynchronous search loop
(:func:`repro.hpo.scheduler.run_parallel` is a call into it).  The steps
of the loop — fill a consumer, fail an attempt, keep a live claim
leased, ack then settle — are written once in :class:`_Search`; two
clocks drive them:

* **simulated** (default): trial durations come from a cost model and a
  deterministic event heap advances the clock — 10^4-trial campaigns,
  seeded kill schedules, and hypothesis crash-replay tests run in
  seconds, bit-reproducibly;
* **real** (``executor=``): trials run on the
  :class:`~repro.parallel.ParallelTrialExecutor` process pool; the
  queue sees wall-clock leases and real worker deaths.

and two storage modes hold the ledger: a queue file on disk (durable,
resumable) or SQLite ``":memory:"`` (same transactions, nothing to
resume).

The driver commits in groups (:meth:`DurableTrialQueue.transaction`):
one per simulated tick — every event at one sim time and the fills
between them — or, on the real clock, one per settled result.  A group
moves only commit boundaries, never the order of the calls, so the
event log, the claim order and the kill points are the loop's own; a
crashed driver leaves the file at a group boundary.

Faults follow two rules, the same on both clocks:

* **A trial CRASH is a failed attempt.**  Drawn from the
  :class:`~repro.resilience.FaultSchedule` (site ``trial``), raised by
  the objective, or a pool worker dying under the trial: the attempt is
  counted, the job goes back to pending, the consumer lives and takes
  the next job (on the sim clock the attempt first burns its full
  duration).  A job claimed more than ``max_retries + 1`` times
  completes as ``inf``, so every enqueued job still ends ``done`` and
  ``failures == retries + giveups``.  NaN objective values are
  quarantined to ``inf``.
* **Only consumer death leads to lease expiry.**  An entry of the
  schedule's ``consumer`` site kills the consumer holding a claim (at
  ``"claim"`` or before its ``"ack"``); nobody requeues it, and the job
  becomes runnable again when its lease runs out.  The killed slot
  respawns :data:`RESPAWN_DELAY_S` simulated seconds later as a fresh
  consumer.  A *live* consumer never loses its claim that way: the
  driver knows which claims are in flight and renews any whose lease
  has run out (:meth:`DurableTrialQueue.extend_lease`) before the next
  claim is taken, so a trial may outlive ``lease_s``.

Every retry, give-up, quarantine, kill and reclaim lands on the obs
timeline when a recorder is attached.
"""

from __future__ import annotations

import heapq
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..obs.context import get_recorder
from ..resilience.faults import (
    CRASH, KILL_AFTER_CLAIM, KILL_BEFORE_ACK, NAN, STRAGGLER, WORKER_LOSS, FaultSchedule, record,
)
from .queue import DONE, ClaimedJob, DurableTrialQueue
from .results import ResultLog, Trial
from .strategies.base import Strategy, Suggestion

__all__ = [
    "WorkerPlan", "ElasticReplayError", "run_elastic", "replay_into",
    "new_ledger", "screen",
]

RESPAWN_DELAY_S = 1.0  # simulated seconds before a killed consumer's slot rejoins


class ElasticReplayError(RuntimeError):
    """The strategy did not reproduce the recorded ask sequence — the
    determinism contract a resumable campaign depends on is broken."""


@dataclass
class WorkerPlan:
    """Elastic worker membership.

    ``sim`` entries are ``(sim_time, delta)``: at that simulated time
    ``delta`` workers join (positive) or leave (negative; busy workers
    finish their current trial first).  ``real`` entries are
    ``(completed_count, n_active)``: once that many trials completed,
    the number of concurrently dispatched executor slots becomes
    ``n_active`` — progress-keyed so real-clock runs stay reproducible.
    """

    sim: List[Tuple[float, int]] = field(default_factory=list)
    real: List[Tuple[int, int]] = field(default_factory=list)


def replay_into(
    queue: DurableTrialQueue, strategy: Strategy, log: ResultLog
) -> Dict[int, Suggestion]:
    """Rebuild strategy state and the result log from the queue's event log.

    Replays ``ask``/``tell`` events in their original commit order: each
    ``ask`` re-draws from the fresh strategy (same seed ⇒ same config —
    verified against the stored job; a mismatch raises
    :class:`ElasticReplayError`), each ``tell`` feeds back the stored
    value.  Returns the suggestion map (job_id → live Suggestion) the
    continuing campaign needs for its own tells.
    """
    jobs = {j.job_id: j for j in queue.jobs()}
    sugs: Dict[int, Suggestion] = {}
    for seq, kind, job_id, value in queue.events():
        stored = jobs[job_id]
        if kind == "ask":
            sug = strategy.ask()
            if sug is None:
                raise ElasticReplayError(
                    f"replay: strategy stalled at recorded ask for job {job_id}"
                )
            if dict(sug.config) != stored.config or int(sug.budget) != int(stored.budget):
                raise ElasticReplayError(
                    f"replay: job {job_id} diverged — stored "
                    f"{stored.config}@{stored.budget}, strategy re-asked "
                    f"{sug.config}@{sug.budget}; the strategy (or its seed) "
                    f"does not match the one that started this campaign"
                )
            sugs[job_id] = sug
        else:  # tell
            strategy.tell(sugs[job_id], float(value))
            log.add(Trial(
                trial_id=job_id - 1, config=sugs[job_id].config,
                value=float(value), budget=stored.budget,
                sim_time=stored.sim_time or 0.0,
                worker=stored.worker if stored.worker is not None else -1,
            ))
    return sugs


def _parse_consumer(owner: Optional[str]) -> Optional[Tuple[int, int]]:
    """Sim-mode consumer names are ``c<wid>.<incarnation>``."""
    if owner and owner.startswith("c"):
        wid, _, inc = owner[1:].partition(".")
        if wid.isdigit() and inc.isdigit():
            return int(wid), int(inc)
    return None


def new_ledger() -> Dict:
    """The ``log.stats`` keys every parallel search reports, all zero
    (the BSP wave of :func:`~repro.hpo.scheduler.run_parallel` fills the
    same dict, so sync and async ledgers compare key for key)."""
    return {
        "failures": 0, "retries": 0, "giveups": 0, "quarantined": 0,
        "workers_lost": 0, "workers_killed": 0, "reclaims": 0,
        "duplicate_acks": 0, "replayed": 0, "resumed": False, "aborted": False,
        "busy_s": 0.0,  # real clock: worker-measured execution seconds
        "faults": Counter(),  # drawn from the schedule, by kind
    }


def screen(value: float, stats: Dict, rec, trial: int, source: str = "objective") -> float:
    """NaN objective values (``source="injected"``: a NaN fault) are
    penalized, never propagated: a diverged trial must not crash the
    campaign or poison the strategy's model."""
    if np.isnan(value):
        stats["quarantined"] += 1
        if rec is not None:
            rec.event("quarantine", kind="hpo.quarantine", trial=trial, source=source)
        return float("inf")
    return value


@dataclass
class _Search:
    """The steps of the asynchronous loop that do not depend on the clock.

    The clock's driver sets ``now`` (the lease clock) and ``stamp`` (a
    trial's ``sim_time``) to zero-argument callables before the first
    step: both read the event clock in sim mode; in real mode they are
    ``time.time`` and seconds since the pool came up.  Every step runs
    inside a :meth:`group`.
    """

    strategy: Strategy
    q: DurableTrialQueue
    n_trials: int
    max_retries: int
    faults: Optional[FaultSchedule]
    stop_after: Optional[int]
    sugs: Dict[int, Suggestion]
    log: ResultLog
    rec: object
    completed_new: int = 0
    now: Optional[Callable[[], float]] = None
    stamp: Optional[Callable[[], float]] = None
    n_jobs: int = 0  # the queue's job count, kept current inside a group
    n_done: int = 0  # … and its done count

    @property
    def stats(self) -> Dict:
        return self.log.stats

    @property
    def stopped(self) -> bool:
        return self.stop_after is not None and self.completed_new >= self.stop_after

    @contextmanager
    def group(self) -> Iterator[None]:
        """One queue transaction around a run of steps.  The counts are
        read once when it opens: inside it the driver holds the write
        lock, so its own enqueues and acks are the only changes, and
        :meth:`next_job` and :meth:`finish` count them."""
        with self.q.transaction():
            counts = self.q.counts()
            self.n_jobs, self.n_done = sum(counts.values()), counts[DONE]
            yield

    def fault(self, job: ClaimedJob) -> Optional[str]:
        """The scheduled fault of this attempt, drawn once per attempt and
        counted in the ledger."""
        if self.faults is None:
            return None
        kind = self.faults.draw("trial", job.job_id - 1, job.attempts - 1)
        if kind is not None:
            record(kind, self.stats["faults"])
        return kind

    def next_job(self, owner: str, worker: int) -> Optional[ClaimedJob]:
        """A job for one free consumer: claim first (pending jobs and
        expired leases), ask the strategy for fresh work only when the
        queue has nothing runnable.  None when the strategy stalled
        (completions will unblock it) or everything is launched."""
        q, stats, rec = self.q, self.stats, self.rec
        while True:
            job = q.claim(owner, now=self.now())
            if job is None:
                if self.n_jobs >= self.n_trials:
                    return None
                sug = self.strategy.ask()
                if sug is None:
                    return None
                self.sugs[q.enqueue(sug.config, sug.budget, sug.tag)] = sug
                self.n_jobs += 1
                continue
            if job.attempts > self.max_retries + 1:
                # Poison job: failed or orphaned on every allowed attempt.
                # The driver completes it as inf so the exactly-once
                # invariant (every job ends done) survives give-up.
                stats["giveups"] += 1
                if rec is not None:
                    rec.event("retries_exhausted", kind="hpo.giveup",
                              trial=job.job_id - 1, attempts=job.attempts - 1)
                self.finish(job, "driver", float("inf"), -1)
                continue
            if job.attempts > 1:
                stats["retries"] += 1
                if rec is not None:
                    rec.event("retry", kind="hpo.retry", trial=job.job_id - 1,
                              attempt=job.attempts - 1, worker=worker)
            return job

    def fail(self, job: ClaimedJob, owner: str) -> None:
        """The one CRASH rule: the attempt is counted and the job goes
        back to pending; :meth:`next_job` retries it or gives up."""
        self.stats["failures"] += 1
        self.q.requeue(job.job_id, owner)

    def renew(self, job: ClaimedJob, owner: str) -> None:
        """Heartbeat of a live consumer: a claim still being worked on
        whose lease has run out is renewed before anyone can reclaim it."""
        now = self.now()
        if job.lease_expires <= now:
            self.q.extend_lease(job.job_id, owner, now)
            job.lease_expires = now + self.q.lease_s

    def finish(self, job: ClaimedJob, owner: str, value: float, worker: int) -> bool:
        """Ack, then settle: only the ack that completed the job tells
        the strategy and logs the trial (a duplicate changes nothing)."""
        stamp = self.stamp()
        if not self.q.ack(job.job_id, owner, value, sim_time=stamp, worker=worker):
            return False
        self.n_done += 1
        sug = self.sugs[job.job_id]
        self.strategy.tell(sug, value)
        self.log.add(Trial(trial_id=job.job_id - 1, config=sug.config, value=value,
                           budget=job.budget, sim_time=stamp, worker=worker))
        self.completed_new += 1
        return True


def run_elastic(
    strategy: Strategy,
    objective,
    n_trials: int,
    queue: Union[DurableTrialQueue, str, Path],
    n_workers: int,
    cost_model=None,
    executor=None,
    lease_s: Optional[float] = None,
    max_retries: int = 3,
    faults: Optional[FaultSchedule] = None,
    worker_plan: Optional[WorkerPlan] = None,
    stop_after: Optional[int] = None,
) -> ResultLog:
    """Run (or resume) an elastic search campaign over a durable queue.

    ``queue`` is a :class:`DurableTrialQueue`, the path of one, or
    ``":memory:"`` for a ledger that lives and dies with this call.  If
    it already holds events, the call is a **resume**: ``strategy`` must
    be a fresh instance with the original seed; its state is rebuilt by
    replay before any new work is scheduled, and previously completed
    trials appear in the returned log exactly as they were recorded.

    Claims are leased for the queue's own ``lease_s``.  ``lease_s=``
    sets it for a queue this call builds from a path (default 60 s); a
    queue object already has one, so passing both is a ``ValueError``.

    ``faults`` schedules trial crashes, NaNs and stragglers, permanent
    worker losses and (simulated clock) consumer kills.

    ``stop_after`` aborts the campaign after that many *newly* acked
    completions — the test/bench hook that simulates a driver crash
    (claims are left behind exactly as a real kill would leave them).

    Returns the :class:`ResultLog`; ``log.stats`` carries the ledger
    (claims, reclaims, kills, duplicate acks, give-ups, …).
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    owns_queue = not isinstance(queue, DurableTrialQueue)
    if owns_queue:
        q = DurableTrialQueue(queue, lease_s=60.0 if lease_s is None else lease_s)
    elif lease_s is not None:
        raise ValueError("lease_s belongs to the queue object: set it on the DurableTrialQueue")
    else:
        q = queue

    log = ResultLog()
    stats = log.stats
    stats.update(new_ledger())
    rec = get_recorder()

    try:
        sugs = replay_into(q, strategy, log)
        if sugs:
            stats["resumed"] = True
            stats["replayed"] = len(log)
            if rec is not None:
                rec.event("resume", kind="hpo.resume", replayed=len(log))
        search = _Search(strategy, q, n_trials, max_retries, faults, stop_after,
                         sugs, log, rec)
        if executor is not None:
            _run_real(search, objective, n_workers, executor, worker_plan)
        else:
            _run_sim(search, objective, n_workers, cost_model, worker_plan)
        stats["reclaims"] += q.stats["reclaims"]
        stats["duplicate_acks"] += q.stats["duplicate_acks"]
        return log
    finally:
        if owns_queue:
            q.close()


# ----------------------------------------------------------------------
# Simulated clock
# ----------------------------------------------------------------------
def _run_sim(s: _Search, objective, n_workers, cost_model, worker_plan) -> None:
    from .scheduler import constant_cost

    q, stats, rec, faults, lease_s = s.q, s.stats, s.rec, s.faults, s.q.lease_s
    cost = cost_model or constant_cost()
    straggler_factor = faults.straggler_factor if faults is not None else 1.0

    clock = float(q.meta_get("sim_now", 0.0))
    s.now = s.stamp = lambda: clock
    prev_sim_clock = rec.sim_clock if rec is not None else None
    if rec is not None:
        rec.sim_clock = s.now

    # Worker slots: wid -> incarnation; busy slots tracked via events.
    slots: Dict[int, int] = {wid: 0 for wid in range(n_workers)}
    idle = set(slots)
    leaving: set = set()
    next_wid = n_workers
    seq = 0
    # Event heap: (time, seq, kind, payload).  Kinds: "done" a consumer
    # finished its attempt (the payload carries the attempt's fault);
    # "respawn" a killed slot rejoins; "plan" elastic membership change.
    heap: List[Tuple[float, int, str, object]] = []
    # Claims whose trial outlives lease_s: job_id -> (owner, job, time
    # the consumer stops working on it).  Nothing else needs a heartbeat.
    long_running: Dict[int, Tuple[str, ClaimedJob, float]] = {}

    def push(t: float, kind: str, payload) -> None:
        nonlocal seq
        heapq.heappush(heap, (t, seq, kind, payload))
        seq += 1

    def resize(delta: int, injected: bool, past: bool = False) -> None:
        """``delta`` workers join, or ``-delta`` leave for good: an idle
        one at once, a busy one after its current trial.  An injected
        loss never takes the last worker.  ``past`` re-applies a change
        a previous driver already applied and reported."""
        nonlocal next_wid
        for _ in range(delta):
            slots[next_wid] = 0
            idle.add(next_wid)
            next_wid += 1
        for _ in range(-delta):
            if injected and len(slots) - len(leaving) <= 1:
                break
            if idle:
                wid = min(idle)
                idle.discard(wid)
                del slots[wid]
            elif slots.keys() - leaving:
                leaving.add(min(slots.keys() - leaving))
            else:
                break
            if not past:
                stats["workers_lost"] += 1
                if injected:
                    record(WORKER_LOSS, stats["faults"])
        if rec is not None and not past:
            rec.event("workers_joined" if delta > 0 else "workers_left",
                      kind="hpo.elastic", n=abs(delta))

    changes = [(t, delta, False) for t, delta in (worker_plan.sim if worker_plan else ())]
    if faults is not None:
        changes += [(t, -1, True) for t in faults.worker_loss_times]
    for t, delta, injected in sorted(changes):
        if t <= clock:
            # Resume: this change fired before the previous driver died.
            resize(delta, injected, past=True)
        else:
            push(t, "plan", (delta, injected))

    def consumer(wid: int) -> str:
        return f"c{wid}.{slots[wid]}"

    def release(wid: int, respawned: bool = False) -> None:
        """A slot is free again — unless it was told to leave."""
        if wid in leaving:
            leaving.discard(wid)
            del slots[wid]
        elif wid in slots:
            if respawned:
                slots[wid] += 1  # fresh consumer identity
            idle.add(wid)

    def fill() -> None:
        """Give every idle worker a job."""
        for job_id, (owner, job, until) in list(long_running.items()):
            if clock > until:
                del long_running[job_id]
            else:
                s.renew(job, owner)
        for wid in sorted(idle):
            job = s.next_job(consumer(wid), wid)
            if job is None:
                return
            start(wid, job, clock)

    def start(wid: int, job: ClaimedJob, at: float) -> None:
        idle.discard(wid)
        boundary = faults.draw("consumer", job.job_id, job.attempts) if faults is not None else None
        if boundary == KILL_AFTER_CLAIM:
            kill(wid, job, at, burned=0.0)
            return
        kind = s.fault(job)
        duration = cost(job.config, job.budget)
        if kind == STRAGGLER:
            duration *= straggler_factor
        if duration > lease_s:
            long_running[job.job_id] = (consumer(wid), job, at + duration)
        if boundary == KILL_BEFORE_ACK:
            kill(wid, job, at, burned=duration)
        else:
            push(at + duration, "done", (wid, job, duration, kind))

    def kill(wid: int, job: ClaimedJob, at: float, burned: float) -> None:
        """The consumer dies holding its claim; the slot respawns later
        as a fresh consumer.  The orphaned lease expires on its own."""
        stats["workers_killed"] += 1
        if rec is not None:
            rec.event("consumer_killed", kind="hpo.kill",
                      trial=job.job_id - 1, attempt=job.attempts,
                      worker=wid, burned_sim=burned)
        push(at + burned + RESPAWN_DELAY_S, "respawn", wid)

    def evaluate(wid: int, job: ClaimedJob, duration: float) -> float:
        trial = job.job_id - 1
        if rec is not None:
            span_id = rec.begin("trial", kind="hpo.trial", trial=trial,
                                attempt=job.attempts - 1, worker=wid, budget=job.budget)
        value = screen(float(objective(job.config, job.budget)), stats, rec, trial)
        if rec is not None:
            span = rec.end(span_id, value=value)
            # The objective runs when its completion event pops; on the
            # sim clock the trial held its worker for the `duration`
            # before that instant.
            span["t_sim"], span["dur_sim"] = clock - duration, duration
        return value

    # Resume: restore the previous driver's in-flight claims as running
    # work.  Each claim records when it started, and durations recompute
    # from the same deterministic cost model, so the reconstructed event
    # heap — and therefore the ask/tell interleaving from here on —
    # continues exactly as the uninterrupted run would have.  Claims
    # whose owner is not a sim-mode consumer (e.g. a real-clock
    # incarnation) are requeued and simply re-run.
    inflight: Dict[int, List[Tuple[int, object]]] = {}
    for row in (q.jobs() if stats["resumed"] else ()):
        if row.status != "claimed":
            continue
        parsed = _parse_consumer(row.owner)
        if parsed is None or row.claimed_at is None:
            q.requeue(row.job_id, row.owner)
            continue
        wid, incarnation = parsed
        inflight.setdefault(wid, []).append((incarnation, row))
    # Only a slot's newest incarnation holds live work.  An older
    # incarnation's claim is the orphaned lease of a consumer that was
    # killed *and already respawned* (the newer incarnation proves it) —
    # restarting it too would double-book the slot.  The orphan's
    # persisted lease expires on its own, exactly as it would have in
    # the uninterrupted run.
    live = [(max(incs, key=lambda pair: pair[0]), wid)
            for wid, incs in inflight.items()]
    # Replay in (claimed_at, job_id) order — the order the original
    # driver created these events (claims at one instant are taken
    # oldest-job-first) — so heap ties at equal times pop exactly as
    # they would have.
    live.sort(key=lambda item: (item[0][1].claimed_at, item[0][1].job_id))
    for (incarnation, row), wid in live:
        if wid not in slots:
            slots[wid] = 0
            idle.add(wid)
            next_wid = max(next_wid, wid + 1)
        slots[wid] = max(slots[wid], incarnation)
        start(wid, ClaimedJob(
            job_id=row.job_id, config=row.config, budget=row.budget,
            tag=row.tag, attempts=row.attempts,
            lease_expires=row.lease_expires,
        ), at=row.claimed_at)

    def search() -> Iterator[bool]:
        """The loop: fill, pop the next event, settle it, fill again.
        It yields at every tick boundary — right before the clock
        moves — so the caller can commit the tick there."""
        nonlocal clock
        while s.n_done < s.n_trials:
            fill()
            if s.stopped:
                stats["aborted"] = True
                return
            if not heap:
                expiry = q.next_lease_expiry()
                if expiry is None:
                    return  # strategy exhausted/stalled with nothing in flight
                if expiry > clock:
                    yield True
                clock = max(clock, expiry)
                reclaimed = q.reclaim_expired(clock)
                if rec is not None and reclaimed:
                    rec.event("lease_reclaim", kind="hpo.reclaim",
                              jobs=len(reclaimed), sim_time=clock)
                if not idle:
                    return  # no live workers left to run the reclaimed jobs
                continue
            if heap[0][0] > clock:
                yield True
            t, _, kind, payload = heapq.heappop(heap)
            clock = max(clock, t)
            if kind == "done":
                wid, job, duration, fault = payload
                if fault == CRASH:
                    s.fail(job, consumer(wid))
                else:
                    value = (screen(float("nan"), stats, rec, job.job_id - 1, "injected")
                             if fault == NAN else evaluate(wid, job, duration))
                    s.finish(job, consumer(wid), value, wid)
                release(wid)
            elif kind == "respawn":
                release(payload, respawned=True)
            else:
                resize(*payload)

    # One group per tick: every event at one sim time and the fills
    # between them commit together.  Only the commit boundaries move;
    # the calls, and so the event log, come in the loop's own order.
    ticks = search()
    try:
        while True:
            with s.group():
                if not next(ticks, False):
                    q.meta_set("sim_now", clock)
                    break
    finally:
        if rec is not None:
            rec.sim_clock = prev_sim_clock


# ----------------------------------------------------------------------
# Real clock (process workers via ParallelTrialExecutor)
# ----------------------------------------------------------------------
def _run_real(s: _Search, objective, n_workers, executor, worker_plan) -> None:
    q, stats, rec = s.q, s.stats, s.rec
    if getattr(executor, "n_workers", n_workers) != n_workers:
        raise ValueError(
            f"executor has {executor.n_workers} workers but the search "
            f"was asked for {n_workers}"
        )
    if stats["resumed"]:
        # Wall clock moved on while the driver was down — in-flight work
        # cannot be restored mid-trial; return it to pending and re-run.
        q.reset_claims()
    executor.start(objective)
    # The campaign clock starts once the pool is up: trial sim_times
    # measure search progress, not process fork/import time.
    t0 = time.perf_counter()
    s.now, s.stamp = time.time, lambda: time.perf_counter() - t0
    plan = sorted(worker_plan.real) if worker_plan is not None else []
    active = n_workers
    inflight: Dict[int, Tuple[int, ClaimedJob]] = {}  # task_id -> (slot, job)
    res = None  # the result the next group settles first

    try:
        while True:
            # One group per result: settle it, renew the leases, fill the
            # free slots.  The wait for the next result is outside any
            # group, so the write lock is never held while a worker runs.
            with s.group():
                if res is not None:
                    slot, job = inflight.pop(res.task_id)
                    owner = f"w{slot}"
                    if res.status != "ok":
                        if res.status == "died":
                            stats["workers_lost"] += 1  # the pool respawned it
                        s.fail(job, owner)
                    else:
                        stats["busy_s"] += res.duration_s
                        value = screen(float(res.value), stats, rec, job.job_id - 1)
                        if s.finish(job, owner, value, res.worker) and rec is not None:
                            rec.add_complete(
                                "trial", kind="hpo.trial", dur_wall=res.duration_s,
                                trial=job.job_id - 1, attempt=job.attempts - 1,
                                worker=res.worker, budget=job.budget,
                                mode="process", value=value,
                            )
                    res = None
                    if s.stopped:
                        stats["aborted"] = True
                        return
                if s.n_done >= s.n_trials:
                    return
                for threshold, n_active in plan:
                    if s.completed_new + stats["replayed"] >= threshold:
                        active = max(1, min(n_active, n_workers))
                for slot, job in inflight.values():
                    s.renew(job, f"w{slot}")
                # Fill free executor slots from the queue.  Injected faults
                # are applied parent-side before dispatch; STRAGGLER means
                # nothing without a simulated clock.
                while len(inflight) < active:
                    slot = len(inflight)  # logical consumer slot
                    owner = f"w{slot}"
                    job = s.next_job(owner, slot)
                    if job is None:
                        break
                    kind = s.fault(job)
                    if kind == CRASH:
                        s.fail(job, owner)
                    elif kind == NAN:
                        value = screen(float("nan"), stats, rec, job.job_id - 1, "injected")
                        s.finish(job, owner, value, slot)
                    else:
                        inflight[executor.submit(job.config, job.budget)] = (slot, job)
                if not inflight:
                    if q.counts()["claimed"] == 0:
                        return  # exhausted/stalled with nothing outstanding
                    q.reclaim_expired(time.time())
                    continue
            res = executor.next_result()
    finally:
        executor.shutdown()
