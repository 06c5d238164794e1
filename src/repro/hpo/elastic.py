"""Elastic, durable search campaigns over the on-disk trial queue.

:func:`run_elastic` drives a strategy through a
:class:`~repro.hpo.queue.DurableTrialQueue`: the driver asks the
strategy and enqueues jobs; consumers claim jobs under a lease,
evaluate the objective, and ack exactly once.  Because every state
transition is a durable queue transaction, the campaign survives the
death of anything:

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

Two clocks, one code path, mirroring :func:`repro.hpo.scheduler.run_parallel`:

* **simulated** (default): trial durations come from a cost model and a
  deterministic event loop advances the clock — 10^4-trial campaigns,
  seeded kill schedules, and hypothesis crash-replay tests run in
  seconds, bit-reproducibly;
* **real** (``executor=``): trials run on the
  :class:`~repro.parallel.ParallelTrialExecutor` process pool; the
  queue sees wall-clock leases and real worker deaths.

Fault semantics match the rest of the repo: an injected or real CRASH
burns the attempt and the trial retries (up to ``max_retries``, then
completes as ``inf`` — the give-up path keeps the exactly-once
invariant: every enqueued job ends ``done``), NaN objective values are
quarantined to ``inf``, and every kill/reclaim/give-up lands on the
obs timeline when a recorder is attached.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..obs.context import get_recorder
from ..resilience.faults import CRASH, NAN, STRAGGLER, FaultInjector
from .queue import ClaimedJob, DurableTrialQueue
from .results import ResultLog, Trial
from .space import Config
from .strategies.base import Strategy, Suggestion

__all__ = [
    "KillPlan", "WorkerPlan", "ElasticReplayError", "run_elastic", "replay_into",
]

KILL_AFTER_CLAIM = "claim"  # consumer dies right after claiming, before evaluating
KILL_BEFORE_ACK = "ack"     # consumer dies after evaluating, before acking


class ElasticReplayError(RuntimeError):
    """The strategy did not reproduce the recorded ask sequence — the
    determinism contract a resumable campaign depends on is broken."""


@dataclass
class KillPlan:
    """A deterministic consumer-kill schedule for the simulated clock.

    ``kills`` maps ``(job_id, attempt)`` (attempt is 1-based: the n-th
    execution of that job) to a boundary: ``"claim"`` kills the
    consumer immediately after its claim transaction commits (the trial
    never runs), ``"ack"`` kills it after the evaluation finishes but
    before the ack lands (the classic lost-completion window).  Either
    way the claim is orphaned until its lease expires.  The killed
    worker slot respawns ``respawn_delay`` simulated seconds later as a
    fresh consumer.
    """

    kills: Dict[Tuple[int, int], str] = field(default_factory=dict)
    respawn_delay: float = 1.0

    def __post_init__(self) -> None:
        for key, boundary in self.kills.items():
            if boundary not in (KILL_AFTER_CLAIM, KILL_BEFORE_ACK):
                raise ValueError(f"unknown kill boundary {boundary!r} for {key}")

    def boundary(self, job_id: int, attempt: int) -> Optional[str]:
        return self.kills.get((job_id, attempt))


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


def _quarantine(value: float, stats: Dict[str, int], rec, trial: int) -> float:
    if np.isnan(value):
        stats["quarantined"] += 1
        if rec is not None:
            rec.event("quarantine", kind="hpo.quarantine", trial=trial, source="objective")
        return float("inf")
    return value


def run_elastic(
    strategy: Strategy,
    objective,
    n_trials: int,
    queue: Union[DurableTrialQueue, str, Path],
    n_workers: int,
    cost_model=None,
    executor=None,
    lease_s: float = 60.0,
    max_retries: int = 3,
    injector: Optional[FaultInjector] = None,
    kill_plan: Optional[KillPlan] = None,
    worker_plan: Optional[WorkerPlan] = None,
    stop_after: Optional[int] = None,
) -> ResultLog:
    """Run (or resume) an elastic search campaign over a durable queue.

    If ``queue`` (or the path it names) already holds events, the call
    is a **resume**: ``strategy`` must be a fresh instance with the
    original seed; its state is rebuilt by replay before any new work
    is scheduled, and previously completed trials appear in the
    returned log exactly as they were recorded.

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
    q = DurableTrialQueue(queue, lease_s=lease_s) if owns_queue else queue

    log = ResultLog()
    stats = log.stats
    stats.update({
        "failures": 0, "retries": 0, "quarantined": 0, "workers_lost": 0,
        "workers_killed": 0, "reclaims": 0, "duplicate_acks": 0,
        "giveups": 0, "replayed": 0, "resumed": False, "aborted": False,
        "busy_s": 0.0,  # real mode: worker-measured execution seconds
    })
    rec = get_recorder()

    try:
        sugs = replay_into(q, strategy, log)
        if sugs:
            stats["resumed"] = True
            stats["replayed"] = len(log)
            if rec is not None:
                rec.event("resume", kind="hpo.resume", replayed=len(log))
        if executor is not None:
            _run_real(strategy, objective, n_trials, q, n_workers, executor,
                      lease_s, max_retries, injector, worker_plan, stop_after,
                      sugs, log, stats, rec)
        else:
            _run_sim(strategy, objective, n_trials, q, n_workers, cost_model,
                     lease_s, max_retries, injector, kill_plan, worker_plan,
                     stop_after, sugs, log, stats, rec)
        stats["reclaims"] += q.stats["reclaims"]
        stats["duplicate_acks"] += q.stats["duplicate_acks"]
        return log
    finally:
        if owns_queue:
            q.close()


# ----------------------------------------------------------------------
# Simulated clock
# ----------------------------------------------------------------------
def _run_sim(
    strategy, objective, n_trials, q, n_workers, cost_model, lease_s,
    max_retries, injector, kill_plan, worker_plan, stop_after,
    sugs, log, stats, rec,
) -> None:
    from .scheduler import constant_cost

    cost = cost_model or constant_cost()
    kill_plan = kill_plan or KillPlan()
    straggler_factor = injector.spec.straggler_factor if injector is not None else 1.0

    clock = float(q.meta_get("sim_now", 0.0))
    prev_sim_clock = rec.sim_clock if rec is not None else None
    if rec is not None:
        rec.sim_clock = lambda: clock

    # Worker slots: wid -> incarnation; busy slots tracked via events.
    slots: Dict[int, int] = {wid: 0 for wid in range(n_workers)}
    idle = set(slots)
    leaving: set = set()
    next_wid = n_workers
    seq = 0
    # Event heap: (time, seq, kind, payload).  Kinds: "done" a consumer
    # finished evaluating and will ack; "dead" a consumer dies without
    # acking (kill at the ack boundary); "respawn" a killed slot
    # rejoins; "plan" elastic membership change.
    heap: List[Tuple[float, int, str, object]] = []

    def push(t: float, kind: str, payload) -> None:
        nonlocal seq
        heapq.heappush(heap, (t, seq, kind, payload))
        seq += 1

    plan_events = sorted(worker_plan.sim) if worker_plan is not None else []
    if injector is not None:
        plan_events = sorted(plan_events + [(t, -1) for t in injector.worker_loss_times])
    for t, delta in plan_events:
        if t <= clock:
            # Resume: this membership change fired before the previous
            # driver died — re-apply it so the pool size is right.
            if delta > 0:
                for _ in range(delta):
                    slots[next_wid] = 0
                    idle.add(next_wid)
                    next_wid += 1
            else:
                for _ in range(-delta):
                    if idle:
                        wid = min(idle)
                        idle.discard(wid)
                        slots.pop(wid)
        else:
            push(t, "plan", delta)

    def consumer(wid: int) -> str:
        return f"c{wid}.{slots[wid]}"

    completed_new = 0

    def fault(job) -> Optional[str]:
        if injector is None:
            return None
        return injector.trial_fault(job.job_id - 1, job.attempts - 1)

    def try_fill() -> None:
        """Give every idle worker a job: claim first (pending + expired
        leases), ask the strategy for fresh work only when the queue has
        nothing runnable."""
        nonlocal clock
        for wid in sorted(idle):
            while True:
                job = q.claim(consumer(wid), now=clock, lease_s=lease_s)
                if job is None:
                    if q.n_jobs < n_trials:
                        sug = strategy.ask()
                        if sug is None:
                            return  # stalled; completions will unblock
                        jid = q.enqueue(sug.config, sug.budget, sug.tag)
                        sugs[jid] = sug
                        continue
                    return  # everything launched; nothing runnable
                if job.attempts > max_retries + 1:
                    # Poison job: crashed on every allowed attempt.  The
                    # driver completes it as inf so the exactly-once
                    # invariant (every job ends done) survives give-up.
                    stats["giveups"] += 1
                    if rec is not None:
                        rec.event("retries_exhausted", kind="hpo.giveup",
                                  trial=job.job_id - 1, attempts=job.attempts)
                    if q.ack(job.job_id, "driver", float("inf"),
                             now=clock, sim_time=clock, worker=-1):
                        _settle(job, float("inf"), -1)
                    continue  # this worker is still idle; next job
                _start(wid, job)
                break

    def _start(wid: int, job, at: Optional[float] = None) -> None:
        at = clock if at is None else at
        idle.discard(wid)
        boundary = kill_plan.boundary(job.job_id, job.attempts)
        kind = fault(job)
        duration = cost(job.config, job.budget)
        if kind == STRAGGLER:
            duration *= straggler_factor
        if job.attempts > 1:
            stats["retries"] += 1
            if rec is not None:
                rec.event("retry", kind="hpo.retry",
                          trial=job.job_id - 1, attempt=job.attempts - 1, worker=wid)
        if boundary == KILL_AFTER_CLAIM:
            _kill(wid, job, at, burned=0.0)
        elif boundary == KILL_BEFORE_ACK or kind == CRASH:
            if kind == CRASH:
                stats["failures"] += 1
            _kill(wid, job, at, burned=duration)
        else:
            push(at + duration, "done", (wid, job, duration))

    def _kill(wid: int, job, at: float, burned: float) -> None:
        """The consumer dies holding its claim; the slot respawns later
        as a fresh consumer.  The orphaned lease expires on its own."""
        stats["workers_killed"] += 1
        if rec is not None:
            rec.event("consumer_killed", kind="hpo.kill",
                      trial=job.job_id - 1, attempt=job.attempts,
                      worker=wid, burned_sim=burned)
        push(at + burned + kill_plan.respawn_delay, "respawn", wid)

    def _settle(job, value: float, wid: int) -> None:
        nonlocal completed_new
        sug = sugs[job.job_id]
        strategy.tell(sug, value)
        log.add(Trial(trial_id=job.job_id - 1, config=sug.config, value=value,
                      budget=job.budget, sim_time=clock, worker=wid))
        completed_new += 1

    # Resume: restore the previous driver's in-flight claims as running
    # work.  Each claim records when it started, and durations recompute
    # from the same deterministic cost model, so the reconstructed event
    # heap — and therefore the ask/tell interleaving from here on —
    # continues exactly as the uninterrupted run would have.  Claims
    # whose owner is not a sim-mode consumer (e.g. a real-clock
    # incarnation) are requeued and simply re-run.
    inflight: Dict[int, List[Tuple[int, object]]] = {}
    for record in (q.jobs() if stats["resumed"] else ()):
        if record.status != "claimed":
            continue
        parsed = _parse_consumer(record.owner)
        if parsed is None or record.claimed_at is None:
            q.requeue(record.job_id, record.owner)
            continue
        wid, incarnation = parsed
        inflight.setdefault(wid, []).append((incarnation, record))
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
    for (incarnation, record), wid in live:
        if wid not in slots:
            slots[wid] = 0
            idle.add(wid)
            next_wid = max(next_wid, wid + 1)
        slots[wid] = max(slots[wid], incarnation)
        _start(wid, ClaimedJob(
            job_id=record.job_id, config=record.config, budget=record.budget,
            tag=record.tag, attempts=record.attempts,
            lease_expires=record.lease_expires,
        ), at=record.claimed_at)

    try:
        while q.n_done < n_trials:
            try_fill()
            if stop_after is not None and completed_new >= stop_after:
                stats["aborted"] = True
                q.meta_set("sim_now", clock)
                return
            if not heap:
                expiry = q.next_lease_expiry()
                if expiry is None:
                    break  # strategy exhausted/stalled with nothing in flight
                clock = max(clock, expiry)
                reclaimed = q.reclaim_expired(clock)
                if rec is not None and reclaimed:
                    rec.event("lease_reclaim", kind="hpo.reclaim",
                              jobs=len(reclaimed), sim_time=clock)
                if not idle:
                    break  # no live workers left to run the reclaimed jobs
                continue
            t, _, kind, payload = heapq.heappop(heap)
            clock = max(clock, t)
            if kind == "done":
                wid, job, duration = payload
                if fault(job) == NAN:
                    value = float("inf")
                    stats["quarantined"] += 1
                    if rec is not None:
                        rec.event("quarantine", kind="hpo.quarantine",
                                  trial=job.job_id - 1, source="injected")
                else:
                    value = _quarantine(
                        float(objective(job.config, job.budget)), stats, rec,
                        job.job_id - 1,
                    )
                if q.ack(job.job_id, consumer(wid), value,
                         now=clock, sim_time=clock, worker=wid):
                    if rec is not None:
                        rec.add_complete(
                            "trial", kind="hpo.trial", dur_wall=0.0,
                            t_sim=clock - duration, dur_sim=duration,
                            trial=job.job_id - 1, attempt=job.attempts - 1,
                            worker=wid, budget=job.budget, value=value,
                        )
                    _settle(job, value, wid)
                if wid in leaving:
                    leaving.discard(wid)
                    slots.pop(wid, None)
                    stats["workers_lost"] += 1
                else:
                    idle.add(wid)
            elif kind == "respawn":
                wid = payload
                if wid in leaving:
                    leaving.discard(wid)
                    slots.pop(wid, None)
                    stats["workers_lost"] += 1
                elif wid in slots:
                    slots[wid] += 1  # fresh consumer identity
                    idle.add(wid)
            elif kind == "plan":
                delta = payload
                if delta > 0:
                    for _ in range(delta):
                        slots[next_wid] = 0
                        idle.add(next_wid)
                        next_wid += 1
                    if rec is not None:
                        rec.event("workers_joined", kind="hpo.elastic", n=delta)
                else:
                    for _ in range(-delta):
                        if idle:
                            wid = min(idle)
                            idle.discard(wid)
                            slots.pop(wid, None)
                            stats["workers_lost"] += 1
                        elif slots.keys() - leaving:
                            leaving.add(min(slots.keys() - leaving))
                    if rec is not None:
                        rec.event("workers_left", kind="hpo.elastic", n=-delta)
        q.meta_set("sim_now", clock)
    finally:
        if rec is not None:
            rec.sim_clock = prev_sim_clock


# ----------------------------------------------------------------------
# Real clock (process workers via ParallelTrialExecutor)
# ----------------------------------------------------------------------
def _run_real(
    strategy, objective, n_trials, q, n_workers, executor, lease_s,
    max_retries, injector, worker_plan, stop_after, sugs, log, stats, rec,
) -> None:
    if getattr(executor, "n_workers", n_workers) != n_workers:
        raise ValueError(
            f"executor has {executor.n_workers} workers but run_elastic "
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
    wall = lambda: time.perf_counter() - t0  # noqa: E731
    plan = sorted(worker_plan.real) if worker_plan is not None else []
    active = n_workers
    inflight: Dict[int, Tuple[int, object]] = {}  # task_id -> (slot, job)
    completed_new = 0

    def fault(job) -> Optional[str]:
        if injector is None:
            return None
        kind = injector.trial_fault(job.job_id - 1, job.attempts - 1)
        return None if kind == STRAGGLER else kind

    def settle(job, value: float, worker: int) -> None:
        nonlocal completed_new
        sug = sugs[job.job_id]
        strategy.tell(sug, value)
        log.add(Trial(trial_id=job.job_id - 1, config=sug.config, value=value,
                      budget=job.budget, sim_time=wall(), worker=worker))
        completed_new += 1

    def crash_or_giveup(job, slot: int) -> None:
        """One real attempt failed: requeue for retry, or give up."""
        name = f"w{slot}"
        if job.attempts > max_retries:
            if q.ack(job.job_id, name, float("inf"), sim_time=wall(), worker=slot):
                stats["giveups"] += 1
                if rec is not None:
                    rec.event("retries_exhausted", kind="hpo.giveup",
                              trial=job.job_id - 1, attempts=job.attempts)
                settle(job, float("inf"), slot)
        else:
            q.requeue(job.job_id, name)
            stats["retries"] += 1
            if rec is not None:
                rec.event("retry", kind="hpo.retry",
                          trial=job.job_id - 1, attempt=job.attempts, worker=slot)

    try:
        while q.n_done < n_trials:
            for threshold, n_active in plan:
                if completed_new + stats["replayed"] >= threshold:
                    active = max(1, min(n_active, n_workers))
            # Fill free executor slots from the queue.
            while len(inflight) < active:
                slot = len(inflight)  # logical consumer slot
                name = f"w{slot}"
                job = q.claim(name, lease_s=lease_s)
                if job is None:
                    if q.n_jobs < n_trials:
                        sug = strategy.ask()
                        if sug is None:
                            break
                        jid = q.enqueue(sug.config, sug.budget, sug.tag)
                        sugs[jid] = sug
                        continue
                    break
                kind = fault(job)
                if kind == CRASH:
                    stats["failures"] += 1
                    crash_or_giveup(job, slot)
                    continue
                if kind == NAN:
                    stats["quarantined"] += 1
                    if rec is not None:
                        rec.event("quarantine", kind="hpo.quarantine",
                                  trial=job.job_id - 1, source="injected")
                    if q.ack(job.job_id, name, float("inf"), sim_time=wall(), worker=slot):
                        settle(job, float("inf"), slot)
                    continue
                task_id = executor.submit(job.config, job.budget)
                inflight[task_id] = (slot, job)
            if not inflight:
                if q.counts()["claimed"] == 0:
                    break  # exhausted/stalled with nothing outstanding
                q.reclaim_expired(time.time())
                continue
            res = executor.next_result()
            slot, job = inflight.pop(res.task_id)
            name = f"w{slot}"
            if res.status != "ok":
                if res.status == "died":
                    stats["workers_lost"] += 1  # the pool respawned it
                stats["failures"] += 1
                crash_or_giveup(job, slot)
            else:
                stats["busy_s"] += res.duration_s
                value = _quarantine(float(res.value), stats, rec, job.job_id - 1)
                if q.ack(job.job_id, name, value, sim_time=wall(), worker=res.worker):
                    if rec is not None:
                        rec.add_complete(
                            "trial", kind="hpo.trial", dur_wall=res.duration_s,
                            trial=job.job_id - 1, attempt=job.attempts - 1,
                            worker=res.worker, budget=job.budget,
                            mode="process", value=value,
                        )
                    settle(job, value, res.worker)
            if stop_after is not None and completed_new >= stop_after:
                stats["aborted"] = True
                return
    finally:
        executor.shutdown()
