"""Search drivers: sequential, and parallel (search parallelism).

:func:`run_parallel` runs a strategy on ``n_workers`` workers with a
per-trial *simulated duration* from a cost model — so E6 can measure
time-to-accuracy against worker count, sync vs async, on any simulated
cluster without burning real compute.  The asynchronous regime is not
written here: it is one call into the queue-driven runtime
(:func:`repro.hpo.elastic.run_elastic`), over a ledger in memory or on
disk, on the simulated or the real clock.  The bulk-synchronous wave
(``sync=True``) is the one policy written separately, because E6
studies it and its barrier times are the reference the tests pin.

Both regimes degrade gracefully under the
:class:`repro.resilience.FaultSchedule`, with the same
accounting (:func:`repro.hpo.elastic.new_ledger`): a crashed attempt
burns its duration and is retried up to ``max_retries`` times, then the
trial lands as ``inf``; stragglers stretch their slot; NaN objective
values are quarantined (penalized, never fatal); permanent worker loss
shrinks the pool but never takes the last worker — the campaign always
completes and reports what it survived via ``log.stats``.

Observability: with a :class:`repro.obs.TraceRecorder` attached, every
executed trial becomes an ``hpo.trial`` span around the real objective
evaluation, stamped on the simulated clock, and retries, give-ups and
NaN quarantines become events on the same timeline.  The recorder's sim
clock is pointed at the search's clock for its duration, so nested
spans (the objective's ``fit`` spans) carry simulated timestamps too.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..obs.context import get_recorder
from ..resilience.faults import CRASH, NAN, STRAGGLER, WORKER_LOSS, FaultSchedule, record
from .elastic import new_ledger, run_elastic, screen
from .results import ResultLog, Trial
from .space import Config
from .strategies.base import Strategy, Suggestion

#: objective(config, budget) -> value (lower is better)
Objective = Callable[[Config, int], float]
#: cost_model(config, budget) -> simulated seconds
CostModel = Callable[[Config, int], float]


def run_sequential(strategy: Strategy, objective: Objective, n_trials: int) -> ResultLog:
    """Ask/evaluate/tell loop.  Stops early if the strategy is exhausted."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    log = ResultLog()
    rec = get_recorder()
    trial_id = 0
    stalls = 0
    while trial_id < n_trials:
        sug = strategy.ask()
        if sug is None:
            if strategy.exhausted():
                break
            stalls += 1
            if stalls > 10:
                # Multi-fidelity strategies can momentarily stall in a
                # sequential loop only if they have outstanding work —
                # impossible here, so treat it as exhaustion.
                break
            continue
        stalls = 0
        if rec is not None:
            span_id = rec.begin(
                "trial", kind="hpo.trial", trial=trial_id, attempt=0, budget=sug.budget,
            )
        value = objective(sug.config, sug.budget)
        if rec is not None:
            rec.end(span_id, value=value)
        strategy.tell(sug, value)
        log.add(Trial(trial_id=trial_id, config=sug.config, value=value, budget=sug.budget))
        trial_id += 1
    return log


def constant_cost(seconds: float = 1.0) -> CostModel:
    """Cost model: every trial takes the same simulated time."""

    def model(config: Config, budget: int) -> float:
        return seconds * budget

    return model


def run_parallel(
    strategy: Strategy,
    objective: Objective,
    n_trials: int,
    n_workers: int,
    cost_model: Optional[CostModel] = None,
    sync: bool = False,
    max_retries: int = 3,
    faults: Optional[FaultSchedule] = None,
    executor=None,
    queue=None,
) -> ResultLog:
    """Run the search on ``n_workers`` workers.

    async (default): a worker that finishes immediately asks for new
    work — results arrive out of order and the strategy sees them as
    they land.  This is :func:`repro.hpo.elastic.run_elastic`; the two
    keywords below choose its storage and its clock, and every other
    keyword means the same whichever they are:

    * ``queue`` (a :class:`repro.hpo.queue.DurableTrialQueue` or a path
      to one) keeps the ledger on disk, so a killed campaign resumes
      bit-identically from the same path.  Without it the ledger is an
      in-memory queue that is gone when the call returns.
    * ``executor`` (a :class:`repro.parallel.ParallelTrialExecutor`)
      runs trials on real worker processes: ``cost_model`` does not
      apply and a trial's ``sim_time`` is wall-clock seconds since the
      pool came up.  Without it trials take ``cost_model`` simulated
      seconds (default: ``budget`` seconds) on a deterministic clock.

    sync: workers proceed in barriers of ``n_workers`` suggestions; the
    strategy only sees results at barrier boundaries (the BSP regime whose
    stragglers E6 quantifies).  A trial's ``sim_time`` is the barrier it
    landed at — the moment its result became visible, matching the async
    path where ``sim_time`` is the completion event.  Simulated clock and
    no queue only.

    Faults come from ``faults`` (a
    :class:`~repro.resilience.FaultSchedule`): deterministic per
    (trial, attempt) crash / straggler / NaN faults, plus permanent
    worker loss at scheduled times (the pool shrinks; in sync mode later
    waves are narrower).  See the module docstring for the recovery
    rules; ``log.stats`` records failures, retries, give-ups,
    quarantined trials, workers lost and the faults drawn by kind, with
    the same keys in both regimes.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    if sync:
        if executor is not None or queue is not None:
            raise ValueError(
                "real-clock and durable-queue searches are async-only (sync=True unsupported)"
            )
        return _run_bsp(strategy, objective, n_trials, n_workers,
                        cost_model or constant_cost(), max_retries, faults)
    # The in-memory ledger has one driver by construction and no consumer
    # that can die without it, so its leases never expire.
    storage = {"queue": queue} if queue is not None else {
        "queue": ":memory:", "lease_s": float("inf")}
    return run_elastic(
        strategy, objective, n_trials, n_workers=n_workers, cost_model=cost_model,
        executor=executor, max_retries=max_retries, faults=faults, **storage,
    )


def _run_bsp(
    strategy: Strategy,
    objective: Objective,
    n_trials: int,
    n_workers: int,
    cost: CostModel,
    max_retries: int,
    faults: Optional[FaultSchedule],
) -> ResultLog:
    """Bulk-synchronous waves on the simulated clock."""
    log = ResultLog()
    stats = log.stats
    stats.update(new_ledger())
    straggler_factor = faults.straggler_factor if faults is not None else 1.0
    losses = sorted(faults.worker_loss_times) if faults is not None else []
    alive = n_workers
    now = 0.0

    # Point the attached recorder's sim clock at this search's clock so
    # every span recorded during the search carries simulated
    # timestamps; restored on the way out.
    rec = get_recorder()
    prev_sim_clock = rec.sim_clock if rec is not None else None
    if rec is not None:
        rec.sim_clock = lambda: now

    def run_slot(sug: Suggestion, tid: int, slot: int) -> Tuple[float, float]:
        """One slot runs its trial to completion (a crash burns the
        attempt and retries in place); returns (value, elapsed)."""
        duration = cost(sug.config, sug.budget)
        elapsed = 0.0
        for attempt in range(max_retries + 1):
            kind = faults.draw("trial", tid, attempt) if faults is not None else None
            if kind is not None:
                record(kind, stats["faults"])
            burn = duration * (straggler_factor if kind == STRAGGLER else 1.0)
            elapsed += burn
            if kind != CRASH:
                break
            stats["failures"] += 1
            if attempt < max_retries:
                stats["retries"] += 1
                if rec is not None:
                    rec.event("retry", kind="hpo.retry",
                              trial=tid, attempt=attempt + 1, worker=slot)
        if kind == CRASH:
            stats["giveups"] += 1
            if rec is not None:
                rec.event("retries_exhausted", kind="hpo.giveup",
                          trial=tid, attempts=max_retries + 1)
            return float("inf"), elapsed
        if kind == NAN:
            return screen(float("nan"), stats, rec, tid, "injected"), elapsed
        if rec is not None:
            span_id = rec.begin("trial", kind="hpo.trial", trial=tid, attempt=attempt,
                                worker=slot, budget=sug.budget, sim_duration=burn)
        value = screen(objective(sug.config, sug.budget), stats, rec, tid)
        if rec is not None:
            rec.end(span_id, value=value)
        return value, elapsed

    try:
        while len(log) < n_trials:
            # Permanent node losses that have occurred shrink the wave.
            while losses and losses[0] <= now and alive > 1:
                losses.pop(0)
                alive -= 1
                stats["workers_lost"] += 1
                record(WORKER_LOSS, stats["faults"])
            batch: List[Suggestion] = []
            for _ in range(min(alive, n_trials - len(log))):
                sug = strategy.ask()
                if sug is None:
                    break
                batch.append(sug)
            if not batch:
                break
            # The barrier waits for the slowest slot, so one failing
            # straggler stalls the wave — the BSP cost async avoids.
            values, elapsed = zip(*(run_slot(sug, len(log) + slot, slot)
                                    for slot, sug in enumerate(batch)))
            now += max(elapsed)
            # The barrier: results land, the strategy learns, all at once.
            for slot, (sug, value) in enumerate(zip(batch, values)):
                strategy.tell(sug, value)
                log.add(Trial(trial_id=len(log), config=sug.config, value=value,
                              budget=sug.budget, sim_time=now, worker=slot))
        return log
    finally:
        if rec is not None:
            rec.sim_clock = prev_sim_clock
