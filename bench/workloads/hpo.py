"""``hpo_campaign`` and ``hpo_sim``: ``run_elastic`` on both clocks.

``hpo_campaign`` runs ASHA on the real clock: two worker processes, the
data set published once over shared memory, an on-disk
``DurableTrialQueue`` at default durability, and an objective that really
trains a small Dense autoencoder for ``budget`` epochs.  Objective
compute dominates, so a faster ``nn`` shows here and a faster queue
should not.

``hpo_sim`` is the same runtime on the simulated clock: 64 simulated
workers, a surrogate objective, the same on-disk queue.  There is no
training compute at all, so SQLite transactions plus strategy ask/tell
are the whole cost — the guard for any change that puts one event loop
over the queue.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from repro.datasets import make_autoencoder_expression
from repro.hpo import (
    ASHA, DurableTrialQueue, SurrogateLandscape, candle_mlp_space, run_elastic,
    run_parallel,
)
from repro.nn import Dense, Dropout, Sequential
from repro.parallel import ParallelTrialExecutor, worker_data

from ..common import (
    WORLD, Context, Outcome, Segment, SpeedProbe, clock, median, timed_blocks,
    timed_setups, trace_overhead,
)

# -- hpo_campaign --------------------------------------------------------
CAMPAIGN_TRIALS = 60       # trials per run_elastic call = one segment
N_TRAIN, N_VAL, N_GENES = 512, 128, 64
TRIAL_LIMIT_MS = 500.0
# -- hpo_sim -------------------------------------------------------------
SIM_TRIALS = 1000
SIM_WORKERS = 64
CYCLE_LIMIT_MS = 10.0
SETUPS = 5


def train_objective(config, budget: int = 1) -> float:
    """Fit a small Dense autoencoder for ``budget`` epochs; return its
    validation loss.  Width is capped and the batch size fixed, so that a
    trial's cost depends on its budget and not on which configurations a
    seed happens to draw."""
    x = worker_data()["x"]
    h1, h2 = min(int(config["hidden1"]), 64), min(int(config["hidden2"]), 32)
    act = config["activation"]
    layers = [Dense(h1, activation=act)]
    if config["dropout"] > 0:
        layers.append(Dropout(float(config["dropout"])))
    layers += [Dense(h2, activation=act), Dense(h1, activation=act), Dense(N_GENES)]
    model = Sequential(layers)
    model.fit(x[:N_TRAIN], None, epochs=int(budget), batch_size=32, loss="mse",
              lr=float(config["lr"]), seed=0)
    value = model.evaluate(x[N_TRAIN:], None, loss="mse")["loss"]
    return float(value) if np.isfinite(value) else float("inf")


def budget_cost(config, budget: int) -> float:
    return float(budget)


class TimedExecutor(ParallelTrialExecutor):
    """Timing proxy: submit-to-result turnaround of every trial, and the
    worker-measured objective time the pool reports with it."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.turnaround_s: List[float] = []
        self.objective_s: List[float] = []
        self._sent: Dict[int, float] = {}

    def submit(self, config, budget: int) -> int:
        t0 = clock()
        task_id = super().submit(config, budget)
        self._sent[task_id] = t0
        return task_id

    def next_result(self):
        res = super().next_result()
        self.turnaround_s.append(clock() - self._sent.pop(res.task_id))
        self.objective_s.append(res.duration_s)
        return res


class TracedQueue(DurableTrialQueue):
    """Timing proxy: spans on the three hot transactions, and a count of
    every transaction the queue opens."""

    def __init__(self, tracer, *args, **kwargs) -> None:
        self._tracer = tracer
        self.txn_count = 0
        super().__init__(*args, **kwargs)

    def _txn(self):
        self.txn_count += 1
        return super()._txn()

    def enqueue(self, *args, **kwargs):
        with self._tracer.span("hpo.queue.ask"):
            return super().enqueue(*args, **kwargs)

    def claim(self, *args, **kwargs):
        with self._tracer.span("hpo.queue.claim"):
            return super().claim(*args, **kwargs)

    def ack(self, *args, **kwargs):
        with self._tracer.span("hpo.queue.ack"):
            return super().ack(*args, **kwargs)


class TracedASHA(ASHA):
    def __init__(self, tracer, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._tracer = tracer

    def ask(self):
        with self._tracer.span("hpo.strategy.ask"):
            return super().ask()

    def tell(self, suggestion, value) -> None:
        with self._tracer.span("hpo.strategy.tell"):
            super().tell(suggestion, value)


class StampedObjective:
    """Stamps every objective call; on the simulated clock the gap between
    two calls is one full trial cycle of the scheduler (ask, enqueue,
    claim, ack, tell)."""

    def __init__(self, objective: Callable) -> None:
        self.objective = objective
        self.stamps: List[float] = []

    def __call__(self, config, budget: int = 1) -> float:
        self.stamps.append(clock())
        return self.objective(config, budget)


def _exactly_once(q: DurableTrialQueue, log, n: int) -> bool:
    """Claims == acks == trials, nothing acked twice, nothing lost."""
    s = q.stats
    return (s["claims"] == s["acks"] == s["enqueued"] == n == len(log)
            and s["duplicate_acks"] == 0 and q.counts()["done"] == n
            and log.stats["failures"] == 0)


def _queue_layers(tracer, txn_count: int) -> Dict[str, float]:
    us = lambda name: median(tracer.durations(name)) * 1e6  # noqa: E731
    return {
        "hpo.queue.ask_us": us("hpo.queue.ask"),
        "hpo.queue.claim_us": us("hpo.queue.claim"),
        "hpo.queue.ack_us": us("hpo.queue.ack"),
        "hpo.queue.txn_count": txn_count,
        "hpo.strategy.ask_us": us("hpo.strategy.ask"),
        "hpo.strategy.tell_us": us("hpo.strategy.tell"),
    }


# ----------------------------------------------------------------------
def run_campaign(ctx: Context) -> Outcome:
    space = candle_mlp_space()

    def make(_):
        with ctx.tracer.span("datasets.make"):
            return make_autoencoder_expression(
                n_samples=N_TRAIN + N_VAL, n_genes=N_GENES, latent_dim=8, seed=ctx.seed)[0]

    probe = SpeedProbe(ctx.tracer)
    x, makes = timed_setups(probe, SETUPS, make)
    make_s = median(t for t, _ in makes)

    spawns: List[float] = []
    objective_s: List[float] = []
    ok = True
    ledger = {"busy_s": 0.0, "makespan_s": 0.0, "reclaims": 0, "retries": 0,
              "txn_count": 0, "promotions": 0}

    def one_block(block: int, traced: bool) -> Segment:
        nonlocal ok
        seed = ctx.seed * 1000 + block
        path = ctx.scratch / f"campaign-{block}.db"
        t0 = clock()
        executor = TimedExecutor(WORLD, data={"x": x}, start_method="fork")
        if traced:
            q = TracedQueue(ctx.tracer, path)
            strategy = TracedASHA(ctx.tracer, space, seed=seed, min_budget=1, max_budget=9)
        else:
            q = DurableTrialQueue(path)
            strategy = ASHA(space, seed=seed, min_budget=1, max_budget=9)
        with q:
            with ctx.tracer.span("hpo.elastic.run"):
                log = run_elastic(strategy, train_objective, CAMPAIGN_TRIALS, q, WORLD,
                                  executor=executor)
            ok &= _exactly_once(q, log, CAMPAIGN_TRIALS)
            if traced:
                ledger["txn_count"] += q.txn_count
        wall = clock() - t0
        # Trial sim_times are wall seconds since the pool came up, so the
        # makespan leaves process start-up to ``setup_s``.
        makespan = max(t.sim_time for t in log.trials)
        spawns.append(wall - makespan)
        objective_s.extend(executor.objective_s)
        ledger["busy_s"] += log.stats["busy_s"]
        ledger["makespan_s"] += makespan
        ledger["reclaims"] += log.stats["reclaims"]
        ledger["retries"] += log.stats["retries"]
        ledger["promotions"] += strategy.promotions
        return Segment(ops=CAMPAIGN_TRIALS, seconds=makespan,
                       latencies=np.asarray(executor.turnaround_s))

    segments, first_traced = timed_blocks(ctx, probe.tick, one_block, "bench.hpo_campaign")
    layers: Dict[str, float] = {}
    if ctx.traced:
        layers = _queue_layers(ctx.tracer, ledger["txn_count"])
        layers.update({
            "hpo.asha.promotions": ledger["promotions"],
            "hpo.elastic.busy_s": ledger["busy_s"],
            "hpo.elastic.ideal_s": ledger["busy_s"] / WORLD,
            "hpo.elastic.overhead_share": ledger["makespan_s"] / (ledger["busy_s"] / WORLD) - 1.0,
            "hpo.elastic.reclaims": ledger["reclaims"],
            "hpo.elastic.retries": ledger["retries"],
            "hpo.objective.fit_ms_p50": median(objective_s) * 1e3,
            "datasets.make_s": median(ctx.tracer.durations("datasets.make")),
            "parallel.pool.spawn_s": median(spawns),
            "obs.trace_overhead_share": trace_overhead(
                segments[:first_traced], segments[first_traced:]),
            "obs.coverage_share": ctx.tracer.coverage("bench.hpo_campaign"),
        })
    attempted = len(segments) * CAMPAIGN_TRIALS
    return Outcome(
        # The pool is spawned by every call, so every segment is a set-up too.
        setups=[(make_s + s, seg.speed) for s, seg in zip(spawns, segments)],
        segments=segments,
        limit_ms=TRIAL_LIMIT_MS,
        attempted=attempted,
        failed=0 if ok else 1,
        checks={"every_trial_exactly_once": bool(ok)},
        layers=layers,
        notes={"campaigns": len(segments), "objective_ms_p50": median(objective_s) * 1e3},
    )


# ----------------------------------------------------------------------
def run_sim(ctx: Context) -> Outcome:
    space = candle_mlp_space()

    def campaign(path: Path, seed: int, n_trials: int, traced: bool = False):
        """One simulated campaign on a fresh queue file."""
        landscape = StampedObjective(SurrogateLandscape(space, seed=ctx.seed))
        if traced:
            q = TracedQueue(ctx.tracer, path, lease_s=1e9)
            strategy = TracedASHA(ctx.tracer, space, seed=seed, min_budget=1, max_budget=27)
        else:
            q = DurableTrialQueue(path, lease_s=1e9)
            strategy = ASHA(space, seed=seed, min_budget=1, max_budget=27)
        with q:
            t0 = clock()
            with ctx.tracer.span("hpo.elastic.run"):
                log = run_elastic(strategy, landscape, n_trials, q, SIM_WORKERS,
                                  cost_model=budget_cost)
            wall = clock() - t0
            ok = _exactly_once(q, log, n_trials)
            txns = q.txn_count if traced else 0
        return log, strategy, landscape, wall, ok, txns

    # Set-up is a first small campaign: it creates a queue file and pays
    # every first-use cost (SQLite, the strategy's sampler).
    probe = SpeedProbe(ctx.tracer)
    _, setups = timed_setups(
        probe, SETUPS, lambda i: campaign(ctx.scratch / f"warmup-{i}.db", ctx.seed, 100))

    ok = True
    fingerprints: List[tuple] = []
    txn_count = 0

    def one_block(block: int, traced: bool) -> Segment:
        nonlocal ok, txn_count
        # The first two campaigns share a seed: they must promote alike.
        seed = ctx.seed * 1000 + max(block, 1)
        log, strategy, landscape, wall, block_ok, txns = campaign(
            ctx.scratch / f"sim-{block}.db", seed, SIM_TRIALS, traced)
        ok &= block_ok
        txn_count += txns
        fingerprints.append((strategy.promotions, log.best_value()))
        return Segment(ops=SIM_TRIALS, seconds=wall, latencies=np.diff(landscape.stamps))

    segments, first_traced = timed_blocks(ctx, probe.tick, one_block, "bench.hpo_sim")
    repeatable = len(fingerprints) < 2 or fingerprints[0] == fingerprints[1]

    layers: Dict[str, float] = {}
    if ctx.traced:
        t0 = clock()
        run_parallel(ASHA(space, seed=ctx.seed, min_budget=1, max_budget=27),
                     SurrogateLandscape(space, seed=ctx.seed), SIM_TRIALS, SIM_WORKERS,
                     budget_cost)
        layers = _queue_layers(ctx.tracer, txn_count)
        layers.update({
            "hpo.asha.promotions": fingerprints[0][0],
            "hpo.scheduler.sim_trials_per_s": SIM_TRIALS / (clock() - t0),
            "obs.trace_overhead_share": trace_overhead(
                segments[:first_traced], segments[first_traced:]),
            "obs.coverage_share": ctx.tracer.coverage("bench.hpo_sim"),
        })
    attempted = len(segments) * SIM_TRIALS
    return Outcome(
        setups=setups,
        segments=segments,
        limit_ms=CYCLE_LIMIT_MS,
        attempted=attempted,
        failed=(not ok) + (not repeatable),
        checks={"every_trial_exactly_once": bool(ok), "promotions_repeat": repeatable},
        layers=layers,
        notes={"campaigns": len(segments), "promotions": fingerprints[0][0],
               "best_value": fingerprints[0][1]},
    )
