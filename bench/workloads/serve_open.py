"""``serve_open``: the replicated serving tier under open-loop traffic.

The real front door: a ``Router`` over a ``ReplicaGroup`` of two replica
processes serving P1B2 (fp64) from a shared-memory request pool.  Load is
an open loop: seeded Poisson arrivals at three fixed rates, each request
timed from the moment it was *due*, so a stall in the driver or the
router is charged to every request it delays.  Queueing, micro-batching,
IPC and replica service all sit on the path, and latency rises well
before throughput saturates.

The window is cut into ``CYCLES`` equal cycles; each cycle runs the three
rates one after another, so slow drift of the machine touches every rate
alike.  Throughput is goodput — requests answered within the limit per
second of cycle — because the offered rate is fixed by the schedule.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Dict, List, Tuple

import numpy as np

from repro.candle.registry import get_benchmark
from repro.serve import BatchPolicy, ReplicaGroup, Router

from ..common import (
    WORLD, Context, Outcome, Segment, SpeedProbe, clock, median, percentile,
    segment_stat, timed_setups,
)
from ..layers import time_call

BENCHMARK = "p1b2"
POOL_ROWS = 4096
RATES = (2000.0, 4000.0, 6000.0)   # requests per second; the middle one is
TIMED_RATE = 1                      # ... where latency is reported
CYCLES = 5
SLO_MS = 20.0
POLICY = BatchPolicy(max_batch_size=16, max_wait_s=0.002, max_queue=1024, timeout_s=1.0)
BURST_POLICY = BatchPolicy(max_batch_size=16, max_wait_s=0.002, max_queue=10**9, timeout_s=None)
BURST_ROWS = 4096
SETUPS = 7


class TracedRouter(Router):
    """Timing proxy: one span per public ``submit`` / ``pump`` call."""

    def __init__(self, tracer, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._tracer = tracer
        self.depth_max = 0

    def submit(self, *args, **kwargs):
        with self._tracer.span("serve.router.submit"):
            return super().submit(*args, **kwargs)

    def pump(self, now=None):
        with self._tracer.span("serve.router.pump"):
            done = super().pump(now)
        self.depth_max = max(self.depth_max, self.queue_depth)
        return done


class TimedGroup(ReplicaGroup):
    """Timing proxy: keeps the replica-measured service time of every batch."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.service_s: List[float] = []

    def poll(self, timeout: float = 0.0):
        res = super().poll(timeout)
        if res is not None and res.status == "ok":
            self.service_s.append(res.duration_s)
        return res


def _setup(ctx: Context):
    spec = get_benchmark(BENCHMARK)
    with ctx.tracer.span("candle.build"):
        shape = spec.input_shape(seed=0)
        model = spec.materialize(input_shape=shape, seed=ctx.seed)
    pool = np.random.default_rng([ctx.seed, 1]).standard_normal((POOL_ROWS,) + tuple(shape))
    with ctx.tracer.span("serve.replica.spawn"):
        group_cls = TimedGroup if ctx.traced else ReplicaGroup
        group = group_cls(model, BENCHMARK, shape, n_replicas=WORLD,
                          data={"x_pool": pool}, start_method="fork")
        try:
            group.wait_ready()
            with ctx.tracer.span("serve.warmup"):
                router = Router({"m": group}, policy=POLICY)
                for row in range(4 * POLICY.max_batch_size):
                    router.submit("m", row=row)
                router.drain()
        except BaseException:
            group.close()
            raise
    return model, pool, group


def _open_loop(router: Router, rows: np.ndarray, due: np.ndarray, idle_span) -> Tuple[List, np.ndarray, float]:
    """Submit ``rows[i]`` at ``due[i]`` seconds from now, pumping in
    between and sleeping to the next due time rather than spinning; then
    drain.  Returns (handles, absolute due times, elapsed seconds)."""
    n = len(rows)
    handles = []
    t0 = clock()
    i = 0
    while i < n or router.pending:
        now = clock() - t0
        while i < n and due[i] <= now:
            handles.append(router.submit("m", row=int(rows[i])))
            i += 1
        router.pump()
        if i < n:
            wait = due[i] - (clock() - t0)
            if wait > 5e-5:
                with idle_span:
                    time.sleep(min(wait, 2e-4))
    return handles, t0 + due, clock() - t0


def _latencies(handles, due_abs) -> np.ndarray:
    """Seconds from due time to completion; requests that were shed,
    timed out or retried away never completed and count as infinite."""
    return np.array([
        h.complete_time - d if h.status == "completed" else np.inf
        for h, d in zip(handles, due_abs)
    ])


def _burst(router: Router, rows: np.ndarray) -> float:
    t0 = clock()
    for row in rows:
        router.submit("m", row=int(row))
    router.drain()
    return len(rows) / (clock() - t0)


def _parity(model, pool: np.ndarray, router: Router, handles: List) -> bool:
    """Every completed batch equals ``Model.predict`` on the same rows."""
    for _, ids in router.batch_log:
        rows = [handles[i].row for i in ids]
        served = np.stack([handles[i].result for i in ids])
        if not np.array_equal(served, model.predict(pool[rows], batch_size=len(rows))):
            return False
    return True


def run(ctx: Context) -> Outcome:
    (model, pool, group), setups = timed_setups(
        SpeedProbe(ctx.tracer), SETUPS, lambda i: _setup(ctx),
        dispose=lambda made: made[2].close())

    rng = np.random.default_rng([ctx.seed, 2])
    tracer = ctx.tracer
    phase_s = ctx.seconds / (CYCLES * len(RATES))
    plain_cycles = 2 if ctx.traced else CYCLES
    segments: List[Segment] = []
    by_rate: List[List[np.ndarray]] = [[] for _ in RATES]
    lateness: List[np.ndarray] = []
    layers: Dict[str, float] = {}
    # One (router, every handle it issued) pair per lane: plain, then traced.
    routers: List[Tuple[Router, List]] = [
        (Router({"m": group}, policy=POLICY, max_retries=2, record_batches=True), [])]
    if ctx.traced:
        routers.append((TracedRouter(tracer, {"m": group}, policy=POLICY, max_retries=2,
                                     record_batches=True), []))
    try:
        for cycle in range(CYCLES):
            traced_cycle = cycle >= plain_cycles
            router, issued = routers[traced_cycle]
            with tracer.span("bench.serve_open") if traced_cycle else nullcontext():
                ops = sent = 0
                seconds = 0.0
                timed = np.empty(0)
                for k, rate in enumerate(RATES):
                    n = int(rate * phase_s)
                    due = np.cumsum(rng.exponential(1.0 / rate, size=n))
                    rows = rng.integers(0, POOL_ROWS, size=n)
                    handles, due_abs, elapsed = _open_loop(
                        router, rows, due, tracer.span("serve.gen.idle"))
                    issued.extend(handles)
                    lat = _latencies(handles, due_abs)
                    by_rate[k].append(lat)
                    lateness.append(np.array([h.enqueue_time for h in handles]) - due_abs)
                    ops += int((lat * 1e3 <= SLO_MS).sum())
                    sent += n
                    seconds += elapsed
                    if k == TIMED_RATE:
                        timed = lat[np.isfinite(lat)]
                segments.append(Segment(ops=ops, seconds=seconds, latencies=timed,
                                        within=ops, sent=sent))
        if ctx.traced:
            burst_rows = rng.integers(0, POOL_ROWS, size=(8, BURST_ROWS))
            plain_rps = [_burst(Router({"m": group}, policy=BURST_POLICY), r)
                         for r in burst_rows[:4]]
            traced_rps = [_burst(TracedRouter(tracer, {"m": group}, policy=BURST_POLICY), r)
                          for r in burst_rows[4:]]
            traced = routers[1][0]
            stats = traced.stats
            wall = sum(s.seconds for s in segments[plain_cycles:])
            layers = {
                "serve.router.submit_us": median(tracer.durations("serve.router.submit")) * 1e6,
                "serve.router.pump_us": median(tracer.durations("serve.router.pump")) * 1e6,
                "serve.router.batch_size_mean": stats.mean_batch_size,
                "serve.router.batches": stats.batches,
                "serve.router.queue_depth_max": traced.depth_max,
                "serve.router.shed": stats.shed,
                "serve.router.timed_out": stats.timed_out,
                "serve.router.retries": stats.retries,
                "serve.router.burst_requests_per_s": median(plain_rps),
                "serve.replica.batch_service_ms_p50": median(group.service_s) * 1e3,
                "serve.replica.busy_share": stats.busy_time / (wall * WORLD),
                "serve.gen_lateness_ms_p99": percentile(np.concatenate(lateness), 99) * 1e3,
                "serve.open.p99_ms_low_rate": _p99_ms(by_rate[0]),
                "serve.open.p99_ms_high_rate": _p99_ms(by_rate[-1]),
                "nn.predict_b16_us": time_call(
                    lambda: model.predict(pool[:16], batch_size=16), 500) * 1e6,
                "candle.build_s": median(tracer.durations("candle.build")),
                "parallel.pool.spawn_s": median(tracer.durations("serve.replica.spawn")),
                "obs.trace_overhead_share": 1.0 - median(traced_rps) / median(plain_rps),
                "obs.coverage_share": tracer.coverage("bench.serve_open"),
            }
        parity = all(_parity(model, pool, r, h) for r, h in routers)
        accounted = all(r.stats.accounted() for r, _ in routers)
    finally:
        group.close()

    sent = sum(s.sent for s in segments)
    completed = sum(r.stats.completed for r, _ in routers)
    return Outcome(
        setups=setups,
        segments=segments,
        limit_ms=SLO_MS,
        # Latency is set by a wall-clock batching timer and the rate by the
        # arrival schedule; neither scales with the machine's speed.
        normalise=False,
        attempted=sent,
        failed=sent - completed,
        checks={"responses_bit_identical": parity, "router_accounted": accounted},
        layers=layers,
        notes={
            "rates_per_s": list(RATES),
            "shed": sum(r.stats.shed for r, _ in routers),
            "timed_out": sum(r.stats.timed_out for r, _ in routers),
            "gen_lateness_ms_p99": percentile(np.concatenate(lateness), 99) * 1e3,
        },
    )


def _p99_ms(chunks: List[np.ndarray]) -> float:
    pooled = np.concatenate(chunks)
    return segment_stat(pooled[np.isfinite(pooled)], CYCLES, 99) * 1e3
