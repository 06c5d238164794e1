"""``serve_b1``: in-process serving at batch size one.

One closed-loop client drives ``InferenceServer`` with
``max_batch_size=1``: every request is a ``submit`` followed by a forced
``step``.  Micro-batching and IPC are bypassed, so the per-call overhead
of ``Model.predict`` is nearly the whole round trip — the serve layer
used the opposite way from ``serve_open``, and the place where a faster
batch-1 predict must show.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.candle.registry import get_benchmark
from repro.serve import BatchPolicy, InferenceServer

from ..common import (
    Context, Outcome, Segment, SpeedProbe, clock, median, timed_blocks, timed_setups,
    trace_overhead,
)
from ..layers import time_call

BENCHMARK = "p1b2"
POOL_ROWS = 4096
BLOCK = 2000           # round trips per segment
LIMIT_MS = 1.0
SETUPS = 7


def _setup(ctx: Context):
    spec = get_benchmark(BENCHMARK)
    with ctx.tracer.span("candle.build"):
        shape = spec.input_shape(seed=0)
        model = spec.materialize(input_shape=shape, seed=ctx.seed)
    pool = np.random.default_rng([ctx.seed, 1]).standard_normal((POOL_ROWS,) + tuple(shape))
    server = InferenceServer(model, BatchPolicy(max_batch_size=1))
    with ctx.tracer.span("serve.warmup"):
        for row in range(64):
            server.submit(pool[row])
            server.step(force=True)
    return model, pool, server


def _block(server: InferenceServer, pool: np.ndarray, rows: np.ndarray, tracer=None):
    """``len(rows)`` closed-loop round trips; returns (handles, seconds each)."""
    handles = []
    lat = np.empty(len(rows))
    for i, row in enumerate(rows):
        x = pool[row]
        t0 = clock()
        if tracer is None:
            req = server.submit(x)
            server.step(force=True)
        else:
            with tracer.span("serve.server.submit"):
                req = server.submit(x)
            with tracer.span("serve.server.step"):
                server.step(force=True)
        lat[i] = clock() - t0
        handles.append(req)
    return handles, lat


def _precision_layers(spec, shape, pool: np.ndarray, seed: int) -> Dict[str, float]:
    """Real fp32 at the same batching is the only baseline for int8."""
    model = spec.materialize(input_shape=shape, seed=seed).astype(np.float32)
    x64 = pool[:64].astype(np.float32)
    fp32 = time_call(lambda: model.predict(x64, batch_size=64, precision="fp32"), 300)
    model.quantize_int8(pool[:512])
    int8 = time_call(lambda: model.predict(x64, batch_size=64, precision="int8"), 300)
    return {"precision.predict_fp32_b64_us": fp32 * 1e6,
            "precision.predict_int8_b64_us": int8 * 1e6}


def run(ctx: Context) -> Outcome:
    probe = SpeedProbe(ctx.tracer)
    (model, pool, server), setups = timed_setups(probe, SETUPS, lambda i: _setup(ctx))
    expected = np.stack([model.predict(pool[r][None], batch_size=1)[0]
                         for r in range(POOL_ROWS)])

    rng = np.random.default_rng([ctx.seed, 2])
    identical = True
    completed = 0

    def one_block(_: int, traced: bool) -> Segment:
        nonlocal identical, completed
        rows = rng.integers(0, POOL_ROWS, size=BLOCK)
        t0 = clock()
        handles, lat = _block(server, pool, rows, ctx.tracer if traced else None)
        wall = clock() - t0
        done = [h for h in handles if h.status == "completed"]
        completed += len(done)
        identical &= len(done) == BLOCK and np.array_equal(
            np.stack([h.result for h in done]), expected[rows])
        return Segment(ops=BLOCK, seconds=wall, latencies=lat)

    segments, plain = timed_blocks(ctx, probe.tick, one_block, "bench.serve_b1")
    layers: Dict[str, float] = {}
    if ctx.traced:
        submit = median(ctx.tracer.durations("serve.server.submit"))
        step = median(ctx.tracer.durations("serve.server.step"))
        predict = time_call(lambda: model.predict(pool[0][None], batch_size=1), 2000)
        layers = {
            "nn.predict_b1_us": predict * 1e6,
            "serve.server.submit_us": submit * 1e6,
            "serve.server.step_us": step * 1e6,
            "serve.server.overhead_share": 1.0 - predict / (submit + step),
            "candle.build_s": median(ctx.tracer.durations("candle.build")),
            "obs.trace_overhead_share": trace_overhead(segments[:plain], segments[plain:]),
            "obs.coverage_share": ctx.tracer.coverage("bench.serve_b1"),
        }
        layers.update(_precision_layers(
            get_benchmark(BENCHMARK), pool.shape[1:], pool, ctx.seed))

    attempted = len(segments) * BLOCK
    return Outcome(
        setups=setups,
        segments=segments,
        limit_ms=LIMIT_MS,
        attempted=attempted,
        failed=attempted - completed,
        checks={"responses_bit_identical": bool(identical),
                "server_accounted": server.stats.accounted()},
        layers=layers,
        notes={"round_trips": attempted},
    )
