"""``registry_churn``: writes beside reads on one ``ArtifactStore``.

The main thread publishes distinct-weight versions of one model name
while a reader thread loops a cold, checksum-verified
``ArtifactStore(dir).get("m@latest")``.  A publish-side shortcut that
costs readers — torn or failed loads, slower resolves — shows in the
same run, because both share the directory and the interpreter.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Tuple

import numpy as np

from repro.candle.registry import get_benchmark
from repro.registry import ArtifactStore, WarmModelCache

from ..common import (
    Context, Outcome, Segment, SpeedProbe, clock, median, timed_blocks, timed_setups,
    trace_overhead,
)
from ..layers import time_call

BENCHMARK = "p1b2"
HPARAMS = {"hidden": (64,)}   # ~13k parameters: store mechanics, not GEMMs
NAME = "m"
BLOCK = 15                    # publishes per segment
LIMIT_MS = 100.0
WARM_GETS = 3000
SETUPS = 15   # ~11 ms each, fsync-bound: many, so the median is steady


class Reader(threading.Thread):
    """Cold loads of ``name@latest`` until stopped.  Every load builds a
    fresh store with an empty cache, so it resolves, reads, verifies the
    checksum and builds the model."""

    def __init__(self, root, tracer) -> None:
        super().__init__(name="registry-reader", daemon=True)
        self.root = root
        self.tracer = tracer
        self.go = threading.Event()
        self.go.set()
        self.stop = threading.Event()
        self.loads: List[Tuple[float, float]] = []
        self.errors: List[str] = []

    def run(self) -> None:
        while not self.stop.is_set():
            self.go.wait()
            t0 = clock()
            try:
                ArtifactStore(self.root, cache=WarmModelCache(2)).get(f"{NAME}@latest")
            except Exception as exc:  # a torn or unverifiable load is the finding
                self.errors.append(f"{type(exc).__name__}: {exc}")
                continue
            t1 = clock()
            self.loads.append((t0, t1))
            self.tracer.add("registry.cold_get", t0, t1, root=True)


def _setup(ctx: Context, index: int):
    spec = get_benchmark(BENCHMARK)
    with ctx.tracer.span("candle.build"):
        shape = spec.input_shape(seed=0)
        model = spec.materialize(input_shape=shape, seed=ctx.seed, **HPARAMS)
    root = ctx.scratch / f"store-{index}"
    store = ArtifactStore(root, capacity=2)
    with ctx.tracer.span("registry.warmup"):
        for _ in range(3):
            _publish(store, model, shape)
            ArtifactStore(root, cache=WarmModelCache(2)).get(f"{NAME}@latest")
    return model, shape, root, store


def _publish(store: ArtifactStore, model, shape):
    return store.publish(model, NAME, BENCHMARK, input_shape=shape, hparams=HPARAMS)


def run(ctx: Context) -> Outcome:
    probe = SpeedProbe(ctx.tracer)
    (model, shape, root, store), setups = timed_setups(
        probe, SETUPS, lambda i: _setup(ctx, i))

    rng = np.random.default_rng([ctx.seed, 1])
    first_weights = next(iter(model.parameters())).data
    reader = Reader(root, ctx.tracer)

    def tick() -> float:
        # The probe must not share the interpreter with the reader.
        reader.go.clear()
        try:
            return probe.tick()
        finally:
            reader.go.set()

    def one_block(_: int, traced: bool) -> Segment:
        lat = np.empty(BLOCK)
        t_block = clock()
        for i in range(BLOCK):
            first_weights.flat[:8] = rng.standard_normal(8)  # a new content hash
            t0 = clock()
            if traced:
                with ctx.tracer.span("registry.publish"):
                    _publish(store, model, shape)
            else:
                _publish(store, model, shape)
            lat[i] = clock() - t0
        return Segment(ops=BLOCK, seconds=clock() - t_block, latencies=lat)

    t_start = clock()
    reader.start()
    try:
        segments, first_traced = timed_blocks(ctx, tick, one_block, "bench.registry_churn")
    finally:
        reader.stop.set()
        reader.go.set()
        reader.join(timeout=30.0)
    elapsed = clock() - t_start

    x = np.random.default_rng([ctx.seed, 2]).standard_normal((16,) + tuple(shape))
    fresh = ArtifactStore(root, cache=WarmModelCache(2))
    final_identical = np.array_equal(fresh.get(f"{NAME}@latest").predict(x), model.predict(x))
    published = len(segments) * BLOCK
    versions_ok = store.latest_version(NAME) == published + 3  # + the warm-up publishes

    layers: Dict[str, float] = {}
    if ctx.traced:
        warm = [0.0] * WARM_GETS
        for i in range(WARM_GETS):
            t0 = clock()
            fresh.get(f"{NAME}@latest")
            warm[i] = clock() - t0
        for _ in range(10):
            _publish(store, model, shape)  # identical bytes: must dedup
        layers = {
            "registry.publish_ms_p50": median(ctx.tracer.durations("registry.publish")) * 1e3,
            "registry.blob_bytes": store.path_for(f"{NAME}@latest").stat().st_size,
            "registry.dedup_hits": store.dedup_hits,
            "registry.resolve_us_p50":
                time_call(lambda: store.resolve(f"{NAME}@latest"), 500) * 1e6,
            "registry.cold_get_ms_p50": median(t1 - t0 for t0, t1 in reader.loads) * 1e3,
            "registry.verify_ms": time_call(lambda: store.verify(f"{NAME}@latest"), 20) * 1e3,
            "registry.torn_reads": len(reader.errors),
            "registry.loads_per_s": len(reader.loads) / elapsed,
            "registry.warm_get_us_p50": median(warm) * 1e6,
            "registry.cache_hit_rate": fresh.hits / (fresh.hits + fresh.loads),
            "candle.build_s": median(ctx.tracer.durations("candle.build")),
            "obs.trace_overhead_share":
                trace_overhead(segments[:first_traced], segments[first_traced:]),
            "obs.coverage_share": ctx.tracer.coverage("bench.registry_churn"),
        }

    torn = len(reader.errors)
    return Outcome(
        setups=setups,
        segments=segments,
        limit_ms=LIMIT_MS,
        attempted=published + len(reader.loads) + torn,
        failed=torn,
        checks={"no_torn_reads": torn == 0, "final_get_bit_identical": bool(final_identical),
                "every_publish_versioned": versions_ok, "reader_stopped": not reader.is_alive()},
        layers=layers,
        notes={"published": published, "cold_loads": len(reader.loads),
               "cold_loads_per_s": len(reader.loads) / elapsed,
               "first_error": reader.errors[0] if reader.errors else None},
    )
