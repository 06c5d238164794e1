"""Raw-layer measurements reported on traced passes.

Each function times one public call of one layer in isolation, so a
change there can be told apart from a change in the workloads around it.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.parallel import (
    DEFAULT_BUCKET_BYTES, ProcessWorkerPool, SharedArrayStore, echo_task,
    plan_buckets, reduce_ranks_bucketed,
)

from .common import WORLD, clock, median


def time_call(fn: Callable[[], object], reps: int, warmup: int = 3) -> float:
    """Median seconds of ``fn()`` over ``reps`` calls."""
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(reps):
        t0 = clock()
        fn()
        samples.append(clock() - t0)
    return median(samples)


def parallel_layers(x: np.ndarray, param_sizes, seed: int) -> Dict[str, float]:
    """Shared-memory publish, pool spawn and round trip, and the serial
    bucketed reduction of one gradient vector of the given layout."""
    def publish():
        with SharedArrayStore(prefix="repro_bench") as store:
            store.publish("x", x)

    t0 = clock()
    pool = ProcessWorkerPool(echo_task, WORLD, start_method="fork")
    try:
        pool.wait_ready()
        spawn_s = clock() - t0

        def roundtrip():
            pool.submit(0)
            pool.next_result()

        roundtrip_s = time_call(roundtrip, 1000, warmup=50)
    finally:
        pool.close()

    total = sum(param_sizes) + 1  # the DDP layout appends the loss scalar
    spans = plan_buckets(param_sizes, total, DEFAULT_BUCKET_BYTES).spans
    rng = np.random.default_rng(seed)
    vectors = [rng.standard_normal(total) for _ in range(WORLD)]
    return {
        "parallel.shm.publish_ms": time_call(publish, 20) * 1e3,
        "parallel.pool.spawn_s": spawn_s,
        "parallel.pool.roundtrip_us": roundtrip_s * 1e6,
        "parallel.allreduce.reduce_ms":
            time_call(lambda: reduce_ranks_bucketed(vectors, spans, "float64"), 200) * 1e3,
    }
