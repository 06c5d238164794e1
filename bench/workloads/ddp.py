"""``ddp_mlp``: data-parallel training on two real rank processes.

The P1B1 model of ``train_mlp`` through ``fit_data_parallel`` with the
default engine (bucketed, overlapped, float64 wire) and no injected
stall: the only workload where ``parallel.allreduce`` and
``parallel.ddp`` do most of the work.  A saving in the comm engine
should appear here as less exposed wait, and nowhere else.
"""

from __future__ import annotations

import multiprocessing as mp
from typing import Dict, List

import numpy as np

from repro.candle.registry import REGISTRY
from repro.datasets import make_autoencoder_expression
from repro.parallel import fit_data_parallel

from ..common import (
    WORLD, Context, Outcome, Segment, SpeedProbe, clock, median, timed_setups,
)
from ..layers import parallel_layers

N_SAMPLES = 2048
GLOBAL_BATCH = 64
BLOCK_EPOCHS = 2          # epochs per fit_data_parallel call = one segment
STEP_LIMIT_MS = 60.0
STEPS_PER_BLOCK = BLOCK_EPOCHS * (N_SAMPLES // GLOBAL_BATCH)

# Rank 0 stamps the start of every step into this shared array through the
# public ``pre_step_hook``; ranks are forked, so they inherit both names.
_STAMPS = mp.RawArray("d", STEPS_PER_BLOCK)
_NEXT = [0]


def _stamp(rank: int, step: int) -> None:
    if rank == 0:
        _STAMPS[_NEXT[0]] = clock()
        _NEXT[0] += 1


def _build(seed: int):
    model = REGISTRY["p1b1"].build_model()
    model.build((200,), np.random.default_rng(seed))
    return model


def _fit(model, x, seed: int, backend: str, epochs: int = BLOCK_EPOCHS, hook=None):
    return fit_data_parallel(
        model, x, None, world=WORLD, epochs=epochs, batch_size=GLOBAL_BATCH,
        loss="mse", backend=backend, seed=seed, drop_last=True,
        pre_step_hook=hook, start_method="fork",
    )


def _bit_identical(x, seed: int) -> bool:
    """Process-backend weights equal the serial backend's, bit for bit."""
    a, b = _build(seed), _build(seed)
    _fit(a, x, seed, "process", epochs=2)
    _fit(b, x, seed, "serial", epochs=2)
    return all(np.array_equal(wa, wb) for wa, wb in zip(a.get_weights(), b.get_weights()))


def run(ctx: Context) -> Outcome:
    def build(_):
        with ctx.tracer.span("datasets.make"):
            x, _ = make_autoencoder_expression(
                n_samples=N_SAMPLES, n_genes=200, latent_dim=10, seed=ctx.seed)
        with ctx.tracer.span("candle.build"):
            return x, _build(ctx.seed)

    probe = SpeedProbe(ctx.tracer)
    (x, model), builds = timed_setups(probe, 3, build)
    build_s = median(t for t, _ in builds)
    segments: List[Segment] = []
    spawns: List[float] = []
    losses: List[float] = []
    stats: Dict = {}
    t_end = clock() + ctx.seconds
    with ctx.tracer.span("bench.ddp"):
        while clock() < t_end:
            _NEXT[0] = 0
            t0 = clock()
            with ctx.tracer.span("parallel.ddp.fit"):
                res = _fit(model, x, ctx.seed * 1000 + len(segments), "process", hook=_stamp)
                train_s = sum(res.epoch_times)
                # Rank-side training time; the rest of the call is spawn,
                # shared-memory publish and join.
                ctx.tracer.add("parallel.ddp.ranks_train", clock() - train_s, clock())
            wall = clock() - t0
            spawns.append(wall - train_s)
            losses.extend(res.epoch_losses)
            stats = res.comm_stats
            segments.append(Segment(
                ops=BLOCK_EPOCHS * N_SAMPLES, seconds=train_s,
                latencies=np.diff(np.asarray(_STAMPS[:STEPS_PER_BLOCK])),
                speed=probe.tick(),
            ))

    identical = _bit_identical(x, ctx.seed)
    finite = bool(np.all(np.isfinite(losses)))
    layers: Dict[str, float] = {}
    if ctx.traced:
        # The single-worker baseline: same job on the serial backend, at
        # the machine speed probed around it like every other segment.
        serial_model = _build(ctx.seed)
        serial_rates = []
        for block in range(3):
            res = _fit(serial_model, x, ctx.seed * 1000 + block, "serial")
            serial_rates.append(BLOCK_EPOCHS * N_SAMPLES / sum(res.epoch_times) / probe.tick())
        rate = median(s.ops / s.seconds / s.speed for s in segments)
        steps = stats["steps"]
        layers = {
            "parallel.ddp.comm_s_per_step": stats["total_comm_s"] / steps,
            "parallel.ddp.exposed_wait_s_per_step": stats["exposed_wait_s"] / steps,
            "parallel.ddp.overlap_fraction": stats["overlap_fraction"],
            "parallel.ddp.wire_bytes_per_step": stats["wire_bytes_per_step"],
            "parallel.ddp.n_buckets": stats["n_buckets"],
            "parallel.ddp.serial_samples_per_s": median(serial_rates),
            "parallel.ddp.speedup_vs_serial": rate / median(serial_rates),
            "datasets.make_s": median(ctx.tracer.durations("datasets.make")),
            "candle.build_s": median(ctx.tracer.durations("candle.build")),
            # The spans sit around a call the ranks execute, so they cost
            # the ranks nothing and everything in the loop is covered.
            "obs.trace_overhead_share": 0.0,
            "obs.coverage_share": ctx.tracer.coverage("bench.ddp"),
        }
        layers.update(parallel_layers(
            x, [p.size for p in model.parameters()], ctx.seed))

    failed = (not identical) + (not finite)
    return Outcome(
        # Ranks are spawned by every call, so every segment is a set-up too.
        setups=[(build_s + s, seg.speed) for s, seg in zip(spawns, segments)],
        segments=segments,
        limit_ms=STEP_LIMIT_MS,
        attempted=len(segments) * STEPS_PER_BLOCK + 1,
        failed=failed,
        checks={"bit_identical_to_serial": identical, "losses_finite": finite},
        layers=layers,
        notes={"loss_after_first_call": losses[BLOCK_EPOCHS - 1], "blocks": len(segments),
               "spawn_s_median": median(spawns)},
    )
