"""Checkpoint/restart resilience model for long training campaigns.

Training the keynote's workloads at machine scale means multi-day jobs on
systems whose *system* MTBF shrinks linearly with node count — the
classic resilience wall.  This module provides the standard first-order
analysis (Young 1974 / Daly 2006):

* :func:`system_mtbf` — per-node MTBF / n_nodes.
* :func:`daly_interval` — the optimal checkpoint period (Daly's
  refinement of Young's sqrt(2CM)).
* :func:`expected_runtime` — expected wall-clock for a job of given
  useful work under periodic checkpointing with failures.
* :func:`checkpoint_time_for_training` — the checkpoint cost of a DNN
  training state written to a given storage tier (this is where the
  NVRAM/burst-buffer story meets resilience: cheap checkpoints change the
  optimal interval and the achievable efficiency).
"""

from __future__ import annotations

import math
from typing import Dict

from .hardware import DTYPE_BYTES, MemoryTier, NodeSpec
from .perfmodel import ModelProfile


def system_mtbf(node_mtbf: float, n_nodes: int) -> float:
    """System mean-time-between-failures with independent node failures."""
    if node_mtbf <= 0 or n_nodes < 1:
        raise ValueError("node_mtbf must be > 0 and n_nodes >= 1")
    return node_mtbf / n_nodes


def daly_interval(checkpoint_time: float, mtbf: float) -> float:
    """Daly's higher-order refinement of the optimal period.

    tau = sqrt(2CM) * [1 + 1/3 sqrt(C/2M) + (1/9)(C/2M)] - C   for C < 2M,
    clamped below at C (checkpointing can't be denser than its own cost).
    """
    if checkpoint_time <= 0 or mtbf <= 0:
        raise ValueError("checkpoint_time and mtbf must be positive")
    c, m = checkpoint_time, mtbf
    if c >= 2 * m:
        return c  # failure-dominated: checkpoint back-to-back
    ratio = math.sqrt(c / (2 * m))
    tau = math.sqrt(2 * c * m) * (1 + ratio / 3 + (c / (2 * m)) / 9) - c
    return max(tau, c)


def expected_runtime(
    work: float,
    checkpoint_time: float,
    restart_time: float,
    mtbf: float,
    interval: float,
) -> float:
    """Expected wall-clock for ``work`` seconds of useful compute.

    Exponential failures at rate 1/M; periodic checkpoints every
    ``interval`` of work; on failure, lose on average half a segment plus
    pay ``restart_time``.  Standard first-order expected-value model:

    T = (work/tau) * M * (e^{(tau+C)/M} - 1) ... simplified to the common
    closed form used in the resilience literature:
    """
    if work <= 0:
        raise ValueError("work must be positive")
    if interval <= 0:
        raise ValueError("interval must be positive")
    n_segments = work / interval
    # Time to complete one segment including checkpoint, accounting for
    # failures that force segment re-execution (memoryless retries).
    seg = interval + checkpoint_time
    # Survival probability of one attempt.  exp underflows to exactly 0.0
    # once seg/mtbf > ~745 (a segment hundreds of MTBFs long), which would
    # make the expected-attempts ratio divide by zero; clamp to the
    # smallest positive double so the deep failure-dominated regime
    # returns a finite (astronomically large) expectation instead.
    p_survive = max(math.exp(-seg / mtbf), 1e-300)
    p_fail = 1.0 - p_survive
    # Expected attempts per segment = 1/(1-p); each failed attempt costs on
    # average half the segment plus the restart.
    expected_per_segment = seg + (p_fail / p_survive) * (seg / 2.0 + restart_time)
    return n_segments * expected_per_segment


def efficiency(
    work: float,
    checkpoint_time: float,
    restart_time: float,
    mtbf: float,
    interval: float,
) -> float:
    """Useful-work fraction: work / expected runtime."""
    return work / expected_runtime(work, checkpoint_time, restart_time, mtbf, interval)


def checkpoint_time_for_training(
    profile: ModelProfile,
    tier: MemoryTier,
    precision: str = "fp32",
    include_optimizer: bool = True,
) -> float:
    """Seconds to write one training checkpoint to ``tier``.

    Checkpoint contents: weights (+ optimizer moments at fp32).  This is
    the coupling between the NVRAM claim (C12) and resilience: a
    node-local burst buffer makes checkpoints ~100x cheaper than the PFS,
    which shortens the optimal interval and raises achievable efficiency.
    """
    nbytes = profile.weight_bytes(precision)
    if include_optimizer:
        nbytes += profile.optimizer_state_bytes("fp32")
    return tier.access_time(nbytes)


def campaign_efficiency(
    profile: ModelProfile,
    node: NodeSpec,
    n_nodes: int,
    node_mtbf: float = 5.0 * 365 * 86400,  # 5 years/node
    tier_name: str = "pfs",
    work: float = 86400.0,  # a day of training
    precision: str = "fp32",
) -> Dict[str, float]:
    """End-to-end: optimal-interval checkpointing efficiency for a training
    campaign on ``n_nodes`` nodes, checkpointing to ``tier_name``."""
    mtbf = system_mtbf(node_mtbf, n_nodes)
    tier = node.tier(tier_name)
    c = checkpoint_time_for_training(profile, tier, precision)
    restart = c + 60.0  # read back + requeue overhead
    tau = daly_interval(c, mtbf)
    eff = efficiency(work, c, restart, mtbf, tau)
    return {
        "mtbf": mtbf,
        "checkpoint_time": c,
        "interval": tau,
        "efficiency": eff,
    }
