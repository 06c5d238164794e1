"""E2 — Strong vs weak scaling of data parallelism (claim C10).

Sweeps node counts for a CANDLE-scale MLP under synchronous data
parallelism.  Expected shape: weak scaling near-flat; strong scaling
saturates and then degrades as the local batch shrinks and the gradient
allreduce dominates.
"""

import numpy as np
import pytest

from conftest import print_experiment
from repro.hpc import DataParallel, SimCluster, SingleNode, mlp_profile, throughput
from repro.utils import format_table

NODES = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


def _strong_weak_tables():
    profile = mlp_profile([4096, 4096, 4096, 4096, 1000], batch_size=4096, name="candle_mlp")
    base = SimCluster.build("summit_era", 1, "ring")
    t1 = SingleNode().step_time(profile, base, "fp32")

    rows = []
    strong_speedup = {}
    weak_eff = {}
    for n in NODES:
        cluster = SimCluster.build("summit_era", n, "fat_tree")
        strong = DataParallel(n, strong_scaling=True) if n > 1 else SingleNode()
        t_strong = strong.step_time(profile, cluster, "fp32")
        strong_speedup[n] = t1 / t_strong
        weak = DataParallel(n, strong_scaling=False) if n > 1 else SingleNode()
        weak_profile = profile.with_batch_size(profile.batch_size)  # fixed local batch
        t_weak = weak.step_time(weak_profile, cluster, "fp32")
        weak_eff[n] = t1 / t_weak
        rows.append([n, t_strong * 1e3, strong_speedup[n], strong_speedup[n] / n, t_weak * 1e3, weak_eff[n]])
    table = format_table(
        ["nodes", "strong ms", "speedup", "strong eff", "weak ms", "weak eff"], rows
    )
    return table, strong_speedup, weak_eff


def test_e2_scaling_curves():
    table, strong, weak = _strong_weak_tables()
    print_experiment("E2  Strong vs weak scaling, data parallelism (summit_era, fat-tree)", table)

    # Strong scaling is far from ideal at 1024 nodes (claim C10)...
    assert strong[1024] < 0.15 * 1024
    # ...and the marginal benefit collapses at scale.
    assert strong[1024] < strong[256] * 2.0
    # Weak scaling stays within 3x of perfect.
    assert weak[1024] > 1.0 / 3.0
