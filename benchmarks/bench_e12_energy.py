"""E12 — Energy / data-motion breakdown (claim C8).

Joules per training step, decomposed into compute / on-node memory /
network / static, across parallel plans and precisions.  Expected shape:
data motion (memory + network) rivals or exceeds compute; low precision
cuts both compute and motion energy; poor-scaling plans burn static
energy across idle nodes.
"""

import numpy as np
import pytest

from conftest import print_experiment
from repro.hpc import (
    DataParallel,
    HybridParallel,
    ModelParallel,
    SimCluster,
    SingleNode,
    energy_per_sample,
    mlp_profile,
    step_energy,
)
from repro.utils import format_table


def test_e12_energy_breakdown():
    profile = mlp_profile([8192] * 6, batch_size=2048, name="fc6")
    cluster64 = SimCluster.build("summit_era", 64, "fat_tree")
    cluster1 = SimCluster.build("summit_era", 1, "ring")

    cases = [
        ("single fp32", SingleNode(), cluster1, "fp32"),
        ("single fp16", SingleNode(), cluster1, "fp16"),
        ("data(64) fp32", DataParallel(64), cluster64, "fp32"),
        ("data(64) fp16", DataParallel(64), cluster64, "fp16"),
        ("model(64) fp16", ModelParallel(64), cluster64, "fp16"),
        ("hybrid(8x8) fp16", HybridParallel(8, 8, intra_bandwidth=150e9), cluster64, "fp16"),
    ]
    rows = []
    results = {}
    for name, plan, cluster, precision in cases:
        e = step_energy(plan, profile, cluster, precision)
        eps = energy_per_sample(plan, profile, cluster, precision)
        results[name] = e
        rows.append([
            name, e.compute, e.memory, e.network, e.static, e.total,
            (e.memory + e.network) / max(e.compute, 1e-12), eps,
        ])
    print_experiment(
        "E12  Energy per training step (joules) and data-motion/compute ratio",
        format_table(
            ["case", "compute", "memory", "network", "static", "total", "motion/compute", "J/sample"],
            rows,
        ),
    )

    # fp16 halves-or-better the compute energy of fp32.
    assert results["single fp16"].compute < results["single fp32"].compute * 0.6
    # At 64-node data parallelism, network energy appears and data motion
    # (memory+network) rivals compute (claim C8's motivation).
    dp = results["data(64) fp16"]
    assert dp.network > 0
    assert (dp.memory + dp.network) > 0.3 * dp.compute
    # Static energy at 64 poorly-scaled nodes dwarfs the single-node run's.
    assert results["data(64) fp32"].static > results["single fp32"].static
