"""E3 — Data vs model vs hybrid parallelism (claims C9, C11).

A model that exceeds single-node memory forces the plan choice the
keynote describes: pure DP is infeasible, pure MP pays activation
traffic, hybrid (model groups + data parallel across groups) wins — and
its advantage grows with intra-group fabric bandwidth.
"""

import numpy as np
import pytest

from conftest import print_experiment
from repro.hpc import (
    DataParallel,
    HybridParallel,
    ModelParallel,
    SimCluster,
    mlp_profile,
)
from repro.utils import format_table

GBPS = 1e9


def test_e3_plan_comparison():
    # ~2.7B params: > 16 GB node memory even at fp16 with optimizer state.
    profile = mlp_profile([16384] * 11, batch_size=2048, name="big_fc")
    n_nodes = 64
    cluster = SimCluster.build("summit_era", n_nodes, "fat_tree")

    nvlink = 150 * GBPS  # Summit-class intra-group fabric
    plans = {
        "data(64)": DataParallel(64),
        "model(64)": ModelParallel(64),
        "hybrid(8x8) thin-fabric": HybridParallel(group_size=8, n_groups=8),
        "hybrid(8x8) nvlink": HybridParallel(group_size=8, n_groups=8, intra_bandwidth=nvlink),
        "hybrid(4x16) nvlink": HybridParallel(group_size=4, n_groups=16, intra_bandwidth=nvlink),
        "hybrid(16x4) nvlink": HybridParallel(group_size=16, n_groups=4, intra_bandwidth=nvlink),
    }
    rows = []
    results = {}
    for name, plan in plans.items():
        feasible = plan.feasible(profile, cluster, "fp16")
        t = plan.step_time(profile, cluster, "fp16") if feasible else float("nan")
        mem = plan.memory_per_node(profile, "fp16") / 1e9
        results[name] = (feasible, t)
        rows.append([name, "yes" if feasible else "NO", mem, t * 1e3 if feasible else float("nan")])
    print_experiment(
        "E3a Plan comparison, 2.7B-param FC model, 64 nodes (fp16)",
        format_table(["plan", "fits", "GB/node", "step ms"], rows),
    )

    # DP cannot hold the model; sharded plans can (claim C9's premise).
    assert not results["data(64)"][0]
    assert results["model(64)"][0]
    assert results["hybrid(8x8) nvlink"][0]
    # The best hybrid geometry with a fat intra-group fabric beats pure
    # model parallelism (claim C9: "modest scale groups of processors") —
    # and for a fixed geometry, the fat fabric is what makes the difference.
    best_hybrid = min(
        results["hybrid(8x8) nvlink"][1],
        results["hybrid(4x16) nvlink"][1],
        results["hybrid(16x4) nvlink"][1],
    )
    assert best_hybrid < results["model(64)"][1]
    assert results["hybrid(8x8) nvlink"][1] < results["hybrid(8x8) thin-fabric"][1]

    # E3b: intra-group fabric bandwidth sweep (the keynote's "high-bandwidth
    # communication fabric between modest scale groups").
    rows = []
    times = []
    for bw in (12.5, 25, 100, 300):
        plan = HybridParallel(group_size=8, n_groups=8, intra_bandwidth=bw * GBPS)
        t = plan.step_time(profile, cluster, "fp16")
        times.append(t)
        rows.append([f"{bw:g} GB/s", t * 1e3, times[0] / t])
    print_experiment(
        "E3b Hybrid(8x8) step time vs intra-group fabric bandwidth",
        format_table(["intra-group BW", "step ms", "speedup vs 12.5"], rows),
    )
    assert times[-1] < times[0]  # more fabric bandwidth -> faster steps
    assert times == sorted(times, reverse=True)
