"""E4 — Memory-tier data placement (claims C8, C12).

Per-batch input-read time when training data lives in each tier of the
hierarchy, on the 2017-era node and on the keynote's wishlist node.
Expected shape: HBM << DRAM << NVRAM << PFS, with the gap to PFS being
the argument for node-local staging.
"""

import numpy as np
import pytest

from conftest import print_experiment
from repro.hpc import FUTURE_DL, SUMMIT_ERA, mlp_profile
from repro.hpc.perfmodel import compute_step_time
from repro.utils import format_table

BATCH_BYTES = 32 * 60_000 * 4.0  # batch 32 of 60k fp32 features (CANDLE-ish)


def test_e4_tier_placement():
    profile = mlp_profile([60_000, 2048, 512, 32], batch_size=32)
    rows = []
    per_node = {}
    for node in (SUMMIT_ERA, FUTURE_DL):
        compute = compute_step_time(profile, node, "fp32")
        times = {}
        for tier in node.tiers:
            io = tier.access_time(BATCH_BYTES)
            times[tier.name] = io
            rows.append([node.name, tier.name, io * 1e3, compute * 1e3, io / compute])
        per_node[node.name] = (times, compute)
    print_experiment(
        "E4  Per-batch input read time by tier (vs compute time of the step)",
        format_table(["node", "tier", "read ms", "compute ms", "read/compute"], rows),
    )

    for name, (times, compute) in per_node.items():
        # Strict tier ordering.
        assert times["hbm"] < times["dram"] < times["pfs"]
        if "nvram" in times:
            assert times["dram"] < times["nvram"] < times["pfs"]
        # From HBM, input reads hide behind compute; from PFS they dominate.
        assert times["hbm"] < compute
        assert times["pfs"] > compute
