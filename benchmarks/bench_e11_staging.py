"""E11 — NVRAM staging policies (claim C12).

Total exposed I/O time over a 20-epoch training run for each staging
policy, sweeping the dataset-to-NVRAM ratio.  Expected shape: NVRAM
prefetch recovers most of the PFS penalty while the dataset fits; beyond
capacity the advantage shrinks gracefully; the DRAM cache dominates for
small datasets.
"""

import numpy as np
import pytest

from conftest import print_experiment
from repro.hpc import SUMMIT_ERA, DatasetSpec, compare_policies
from repro.utils import format_table

N_EPOCHS = 20
# summit_era usable NVRAM for data = 0.8 TB (half of 1.6 TB).
SIZES_GB = (50, 200, 600, 1200, 2400)


def test_e11_staging_policies():
    rows = []
    results = {}
    for gb in SIZES_GB:
        ds = DatasetSpec(bytes_total=gb * 1e9, samples=int(1e6))
        totals = compare_policies(SUMMIT_ERA, ds, n_epochs=N_EPOCHS)
        results[gb] = totals
        rows.append([
            gb,
            totals["pfs_direct"],
            totals["nvram_prefetch"],
            totals["dram_cache"],
            totals["pfs_direct"] / totals["nvram_prefetch"],
        ])
    print_experiment(
        f"E11  Exposed I/O time over {N_EPOCHS} epochs by staging policy (seconds)",
        format_table(["dataset GB", "pfs_direct", "nvram_prefetch", "dram_cache", "prefetch speedup"], rows),
    )

    for gb in SIZES_GB:
        # Staging never loses to direct PFS reads over a long-enough run.
        assert results[gb]["nvram_prefetch"] <= results[gb]["pfs_direct"] * 1.01
    # While the dataset fits NVRAM, prefetch approaches the physical cap
    # (NVRAM/PFS bandwidth ratio = 6/2.5 = 2.4x)...
    assert results[600]["pfs_direct"] / results[600]["nvram_prefetch"] > 2.0
    # ...and the advantage shrinks once it spills.
    fit_speedup = results[600]["pfs_direct"] / results[600]["nvram_prefetch"]
    spill_speedup = results[2400]["pfs_direct"] / results[2400]["nvram_prefetch"]
    assert spill_speedup < fit_speedup
    # Small datasets: DRAM cache is at least as good as NVRAM prefetch.
    assert results[50]["dram_cache"] <= results[50]["nvram_prefetch"] * 1.01
