"""E10 — Allreduce algorithm crossover (claim C9's fabric design question).

Allreduce time for each algorithm across message sizes (1 KB – 1 GB) and
topologies at 256 ranks.  Expected shape: latency-optimal recursive
doubling wins small messages; bandwidth-optimal ring wins large ones;
Rabenseifner tracks the winner at both ends; the crossover point moves
with the topology's latency/bisection characteristics.
"""

import numpy as np
import pytest

from conftest import print_experiment
from repro.hpc import ALLREDUCE_ALGORITHMS, LinkSpec, Network, make_topology
from repro.utils import format_table

N_RANKS = 256
SIZES = [1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9]


def test_e10_collective_crossover():
    rows = []
    crossovers = {}
    for topo_name in ("ring", "torus3d", "fat_tree", "dragonfly"):
        net = Network(make_topology(topo_name, N_RANKS), LinkSpec.from_bandwidth(25e9))
        winners = []
        for size in SIZES:
            times = {name: fn(net, N_RANKS, size) for name, fn in ALLREDUCE_ALGORITHMS.items()}
            winner = min(times, key=times.get)
            winners.append(winner)
            rows.append([topo_name, f"{size:.0e}", winner] + [times[k] * 1e3 for k in sorted(times)])
        crossovers[topo_name] = winners
    header = ["topology", "bytes", "winner"] + [k + " ms" for k in sorted(ALLREDUCE_ALGORITHMS)]
    print_experiment(
        f"E10  Allreduce algorithm comparison, {N_RANKS} ranks, 25 GB/s links",
        format_table(header, rows),
    )

    for topo_name, winners in crossovers.items():
        # Small messages: a logarithmic-latency algorithm wins.
        assert winners[0] in ("recursive_doubling", "tree", "rabenseifner"), topo_name
        # Large messages: a bandwidth-optimal algorithm wins.
        assert winners[-1] in ("ring", "rabenseifner"), topo_name
        # There is an actual crossover.
        assert len(set(winners)) >= 2, f"no crossover on {topo_name}"
