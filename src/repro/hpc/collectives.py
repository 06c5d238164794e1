"""Analytic cost models for MPI-style collectives.

Standard results from the collective-communication literature
(Thakur/Rabenseifner/Chan et al.), expressed over the alpha-beta network
model.  For p ranks, message size n bytes, latency a, inverse bandwidth b,
and per-element reduction cost g (folded into b here):

======================  ========================================
ring allreduce          2(p-1)a/p' + 2n(p-1)/p * b   (bandwidth-optimal)
binomial-tree allreduce 2 ceil(log2 p) (a + n b)      (latency-friendly, no pipelining)
recursive doubling      log2(p) (a + n b)             (latency-optimal, full n each round)
Rabenseifner            2 log2(p) a + 2n(p-1)/p b     (reduce-scatter + allgather)
==========================================================================

These formulas drive experiment E10 (algorithm crossover vs message size)
and the allreduce term in every scaling experiment (E2/E3/E6).
"""

from __future__ import annotations

import math
from typing import Callable, Dict

from .network import Network


def _validate(n_ranks: int, nbytes: float) -> None:
    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")


def _alpha_beta(net: Network) -> tuple:
    """Effective alpha (incl. average hop latency) and beta (incl. topology
    contention for bandwidth-heavy phases)."""
    link = net.link
    avg_hops = net.topology.average_hops(sample=1024) if net.n_nodes > 1 else 0.0
    alpha = link.alpha + avg_hops * link.per_hop
    beta = link.beta * net.contention_factor()
    return alpha, beta


def allreduce_ring(net: Network, n_ranks: int, nbytes: float) -> float:
    """Ring allreduce (reduce-scatter + allgather over a logical ring).

    Bandwidth-optimal: each rank sends 2n(p-1)/p bytes total, in 2(p-1)
    latency-bearing steps.  Logical-ring neighbours are 1 hop on a ring
    topology but average-distance apart on others.
    """
    _validate(n_ranks, nbytes)
    if n_ranks == 1 or nbytes == 0:
        return 0.0
    link = net.link
    # Neighbour distance: exact for ring topology, average otherwise.
    from .topology import Ring

    hop = 1.0 if isinstance(net.topology, Ring) else max(net.topology.average_hops(sample=1024), 1.0)
    alpha = link.alpha + hop * link.per_hop
    chunk = nbytes / n_ranks
    steps = 2 * (n_ranks - 1)
    return steps * (alpha + chunk * link.beta)


def allreduce_tree(net: Network, n_ranks: int, nbytes: float) -> float:
    """Binomial-tree reduce followed by binomial-tree broadcast."""
    _validate(n_ranks, nbytes)
    if n_ranks == 1 or nbytes == 0:
        return 0.0
    alpha, beta = _alpha_beta(net)
    rounds = math.ceil(math.log2(n_ranks))
    return 2 * rounds * (alpha + nbytes * beta)


def allreduce_recursive_doubling(net: Network, n_ranks: int, nbytes: float) -> float:
    """Recursive doubling: log2(p) rounds, full message each round.

    Latency-optimal; non-power-of-two rank counts pay one extra round.
    """
    _validate(n_ranks, nbytes)
    if n_ranks == 1 or nbytes == 0:
        return 0.0
    alpha, beta = _alpha_beta(net)
    rounds = math.ceil(math.log2(n_ranks))
    extra = 0 if (n_ranks & (n_ranks - 1)) == 0 else 1
    return (rounds + extra) * (alpha + nbytes * beta)


def allreduce_rabenseifner(net: Network, n_ranks: int, nbytes: float) -> float:
    """Rabenseifner: recursive-halving reduce-scatter + recursive-doubling
    allgather.  Near-bandwidth-optimal with log latency."""
    _validate(n_ranks, nbytes)
    if n_ranks == 1 or nbytes == 0:
        return 0.0
    alpha, beta = _alpha_beta(net)
    rounds = math.ceil(math.log2(n_ranks))
    bw_term = 2 * nbytes * (n_ranks - 1) / n_ranks * beta
    return 2 * rounds * alpha + bw_term


def allgather_ring(net: Network, n_ranks: int, nbytes: float) -> float:
    """Ring allgather; ``nbytes`` is the per-rank contribution."""
    _validate(n_ranks, nbytes)
    if n_ranks == 1 or nbytes == 0:
        return 0.0
    alpha, beta = _alpha_beta(net)
    return (n_ranks - 1) * (alpha + nbytes * beta)


ALLREDUCE_ALGORITHMS: Dict[str, Callable[[Network, int, float], float]] = {
    "ring": allreduce_ring,
    "tree": allreduce_tree,
    "recursive_doubling": allreduce_recursive_doubling,
    "rabenseifner": allreduce_rabenseifner,
}


def allreduce_energy(net: Network, n_ranks: int, nbytes: float, algorithm: str = "ring") -> float:
    """Joules moved through the fabric by one allreduce.

    Ring moves 2n(p-1)/p bytes per rank; tree/doubling move n*log2(p).
    """
    _validate(n_ranks, nbytes)
    if n_ranks == 1 or nbytes == 0:
        return 0.0
    if algorithm in ("ring", "rabenseifner"):
        bytes_per_rank = 2 * nbytes * (n_ranks - 1) / n_ranks
    else:
        bytes_per_rank = nbytes * math.ceil(math.log2(n_ranks)) * 2
    total_bytes = bytes_per_rank * n_ranks
    return total_bytes * net.link.energy_per_byte * 1e-12
