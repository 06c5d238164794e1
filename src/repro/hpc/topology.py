"""Interconnect topologies.

Each topology answers two questions the communication model needs:
*how many hops* between two ranks, and *how much bisection bandwidth* the
fabric offers relative to full bisection.  Four classic families are
implemented: ring, 2-D/3-D torus, fat-tree, and dragonfly.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np


class Topology:
    """Base class.  ``n_nodes`` is the endpoint count."""

    def __init__(self, n_nodes: int) -> None:
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        self.n_nodes = n_nodes

    def hops(self, src: int, dst: int) -> int:
        """Switch-to-switch hops on the shortest path (0 for src == dst)."""
        raise NotImplementedError

    def bisection_factor(self) -> float:
        """Bisection bandwidth relative to a full (non-blocking) network,
        in units of (links crossing the cut) / (n_nodes / 2)."""
        raise NotImplementedError

    def average_hops(self, sample: int = 0, seed: int = 0) -> float:
        """Mean hop count over all (or ``sample`` random) pairs."""
        n = self.n_nodes
        if n == 1:
            return 0.0
        if sample and n * n > sample:
            rng = np.random.default_rng(seed)
            src = rng.integers(0, n, size=sample)
            dst = rng.integers(0, n, size=sample)
            pairs = [(int(s), int(d)) for s, d in zip(src, dst) if s != d]
        else:
            pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
        return float(np.mean([self.hops(s, d) for s, d in pairs]))

    def _check(self, *ranks: int) -> None:
        for r in ranks:
            if not 0 <= r < self.n_nodes:
                raise ValueError(f"rank {r} out of range [0, {self.n_nodes})")


class Ring(Topology):
    """1-D ring: cheap, low bisection, hop count grows linearly."""

    def hops(self, src: int, dst: int) -> int:
        self._check(src, dst)
        d = abs(src - dst)
        return min(d, self.n_nodes - d)

    def bisection_factor(self) -> float:
        # Two links cross any balanced cut.
        return 2.0 / max(self.n_nodes / 2.0, 1.0)


class Torus(Topology):
    """k-ary n-dimensional torus (Titan was a 3-D torus)."""

    def __init__(self, dims: Tuple[int, ...]) -> None:
        dims = tuple(int(d) for d in dims)
        if any(d < 1 for d in dims):
            raise ValueError("all torus dimensions must be >= 1")
        super().__init__(int(np.prod(dims)))
        self.dims = dims

    def _coords(self, rank: int) -> Tuple[int, ...]:
        coords = []
        for d in reversed(self.dims):
            coords.append(rank % d)
            rank //= d
        return tuple(reversed(coords))

    def hops(self, src: int, dst: int) -> int:
        self._check(src, dst)
        a, b = self._coords(src), self._coords(dst)
        total = 0
        for x, y, d in zip(a, b, self.dims):
            delta = abs(x - y)
            total += min(delta, d - delta)
        return total

    def bisection_factor(self) -> float:
        # Cutting the longest dimension in half: 2 * (product of the other
        # dims) links cross the cut.
        longest = max(self.dims)
        others = self.n_nodes // longest
        crossing = 2 * others
        return crossing / max(self.n_nodes / 2.0, 1.0)


class FatTree(Topology):
    """Folded-Clos / fat-tree with configurable taper.

    ``radix`` leaves per edge switch; ``taper`` is the up/down bandwidth
    ratio (1.0 = full bisection, 0.5 = 2:1 taper...).  Hop counts: 2 within
    an edge switch, 4 within a pod (approximated as sqrt grouping), 6 at
    the core.
    """

    def __init__(self, n_nodes: int, radix: int = 16, taper: float = 1.0) -> None:
        super().__init__(n_nodes)
        if radix < 2:
            raise ValueError("radix must be >= 2")
        if not 0 < taper <= 1.0:
            raise ValueError("taper must be in (0, 1]")
        self.radix = radix
        self.taper = taper
        self.pod_size = radix * radix // 2 if n_nodes > radix else n_nodes

    def hops(self, src: int, dst: int) -> int:
        self._check(src, dst)
        if src == dst:
            return 0
        if src // self.radix == dst // self.radix:
            return 2  # up to the edge switch and down
        if src // self.pod_size == dst // self.pod_size:
            return 4  # through an aggregation switch
        return 6  # through the core

    def bisection_factor(self) -> float:
        return self.taper


class Dragonfly(Topology):
    """Dragonfly: all-to-all groups of all-to-all routers (Aries/Slingshot).

    ``group_size`` endpoints per group.  Minimal routing: 1 hop within a
    router's peers, up to 3 (local-global-local) across groups; we model
    intra-group as 2 hops and inter-group as 4 (including injection).
    """

    def __init__(self, n_nodes: int, group_size: int = 32, global_taper: float = 0.5) -> None:
        super().__init__(n_nodes)
        if group_size < 1:
            raise ValueError("group_size must be >= 1")
        if not 0 < global_taper <= 1.0:
            raise ValueError("global_taper must be in (0, 1]")
        self.group_size = group_size
        self.global_taper = global_taper

    def hops(self, src: int, dst: int) -> int:
        self._check(src, dst)
        if src == dst:
            return 0
        if src // self.group_size == dst // self.group_size:
            return 2
        return 4

    def bisection_factor(self) -> float:
        return self.global_taper


TOPOLOGIES = {
    "ring": lambda n: Ring(n),
    "torus3d": lambda n: Torus(_torus_dims(n, 3)),
    "fat_tree": lambda n: FatTree(n),
    "dragonfly": lambda n: Dragonfly(n),
}


def _torus_dims(n: int, ndim: int) -> Tuple[int, ...]:
    """Near-cubic factorization of ``n`` into ``ndim`` dimensions."""
    dims: List[int] = []
    remaining = n
    for i in range(ndim, 1, -1):
        d = max(1, round(remaining ** (1.0 / i)))
        # Adjust to a divisor of remaining.
        while remaining % d != 0:
            d -= 1
        dims.append(d)
        remaining //= d
    dims.append(remaining)
    return tuple(dims)


def make_topology(kind: str, n_nodes: int) -> Topology:
    try:
        return TOPOLOGIES[kind](n_nodes)
    except KeyError:
        raise ValueError(f"unknown topology {kind!r}; choose from {sorted(TOPOLOGIES)}")
