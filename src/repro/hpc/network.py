"""Network performance model: alpha-beta links over a topology.

Point-to-point time follows the postal (alpha-beta) model extended with
per-hop latency and a contention factor derived from the topology's
bisection bandwidth — the standard first-order model the collective
cost formulas in :mod:`repro.hpc.collectives` build on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .topology import Topology


@dataclass(frozen=True)
class LinkSpec:
    """One fabric link.

    alpha: per-message software+injection latency (s).
    beta: inverse bandwidth (s per byte).
    per_hop: additional latency per switch hop (s).
    energy_per_byte: pJ per byte crossing the link.
    """

    alpha: float = 1.0e-6
    beta: float = 1.0 / 12.5e9  # 12.5 GB/s default
    per_hop: float = 1.0e-7
    energy_per_byte: float = 60.0  # pJ

    @property
    def bandwidth(self) -> float:
        return 1.0 / self.beta

    @staticmethod
    def from_bandwidth(bandwidth: float, alpha: float = 1.0e-6, per_hop: float = 1.0e-7) -> "LinkSpec":
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        return LinkSpec(alpha=alpha, beta=1.0 / bandwidth, per_hop=per_hop)


class Network:
    """Topology + link model."""

    def __init__(self, topology: Topology, link: LinkSpec) -> None:
        self.topology = topology
        self.link = link

    @property
    def n_nodes(self) -> int:
        return self.topology.n_nodes

    def ptp_time(self, nbytes: float, src: int = 0, dst: int = 1, hops: Optional[int] = None) -> float:
        """Point-to-point message time: alpha + hops*per_hop + bytes*beta."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if self.n_nodes == 1 or src == dst:
            return 0.0
        h = self.topology.hops(src, dst) if hops is None else hops
        return self.link.alpha + h * self.link.per_hop + nbytes * self.link.beta

    def neighbor_time(self, nbytes: float) -> float:
        """Message time to a topological neighbour (1 hop)."""
        return self.ptp_time(nbytes, hops=1)

    def contention_factor(self) -> float:
        """Slowdown applied to bandwidth-bound all-to-all-like traffic:
        1 / bisection_factor, floored at 1 (full bisection = no slowdown)."""
        return max(1.0, 1.0 / self.topology.bisection_factor())

    def ptp_energy(self, nbytes: float, hops: int = 1) -> float:
        """Joules to move a message ``hops`` hops."""
        return nbytes * self.link.energy_per_byte * max(hops, 1) * 1e-12
