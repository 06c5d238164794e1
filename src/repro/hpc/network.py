"""Network performance model: alpha-beta links over a topology.

A link follows the postal (alpha-beta) model extended with per-hop
latency, and the network adds a contention factor derived from the
topology's bisection bandwidth — the standard first-order model the
collective cost formulas in :mod:`repro.hpc.collectives` build on.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def contention_factor(self) -> float:
        """Slowdown applied to bandwidth-bound all-to-all-like traffic:
        1 / bisection_factor, floored at 1 (full bisection = no slowdown)."""
        return max(1.0, 1.0 / self.topology.bisection_factor())
