"""Training-data staging across the storage hierarchy (claims C8/C12).

The keynote: "deep learning problems require large quantities of training
data to be made available or generated at each node, thus providing
opportunities for NVRAM."  This module models epoch-level data movement
under three policies:

* ``pfs_direct`` — every batch read from the parallel filesystem.
* ``nvram_prefetch`` — stage the (shard of the) dataset into node-local
  NVRAM once, then read epochs from NVRAM; spills to PFS if it doesn't fit.
* ``dram_cache`` — cache-on-first-read into DRAM with NVRAM as victim
  tier: epoch 1 pays PFS, later epochs hit DRAM/NVRAM by capacity.

The model charges the *exposed* I/O time per epoch: reads overlap compute
up to the compute time of the epoch (double-buffered input pipelines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .hardware import NodeSpec


@dataclass(frozen=True)
class DatasetSpec:
    """Per-node training-data shard.

    bytes_total: shard size in bytes.
    samples: sample count in the shard.
    """

    bytes_total: float
    samples: int

    def __post_init__(self) -> None:
        if self.bytes_total <= 0 or self.samples <= 0:
            raise ValueError("dataset must have positive size and samples")


@dataclass
class EpochIO:
    """Result of one epoch's I/O simulation."""

    policy: str
    epoch: int
    read_bytes_by_tier: Dict[str, float]
    raw_io_time: float
    exposed_io_time: float
    energy: float


class StagingSimulator:
    """Simulates epoch-by-epoch data movement for one node."""

    POLICIES = ("pfs_direct", "nvram_prefetch", "dram_cache")

    def __init__(self, node: NodeSpec, dataset: DatasetSpec, policy: str = "nvram_prefetch") -> None:
        if policy not in self.POLICIES:
            raise ValueError(f"unknown policy {policy!r}; choose from {self.POLICIES}")
        if not node.has_tier("pfs"):
            raise ValueError("node must have a pfs tier")
        self.node = node
        self.dataset = dataset
        self.policy = policy
        self._staged = False
        self._cached: Dict[str, float] = {}  # tier -> bytes resident

    # -- capacity helpers ------------------------------------------------
    def _usable(self, tier_name: str, reserve_fraction: float = 0.5) -> float:
        """Bytes of a tier available for data caching (training state gets
        the rest — hence the reserve)."""
        if not self.node.has_tier(tier_name):
            return 0.0
        return self.node.tier(tier_name).capacity * reserve_fraction

    # -- policy logic -----------------------------------------------------
    def _epoch_reads(self, epoch: int) -> Dict[str, float]:
        """Bytes read from each tier during this epoch (and update caches)."""
        total = self.dataset.bytes_total
        reads: Dict[str, float] = {}
        if self.policy == "pfs_direct":
            reads["pfs"] = total
            return reads

        if self.policy == "nvram_prefetch":
            nv = self._usable("nvram")
            if not self._staged:
                # One-time staging PFS -> NVRAM, charged to epoch 0.
                staged = min(total, nv)
                reads["pfs"] = total  # read everything from PFS once
                self._cached["nvram"] = staged
                self._staged = True
                return reads
            fit = self._cached.get("nvram", 0.0)
            reads["nvram"] = fit
            if total > fit:
                reads["pfs"] = total - fit  # overflow re-read every epoch
            return reads

        # dram_cache: fill DRAM first, overflow to NVRAM, then PFS.
        dram = self._usable("dram")
        nv = self._usable("nvram")
        in_dram = self._cached.get("dram", 0.0)
        in_nvram = self._cached.get("nvram", 0.0)
        hit_dram = min(total, in_dram)
        hit_nvram = min(max(total - hit_dram, 0.0), in_nvram)
        miss = max(total - hit_dram - hit_nvram, 0.0)
        if hit_dram:
            reads["dram"] = hit_dram
        if hit_nvram:
            reads["nvram"] = hit_nvram
        if miss:
            reads["pfs"] = miss
            # Fill caches with the missed bytes.
            room_dram = max(dram - in_dram, 0.0)
            add_dram = min(miss, room_dram)
            self._cached["dram"] = in_dram + add_dram
            room_nv = max(nv - in_nvram, 0.0)
            self._cached["nvram"] = in_nvram + min(miss - add_dram, room_nv)
        return reads

    # -- simulation --------------------------------------------------------
    def epoch_io(self, epoch: int, compute_time: float = 0.0) -> EpochIO:
        """Simulate one epoch.  ``compute_time`` lets reads overlap compute
        (exposed time = max(0, io - compute) except first-byte latency)."""
        reads = self._epoch_reads(epoch)
        raw = 0.0
        energy = 0.0
        for tier_name, nbytes in reads.items():
            tier = self.node.tier(tier_name)
            raw += tier.access_time(nbytes)
            energy += tier.access_energy(nbytes)
        exposed = max(0.0, raw - compute_time)
        return EpochIO(
            policy=self.policy, epoch=epoch,
            read_bytes_by_tier=reads, raw_io_time=raw,
            exposed_io_time=exposed, energy=energy,
        )

    def run_epochs(self, n_epochs: int, compute_time: float = 0.0) -> List[EpochIO]:
        if n_epochs < 1:
            raise ValueError("n_epochs must be >= 1")
        return [self.epoch_io(e, compute_time) for e in range(n_epochs)]

    def total_exposed_time(self, n_epochs: int, compute_time: float = 0.0) -> float:
        return sum(e.exposed_io_time for e in self.run_epochs(n_epochs, compute_time))


def compare_policies(
    node: NodeSpec,
    dataset: DatasetSpec,
    n_epochs: int = 10,
    compute_time: float = 0.0,
) -> Dict[str, float]:
    """Total exposed I/O time per policy — the E11 table."""
    out = {}
    for policy in StagingSimulator.POLICIES:
        if policy != "pfs_direct" and not node.has_tier("nvram") and policy == "nvram_prefetch":
            continue
        sim = StagingSimulator(node, dataset, policy)
        out[policy] = sim.total_exposed_time(n_epochs, compute_time)
    return out
