"""Simulated HPC architecture: hardware catalog, topologies, collectives,
roofline performance model, parallelism plans, storage staging, energy,
and a discrete-event core (claims C6, C8-C12)."""

from .cluster import SimCluster
from .collectives import (
    ALLREDUCE_ALGORITHMS,
    allgather_ring,
    allreduce_energy,
    allreduce_rabenseifner,
    allreduce_recursive_doubling,
    allreduce_ring,
    allreduce_tree,
    alltoall,
    best_allreduce,
    broadcast_tree,
    reduce_scatter_ring,
)
from .energy import EnergyBreakdown, energy_per_sample, step_energy
from .events import EventLoop
from .hardware import (
    DTYPE_BYTES,
    FUTURE_DL,
    KNL_ERA,
    MACHINES,
    SUMMIT_ERA,
    TITAN_ERA,
    AcceleratorSpec,
    MemoryTier,
    NodeSpec,
    get_machine,
)
from .network import LinkSpec, Network
from .parallelism import (
    DataParallel,
    HybridParallel,
    ModelParallel,
    ParallelPlan,
    PipelineParallel,
    SingleNode,
    throughput,
)
from .perfmodel import (
    LayerCost,
    ModelProfile,
    achieved_flops,
    arithmetic_intensity,
    compute_step_time,
    conv1d_profile,
    mlp_profile,
    profile_model,
    roofline_time,
)
from .resilience import (
    campaign_efficiency,
    checkpoint_time_for_training,
    daly_interval,
    efficiency,
    expected_runtime,
    system_mtbf,
    young_interval,
)
from .storage import DatasetSpec, EpochIO, StagingSimulator, compare_policies
from .topology import Dragonfly, FatTree, Ring, Topology, Torus, make_topology

__all__ = [
    "SimCluster", "EventLoop",
    "MemoryTier", "AcceleratorSpec", "NodeSpec", "MACHINES", "get_machine",
    "TITAN_ERA", "SUMMIT_ERA", "KNL_ERA", "FUTURE_DL", "DTYPE_BYTES",
    "Topology", "Ring", "Torus", "FatTree", "Dragonfly", "make_topology",
    "LinkSpec", "Network",
    "ALLREDUCE_ALGORITHMS", "allreduce_ring", "allreduce_tree",
    "allreduce_recursive_doubling", "allreduce_rabenseifner",
    "broadcast_tree", "allgather_ring", "reduce_scatter_ring", "alltoall",
    "best_allreduce", "allreduce_energy",
    "LayerCost", "ModelProfile", "profile_model", "mlp_profile",
    "conv1d_profile", "roofline_time", "achieved_flops",
    "arithmetic_intensity", "compute_step_time",
    "ParallelPlan", "SingleNode", "DataParallel", "ModelParallel",
    "PipelineParallel", "HybridParallel", "throughput",
    "DatasetSpec", "StagingSimulator", "EpochIO", "compare_policies",
    "EnergyBreakdown", "step_energy", "energy_per_sample",
    "system_mtbf", "young_interval", "daly_interval", "expected_runtime",
    "efficiency", "checkpoint_time_for_training", "campaign_efficiency",
]
