"""Parallel training plans and their time/memory models.

The keynote's central architectural claim (C10/C11): DNNs don't strong-
scale with data parallelism alone, so large machines must combine
**data**, **model**, and **search** parallelism.  This module models the
first two (search parallelism is :mod:`repro.hpo.scheduler`):

* :class:`DataParallel` — replicate the model, shard the batch, allreduce
  gradients every step.
* :class:`ModelParallel` — shard layers across nodes; activations cross
  the fabric at every layer boundary, twice per step.
* :class:`PipelineParallel` — stage-partitioned model with micro-batches
  (bubble overhead included).
* :class:`HybridParallel` — model-parallel groups, data parallelism across
  groups: the configuration the keynote argues future fabrics must serve.

Every plan exposes ``step_time``, ``memory_per_node``, ``feasible`` and
``comm_bytes_per_step`` so experiments can decompose where time goes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .cluster import SimCluster
from .collectives import ALLREDUCE_ALGORITHMS, allgather_ring
from .hardware import DTYPE_BYTES
from .perfmodel import ModelProfile, compute_step_time


class ParallelPlan:
    """Base class for parallel execution plans."""

    name = "base"

    def step_time(self, profile: ModelProfile, cluster: SimCluster, precision: str = "fp32") -> float:
        """Wall-clock seconds for one global training step."""
        raise NotImplementedError

    def memory_per_node(self, profile: ModelProfile, precision: str = "fp32") -> float:
        """Training-state bytes each node must hold."""
        raise NotImplementedError

    def feasible(self, profile: ModelProfile, cluster: SimCluster, precision: str = "fp32") -> bool:
        """Does the per-node footprint fit the accelerator memory?"""
        return self.memory_per_node(profile, precision) <= cluster.node.accelerator.mem_capacity

    def comm_bytes_per_step(self, profile: ModelProfile, precision: str = "fp32") -> float:
        """Fabric bytes injected per node per step."""
        raise NotImplementedError


@dataclass
class SingleNode(ParallelPlan):
    """Reference: the whole model and batch on one node."""

    name: str = "single"

    def step_time(self, profile: ModelProfile, cluster: SimCluster, precision: str = "fp32") -> float:
        return compute_step_time(profile, cluster.node, precision)

    def memory_per_node(self, profile: ModelProfile, precision: str = "fp32") -> float:
        return profile.training_memory_bytes(precision)

    def comm_bytes_per_step(self, profile: ModelProfile, precision: str = "fp32") -> float:
        return 0.0


@dataclass
class DataParallel(ParallelPlan):
    """Synchronous data parallelism over ``n_nodes`` replicas.

    ``strong_scaling=True`` keeps the *global* batch fixed (local batch
    shrinks with node count — the regime where scaling dies); False is
    weak scaling (fixed local batch).
    """

    n_nodes: int
    allreduce: str = "ring"
    strong_scaling: bool = True
    overlap_fraction: float = 0.0  # fraction of allreduce hidden behind backward
    name: str = "data_parallel"

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.allreduce not in ALLREDUCE_ALGORITHMS:
            raise ValueError(f"unknown allreduce {self.allreduce!r}")
        if not 0.0 <= self.overlap_fraction <= 1.0:
            raise ValueError("overlap_fraction must be in [0, 1]")

    def _local_profile(self, profile: ModelProfile) -> ModelProfile:
        if not self.strong_scaling:
            return profile
        local_batch = max(1, profile.batch_size // self.n_nodes)
        return profile.with_batch_size(local_batch)

    def step_time(self, profile: ModelProfile, cluster: SimCluster, precision: str = "fp32") -> float:
        local = self._local_profile(profile)
        compute = compute_step_time(local, cluster.node, precision)
        grad_bytes = profile.gradient_bytes(precision)
        comm = ALLREDUCE_ALGORITHMS[self.allreduce](cluster.network, self.n_nodes, grad_bytes)
        return compute + (1.0 - self.overlap_fraction) * comm

    def memory_per_node(self, profile: ModelProfile, precision: str = "fp32") -> float:
        return self._local_profile(profile).training_memory_bytes(precision)

    def comm_bytes_per_step(self, profile: ModelProfile, precision: str = "fp32") -> float:
        g = profile.gradient_bytes(precision)
        if self.n_nodes == 1:
            return 0.0
        return 2.0 * g * (self.n_nodes - 1) / self.n_nodes  # ring volume per node


@dataclass
class ModelParallel(ParallelPlan):
    """Layer-sharded (tensor) model parallelism over ``n_nodes``.

    Weights, gradients and optimizer state divide by n; every layer
    boundary moves the full activation tensor across the fabric (allgather
    of partial outputs), forward and backward.  ``shard_efficiency``
    captures the GEMM-efficiency loss of narrow shards.
    """

    n_nodes: int
    shard_efficiency: float = 0.9
    name: str = "model_parallel"

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if not 0.0 < self.shard_efficiency <= 1.0:
            raise ValueError("shard_efficiency must be in (0, 1]")

    def step_time(self, profile: ModelProfile, cluster: SimCluster, precision: str = "fp32") -> float:
        # Compute divides across shards (imperfectly).
        full = compute_step_time(profile, cluster.node, precision)
        compute = full / (self.n_nodes * self.shard_efficiency ** math.log2(max(self.n_nodes, 2)))
        if self.n_nodes == 1:
            return full
        # Activation exchange at every layer boundary, fwd + bwd.
        elem = DTYPE_BYTES[precision]
        comm = 0.0
        for layer in profile.layers:
            act_bytes = layer.activation_elems * elem
            if act_bytes == 0:
                continue
            per_rank = act_bytes / self.n_nodes
            comm += 2.0 * allgather_ring(cluster.network, self.n_nodes, per_rank)
        return compute + comm

    def memory_per_node(self, profile: ModelProfile, precision: str = "fp32") -> float:
        state = profile.training_memory_bytes(precision) - profile.activation_bytes(precision)
        return state / self.n_nodes + profile.activation_bytes(precision)

    def comm_bytes_per_step(self, profile: ModelProfile, precision: str = "fp32") -> float:
        if self.n_nodes == 1:
            return 0.0
        elem = DTYPE_BYTES[precision]
        total = sum(l.activation_elems for l in profile.layers) * elem
        return 2.0 * total * (self.n_nodes - 1) / self.n_nodes


@dataclass
class PipelineParallel(ParallelPlan):
    """Stage-partitioned pipeline (GPipe-style) with micro-batching.

    ``n_stages`` nodes each hold a contiguous slice of layers; the batch is
    split into ``n_microbatches``; the bubble costs (stages-1) extra
    micro-steps.  Stage boundaries move one activation tensor per
    micro-batch, forward and backward.
    """

    n_stages: int
    n_microbatches: int = 8
    name: str = "pipeline"

    def __post_init__(self) -> None:
        if self.n_stages < 1:
            raise ValueError("n_stages must be >= 1")
        if self.n_microbatches < 1:
            raise ValueError("n_microbatches must be >= 1")

    def step_time(self, profile: ModelProfile, cluster: SimCluster, precision: str = "fp32") -> float:
        if self.n_stages == 1:
            return compute_step_time(profile, cluster.node, precision)
        micro = profile.with_batch_size(max(1, profile.batch_size // self.n_microbatches))
        from .hardware import DTYPE_BYTES as _DB
        from .perfmodel import layer_step_time

        # Per-micro-batch stage compute (no optimizer update here — the
        # update happens once per global step, after the last micro-batch).
        acc = cluster.node.accelerator
        micro_compute = sum(layer_step_time(l, acc, precision) for l in micro.layers)
        stage_compute = micro_compute / self.n_stages
        # Boundary activations: average layer activation of the micro-batch.
        elem = DTYPE_BYTES[precision]
        nonzero = [l.activation_elems for l in micro.layers if l.activation_elems > 0]
        boundary_bytes = (sum(nonzero) / len(nonzero)) * elem if nonzero else 0.0
        hop_time = cluster.network.neighbor_time(boundary_bytes)
        micro_step = stage_compute + 2.0 * hop_time  # fwd + bwd crossing
        n_steps = self.n_microbatches + self.n_stages - 1  # pipeline fill bubble
        # One optimizer update per global step, sharded across stages.
        update_bytes = 7.0 * profile.params * _DB["fp32"] / self.n_stages
        return n_steps * micro_step + update_bytes / cluster.node.accelerator.mem_bandwidth

    def memory_per_node(self, profile: ModelProfile, precision: str = "fp32") -> float:
        state = profile.training_memory_bytes(precision) - profile.activation_bytes(precision)
        # In-flight activations: up to n_stages micro-batches stashed.
        micro_act = profile.activation_bytes(precision) / max(self.n_microbatches, 1)
        return state / self.n_stages + micro_act * self.n_stages

    def comm_bytes_per_step(self, profile: ModelProfile, precision: str = "fp32") -> float:
        if self.n_stages == 1:
            return 0.0
        elem = DTYPE_BYTES[precision]
        nonzero = [l.activation_elems for l in profile.layers if l.activation_elems > 0]
        boundary = (sum(nonzero) / len(nonzero)) * elem / max(self.n_microbatches, 1) if nonzero else 0.0
        return 2.0 * boundary * self.n_microbatches

    @property
    def bubble_fraction(self) -> float:
        """Idle fraction from pipeline fill/drain."""
        return (self.n_stages - 1) / (self.n_microbatches + self.n_stages - 1)


@dataclass
class HybridParallel(ParallelPlan):
    """Model-parallel groups of ``group_size`` nodes, data parallelism
    across ``n_groups`` groups — the keynote's "modest scale groups of
    processors" with a fat intra-group fabric.

    ``intra_bandwidth`` optionally gives the group fabric a different
    (usually higher — NVLink-class) bandwidth than the global fabric.
    """

    group_size: int
    n_groups: int
    allreduce: str = "ring"
    intra_bandwidth: Optional[float] = None
    shard_efficiency: float = 0.9
    name: str = "hybrid"

    def __post_init__(self) -> None:
        if self.group_size < 1 or self.n_groups < 1:
            raise ValueError("group_size and n_groups must be >= 1")
        if self.allreduce not in ALLREDUCE_ALGORITHMS:
            raise ValueError(f"unknown allreduce {self.allreduce!r}")

    @property
    def n_nodes(self) -> int:
        return self.group_size * self.n_groups

    def _intra_cluster(self, cluster: SimCluster) -> SimCluster:
        sub = cluster.subcluster(self.group_size, topology="ring")
        if self.intra_bandwidth is not None:
            sub = sub.with_link_bandwidth(self.intra_bandwidth)
        return sub

    def step_time(self, profile: ModelProfile, cluster: SimCluster, precision: str = "fp32") -> float:
        # Each group runs model parallelism on its local batch shard.
        local_batch = max(1, profile.batch_size // self.n_groups)
        local = profile.with_batch_size(local_batch)
        intra = self._intra_cluster(cluster)
        mp = ModelParallel(self.group_size, shard_efficiency=self.shard_efficiency)
        group_time = mp.step_time(local, intra, precision)
        # Gradient allreduce across groups: each rank owns params/group_size.
        grad_bytes = profile.gradient_bytes(precision) / self.group_size
        comm = ALLREDUCE_ALGORITHMS[self.allreduce](cluster.network, self.n_groups, grad_bytes)
        return group_time + comm

    def memory_per_node(self, profile: ModelProfile, precision: str = "fp32") -> float:
        local = profile.with_batch_size(max(1, profile.batch_size // self.n_groups))
        return ModelParallel(self.group_size).memory_per_node(local, precision)

    def comm_bytes_per_step(self, profile: ModelProfile, precision: str = "fp32") -> float:
        local = profile.with_batch_size(max(1, profile.batch_size // self.n_groups))
        intra = ModelParallel(self.group_size).comm_bytes_per_step(local, precision)
        g = profile.gradient_bytes(precision) / self.group_size
        inter = 0.0 if self.n_groups == 1 else 2.0 * g * (self.n_groups - 1) / self.n_groups
        return intra + inter


def throughput(plan: ParallelPlan, profile: ModelProfile, cluster: SimCluster, precision: str = "fp32") -> float:
    """Samples/second the plan achieves on the global batch."""
    t = plan.step_time(profile, cluster, precision)
    return profile.batch_size / t if t > 0 else float("inf")
