"""Energy model for training steps (claim C8: data-motion cost).

Energy per step = compute energy (flops x pJ/op at the chosen precision)
+ on-node data motion (bytes through the near tier x pJ/byte)
+ fabric traffic (bytes injected x pJ/byte x hops)
+ idle/static energy (node power x step time).

The E12 bench uses this to show that at scale the *data motion* terms
dominate — the keynote's argument for HBM-near-compute and for
low-precision datapaths.
"""

from __future__ import annotations

from dataclasses import dataclass
from .cluster import SimCluster
from .collectives import allreduce_energy
from .hardware import DTYPE_BYTES
from .parallelism import DataParallel, HybridParallel, ModelParallel, ParallelPlan, SingleNode
from .perfmodel import ModelProfile


@dataclass
class EnergyBreakdown:
    """Joules per training step, by component."""

    compute: float
    memory: float
    network: float
    static: float

    @property
    def total(self) -> float:
        return self.compute + self.memory + self.network + self.static


def _compute_energy(profile: ModelProfile, cluster: SimCluster, precision: str) -> float:
    acc = cluster.node.accelerator
    pj = acc.energy_per_flop.get(precision)
    if pj is None:
        raise ValueError(f"no energy coefficient for precision {precision!r}")
    return profile.flops_step * pj * 1e-12


def _memory_energy(profile: ModelProfile, cluster: SimCluster, precision: str) -> float:
    """On-node traffic: weights read fwd+bwd, activations written+read,
    gradients written, update traffic — all through the near tier."""
    near = cluster.node.tiers[0]
    elem = DTYPE_BYTES[precision]
    weight_traffic = 3.0 * profile.params * elem  # fwd read, bwd read, grad write
    act_traffic = 2.0 * profile.activation_elems * elem  # write fwd, read bwd
    update_traffic = 7.0 * profile.params * DTYPE_BYTES["fp32"]
    return (weight_traffic + act_traffic + update_traffic) * near.energy_per_byte * 1e-12


def step_energy(
    plan: ParallelPlan,
    profile: ModelProfile,
    cluster: SimCluster,
    precision: str = "fp32",
) -> EnergyBreakdown:
    """Energy of one global training step under ``plan``.

    Compute/memory energy is work-proportional, so it is the same total
    regardless of how the work is spread — what changes across plans is
    the *network* term and the static term (more nodes idling longer).
    """
    n_nodes = getattr(plan, "n_nodes", 1)
    if isinstance(plan, DataParallel):
        # Each replica computes on its shard; totals equal the global batch.
        compute = _compute_energy(profile, cluster, precision)
        # Weights/optimizer traffic is replicated per node, activations are not.
        local = profile.with_batch_size(max(1, profile.batch_size // plan.n_nodes)) if plan.strong_scaling else profile
        mem_one = _memory_energy(local, cluster, precision)
        memory = mem_one * plan.n_nodes
        network = allreduce_energy(
            cluster.network, plan.n_nodes, profile.gradient_bytes(precision), plan.allreduce
        )
    elif isinstance(plan, (ModelParallel, HybridParallel, SingleNode)):
        compute = _compute_energy(profile, cluster, precision)
        memory = _memory_energy(profile, cluster, precision)
        network = (
            plan.comm_bytes_per_step(profile, precision)
            * n_nodes
            * cluster.network.link.energy_per_byte
            * 1e-12
        )
    else:
        compute = _compute_energy(profile, cluster, precision)
        memory = _memory_energy(profile, cluster, precision)
        network = plan.comm_bytes_per_step(profile, precision) * n_nodes * cluster.network.link.energy_per_byte * 1e-12

    t = plan.step_time(profile, cluster, precision)
    static = cluster.node.idle_power * t * n_nodes
    return EnergyBreakdown(compute=compute, memory=memory, network=network, static=static)


def energy_per_sample(
    plan: ParallelPlan, profile: ModelProfile, cluster: SimCluster, precision: str = "fp32"
) -> float:
    """Joules per training sample — the cross-plan comparison metric."""
    return step_energy(plan, profile, cluster, precision).total / profile.batch_size
