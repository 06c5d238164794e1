"""Training jobs that couple *real* NumPy training with *simulated* cost.

The bridge between the two halves of the library: a job trains an actual
CANDLE-style model (so accuracy numbers are real) while the HPC simulator
prices each step (so time/energy numbers reflect the target machine).
E6's time-to-accuracy experiments and the HPO cost models live on this
bridge.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..candle.registry import BenchmarkSpec, get_benchmark
from ..hpc.cluster import SimCluster
from ..hpc.energy import step_energy
from ..hpc.parallelism import DataParallel, ParallelPlan, SingleNode
from ..hpc.perfmodel import ModelProfile, profile_model
from ..hpo.space import Config
from ..nn.model import History, Model
from ..precision.policy import PrecisionPolicy
from ..resilience import ResilienceReport, plan_checkpoint_interval, run_resilient_training


@dataclass
class TrainingReport:
    """Outcome of one simulated-cost training run.

    ``resilience`` is populated only for fault-tolerant runs
    (``run_training_job(..., faults=...)``); plain runs leave it None.
    """

    history: History
    profile: ModelProfile
    sim_step_time: float
    sim_epoch_time: float
    sim_total_time: float
    energy_joules: float
    final_loss: float
    resilience: Optional[ResilienceReport] = None
    # Measured per-op wall-clock breakdown (repro.perf.OpProfiler.as_dict),
    # populated when run_training_job(..., profile_ops=True): the measured
    # counterpart to the modeled ``profile``/``sim_*`` numbers.
    op_profile: Optional[Dict] = None


def run_training_job(
    model: Model,
    x: np.ndarray,
    y,
    cluster: SimCluster,
    plan: Optional[ParallelPlan] = None,
    precision: str = "fp32",
    epochs: int = 5,
    batch_size: int = 32,
    loss: str = "mse",
    lr: float = 1e-3,
    seed: int = 0,
    faults=None,
    checkpoint_dir=None,
    profile_ops: bool = False,
) -> TrainingReport:
    """Train ``model`` for real; price every step on ``cluster``/``plan``.

    The simulated global batch is the fit loop's batch; steps per epoch
    come from the dataset size.  Training is one :meth:`Model.fit`:
    ``fp32``/``fp64`` on the default datapath, narrower formats under
    the emulated :class:`repro.precision.PrecisionPolicy` (the rounded
    working copy is left in the model, as deployed).

    With ``faults`` (a :class:`repro.resilience.FaultSchedule`) that same fit runs
    under :func:`repro.resilience.run_resilient_training`, at any
    ``precision``: it checkpoints at the Daly-optimal step interval for
    this model on this cluster, survives the injected crash/NaN schedule,
    and the report's time/energy bill includes the replayed work,
    checkpoint writes and restart overheads (its ``resilience`` field
    itemizes them).

    ``profile_ops=True`` attaches a :class:`repro.perf.OpProfiler` to the
    training run and fills the report's ``op_profile`` with the measured
    per-op breakdown — the empirical check on the ``sim_*`` cost model.
    """
    plan = plan or SingleNode()
    x = np.asarray(x)
    op_prof = None
    if profile_ops:
        from ..perf import OpProfiler

        op_prof = OpProfiler()
    policy = None if precision in ("fp32", "fp64") else PrecisionPolicy(precision)
    fit_kwargs = dict(epochs=epochs, batch_size=batch_size, loss=loss, lr=lr, seed=seed,
                      precision=policy, profiler=op_prof)

    # The checkpoint cadence depends on step time and MTBF, so a
    # fault-tolerant job is priced before it trains and its model is
    # built here; a plain job trains first and fit builds the model
    # (from the same seed either way).
    resilience = None
    if faults is None:
        history = model.fit(x, y, **fit_kwargs)
    elif not model.built:
        model.build(x.shape[1:], np.random.default_rng(seed))
    profile = profile_model(model, x.shape[1:], batch_size=batch_size)
    if not plan.feasible(profile, cluster, precision):
        raise ValueError(
            f"plan {plan.name} does not fit: needs "
            f"{plan.memory_per_node(profile, precision) / 1e9:.1f} GB/node, node has "
            f"{cluster.node.accelerator.mem_capacity / 1e9:.1f} GB"
        )
    step_t = plan.step_time(profile, cluster, precision)
    steps_per_epoch = int(np.ceil(len(x) / batch_size))
    if faults is not None:
        cadence = plan_checkpoint_interval(profile, cluster, precision=precision, step_time_s=step_t)
        history, resilience = run_resilient_training(
            model, x, y,
            checkpoint_dir=checkpoint_dir or tempfile.mkdtemp(prefix="repro-ckpt-"),
            checkpoint_every=int(cadence["interval_steps"]),
            faults=faults,
            step_time_s=step_t,
            checkpoint_time_s=cadence["checkpoint_time"],
            restart_time_s=cadence["checkpoint_time"],  # reading the snapshot back mirrors writing it
            **fit_kwargs,
        )
    if policy is not None:
        policy.round_params(policy.params)
    if resilience is None:
        executed_steps = steps_per_epoch * len(history)
        total_t = step_t * executed_steps
    else:
        # Replayed work, checkpoint writes and restarts are on the bill.
        executed_steps = resilience.useful_steps + resilience.steps_replayed
        total_t = resilience.sim_total_time
    return TrainingReport(
        history=history,
        profile=profile,
        sim_step_time=step_t,
        sim_epoch_time=step_t * steps_per_epoch,
        sim_total_time=total_t,
        # Energy follows executed (not just useful) steps — replay burns watts.
        energy_joules=step_energy(plan, profile, cluster, precision).total * executed_steps,
        final_loss=history.series("loss")[-1],
        resilience=resilience,
        op_profile=op_prof.as_dict() if op_prof is not None else None,
    )


def simulated_trial_cost(
    benchmark: str | BenchmarkSpec,
    cluster: SimCluster,
    precision: str = "fp32",
    samples_per_epoch: int = 10_000,
    base_epochs: int = 1,
) -> Callable[[Config, int], float]:
    """Cost model for :func:`repro.hpo.scheduler.run_parallel`.

    Maps an HPO config to the simulated seconds one trial takes on a
    single cluster node: configs with wider layers genuinely cost more —
    the heterogeneity that makes async search win (E6).
    """
    spec = get_benchmark(benchmark) if isinstance(benchmark, str) else benchmark
    x, _ = spec.make_data(seed=0)
    input_dim = int(np.prod(x.shape[1:]))

    def cost(config: Config, budget: int) -> float:
        h1 = int(config.get("hidden1", 64))
        h2 = int(config.get("hidden2", 32))
        batch = int(config.get("batch_size", 32))
        from ..hpc.perfmodel import mlp_profile

        profile = mlp_profile([input_dim, h1, h2, 16], batch_size=batch)
        step = SingleNode().step_time(profile, cluster, precision)
        steps = int(np.ceil(samples_per_epoch / batch)) * max(1, base_epochs * budget)
        return step * steps

    return cost


def time_to_loss(
    report_or_history: History | TrainingReport,
    target_loss: float,
    epoch_time: Optional[float] = None,
) -> Optional[float]:
    """Simulated time at which training first reached ``target_loss``."""
    if isinstance(report_or_history, TrainingReport):
        history = report_or_history.history
        epoch_time = report_or_history.sim_epoch_time
    else:
        history = report_or_history
        if epoch_time is None:
            raise ValueError("epoch_time required when passing a bare History")
    for i, loss in enumerate(history.series("loss"), start=1):
        if loss <= target_loss:
            return i * epoch_time
    return None
