"""Checkpoint/restart training: the analytic model, lived.

:func:`run_resilient_training` is :meth:`Model.fit` under a driver that
expects to die.  It holds no forward/backward of its own: it is the
restart loop, checkpoint cadence, crash point, poisoned-gradient
quarantine and step ledger around :class:`repro.nn.FitLoop`, acting at
that loop's three boundaries.  It snapshots atomically on a periodic
step interval (pick it with :func:`plan_checkpoint_interval`, which
applies Daly's formula to the simulated machine), and when an injected
fault kills the job it restores the newest snapshot — weights, optimizer
moments, per-layer dropout RNG states and everything the loop carries
across a batch boundary — and replays forward.  Because every stochastic
input is part of the snapshot, a killed-and-resumed run is
**bit-identical** to an uninterrupted one under any of ``fit``'s options
(property-tested).

The :class:`ResilienceReport` it returns is the measured counterpart of
:func:`repro.hpc.resilience.expected_runtime`: E15 compares the two.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..hpc.cluster import SimCluster
from ..hpc.perfmodel import ModelProfile
from ..nn.model import FitLoop, History, Model
from ..obs.context import get_recorder
from .checkpoint import CheckpointManager
from .faults import CRASH, NAN, STORAGE, FaultSchedule, record


class SimulatedCrash(RuntimeError):
    """Raised inside the training loop when an injected node crash fires."""


@dataclass
class ResilienceReport:
    """What a fault-tolerant execution actually went through.

    Simulated-time fields are populated when the caller provides per-step
    / per-checkpoint / per-restart costs (usually priced on a
    :class:`~repro.hpc.cluster.SimCluster`); step counts are always
    tracked, so :attr:`measured_efficiency` is meaningful either way.
    """

    faults: Dict[str, int] = field(default_factory=Counter)  # met by this run, by kind
    restarts: int = 0
    retries: int = 0
    quarantined: int = 0
    workers_lost: int = 0
    nan_updates_skipped: int = 0
    checkpoints_written: int = 0
    checkpoint_write_failures: int = 0
    snapshots_skipped: int = 0  # unreadable snapshots a restore stepped over
    useful_steps: int = 0
    steps_replayed: int = 0
    sim_useful_time: float = 0.0
    sim_lost_time: float = 0.0
    sim_checkpoint_time: float = 0.0
    sim_restart_time: float = 0.0

    @property
    def sim_total_time(self) -> float:
        return (self.sim_useful_time + self.sim_lost_time
                + self.sim_checkpoint_time + self.sim_restart_time)

    @property
    def measured_efficiency(self) -> float:
        """Useful fraction of the run — the measured column of E15."""
        total = self.sim_total_time
        if total > 0.0:
            return self.sim_useful_time / total
        executed = self.useful_steps + self.steps_replayed
        if executed == 0:
            return 1.0
        return self.useful_steps / executed

    def total_faults(self) -> int:
        return sum(self.faults.values())

    def summary(self) -> str:
        faults = " ".join(f"{k}={v}" for k, v in sorted(self.faults.items()) if v) or "none"
        return (
            f"resilience[faults: {faults}] restarts={self.restarts} "
            f"retries={self.retries} quarantined={self.quarantined} "
            f"workers_lost={self.workers_lost} ckpts={self.checkpoints_written} "
            f"(+{self.checkpoint_write_failures} failed, {self.snapshots_skipped} skipped) "
            f"replayed={self.steps_replayed} steps "
            f"efficiency={self.measured_efficiency:.3f}"
        )


class _ResilientLoop(FitLoop):
    """:class:`FitLoop` under a fault schedule: crash before a batch,
    quarantine a poisoned window, and after the cursor moves keep the
    step ledger and snapshot on cadence.  The snapshot header keeps the
    layout older ``ckpt-*.npz`` directories have; keys added since are
    read with defaults."""

    def __init__(self, manager: CheckpointManager, report: "ResilienceReport",
                 checkpoint_every: Optional[int], /, *fit_args, **fit_kwargs) -> None:
        super().__init__(*fit_args, **fit_kwargs)
        self.manager, self.faults, self.report = manager, manager.faults, report
        self.checkpoint_every = checkpoint_every
        self.furthest = 0  # distinct batches completed at least once
        self.snapshot_due = False

    # -- the three boundaries ---------------------------------------------
    def before_batch(self) -> None:
        # The incarnation number is the restart count: a restart redraws.
        faults = self.faults
        if faults is not None and faults.draw("step", self.report.restarts, self.global_step) == CRASH:
            record(CRASH, self.report.faults)
            raise SimulatedCrash(f"injected crash at step {self.global_step}")

    def accept_update(self) -> bool:
        grads = [p.grad for p in self.model.parameters() if p.grad is not None]
        if grads and self.faults is not None and self.faults.draw("grad", self.global_step) == NAN:
            grads[0][...] = np.nan  # poisoned in place: the guard below must catch it
            record(NAN, self.report.faults)
        if not np.isfinite(self.last_loss) or not all(np.isfinite(g).all() for g in grads):
            # Quarantine: drop the poisoned update, keep training.
            self.report.nan_updates_skipped += 1
            return False
        return True

    def cursor_moved(self) -> None:
        if self.perm is None:  # an epoch ended: always snapshot
            self.snapshot()
            return
        if self.global_step <= self.furthest:
            self.report.steps_replayed += 1
        else:
            self.report.useful_steps += 1
            self.furthest = self.global_step
        if self.checkpoint_every is not None and self.global_step % self.checkpoint_every == 0:
            self.snapshot_due = True
        # A snapshot holds no half-accumulated gradients: one that falls
        # due inside an accumulation window waits for the window to close.
        if self.snapshot_due and self.accum == 0:
            self.snapshot()

    # -- snapshot / restore -------------------------------------------------
    def snapshot(self, force: bool = False) -> None:
        self.snapshot_due = False
        meta = {
            "epoch_sum": self.epoch_sum,
            "epoch_count": self.batch,
            "layer_rngs": self.model.layer_rng_states(),
            "best_val": self.best_val,
            "patience_left": self.patience_left,
            "stopped": self.stopped,
            "precision": None if self.ctrl is None else self.ctrl.state(),
        }
        extra = {} if self.perm is None else {"perm": self.perm}
        for i, w in enumerate(self.best_weights or ()):
            extra[f"best_{i:04d}"] = w
        rows = [{k: float(v) for k, v in row.items()} for row in self.history.epochs]
        path = self.manager.save(
            self.model, self.opt, epoch=self.epoch, step=self.batch,
            global_step=self.global_step, rng=self.rng, extra_arrays=extra,
            history=rows, metadata=meta, force=force,
        )
        if path is not None:
            self.report.checkpoints_written += 1
        else:
            self.report.checkpoint_write_failures += 1
        rec = get_recorder()
        if rec is not None:
            rec.event(
                "checkpoint", kind="resilience.checkpoint",
                epoch=self.epoch, global_step=self.global_step, ok=path is not None,
            )

    def restore(self) -> None:
        """Put the newest readable snapshot back into model, optimizer and loop."""
        header = self.manager.restore(self.model, self.opt)
        meta, extra = header.get("metadata", {}), header["extra"]
        if header["rng"] is not None:
            self.rng = header["rng"]
        self.model.set_layer_rng_states(meta.get("layer_rngs", {}))
        self.epoch = int(header["epoch"])
        self.batch = int(header.get("step", 0))
        self.global_step = int(header.get("global_step", 0))
        self.perm = extra["perm"].astype(np.int64) if self.batch > 0 else None
        self.epoch_sum = float(meta.get("epoch_sum", 0.0))
        self.history.epochs[:] = header.get("history", [])
        self.best_val = meta.get("best_val", np.inf)
        self.patience_left = meta.get("patience_left", self.patience)
        self.stopped = meta.get("stopped", False)
        self.best_weights = [extra[k] for k in sorted(extra) if k.startswith("best_")] or None
        if self.ctrl is not None and meta.get("precision") is not None:
            self.ctrl.load_state(meta["precision"])


def run_resilient_training(
    model: Model,
    x: np.ndarray,
    y: Optional[np.ndarray],
    *,
    checkpoint_dir,
    checkpoint_every: Optional[int] = 50,
    faults: Optional[FaultSchedule] = None,
    max_restarts: int = 50,
    step_time_s: float = 0.0,
    checkpoint_time_s: float = 0.0,
    restart_time_s: float = 0.0,
    **fit_kwargs,
) -> Tuple[History, ResilienceReport]:
    """``model.fit(x, y, **fit_kwargs)`` under failures: survive them,
    account for them.

    Every keyword not named here is :meth:`Model.fit`'s — ``epochs``,
    ``precision``, ``clip_norm``, ``grad_accumulation``, validation and
    early stopping all compose with crashes.  ``checkpoint_every`` is in
    batches (optimizer steps at ``grad_accumulation=1``; None disables
    periodic snapshots; epoch boundaries still snapshot).  ``faults``
    draws crashes per (restart count, step), NaN gradients per step and
    failed snapshot writes per write; the report counts what this run
    met, so one schedule passed to two runs reports the same faults.
    ``step_time_s`` / ``checkpoint_time_s`` / ``restart_time_s`` are the
    simulated costs used for the report's time ledger; leave them at 0
    to account in steps only.  An existing checkpoint directory resumes —
    which is exactly how a killed-and-rescheduled campaign job picks up
    its work.
    """
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1 (or None)")
    report = ResilienceReport()
    manager = CheckpointManager(checkpoint_dir, faults=faults)
    loop = _ResilientLoop(manager, report, checkpoint_every, model, x, y, **fit_kwargs)
    if manager.latest() is None:
        # Baseline snapshot: anchors restarts that beat the first periodic
        # checkpoint.  Written force=True — job staging is assumed durable.
        loop.snapshot(force=True)

    rec = get_recorder()
    while True:
        try:
            # Each incarnation is one `fit` span; an injected crash
            # closes it (and its open epoch/step spans) aborted.
            loop.restore()
            history = loop.run()
            break
        except SimulatedCrash:
            report.restarts += 1
            if rec is not None:
                rec.event("restart", kind="resilience.restart", incarnation=report.restarts)
            if report.restarts > max_restarts:
                raise RuntimeError(
                    f"gave up after {max_restarts} restarts — raise max_restarts "
                    "or lower the injected crash rate"
                )

    report.faults[STORAGE] = manager.writes_failed
    report.snapshots_skipped = manager.snapshots_skipped
    # The time ledger is the step ledger priced.
    report.sim_useful_time = report.useful_steps * step_time_s
    report.sim_lost_time = report.steps_replayed * step_time_s
    report.sim_checkpoint_time = report.checkpoints_written * checkpoint_time_s
    report.sim_restart_time = report.restarts * restart_time_s
    return history, report


def plan_checkpoint_interval(
    profile: ModelProfile,
    cluster: SimCluster,
    *,
    precision: str = "fp32",
    n_nodes: Optional[int] = None,
    node_mtbf: float = 5.0 * 365 * 86400,
    tier_name: str = "nvram",
    step_time_s: Optional[float] = None,
) -> Dict[str, float]:
    """Daly-optimal checkpoint cadence for a training job on ``cluster``.

    Returns mtbf, checkpoint write time, the optimal interval in
    simulated seconds, and (when ``step_time_s`` is given) the same
    interval converted to optimizer steps — the value to pass as
    ``checkpoint_every``.
    """
    from ..hpc.resilience import checkpoint_time_for_training, daly_interval, system_mtbf

    nodes = n_nodes if n_nodes is not None else cluster.n_nodes
    mtbf = system_mtbf(node_mtbf, nodes)
    ckpt = checkpoint_time_for_training(profile, cluster.node.tier(tier_name), precision)
    tau = daly_interval(ckpt, mtbf)
    out: Dict[str, float] = {
        "mtbf": mtbf,
        "checkpoint_time": ckpt,
        "interval_s": tau,
    }
    if step_time_s is not None and step_time_s > 0:
        out["interval_steps"] = float(max(1, int(round(tau / step_time_s))))
    return out
