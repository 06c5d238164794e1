"""Fault-tolerant campaign runtime (the lived-in half of E15).

:mod:`repro.hpc.resilience` *analyzes* failures (Young/Daly); this
package *survives* them.  It provides:

* :class:`FaultSchedule` — the one seeded, deterministic fault schedule
  (node crashes, stragglers, NaN/corrupted gradients, storage write
  failures, permanent worker loss, replica kills/hangs/slowdowns,
  consumer kills) that the fit loop's driver, the checkpoint
  writer, the distributed-SGD simulators, the HPO loops, the campaign
  driver and the serving router all read through ``draw(site, *key)``.
* :class:`CheckpointManager` — periodic atomic (write-tmp-then-rename)
  training snapshots including optimizer moments, epoch/step cursor and
  RNG state, with Daly-optimal interval planning.
* :func:`run_resilient_training` — :meth:`Model.fit` under a checkpoint/restart
  driver; killed-and-resumed runs are bit-identical to uninterrupted ones.
* :class:`ResilienceReport` — what happened: faults injected, retries,
  restarts, checkpoint overhead, recovered work, measured efficiency.
"""

from .checkpoint import CheckpointManager
from .faults import (
    CRASH,
    FAULT_KINDS,
    HANG_REPLICA,
    KILL_REPLICA,
    NAN,
    SERVING_FAULT_KINDS,
    SLOW_REPLICA,
    STORAGE,
    STRAGGLER,
    WORKER_LOSS,
    FaultSchedule,
)
from .runtime import (
    ResilienceReport,
    SimulatedCrash,
    plan_checkpoint_interval,
    run_resilient_training,
)

__all__ = [
    "FaultSchedule", "FAULT_KINDS",
    "CRASH", "STRAGGLER", "NAN", "STORAGE", "WORKER_LOSS",
    "SERVING_FAULT_KINDS",
    "KILL_REPLICA", "HANG_REPLICA", "SLOW_REPLICA",
    "CheckpointManager",
    "ResilienceReport", "SimulatedCrash",
    "run_resilient_training", "plan_checkpoint_interval",
]
