"""Seeded, deterministic fault injection.

One :class:`FaultInjector` drives every fault-tolerant execution path in
the library: the resilient training loop, the distributed-SGD
simulators, the sync/async HPO schedulers, and the campaign driver.

Determinism is by construction, not by call order: every decision draws
from a child generator keyed on ``(seed, context, ids...)``, so the same
(seed, trial, attempt) or (seed, incarnation, step) always produces the
same fault regardless of how the event loop interleaved the queries.
This is what makes injected-failure experiments reproducible and lets a
killed-and-resumed training run replay its own fault history exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.context import get_recorder

#: Fault kinds (also the keys of :attr:`FaultInjector.counts`).
CRASH = "crash"          # node dies mid-work; the work is lost and retried
STRAGGLER = "straggler"  # the work completes, `straggler_factor` times slower
NAN = "nan"              # corrupted gradient / NaN objective value
STORAGE = "storage"      # a checkpoint write fails (the old one survives)
WORKER_LOSS = "worker_loss"  # a worker leaves the pool permanently

#: Serving fault kinds (the chaos harness's vocabulary, drawn per
#: (request index, replica) during a traffic replay).
KILL_REPLICA = "kill_replica"          # replica process dies abruptly
HANG_REPLICA = "hang_replica"          # replica wedges and stops answering
SLOW_REPLICA = "slow_replica"          # replica answers, but slow_factor late
CORRUPT_RESPONSE = "corrupt_response"  # replica answers with wrong bytes

SERVING_FAULT_KINDS = (KILL_REPLICA, HANG_REPLICA, SLOW_REPLICA, CORRUPT_RESPONSE)
FAULT_KINDS = (CRASH, STRAGGLER, NAN, STORAGE, WORKER_LOSS) + SERVING_FAULT_KINDS

# Context tags for the keyed RNG streams (never reuse across contexts).
_CTX_TRIAL = 1
_CTX_STEP = 2
_CTX_STORAGE = 3
_CTX_GRAD = 4
_CTX_SERVE = 6


@dataclass(frozen=True)
class FaultSpec:
    """Declarative fault model.

    Probabilities are per *unit of work*: per trial attempt for the
    schedulers, per optimizer step for the training loop, per write for
    checkpoint storage.  Explicit schedules (``crash_steps`` /
    ``nan_steps``) fire exactly once each, at the named global training
    step — the deterministic hammer the property tests use.
    """

    crash_prob: float = 0.0
    straggler_prob: float = 0.0
    straggler_factor: float = 4.0
    nan_prob: float = 0.0
    storage_fail_prob: float = 0.0
    worker_loss_times: Tuple[float, ...] = ()
    crash_steps: Tuple[int, ...] = ()
    nan_steps: Tuple[int, ...] = ()
    kill_replica_prob: float = 0.0
    hang_replica_prob: float = 0.0
    slow_replica_prob: float = 0.0
    corrupt_response_prob: float = 0.0
    slow_factor: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in (
            "crash_prob", "straggler_prob", "nan_prob", "storage_fail_prob",
            "kill_replica_prob", "hang_replica_prob", "slow_replica_prob",
            "corrupt_response_prob",
        ):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {p}")
        if self.straggler_factor < 1.0:
            raise ValueError("straggler_factor must be >= 1")
        if self.slow_factor < 1.0:
            raise ValueError("slow_factor must be >= 1")
        if self.crash_prob + self.nan_prob + self.straggler_prob >= 1.0:
            raise ValueError("fault probabilities must sum to < 1")
        serve_sum = (self.kill_replica_prob + self.hang_replica_prob
                     + self.slow_replica_prob + self.corrupt_response_prob)
        if serve_sum >= 1.0:
            raise ValueError("serving fault probabilities must sum to < 1")
        if any(t < 0 for t in self.worker_loss_times):
            raise ValueError("worker_loss_times must be non-negative")
        if any(s < 0 for s in self.crash_steps) or any(s < 0 for s in self.nan_steps):
            raise ValueError("fault steps must be non-negative")


class FaultInjector:
    """Stateful oracle over a :class:`FaultSpec`.

    The only mutable state is bookkeeping: ``counts`` (injections by
    kind, feeding :class:`repro.resilience.ResilienceReport`) and the
    consumed-once explicit step schedules.  All probabilistic decisions
    are pure functions of (seed, context ids).
    """

    def __init__(self, spec: Optional[FaultSpec] = None, **kwargs) -> None:
        if spec is not None and kwargs:
            raise ValueError("pass either a FaultSpec or keyword fields, not both")
        self.spec = spec if spec is not None else FaultSpec(**kwargs)
        self.counts: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        self._pending_crash_steps = set(self.spec.crash_steps)
        self._pending_nan_steps = set(self.spec.nan_steps)

    def _draw(self, *key: int) -> float:
        seed = [self.spec.seed & 0xFFFFFFFF] + [int(k) & 0xFFFFFFFF for k in key]
        return float(np.random.default_rng(seed).random())

    def record(self, kind: str, n: int = 1) -> None:
        self.counts[kind] += n
        # Every injection in the library funnels through here, so this
        # one hook puts all fault events on the shared obs timeline.
        rec = get_recorder()
        if rec is not None:
            rec.event(f"fault.{kind}", kind="fault", fault=kind, n=n)
            rec.metrics.counter(f"faults.{kind}").inc(n)

    @property
    def total_injected(self) -> int:
        return sum(self.counts.values())

    # -- scheduler-facing (per trial attempt) ---------------------------
    def trial_fault(self, trial_id: int, attempt: int) -> Optional[str]:
        """Fault (if any) for one execution attempt of one trial.

        A single uniform draw is partitioned crash | nan | straggler so
        at most one fault fires per attempt.  Deterministic in
        (seed, trial_id, attempt).
        """
        s = self.spec
        if s.crash_prob == s.nan_prob == s.straggler_prob == 0.0:
            return None
        u = self._draw(_CTX_TRIAL, trial_id, attempt)
        if u < s.crash_prob:
            self.record(CRASH)
            return CRASH
        if u < s.crash_prob + s.nan_prob:
            self.record(NAN)
            return NAN
        if u < s.crash_prob + s.nan_prob + s.straggler_prob:
            self.record(STRAGGLER)
            return STRAGGLER
        return None

    # -- training-loop-facing (per optimizer step) ----------------------
    def crash_now(self, global_step: int, incarnation: int = 0) -> bool:
        """Should the job die before executing ``global_step``?

        Explicit ``crash_steps`` fire once each (the restarted
        incarnation replays past the same step unharmed); rate-based
        crashes are keyed on (incarnation, step) so a restart redraws.
        """
        if global_step in self._pending_crash_steps:
            self._pending_crash_steps.discard(global_step)
            self.record(CRASH)
            return True
        if self.spec.crash_prob > 0.0 and (
            self._draw(_CTX_STEP, incarnation, global_step) < self.spec.crash_prob
        ):
            self.record(CRASH)
            return True
        return False

    def corrupt_gradients(self, global_step: int, grads: Sequence[np.ndarray]) -> bool:
        """Poison this step's gradients (in place) if a NaN fault fires.

        Returns True when corrupted; the training loop's non-finite
        guard then skips the update and quarantines the step.
        """
        due = False
        if global_step in self._pending_nan_steps:
            self._pending_nan_steps.discard(global_step)
            due = True
        elif self.spec.nan_prob > 0.0 and (
            self._draw(_CTX_GRAD, global_step) < self.spec.nan_prob
        ):
            due = True
        if due and len(grads) > 0:
            grads[0][...] = np.nan
            self.record(NAN)
            return True
        return False

    # -- serving-facing (per request per replica) -----------------------
    def serving_fault(self, request_index: int, replica: int) -> Optional[str]:
        """Fault (if any) to inject while ``replica`` handles the
        ``request_index``-th replayed request.

        A single uniform draw partitioned kill | hang | slow | corrupt,
        so at most one serving fault fires per (request, replica) pair;
        deterministic in (seed, request_index, replica) regardless of
        how the router interleaved dispatches.  The *caller* (the chaos
        harness) performs the actual sabotage — this is just the oracle.
        """
        s = self.spec
        if (s.kill_replica_prob == s.hang_replica_prob
                == s.slow_replica_prob == s.corrupt_response_prob == 0.0):
            return None
        u = self._draw(_CTX_SERVE, request_index, replica)
        edge = s.kill_replica_prob
        if u < edge:
            self.record(KILL_REPLICA)
            return KILL_REPLICA
        edge += s.hang_replica_prob
        if u < edge:
            self.record(HANG_REPLICA)
            return HANG_REPLICA
        edge += s.slow_replica_prob
        if u < edge:
            self.record(SLOW_REPLICA)
            return SLOW_REPLICA
        edge += s.corrupt_response_prob
        if u < edge:
            self.record(CORRUPT_RESPONSE)
            return CORRUPT_RESPONSE
        return None

    # -- storage-facing (per checkpoint write) --------------------------
    def storage_write_fails(self, write_index: int) -> bool:
        if self.spec.storage_fail_prob > 0.0 and (
            self._draw(_CTX_STORAGE, write_index) < self.spec.storage_fail_prob
        ):
            self.record(STORAGE)
            return True
        return False

    # -- pool-facing ----------------------------------------------------
    @property
    def worker_loss_times(self) -> Tuple[float, ...]:
        return self.spec.worker_loss_times


def as_injector(faults) -> Optional[FaultInjector]:
    """Coerce None | FaultSpec | FaultInjector into an injector."""
    if faults is None:
        return None
    if isinstance(faults, FaultInjector):
        return faults
    if isinstance(faults, FaultSpec):
        return FaultInjector(faults)
    raise TypeError(f"faults must be a FaultSpec or FaultInjector, got {type(faults).__name__}")
