"""Numerically-exact simulation of distributed SGD variants.

Unlike :mod:`repro.hpc.parallelism` (which models *time*), this module
simulates the *numerics* of distributed training on real NumPy models.
It holds no step body: each study is a :class:`repro.nn.FitLoop` driver
stepping ``SGD(lr)`` that acts on a batch's gradients at the loop's
boundaries, or a call into :func:`repro.parallel.fit_data_parallel`.

* :func:`train_sync_data_parallel` — K replicas, exact gradient averaging
  (mathematically identical to large-batch SGD; the tests verify this).
* :func:`train_async_sgd` — parameter-server asynchrony: each arriving
  gradient was computed against weights ``staleness`` updates old.
  Quantifies claim C10's dark side: the convergence price of hiding
  communication latency with asynchrony (experiment E13).
* :func:`train_topk_sgd` — top-k gradient sparsification with error
  feedback, tracking the communicated byte volume.  Quantifies the
  keynote's forward-looking claim that "future DNNs may rely less on
  dense communication patterns" (experiment E14).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..nn.model import FitLoop, Model
from ..nn.optim import SGD
from ..parallel.ddp import fit_data_parallel
from ..resilience.faults import NAN, FaultSchedule, record


@dataclass
class DistributedRunResult:
    """Outcome of a simulated distributed training run.  ``dropped_updates``
    counts poisoned gradients that were discarded; ``workers_lost`` stays 0
    (a rank that dies and resumes is ROADMAP item 4's)."""

    epoch_losses: List[float]
    comm_bytes: float = 0.0
    dense_bytes: float = 0.0
    updates: int = 0
    dropped_updates: int = 0
    workers_lost: int = 0

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1]

    @property
    def compression_ratio(self) -> float:
        if self.comm_bytes == 0:
            return float("inf")
        return self.dense_bytes / self.comm_bytes


class _StudyLoop(FitLoop):
    """:class:`FitLoop` stepping ``SGD(lr)``, with a result to fill."""

    def __init__(self, model: Model, x, y, lr: float, **fit_kwargs) -> None:
        super().__init__(model, x, y, **fit_kwargs)
        # After FitLoop has built the model: the generator is consumed in one
        # order (build, then a permutation per epoch) built or unbuilt.
        self.opt = SGD(model.parameters(), lr=lr)
        self.result = DistributedRunResult([])

    def finish(self) -> DistributedRunResult:
        self.result.epoch_losses = self.run().series("loss")
        return self.result


def train_sync_data_parallel(
    model: Model,
    x: np.ndarray,
    y,
    n_workers: int,
    epochs: int = 5,
    batch_size_per_worker: int = 16,
    loss: str = "mse",
    lr: float = 1e-2,
    seed: int = 0,
) -> DistributedRunResult:
    """Synchronous data parallelism with exact gradient averaging.

    Every step, all workers compute gradients at the *same* weights on
    their share of one global batch and the average is applied once
    (plain SGD): :func:`repro.parallel.fit_data_parallel` on its serial
    backend, which is pinned bit-identical to real rank processes.  The
    reported volume is dense: every worker's full gradient per update.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    fit = fit_data_parallel(
        model, x, y, world=n_workers, backend="serial",
        batch_size=n_workers * batch_size_per_worker, drop_last=True,
        optimizer_factory=lambda params: SGD(params, lr=lr),
        epochs=epochs, loss=loss, seed=seed,
    )
    dense = model.param_count() * 8.0 * n_workers * fit.steps
    return DistributedRunResult(fit.epoch_losses, dense, dense, updates=fit.steps)


class _AsyncLoop(_StudyLoop):
    """Gradients are taken at the weights ``staleness`` updates ago (a
    ring of weight copies makes that exact) and applied to the live ones;
    the parameter server drops a poisoned one."""

    def __init__(self, staleness: int, faults: Optional[FaultSchedule], /, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.ring, self.faults = deque(maxlen=staleness + 1), faults

    def batch_grads(self, xb, yb, window: int) -> None:
        params = self.opt.params
        live = [p.data.copy() for p in params]
        self.ring.append(live)
        for p, w in zip(params, self.ring[0]):  # the oldest kept: `staleness` updates ago
            p.data[...] = w
        super().batch_grads(xb, yb, window)
        for p, w in zip(params, live):
            p.data[...] = w

    def accept_update(self) -> bool:
        grads = [p.grad for p in self.opt.params if p.grad is not None]
        if grads and self.faults is not None and self.faults.draw("grad", self.global_step) == NAN:
            grads[0][...] = np.nan  # the arriving gradient is poisoned in place
            record(NAN)
        if not all(np.isfinite(g).all() for g in grads):
            self.result.dropped_updates += 1  # quarantined: the live weights stand
            return False
        self.result.updates += 1
        return True


def train_async_sgd(
    model: Model,
    x: np.ndarray,
    y,
    n_workers: int,
    staleness: int = 0,
    epochs: int = 5,
    batch_size: int = 16,
    loss: str = "mse",
    lr: float = 1e-2,
    seed: int = 0,
    faults: Optional[FaultSchedule] = None,
) -> DistributedRunResult:
    """Parameter-server asynchronous SGD with fixed gradient staleness.

    The server applies one worker gradient per step; that gradient was
    computed at the weights ``staleness`` server-updates ago (0 = fully
    synchronous-equivalent pipeline).  A weight-snapshot ring buffer makes
    the staleness exact rather than stochastic, which isolates the effect
    for the E13 ablation.

    A ``faults`` schedule may poison arriving gradients (NaN faults); the
    parameter server drops those updates rather than absorbing NaNs —
    the live weights are untouched and the run reports the drop count.
    As everywhere under :class:`FitLoop`, a dropped update drops the
    update, not the observation: its batch loss stays in the epoch row.
    """
    if staleness < 0:
        raise ValueError("staleness must be >= 0")
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    result = _AsyncLoop(staleness, faults, model, x, y, lr, epochs=epochs,
                        batch_size=batch_size, loss=loss, seed=seed).finish()
    result.comm_bytes = result.dense_bytes = model.param_count() * 8.0 * result.updates
    return result


def topk_sparsify(grad: np.ndarray, fraction: float) -> Tuple[np.ndarray, int]:
    """Keep the top-``fraction`` entries of ``grad`` by magnitude.

    Returns (sparse gradient with zeros elsewhere, number kept).
    """
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    flat = grad.reshape(-1)
    k = max(1, int(round(flat.size * fraction)))
    if k >= flat.size:
        return grad, flat.size
    idx = np.argpartition(np.abs(flat), flat.size - k)[-k:]
    out = np.zeros_like(flat)
    out[idx] = flat[idx]
    return out.reshape(grad.shape), k


class _TopkLoop(_StudyLoop):
    """Only the top-``fraction`` entries of each gradient reach the step;
    with ``error_feedback`` the rest is carried to the next one."""

    def __init__(self, fraction: float, error_feedback: bool, /, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.fraction, self.error_feedback = fraction, error_feedback
        self.residual = [np.zeros_like(p.data) for p in self.opt.params]

    def accept_update(self) -> bool:
        self.arena.bind(zero_unreached=True)
        res = self.result
        for i, p in enumerate(self.opt.params):
            grad = p.grad
            corrected = grad + self.residual[i] if self.error_feedback else grad
            sparse, kept = topk_sparsify(corrected, self.fraction)
            if self.error_feedback:
                self.residual[i] = corrected - sparse
            grad[...] = sparse
            res.comm_bytes += kept * 12.0
            res.dense_bytes += grad.size * 8.0
        res.updates += 1
        return True


def train_topk_sgd(
    model: Model,
    x: np.ndarray,
    y,
    fraction: float = 0.1,
    error_feedback: bool = True,
    epochs: int = 5,
    batch_size: int = 32,
    loss: str = "mse",
    lr: float = 1e-2,
    seed: int = 0,
) -> DistributedRunResult:
    """SGD with top-k gradient sparsification.

    Only the top-``fraction`` gradient entries are "communicated" (applied);
    with ``error_feedback`` the dropped residual accumulates locally and is
    added to the next step's gradient (Stich et al.) — the mechanism that
    makes aggressive sparsification converge.

    Communicated bytes count 12 bytes per sent entry (8-byte value +
    4-byte index) vs 8 bytes per entry dense.
    """
    return _TopkLoop(fraction, error_feedback, model, x, y, lr, epochs=epochs,
                     batch_size=batch_size, loss=loss, seed=seed).finish()
