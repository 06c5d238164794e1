"""Numerically-exact simulation of distributed SGD variants.

Unlike :mod:`repro.hpc.parallelism` (which models *time*), this module
simulates the *numerics* of distributed training on real NumPy models.
It holds no step body: each study is a :class:`repro.nn.FitLoop` stepping
``SGD(lr)`` under drivers that act on a batch's gradients at the loop's
boundaries (async SGD shares the resilience runtime's quarantine driver).
Synchronous data parallelism with exact gradient averaging
is :func:`repro.parallel.fit_data_parallel` (``backend="serial"`` runs it
in one process).

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
from ..resilience.faults import FaultSchedule
from ..resilience.runtime import _Quarantine


@dataclass
class DistributedRunResult:
    """Outcome of a simulated distributed training run.  ``dropped_updates``
    counts poisoned gradients that were discarded."""

    epoch_losses: List[float]
    comm_bytes: float = 0.0
    dense_bytes: float = 0.0
    updates: int = 0
    dropped_updates: int = 0

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1]

    @property
    def compression_ratio(self) -> float:
        if self.comm_bytes == 0:
            return float("inf")
        return self.dense_bytes / self.comm_bytes


class _Stale:
    """Driver: each gradient is taken at the weights ``staleness`` updates
    ago (a ring of weight copies makes that exact), then applied live."""

    def __init__(self, staleness: int) -> None:
        self.ring = deque(maxlen=staleness + 1)

    def batch_grads(self, loop: FitLoop, body, xb, yb, window: int) -> None:
        params = loop.opt.params
        live = [p.data.copy() for p in params]
        self.ring.append(live)
        for p, w in zip(params, self.ring[0]):  # the oldest kept: `staleness` updates ago
            p.data[...] = w
        body(xb, yb, window)
        for p, w in zip(params, live):
            p.data[...] = w


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
    loop = FitLoop(model, x, y, epochs=epochs, batch_size=batch_size, loss=loss, seed=seed)
    # After FitLoop has built the model: the generator is consumed in one
    # order (build, then a permutation per epoch) built or unbuilt.
    loop.opt = SGD(model.parameters(), lr=lr)
    server = _Quarantine(faults)  # the parameter server drops a poisoned gradient
    loop.drivers = (_Stale(staleness), server)
    losses = loop.run().series("loss")
    updates = loop.opt.step_count  # the windows the server kept
    sent = model.param_count() * 8.0 * updates
    return DistributedRunResult(losses, sent, sent, updates, server.dropped)


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


class _Topk:
    """Driver: only the top-``fraction`` entries of each gradient reach
    the step; with ``error_feedback`` the rest is carried to the next
    one.  ``comm_bytes`` and ``dense_bytes`` count what was sent."""

    def __init__(self, loop: FitLoop, fraction: float, error_feedback: bool) -> None:
        self.fraction, self.error_feedback = fraction, error_feedback
        self.residual = [np.zeros_like(p.data) for p in loop.opt.params]
        self.comm_bytes = self.dense_bytes = 0.0

    def accept_update(self, loop: FitLoop) -> bool:
        loop.arena.bind(zero_unreached=True)
        for i, p in enumerate(loop.opt.params):
            grad = p.grad
            corrected = grad + self.residual[i] if self.error_feedback else grad
            sparse, kept = topk_sparsify(corrected, self.fraction)
            if self.error_feedback:
                self.residual[i] = corrected - sparse
            grad[...] = sparse
            self.comm_bytes += kept * 12.0
            self.dense_bytes += grad.size * 8.0
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
    loop = FitLoop(model, x, y, epochs=epochs, batch_size=batch_size, loss=loss, seed=seed)
    loop.opt = SGD(model.parameters(), lr=lr)  # after the build, as in train_async_sgd
    topk = _Topk(loop, fraction, error_feedback)
    loop.drivers = (topk,)
    losses = loop.run().series("loss")
    return DistributedRunResult(losses, topk.comm_bytes, topk.dense_bytes,
                                updates=loop.opt.step_count)
