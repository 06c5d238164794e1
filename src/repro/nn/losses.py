"""Loss functions.

Each loss maps (prediction Tensor, target array) -> scalar Tensor.
Targets are plain NumPy arrays: they never require gradients.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import functional as F
from .tensor import Tensor


def _target(pred: Tensor, target: np.ndarray) -> np.ndarray:
    """``target`` in pred's dtype, refused if broadcasting would grow pred
    (a 1-D ``y`` under an (N, 1) head would score every (i, j) pair)."""
    target = np.asarray(target, dtype=pred.dtype)
    if target.ndim > pred.ndim or any(t not in (1, p) for t, p in zip(target.shape[::-1], pred.shape[::-1])):
        raise ValueError(f"target shape {target.shape} does not broadcast to prediction shape {pred.shape}")
    return target


def mse(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error over all elements (one op-table node)."""
    return F.apply(F.MeanSquaredError, (pred,), _target(pred, target))


def mae(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean absolute error."""
    target = _target(pred, target)
    return F.abs(pred - Tensor(target)).mean()


def huber(pred: Tensor, target: np.ndarray, delta: float = 1.0) -> Tensor:
    """Huber loss: quadratic near zero, linear in the tails."""
    target = _target(pred, target)
    diff = pred - Tensor(target)
    abs_diff = F.abs(diff)
    quad = diff * diff * 0.5
    lin = abs_diff * delta - 0.5 * delta * delta
    return F.where(abs_diff.data <= delta, quad, lin).mean()


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Softmax cross-entropy from raw logits.

    ``labels`` may be integer class ids (N,) or one-hot / soft labels (N, C).
    Routed through the fused :func:`repro.nn.functional.softmax_cross_entropy`
    (one tape node, ``(p - y)/n`` backward) when the logits are 2-D; see
    :func:`cross_entropy_unfused` for the composed reference.
    """
    if logits.ndim == 2:
        return F.softmax_cross_entropy(logits, labels)
    return cross_entropy_unfused(logits, labels)


def cross_entropy_unfused(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Reference composition: log-softmax node + gather node + mean.

    Kept for gradcheck parity tests against the fused op and for logits
    with more than two dimensions.
    """
    labels = np.asarray(labels)
    log_probs = F.log_softmax(logits, axis=-1)
    n = logits.shape[0]
    if labels.ndim == 1:
        picked = log_probs[np.arange(n), labels.astype(np.int64)]
        return -picked.mean()
    soft = Tensor(labels.astype(logits.dtype))
    return -(soft * log_probs).sum(axis=-1).mean()


def binary_cross_entropy_with_logits(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Numerically-stable BCE on raw logits: max(x,0) - x*y + log(1+e^-|x|)."""
    y = Tensor(_target(logits, labels))
    relu_x = F.relu(logits)
    return (relu_x - logits * y + F.softplus(-F.abs(logits))).mean()


def kl_divergence_gaussian(mu: Tensor, log_var: Tensor) -> Tensor:
    """KL(q || N(0, I)) for a diagonal Gaussian — the VAE regularizer.

    Returns the mean over the batch of 0.5 * sum(mu^2 + exp(lv) - lv - 1).
    """
    term = mu * mu + F.exp(log_var) - log_var - 1.0
    return term.sum(axis=-1).mean() * 0.5


def r2_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """1 - R^2, differentiable (useful as a drug-response objective)."""
    target = _target(pred, target)
    t = Tensor(target)
    resid = pred - t
    ss_res = (resid * resid).sum()
    centered = target - target.mean()
    ss_tot = float((centered * centered).sum()) + 1e-12
    return ss_res * (1.0 / ss_tot)


LOSSES = {
    "mse": mse,
    "mae": mae,
    "huber": huber,
    "cross_entropy": cross_entropy,
    "bce_logits": binary_cross_entropy_with_logits,
    "r2": r2_loss,
}


def get(name: str):
    try:
        return LOSSES[name]
    except KeyError:
        raise ValueError(f"unknown loss {name!r}; choose from {sorted(LOSSES)}")


def focal_loss_with_logits(logits: Tensor, labels: np.ndarray, gamma: float = 2.0, alpha: float = 0.25) -> Tensor:
    """Focal loss (Lin et al.) on binary logits — down-weights easy
    negatives, the standard fix for the extreme class imbalance of
    virtual compound screens (hit rates of a few percent).

    FL = -alpha_t (1 - p_t)^gamma log(p_t), with p_t the probability of
    the true class.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    labels = _target(logits, labels)
    y = Tensor(labels)
    p = F.sigmoid(logits)
    p_t = p * y + (1.0 - p) * (1.0 - y)
    # np.where with Python-float branches yields float64; pin the input
    # dtype so a float32 pipeline stays float32 end to end.
    alpha_t = Tensor(np.where(labels > 0.5, alpha, 1.0 - alpha).astype(labels.dtype))
    # Stable log(p_t) via the BCE identity: log p_t = -bce(logits, y) per-elem.
    bce_elem = F.relu(logits) - logits * y + F.softplus(-F.abs(logits))
    modulator = (1.0 - p_t) ** gamma
    return (alpha_t * modulator * bce_elem).mean()


LOSSES["focal"] = focal_loss_with_logits
