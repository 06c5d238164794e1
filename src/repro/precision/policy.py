"""Mixed-precision training policies.

A :class:`PrecisionPolicy` plugs into the standard fit loop and reproduces
the numerics of low-precision training:

* **master weights** are kept at full precision;
* the *working copy* used by forward/backward is rounded to the target
  format before every step (emulating a half-precision compute datapath);
* gradients are rounded to the target format after backward;
* for narrow-range formats (fp16, fp8) a **dynamic loss scale** multiplies
  the loss before backward and divides gradients after, preventing
  underflow of small gradients — the standard mixed-precision recipe.

This is the mechanism behind experiment E1: the same model trained under
different policies, with only the rounding changing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..nn.model import Model
from ..nn.optim import Optimizer
from ..nn.tensor import Tensor
from . import quantize as quantize_mod
from .rounding import FORMAT_INFO, get_rounder


@dataclass
class LossScaler:
    """Dynamic loss scaling (NVIDIA-style).

    Doubles the scale every ``growth_interval`` good steps; on overflow
    (non-finite gradients) skips the step and halves the scale.
    """

    scale: float = 2.0 ** 12
    growth_factor: float = 2.0
    backoff_factor: float = 0.5
    growth_interval: int = 200
    max_scale: float = 2.0 ** 24
    min_scale: float = 1.0
    _good_steps: int = field(default=0, repr=False)
    overflows: int = field(default=0, repr=False)

    def check_and_update(self, grads: Sequence[np.ndarray]) -> bool:
        """Inspect unscaled-check of grads; returns True if the step should
        be applied (grads finite) and updates the scale either way."""
        finite = all(np.all(np.isfinite(g)) for g in grads if g is not None)
        if finite:
            self._good_steps += 1
            if self._good_steps >= self.growth_interval:
                self.scale = min(self.scale * self.growth_factor, self.max_scale)
                self._good_steps = 0
            return True
        self.overflows += 1
        self.scale = max(self.scale * self.backoff_factor, self.min_scale)
        self._good_steps = 0
        return False


class PrecisionPolicy:
    """Rounding policy applied around each optimizer step.

    Parameters
    ----------
    fmt:
        One of ``fp64 | fp32 | fp16 | bf16 | fp8_e4m3 | int8``.
    loss_scaling:
        Enable dynamic loss scaling (default: on for fp16/fp8, off otherwise).
    stochastic:
        Use stochastic rounding for the weight update (fp16 only) —
        the keynote's "new design points to accelerate training".
    int8_calibration:
        Calibration method when ``fmt == 'int8'``.
    """

    def __init__(
        self,
        fmt: str = "fp32",
        loss_scaling: Optional[bool] = None,
        stochastic: bool = False,
        int8_calibration: str = "minmax",
        seed: int = 0,
    ) -> None:
        if fmt != "int8":
            self._round = get_rounder(fmt)  # validates fmt
        else:
            self._round = None
        self.fmt = fmt
        narrow = fmt in ("fp16", "fp8_e4m3")
        self.loss_scaling = narrow if loss_scaling is None else loss_scaling
        self.scaler = LossScaler() if self.loss_scaling else None
        self.stochastic = stochastic
        self.int8_calibration = int8_calibration
        self._rng = np.random.default_rng(seed)
        self.skipped_steps = 0

    # -- rounding primitives -------------------------------------------
    def round_array(self, x: np.ndarray) -> np.ndarray:
        if self.fmt == "int8":
            if not np.any(x):
                # Zeros (fresh biases) are exactly representable at any
                # scale; calibrate() rejects all-zero tensors by design.
                return np.array(x, dtype=np.float64, copy=True)
            return quantize_mod.calibrate(x, method=self.int8_calibration).fake_quantize(x)
        return self._round(x)

    def round_for(self, param: Tensor, x: np.ndarray) -> np.ndarray:
        """Round ``x`` (``param``'s values or gradient) to ``param``'s
        format — the one per-parameter hook every rounding site goes
        through; :class:`LayerwisePolicy` overrides it."""
        return self.round_array(x)

    def round_params(self, params: Sequence[Tensor]) -> None:
        """Round parameter values in place (the working copy)."""
        for p in params:
            p.data[...] = self.round_for(p, p.data)

    def round_grads(self, params: Sequence[Tensor]) -> None:
        for p in params:
            if p.grad is not None:
                p.grad[...] = self.round_for(p, p.grad)

    # -- training step --------------------------------------------------
    def loss_scale(self) -> float:
        return self.scaler.scale if self.scaler is not None else 1.0

    def train_step(
        self,
        model: Model,
        optimizer: Optimizer,
        xb: np.ndarray,
        target,
        loss_fn: Callable,
    ) -> float:
        """One mixed-precision training step; returns the (unscaled) loss.

        Master weights live in ``self._master``; the model's tensors hold
        the rounded working copy during forward/backward.
        """
        params = optimizer.params
        if not hasattr(self, "_master"):
            self._master: List[np.ndarray] = [p.data.copy() for p in params]

        # Working copy = rounded master weights.
        for p, m in zip(params, self._master):
            p.data[...] = self.round_for(p, m)

        pred = model.forward(Tensor(xb), training=True)
        loss = loss_fn(pred, target)
        loss_value = loss.item()

        scale = self.loss_scale()
        optimizer.zero_grad()
        loss.backward(np.asarray(scale, dtype=loss.data.dtype))

        # Emulate a low-precision backward datapath.
        self.round_grads(params)

        # Unscale.
        if scale != 1.0:
            for p in params:
                if p.grad is not None:
                    p.grad = p.grad / scale

        if self.scaler is not None:
            ok = self.scaler.check_and_update([p.grad for p in params])
            if not ok:
                self.skipped_steps += 1
                return loss_value

        # Guard: even without scaling, never apply a non-finite update.
        if any(p.grad is not None and not np.all(np.isfinite(p.grad)) for p in params):
            self.skipped_steps += 1
            return loss_value

        # Apply the update to *master* weights at full precision.
        for p, m in zip(params, self._master):
            p.data[...] = m
        optimizer.step()
        for i, p in enumerate(params):
            if self.stochastic and self.fmt == "fp16":
                from .rounding import stochastic_round_fp16

                self._master[i] = p.data.copy()
                p.data[...] = stochastic_round_fp16(p.data, self._rng)
            else:
                self._master[i] = p.data.copy()
        return loss_value


def train_with_policy(
    model: Model,
    x: np.ndarray,
    y,
    policy: PrecisionPolicy,
    epochs: int = 10,
    batch_size: int = 32,
    loss: str = "mse",
    optimizer: Optional[Optimizer] = None,
    lr: float = 1e-3,
    seed: int = 0,
) -> List[float]:
    """Train ``model`` under ``policy``; returns per-epoch mean losses.

    The companion of :meth:`Model.fit` for experiment E1: identical loop
    structure, with the policy wrapped around every step.
    """
    from ..nn import losses as losses_mod
    from ..nn.dataloader import DataLoader
    from ..nn.optim import Adam

    rng = np.random.default_rng(seed)
    x = np.asarray(x)
    if not model.built:
        model.build(x.shape[1:], rng)
    loss_fn = losses_mod.get(loss) if isinstance(loss, str) else loss
    opt = optimizer or Adam(model.parameters(), lr=lr)
    loader = DataLoader(x, y, batch_size=batch_size, shuffle=True, rng=rng)

    epoch_losses: List[float] = []
    for _ in range(epochs):
        total, count = 0.0, 0
        for xb, yb in loader:
            target = xb if yb is None else yb
            total += policy.train_step(model, opt, xb, target, loss_fn)
            count += 1
        epoch_losses.append(total / max(count, 1))
    # Leave the rounded working copy in the model (inference at the target
    # precision, as deployed low-precision models would run).
    policy.round_params(opt.params)
    return epoch_losses


class LayerwisePolicy(PrecisionPolicy):
    """Mixed precision with per-parameter format overrides.

    The production AMP recipe: matmul-heavy weights run at the narrow
    format while numerically-sensitive parameters (normalization gains and
    biases, typically small and variance-critical) stay at fp32.

    ``overrides`` maps a substring of the parameter's ``name`` to a format;
    the first matching substring wins, everything else uses ``fmt``.
    """

    def __init__(
        self,
        fmt: str = "fp16",
        overrides: Optional[dict] = None,
        loss_scaling: Optional[bool] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(fmt=fmt, loss_scaling=loss_scaling, seed=seed)
        if overrides is None:  # `overrides or ...` would replace an empty map too
            overrides = {"gamma": "fp32", "beta": "fp32", ".b": "fp32"}
        self.overrides = dict(overrides)
        # Validate every override format eagerly.
        self._rounders = {f: get_rounder(f) for f in set(self.overrides.values())}

    def _format_for(self, name: str) -> str:
        for key, f in self.overrides.items():
            if key in (name or ""):
                return f
        return self.fmt

    def round_for(self, param: Tensor, x: np.ndarray) -> np.ndarray:
        f = self._format_for(param.name)
        if f == self.fmt:
            return self.round_array(x)
        return self._rounders[f](x)
