"""Mixed-precision training policies.

A :class:`PrecisionPolicy` is a step controller for :meth:`Model.fit`
(``model.fit(..., precision=policy)``) that reproduces the numerics of
low-precision training on float64 storage:

* **master weights** are kept at full precision — they are ``p.data``
  everywhere outside forward/backward;
* the *working copy* used by forward/backward is rounded to the target
  format on entering ``cast()`` (emulating a half-precision compute
  datapath) and the master weights are put back on leaving it;
* gradients are rounded to the target format when their window closes;
* for narrow-range formats (fp16, fp8) a **dynamic loss scale** multiplies
  the loss before backward and divides gradients after, preventing
  underflow of small gradients — the standard mixed-precision recipe.

This is the mechanism behind experiment E1: the same model trained under
different policies, with only the rounding changing.
"""

from __future__ import annotations

import contextlib
from dataclasses import asdict, dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from ..nn.model import Model
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


class StepController:
    """What :class:`repro.nn.FitLoop` drives around every step, with the
    loss-scale arithmetic written once: ``cast_array()`` on the data,
    ``cast()`` around forward+backward, ``seed()`` for backward,
    ``unscale_and_check()`` when a window closes, ``stats()`` at the end,
    and ``state()``/``load_state()`` for snapshots.  Subclasses set
    ``fmt``, ``params`` and ``scaler`` (None: no loss scaling)."""

    fmt: str
    params: List[Tensor]
    scaler: Optional[LossScaler]
    steps = 0
    skipped_steps = 0

    cast_array = staticmethod(np.asarray)

    @property
    def scale(self) -> float:
        return self.scaler.scale if self.scaler is not None else 1.0

    def seed(self, window: int, dtype) -> np.ndarray:
        """Backward seed folding loss scale and accumulation-window
        averaging into one scalar (bit-identical to the unscaled
        ``(loss * (1/window)).backward()`` composition when scale==1)."""
        return np.asarray(self.scale / window, dtype=dtype)

    def unscale_and_check(self) -> bool:
        """Divide accumulated grads by the loss scale; True iff the step
        should apply (finite grads).  Updates the scaler either way."""
        self.steps += 1
        scale = self.scale
        if scale != 1.0:
            inv = 1.0 / scale
            for p in self.params:
                if p.grad is not None:
                    p.grad *= inv
        ok = self.scaler is None or self.scaler.check_and_update([p.grad for p in self.params])
        if not ok:
            self.skipped_steps += 1
        return ok

    def stats(self) -> dict:
        return {
            "format": self.fmt,
            "steps": self.steps,
            "skipped_steps": self.skipped_steps,
            "final_loss_scale": self.scale,
        }

    def state(self) -> dict:
        """JSON-able counters and scaler (what a resumed fit needs beyond
        the weights)."""
        return {"steps": self.steps, "skipped_steps": self.skipped_steps,
                "scaler": None if self.scaler is None else asdict(self.scaler)}

    def load_state(self, state: dict) -> None:
        self.steps, self.skipped_steps = state["steps"], state["skipped_steps"]
        if state["scaler"] is not None:
            vars(self.scaler).update(state["scaler"])


class PrecisionPolicy(StepController):
    """Rounding policy applied around each optimizer step.

    Parameters
    ----------
    fmt:
        One of ``fp64 | fp32 | fp16 | bf16 | fp8_e4m3 | int8``.
    loss_scaling:
        Enable dynamic loss scaling (default: on for fp16/fp8, off otherwise).
    int8_calibration:
        Calibration method when ``fmt == 'int8'``.
    """

    def __init__(
        self,
        fmt: str = "fp32",
        loss_scaling: Optional[bool] = None,
        int8_calibration: str = "minmax",
    ) -> None:
        self._round = None if fmt == "int8" else get_rounder(fmt)  # validates fmt
        self.fmt = fmt
        narrow = fmt in ("fp16", "fp8_e4m3")
        self.loss_scaling = narrow if loss_scaling is None else loss_scaling
        self.scaler = LossScaler() if self.loss_scaling else None
        self.int8_calibration = int8_calibration
        self.params: List[Tensor] = []

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

    # -- step controller ------------------------------------------------
    def bind(self, params: Iterable[Tensor]) -> "PrecisionPolicy":
        """Attach the parameters of the model about to be fitted."""
        self.params = list(params)
        return self

    @contextlib.contextmanager
    def cast(self) -> Iterator[None]:
        """Forward+backward of one batch on the rounded working copy;
        the master weights are ``p.data`` again on exit."""
        master = [p.data for p in self.params]
        for p in self.params:
            p.data = self.round_for(p, p.data)
        try:
            yield
        finally:
            for p, m in zip(self.params, master):
                p.data = m

    def unscale_and_check(self) -> bool:
        # Emulate a low-precision backward datapath: grads are rounded
        # while still scaled.
        self.round_grads(self.params)
        ok = super().unscale_and_check()
        # Guard: even without scaling, never apply a non-finite update.
        if ok and self.scaler is None and not all(
            np.all(np.isfinite(p.grad)) for p in self.params if p.grad is not None
        ):
            self.skipped_steps += 1
            ok = False
        return ok


def train_with_policy(model: Model, x: np.ndarray, y, policy: PrecisionPolicy, **fit_kwargs) -> List[float]:
    """Train ``model`` under ``policy``; returns per-epoch mean losses.

    E1's entry point: ``model.fit(..., precision=policy)``, then the
    rounded working copy is left in the model (inference at the target
    precision, as deployed low-precision models would run).
    """
    history = model.fit(x, y, precision=policy, **fit_kwargs)
    policy.round_params(policy.params)
    return history.series("loss")


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
    ) -> None:
        super().__init__(fmt=fmt, loss_scaling=loss_scaling)
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
