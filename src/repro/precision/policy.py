"""The step controllers ``Model.fit(precision=...)`` drives.

:class:`StepController` writes the loss-scale arithmetic once; two
controllers share it:

* :class:`FitPrecision` — ``precision="fp32"|"bf16"|"fp16"``: fp32 master
  weights and the format's autocast plan (:mod:`repro.nn.amp`) around
  forward/backward, so the op table's kernels store narrow and accumulate
  in fp32;
* :class:`PrecisionPolicy` — ``precision=PrecisionPolicy(fmt)``: the
  *emulated* form of any format (fp8, int8, …) on float64 storage.  The
  master weights are ``p.data`` everywhere outside forward/backward; the
  working copy used by forward/backward is rounded to the format on
  entering ``cast()`` and the masters are put back on leaving it;
  gradients are rounded when their window closes; for narrow-range
  formats (fp16, fp8) a dynamic loss scale multiplies the loss before
  backward and divides gradients after.

Both read the same grids: every float format is one entry of
:data:`repro.nn.amp.FORMATS`.  ``PrecisionPolicy`` is the mechanism
behind experiment E1: the same model trained under different formats,
with only the rounding changing.
"""

from __future__ import annotations

import contextlib
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from ..nn import amp
from ..nn.model import Model
from ..nn.tensor import Tensor
from .int8 import calibrate

#: Formats Model.fit(precision=...) accepts by name (beyond None/"fp64").
TRAIN_FORMATS = ("fp32", "bf16", "fp16")


def get_rounder(fmt: str) -> Callable[[np.ndarray], np.ndarray]:
    """The emulation rounder of a named format: its grid's snap, widened
    back to float64."""
    try:
        return amp.FORMATS[fmt].round
    except KeyError:
        raise ValueError(f"unknown precision format {fmt!r}; choose from {sorted(amp.FORMATS)}")


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


def train_format(fmt: str) -> str:
    """``fmt``, if ``fit(precision=fmt)`` can train in it; else ValueError."""
    if fmt not in TRAIN_FORMATS:
        raise ValueError(
            f"unsupported training precision {fmt!r}; choose from "
            f"{TRAIN_FORMATS} (or None/'fp64' for the full-precision path)"
        )
    return fmt


class FitPrecision(StepController):
    """The controller of ``Model.fit(precision="fp32"|"bf16"|"fp16")``.

    The fit casts the model with ``Model.astype(np.float32)`` (parameters
    and layer buffers) before building it; those fp32 tensors are the
    master weights for the whole fit and remain the model's weights
    afterwards.  Per step the op table snaps weights and activations to
    the format's grid on entry, so no separate working copy exists.  Loss
    scaling is on for fp16 (whose narrow exponent range underflows
    gradients) and off for bf16/fp32 (fp32-range exponents).
    """

    def __init__(self, fmt: str, params: Iterable[Tensor]) -> None:
        self.fmt = train_format(fmt)
        self.params = list(params)
        self.plan = None if fmt == "fp32" else amp.get_plan(fmt)
        self.scaler = LossScaler() if fmt == "fp16" else None

    def cast_array(self, a: np.ndarray) -> np.ndarray:
        """Float arrays to fp32 (labels/int arrays pass through)."""
        a = np.asarray(a)
        if a.dtype.kind == "f" and a.dtype != np.float32:
            return a.astype(np.float32)
        return a

    def cast(self):
        """Context manager for the forward+backward of one batch."""
        if self.plan is None:
            return contextlib.nullcontext()
        return amp.autocast(self.plan)


class PrecisionPolicy(StepController):
    """Rounding policy applied around each optimizer step.

    Parameters
    ----------
    fmt:
        One of ``fp64 | fp32 | fp16 | bf16 | fp8_e4m3 | int8``.
    loss_scaling:
        Enable dynamic loss scaling (default: on for fp16/fp8, off otherwise).
    overrides:
        Per-parameter formats: a map from a substring of the parameter's
        ``name`` to a float format; the first matching substring wins and
        every other parameter uses ``fmt``.  The production AMP recipe
        keeps normalization gains and biases at fp32 while matmul weights
        run narrow: ``{"gamma": "fp32", "beta": "fp32", ".b": "fp32"}``.
    """

    def __init__(
        self,
        fmt: str = "fp32",
        loss_scaling: Optional[bool] = None,
        overrides: Optional[dict] = None,
    ) -> None:
        self._round = None if fmt == "int8" else get_rounder(fmt)  # validates fmt
        self.fmt = fmt
        narrow = fmt in ("fp16", "fp8_e4m3")
        self.loss_scaling = narrow if loss_scaling is None else loss_scaling
        self.scaler = LossScaler() if self.loss_scaling else None
        self.overrides = dict(overrides or {})
        self._rounders = {f: get_rounder(f) for f in set(self.overrides.values())}
        self.params: List[Tensor] = []

    # -- rounding primitives -------------------------------------------
    def round_array(self, x: np.ndarray) -> np.ndarray:
        if self.fmt == "int8":
            if not np.any(x):
                # Zeros (fresh biases) are exactly representable at any
                # scale; calibrate() rejects all-zero tensors by design.
                return np.array(x, dtype=np.float64, copy=True)
            return calibrate(x, method="minmax").fake_quantize(x)
        return self._round(x)

    def round_for(self, param: Tensor, x: np.ndarray) -> np.ndarray:
        """Round ``x`` (``param``'s values or gradient) to ``param``'s
        format — the one per-parameter hook every rounding site goes
        through."""
        for key, f in self.overrides.items():
            if key in (param.name or ""):
                if f != self.fmt:
                    return self._rounders[f](x)
                break
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
