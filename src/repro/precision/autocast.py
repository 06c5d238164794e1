"""Real reduced-precision training datapath (the measured half of C7).

:class:`repro.precision.PrecisionPolicy` *emulates* narrow formats on
float64 storage — numerically faithful, but slower than fp64, so claim C7
("rarely require 64bit or even 32bits") never paid off in wall-clock.
This module is the datapath that does pay off, through the same
``Model.fit(precision=...)`` entry point:

* ``autocast`` (re-exported from :mod:`repro.nn.amp`) switches the
  op-table entries that declare a dtype rule (``functional.OPS``) to
  narrow-storage compute with fp32 accumulation;
* :class:`FitPrecision` is the :class:`~repro.precision.policy.StepController`
  ``Model.fit(precision="fp32"|"bf16"|"fp16")`` drives: fp32 master
  weights and the autocast context around forward/backward.  Loss
  scaling and the unscale-check-skip step boundary are the base class's,
  shared with the emulated-format controller
  (``Model.fit(precision=PrecisionPolicy(...))``) — one loop, two
  datapaths.

Formats: ``fp32`` (native float32, no autocast needed), ``bf16`` and
``fp16`` (narrow storage + fp32 accumulate).  ``fp64`` / ``None`` mean
the unchanged default path.
"""

from __future__ import annotations

import contextlib
from typing import Iterable, Optional

import numpy as np

from ..nn import amp
from ..nn.amp import autocast, snap_bf16, snap_bf16_  # noqa: F401 - public API
from ..nn.tensor import Tensor
from .policy import LossScaler, StepController

#: Formats Model.fit(precision=...) accepts (beyond None/"fp64").
TRAIN_FORMATS = ("fp32", "bf16", "fp16")


class FitPrecision(StepController):
    """Mixed-precision state for one :meth:`repro.nn.Model.fit` run.

    Construction casts every parameter to fp32 **in place** — those fp32
    tensors are the master weights for the whole fit (and remain the
    model's weights afterwards; deployment casts further down as needed).
    Per step the fused kernels snap weights/activations to the narrow
    grid on entry, so no separate working copy is materialized.

    ``loss_scaling`` defaults to on for fp16 (whose tiny exponent range
    underflows gradients) and off for bf16/fp32 (fp32-range exponents).
    """

    def __init__(
        self,
        fmt: str,
        params: Iterable[Tensor],
        loss_scaling: Optional[bool] = None,
        scaler: Optional[LossScaler] = None,
    ) -> None:
        if fmt not in TRAIN_FORMATS:
            raise ValueError(
                f"unsupported training precision {fmt!r}; choose from "
                f"{TRAIN_FORMATS} (or None/'fp64' for the full-precision path)"
            )
        self.fmt = fmt
        self.params = list(params)
        for p in self.params:
            if p.data.dtype != np.float32:
                p.data = p.data.astype(np.float32)
            p.grad = None
        self.plan = amp.get_plan(fmt) if fmt in ("bf16", "fp16") else None
        use_scaling = (fmt == "fp16") if loss_scaling is None else loss_scaling
        self.scaler = scaler if scaler is not None else (LossScaler() if use_scaling else None)

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
