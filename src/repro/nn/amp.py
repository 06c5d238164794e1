"""Autocast state for dtype-aware fused kernels (reduced precision).

This module is the *mechanism* half of ``repro.precision.autocast``: a
module-global cast plan that :func:`repro.nn.functional.apply` reads once
per op-table call and applies as the entry's dtype rule.  It lives under
``repro.nn`` (not ``repro.precision``) so ``functional.py`` can import it
without a package cycle — ``repro.precision`` imports ``repro.nn.model``,
which imports ``layers``, which imports ``functional``.

Design (the standard mixed-precision recipe, emulated on NumPy):

* **Storage dtype** is the narrow format: native ``np.float16`` for fp16;
  for bf16 (which NumPy has no dtype for) storage is ``float32`` arrays
  whose values are snapped to the bf16-representable grid — exactly the
  values a bf16 register file would hold, at float32 speed.
* **Compute dtype** is ``float32``: every GEMM upcasts its narrow inputs
  and accumulates in fp32, mirroring real mixed-precision hardware
  (fp16/bf16 multiplies, fp32 accumulators).
* **Weight gradients stay fp32** (master precision) so the optimizer
  updates full-precision master weights; *activation* gradients are
  snapped back to the narrow grid, keeping the backward datapath narrow.

With no plan active (`_ACTIVE is None`) an entry with a dtype rule costs
one global read and an ``is None`` branch — the fp64 path is unchanged.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def snap_bf16_(a: np.ndarray) -> np.ndarray:
    """Round a C-contiguous float32 array to the bf16 grid *in place*.

    Round-to-nearest-even on the float32 bit pattern (same semantics as
    :func:`repro.precision.rounding.round_bf16`, without the float64
    round-trip): add ``0x7FFF`` plus the LSB of the kept half, truncate.
    ±inf and NaN are fixed points of this update.
    """
    bits = a.view(np.uint32)
    lsb = (bits >> 16) & np.uint32(1)
    bits += np.uint32(0x7FFF) + lsb
    bits &= np.uint32(0xFFFF0000)
    return a


def snap_bf16(a: np.ndarray) -> np.ndarray:
    """Copying variant of :func:`snap_bf16_` accepting any float array."""
    buf = np.ascontiguousarray(a, dtype=np.float32)
    if buf is a:  # never snap the caller's buffer
        buf = buf.copy()
    return snap_bf16_(buf)


class CastPlan:
    """How one narrow format maps onto NumPy storage + fp32 compute.

    ``snap`` casts an array to narrow *storage*; ``to_compute`` lifts
    storage to the fp32 compute dtype; ``cast_in`` fuses both for kernel
    inputs (snap-to-grid, then widen).  ``snap_out`` converts a freshly
    allocated fp32 GEMM output to storage, destroying its buffer when
    that is free (bf16 snaps in place).
    """

    compute_dtype = np.float32

    def __init__(self, name: str) -> None:
        self.name = name

    def snap(self, a: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def to_compute(self, a: np.ndarray) -> np.ndarray:
        return a.astype(np.float32) if a.dtype != np.float32 else a

    def cast_in(self, a: np.ndarray) -> np.ndarray:
        return self.to_compute(self.snap(a))

    def snap_out(self, fresh_f32: np.ndarray) -> np.ndarray:
        return self.snap(fresh_f32)


class _Bf16Plan(CastPlan):
    def __init__(self) -> None:
        super().__init__("bf16")

    def snap(self, a: np.ndarray) -> np.ndarray:
        return snap_bf16(a)

    def cast_in(self, a: np.ndarray) -> np.ndarray:
        return snap_bf16(a)  # grid values are float32: already compute-ready

    def snap_out(self, fresh_f32: np.ndarray) -> np.ndarray:
        # The GEMM output is a fresh contiguous fp32 buffer nobody else
        # references — snap it in place instead of copying.
        return snap_bf16_(fresh_f32)


class _Fp16Plan(CastPlan):
    def __init__(self) -> None:
        super().__init__("fp16")

    def snap(self, a: np.ndarray) -> np.ndarray:
        if a.dtype == np.float16:
            return a
        with np.errstate(over="ignore"):  # saturate to ±inf like the rounder
            return a.astype(np.float16)

    def cast_in(self, a: np.ndarray) -> np.ndarray:
        if a.dtype == np.float16:
            return a.astype(np.float32)
        with np.errstate(over="ignore"):
            return a.astype(np.float16).astype(np.float32)


_PLANS = {"bf16": _Bf16Plan(), "fp16": _Fp16Plan()}

_ACTIVE: Optional[CastPlan] = None


def get_plan(fmt: str) -> CastPlan:
    try:
        return _PLANS[fmt]
    except KeyError:
        raise ValueError(f"unknown autocast format {fmt!r}; choose from {sorted(_PLANS)}")


def active() -> Optional[CastPlan]:
    """The cast plan the fused kernels should apply, or None (full path)."""
    return _ACTIVE


class autocast:
    """Context manager enabling the narrow datapath for fused kernels.

    Reentrant (plans nest/restore); it affects the op-table entries that
    declare a dtype rule (``cast`` in ``functional.OPS``: the GEMM-bearing
    ops and the fused loss).  Everything else runs in whatever dtype its
    inputs carry (fp32 under :meth:`repro.nn.Model.fit` with
    ``precision=``), which is exactly the mixed-precision contract.
    """

    def __init__(self, fmt: str) -> None:
        self.plan = get_plan(fmt) if isinstance(fmt, str) else fmt
        self._prev: Optional[CastPlan] = None

    def __enter__(self) -> "autocast":
        global _ACTIVE
        self._prev = _ACTIVE
        _ACTIVE = self.plan
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE
        _ACTIVE = self._prev
