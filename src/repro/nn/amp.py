"""The one table of number formats, and the autocast state that reads it.

Every format has one home here (:data:`FORMATS`), and each consumer reads
the same entry: the emulated :class:`repro.precision.PrecisionPolicy`
rounds through ``Format.round`` (the grid's ``snap``, widened back to
float64), ``Model.fit(precision="bf16"|"fp16")`` runs the op table under
the entry's cast rule, and the DDP bf16 wire
(:func:`repro.parallel.allreduce.encode_wire`) keeps the upper half of
the bf16 snap.  The table lives under ``repro.nn`` (not
``repro.precision``) so ``functional.py`` can import it without a package
cycle — ``repro.precision`` imports ``repro.nn.model``, which imports
``layers``, which imports ``functional``.

The autocast cast rule (bf16 and fp16; the standard mixed-precision
recipe, emulated on NumPy):

* **Storage dtype** is the narrow format: native ``np.float16`` for fp16;
  for bf16 (which NumPy has no dtype for) storage is ``float32`` arrays
  whose values are snapped to the bf16-representable grid — exactly the
  values a bf16 register file would hold.
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

from typing import Callable, Dict, Optional

import numpy as np


def snap_bf16_(a: np.ndarray) -> np.ndarray:
    """Round a C-contiguous float32 array to the bf16 grid *in place*.

    Round-to-nearest-even on the float32 bit pattern: add ``0x7FFF`` plus
    the LSB of the kept half, truncate.  ±inf and NaN are fixed points.
    """
    bits = a.view(np.uint32)
    lsb = (bits >> 16) & np.uint32(1)
    bits += np.uint32(0x7FFF) + lsb
    bits &= np.uint32(0xFFFF0000)
    return a


def snap_bf16(a: np.ndarray) -> np.ndarray:
    """Copying variant of :func:`snap_bf16_` accepting any float array."""
    return snap_bf16_(np.array(a, dtype=np.float32, order="C"))


def _snap_fp16(a: np.ndarray) -> np.ndarray:
    if a.dtype == np.float16:
        return a
    with np.errstate(over="ignore"):  # overflow saturates to ±inf
        return a.astype(np.float16)


def _snap_fp8_e4m3(x: np.ndarray) -> np.ndarray:
    """The e4m3 8-bit float grid (saturating at ±448), held in float64.

    Snaps the mantissa to 3 bits at the value's binade; subnormals
    (|x| < 2^-6) snap to multiples of 2^-9.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    finite = np.isfinite(x)
    ax = np.abs(x)
    sign = np.sign(x)
    normal = finite & (ax >= 2.0 ** -6)
    sub = finite & (ax < 2.0 ** -6) & (ax > 0)
    e = np.floor(np.log2(np.where(normal, ax, 1.0)))
    step = 2.0 ** (e - 3)
    out[normal] = (sign * np.round(ax / step) * step)[normal]
    out[sub] = (sign * np.round(ax / 2.0 ** -9) * 2.0 ** -9)[sub]
    np.clip(out, -448.0, 448.0, out=out)
    out[~finite] = x[~finite]
    return out


class Format:
    """One number format: its grid and, for autocast formats, its cast rule.

    ``snap`` maps any float array onto the grid in the format's storage
    dtype; ``eps`` and ``max`` are the grid's spacing at 1 and its largest
    finite value.  ``round`` is the emulation rounder (float64 in and
    out).  An entry with a ``snap_out`` is an autocast plan:
    ``to_compute`` lifts storage to fp32, ``cast_in`` snaps then lifts a
    kernel input, and ``snap_out`` converts a freshly allocated fp32 GEMM
    output to storage (bf16 snaps that buffer in place).
    """

    def __init__(self, name: str, snap: Callable[[np.ndarray], np.ndarray], eps: float,
                 max: float, snap_out: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> None:
        self.name, self.snap, self.eps, self.max = name, snap, float(eps), float(max)
        self.snap_out = snap_out

    def round(self, x: np.ndarray) -> np.ndarray:
        return self.snap(x).astype(np.float64, copy=False)

    def to_compute(self, a: np.ndarray) -> np.ndarray:
        return a.astype(np.float32) if a.dtype != np.float32 else a

    def cast_in(self, a: np.ndarray) -> np.ndarray:
        return self.to_compute(self.snap(a))


_F32 = np.finfo(np.float32)
_F64 = np.finfo(np.float64)

FORMATS: Dict[str, Format] = {f.name: f for f in (
    Format("fp64", lambda x: np.asarray(x, dtype=np.float64), _F64.eps, _F64.max),
    Format("fp32", lambda x: np.asarray(x, dtype=np.float32), _F32.eps, _F32.max),
    Format("fp16", _snap_fp16, 2.0 ** -10, 65504.0, snap_out=_snap_fp16),
    Format("bf16", snap_bf16, 2.0 ** -7, _F32.max, snap_out=snap_bf16_),
    Format("fp8_e4m3", _snap_fp8_e4m3, 2.0 ** -3, 448.0),
)}

_ACTIVE: Optional[Format] = None


def get_plan(fmt: str) -> Format:
    """The autocast plan of a named format (bf16 or fp16)."""
    f = FORMATS.get(fmt)
    if f is None or f.snap_out is None:
        plans = sorted(n for n, f in FORMATS.items() if f.snap_out is not None)
        raise ValueError(f"unknown autocast format {fmt!r}; choose from {plans}")
    return f


def active() -> Optional[Format]:
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

    def __init__(self, fmt) -> None:
        self.plan = get_plan(fmt) if isinstance(fmt, str) else fmt
        self._prev: Optional[Format] = None

    def __enter__(self) -> "autocast":
        global _ACTIVE
        self._prev = _ACTIVE
        _ACTIVE = self.plan
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE
        _ACTIVE = self._prev
