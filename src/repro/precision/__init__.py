"""Reduced precision (claim C7 / experiment E1): one grid per format,
two training controllers and calibrated int8 inference.

Every float format (fp64, fp32, fp16, bf16, fp8_e4m3) is one entry of
:data:`repro.nn.amp.FORMATS`, read by all three datapaths.
``Model.fit(precision=...)`` is the one training entry point: a
:class:`PrecisionPolicy` object emulates any format (int8 included) on
float64 storage and answers *"is this format numerically sufficient?"*;
a format name (:class:`FitPrecision`) runs fp32 master weights with the
op table storing fp16/bf16 grid values and accumulating in fp32.
:class:`Int8Plan` serves int8 weights with int32-exact accumulation.
"""

from ..nn.amp import FORMATS, autocast, snap_bf16, snap_bf16_
from .int8 import (
    INT8_GEMM_EXACT_MAX_K,
    INT8_LEVELS,
    Int8Plan,
    QuantParams,
    calibrate,
    int8_linear,
    min_size_for_percentile,
    plan_from_spec,
    quantize_activations,
    quantize_model,
)
from .policy import (
    TRAIN_FORMATS,
    FitPrecision,
    LossScaler,
    PrecisionPolicy,
    get_rounder,
    train_with_policy,
)

__all__ = [
    "FORMATS", "get_rounder", "autocast", "snap_bf16", "snap_bf16_",
    "PrecisionPolicy", "FitPrecision", "TRAIN_FORMATS", "LossScaler", "train_with_policy",
    "QuantParams", "calibrate", "min_size_for_percentile", "INT8_LEVELS",
    "Int8Plan", "int8_linear", "quantize_activations", "quantize_model", "plan_from_spec",
    "INT8_GEMM_EXACT_MAX_K",
]
