"""Reduced precision: emulation (rounding/policies), the real narrow
datapath (autocast + fp32-accumulate fused kernels), and calibrated int8
inference (claim C7 / experiment E1).

``Model.fit(precision=...)`` is the one training entry point: a
:class:`PrecisionPolicy` object (emulation, rounders) answers *"is this
format numerically sufficient?"* on float64 storage; a format name
(:class:`FitPrecision`, autocast) and :class:`Int8Plan` make the sufficient
formats *faster* — see the ``precision.*`` metrics of ``bench/run.py --trace 1``.
"""

from .autocast import TRAIN_FORMATS, FitPrecision, autocast, snap_bf16, snap_bf16_
from .int8 import (
    INT8_GEMM_EXACT_MAX_K,
    Int8Plan,
    QuantizedDense,
    int8_linear,
    plan_from_spec,
    quantize_activations,
    quantize_model,
)
from .policy import LayerwisePolicy, LossScaler, PrecisionPolicy, train_with_policy
from .quantize import (
    INT8_LEVELS,
    QuantParams,
    calibrate,
    min_size_for_percentile,
    quantization_mse,
    quantize_weights,
)
from .rounding import (
    FORMAT_INFO,
    get_rounder,
    quantization_noise_std,
    round_bf16,
    round_fp8_e4m3,
    round_fp16,
    round_fp32,
    stochastic_round_fp16,
)

__all__ = [
    "PrecisionPolicy", "LayerwisePolicy", "LossScaler", "train_with_policy",
    "QuantParams", "calibrate", "quantize_weights", "quantization_mse", "INT8_LEVELS",
    "min_size_for_percentile",
    "FORMAT_INFO", "get_rounder", "round_fp32", "round_fp16", "round_bf16",
    "round_fp8_e4m3", "stochastic_round_fp16", "quantization_noise_std",
    "autocast", "FitPrecision", "TRAIN_FORMATS", "snap_bf16", "snap_bf16_",
    "Int8Plan", "QuantizedDense", "int8_linear", "quantize_activations",
    "quantize_model", "plan_from_spec", "INT8_GEMM_EXACT_MAX_K",
]
