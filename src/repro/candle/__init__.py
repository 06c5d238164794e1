"""CANDLE-style benchmark models for cancer and infectious disease, plus
classical baselines (claims C1, C2, C4, C5 / experiment E7)."""

from .baselines import PCA, KNNRegressor, LogisticRegression, RidgeRegression
from .models import (
    ComboModel,
    MultitaskModel,
    build_amr_classifier,
    build_combo_mlp,
    build_imaging_classifier,
    build_nt3_classifier,
    build_p1b1_autoencoder,
    build_p1b2_classifier,
    build_p3b2_sequence_classifier,
    encode_p1b1,
    feature_importance,
    fit_multitask,
)
from .registry import REGISTRY, BenchmarkSpec, get_benchmark

__all__ = [
    "RidgeRegression", "LogisticRegression", "KNNRegressor", "PCA",
    "build_p1b1_autoencoder", "encode_p1b1", "build_p1b2_classifier",
    "build_nt3_classifier", "ComboModel", "build_combo_mlp",
    "build_imaging_classifier", "build_p3b2_sequence_classifier",
    "MultitaskModel", "fit_multitask", "build_amr_classifier",
    "feature_importance", "REGISTRY", "BenchmarkSpec", "get_benchmark",
]
