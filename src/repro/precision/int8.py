"""Symmetric int8: scale calibration and calibrated int8 inference.

The E1 ablation's int8 rows fake-quantize through :class:`QuantParams`
(a per-tensor symmetric scale from :func:`calibrate`); the serving tier
runs an :class:`Int8Plan` — post-training static quantization of the
Dense/MLP stacks it hosts (the CANDLE type-classifiers): int8 weights,
activations quantized on the fly, and an int8×int8→int32-accumulate fused
linear that rescales straight into a float32 epilogue (bias + activation).

Two GEMM paths compute the *same exact integer accumulator*:

* the int32 reference path — ``int8.astype(int32) @ int8.astype(int32)``,
  always exact;
* the f32-exact path — int8 values held in float32 and fed to the BLAS
  sgemm.  Every product is an integer ≤ 127² = 16129 and every partial
  sum stays an exactly-representable integer while ``K·127² < 2²⁴``,
  i.e. ``K ≤ 1040`` (:data:`INT8_GEMM_EXACT_MAX_K`); within that bound
  the two paths are bit-identical, so the plan takes the sgemm there.

A plan is a JSON-able :meth:`Int8Plan.spec` (structure + scales) plus its
weight arrays (:meth:`Int8Plan.arrays`), and ``Int8Plan(spec, arrays)``
is its one constructor: :func:`quantize_model` calibrates and calls it,
:func:`plan_from_spec` re-quantizes an fp32 checkpoint with the recorded
scales and calls it, and a serving replica calls it on the arrays it
attached from :class:`repro.parallel.shm.SharedArrayStore` (one byte per
parameter — a quarter of fp32 segments).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from ..nn.functional import _FUSED_ACTS
from ..nn.layers import Activation, Dense, Dropout, Flatten

INT8_LEVELS = 127  # symmetric: [-127, 127], -128 unused

#: Largest inner dimension for which the f32-held int8 GEMM is exact:
#: partial sums reach at most K·127², which must stay below 2²⁴ (the
#: float32 integer-exactness bound).
INT8_GEMM_EXACT_MAX_K = (1 << 24) // (INT8_LEVELS * INT8_LEVELS)

#: What a plan calibrates with; the spec records both.
METHOD, PERCENTILE = "percentile", 99.9


@dataclass
class QuantParams:
    """Per-tensor symmetric quantization parameters."""

    scale: float

    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Real -> int8 grid (returned as int8)."""
        q = np.round(np.asarray(x, dtype=np.float64) / self.scale)
        return np.clip(q, -INT8_LEVELS, INT8_LEVELS).astype(np.int8)

    def dequantize(self, q: np.ndarray) -> np.ndarray:
        """int8 grid -> real."""
        return q.astype(np.float64) * self.scale

    def fake_quantize(self, x: np.ndarray) -> np.ndarray:
        """Round-trip through the int8 grid, staying in float64 — the
        standard "fake quant" used for quantization-aware evaluation."""
        return self.dequantize(self.quantize(x))


def min_size_for_percentile(percentile: float) -> int:
    """Smallest element count at which the ``(100 - percentile)%`` tail is
    resolvable — below it, ``np.percentile`` just interpolates between the
    two largest values and the "outlier clipping" the method promises is
    fictitious."""
    if percentile >= 100.0:
        return 1
    return int(np.ceil(100.0 / (100.0 - percentile)))


def calibrate(x: np.ndarray, method: str = "minmax", percentile: float = 99.9) -> QuantParams:
    """Choose a quantization scale for tensor ``x``.

    ``minmax`` maps max|x| to the top level; ``percentile`` clips outliers
    so the bulk of the distribution gets finer resolution.

    Degenerate inputs raise instead of returning a junk scale: an
    all-zero tensor has no meaningful scale (callers that want to pass
    zeros through untouched should skip quantization — zeros are exactly
    representable at *any* scale); a percentile whose tail the tensor is
    too small to resolve silently degrades to minmax, so it is rejected;
    a percentile that lands on zero while the tensor has signal would
    saturate everything to ±127.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("cannot calibrate an empty tensor")
    if not np.any(x):
        raise ValueError(
            "cannot calibrate an all-zero tensor (any scale is degenerate); "
            "skip quantization for this tensor — zeros are exactly representable"
        )
    if method == "minmax":
        amax = float(np.abs(x).max())
    elif method == "percentile":
        if not 0 < percentile <= 100:
            raise ValueError("percentile must be in (0, 100]")
        need = min_size_for_percentile(percentile)
        if x.size < need:
            raise ValueError(
                f"tensor of {x.size} elements cannot resolve the {percentile} "
                f"percentile (needs >= {need}); use method='minmax' or a "
                f"coarser percentile"
            )
        amax = float(np.percentile(np.abs(x), percentile))
        if amax == 0.0:
            raise ValueError(
                f"the {percentile} percentile of |x| is 0 while max|x| > 0: "
                f"quantizing at this scale would saturate all signal; use "
                f"method='minmax' or a higher percentile"
            )
    else:
        raise ValueError(f"unknown calibration method {method!r}")
    return QuantParams(scale=amax / INT8_LEVELS)


def _sigmoid_(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # exp overflow -> inf -> 1/inf == 0
        np.negative(z, out=z)
        np.exp(z, out=z)
        z += 1.0
        return np.reciprocal(z, out=z)


def _softmax_(z: np.ndarray) -> np.ndarray:
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _linear_(z: np.ndarray) -> np.ndarray:
    return z


# In-place epilogues: relu and tanh are the op table's fused forwards.
_ACTS = {
    "relu": _FUSED_ACTS["relu"][0],
    "tanh": _FUSED_ACTS["tanh"][0],
    "sigmoid": _sigmoid_,
    "softmax": _softmax_,
    "linear": _linear_,
    None: _linear_,
}


def quantize_activations(a: np.ndarray, scale: float) -> np.ndarray:
    """float -> int8 grid, returned as integer-valued float32 (sgemm-ready)."""
    q = np.rint(np.asarray(a, dtype=np.float32) * (1.0 / scale))
    np.clip(q, -float(INT8_LEVELS), float(INT8_LEVELS), out=q)
    return q


def int8_linear(
    qx: np.ndarray,
    qw: np.ndarray,
    x_scale: float,
    w_scale: float,
    bias: Optional[np.ndarray] = None,
    act: Optional[str] = None,
    exact_f32: Optional[bool] = None,
) -> np.ndarray:
    """Fused quantized linear: int8×int8 → int32 accumulate → rescale.

    ``qx``/``qw`` hold int8-grid values (dtype int8, or integer-valued
    float32 for the f32-exact path).  ``exact_f32`` forces a GEMM path; by
    default the f32-exact path is used iff the inner dimension admits it.
    Returns float32 ``(qx @ qw) · x_scale·w_scale + bias`` with ``act``
    applied in place.
    """
    k = qw.shape[0]
    if exact_f32 is None:
        exact_f32 = k <= INT8_GEMM_EXACT_MAX_K
    if exact_f32:
        if k > INT8_GEMM_EXACT_MAX_K:
            raise ValueError(
                f"f32-exact int8 GEMM requires K <= {INT8_GEMM_EXACT_MAX_K}, got {k}"
            )
        acc = np.asarray(qx, dtype=np.float32) @ np.asarray(qw, dtype=np.float32)
    else:
        acc = qx.astype(np.int32) @ qw.astype(np.int32)
        acc = acc.astype(np.float32)
    out = acc * (float(x_scale) * float(w_scale))
    if bias is not None:
        out += bias
    return _ACTS[act](out)


def _dense_step(qw: np.ndarray, w_scale: float, x_scale: float,
                bias: Optional[np.ndarray], act: Optional[str]) -> Callable:
    """One quantized Dense as a function of its float32 input batch."""
    if qw.shape[0] <= INT8_GEMM_EXACT_MAX_K:
        qw32 = np.ascontiguousarray(qw, dtype=np.float32)
        return lambda a: int8_linear(quantize_activations(a, x_scale), qw32, x_scale,
                                     w_scale, bias, act, exact_f32=True)
    return lambda a: int8_linear(quantize_activations(a, x_scale).astype(np.int8), qw,
                                 x_scale, w_scale, bias, act, exact_f32=False)


def _flatten(a: np.ndarray) -> np.ndarray:
    return a.reshape(len(a), -1)


class Int8Plan:
    """Executable int8 inference program for a Dense/activation stack.

    ``spec["steps"]`` lists ``{"kind": "dense", "layer_index", "w_scale",
    "x_scale", "has_bias", "act"}``, ``{"kind": "act", "act"}`` and
    ``{"kind": "flatten"}`` in layer order; ``arrays`` holds the dense
    step at position ``i``'s int8 weights as ``q{i}.w`` and its float32
    bias as ``q{i}.b`` (other keys are ignored).
    """

    def __init__(self, spec: Dict, arrays: Dict[str, np.ndarray]) -> None:
        self.method = spec.get("method", METHOD)
        self.percentile = spec.get("percentile", PERCENTILE)
        self._steps = [dict(s) for s in spec["steps"]]
        self._arrays: Dict[str, np.ndarray] = {}
        self._fns: List[Callable] = []
        for i, s in enumerate(self._steps):
            if s["kind"] == "dense":
                self._arrays.update((k, arrays[k]) for k in (f"q{i}.w", f"q{i}.b") if k in arrays)
                self._fns.append(_dense_step(arrays[f"q{i}.w"], s["w_scale"], s["x_scale"],
                                             arrays.get(f"q{i}.b"), s["act"]))
            elif s["kind"] == "act":
                self._fns.append(_ACTS[s["act"]])
            else:
                self._fns.append(_flatten)

    def forward(self, a: np.ndarray) -> np.ndarray:
        """The plan on one batch; a new float32 array."""
        src = a
        a = np.ascontiguousarray(a, dtype=np.float32)
        if a is src:
            a = a.copy()  # activations run in place; never mutate caller data
        for fn in self._fns:
            a = fn(a)
        return a

    def spec(self) -> Dict:
        """Picklable/JSON-able structure + scales (no weight arrays).

        Scales round-trip exactly through JSON (shortest-repr floats), so
        a plan rebuilt from an fp32 checkpoint plus this spec is
        bit-identical to the original.
        """
        return {
            "format": "int8",
            "method": self.method,
            "percentile": self.percentile,
            "steps": [dict(s) for s in self._steps],
        }

    def arrays(self) -> Dict[str, np.ndarray]:
        """Named weight arrays for shared-memory publishing (int8 weights,
        f32 biases) keyed ``q{i}.w`` / ``q{i}.b`` by step position."""
        return dict(self._arrays)


def _calibrate(t: np.ndarray, what: str) -> QuantParams:
    """Calibrate one tensor, naming it in any error.

    Tensors too small to resolve the percentile tail (e.g. a narrow output
    head's weight matrix) fall back to minmax — for them the percentile
    *is* the max, minus interpolation noise.
    """
    method = "minmax" if t.size < min_size_for_percentile(PERCENTILE) else METHOD
    try:
        return calibrate(t, method=method, percentile=PERCENTILE)
    except ValueError as exc:
        raise ValueError(
            f"int8 calibration failed for {what}: {exc} "
            f"(try a larger/more varied calibration batch)"
        ) from exc


def _float_reference_dense(a: np.ndarray, layer: Dense) -> np.ndarray:
    """fp32 reference forward through one Dense (calibration statistics)."""
    out = a @ layer.weight.data.astype(np.float32)
    if layer.bias is not None:
        out += layer.bias.data.astype(np.float32)
    return _ACTS[layer.activation.kind if layer.activation is not None else None](out)


def _dense_arrays(i: int, layer: Dense, w_qp: QuantParams) -> Dict[str, np.ndarray]:
    out = {f"q{i}.w": w_qp.quantize(layer.weight.data)}
    if layer.bias is not None:
        out[f"q{i}.b"] = layer.bias.data.astype(np.float32)
    return out


def quantize_model(model, x_calib: np.ndarray) -> Int8Plan:
    """Calibrate an :class:`Int8Plan` for ``model`` from sample inputs.

    Runs an fp32 reference forward pass over ``x_calib``, calibrating a
    per-layer activation scale at each Dense input and a per-tensor
    weight scale (standard post-training static quantization, at the
    99.9th percentile).  Supports Dense / Activation / Dropout / Flatten
    stacks — the serving-tier topologies; anything else raises rather
    than silently degrading.
    """
    if not model.built:
        raise RuntimeError("build (or fit) the model before quantizing")
    src = np.asarray(x_calib)
    a = np.ascontiguousarray(src, dtype=np.float32)
    if a is src:
        a = a.copy()  # reference forward mutates activations in place
    if len(a) == 0:
        raise ValueError("cannot calibrate from an empty batch")
    steps: List[Dict] = []
    arrays: Dict[str, np.ndarray] = {}
    for i, layer in enumerate(model.layers):
        if isinstance(layer, Dense):
            act = layer.activation.kind if layer.activation is not None else None
            if act not in _ACTS:
                raise ValueError(
                    f"int8 plan does not support fused activation {act!r} "
                    f"(layer {i}); supported: {sorted(k for k in _ACTS if k)}"
                )
            x_qp = _calibrate(a, f"layer {i} input activations")
            w_qp = _calibrate(layer.weight.data, f"layer {i} weights")
            arrays.update(_dense_arrays(len(steps), layer, w_qp))
            steps.append({"kind": "dense", "layer_index": i, "w_scale": w_qp.scale,
                          "x_scale": x_qp.scale, "has_bias": layer.bias is not None, "act": act})
            a = _float_reference_dense(a, layer)
        elif isinstance(layer, Activation):
            if layer.kind not in _ACTS:
                raise ValueError(
                    f"int8 plan does not support activation {layer.kind!r} (layer {i})"
                )
            steps.append({"kind": "act", "act": layer.kind})
            a = _ACTS[layer.kind](a)
        elif isinstance(layer, Dropout):
            continue  # identity at inference time
        elif isinstance(layer, Flatten):
            steps.append({"kind": "flatten"})
            a = _flatten(a)
        else:
            raise ValueError(
                f"int8 plan supports Dense/Activation/Dropout/Flatten stacks; "
                f"got {type(layer).__name__} at layer {i}"
            )
    return Int8Plan({"steps": steps}, arrays)


def plan_from_spec(model, spec: Dict) -> Int8Plan:
    """Rebuild a plan from a checkpoint's quantization metadata.

    Re-quantizes the model's (fp32) weights with the *recorded* scales —
    deterministic, so the rebuilt plan predicts bit-identically to the
    plan the spec was saved from.
    """
    arrays: Dict[str, np.ndarray] = {}
    for i, s in enumerate(spec["steps"]):
        if s["kind"] == "dense":
            arrays.update(_dense_arrays(i, model.layers[s["layer_index"]],
                                        QuantParams(scale=s["w_scale"])))
    return Int8Plan(spec, arrays)
