"""DNN training performance model: per-layer FLOP/byte accounting and a
roofline execution model.

Two entry points:

* :func:`profile_model` introspects an actual ``repro.nn`` model;
* :func:`mlp_profile` builds a *synthetic* profile
  for models far too large to instantiate (the scaling experiments sweep
  multi-billion-parameter configurations — claim C10 needs models that
  don't fit one node).

The roofline model (claim C6): an op's time is the max of its compute time
(flops / effective peak at the chosen precision) and its memory time
(bytes moved / device bandwidth).  GEMMs are compute-bound at high
arithmetic intensity; elementwise ops are always bandwidth-bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..nn.functional import OPS
from ..nn.layers import (
    Activation,
    AvgPool1D,
    BatchNorm,
    Dropout,
    Embedding,
    Flatten,
    GlobalAvgPool2D,
    LayerNorm,
)
from ..nn.model import Model
from .hardware import DTYPE_BYTES, AcceleratorSpec, NodeSpec


@dataclass(frozen=True)
class LayerCost:
    """Resource counts for one layer at a given batch size.

    flops are multiply-add counted as 2 ops; activation_elems is the
    output element count (what must be stashed for backward).
    """

    name: str
    params: int
    flops_fwd: float
    flops_bwd: float
    activation_elems: int


@dataclass
class ModelProfile:
    """Aggregated cost profile of a model at a fixed batch size."""

    layers: List[LayerCost]
    batch_size: int
    name: str = "model"

    @property
    def params(self) -> int:
        return sum(l.params for l in self.layers)

    @property
    def flops_fwd(self) -> float:
        return sum(l.flops_fwd for l in self.layers)

    @property
    def flops_bwd(self) -> float:
        return sum(l.flops_bwd for l in self.layers)

    @property
    def flops_step(self) -> float:
        return self.flops_fwd + self.flops_bwd

    @property
    def activation_elems(self) -> int:
        return sum(l.activation_elems for l in self.layers)

    def weight_bytes(self, precision: str) -> float:
        return self.params * DTYPE_BYTES[precision]

    def gradient_bytes(self, precision: str) -> float:
        return self.params * DTYPE_BYTES[precision]

    def activation_bytes(self, precision: str) -> float:
        return self.activation_elems * DTYPE_BYTES[precision]

    def optimizer_state_bytes(self, precision: str = "fp32", moments: int = 2) -> float:
        """Adam keeps ``moments`` extra copies at (usually) fp32."""
        return moments * self.params * DTYPE_BYTES[precision]

    def training_memory_bytes(self, precision: str, master_precision: str = "fp32") -> float:
        """Total per-replica training footprint: weights + grads +
        activations + master copy + optimizer state."""
        return (
            self.weight_bytes(precision)
            + self.gradient_bytes(precision)
            + self.activation_bytes(precision)
            + self.params * DTYPE_BYTES[master_precision]  # master weights
            + self.optimizer_state_bytes(master_precision)
        )

    def with_batch_size(self, batch_size: int) -> "ModelProfile":
        """Rescale flops/activations linearly to a new batch size."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        ratio = batch_size / self.batch_size
        layers = [
            LayerCost(
                name=l.name,
                params=l.params,
                flops_fwd=l.flops_fwd * ratio,
                flops_bwd=l.flops_bwd * ratio,
                activation_elems=int(round(l.activation_elems * ratio)),
            )
            for l in self.layers
        ]
        return ModelProfile(layers=layers, batch_size=batch_size, name=self.name)


# ----------------------------------------------------------------------
# Profiling real models
# ----------------------------------------------------------------------
def profile_model(model: Model, input_shape: Tuple[int, ...], batch_size: int = 32) -> ModelProfile:
    """Walk a built (or buildable) model's layers and count flops/params.

    ``input_shape`` excludes the batch axis.
    """
    if not model.built:
        model.build(tuple(input_shape), np.random.default_rng(0))
    costs: List[LayerCost] = []
    shape = tuple(input_shape)
    for layer in model.layers:
        out_shape = layer.output_shape(shape)
        costs.append(_layer_cost(layer, shape, out_shape, batch_size))
        shape = out_shape
    return ModelProfile(layers=costs, batch_size=batch_size, name=type(model).__name__)


def _layer_cost(layer, in_shape: Tuple[int, ...], out_shape: Tuple[int, ...], b: int) -> LayerCost:
    out_elems = b * int(np.prod(out_shape))
    params = layer.param_count()
    entry = OPS.get(getattr(layer, "op", None))
    if entry is not None:  # priced by the op-table entry the layer runs
        kernel = getattr(layer, "kernel_size", None)
        flops_fwd, flops_bwd, out_elems = entry.cost(b, in_shape, out_shape, kernel)
    elif isinstance(layer, Embedding):
        flops_fwd = float(out_elems)  # gather
        flops_bwd = float(out_elems)
    elif isinstance(layer, (BatchNorm, LayerNorm)):
        flops_fwd = 5.0 * out_elems
        flops_bwd = 8.0 * out_elems
    elif isinstance(layer, (Activation, Dropout)):
        flops_fwd = float(out_elems)
        flops_bwd = float(out_elems)
    elif isinstance(layer, AvgPool1D):
        flops_fwd = float(b * int(np.prod(in_shape)))
        flops_bwd = float(out_elems)
    elif isinstance(layer, GlobalAvgPool2D):
        flops_fwd = float(b * int(np.prod(in_shape)))  # one add per input
        flops_bwd = flops_fwd  # one scaled copy per input
    elif isinstance(layer, Flatten):
        flops_fwd = 0.0
        flops_bwd = 0.0
        out_elems = 0  # a view, nothing stashed
    else:
        flops_fwd = float(out_elems)
        flops_bwd = float(out_elems)
    return LayerCost(
        name=layer.name, params=params,
        flops_fwd=flops_fwd, flops_bwd=flops_bwd, activation_elems=out_elems,
    )


# ----------------------------------------------------------------------
# Synthetic profiles (for models too big to build)
# ----------------------------------------------------------------------
def mlp_profile(layer_dims: Sequence[int], batch_size: int = 32, name: str = "mlp") -> ModelProfile:
    """Profile of a fully-connected net with the given layer widths.

    ``layer_dims = [in, h1, h2, ..., out]``.
    """
    if len(layer_dims) < 2:
        raise ValueError("need at least input and output dims")
    costs = []
    for i in range(len(layer_dims) - 1):
        fan_in, units = layer_dims[i], layer_dims[i + 1]
        flops = OPS["linear_act"].cost(batch_size, (fan_in,), (units,))
        costs.append(LayerCost(f"dense{i}", fan_in * units + units, *flops))
    return ModelProfile(layers=costs, batch_size=batch_size, name=name)


# ----------------------------------------------------------------------
# Roofline execution model
# ----------------------------------------------------------------------
def arithmetic_intensity(flops: float, bytes_moved: float) -> float:
    """FLOPs per byte; inf for zero traffic."""
    if bytes_moved <= 0:
        return float("inf")
    return flops / bytes_moved


def roofline_time(flops: float, bytes_moved: float, acc: AcceleratorSpec, precision: str) -> float:
    """max(compute time, memory time) for one kernel."""
    if flops < 0 or bytes_moved < 0:
        raise ValueError("flops and bytes must be non-negative")
    compute = flops / acc.effective_flops(precision) if flops else 0.0
    memory = bytes_moved / acc.mem_bandwidth if bytes_moved else 0.0
    return max(compute, memory)


def achieved_flops(flops: float, bytes_moved: float, acc: AcceleratorSpec, precision: str) -> float:
    """Achieved FLOP/s of a kernel under the roofline — the E9 measurement."""
    t = roofline_time(flops, bytes_moved, acc, precision)
    return flops / t if t > 0 else 0.0


def layer_step_time(cost: LayerCost, acc: AcceleratorSpec, precision: str) -> float:
    """Forward+backward time of one layer under the roofline.

    Bytes: read weights (fwd+bwd) + write/read activations (fwd write,
    bwd read) + gradient write.
    """
    elem = DTYPE_BYTES[precision]
    weight_bytes = cost.params * elem
    act_bytes = cost.activation_elems * elem
    fwd = roofline_time(cost.flops_fwd, weight_bytes + act_bytes, acc, precision)
    bwd = roofline_time(cost.flops_bwd, 2 * weight_bytes + 2 * act_bytes, acc, precision)
    return fwd + bwd


def compute_step_time(profile: ModelProfile, node: NodeSpec, precision: str) -> float:
    """Single-node forward+backward+update time for one mini-batch."""
    acc = node.accelerator
    t = sum(layer_step_time(l, acc, precision) for l in profile.layers)
    # Optimizer update: elementwise over parameters, bandwidth-bound
    # (read weight+grad+2 moments, write weight+2 moments ~ 7 copies).
    update_bytes = 7.0 * profile.params * DTYPE_BYTES["fp32"]
    t += update_bytes / acc.mem_bandwidth
    return t
