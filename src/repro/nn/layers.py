"""Layer classes: stateful modules over the functional ops.

Layers follow a small protocol:

* ``__call__(x, training=...)`` runs the forward pass;
* ``parameters()`` yields trainable :class:`~repro.nn.tensor.Tensor` s;
* ``build(input_shape, rng)`` lazily materializes weights the first time
  the layer sees data, mirroring Keras' deferred-build semantics that the
  CANDLE benchmark definitions rely on;
* ``infer(xd)``, where a layer has it (Dense with a fusable activation,
  Dropout), is the eval forward on a raw (N, F) array through the same
  kernel the tape node calls; elsewhere ``infer`` is None and
  ``Model.predict`` runs the tape under ``no_grad``.

Shapes are channels-first for convolutional layers: (N, C, L).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import functional as F
from . import init as initializers
from .tensor import Tensor


class Layer:
    """Base class for all layers."""

    # The tape-free eval forward ``infer(xd) -> ndarray``; None for a
    # layer without one (see the module docstring).
    infer = None
    # The op-table entry (``functional.OPS``) the layer runs, whose cost
    # ``hpc.perfmodel`` prices it with; None for a layer outside the table.
    op = None

    def __init__(self, name: Optional[str] = None) -> None:
        self.name = name or type(self).__name__
        self.built = False

    # -- protocol ------------------------------------------------------
    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        self.built = True

    def forward(self, x: Tensor, training: bool = True) -> Tensor:
        raise NotImplementedError

    def __call__(self, x: Tensor, training: bool = True) -> Tensor:
        return self.forward(x, training=training)

    def parameters(self) -> Iterator[Tensor]:
        return iter(())

    def buffer_names(self) -> Iterator[str]:
        """Attribute names of the arrays that are model state but not
        parameters (BatchNorm's running statistics).  They travel with
        the weights: ``Model.get_weights`` / ``set_weights`` / ``astype``
        read this list."""
        return iter(())

    def rng_state(self) -> Optional[dict]:
        """Bit-generator state of the stream this layer draws from
        (dropout masks), None for a deterministic layer; a layer that
        has one takes it back through ``set_rng_state(state)``.  It is
        what a training snapshot saves and what a data-parallel rank
        keeps to itself."""
        return None

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Shape (excluding batch axis) this layer produces for ``input_shape``."""
        return input_shape

    def param_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class Dense(Layer):
    """Fully connected layer: ``y = x @ W + b``."""

    op = "linear_act"

    def __init__(
        self,
        units: int,
        activation: Optional[str] = None,
        use_bias: bool = True,
        kernel_init: str = "glorot_uniform",
        name: Optional[str] = None,
        dtype=np.float64,
    ) -> None:
        super().__init__(name)
        if units <= 0:
            raise ValueError(f"units must be positive, got {units}")
        self.units = units
        self.activation = Activation(activation) if activation else None
        if self.activation is not None and self.activation.kind not in ("relu", "tanh"):
            self.infer = None  # no fused epilogue, so no tape-free forward
        self.use_bias = use_bias
        self.kernel_init = kernel_init
        self.dtype = dtype
        self.weight: Optional[Tensor] = None
        self.bias: Optional[Tensor] = None

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        in_dim = input_shape[-1]
        init_fn = initializers.get(self.kernel_init)
        self.weight = Tensor(init_fn((in_dim, self.units), rng, dtype=self.dtype), requires_grad=True, name=f"{self.name}.W")
        if self.use_bias:
            self.bias = Tensor(np.zeros(self.units, dtype=self.dtype), requires_grad=True, name=f"{self.name}.b")
        self.built = True

    def forward(self, x: Tensor, training: bool = True) -> Tensor:
        kind = self.activation.kind if self.activation is not None else None
        if kind in (None, "relu", "tanh"):
            # Fused GEMM + bias + activation epilogue: one tape node.
            return F.linear_act(x, self.weight, self.bias, activation=kind)
        out = F.linear_act(x, self.weight, self.bias)
        return self.activation(out, training=training)

    def infer(self, xd: np.ndarray) -> np.ndarray:
        # The weights are read per call: a set_weights, cast or rebind of
        # p.data between two calls is seen by the second.
        return F.LinearAct.forward(
            None, xd, self.weight.data, None if self.bias is None else self.bias.data,
            None if self.activation is None else self.activation.kind,
        )

    def parameters(self) -> Iterator[Tensor]:
        yield self.weight
        if self.bias is not None:
            yield self.bias

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return input_shape[:-1] + (self.units,)


class Activation(Layer):
    """Named activation layer. Supported: relu, tanh, sigmoid, softmax,
    leaky_relu, elu, gelu, softplus, linear/None."""

    _FUNCS = {
        "relu": F.relu,
        "tanh": F.tanh,
        "sigmoid": F.sigmoid,
        "softmax": F.softmax,
        "leaky_relu": F.leaky_relu,
        "elu": F.elu,
        "gelu": F.gelu,
        "softplus": F.softplus,
        "linear": lambda x: x,
    }

    def __init__(self, kind: Optional[str], name: Optional[str] = None) -> None:
        super().__init__(name or f"Activation[{kind}]")
        kind = kind or "linear"
        if kind not in self._FUNCS:
            raise ValueError(f"unknown activation {kind!r}; choose from {sorted(self._FUNCS)}")
        self.kind = kind
        self.built = True

    def forward(self, x: Tensor, training: bool = True) -> Tensor:
        return self._FUNCS[self.kind](x)


class Dropout(Layer):
    """Inverted dropout; a no-op at eval time."""

    def __init__(self, rate: float, name: Optional[str] = None) -> None:
        super().__init__(name)
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng: Optional[np.random.Generator] = None

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        # Child generator so dropout masks don't perturb weight-init streams.
        self._rng = np.random.default_rng(rng.integers(2**63))
        self.built = True

    def forward(self, x: Tensor, training: bool = True) -> Tensor:
        if self._rng is None:
            self._rng = np.random.default_rng(0)
        return F.dropout(x, self.rate, self._rng, training=training)

    def infer(self, xd: np.ndarray) -> np.ndarray:
        return xd  # identity at eval

    def rng_state(self) -> Optional[dict]:
        return None if self._rng is None else self._rng.bit_generator.state

    def set_rng_state(self, state: dict) -> None:
        if self._rng is None:
            self._rng = np.random.default_rng()
        self._rng.bit_generator.state = state


class BatchNorm(Layer):
    """Batch normalization for (N, F) or (N, C, L) inputs."""

    def __init__(self, momentum: float = 0.1, eps: float = 1e-5, name: Optional[str] = None, dtype=np.float64) -> None:
        super().__init__(name)
        self.momentum = momentum
        self.eps = eps
        self.dtype = dtype
        self.gamma: Optional[Tensor] = None
        self.beta: Optional[Tensor] = None
        self.running_mean: Optional[np.ndarray] = None
        self.running_var: Optional[np.ndarray] = None
        self._axis: Tuple[int, ...] = (0,)

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        # input_shape excludes batch: (F,) dense, (C, L) conv1d, (C, H, W) conv2d.
        if len(input_shape) == 1:
            feat = input_shape[0]
            self._axis = (0,)
        elif len(input_shape) == 2:
            feat = input_shape[0]  # channels
            self._axis = (0, 2)
        elif len(input_shape) == 3:
            feat = input_shape[0]
            self._axis = (0, 2, 3)
        else:
            raise ValueError(f"BatchNorm supports 1-D..3-D feature shapes, got {input_shape}")
        self.gamma = Tensor(np.ones(feat, dtype=self.dtype), requires_grad=True, name=f"{self.name}.gamma")
        self.beta = Tensor(np.zeros(feat, dtype=self.dtype), requires_grad=True, name=f"{self.name}.beta")
        self.running_mean = np.zeros(feat, dtype=self.dtype)
        self.running_var = np.ones(feat, dtype=self.dtype)
        self.built = True

    def forward(self, x: Tensor, training: bool = True) -> Tensor:
        return F.batch_norm(
            x,
            self.gamma,
            self.beta,
            self.running_mean,
            self.running_var,
            momentum=self.momentum,
            eps=self.eps,
            training=training,
            axis=self._axis,
        )

    def parameters(self) -> Iterator[Tensor]:
        yield self.gamma
        yield self.beta

    def buffer_names(self) -> Iterator[str]:
        return iter(("running_mean", "running_var"))


class LayerNorm(Layer):
    """Layer normalization over the last axis."""

    def __init__(self, eps: float = 1e-5, name: Optional[str] = None, dtype=np.float64) -> None:
        super().__init__(name)
        self.eps = eps
        self.dtype = dtype
        self.gamma: Optional[Tensor] = None
        self.beta: Optional[Tensor] = None

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        feat = input_shape[-1]
        self.gamma = Tensor(np.ones(feat, dtype=self.dtype), requires_grad=True, name=f"{self.name}.gamma")
        self.beta = Tensor(np.zeros(feat, dtype=self.dtype), requires_grad=True, name=f"{self.name}.beta")
        self.built = True

    def forward(self, x: Tensor, training: bool = True) -> Tensor:
        return F.layer_norm(x, self.gamma, self.beta, eps=self.eps)

    def parameters(self) -> Iterator[Tensor]:
        yield self.gamma
        yield self.beta


class Conv1D(Layer):
    """1-D convolution over (N, C, L) inputs."""

    op = "conv1d"

    def __init__(
        self,
        filters: int,
        kernel_size: int,
        stride: int = 1,
        padding: str = "valid",
        activation: Optional[str] = None,
        kernel_init: str = "he_uniform",
        name: Optional[str] = None,
        dtype=np.float64,
    ) -> None:
        super().__init__(name)
        if padding not in ("valid", "same"):
            raise ValueError(f"padding must be 'valid' or 'same', got {padding!r}")
        if padding == "same" and stride != 1:
            raise ValueError("padding='same' requires stride=1")
        self.filters = filters
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.activation = Activation(activation) if activation else None
        self.kernel_init = kernel_init
        self.dtype = dtype
        self.weight: Optional[Tensor] = None
        self.bias: Optional[Tensor] = None

    def _pad_amount(self) -> int:
        return (self.kernel_size - 1) // 2 if self.padding == "same" else 0

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        c_in = input_shape[0]
        init_fn = initializers.get(self.kernel_init)
        self.weight = Tensor(
            init_fn((self.filters, c_in, self.kernel_size), rng, dtype=self.dtype),
            requires_grad=True,
            name=f"{self.name}.W",
        )
        self.bias = Tensor(np.zeros(self.filters, dtype=self.dtype), requires_grad=True, name=f"{self.name}.b")
        self.built = True

    def forward(self, x: Tensor, training: bool = True) -> Tensor:
        kind = self.activation.kind if self.activation is not None else None
        if kind in ("relu", "tanh"):
            # Fuse the activation epilogue into the conv node.
            return F.conv1d(
                x, self.weight, self.bias,
                stride=self.stride, padding=self._pad_amount(), activation=kind,
            )
        out = F.conv1d(x, self.weight, self.bias, stride=self.stride, padding=self._pad_amount())
        if self.activation is not None:
            out = self.activation(out, training=training)
        return out

    def parameters(self) -> Iterator[Tensor]:
        yield self.weight
        yield self.bias

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        _, length = input_shape
        pad = self._pad_amount()
        l_out = (length + 2 * pad - self.kernel_size) // self.stride + 1
        if self.padding == "same" and self.kernel_size % 2 == 1:
            l_out = length
        return (self.filters, l_out)


class MaxPool1D(Layer):
    op = "maxpool1d"

    def __init__(self, pool_size: int, stride: Optional[int] = None, name: Optional[str] = None) -> None:
        super().__init__(name)
        self.pool_size = pool_size
        self.stride = stride or pool_size
        self.built = True

    def forward(self, x: Tensor, training: bool = True) -> Tensor:
        return F.maxpool1d(x, self.pool_size, self.stride)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        c, length = input_shape
        return (c, (length - self.pool_size) // self.stride + 1)


class AvgPool1D(Layer):
    def __init__(self, pool_size: int, stride: Optional[int] = None, name: Optional[str] = None) -> None:
        super().__init__(name)
        self.pool_size = pool_size
        self.stride = stride or pool_size
        self.built = True

    def forward(self, x: Tensor, training: bool = True) -> Tensor:
        return F.avgpool1d(x, self.pool_size, self.stride)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        c, length = input_shape
        return (c, (length - self.pool_size) // self.stride + 1)


class Flatten(Layer):
    """Collapse all non-batch axes."""

    def __init__(self, name: Optional[str] = None) -> None:
        super().__init__(name)
        self.built = True

    def forward(self, x: Tensor, training: bool = True) -> Tensor:
        return x.flatten()

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (int(np.prod(input_shape)),)


class Embedding(Layer):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, vocab_size: int, dim: int, name: Optional[str] = None, dtype=np.float64) -> None:
        super().__init__(name)
        self.vocab_size = vocab_size
        self.dim = dim
        self.dtype = dtype
        self.weight: Optional[Tensor] = None

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        self.weight = Tensor(
            (rng.standard_normal((self.vocab_size, self.dim)) * 0.05).astype(self.dtype),
            requires_grad=True,
            name=f"{self.name}.E",
        )
        self.built = True

    def forward(self, x, training: bool = True) -> Tensor:
        indices = x.data if isinstance(x, Tensor) else np.asarray(x)
        return F.embedding(self.weight, indices.astype(np.int64))

    def parameters(self) -> Iterator[Tensor]:
        yield self.weight

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return input_shape + (self.dim,)


class Conv2D(Layer):
    """2-D convolution over (N, C, H, W) inputs (tumor-imaging workloads)."""

    op = "conv2d"

    def __init__(
        self,
        filters: int,
        kernel_size: int,
        stride: int = 1,
        padding: str = "valid",
        activation: Optional[str] = None,
        kernel_init: str = "he_uniform",
        name: Optional[str] = None,
        dtype=np.float64,
    ) -> None:
        super().__init__(name)
        if padding not in ("valid", "same"):
            raise ValueError(f"padding must be 'valid' or 'same', got {padding!r}")
        if padding == "same" and stride != 1:
            raise ValueError("padding='same' requires stride=1")
        self.filters = filters
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.activation = Activation(activation) if activation else None
        self.kernel_init = kernel_init
        self.dtype = dtype
        self.weight: Optional[Tensor] = None
        self.bias: Optional[Tensor] = None

    def _pad_amount(self) -> int:
        return (self.kernel_size - 1) // 2 if self.padding == "same" else 0

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        c_in = input_shape[0]
        init_fn = initializers.get(self.kernel_init)
        # _fans treats trailing axes as receptive field; flatten kh*kw.
        w = init_fn((self.filters, c_in, self.kernel_size * self.kernel_size), rng, dtype=self.dtype)
        self.weight = Tensor(
            w.reshape(self.filters, c_in, self.kernel_size, self.kernel_size),
            requires_grad=True,
            name=f"{self.name}.W",
        )
        self.bias = Tensor(np.zeros(self.filters, dtype=self.dtype), requires_grad=True, name=f"{self.name}.b")
        self.built = True

    def forward(self, x: Tensor, training: bool = True) -> Tensor:
        kind = self.activation.kind if self.activation is not None else None
        if kind in ("relu", "tanh"):
            # Fuse the activation epilogue into the conv node.
            return F.conv2d(
                x, self.weight, self.bias,
                stride=self.stride, padding=self._pad_amount(), activation=kind,
            )
        out = F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self._pad_amount())
        if self.activation is not None:
            out = self.activation(out, training=training)
        return out

    def parameters(self) -> Iterator[Tensor]:
        yield self.weight
        yield self.bias

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        _, h, w = input_shape
        pad = self._pad_amount()
        h_out = (h + 2 * pad - self.kernel_size) // self.stride + 1
        w_out = (w + 2 * pad - self.kernel_size) // self.stride + 1
        if self.padding == "same" and self.kernel_size % 2 == 1:
            h_out, w_out = h, w
        return (self.filters, h_out, w_out)


class MaxPool2D(Layer):
    op = "maxpool2d"

    def __init__(self, pool_size: int, stride: Optional[int] = None, name: Optional[str] = None) -> None:
        super().__init__(name)
        self.pool_size = pool_size
        self.stride = stride or pool_size
        self.built = True

    def forward(self, x: Tensor, training: bool = True) -> Tensor:
        return F.maxpool2d(x, self.pool_size, self.stride)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        c, h, w = input_shape
        return (
            c,
            (h - self.pool_size) // self.stride + 1,
            (w - self.pool_size) // self.stride + 1,
        )


class GlobalAvgPool2D(Layer):
    """(N, C, H, W) -> (N, C), the standard conv-net head reducer."""

    def __init__(self, name: Optional[str] = None) -> None:
        super().__init__(name)
        self.built = True

    def forward(self, x: Tensor, training: bool = True) -> Tensor:
        return F.global_avgpool2d(x)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (input_shape[0],)
