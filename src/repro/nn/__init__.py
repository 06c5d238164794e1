"""From-scratch NumPy deep-learning framework.

The substrate every CANDLE-style benchmark in :mod:`repro.candle` runs on:
reverse-mode autograd (:mod:`repro.nn.tensor`), differentiable ops
(:mod:`repro.nn.functional`), Keras-style layers and models, optimizers,
losses and metrics.
"""

from . import functional
from . import init
from . import losses
from . import metrics
from . import optim
from . import serialization
from .serialization import (
    CheckpointIntegrityError,
    atomic_savez,
    load_training_state,
    load_weights,
    restore_rng,
    rng_state,
    save_training_state,
    save_weights,
)
from .dataloader import DataLoader, shard, train_val_split
from .layers import (
    Activation,
    AvgPool1D,
    BatchNorm,
    Conv1D,
    Conv2D,
    Dense,
    Dropout,
    Embedding,
    Flatten,
    GlobalAvgPool2D,
    Layer,
    LayerNorm,
    MaxPool1D,
    MaxPool2D,
)
from .model import FitLoop, History, Model, Sequential
from .gradcheck import gradient_check, numerical_gradient
from .recurrent import GRU, LSTM, SimpleRNN
from .optim import SGD, AdaGrad, Adam, Optimizer, RMSProp
from .tensor import (
    GradArena,
    Tensor,
    concatenate,
    no_grad,
    ones,
    stack,
    tape_node_count,
    tensor,
    zeros,
)

__all__ = [
    "Tensor", "tensor", "zeros", "ones", "concatenate", "stack", "no_grad",
    "tape_node_count", "GradArena",
    "functional", "init", "losses", "metrics", "optim",
    "Layer", "Dense", "Activation", "Dropout", "BatchNorm", "LayerNorm",
    "Conv1D", "MaxPool1D", "AvgPool1D", "Flatten", "Embedding",
    "Conv2D", "MaxPool2D", "GlobalAvgPool2D", "SimpleRNN", "GRU", "LSTM",
    "gradient_check", "numerical_gradient",
    "Model", "Sequential", "History", "FitLoop",
    "Optimizer", "SGD", "Adam", "RMSProp", "AdaGrad",
    "DataLoader", "shard", "train_val_split",
    "serialization", "save_weights", "load_weights", "CheckpointIntegrityError",
    "save_training_state", "load_training_state", "atomic_savez", "rng_state", "restore_rng",
]
