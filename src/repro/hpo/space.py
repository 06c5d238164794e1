"""Typed hyperparameter search spaces.

A :class:`SearchSpace` maps parameter names to typed dimensions and
provides the three views every strategy needs: random sampling, grid
enumeration, and a bijection to the unit hypercube (GP and generative
models operate there).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

Config = Dict[str, Any]


class Dimension:
    """One hyperparameter dimension."""

    def sample(self, rng: np.random.Generator):
        raise NotImplementedError

    def to_unit(self, value) -> float:
        """Map a value to [0, 1]."""
        raise NotImplementedError

    def from_unit(self, u: float):
        """Inverse of :meth:`to_unit` (clamped)."""
        raise NotImplementedError

    def grid(self, n: int) -> List:
        """n representative values spanning the dimension."""
        raise NotImplementedError


@dataclass(frozen=True)
class Float(Dimension):
    """Continuous parameter, optionally log-scaled (learning rates)."""

    lo: float
    hi: float
    log: bool = False

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.log and self.lo <= 0:
            raise ValueError("log scale requires lo > 0")

    def sample(self, rng: np.random.Generator) -> float:
        return self.from_unit(rng.random())

    def to_unit(self, value: float) -> float:
        if self.log:
            return (math.log(value) - math.log(self.lo)) / (math.log(self.hi) - math.log(self.lo))
        return (value - self.lo) / (self.hi - self.lo)

    def from_unit(self, u: float) -> float:
        u = min(max(u, 0.0), 1.0)
        if self.log:
            return math.exp(math.log(self.lo) + u * (math.log(self.hi) - math.log(self.lo)))
        return self.lo + u * (self.hi - self.lo)

    def grid(self, n: int) -> List[float]:
        if n < 1:
            raise ValueError("n must be >= 1")
        if n == 1:
            return [self.from_unit(0.5)]
        return [self.from_unit(i / (n - 1)) for i in range(n)]


@dataclass(frozen=True)
class Int(Dimension):
    """Integer parameter (layer widths, batch sizes), optionally log-scaled."""

    lo: int
    hi: int
    log: bool = False

    def __post_init__(self) -> None:
        if not self.lo <= self.hi:
            raise ValueError(f"need lo <= hi, got [{self.lo}, {self.hi}]")
        if self.log and self.lo < 1:
            raise ValueError("log scale requires lo >= 1")

    def sample(self, rng: np.random.Generator) -> int:
        return self.from_unit(rng.random())

    def to_unit(self, value: int) -> float:
        if self.hi == self.lo:
            return 0.5
        if self.log:
            return (math.log(value) - math.log(self.lo)) / (math.log(self.hi) - math.log(self.lo))
        return (value - self.lo) / (self.hi - self.lo)

    def from_unit(self, u: float) -> int:
        u = min(max(u, 0.0), 1.0)
        if self.log:
            raw = math.exp(math.log(self.lo) + u * (math.log(self.hi) - math.log(self.lo)))
        else:
            raw = self.lo + u * (self.hi - self.lo)
        return int(min(max(round(raw), self.lo), self.hi))

    def grid(self, n: int) -> List[int]:
        if n < 1:
            raise ValueError("n must be >= 1")
        vals = sorted({self.from_unit(i / max(n - 1, 1)) for i in range(n)})
        return vals


@dataclass(frozen=True)
class Categorical(Dimension):
    """Finite unordered choices (activation, optimizer)."""

    choices: Tuple

    def __init__(self, choices: Sequence) -> None:
        if len(choices) < 1:
            raise ValueError("need at least one choice")
        object.__setattr__(self, "choices", tuple(choices))

    def sample(self, rng: np.random.Generator):
        return self.choices[int(rng.integers(0, len(self.choices)))]

    def to_unit(self, value) -> float:
        idx = self.choices.index(value)
        return (idx + 0.5) / len(self.choices)

    def from_unit(self, u: float):
        u = min(max(u, 0.0), 1.0 - 1e-12)
        return self.choices[int(u * len(self.choices))]

    def grid(self, n: int) -> List:
        return list(self.choices)


class SearchSpace:
    """Named collection of dimensions."""

    def __init__(self, dimensions: Dict[str, Dimension]) -> None:
        if not dimensions:
            raise ValueError("search space must have at least one dimension")
        self.dimensions = dict(dimensions)
        self.names = list(self.dimensions.keys())

    def __len__(self) -> int:
        return len(self.dimensions)

    def sample(self, rng: np.random.Generator) -> Config:
        return {name: dim.sample(rng) for name, dim in self.dimensions.items()}

    def to_unit(self, config: Config) -> np.ndarray:
        """Config -> point in the unit hypercube."""
        return np.array([self.dimensions[n].to_unit(config[n]) for n in self.names])

    def from_unit(self, u: np.ndarray) -> Config:
        if len(u) != len(self.names):
            raise ValueError(f"expected {len(self.names)} coordinates, got {len(u)}")
        return {n: self.dimensions[n].from_unit(float(v)) for n, v in zip(self.names, u)}

    def grid(self, points_per_dim: int = 3) -> List[Config]:
        """Full factorial grid (the naive search the keynote says loses)."""
        axes = [self.dimensions[n].grid(points_per_dim) for n in self.names]
        return [dict(zip(self.names, combo)) for combo in itertools.product(*axes)]

    def grid_size(self, points_per_dim: int = 3) -> int:
        size = 1
        for n in self.names:
            size *= len(self.dimensions[n].grid(points_per_dim))
        return size


def candle_mlp_space() -> SearchSpace:
    """The canonical search space the E5/E6 experiments sweep: the
    hyperparameters of a CANDLE-style MLP benchmark."""
    return SearchSpace(
        {
            "lr": Float(1e-5, 1e-1, log=True),
            "hidden1": Int(16, 512, log=True),
            "hidden2": Int(8, 256, log=True),
            "dropout": Float(0.0, 0.6),
            "batch_size": Int(16, 256, log=True),
            "activation": Categorical(("relu", "tanh", "elu")),
        }
    )
