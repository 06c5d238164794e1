"""The naive searches the keynote says are outperformed: grid and random."""

from __future__ import annotations

from typing import List, Optional

from ..space import SearchSpace
from .base import Strategy, Suggestion


class RandomSearch(Strategy):
    """Uniform random sampling — the stronger naive baseline (Bergstra &
    Bengio): beats grid whenever some dimensions matter more than others."""

    name = "random"

    def ask(self) -> Suggestion:
        return Suggestion(config=self.space.sample(self.rng), budget=self.default_budget)


class GridSearch(Strategy):
    """Full-factorial grid, evaluated in shuffled order (so truncated runs
    aren't biased toward one corner of the space)."""

    name = "grid"

    def __init__(self, space: SearchSpace, seed: int = 0, default_budget: int = 1, points_per_dim: int = 3) -> None:
        super().__init__(space, seed, default_budget)
        self._configs: List = space.grid(points_per_dim)
        order = self.rng.permutation(len(self._configs))
        self._configs = [self._configs[i] for i in order]
        self._next = 0

    def ask(self) -> Optional[Suggestion]:
        if self._next >= len(self._configs):
            return None  # grid exhausted
        cfg = self._configs[self._next]
        self._next += 1
        return Suggestion(config=cfg, budget=self.default_budget)

    def exhausted(self) -> bool:
        return self._next >= len(self._configs)

