"""Multi-fidelity strategies: successive halving, Hyperband, and ASHA.

Successive halving evaluates a cohort at a small budget, keeps the best
1/eta fraction at eta-times the budget, and repeats.  Hyperband runs
several halving brackets with different aggressiveness, hedging against
unknown budget-sensitivity (Li et al., 2017 — contemporary with the
keynote and exactly the "intelligent search" family it cites).

:class:`ASHA` is the asynchronous variant (Li et al., 2018): instead of
blocking a rung until *every* cohort member reports, a config is
promoted as soon as it sits in the top 1/eta of the results its rung
has *so far*, and when no promotion is ready a fresh config is started
at the bottom — ``ask`` never returns None, so elastic workers never
idle at rung barriers.  That property is what the durable-queue
campaign runtime (:mod:`repro.hpo.elastic`) leans on at 10^4-trial
scale.
"""

from __future__ import annotations

import bisect
import heapq
import math
from typing import List, Optional, Tuple

from ..space import Config, SearchSpace
from .base import Strategy, Suggestion


class _Rung:
    """One fidelity level of a halving bracket.

    ``results`` rows are ``(value, launch_index, config)``: the launch
    index makes survivor selection a total order — ties on value
    promote the earlier launch, not whichever completion happened to
    land first under parallel execution.
    """

    def __init__(self, budget: int, capacity: int) -> None:
        self.budget = budget
        self.capacity = capacity  # configs this rung will evaluate
        self.results: List[Tuple[float, int, Config]] = []
        self.launched = 0

    def full(self) -> bool:
        return self.launched >= self.capacity

    def complete(self) -> bool:
        return len(self.results) >= self.capacity

    def ranked(self) -> List[Tuple[float, int, Config]]:
        return sorted(self.results, key=lambda r: (r[0], r[1]))


class SuccessiveHalving(Strategy):
    """One halving bracket, restarted indefinitely.

    ``min_budget``/``max_budget`` are in epochs; ``eta`` is the keep
    fraction (1/eta survive each rung).

    Suggestion tags are ``(bracket_id, rung_idx, launch_idx)``.  The
    bracket id guards against stale tells: under parallel execution a
    bracket can restart while trials from the old bracket are still in
    flight — their late results must not pollute the new bracket's
    rungs, so :meth:`tell` drops any tag whose bracket id is not
    current.
    """

    name = "successive_halving"

    def __init__(
        self,
        space: SearchSpace,
        seed: int = 0,
        min_budget: int = 1,
        max_budget: int = 27,
        eta: int = 3,
    ) -> None:
        super().__init__(space, seed, default_budget=min_budget)
        if min_budget < 1 or max_budget < min_budget:
            raise ValueError("need 1 <= min_budget <= max_budget")
        if eta < 2:
            raise ValueError("eta must be >= 2")
        self.min_budget = min_budget
        self.max_budget = max_budget
        self.eta = eta
        self.n_rungs = int(math.floor(math.log(max_budget / min_budget, eta))) + 1
        self.bracket_id = -1
        self.stale_tells = 0  # late results from restarted brackets, dropped
        self._start_bracket()

    def _start_bracket(self) -> None:
        n0 = self.eta ** (self.n_rungs - 1)
        self.rungs: List[_Rung] = []
        for i in range(self.n_rungs):
            budget = min(self.min_budget * self.eta ** i, self.max_budget)
            capacity = max(n0 // self.eta ** i, 1)
            self.rungs.append(_Rung(budget, capacity))
        self.bracket_id += 1

    def ask(self) -> Optional[Suggestion]:
        # Bottom rung: fresh random configs.
        bottom = self.rungs[0]
        if not bottom.full():
            launch = bottom.launched
            bottom.launched += 1
            return Suggestion(
                self.space.sample(self.rng), budget=bottom.budget,
                tag=(self.bracket_id, 0, launch),
            )
        # Higher rungs: launch promotions when the rung below is complete.
        for i in range(1, self.n_rungs):
            rung = self.rungs[i]
            below = self.rungs[i - 1]
            if rung.full() or not below.complete():
                continue
            survivors = below.ranked()[: rung.capacity]
            cfg = survivors[rung.launched][2]
            launch = rung.launched
            rung.launched += 1
            return Suggestion(cfg, budget=rung.budget, tag=(self.bracket_id, i, launch))
        # All rungs full: restart a fresh bracket once the top completes.
        if self.rungs[-1].complete():
            self._start_bracket()
            return self.ask()
        return None  # waiting on outstanding evaluations

    def tell(self, suggestion: Suggestion, value: float) -> None:
        super().tell(suggestion, value)
        tag = suggestion.tag
        if not isinstance(tag, tuple) or len(tag) != 3:
            return
        bracket_id, rung_idx, launch_idx = tag
        if bracket_id != self.bracket_id:
            # A trial launched before a bracket restart reporting into
            # the new bracket would corrupt its rung statistics.
            self.stale_tells += 1
            return
        if not 0 <= rung_idx < len(self.rungs):
            return
        self.rungs[rung_idx].results.append((value, launch_idx, suggestion.config))


class Hyperband(Strategy):
    """Hyperband: a rotation of successive-halving brackets with varying
    initial cohort sizes."""

    name = "hyperband"

    def __init__(self, space: SearchSpace, seed: int = 0, max_budget: int = 27, eta: int = 3) -> None:
        super().__init__(space, seed, default_budget=1)
        if max_budget < 1:
            raise ValueError("max_budget must be >= 1")
        if eta < 2:
            raise ValueError("eta must be >= 2")
        self.max_budget = max_budget
        self.eta = eta
        self.s_max = int(math.floor(math.log(max_budget, eta)))
        self._brackets: List[SuccessiveHalving] = []
        self._build_brackets()
        self._cursor = 0

    def _build_brackets(self) -> None:
        self._brackets = []
        for s in range(self.s_max, -1, -1):
            min_budget = max(1, int(round(self.max_budget / self.eta ** s)))
            child_seed = int(self.rng.integers(2**31))
            self._brackets.append(
                SuccessiveHalving(
                    self.space, seed=child_seed,
                    min_budget=min_budget, max_budget=self.max_budget, eta=self.eta,
                )
            )

    def ask(self) -> Optional[Suggestion]:
        # Round-robin over brackets; tag suggestions with the bracket index.
        for offset in range(len(self._brackets)):
            idx = (self._cursor + offset) % len(self._brackets)
            sug = self._brackets[idx].ask()
            if sug is not None:
                self._cursor = (idx + 1) % len(self._brackets)
                return Suggestion(sug.config, sug.budget, tag=(idx, sug.tag))
        return None

    def tell(self, suggestion: Suggestion, value: float) -> None:
        self.n_told += 1
        bracket_idx, inner_tag = suggestion.tag
        # Tags round-trip through JSON in the durable queue: tuples come
        # back as (possibly nested) sequences — renormalize.
        if isinstance(inner_tag, list):
            inner_tag = tuple(inner_tag)
        inner = Suggestion(suggestion.config, suggestion.budget, tag=inner_tag)
        self._brackets[int(bracket_idx)].tell(inner, value)


class _AshaRung:
    """One fidelity level of an ASHA ladder (unbounded width)."""

    def __init__(self, budget: int) -> None:
        self.budget = budget
        #: completed results, kept sorted by (value, launch_idx)
        self.results: List[Tuple[float, int, Config]] = []
        #: the same rows as a heap, less those found promoted: its root
        #: is the one row this rung can promote next
        self.unpromoted: List[Tuple[float, int, Config]] = []
        #: launch indices already promoted out of this rung
        self.promoted = set()
        self.launched = 0


class ASHA(Strategy):
    """Asynchronous successive halving (Li et al., 2018).

    The synchronous bracket promotes only when a rung *completes* — on
    an elastic worker pool that leaves 1-1/eta of the fleet idle at
    every rung barrier and stalls whenever a straggler holds a rung
    open.  ASHA removes the barrier: a config is promoted to the next
    rung as soon as it ranks in the top ``1/eta`` of the results its
    rung has received *so far* (ties broken by launch index), and when
    no promotion is ready a fresh config enters the bottom rung.
    ``ask`` therefore always returns work and never returns None.

    Tags are ``(rung_idx, launch_idx)``.  Results landing from any rung
    at any time are welcome — there are no brackets to go stale.
    """

    name = "asha"

    def __init__(
        self,
        space: SearchSpace,
        seed: int = 0,
        min_budget: int = 1,
        max_budget: int = 27,
        eta: int = 3,
    ) -> None:
        super().__init__(space, seed, default_budget=min_budget)
        if min_budget < 1 or max_budget < min_budget:
            raise ValueError("need 1 <= min_budget <= max_budget")
        if eta < 2:
            raise ValueError("eta must be >= 2")
        self.min_budget = min_budget
        self.max_budget = max_budget
        self.eta = eta
        self.n_rungs = int(math.floor(math.log(max_budget / min_budget, eta))) + 1
        self.rungs = [
            _AshaRung(min(min_budget * eta ** i, max_budget)) for i in range(self.n_rungs)
        ]
        self.promotions = 0

    def _promotable(self, rung_idx: int) -> Optional[Tuple[int, Config]]:
        """Best not-yet-promoted config in the top 1/eta of this rung's
        results so far, or None.

        The best unpromoted row is the heap's root (rows of a launch
        already promoted — it was told twice — are dropped on the way);
        it is in the top 1/eta iff fewer than ``len // eta`` rows rank
        before it — O(log n), however many rows the rung has promoted."""
        rung = self.rungs[rung_idx]
        heap = rung.unpromoted
        while heap and heap[0][1] in rung.promoted:
            heapq.heappop(heap)
        if not heap:
            return None
        value, launch_idx, cfg = heap[0]
        if bisect.bisect_left(rung.results, (value, launch_idx)) < len(rung.results) // self.eta:
            return launch_idx, cfg
        return None

    def ask(self) -> Optional[Suggestion]:
        # Top-down: prefer finishing promising configs at high fidelity.
        for i in range(self.n_rungs - 2, -1, -1):
            cand = self._promotable(i)
            if cand is None:
                continue
            launch_idx, cfg = cand
            self.rungs[i].promoted.add(launch_idx)
            self.promotions += 1
            up = self.rungs[i + 1]
            launch = up.launched
            up.launched += 1
            return Suggestion(cfg, budget=up.budget, tag=(i + 1, launch))
        # No promotion ready: grow the bottom rung (never idle).
        bottom = self.rungs[0]
        launch = bottom.launched
        bottom.launched += 1
        return Suggestion(
            self.space.sample(self.rng), budget=bottom.budget, tag=(0, launch)
        )

    def tell(self, suggestion: Suggestion, value: float) -> None:
        super().tell(suggestion, value)
        tag = suggestion.tag
        if not isinstance(tag, tuple) or len(tag) != 2:
            return
        rung_idx, launch_idx = int(tag[0]), int(tag[1])
        if not 0 <= rung_idx < self.n_rungs:
            return
        rung = self.rungs[rung_idx]
        # Insert keeping (value, launch_idx) order so a promotion check
        # ranks its candidate by bisection (10^4-trial campaigns ask
        # constantly; a full sort per ask would be quadratic).
        row = (float(value), launch_idx, suggestion.config)
        bisect.insort(rung.results, row)
        heapq.heappush(rung.unpromoted, row)
