"""Minimal discrete-event simulation core.

Drives the serving simulator (:func:`repro.serve.simulate_serving`):
arrivals, ``max_wait_s`` timers and batch landings are events, each
calling the deployed ``Router`` on this loop's clock.  The simulated HPO
runtime keeps its own heap (DESIGN.md, "Two event heaps").
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple


class EventLoop:
    """A priority queue of timestamped callbacks."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()  # FIFO tie-break at equal times

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at ``now + delay``."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        heapq.heappush(self._queue, (self.now + delay, next(self._counter), callback))

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        heapq.heappush(self._queue, (time, next(self._counter), callback))

    def step(self) -> bool:
        """Process the next event; returns False when the queue is empty."""
        if not self._queue:
            return False
        time, _, callback = heapq.heappop(self._queue)
        self.now = time
        callback()
        return True

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> float:
        """Drain the queue (optionally stopping at time ``until``).

        Returns the final simulation time.
        """
        events = 0
        while self._queue:
            if until is not None and self._queue[0][0] > until:
                self.now = until
                break
            if events >= max_events:
                raise RuntimeError(f"event budget exceeded ({max_events}); runaway simulation?")
            self.step()
            events += 1
        return self.now

    @property
    def pending(self) -> int:
        return len(self._queue)
