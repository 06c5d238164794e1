"""Simulated-clock serving experiments: the deployed :class:`Router` on
:class:`repro.hpc.events.EventLoop` time.

Wall-clock benchmarks answer "how fast is this machine"; the questions a
capacity planner asks — where does p99 blow up as offered load rises,
how much does shedding save, what does a tighter ``max_wait`` cost — are
*queueing* questions, and the discrete-event loop answers them in
milliseconds of CPU regardless of the simulated traffic volume.

The policy under test is the deployed policy code: admission, batching,
dispatch and accounting are :class:`Router`'s own, reading the loop's
clock.  Only the replica is simulated — a model forward replaced by a
service-time model.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict

import numpy as np

from ..hpc.events import EventLoop
from ..parallel.pool import TaskResult
from .batcher import BatchPolicy
from .router import Router


@dataclass(frozen=True)
class AffineServiceTime:
    """Batch service time ``base_s + per_sample_s * batch_size``.

    The standard cost shape for a batched forward: fixed dispatch
    overhead plus per-sample compute.  ``base_s`` is what micro-batching
    amortizes — speedup comes entirely from sharing it.
    """

    base_s: float
    per_sample_s: float

    def __call__(self, batch_size: int) -> float:
        return self.base_s + self.per_sample_s * batch_size


class _SimReplica:
    """One replica on ``loop`` time, duck-typed as a ``ReplicaGroup``.

    It serves batches in dispatch order, each ``service_time(n)`` after
    it gets to it, and calls ``on_land`` (the router's ``pump``) when one
    lands.
    """

    n_replicas = 1

    def __init__(self, loop: EventLoop, service_time: Callable[[int], float]) -> None:
        self.loop = loop
        self.service_time = service_time
        self.on_land: Callable[[], object] = lambda: None
        self._free_at = 0.0
        self._landed: Deque[TaskResult] = deque()
        self._next_id = 0

    def submit(self, replica, x=None, rows=None, fault=None) -> int:
        task_id, n = self._next_id, len(rows)
        self._next_id += 1
        dt = float(self.service_time(n))
        self._free_at = max(self._free_at, self.loop.now) + dt
        result = TaskResult(task_id, replica, "ok", [None] * n, dt)
        self.loop.schedule_at(self._free_at, lambda: self._land(result))
        return task_id

    def _land(self, result: TaskResult) -> None:
        self._landed.append(result)
        self.on_land()

    def poll(self, timeout: float = 0.0):
        return self._landed.popleft() if self._landed else None


def poisson_arrivals(rate: float, n: int, seed: int = 0) -> np.ndarray:
    """Arrival times of a Poisson process at ``rate`` per second."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    return np.cumsum(np.random.default_rng(seed).exponential(1.0 / rate, n))


def simulate_serving(
    policy: BatchPolicy,
    service_time: Callable[[int], float],
    arrival_rate: float,
    n_requests: int,
    seed: int = 0,
) -> Dict:
    """One offered-load point: Poisson arrivals into a one-replica Router.

    Arrivals are :func:`poisson_arrivals` (seeded, bit-reproducible).
    Each one is submitted and pumped at once, and pumped again when its
    ``max_wait_s`` timer runs out; a landing batch pumps too.  So the
    queue forms batches, sheds at ``max_queue`` and times out exactly as
    the deployed router says.

    Returns the router's stats summary (latency percentiles, throughput,
    shed / timeout counts, occupancy, utilization) plus ``offered_rps``,
    ``sim_time_s`` and ``accounted``.
    """
    if n_requests < 1:
        raise ValueError("n_requests must be >= 1")
    arrivals = poisson_arrivals(arrival_rate, n_requests, seed)
    loop = EventLoop()
    replica = _SimReplica(loop, service_time)
    router = Router({"m": replica}, policy, clock=lambda: loop.now)
    replica.on_land = router.pump

    def arrive(i: int) -> None:
        router.submit("m", row=i)
        router.pump()
        loop.schedule(policy.max_wait_s, router.pump)

    for i, t in enumerate(arrivals):
        loop.schedule_at(float(t), lambda i=i: arrive(i))
    loop.run()
    # The run ends with its last arrival or landing; a timer that fires
    # later finds nothing to do.
    sim_time = max(float(arrivals[-1]), replica._free_at)
    out = router.stats.summary(elapsed=sim_time, max_batch_size=policy.max_batch_size)
    out["offered_rps"] = arrival_rate
    out["sim_time_s"] = sim_time
    # Every landing and timer pumps, so nothing is left queued behind an
    # idle replica: once the events run dry every request has an outcome.
    out["accounted"] = router.stats.accounted()
    return out
