"""Deadline-aware micro-batching policy.

The batcher is pure queueing logic — no model, no clock of its own.
Two callers own one each: the synchronous server
(:mod:`repro.serve.server`) and the router (:mod:`repro.serve.router`),
which the simulated-load driver (:mod:`repro.serve.simulate`) runs on
simulated time.  Callers pass ``now`` explicitly; the batcher never
reads time.

Dispatch rule — work-conserving: a non-empty queue has a batch ready as
soon as any of

* the caller reports idle capacity (``ready(now, idle=True)``: something
  that could run the batch right now has nothing to do),
* ``max_batch_size`` requests are queued (throughput bound), or
* the oldest queued request has waited ``max_wait_s`` (latency bound).

So ``max_wait_s`` does not delay a request that an idle replica could be
serving; it only bounds how long a partial batch keeps collecting while
every replica is busy, after which it is queued behind one of them.
Batches grow with load by themselves: the busier the replicas, the more
requests arrive between two moments of idle capacity.  A caller with no
capacity of its own to report (the synchronous
:class:`~repro.serve.server.InferenceServer`, whose caller decides when
it steps) leaves ``idle`` at False and gets the full-or-timer rule.

Overload handling: the queue is bounded (``max_queue``); offers beyond
the bound are *shed* immediately — rejecting cheap at the door beats
timing out expensive in the queue.  The router applies the same bound to
everything a model holds, dispatched-but-unresolved requests included,
so its batcher never reaches the bound on its own.  Requests that
nevertheless exceed ``timeout_s`` while queued are dropped at
batch-formation time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class BatchPolicy:
    """Knobs of the micro-batching and overload policy."""

    max_batch_size: int = 64
    max_wait_s: float = 0.005
    max_queue: int = 1024
    timeout_s: Optional[float] = None  # None: requests never expire

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s must be non-negative")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")


@dataclass
class Request:
    """One queued predict request (a single sample)."""

    request_id: int
    x: np.ndarray
    enqueue_time: float
    deadline_s: Optional[float] = None  # past enqueue_time; None: the policy's timeout_s
    # Filled in by the server as the request moves through its lifecycle.
    status: str = "queued"  # queued | completed | shed | timed_out
    result: Optional[np.ndarray] = None
    complete_time: Optional[float] = None

    @property
    def latency(self) -> Optional[float]:
        if self.complete_time is None:
            return None
        return self.complete_time - self.enqueue_time


class MicroBatcher:
    """Bounded FIFO queue + the batch-formation rule."""

    def __init__(self, policy: BatchPolicy) -> None:
        self.policy = policy
        self._queue: Deque[Request] = deque()

    @property
    def depth(self) -> int:
        return len(self._queue)

    def offer(self, request: Request) -> bool:
        """Enqueue, or shed if the queue is at its bound.

        Returns True when accepted; on shed the request's status is set
        so the caller's handle resolves immediately.
        """
        if len(self._queue) >= self.policy.max_queue:
            request.status = "shed"
            return False
        self._queue.append(request)
        return True

    def ready(self, now: float, idle: bool = False) -> bool:
        """Is a batch dispatchable at time ``now``?

        ``idle`` is the caller's report that it has capacity with nothing
        to do; with it, any queued request is dispatchable at once.
        """
        if not self._queue:
            return False
        if idle or len(self._queue) >= self.policy.max_batch_size:
            return True
        # Written as a sum so a timer set for enqueue_time + max_wait_s
        # finds the batch ready when it fires, to the last bit.
        return now >= self._queue[0].enqueue_time + self.policy.max_wait_s

    def take(self, now: float) -> Tuple[List[Request], List[Request]]:
        """Pop up to ``max_batch_size`` live requests; expire stale ones.

        Returns ``(batch, expired)``.  Expired requests (queued longer
        than their ``deadline_s``, or the policy's ``timeout_s``) are
        marked ``timed_out`` and excluded — a request that already waited
        past its deadline must not consume batch slots computing an
        answer nobody is waiting for.
        """
        batch: List[Request] = []
        expired: List[Request] = []
        timeout = self.policy.timeout_s
        while self._queue and len(batch) < self.policy.max_batch_size:
            req = self._queue.popleft()
            limit = timeout if req.deadline_s is None else req.deadline_s
            if limit is not None and now - req.enqueue_time > limit:
                req.status = "timed_out"
                req.complete_time = now
                expired.append(req)
            else:
                batch.append(req)
        return batch, expired
