"""One seeded fault schedule for every fault-tolerant path in the library.

A :class:`FaultSchedule` is a frozen declaration: a seed, one rate per
fault kind, and explicit entries.  Every consumer asks it one question,
``draw(site, *key)``: which fault, if any, hits this unit of work?  The
answer is a pure function of ``(seed, site, key)``: one keyed uniform,
partitioned over the site's kinds.  So the same trial attempt, training
step, checkpoint write or dispatch meets the same fault however the event
loop interleaved the questions, a killed-and-resumed run replays its own
fault history exactly, and a schedule passed to two runs gives both the
same faults.  Each run counts what it met in its own report
(:func:`record`).

=========  =============================  ==============================
site       key                            kinds (partition order)
=========  =============================  ==============================
trial      (trial, attempt)               crash, nan, straggler
step       (incarnation, global step)     crash
grad       (global step,)                 nan
write      (write index,)                 storage
dispatch   (first request id, replica)    kill/hang/slow replica
consumer   (job id, attempt)              claim, ack (explicit entries)
=========  =============================  ==============================
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..obs.context import get_recorder

CRASH = "crash"          # node dies mid-work; the work is lost and retried
STRAGGLER = "straggler"  # the work completes, `straggler_factor` times slower
NAN = "nan"              # corrupted gradient / NaN objective value
STORAGE = "storage"      # a checkpoint write fails (the old one survives)
WORKER_LOSS = "worker_loss"  # a worker leaves the pool permanently (scheduled by time)
KILL_REPLICA = "kill_replica"          # replica process dies abruptly
HANG_REPLICA = "hang_replica"          # replica wedges and stops answering
SLOW_REPLICA = "slow_replica"          # replica answers, but late
KILL_AFTER_CLAIM = "claim"  # consumer dies right after claiming, before evaluating
KILL_BEFORE_ACK = "ack"     # consumer dies after evaluating, before acking

SERVING_FAULT_KINDS = (KILL_REPLICA, HANG_REPLICA, SLOW_REPLICA)
FAULT_KINDS = (CRASH, STRAGGLER, NAN, STORAGE, WORKER_LOSS) + SERVING_FAULT_KINDS

#: site -> (context tag of its keyed stream, kinds in partition order).
#: A tag is never reused across sites; ``consumer`` has no stream: its
#: faults are explicit entries only.
SITES: Dict[str, Tuple[Optional[int], Tuple[str, ...]]] = {
    "trial": (1, (CRASH, NAN, STRAGGLER)),
    "step": (2, (CRASH,)),
    "write": (3, (STORAGE,)),
    "grad": (4, (NAN,)),
    "dispatch": (6, SERVING_FAULT_KINDS),
    "consumer": (None, (KILL_AFTER_CLAIM, KILL_BEFORE_ACK)),
}


@dataclass(frozen=True)
class FaultSchedule:
    """The one seeded fault schedule; ask it with :meth:`draw`.

    Rates are per unit of work of each site that draws the kind: a
    ``crash`` rate applies to every trial attempt and every training
    step.  ``entries`` maps ``(site, *key)`` to a kind of that site and
    overrides the draw there: ``{("step", 0, 25): CRASH}`` kills the first
    incarnation before step 25 (its restart replays step 25 unharmed),
    ``{("consumer", 3, 1): "ack"}`` kills the consumer of job 3's first
    attempt before it acks.  ``worker_loss_times`` are simulated times at
    which a worker leaves the search pool for good."""

    seed: int = 0
    crash: float = 0.0
    straggler: float = 0.0
    nan: float = 0.0
    storage: float = 0.0
    kill_replica: float = 0.0
    hang_replica: float = 0.0
    slow_replica: float = 0.0
    straggler_factor: float = 4.0
    worker_loss_times: Tuple[float, ...] = ()
    entries: Mapping[tuple, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for site, (ctx, kinds) in SITES.items():
            if ctx is None:
                continue
            rates = [getattr(self, kind) for kind in kinds]
            if any(not 0.0 <= r < 1.0 for r in rates):
                raise ValueError(f"{site} fault rates must each be in [0, 1), got {rates}")
            if sum(rates) >= 1.0:
                raise ValueError(f"{site} fault rates must sum to < 1, got {rates}")
        if self.straggler_factor < 1.0:
            raise ValueError("straggler_factor must be >= 1")
        if any(t < 0 for t in self.worker_loss_times):
            raise ValueError("worker_loss_times must be non-negative")
        for key, kind in self.entries.items():
            site, ids = key[0], key[1:]
            if site not in SITES or kind not in SITES[site][1]:
                raise ValueError(f"{kind!r} is not a fault of site {site!r} (entry {key})")
            if any(not isinstance(i, (int, np.integer)) or i < 0 for i in ids):
                raise ValueError(f"entry {key}: a unit of work is non-negative integers")
        object.__setattr__(self, "entries", dict(self.entries))

    def draw(self, site: str, *key: int) -> Optional[str]:
        """The fault kind (or None) for unit of work ``key`` at ``site``."""
        kind = self.entries.get((site, *key))
        if kind is not None:
            return kind
        ctx, kinds = SITES[site]
        rates = [getattr(self, k) for k in kinds] if ctx is not None else ()
        if not any(rates):
            return None
        seed = [self.seed & 0xFFFFFFFF] + [int(k) & 0xFFFFFFFF for k in (ctx, *key)]
        u = float(np.random.default_rng(seed).random())
        edge = 0.0
        for kind, rate in zip(kinds, rates):
            edge += rate
            if u < edge:
                return kind
        return None


def record(kind: str, counts: Optional[Counter] = None) -> None:
    """Count one fault a run met in that run's own tally, and put it on
    the shared obs timeline as a ``fault`` event and a ``faults.<kind>``
    counter."""
    if counts is not None:
        counts[kind] += 1
    rec = get_recorder()
    if rec is not None:
        rec.event(f"fault.{kind}", kind="fault", fault=kind, n=1)
        rec.metrics.counter(f"faults.{kind}").inc(1)
