"""Serving observability: latency histograms and request accounting.

The serving layer's health is a tail-latency story — mean latency hides
the queueing spikes that matter at high offered load — so latencies go
into the log-bucket :class:`repro.obs.metrics.Histogram` (exported here
as ``LatencyHistogram``), and :class:`ServingStats` enforces the
accounting invariant every request must satisfy:

    submitted == completed + shed + timed_out + still_queued

A violation means the server lost or double-counted a request, which is
exactly the bug class overload handling tends to breed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..obs.metrics import Histogram as LatencyHistogram


@dataclass
class ServingStats:
    """Counters + histograms for one server's lifetime."""

    submitted: int = 0
    completed: int = 0
    shed: int = 0            # rejected at submit: queue full
    timed_out: int = 0       # expired in queue before a batch picked them up
    batches: int = 0
    batch_size_sum: int = 0
    busy_time: float = 0.0   # wall time spent executing batches
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    batch_latency: LatencyHistogram = field(default_factory=LatencyHistogram)

    def record_batch(self, size: int, service_time: float) -> None:
        self.batches += 1
        self.batch_size_sum += size
        self.busy_time += service_time
        self.batch_latency.observe(service_time)

    @property
    def mean_batch_size(self) -> float:
        return self.batch_size_sum / self.batches if self.batches else 0.0

    def occupancy(self, max_batch_size: int) -> float:
        """Mean fraction of the batch budget actually filled."""
        if self.batches == 0 or max_batch_size <= 0:
            return 0.0
        return self.mean_batch_size / max_batch_size

    def accounted(self, still_queued: int = 0) -> bool:
        """True iff every submitted request has exactly one outcome."""
        return self.submitted == self.completed + self.shed + self.timed_out + still_queued

    def summary(self, elapsed: Optional[float] = None, max_batch_size: Optional[int] = None) -> Dict:
        out: Dict = {
            "submitted": self.submitted,
            "completed": self.completed,
            "shed": self.shed,
            "timed_out": self.timed_out,
            "batches": self.batches,
            "mean_batch_size": self.mean_batch_size,
            "busy_time_s": self.busy_time,
            "latency": self.latency.summary(),
        }
        if elapsed is not None and elapsed > 0:
            out["throughput_rps"] = self.completed / elapsed
            out["utilization"] = min(self.busy_time / elapsed, 1.0)
        if max_batch_size is not None:
            out["batch_occupancy"] = self.occupancy(max_batch_size)
        return out
