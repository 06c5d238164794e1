"""Batched inference serving.

The paper's driver workloads end in *inference campaigns* — screening
millions of compounds, serving treatment-response predictions — so
trained models need a serving layer, not just a fit loop.  This package
provides one, built from the library's own parts:

* :class:`MicroBatcher` / :class:`BatchPolicy` — work-conserving
  micro-batching (idle capacity, else max-batch-size or max-wait) with
  a bounded queue, load shedding, and per-request timeouts (the
  :mod:`repro.resilience` overload idioms applied to serving);
* :class:`InferenceServer` — the request front-end over the grad-free
  ``no_grad`` predict path, instrumented for :class:`repro.perf.OpProfiler`;
  ``InferenceServer.from_store`` / ``ReplicaGroup.from_store`` serve a
  ``name@version`` out of a :class:`repro.registry.ArtifactStore`, whose
  ``get`` is the only model loader (checksum-verified, warm-cached);
* :class:`LatencyHistogram` / :class:`ServingStats` — tail-latency and
  request-accounting observability;
* :func:`simulate_serving` — one offered-load point on the simulated
  clock: the deployed :class:`Router` on
  :class:`repro.hpc.events.EventLoop` time over a simulated replica.

The **distributed tier** scales this out to real processes and keeps it
alive under failure:

* :class:`ReplicaGroup` (:mod:`repro.serve.distributed`) — N model
  replicas on :class:`repro.parallel.ProcessWorkerPool` workers, weights
  published once through shared memory;
* :class:`Router` (:mod:`repro.serve.router`) — per-model routing,
  admission control (``max_queue`` bounds every request a model holds,
  queued or dispatched), dispatch to idle replicas at once, per-request
  deadlines, bounded retries with backoff, and per-replica circuit
  breakers;
* :class:`ReplicaSupervisor` (:mod:`repro.serve.supervisor`) —
  bit-identical canary probes, recycle-under-traffic, autoscaling hook;
* :func:`run_chaos_replay` (:mod:`repro.serve.chaos`) — a replay through
  a ``Router(faults=)`` whose schedule kills, hangs, slows or corrupts
  replicas, with accounting + parity audits.

Measured from outside by ``python3 bench/run.py --workload serve_b1``
(in-process server, batch 1) and ``--workload serve_open`` (router over
two replica processes, open-loop arrivals).
"""

from ..registry.artifact import (
    SUPPORTED_SERVING_DTYPES,
    CheckpointIntegrityError,
    UnsupportedDtypeError,
    weights_checksum,
)
from .batcher import BatchPolicy, MicroBatcher, Request
from .chaos import run_chaos_replay
from .distributed import ReplicaGroup
from .metrics import LatencyHistogram, ServingStats
from .router import CircuitBreaker, RoutedRequest, Router, RouterStats
from .server import InferenceServer
from .simulate import AffineServiceTime, poisson_arrivals, simulate_serving
from .supervisor import ReplicaSupervisor

__all__ = [
    "BatchPolicy",
    "MicroBatcher",
    "Request",
    "LatencyHistogram",
    "ServingStats",
    "CheckpointIntegrityError",
    "UnsupportedDtypeError",
    "SUPPORTED_SERVING_DTYPES",
    "weights_checksum",
    "InferenceServer",
    "AffineServiceTime",
    "simulate_serving",
    "poisson_arrivals",
    "ReplicaGroup",
    "Router",
    "RouterStats",
    "RoutedRequest",
    "CircuitBreaker",
    "ReplicaSupervisor",
    "run_chaos_replay",
]
