"""The batched inference server.

Single-threaded and caller-driven, matching the engine it fronts (the
NumPy engine is single-threaded per process; concurrency in this repo is
process-level).  ``submit`` enqueues a request and returns a handle;
``step`` dispatches one micro-batch when the policy says so; ``drain``
forces the queue empty.  A caller loop of ``submit``/``step`` is an
event loop; the simulated driver replaces the wall clock with
:class:`repro.hpc.events.EventLoop` time.

Batch execution routes through :meth:`Model.predict` on the coalesced
batch, i.e. the exact grad-free ``no_grad`` path training evaluation
uses — serving a batch of the same requests in the same order is
bit-identical to calling ``predict`` directly.

The batch execution is also registered with the perf instrumentation
hooks (op name ``serve.batch``): run the server under a
:class:`repro.perf.OpProfiler` (or pass ``profiler=``) and every batch's
wall time and output bytes land in the op table next to the kernels.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..obs.context import get_recorder
from ..perf import hooks
from ..nn.model import Model
from .batcher import BatchPolicy, MicroBatcher, Request
from .metrics import ServingStats


class InferenceServer:
    """Micro-batching front-end over one model.

    Parameters
    ----------
    model:
        Any built :class:`repro.nn.Model` (typically out of
        :meth:`repro.registry.ArtifactStore.get`, see :meth:`from_store`).
    policy:
        Batching + overload policy; defaults to :class:`BatchPolicy()`.
    clock:
        0-arg callable returning seconds; defaults to
        ``time.perf_counter``.  Pass a simulated clock for deterministic
        latency experiments (see :mod:`repro.serve.simulate`).
    profiler:
        Optional :class:`repro.perf.OpProfiler` entered around every
        batch execution, attributing the forward's per-op cost (and the
        ``serve.batch`` envelope) to the profiler.
    precision:
        Inference datapath passed to :meth:`Model.predict` on every
        batch — ``None``/"fp64" (native), ``"fp32"``, or ``"int8"``
        (requires a plan from :meth:`Model.quantize_int8`).  Validated
        eagerly so a misconfigured server fails at construction, not on
        the first request.
    """

    def __init__(
        self,
        model: Model,
        policy: Optional[BatchPolicy] = None,
        clock: Optional[Callable[[], float]] = None,
        profiler=None,
        precision: Optional[str] = None,
    ) -> None:
        if precision not in (None, "fp64", "fp32", "int8"):
            raise ValueError(
                f"unknown serving precision {precision!r}; choose None/'fp64', 'fp32' or 'int8'"
            )
        if precision == "int8" and getattr(model, "_int8_plan", None) is None:
            raise ValueError(
                "precision='int8' needs a calibrated plan; call "
                "model.quantize_int8(x_calib) before constructing the server"
            )
        self.model = model
        self.policy = policy or BatchPolicy()
        self.clock = clock or time.perf_counter
        self.profiler = profiler
        self.precision = precision
        self.batcher = MicroBatcher(self.policy)
        self.stats = ServingStats()
        self._next_id = 0

    @classmethod
    def from_store(
        cls,
        store,
        spec: str,
        policy: Optional[BatchPolicy] = None,
        **kwargs,
    ) -> "InferenceServer":
        """Serve a registry artifact: resolve ``spec`` (``"name@version"``,
        ``"name"``/``"name@latest"``, or ``"sha256:<hex>"``) against a
        :class:`repro.registry.ArtifactStore` and front the warm-cached
        model.  Unless an explicit ``precision`` is passed, the server
        runs the datapath the artifact was published for
        (:attr:`repro.registry.ArtifactRef.precision`: int8 when it
        carries quantization metadata).
        """
        ref = store.resolve(spec)
        kwargs.setdefault("precision", ref.precision)
        return cls(store.get(ref), policy=policy, **kwargs)

    # -- request ingress -------------------------------------------------
    def submit(self, x: np.ndarray, now: Optional[float] = None) -> Request:
        """Queue one sample; returns its handle (possibly already shed).

        ``x`` is a single sample (no batch axis).  A full queue sheds the
        request immediately — the handle comes back with status
        ``"shed"`` and the shed counter increments; nothing is silently
        dropped.
        """
        now = self.clock() if now is None else now
        req = Request(request_id=self._next_id, x=np.asarray(x), enqueue_time=now)
        self._next_id += 1
        self.stats.submitted += 1
        if not self.batcher.offer(req):
            self.stats.shed += 1
            rec = get_recorder()
            if rec is not None:
                rec.event("shed", kind="serve.shed", request_id=req.request_id)
        else:
            rec = get_recorder()
            if rec is not None:
                rec.metrics.gauge("serve.queue_depth").set(self.batcher.depth)
        return req

    # -- batch dispatch --------------------------------------------------

    def step(self, now: Optional[float] = None, force: bool = False) -> int:
        """Dispatch one micro-batch if the policy allows (or ``force``).

        Returns the number of requests completed by this call.
        """
        wall = now is None
        now = self.clock() if wall else now
        if not force and not self.batcher.ready(now):
            return 0
        batch, expired = self.batcher.take(now)
        self.stats.timed_out += len(expired)
        if not batch:
            return 0
        rec = get_recorder()
        if rec is not None:
            span_id = rec.begin(
                "batch", kind="serve.batch",
                batch_size=len(batch), queue_depth=self.batcher.depth,
                timed_out=len(expired),
            )
        outputs = self._execute([req.x for req in batch])
        if rec is not None:
            rec.metrics.gauge("serve.queue_depth").set(self.batcher.depth)
            rec.metrics.counter("serve.batches").inc()
            rec.end(span_id)
        # Wall-clock mode re-reads the clock so latency includes the
        # forward; a simulated caller advances its own clock instead.
        done = max(self.clock(), now) if wall else now
        for req, out in zip(batch, outputs):
            req.result = out
            req.status = "completed"
            req.complete_time = done
            self.stats.completed += 1
            self.stats.latency.observe(done - req.enqueue_time)
        return len(batch)

    def drain(self, now: Optional[float] = None) -> int:
        """Force-dispatch until the queue is empty; returns completions."""
        completed = 0
        while self.batcher.depth > 0:
            completed += self.step(now=now, force=True)
        return completed

    # -- execution -------------------------------------------------------
    def _execute(self, xs: Sequence[np.ndarray]) -> List[np.ndarray]:
        xb = np.stack(xs, axis=0) if xs else np.zeros((0,))
        t0 = time.perf_counter()
        if self.profiler is not None:
            with self.profiler:
                out = _serve_batch(self.model, xb, self.precision)
        else:
            out = _serve_batch(self.model, xb, self.precision)
        self.stats.record_batch(len(xs), time.perf_counter() - t0)
        return [out[i] for i in range(len(xs))]


def _predict_batch(model: Model, xb: np.ndarray, precision: Optional[str] = None) -> np.ndarray:
    # Routing through Model.predict keeps the serving guarantee: a served
    # batch is bit-identical to calling predict(..., precision=) directly.
    return model.predict(xb, batch_size=max(len(xb), 1), precision=precision)


# Instrumented at import time like the functional ops: any active
# OpProfiler sees one "serve.batch" record per dispatched batch.
_serve_batch = hooks.instrument("serve.batch", _predict_batch)
