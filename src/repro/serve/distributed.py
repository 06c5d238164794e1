"""Replicated inference: N model replicas on real worker processes.

The single-process :class:`repro.serve.InferenceServer` tops out at one
core and dies with its process; an inference *campaign* (screening
millions of compounds) needs replicas that survive worker death.  This
module provides the replica plane:

* Model weights are published **once** into shared memory, as the data
  plane of the group's :class:`repro.parallel.ProcessWorkerPool`; the
  pool attaches the segments in each replica, whose initializer rebuilds
  the architecture from :mod:`repro.candle.registry` and installs the
  weights — so N replicas cost one copy of the weights on the wire, and
  a *respawned* replica reloads from the same segments without touching
  the checkpoint file.
* Each replica is one slot of a :class:`repro.parallel.ProcessWorkerPool`
  in dedicated-queue mode: batches are addressed to a specific replica,
  a dead replica's backlog survives into its replacement (the pool
  respawns in place), and the pool's hang detector recycles replicas
  that wedge mid-batch.
* The request pool for a replay/campaign can also ride the shared-memory
  plane (``data=``): the router then ships row *indices* instead of
  request payloads, which drops per-batch IPC to a few bytes.

Scheduling policy (admission, retries, breakers) lives in
:class:`repro.serve.router.Router`; this class is mechanism only.  A
fault kind (``fault=``) is drawn by the parent at dispatch time and
executed inside the replica — see :mod:`repro.serve.chaos`.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from ..candle.registry import get_benchmark
from ..nn.model import Model
from ..obs.context import get_recorder
from ..parallel.pool import ProcessWorkerPool, TaskResult
from ..parallel.shm import SharedArrayStore
from ..resilience.faults import CORRUPT_RESPONSE, HANG_REPLICA, KILL_REPLICA, SLOW_REPLICA

SLOW_S = 0.05     # a slow replica's added latency: degraded, well under any hang timeout
HANG_S = 3600.0   # a hung replica sleeps until the pool's hang detector puts it down

# Replica-global state, installed once per worker process by the pool
# initializer (and re-installed by the initializer of every respawned
# replacement replica).
_MODEL: Optional[Model] = None
_DATA: Dict[str, np.ndarray] = {}
_WEDGED = False  # sticky corrupt-response state (chaos), cleared by respawn
_PRECISION: Optional[str] = None  # serving datapath, set by the initializer


def _init_replica(
    arrays, benchmark, input_shape, hparams, n_weights, data_keys,
    precision=None, quant_spec=None,
) -> None:
    """``arrays`` holds ``w0..w{n_weights-1}``, the request pools named
    by ``data_keys`` and, for int8 groups, the quantized plan's arrays."""
    global _MODEL, _WEDGED, _PRECISION
    _WEDGED = False
    _PRECISION = precision
    spec = get_benchmark(benchmark)
    model = spec.materialize(input_shape=tuple(input_shape), **hparams)
    if precision in ("fp32", "int8"):
        # The published segments are float32 (or int8); cast the skeleton
        # so set_weights installs them without a silent upcast.
        model.astype(np.float32)
    if n_weights:
        # read the shared segments; never write them
        model.set_weights([arrays[f"w{i}"] for i in range(n_weights)])
    _DATA.clear()
    _DATA.update((key, arrays[key]) for key in data_keys)
    if precision == "int8":
        # int8 groups ship the quantized plan, not full-precision weights:
        # one byte per weight on the shared-memory plane.
        from ..precision.int8 import Int8Plan

        model._int8_plan = Int8Plan(quant_spec, arrays)
    # Warm-up forward: allocate layer scratch off the request path, in
    # the serving dtype (a float64 warmup would prime the wrong path).
    wdtype = np.float64 if precision is None else np.float32
    model.predict(
        np.zeros((1,) + tuple(input_shape), dtype=wdtype),
        batch_size=1, precision=precision,
    )
    _MODEL = model


def _replica_task(payload: Dict[str, Any]) -> np.ndarray:
    """One inference batch inside a replica (canaries included).

    ``payload["fault"]`` carries the parent-drawn fault kind:
    ``kill_replica`` dies abruptly mid-batch, ``hang_replica`` wedges
    until the pool's hang detector fires, ``slow_replica`` adds
    :data:`SLOW_S` of latency, ``corrupt_response`` flips the replica
    into a *sticky* wrong-answers state (every later response is
    corrupted until the supervisor recycles the process).
    """
    global _WEDGED
    fault = payload.get("fault")
    if fault == KILL_REPLICA:
        os._exit(23)
    if fault == HANG_REPLICA:
        time.sleep(HANG_S)
    if fault == SLOW_REPLICA:
        time.sleep(SLOW_S)
    if fault == CORRUPT_RESPONSE:
        _WEDGED = True
    if "rows" in payload:
        xb = np.asarray(_DATA[payload.get("pool_key", "x_pool")][payload["rows"]])
    else:
        xb = payload["x"]
    out = _MODEL.predict(xb, batch_size=max(len(xb), 1), precision=_PRECISION)
    if _WEDGED:
        out = out + 1.0  # wrong bytes, right shape: only a canary notices
    return out


class ReplicaGroup:
    """N replicas of one model over a dedicated-queue worker pool.

    Parameters
    ----------
    model:
        The built source model (the parent's reference copy; its weights
        are what gets published).
    benchmark / input_shape / hparams:
        How each replica rebuilds the architecture, exactly as
        :meth:`repro.registry.ArtifactStore.publish` records them.
    n_replicas:
        Pool width — one process per replica.
    hang_timeout_s:
        Replicas holding one batch longer than this are declared hung,
        terminated, and respawned (the batch comes back ``"hung"`` for
        the router to retry elsewhere).
    data:
        Optional arrays to publish alongside the weights (e.g. the
        replay's request pool for row-addressed dispatch).
    precision:
        Serving datapath for every replica: ``None`` publishes and serves
        the model's native dtype; ``"fp32"`` publishes float32 weight
        segments (half the bytes of fp64) and serves the fp32 path;
        ``"int8"`` publishes the calibrated quantized plan — int8 weight
        segments, one byte per parameter — and serves the int8 fused
        kernels (requires :meth:`repro.nn.Model.quantize_int8` first).
    """

    def __init__(
        self,
        model: Model,
        benchmark: str,
        input_shape: Tuple[int, ...],
        hparams: Optional[Dict] = None,
        n_replicas: int = 2,
        hang_timeout_s: Optional[float] = 5.0,
        data: Optional[Dict[str, np.ndarray]] = None,
        start_method: Optional[str] = None,
        precision: Optional[str] = None,
    ) -> None:
        if n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        if precision not in (None, "fp32", "int8"):
            raise ValueError(
                f"unknown replica precision {precision!r}; choose None, 'fp32' or 'int8'"
            )
        self.model = model
        self.benchmark = benchmark
        self.input_shape = tuple(input_shape)
        self.n_replicas = n_replicas
        self.precision = precision
        quant_spec = None
        if precision == "int8":
            plan = getattr(model, "_int8_plan", None)
            if plan is None:
                raise ValueError(
                    "precision='int8' needs a calibrated plan; call "
                    "model.quantize_int8(x_calib) (or publish the checkpoint "
                    "with quantization metadata) first"
                )
            quant_spec = plan.spec()
            weights = plan.arrays()  # replicas run the plan; full weights stay home
            n_weights = 0
        else:
            # fp32 groups publish float32 segments: half the shared bytes.
            dtype = np.float32 if precision == "fp32" else None
            weights = {
                f"w{i}": np.asarray(w, dtype=dtype)
                for i, w in enumerate(model.get_weights())
            }
            n_weights = len(weights)
        pools = {key: np.asarray(arr) for key, arr in (data or {}).items()}
        clash = sorted(set(weights) & set(pools))
        if clash:
            raise ValueError(f"data keys {clash} collide with the weight segments")
        self.weight_bytes = sum(w.nbytes for w in weights.values())
        rec = get_recorder()
        self._span = None
        if rec is not None:
            self._span = rec.begin(
                "replica_group", kind="serve.replica_group",
                benchmark=benchmark, replicas=n_replicas,
                weight_bytes=self.weight_bytes,
                precision=precision or "native",
            )
        try:
            self.pool = ProcessWorkerPool(
                _replica_task,
                n_replicas,
                initializer=_init_replica,
                initargs=(
                    benchmark, self.input_shape, hparams or {}, n_weights,
                    tuple(pools), precision, quant_spec,
                ),
                start_method=start_method,
                dedicated_queues=True,
                max_task_retries=0,  # retry policy belongs to the Router
                task_timeout_s=hang_timeout_s,
                shared=SharedArrayStore("repro_serve", {**weights, **pools}),
            )
        except BaseException:
            if self._span is not None:
                rec.end(self._span, aborted=True)
            raise

    @classmethod
    def from_store(
        cls,
        store,
        spec: str,
        n_replicas: int = 2,
        data: Optional[Dict[str, np.ndarray]] = None,
        **kwargs,
    ) -> "ReplicaGroup":
        """Build a group from a registry artifact (``"name@version"`` or
        ``"name"``/``"name@latest"``) of a
        :class:`repro.registry.ArtifactStore`.

        The parent's reference model is ``store.get(spec)`` — verified
        against its checksum and its address, refused on an unservable
        dtype, warm-cached — and the replicas rebuild the architecture
        from the manifest.  Unless an explicit ``precision`` is passed,
        the group serves the datapath the artifact was published for
        (:attr:`repro.registry.ArtifactRef.precision`).
        """
        ref = store.resolve(spec)
        if ref.benchmark is None:
            raise ValueError(
                f"{ref.spec} names bytes, not a manifest: replicas rebuild the "
                "architecture from the benchmark/input_shape/hparams a "
                "name@version records"
            )
        kwargs.setdefault("precision", ref.precision)
        return cls(
            store.get(ref), ref.benchmark, ref.input_shape,
            hparams=ref.hparams, n_replicas=n_replicas, data=data, **kwargs,
        )

    # -- dispatch --------------------------------------------------------
    def submit(
        self,
        replica: int,
        x: Optional[np.ndarray] = None,
        rows: Optional[Sequence[int]] = None,
        fault: Optional[str] = None,
    ) -> int:
        """Ship one batch to ``replica``; returns the pool task id.

        Exactly one of ``x`` (stacked batch) or ``rows`` (indices into
        the published request pool) must be given; ``fault`` is a serving
        fault kind for the replica to execute.
        """
        if (x is None) == (rows is None):
            raise ValueError("pass exactly one of x or rows")
        payload: Dict[str, Any] = {} if fault is None else {"fault": fault}
        if x is not None:
            payload["x"] = np.asarray(x)
        else:
            payload["rows"] = np.asarray(rows, dtype=np.int64)
        return self.pool.submit(payload, slot=replica)

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        """Block until every replica has built its model and attached the
        shared segments (so replica startup is not billed to the first
        requests)."""
        self.pool.wait_ready(timeout_s=timeout_s)

    def poll(self, timeout: float = 0.0) -> Optional[TaskResult]:
        """One finished batch if any lands within ``timeout``, else None.

        Polling also drives the pool's failure detectors: dead replicas
        are reaped and respawned *during* this call, under traffic.
        """
        return self.pool.poll_result(timeout=timeout)

    # -- health / chaos surface -----------------------------------------
    def replica_alive(self, replica: int) -> bool:
        return self.pool.worker_alive(replica)

    def kill_replica(self, replica: int, reason: str = "killed") -> None:
        """Terminate one replica process (supervisor recycle, chaos)."""
        self.pool.terminate_worker(replica, reason=reason)

    @property
    def respawns(self) -> int:
        return self.pool.respawns

    def close(self) -> None:
        self.pool.close()
        rec = get_recorder()
        if rec is not None and self._span is not None:
            rec.end(self._span)
            self._span = None

    def __enter__(self) -> "ReplicaGroup":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
