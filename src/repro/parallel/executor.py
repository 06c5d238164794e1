"""Real-process trial execution backend for the HPO scheduler.

``run_parallel(..., executor=ParallelTrialExecutor(n_workers=4))`` runs
search trials on real cores instead of the simulated clock: the
executor owns a persistent :class:`~repro.parallel.pool.ProcessWorkerPool`,
publishes the training data once through the shared-memory plane, and
ships only ``(trial_id, config, budget)`` per trial — the objective
callable crosses the process boundary once, at pool startup.

Objectives read their dataset through :func:`worker_data`, which
resolves to zero-copy shared-memory views inside workers and to the
original arrays in the parent (so the *same* objective function runs
serially for parity checks).  Extra non-array context (scalars the
bench wants to vary without re-importing modules) rides along in
``data`` too — anything that is not an ndarray is pickled once into the
worker initializer instead of the shm plane.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

import numpy as np

from .pool import ProcessWorkerPool, TaskResult
from .shm import SharedArrayStore

# Worker-global objective + dataset, installed once per worker by the
# pool initializer (and in the parent by Executor.start, so the same
# objective code path works serially).
_OBJECTIVE: Optional[Callable] = None
_DATA: Dict[str, Any] = {}


def worker_data() -> Dict[str, Any]:
    """The dataset/context dict bound by the active executor.

    Inside a worker the array values are zero-copy shared-memory views;
    in the parent they are the arrays passed to the executor.
    """
    return _DATA


def bind_worker_data(data: Dict[str, Any]) -> None:
    """Bind ``data`` in this process (serial baselines, tests)."""
    global _DATA
    _DATA = dict(data)


def _init_worker(arrays, objective, extra) -> None:
    global _OBJECTIVE, _DATA
    _OBJECTIVE = objective
    _DATA = {**extra, **arrays}


def _run_trial(payload) -> float:
    config, budget = payload
    return float(_OBJECTIVE(config, budget))


class ParallelTrialExecutor:
    """Evaluates HPO trials on a pool of real worker processes.

    Parameters
    ----------
    n_workers:
        Pool width; must match the ``n_workers`` given to
        ``run_parallel`` (the scheduler cross-checks).
    data:
        Optional dict the objective reads via :func:`worker_data`.
        ndarray values are published to shared memory once and attached
        zero-copy per worker; everything else is pickled once into the
        worker initializer.
    start_method / env:
        Forwarded to :class:`ProcessWorkerPool`; env defaults to the
        BLAS single-thread pins.
    """

    def __init__(
        self,
        n_workers: int,
        data: Optional[Dict[str, Any]] = None,
        start_method: Optional[str] = None,
        env: Optional[Dict[str, str]] = None,
        timeout_s: float = 300.0,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self.timeout_s = timeout_s
        self._data = data or {}
        self._start_method = start_method
        self._env = env
        self._pool: Optional[ProcessWorkerPool] = None

    # -- lifecycle -------------------------------------------------------
    def start(self, objective: Callable) -> "ParallelTrialExecutor":
        """Spin up the worker pool over the published data plane."""
        if self._pool is not None:
            raise RuntimeError("executor already started")
        arrays = {k: v for k, v in self._data.items() if isinstance(v, np.ndarray)}
        extra = {k: v for k, v in self._data.items() if k not in arrays}
        # Parent-side bind: the identical objective code runs serially.
        bind_worker_data(self._data)
        self._pool = ProcessWorkerPool(
            _run_trial,
            self.n_workers,
            initializer=_init_worker,
            initargs=(objective, extra),
            start_method=self._start_method,
            env=self._env,
            shared=SharedArrayStore("repro_hpo", arrays),
        )
        return self

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "ParallelTrialExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- trial protocol --------------------------------------------------
    @property
    def outstanding(self) -> int:
        return 0 if self._pool is None else self._pool.outstanding

    @property
    def respawns(self) -> int:
        return 0 if self._pool is None else self._pool.respawns

    def submit(self, config, budget: int) -> int:
        """Dispatch one trial; returns the task id."""
        if self._pool is None:
            raise RuntimeError("executor not started")
        return self._pool.submit((config, budget))

    def next_result(self) -> TaskResult:
        """Next finished trial (unordered): ``status`` "ok" carries the
        objective value, "err"/"died" mean the attempt crashed."""
        if self._pool is None:
            raise RuntimeError("executor not started")
        return self._pool.next_result(timeout=self.timeout_s)
