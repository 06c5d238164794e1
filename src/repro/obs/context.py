"""The active-recorder slot every hook point reads.

A plain module global rather than a thread-local (the engine is
single-threaded per process; parallelism in this repo is process-level).
With no recorder attached each hook site pays one module-global read and
a ``None`` test — that is the whole "zero-cost when detached" contract,
and the obs-overhead benchmark gates the attached cost too.

The op hooks read the same slot: :func:`repro.nn.functional.apply`, the
:func:`instrument` wrappers around the ops outside the op table and
``Model._infer``'s fast-path test time an op only under a recorder built
with ``ops=True`` (:meth:`~repro.obs.trace.TraceRecorder.time_op`).

This module must stay import-light (stdlib only): it is imported by
``repro.nn.functional`` and ``repro.nn.model``, so pulling anything from
the rest of the library here would create an import cycle.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Optional

_RECORDER: Optional[Any] = None


def get_recorder() -> Optional[Any]:
    """The active :class:`~repro.obs.trace.TraceRecorder`, or None."""
    return _RECORDER


def set_recorder(recorder: Optional[Any]) -> Optional[Any]:
    """Install ``recorder`` as the active recorder; returns the previous one.

    Recorders install themselves on ``__enter__`` and restore the
    previous recorder on ``__exit__``, so ``with`` blocks nest.
    """
    global _RECORDER
    prev = _RECORDER
    _RECORDER = recorder
    return prev


def instrument(name: str, fn: Callable) -> Callable:
    """Wrap ``fn`` so an active ``ops=True`` recorder times each call as
    op ``name``.  The undecorated function stays reachable as
    ``wrapper.__wrapped__``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = _RECORDER
        if rec is None or not rec.ops:
            return fn(*args, **kwargs)
        return rec.time_op(name, fn, *args, **kwargs)

    return wrapper
