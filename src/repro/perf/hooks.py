"""Instrumentation shim between the nn ops and the profiler.

:func:`repro.nn.functional.apply` checks :func:`get_sink` once per
op-table call, and the ops outside the table are wrapped with
:func:`instrument` at import time.  With no sink attached (the
overwhelmingly common case) each call pays one module-global read and a
test; attaching an :class:`~repro.perf.profiler.OpProfiler` reroutes every
op through its ``record(name, fn, args, kwargs)`` method.

This module must stay import-light (stdlib only) — it is imported *by*
``repro.nn.functional``, so pulling anything from ``repro.nn`` here would
create an import cycle.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Optional

# The active sink (an OpProfiler), or None.  A plain module global rather
# than a thread-local: the engine itself is single-threaded per process
# (parallelism in this repo is process-level, see repro.parallel).
_SINK: Optional[Any] = None


def get_sink() -> Optional[Any]:
    return _SINK


def set_sink(sink: Optional[Any]) -> Optional[Any]:
    """Install ``sink`` as the active profiler; returns the previous one."""
    global _SINK
    prev = _SINK
    _SINK = sink
    return prev


def instrument(name: str, fn: Callable) -> Callable:
    """Wrap ``fn`` so calls are forwarded to the active sink, if any.

    The undecorated function stays reachable as ``wrapper.__wrapped__``.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sink = _SINK
        if sink is None:
            return fn(*args, **kwargs)
        return sink.record(name, fn, args, kwargs)

    wrapper.__wrapped__ = fn
    return wrapper
