"""The trace recorder: nestable spans on dual clocks.

A :class:`TraceRecorder` collects *spans* (named intervals with
key-value attributes, nested via an explicit open stack) and *events*
(instants), each stamped on two clocks:

* **wall** — real seconds since the recorder was created
  (``time.perf_counter`` based, so durations are meaningful even though
  the epoch is arbitrary);
* **sim** — the discrete-event simulation clock, when one is attached
  (``recorder.sim_clock = lambda: loop.now``).  The HPO scheduler wires
  this up for the duration of a search so trial spans carry both the
  real compute time and the simulated campaign time.

The open/close invariant is enforced: ``end`` must close the innermost
open span, and a recorder that exits its ``with`` block cleanly with
spans still open raises.  Exceptional exits instead close the leftover
spans marked ``aborted`` — a crashed run still exports a balanced trace.

Entering the recorder as a context manager installs it as the process's
active recorder (:mod:`repro.obs.context`); every hook point in the
library reads that slot.  Detached cost at each hook site is one module
global read; attached cost is two clock reads and two dict operations
per span — gated below 5% on the MLP train step by
``benchmarks/bench_obs_overhead.py``.

A recorder built with ``ops=True`` also times every op the engine runs
(:meth:`TraceRecorder.time_op`): one ``op.<name>`` histogram per op name
in :attr:`TraceRecorder.metrics`, and no record per call, so a trace's
size does not grow with its op count.  It is off by default: a traced
run does not pay for op timing unless it asks.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

from . import context
from .metrics import MetricsRegistry

#: Bumped whenever the exported record shapes change; the JSONL header
#: carries it and the validator refuses versions it does not know.
TRACE_SCHEMA_VERSION = 1


class TraceError(RuntimeError):
    """A span-stack invariant was violated (unbalanced open/close)."""


class TraceRecorder:
    """Collects spans, events, and metrics for one observed execution."""

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        sim_clock: Optional[Callable[[], float]] = None,
        ops: bool = False,
    ) -> None:
        self._clock = clock or time.perf_counter
        #: Time every op into an ``op.<name>`` histogram (:meth:`time_op`).
        self.ops = ops
        #: Optional 0-arg callable returning the current simulated time.
        #: Mutable on purpose: subsystems that own a sim clock (the HPO
        #: scheduler's EventLoop) attach it for their scope and restore
        #: the previous value after.
        self.sim_clock = sim_clock
        self.metrics = MetricsRegistry()
        self.records: List[Dict] = []   # closed spans + events, close order
        self._stack: List[Dict] = []    # open spans, innermost last
        self._next_id = 1
        self._t0 = self._clock()
        self._prev_recorder: Optional[Any] = None
        self._entered = False

    # -- clocks ----------------------------------------------------------
    def now(self) -> float:
        """Wall seconds since the recorder was created."""
        return self._clock() - self._t0

    def sim_now(self) -> Optional[float]:
        sc = self.sim_clock
        return float(sc()) if sc is not None else None

    # -- spans -----------------------------------------------------------
    def begin(self, name: str, kind: str = "span", **attrs: Any) -> int:
        """Open a span nested under the innermost open span; returns its id."""
        span_id = self._next_id
        self._next_id += 1
        self._stack.append({
            "type": "span",
            "id": span_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "kind": kind,
            "t_wall": self.now(),
            "t_sim": self.sim_now(),
            "attrs": attrs,
        })
        return span_id

    def end(self, span_id: int, _unwind: bool = False, **attrs: Any) -> Dict:
        """Close the innermost open span (which must be ``span_id``).

        ``_unwind=True`` is the exception path used by :meth:`span`: an
        exception that escaped explicit ``begin``/``end`` hook sites
        leaves their spans open, so the enclosing ``with`` span closes
        them too (marked ``aborted``) instead of raising a
        :class:`TraceError` that would mask the original exception.
        """
        if not self._stack:
            raise TraceError(f"end(span {span_id}) with no open span")
        span = self._stack[-1]
        if span["id"] != span_id:
            if _unwind and any(s["id"] == span_id for s in self._stack):
                while self._stack[-1]["id"] != span_id:
                    self._close(self._stack.pop(), aborted=True)
                span = self._stack[-1]
            else:
                raise TraceError(
                    f"unbalanced span close: innermost open span is "
                    f"{span['name']!r} (id {span['id']}), got end({span_id})"
                )
        self._stack.pop()
        return self._close(span, **attrs)

    def _close(self, span: Dict, **attrs: Any) -> Dict:
        span["dur_wall"] = self.now() - span["t_wall"]
        sim = self.sim_now()
        span["dur_sim"] = (
            sim - span["t_sim"] if sim is not None and span["t_sim"] is not None else None
        )
        if attrs:
            span["attrs"].update(attrs)
        self.records.append(span)
        return span

    @contextmanager
    def span(self, name: str, kind: str = "span", **attrs: Any) -> Iterator[Dict]:
        """``with rec.span("search", kind="campaign.search"): ...``

        Yields the open span dict so the body can add attributes
        (``span["attrs"]["trials"] = n``) before it closes.
        """
        span_id = self.begin(name, kind=kind, **attrs)
        span = self._stack[-1]
        aborted = False
        try:
            yield span
        except BaseException:
            aborted = True
            span["attrs"]["aborted"] = True
            raise
        finally:
            self.end(span_id, _unwind=aborted)

    def add_complete(
        self,
        name: str,
        kind: str = "span",
        *,
        dur_wall: float,
        t_wall: Optional[float] = None,
        t_sim: Optional[float] = None,
        dur_sim: Optional[float] = None,
        **attrs: Any,
    ) -> Dict:
        """Record an already-measured span (begin and end in one call).

        For a caller that timed the interval itself.  The span nests
        under the innermost currently-open span.  ``t_wall`` defaults to
        "it just ended": now minus its duration.
        """
        span_id = self._next_id
        self._next_id += 1
        span = {
            "type": "span",
            "id": span_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "kind": kind,
            "t_wall": (self.now() - dur_wall) if t_wall is None else t_wall,
            "dur_wall": dur_wall,
            "t_sim": self.sim_now() if t_sim is None else t_sim,
            "dur_sim": dur_sim,
            "attrs": attrs,
        }
        self.records.append(span)
        return span

    def time_op(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` and observe its wall duration into
        the ``op.<name>`` histogram (count, exact sum, p50/p95/p99).  The
        op hooks call this only when :attr:`ops` is set."""
        t0 = self._clock()
        out = fn(*args, **kwargs)
        self.metrics.histogram("op." + name).observe(self._clock() - t0)
        return out

    # -- events ----------------------------------------------------------
    def event(self, name: str, kind: str = "event", **attrs: Any) -> Dict:
        """Record an instantaneous event at the current stack position."""
        event_id = self._next_id
        self._next_id += 1
        record = {
            "type": "event",
            "id": event_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "kind": kind,
            "t_wall": self.now(),
            "t_sim": self.sim_now(),
            "attrs": attrs,
        }
        self.records.append(record)
        return record

    # -- introspection ---------------------------------------------------
    @property
    def open_spans(self) -> List[str]:
        return [s["name"] for s in self._stack]

    @property
    def balanced(self) -> bool:
        return not self._stack

    def spans(self, kind: Optional[str] = None) -> List[Dict]:
        """Closed spans, optionally filtered by exact kind."""
        return [
            r for r in self.records
            if r["type"] == "span" and (kind is None or r["kind"] == kind)
        ]

    def events(self, kind: Optional[str] = None) -> List[Dict]:
        return [
            r for r in self.records
            if r["type"] == "event" and (kind is None or r["kind"] == kind)
        ]

    def __len__(self) -> int:
        return len(self.records)

    # -- installation ----------------------------------------------------
    def __enter__(self) -> "TraceRecorder":
        if self._entered:
            raise TraceError("recorder context is not reentrant")
        self._entered = True
        self._prev_recorder = context.set_recorder(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        context.set_recorder(self._prev_recorder)
        self._prev_recorder = None
        self._entered = False
        if self._stack and exc_type is None:
            names = ", ".join(self.open_spans)
            raise TraceError(f"recorder exited with open spans: {names}")
        while self._stack:  # exceptional exit: close, mark, stay balanced
            self.end(self._stack[-1]["id"], aborted=True)


@contextmanager
def maybe_span(
    recorder: Optional["TraceRecorder"], name: str, kind: str = "span", **attrs: Any
) -> Iterator[Optional[Dict]]:
    """``recorder.span(...)`` that no-ops when ``recorder`` is None.

    The idiom for hook points that wrap a whole phase::

        rec = get_recorder()
        with maybe_span(rec, "search", "campaign.search") as span:
            ...
            if span is not None:
                span["attrs"]["trials"] = len(log)
    """
    if recorder is None:
        yield None
    else:
        with recorder.span(name, kind=kind, **attrs) as span:
            yield span
