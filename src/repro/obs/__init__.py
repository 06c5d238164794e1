"""Unified observability: spans, metrics, and trace export for the whole
stack.

The architectural claims this repo measures (compute density, precision
trade-offs, the roofline study) are only as credible as our ability to
see where time actually goes — across a training step, an HPO trial, a
fault event, and a serving batch on *one* timeline.  This package is
that layer:

* :class:`TraceRecorder` — nestable spans with dual sim/wall clocks and
  key-value attributes (:mod:`repro.obs.trace`);
* :class:`MetricsRegistry` — counters, gauges, log-bucket histograms
  (:mod:`repro.obs.metrics`);
* :mod:`repro.obs.export` — versioned JSONL traces, validation, and
  Chrome trace-event (``chrome://tracing`` / Perfetto) conversion;
* :mod:`repro.obs.report` — per-kind time breakdown, critical path, and
  recorder-overhead estimation (the ``repro trace`` subcommand);
* :mod:`repro.obs.schema` — explicit schemas for the trace records and
  ``BENCH_obs.json``, with a dependency-free validator.

Usage — attach a recorder and everything instrumented reports to it::

    from repro.obs import TraceRecorder, write_jsonl

    rec = TraceRecorder()
    with rec:
        report = run_campaign("p1b2", space, faults=spec, ...)
    write_jsonl(rec, "trace.jsonl")       # then: python -m repro trace trace.jsonl

Hook points live in ``Model.fit`` (epoch/step spans, loss and grad-norm
gauges), :class:`repro.perf.OpProfiler` (op spans nested under step
spans), the HPO schedulers (trial lifecycle, retries, quarantine), every
reader of the fault schedule (fault events), the inference server (batch
spans, queue-depth gauge), and the campaign driver (top-level span).
Detached cost is one module-global read per hook site; attached cost is
gated below 5% on the MLP train step by
``benchmarks/bench_obs_overhead.py``.
"""

from .context import get_recorder, set_recorder
from .export import (
    read_jsonl,
    to_chrome_trace,
    trace_records,
    validate_trace,
    write_chrome_trace,
    write_jsonl,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .report import format_summary, summarize_trace
from .schema import (
    BENCH_OBS_SCHEMA,
    SchemaError,
    validate,
)
from .trace import TRACE_SCHEMA_VERSION, TraceError, TraceRecorder, maybe_span

__all__ = [
    "TraceRecorder",
    "TraceError",
    "maybe_span",
    "TRACE_SCHEMA_VERSION",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "get_recorder",
    "set_recorder",
    "trace_records",
    "write_jsonl",
    "read_jsonl",
    "validate_trace",
    "to_chrome_trace",
    "write_chrome_trace",
    "summarize_trace",
    "format_summary",
    "validate",
    "SchemaError",
    "BENCH_OBS_SCHEMA",
]
