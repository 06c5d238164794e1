"""Trace analysis: where the time went, and what watching it cost.

:func:`summarize_trace` reduces an exported record list to the three
answers the ``repro trace`` subcommand prints:

* **per-kind breakdown** — wall time by span kind, split into total
  (span durations, children included) and *self* time (durations minus
  child spans), so nested instrumentation does not double-count;
* **critical path** — the greedy heaviest-child walk from the longest
  root span down, i.e. the chain of nested spans that bounds the run;
* **overhead estimate** — the recorder's own bookkeeping cost, from the
  record count times a per-record cost, plus the ``op.*`` histograms'
  counts (timed op calls write no record) times a per-op cost, both
  calibrated on the spot (timing a scratch recorder, warm, fastest of
  several passes), as a fraction of the traced wall clock; and a per-op
  table of those histograms.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from .trace import TraceRecorder


def _calibrate(ops: bool, n: int = 2000, passes: int = 5) -> float:
    """Measured seconds a scratch recorder adds per record (a begin/end
    span pair) or, with ``ops``, per timed op call (``time_op`` on
    ``int()``, a call that does next to nothing), on this machine, now.

    One untimed warm-up pass of ``n`` calls, then the fastest of
    ``passes`` timed passes: a cold first pass reads several times slower
    than the steady state the trace was recorded in."""
    rec = TraceRecorder(ops=ops)

    def one_pass() -> float:
        t0 = time.perf_counter()
        if ops:
            for _ in range(n):
                rec.time_op("calib", int)
        else:
            for i in range(n):
                rec.end(rec.begin("calib", kind="calib", i=i))
        return time.perf_counter() - t0

    one_pass()  # warm-up: its time is dropped
    return min(one_pass() for _ in range(passes)) / n


def summarize_trace(records: List[Dict], record_cost_s: Optional[float] = None) -> Dict:
    """Aggregate a trace record list (see module docstring for fields)."""
    spans = [r for r in records if r.get("type") == "span"]
    events = [r for r in records if r.get("type") == "event"]
    metrics = [r for r in records if r.get("type") == "metric"]

    by_id = {s["id"]: s for s in spans}
    children: Dict[Optional[int], List[Dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    # Per-kind totals; self time subtracts direct children (clamped at 0:
    # separately-timed child intervals can overrun their parent by clock
    # resolution).
    kinds: Dict[str, Dict] = {}
    for s in spans:
        child_wall = sum(c["dur_wall"] for c in children.get(s["id"], ()))
        s_self = max(s["dur_wall"] - child_wall, 0.0)
        k = kinds.setdefault(
            s["kind"], {"count": 0, "total_wall_s": 0.0, "self_wall_s": 0.0}
        )
        k["count"] += 1
        k["total_wall_s"] += s["dur_wall"]
        k["self_wall_s"] += s_self
    event_kinds: Dict[str, int] = {}
    for e in events:
        event_kinds[e["kind"]] = event_kinds.get(e["kind"], 0) + 1

    # Critical path: heaviest root, then heaviest child all the way down.
    path: List[Dict] = []
    roots = children.get(None, [])
    node = max(roots, key=lambda s: s["dur_wall"], default=None)
    while node is not None:
        kids = children.get(node["id"], [])
        child_wall = sum(c["dur_wall"] for c in kids)
        path.append({
            "name": node["name"],
            "kind": node["kind"],
            "dur_wall_s": node["dur_wall"],
            "self_wall_s": max(node["dur_wall"] - child_wall, 0.0),
        })
        node = max(kids, key=lambda s: s["dur_wall"], default=None)

    if spans or events:
        stamped = spans + events
        t_lo = min(r["t_wall"] for r in stamped)
        t_hi = max(r["t_wall"] + r.get("dur_wall", 0.0) for r in stamped)
        wall_span = t_hi - t_lo
    else:
        wall_span = 0.0

    ops = {
        m["name"]: {"count": m["count"], "mean_s": m["mean_s"], "p95_s": m["p95_s"],
                    "total_s": m["count"] * m["mean_s"]}
        for m in metrics if m.get("metric") == "histogram" and m["name"].startswith("op.")
    }
    op_calls = sum(row["count"] for row in ops.values())

    cost = _calibrate(ops=False) if record_cost_s is None else record_cost_s
    op_cost = _calibrate(ops=True) if op_calls else 0.0
    # An event is one timestamp+append, roughly half a span's two.
    overhead_s = cost * (len(spans) + 0.5 * len(events)) + op_cost * op_calls
    return {
        "spans": len(spans),
        "events": len(events),
        "metrics": len(metrics),
        "wall_span_s": wall_span,
        "kinds": dict(sorted(kinds.items(), key=lambda kv: -kv[1]["total_wall_s"])),
        "event_kinds": dict(sorted(event_kinds.items())),
        "ops": dict(sorted(ops.items(), key=lambda kv: -kv[1]["total_s"])),
        "critical_path": path,
        "overhead": {
            "per_record_s": cost,
            "per_op_s": op_cost,
            "estimate_s": overhead_s,
            "estimate_frac": overhead_s / wall_span if wall_span > 0 else 0.0,
        },
    }


def format_summary(summary: Dict) -> str:
    """Human-readable rendering of :func:`summarize_trace` output."""
    lines = [
        f"trace: {summary['spans']} spans, {summary['events']} events, "
        f"{summary['metrics']} metrics over {summary['wall_span_s'] * 1e3:.2f} ms wall",
        "",
        f"{'span kind':<24} {'count':>7} {'total ms':>10} {'self ms':>10} {'self %':>7}",
    ]
    total_self = sum(k["self_wall_s"] for k in summary["kinds"].values()) or 1.0
    for kind, row in summary["kinds"].items():
        lines.append(
            f"{kind:<24} {row['count']:>7d} {row['total_wall_s'] * 1e3:>10.3f} "
            f"{row['self_wall_s'] * 1e3:>10.3f} {row['self_wall_s'] / total_self * 100:>6.1f}%"
        )
    if summary["event_kinds"]:
        lines.append("")
        lines.append("events: " + "  ".join(
            f"{kind}={n}" for kind, n in summary["event_kinds"].items()
        ))
    if summary["ops"]:
        lines.append("")
        lines.append(f"{'op':<24} {'count':>7} {'mean us':>10} {'p95 us':>10} {'total ms':>10}")
        for name, row in summary["ops"].items():
            lines.append(
                f"{name:<24} {row['count']:>7d} {row['mean_s'] * 1e6:>10.2f} "
                f"{row['p95_s'] * 1e6:>10.2f} {row['total_s'] * 1e3:>10.3f}"
            )
    if summary["critical_path"]:
        lines.append("")
        lines.append("critical path (heaviest nested chain):")
        for depth, hop in enumerate(summary["critical_path"]):
            lines.append(
                f"  {'  ' * depth}{hop['name']} [{hop['kind']}] "
                f"{hop['dur_wall_s'] * 1e3:.3f} ms "
                f"(self {hop['self_wall_s'] * 1e3:.3f} ms)"
            )
    over = summary["overhead"]
    lines.append("")
    lines.append(
        f"recorder overhead ≈ {over['estimate_s'] * 1e3:.3f} ms "
        f"({over['estimate_frac'] * 100:.2f}% of traced wall, "
        f"{over['per_record_s'] * 1e9:.0f} ns/record"
        + (f", {over['per_op_s'] * 1e9:.0f} ns/timed op)" if summary["ops"] else ")")
    )
    return "\n".join(lines)
