"""Shared harness: spans, robust statistics, environment capture, leak audit.

Everything here belongs to the benchmark, not to the program under test:
the program is only ever timed from outside, through its public calls.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import platform
import resource
import time
from multiprocessing import resource_tracker
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.parallel import DEFAULT_WORKER_ENV

REPO = Path(__file__).resolve().parent.parent
#: Every multi-process layer runs this many workers/ranks/replicas: the
#: box has two cores, and a third busy process would measure the kernel's
#: scheduler instead of the program.
WORLD = 2

clock = time.perf_counter
PROBE_SPAN = "bench.probe"


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans (name, start, end, parent) for one traced run.

    Spans nest through an explicit stack; ``add`` records an interval that
    was measured elsewhere (another thread, a worker process) under the
    span open at that moment.  Nothing is written until :meth:`write`.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[list] = []  # [name, parent, start, end]
        self._stack: List[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def add(self, name: str, start: float, end: float, root: bool = False) -> None:
        """``root=True`` for an interval from another thread, which is no
        part of whatever the main thread has open."""
        parent = -1 if root or not self._stack else self._stack[-1]
        self.spans.append([name, parent, start, end])

    def durations(self, name: str) -> np.ndarray:
        return np.array([s[3] - s[2] for s in self.spans if s[0] == name])

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name: duration minus child spans."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = {}
        for i, (name, parent, start, end) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def coverage(self, root: str) -> float:
        """Share of the ``root`` spans' wall time that sits inside a child
        span, i.e. is attributed to a named layer instead of the driver.
        The benchmark's own ``bench.*`` children (speed probes, untraced
        reference sections) are taken out of both sides."""
        own = sum(s[3] - s[2] for s in self.spans
                  if s[0].startswith("bench.") and s[0] != root)
        total = float(self.durations(root).sum()) - own
        if total <= 0:
            return 0.0
        return 1.0 - self.self_times().get(root, 0.0) / total

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({
                    "workload": self.workload, "id": i, "parent": parent,
                    "name": name, "start": start, "end": end,
                }) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        t = self.tracer
        self.idx = len(t.spans)
        t.spans.append([self.name, t._stack[-1] if t._stack else -1, clock(), 0.0])
        t._stack.append(self.idx)
        return self

    def __exit__(self, *exc) -> None:
        t = self.tracer
        t.spans[self.idx][3] = clock()
        t._stack.pop()


class NullTracer:
    """Stand-in used outside the hot loops of an untraced run, so set-up
    code is written once; hot loops branch on ``ctx.traced`` instead."""

    class _Null:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

    _NULL = _Null()

    def span(self, name: str):
        return self._NULL

    def add(self, name: str, start: float, end: float, root: bool = False) -> None:
        return None


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Iterable[float]) -> float:
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("median of no samples")
    return float(np.median(arr))


def percentile(values: Sequence[float], q: float) -> float:
    """Exact percentile of the raw samples (linear interpolation)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("percentile of no samples")
    return float(np.percentile(arr, q))


def segment_stat(values: Sequence[float], n_segments: int, q: float,
                 across: float = 50.0) -> float:
    """The ``across``-th percentile over ``n_segments`` equal consecutive
    slices of the slice's ``q``-th percentile.

    A burst of interference from the host lands in a few slices and moves
    their percentile, but not the median over slices; a change in the
    program moves every slice.  Interference only ever adds latency, so in
    a phase where the host is busy most of the time the quieter slices
    still read the program's own tail: ``across=25`` takes those.
    """
    arr = np.asarray(values, dtype=np.float64)
    n_segments = max(1, min(n_segments, arr.size // 100 or 1))
    parts = np.array_split(arr, n_segments)
    return float(np.percentile([np.percentile(p, q) for p in parts], across))


# ----------------------------------------------------------------------
# Workload context and outcome
# ----------------------------------------------------------------------
@dataclass
class Context:
    seed: int
    seconds: float
    traced: bool
    scratch: Path
    tracer: object  # Tracer when traced, else NullTracer

    @property
    def plain_seconds(self) -> float:
        """Length of the section timed without spans.  A traced run keeps
        a short one as the reference its tracing overhead is taken from."""
        return self.seconds * (0.4 if self.traced else 1.0)

    @property
    def traced_seconds(self) -> float:
        return self.seconds * 0.6


@dataclass
class Segment:
    """One equal slice of a timed section."""

    ops: float                     # operations the slice completed
    seconds: float                 # its wall time
    latencies: np.ndarray          # seconds per operation timed in it
    speed: float = 1.0             # machine speed probed around it
    within: Optional[int] = None   # operations inside the limit, if not
    sent: Optional[int] = None     # ... derivable from ``latencies``


@dataclass
class Outcome:
    """What one workload run measured."""

    setups: List[Tuple[float, float]]   # seconds and speed of each set-up
    segments: List[Segment]
    limit_ms: float                     # an operation slower than this misses
    attempted: int
    failed: int
    checks: Dict[str, bool] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)
    normalise: bool = True              # report times at reference machine speed


def summarize(outcome: Outcome, normalise: bool) -> Dict[str, float]:
    """End-to-end numbers of one run.

    Throughput is the median over segments; latency percentiles are taken
    over the pooled per-operation samples (the high one as the lower
    quartile of twenty consecutive slices, see :func:`segment_stat`: under
    emulated busy siblings the median of ten slices moved by up to 67%,
    this by at most 6%); set-up time is the
    median over the set-ups performed.  With ``normalise`` every duration
    is first rescaled by the machine speed probed around it, so a host
    that runs at 60% for a second does not read as a regression; the
    limit is always applied to the raw wall time.
    """
    def f(speed: float) -> float:
        return speed if normalise else 1.0

    segments = outcome.segments
    pooled = np.concatenate([s.latencies * f(s.speed) for s in segments if len(s.latencies)])
    limit_s = outcome.limit_ms / 1e3
    within = sum(int((s.latencies <= limit_s).sum()) if s.within is None else s.within
                 for s in segments)
    sent = sum(len(s.latencies) if s.sent is None else s.sent for s in segments)
    return {
        "setup_s": median(t * f(speed) for t, speed in outcome.setups),
        "ops_per_s": median(s.ops / s.seconds / f(s.speed) for s in segments),
        "latency_p50_ms": median(pooled) * 1e3,
        "latency_p95_ms": segment_stat(pooled, 20, 95, across=25) * 1e3,
        "slo_attained_share": within / sent,
    }


def trace_overhead(plain: Sequence[Segment], traced: Sequence[Segment]) -> float:
    """Share of throughput lost under spans, each side at its own probed
    machine speed so that drift between the two sections cancels."""
    def rate(segments: Sequence[Segment]) -> float:
        return median(s.ops / s.seconds / s.speed for s in segments)

    return 1.0 - rate(traced) / rate(plain)


class SpeedProbe:
    """Machine-speed probe interleaved with the timed segments.

    The sandbox shares its cores with other tenants: for a tenth of a
    second to a few seconds at a time a busy sibling takes a third or more
    of a core.  ``tick`` runs two fixed units of work for ~12 ms each and
    returns the machine's speed relative to :data:`REFERENCE`, averaged
    with the previous tick — i.e. the speed around whatever ran between
    the two.  The units differ in what a busy sibling costs them:
    ``kernel`` is vectorised (GEMM + tanh on 32x200 blocks) and loses
    about 30%, ``interp`` is interpreter-bound (chains of 1x64 products)
    and loses about 45%.  The workloads sit between the two, and over
    three sets of ten seeds the geometric mean of both was never far from
    the better of them on any workload, so that is the speed.
    """

    #: Units per second on the box the bounds were frozen on, at rest.
    REFERENCE = {"kernel": 3400.0, "interp": 35000.0}

    def __init__(self, tracer, burst_s: float = 0.012) -> None:
        self._tracer = tracer
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((32, 200))
        self._b = rng.standard_normal((200, 200))
        self._x = rng.standard_normal((1, 64))
        self._w = rng.standard_normal((64, 64))
        self.burst_s = burst_s
        self._last: Optional[float] = None

    def _kernel(self) -> None:
        x = self._a
        for _ in range(4):
            x = np.tanh(x @ self._b)

    def _interp(self) -> None:
        x = self._x
        for _ in range(10):
            x = np.maximum(x @ self._w, 0.0)
            x = x * 0.01

    def _burst(self, unit: Callable[[], None]) -> float:
        t0 = clock()
        n = 0
        while clock() - t0 < self.burst_s:
            unit()
            n += 1
        return n / (clock() - t0)

    def tick(self) -> float:
        with self._tracer.span(PROBE_SPAN):
            kernel = self._burst(self._kernel) / self.REFERENCE["kernel"]
            interp = self._burst(self._interp) / self.REFERENCE["interp"]
        now = (kernel * interp) ** 0.5
        last = now if self._last is None else self._last
        self._last = now
        return 0.5 * (now + last)


def timed_setups(probe: SpeedProbe, n: int, make: Callable[[int], object],
                 dispose: Optional[Callable[[object], None]] = None):
    """Perform the set-up ``n`` times, probing the machine speed around
    each; returns the last result and the (seconds, speed) of every one."""
    probe.tick()
    setups: List[Tuple[float, float]] = []
    result = None
    for i in range(n):
        if dispose is not None and result is not None:
            dispose(result)
        t0 = clock()
        result = make(i)
        seconds = clock() - t0
        setups.append((seconds, probe.tick()))
    return result, setups


def timed_blocks(ctx: Context, tick: Callable[[], float],
                 one_block: Callable[[int, bool], Segment], root: str):
    """Run ``one_block(index, traced)`` back to back for the untraced
    window and then, on a traced run, under the span ``root`` for the
    traced one, probing the machine speed (``tick``) after every block.
    Returns the segments and the index of the first traced one."""
    segments: List[Segment] = []

    def loop(seconds: float, traced: bool) -> None:
        t_end = clock() + seconds
        while clock() < t_end:
            segment = one_block(len(segments), traced)
            segment.speed = tick()
            segments.append(segment)

    loop(ctx.plain_seconds, False)
    first_traced = len(segments)
    if ctx.traced:
        with ctx.tracer.span(root):
            loop(ctx.traced_seconds, True)
    return segments, first_traced


# ----------------------------------------------------------------------
# Environment and hygiene
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for
    child, in MiB (``ru_maxrss`` is KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def environment(seed: int) -> Dict[str, object]:
    commit = "unknown"
    head = REPO / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = REPO / ".git" / ref[5:]
            commit = target.read_text().strip() if target.exists() else ref[5:]
        else:
            commit = ref
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "blas_pins": {k: os.environ.get(k) for k in DEFAULT_WORKER_ENV},
        "start_method": mp.get_start_method(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": commit,
    }


def _shm_names() -> set:
    """Shared-memory segments of the program (its stores prefix ``repro``)."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("repro")}
    except OSError:
        return set()


def _child_pids() -> set:
    me = os.getpid()
    out = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # "pid (comm) state ppid ..." — comm may hold spaces and parens.
        fields = stat[stat.rfind(")") + 2:].split()
        if int(fields[1]) == me and fields[0] != "Z":
            out.add(int(entry))
    # The interpreter's own shared-memory resource tracker lives until exit.
    out.discard(getattr(resource_tracker._resource_tracker, "_pid", None))
    return out


def adopt_orphans() -> None:
    """Make this process the reaper of its descendants (Linux
    ``PR_SET_CHILD_SUBREAPER``): a worker's own child that outlives the
    worker becomes ours to stop and wait for, not init's."""
    try:
        import ctypes
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def stop_children() -> None:
    """Stop and wait for every process this interpreter started.

    The interpreter's shared-memory resource tracker otherwise outlives
    it: it only notices the closed pipe after its parent is gone, and is
    then nobody's child to wait for.  Anything else still alive here was
    leaked by the run (the audit has already counted it) and is killed.
    """
    try:
        resource_tracker._resource_tracker._stop()
    except (OSError, ChildProcessError):
        pass
    while True:
        for pid in _child_pids():
            try:
                os.kill(pid, 9)
            except OSError:
                pass
        try:
            os.waitpid(-1, 0)  # zombies included
        except ChildProcessError:
            return


class LeakAudit:
    """Snapshot at start; at the end report the shared-memory segments
    and child processes this run created and left behind."""

    def __init__(self) -> None:
        self.shm0 = _shm_names()
        self.kids0 = _child_pids()

    def leaks(self) -> Dict[str, List]:
        deadline = clock() + 2.0
        while True:
            shm = sorted(_shm_names() - self.shm0)
            kids = sorted(_child_pids() - self.kids0)
            if not (shm or kids) or clock() > deadline:
                return {"shm": shm, "children": kids}
            time.sleep(0.05)
