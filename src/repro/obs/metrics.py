"""Counters, gauges, and histograms for the observability layer.

The :class:`MetricsRegistry` is the numeric side of a trace: spans say
*when*, metrics say *how much*.  :class:`Histogram` is the repository's
one log-bucket histogram (the serving layer exports it as
``LatencyHistogram``); gauges and counters are deliberately minimal (a
float slot, an int slot) so hook sites can update them inside training
steps without measurable cost.

Instruments are created on first use (``registry.counter("x").inc()``)
so hook points never need registration ceremony, and a snapshot is a
list of plain JSON records ready for the trace exporter.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional

import numpy as np


class Counter:
    """Monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up; use a gauge for deltas")
        self.value += n

    def as_record(self) -> Dict:
        return {"type": "metric", "metric": "counter", "name": self.name, "value": self.value}


class Gauge:
    """Last-value instrument that also tracks min/max/count of sets."""

    __slots__ = ("name", "value", "n", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.n = 0
        self.min = float("inf")
        self.max = float("-inf")

    def set(self, value: float) -> None:
        v = float(value)
        self.value = v
        self.n += 1
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v

    def as_record(self) -> Dict:
        return {
            "type": "metric", "metric": "gauge", "name": self.name,
            "value": self.value, "n": self.n,
            "min": self.min if self.n else 0.0,
            "max": self.max if self.n else 0.0,
        }


class Histogram:
    """Log-spaced histogram with percentile estimation.

    Buckets are powers of ``2**0.25`` from ``low`` (1 microsecond) up to
    ``high`` (~1000 seconds), fixed at construction, so observing is
    allocation-free and the range covers microsecond kernel calls
    through multi-second overload stalls.  Exact min/max/sum are tracked
    alongside: the mean is exact, and a percentile is interpolated
    geometrically by rank inside its bucket (within ~19% of exact by
    construction) and never leaves ``[min, max]``.
    """

    def __init__(self, name: Optional[str] = None, low: float = 1e-6, high: float = 1e3) -> None:
        if not 0 < low < high:
            raise ValueError("need 0 < low < high")
        n = int(np.ceil(4 * np.log2(high / low))) + 1
        self.name = name
        self.edges = low * 2.0 ** (0.25 * np.arange(n + 1))
        self._edge_list = self.edges.tolist()  # observe() bisects this copy
        self.counts = np.zeros(n + 2, dtype=np.int64)  # +under/overflow
        self.n = 0
        self.sum = 0.0
        self.min = np.inf
        self.max = 0.0

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError("value must be non-negative")
        # == np.searchsorted(self.edges, value, side="right"), without the
        # array-call overhead on a scalar: this runs once per served request.
        idx = bisect_right(self._edge_list, value)
        self.counts[idx] += 1
        self.n += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def percentile(self, q: float) -> float:
        """Value at quantile ``q`` in [0, 100]."""
        if not 0 <= q <= 100:
            raise ValueError("q must be in [0, 100]")
        if self.n == 0:
            return 0.0
        target = q / 100.0 * self.n
        if target <= 0:
            return float(self.min)
        cum = np.cumsum(self.counts)
        idx = int(np.searchsorted(cum, target, side="left"))
        # The bucket's edges, narrowed to the observed range.
        lo = max(self.edges[idx - 1], self.min) if idx > 0 else self.min
        hi = min(self.edges[idx], self.max) if idx < len(self.edges) else self.max
        frac = (target - (cum[idx] - self.counts[idx])) / self.counts[idx]
        if lo <= 0:  # a zero sample: no geometric mean with 0
            return float(lo + (hi - lo) * frac)
        return float(min(hi, lo * (hi / lo) ** frac))

    @property
    def mean(self) -> float:
        return self.sum / self.n if self.n else 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.n,
            "mean_s": self.mean,
            "min_s": self.min if self.n else 0.0,
            "max_s": self.max,
            "p50_s": self.percentile(50),
            "p95_s": self.percentile(95),
            "p99_s": self.percentile(99),
        }

    def as_record(self) -> Dict:
        return {"type": "metric", "metric": "histogram", "name": self.name, **self.summary()}


class MetricsRegistry:
    """Name-keyed instrument store with create-on-first-use semantics."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            self._check_free(name, self._counters)
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            self._check_free(name, self._gauges)
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str, low: float = 1e-6, high: float = 1e3) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            self._check_free(name, self._histograms)
            h = self._histograms[name] = Histogram(name, low=low, high=high)
        return h

    def _check_free(self, name: str, own: Dict) -> None:
        for store in (self._counters, self._gauges, self._histograms):
            if store is not own and name in store:
                raise ValueError(f"metric {name!r} already registered with a different type")

    def snapshot(self) -> List[Dict]:
        """All instruments as JSON records, sorted by (type, name)."""
        records = (
            [c.as_record() for c in self._counters.values()]
            + [g.as_record() for g in self._gauges.values()]
            + [h.as_record() for h in self._histograms.values()]
        )
        return sorted(records, key=lambda r: (r["metric"], r["name"]))

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)
