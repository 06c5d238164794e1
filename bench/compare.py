"""Compare two sets of benchmark runs.

    python3 bench/compare.py A.jsonl B.jsonl

Each file holds the records ``bench/run.py --out`` appended, any number of
runs per workload.  For every workload and end-to-end metric this prints
both medians, the ratio B/A, each side's spread (interquartile distance
over median), the bound from ``BENCHMARK.json`` and a verdict:

* ``worse``       B's median is worse than A's by more than the bound;
* ``unresolved``  not worse, but a side's spread is wider than the bound,
                  so the runs cannot show that nothing changed;
* ``ok``          otherwise.

Exits non-zero on any ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values, from the untraced records of a file."""
    out: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("trace"):
            continue
        for name, metric in record["metrics"].items():
            out[record["workload"]][name].append(float(metric["value"]))
    return out


def spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    base, new = statistics.median(a), statistics.median(b)
    change = (new - base) / abs(base)
    worse_by = -change if better == "higher" else change
    if worse_by > bound:
        return "worse"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    return "ok"


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = load(argv[1]), load(argv[2])
    status = 0
    print(f"{'workload':<15} {'metric':<20} {'A median':>12} {'B median':>12} "
          f"{'B/A':>7} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict  (n)")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va, vb = a[workload][name], b[workload][name]
            if not va or not vb:
                continue
            v = verdict(va, vb, metric["better"], metric["bound"])
            status |= v == "worse"
            ma, mb = statistics.median(va), statistics.median(vb)
            print(f"{workload:<15} {name:<20} {ma:>12.5g} {mb:>12.5g} {mb / ma:>7.3f} "
                  f"{spread(va):>9.3f} {spread(vb):>9.3f} {metric['bound']:>6.2f}  "
                  f"{v:<10} ({len(va)}/{len(vb)}, {metric['unit']}, {metric['better']} is better)")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
