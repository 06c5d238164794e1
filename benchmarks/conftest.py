"""Shared fixtures for the experiment benches.

Each ``bench_eN_*.py`` regenerates one experiment from DESIGN.md's
per-experiment index, prints its table (the paper analogue) and asserts
the claim's expected shape.  Nothing here is timed: ``bench/`` is the
repository's one measurement system.
Run: ``pytest benchmarks/ -s`` (``-s`` to see the tables).
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


def print_experiment(title: str, table: str) -> None:
    """Uniform experiment output block."""
    bar = "=" * max(len(title), 40)
    print(f"\n{bar}\n{title}\n{bar}\n{table}\n")
