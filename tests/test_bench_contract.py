"""The repository benchmark (``bench/``) must stay importable.

``bench/`` times the package from outside through public names only
(``from repro.parallel import ..., reduce_ranks_bucketed``, ``from
repro.hpo import ..., run_parallel``, ...).  Importing its modules here
turns a deleted or renamed public name into a tier-1 failure instead of
a failed benchmark run after the change has landed.
"""

import importlib
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_MODULES = sorted(
    f"bench.workloads.{p.stem}" for p in (REPO_ROOT / "bench" / "workloads").glob("*.py")
    if p.stem != "__init__"
)


@pytest.mark.parametrize("module", ["bench.layers", *WORKLOAD_MODULES])
def test_bench_module_imports(module, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT))
    importlib.import_module(module)
