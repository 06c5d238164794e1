"""Design invariants, checked by walking ``src/repro`` with ``ast``.

Each rule names the DESIGN.md section it guards, and each comes with
mutant sources it must reject, so a rule that stops seeing its target
fails here instead of passing on everything.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _sources():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), path.read_text()


def _called_name(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


# -- One dispatch rule ---------------------------------------------------
# Router.pump and InferenceServer.step are the only loops that form
# batches; the serving simulator drives the Router on simulated time.
DISPATCH_OWNERS = {"serve/router.py", "serve/server.py"}
DISPATCH_SECTION = 'DESIGN.md, "Serving dispatch: one work-conserving rule"'


def dispatch_violations(rel: str, source: str):
    """Calls outside the two owners that build a ``MicroBatcher``, or
    (anywhere in ``serve/``) ask a batcher ``ready`` / ``take``."""
    if rel in DISPATCH_OWNERS:
        return []
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = _called_name(node)
        if name == "MicroBatcher" or (rel.startswith("serve/") and name in ("ready", "take")):
            found.append(f"{rel}:{node.lineno} {name}(...)")
    return found


def test_one_dispatch_rule():
    found = [v for rel, source in _sources() for v in dispatch_violations(rel, source)]
    assert found == [], f"a dispatch loop of its own (see {DISPATCH_SECTION}): {found}"


DISPATCH_MUTANTS = {
    "simulator builds its own batcher": (
        "serve/simulate.py",
        "from .batcher import MicroBatcher\n"
        "def simulate_serving(policy):\n"
        "    batcher = MicroBatcher(policy)\n",
    ),
    "qualified construction in another package": (
        "hpo/elastic.py",
        "from repro.serve import batcher\n"
        "queue = batcher.MicroBatcher(policy)\n",
    ),
    "hand loop over the router's batchers": (
        "serve/simulate.py",
        "def start_batch_if_ready(router, now):\n"
        "    for batcher in router._batchers.values():\n"
        "        while batcher.ready(now, idle=True):\n"
        "            batch, expired = batcher.take(now)\n",
    ),
}


@pytest.mark.parametrize("rel, source", DISPATCH_MUTANTS.values(), ids=list(DISPATCH_MUTANTS))
def test_one_dispatch_rule_rejects(rel, source):
    assert dispatch_violations(rel, source)
