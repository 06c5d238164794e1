"""Design invariants, checked by walking ``src/repro`` with ``ast``.

Each rule names the DESIGN.md section it guards, and each comes with
mutant sources it must reject, so a rule that stops seeing its target
fails here instead of passing on everything.
"""

import ast
import functools
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


@functools.lru_cache(maxsize=None)
def _parse(source):
    """``ast.parse``, once per distinct source (the rules only read trees)."""
    return ast.parse(source)


@functools.lru_cache(maxsize=None)
def _names(source):
    """Every identifier the code spells, with its line: defs, classes,
    names, attributes and imported names (comments and strings are not
    code)."""
    found = []
    for node in ast.walk(_parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
        elif isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            found.append((node.name.rsplit(".", 1)[-1], getattr(node, "lineno", 0)))
    return found


def _mutated(*edits):
    """The source tree with each ``rel`` of ``rel, edit, rel, edit, ...``
    replaced by ``edit(its source)`` (a new file's source is "")."""
    sources = dict(_sources())
    for rel, edit in zip(edits[::2], edits[1::2]):
        sources[rel] = edit(sources.get(rel, ""))
    return sources


# -- One op table --------------------------------------------------------
# An op-table entry in nn/functional.py carries an op's forward, backward,
# grad needs, dtype rule, cost and oracle: no second autocast copy or
# raw-array kernel beside it, one read of the autocast plan (in apply), no
# entry reading requires_grad (apply computes ctx.needs), perfmodel prices
# the table's layers through the entries' costs, not by class, every entry
# is registered, and losses.mse is the table's mse entry, not a chain of
# Tensor arithmetic.
OP_TABLE_SECTION = 'DESIGN.md, "Ops: one table"'
SECOND_KERNELS = {"_linear_act_amp", "linear_act_kernel"}
LAYER_CLASSES = {"Dense", "Conv1D", "Conv2D", "MaxPool1D", "MaxPool2D"}


def op_table_violations(sources):
    found = [
        f"{rel}:{line} {name}"
        for rel, source in sources.items()
        for name, line in _names(source)
        if name in SECOND_KERNELS
    ]
    found += [
        f"hpc/perfmodel.py:{line} {name}"
        for name, line in _names(sources["hpc/perfmodel.py"])
        if name in LAYER_CLASSES
    ]

    functional = _parse(sources["nn/functional.py"])
    reads = [
        node.lineno for node in ast.walk(functional)
        if isinstance(node, ast.Call) and _called_name(node) == "active"
        and (isinstance(node.func, ast.Name) or getattr(node.func.value, "id", "").endswith("amp"))
    ]
    if len(reads) != 1:
        found.append(f"nn/functional.py: amp.active() called at lines {reads}, not once")

    # Entries: the Op subclasses (transitively) and the names registered.
    classes = {c.name: c for c in functional.body if isinstance(c, ast.ClassDef)}
    bases = {name: {getattr(b, "id", None) for b in c.bases} for name, c in classes.items()}

    def is_op(name):
        return name == "Op" or any(is_op(b) for b in bases.get(name, ()) if b in classes)

    entries = {name for name in classes if name != "Op" and is_op(name)}
    registered = {}  # register("name", Class) calls: name -> class
    for stmt in functional.body:
        call = getattr(stmt, "value", None)
        if isinstance(stmt, ast.Expr) and isinstance(call, ast.Call) and _called_name(call) == "register":
            registered[call.args[0].value] = call.args[1].id
    inner = set().union(*(bases[name] for name in entries))
    found += [f"nn/functional.py: entry {name} is not registered"
              for name in sorted(entries - inner - set(registered.values()))]
    if "mse" not in registered:
        found.append("nn/functional.py: no mse entry")
    for name in sorted(entries):
        for node in ast.walk(classes[name]):
            if isinstance(node, ast.Attribute) and node.attr == "requires_grad":
                found.append(f"nn/functional.py:{node.lineno} entry {name} reads requires_grad")

    losses = _parse(sources["nn/losses.py"])
    mse = next(f for f in losses.body if isinstance(f, ast.FunctionDef) and f.name == "mse")
    calls = {_called_name(node) for node in ast.walk(mse) if isinstance(node, ast.Call)}
    if "apply" not in calls or "Tensor" in calls:
        found.append(f"nn/losses.py:{mse.lineno} mse is not the table's mse entry")
    return found


def test_one_op_table():
    found = op_table_violations(dict(_sources()))
    assert found == [], f"an op has a home outside its table entry (see {OP_TABLE_SECTION}): {found}"


def test_one_op_table_counts_calls_not_text():
    comment = "\n# amp.active() is read in apply; _linear_act_amp is gone\n"
    assert op_table_violations(_mutated("nn/functional.py", lambda s: s + comment)) == []


OP_TABLE_MUTANTS = {
    "a second amp.active() call": (
        "nn/functional.py",
        lambda s: s + "\ndef _peek():\n    return _amp.active()\n",
    ),
    "a _linear_act_amp kernel": (
        "nn/layers.py",
        lambda s: s + "\ndef _linear_act_amp(xd, wd, bd):\n    return xd @ wd + bd\n",
    ),
    "an entry reading requires_grad": (
        "nn/functional.py",
        lambda s: s.replace(
            "class LinearAct(Op):\n",
            "class LinearAct(Op):\n    def needs(x):\n        return x.requires_grad\n",
        ),
    ),
    "perfmodel naming Dense": (
        "hpc/perfmodel.py",
        lambda s: s + "\ndef _flops(layer):\n    return 2 if isinstance(layer, Dense) else 0\n",
    ),
    "an unregistered entry": (
        "nn/functional.py",
        lambda s: s + "\nclass Gelu(Op):\n    @staticmethod\n    def forward(ctx, xd):\n        return xd\n",
    ),
    "a chain-built mse": (
        "nn/losses.py",
        lambda s: s.replace(
            "    return F.apply(F.MeanSquaredError, (pred,), _target(pred, target))\n",
            "    diff = pred - Tensor(_target(pred, target))\n    return (diff * diff).mean()\n",
        ),
    ),
}


@pytest.mark.parametrize("edits", OP_TABLE_MUTANTS.values(), ids=list(OP_TABLE_MUTANTS))
def test_one_op_table_rejects(edits):
    assert op_table_violations(_mutated(*edits))


# -- One instrument ------------------------------------------------------
# The trace recorder is the one slot the op hooks read: apply, the
# instrument wrappers and Model._infer time an op only under a
# TraceRecorder(ops=True).  No second sink, no profiler keyword on the
# trainer or the server, and no module outside nn/ that the op code
# imports holds a global slot of its own beside obs/context.py (grad mode
# and the autocast plan are engine state in nn/, not instruments).
INSTRUMENT_SECTION = 'DESIGN.md, "Ops: one table"'
SECOND_SINK = {"get_sink", "set_sink", "OpProfiler"}
NO_PROFILER_KEYWORD = {"FitLoop", "InferenceServer"}
OP_CODE = ("nn/functional.py", "nn/model.py")


def _imported(rel, source, sources):
    """The modules of ``sources`` that ``source`` (at ``rel``) imports from."""
    package = rel.split("/")[:-1]
    for node in ast.walk(_parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level:
            parts = package[: len(package) - node.level + 1]
        elif module == "repro" or module.startswith("repro."):
            parts, module = [], module[len("repro"):].lstrip(".")
        else:
            continue
        parts = parts + (module.split(".") if module else [])
        stem = "/".join(parts)
        candidates = [f"{stem}.py", f"{stem}/__init__.py"]
        candidates += [f"{stem}/{alias.name}.py".lstrip("/") for alias in node.names]
        yield from (c for c in candidates if c in sources)


def instrument_violations(sources):
    found = [
        f"{rel}:{line} {name}"
        for rel, source in sources.items()
        for name, line in _names(source)
        if name in SECOND_SINK
    ]
    for rel, source in sources.items():
        for cls in _parse(source).body:
            if isinstance(cls, ast.ClassDef) and cls.name in NO_PROFILER_KEYWORD:
                for f in cls.body:
                    if isinstance(f, ast.FunctionDef) and f.name == "__init__":
                        args = f.args.args + f.args.kwonlyargs
                        if "profiler" in {a.arg for a in args}:
                            found.append(f"{rel}:{f.lineno} {cls.name}(profiler=)")
    for rel in OP_CODE:
        for mod in set(_imported(rel, sources[rel], sources)):
            if mod.startswith("nn/") or mod == "obs/context.py":
                continue
            for node in ast.walk(_parse(sources[mod])):
                if isinstance(node, ast.Global):
                    found.append(f"{mod}:{node.lineno} global {', '.join(node.names)} (read by {rel})")
    return found


def test_one_instrument():
    found = instrument_violations(dict(_sources()))
    assert found == [], f"a second op instrument (see {INSTRUMENT_SECTION}): {found}"


_HOOKS = '''\
_SINK = None


def get_sink():
    return _SINK


def set_sink(sink):
    global _SINK
    prev, _SINK = _SINK, sink
    return prev
'''

_PROBE = '''\
_PROBE = None


def install(probe):
    global _PROBE
    _PROBE = probe


def current_probe():
    return _PROBE
'''


INSTRUMENT_MUTANTS = {
    "a restored perf/hooks.py": ("perf/hooks.py", lambda _: _HOOKS),
    "functional.py importing a second sink getter": (
        "perf/probe.py", lambda _: _PROBE,
        "nn/functional.py", lambda s: s + "\nfrom ..perf.probe import current_probe\n",
    ),
    "a profiler keyword on InferenceServer": (
        "serve/server.py",
        lambda s: s.replace("        precision: Optional[str] = None,\n    ) -> None:",
                            "        precision: Optional[str] = None,\n        profiler=None,\n    ) -> None:"),
    ),
}


@pytest.mark.parametrize("edits", INSTRUMENT_MUTANTS.values(), ids=list(INSTRUMENT_MUTANTS))
def test_one_instrument_rejects(edits):
    assert instrument_violations(_mutated(*edits))


# -- One flag wait -------------------------------------------------------
# Every cross-rank wait of a DDP rank -- the bucket collects and the
# weight gather of the sharded optimizer step -- goes through
# BucketRankReducer.wait (parallel/allreduce.py), which carries the
# timeout_s deadline and the orphaned-parent check.  So parallel/ddp.py
# calls no sleep and compares no perf_counter() reading: not a call, and
# not a name or attribute it assigned from one.
FLAG_WAIT_SECTION = 'DESIGN.md, "Training: one fit loop"'
FLAG_WAIT_MODULE = "parallel/ddp.py"


def _reads_clock(node):
    return any(isinstance(sub, ast.Call) and _called_name(sub) == "perf_counter"
               for sub in ast.walk(node))


def _is_clock(node):
    """A ``perf_counter()`` call, or arithmetic over one (a deadline)."""
    if isinstance(node, ast.BinOp):
        return _is_clock(node.left) or _is_clock(node.right)
    return isinstance(node, ast.Call) and _called_name(node) == "perf_counter"


def _spelled(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def flag_wait_violations(source):
    tree = _parse(source)
    clocks = {
        _spelled(target)
        for node in ast.walk(tree) if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        and node.value is not None and _is_clock(node.value)
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
    } - {None}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called_name(node) == "sleep":
            found.append(f"{FLAG_WAIT_MODULE}:{node.lineno} sleep(...)")
        elif isinstance(node, ast.Compare) and (_reads_clock(node) or any(
            isinstance(sub, (ast.Name, ast.Attribute)) and _spelled(sub) in clocks
            for sub in ast.walk(node)
        )):
            found.append(f"{FLAG_WAIT_MODULE}:{node.lineno} compares a perf_counter() reading")
    return found


def test_one_flag_wait():
    found = flag_wait_violations(dict(_sources())[FLAG_WAIT_MODULE])
    assert found == [], (
        f"a cross-rank wait outside BucketRankReducer.wait (see {FLAG_WAIT_SECTION}): {found}"
    )


def test_one_flag_wait_reads_code_not_text():
    comment = '\n# time.sleep(0) and perf_counter() > deadline live in BucketRankReducer.wait\n'
    doc = '\nNOTE = "if time.perf_counter() > deadline: time.sleep(1e-4)"\n'
    assert flag_wait_violations(dict(_sources())[FLAG_WAIT_MODULE] + comment + doc) == []


FLAG_WAIT_MUTANTS = {
    "a sleep-and-deadline poll loop": (
        "\ndef _await_peers(seq, step, deadline):\n"
        "    while not all(s >= step for s in seq):\n"
        "        if time.perf_counter() > deadline:\n"
        "            raise TimeoutError('weight gather')\n"
        "        time.sleep(0.0001)\n"
    ),
    "a reversed deadline test without a sleep": (
        "\ndef _spin(flags, deadline):\n"
        "    while deadline >= time.perf_counter():\n"
        "        if flags.ready():\n"
        "            return\n"
    ),
    "names imported from time": (
        "\nfrom time import sleep\n"
        "def _nap():\n"
        "    sleep(0)\n"
    ),
    "an elapsed-time test": (
        "\ndef _late(t0, timeout_s):\n"
        "    return time.perf_counter() - t0 > timeout_s\n"
    ),
    "the clock read into a name first": (
        "\ndef _expired(deadline):\n"
        "    now = time.perf_counter()\n"
        "    return now >= deadline\n"
    ),
    "a deadline kept on the rank": (
        "\nclass _Watch:\n"
        "    def arm(self, spec):\n"
        "        self.deadline = time.perf_counter() + spec.timeout_s\n"
        "    def expired(self):\n"
        "        return self.deadline < 0\n"
    ),
}


@pytest.mark.parametrize("code", FLAG_WAIT_MUTANTS.values(), ids=list(FLAG_WAIT_MUTANTS))
def test_one_flag_wait_rejects(code):
    assert flag_wait_violations(dict(_sources())[FLAG_WAIT_MODULE] + code)
