"""Design invariants, checked by walking ``src/repro`` with ``ast``.

Each rule names the DESIGN.md section it guards, and each comes with
mutant sources it must reject, so a rule that stops seeing its target
fails here instead of passing on everything.
"""

import ast
import functools
import re
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


@functools.lru_cache(maxsize=None)
def _strings(source):
    """Every string constant in the code (docstrings included), with its
    line: a name spelled as a lookup key is still the name."""
    return [(node.value, node.lineno) for node in ast.walk(_parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)]


def _spells(source, words):
    """``(word, line)`` for each of ``words`` the code spells: as an
    identifier, or as a whole word inside a string constant."""
    pattern = re.compile(r"\b(%s)\b" % "|".join(map(re.escape, sorted(words))))
    found = [(name, line) for name, line in _names(source) if name in words]
    found += [(m.group(1), line) for text, line in _strings(source)
              for m in pattern.finditer(text)]
    return found


def _import_targets(rel, source):
    """``(module path, line)`` for every module ``source`` (at ``rel``)
    imports, written ``a/b/c`` from ``src/repro``; an imported name is
    also tried as a submodule of its package."""
    package = rel.split("/")[:-1]
    for node in ast.walk(_parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "repro":
                    yield "/".join(parts[1:]), node.lineno
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".") if node.module else []
            if node.level:
                base = package[: len(package) - node.level + 1] + module
            elif module[:1] == ["repro"]:
                base = module[1:]
            else:
                continue
            yield "/".join(base), node.lineno
            for alias in node.names:
                yield "/".join(base + [alias.name]), node.lineno


# -- One step body -------------------------------------------------------
# FitLoop is the only forward -> backward -> step loop: DDP ranks, the
# serial DDP reference, checkpoint/restart and the distributed-SGD studies
# are drivers of it, so none of them calls .forward(), .backward() or a
# bare .step().  What a run carries per parameter is addressed by
# position: no id(p) table in the optimizers, and no snapshot code that
# knows an optimizer class by name.  Each optimizer has one update body,
# _update, run over the whole gradient vector or per parameter: no second
# update function beside it.
STEP_BODY_SECTION = 'DESIGN.md, "Training: one fit loop"'
STEP_BODY_DRIVERS = ("parallel/", "resilience/", "workflow/")
OPTIMIZER_CLASSES = {"SGD", "Adam", "RMSProp", "AdaGrad"}


def step_body_violations(sources):
    found = []
    for rel, source in sources.items():
        if not rel.startswith(STEP_BODY_DRIVERS):
            continue
        for node in ast.walk(_parse(source)):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            name = node.func.attr
            if name in ("forward", "backward") or (
                name == "step" and not node.args and not node.keywords
            ):
                found.append(f"{rel}:{node.lineno} .{name}(...)")
    optim = _parse(sources["nn/optim.py"])
    found += [f"nn/optim.py:{node.lineno} id(...)" for node in ast.walk(optim)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "id"]
    found += [f"nn/serialization.py:{line} {name}"
              for name, line in _spells(sources["nn/serialization.py"], OPTIMIZER_CLASSES)]
    for node in ast.walk(optim):
        if isinstance(node, ast.FunctionDef) and "update" in node.name and node.name != "_update":
            found.append(f"nn/optim.py:{node.lineno} def {node.name}")
        if isinstance(node, ast.ClassDef):
            bodies = [f.lineno for f in node.body
                      if isinstance(f, ast.FunctionDef) and f.name == "_update"]
            if len(bodies) > 1:
                found.append(f"nn/optim.py:{node.lineno} {node.name} has _update at {bodies}")
    return found


def test_one_step_body():
    found = step_body_violations(dict(_sources()))
    assert found == [], f"a training step body outside FitLoop (see {STEP_BODY_SECTION}): {found}"


_SECOND_UPDATE = '''\
    def _update(self, r, grad, dtype):
        return self.lr * grad

'''

STEP_BODY_MUTANTS = {
    "a DDP rank stepping its own optimizer": (
        "parallel/ddp.py",
        lambda s: s + "\ndef _own_step(loss, opt):\n    loss.backward()\n    opt.step()\n",
    ),
    "a forward call in the checkpoint/restart driver": (
        "resilience/runtime.py",
        lambda s: s + "\ndef _peek(model, x):\n    return model.forward(x)\n",
    ),
    "a study stepping an optimizer by hand": (
        "workflow/distributed.py", lambda s: s + "\ndef _sgd(opt):\n    opt.step()\n",
    ),
    "optimizer state keyed by id(p)": (
        "nn/optim.py",
        lambda s: s + "\n_STATE = {}\n\ndef _state(p):\n    return _STATE.setdefault(id(p), {})\n",
    ),
    "a snapshot that tests an optimizer's class": (
        "nn/serialization.py",
        lambda s: s + "\ndef _kind(opt):\n    return 'adam' if isinstance(opt, Adam) else 'other'\n",
    ),
    "a snapshot keyed by optimizer name": (
        "nn/serialization.py", lambda s: s + '\n_SLOTS = {"SGD": 1, "RMSProp": 1}\n',
    ),
    "an _update_flat method": (
        "nn/optim.py",
        lambda s: s.replace(
            "class Adam(Optimizer):\n",
            "class Adam(Optimizer):\n    def _update_flat(self, grad):\n        return grad\n\n",
        ),
    ),
    "a second _update": (
        "nn/optim.py",
        lambda s: s.replace("class SGD(Optimizer):\n", "class SGD(Optimizer):\n" + _SECOND_UPDATE),
    ),
    "a module-level fused_update": (
        "nn/optim.py", lambda s: s + "\ndef fused_update(opts, grads):\n    return grads\n",
    ),
}


@pytest.mark.parametrize("edits", STEP_BODY_MUTANTS.values(), ids=list(STEP_BODY_MUTANTS))
def test_one_step_body_rejects(edits):
    assert step_body_violations(_mutated(*edits))


def test_one_step_body_reads_code_not_text():
    note = '\n# loss.backward() and opt.step() run in FitLoop; id(p) is gone\n'
    assert step_body_violations(_mutated(
        "parallel/ddp.py", lambda s: s + note, "nn/optim.py", lambda s: s + note,
    )) == []


# -- One fault plane -----------------------------------------------------
# Every injected fault is drawn from the one FaultSchedule in
# resilience/faults.py through draw(site, *key): no chaos module or
# duck-typed .chaos hook, no injector= keyword or parameter, and no keyed
# default_rng([seed, ctx, ...]) draw of its own anywhere else.
FAULT_SECTION = 'DESIGN.md, "Faults: one schedule"'
FAULT_OWNER = "resilience/faults.py"


def fault_plane_violations(sources):
    found = []
    for rel, source in sources.items():
        found += [f"{rel}:{line} imports {target}" for target, line in _import_targets(rel, source)
                  if target.rsplit("/", 1)[-1] == "chaos"]
        for node in ast.walk(_parse(source)):
            if isinstance(node, ast.Attribute) and node.attr == "chaos":
                found.append(f"{rel}:{node.lineno} .chaos")
            elif isinstance(node, ast.keyword) and node.arg == "injector":
                found.append(f"{rel}:{node.value.lineno} injector=")
            elif isinstance(node, ast.arg) and node.arg == "injector":
                found.append(f"{rel}:{node.lineno} parameter injector")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and any(
                _spelled(t) == "injector"
                for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
            ):
                found.append(f"{rel}:{node.lineno} injector = ...")
            elif (rel != FAULT_OWNER and isinstance(node, ast.Call)
                  and _called_name(node) == "default_rng"
                  and node.args and isinstance(node.args[0], ast.List)):
                found.append(f"{rel}:{node.lineno} default_rng([...])")
    return found


def test_one_fault_plane():
    found = fault_plane_violations(dict(_sources()))
    assert found == [], f"a fault drawn outside the one schedule (see {FAULT_SECTION}): {found}"


FAULT_MUTANTS = {
    "the chaos module back beside the router": (
        "serve/chaos.py", lambda _: "def run_chaos_replay(router):\n    return router\n",
        "serve/__init__.py", lambda s: s + "\nfrom .chaos import run_chaos_replay\n",
    ),
    "an absolute import of a chaos module": (
        "hpo/elastic.py", lambda s: s + "\nfrom repro.serve import chaos\n",
    ),
    "a duck-typed .chaos hook": (
        "serve/router.py", lambda s: s + "\ndef _hook(router):\n    return router.chaos\n",
    ),
    "an injector= keyword": (
        "hpo/elastic.py", lambda s: s + "\ndef _go(run, inj):\n    return run(injector=inj)\n",
    ),
    "an injector parameter": (
        "workflow/campaign.py", lambda s: s + "\ndef _drive(x, injector=None):\n    return x\n",
    ),
    "a keyed draw of its own": (
        "serve/router.py",
        lambda s: s + "\ndef _draw(seed, i):\n    return np.random.default_rng([seed, 6, i]).random()\n",
    ),
}


@pytest.mark.parametrize("edits", FAULT_MUTANTS.values(), ids=list(FAULT_MUTANTS))
def test_one_fault_plane_rejects(edits):
    assert fault_plane_violations(_mutated(*edits))


# -- One precision stack -------------------------------------------------
# Every float format is one entry of nn/amp.py's FORMATS, read by the
# emulated PrecisionPolicy, the autocast plans and the bf16 wire alike:
# no RNE bit trick or fp16 cast outside it, no second format or plan
# table, no rounder or plan class of its own, and no import of the
# retired precision.rounding / precision.autocast modules.
PRECISION_SECTION = 'DESIGN.md, "Precision: one stack"'
PRECISION_OWNER = "nn/amp.py"
RETIRED_PRECISION_MODULES = {"precision/rounding", "precision/autocast"}
FORMAT_TABLE = re.compile(r"_?[A-Z0-9_]*(PLANS|ROUNDERS|FORMAT_INFO|FORMATS)")
ROUNDER = re.compile(r"_?(round|snap)_(fp|bf)[0-9]")


def _is_float16(node):
    return _spelled(node) == "float16" or (
        isinstance(node, ast.Constant) and node.value in ("float16", "f2", "<f2", "e")
    )


def precision_violations(sources):
    found = []
    for rel, source in sources.items():
        found += [f"{rel}:{line} imports {target}" for target, line in _import_targets(rel, source)
                  if target in RETIRED_PRECISION_MODULES]
        for node in ast.walk(_parse(source)):
            if (isinstance(node, ast.Attribute) and node.attr in ("rounding", "autocast")
                    and _spelled(node.value) == "precision"):
                found.append(f"{rel}:{node.lineno} precision.{node.attr}")
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    name = t.id if isinstance(t, ast.Name) else ""
                    owned = (rel == PRECISION_OWNER and name == "FORMATS"
                             and isinstance(node, ast.AnnAssign))
                    if FORMAT_TABLE.fullmatch(name) and not owned and name != "TRAIN_FORMATS":
                        found.append(f"{rel}:{node.lineno} table {name}")
            if rel == PRECISION_OWNER:
                continue
            if isinstance(node, ast.Constant) and node.value == 0x7FFF and type(node.value) is int:
                found.append(f"{rel}:{node.lineno} 0x7FFF")
            elif (isinstance(node, ast.Call) and _called_name(node) == "astype"
                  and node.args and _is_float16(node.args[0])):
                found.append(f"{rel}:{node.lineno} astype(float16)")
            elif isinstance(node, ast.ClassDef) and any(
                    _spelled(b) in ("CastPlan", "Format") for b in node.bases):
                found.append(f"{rel}:{node.lineno} class {node.name}")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and ROUNDER.match(node.name):
                found.append(f"{rel}:{node.lineno} def {node.name}")
    return found


def test_one_precision_stack():
    found = precision_violations(dict(_sources()))
    assert found == [], f"a format grid with a second home (see {PRECISION_SECTION}): {found}"


PRECISION_MUTANTS = {
    "an RNE bit trick in the policy": (
        "precision/policy.py",
        lambda s: s + "\ndef _rne(bits):\n    return (bits + 0x7FFF + ((bits >> 16) & 1)) >> 16\n",
    ),
    "an fp16 cast on the wire": (
        "parallel/allreduce.py", lambda s: s + "\ndef _half(x):\n    return x.astype(np.float16)\n",
    ),
    "an fp16 cast by dtype name": (
        "nn/model.py", lambda s: s + "\ndef _half(x):\n    return x.astype('float16')\n",
    ),
    "the rounding module imported again": (
        "precision/__init__.py", lambda s: s + "\nfrom .rounding import round_bf16\n",
    ),
    "the autocast module imported from nn": (
        "nn/model.py", lambda s: s + "\nfrom ..precision import autocast\n",
    ),
    "a second rounder table": (
        "precision/policy.py", lambda s: s + "\n_ROUNDERS = {}\n",
    ),
    "an annotated plan table": (
        "nn/model.py", lambda s: s + "\nPLANS: dict = {}\n",
    ),
    "a FORMATS assigned outside its annotation": (
        "nn/amp.py", lambda s: s + "\nFORMATS = dict(FORMATS)\n",
    ),
    "a plan class of its own": (
        "parallel/allreduce.py", lambda s: s + "\nclass WirePlan(CastPlan):\n    pass\n",
    ),
    "a format subclass": (
        "precision/policy.py", lambda s: s + "\nclass Fp8(amp.Format):\n    pass\n",
    ),
    "a rounder function": (
        "precision/int8.py", lambda s: s + "\ndef _round_bf16(x):\n    return x\n",
    ),
}


@pytest.mark.parametrize("edits", PRECISION_MUTANTS.values(), ids=list(PRECISION_MUTANTS))
def test_one_precision_stack_rejects(edits):
    assert precision_violations(_mutated(*edits))


# -- Retired names -------------------------------------------------------
# Names a merge retired, each with the section that says what replaced
# it: no code spells them again, as an identifier or inside a string.
RETIRED_NAMES = {
    "ChaosHarness": FAULT_SECTION,
    "KillPlan": FAULT_SECTION,
    "FaultInjector": FAULT_SECTION,
    "FaultSpec": FAULT_SECTION,
    "as_injector": FAULT_SECTION,
    "LayerwisePolicy": PRECISION_SECTION,
    "QuantizedDense": PRECISION_SECTION,
    "from_arrays": PRECISION_SECTION,
}


def retired_name_violations(sources):
    return [f"{rel}:{line} {name} (see {RETIRED_NAMES[name]})"
            for rel, source in sources.items()
            for name, line in _spells(source, set(RETIRED_NAMES))]


@pytest.mark.parametrize("name", [None] + list(RETIRED_NAMES))
def test_no_retired_name(name):
    """The tree spells no retired name, and each one, spelled again,
    is caught."""
    if name is None:
        assert retired_name_violations(dict(_sources())) == []
    else:
        code = f"\n{name} = None\n" if name[0].isupper() else f"\nx = plan.{name}(spec)\n"
        assert retired_name_violations(_mutated("serve/router.py", lambda s: s + code))
