"""Every function in src/repro has a consumer, or a listed reason not to.

    python tests/consumers.py

runs each consumer of the package -- the E-table tests, every example,
every CLI form and both ``bench/run.py`` modes -- in a subprocess whose
``sitecustomize`` records the first call of each function under
``src/repro``, in the driver and in every worker it forks or spawns.  A
function (its path under ``src/repro`` and ``ast`` qualname) is reached if
a call was recorded under that path and the code object's qualname.
Exit 1 if a consumer fails, a function is neither reached nor listed in
``consumers_allow.txt``, or a list entry names no function.  An entry
whose functions were all reached is a warning: a 1 s bench window can
miss a rare path.

A hit is written to the process's file when it happens, so a worker that
is killed keeps what it reached, and it names the function, not its
line, so a source file edited during the minutes of a run moves no
function out of reach.  Needs Python >= 3.11 (``co_qualname``).
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "repro"
ALLOW = Path(__file__).with_name("consumers_allow.txt")

SITE = """\
import os, sys, threading
_fd = os.open(os.path.join({out!r}, str(os.getpid())), os.O_WRONLY | os.O_CREAT | os.O_APPEND)
def _prof(frame, event, arg, _pkg={pkg!r}, _hits=set(), _write=os.write):
    if event == "call" and frame.f_code.co_filename.startswith(_pkg):
        hit = frame.f_code.co_filename, frame.f_code.co_qualname
        if hit not in _hits:
            _hits.add(hit)
            _write(_fd, ("%s\\t%s\\n" % hit).encode())
sys.setprofile(_prof)
threading.setprofile(_prof)
"""


def functions():
    """``(path, qualname)`` of every function defined under src/repro."""
    found = set()

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.add((path, prefix + child.name))
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for file in sorted(PKG.rglob("*.py")):
        walk(ast.parse(file.read_text()), file.relative_to(PKG).as_posix(), "")
    return found


def allow_entries():
    """``path::qualname`` lines of the allow-list (``Class.*`` and ``*`` glob
    a class or a module), each of which must sit under a ``#`` reason."""
    entries, reason = [], None
    for line in ALLOW.read_text().splitlines():
        line = line.strip()
        if line.startswith("#"):
            reason = line
        elif line:
            if reason is None:
                raise SystemExit(f"{ALLOW.name}: {line} has no reason heading")
            entries.append(line)
    return entries


def matches(entry, key):
    path, _, name = entry.partition("::")
    return path == key[0] and (name == key[1] or (name.endswith("*") and key[1].startswith(name[:-1])))


def consumers(work):
    py = [sys.executable]
    yield py + ["-m", "pytest", "-q", "-p", "no:cacheprovider", str(ROOT / "benchmarks")]
    for ex in sorted((ROOT / "examples").glob("*.py")):
        yield py + [str(ex)] + (["--smoke"] if ex.name == "traced_campaign.py" else [])
    cli = py + ["-m", "repro"]
    yield from (cli + ["list"], cli + ["experiments"])
    from repro.candle.registry import REGISTRY
    for name in sorted(REGISTRY):
        yield from (cli + ["train", name, "--epochs", "1"], cli + ["price", name])
    for args in ([], ["p1b1"], ["p1b1", "--verify"]):
        yield cli + ["registry", "traced_registry"] + args
    yield cli + ["trace", "traced_campaign.jsonl", "--chrome", str(work / "chrome.json")]
    for trace in ("0", "1"):
        yield py + [str(ROOT / "bench" / "run.py"), "--seed", "0", "--seconds", "1", "--trace", trace]


def main() -> int:
    if sys.version_info < (3, 11):
        raise SystemExit("tests/consumers.py needs Python >= 3.11 (co_qualname)")
    sys.path.insert(0, str(ROOT / "src"))
    defined = functions()
    entries = allow_entries()
    with tempfile.TemporaryDirectory() as tmp:
        work, hits_dir, site = Path(tmp), Path(tmp) / "hits", Path(tmp) / "site"
        hits_dir.mkdir()
        site.mkdir()
        (site / "sitecustomize.py").write_text(SITE.format(pkg=str(PKG) + os.sep, out=str(hits_dir)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(site), str(ROOT / "src")]))
        failed = []
        for cmd in consumers(work):
            print("$", " ".join(Path(c).name if os.sep in c else c for c in cmd[1:]), flush=True)
            if subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.DEVNULL).returncode:
                failed.append(" ".join(cmd[1:]))
        hits = {(Path(p).relative_to(PKG).as_posix(), name)
                for f in hits_dir.iterdir() for p, name in (ln.split("\t") for ln in f.read_text().splitlines())}
    reached = defined & hits
    stale = [e for e in entries if not any(matches(e, key) for key in defined)]
    unreached = [key for key in defined if key not in reached and not any(matches(e, key) for e in entries)]
    for entry in entries:
        covered = [key for key in defined if matches(entry, key)]
        if covered and all(key in reached for key in covered):
            print(f"warning: listed but reached: {entry}")
    for cmd in failed:
        print(f"FAIL: consumer exited non-zero: {cmd}")
    for entry in stale:
        print(f"FAIL: {ALLOW.name} names no function: {entry}")
    for key in sorted(unreached):
        print(f"FAIL: no consumer reaches {key[0]}::{key[1]}")
    print(f"{len(reached)} of {len(defined)} functions reached; {len(unreached)} unreached and unlisted")
    return 1 if failed or stale or unreached else 0


if __name__ == "__main__":
    sys.exit(main())
