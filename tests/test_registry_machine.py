"""The ArtifactStore against a plain-Python model, checked after every step.

A hypothesis ``RuleBasedStateMachine`` drives one :class:`ArtifactStore`
on a :class:`LocalDirBackend` whose ``objects`` directory is sometimes a
symlink to another directory inside the root: publishes of new and
duplicate weights to two names, ``@latest`` / ``@<v>`` / ``sha256:``
resolves, cold ``get``s, reopening the store, writing back a stale
``latest.json`` hint, and planting a name that is a symlink to another
name's directory (served) or to a copy outside the root (refused).  The
model is a dict of each name's content hashes by version and the set of
stored objects; after every step each name's ``versions`` and
``latest_version``, the object count and the listed names (the
published ones and those planted inside the root, never one that leads
out of it) must agree with it.

Tier 1 runs the machine at the active hypothesis profile's
``max_examples``; CI's ``tests`` job runs it again under the
``registry-full`` profile (``tests/conftest.py``).  Two recorded mutants
must be rejected: a ``latest_version`` that trusts the hint without
probing forward, and a key walk that treats a symlink as a plain
component.
"""

import functools
import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule, run_state_machine_as_test,
)

from repro.candle.registry import get_benchmark
from repro.registry import ArtifactStore, LocalDirBackend, build_artifact_meta

BENCHMARK = "p1b2"
HPARAMS = {"hidden": (4,)}
NAMES = ("a", "b")    # what the machine publishes to
PLANTED = ("x", "y")  # names that are a symlink: to a published name's directory, or outside


@functools.lru_cache(maxsize=None)
def weight_pool():
    """Three models with distinct weights, and each one's content hash."""
    spec = get_benchmark(BENCHMARK)
    shape = spec.input_shape()
    pool = []
    for bump in range(3):
        model = spec.materialize(seed=0, **HPARAMS)
        next(iter(model.parameters())).data.flat[0] = float(bump)
        pool.append((model, build_artifact_meta(model, BENCHMARK, shape, hparams=HPARAMS)[0]["checksum"]))
    return shape, pool


def outcome(call):
    """``("ok", value)``, or the refusal's kind: ``KeyError`` for an
    unknown spec, ``"escape"`` for a key the backend will not follow."""
    try:
        return "ok", call()
    except KeyError:
        return KeyError, None
    except ValueError as exc:
        assert "escapes the registry root" in str(exc), exc
        return "escape", None


class StoreMachine(RuleBasedStateMachine):
    store_class = ArtifactStore
    backend_class = LocalDirBackend

    @initialize(objects_linked=st.booleans())
    def start(self, objects_linked):
        self.base = Path(tempfile.mkdtemp(prefix="repro_store_machine_"))
        self.root, self.outside = self.base / "reg", self.base / "outside"
        self.outside.mkdir()
        if objects_linked:  # every blob access goes through a symlink that stays inside
            (self.root / "blobs").mkdir(parents=True)
            (self.root / "objects").symlink_to("blobs", target_is_directory=True)
        self.shape, self.pool = weight_pool()
        self.open()
        self.hashes = {name: [] for name in NAMES}  # name -> content hash per version
        self.objects = set()
        self.links = {}      # planted name -> the published name it links to
        self.leaks = set()   # planted names that link outside the root

    def teardown(self):
        shutil.rmtree(self.base, ignore_errors=True)

    def open(self):
        self.store = self.store_class(backend=self.backend_class(self.root), capacity=1)
        self.dedup_hits = 0

    def expect(self, name):
        """What resolving ``name`` gives: its hashes, or a refusal."""
        if name in self.leaks:
            return "escape", None
        return "ok", self.hashes.get(self.links.get(name, name), [])

    @rule(name=st.sampled_from(NAMES), w=st.integers(0, 2))
    def publish(self, name, w):
        model, content_hash = self.pool[w]
        dedup = content_hash in self.objects
        ref = self.store.publish(model, name, BENCHMARK, input_shape=self.shape, hparams=HPARAMS)
        self.hashes[name].append(content_hash)
        self.objects.add(content_hash)
        self.dedup_hits += dedup
        assert (ref.name, ref.version, ref.content_hash) == (name, len(self.hashes[name]), content_hash)
        assert self.store.dedup_hits == self.dedup_hits

    @rule(name=st.sampled_from(NAMES + PLANTED))
    def resolve_latest(self, name):
        kind, hashes = self.expect(name)
        got, ref = outcome(lambda: self.store.resolve(f"{name}@latest"))
        if kind == "escape" or not hashes:
            assert got == (kind if kind == "escape" else KeyError)
        else:
            assert got == "ok" and (ref.version, ref.content_hash) == (len(hashes), hashes[-1])

    @rule(name=st.sampled_from(NAMES + PLANTED), version=st.integers(0, 6))
    def resolve_version(self, name, version):
        kind, hashes = self.expect(name)
        got, ref = outcome(lambda: self.store.resolve(f"{name}@{version}"))
        if kind == "escape":
            assert got == "escape"
        elif 1 <= version <= len(hashes):
            assert got == "ok" and ref.content_hash == hashes[version - 1]
        else:
            assert got == KeyError

    @rule(w=st.integers(0, 2))
    def resolve_hash(self, w):
        content_hash = self.pool[w][1]
        got, ref = outcome(lambda: self.store.resolve(f"sha256:{content_hash}"))
        if content_hash in self.objects:
            assert got == "ok" and ref.content_hash == content_hash
        else:
            assert got == KeyError

    @rule(name=st.sampled_from(NAMES + PLANTED))
    def cold_get(self, name):
        kind, hashes = self.expect(name)
        self.store.cache.clear()
        loads = self.store.loads
        got, model = outcome(lambda: self.store.get(name))
        if kind == "escape" or not hashes:
            assert got == (kind if kind == "escape" else KeyError)
            return
        assert got == "ok" and self.store.loads == loads + 1
        want = next(m for m, h in self.pool if h == hashes[-1])
        assert all(np.array_equal(p, q) for p, q in zip(model.get_weights(), want.get_weights()))

    @rule()
    def reopen(self):
        self.open()

    @precondition(lambda self: any(len(h) >= 2 for h in self.hashes.values()))
    @rule(name=st.sampled_from(NAMES), pick=st.integers(0, 63))
    def write_back_a_stale_hint(self, name, pick):
        """A publisher that lost a race writes its older number last."""
        if len(self.hashes[name]) >= 2:
            stale = pick % len(self.hashes[name])
            self.store.backend.write_bytes(f"manifests/{name}/latest.json",
                                           json.dumps({"version": stale}).encode())

    @precondition(lambda self: any(self.hashes.values()))
    @rule(planted=st.sampled_from(PLANTED), to=st.sampled_from(NAMES), inside=st.booleans())
    def plant_a_symlinked_name(self, planted, to, inside):
        if planted in self.links or planted in self.leaks or not self.hashes[to]:
            return
        link = self.root / "manifests" / planted
        if inside:
            link.symlink_to(to, target_is_directory=True)
            self.links[planted] = to
        else:  # a copy of the name's manifests, outside the root
            shutil.copytree(self.root / "manifests" / to, self.outside / planted)
            link.symlink_to(self.outside / planted, target_is_directory=True)
            self.leaks.add(planted)

    @invariant()
    def catalog_matches_the_model(self):
        for name, hashes in self.hashes.items():
            assert self.store.latest_version(name) == len(hashes), name
            assert self.store.versions(name) == list(range(1, len(hashes) + 1)), name
        for planted, target in self.links.items():
            assert self.store.versions(planted) == self.store.versions(target), planted
        assert self.store.stats()["objects"] == len(self.objects)
        published = {name for name, hashes in self.hashes.items() if hashes}
        assert set(self.store.names()) == published | set(self.links)


TestStoreMachine = StoreMachine.TestCase
TestStoreMachine.settings = settings(stateful_step_count=25, deadline=None)


class _TrustsTheHint(ArtifactStore):
    """``latest_version`` as it read before a stale hint was known to
    happen: whatever ``latest.json`` says, with no forward probe."""

    def latest_version(self, name):
        try:
            return int(json.loads(self.backend.read_bytes(f"manifests/{name}/latest.json"))["version"])
        except FileNotFoundError:
            return 0


class _NoSymlinkFallback(LocalDirBackend):
    """A key walk without the symlink fallback: a symlink is walked as a
    plain component, ``..`` is collapsed by name, and the escape check
    sees the link's own path, not where it points."""

    def _resolve(self, key):
        path = os.path.normpath(os.path.join(self._root, key))
        if path != self._root and not path.startswith(self._root + "/"):
            raise ValueError(f"key {key!r} escapes the registry root")
        return path, (os.lstat(path) if os.path.lexists(path) else None)


class _HintMutant(StoreMachine):
    store_class = _TrustsTheHint


class _WalkMutant(StoreMachine):
    backend_class = _NoSymlinkFallback


@pytest.mark.parametrize("mutant", [_HintMutant, _WalkMutant], ids=["trusts-the-hint", "no-symlink-fallback"])
def test_machine_rejects_the_recorded_mutants(mutant):
    with pytest.raises(AssertionError):
        run_state_machine_as_test(mutant, settings=settings(
            max_examples=200, stateful_step_count=25, deadline=None,
            phases=[Phase.generate], database=None, derandomize=True))
