"""Tests for the content-addressed model registry (repro.registry).

Covers the store's publish/resolve/get flow, the loader-bug regressions
this subsystem fixes (a republish must reload; the double checkpoint
read), the drift the merged load path closes (server and replica group
refuse, default and cache alike), the failure paths (corrupt artifacts, alias
repoints under a concurrent reader, eviction mid-``get``, unsupported
dtypes), the backend contract (escapes through ``..``, a symlink or a
leading ``/``, a key walk that names what resolving the whole key did, a
relative root after a chdir, exclusive creates, listings that read only
the asked directory), partial writes, what a publish costs in writes and
``lstat`` calls, two publisher processes racing for versions of one
name, and a seeded publisher-vs-readers churn.
"""

import errno
import gc
import json
import multiprocessing as mp
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.candle.registry import get_benchmark
from repro.registry import (
    ArtifactStore,
    CheckpointIntegrityError,
    InMemoryBackend,
    LocalDirBackend,
    UnsupportedDtypeError,
    WarmModelCache,
    build_artifact_meta,
    weights_checksum,
)
from repro.serve import InferenceServer, ReplicaGroup

BENCHMARK = "p1b2"
HPARAMS = {"hidden": (16,)}


@pytest.fixture(scope="module")
def p1b2_shape():
    return get_benchmark(BENCHMARK).input_shape()


def _tiny_model(seed=0, bump=None):
    model = get_benchmark(BENCHMARK).materialize(seed=seed, **HPARAMS)
    if bump is not None:
        next(iter(model.parameters())).data.flat[0] = float(bump)
    return model


class TestPublishResolveGet:
    def test_round_trip_is_bit_identical(self, tmp_path, p1b2_shape):
        model = _tiny_model()
        store = ArtifactStore(tmp_path)
        ref = store.publish(model, "m", BENCHMARK, hparams=HPARAMS)
        x = np.random.default_rng(0).standard_normal((8,) + p1b2_shape)
        loaded = store.get("m")
        assert np.array_equal(loaded.predict(x), model.predict(x))
        assert ref.content_hash == weights_checksum(model.get_weights())

    def test_resolve_forms(self, tmp_path):
        store = ArtifactStore(tmp_path)
        r1 = store.publish(_tiny_model(bump=1), "m", BENCHMARK, hparams=HPARAMS)
        r2 = store.publish(_tiny_model(bump=2), "m", BENCHMARK, hparams=HPARAMS)
        assert store.resolve("m").version == 2
        assert store.resolve("m@latest").content_hash == r2.content_hash
        assert store.resolve("m@1").content_hash == r1.content_hash
        assert store.resolve(f"sha256:{r1.content_hash}").content_hash == r1.content_hash
        with pytest.raises(KeyError):
            store.resolve("nope")
        with pytest.raises(KeyError):
            store.resolve("m@9")
        with pytest.raises(KeyError):
            store.resolve("sha256:" + "0" * 64)

    @pytest.mark.parametrize("spec", ["m@abc", "m@1.5", "m@\u00b2", "sha256:../../x", "../../x@1"])
    def test_malformed_spec_is_a_key_error(self, tmp_path, spec):
        """Malformed specs are unknown specs, not a ValueError from int()
        or from the backend's root-escape check."""
        with pytest.raises(KeyError):
            ArtifactStore(tmp_path / "reg").resolve(spec)

    def test_versions_and_latest(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for i in range(3):
            store.publish(_tiny_model(bump=i), "m", BENCHMARK, hparams=HPARAMS)
        assert store.versions("m") == [1, 2, 3]
        assert store.latest_version("m") == 3
        assert store.names() == ["m"]

    def test_identical_bytes_dedup_into_one_object(self, tmp_path):
        store = ArtifactStore(tmp_path)
        model = _tiny_model()
        r1 = store.publish(model, "a", BENCHMARK, hparams=HPARAMS)
        r2 = store.publish(model, "b", BENCHMARK, hparams=HPARAMS)
        assert r1.content_hash == r2.content_hash
        assert store.stats()["objects"] == 1
        assert store.dedup_hits == 1

    def test_aliases_share_one_resident_model(self, tmp_path):
        store = ArtifactStore(tmp_path, capacity=2)
        model = _tiny_model()
        store.publish(model, "a", BENCHMARK, hparams=HPARAMS)
        store.publish(model, "b", BENCHMARK, hparams=HPARAMS)
        ma = store.get("a")
        mb = store.get("b")
        assert ma is mb
        assert store.loads == 1 and store.hits == 1

    def test_invalid_names_refused(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for bad in ("", "a/b", "a@1"):
            with pytest.raises(ValueError):
                store.publish(_tiny_model(), bad, BENCHMARK, hparams=HPARAMS)

    @pytest.mark.parametrize("bad", [".", "..", ".tmp_reg_x", ".hidden"])
    def test_names_starting_with_a_dot_refused(self, tmp_path, bad):
        """``.`` would write into ``manifests/`` itself and ``..`` into the
        root; a ``.tmp_reg_`` name would be hidden from ``names()``."""
        store = ArtifactStore(tmp_path)
        with pytest.raises(ValueError, match="invalid artifact name"):
            store.publish(_tiny_model(), bad, BENCHMARK, hparams=HPARAMS)
        assert store.names() == [] and store.backend.list_keys() == []

    def test_lineage_travels_with_the_artifact(self, tmp_path):
        store = ArtifactStore(tmp_path)
        ref = store.publish(
            _tiny_model(), "m", BENCHMARK, hparams=HPARAMS,
            lineage={"campaign_span": 7, "strategy": "hyperband"},
        )
        again = store.resolve("m@1")
        assert again.lineage == {"campaign_span": 7, "strategy": "hyperband"}
        assert ref.benchmark == BENCHMARK

    def test_publish_stamps_published_at(self, tmp_path):
        import time

        store = ArtifactStore(tmp_path)
        before = time.time()
        ref = store.publish(_tiny_model(), "m", BENCHMARK, hparams=HPARAMS)
        assert before <= ref.meta["published_at"] <= time.time()


class TestLoaderBugRegressions:
    def test_rewritten_checkpoint_does_invalidate(self, tmp_path):
        store = ArtifactStore(tmp_path, capacity=1)
        store.publish(_tiny_model(bump=1), "m", BENCHMARK, hparams=HPARAMS)
        first = store.get("m")
        # Republish the name with different weights: the next get must reload.
        store.publish(_tiny_model(bump=2), "m", BENCHMARK, hparams=HPARAMS)
        second = store.get("m")
        assert second is not first
        assert store.loads == 2

    def test_cold_get_reads_the_file_exactly_once(self, tmp_path, monkeypatch):
        """Satellite: the pre-fix loader opened the checkpoint twice
        (verify pass, then install pass).  Count np.load calls."""
        store = ArtifactStore(tmp_path, capacity=1)
        store.publish(_tiny_model(), "m", BENCHMARK, hparams=HPARAMS)
        calls = []
        real_load = np.load
        monkeypatch.setattr(np, "load", lambda *a, **k: calls.append(a) or real_load(*a, **k))
        store.get("m")  # cold: one open, verify + install from one decode
        assert len(calls) == 1
        store.get("m")  # warm: the manifest names the hash, no open at all
        assert len(calls) == 1

    def test_benchmark_shape_derivation_is_cached(self):
        """Satellite: input_shape() used to regenerate the full synthetic
        dataset on every call just to read x.shape[1:]."""
        from repro.candle import registry as candle_registry

        spec = get_benchmark(BENCHMARK)
        spec.input_shape(seed=123)
        key = (spec.name, spec.make_data, 123)
        assert key in candle_registry._SHAPE_CACHE
        calls = []
        probe = candle_registry.BenchmarkSpec(
            name="probe", description="", metric="loss", metric_mode="min",
            loss="mse", build_model=spec.build_model,
            make_data=lambda seed=0: calls.append(seed) or spec.make_data(seed=seed),
        )
        assert probe.input_shape(seed=5) == probe.input_shape(seed=5)
        assert calls == [5], "shape derivation regenerated the dataset"


class TestFailurePaths:
    def test_truncated_artifact_refused(self, tmp_path):
        store = ArtifactStore(tmp_path, capacity=1)
        path = store.path_for(store.publish(_tiny_model(), "m", BENCHMARK, hparams=HPARAMS))
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 3])
        with pytest.raises(CheckpointIntegrityError):
            store.get("m")
        assert store.stats()["resident"] == 0, "corrupt model reached the cache"

    def test_corrupt_blob_refused_through_store(self, tmp_path):
        store = ArtifactStore(tmp_path, capacity=1)
        ref = store.publish(_tiny_model(), "m", BENCHMARK, hparams=HPARAMS)
        blob = store.path_for(ref)
        raw = bytearray(blob.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        blob.write_bytes(bytes(raw))
        with pytest.raises(CheckpointIntegrityError):
            store.get("m")
        assert len(store.cache) == 0

    def test_manifest_object_mismatch_refused(self, tmp_path):
        store = ArtifactStore(tmp_path, capacity=1)
        r1 = store.publish(_tiny_model(bump=1), "m", BENCHMARK, hparams=HPARAMS)
        r2 = store.publish(_tiny_model(bump=2), "other", BENCHMARK, hparams=HPARAMS)
        # Swap other's (internally valid) blob under m@1's hash-named
        # key: the blob verifies against its own checksum, but the
        # address cross-check must notice it is not the promised bytes.
        store.backend.write_bytes(
            f"objects/{r1.content_hash}.npz",
            store.backend.read_bytes(f"objects/{r2.content_hash}.npz"),
        )
        with pytest.raises(CheckpointIntegrityError, match="address"):
            store.get("m@1")

    def test_unsupported_dtype_refused_through_store(self, tmp_path):
        store = ArtifactStore(tmp_path, capacity=1)
        ref = store.publish(_tiny_model(), "m", BENCHMARK, hparams=HPARAMS)
        # Tamper the manifest's dtype record (the pre-install refusal
        # keys off metadata, before any weight decode).
        key = f"manifests/m/{1:06d}.json"
        manifest = json.loads(store.backend.read_bytes(key))
        manifest["dtypes"] = ["int16"] * len(manifest["dtypes"])
        store.backend.write_bytes(key, json.dumps(manifest).encode())
        with pytest.raises(UnsupportedDtypeError, match="int16"):
            store.get("m@1")
        assert store.loads == 0, "refusal happened after a load"
        del ref

    def test_alias_repoint_under_concurrent_reader(self, tmp_path, p1b2_shape):
        """A handed-out model stays valid while its alias repoints."""
        store = ArtifactStore(tmp_path, capacity=2)
        store.publish(_tiny_model(bump=1), "m", BENCHMARK, hparams=HPARAMS)
        x = np.random.default_rng(0).standard_normal((4,) + p1b2_shape)
        reader_model = store.get("m")
        before = reader_model.predict(x)
        store.publish(_tiny_model(bump=2), "m", BENCHMARK, hparams=HPARAMS)
        assert np.array_equal(reader_model.predict(x), before)
        new_model = store.get("m")
        assert not np.array_equal(new_model.predict(x), before)
        assert np.array_equal(store.get("m@1").predict(x), before)

    def test_eviction_during_in_flight_get(self, tmp_path, p1b2_shape):
        """A model evicted while a caller still holds it keeps serving."""
        store = ArtifactStore(tmp_path, capacity=1)
        store.publish(_tiny_model(bump=1), "a", BENCHMARK, hparams=HPARAMS)
        store.publish(_tiny_model(bump=2), "b", BENCHMARK, hparams=HPARAMS)
        x = np.random.default_rng(0).standard_normal((4,) + p1b2_shape)
        in_flight = store.get("a")
        before = in_flight.predict(x)
        store.get("b")  # capacity 1: evicts a's resident model
        assert store.evictions == 1
        assert np.array_equal(in_flight.predict(x), before)
        assert np.array_equal(store.get("a").predict(x), before)  # reloads


KEY_PARTS = ["a", "objects", "f.json", "x.npz", "..", ".", "", "missing",
             "dlink", "flink", "dout", "fout"]


def _realpath_rule(root, key):
    """How a key was checked before the walk: resolve it in full."""
    path = (root / key).resolve()
    if root not in path.parents and path != root:
        raise ValueError(f"key {key!r} escapes the registry root")
    return str(path)


@pytest.fixture(scope="module")
def linked_root(tmp_path_factory):
    """A root of plain dirs and files, a dir and a file symlink inside
    it, and one of each pointing outside it."""
    base = tmp_path_factory.mktemp("linked")
    root, outside = base / "reg", base / "outside"
    for d in (root / "a", root / "objects", outside):
        d.mkdir(parents=True)
    for f in (root / "a" / "f.json", root / "objects" / "x.npz", outside / "f.json"):
        f.write_bytes(b"{}")
    (root / "dlink").symlink_to(root / "a", target_is_directory=True)
    (root / "flink").symlink_to("a/f.json")
    (root / "dout").symlink_to(outside, target_is_directory=True)
    (root / "fout").symlink_to(outside / "f.json")
    return root


class TestBackends:
    def test_local_dir_key_escape_refused(self, tmp_path):
        backend = LocalDirBackend(tmp_path / "reg")
        with pytest.raises(ValueError):
            backend.read_bytes("../outside")

    @pytest.mark.parametrize("link", ["dir", "file"])
    @pytest.mark.parametrize("access", ["exists", "read_bytes", "write_bytes", "open_local"])
    def test_local_dir_symlink_escape_refused(self, tmp_path, link, access):
        """The root is resolved once, and each key still is: a symlink
        inside the root that points outside it is not followed out."""
        outside = tmp_path / "outside"
        outside.mkdir()
        (outside / "f.json").write_bytes(b"secret")
        backend = LocalDirBackend(tmp_path / "reg")
        if link == "dir":
            (tmp_path / "reg" / "objects").symlink_to(outside, target_is_directory=True)
            key = "objects/f.json"
        else:
            (tmp_path / "reg" / "f.json").symlink_to(outside / "f.json")
            key = "f.json"
        args = (key, b"overwritten") if access == "write_bytes" else (key,)
        with pytest.raises(ValueError, match="escapes the registry root"):
            getattr(backend, access)(*args)
        assert (outside / "f.json").read_bytes() == b"secret"
        assert sorted(p.name for p in outside.iterdir()) == ["f.json"]

    @pytest.mark.parametrize("inside", [True, False])
    @pytest.mark.parametrize("access", ["exists", "read_bytes", "write_bytes", "open_local"])
    def test_a_leading_slash_key_is_refused(self, tmp_path, inside, access):
        """``root / "/x"`` is ``/x``: a key that starts with ``/`` names
        no key below the root, whether or not the root holds ``x``."""
        outside = tmp_path / "outside"
        outside.mkdir()
        (outside / "f.json").write_bytes(b"secret")
        backend = LocalDirBackend(tmp_path / "reg")
        backend.write_bytes("f.json", b"inside")
        key = "/f.json" if inside else str(outside / "f.json")
        args = (key, b"overwritten") if access == "write_bytes" else (key,)
        with pytest.raises(ValueError, match="escapes the registry root"):
            getattr(backend, access)(*args)
        assert (outside / "f.json").read_bytes() == b"secret"
        assert backend.read_bytes("f.json") == b"inside"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["outside", "reg"]
        assert sorted(p.name for p in outside.iterdir()) == ["f.json"]

    def test_list_dir_names_only_what_resolves(self, tmp_path):
        """A listing is checked like a key: a symlink to a directory or
        file inside the root is listed, one leading out of the root or
        to nothing is not, so ``names()`` never names a refused name."""
        store = ArtifactStore(tmp_path / "reg")
        store.publish(_tiny_model(), "m", BENCHMARK, hparams=HPARAMS)
        manifests, outside = tmp_path / "reg" / "manifests", tmp_path / "outside"
        shutil.copytree(manifests / "m", outside / "m")
        (manifests / "inside").symlink_to("m", target_is_directory=True)
        (manifests / "out").symlink_to(outside / "m", target_is_directory=True)
        (manifests / "gone").symlink_to("missing", target_is_directory=True)
        (tmp_path / "reg" / "top").symlink_to(outside, target_is_directory=True)
        (tmp_path / "reg" / "file").symlink_to("manifests/m/latest.json")
        assert store.names() == ["inside", "m"]
        assert store.backend.list_dir("") == ["file", "manifests", "objects"]
        for name in store.names():
            assert store.resolve(f"{name}@latest").version == 1
        with pytest.raises(ValueError, match="escapes the registry root"):
            store.resolve("out@latest")

    @given(parts=st.lists(st.sampled_from(KEY_PARTS), max_size=5), absolute=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_the_key_walk_matches_the_realpath_rule(self, linked_root, parts, absolute):
        """Over keys built from plain, missing, ``.``, ``..``, empty and
        symlinked components, the walk names the same path as resolving
        the whole key did, or refuses it alike."""
        backend = LocalDirBackend(linked_root)
        key = "/" * absolute + "/".join(parts)
        try:
            want = _realpath_rule(backend.root, key)
        except ValueError:
            with pytest.raises(ValueError, match="escapes the registry root"):
                backend._path(key)
            return
        path, found = backend._path(key)
        assert path == want
        assert (found is not None) == os.path.lexists(path)
        if found is not None:
            assert (found.st_ino, found.st_mode) == (os.lstat(path).st_ino, os.lstat(path).st_mode)

    def test_relative_root_serves_its_keys_after_chdir(self, tmp_path, monkeypatch, p1b2_shape):
        monkeypatch.chdir(tmp_path)
        store = ArtifactStore("reg", capacity=1)
        model = _tiny_model(bump=1)
        ref = store.publish(model, "m", BENCHMARK, hparams=HPARAMS)
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        x = np.random.default_rng(0).standard_normal((4,) + p1b2_shape)
        assert np.array_equal(store.get("m").predict(x), model.predict(x))
        assert store.verify("m@1")
        store.publish(_tiny_model(bump=2), "m", BENCHMARK, hparams=HPARAMS)
        assert ArtifactStore(tmp_path / "reg").versions("m") == [1, 2]
        assert store.path_for(ref).parent == (tmp_path / "reg" / "objects").resolve()
        assert list((tmp_path / "elsewhere").iterdir()) == []

    def test_local_dir_write_is_atomic_rename(self, tmp_path):
        backend = LocalDirBackend(tmp_path / "reg")
        backend.write_bytes("a/b.json", b"{}")
        assert backend.read_bytes("a/b.json") == b"{}"
        assert backend.list_keys() == ["a/b.json"], "temp files leaked into listing"

    def test_in_memory_backend_spools_for_np_load(self, tmp_path):
        """The S3-shaped backend: open_local downloads into a blob cache."""
        store = ArtifactStore(backend=InMemoryBackend(), capacity=1)
        store.publish(_tiny_model(), "m", BENCHMARK, hparams=HPARAMS)
        m1 = store.get("m")
        assert store.backend.downloads == 1
        store.cache.clear()
        store.get("m")  # cold again, but the blob cache still holds it
        assert store.backend.downloads == 1
        assert m1 is not None

    def test_in_memory_blob_cache_goes_with_the_backend(self, tmp_path, monkeypatch):
        """The blob cache is removed when the backend is collected: every
        in-memory store used to leave a ``repro_registry_cache_*``
        directory in the temp dir."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        store = ArtifactStore(backend=InMemoryBackend(), capacity=1)
        store.publish(_tiny_model(), "m", BENCHMARK, hparams=HPARAMS)
        model = store.get("m")
        assert store.backend.downloads == 1
        assert len(list(tmp_path.glob("repro_registry_cache_*"))) == 1
        del store, model
        gc.collect()
        assert list(tmp_path.glob("repro_registry_cache_*")) == []

    def test_store_requires_root_or_backend(self):
        with pytest.raises(ValueError):
            ArtifactStore()

    @pytest.mark.parametrize("kind", ["local", "memory"])
    def test_create_is_exclusive(self, tmp_path, kind):
        backend = LocalDirBackend(tmp_path / "reg") if kind == "local" else InMemoryBackend()
        data = b"first"
        assert backend.create_bytes("a/1.json", data)
        assert not backend.create_bytes("a/1.json", data)
        assert not backend.create_bytes("a/1.json", b"second")
        assert backend.read_bytes("a/1.json") == b"first"
        assert backend.list_keys() == ["a/1.json"], "a lost create left a key behind"
        assert backend.list_dir("") == ["a"] and backend.list_dir("a") == ["1.json"]
        if kind == "local":
            assert sorted(p.name for p in (tmp_path / "reg" / "a").iterdir()) == ["1.json"]

    def test_a_stale_latest_hint_steps_forward(self, tmp_path):
        """A publisher that lost a race writes its older number to
        ``latest.json`` after the winner's: readers and the next publish
        still find the newest version."""
        store = ArtifactStore(tmp_path, capacity=1)
        for bump in (1, 2, 3):
            store.publish(_tiny_model(bump=bump), "m", BENCHMARK, hparams=HPARAMS)
        store.backend.write_bytes("manifests/m/latest.json", b'{"version": 1}')
        assert store.latest_version("m") == 3
        assert store.resolve("m@latest").version == 3
        assert store.publish(_tiny_model(bump=4), "m", BENCHMARK, hparams=HPARAMS).version == 4


class TestWarmModelCache:
    def test_lru_order_and_eviction_count(self):
        cache = WarmModelCache(capacity=2)
        assert cache.put("a", 1) == 0
        assert cache.put("b", 2) == 0
        assert cache.get("a") == 1  # refresh a: b is now LRU
        assert cache.put("c", 3) == 1
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.evictions == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            WarmModelCache(0)

    def test_shared_cache_pools_residency(self, tmp_path):
        """Two stores can share one warm cache."""
        shared = WarmModelCache(capacity=2)
        store = ArtifactStore(tmp_path / "store", cache=shared)
        other = ArtifactStore(tmp_path / "other", cache=shared)
        model = _tiny_model()
        ref = store.publish(model, "m", BENCHMARK, hparams=HPARAMS)
        other.publish(model, "m", BENCHMARK, hparams=HPARAMS)
        loaded = store.get(ref)
        assert other.get("m") is loaded, "identical bytes, one resident model"
        assert other.loads == 0 and other.hits == 1


class _FailingWrite:
    """``os.fdopen``'s file with a ``write`` that stores the first half
    of the data and then reports a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def _fail_on_call(monkeypatch, owner, name, n, make_error):
    """Make ``owner.name``'s ``n``-th call (1-based) fail through
    ``make_error(real, args, kwargs)``; every other call is the real one."""
    real = getattr(owner, name)
    calls = [0]

    def patched(*args, **kwargs):
        calls[0] += 1
        if calls[0] == n:
            return make_error(real, args, kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, patched)


def _raise(exc):
    raise exc


PARTIAL_WRITES = {
    # The encoder stops after the first member is in the zip.
    "encode": (np.lib.format, "write_array", 2,
               lambda real, a, k: _raise(MemoryError("encoder stopped"))),
    # Half the blob reaches the temp file, then the disk is full.
    "write": (os, "fdopen", 1, lambda real, a, k: _FailingWrite(real(*a, **k))),
    # The temp file is complete; the rename into place fails.
    "rename": (os, "replace", 1,
               lambda real, a, k: _raise(OSError(errno.EIO, "rename failed"))),
}


class TestPartialWrites:
    """A publish whose blob write stops partway leaves the store as it
    was: the three writes are temp file + rename inside the root, and
    the blob is the first of them."""

    @pytest.mark.parametrize("where", list(PARTIAL_WRITES))
    def test_failed_blob_write_changes_nothing_visible(self, tmp_path, monkeypatch, where, p1b2_shape):
        scratch_tmp = tmp_path / "tmp"
        scratch_tmp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch_tmp))
        store = ArtifactStore(tmp_path / "reg", capacity=1)
        first = store.publish(_tiny_model(bump=1), "m", BENCHMARK, hparams=HPARAMS)
        keys, stats = store.backend.list_keys(), store.stats()
        files = sorted(p for p in (tmp_path / "reg").rglob("*"))

        owner, name, n, make_error = PARTIAL_WRITES[where]
        with monkeypatch.context() as patch:
            _fail_on_call(patch, owner, name, n, make_error)
            with pytest.raises((OSError, MemoryError)):
                store.publish(_tiny_model(bump=2), "m", BENCHMARK, hparams=HPARAMS)

        assert store.backend.list_keys() == keys
        assert store.stats()["objects"] == stats["objects"] == 1
        assert store.resolve("m@latest") == first and store.latest_version("m") == 1
        assert sorted(p for p in (tmp_path / "reg").rglob("*")) == files, "a temp file was left"
        assert list(scratch_tmp.iterdir()) == [], "the publish staged outside the root"

        second = store.publish(_tiny_model(bump=2), "m", BENCHMARK, hparams=HPARAMS)
        assert second.version == 2 and store.stats()["objects"] == 2
        x = np.random.default_rng(0).standard_normal((4,) + p1b2_shape)
        assert np.array_equal(store.get("m").predict(x), _tiny_model(bump=2).predict(x))
        assert list(scratch_tmp.iterdir()) == []

    def test_a_killed_writers_temp_files_are_not_keys(self, tmp_path):
        """A process killed between mkstemp and the rename leaves a
        ``.tmp_reg_`` file; it is not an object, a manifest or a version."""
        store = ArtifactStore(tmp_path, capacity=1)
        store.publish(_tiny_model(), "m", BENCHMARK, hparams=HPARAMS)
        keys = store.backend.list_keys()
        for sub in ("objects", "manifests/m"):
            (tmp_path / sub / ".tmp_reg_killed").write_bytes(b"PK\x03\x04torn")
        assert store.backend.list_keys() == keys
        assert store.stats()["objects"] == 1 and store.versions("m") == [1]
        assert store.verify("m@latest")
        # A first publish of a new name killed before its manifest landed
        # leaves a directory holding a temp file: that is not a name.
        (tmp_path / "manifests" / "ghost").mkdir()
        (tmp_path / "manifests" / "ghost" / ".tmp_reg_killed").write_bytes(b"{")
        assert store.names() == ["m"]

    def test_an_artifact_from_the_file_writer_loads_and_verifies(self, tmp_path, p1b2_shape):
        """Blobs written before publish encoded in memory were ``np.savez``
        straight into a file.  One of those, with the same member names
        and ``_meta`` header, loads and verifies, and publishing the same
        weights now finds it under the same content hash."""
        model = _tiny_model(bump=3)
        meta, weights = build_artifact_meta(model, BENCHMARK, p1b2_shape, hparams=HPARAMS)
        members = {f"param_{i:04d}": w for i, w in enumerate(weights)}
        members["_meta"] = np.frombuffer(
            json.dumps({"n_params": len(weights), "metadata": meta}).encode(), dtype=np.uint8
        )
        store = ArtifactStore(tmp_path, capacity=1)
        (tmp_path / "objects").mkdir()
        with open(tmp_path / "objects" / f"{meta['checksum']}.npz", "wb") as fh:
            np.savez(fh, **members)
        manifest = dict(meta, name="old", version=1, content_hash=meta["checksum"])
        store.backend.write_bytes("manifests/old/000001.json", json.dumps(manifest).encode())
        store.backend.write_bytes("manifests/old/latest.json", b'{"version": 1}')

        assert store.verify("old@latest")
        x = np.random.default_rng(0).standard_normal((4,) + p1b2_shape)
        assert np.array_equal(store.get("old").predict(x), model.predict(x))
        ref = store.publish(model, "new", BENCHMARK, input_shape=p1b2_shape, hparams=HPARAMS)
        assert ref.content_hash == meta["checksum"] and store.dedup_hits == 1

        other = ArtifactStore(tmp_path / "fresh", capacity=1)
        blob = other.path_for(other.publish(model, "new", BENCHMARK, input_shape=p1b2_shape,
                                            hparams=HPARAMS))
        with np.load(blob) as new, np.load(tmp_path / "objects" / blob.name) as old:
            assert new.files == old.files
            assert all(np.array_equal(new[k], old[k]) for k in old.files)
            assert new["param_0000"].dtype == old["param_0000"].dtype


class TestPublishCost:
    """What a publish costs, pinned as counts: three atomic writes (two
    on a dedup hit), each one temp file and one install (the manifest's
    install is an exclusive ``os.link``, whose temp file is then
    removed), no directory made or removed once the store's directories
    exist, and a key access that checks only the key's own components:
    one ``os.lstat`` per component up to the first missing one, no
    ``stat`` and no ``Path.resolve`` unless the key holds a ``..`` or a
    symlink."""

    @pytest.fixture
    def counted(self, monkeypatch):
        counts = {}

        def count(owner, name):
            real = getattr(owner, name)

            def counting(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)

        for owner, name in [(tempfile, "mkstemp"), (tempfile, "mkdtemp"), (os, "replace"),
                            (os, "link"), (os, "mkdir"), (os, "rmdir"), (os, "unlink"),
                            (os, "lstat"), (os, "stat"), (Path, "resolve")]:
            count(owner, name)
        return counts

    def test_a_publish_is_three_atomic_writes(self, tmp_path, counted):
        store = ArtifactStore(tmp_path, capacity=1)
        store.publish(_tiny_model(bump=1), "m", BENCHMARK, hparams=HPARAMS)
        model = _tiny_model(bump=2)
        counted.clear()
        store.publish(model, "m", BENCHMARK, hparams=HPARAMS)
        # 6 key accesses, lstat per component walked: the blob's exists
        # and write (objects, then the missing blob: 2 + 2), the latest
        # hint's read (3), the forward probe for version 3 (3, the last
        # missing), the manifest's create (3) and the hint's write (3).
        assert counted == {"mkstemp": 3, "replace": 2, "link": 1, "unlink": 1, "lstat": 16}
        counted.clear()
        ref = store.publish(model, "m", BENCHMARK, hparams=HPARAMS)
        assert counted == {"mkstemp": 2, "replace": 1, "link": 1, "unlink": 1, "lstat": 14}
        assert store.dedup_hits == 1 and ref.version == 3

    @pytest.mark.parametrize("access", ["exists", "read_bytes", "write_bytes", "open_local"])
    def test_a_key_access_resolves_once(self, tmp_path, counted, access):
        """The key is resolved by one walk of its own components: an
        ``lstat`` each, and nothing above the root."""
        backend = LocalDirBackend(tmp_path / "reg")
        backend.write_bytes("a/b.json", b"{}")
        counted.clear()
        getattr(backend, access)(*(("a/b.json", b"[]") if access == "write_bytes" else ("a/b.json",)))
        writes = {"mkstemp": 1, "replace": 1} if access == "write_bytes" else {}
        assert counted == {"lstat": 2, **writes}

    @pytest.mark.parametrize("key, lstats", [("a/c.json", 2), ("c/d/e.json", 1),
                                             ("./a//b.json", 2), ("", 1)])
    def test_the_walk_stops_at_the_first_missing_component(self, tmp_path, counted, key, lstats):
        backend = LocalDirBackend(tmp_path / "reg")
        backend.write_bytes("a/b.json", b"{}")
        counted.clear()
        assert backend.exists(key) == (key == "./a//b.json")
        assert counted == {"lstat": lstats}

    @pytest.mark.parametrize("key", ["link/b.json", "a/../a/b.json", "a/b.json/.."])
    def test_a_symlink_or_dotdot_takes_the_fallback_once(self, tmp_path, counted, key):
        backend = LocalDirBackend(tmp_path / "reg")
        backend.write_bytes("a/b.json", b"{}")
        (tmp_path / "reg" / "link").symlink_to("a", target_is_directory=True)
        counted.clear()
        assert backend.exists(key) == (not key.endswith(".."))
        assert counted["resolve"] == 1

    def test_listings_read_only_the_asked_directory(self, tmp_path, monkeypatch):
        """``versions(name)`` reads that name's directory, and ``names()``
        the manifests directory plus the first entry of each name's: the
        entries either visits do not grow with another name's versions."""
        real = os.scandir
        seen = []

        class Counted:
            def __init__(self, path):
                self.it = real(path)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.it.close()

            def __iter__(self):
                return self

            def __next__(self):
                entry = next(self.it)
                seen.append(entry.name)
                return entry

        store = ArtifactStore(tmp_path, capacity=1)
        store.publish(_tiny_model(bump=1), "a", BENCHMARK, hparams=HPARAMS)
        visits = []
        for n_other in (1, 6):
            while store.latest_version("b") < n_other:
                store.publish(_tiny_model(bump=10 + n_other), "b", BENCHMARK, hparams=HPARAMS)
            with monkeypatch.context() as patch:
                patch.setattr(os, "scandir", Counted)
                seen.clear()
                assert store.versions("a") == [1]
                n_versions = len(seen)
                seen.clear()
                assert store.names() == ["a", "b"]
                visits.append((n_versions, len(seen)))
        # 000001.json + latest.json; a + b, then one entry in each
        assert visits == [(2, 4), (2, 4)]


def _churn_publisher(root, n_versions):
    from repro.registry import ArtifactStore

    store = ArtifactStore(root, capacity=1, warmup=False)
    model = _tiny_model()
    param = next(iter(model.parameters()))
    for i in range(n_versions):
        param.data.flat[0] = float(i)
        store.publish(model, "m", BENCHMARK, hparams=HPARAMS)


def _churn_reader_proc(root, ready, stop, out_q):
    from repro.registry import ArtifactStore

    store = ArtifactStore(root, capacity=1, warmup=False)
    ready.set()
    reads = errors = 0
    while not stop.is_set():
        try:
            store.get(store.resolve("m@latest"))
            reads += 1
        except KeyError:
            continue
        except Exception:
            errors += 1
    out_q.put((reads, errors))


def _racing_publisher(root, proc, n_versions, start, out_q):
    from repro.registry import ArtifactStore

    store = ArtifactStore(root, capacity=1, warmup=False)
    model = _tiny_model()
    param = next(iter(model.parameters()))
    start.wait(timeout=120)
    refs = []
    for i in range(n_versions):
        param.data.flat[0] = float(1000 * proc + i)  # distinct weights per publish
        ref = store.publish(model, "shared", BENCHMARK, hparams=HPARAMS)
        refs.append((ref.version, ref.content_hash))
    out_q.put(refs)


class TestConcurrentPublish:
    def test_two_publishers_lose_no_version(self, tmp_path):
        """Two processes publish 30 distinct weight sets each to one
        name: the versions are exactly 1..60, and every returned ref
        still resolves to the content it published."""
        ctx = mp.get_context("spawn")
        start, out_q = ctx.Event(), ctx.Queue()
        procs = [
            ctx.Process(target=_racing_publisher, args=(str(tmp_path), p, 30, start, out_q))
            for p in range(2)
        ]
        for proc in procs:
            proc.start()
        start.set()
        refs = out_q.get(timeout=120) + out_q.get(timeout=120)
        for proc in procs:
            proc.join(timeout=60)
            assert not proc.is_alive() and proc.exitcode == 0
        store = ArtifactStore(tmp_path, capacity=1)
        assert sorted(v for v, _ in refs) == list(range(1, 61))
        assert store.versions("shared") == list(range(1, 61))
        assert len({h for _, h in refs}) == 60
        for version, content_hash in refs:
            assert store.resolve(f"shared@{version}").content_hash == content_hash
        assert store.latest_version("shared") == 60
        assert store.resolve("shared@latest").version == 60


class TestChurn:
    def test_readers_never_see_torn_state_during_publish_churn(self, tmp_path):
        """Seeded miniature of the bench's headline scenario: reader
        processes hammer m@latest (checksum-verified loads) while the
        parent publishes a stream of versions.  Crash-safe ordering and
        atomic writes mean zero read errors, ever."""
        ctx = mp.get_context("spawn")
        stop, ready = ctx.Event(), ctx.Event()
        out_q = ctx.Queue()
        reader = ctx.Process(
            target=_churn_reader_proc, args=(str(tmp_path), ready, stop, out_q)
        )
        reader.start()
        try:
            assert ready.wait(timeout=120), "reader failed to start"
            _churn_publisher(str(tmp_path), 25)
        finally:
            stop.set()
        reads, errors = out_q.get(timeout=60)
        reader.join(timeout=60)
        assert errors == 0, f"reader saw {errors} torn/failed loads"
        assert reads > 0, "reader never completed a load"


class TestServingIntegration:
    def test_server_from_store_parity(self, tmp_path, p1b2_shape):
        model = _tiny_model()
        store = ArtifactStore(tmp_path)
        store.publish(model, "m", BENCHMARK, hparams=HPARAMS)
        x = np.random.default_rng(0).standard_normal((16,) + p1b2_shape)
        from repro.serve import BatchPolicy

        server = InferenceServer.from_store(
            store, "m", BatchPolicy(max_batch_size=16, max_wait_s=0.0)
        )
        handles = [server.submit(x[i]) for i in range(len(x))]
        server.drain()
        served = np.stack([h.result for h in handles])
        assert np.array_equal(served, model.predict(x, batch_size=16))

    def test_server_from_store_int8_default(self, tmp_path, p1b2_shape):
        model = get_benchmark(BENCHMARK).materialize(**HPARAMS)
        rng = np.random.default_rng(0)
        model.quantize_int8(rng.standard_normal((32,) + p1b2_shape))
        store = ArtifactStore(tmp_path)
        store.publish(model, "m", BENCHMARK, hparams=HPARAMS)
        server = InferenceServer.from_store(store, "m")
        assert server.precision == "int8"
        x = rng.standard_normal((8,) + p1b2_shape)
        assert np.array_equal(
            server.model.predict(x, precision="int8"),
            model.predict(x, precision="int8"),
        )

    def test_replica_group_from_store_parity(self, tmp_path, p1b2_shape):
        model = _tiny_model()
        store = ArtifactStore(tmp_path)
        store.publish(model, "m", BENCHMARK, hparams=HPARAMS)
        x = np.random.default_rng(0).standard_normal((8,) + p1b2_shape)
        with ReplicaGroup.from_store(
            store, "m@latest", n_replicas=1, hang_timeout_s=60.0
        ) as group:
            group.wait_ready()
            group.submit(0, x=x)
            result = group.poll(timeout=30.0)
        assert result is not None and result.status == "ok"
        assert np.array_equal(result.value, model.predict(x, batch_size=8))

    def test_layer_buffers_travel_with_the_artifact(self, tmp_path, p1b2_shape):
        """BatchNorm's running statistics are part of what was published:
        the store, the loader and the replicas' shared segments must hand
        back the trained model, not its parameters over fresh buffers."""
        hparams = {"hidden": (16,), "batch_norm": True}
        model = get_benchmark(BENCHMARK).materialize(**hparams)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((64,) + p1b2_shape)
        model.fit(x, rng.integers(0, 4, size=64), epochs=2, batch_size=16, loss="cross_entropy")
        store = ArtifactStore(tmp_path)
        ref = store.publish(model, "bn", BENCHMARK, hparams=hparams)
        assert ref.content_hash == weights_checksum(model.get_weights())
        want = model.predict(x[:8], batch_size=8)
        assert np.array_equal(store.get("bn").predict(x[:8], batch_size=8), want)
        with ReplicaGroup.from_store(store, "bn", n_replicas=1, hang_timeout_s=60.0) as group:
            group.wait_ready()
            group.submit(0, x=x[:8])
            result = group.poll(timeout=30.0)
        assert result is not None and result.status == "ok"
        assert np.array_equal(result.value, want)

    def _quantized_store(self, tmp_path, p1b2_shape):
        model = get_benchmark(BENCHMARK).materialize(**HPARAMS)
        rng = np.random.default_rng(0)
        model.quantize_int8(rng.standard_normal((32,) + p1b2_shape))
        store = ArtifactStore(tmp_path)
        store.publish(model, "m", BENCHMARK, hparams=HPARAMS)
        return store, model, rng.standard_normal((8,) + p1b2_shape)

    def test_swapped_blob_refused_by_server_and_group(self, tmp_path, monkeypatch):
        """Another object's self-consistent blob under this hash's key:
        neither front door may serve it, and no replica may start."""
        import repro.serve.distributed as distributed

        store = ArtifactStore(tmp_path)
        a = store.publish(_tiny_model(bump=1), "a", BENCHMARK, hparams=HPARAMS)
        b = store.publish(_tiny_model(bump=2), "b", BENCHMARK, hparams=HPARAMS)
        store.backend.write_bytes(
            f"objects/{a.content_hash}.npz",
            store.backend.read_bytes(f"objects/{b.content_hash}.npz"),
        )
        pools = []
        monkeypatch.setattr(
            distributed, "ProcessWorkerPool", lambda *a, **k: pools.append(a) or 1 / 0
        )
        with pytest.raises(CheckpointIntegrityError, match="address"):
            InferenceServer.from_store(store, "a")
        with pytest.raises(CheckpointIntegrityError, match="address"):
            ReplicaGroup.from_store(store, "a", n_replicas=1)
        assert pools == [], "a replica pool was started for a refused artifact"

    def test_replica_group_from_store_int8_default(self, tmp_path, p1b2_shape):
        store, model, x = self._quantized_store(tmp_path, p1b2_shape)
        with ReplicaGroup.from_store(store, "m", n_replicas=1, hang_timeout_s=60.0) as group:
            assert group.precision == "int8"
            group.wait_ready()
            group.submit(0, x=x)
            result = group.poll(timeout=30.0)
        assert result is not None and result.status == "ok"
        assert np.array_equal(result.value, model.predict(x, precision="int8"))

    def test_explicit_precision_beats_the_artifact_default(self, tmp_path, p1b2_shape):
        store, _, _ = self._quantized_store(tmp_path, p1b2_shape)
        assert InferenceServer.from_store(store, "m", precision="fp32").precision == "fp32"
        assert InferenceServer.from_store(store, "m", precision=None).precision is None
        with ReplicaGroup.from_store(
            store, "m", n_replicas=1, hang_timeout_s=60.0, precision="fp32"
        ) as group:
            assert group.precision == "fp32"
            group.wait_ready()

    def test_replica_group_from_store_uses_the_warm_cache(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.publish(_tiny_model(), "m", BENCHMARK, hparams=HPARAMS)
        resident = store.get("m@1")
        loads, hits = store.loads, store.hits
        with ReplicaGroup.from_store(store, "m@1", n_replicas=1, hang_timeout_s=60.0) as group:
            assert group.model is resident
            group.wait_ready()
        assert store.loads == loads, "the group decoded a blob that was already resident"
        assert store.hits == hits + 1
        assert store.get("m@1") is resident

    def test_replica_group_needs_a_manifest(self, tmp_path):
        store = ArtifactStore(tmp_path)
        ref = store.publish(_tiny_model(), "m", BENCHMARK, hparams=HPARAMS)
        with pytest.raises(ValueError, match="manifest"):
            ReplicaGroup.from_store(store, f"sha256:{ref.content_hash}")

    def test_campaign_publishes_with_lineage(self, tmp_path):
        from repro.hpo.space import Float, Int, SearchSpace
        from repro.workflow.campaign import run_campaign

        store = ArtifactStore(tmp_path, capacity=1)
        space = SearchSpace({"lr": Float(1e-4, 1e-2, log=True), "hidden1": Int(8, 16)})
        report = run_campaign(
            BENCHMARK, space, n_trials=2, n_workers=2, final_epochs=1,
            max_search_samples=60, publish_to=store, model_name="winner",
        )
        assert report.published is not None
        assert report.published.spec == "winner@1"
        lineage = store.resolve("winner").lineage
        assert lineage["strategy"] == "random"
        assert lineage["final_metric"] == pytest.approx(report.final_metric)
        # The published artifact serves: round-trip and predict.
        served = store.get("winner")
        spec = get_benchmark(BENCHMARK)
        x = np.random.default_rng(1).standard_normal((4,) + spec.input_shape())
        assert served.predict(x).shape[0] == 4
