"""Tests for the content-addressed model registry (repro.registry).

Covers the store's publish/resolve/get flow, the loader-bug regressions
this subsystem fixes (a republish must reload; the double checkpoint
read), the drift the merged load path closes (server and replica group
refuse, default and cache alike), the failure paths (corrupt artifacts, alias
repoints under a concurrent reader, eviction mid-``get``, unsupported
dtypes), the backend contract, and a seeded publisher-vs-readers churn.
"""

import json
import multiprocessing as mp

import numpy as np
import pytest

from repro.candle.registry import get_benchmark
from repro.registry import (
    ArtifactStore,
    CheckpointIntegrityError,
    InMemoryBackend,
    LocalDirBackend,
    UnsupportedDtypeError,
    WarmModelCache,
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


class TestBackends:
    def test_local_dir_key_escape_refused(self, tmp_path):
        backend = LocalDirBackend(tmp_path / "reg")
        with pytest.raises(ValueError):
            backend.read_bytes("../outside")

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

    def test_store_requires_root_or_backend(self):
        with pytest.raises(ValueError):
            ArtifactStore()


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
