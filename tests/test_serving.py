"""Tests for the batched inference serving subsystem (repro.serve)."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.candle.registry import get_benchmark
from repro.nn import (
    BatchNorm, Conv2D, Dense, Dropout, Flatten, Sequential, Tensor, amp, losses, no_grad,
    tape_node_count,
)
from repro.obs import TraceRecorder
from repro.registry import ArtifactStore, load_artifact, weights_checksum
from repro.serve import (
    AffineServiceTime,
    BatchPolicy,
    InferenceServer,
    LatencyHistogram,
    MicroBatcher,
    Request,
    ServingStats,
    simulate_serving,
)


@pytest.fixture(scope="module")
def p1b2_model():
    return get_benchmark("p1b2").materialize()


@pytest.fixture(scope="module")
def p1b2_shape():
    return get_benchmark("p1b2").input_shape()


def _req(i, t, x=None):
    return Request(request_id=i, x=np.zeros(1) if x is None else x, enqueue_time=t)


class TestBatchPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch_size=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_wait_s=-1)
        with pytest.raises(ValueError):
            BatchPolicy(max_queue=0)
        with pytest.raises(ValueError):
            BatchPolicy(timeout_s=0)


class TestMicroBatcher:
    def test_full_batch_triggers(self):
        b = MicroBatcher(BatchPolicy(max_batch_size=4, max_wait_s=10.0))
        for i in range(3):
            b.offer(_req(i, t=0.0))
        assert not b.ready(now=0.0)  # 3 < 4 and no wait elapsed
        b.offer(_req(3, t=0.0))
        assert b.ready(now=0.0)
        batch, expired = b.take(now=0.0)
        assert [r.request_id for r in batch] == [0, 1, 2, 3]
        assert expired == [] and b.depth == 0

    def test_max_wait_triggers_partial_batch(self):
        b = MicroBatcher(BatchPolicy(max_batch_size=4, max_wait_s=0.5))
        b.offer(_req(0, t=1.0))
        assert not b.ready(now=1.2)
        assert b.ready(now=1.5)

    def test_idle_capacity_dispatches_without_waiting(self):
        b = MicroBatcher(BatchPolicy(max_batch_size=4, max_wait_s=60.0))
        assert not b.ready(now=0.0, idle=True)  # nothing queued
        b.offer(_req(0, t=0.0))
        assert not b.ready(now=0.0)  # no capacity reported: full-or-timer
        assert b.ready(now=0.0, idle=True)

    def test_take_caps_at_max_batch(self):
        b = MicroBatcher(BatchPolicy(max_batch_size=2, max_wait_s=0.0, max_queue=10))
        for i in range(5):
            b.offer(_req(i, t=0.0))
        batch, _ = b.take(now=0.0)
        assert len(batch) == 2 and b.depth == 3

    def test_bounded_queue_sheds(self):
        b = MicroBatcher(BatchPolicy(max_batch_size=4, max_queue=2))
        assert b.offer(_req(0, t=0.0))
        assert b.offer(_req(1, t=0.0))
        rejected = _req(2, t=0.0)
        assert not b.offer(rejected)
        assert rejected.status == "shed"
        assert b.depth == 2

    def test_timeout_expires_in_take(self):
        b = MicroBatcher(BatchPolicy(max_batch_size=4, max_wait_s=0.0, timeout_s=1.0))
        b.offer(_req(0, t=0.0))
        b.offer(_req(1, t=5.0))
        batch, expired = b.take(now=5.5)
        assert [r.request_id for r in expired] == [0]
        assert expired[0].status == "timed_out"
        assert [r.request_id for r in batch] == [1]

    def test_fifo_order(self):
        b = MicroBatcher(BatchPolicy(max_batch_size=8))
        for i in range(5):
            b.offer(_req(i, t=float(i)))
        batch, _ = b.take(now=10.0)
        assert [r.request_id for r in batch] == list(range(5))


class TestLatencyHistogram:
    def test_percentiles_bracket_samples(self):
        h = LatencyHistogram()
        rng = np.random.default_rng(0)
        samples = rng.exponential(0.01, size=2000)
        for s in samples:
            h.observe(float(s))
        exact = np.percentile(samples, [50, 95, 99])
        for q, want in zip((50, 95, 99), exact):
            got = h.percentile(q)
            # Bucket resolution is 2**0.25 — within ~19% of exact.
            assert want / 1.25 <= got <= want * 1.25
        assert h.n == 2000
        assert h.mean == pytest.approx(samples.mean())
        assert h.percentile(100) == pytest.approx(samples.max())

    def test_tail_percentiles_separate_inside_one_bucket(self):
        # Few samples, all in one 2**0.25-wide bucket: rank interpolation
        # keeps p50 < p95 < p99 instead of reporting the bucket edge
        # (i.e. max) for all three.
        h = LatencyHistogram()
        samples = np.linspace(0.0101, 0.0115, 20)
        for s in samples:
            h.observe(float(s))
        assert np.count_nonzero(h.counts) == 1
        p50, p95, p99 = (h.percentile(q) for q in (50, 95, 99))
        assert samples.min() <= p50 < p95 < p99 <= h.max
        assert h.percentile(100) == h.max == samples.max()

    EDGES = LatencyHistogram().edges

    @staticmethod
    def _bucket(value):
        h = LatencyHistogram()
        h.observe(value)
        return int(np.flatnonzero(h.counts)[0])

    def test_bucket_is_searchsorted_right_at_every_edge(self):
        # observe() bisects a list copy of the edges; the reference is
        # the array search it replaced, probed where they could disagree.
        edges = self.EDGES
        probes = np.concatenate([
            edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
            [0.0, np.inf],
        ])
        for v in probes:
            for value in (v, float(v)):  # np.float64 and plain float alike
                assert self._bucket(value) == np.searchsorted(edges, value, side="right"), value

    @given(value=st.floats(min_value=0.0, allow_nan=False))
    def test_bucket_is_searchsorted_right_on_drawn_values(self, value):
        assert self._bucket(value) == np.searchsorted(self.EDGES, value, side="right")

    def test_empty_and_validation(self):
        h = LatencyHistogram()
        assert h.percentile(99) == 0.0
        with pytest.raises(ValueError):
            h.observe(-1.0)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_accounting_invariant_helper(self):
        s = ServingStats()
        s.submitted = 10
        s.completed = 6
        s.shed = 2
        s.timed_out = 1
        assert s.accounted(still_queued=1)
        assert not s.accounted(still_queued=0)


class TestInferenceServer:
    def test_bit_identical_to_predict(self, p1b2_model, p1b2_shape):
        x = np.random.default_rng(0).standard_normal((96,) + p1b2_shape)
        server = InferenceServer(p1b2_model, BatchPolicy(max_batch_size=32, max_wait_s=0.0))
        handles = [server.submit(x[i]) for i in range(len(x))]
        server.drain()
        served = np.stack([h.result for h in handles], axis=0)
        reference = p1b2_model.predict(x, batch_size=32)
        np.testing.assert_array_equal(served, reference)
        assert server.stats.completed == len(x)
        assert server.stats.accounted(still_queued=0)

    def test_batches_follow_policy(self, p1b2_model, p1b2_shape):
        x = np.random.default_rng(1).standard_normal((10,) + p1b2_shape)
        server = InferenceServer(p1b2_model, BatchPolicy(max_batch_size=4, max_wait_s=0.0, max_queue=100))
        for i in range(len(x)):
            server.submit(x[i])
        server.drain()
        assert server.stats.batches == 3  # 4 + 4 + 2
        assert server.stats.mean_batch_size == pytest.approx(10 / 3)
        assert 0 < server.stats.occupancy(4) <= 1

    def test_shed_on_full_queue(self, p1b2_model, p1b2_shape):
        x = np.random.default_rng(2).standard_normal((8,) + p1b2_shape)
        server = InferenceServer(p1b2_model, BatchPolicy(max_batch_size=4, max_wait_s=0.0, max_queue=4))
        handles = [server.submit(x[i]) for i in range(8)]
        assert server.stats.shed == 4
        assert sum(1 for h in handles if h.status == "shed") == 4
        server.drain()
        assert server.stats.accounted(still_queued=0)

    def test_timeout_in_queue(self, p1b2_model, p1b2_shape):
        # Simulated clock so the timeout is exact, not sleep-based.
        clock = {"t": 0.0}
        server = InferenceServer(
            p1b2_model,
            BatchPolicy(max_batch_size=4, max_wait_s=0.0, timeout_s=0.5),
            clock=lambda: clock["t"],
        )
        x = np.random.default_rng(3).standard_normal((2,) + p1b2_shape)
        stale = server.submit(x[0])
        clock["t"] = 1.0
        fresh = server.submit(x[1])
        server.step(force=True)
        assert stale.status == "timed_out"
        assert fresh.status == "completed"
        assert server.stats.timed_out == 1
        assert server.stats.accounted(still_queued=0)

    def test_empty_drain_is_noop(self, p1b2_model):
        server = InferenceServer(p1b2_model)
        assert server.drain() == 0
        assert server.step() == 0

    def test_profiler_sees_serve_batch_op(self, p1b2_model, p1b2_shape):
        # The op-timing recorder sees each batch as a serve.batch span and
        # the ops inside it as op.<name> histograms with their tail.
        rec = TraceRecorder(ops=True)
        server = InferenceServer(p1b2_model, BatchPolicy(max_batch_size=8, max_wait_s=0.0))
        x = np.random.default_rng(4).standard_normal((16,) + p1b2_shape)
        with rec:
            for i in range(len(x)):
                server.submit(x[i])
            server.drain()
        assert len(rec.spans(kind="serve.batch")) == 2
        linear_act = rec.metrics.histogram("op.linear_act")
        assert linear_act.n > 0  # inner ops attributed too
        summary = linear_act.summary()
        assert summary["p50_s"] <= summary["p95_s"] <= summary["p99_s"] <= summary["max_s"]


class TestModelRegistry:
    """The cases of the retired ``serve.ModelRegistry`` facade, held
    against the one loader it wrapped: ``ArtifactStore.get``."""

    def _publish(self, store, name="p1b2", seed=0):
        spec = get_benchmark("p1b2")
        shape = spec.input_shape()
        model = spec.materialize(input_shape=shape, seed=seed)
        ref = store.publish(model, name, "p1b2", input_shape=shape)
        return model, ref, shape

    def test_publish_load_roundtrip_identical(self, tmp_path):
        store = ArtifactStore(tmp_path, capacity=2, warmup=True)
        model, ref, shape = self._publish(store)
        for meta in (store.resolve("p1b2").meta, load_artifact(store.path_for(ref))[0]):
            assert meta["benchmark"] == "p1b2"
            assert tuple(meta["input_shape"]) == shape

        loaded = store.get("p1b2")
        x = np.random.default_rng(0).standard_normal((16,) + shape)
        np.testing.assert_array_equal(loaded.predict(x), model.predict(x))

    def test_lru_eviction(self, tmp_path):
        store = ArtifactStore(tmp_path, capacity=1)
        self._publish(store, "a", seed=0)
        _, ref_b, _ = self._publish(store, "b", seed=1)
        store.get("a")
        store.get("b")  # evicts a
        assert store.cache.keys() == [ref_b.content_hash]
        assert store.evictions == 1
        store.get("a")  # reload from disk
        assert store.loads == 3
        store.get("a")  # cache hit
        assert store.hits == 1

    def test_cache_hit_returns_same_object(self, tmp_path):
        store = ArtifactStore(tmp_path, capacity=2)
        self._publish(store, "m")
        assert store.get("m") is store.get("m")

    def test_unknown_name(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(KeyError):
            store.get("nope")
        self._publish(store, "m")
        with pytest.raises(KeyError):
            store.get("m@9")

    def test_non_serving_checkpoint_rejected(self, tmp_path, p1b2_model):
        from repro.nn.serialization import save_weights

        path = tmp_path / "raw.npz"
        save_weights(p1b2_model, path)
        with pytest.raises(ValueError):
            load_artifact(path)

    def test_publish_validates_benchmark(self, tmp_path, p1b2_model):
        with pytest.raises(ValueError):
            ArtifactStore(tmp_path).publish(p1b2_model, "x", "not_a_benchmark", (3,))

    def test_checksum_recorded_at_publish(self, tmp_path):
        store = ArtifactStore(tmp_path)
        model, ref, _ = self._publish(store)
        checksum = weights_checksum(model.get_weights())
        assert ref.meta["checksum"] == checksum
        assert load_artifact(store.path_for(ref))[0]["checksum"] == checksum

    def test_truncated_checkpoint_refused(self, tmp_path):
        from repro.serve import CheckpointIntegrityError

        store = ArtifactStore(tmp_path)
        _, ref, _ = self._publish(store, "m")
        path = store.path_for(ref)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointIntegrityError):
            load_artifact(path)
        with pytest.raises(CheckpointIntegrityError):
            store.get("m")

    def test_corrupt_weights_refused(self, tmp_path):
        from repro.serve import CheckpointIntegrityError

        store = ArtifactStore(tmp_path)
        _, ref, _ = self._publish(store, "m")
        path = store.path_for(ref)
        with np.load(path) as data:
            arrays = {k: data[k].copy() for k in data.files}
        key = next(k for k in sorted(arrays) if k.startswith("param_") and arrays[k].size)
        arrays[key] = arrays[key] + 1.0  # single-array bit rot, zip still valid
        np.savez(path, **arrays)
        with pytest.raises(CheckpointIntegrityError, match="checksum mismatch"):
            load_artifact(path)
        with pytest.raises(CheckpointIntegrityError, match="checksum mismatch"):
            store.get("m")


class TestSimulatedServing:
    POLICY = BatchPolicy(max_batch_size=16, max_wait_s=0.002, max_queue=64, timeout_s=0.5)
    SERVICE = AffineServiceTime(base_s=1e-3, per_sample_s=1e-4)

    def test_deterministic(self):
        a = simulate_serving(self.POLICY, self.SERVICE, arrival_rate=2000.0, n_requests=500, seed=7)
        b = simulate_serving(self.POLICY, self.SERVICE, arrival_rate=2000.0, n_requests=500, seed=7)
        assert a == b

    def test_accounting_always_balances(self):
        for rate in (500.0, 5000.0, 50000.0):
            out = simulate_serving(self.POLICY, self.SERVICE, arrival_rate=rate, n_requests=400, seed=0)
            assert out["accounted"], f"accounting broke at rate {rate}"
            assert out["submitted"] == 400

    def test_latency_grows_with_load(self):
        low = simulate_serving(self.POLICY, self.SERVICE, arrival_rate=1000.0, n_requests=800, seed=1)
        high = simulate_serving(self.POLICY, self.SERVICE, arrival_rate=20000.0, n_requests=800, seed=1)
        assert high["latency"]["p99_s"] >= low["latency"]["p99_s"]
        assert high["batches"] <= low["batches"]  # bigger batches under load

    def test_overload_sheds(self):
        # Peak throughput ~= 16 / (1e-3 + 16e-4) ~= 6150 rps; offering
        # 10x that must shed at a bounded queue.
        out = simulate_serving(self.POLICY, self.SERVICE, arrival_rate=60000.0, n_requests=2000, seed=2)
        assert out["shed"] > 0
        assert out["accounted"]
        assert out["utilization"] <= 1.0

    def test_light_load_latency_is_service_time_not_the_timer(self):
        # Far below capacity nearly every request meets an idle server
        # and is served alone, at once: p50 is the service time of a
        # batch of 1 (to the histogram's 2**0.25 bucket), not max_wait_s
        # on top of it.
        alone = self.SERVICE(1)
        out = simulate_serving(self.POLICY, self.SERVICE, arrival_rate=10.0, n_requests=400, seed=3)
        p50 = out["latency"]["p50_s"]
        assert p50 < self.POLICY.max_wait_s
        assert alone / 2 ** 0.25 <= p50 <= alone * 2 ** 0.25
        assert out["completed"] == out["submitted"] == 400 and out["accounted"]
        assert out == simulate_serving(self.POLICY, self.SERVICE, arrival_rate=10.0, n_requests=400, seed=3)

    @pytest.mark.parametrize("rate, n, seed, completed, batches, p50_s, p99_s", [
        (10.0, 400, 3, 400, 400, 0.001158426263826606, 0.0015792238852177316),
        (1000.0, 800, 1, 800, 552, 0.0016248281549393509, 0.0025021989256212764),
        (2000.0, 500, 7, 500, 203, 0.001958341519974916, 0.0029931736253027436),
    ])
    def test_below_capacity_matches_one_server_loop(self, rate, n, seed, completed, batches, p50_s, p99_s):
        # Figures of the one-server dispatch loop the simulator used to
        # run.  Below capacity no max_wait_s timer fires while the replica
        # is busy, so the Router on sim time must batch exactly as it did.
        out = simulate_serving(self.POLICY, self.SERVICE, arrival_rate=rate, n_requests=n, seed=seed)
        assert (out["completed"], out["batches"]) == (completed, batches)
        assert (out["latency"]["p50_s"], out["latency"]["p99_s"]) == (p50_s, p99_s)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_serving(self.POLICY, self.SERVICE, arrival_rate=0.0, n_requests=10)
        with pytest.raises(ValueError):
            simulate_serving(self.POLICY, self.SERVICE, arrival_rate=1.0, n_requests=0)


def _eager(model, x, batch_size):
    """The reference ``predict`` is held to: every batch through the tape
    under ``no_grad``, one output per batch."""
    with no_grad():
        return [model.forward(Tensor(x[s : s + batch_size]), training=False).data
                for s in range(0, len(x), batch_size)]


@contextlib.contextmanager
def _tape_free_calls():
    """Record every ``infer`` call Dense and Dropout layers take."""
    calls = []
    originals = {cls: cls.infer for cls in (Dense, Dropout)}

    def spy(fn):
        def infer(self, xd):
            calls.append(type(self).__name__)
            return fn(self, xd)
        return infer

    for cls, fn in originals.items():
        cls.infer = spy(fn)
    try:
        yield calls
    finally:
        for cls, fn in originals.items():
            cls.infer = fn


class _Doubled(Sequential):
    def forward(self, x, training=True):
        return super().forward(x, training=training) * 2.0


class TestTapeFreePredict:
    """``Model.predict`` runs a Dense/Dropout stack without the tape; the
    eager ``no_grad`` forward stays the reference it must match bit for
    bit, and the path it falls back to wherever they could differ."""

    @settings(max_examples=40, deadline=None)
    @given(
        # None is a Dropout; a stack of only those hands the input through.
        stack=st.lists(
            st.none() | st.tuples(st.integers(1, 6), st.sampled_from([None, "relu", "tanh"])),
            min_size=1, max_size=4,
        ),
        fp32=st.booleans(),
        batch_size=st.integers(1, 5),
        extra_rows=st.integers(-4, 7),
        mutation=st.sampled_from(["set_weights", "astype", "rebind"]),
        seed=st.integers(0, 2**16),
    )
    def test_predict_is_the_eager_forward(self, stack, fp32, batch_size, extra_rows, mutation, seed):
        rng = np.random.default_rng(seed)
        layers = [Dropout(0.3) if s is None else Dense(s[0], activation=s[1]) for s in stack]
        width = next((s[0] for s in reversed(stack) if s is not None), 3)
        model = Sequential(layers)
        model.build((3,), rng)
        precision = None
        if fp32:
            model.astype(np.float32)
            precision = "fp32"
        n = max(1, batch_size + extra_rows)  # one batch, several, a ragged tail
        x = rng.standard_normal((n, 3))
        x_in = x.astype(np.float32) if fp32 else x
        x_bytes = x.tobytes()

        nodes = tape_node_count()
        with _tape_free_calls() as calls:
            out = model.predict(x, batch_size=batch_size, precision=precision)
        assert calls, "the Dense/Dropout stack took the tape"
        ref = _eager(model, x_in, batch_size)
        assert out.dtype == ref[0].dtype and out.shape == (n, width)
        for i, want in enumerate(ref):
            assert out[i * batch_size : (i + 1) * batch_size].tobytes() == want.tobytes()

        # evaluate's loss is the one the eager forward gives.
        y = rng.standard_normal(out.shape)
        loss_fn = losses.get("mse")
        total = 0.0
        with no_grad():
            for i, pred in enumerate(ref):
                total += loss_fn(Tensor(pred), y[i * batch_size : (i + 1) * batch_size]).item() * len(pred)
        assert model.evaluate(x_in, y, loss="mse", batch_size=batch_size)["loss"] == total / n
        assert tape_node_count() == nodes

        # The result is the caller's: writing into it touches neither the
        # input nor the next answer.
        out[...] = 7.0
        assert x.tobytes() == x_bytes
        again = model.predict(x, batch_size=batch_size, precision=precision)
        assert again.tobytes() == np.concatenate(ref).tobytes()

        # Weights are read per call, never cached.
        if mutation == "set_weights":
            model.set_weights([w * 0.5 + 0.25 for w in model.get_weights()])
        elif mutation == "astype":
            model.astype(np.float64 if fp32 else np.float32)
        else:
            for p in model.parameters():
                p.data = -p.data
        after = model.predict(x, batch_size=batch_size)
        assert after.tobytes() == np.concatenate(_eager(model, x, batch_size)).tobytes()

    @pytest.mark.parametrize("case", [
        "profiler", "instance_forward", "autocast", "forward_override", "conv2d", "batchnorm",
        "sigmoid", "3d_input",
    ])
    def test_eager_wherever_the_tape_free_path_could_differ(self, case):
        rng = np.random.default_rng(11)
        shape = (4,)
        layers = [Dense(6, activation="relu"), Dropout(0.2), Dense(3)]
        model_cls = _Doubled if case == "forward_override" else Sequential
        if case == "3d_input":
            # Dense on (N, T, F) is the unfused composition, whose relu
            # maps NaN to 0 where the fused epilogue keeps it.
            shape = (2, 4)
        elif case == "conv2d":
            shape = (1, 5, 5)
            layers = [Conv2D(2, 3, activation="relu"), Flatten(), Dense(3)]
        elif case == "batchnorm":
            layers = [Dense(6), BatchNorm(), Dense(3)]
        elif case == "sigmoid":
            layers = [Dense(6, activation="sigmoid"), Dense(3)]
        model = model_cls(layers)
        model.build(shape, rng)
        x = rng.standard_normal((10,) + shape)
        x.flat[0] = np.nan
        rec = TraceRecorder(ops=True)
        around = contextlib.nullcontext()
        if case == "profiler":  # a recorder timing every op
            around = rec
        elif case == "instance_forward":  # forward replaced on the instance
            forward = model.forward
            model.forward = lambda x, training=True: forward(x, training=training)
        elif case == "autocast":
            around = amp.autocast("bf16")

        with _tape_free_calls() as calls, around:
            out = model.predict(x, batch_size=4)
            ref = _eager(model, x, 4)
        assert not calls
        assert out.tobytes() == np.concatenate(ref).tobytes()
        if case == "profiler":
            # Every op of every batch is seen (the reference pass included).
            assert rec.metrics.histogram("op.linear_act").n == 2 * 3 * 2

    def test_server_profiler_sees_the_ops_of_every_batch(self, p1b2_model, p1b2_shape):
        rec = TraceRecorder(ops=True)
        server = InferenceServer(p1b2_model, BatchPolicy(max_batch_size=4, max_wait_s=0.0))
        x = np.random.default_rng(6).standard_normal((12,) + p1b2_shape)
        with _tape_free_calls() as calls, rec:
            handles = [server.submit(row) for row in x]
            server.drain()
        assert not calls
        n_dense = sum(isinstance(layer, Dense) for layer in p1b2_model.layers)
        assert len(rec.spans(kind="serve.batch")) == 3
        assert rec.metrics.histogram("op.linear_act").n == 3 * n_dense
        served = np.stack([h.result for h in handles])
        assert served.tobytes() == np.concatenate(_eager(p1b2_model, x, 4)).tobytes()

    def test_int8_serving_runs_the_plan(self, p1b2_shape):
        model = get_benchmark("p1b2").materialize()
        x = np.random.default_rng(7).standard_normal((24,) + p1b2_shape)
        plan = model.quantize_int8(x)
        server = InferenceServer(model, BatchPolicy(max_batch_size=8, max_wait_s=0.0), precision="int8")
        with _tape_free_calls() as calls:
            handles = [server.submit(row) for row in x]
            server.drain()
        assert not calls
        served = np.stack([h.result for h in handles])
        want = np.concatenate([plan.forward(x[s : s + 8]) for s in (0, 8, 16)])
        assert served.tobytes() == want.tobytes()
