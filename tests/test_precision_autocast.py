"""The real reduced-precision datapath: autocast, fit(precision=...),
int8 kernels, and the serving integration.

Complements ``test_precision.py`` (the *emulated* PrecisionPolicy half)
and the narrow-format sweep in ``test_gradcheck_sweep.py`` (per-layer
fp32/bf16 parity).  Here the contracts are:

* ``autocast`` — bf16 snapping semantics (RNE to the bf16 grid),
  reentrancy, and the storage dtype each format produces;
* ``Model.fit(precision=...)`` — fp32 master weights, loss decreases,
  loss scaling engages for fp16 and skips steps on overflow;
* int8 — ``int8_linear`` matches the ``fake_quantize`` reference
  numerics, the exact-f32 GEMM path is bit-identical to the int32 path,
  and plan specs rebuild bit-identical datapaths;
* dtype preservation — the data pipeline (DataLoader)
  never round-trips float32 through float64;
* serving — int8 through the micro-batching server is bit-identical to
  direct predict, checkpoints carry dtype + quantization metadata, and
  unsupported-dtype checkpoints are refused.
"""

import json

import numpy as np
import pytest

from repro.nn import Model, Sequential, Tensor, no_grad
from repro.nn import functional as F
from repro.nn.amp import active, autocast, get_plan, snap_bf16, snap_bf16_
from repro.nn.dataloader import DataLoader
from repro.nn.layers import Dense
from repro.precision import (
    INT8_GEMM_EXACT_MAX_K,
    FitPrecision,
    Int8Plan,
    QuantParams,
    int8_linear,
    plan_from_spec,
    quantize_activations,
    quantize_model,
)
from repro.registry import ArtifactStore, load_artifact
from repro.serve import BatchPolicy, InferenceServer, UnsupportedDtypeError


def _mlp(units=(16, 8), n_out=3):
    m = Sequential()
    for u in units:
        m.add(Dense(u, activation="relu"))
    m.add(Dense(n_out))
    return m


def _class_data(n=96, d=12, c=3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    y = rng.integers(0, c, n)
    return x, y


# ----------------------------------------------------------------------
# autocast semantics
# ----------------------------------------------------------------------
class TestAutocast:
    def test_snap_bf16_is_round_to_nearest_even_on_the_grid(self):
        # bf16 keeps 7 explicit mantissa bits, so in [1, 2) the grid
        # step is 2^-7; the midpoint 1 + 2^-8 must round to the even
        # mantissa (1.0), not up.
        lo, step = np.float32(1.0), np.float32(2.0**-7)
        mid = np.float32(1.0 + 2.0**-8)
        out = snap_bf16(np.array([lo, lo + step, mid], dtype=np.float32))
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, [lo, lo + step, lo])

    def test_snap_is_idempotent_and_in_place_variant_mutates(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(64).astype(np.float32)
        snapped = snap_bf16(a)
        np.testing.assert_array_equal(snap_bf16(snapped), snapped)
        snap_bf16_(a)
        np.testing.assert_array_equal(a, snapped)

    def test_reentrant_and_restores_previous_plan(self):
        assert active() is None
        with autocast("bf16"):
            assert active() is get_plan("bf16")
            with autocast("fp16"):
                assert active() is get_plan("fp16")
            assert active() is get_plan("bf16")
        assert active() is None

    def test_unknown_format_rejected(self):
        with pytest.raises((KeyError, ValueError)):
            with autocast("fp8"):
                pass  # pragma: no cover

    def test_linear_act_output_dtypes_per_format(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((4, 6)).astype(np.float32))
        w = Tensor(rng.standard_normal((6, 5)).astype(np.float32))
        b = Tensor(rng.standard_normal(5).astype(np.float32))
        with no_grad():
            ref = F.linear_act(x, w, b, activation="relu").data
            with autocast("bf16"):
                out_bf16 = F.linear_act(x, w, b, activation="relu").data
            with autocast("fp16"):
                out_fp16 = F.linear_act(x, w, b, activation="relu").data
        # bf16 stores on the bf16 grid inside float32; fp16 natively.
        assert out_bf16.dtype == np.float32
        np.testing.assert_array_equal(snap_bf16(out_bf16), out_bf16)
        assert out_fp16.dtype == np.float16
        np.testing.assert_allclose(out_bf16, ref, rtol=2e-2, atol=2e-2)
        np.testing.assert_allclose(
            out_fp16.astype(np.float32), ref, rtol=5e-3, atol=5e-3)


# ----------------------------------------------------------------------
# fit(precision=...)
# ----------------------------------------------------------------------
class TestFitPrecision:
    @pytest.mark.parametrize("fmt", ["fp32", "bf16", "fp16"])
    def test_fit_trains_with_fp32_masters(self, fmt):
        x, y = _class_data()
        model = _mlp()
        hist = model.fit(x, y, epochs=4, batch_size=32, loss="cross_entropy",
                         lr=1e-2, seed=0, precision=fmt)
        losses = hist.series("loss")
        assert losses[-1] < losses[0], f"{fmt}: loss did not decrease ({losses})"
        # Master weights stay float32 regardless of the compute format.
        assert all(p.data.dtype == np.float32 for p in model.parameters())
        stats = hist.precision
        assert stats["format"] == fmt and stats["steps"] > 0
        if fmt == "fp16":
            assert stats["final_loss_scale"] is not None

    def test_unknown_precision_rejected(self):
        x, y = _class_data(n=32)
        with pytest.raises((KeyError, ValueError)):
            _mlp().fit(x, y, epochs=1, loss="cross_entropy", precision="int4")

    def test_overflow_skips_step_and_halves_scale(self):
        p = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        state = FitPrecision("fp16", [p])
        scale0 = state.scale
        assert scale0 > 1.0  # loss scaling on by default for fp16

        p.grad = np.array([np.inf, 0.0, 0.0], dtype=np.float32)
        assert not state.unscale_and_check()  # overflow: step must be skipped
        assert state.scale < scale0
        assert state.stats()["skipped_steps"] == 1

        p.grad = np.ones(3, dtype=np.float32)
        assert state.unscale_and_check()  # finite grads pass through
        np.testing.assert_allclose(p.grad, 1.0 / state.scale, rtol=1e-6)

    @pytest.mark.parametrize("fmt", ["fp32", "bf16", "fp16"])
    def test_fit_casts_layer_buffers_too(self, fmt):
        # BatchNorm's running statistics are layer buffers, not
        # parameters: the fit's cast must reach them, or get_weights()
        # comes back mixed and an fp32 predict returns float64.
        from repro.nn import BatchNorm

        x, y = _class_data(n=64)
        model = Sequential([Dense(8), BatchNorm(), Dense(3)])
        model.fit(x, y, epochs=2, batch_size=32, loss="cross_entropy",
                  lr=1e-2, seed=0, precision=fmt)
        assert {w.dtype for w in model.get_weights()} == {np.dtype(np.float32)}
        assert model.predict(x, precision="fp32").dtype == np.float32

    def test_bf16_diverges_from_fp32_eventually(self):
        # The bf16 path must actually round: identical trajectories would
        # mean autocast is a no-op.
        x, y = _class_data(n=128, seed=3)
        weights = {}
        for fmt in ("fp32", "bf16"):
            model = _mlp()
            model.fit(x, y, epochs=3, batch_size=32, loss="cross_entropy",
                      lr=1e-2, seed=0, precision=fmt)
            weights[fmt] = np.concatenate(
                [p.data.ravel() for p in model.parameters()])
        assert np.max(np.abs(weights["fp32"] - weights["bf16"])) > 0.0

    @pytest.mark.parametrize("fmt", ["fp32", "bf16", "fp16"])
    def test_loss_trajectory_tracks_fp64(self, fmt):
        # Narrow formats change rounding, not learning: on P1B2 every
        # epoch loss stays within 10% (of the first fp64 loss) of the
        # fp64 run's.
        from repro.candle import get_benchmark

        bm = get_benchmark("p1b2")
        x, y = bm.make_data(seed=0)
        losses = {}
        for precision in (None, fmt):
            hist = bm.build_model().fit(x[:160], y[:160], epochs=2, batch_size=32,
                                        loss=bm.loss, lr=1e-3, seed=0, precision=precision)
            losses[precision] = np.asarray(hist.series("loss"), dtype=np.float64)
        dev = np.max(np.abs(losses[fmt] - losses[None])) / abs(losses[None][0])
        assert dev <= 0.1


# ----------------------------------------------------------------------
# int8 kernels
# ----------------------------------------------------------------------
class TestInt8Linear:
    def _quantized_operands(self, n=8, k=12, u=5, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, k))
        w = rng.standard_normal((k, u))
        px, pw = QuantParams(scale=0.05), QuantParams(scale=0.02)
        return x, w, px, pw

    def test_matches_fake_quantize_reference(self):
        x, w, px, pw = self._quantized_operands()
        bias = np.linspace(-1, 1, 5, dtype=np.float32)
        out = int8_linear(px.quantize(x), pw.quantize(w),
                          px.scale, pw.scale, bias=bias)
        # Reference semantics: the dequantized operands multiplied in
        # full precision — int8 accumulation must be *exactly* this.
        ref = px.fake_quantize(x) @ pw.fake_quantize(w) + bias
        np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-6)

    def test_exact_f32_path_matches_int32_path_bitwise(self):
        x, w, px, pw = self._quantized_operands(k=64)
        assert 64 <= INT8_GEMM_EXACT_MAX_K
        qx, qw = px.quantize(x), pw.quantize(w)
        fast = int8_linear(qx, qw, px.scale, pw.scale, exact_f32=True)
        slow = int8_linear(qx, qw, px.scale, pw.scale, exact_f32=False)
        np.testing.assert_array_equal(fast, slow)

    def test_activation_epilogues(self):
        x, w, px, pw = self._quantized_operands()
        qx, qw = px.quantize(x), pw.quantize(w)
        base = int8_linear(qx, qw, px.scale, pw.scale)
        relu = int8_linear(qx, qw, px.scale, pw.scale, act="relu")
        np.testing.assert_allclose(relu, np.maximum(base, 0.0), rtol=1e-6)

    def test_quantize_activations_lands_on_integer_grid(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((16, 8)).astype(np.float32) * 10
        q = quantize_activations(a, scale=0.05)
        assert q.dtype == np.float32
        np.testing.assert_array_equal(q, np.rint(q))
        assert np.abs(q).max() <= 127


class TestInt8Plan:
    def _trained(self, seed=0):
        x, y = _class_data(n=128, seed=seed)
        model = _mlp()
        model.fit(x, y, epochs=3, batch_size=32, loss="cross_entropy",
                  lr=1e-2, seed=0, precision="fp32")
        return model, x.astype(np.float32), y

    def test_predict_int8_tracks_fp32(self):
        model, x, _ = self._trained()
        model.quantize_int8(x)
        ref = model.predict(x, precision="fp32")
        out = model.predict(x, precision="int8")
        assert out.dtype == np.float32
        # Quantization noise, not divergence: logits agree to ~1e-1.
        np.testing.assert_allclose(out, ref, atol=0.15)

    def test_spec_roundtrip_is_bit_identical(self):
        model, x, _ = self._trained()
        plan = model.quantize_int8(x)
        spec = json.loads(json.dumps(plan.spec()))  # through JSON, as served
        rebuilt = plan_from_spec(model, spec)
        np.testing.assert_array_equal(
            rebuilt.forward(x), plan.forward(x))

    def test_plan_survives_shm_arrays_roundtrip(self):
        model, x, _ = self._trained()
        plan = model.quantize_int8(x)
        arrays = {k: np.array(v) for k, v in plan.arrays().items()}
        rebuilt = Int8Plan(plan.spec(), arrays)
        np.testing.assert_array_equal(rebuilt.forward(x), plan.forward(x))

    def test_predict_int8_without_plan_is_actionable(self):
        model, x, _ = self._trained()
        with pytest.raises(RuntimeError, match="quantize_int8"):
            model.predict(x, precision="int8")

    def test_predict_fp32_requires_fp32_weights(self):
        x, y = _class_data(n=32)
        model = _mlp()
        model.fit(x, y, epochs=1, batch_size=32, loss="cross_entropy")  # fp64
        with pytest.raises(ValueError, match="astype"):
            model.predict(x, precision="fp32")

    def test_quantize_model_does_not_mutate_calibration_input(self):
        model, x, _ = self._trained()
        before = x.copy()
        quantize_model(model, x)
        np.testing.assert_array_equal(x, before)


# ----------------------------------------------------------------------
# dtype preservation through the data pipeline (regression: satellite
# upcasts used to sneak in through float64 batch assembly)
# ----------------------------------------------------------------------
class TestPipelineDtypePreservation:
    def test_dataloader_dtype_casts_once_and_batches_stay_narrow(self):
        x, y = _class_data(n=40, seed=5)
        loader = DataLoader(x, y, batch_size=16, dtype=np.float32, seed=0)
        for xb, yb in loader:
            assert xb.dtype == np.float32
            assert yb.dtype == y.dtype  # integer labels pass through

    def test_dataloader_is_dtype_transparent_without_cast(self):
        x = np.random.default_rng(0).standard_normal((20, 4)).astype(np.float32)
        for shuffle in (False, True):
            for xb, _ in DataLoader(x, None, batch_size=8, shuffle=shuffle):
                assert xb.dtype == np.float32


# ----------------------------------------------------------------------
# serving integration
# ----------------------------------------------------------------------
class TestServingPrecision:
    def _served_model(self):
        from repro.candle import get_benchmark

        bm = get_benchmark("p1b2")
        x, y = bm.make_data(seed=0)
        x, y = x[:160], y[:160]
        model = bm.build_model()
        model.fit(x, y, epochs=2, batch_size=32, loss=bm.loss, lr=1e-3,
                  seed=0, precision="fp32")
        model.quantize_int8(x)
        return model, x.astype(np.float32)

    def test_server_int8_bit_identical_to_direct_predict(self):
        model, x = self._served_model()
        server = InferenceServer(
            model, BatchPolicy(max_batch_size=16, max_wait_s=0.0, max_queue=512),
            precision="int8")
        reqs = [server.submit(x[i]) for i in range(64)]
        server.drain()
        direct = model.predict(x[:64], precision="int8")
        for i, req in enumerate(reqs):
            assert req.status == "completed"
            np.testing.assert_array_equal(req.result, direct[i])

    def test_int8_auc_within_one_percent_of_fp32(self):
        # Calibrated int8 may cost at most 1% mean one-vs-rest AUC on
        # held-out rows against the fp32 model it was quantized from.
        from repro.candle import get_benchmark
        from repro.nn.metrics import roc_auc

        model, _ = self._served_model()  # trained and calibrated on rows 0..159
        x, y = get_benchmark("p1b2").make_data(seed=0)
        x_te, y_te = x[160:360].astype(np.float32), y[160:360]

        def mean_ovr_auc(logits):
            return np.mean([roc_auc(logits[:, c], y_te == c)
                            for c in range(logits.shape[1])
                            if 0 < (y_te == c).sum() < len(y_te)])

        fp32 = mean_ovr_auc(model.predict(x_te, precision="fp32"))
        int8 = mean_ovr_auc(model.predict(x_te, precision="int8"))
        assert fp32 > 0.9
        assert fp32 - int8 < 0.01

    def test_server_validates_precision_eagerly(self):
        model, _ = self._served_model()
        with pytest.raises(ValueError, match="int8"):
            InferenceServer(_mlp(), precision="int8")  # no plan
        with pytest.raises(ValueError, match="precision"):
            InferenceServer(model, precision="fp8")

    def test_checkpoint_carries_dtype_and_quantization_metadata(self, tmp_path):
        model, x = self._served_model()
        store = ArtifactStore(tmp_path)
        ref = store.publish(model, "p1b2", "p1b2", input_shape=(x.shape[1],))
        for meta in (ref.meta, load_artifact(store.path_for(ref))[0]):
            assert set(meta["dtypes"]) == {"float32"}
            quant = meta["quantization"]
            assert quant["method"] == "percentile"
            assert any(step["kind"] == "dense" for step in quant["steps"])

    def test_registry_roundtrip_serves_int8_bit_identically(self, tmp_path):
        model, x = self._served_model()
        store = ArtifactStore(tmp_path, warmup=True)
        store.publish(model, "p1b2", "p1b2", input_shape=(x.shape[1],))
        loaded = store.get("p1b2")
        # Loaded in the published dtype (no silent float64 upcast) …
        assert all(p.data.dtype == np.float32 for p in loaded.parameters())
        # … and the rebuilt int8 plan is the same datapath, bitwise.
        np.testing.assert_array_equal(
            loaded.predict(x[:32], precision="int8"),
            model.predict(x[:32], precision="int8"))

    def test_registry_refuses_unsupported_dtype(self, tmp_path):
        model, x = self._served_model()
        store = ArtifactStore(tmp_path, warmup=True)
        ref = store.publish(model, "bad", "p1b2", input_shape=(x.shape[1],))
        path = store.path_for(ref)
        # Tamper the dtypes the blob records (the manifest still says
        # float32): an int16 checkpoint has no host kernel support and
        # must be refused at load, not at predict.
        with np.load(path) as data:
            arrays = {k: np.array(data[k]) for k in data.files}
        header = json.loads(bytes(arrays["_meta"]).decode())
        header["metadata"]["dtypes"] = ["int16"]
        arrays["_meta"] = np.frombuffer(
            json.dumps(header).encode(), dtype=np.uint8)
        np.savez(path, **arrays)

        with pytest.raises(UnsupportedDtypeError, match="int16"):
            store.get("bad")
