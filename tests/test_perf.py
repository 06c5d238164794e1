"""Tests for the op-level perf subsystem (repro.perf)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn.functional as F
from repro.nn import Dense, Sequential, Tensor, no_grad
from repro.perf import OpProfiler, get_sink, instrument, set_sink

import reference
from helpers import SeenOps

RNG = np.random.default_rng(99)

#: Table entries no frozen kernel checks (linear_act's GEMM never had a
#: pre-optimization twin); every other entry names its oracle.
ORACLE_FREE = {"linear_act"}


def oracle(op_name: str, i: int = 0):
    """The ``i``-th frozen kernel the op-table entry names (forward first)."""
    return getattr(reference, F.OPS[op_name].oracle[i])


class TestHooks:
    def test_no_sink_passthrough(self):
        def op(a, b):
            return a + b

        wrapped = instrument("op", op)
        assert get_sink() is None
        assert wrapped(2, 3) == 5
        assert wrapped.__wrapped__ is op

    def test_set_sink_returns_previous(self):
        class Sink:
            def record(self, name, fn, args, kwargs):
                return fn(*args, **kwargs)

        s = Sink()
        prev = set_sink(s)
        try:
            assert get_sink() is s
        finally:
            set_sink(prev)
        assert get_sink() is prev

    def test_functional_ops_are_instrumented(self):
        # An attached sink records every table entry and every op still
        # wrapped by ``instrument``.
        x = Tensor(RNG.standard_normal((4, 3)), requires_grad=True)
        img = Tensor(RNG.standard_normal((2, 2, 6, 6)), requires_grad=True)
        seq = img[:, :, 0]
        gamma, beta = Tensor(np.ones(3), requires_grad=True), Tensor(np.zeros(3), requires_grad=True)
        calls = {
            "linear_act": lambda: F.linear_act(x, Tensor(RNG.standard_normal((3, 2)))),
            "conv1d": lambda: F.conv1d(seq, Tensor(RNG.standard_normal((3, 2, 3)))),
            "conv2d": lambda: F.conv2d(img, Tensor(RNG.standard_normal((3, 2, 3, 3)))),
            "maxpool1d": lambda: F.maxpool1d(seq, 2),
            "maxpool2d": lambda: F.maxpool2d(img, 2),
            "softmax_cross_entropy": lambda: F.softmax_cross_entropy(x, np.array([0, 1, 2, 0])),
            "mse": lambda: F.apply(F.OPS["mse"], (x,), np.zeros((4, 3))),
            "linear": lambda: F.linear(x, Tensor(RNG.standard_normal((3, 2)))),
            "dropout": lambda: F.dropout(x, 0.5, np.random.default_rng(0)),
            "embedding": lambda: F.embedding(x, np.array([0, 2])),
            "batch_norm": lambda: F.batch_norm(x, gamma, beta, np.zeros(3), np.ones(3)),
            "layer_norm": lambda: F.layer_norm(x, gamma, beta),
            "avgpool1d": lambda: F.avgpool1d(seq, 2),
        }
        assert set(F.OPS) <= set(calls)
        seen = set()
        with SeenOps(seen):
            for name in F._INSTRUMENTED_OPS:
                calls.get(name, lambda name=name: getattr(F, name)(x))()
            for name in F.OPS:
                calls[name]()
        assert seen == set(F.OPS) | set(F._INSTRUMENTED_OPS)


class TestOpProfiler:
    def test_records_op_calls_and_time(self):
        prof = OpProfiler()
        x = Tensor(RNG.standard_normal((8, 4)), requires_grad=True)
        w = Tensor(RNG.standard_normal((4, 3)), requires_grad=True)
        with prof:
            F.linear_act(x, w, activation="relu").sum().backward()
            F.relu(x)
        stats = prof.as_dict()
        assert stats["linear_act"]["calls"] == 1
        assert stats["relu"]["calls"] == 1
        assert stats["linear_act"]["total_s"] >= 0.0
        assert prof.total_time >= 0.0

    def test_outside_context_records_nothing(self):
        prof = OpProfiler()
        with prof:
            pass
        F.relu(Tensor(RNG.standard_normal(4)))
        assert prof.as_dict() == {}

    def test_nesting_restores_outer_sink(self):
        outer, inner = OpProfiler(), OpProfiler()
        x = Tensor(RNG.standard_normal(4))
        with outer:
            F.relu(x)
            with inner:
                F.tanh(x)
            F.relu(x)
        assert outer.as_dict()["relu"]["calls"] == 2
        assert "tanh" not in outer.as_dict()
        assert inner.as_dict()["tanh"]["calls"] == 1
        assert get_sink() is None

    def test_attach_detach_model(self):
        model = Sequential([Dense(6, activation="relu"), Dense(2)])
        x = RNG.standard_normal((8, 4))
        model.build(x.shape[1:], np.random.default_rng(0))
        prof = OpProfiler()
        prof.attach(model)
        model(Tensor(x))
        prof.detach(model)
        model(Tensor(x))  # not recorded
        stats = prof.as_dict()
        assert stats["linear_act"]["calls"] == 2  # two Dense layers, one pass

    def test_track_alloc_records_bytes(self):
        prof = OpProfiler(track_alloc=True)
        x = Tensor(RNG.standard_normal((64, 64)))
        with prof:
            F.relu(x)
        s = prof.as_dict()["relu"]
        assert s["bytes_out"] == 64 * 64 * 8
        assert s["bytes_alloc"] > 0

    def test_table_and_reset(self):
        prof = OpProfiler()
        with prof:
            F.relu(Tensor(RNG.standard_normal(8)))
        assert "relu" in prof.table()
        prof.reset()
        assert prof.as_dict() == {}

    def test_fit_accepts_profiler(self):
        model = Sequential([Dense(8, activation="relu"), Dense(1)])
        x = RNG.standard_normal((32, 4))
        y = RNG.standard_normal((32, 1))
        prof = OpProfiler()
        model.fit(x, y, epochs=1, batch_size=8, loss="mse", profiler=prof)
        assert prof.as_dict()["linear_act"]["calls"] == 8  # 4 batches x 2 layers


class TestReferenceKernels:
    """The frozen pre-PR kernels must agree with the optimized engine —
    they are the baseline the benchmarks diff against."""

    def test_conv1d_forward_matches(self):
        x = RNG.standard_normal((3, 2, 12))
        w = RNG.standard_normal((4, 2, 3))
        b = RNG.standard_normal(4)
        new = F.conv1d(Tensor(x), Tensor(w), Tensor(b), stride=2, padding=1).data
        ref = oracle("conv1d")(x, w, b, stride=2, padding=1)
        np.testing.assert_allclose(new, ref, atol=1e-12)

    def test_conv2d_forward_matches(self):
        x = RNG.standard_normal((2, 3, 9, 9))
        w = RNG.standard_normal((4, 3, 3, 3))
        b = RNG.standard_normal(4)
        new = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2, padding=1).data
        ref = oracle("conv2d")(x, w, b, stride=2, padding=1)
        np.testing.assert_allclose(new, ref, atol=1e-12)

    def test_conv2d_backward_matches(self):
        x = RNG.standard_normal((2, 2, 6, 6))
        w = RNG.standard_normal((3, 2, 3, 3))
        b = RNG.standard_normal(3)
        stride, padding = 1, 1
        xt, wt, bt = (Tensor(a.copy(), requires_grad=True) for a in (x, w, b))
        out = F.conv2d(xt, wt, bt, stride=stride, padding=padding)
        out.sum().backward()

        xd_pad = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        cols = reference.im2col_2d(xd_pad, 3, 3, stride)
        g = np.ones(out.shape)
        grad_x, grad_w = oracle("conv2d", 1)(
            g, cols, w, xd_pad.shape[2:], x.shape[0], stride=stride, padding=padding
        )
        np.testing.assert_allclose(xt.grad, grad_x, atol=1e-10)
        np.testing.assert_allclose(wt.grad, grad_w, atol=1e-10)

    def test_cross_entropy_matches(self):
        z = RNG.standard_normal((6, 4))
        labels = RNG.integers(0, 4, 6)
        zt = Tensor(z.copy(), requires_grad=True)
        loss = F.softmax_cross_entropy(zt, labels)
        loss.backward()
        ref_loss, ref_grad = oracle("softmax_cross_entropy")(z, labels)
        assert loss.item() == pytest.approx(ref_loss, abs=1e-10)
        np.testing.assert_allclose(zt.grad, ref_grad, atol=1e-10)

    def test_backward_pre_matches_current_engine(self):
        x = RNG.standard_normal((5, 3))
        w = RNG.standard_normal((3, 2))
        xa, wa = Tensor(x.copy(), requires_grad=True), Tensor(w.copy(), requires_grad=True)
        F.relu(xa @ wa).sum().backward()
        xb, wb = Tensor(x.copy(), requires_grad=True), Tensor(w.copy(), requires_grad=True)
        reference.backward_pre(F.relu(xb @ wb).sum())
        np.testing.assert_allclose(xa.grad, xb.grad, atol=1e-12)
        np.testing.assert_allclose(wa.grad, wb.grad, atol=1e-12)

    def test_adam_reference_matches_inplace_adam(self):
        from repro.nn.optim import Adam

        p0 = RNG.standard_normal((4, 3))
        grads = [RNG.standard_normal((4, 3)) for _ in range(5)]
        p = Tensor(p0.copy(), requires_grad=True)
        opt = Adam([p], lr=1e-2)
        ref = reference.AdamReference([p0.shape], lr=1e-2)
        arr = p0.copy()
        for g in grads:
            p.grad = g
            opt.step()
            ref.step([arr], [g])
        np.testing.assert_array_equal(p.data, arr)

    def test_every_entry_names_an_oracle_or_is_oracle_free(self):
        for name, op in F.OPS.items():
            if name in ORACLE_FREE:
                assert op.oracle is None, f"{name} names an oracle but is listed oracle-free"
                continue
            assert op.oracle, f"table entry {name} names no frozen kernel and is not listed oracle-free"
            for kernel in op.oracle:
                assert callable(getattr(reference, kernel, None)), f"{name}: no reference.{kernel}"


class TestPoolingParity:
    """The tap-wise max pools against the frozen window + argmax kernels,
    byte for byte (``tobytes``: a -0.0 where the old kernel wrote +0.0
    would pass ``==``)."""

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(1, 3), c=st.integers(1, 3), h=st.integers(3, 9), w=st.integers(3, 9),
        pool=st.sampled_from([2, 3]), stride=st.sampled_from([1, 2, 3]),
        layout=st.sampled_from(["contiguous", "transposed", "post_relu"]),
        dtype=st.sampled_from([np.float64, np.float32]), seed=st.integers(0, 10**6),
    )
    def test_maxpool_matches_frozen_window_kernels(self, n, c, h, w, pool, stride, layout, dtype, seed):
        rng = np.random.default_rng(seed)
        x2 = rng.standard_normal((n, c, h, w)).astype(dtype)
        if layout == "transposed":
            # What conv2d hands over: (C, N, ...) memory viewed as (N, C, ...).
            x2 = np.ascontiguousarray(x2.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
        elif layout == "post_relu":
            # Ties everywhere, whole windows of zeros included.
            x2 = np.maximum(x2, 0.0)
            x2[rng.random(x2.shape) < 0.4] = 0.0
        cases = (
            (x2, F.maxpool2d, oracle("maxpool2d"), oracle("maxpool2d", 1)),
            (x2[:, :, 0], F.maxpool1d, oracle("maxpool1d"), oracle("maxpool1d", 1)),
        )
        for x, op, ref_forward, ref_backward in cases:
            ref_out, ref_arg = ref_forward(x, pool, stride)
            t = Tensor(x, requires_grad=True)
            out = op(t, pool, stride)
            assert out.data.dtype == ref_out.dtype and out.data.shape == ref_out.shape
            assert out.data.tobytes() == ref_out.tobytes()
            with no_grad():  # the path that tracks no winner
                assert op(Tensor(x), pool, stride).data.tobytes() == ref_out.tobytes()

            g = rng.standard_normal(ref_out.shape).astype(dtype)
            g[rng.random(g.shape) < 0.2] = -0.0
            out.backward(g)
            assert t.grad.dtype == x.dtype
            assert t.grad.tobytes() == ref_backward(g, ref_arg, x, pool, stride).tobytes()

            # NaN in a window still reaches its output, and only there.
            x_nan = x.copy()
            x_nan[(0,) * x.ndim] = np.nan
            nan_out = op(Tensor(x_nan), pool, stride).data
            assert np.isnan(nan_out[(0,) * x.ndim])
            np.testing.assert_array_equal(nan_out, ref_forward(x_nan, pool, stride)[0])


class TestWorkflowProfileOps:
    def test_training_report_op_profile(self):
        from repro.hpc.cluster import SimCluster
        from repro.workflow.training_job import run_training_job

        model = Sequential([Dense(8, activation="relu"), Dense(1)])
        x = RNG.standard_normal((48, 6))
        y = RNG.standard_normal((48, 1))
        cluster = SimCluster.build("summit_era", 1)
        report = run_training_job(
            model, x, y, cluster, epochs=1, batch_size=16, loss="mse", profile_ops=True
        )
        assert report.op_profile is not None
        assert report.op_profile["linear_act"]["calls"] > 0
        plain = run_training_job(model, x, y, cluster, epochs=1, batch_size=16, loss="mse")
        assert plain.op_profile is None
