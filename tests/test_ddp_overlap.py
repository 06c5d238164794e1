"""Overlapped bucketed DDP: wire codecs, bucket planning, the
grad-ready tape hook, and end-to-end engine parity.

The contract under test is the one the ``ddp_mlp`` workload of
``bench/`` re-checks inside every run: every (backend, bucket count,
wire dtype) combination must be **bit-identical** to its serial
same-schedule reference —
overlap is purely a scheduling change, the wire codec is a pinned
float sequence, and the ragged-tail handling is explicit rather than
silent.
"""

import gc
import glob
import multiprocessing as mp
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.candle.registry import REGISTRY
from repro.nn import SGD, AdaGrad, Adam, BatchNorm, Dense, Dropout, RMSProp, Sequential
from repro.nn.losses import mse
from repro.nn.tensor import flat_ranges
from repro.obs import TraceRecorder
from repro.parallel import ddp
from repro.parallel import (
    BucketRankReducer,
    SharedArrayStore,
    WireScratch,
    accumulate_rows,
    create_bucketed_allreduce,
    decode_wire,
    encode_wire,
    fit_data_parallel,
    plan_buckets,
    reduce_ranks,
    reduce_ranks_bucketed,
    wire_itemsize,
)

WIRE_DTYPES = ("float64", "float32", "bf16")
ONE_BUCKET = 1 << 30  # bucket_bytes >= any test vector: one whole-vector bucket


def make_regression(n=96, d=6, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    w = rng.standard_normal(d)
    y = (x @ w).reshape(-1, 1) + 0.1 * rng.standard_normal((n, 1))
    return x, y


def make_net(width=8, depth=2):
    return Sequential([Dense(width, activation="tanh")
                       for _ in range(depth)] + [Dense(1)])


def weights_diff(a, b):
    wa, wb = a.get_weights(), b.get_weights()
    assert len(wa) == len(wb)
    return max(float(np.abs(p - q).max()) for p, q in zip(wa, wb))


def _loud_mse(pred, target):
    """``mse`` times 8: on these nets its first gradients overflow fp16 at
    the loss scaler's initial 2**12, so an fp16 fit skips its first one or
    two windows, halving the scale each time."""
    return mse(pred, target) * 8.0


class _CyclingOptimizer:
    """``optimizer_factory`` that cycles SGD (Nesterov momentum, weight
    decay), RMSProp and AdaGrad over the parameters by element count mod
    3, so the optimizer a parameter gets does not depend on which list it
    arrives in: the serial backend's whole model, or a rank's owned run."""

    makers = (
        lambda ps: SGD(ps, lr=0.05, momentum=0.9, nesterov=True, weight_decay=1e-2),
        lambda ps: RMSProp(ps, lr=1e-2),
        lambda ps: AdaGrad(ps, lr=0.05),
    )

    def __init__(self, params):
        self.params = list(params)
        groups = [[p for p in self.params if p.data.size % 3 == k] for k in range(3)]
        self.parts = [make(g) for make, g in zip(self.makers, groups) if g]
        self.step_count = 0

    def step(self):
        self.step_count += 1
        for opt in self.parts:
            opt.step()

    def zero_grad(self):
        for p in self.params:
            p.grad = None


#: ``fit`` keywords ``fit_data_parallel`` forwards to its drivers: what
#: they mean must not depend on the backend.  (Two epochs never exhaust
#: ``early_stopping_patience=1``; the bookkeeping still runs.)
_XV, _YV = make_regression(n=24, seed=9)
FIT_KEYWORD_SETS = {
    "plain": {},
    "clip": dict(clip_norm=0.5),
    "validate": dict(validation_data=(_XV, _YV), early_stopping_patience=1),
    "fp32": dict(precision="fp32"),
    "bf16": dict(precision="bf16"),
    # Loss scaling, and non-finite windows every rank must skip together.
    "fp16": dict(precision="fp16", loss=_loud_mse),
    "optimizers": dict(optimizer_factory=_CyclingOptimizer),
}


def history_rows(result):
    """A result's per-epoch history without the wall-clock column."""
    return [{k: v for k, v in row.items() if k != "time"} for row in result.history.epochs]


# ----------------------------------------------------------------------
# Wire codecs
# ----------------------------------------------------------------------
class TestWireCodec:
    def test_itemsizes(self):
        assert wire_itemsize("float64") == 8
        assert wire_itemsize("float32") == 4
        assert wire_itemsize("bf16") == 2

    def test_unknown_wire_dtype_rejected(self):
        with pytest.raises(ValueError, match="wire dtype"):
            wire_itemsize("float16")

    def test_f64_roundtrip_is_identity(self):
        rng = np.random.default_rng(0)
        src = rng.standard_normal(257)
        wire = np.empty(257, dtype=np.float64)
        out = np.empty(257, dtype=np.float64)
        encode_wire(src, "float64", wire)
        decode_wire(wire, "float64", out)
        assert np.array_equal(out, src)

    def test_f32_encode_is_c_cast_and_decode_exact(self):
        rng = np.random.default_rng(1)
        src = rng.standard_normal(513)
        wire = np.empty(513, dtype=np.float32)
        out = np.empty(513, dtype=np.float64)
        encode_wire(src, "float32", wire)
        assert np.array_equal(wire, src.astype(np.float32))
        decode_wire(wire, "float32", out)
        # Widening a float32 to float64 is exact.
        assert np.array_equal(out, src.astype(np.float32).astype(np.float64))

    def test_bf16_rounds_to_nearest_even(self):
        # bf16 keeps 7 mantissa bits, so values near 1.0 are spaced
        # 2^-7 apart; 1.0 + 2^-8 is exactly halfway between 1.0 and
        # 1.0 + 2^-7 and RNE picks the even mantissa: 1.0.
        src = np.array([1.0, 1.0 + 2.0 ** -8, 1.0 + 2.0 ** -7, -2.5])
        wire = np.empty(4, dtype=np.uint16)
        out = np.empty(4, dtype=np.float64)
        encode_wire(src, "bf16", wire)
        decode_wire(wire, "bf16", out)
        assert out[0] == 1.0
        assert out[1] == 1.0  # halfway -> even
        assert out[2] == 1.0 + 2.0 ** -7  # representable, survives
        assert out[3] == -2.5  # exact in bf16

    @pytest.mark.parametrize("wd", WIRE_DTYPES)
    def test_decode_is_exact_widening(self, wd):
        rng = np.random.default_rng(2)
        src = rng.standard_normal(100)
        storage = {"float64": np.float64, "float32": np.float32,
                   "bf16": np.uint16}[wd]
        wire = np.empty(100, dtype=storage)
        encode_wire(src, wd, wire)
        once = np.empty(100, dtype=np.float64)
        decode_wire(wire, wd, once)
        # Re-encoding a decoded value must be a fixed point: decode is
        # exact, so no further rounding can occur.
        wire2 = np.empty(100, dtype=storage)
        encode_wire(once, wd, wire2)
        assert np.array_equal(wire, wire2)


# ----------------------------------------------------------------------
# accumulate_rows — the vectorized rank reduction (satellite regression)
# ----------------------------------------------------------------------
class TestAccumulateRows:
    @pytest.mark.parametrize("world", [2, 3, 5])
    @pytest.mark.parametrize("wd", WIRE_DTYPES)
    def test_bit_parity_with_explicit_rank_loop(self, world, wd):
        """``np.add.reduce`` over the rank axis must reproduce the
        explicit ascending ``((g0 + g1) + g2) + ...`` loop bit-for-bit
        — the association the serial reference and every prior artifact
        pinned."""
        rng = np.random.default_rng(world)
        src = rng.standard_normal((world, 301))
        storage = {"float64": np.float64, "float32": np.float32,
                   "bf16": np.uint16}[wd]
        rows = np.empty((world, 301), dtype=storage)
        for r in range(world):
            encode_wire(src[r], wd, rows[r])

        got = np.empty(301, dtype=np.float64)
        accumulate_rows(rows, wd, got)

        dec = np.empty((world, 301), dtype=np.float64)
        decode_wire(rows, wd, dec)
        want = dec[0].copy()
        for r in range(1, world):
            want = want + dec[r]
        assert np.array_equal(got, want)

    def test_matches_reduce_ranks_on_f64(self):
        rng = np.random.default_rng(7)
        vecs = [rng.standard_normal(64) for _ in range(4)]
        got = np.empty(64, dtype=np.float64)
        accumulate_rows(np.stack(vecs), "float64", got)
        assert np.array_equal(got, reduce_ranks(vecs))

    @pytest.mark.parametrize("wd", WIRE_DTYPES)
    def test_caller_owned_scratch_changes_no_bit(self, wd):
        """One ``WireScratch`` + ``out`` reused across calls (what a
        serial fit does every step) gives the floats of the allocating
        path, whatever the previous call left in the buffers."""
        rng = np.random.default_rng(11)
        spans = [(30, 41), (0, 30)]  # unequal widths: the narrow span reuses a prefix
        scratch = WireScratch(3, spans, wd)
        out = np.empty(41, dtype=np.float64)
        for _ in range(3):
            vecs = [rng.standard_normal(41) for _ in range(3)]
            got = reduce_ranks_bucketed(vecs, spans, wd, out=out, scratch=scratch)
            assert got is out
            assert np.array_equal(got, reduce_ranks_bucketed(vecs, spans, wd))


# ----------------------------------------------------------------------
# Bucket planning
# ----------------------------------------------------------------------
class TestPlanBuckets:
    def test_spans_tile_vector_in_reverse_order(self):
        sizes = [40, 4, 40, 4, 40, 4]
        plan = plan_buckets(sizes, total=sum(sizes) + 1, bucket_bytes=44 * 8)
        # Schedule order: bucket 0 is the tail span, later buckets walk
        # toward offset 0; together they tile [0, total).
        assert plan.spans[0][1] == plan.n
        assert plan.spans[-1][0] == 0
        covered = sorted(plan.spans)
        assert covered[0][0] == 0 and covered[-1][1] == plan.n
        for (_, hi), (lo2, _) in zip(covered, covered[1:]):
            assert hi == lo2

    def test_trailing_extra_slots_ride_in_bucket_zero(self):
        plan = plan_buckets([10, 10], total=21, bucket_bytes=10 * 8)
        lo, hi = plan.spans[0]
        assert hi == 21  # the +1 loss slot lives in the first-shipped bucket
        assert plan.param_bucket[-1] == 0

    def test_param_bucket_consistent_with_spans(self):
        sizes = [32, 4, 32, 4, 32, 4]
        plan = plan_buckets(sizes, total=sum(sizes), bucket_bytes=300)
        offsets = np.cumsum([0] + sizes[:-1])
        for i, (off, size) in enumerate(zip(offsets, sizes)):
            lo, hi = plan.spans[plan.param_bucket[i]]
            # A parameter is never split across buckets.
            assert lo <= off and off + size <= hi

    def test_never_splits_a_parameter(self):
        # One huge parameter degenerates to a single bucket even when it
        # exceeds the target several times over.
        plan = plan_buckets([1000], total=1000, bucket_bytes=64)
        assert plan.n_buckets == 1
        assert plan.spans == [(0, 1000)]

    def test_param_counts_seed_countdowns(self):
        sizes = [16, 2, 16, 2]
        plan = plan_buckets(sizes, total=sum(sizes), bucket_bytes=18 * 8)
        counts = plan.param_counts()
        assert sum(counts) == len(sizes)
        assert len(counts) == plan.n_buckets

    def test_wire_bytes_scale_with_itemsize(self):
        plan = plan_buckets([10, 10], total=20, bucket_bytes=80)
        assert plan.wire_bytes("float64") == 160
        assert plan.wire_bytes("float32") == 80
        assert plan.wire_bytes("bf16") == 40

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_buckets([4], total=0)
        with pytest.raises(ValueError):
            plan_buckets([4, 4], total=7)
        with pytest.raises(ValueError):
            plan_buckets([4], total=4, bucket_bytes=4)


# ----------------------------------------------------------------------
# The grad-ready tape hook
# ----------------------------------------------------------------------
class TestGradReadyHook:
    def test_fires_in_backward_completion_order(self):
        """Backward finishes the *last* layer's parameters first; the
        hook must fire in that order (not graph-build or topo-pop
        order), interleaved through the walk — that is what lets early
        buckets ship while the rest of backward still runs."""
        from repro.nn.losses import mse

        net = make_net(width=6, depth=3)
        x, y = make_regression(n=8)
        rng = np.random.default_rng(0)
        net.build(x.shape[1:], rng)
        params = list(net.parameters())
        order = []
        loss = mse(net(x, training=True), y)
        loss.backward(grad_ready_hook=lambda t: order.append(id(t)))

        hooked = [pid for pid in order if pid in {id(p) for p in params}]
        assert len(hooked) == len(params), "every param must fire exactly once"
        # Params in layout order, so backward-completion order is the
        # reverse pairwise: the final Dense(1) layer's params come first.
        by_layout = [id(p) for p in params]
        n_last = 2  # W, b of the output layer
        assert set(hooked[:n_last]) == set(by_layout[-n_last:])
        assert set(hooked[-n_last:]) == set(by_layout[:n_last])

    def test_hook_grads_are_final_at_fire_time(self):
        from repro.nn.losses import mse

        net = make_net(width=5, depth=2)
        x, y = make_regression(n=8, seed=3)
        net.build(x.shape[1:], np.random.default_rng(1))
        params = list(net.parameters())
        snap = {}
        loss = mse(net(x, training=True), y)
        loss.backward(
            grad_ready_hook=lambda t: snap.setdefault(id(t), t.grad.copy()))
        for p in params:
            assert np.array_equal(snap[id(p)], p.grad)


# ----------------------------------------------------------------------
# End-to-end engine parity
# ----------------------------------------------------------------------
class TestBucketedEngineParity:
    @pytest.mark.parametrize("wd", WIRE_DTYPES)
    def test_process_bit_identical_to_serial(self, wd):
        x, y = make_regression()
        m_proc, m_ser = make_net(), make_net()
        kwargs = dict(world=2, epochs=2, batch_size=16, seed=4,
                      wire_dtype=wd, bucket_bytes=256)
        r_proc = fit_data_parallel(m_proc, x, y, backend="process", **kwargs)
        r_ser = fit_data_parallel(m_ser, x, y, backend="serial", **kwargs)
        assert weights_diff(m_proc, m_ser) == 0.0
        assert r_proc.epoch_losses == r_ser.epoch_losses

    def test_overlap_is_pure_scheduling(self):
        x, y = make_regression()
        m_on, m_off = make_net(), make_net()
        common = dict(world=2, epochs=2, batch_size=16, seed=4,
                      backend="process", bucket_bytes=256)
        fit_data_parallel(m_on, x, y, overlap=True, **common)
        fit_data_parallel(m_off, x, y, overlap=False, **common)
        assert weights_diff(m_on, m_off) == 0.0

    def test_one_bucket_matches_many_buckets_and_serial(self):
        # On the f64 wire the codec is the identity and accumulation is
        # span-by-span in the same ascending rank order, so how the
        # vector is cut changes no bit: a single whole-vector bucket
        # (bucket_bytes >= vector), many small buckets and the serial
        # backend all agree.
        x, y = make_regression()
        common = dict(world=2, epochs=2, batch_size=16, seed=4)
        runs = {}
        for backend in ("process", "serial"):
            for bucket_bytes in (ONE_BUCKET, 256):
                m = make_net()
                res = fit_data_parallel(m, x, y, backend=backend,
                                        bucket_bytes=bucket_bytes, **common)
                runs[backend, bucket_bytes] = (m, res)
        assert runs["process", ONE_BUCKET][1].comm_stats["n_buckets"] == 1
        assert runs["process", 256][1].comm_stats["n_buckets"] > 1
        ref, ref_res = runs["serial", 256]
        for m, res in runs.values():
            assert weights_diff(m, ref) == 0.0
            assert res.epoch_losses == ref_res.epoch_losses

    def test_serial_reference_replays_process_run(self):
        # reduce_ranks_bucketed is the spec: hand it per-rank grads and
        # the bucket spans and it must reproduce the engine's sums.
        rng = np.random.default_rng(5)
        vecs = [rng.standard_normal(41) for _ in range(3)]
        plan = plan_buckets([20, 20], total=41, bucket_bytes=160)
        for wd in WIRE_DTYPES:
            got = reduce_ranks_bucketed(vecs, plan.spans, wire_dtype=wd)
            want = np.empty(41, dtype=np.float64)
            storage = {"float64": np.float64, "float32": np.float32,
                       "bf16": np.uint16}[wd]
            for lo, hi in plan.spans:
                rows = np.empty((3, hi - lo), dtype=storage)
                for r, v in enumerate(vecs):
                    encode_wire(v[lo:hi], wd, rows[r])
                accumulate_rows(rows, wd, want[lo:hi])
            assert np.array_equal(got, want)

    def test_bad_comm_and_wire_dtype_rejected(self):
        x, y = make_regression()
        # The engine selector is gone, with no shim: a stale caller
        # gets Python's own TypeError.
        with pytest.raises(TypeError):
            fit_data_parallel(make_net(), x, y, world=2, epochs=1,
                              batch_size=16, backend="serial", comm="nccl")
        with pytest.raises(ValueError):
            fit_data_parallel(make_net(), x, y, world=2, epochs=1,
                              batch_size=16, backend="serial",
                              wire_dtype="float16")

    def test_comm_stats_report(self):
        x, y = make_regression()
        m = make_net()
        res = fit_data_parallel(m, x, y, world=2, epochs=1, batch_size=16,
                                backend="process", seed=4,
                                bucket_bytes=256, wire_dtype="float32")
        stats = res.comm_stats
        assert stats["wire_dtype"] == "float32"
        assert stats["n_buckets"] == len(stats["bucket_spans"])
        n = stats["bucket_spans"][0][1]  # bucket 0 covers the tail
        assert stats["wire_bytes_per_step"] == 2 * n * 4
        assert 0.0 <= stats["overlap_fraction"] <= 1.0
        # Comm runs on the rank's main thread: busy time (publish +
        # collect) splits exactly by bucket, and the time blocked after
        # backward is part of the first-publish -> last-collect chain.
        assert sum(stats["bucket_comm_s"]) == pytest.approx(stats["total_comm_s"])
        assert 0.0 < stats["exposed_wait_s"] <= stats["comm_chain_s"]
        # Each rank steps a run of whole parameters; the runs tile them.
        bounds = np.cumsum([0] + [p.data.size for p in m.parameters()]).tolist()
        runs = stats["owned"]
        assert len(runs) == 2 and runs[0][0] == 0 and runs[-1][1] == bounds[-1]
        assert all(a[1] == b[0] for a, b in zip(runs, runs[1:]))
        assert all(lo in bounds and hi in bounds for lo, hi in runs)
        assert stats["gather_s"] > 0.0
        # P1B1 (115,980 values) at world 2: parameters 0-5 and 6-11.
        xp = np.random.default_rng(0).standard_normal((64, 200))
        p1b1 = fit_data_parallel(REGISTRY["p1b1"].build_model(), xp, None, world=2,
                                 epochs=1, batch_size=64, seed=0)
        assert p1b1.comm_stats["owned"] == [[0, 57_900], [57_900, 115_980]]


# ----------------------------------------------------------------------
# The one-sided protocol under skew, oversubscription and death
# ----------------------------------------------------------------------
def _skew_hook(seed):
    """``pre_step_hook`` for rank processes: a seeded sleep per (rank,
    step) — zero half of the time, so ranks both drift apart and race —
    and a check that the rank runs no helper thread."""
    def hook(rank, step):
        assert threading.active_count() == 1, threading.enumerate()
        u = np.random.default_rng([seed, rank, step]).random()
        if u > 0.5:
            time.sleep((u - 0.5) * 6e-3)
    return hook


class TestOneSidedProtocol:
    @pytest.mark.parametrize("overlap", [True, False])
    @pytest.mark.parametrize("wd", WIRE_DTYPES)
    @pytest.mark.parametrize("world", [2, 3, 4])  # 3 and 4 oversubscribe a 2-core box
    @settings(max_examples=2, deadline=None)
    @given(seed=st.integers(0, 2**16), fit_set=st.sampled_from(sorted(FIT_KEYWORD_SETS)))
    def test_any_skew_schedule_is_bit_identical_to_serial(self, world, wd, overlap, seed, fit_set):
        # 5 full steps + the ragged-tail step (nothing to hide under) per
        # epoch, two epochs: each slab generation is reused five times.
        # ``fit_set`` is a set of ``fit`` keywords the drivers forward.
        batch = 4 * world
        x, y = make_regression(n=5 * batch + 5)
        kwargs = dict(world=world, epochs=2, batch_size=batch, seed=4, drop_last=False,
                      wire_dtype=wd, bucket_bytes=256, overlap=overlap,
                      **FIT_KEYWORD_SETS[fit_set])
        m_proc, m_ser = make_net(), make_net()
        r_proc = fit_data_parallel(m_proc, x, y, backend="process", start_method="fork",
                                   pre_step_hook=_skew_hook(seed), **kwargs)
        r_ser = fit_data_parallel(m_ser, x, y, backend="serial", **kwargs)
        assert r_proc.comm_stats["n_buckets"] > 1
        assert r_proc.steps == 12
        assert weights_diff(m_proc, m_ser) == 0.0
        assert r_proc.epoch_losses == r_ser.epoch_losses
        assert history_rows(r_proc) == history_rows(r_ser)
        assert [w.dtype for w in m_proc.get_weights()] == [w.dtype for w in m_ser.get_weights()]

    def test_wait_is_bounded_and_names_what_it_waited_for(self):
        plan = plan_buckets([20, 20], total=41, bucket_bytes=160)
        with SharedArrayStore(prefix="repro_ddp") as store:
            handle = create_bucketed_allreduce(store, 2, plan, "float32", weights=np.zeros(40))
            red = BucketRankReducer(handle, 0, timeout_s=0.05)
            try:
                red.publish(0, np.zeros(41), step=0)
                assert not red.ready(0, step=0)  # rank 1 never publishes
                t0 = time.perf_counter()
                with pytest.raises(RuntimeError, match=r"timed out: rank 0, bucket 0, step 0"):
                    red.wait(0, step=0)
                assert time.perf_counter() - t0 < 1.0
            finally:
                red.close()

    def test_gather_wait_is_bounded_and_names_the_gather(self):
        plan = plan_buckets([20, 20], total=41, bucket_bytes=160)
        with SharedArrayStore(prefix="repro_ddp") as store:
            handle = create_bucketed_allreduce(store, 2, plan, "bf16", weights=np.zeros(40))
            red = BucketRankReducer(handle, 0, timeout_s=0.05)
            try:
                red.weights[:20] = 1.0  # rank 0's run; rank 1 never publishes its own
                t0 = time.perf_counter()
                with pytest.raises(RuntimeError, match=r"timed out: rank 0, weight gather, step 3"):
                    red.gather(step=3)
                assert time.perf_counter() - t0 < 1.0
            finally:
                red.close()

    def test_killed_rank_raises_and_leaves_nothing_behind(self):
        def die_mid_fit(rank, step):
            if rank == 1 and step == 3:
                os.kill(os.getpid(), signal.SIGKILL)

        before = set(glob.glob("/dev/shm/repro_ddp*"))
        x, y = make_regression()
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="rank died"):
            fit_data_parallel(make_net(), x, y, world=2, epochs=50, batch_size=16,
                              seed=4, start_method="fork", pre_step_hook=die_mid_fit)
        assert time.perf_counter() - t0 < 10.0
        assert mp.active_children() == []
        assert set(glob.glob("/dev/shm/repro_ddp*")) == before

    def test_orphaned_rank_gives_up(self, tmp_path):
        """Parent and peer both SIGKILLed: the surviving rank must notice
        from inside its flag wait and exit, not poll for ``timeout_s``."""
        script = f"""
import os
import numpy as np
from repro.nn import Adam, BatchNorm, Dense, Dropout, Sequential
from repro.parallel import fit_data_parallel

def hook(rank, step):
    if step == 3:
        with open(os.path.join({str(tmp_path)!r}, f"rank{{rank}}.pid"), "w") as f:
            f.write(str(os.getpid()))

x = np.random.default_rng(0).standard_normal((96, 6))
fit_data_parallel(Sequential([Dense(8, activation="tanh"), Dense(6)]), x, None, world=2,
                  epochs=100000, batch_size=16, seed=4, start_method="fork", pre_step_hook=hook)
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        parent = subprocess.Popen([sys.executable, "-c", script], env=env)
        pid_files = [tmp_path / "rank0.pid", tmp_path / "rank1.pid"]
        try:
            deadline = time.monotonic() + 30.0
            while not all(f.exists() and f.read_text() for f in pid_files):
                assert parent.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            survivor, peer = (int(f.read_text()) for f in pid_files)
            parent.kill()
            os.kill(peer, signal.SIGKILL)
            parent.wait(timeout=10.0)

            def gone(pid):  # exited; a zombie awaiting its new reaper counts
                try:
                    return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] == "Z"
                except FileNotFoundError:
                    return True

            deadline = time.monotonic() + 10.0
            while not gone(survivor) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert gone(survivor), "orphaned rank still polling"
        finally:
            parent.kill()
            for f in pid_files:
                if f.exists() and f.read_text():
                    try:
                        os.kill(int(f.read_text()), signal.SIGKILL)
                    except ProcessLookupError:
                        pass


# ----------------------------------------------------------------------
# The sharded optimizer step
# ----------------------------------------------------------------------
class TestShardedStep:
    @pytest.mark.parametrize("fit_set,start_method", [
        ("plain", "fork"), ("plain", "spawn"), ("fp16", "fork"), ("optimizers", "fork"),
    ])
    def test_rank_that_owns_nothing_is_bit_identical_to_serial(self, fit_set, start_method):
        """World 3 on a two-parameter model: one rank steps no parameter,
        builds no optimizer, and still joins every gather."""
        x, y = make_regression(n=5 * 12 + 5)
        m_proc, m_ser = Sequential([Dense(1)]), Sequential([Dense(1)])
        kwargs = dict(world=3, epochs=2, batch_size=12, seed=4, drop_last=False,
                      **FIT_KEYWORD_SETS[fit_set])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # fp16's overflowing windows
            r_proc = fit_data_parallel(m_proc, x, y, backend="process",
                                       start_method=start_method, **kwargs)
            r_ser = fit_data_parallel(m_ser, x, y, backend="serial", **kwargs)
        assert r_proc.comm_stats["owned"] == [[0, 0], [0, 6], [6, 7]]
        assert weights_diff(m_proc, m_ser) == 0.0
        assert history_rows(r_proc) == history_rows(r_ser)
        if fit_set == "fp16":
            assert r_proc.history.precision == r_ser.history.precision
            assert r_ser.history.precision["skipped_steps"] > 0


class TestSharedWeightSlab:
    @pytest.mark.parametrize("precision,dtype", [(None, np.float64), ("fp32", np.float32)])
    def test_rank_parameters_are_views_of_the_slab(self, monkeypatch, precision, dtype):
        """The parent makes the weight slab in the dtype the ranks train
        (float32 under ``precision="fp32"``), and inside a rank every
        parameter is the slab at its offset: the optimizer's in-place
        step is the all-gather's write."""
        handles = []
        create = ddp.create_bucketed_allreduce
        monkeypatch.setattr(ddp, "create_bucketed_allreduce",
                            lambda *a, **kw: handles.append(create(*a, **kw)) or handles[-1])
        checked = mp.RawArray("i", 2)  # per rank: steps at which the hook checked the views

        def hook(rank, step):
            if step % 2:
                return
            slab = next(o for o in gc.get_objects() if isinstance(o, BucketRankReducer)).weights
            params = list(ddp._RANK[0].parameters())
            for p, r in zip(params, flat_ranges(params)):
                assert p.data.dtype == slab.dtype
                assert p.data.ctypes.data == slab.ctypes.data + r.start * slab.itemsize
                assert np.shares_memory(p.data, slab)
            checked[rank] += 1

        before = set(glob.glob("/dev/shm/repro_ddp*"))
        x, y = make_regression()
        m = make_net()
        fit_data_parallel(m, x, y, world=2, epochs=2, batch_size=16, seed=4, precision=precision,
                          start_method="fork", pre_step_hook=hook)
        ref, = [h.weights_ref for h in handles]
        assert np.dtype(ref.dtype) == dtype == m.get_weights()[0].dtype
        assert ref.shape == (sum(p.data.size for p in m.parameters()),)
        assert list(checked) == [6, 6]  # 2 epochs of 6 steps, every other one
        assert mp.active_children() == []
        assert set(glob.glob("/dev/shm/repro_ddp*")) == before

    def test_a_rank_refuses_a_slab_of_another_dtype(self, monkeypatch):
        monkeypatch.setattr(ddp, "cast_for_fit", lambda model, precision: None)  # the parent's
        x, y = make_regression()
        with pytest.raises(RuntimeError, match="do not match the float64 weight slab"):
            fit_data_parallel(make_net(), x, y, world=2, epochs=1, batch_size=16, drop_last=True,
                              precision="fp32", start_method="fork")
        assert mp.active_children() == []


# ----------------------------------------------------------------------
# Ragged tail (drop_last)
# ----------------------------------------------------------------------
class TestRaggedTail:
    def test_silent_drop_now_warns(self):
        # 100 samples, world 2, batch 16: 4 even steps leave a 36-sample
        # tail that the old engine silently discarded.
        x, y = make_regression(n=100)
        with pytest.warns(UserWarning, match="ragged tail"):
            fit_data_parallel(make_net(), x, y, world=2, epochs=1,
                              batch_size=16, backend="serial", seed=4)

    def test_explicit_drop_matches_default(self):
        x, y = make_regression(n=100)
        m_default, m_true = make_net(), make_net()
        common = dict(world=2, epochs=2, batch_size=16, seed=4,
                      backend="serial")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit_data_parallel(m_default, x, y, **common)
        fit_data_parallel(m_true, x, y, drop_last=True, **common)
        assert weights_diff(m_default, m_true) == 0.0

    def test_tail_step_runs_when_kept(self):
        x, y = make_regression(n=100)
        r_drop = fit_data_parallel(make_net(), x, y, world=2, epochs=1,
                                   batch_size=16, backend="serial", seed=4,
                                   drop_last=True)
        r_keep = fit_data_parallel(make_net(), x, y, world=2, epochs=1,
                                   batch_size=16, backend="serial", seed=4,
                                   drop_last=False)
        assert r_keep.steps == r_drop.steps + 1

    def test_keep_tail_process_bit_identical_to_serial(self):
        x, y = make_regression(n=100)
        m_proc, m_ser = make_net(), make_net()
        kwargs = dict(world=2, epochs=2, batch_size=16, seed=4,
                      drop_last=False, bucket_bytes=256)
        r_proc = fit_data_parallel(m_proc, x, y, backend="process", **kwargs)
        r_ser = fit_data_parallel(m_ser, x, y, backend="serial", **kwargs)
        assert weights_diff(m_proc, m_ser) == 0.0
        assert r_proc.epoch_losses == r_ser.epoch_losses

    def test_keep_tail_one_bucket_parity(self):
        # The ragged-tail step through a single whole-vector bucket:
        # process == serial == the many-bucket serial run.
        x, y = make_regression(n=100)
        m_proc, m_ser, m_many = make_net(), make_net(), make_net()
        kwargs = dict(world=2, epochs=1, batch_size=16, seed=4, drop_last=False)
        fit_data_parallel(m_proc, x, y, backend="process", bucket_bytes=ONE_BUCKET, **kwargs)
        fit_data_parallel(m_ser, x, y, backend="serial", bucket_bytes=ONE_BUCKET, **kwargs)
        fit_data_parallel(m_many, x, y, backend="serial", bucket_bytes=256, **kwargs)
        assert weights_diff(m_proc, m_ser) == 0.0
        assert weights_diff(m_proc, m_many) == 0.0

    def test_no_warning_when_divisible(self):
        x, y = make_regression(n=96)
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            fit_data_parallel(make_net(), x, y, world=2, epochs=1,
                              batch_size=16, backend="serial", seed=4)


# ----------------------------------------------------------------------
# Layer state that is not a parameter; what forwarding refuses
# ----------------------------------------------------------------------
STATEFUL_NETS = {
    "dropout": lambda: Sequential([Dense(8, activation="tanh"), Dropout(0.3), Dense(1)]),
    "batchnorm": lambda: Sequential([Dense(8, activation="tanh"), BatchNorm(), Dense(1)]),
}


class TestStatefulLayers:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    @pytest.mark.parametrize("kind", sorted(STATEFUL_NETS))
    def test_process_bit_identical_to_serial(self, kind, start_method):
        """Every rank owns a dropout stream and BatchNorm statistics; the
        serial reference must replay ``world`` replicas, not run every
        share through one layer state — and both leave rank 0's."""
        x, y = make_regression(n=101)
        m_proc, m_ser = STATEFUL_NETS[kind](), STATEFUL_NETS[kind]()
        kwargs = dict(world=2, epochs=3, batch_size=16, seed=4, drop_last=False, bucket_bytes=256)
        r_proc = fit_data_parallel(m_proc, x, y, backend="process",
                                   start_method=start_method, **kwargs)
        r_ser = fit_data_parallel(m_ser, x, y, backend="serial", **kwargs)
        assert weights_diff(m_proc, m_ser) == 0.0  # get_weights: parameters, then buffers
        assert r_proc.epoch_losses == r_ser.epoch_losses
        buffers = list(zip(m_proc.buffers(), m_ser.buffers()))
        assert len(buffers) == (2 if kind == "batchnorm" else 0)
        for got, want in buffers:
            assert np.array_equal(got, want)

    def test_trained_running_stats_reach_the_caller(self):
        x, y = make_regression()
        m_proc, m_ser = STATEFUL_NETS["batchnorm"](), STATEFUL_NETS["batchnorm"]()
        for model, backend in ((m_proc, "process"), (m_ser, "serial")):
            fit_data_parallel(model, x, y, world=2, epochs=2, batch_size=16, seed=4,
                              backend=backend)
        mean, var = m_proc.buffers()
        assert np.abs(mean).max() > 0 and np.abs(var - 1.0).max() > 0, "still the build values"
        assert np.array_equal(m_proc.predict(x), m_ser.predict(x))


class TestForwardedKeywords:
    def test_what_the_drivers_cannot_honour_is_refused(self):
        x, y = make_regression()
        net = make_net()
        net.build(x.shape[1:], np.random.default_rng(0))
        with pytest.raises(TypeError, match="shuffle"):  # removed: fit has no such keyword
            fit_data_parallel(make_net(), x, y, batch_size=16, shuffle=False)
        with pytest.raises(ValueError, match="optimizer_factory"):
            fit_data_parallel(net, x, y, batch_size=16, optimizer=Adam(net.parameters()))
        with pytest.raises(ValueError, match="grad_accumulation"):
            fit_data_parallel(make_net(), x, y, batch_size=16, grad_accumulation=2)
        with pytest.raises(ValueError, match="validation_split"):
            fit_data_parallel(make_net(), x, y, batch_size=16, validation_split=0.2)
        with pytest.raises(ValueError, match="running statistics"):
            fit_data_parallel(STATEFUL_NETS["batchnorm"](), x, y, batch_size=16,
                              validation_data=(x, y), early_stopping_patience=2)

    def test_unknown_precision_is_refused_before_the_model_is_cast(self):
        x, y = make_regression()
        net = make_net()
        with pytest.raises(ValueError, match="unsupported training precision"):
            fit_data_parallel(net, x, y, batch_size=16, drop_last=True, precision="fp8_e4m3")
        assert {w.dtype for w in net.get_weights()} == {np.dtype(np.float64)}

    def test_accumulation_on_one_rank_is_model_fit(self):
        x, y = make_regression(n=101)
        m_ddp, m_fit = make_net(), make_net()
        options = dict(epochs=2, batch_size=16, seed=0, grad_accumulation=3)
        res = fit_data_parallel(m_ddp, x, y, world=1, drop_last=False, **options)
        hist = m_fit.fit(x, y, **options)
        assert weights_diff(m_ddp, m_fit) == 0.0
        assert res.epoch_losses == hist.series("loss")

    def test_fit_leaves_nothing_of_the_arena_in_the_model(self):
        """``ddp_mlp`` and ``hpo_campaign`` pickle models into workers: a
        fitted model must cost what a built one does, gradients (views
        of the fit's arena while a window is open) included."""
        x, y = make_regression()
        net = make_net()
        net.build(x.shape[1:], np.random.default_rng(0))
        built = len(pickle.dumps(net))
        net.fit(x, y, epochs=1, batch_size=16)
        assert all(p.grad is None for p in net.parameters())
        assert len(pickle.dumps(net)) == built


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
class TestOverlapObs:
    def test_bucket_spans_and_overlap_gauge_recorded(self):
        x, y = make_regression()
        rec = TraceRecorder()
        with rec:
            fit_data_parallel(make_net(), x, y, world=2, epochs=1,
                              batch_size=16, backend="process", seed=4,
                              bucket_bytes=256)
        names = {r["name"] for r in rec.metrics.snapshot()}
        assert "ddp.overlap_fraction" in names
        assert rec.spans(kind="ddp.bucket"), "per-bucket spans must be recorded"
