"""The real multi-core execution engine (:mod:`repro.parallel`).

Covers the four layers bottom-up — shared-memory data plane, process
worker pool (including died-worker respawn and spawn mode), the
deterministic allreduce (bit-identical to the serial reference), and
the two drivers: :func:`fit_data_parallel` (process backend must be
bit-identical to the serial backend, and ``world=1`` must match
``Model.fit`` exactly) and :class:`ParallelTrialExecutor` (real-clock
``run_parallel`` must find the same best config as ``run_sequential``
and preserve the retry/quarantine semantics of the simulated mode).
"""

import glob
import multiprocessing as mp
import os
import pickle
import time

import numpy as np
import pytest

from repro.hpo.scheduler import run_parallel, run_sequential
from repro.hpo.space import Float, SearchSpace
from repro.hpo.strategies import RandomSearch
from repro.nn import Dense, Sequential
from repro.obs import TraceRecorder
from repro.parallel import (
    DEFAULT_WORKER_ENV,
    ParallelTrialExecutor,
    BucketRankReducer,
    ProcessWorkerPool,
    SharedArrayStore,
    attach,
    bind_worker_data,
    chunk_bounds,
    create_bucketed_allreduce,
    echo_task,
    fit_data_parallel,
    plan_buckets,
    reduce_ranks,
    worker_data,
)
from repro.resilience.faults import FaultSchedule


# Module-level task/objective functions: the pool ships them to workers
# (trivially under fork; they'd need a real import path under spawn,
# which is why the spawn test uses the library-provided echo_task).
def _square_task(payload):
    return payload * payload


def _fail_on_negative(payload):
    if payload < 0:
        raise ValueError(f"bad payload {payload}")
    return payload


def _exit_task(payload):
    if payload == "die":
        os._exit(3)
    return payload


def _sleep_task(payload):
    if payload == "hang":
        time.sleep(3600)
    return payload


def _whoami_task(payload):
    return os.getpid()


def _nap(seconds):
    """Task and initializer both: sleep, then echo."""
    time.sleep(seconds)
    return seconds


# First-execution crash: a sentinel file (created by the initializer's
# first run in each worker incarnation) marks whether this worker is the
# original or a respawn.
_DIE_ONCE_FLAG = {"armed": False}


def _die_once_init(armed):
    import tempfile
    _DIE_ONCE_FLAG["armed"] = armed
    _DIE_ONCE_FLAG["path"] = os.path.join(tempfile.gettempdir(),
                                          f"repro_die_once_{os.getppid()}")


def _die_once_task(payload):
    if _DIE_ONCE_FLAG["armed"]:
        path = _DIE_ONCE_FLAG["path"]
        if not os.path.exists(path):
            with open(path, "w") as fh:
                fh.write("x")
            os._exit(9)
        os.unlink(path)
    return payload


# Data-plane probes: the initializer keeps the views the pool attached,
# the task reports what this worker incarnation sees through them.
_SEEN = {}


def _keep_arrays(arrays, scale):
    _SEEN.update(x=arrays["x"], scale=scale)


def _seen_task(payload):
    return os.getpid(), float(_SEEN["x"].sum() * _SEEN["scale"])


def _raise_init(arrays):
    raise ValueError(f"cannot use {sorted(arrays)}")


def _sleep_objective(config, budget):
    time.sleep(0.01)
    return float((config["lr"] - 0.01) ** 2)


def _data_objective(config, budget):
    x = worker_data()["x"]
    return float((config["lr"] - 0.01) ** 2 + 0.0 * x.mean())


def make_regression(n=96, d=6, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    w = rng.standard_normal(d)
    y = (x @ w).reshape(-1, 1) + 0.1 * rng.standard_normal((n, 1))
    return x, y


def make_net():
    return Sequential([Dense(8, activation="tanh"), Dense(1)])


def weights_equal(a, b):
    wa, wb = a.get_weights(), b.get_weights()
    assert len(wa) == len(wb)
    return max(float(np.abs(p - q).max()) for p, q in zip(wa, wb))


class TestSharedMemory:
    def test_publish_attach_roundtrip(self):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((17, 5)).astype(np.float32)
        with SharedArrayStore(prefix="repro_test") as store:
            ref = store.publish("x", arr)
            assert ref.shape == (17, 5) and ref.nbytes == arr.nbytes
            with attach(ref) as att:
                assert np.array_equal(att.array, arr)
                # Zero-copy: owner-side writes are visible through the view.
                store.array("x")[0, 0] = 42.0
                assert att.array[0, 0] == 42.0

    def test_refs_are_picklable_and_small(self):
        with SharedArrayStore(prefix="repro_test") as store:
            store.publish("x", np.zeros((1000, 100)))
            blob = pickle.dumps(store.refs())
            assert len(blob) < 512  # the point: refs ship, arrays don't

    def test_duplicate_key_rejected(self):
        with SharedArrayStore(prefix="repro_test") as store:
            store.publish("x", np.zeros(4))
            with pytest.raises(ValueError):
                store.publish("x", np.zeros(4))

    def test_close_unlinks_and_is_idempotent(self):
        store = SharedArrayStore(prefix="repro_test")
        ref = store.publish("x", np.arange(8.0))
        store.close()
        store.close()
        with pytest.raises(FileNotFoundError):
            attach(ref)

    def test_total_bytes(self):
        with SharedArrayStore(prefix="repro_test") as store:
            store.publish("a", np.zeros(10, dtype=np.float64))
            store.publish("b", np.zeros(6, dtype=np.float32))
            assert store.total_bytes == 80 + 24
            assert len(store) == 2


class TestProcessWorkerPool:
    def test_map_preserves_submission_order(self):
        with ProcessWorkerPool(_square_task, 2) as pool:
            res = pool.map(list(range(8)))
        assert [r.value for r in res] == [i * i for i in range(8)]
        assert all(r.status == "ok" for r in res)
        assert all(r.duration_s >= 0.0 for r in res)

    def test_task_exception_is_err_result_not_crash(self):
        with ProcessWorkerPool(_fail_on_negative, 2) as pool:
            res = pool.map([3, -1, 4])
        assert [r.status for r in res] == ["ok", "err", "ok"]
        assert "bad payload -1" in res[1].value  # traceback text
        assert res[0].value == 3 and res[2].value == 4

    def test_dead_worker_respawned_and_task_reported(self):
        # Default policy retries a lost task once; the "die" payload is
        # deterministic, so it kills its retry worker too and only then
        # surfaces as "died" — two deaths, two respawns.
        with ProcessWorkerPool(_exit_task, 2) as pool:
            res = pool.map(["a", "die", "b", "c"], timeout=60.0)
            statuses = sorted(r.status for r in res)
            assert statuses == ["died", "ok", "ok", "ok"]
            assert pool.respawns == 2
            assert pool.tasks_lost == 2 and pool.tasks_retried == 1
            # Pool capacity survived: it can still run tasks afterwards.
            after = pool.map(["d", "e"], timeout=60.0)
            assert [r.value for r in after] == ["d", "e"]

    def test_no_retry_surfaces_first_death(self):
        with ProcessWorkerPool(_exit_task, 2, max_task_retries=0) as pool:
            res = pool.map(["a", "die"], timeout=60.0)
            assert sorted(r.status for r in res) == ["died", "ok"]
            assert pool.respawns == 1
            assert pool.tasks_lost == 1 and pool.tasks_retried == 0

    def test_retry_recovers_nondeterministic_death(self):
        # A payload that kills the worker only on its first execution:
        # the retry succeeds, so the caller never sees the death.
        with ProcessWorkerPool(_die_once_task, 1, initializer=_die_once_init,
                               initargs=(True,)) as pool:
            res = pool.map(["x"], timeout=60.0)
        assert [r.status for r in res] == ["ok"]

    def test_hung_worker_terminated_and_reported(self):
        with TraceRecorder() as rec:
            with ProcessWorkerPool(_sleep_task, 1, max_task_retries=0,
                                   task_timeout_s=0.3) as pool:
                res = pool.map(["hang", "b"], timeout=60.0)
                assert [r.status for r in res] == ["hung", "ok"]
                assert pool.respawns == 1 and pool.tasks_lost == 1
            deaths = [e for e in rec.events(kind="parallel.worker")
                      if e["name"] == "worker_death"]
            assert deaths and deaths[0]["attrs"]["reason"] == "hung"
            assert rec.metrics.counter("parallel.worker_respawns").value == 1

    def test_dedicated_queue_slot_targeting(self):
        with ProcessWorkerPool(_whoami_task, 3, dedicated_queues=True) as pool:
            ids = [pool.submit(None, slot=i % 3) for i in range(9)]
            pids = {}
            for _ in ids:
                r = pool.next_result(timeout=60.0)
                pids.setdefault(r.task_id % 3, set()).add(r.value)
            # Each slot's tasks all ran in one process; slots differ.
            assert all(len(v) == 1 for v in pids.values())
            assert len(set().union(*pids.values())) == 3

    def test_dedicated_queue_round_robin_default(self):
        with ProcessWorkerPool(_whoami_task, 2, dedicated_queues=True) as pool:
            res = pool.map([None] * 6, timeout=60.0)
        assert len({r.value for r in res}) == 2

    def test_terminate_worker_respawns_same_slot(self):
        x = np.arange(12.0)
        pool = ProcessWorkerPool(
            _seen_task, 2, dedicated_queues=True,
            initializer=_keep_arrays, initargs=(2.0,),
            shared=SharedArrayStore("repro_pooltest", {"x": x}),
        )
        with pool:
            assert len(glob.glob("/dev/shm/repro_pooltest*")) == 1
            first = pool.map([None, None], timeout=60.0)
            pool.terminate_worker(0)
            second = pool.map([None, None], timeout=60.0)
            assert all(r.status == "ok" for r in second)
            assert pool.respawns == 1
            # Slot 0's replacement is a different process...
            pid0_before = [r.value[0] for r in first if r.task_id % 2 == 0]
            pid0_after = [r.value[0] for r in second if r.task_id % 2 == 0]
            assert pid0_before != pid0_after
            # ...whose initializer was handed the same arrays.
            assert {r.value[1] for r in first + second} == {2.0 * x.sum()}
        pool.close()  # a second close is a no-op
        assert glob.glob("/dev/shm/repro_pooltest*") == []

    def test_initializer_failure_raises_and_leaves_no_segment(self):
        pool = ProcessWorkerPool(
            echo_task, 1, initializer=_raise_init,
            shared=SharedArrayStore("repro_pooltest", {"x": np.ones(4)}),
        )
        try:
            with pytest.raises(RuntimeError, match="initializer failed"):
                pool.wait_ready(timeout_s=30.0)
        finally:
            pool.close()
        assert glob.glob("/dev/shm/repro_pooltest*") == []
        assert mp.active_children() == []

    def test_wait_ready_reads_past_a_task_result(self):
        # A result that lands while a replacement worker is still in its
        # initializer sits ahead of that worker's "ready" in the shared
        # queue; wait_ready must hold it and keep reading (it used to
        # re-buffer it where the next poll handed it straight back, and
        # spun until the timeout).
        with ProcessWorkerPool(_nap, 2, dedicated_queues=True,
                               initializer=_nap, initargs=(0.6,)) as pool:
            pool.wait_ready()
            pool.terminate_worker(1)
            tid = pool.submit(0.2, slot=0)
            assert pool.poll_result(timeout=0.05) is None  # reaps, respawns slot 1
            assert pool.respawns == 1
            pool.wait_ready(timeout_s=10.0)
            res = pool.next_result(timeout=10.0)
            assert (res.task_id, res.status, res.value) == (tid, "ok", 0.2)

    def test_slot_targeting_requires_dedicated_queues(self):
        with ProcessWorkerPool(echo_task, 2) as pool:
            with pytest.raises(ValueError):
                pool.submit(1, slot=0)
        with ProcessWorkerPool(echo_task, 2, dedicated_queues=True) as pool:
            with pytest.raises(ValueError):
                pool.submit(1, slot=5)

    def test_poll_result(self):
        with ProcessWorkerPool(_square_task, 1) as pool:
            assert pool.poll_result() is None  # nothing outstanding
            pool.submit(3)
            res = None
            for _ in range(200):
                res = pool.poll_result(timeout=0.05)
                if res is not None:
                    break
            assert res is not None and res.value == 9
            assert pool.outstanding == 0

    def test_bad_retry_and_timeout_params(self):
        with pytest.raises(ValueError):
            ProcessWorkerPool(echo_task, 1, max_task_retries=-1)
        with pytest.raises(ValueError):
            ProcessWorkerPool(echo_task, 1, task_timeout_s=0.0)

    def test_spawn_mode_smoke(self):
        # Spawn children import fresh interpreters, so the task must be
        # importable — the library's echo_task is.
        with ProcessWorkerPool(echo_task, 2, start_method="spawn") as pool:
            res = pool.map([10, 11, 12], timeout=120.0)
        assert sorted(r.value for r in res) == [10, 11, 12]

    def test_next_result_without_outstanding_raises(self):
        with ProcessWorkerPool(echo_task, 1) as pool:
            with pytest.raises(RuntimeError):
                pool.next_result()

    def test_submit_after_close_raises(self):
        pool = ProcessWorkerPool(echo_task, 1)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.submit(1)

    def test_bad_worker_count(self):
        with pytest.raises(ValueError):
            ProcessWorkerPool(echo_task, 0)

    def test_obs_gauge_and_counters(self):
        with TraceRecorder() as rec:
            with ProcessWorkerPool(_square_task, 2) as pool:
                pool.map(list(range(5)))
            assert rec.metrics.counter("parallel.tasks_completed").value == 5
            assert rec.metrics.gauge("parallel.queue_depth").value == 0
            spawns = [e for e in rec.events(kind="parallel.worker")
                      if e["name"] == "worker_spawn"]
            assert len(spawns) == 2


class TestAllreduce:
    def test_chunk_bounds_partition(self):
        for n in (1, 7, 16, 33):
            for world in (1, 2, 3, 5):
                bounds = [chunk_bounds(n, world, r) for r in range(world)]
                assert bounds[0][0] == 0 and bounds[-1][1] == n
                for (lo_a, hi_a), (lo_b, _) in zip(bounds, bounds[1:]):
                    assert hi_a == lo_b and hi_a >= lo_a

    def test_reduce_ranks_matches_manual_order(self):
        rng = np.random.default_rng(1)
        vecs = [rng.standard_normal(13) for _ in range(4)]
        expect = ((vecs[0].copy() + vecs[1]) + vecs[2]) + vecs[3]
        assert np.array_equal(reduce_ranks(vecs), expect)
        with pytest.raises(ValueError):
            reduce_ranks([])

    @pytest.mark.parametrize("world", [2, 3])
    def test_process_allreduce_bitwise_matches_serial(self, world):
        # Two parameters of 18 floats + the loss slot, one bucket each.
        plan = plan_buckets([18, 18], total=37, bucket_bytes=8)
        rng = np.random.default_rng(7)
        vecs = [rng.standard_normal(plan.n) for _ in range(world)]
        expect = reduce_ranks(vecs)
        ctx = mp.get_context()
        with SharedArrayStore(prefix="repro_test") as store:
            handle = create_bucketed_allreduce(store, world, plan)
            out_q = ctx.Queue()
            procs = [
                ctx.Process(target=_allreduce_rank, args=(handle, r, vecs[r], out_q))
                for r in range(world)
            ]
            for p in procs:
                p.start()
            outs = dict(out_q.get(timeout=60.0) for _ in range(world))
            for p in procs:
                p.join(timeout=10.0)
        assert plan.n_buckets == 2
        for r in range(world):
            assert np.array_equal(outs[r], expect), f"rank {r} diverged"

    def test_world_one_is_noop(self):
        with SharedArrayStore(prefix="repro_test") as store:
            handle = create_bucketed_allreduce(store, 1, plan_buckets([4], total=5))
            red = BucketRankReducer(handle, 0)
            v = np.arange(5.0)
            _allreduce(red, v)
            assert np.array_equal(v, np.arange(5.0))
            red.close()

    def test_bad_rank_rejected(self):
        with SharedArrayStore(prefix="repro_test") as store:
            handle = create_bucketed_allreduce(store, 2, plan_buckets([4], total=5))
            with pytest.raises(ValueError):
                BucketRankReducer(handle, 2)


def _allreduce(red, vec, step=0):
    """Sum ``vec`` across the reducer's ranks, in place: publish every
    bucket, then wait for and collect each."""
    for b in range(red.plan.n_buckets):
        red.publish(b, vec, step)
    for b in range(red.plan.n_buckets):
        red.wait(b, step)
        red.collect(b, vec, step)


def _allreduce_rank(handle, rank, vec, out_q):
    red = BucketRankReducer(handle, rank, timeout_s=60.0)
    v = vec.copy()
    _allreduce(red, v)
    out_q.put((rank, v))
    red.close()


class TestDataParallelFit:
    def test_process_backend_bit_identical_to_serial(self):
        x, y = make_regression()
        m_ser = make_net()
        r_ser = fit_data_parallel(
            m_ser, x, y, world=2, epochs=3, batch_size=16, backend="serial", seed=4
        )
        for start_method in ("fork", "spawn"):
            m_proc = make_net()
            r_proc = fit_data_parallel(
                m_proc, x, y, world=2, epochs=3, batch_size=16, backend="process",
                seed=4, start_method=start_method,
            )
            assert weights_equal(m_proc, m_ser) == 0.0
            assert r_proc.epoch_losses == r_ser.epoch_losses
            assert r_proc.steps == r_ser.steps == 3 * (96 // 16)

    def test_precision_casts_layer_buffers_on_both_backends(self):
        # fit(precision=) casts the whole model, BatchNorm's running
        # statistics included, and the process backend's caller model too.
        from repro.nn import BatchNorm

        x, y = make_regression()
        for backend in ("serial", "process"):
            m = Sequential([Dense(8), BatchNorm(), Dense(1)])
            fit_data_parallel(m, x, y, world=2, epochs=1, batch_size=16, backend=backend,
                              seed=0, precision="fp32")
            assert {w.dtype for w in m.get_weights()} == {np.dtype(np.float32)}, backend

    def test_world_one_matches_model_fit(self):
        x, y = make_regression()
        m_ddp, m_fit = make_net(), make_net()
        fit_data_parallel(
            m_ddp, x, y, world=1, epochs=2, batch_size=16, backend="serial", seed=0
        )
        m_fit.fit(x, y, epochs=2, batch_size=16, seed=0, verbose=0)
        assert weights_equal(m_ddp, m_fit) == 0.0
        # One rank is ``Model.fit`` under every keyword the driver
        # forwards, and on a dataset the batch does not divide: the kept
        # tail's weight is exactly 1.0, so it is fit's short last batch.
        xr, yr = make_regression(n=101)
        xv, yv = make_regression(n=24, seed=9)
        for options in ({}, dict(clip_norm=0.5), dict(precision="fp32"), dict(precision="bf16"),
                        dict(validation_data=(xv, yv), early_stopping_patience=1)):
            for xs, ys in ((x, y), (xr, yr)):
                m_ddp, m_fit = make_net(), make_net()
                res = fit_data_parallel(m_ddp, xs, ys, world=1, epochs=3, batch_size=16,
                                        backend="serial", seed=0, drop_last=False, **options)
                hist = m_fit.fit(xs, ys, epochs=3, batch_size=16, seed=0, **options)
                assert weights_equal(m_ddp, m_fit) == 0.0, options
                assert res.epoch_losses == hist.series("loss"), options
                assert res.history.series("val_loss") == hist.series("val_loss")
                assert res.steps == len(hist) * -(-len(xs) // 16)

    def test_training_reduces_loss(self):
        x, y = make_regression()
        m = make_net()
        res = fit_data_parallel(
            m, x, y, world=2, epochs=8, batch_size=16, backend="serial", lr=1e-2
        )
        assert res.final_loss < res.epoch_losses[0] * 0.7
        assert res.steps_per_s > 0

    def test_validation_errors(self):
        x, y = make_regression()
        with pytest.raises(ValueError):
            fit_data_parallel(make_net(), x, y, world=0)
        with pytest.raises(ValueError):
            fit_data_parallel(make_net(), x, y, world=3, batch_size=16)
        with pytest.raises(ValueError):
            fit_data_parallel(make_net(), x, y, backend="mpi")
        with pytest.raises(ValueError):
            fit_data_parallel(make_net(), x, y, batch_size=200)
        with pytest.raises(ValueError):
            fit_data_parallel(make_net(), x, y[:50], batch_size=16)

    def test_obs_spans(self):
        x, y = make_regression()
        with TraceRecorder() as rec:
            fit_data_parallel(make_net(), x, y, world=2, epochs=2,
                              batch_size=16, backend="serial")
        fits = rec.spans(kind="ddp.fit")
        assert len(fits) == 1 and fits[0]["attrs"]["world"] == 2
        assert len(rec.spans(kind="ddp.epoch")) == 2


class TestParallelTrialExecutor:
    SPACE = SearchSpace({"lr": Float(1e-4, 1e-1, log=True)})

    def test_real_clock_matches_sequential_best(self):
        x = np.random.default_rng(2).standard_normal((64, 3))
        bind_worker_data({"x": x})
        log_seq = run_sequential(
            RandomSearch(self.SPACE, seed=9), _data_objective, n_trials=8
        )
        with ParallelTrialExecutor(2, data={"x": x}) as ex:
            log_par = run_parallel(
                RandomSearch(self.SPACE, seed=9), _data_objective,
                n_trials=8, n_workers=2, executor=ex,
            )
        assert len(log_par.trials) == 8
        assert log_par.best().config == log_seq.best().config
        assert log_par.best().value == log_seq.best().value
        # Wall-clock sim_time is monotone in completion order.
        times = [t.sim_time for t in log_par.trials]
        assert times == sorted(times) and times[-1] > 0

    def test_injected_faults_retry_and_quarantine(self):
        faults = FaultSchedule(crash=0.3, nan=0.2, seed=11)
        with TraceRecorder() as rec:
            with ParallelTrialExecutor(2) as ex:
                log = run_parallel(
                    RandomSearch(self.SPACE, seed=7), _sleep_objective,
                    n_trials=8, n_workers=2, executor=ex,
                    faults=faults, max_retries=2,
                )
        assert len(log.trials) == 8
        assert log.stats["failures"] > 0
        assert log.stats["retries"] > 0
        assert log.stats["failures"] == log.stats["faults"]["crash"] or log.stats["retries"] > 0
        assert len(rec.events(kind="fault")) == sum(log.stats["faults"].values())
        assert np.isfinite(log.best().value)

    def test_trial_spans_carry_worker_duration(self):
        with TraceRecorder() as rec:
            with ParallelTrialExecutor(2) as ex:
                run_parallel(RandomSearch(self.SPACE, seed=3), _sleep_objective,
                             n_trials=4, n_workers=2, executor=ex)
        spans = rec.spans(kind="hpo.trial")
        assert len(spans) == 4
        assert all(s["attrs"]["mode"] == "process" for s in spans)
        assert all(s["dur_wall"] >= 0.01 for s in spans)  # objective sleeps 10ms

    def test_sync_mode_rejected(self):
        with pytest.raises(ValueError, match="async-only"):
            run_parallel(RandomSearch(self.SPACE, seed=0), _sleep_objective,
                         n_trials=2, n_workers=2, executor=object(), sync=True)

    def test_worker_count_mismatch_rejected(self):
        ex = ParallelTrialExecutor(4)
        with pytest.raises(ValueError, match="workers"):
            run_parallel(RandomSearch(self.SPACE, seed=0), _sleep_objective,
                         n_trials=2, n_workers=2, executor=ex)

    def test_failed_start_leaves_no_segment(self):
        # No shutdown(): whatever start() published before the pool
        # refused the start method must already be gone.
        before = set(glob.glob("/dev/shm/repro_hpo*"))
        ex = ParallelTrialExecutor(2, data={"x": np.ones((8, 2))}, start_method="bogus")
        with pytest.raises(ValueError, match="bogus"):
            ex.start(_data_objective)
        assert set(glob.glob("/dev/shm/repro_hpo*")) == before

    def test_lifecycle_guards(self):
        ex = ParallelTrialExecutor(1)
        with pytest.raises(RuntimeError):
            ex.submit({"lr": 0.01}, 1)
        with pytest.raises(RuntimeError):
            ex.next_result()
        assert ex.outstanding == 0 and ex.respawns == 0
        with pytest.raises(ValueError):
            ParallelTrialExecutor(0)

    def test_simulated_mode_untouched_by_executor_param(self):
        # executor=None must take the exact legacy path.
        log = run_parallel(RandomSearch(self.SPACE, seed=5), _sleep_objective,
                           n_trials=4, n_workers=2)
        assert len(log.trials) == 4


class TestWorkerEnv:
    def test_default_env_pins_blas_to_one_thread(self):
        assert DEFAULT_WORKER_ENV["OMP_NUM_THREADS"] == "1"
        assert DEFAULT_WORKER_ENV["OPENBLAS_NUM_THREADS"] == "1"
        assert DEFAULT_WORKER_ENV["MKL_NUM_THREADS"] == "1"

    def test_parent_env_restored_after_spawn(self):
        before = os.environ.get("OMP_NUM_THREADS")
        with ProcessWorkerPool(echo_task, 1):
            pass
        assert os.environ.get("OMP_NUM_THREADS") == before
