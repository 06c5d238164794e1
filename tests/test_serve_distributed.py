"""Distributed serving tier: routing policy, respawn, and chaos.

The load-bearing property: for ANY seeded schedule of replica kills,
hangs, and slowdowns, a request stream replayed through the tier ends
with the accounting invariant exactly balanced (zero lost requests) and
every completed response bit-identical to ``Model.predict`` on the same
micro-batch composition.  Hypothesis drives the schedules; the faults
execute in *real* worker processes (real ``os._exit``, real wedged
sleeps reaped by the pool's hang detector); :func:`_chaos_replay` is
the audit.

Policy logic (admission, deadlines, retries, breakers) is
additionally pinned against a synchronous in-process fake replica group,
so those tests are deterministic and process-free.
"""

import glob
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.candle.registry import get_benchmark
from repro.obs import TraceRecorder
from repro.parallel.pool import TaskResult
from repro.resilience import SERVING_FAULT_KINDS, FaultSchedule
from repro.serve import BatchPolicy, CircuitBreaker, ReplicaGroup, Router

BENCH = "p1b2"


@pytest.fixture(scope="module")
def parent():
    spec = get_benchmark(BENCH)
    shape = spec.input_shape(seed=0)
    model = spec.materialize(input_shape=shape, seed=0)
    x_pool = np.random.default_rng(0).standard_normal((64,) + tuple(shape))
    return model, shape, x_pool


def _group(parent, n_replicas=2, hang_timeout_s=0.75):
    model, shape, x_pool = parent
    g = ReplicaGroup(
        model, BENCH, shape, n_replicas=n_replicas,
        hang_timeout_s=hang_timeout_s, data={"x_pool": x_pool},
    )
    g.wait_ready()
    return g


def _chaos_replay(router, model, x_pool, n_requests, force_kill=None, drain_timeout_s=120.0):
    """Replay ``n_requests`` row-addressed requests (row ``i % len(x_pool)``,
    published as ``"x_pool"``) through ``router`` as fast as it admits
    them, and audit the outcome.  ``force_kill=(i, slot)`` terminates
    ``slot`` right before request ``i`` is submitted: a deterministic
    respawn under traffic on top of whatever the schedule injects.

    The report carries the two verdicts: ``invariant_ok`` (every request
    reached exactly one terminal state and the counters balance: zero
    lost requests) and ``parity_ok`` (each completed response is
    bit-identical to the parent model's ``predict`` on the same
    micro-batch composition).
    """
    router.record_batches = True
    group = router.groups[model]
    handles = []
    for i in range(n_requests):
        if force_kill is not None and i == force_kill[0]:
            group.kill_replica(force_kill[1], reason="chaos_forced")
        handles.append(router.submit(model, row=i % len(x_pool)))
        router.pump()
    deadline = router.clock() + drain_timeout_s
    while router.pending > 0 and router.clock() < deadline:
        router.pump()

    by_id = {h.request_id: h for h in handles}
    parity_checked = 0
    parity_ok = True
    for batch_model, ids in router.batch_log:
        reqs = [by_id[rid] for rid in ids if rid in by_id]
        if batch_model != model or not reqs or any(r.status != "completed" for r in reqs):
            continue
        expected = group.model.predict(x_pool[[r.row for r in reqs]], batch_size=len(reqs))
        for i, r in enumerate(reqs):
            parity_checked += 1
            parity_ok &= bool(np.array_equal(r.result, expected[i]))

    stats = router.stats
    terminal = {"completed", "shed", "timed_out", "retried_away"}
    invariant_ok = bool(
        stats.accounted(still_queued=router.pending)
        and all(h.status in terminal for h in handles) and router.pending == 0
    )
    return {
        "completed": stats.completed,
        "shed": stats.shed,
        "timed_out": stats.timed_out,
        "retried_away": stats.retried_away,
        "respawns": group.respawns,
        "invariant_ok": invariant_ok,
        "parity_checked": parity_checked,
        "parity_ok": parity_ok,
    }


# ----------------------------------------------------------------------
# Synchronous fake replica group: policy tests without processes
# ----------------------------------------------------------------------
class FakeGroup:
    """Duck-typed ReplicaGroup executing batches synchronously in-process.

    ``fail_slots`` maps slot -> status ("died"/"hung"): every dispatch to
    that slot fails that way, which is how the retry/breaker paths are
    driven deterministically.  With ``hold`` a result stays back — its
    replica is busy — until ``release`` lets it reach ``poll``; task ids
    count dispatches from 0.
    """

    def __init__(self, model, x_pool, n_replicas=2, fail_slots=None, hold=False):
        self.model = model
        self.n_replicas = n_replicas
        self.respawns = 0
        self._x_pool = x_pool
        self._fail = dict(fail_slots or {})
        self._hold = hold
        self.held = {}  # task_id -> result not yet visible to poll()
        self._results = []
        self._next = 0
        self.dispatched = []  # (slot, n_requests)
        self.rows = []        # per dispatch: the pool rows it carried
        self.faults = []      # per dispatch: the fault kind it carried (None: none)

    def submit(self, replica, x=None, rows=None, fault=None):
        task_id = self._next
        self._next += 1
        xb = self._x_pool[np.asarray(rows)] if rows is not None else np.asarray(x)
        self.dispatched.append((replica, len(xb)))
        self.rows.append(None if rows is None else [int(r) for r in rows])
        self.faults.append(fault)
        if replica in self._fail:
            self.respawns += 1  # the real pool respawns the slot
            res = TaskResult(task_id, replica, self._fail[replica], None, 0.0)
        else:
            out = self.model.predict(xb, batch_size=max(len(xb), 1))
            res = TaskResult(task_id, replica, "ok", out, 0.0)
        if self._hold:
            self.held[task_id] = res
        else:
            self._results.append(res)
        return task_id

    def release(self, *task_ids):
        """Finish the named held tasks (all of them when none is named)."""
        for task_id in task_ids or sorted(self.held):
            self._results.append(self.held.pop(task_id))

    def poll(self, timeout=0.0):
        return self._results.pop(0) if self._results else None

    def replica_alive(self, replica):
        return True

    def kill_replica(self, replica, reason="killed"):
        self.respawns += 1

    def close(self):
        pass


def _fake_router(parent, policy=None, fail_slots=None, n_replicas=2, hold=False, **kw):
    model, _, x_pool = parent
    group = FakeGroup(model, x_pool, n_replicas=n_replicas, fail_slots=fail_slots, hold=hold)
    policy = policy or BatchPolicy(max_batch_size=4, max_wait_s=0.0, max_queue=64)
    return Router({"m": group}, policy=policy, **kw), group


def _occupy(router, n_replicas=2):
    """Put one single-request batch in flight on every (held) replica."""
    for i in range(n_replicas):
        router.submit("m", row=i)
        router.pump()


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        b = CircuitBreaker(threshold=2, cooldown_s=1.0)
        assert b.available(now=0.0)
        b.on_failure(now=0.0)
        assert b.state == "closed" and b.available(now=0.0)
        b.on_failure(now=0.0)
        assert b.state == "open" and not b.available(now=0.5)

    def test_half_open_probe_success_closes(self):
        b = CircuitBreaker(threshold=1, cooldown_s=1.0)
        b.on_failure(now=0.0)
        assert b.available(now=1.5)  # cooldown over: one probe may go
        b.on_dispatch(now=1.5)
        assert b.state == "half_open" and not b.available(now=1.5)
        b.on_success()
        assert b.state == "closed" and b.failures == 0

    def test_half_open_probe_failure_reopens(self):
        b = CircuitBreaker(threshold=1, cooldown_s=1.0)
        b.on_failure(now=0.0)
        b.on_dispatch(now=1.5)
        b.on_failure(now=1.5)
        assert b.state == "open" and b.opens == 2
        assert not b.available(now=2.0)

    def test_success_interrupts_failure_streak(self):
        b = CircuitBreaker(threshold=3, cooldown_s=1.0)
        b.on_failure(now=0.0)
        b.on_failure(now=0.0)
        b.on_success()
        b.on_failure(now=0.0)
        assert b.state == "closed"

    def test_param_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_s=0.0)


class TestRouterPolicy:
    """Admission, deadlines, retries, breakers — against the fake group."""

    def test_admission_sheds_beyond_bound(self, parent):
        router, _ = _fake_router(
            parent, policy=BatchPolicy(max_batch_size=4, max_wait_s=10.0, max_queue=2),
        )
        handles = [router.submit("m", row=i % 8) for i in range(5)]
        assert [h.status for h in handles].count("shed") == 3
        assert router.stats.shed == 3
        assert router.stats.accounted(still_queued=router.pending)

    def test_admission_bounds_dispatched_requests_too(self, parent):
        # Replicas never finish, and max_wait_s=0 sends every admitted
        # request out behind them: the bound must still hold, counting
        # what is dispatched and unresolved, not only what is queued.
        router, group = _fake_router(
            parent, policy=BatchPolicy(4, max_wait_s=0.0, max_queue=8), hold=True,
        )
        for i in range(100):
            router.submit("m", row=i % 64)
            router.pump()
        assert router.stats.shed == 92 and router.pending == 8
        assert sum(n for _, n in group.dispatched) == 8
        group.release()
        router.drain()
        assert router.stats.completed == 8
        assert router.stats.accounted(still_queued=router.pending)

    def test_expired_requests_never_dispatch(self, parent):
        clock = {"t": 0.0}
        router, group = _fake_router(
            parent, policy=BatchPolicy(max_batch_size=4, max_wait_s=0.0, max_queue=8),
            clock=lambda: clock["t"],
        )
        router.submit("m", row=0, deadline_s=0.5)
        clock["t"] = 1.0  # past the deadline before any pump
        router.pump()
        assert router.stats.timed_out == 1
        assert group.dispatched == []  # nobody computed an answer for it
        assert router.stats.accounted(still_queued=router.pending)

    def test_failed_batch_retries_on_another_replica(self, parent):
        router, group = _fake_router(
            parent, fail_slots={0: "died"}, max_retries=2, backoff_base_s=0.0,
        )
        handles = [router.submit("m", row=i) for i in range(4)]
        deadline = time.perf_counter() + 5.0
        while router.pending and time.perf_counter() < deadline:
            router.pump()
        assert all(h.status == "completed" for h in handles)
        assert router.stats.retries >= 4
        slots = {s for s, _ in group.dispatched}
        assert 1 in slots  # the retry landed on the healthy replica
        assert router.stats.accounted(still_queued=0)

    def test_retries_exhausted_surface_as_retried_away(self, parent):
        router, _ = _fake_router(
            parent, fail_slots={0: "died", 1: "hung"},
            max_retries=1, backoff_base_s=0.0, breaker_threshold=100,
        )
        handles = [router.submit("m", row=i) for i in range(4)]
        deadline = time.perf_counter() + 5.0
        while router.pending and time.perf_counter() < deadline:
            router.pump()
        assert all(h.status == "retried_away" for h in handles)
        assert router.stats.retried_away == 4
        assert router.stats.accounted(still_queued=0)

    def test_breaker_opens_on_consecutive_replica_failures(self, parent):
        # One replica so every failure lands on the same breaker.
        router, _ = _fake_router(
            parent, fail_slots={0: "died"}, n_replicas=1,
            max_retries=0, breaker_threshold=2, breaker_cooldown_s=60.0,
        )
        for i in range(8):
            router.submit("m", row=i)
        deadline = time.perf_counter() + 5.0
        while router.pending and time.perf_counter() < deadline:
            router.pump()
        assert router.breakers_open >= 1
        assert router.stats.accounted(still_queued=0)

    def test_submit_validation(self, parent):
        router, _ = _fake_router(parent)
        with pytest.raises(KeyError):
            router.submit("nope", row=0)
        with pytest.raises(ValueError):
            router.submit("m")
        with pytest.raises(ValueError):
            router.submit("m", x=np.zeros(3), row=1)


class TestWorkConservingDispatch:
    """The one dispatch rule: queued work goes to an idle replica at
    once; ``max_wait_s`` only bounds the wait while every replica is
    busy.  Results are held back in the fake group to keep replicas busy."""

    def _router(self, parent, max_batch_size=4, max_wait_s=60.0, **kw):
        clock = {"t": 0.0}
        router, group = _fake_router(
            parent, policy=BatchPolicy(max_batch_size, max_wait_s, max_queue=64),
            hold=True, clock=lambda: clock["t"], **kw,
        )
        return router, group, clock

    def test_idle_replica_takes_a_lone_request_at_once(self, parent):
        router, group, _ = self._router(parent)
        handle = router.submit("m", row=0)
        router.pump()  # t=0: neither a full batch nor an expired timer
        assert group.dispatched == [(0, 1)]
        group.release()
        assert router.pump() == 1 and handle.status == "completed"

    def test_one_batch_per_idle_replica(self, parent):
        router, group, _ = self._router(parent)
        for i in range(3):
            router.submit("m", row=i)
        router.pump()
        # Both replicas were idle, so everything queued left in one batch
        # to the first; nothing was left for the second to take.
        assert group.dispatched == [(0, 3)]
        router.submit("m", row=3)
        router.pump()
        assert group.dispatched == [(0, 3), (1, 1)]

    def test_busy_replicas_hold_partial_batch_until_one_frees(self, parent):
        router, group, _ = self._router(parent)
        _occupy(router)
        assert group.dispatched == [(0, 1), (1, 1)]
        waiting = [router.submit("m", row=i) for i in (2, 3)]
        router.pump()
        assert len(group.dispatched) == 2 and router.queue_depth == 2
        group.release(1)  # replica 1 finishes its batch
        assert router.pump() == 1
        # ... and the same pump hands it everything that waited, as one batch.
        assert group.dispatched[2:] == [(1, 2)] and router.queue_depth == 0
        group.release()
        router.pump()
        assert all(h.status == "completed" for h in waiting)
        assert router.stats.accounted(still_queued=router.pending)

    def test_timer_batch_queues_behind_least_loaded_busy_replica(self, parent):
        router, group, clock = self._router(parent, max_batch_size=2, max_wait_s=1.0)
        _occupy(router)
        for i in (2, 3):  # a full batch: queued behind replica 0 (tie -> first)
            router.submit("m", row=i)
        router.pump()
        assert group.dispatched[2:] == [(0, 2)]
        router.submit("m", row=4)
        router.pump()
        assert len(group.dispatched) == 3  # partial, timer running, all busy
        clock["t"] = 1.5
        router.pump()
        assert group.dispatched[3:] == [(1, 1)]  # replica 1 carries less

    def test_open_breaker_is_not_idle_capacity(self, parent):
        router, group, clock = self._router(
            parent, n_replicas=1, fail_slots={0: "died"},
            max_retries=0, breaker_threshold=1, breaker_cooldown_s=10.0,
        )
        router.submit("m", row=0)
        router.pump()
        group.release()
        router.pump()  # the failure comes back: breaker opens
        assert router.breaker_state("m", 0) == "open"
        router.submit("m", row=1)
        router.pump()
        # Nothing in flight on the replica, but it is ejected.
        assert len(group.dispatched) == 1 and router.queue_depth == 1
        clock["t"] = 11.0  # cooldown over: the probe batch may go
        router.pump()
        assert len(group.dispatched) == 2
        assert router.stats.accounted(still_queued=router.pending)

    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(
        st.one_of(
            st.just(("submit", 0)), st.just(("pump", 0)),
            st.tuples(st.just("release"), st.integers(0, 7)),
            st.tuples(st.just("advance"), st.sampled_from([0.0, 0.4, 1.1])),
        ),
        min_size=1, max_size=60,
    ))
    def test_any_interleaving_keeps_accounting_order_and_parity(self, parent, ops):
        model, _, x_pool = parent
        router, group, clock = self._router(
            parent, max_batch_size=3, max_wait_s=1.0, record_batches=True)
        handles = []
        for op, arg in ops:
            if op == "submit":
                handles.append(router.submit("m", row=len(handles) % len(x_pool)))
            elif op == "pump":
                router.pump()
            elif op == "release" and group.held:
                held = sorted(group.held)
                group.release(held[arg % len(held)])
            elif op == "advance":
                clock["t"] += arg
            assert router.stats.accounted(still_queued=router.pending)
            assert router._held["m"] == router.pending  # what max_queue bounds
        while router.pending:
            group.release()
            router.pump()
        assert router.stats.accounted() and router.stats.completed == len(handles)
        assert all(n <= 3 for _, n in group.dispatched)
        # FIFO: dispatch order is submission order.
        dispatched_rows = [r for batch in group.rows for r in batch]
        assert dispatched_rows == [h.row for h in handles]
        for _, ids in router.batch_log:
            rows = [handles[i].row for i in ids]
            expected = model.predict(x_pool[rows], batch_size=len(rows))
            for i, want in zip(ids, expected):
                assert np.array_equal(handles[i].result, want)


class TestServingFaultOracle:
    def test_deterministic_and_partitioned(self):
        spec = FaultSchedule(seed=5, kill_replica=0.1, hang_replica=0.1, slow_replica=0.1)
        a = [spec.draw("dispatch", i, i % 3) for i in range(300)]
        b = [FaultSchedule(**vars(spec)).draw("dispatch", i, i % 3) for i in range(300)]
        assert a == b
        kinds = {k for k in a if k is not None}
        assert kinds.issubset(set(SERVING_FAULT_KINDS))
        assert len(kinds) >= 3  # at 10% each over 300 draws, all should fire
        frac = sum(k is not None for k in a) / 300
        assert 0.2 < frac < 0.6  # ~30% nominal

    def test_zero_probs_draw_nothing(self):
        schedule = FaultSchedule(seed=0)
        assert all(schedule.draw("dispatch", i, 0) is None for i in range(50))

    def test_chaos_harness_plans_reproducibly(self, parent):
        """Two routers over one schedule dispatch the same faults to the
        same replicas, each the schedule's draw for (first request id,
        replica), and count them alike."""
        spec = FaultSchedule(seed=9, kill_replica=0.2, slow_replica=0.2)
        runs = []
        for _ in range(2):
            router, group = _fake_router(parent, faults=spec, record_batches=True)
            for i in range(100):
                router.submit("m", row=i % 64)
                router.pump()
            router.drain()
            assert len(router.batch_log) == len(group.faults)  # the fake never fails
            for fault, (slot, _), (_, ids) in zip(group.faults, group.dispatched,
                                                  router.batch_log):
                assert fault == spec.draw("dispatch", ids[0], slot)
            runs.append((group.faults, group.dispatched, dict(router.stats.faults)))
        assert runs[0] == runs[1]
        faults, _, counts = runs[0]
        assert sum(k is not None for k in faults) == sum(counts.values()) > 0


@pytest.mark.slow
class TestDistributedTier:
    """Real replica processes: parity, respawn, chaos."""

    def test_replicas_bit_identical_to_parent_model(self, parent):
        model, _, x_pool = parent
        with _group(parent) as g:
            rows = list(range(8))
            ids = {g.submit(s, rows=rows): s for s in range(2)}
            expected = model.predict(x_pool[rows], batch_size=8)
            got = 0
            while got < 2:
                res = g.poll(timeout=0.5)
                if res is not None:
                    assert res.status == "ok"
                    assert np.array_equal(res.value, expected)
                    got += 1

    def test_respawn_under_traffic_preserves_invariant(self, parent):
        model, shape, x_pool = parent
        with _group(parent) as g:
            router = Router(
                {"m": g},
                policy=BatchPolicy(max_batch_size=4, max_wait_s=0.01, max_queue=64),
                max_retries=3, backoff_base_s=0.01,
            )
            report = _chaos_replay(router, "m", x_pool, 48, force_kill=(24, 0))
            assert report["respawns"] >= 1
            assert report["invariant_ok"], report
            assert report["parity_ok"] and report["parity_checked"] > 0
            assert g.replica_alive(0)  # the slot came back

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10 ** 6))
    def test_any_chaos_schedule_sustains_invariant_and_parity(self, parent, seed):
        """THE robustness property: for any seeded kill/hang/slow
        schedule, zero requests are lost and every completed response is
        bit-identical to the parent model on the same batches."""
        model, shape, x_pool = parent
        with _group(parent, n_replicas=2, hang_timeout_s=0.5) as g:
            router = Router(
                {"m": g},
                policy=BatchPolicy(max_batch_size=4, max_wait_s=0.01, max_queue=64),
                max_retries=3, backoff_base_s=0.01,
                breaker_threshold=2, breaker_cooldown_s=0.1,
                faults=FaultSchedule(seed=seed, kill_replica=0.06,
                                     hang_replica=0.04, slow_replica=0.08),
            )
            report = _chaos_replay(router, "m", x_pool, 48)
            assert report["invariant_ok"], report
            assert report["parity_ok"], report
            assert (
                report["completed"] + report["shed"] + report["timed_out"]
                + report["retried_away"] == 48
            )

    def test_wait_ready_then_clean_close(self, parent):
        g = _group(parent, n_replicas=2)
        assert all(g.replica_alive(s) for s in range(2))
        assert g.respawns == 0
        g.close()
        g.close()  # idempotent


    def test_failed_construction_leaves_no_segment_and_no_open_span(self, parent):
        model, shape, x_pool = parent
        before = set(glob.glob("/dev/shm/repro_serve*"))
        with TraceRecorder() as rec:
            with pytest.raises(ValueError, match="task_timeout_s"):
                ReplicaGroup(model, BENCH, shape, hang_timeout_s=0.0,
                             data={"x_pool": x_pool})
            assert rec.open_spans == []
        assert set(glob.glob("/dev/shm/repro_serve*")) == before
