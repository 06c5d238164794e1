"""Durable trial queue + elastic campaign runtime (repro.hpo.queue / elastic).

The crash-replay harness for the 10^4-trial campaigns the scale bench
runs: consumers are killed at *every* claim/ack boundary (explicitly,
then under hypothesis-generated random kill schedules), drivers are
killed mid-campaign, and the invariants must hold every time —

* **exactly-once completion**: every enqueued job ends ``done`` with
  exactly one ``tell`` event, no completion lost, none duplicated;
* **no orphans**: when the campaign returns, nothing is left pending
  or claimed;
* **bit-identical resume**: a campaign killed at any point and resumed
  from its queue file reproduces the uninterrupted run's trials exactly
  (configs, values, budgets, sim times, worker assignment).
"""

import functools
import hashlib
import json
import multiprocessing as mp
import sqlite3
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hpo import (
    ASHA,
    DurableTrialQueue,
    Float,
    RandomSearch,
    SearchSpace,
    SuccessiveHalving,
    SurrogateLandscape,
    WorkerPlan,
    candle_mlp_space,
    constant_cost,
    run_elastic,
    run_parallel,
)
from repro.hpo.elastic import ElasticReplayError, replay_into
from repro.hpo.queue import CLAIMED, DONE, PENDING
from repro.hpo.results import ResultLog
from repro.obs import TraceRecorder
from repro.parallel import ParallelTrialExecutor
from repro.resilience import NAN, WORKER_LOSS, FaultSchedule


def _drain_driver(path, name, barrier, out_q):
    """One competing driver process: claim/ack until the queue drains.

    Module-level so the forked child can run it; the 1 ms 'work' sleep
    yields the core so both drivers actually interleave."""
    with DurableTrialQueue(path, lease_s=30.0) as queue:
        acked = []
        barrier.wait()
        while True:
            job = queue.claim(name)
            if job is None:
                counts = queue.counts()
                if counts[PENDING] == 0 and counts[CLAIMED] == 0:
                    break
                time.sleep(0.001)
                continue
            time.sleep(0.001)
            if queue.ack(job.job_id, name, value=float(job.config["x"])):
                acked.append(job.job_id)
        out_q.put((name, acked))


def small_space():
    return SearchSpace({"x": Float(0.0, 1.0)})


def objective(config, budget=1):
    """Deterministic in (config, budget) — re-execution is safe."""
    return (config["x"] - 0.25) ** 2 + 1.0 / budget


def _writes_beside_the_driver(path, config, budget=1):
    """A trial (in a worker process) that writes to its campaign's queue
    file, waiting at most 2 s for the write lock."""
    db = sqlite3.connect(path, timeout=2.0, isolation_level=None)
    try:
        db.execute("INSERT INTO meta (key, value) VALUES (?, '1')",
                   (f"trial-{config['x']!r}",))
    finally:
        db.close()
    return objective(config, budget)


def budget_cost(config, budget):
    return float(budget)


def kill_consumers(kills, **rates):
    """A schedule whose consumer entries kill at ``{(job_id, attempt): "claim" | "ack"}``
    (attempt 1-based), plus any rate faults."""
    return FaultSchedule(entries={("consumer", *key): b for key, b in kills.items()}, **rates)


def rows(log: ResultLog):
    """Everything that must survive kill/resume, per trial."""
    return [
        (t.trial_id, json.dumps(t.config, sort_keys=True), t.value,
         t.budget, t.sim_time, t.worker)
        for t in log.trials
    ]


class CountingQueue(DurableTrialQueue):
    """Counts the transactions the queue begins, as ``bench/`` does."""

    def __init__(self, *args, **kwargs) -> None:
        self.txn_count = 0
        super().__init__(*args, **kwargs)

    def _txn(self):
        self.txn_count += 1
        return super()._txn()


# The queue schema before the lease index: the same tables, one index.
_SCHEMA_WITHOUT_LEASE_INDEX = """
CREATE TABLE jobs (
    job_id INTEGER PRIMARY KEY, config TEXT NOT NULL, budget INTEGER NOT NULL,
    tag TEXT, status TEXT NOT NULL DEFAULT 'pending', owner TEXT, claimed_at REAL,
    lease_expires REAL, attempts INTEGER NOT NULL DEFAULT 0, value REAL,
    sim_time REAL, worker INTEGER, completed_by TEXT
);
CREATE INDEX idx_jobs_status ON jobs (status, job_id);
CREATE TABLE events (
    seq INTEGER PRIMARY KEY AUTOINCREMENT, kind TEXT NOT NULL,
    job_id INTEGER NOT NULL, value REAL
);
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT);
"""


def _indexes(path):
    db = sqlite3.connect(path)
    try:
        return [r[0] for r in db.execute(
            "SELECT name FROM sqlite_master WHERE type = 'index' AND name LIKE 'idx_%' "
            "ORDER BY name")]
    finally:
        db.close()


@pytest.fixture
def q(tmp_path):
    with DurableTrialQueue(tmp_path / "q.db", lease_s=10.0) as queue:
        yield queue


# ----------------------------------------------------------------------
# Queue semantics
# ----------------------------------------------------------------------
class TestQueueBasics:
    def test_enqueue_assigns_ids_in_ask_order(self, q):
        ids = [q.enqueue({"x": i / 10}, budget=1) for i in range(5)]
        assert ids == [1, 2, 3, 4, 5]
        assert q.n_jobs == 5

    def test_enqueue_rejects_bad_budget(self, q):
        with pytest.raises(ValueError):
            q.enqueue({"x": 0.1}, budget=0)

    def test_enqueue_logs_ask_event_atomically(self, q):
        q.enqueue({"x": 0.5}, budget=3)
        assert [(k, j) for _, k, j, _ in q.events()] == [("ask", 1)]

    def test_invalid_lease_raises(self, tmp_path):
        with pytest.raises(ValueError):
            DurableTrialQueue(tmp_path / "bad.db", lease_s=0.0)

    def test_memory_queue_touches_no_disk(self, tmp_path, monkeypatch):
        """``":memory:"`` is a stated constructor form: same tables and
        transactions, no directory made for it, nothing left behind."""
        monkeypatch.chdir(tmp_path)
        with DurableTrialQueue(":memory:", lease_s=10.0) as queue:
            jid = queue.enqueue({"x": 0.5}, budget=2, tag=(0, 1, 2))
            job = queue.claim("c", now=0.0)
            assert (job.job_id, job.tag, job.lease_expires) == (jid, (0, 1, 2), 10.0)
            assert queue.extend_lease(jid, "c", now=5.0)
            assert queue.ack(jid, "c", 1.5) and not queue.ack(jid, "c", 1.5)
            assert [k for _, k, _, _ in queue.events()] == ["ask", "tell"]
            assert queue.counts() == {PENDING: 0, CLAIMED: 0, DONE: 1}
            queue.meta_set("sim_now", 3.0)
            assert queue.meta_get("sim_now") == 3.0
        assert list(tmp_path.iterdir()) == []

    def test_claim_oldest_runnable_first(self, q):
        q.enqueue({"x": 0.1})
        q.enqueue({"x": 0.2})
        a = q.claim("c0", now=0.0)
        b = q.claim("c1", now=0.0)
        assert (a.job_id, b.job_id) == (1, 2)
        assert q.claim("c2", now=0.0) is None

    def test_expired_claim_older_than_pending_is_taken_first(self, q):
        q.enqueue({"x": 0.1})
        q.enqueue({"x": 0.2})
        q.claim("c0", now=0.0, lease_s=1.0)
        job = q.claim("c1", now=1.0)  # lease_expires <= now: expired
        assert (job.job_id, job.attempts, q.stats["reclaims"]) == (1, 2, 1)
        assert q.claim("c2", now=1.0).job_id == 2
        assert q.stats["reclaims"] == 1

    @pytest.mark.parametrize("back", ["requeue", "reclaim_expired"])
    def test_pending_older_than_expired_claim_is_taken_first(self, q, back):
        q.enqueue({"x": 0.1})
        q.enqueue({"x": 0.2})
        q.claim("c0", now=0.0, lease_s=5.0 if back == "requeue" else 1.0)
        q.claim("c1", now=0.0, lease_s=2.0)
        if back == "requeue":
            assert q.requeue(1, "c0")
        else:
            assert q.reclaim_expired(1.5) == [1]
        reclaims = q.stats["reclaims"]
        job = q.claim("c2", now=3.0)  # job 1 pending, job 2's lease expired
        assert (job.job_id, job.attempts, q.stats["reclaims"]) == (1, 2, reclaims)
        job = q.claim("c3", now=3.0)
        assert (job.job_id, job.attempts, q.stats["reclaims"]) == (2, 2, reclaims + 1)

    def test_nothing_runnable_claims_none(self, q):
        assert q.claim("c0", now=0.0) is None  # empty
        q.enqueue({"x": 0.1})
        q.enqueue({"x": 0.2})
        q.claim("c0", now=0.0, lease_s=2.0)
        q.claim("c1", now=0.0, lease_s=1.0)
        assert q.claim("c2", now=0.5) is None  # every lease live
        q.ack(2, "c1", 0.5)
        assert q.claim("c2", now=1.5) is None  # done, and a live lease
        q.ack(1, "c0", 0.5)
        assert q.claim("c2", now=99.0) is None  # everything done
        assert q.stats["reclaims"] == 0

    def test_claim_sets_lease_and_attempts(self, q):
        q.enqueue({"x": 0.1})
        job = q.claim("c0", now=5.0, lease_s=7.0)
        assert job.attempts == 1
        assert job.lease_expires == 12.0
        rec = q.job(1)
        assert (rec.status, rec.owner, rec.claimed_at) == (CLAIMED, "c0", 5.0)

    def test_tag_tuple_roundtrips_through_json(self, q):
        q.enqueue({"x": 0.1}, budget=3, tag=(2, 0, 7))
        assert q.claim("c0", now=0.0).tag == (2, 0, 7)

    def test_ack_completes_and_logs_tell(self, q):
        q.enqueue({"x": 0.1})
        q.claim("c0", now=0.0)
        assert q.ack(1, "c0", 0.25, now=1.0, sim_time=1.0, worker=0)
        rec = q.job(1)
        assert (rec.status, rec.value, rec.completed_by) == (DONE, 0.25, "c0")
        assert rec.owner is None and rec.lease_expires is None
        assert [(k, j, v) for _, k, j, v in q.events()] == [
            ("ask", 1, None), ("tell", 1, 0.25)]

    def test_ack_unknown_job_raises(self, q):
        with pytest.raises(KeyError):
            q.ack(99, "c0", 0.0)

    def test_duplicate_ack_rejected(self, q):
        q.enqueue({"x": 0.1})
        q.claim("c0", now=0.0)
        assert q.ack(1, "c0", 0.25)
        assert not q.ack(1, "c0", 0.25)
        assert q.stats["duplicate_acks"] == 1
        assert len(q.events()) == 2  # no second tell

    def test_zombie_ack_first_wins_exactly_once(self, q):
        """The classic lost-lease race: c0's lease expires mid-trial, c1
        reclaims and re-runs.  Whichever acks first wins; the loser is
        rejected — one tell, one value, forever."""
        q.enqueue({"x": 0.1})
        q.claim("c0", now=0.0, lease_s=1.0)
        reclaimed = q.claim("c1", now=2.0)  # lease expired -> lazy reclaim
        assert reclaimed.job_id == 1 and reclaimed.attempts == 2
        assert q.stats["reclaims"] == 1
        assert q.ack(1, "c0", 0.25, now=3.0)  # zombie finishes first: wins
        assert not q.ack(1, "c1", 0.25, now=4.0)
        assert q.job(1).completed_by == "c0"
        assert sum(1 for _, k, _, _ in q.events() if k == "tell") == 1

    def test_requeue_owner_only(self, q):
        q.enqueue({"x": 0.1})
        q.claim("c0", now=0.0)
        assert not q.requeue(1, "c1")  # not the owner
        assert q.requeue(1, "c0")
        rec = q.job(1)
        assert (rec.status, rec.owner, rec.attempts) == (PENDING, None, 1)

    def test_requeue_done_is_noop(self, q):
        q.enqueue({"x": 0.1})
        q.claim("c0", now=0.0)
        q.ack(1, "c0", 0.5)
        assert not q.requeue(1, "c0")
        assert q.job(1).status == DONE

    def test_extend_lease_renews_live_claim_only(self, q):
        q.enqueue({"x": 0.1})
        q.claim("c0", now=0.0, lease_s=5.0)
        assert q.extend_lease(1, "c0", now=4.0, lease_s=5.0)
        assert q.job(1).lease_expires == 9.0
        q.claim("c1", now=20.0)  # expired -> reclaimed by c1
        assert not q.extend_lease(1, "c0", now=21.0)  # claim was lost

    def test_reclaim_expired_eager_sweep(self, q):
        for i in range(3):
            q.enqueue({"x": i / 10})
            q.claim(f"c{i}", now=0.0, lease_s=float(i + 1))
        assert q.reclaim_expired(2.5) == [1, 2]
        counts = q.counts()
        assert counts[PENDING] == 2 and counts[CLAIMED] == 1
        assert q.stats["reclaims"] == 2

    def test_reset_claims_returns_everything_to_pending(self, q):
        for i in range(3):
            q.enqueue({"x": i / 10})
        q.claim("c0", now=0.0)
        q.claim("c1", now=0.0)
        assert q.reset_claims() == 2
        assert q.counts() == {PENDING: 3, CLAIMED: 0, DONE: 0}

    def test_counts_and_next_lease_expiry(self, q):
        assert q.next_lease_expiry() is None
        q.enqueue({"x": 0.1})
        q.enqueue({"x": 0.2})
        q.claim("c0", now=0.0, lease_s=3.0)
        assert q.next_lease_expiry() == 3.0
        assert q.counts() == {PENDING: 1, CLAIMED: 1, DONE: 0}
        assert q.n_done == 0

    def test_completions_in_tell_order(self, q):
        for i in range(3):
            q.enqueue({"x": i / 10})
        for cid in (3, 1, 2):  # complete out of job-id order
            q.claim(f"c{cid}", now=0.0)
        for cid in (3, 1, 2):
            q.ack(cid, f"c{cid}", float(cid))
        assert [r.job_id for r in q.completions()] == [3, 1, 2]

    def test_state_survives_close_and_reopen(self, tmp_path):
        path = tmp_path / "persist.db"
        with DurableTrialQueue(path) as q1:
            q1.enqueue({"x": 0.1}, budget=2, tag=(0, 0))
            q1.enqueue({"x": 0.2})
            q1.claim("c0", now=1.0)
            q1.ack(1, "c0", 0.5, now=2.0, sim_time=2.0, worker=0)
            q1.meta_set("sim_now", 2.0)
        with DurableTrialQueue(path) as q2:
            assert q2.n_jobs == 2 and q2.n_done == 1
            rec = q2.job(1)
            assert (rec.value, rec.tag, rec.budget) == (0.5, (0, 0), 2)
            assert q2.meta_get("sim_now") == 2.0
            assert len(q2.events()) == 3  # ask, ask, tell

    def test_meta_get_default_and_overwrite(self, q):
        assert q.meta_get("missing", 42) == 42
        q.meta_set("k", {"a": 1})
        q.meta_set("k", {"a": 2})
        assert q.meta_get("k") == {"a": 2}

    def test_fast_keyword_is_gone(self, tmp_path):
        with pytest.raises(TypeError):
            DurableTrialQueue(tmp_path / "fast.db", fast=True)


# ----------------------------------------------------------------------
# Ledger cost: what a trial asks of SQLite, independent of campaign size
# ----------------------------------------------------------------------
def _statements(queue, call):
    """The SQL statements ``call()`` runs on the queue's connection."""
    seen = []
    queue._db.set_trace_callback(seen.append)
    try:
        call()
    finally:
        queue._db.set_trace_callback(None)
    return seen


class TestLedgerCost:
    FULL_SCANS = ("MULTI-INDEX OR", "USE TEMP B-TREE", "SCAN jobs")

    def test_lease_queries_are_index_searches(self, q):
        """claim, reclaim_expired, next_lease_expiry (and ack and counts,
        which every trial or group runs) read only the rows they return:
        their plans hold no OR of two index scans, no sort and no scan
        of the jobs table."""
        for i in range(6):
            q.enqueue({"x": i / 10})
        q.claim("c0", now=0.0, lease_s=1.0)
        q.claim("c1", now=0.0)
        calls = {
            "claim": lambda: q.claim("c2", now=5.0),
            "reclaim_expired": lambda: q.reclaim_expired(20.0),
            "next_lease_expiry": q.next_lease_expiry,
            "ack": lambda: q.ack(3, "c2", 0.5),
            "duplicate ack": lambda: q.ack(3, "c2", 0.5),
            "counts": q.counts,
        }
        for name, call in calls.items():
            sql = [t for t in _statements(q, call)
                   if not t.startswith(("BEGIN", "COMMIT"))]
            assert sql, name
            for stmt in sql:
                plan = " / ".join(r[3] for r in q._db.execute("EXPLAIN QUERY PLAN " + stmt))
                assert not any(bad in plan for bad in self.FULL_SCANS), (name, stmt, plan)
                if name in ("reclaim_expired", "next_lease_expiry"):
                    assert "idx_jobs_lease" in plan, (name, plan)

    def test_statements_per_trial(self, tmp_path):
        """A 300-trial simulated ASHA campaign (the hpo_sim shape: 64
        workers, budget-cost trials, leases that never expire) runs 4.21
        statements per trial, transaction boundaries included: a fresh
        trial is one claim that finds nothing (answered from memory for
        every later consumer of the tick), a claimed insert plus its ask
        event, and an ack plus its tell event.  A deterministic count,
        not a timing."""
        n = 300
        with DurableTrialQueue(tmp_path / "cost.db", lease_s=1e9) as queue:
            sql = _statements(queue, lambda: run_elastic(
                ASHA(small_space(), seed=3, max_budget=27), objective, n, queue,
                n_workers=64, cost_model=budget_cost))
            assert queue.counts()[DONE] == n
        assert len(sql) == 1262, len(sql) / n


# ----------------------------------------------------------------------
# The ledger's rows, pinned: a change to how the loop talks to the queue
# must leave every row it writes as it was
# ----------------------------------------------------------------------
LEDGER_DIGEST = "1a0687a0f3e07c7c576d7c26ffa46e2e07b3ed8b1c64143a65e7b28771dd0df6"


def _ledger_rows(tmp_path, seed, storage, faulted):
    """Everything one 150-trial ASHA campaign leaves: the queue's job
    rows, its event log and stats, the result log's rows and ledger."""
    space = candle_mlp_space()
    faults = None
    if faulted:
        kills = {(j, 1 + j % 2): ("claim" if j % 3 else "ack") for j in range(3, 150, 11)}
        faults = kill_consumers(kills, crash=0.1, nan=0.05, straggler=0.1, seed=seed)
    path = ":memory:" if storage == "memory" else tmp_path / f"golden-{seed}-{faulted}.db"
    with DurableTrialQueue(path, lease_s=3.0 if faulted else 60.0) as queue:
        log = run_elastic(ASHA(space, seed=seed, max_budget=27),
                          SurrogateLandscape(space, seed=seed), 150, queue,
                          n_workers=8, cost_model=budget_cost, faults=faults)
        jobs = [list(vars(r).values()) for r in queue.jobs()]
        events = [list(e) for e in queue.events()]
        queue_stats = dict(queue.stats)
    trials = [list(vars(t).values()) for t in log.trials]
    return [jobs, events, queue_stats, trials, log.stats]


def test_ledger_rows_are_pinned(tmp_path):
    """Two seeds, on disk and in memory, fault-free and under crashes,
    NaNs, stragglers, consumer kills at both boundaries and a lease
    shorter than most trials: one sha256 over every row."""
    campaigns = [_ledger_rows(tmp_path, seed, storage, faulted)
                 for seed in (0, 1) for storage in ("disk", "memory")
                 for faulted in (False, True)]
    assert all(c[4]["failures"] and c[4]["quarantined"] and c[4]["workers_killed"]
               and c[4]["reclaims"] and c[4]["giveups"] == 0
               for c in campaigns[1::2])
    blob = json.dumps(campaigns, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == LEDGER_DIGEST


# ----------------------------------------------------------------------
# Groups: many calls, one transaction
# ----------------------------------------------------------------------
class TestGroups:
    def test_other_connections_see_a_group_only_once_it_commits(self, tmp_path):
        path = tmp_path / "iso.db"
        reader = sqlite3.connect(str(path), isolation_level=None)

        def visible():
            return (reader.execute("SELECT COUNT(*) FROM jobs").fetchone()[0],
                    reader.execute("SELECT COUNT(*) FROM events").fetchone()[0],
                    reader.execute("SELECT COUNT(*) FROM jobs WHERE status = 'done'")
                    .fetchone()[0])

        try:
            with DurableTrialQueue(path) as queue:
                with queue.transaction():
                    queue.enqueue({"x": 0.1})
                    queue.enqueue({"x": 0.2})
                    job = queue.claim("c0", now=0.0)
                    assert queue.ack(job.job_id, "c0", 0.5)
                    assert queue.counts() == {PENDING: 1, CLAIMED: 0, DONE: 1}
                    assert visible() == (0, 0, 0)
                assert visible() == (2, 3, 1)
        finally:
            reader.close()

    def test_exception_rolls_back_every_call_and_the_stats(self, q):
        q.enqueue({"x": 0.1})
        before = (q.jobs(), q.events(), dict(q.stats))
        with pytest.raises(RuntimeError):
            with q.transaction():
                q.enqueue({"x": 0.2})
                job = q.claim("c0", now=0.0)
                assert q.ack(job.job_id, "c0", 0.5)
                assert not q.ack(job.job_id, "c0", 0.5)
                q.meta_set("sim_now", 3.0)
                raise RuntimeError("driver died mid-group")
        assert (q.jobs(), q.events(), q.stats) == before
        assert q.meta_get("sim_now") is None
        assert q.enqueue({"x": 0.3}) == 2  # the queue is usable afterwards

    def test_nested_groups_begin_once(self, tmp_path):
        with CountingQueue(tmp_path / "n.db") as queue:
            with queue.transaction():
                queue.enqueue({"x": 0.1})
                with queue.transaction():
                    queue.claim("c0", now=0.0)
                    assert queue.n_jobs == 1
                queue.ack(1, "c0", 0.5)
            assert queue.txn_count == 1
            queue.enqueue({"x": 0.2})  # a call outside a group is its own
            assert queue.txn_count == 2

    def test_another_thread_waits_for_the_group_and_keeps_its_own_write(self, q):
        """The lock is reentrant for the group's thread only: a call
        from another thread waits and commits on its own, so the group's
        rollback cannot take it along."""
        other = threading.Thread(target=lambda: q.enqueue({"x": 0.9}))
        with pytest.raises(RuntimeError):
            with q.transaction():
                q.enqueue({"x": 0.1})
                other.start()
                other.join(timeout=0.2)
                assert other.is_alive()
                raise RuntimeError
        other.join(timeout=10)
        assert not other.is_alive()
        assert [j.config for j in q.jobs()] == [{"x": 0.9}]

    def test_real_clock_waits_for_workers_outside_any_group(self, tmp_path):
        """Each trial writes to the queue file from its worker process;
        a driver holding its group's write lock across the wait for
        results would make every one of those writes time out."""
        path = tmp_path / "real.db"
        with ParallelTrialExecutor(2) as ex:
            log = run_elastic(RandomSearch(small_space(), seed=4),
                              functools.partial(_writes_beside_the_driver, str(path)),
                              6, path, n_workers=2, executor=ex)
        assert len(log) == 6 and log.stats["failures"] == 0
        with DurableTrialQueue(path) as queue:
            assert all(queue.meta_get(f"trial-{t.config['x']!r}") == 1 for t in log.trials)


# ----------------------------------------------------------------------
# Consumer kills at every claim/ack boundary
# ----------------------------------------------------------------------
class TestKillBoundaries:
    N = 12

    def _run(self, tmp_path, kills, strategy=None, **kw):
        with DurableTrialQueue(tmp_path / "kill.db", lease_s=5.0) as queue:
            strat = strategy or RandomSearch(small_space(), seed=3)
            log = run_elastic(
                strat, objective, self.N, queue, n_workers=4,
                cost_model=budget_cost, faults=kill_consumers(kills), **kw,
            )
            counts = queue.counts()
            completions = queue.completions()
        return log, counts, completions

    def _assert_exactly_once(self, log, counts, completions):
        assert counts == {PENDING: 0, CLAIMED: 0, DONE: self.N}
        assert len(log) == self.N
        done_ids = [r.job_id for r in completions]
        assert len(done_ids) == len(set(done_ids)) == self.N  # no dup, no loss

    def test_kill_after_claim_every_job(self, tmp_path):
        kills = {(j, 1): "claim" for j in range(1, self.N + 1)}
        log, counts, completions = self._run(tmp_path, kills)
        self._assert_exactly_once(log, counts, completions)
        assert log.stats["workers_killed"] == self.N
        assert log.stats["reclaims"] == self.N
        assert all(r.attempts == 2 for r in completions)

    def test_kill_before_ack_every_job(self, tmp_path):
        kills = {(j, 1): "ack" for j in range(1, self.N + 1)}
        log, counts, completions = self._run(tmp_path, kills)
        self._assert_exactly_once(log, counts, completions)
        assert log.stats["workers_killed"] == self.N
        assert log.stats["duplicate_acks"] == 0  # the dead never ack

    def test_alternating_boundaries(self, tmp_path):
        kills = {(j, 1): ("claim" if j % 2 else "ack")
                 for j in range(1, self.N + 1)}
        log, counts, completions = self._run(tmp_path, kills)
        self._assert_exactly_once(log, counts, completions)

    def test_second_attempt_killed_too(self, tmp_path):
        kills = {(1, 1): "ack", (1, 2): "claim", (2, 1): "claim", (2, 2): "ack"}
        log, counts, completions = self._run(tmp_path, kills)
        self._assert_exactly_once(log, counts, completions)
        by_id = {r.job_id: r for r in completions}
        assert by_id[1].attempts == 3 and by_id[2].attempts == 3

    def test_poison_job_gives_up_as_inf(self, tmp_path):
        # Job 1 dies on every allowed attempt: with max_retries=2 the
        # driver completes it as inf — exactly-once survives give-up.
        kills = {(1, a): "claim" for a in range(1, 4)}
        log, counts, completions = self._run(tmp_path, kills, max_retries=2)
        self._assert_exactly_once(log, counts, completions)
        assert log.stats["giveups"] == 1
        rec = next(r for r in completions if r.job_id == 1)
        assert rec.value == float("inf") and rec.completed_by == "driver"

    def test_killed_slot_respawns_as_fresh_consumer(self, tmp_path):
        kills = {(1, 1): "ack"}
        log, counts, completions = self._run(tmp_path, kills)
        self._assert_exactly_once(log, counts, completions)
        rec = next(r for r in completions if r.job_id == 1)
        # The retry was acked by a .1 (or later) incarnation, never the
        # dead .0 identity.
        assert not rec.completed_by.endswith(".0")

    def test_kill_plan_validates_boundary(self):
        with pytest.raises(ValueError, match="mid-flight"):
            kill_consumers({(1, 1): "mid-flight"})
        with pytest.raises(ValueError):  # a kill is a consumer fault, not a trial's
            FaultSchedule(entries={("trial", 0, 0): "claim"})

    def test_asha_under_kills(self, tmp_path):
        kills = {(j, 1): ("claim" if j % 2 else "ack") for j in range(2, 20, 3)}
        log, counts, completions = self._run(
            tmp_path, kills,
            strategy=ASHA(small_space(), seed=0, max_budget=9),
        )
        self._assert_exactly_once(log, counts, completions)


# ----------------------------------------------------------------------
# Elastic runtime: campaigns, resume, membership
# ----------------------------------------------------------------------
class TestElasticRuntime:
    def test_sim_campaign_completes(self, tmp_path):
        with DurableTrialQueue(tmp_path / "a.db") as queue:
            log = run_elastic(RandomSearch(small_space(), seed=1), objective,
                              20, queue, n_workers=4, cost_model=budget_cost)
        assert len(log) == 20
        assert sorted(t.trial_id for t in log.trials) == list(range(20))

    def test_accepts_path_and_creates_queue(self, tmp_path):
        path = tmp_path / "sub" / "by_path.db"
        log = run_elastic(RandomSearch(small_space(), seed=1), objective,
                          8, path, n_workers=2, cost_model=budget_cost)
        assert len(log) == 8 and path.exists()

    def test_asha_campaign_promotes(self, tmp_path):
        strat = ASHA(small_space(), seed=2, max_budget=9)
        log = run_elastic(strat, objective, 40, tmp_path / "asha.db",
                          n_workers=8, cost_model=budget_cost)
        assert len(log) == 40
        assert strat.promotions > 0
        assert max(t.budget for t in log.trials) == 9

    def test_same_seed_same_rows(self, tmp_path):
        logs = [
            run_elastic(ASHA(small_space(), seed=5, max_budget=9), objective,
                        30, tmp_path / f"rep{i}.db", n_workers=4,
                        cost_model=budget_cost)
            for i in range(2)
        ]
        assert rows(logs[0]) == rows(logs[1])

    def test_driver_kill_resume_bit_identical(self, tmp_path):
        mk = lambda: ASHA(small_space(), seed=7, max_budget=9)  # noqa: E731
        full = run_elastic(mk(), objective, 40, tmp_path / "full.db",
                           n_workers=4, cost_model=budget_cost)
        aborted = run_elastic(mk(), objective, 40, tmp_path / "crash.db",
                              n_workers=4, cost_model=budget_cost,
                              stop_after=13)
        assert aborted.stats["aborted"] and len(aborted) == 13
        resumed = run_elastic(mk(), objective, 40, tmp_path / "crash.db",
                              n_workers=4, cost_model=budget_cost)
        assert resumed.stats["resumed"]
        assert resumed.stats["replayed"] == 13
        assert rows(resumed) == rows(full)

    def test_resume_of_a_file_without_the_lease_index(self, tmp_path):
        """A queue file written before ``idx_jobs_lease`` existed (killed
        mid-campaign, claims outstanding) gains the index when it is
        opened, and the resumed campaign finishes as the uninterrupted
        one did."""
        mk = lambda: ASHA(small_space(), seed=7, max_budget=9)  # noqa: E731
        kw = dict(n_workers=4, cost_model=budget_cost, lease_s=4.0,
                  faults=kill_consumers({(3, 1): "claim", (9, 1): "ack"}))
        full = run_elastic(mk(), objective, 40, tmp_path / "full.db", **kw)
        path = tmp_path / "old.db"
        db = sqlite3.connect(path)
        db.executescript(_SCHEMA_WITHOUT_LEASE_INDEX)
        db.close()
        run_elastic(mk(), objective, 40, path, stop_after=13, **kw)
        db = sqlite3.connect(path)
        db.execute("DROP INDEX idx_jobs_lease")  # as the older schema left it
        assert db.execute("SELECT COUNT(*) FROM jobs WHERE status = 'claimed'").fetchone()[0]
        db.close()
        assert _indexes(path) == ["idx_jobs_status"]
        resumed = run_elastic(mk(), objective, 40, path, **kw)
        assert resumed.stats["resumed"] and resumed.stats["replayed"] == 13
        assert _indexes(path) == ["idx_jobs_lease", "idx_jobs_status"]
        assert rows(resumed) == rows(full)

    def test_resume_with_wrong_seed_raises(self, tmp_path):
        run_elastic(RandomSearch(small_space(), seed=1), objective, 10,
                    tmp_path / "seed.db", n_workers=2,
                    cost_model=budget_cost, stop_after=4)
        with pytest.raises(ElasticReplayError):
            run_elastic(RandomSearch(small_space(), seed=2), objective, 10,
                        tmp_path / "seed.db", n_workers=2,
                        cost_model=budget_cost)

    def test_replay_into_rebuilds_log(self, tmp_path):
        path = tmp_path / "replay.db"
        first = run_elastic(RandomSearch(small_space(), seed=4), objective,
                            12, path, n_workers=3, cost_model=budget_cost)
        with DurableTrialQueue(path) as queue:
            log = ResultLog()
            sugs = replay_into(queue, RandomSearch(small_space(), seed=4), log)
        assert len(sugs) == 12
        assert rows(log) == rows(first)

    def test_worker_plan_join_and_leave(self, tmp_path):
        plan = WorkerPlan(sim=[(3.0, 4), (5.0, -2)])
        log = run_elastic(RandomSearch(small_space(), seed=6), objective,
                          30, tmp_path / "plan.db", n_workers=2,
                          cost_model=budget_cost, worker_plan=plan)
        assert len(log) == 30
        assert log.stats["workers_lost"] == 2
        # The join shows up as trials running on the new slots (wid >= 2).
        assert {t.worker for t in log.trials} > {0, 1}

    def test_faulted_campaign_completes(self, tmp_path):
        faults = FaultSchedule(crash=0.15, nan=0.1, straggler=0.1,
                               worker_loss_times=(5.0,), seed=9)

        with TraceRecorder() as rec, \
                DurableTrialQueue(tmp_path / "faults.db", lease_s=5.0) as queue:
            log = run_elastic(RandomSearch(small_space(), seed=3), objective,
                              40, queue, n_workers=4, cost_model=budget_cost,
                              faults=faults, max_retries=1)
            counts = queue.counts()
        stats = log.stats
        assert counts == {PENDING: 0, CLAIMED: 0, DONE: 40}
        assert stats["failures"] > 0
        assert stats["quarantined"] > 0
        assert stats["workers_lost"] == 1
        # A trial CRASH is a failed attempt, not a consumer death: nobody
        # is killed, no lease is waited out, and the ledger balances.
        assert stats["workers_killed"] == 0 and stats["reclaims"] == 0
        assert stats["giveups"] > 0
        assert stats["failures"] == stats["retries"] + stats["giveups"]
        assert stats["giveups"] == sum(t.worker == -1 for t in log.trials)
        # Each attempt's fault is drawn once: the run's fault counts, the
        # trace's fault events and the ledger agree.
        assert stats["failures"] == stats["faults"]["crash"]
        assert stats["quarantined"] == stats["faults"][NAN]
        assert stats["workers_lost"] == stats["faults"][WORKER_LOSS]
        assert len(rec.events(kind="fault")) == sum(stats["faults"].values())
        assert len(rec.events(kind="hpo.retry")) == stats["retries"]

    def test_reused_schedule_gives_each_run_the_same_faults(self, tmp_path):
        """A schedule is a declaration, not a consumable: passed to two
        campaigns it kills the same consumers and draws the same rate
        faults in both, and each ledger counts only its own run's."""
        faults = kill_consumers({(2, 1): "claim", (5, 1): "ack"}, crash=0.15, nan=0.1,
                                straggler=0.1, worker_loss_times=(5.0,), seed=9)
        runs = []
        for i in range(2):
            log = run_elastic(RandomSearch(small_space(), seed=3), objective, 30,
                              tmp_path / f"reuse{i}.db", n_workers=4, cost_model=budget_cost,
                              lease_s=5.0, faults=faults, max_retries=1)
            runs.append((rows(log), log.stats))
        assert runs[0] == runs[1]
        stats = runs[0][1]
        assert stats["workers_killed"] == 2 and stats["reclaims"] == 2
        assert stats["failures"] == stats["faults"]["crash"] > 0
        assert stats["workers_lost"] == stats["faults"][WORKER_LOSS] == 1

    @pytest.mark.parametrize("via", ["run_elastic", "run_parallel"])
    def test_trial_longer_than_lease_runs_once(self, tmp_path, via):
        """A live consumer keeps its claim however long the trial: 100 s
        trials under the 60 s default lease run once each (on disk the
        driver renews the leases; in memory they never expire)."""
        calls = []

        def counted(config, budget=1):
            calls.append(config["x"])
            return objective(config, budget)

        strat = RandomSearch(small_space(), seed=2)
        if via == "run_elastic":
            log = run_elastic(strat, counted, 20, tmp_path / "long.db",
                              n_workers=4, cost_model=constant_cost(100.0))
        else:
            log = run_parallel(strat, counted, 20, 4, constant_cost(100.0))
        assert len(calls) == len(log) == 20
        assert log.stats["duplicate_acks"] == 0 and log.stats["reclaims"] == 0
        assert max(t.sim_time for t in log.trials) == 500.0

    def test_kill_still_waits_out_the_lease_of_a_long_trial(self, tmp_path):
        """Renewal is the heartbeat of a *live* consumer: one killed
        before its ack stops renewing and the job is reclaimed."""
        log = run_elastic(RandomSearch(small_space(), seed=2), objective, 4,
                          tmp_path / "killed.db", n_workers=2,
                          cost_model=constant_cost(100.0),
                          faults=kill_consumers({(1, 1): "ack"}))
        assert len(log) == 4
        assert log.stats["workers_killed"] == 1 and log.stats["reclaims"] == 1

    def test_run_parallel_delegates_to_queue_mode(self, tmp_path):
        log = run_parallel(RandomSearch(small_space(), seed=8), objective,
                           15, 4, budget_cost, queue=tmp_path / "rp.db")
        assert len(log) == 15
        # One loop, two storage modes: the ledger in memory and on disk
        # give the same rows, the same stats and the same fault counts.
        faults = FaultSchedule(crash=0.15, nan=0.1, straggler=0.1,
                               worker_loss_times=(2.0, 7.0), seed=4)
        strategies = {
            "random": lambda: RandomSearch(small_space(), seed=8),
            "asha": lambda: ASHA(small_space(), seed=8, max_budget=9),
        }
        for name, mk in strategies.items():
            for spec in (None, faults):
                runs = []
                for queue in (None, tmp_path / f"{name}-{spec is not None}.db"):
                    with TraceRecorder() as rec:
                        log = run_parallel(mk(), objective, 40, 4, budget_cost,
                                           faults=spec, max_retries=2, queue=queue)
                    assert len(log) == 40
                    counts = log.stats["faults"]
                    assert len(rec.events(kind="fault")) == sum(counts.values())
                    runs.append((rows(log), log.stats, counts))
                assert runs[0] == runs[1], (name, spec)
                if spec is not None:
                    _, stats, counts = runs[0]
                    assert stats["failures"] == counts["crash"] > 0
                    assert stats["quarantined"] == counts[NAN] > 0
                    assert stats["workers_lost"] == counts[WORKER_LOSS] == 2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_asha_reaches_target_no_later_than_sync_halving(self, tmp_path, seed):
        # Cost = budget on the simulated clock, so the comparison is about
        # rung barriers, not luck, and is exact for a seed.  The target is
        # one both runs provably reach: the worse of the two final bests.
        space = candle_mlp_space()
        surrogate = SurrogateLandscape(space, seed=seed)
        logs = [
            run_parallel(cls(space, seed=seed, min_budget=1, max_budget=27),
                         surrogate, 150, 8, budget_cost,
                         queue=tmp_path / f"{cls.__name__}.db")
            for cls in (ASHA, SuccessiveHalving)
        ]
        target = max(log.best_value() for log in logs)
        assert logs[0].time_to_value(target) <= logs[1].time_to_value(target)

    def test_run_parallel_queue_rejects_sync(self, tmp_path):
        with pytest.raises(ValueError):
            run_parallel(RandomSearch(small_space(), seed=8), objective,
                         15, 4, budget_cost, queue=tmp_path / "rp.db",
                         sync=True)

    def test_validation_errors(self, tmp_path):
        strat = RandomSearch(small_space(), seed=0)
        with pytest.raises(ValueError):
            run_elastic(strat, objective, 0, tmp_path / "v.db", n_workers=2)
        with pytest.raises(ValueError):
            run_elastic(strat, objective, 5, tmp_path / "v.db", n_workers=0)
        with pytest.raises(ValueError):
            run_elastic(strat, objective, 5, tmp_path / "v.db", n_workers=2,
                        max_retries=-1)

    def test_aborted_campaign_is_consistent_checkpoint(self, tmp_path):
        path = tmp_path / "abort.db"
        run_elastic(RandomSearch(small_space(), seed=1), objective, 20, path,
                    n_workers=4, cost_model=budget_cost, stop_after=7)
        with DurableTrialQueue(path) as queue:
            counts = queue.counts()
            asks = sum(1 for _, k, _, _ in queue.events() if k == "ask")
            tells = sum(1 for _, k, _, _ in queue.events() if k == "tell")
            assert queue.meta_get("sim_now") is not None
        # Every job is accounted for: done, or claimed/pending (in
        # flight at the kill) — and the event log matches the tables.
        assert counts[DONE] == tells == 7
        assert sum(counts.values()) == asks

    def test_claims_take_the_queue_lease(self, tmp_path):
        """A queue object's ``lease_s`` is the lease (it used to be
        ignored for run_elastic's own 60 s); ``lease_s=`` builds a
        queue from a path, and is refused beside a queue object."""
        kw = dict(n_workers=4, cost_model=budget_cost, stop_after=3)
        with DurableTrialQueue(tmp_path / "own.db", lease_s=7.0) as queue:
            run_elastic(RandomSearch(small_space(), seed=1), objective, 20, queue, **kw)
            held = [r for r in queue.jobs() if r.status == CLAIMED]
            with pytest.raises(ValueError):
                run_elastic(RandomSearch(small_space(), seed=1), objective, 20, queue,
                            lease_s=7.0, **kw)
        assert held and {r.lease_expires - r.claimed_at for r in held} == {7.0}
        run_elastic(RandomSearch(small_space(), seed=1), objective, 20,
                    tmp_path / "built.db", lease_s=3.0, **kw)
        with DurableTrialQueue(tmp_path / "built.db") as queue:
            held = [r for r in queue.jobs() if r.status == CLAIMED]
        assert held and {r.lease_expires - r.claimed_at for r in held} == {3.0}

    def test_one_transaction_per_tick(self, tmp_path):
        """A campaign begins three transactions to read its checkpoint
        (jobs, events, sim clock), one for the fills at its start, and
        one per distinct completion time — the same count every run."""
        counts = []
        for i in range(2):
            with CountingQueue(tmp_path / f"t{i}.db") as queue:
                log = run_elastic(ASHA(small_space(), seed=5, max_budget=9), objective,
                                  60, queue, n_workers=8, cost_model=budget_cost)
                ticks = len({t.sim_time for t in log.trials})
                assert queue.txn_count == 3 + 1 + ticks
                counts.append(queue.txn_count)
        assert counts[0] == counts[1] < len(log) / 2
        # A respawn and a lease expiry move the clock too.  Ticks: 0 (job
        # 1 claimed, its consumer killed), 1 (respawn; job 2 claimed), 2
        # (job 2 done), 5 (job 1's lease expired; reclaimed), 6 (done).
        with CountingQueue(tmp_path / "kill.db", lease_s=5.0) as queue:
            log = run_elastic(RandomSearch(small_space(), seed=1), objective, 2, queue,
                              n_workers=1, cost_model=constant_cost(1.0),
                              faults=kill_consumers({(1, 1): "claim"}))
            assert [t.sim_time for t in log.trials] == [2.0, 6.0]
            assert queue.txn_count == 3 + 5

    @pytest.mark.parametrize("kills", [{}, {(j, 1): ("claim" if j % 2 else "ack")
                                            for j in range(2, 24, 5)}])
    def test_driver_crash_leaves_a_tick_boundary(self, tmp_path, kills):
        """An objective that raises at its k-th call, for every k, kills
        the driver mid-tick: the tick rolls back as a whole, so the file
        holds exactly the completions of earlier ticks with the event log
        matching the tables, and resuming it reproduces the uninterrupted
        run."""
        kw = dict(n_workers=3, cost_model=budget_cost, lease_s=6.0,
                  faults=kill_consumers(kills))
        mk = lambda: ASHA(small_space(), seed=13, max_budget=9)  # noqa: E731
        full = run_elastic(mk(), objective, 24, tmp_path / "full.db", **kw)
        assert full.stats["giveups"] == 0  # so the k-th call is the k-th trial

        for k, crashed in enumerate(full.trials, start=1):
            calls = []

            def crashing(config, budget=1):
                calls.append(config)
                if len(calls) == k:
                    raise RuntimeError("driver killed")
                return objective(config, budget)

            path = tmp_path / f"crash{k}.db"
            with pytest.raises(RuntimeError):
                run_elastic(mk(), crashing, 24, path, **kw)
            with DurableTrialQueue(path) as queue:
                records = queue.jobs()
                events = queue.events()
            done = {r.job_id for r in records if r.status == DONE}
            assert done == {t.trial_id + 1 for t in full.trials
                            if t.sim_time < crashed.sim_time}, k
            assert sum(kind == "ask" for _, kind, _, _ in events) == len(records)
            assert sorted(j for _, kind, j, _ in events if kind == "tell") == sorted(done)
            for r in records:
                held = r.status == CLAIMED
                assert (r.owner is not None) == held == (r.lease_expires is not None)
            resumed = run_elastic(mk(), objective, 24, path, **kw)
            assert rows(resumed) == rows(full), k


# ----------------------------------------------------------------------
# Hypothesis: random kill schedules and stop points
# ----------------------------------------------------------------------
N_PROP = 12

kill_schedules = st.dictionaries(
    keys=st.tuples(st.integers(1, N_PROP), st.integers(1, 2)),
    values=st.sampled_from(["claim", "ack"]),
    max_size=8,
)


class TestCrashReplayProperties:
    @settings(max_examples=20, deadline=None)
    @given(kills=kill_schedules)
    def test_exactly_once_no_orphans_under_any_kill_schedule(self, kills):
        """For ANY schedule of consumer kills at claim/ack boundaries:
        every job completes exactly once and nothing is orphaned."""
        # A fresh directory per hypothesis example (the function-scoped
        # tmp_path is shared across examples and a leftover queue file
        # would silently turn the run into a resume).
        with tempfile.TemporaryDirectory(prefix="repro_hpoq_") as tmp, \
                DurableTrialQueue(Path(tmp) / "prop.db", lease_s=4.0) as queue:
            log = run_elastic(
                ASHA(small_space(), seed=11, max_budget=9), objective,
                N_PROP, queue, n_workers=3, cost_model=budget_cost,
                faults=kill_consumers(kills),
            )
            counts = queue.counts()
            done_ids = [r.job_id for r in queue.completions()]
            tells = sum(1 for _, k, _, _ in queue.events() if k == "tell")
        assert counts == {PENDING: 0, CLAIMED: 0, DONE: N_PROP}  # no orphans
        assert sorted(done_ids) == list(range(1, N_PROP + 1))  # exactly once
        assert tells == N_PROP
        assert len(log) == N_PROP
        assert log.stats["duplicate_acks"] == 0

    @settings(max_examples=12, deadline=None)
    @given(stop=st.integers(1, 23), kills=kill_schedules)
    def test_resume_bit_identical_at_any_stop_point(self, stop, kills):
        """Kill the driver after ANY number of completions (with consumer
        kills raging underneath): the resumed campaign reproduces the
        uninterrupted run bit for bit."""
        mk = lambda: ASHA(small_space(), seed=13, max_budget=9)  # noqa: E731
        kw = dict(n_workers=3, cost_model=budget_cost,
                  faults=kill_consumers(kills))
        with tempfile.TemporaryDirectory(prefix="repro_hpoq_") as tmp:
            full = run_elastic(mk(), objective, 24, Path(tmp) / "pf.db", **kw)
            run_elastic(mk(), objective, 24, Path(tmp) / "pc.db",
                        stop_after=stop, **kw)
            resumed = run_elastic(mk(), objective, 24, Path(tmp) / "pc.db", **kw)
        assert rows(resumed) == rows(full)


class TestMultiDriver:
    """Two driver *processes* share one queue file: SQLite's WAL plus
    the claim transaction must arbitrate every job to exactly one
    driver, and completions must stay exactly-once across processes."""

    N_JOBS = 40

    def test_two_processes_drain_queue_exactly_once(self, tmp_path):
        path = tmp_path / "shared.db"
        with DurableTrialQueue(path) as queue:
            for i in range(self.N_JOBS):
                queue.enqueue({"x": i / self.N_JOBS}, budget=1)

        barrier = mp.Barrier(2)
        out_q = mp.Queue()
        drivers = [
            mp.Process(target=_drain_driver,
                       args=(path, name, barrier, out_q))
            for name in ("driver-a", "driver-b")
        ]
        for p in drivers:
            p.start()
        results = dict(out_q.get(timeout=60) for _ in drivers)
        for p in drivers:
            p.join(timeout=30)
            assert p.exitcode == 0

        all_acked = sorted(results["driver-a"] + results["driver-b"])
        # Exactly-once across processes: the two drivers' acks partition
        # the job set — nothing lost, nothing double-completed.
        assert all_acked == list(range(1, self.N_JOBS + 1))
        assert results["driver-a"], "driver-a never won a claim"
        assert results["driver-b"], "driver-b never won a claim"

        with DurableTrialQueue(path) as queue:
            counts = queue.counts()
            records = queue.completions()
            tells = sum(1 for _, k, _, _ in queue.events() if k == "tell")
        assert counts == {PENDING: 0, CLAIMED: 0, DONE: self.N_JOBS}
        assert tells == self.N_JOBS
        by = {r.completed_by for r in records}
        assert by == {"driver-a", "driver-b"}

    def test_expired_lease_reclaimed_across_connections(self, tmp_path):
        """A job claimed through one connection whose driver dies is
        reclaimed through another connection after lease expiry, and
        the dead driver's late ack loses."""
        path = tmp_path / "lease.db"
        with DurableTrialQueue(path) as qa, DurableTrialQueue(path) as qb:
            jid = qa.enqueue({"x": 0.5}, budget=1)
            now = 1000.0
            claimed_a = qa.claim("driver-a", now=now, lease_s=5.0)
            assert claimed_a.job_id == jid
            # Within the lease the other driver gets nothing.
            assert qb.claim("driver-b", now=now + 1.0) is None
            # After expiry driver-b reclaims the same job and finishes.
            claimed_b = qb.claim("driver-b", now=now + 6.0)
            assert claimed_b is not None and claimed_b.job_id == jid
            assert claimed_b.attempts == 2
            assert qb.ack(jid, "driver-b", value=1.0)
            # The presumed-dead driver's ack is a duplicate: rejected.
            assert not qa.ack(jid, "driver-a", value=2.0)
            assert qa.completions()[0].completed_by == "driver-b"
