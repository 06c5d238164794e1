"""Durable on-disk trial queue: consumer claims, leases, exactly-once acks.

The elastic campaign runtime (:mod:`repro.hpo.elastic`) needs a queue
that survives the death of any participant — a worker that crashes
between claim and ack, or the whole campaign driver.  This module
reproduces the consumer-group semantics of a redis-streams job queue on
SQLite (stdlib, no external deps, one file on disk):

* **enqueue** — the driver appends a trial job (config, budget,
  strategy tag) and, atomically in the same transaction, an ``ask``
  record into the replay event log.  Given an ``owner``, the job is
  inserted already claimed by it: the row a claim of the new job would
  leave, in one statement.
* **claim** — a consumer atomically takes the oldest runnable job
  (pending, or claimed with an expired lease) and holds a *lease* on
  it.  A consumer that dies mid-trial simply stops renewing: after
  ``lease_s`` the job becomes runnable again and another consumer
  reclaims it.  Claims are strictly ordered by job id, so a
  single-threaded replay of the same schedule is deterministic.
* **ack** — *exactly-once completion.*  The first ack for a job wins
  (it flips the job to ``done`` and appends a ``tell`` event in the
  same transaction); every later ack — a zombie consumer finishing
  after its lease was reclaimed, a retry racing the original — is
  rejected and counted, never recorded twice.
* **requeue** — a failed attempt (worker process died, injected crash)
  returns the job to pending; ``attempts`` keeps the count so the
  driver can give up on a poison job after ``max_retries``.

The event log (``ask``/``tell`` rows in commit order) is the durable
checkpoint of the *search state*: replaying it through a fresh strategy
instance with the same seed reproduces the strategy's internal state
bit-for-bit, which is what makes a killed campaign resumable
(:func:`repro.hpo.elastic.run_elastic`).

The atomic unit is a **group**: :meth:`DurableTrialQueue.transaction`
opens one, and every call made inside it runs its statements in the
group's one SQLite transaction, committed when the group closes and
rolled back as a whole if an exception leaves it.  A call made outside
any group is a group of its own.  A crash therefore always leaves the
file at a group boundary — the elastic driver groups one simulated
tick, or one settled result, at a time.

Inside a group nothing but the group's own calls changes the file, so
a claim that found nothing runnable at ``now`` is remembered until the
group ends: a later claim at the same ``now`` answers ``None`` without a
statement, unless a call in between made a job runnable at that ``now``
(a pending enqueue, a requeue, a reclaim or reset of claims, or a lease
set to end by then).

Clocks are injected: every lease-sensitive call takes ``now`` so the
same queue runs under the simulated clock (deterministic 10k-trial
benches, hypothesis crash schedules) and the wall clock (real worker
processes) with identical semantics.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

__all__ = ["ClaimedJob", "JobRecord", "DurableTrialQueue", "PENDING", "CLAIMED", "DONE"]

PENDING = "pending"
CLAIMED = "claimed"
DONE = "done"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id        INTEGER PRIMARY KEY,
    config        TEXT    NOT NULL,
    budget        INTEGER NOT NULL,
    tag           TEXT,
    status        TEXT    NOT NULL DEFAULT 'pending',
    owner         TEXT,
    claimed_at    REAL,
    lease_expires REAL,
    attempts      INTEGER NOT NULL DEFAULT 0,
    value         REAL,
    sim_time      REAL,
    worker        INTEGER,
    completed_by  TEXT
);
CREATE INDEX IF NOT EXISTS idx_jobs_status ON jobs (status, job_id);
CREATE INDEX IF NOT EXISTS idx_jobs_lease ON jobs (lease_expires) WHERE status = 'claimed';
CREATE TABLE IF NOT EXISTS events (
    seq    INTEGER PRIMARY KEY AUTOINCREMENT,
    kind   TEXT    NOT NULL,
    job_id INTEGER NOT NULL,
    value  REAL
);
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT
);
"""


@dataclass
class ClaimedJob:
    """What a consumer holds after a successful claim."""

    job_id: int
    config: Dict
    budget: int
    tag: Optional[object]
    attempts: int  # executions started, including this one
    lease_expires: float


@dataclass
class JobRecord:
    """Full durable state of one job (queries/tests)."""

    job_id: int
    config: Dict
    budget: int
    tag: Optional[object]
    status: str
    owner: Optional[str]
    claimed_at: Optional[float]  # when the live claim was taken (sim or wall)
    lease_expires: Optional[float]
    attempts: int
    value: Optional[float]
    sim_time: Optional[float]
    worker: Optional[int]
    completed_by: Optional[str]


# Built once: the same bytes as ``json.dumps(config, sort_keys=True)``
# and ``json.dumps(tag)``, without a new encoder per call.
_encode_config = json.JSONEncoder(sort_keys=True).encode
_encode_json = json.JSONEncoder().encode


def _encode_tag(tag) -> Optional[str]:
    return None if tag is None else _encode_json(tag)


def _decode_tag(text: Optional[str]):
    if text is None:
        return None
    tag = json.loads(text)
    # JSON has no tuples; strategy tags are tuples (bracket, rung, launch).
    return tuple(tag) if isinstance(tag, list) else tag


class DurableTrialQueue:
    """SQLite-backed job queue with leases and exactly-once completion.

    Parameters
    ----------
    path:
        The database file (created if missing).  Everything — jobs,
        the ask/tell replay log, campaign metadata — lives in this one
        file; copying it *is* checkpointing the search.  ``":memory:"``
        keeps the same tables and transactions in a private in-process
        database instead: nothing touches the disk and the ledger is
        gone at :meth:`close` (what ``run_parallel`` uses when it is not
        given a queue).
    lease_s:
        Default lease duration handed to :meth:`claim`.
    """

    def __init__(self, path: Union[str, Path], lease_s: float = 60.0) -> None:
        if lease_s <= 0:
            raise ValueError("lease_s must be > 0")
        self.path = Path(path)
        self.lease_s = float(lease_s)
        if str(path) != ":memory:":
            self.path.parent.mkdir(parents=True, exist_ok=True)
        # Reentrant: a group holds the lock while the calls inside it
        # take it again.
        self._lock = threading.RLock()
        self._group_open = False
        # The ``now`` at which a claim in the open group found nothing
        # runnable (None: no such claim, or a later call made work).
        self._drained: Optional[float] = None
        self._db = sqlite3.connect(str(self.path), timeout=30.0, check_same_thread=False)
        self._db.isolation_level = None  # explicit BEGIN/COMMIT below
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute("PRAGMA synchronous=NORMAL")
        self._db.execute("PRAGMA busy_timeout=30000")
        # executescript manages its own transaction boundaries.
        self._db.executescript(_SCHEMA)
        # Per-process bookkeeping (durable truth lives in the tables).
        self.stats: Dict[str, int] = {
            "enqueued": 0, "claims": 0, "reclaims": 0, "acks": 0,
            "duplicate_acks": 0, "requeues": 0,
        }

    # -- plumbing --------------------------------------------------------
    def _txn(self) -> None:
        """Begin a group's transaction: the one place a transaction
        begins, called only when no group is open."""
        self._db.execute("BEGIN IMMEDIATE")

    def transaction(self) -> "_Transaction":
        """Open a group: every call made inside the ``with`` block runs
        in one transaction, committed when the block exits.

        An exception that leaves the block rolls back every call made
        in it, and :attr:`stats` reads as it did before the block.  A
        group opened inside a group joins the outer one.  The group
        holds SQLite's write lock for its whole duration, so another
        connection to the same file waits for it (``busy_timeout``
        30 s) and sees none of its writes until it commits.
        """
        return _Transaction(self)

    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "DurableTrialQueue":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _lease_set(self, expires: float) -> None:
        """A claim now ends at ``expires``: if that is no later than the
        drained ``now``, the job is runnable then."""
        if self._drained is not None and expires <= self._drained:
            self._drained = None

    # -- producer --------------------------------------------------------
    def enqueue(
        self, config: Dict, budget: int = 1, tag=None,
        owner: Optional[str] = None, now: Optional[float] = None,
    ) -> int:
        """Append one job and its ``ask`` event atomically; returns the
        job id (the launch index: ids are assigned in ask order).

        With ``owner``, the job is inserted claimed by it at ``now``
        (default: the wall clock) under the queue's lease: the row, and
        the stats, of a pending enqueue followed by a :meth:`claim` that
        takes it.  The caller holds the job as it asked for it."""
        if budget < 1:
            raise ValueError("budget must be >= 1")
        if owner is None and now is not None:
            raise ValueError("now= is the time of a claim: it needs owner=")
        values = (_encode_config(config), int(budget), _encode_tag(tag))
        with self.transaction():
            if owner is None:
                cur = self._db.execute(
                    "INSERT INTO jobs (config, budget, tag) VALUES (?, ?, ?)", values,
                )
                self._drained = None
            else:
                now = time.time() if now is None else float(now)
                expires = now + self.lease_s
                cur = self._db.execute(
                    "INSERT INTO jobs (config, budget, tag, status, owner, claimed_at, "
                    "lease_expires, attempts) VALUES (?, ?, ?, 'claimed', ?, ?, ?, 1)",
                    (*values, owner, now, expires),
                )
                self._lease_set(expires)
            job_id = cur.lastrowid
            self._db.execute(
                "INSERT INTO events (kind, job_id) VALUES ('ask', ?)", (job_id,)
            )
        self.stats["enqueued"] += 1
        if owner is not None:
            self.stats["claims"] += 1
        return job_id

    # -- consumer --------------------------------------------------------
    def claim(
        self, consumer: str, now: Optional[float] = None, lease_s: Optional[float] = None
    ) -> Optional[ClaimedJob]:
        """Atomically take the oldest runnable job under a lease.

        Runnable = pending, or claimed with ``lease_expires <= now``
        (the previous consumer is presumed dead — this is the reclaim
        path; reclaims are counted in ``stats``).  Returns None when
        nothing is runnable.
        """
        now = time.time() if now is None else float(now)
        lease = self.lease_s if lease_s is None else float(lease_s)
        with self.transaction():
            if now == self._drained:
                return None
            # Two index searches, not a walk of every pending and
            # in-flight row: the first pending job (idx_jobs_status) and
            # the oldest expired claim (idx_jobs_lease, which holds only
            # claimed rows and which the planner does not pick by
            # itself).  The smaller id is the oldest runnable job.
            row = self._db.execute(
                "SELECT job_id, config, budget, tag, status, attempts FROM jobs "
                "WHERE job_id = (SELECT MIN(id) FROM ("
                "SELECT MIN(job_id) AS id FROM jobs WHERE status = 'pending' "
                "UNION ALL "
                "SELECT MIN(job_id) FROM jobs INDEXED BY idx_jobs_lease "
                "WHERE status = 'claimed' AND lease_expires <= ?))",
                (now,),
            ).fetchone()
            if row is None:
                self._drained = now
                return None
            job_id, config, budget, tag, status, attempts = row
            expires = now + lease
            self._db.execute(
                "UPDATE jobs SET status = 'claimed', owner = ?, claimed_at = ?, "
                "lease_expires = ?, attempts = attempts + 1 WHERE job_id = ?",
                (consumer, now, expires, job_id),
            )
            self._lease_set(expires)
        self.stats["claims"] += 1
        if status == CLAIMED:
            self.stats["reclaims"] += 1
        return ClaimedJob(
            job_id=job_id, config=json.loads(config), budget=budget,
            tag=_decode_tag(tag), attempts=attempts + 1, lease_expires=expires,
        )

    def ack(
        self,
        job_id: int,
        consumer: str,
        value: float,
        now: Optional[float] = None,
        sim_time: Optional[float] = None,
        worker: int = -1,
    ) -> bool:
        """Complete a job — exactly once.

        The first ack flips the job to ``done`` and appends the ``tell``
        event in the same transaction; it wins even if the acker's lease
        already expired (the work is real, and deterministic objectives
        make any re-execution produce the same value).  Every subsequent
        ack for the job returns False and changes nothing.
        """
        with self.transaction():
            cur = self._db.execute(
                "UPDATE jobs SET status = 'done', value = ?, sim_time = ?, worker = ?, "
                "completed_by = ?, owner = NULL, claimed_at = NULL, lease_expires = NULL "
                "WHERE job_id = ? AND status != 'done'",
                (float(value), sim_time, int(worker), consumer, job_id),
            )
            if cur.rowcount == 0:
                # Not completed now: an unknown job, or a duplicate ack.
                if self._db.execute(
                    "SELECT 1 FROM jobs WHERE job_id = ?", (job_id,)
                ).fetchone() is None:
                    raise KeyError(f"unknown job_id {job_id}")
                self.stats["duplicate_acks"] += 1
                return False
            self._db.execute(
                "INSERT INTO events (kind, job_id, value) VALUES ('tell', ?, ?)",
                (job_id, float(value)),
            )
        self.stats["acks"] += 1
        return True

    def requeue(self, job_id: int, consumer: str) -> bool:
        """Return a claimed job to pending (a failed attempt: the worker
        process died, or an injected crash).  Only the current owner can
        requeue; a done job stays done.  The attempt stays counted."""
        with self.transaction():
            cur = self._db.execute(
                "UPDATE jobs SET status = 'pending', owner = NULL, claimed_at = NULL, "
                "lease_expires = NULL WHERE job_id = ? AND status = 'claimed' AND owner = ?",
                (job_id, consumer),
            )
            changed = cur.rowcount > 0
            if changed:
                self._drained = None
        if changed:
            self.stats["requeues"] += 1
        return changed

    def extend_lease(self, job_id: int, consumer: str, now: float, lease_s: Optional[float] = None) -> bool:
        """Renew a live claim's lease (long trials); False if the claim
        was lost (expired and reclaimed, or completed)."""
        expires = float(now) + (self.lease_s if lease_s is None else float(lease_s))
        with self.transaction():
            cur = self._db.execute(
                "UPDATE jobs SET lease_expires = ? "
                "WHERE job_id = ? AND status = 'claimed' AND owner = ?",
                (expires, job_id, consumer),
            )
            if cur.rowcount == 0:
                return False
            self._lease_set(expires)
            return True

    def reclaim_expired(self, now: float) -> List[int]:
        """Flip every expired claim back to pending; returns the job ids.
        (Claim also reclaims lazily; this is the eager sweep the driver
        runs so leases expire even when no consumer is asking.)"""
        with self.transaction():
            ids = sorted(r[0] for r in self._db.execute(
                "UPDATE jobs INDEXED BY idx_jobs_lease SET status = 'pending', owner = NULL, "
                "claimed_at = NULL, lease_expires = NULL "
                "WHERE status = 'claimed' AND lease_expires <= ? RETURNING job_id",
                (float(now),),
            ).fetchall())
            if ids:
                self._drained = None
        self.stats["reclaims"] += len(ids)
        return ids

    def reset_claims(self) -> int:
        """Driver restart: every claim belongs to a dead incarnation —
        return them all to pending immediately (no lease wait)."""
        with self.transaction():
            cur = self._db.execute(
                "UPDATE jobs SET status = 'pending', owner = NULL, claimed_at = NULL, "
                "lease_expires = NULL WHERE status = 'claimed'"
            )
            if cur.rowcount:
                self._drained = None
            return cur.rowcount

    # -- queries ---------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Jobs per status.  Job ids are dense (a job is never deleted),
        so the done count is the highest id less the jobs in flight: two
        index searches over the pending and claimed rows and one seek,
        not a scan of the whole ledger (the driver reads this once per
        group)."""
        with self.transaction():
            total, pending, claimed = self._db.execute(
                "SELECT (SELECT MAX(job_id) FROM jobs), "
                "(SELECT COUNT(*) FROM jobs WHERE status = 'pending'), "
                "(SELECT COUNT(*) FROM jobs WHERE status = 'claimed')"
            ).fetchone()
        return {PENDING: pending, CLAIMED: claimed, DONE: (total or 0) - pending - claimed}

    @property
    def n_jobs(self) -> int:
        with self.transaction():
            return self._db.execute("SELECT COUNT(*) FROM jobs").fetchone()[0]

    @property
    def n_done(self) -> int:
        with self.transaction():
            return self._db.execute(
                "SELECT COUNT(*) FROM jobs WHERE status = 'done'"
            ).fetchone()[0]

    def next_lease_expiry(self) -> Optional[float]:
        with self.transaction():
            row = self._db.execute(
                "SELECT MIN(lease_expires) FROM jobs INDEXED BY idx_jobs_lease "
                "WHERE status = 'claimed'"
            ).fetchone()
        return row[0]

    def job(self, job_id: int) -> JobRecord:
        with self.transaction():
            row = self._db.execute(
                "SELECT job_id, config, budget, tag, status, owner, claimed_at, lease_expires, "
                "attempts, value, sim_time, worker, completed_by FROM jobs WHERE job_id = ?",
                (job_id,),
            ).fetchone()
        if row is None:
            raise KeyError(f"unknown job_id {job_id}")
        return self._record(row)

    def jobs(self) -> List[JobRecord]:
        with self.transaction():
            rows = self._db.execute(
                "SELECT job_id, config, budget, tag, status, owner, claimed_at, lease_expires, "
                "attempts, value, sim_time, worker, completed_by FROM jobs ORDER BY job_id"
            ).fetchall()
        return [self._record(r) for r in rows]

    def completions(self) -> List[JobRecord]:
        """Done jobs in *completion* order (tell-event order) — the
        order the strategy learned in, hence the replay order."""
        with self.transaction():
            rows = self._db.execute(
                "SELECT j.job_id, j.config, j.budget, j.tag, j.status, j.owner, "
                "j.claimed_at, j.lease_expires, j.attempts, j.value, j.sim_time, j.worker, j.completed_by "
                "FROM events e JOIN jobs j ON j.job_id = e.job_id "
                "WHERE e.kind = 'tell' ORDER BY e.seq"
            ).fetchall()
        return [self._record(r) for r in rows]

    def events(self) -> List[Tuple[int, str, int, Optional[float]]]:
        """The replay log: (seq, kind, job_id, value) in commit order."""
        with self.transaction():
            return self._db.execute(
                "SELECT seq, kind, job_id, value FROM events ORDER BY seq"
            ).fetchall()

    @staticmethod
    def _record(row) -> JobRecord:
        (job_id, config, budget, tag, status, owner, claimed_at, lease_expires,
         attempts, value, sim_time, worker, completed_by) = row
        return JobRecord(
            job_id=job_id, config=json.loads(config), budget=budget,
            tag=_decode_tag(tag), status=status, owner=owner, claimed_at=claimed_at,
            lease_expires=lease_expires, attempts=attempts, value=value,
            sim_time=sim_time, worker=worker, completed_by=completed_by,
        )

    # -- campaign metadata ----------------------------------------------
    def meta_get(self, key: str, default=None):
        with self.transaction():
            row = self._db.execute(
                "SELECT value FROM meta WHERE key = ?", (key,)
            ).fetchone()
        return default if row is None else json.loads(row[0])

    def meta_set(self, key: str, value) -> None:
        with self.transaction():
            self._db.execute(
                "INSERT INTO meta (key, value) VALUES (?, ?) "
                "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
                (key, json.dumps(value)),
            )


class _Transaction:
    """A group: ``BEGIN IMMEDIATE`` … ``COMMIT``/``ROLLBACK`` under the
    instance lock around every call made inside it.  The group, not a
    single call, is the atomic unit: a crash leaves the queue at a
    group boundary.  Entered while this thread's group is open, it
    joins that group and neither begins nor commits.  Closing the group,
    either way, forgets its drained ``now``."""

    __slots__ = ("q", "saved_stats")

    def __init__(self, q: DurableTrialQueue) -> None:
        self.q = q
        # q.stats as the group found it; None when this joined a group.
        self.saved_stats: Optional[Dict[str, int]] = None

    def __enter__(self) -> "_Transaction":
        q = self.q
        q._lock.acquire()
        if not q._group_open:
            try:
                q._txn()
            except BaseException:
                q._lock.release()
                raise
            q._group_open = True
            self.saved_stats = dict(q.stats)
        return self

    def __exit__(self, exc_type, *exc) -> None:
        q = self.q
        try:
            if self.saved_stats is not None:
                q._group_open = False
                q._drained = None
                if exc_type is None:
                    q._db.execute("COMMIT")
                else:
                    q._db.execute("ROLLBACK")
                    q.stats.update(self.saved_stats)
        finally:
            q._lock.release()
