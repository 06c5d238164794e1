"""The DurableTrialQueue against a dict of jobs, checked after every step.

A hypothesis ``RuleBasedStateMachine`` drives one on-disk
:class:`DurableTrialQueue`: pending and claimed enqueues, claims (at the
clock or at an earlier ``now``, with the queue's lease or their own),
acks (duplicates and unknown jobs included), requeues, lease renewals,
the eager reclaim sweep, resets of every claim, clock ticks, groups of
those calls that commit or raise, an enqueue through a second
connection to the same file, and closing and reopening the queue.  The
model is a dict of job rows, the event log and the stats counters; every
call's answer must equal the model's, and after every step (and after
every call inside a group) ``counts()``, ``next_lease_expiry()``,
``stats``, ``events()`` and each job's ``job()`` row must equal it.

Tier 1 runs the machine at the active hypothesis profile's
``max_examples``; CI's ``tests`` job runs it again under the
``queue-full`` profile (``tests/conftest.py``).  Two recorded mutants of
the drained record (a claim that found nothing at ``now`` answers later
claims at that ``now`` from memory) must be rejected: one whose
``requeue`` does not forget it, and one that keeps it past its group.
"""

import copy
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, rule, run_state_machine_as_test,
)

from repro.hpo.queue import CLAIMED, DONE, PENDING, DurableTrialQueue, _Transaction

LEASE_S = 4.0
CONSUMERS = ("c0", "c1")
CONFIGS = ({"x": 0.25}, {"x": 0.5, "act": "relu"}, {"n": 3, "lr": 1e-3})
TAGS = (None, (0, 1, 2), "t")
STATS = ("enqueued", "claims", "reclaims", "acks", "duplicate_acks", "requeues")


class GroupFailed(RuntimeError):
    """Raised to roll a group back."""


consumers = st.sampled_from(CONSUMERS)
holders = st.sampled_from((None, None, None) + CONSUMERS)  # None: a claim's own holder
leases = st.sampled_from([None, None, 0.5, 3.0])
backs = st.sampled_from([0.0, 0.0, 0.0, 1.5])  # how far before the clock a call's ``now`` is
picks = st.integers(0, 63)  # a job: pick % (jobs + 1) + 1, so the newest + 1 is unknown

claims = st.tuples(st.just("claim"), consumers, backs, leases)
claimed_enqueues = st.tuples(st.just("enqueue_claimed"), consumers, backs)
requeues = st.tuples(st.just("requeue"), picks, holders)
drains = st.tuples(st.just("drain"), consumers, backs)
CALLS = st.one_of(
    st.tuples(st.just("enqueue"), st.integers(0, len(CONFIGS) - 1), st.integers(1, 3),
              st.integers(0, len(TAGS) - 1)),
    claimed_enqueues, claimed_enqueues,
    claims, claims, claims,
    drains, drains,
    st.tuples(st.just("ack"), picks, consumers, st.sampled_from([0.5, 1.5])),
    requeues, requeues,
    st.tuples(st.just("extend_lease"), picks, holders, backs, leases),
    st.tuples(st.just("reclaim_expired"), backs),
    st.tuples(st.just("reset_claims")),
    st.tuples(st.just("tick"), st.sampled_from([0.0, 0.0, 1.0, 5.0])),
)


def blank_row(config, budget, tag):
    return dict(config=config, budget=budget, tag=tag, status=PENDING, owner=None,
                claimed_at=None, lease_expires=None, attempts=0, value=None,
                sim_time=None, worker=None, completed_by=None)


class QueueMachine(RuleBasedStateMachine):
    queue_class = DurableTrialQueue

    @initialize()
    def start(self):
        self.base = Path(tempfile.mkdtemp(prefix="repro_queue_machine_"))
        self.path = self.base / "q.db"
        self.q = self.queue_class(self.path, lease_s=LEASE_S)
        self.other = DurableTrialQueue(self.path, lease_s=LEASE_S)
        self.clock = 0.0
        self.jobs = {}     # job_id -> row fields, as job() reports them
        self.events = []   # (kind, job_id, value) in commit order
        self.stats = dict.fromkeys(STATS, 0)

    def teardown(self):
        if hasattr(self, "q"):
            self.q.close()
            self.other.close()
        shutil.rmtree(self.base, ignore_errors=True)

    # -- the model -------------------------------------------------------
    def job_id(self, pick):
        return pick % (len(self.jobs) + 1) + 1

    def held(self, pick, who):
        """A job and a consumer: the ``pick``-th job and ``who``, or (``who``
        None) the ``pick``-th claim and its holder."""
        claimed = [j for j, r in self.jobs.items() if r["status"] == CLAIMED]
        if who is None and claimed:
            job_id = claimed[pick % len(claimed)]
            return job_id, self.jobs[job_id]["owner"]
        return self.job_id(pick), who or CONSUMERS[0]

    def claim_row(self, row, owner, now, lease):
        expires = now + (LEASE_S if lease is None else float(lease))
        row.update(status=CLAIMED, owner=owner, claimed_at=now, lease_expires=expires,
                   attempts=row["attempts"] + 1)
        return expires

    def add(self, config, budget, tag):
        job_id = len(self.jobs) + 1
        self.jobs[job_id] = blank_row(config, budget, tag)
        self.events.append(("ask", job_id, None))
        self.stats["enqueued"] += 1
        return job_id

    def apply(self, call):
        """Make ``call`` on the queue and on the model; the answers agree."""
        kind, args = call[0], call[1:]
        if kind == "tick":
            self.clock += args[0]
            return
        if kind == "enqueue":
            config, budget, tag = CONFIGS[args[0]], args[1], TAGS[args[2]]
            assert self.q.enqueue(config, budget, tag) == self.add(config, budget, tag)
        elif kind == "enqueue_claimed":
            owner, now = args[0], self.clock - args[1]
            got = self.q.enqueue(CONFIGS[0], 2, TAGS[1], owner=owner, now=now)
            job_id = self.add(CONFIGS[0], 2, TAGS[1])
            self.claim_row(self.jobs[job_id], owner, now, None)
            self.stats["claims"] += 1
            assert got == job_id
        elif kind == "drain":  # claims until nothing is runnable, as a driver fills its consumers
            while self.apply(("claim", args[0], args[1], None)):
                pass
        elif kind == "claim":
            owner, now, lease = args[0], self.clock - args[1], args[2]
            got = self.q.claim(owner, now=now, lease_s=lease)
            runnable = [j for j, r in self.jobs.items() if r["status"] == PENDING
                        or (r["status"] == CLAIMED and r["lease_expires"] <= now)]
            if not runnable:
                assert got is None
                return False
            job_id = min(runnable)
            row = self.jobs[job_id]
            self.stats["claims"] += 1
            self.stats["reclaims"] += row["status"] == CLAIMED
            expires = self.claim_row(row, owner, now, lease)
            assert got is not None, f"claim at {now} missed job {job_id}"
            assert (got.job_id, got.config, got.budget, got.tag, got.attempts,
                    got.lease_expires) == (job_id, row["config"], row["budget"],
                                           row["tag"], row["attempts"], expires)
            return True
        elif kind == "ack":
            job_id, owner, value = self.job_id(args[0]), args[1], args[2]
            if job_id not in self.jobs:
                with pytest.raises(KeyError):
                    self.q.ack(job_id, owner, value, sim_time=self.clock, worker=7)
                return
            got = self.q.ack(job_id, owner, value, sim_time=self.clock, worker=7)
            row = self.jobs[job_id]
            if row["status"] == DONE:
                self.stats["duplicate_acks"] += 1
                assert got is False
                return
            row.update(status=DONE, value=value, sim_time=self.clock, worker=7,
                       completed_by=owner, owner=None, claimed_at=None, lease_expires=None)
            self.events.append(("tell", job_id, value))
            self.stats["acks"] += 1
            assert got is True
        elif kind == "requeue":
            job_id, owner = self.held(args[0], args[1])
            row = self.jobs.get(job_id)
            want = row is not None and row["status"] == CLAIMED and row["owner"] == owner
            if want:
                row.update(status=PENDING, owner=None, claimed_at=None, lease_expires=None)
                self.stats["requeues"] += 1
            assert self.q.requeue(job_id, owner) is want
        elif kind == "extend_lease":
            (job_id, owner), now, lease = self.held(args[0], args[1]), self.clock - args[2], args[3]
            row = self.jobs.get(job_id)
            want = row is not None and row["status"] == CLAIMED and row["owner"] == owner
            if want:
                row["lease_expires"] = now + (LEASE_S if lease is None else float(lease))
            assert self.q.extend_lease(job_id, owner, now=now, lease_s=lease) is want
        elif kind == "reclaim_expired":
            now = self.clock - args[0]
            want = sorted(j for j, r in self.jobs.items()
                          if r["status"] == CLAIMED and r["lease_expires"] <= now)
            for j in want:
                self.jobs[j].update(status=PENDING, owner=None, claimed_at=None, lease_expires=None)
            self.stats["reclaims"] += len(want)
            assert self.q.reclaim_expired(now) == want
        elif kind == "reset_claims":
            held = [r for r in self.jobs.values() if r["status"] == CLAIMED]
            for r in held:
                r.update(status=PENDING, owner=None, claimed_at=None, lease_expires=None)
            assert self.q.reset_claims() == len(held)

    def check(self):
        q, jobs = self.q, self.jobs
        statuses = [r["status"] for r in jobs.values()]
        leases_held = [r["lease_expires"] for r in jobs.values() if r["status"] == CLAIMED]
        with q.transaction():  # the reads in one transaction (the group's, inside one)
            assert q.counts() == {s: statuses.count(s) for s in (PENDING, CLAIMED, DONE)}
            assert q.next_lease_expiry() == (min(leases_held) if leases_held else None)
            assert q.stats == self.stats
            assert q.events() == [(seq, *e) for seq, e in enumerate(self.events, start=1)]
            for job_id, row in jobs.items():
                assert vars(q.job(job_id)) == dict(row, job_id=job_id), job_id

    # -- steps -----------------------------------------------------------
    @rule(call=CALLS)
    def one_call(self, call):
        self.apply(call)

    @rule(calls=st.lists(CALLS, min_size=1, max_size=10), fill=st.booleans(),
          fails=st.booleans())
    def group(self, calls, fill, fails):
        """``calls`` in one group; with ``fill``, the group ends as a
        driver's tick does, with claims until nothing is runnable."""
        saved = copy.deepcopy((self.jobs, self.events, self.stats))
        try:
            with self.q.transaction():
                for call in calls + [("drain", CONSUMERS[0], 0.0)] * fill:
                    self.apply(call)
                    self.check()
                if fails:
                    raise GroupFailed
        except GroupFailed:
            self.jobs, self.events, self.stats = saved

    @rule(reopen=st.booleans())
    def from_outside(self, reopen):
        """Another connection to the file adds a pending job, or the
        queue is closed and opened again."""
        if reopen:
            self.q.close()
            self.q = self.queue_class(self.path, lease_s=LEASE_S)
            self.stats = dict.fromkeys(STATS, 0)  # per-process bookkeeping
            return
        self.other.enqueue(CONFIGS[1], 1)
        self.jobs[len(self.jobs) + 1] = blank_row(CONFIGS[1], 1, None)
        self.events.append(("ask", len(self.jobs), None))

    @invariant()
    def queue_matches_the_model(self):
        if hasattr(self, "q"):
            self.check()


TestQueueMachine = QueueMachine.TestCase
TestQueueMachine.settings = settings(stateful_step_count=15, deadline=None)


class _RequeueKeepsTheRecord(DurableTrialQueue):
    """A ``requeue`` that leaves the drained record in place: the job it
    returned to pending stays invisible to claims at that ``now``."""

    def requeue(self, job_id, consumer):
        drained = self._drained
        changed = super().requeue(job_id, consumer)
        self._drained = drained
        return changed


class _KeptRecord(_Transaction):
    __slots__ = ()

    def __exit__(self, *exc):
        drained = self.q._drained
        super().__exit__(*exc)
        self.q._drained = drained


class _RecordOutlivesTheGroup(DurableTrialQueue):
    """A drained record kept after its group commits or rolls back."""

    def transaction(self):
        return _KeptRecord(self)


class _RequeueMutant(QueueMachine):
    queue_class = _RequeueKeepsTheRecord


class _GroupMutant(QueueMachine):
    queue_class = _RecordOutlivesTheGroup


@pytest.mark.parametrize("mutant", [_RequeueMutant, _GroupMutant],
                         ids=["requeue-keeps-the-record", "record-outlives-the-group"])
def test_machine_rejects_the_recorded_mutants(mutant):
    with pytest.raises(AssertionError):
        run_state_machine_as_test(mutant, settings=settings(
            max_examples=200, stateful_step_count=20, deadline=None,
            phases=[Phase.generate], database=None, derandomize=True))
