"""The Router against a plain-Python model, checked after every step.

A hypothesis ``RuleBasedStateMachine`` drives one :class:`Router` over a
fake replica group whose results are held until the machine releases
them, in any order: random submits (with and without a deadline), pumps,
clock ticks, releases, and replicas that start or stop failing.  The
model predicts each request's fate from what it can see -- the bound at
admission, the tasks the group received and the results it let through
-- and after every step each :class:`RouterStats` counter must equal
the model's count, ``pending`` the requests without an outcome, and
every completed request must carry its own answer.

Tier 1 runs the machine at the active hypothesis profile's
``max_examples``; CI's ``tests`` job runs it again under the
``router-full`` profile (``tests/conftest.py``).  A recorded mutant,
the admission bound that counted only the micro-batch queue, must be
rejected.
"""

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule, run_state_machine_as_test,
)

from repro.parallel.pool import TaskResult
from repro.serve import BatchPolicy, Router

TERMINAL = ("completed", "shed", "timed_out", "retried_away")


def answer(row):
    return 2.0 * row + 1.0


class HeldGroup:
    """Duck-typed ``ReplicaGroup``: every dispatch is recorded and its
    result held until :meth:`release`; a dispatch to a slot in
    ``failing`` comes back as a replica death."""

    def __init__(self, n_replicas):
        self.n_replicas = n_replicas
        self.failing = set()
        self.tasks = []   # per task id: the rows it carried
        self.held = {}    # task id -> result not yet visible to poll
        self.released = []

    def submit(self, replica, x=None, rows=None, fault=None):
        task_id = len(self.tasks)
        self.tasks.append(list(rows))
        if replica in self.failing:
            self.held[task_id] = TaskResult(task_id, replica, "died", None, 0.0)
        else:
            self.held[task_id] = TaskResult(task_id, replica, "ok", [answer(r) for r in rows], 0.0)
        return task_id

    def release(self, task_id):
        self.released.append(self.held.pop(task_id))

    def poll(self, timeout=0.0):
        return self.released.pop(0) if self.released else None

    def close(self):
        pass


class RouterMachine(RuleBasedStateMachine):
    held_counts = dict  # what the router keeps its per-model admission counts in

    @initialize(
        n_replicas=st.integers(1, 3),
        max_queue=st.integers(1, 6),
        max_batch_size=st.integers(1, 4),
        max_wait_s=st.sampled_from([0.0, 0.5]),
        timeout_s=st.sampled_from([None, 1.0, 3.0]),
        max_retries=st.integers(0, 2),
        backoff_base_s=st.sampled_from([0.0, 0.25]),
        breaker_threshold=st.integers(1, 3),
    )
    def start(self, n_replicas, max_queue, max_batch_size, max_wait_s, timeout_s,
              max_retries, backoff_base_s, breaker_threshold):
        self.now = 0.0
        self.policy = BatchPolicy(max_batch_size, max_wait_s, max_queue, timeout_s)
        self.group = HeldGroup(n_replicas)
        self.router = Router(
            {"m": self.group}, self.policy, max_retries=max_retries,
            backoff_base_s=backoff_base_s, breaker_threshold=breaker_threshold,
            breaker_cooldown_s=0.5, clock=lambda: self.now,
        )
        self.router._held = self.held_counts(self.router._held)
        self.handles = []    # request i was submitted with row i
        self.deadline = []   # request i's deadline, as the router applies it
        self.dispatches = []  # request i: how many tasks carried it
        self.model = dict.fromkeys(("shed", "completed", "retried_away", "retries"), 0)
        self.tasks_seen = 0

    def open_requests(self):
        return sum(h.status not in TERMINAL for h in self.handles)

    @rule(deadline_s=st.one_of(st.none(), st.sampled_from([0.5, 1.0, 2.5])))
    def submit(self, deadline_s):
        shed = self.open_requests() >= self.policy.max_queue
        i = len(self.handles)
        self.handles.append(self.router.submit("m", row=i, deadline_s=deadline_s))
        self.deadline.append(self.policy.timeout_s if deadline_s is None else deadline_s)
        self.dispatches.append(0)
        self.model["shed"] += shed
        assert (self.handles[i].status == "shed") == shed, "admission disagrees with max_queue"

    @rule()
    def pump(self):
        before = [h.status for h in self.handles]
        delivered = self.group.released[:]
        self.router.pump()
        for res in delivered:
            rows = self.group.tasks[res.task_id]
            attempt = {self.dispatches[r] for r in rows}
            assert len(attempt) == 1, "a batch's requests were dispatched unequally often"
            attempt = attempt.pop()
            for r in rows:
                status = self.handles[r].status
                if res.status == "ok":
                    assert status == "completed"
                    self.model["completed"] += 1
                elif attempt > self.router.max_retries:
                    assert status == "retried_away"
                    self.model["retried_away"] += 1
                elif not self.expired(r):
                    self.model["retries"] += 1
        for rows in self.group.tasks[self.tasks_seen:]:
            for r in rows:
                assert before[r] not in TERMINAL, "a request with an outcome was dispatched"
                assert not self.expired(r), "an expired request was dispatched"
                self.dispatches[r] += 1
        self.tasks_seen = len(self.group.tasks)
        for r, (old, h) in enumerate(zip(before, self.handles)):
            if h.status == "timed_out" and old != "timed_out":
                assert self.expired(r), "a request timed out before its deadline"

    def expired(self, r):
        d = self.deadline[r]
        return d is not None and self.now - self.handles[r].enqueue_time > d

    @rule(dt=st.sampled_from([0.1, 0.3, 0.6, 1.5]))
    def tick(self, dt):
        self.now += dt

    @precondition(lambda self: self.group.held)
    @rule(pick=st.integers(0, 63))
    def release(self, pick):
        held = sorted(self.group.held)
        self.group.release(held[pick % len(held)])

    @rule(slot=st.integers(0, 2))
    def toggle_failing(self, slot):
        if slot < self.group.n_replicas:
            self.group.failing ^= {slot}

    @invariant()
    def counters_match_the_model(self):
        stats = self.router.stats
        assert stats.submitted == len(self.handles)
        for name, count in self.model.items():
            assert getattr(stats, name) == count, name
        for status in TERMINAL:
            assert getattr(stats, status) == sum(h.status == status for h in self.handles), status

    @invariant()
    def pending_is_what_has_no_outcome(self):
        pending = self.open_requests()
        assert self.router.pending == pending
        assert pending <= self.policy.max_queue
        assert self.router.stats.accounted(still_queued=pending)

    @invariant()
    def a_completed_request_has_its_answer(self):
        for r, h in enumerate(self.handles):
            assert (h.result is not None) == (h.status == "completed")
            if h.status == "completed":
                assert h.result == answer(r)


TestRouterMachine = RouterMachine.TestCase
TestRouterMachine.settings = settings(stateful_step_count=30, deadline=None)


class _HeldReadsZero(dict):
    """The admission defect a hand review found: the router's bound
    counted only its micro-batch queue, so requests already dispatched
    and unresolved were never held against ``max_queue``.  Reading every
    model's count as zero brings exactly that back."""

    def __getitem__(self, model):
        return 0


class _QueueOnlyBound(RouterMachine):
    held_counts = _HeldReadsZero


def test_machine_rejects_a_bound_on_the_queue_alone():
    with pytest.raises(AssertionError):
        run_state_machine_as_test(_QueueOnlyBound, settings=settings(
            max_examples=500, stateful_step_count=30, deadline=None,
            phases=[Phase.generate], database=None, derandomize=True))
