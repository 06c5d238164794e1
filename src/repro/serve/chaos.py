"""Traffic replay under the fault schedule, audited.

A :class:`~repro.serve.router.Router` built with ``faults=`` draws every
dispatch's fault from the one :class:`~repro.resilience.FaultSchedule`
(site ``dispatch``, keyed on the batch's first request id and the
replica), and the replica executes it: ``kill_replica`` dies mid-batch,
``hang_replica`` wedges until the pool's hang detector terminates it,
``slow_replica`` answers late and ``corrupt_response`` flips the replica
into sticky wrong answers that only a supervisor canary can detect.
:func:`run_chaos_replay` replays a request stream through such a router
and audits the wreckage: the accounting invariant must balance (zero
lost requests), and every completed response must be **bit-identical**
to ``Model.predict`` on the same micro-batch composition.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..resilience.faults import SERVING_FAULT_KINDS
from .router import Router


def run_chaos_replay(
    router: Router,
    model: str,
    x_pool: np.ndarray,
    n_requests: int,
    use_rows: bool = True,
    arrival_times: Optional[np.ndarray] = None,
    supervisor=None,
    force_kill: Optional[Tuple[int, int]] = None,
    drain_timeout_s: float = 120.0,
) -> Dict[str, Any]:
    """Replay ``n_requests`` through the router and audit the outcome.

    ``x_pool`` is the request pool (row ``i % len(x_pool)`` serves
    request ``i``); with ``use_rows`` the batches are row-addressed
    (the pool must have been published to the replica group's shared
    data plane under ``"x_pool"``).  ``arrival_times`` (seconds from
    start, one per request) paces the open-loop replay; None submits as
    fast as the router admits.  ``force_kill=(i, slot)`` terminates
    ``slot`` right before request ``i`` is submitted — a deterministic
    respawn-under-traffic probe on top of whatever the schedule injects.

    The returned report carries the two robustness verdicts the chaos
    suite gates on:

    * ``invariant_ok`` — every submitted request reached exactly one
      terminal state and the counters balance (zero lost requests);
    * ``parity_ok`` — each completed response is bit-identical to the
      parent model's ``predict`` on the same micro-batch composition.
    """
    if n_requests < 1:
        raise ValueError("n_requests must be >= 1")
    router.record_batches = True
    group = router.groups[model]
    handles = []
    t0 = router.clock()
    for i in range(n_requests):
        if arrival_times is not None:
            while router.clock() - t0 < arrival_times[i]:
                router.pump()
                if supervisor is not None:
                    supervisor.tick()
        if force_kill is not None and i == force_kill[0]:
            group.kill_replica(force_kill[1], reason="chaos_forced")
        row = i % len(x_pool)
        if use_rows:
            handles.append(router.submit(model, row=row))
        else:
            handles.append(router.submit(model, x=x_pool[row]))
        router.pump()
        if supervisor is not None:
            supervisor.tick()
    deadline = router.clock() + drain_timeout_s
    while router.pending > 0 and router.clock() < deadline:
        router.pump()
        if supervisor is not None:
            supervisor.tick()
    elapsed = router.clock() - t0

    by_id = {h.request_id: h for h in handles}
    parity_checked = 0
    parity_ok = True
    for batch_model, ids in router.batch_log:
        if batch_model != model:
            continue
        reqs = [by_id[rid] for rid in ids if rid in by_id]
        if not reqs or any(r.status != "completed" for r in reqs):
            continue
        xb = np.stack(
            [x_pool[r.row] if r.row is not None else r.x for r in reqs], axis=0
        )
        expected = group.model.predict(xb, batch_size=len(xb))
        for i, r in enumerate(reqs):
            parity_checked += 1
            if not np.array_equal(r.result, expected[i]):
                parity_ok = False

    stats = router.stats
    terminal = {"completed", "shed", "timed_out", "retried_away"}
    all_resolved = all(h.status in terminal for h in handles)
    invariant_ok = bool(
        stats.accounted(still_queued=router.pending) and all_resolved
        and router.pending == 0
    )
    report: Dict[str, Any] = {
        "n_requests": n_requests,
        "elapsed_s": elapsed,
        "submitted": stats.submitted,
        "completed": stats.completed,
        "shed": stats.shed,
        "timed_out": stats.timed_out,
        "retried_away": stats.retried_away,
        "retries": stats.retries,
        "respawns": group.respawns,
        "invariant_ok": invariant_ok,
        "parity_checked": parity_checked,
        "parity_ok": bool(parity_ok),
    }
    if router.faults is not None:
        report["fault_counts"] = {kind: stats.faults[kind] for kind in SERVING_FAULT_KINDS}
    if supervisor is not None:
        report["supervisor"] = supervisor.stats()
    return report
