"""Simulated-clock serving experiments on :class:`repro.hpc.events.EventLoop`.

Wall-clock benchmarks answer "how fast is this machine"; the questions a
capacity planner asks — where does p99 blow up as offered load rises,
how much does shedding save, what does a tighter ``max_wait`` cost — are
*queueing* questions, and the discrete-event loop answers them in
milliseconds of CPU regardless of the simulated traffic volume
(E-experiment style, like the E6 async-HPO and E15 resilience studies).

The simulation reuses the real :class:`MicroBatcher` — the policy code
under test is the deployed policy code; only the model forward is
replaced by a service-time model (measured from the real engine via
:func:`fit_service_time`, or synthetic).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..hpc.events import EventLoop
from .batcher import BatchPolicy, MicroBatcher, Request
from .metrics import ServingStats


@dataclass(frozen=True)
class AffineServiceTime:
    """Batch service time ``base_s + per_sample_s * batch_size``.

    The standard cost shape for a batched forward: fixed dispatch
    overhead plus per-sample compute.  ``base_s`` is what micro-batching
    amortizes — speedup comes entirely from sharing it.
    """

    base_s: float
    per_sample_s: float

    def __call__(self, batch_size: int) -> float:
        return self.base_s + self.per_sample_s * batch_size

    @property
    def peak_rps(self) -> float:
        """Asymptotic max throughput at infinite batch size."""
        return 1.0 / self.per_sample_s


def fit_service_time(model, input_shape: Sequence[int], batch_sizes=(1, 8, 32, 64), reps: int = 5) -> AffineServiceTime:
    """Measure the model's batch latency and fit the affine cost model.

    Least-squares over the median of ``reps`` timed ``predict`` calls per
    batch size; clamps to tiny positive floors so a degenerate fit can
    never produce a zero/negative-cost simulation.
    """
    import time

    sizes = sorted(set(int(b) for b in batch_sizes))
    rng = np.random.default_rng(0)
    medians = []
    for b in sizes:
        x = rng.standard_normal((b,) + tuple(input_shape))
        model.predict(x, batch_size=b)  # warm-up: buffers, BLAS threads
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            model.predict(x, batch_size=b)
            times.append(time.perf_counter() - t0)
        medians.append(float(np.median(times)))
    coeffs = np.polyfit(np.asarray(sizes, dtype=np.float64), np.asarray(medians), 1)
    per_sample = max(float(coeffs[0]), 1e-9)
    base = max(float(coeffs[1]), 1e-9)
    return AffineServiceTime(base_s=base, per_sample_s=per_sample)


#: The traffic shapes :func:`traffic_arrivals` generates (names are API).
TRAFFIC_MIXES = ("poisson", "bursty", "diurnal")


def _rate_modulated_arrivals(
    rate_fn: Callable[[float], float], n: int, seed: int
) -> np.ndarray:
    """Arrival times of an inhomogeneous Poisson process.

    Sequential gap sampling with the instantaneous rate at the current
    time — exact for piecewise-constant rates, a good approximation for
    slowly varying ones, and bit-reproducible per seed either way.
    """
    rng = np.random.default_rng(seed)
    times = np.empty(n)
    t = 0.0
    for i in range(n):
        lam = max(float(rate_fn(t)), 1e-9)
        t += float(rng.exponential(1.0 / lam))
        times[i] = t
    return times


def poisson_arrivals(rate: float, n: int, seed: int = 0) -> np.ndarray:
    """Homogeneous Poisson arrivals: the steady-state mix."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    return _rate_modulated_arrivals(lambda t: rate, n, seed)


def bursty_arrivals(
    rate: float,
    n: int,
    seed: int = 0,
    burst_factor: float = 4.0,
    on_fraction: float = 0.2,
    period_s: float = 1.0,
) -> np.ndarray:
    """On/off burst traffic averaging ``rate``: short windows at
    ``burst_factor`` times the mean, quiet troughs in between — the
    mix that finds admission-control bugs (queues fill in the bursts).
    """
    if rate <= 0 or period_s <= 0:
        raise ValueError("rate and period_s must be positive")
    if not 0 < on_fraction < 1:
        raise ValueError("on_fraction must be in (0, 1)")
    if burst_factor < 1 or burst_factor * on_fraction >= 1:
        raise ValueError("need 1 <= burst_factor and burst_factor * on_fraction < 1")
    lull = rate * (1.0 - burst_factor * on_fraction) / (1.0 - on_fraction)

    def lam(t: float) -> float:
        return rate * burst_factor if (t % period_s) < on_fraction * period_s else lull

    return _rate_modulated_arrivals(lam, n, seed)


def diurnal_arrivals(
    rate: float,
    n: int,
    seed: int = 0,
    period_s: float = 10.0,
    depth: float = 0.8,
) -> np.ndarray:
    """Sinusoidal day/night load averaging ``rate``: peak hours at
    ``(1 + depth)`` times the mean, off-hours at ``(1 - depth)`` — the
    mix autoscaling advice is judged against.
    """
    if rate <= 0 or period_s <= 0:
        raise ValueError("rate and period_s must be positive")
    if not 0 <= depth < 1:
        raise ValueError("depth must be in [0, 1)")

    def lam(t: float) -> float:
        return rate * (1.0 + depth * np.sin(2.0 * np.pi * t / period_s))

    return _rate_modulated_arrivals(lam, n, seed)


def traffic_arrivals(mix: str, rate: float, n: int, seed: int = 0) -> np.ndarray:
    """Arrival times for one of :data:`TRAFFIC_MIXES` by name."""
    if mix == "poisson":
        return poisson_arrivals(rate, n, seed)
    if mix == "bursty":
        return bursty_arrivals(rate, n, seed)
    if mix == "diurnal":
        return diurnal_arrivals(rate, n, seed)
    raise ValueError(f"unknown traffic mix {mix!r}; known: {TRAFFIC_MIXES}")


def simulate_serving(
    policy: BatchPolicy,
    service_time: Callable[[int], float],
    arrival_rate: float,
    n_requests: int,
    seed: int = 0,
    loop: Optional[EventLoop] = None,
) -> Dict:
    """One offered-load point: Poisson arrivals into a batched server.

    Arrivals are a Poisson process at ``arrival_rate`` req/s (exponential
    inter-arrival gaps from a seeded generator — bit-reproducible).  The
    server serves one batch at a time and, like a router replica, takes
    whatever is queued the moment it falls idle; while it is busy the
    queue grows, sheds, and times out exactly as the real
    :class:`MicroBatcher` says.

    Returns a summary dict (latency percentiles, throughput, shed /
    timeout counts, occupancy, utilization) that always satisfies the
    accounting invariant.
    """
    if arrival_rate <= 0:
        raise ValueError("arrival_rate must be positive")
    if n_requests < 1:
        raise ValueError("n_requests must be >= 1")
    loop = loop or EventLoop()
    rng = np.random.default_rng(seed)
    batcher = MicroBatcher(policy)
    stats = ServingStats()
    busy = False
    sample = np.zeros(1)  # payload is irrelevant to queueing behaviour

    def start_batch_if_ready() -> None:
        # The one server asks only when it has nothing to do, so it is
        # idle capacity exactly here: the router's dispatch rule, N=1.
        nonlocal busy
        now = loop.now
        if busy or not batcher.ready(now, idle=True):
            return
        batch, expired = batcher.take(now)
        stats.timed_out += len(expired)
        if not batch:
            # Everything expired; re-check whatever remains queued.
            start_batch_if_ready()
            return
        dt = float(service_time(len(batch)))
        busy = True
        stats.record_batch(len(batch), dt)

        def complete() -> None:
            nonlocal busy
            done = loop.now
            for req in batch:
                req.status = "completed"
                req.complete_time = done
                stats.completed += 1
                stats.latency.observe(done - req.enqueue_time)
            busy = False
            start_batch_if_ready()

        loop.schedule(dt, complete)

    def arrive(i: int) -> None:
        req = Request(request_id=i, x=sample, enqueue_time=loop.now)
        stats.submitted += 1
        if not batcher.offer(req):
            stats.shed += 1
            return
        start_batch_if_ready()

    # Pre-materialize the arrival process so event order can't perturb
    # the random stream: same seed -> same arrival times, always.
    gaps = rng.exponential(1.0 / arrival_rate, size=n_requests)
    t = 0.0
    for i, gap in enumerate(gaps):
        t += float(gap)
        loop.schedule_at(t, (lambda idx: (lambda: arrive(idx)))(i))

    loop.run()
    elapsed = loop.now if loop.now > 0 else 1.0
    out = stats.summary(elapsed=elapsed, max_batch_size=policy.max_batch_size)
    out["offered_rps"] = arrival_rate
    out["sim_time_s"] = loop.now
    # A request is never left queued behind an idle server, so once the
    # events run dry everything submitted has reached a terminal state.
    out["accounted"] = stats.accounted()
    return out


def sweep_offered_load(
    policy: BatchPolicy,
    service_time: Callable[[int], float],
    rates: Sequence[float],
    n_requests: int = 2000,
    seed: int = 0,
) -> List[Dict]:
    """p99-vs-offered-load curve: one :func:`simulate_serving` per rate."""
    return [
        simulate_serving(policy, service_time, rate, n_requests, seed=seed)
        for rate in rates
    ]
