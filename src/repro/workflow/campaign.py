"""Full CANDLE-style campaign driver: search → final training → pricing.

One call runs the complete loop the keynote describes for a benchmark:

1. hyperparameter search with a chosen strategy, trial costs priced by
   the architecture model (search parallelism on the simulated cluster);
2. final training of the winning configuration: one
   :func:`run_training_job`, at any precision, fault-tolerant or not;
3. a report with the achieved metric, the simulated campaign wall-clock,
   and the energy bill.

This is the module downstream users script against; the pieces are all
independently available, the campaign just composes them faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from ..candle.registry import BenchmarkSpec, get_benchmark
from ..hpc.cluster import SimCluster
from ..hpo.objectives import benchmark_objective
from ..hpo.results import ResultLog
from ..hpo.scheduler import run_parallel
from ..hpo.space import Config, SearchSpace
from ..hpo.strategies import STRATEGIES
from ..nn import metrics as metrics_mod
from ..nn.dataloader import train_val_split
from ..obs.context import get_recorder
from ..obs.trace import maybe_span
from ..resilience import ResilienceReport
from .training_job import run_training_job, simulated_trial_cost


@dataclass
class CampaignReport:
    """Everything a campaign produced.

    ``resilience`` is attached when the campaign ran under a fault model
    (``run_campaign(..., faults=...)``): the combined ledger of what the
    search and the final training survived.
    """

    benchmark: str
    strategy: str
    search_log: ResultLog
    best_config: Config
    final_metric: float
    metric_name: str
    search_wallclock: float  # simulated seconds
    final_train_time: float  # simulated seconds
    total_energy: float  # joules (final training)
    resilience: Optional[ResilienceReport] = None
    #: Set when the campaign ran with ``publish_to=``: the registry
    #: reference (``name@version`` + content hash) of the final model.
    published: Optional[object] = None

    def summary(self) -> str:
        try:
            best = f"{self.search_log.best_value():.4f}"
        except ValueError:
            best = "n/a"  # every trial was lost to faults
        text = (
            f"campaign[{self.benchmark}] strategy={self.strategy} "
            f"trials={len(self.search_log)} "
            f"best search loss={best} "
            f"final {self.metric_name}={self.final_metric:.4f} "
            f"search wall={self.search_wallclock:.4g}s "
            f"train wall={self.final_train_time:.4g}s "
            f"energy={self.total_energy:.4g}J"
        )
        if self.resilience is not None:
            text += " | " + self.resilience.summary()
        return text


def run_campaign(
    benchmark: str,
    space: SearchSpace,
    cluster: Optional[SimCluster] = None,
    strategy: str = "random",
    n_trials: int = 20,
    n_workers: int = 8,
    final_epochs: int = 15,
    precision: str = "fp32",
    data_seed: int = 0,
    seed: int = 0,
    max_search_samples: int = 300,
    strategy_kwargs: Optional[Dict] = None,
    faults=None,
    max_retries: int = 3,
    checkpoint_dir=None,
    publish_to=None,
    model_name: Optional[str] = None,
    queue_path=None,
) -> CampaignReport:
    """Run search + final training for one registry benchmark.

    The search trains small models on a subsample (fast, real); the
    final training is one :func:`run_training_job` on the full generated
    dataset at the requested ``precision``, priced and metered on
    ``cluster``.

    ``faults`` (a :class:`repro.resilience.FaultSchedule`) runs the whole
    campaign under that schedule: search trials crash/straggle/NaN and are
    retried or quarantined, workers may leave the pool permanently, and
    the final training — at any ``precision`` — checkpoint/restarts
    through the injected crash schedule.  The campaign always completes;
    the report's ``resilience`` field says what it survived.

    ``publish_to`` (a :class:`repro.registry.ArtifactStore`) publishes
    the final trained model into the registry as ``model_name``
    (default: the benchmark name) with lineage back to this campaign —
    the campaign's obs span id, strategy, winning config, and final
    metric travel with the artifact, so a served model can always answer
    "which campaign produced you".  The report's ``published`` field
    carries the resulting :class:`repro.registry.ArtifactRef`.

    ``queue_path`` makes the search phase *durable*: the search's
    :class:`repro.hpo.DurableTrialQueue` lives on disk at that path
    instead of in memory, so a campaign killed mid-search can be
    re-invoked with the same arguments and resumes bit-identically where
    it died (see :func:`repro.hpo.run_elastic`).  Nothing else about the
    search depends on it.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    spec = get_benchmark(benchmark)
    cluster = cluster or SimCluster.build("summit_era", max(n_workers, 1))

    # Observability: with a repro.obs.TraceRecorder attached, the whole
    # campaign is one top-level span with search / final-training /
    # evaluate child phases; trial spans, fit spans, ops, and fault
    # events recorded by the nested subsystems land inside it.
    rec = get_recorder()
    with maybe_span(
        rec, benchmark, "campaign",
        benchmark=benchmark, strategy=strategy, n_trials=n_trials,
        n_workers=n_workers, precision=precision, faulted=faults is not None,
    ) as campaign_span:
        # -- 1. search -----------------------------------------------------
        with maybe_span(rec, "search", "campaign.search", strategy=strategy) as search_span:
            objective = benchmark_objective(
                spec, data_seed=data_seed, max_samples=max_search_samples
            )
            cost = simulated_trial_cost(spec, cluster)
            strat_cls = STRATEGIES[strategy]
            strat = strat_cls(space, seed=seed, **(strategy_kwargs or {}))
            log = run_parallel(
                strat, objective, n_trials, n_workers, cost,
                faults=faults, max_retries=max_retries, queue=queue_path,
            )
            try:
                best = log.best_config()
            except ValueError:
                # Graceful degradation: every trial was lost to faults.  Fall
                # back to a seeded sample so the campaign still delivers a
                # model.
                best = space.sample(np.random.default_rng(seed))
            search_wall = max((t.sim_time for t in log.trials), default=0.0)
            if search_span is not None:
                search_span["attrs"].update(trials=len(log), sim_wallclock=search_wall)

        # -- 2. final training ---------------------------------------------
        with maybe_span(
            rec, "final_training", "campaign.final_training", precision=precision
        ) as train_span:
            x, y = spec.make_data(seed=data_seed + 1)
            rng = np.random.default_rng(seed)
            x_tr, y_tr, x_va, y_va = train_val_split(x, y, val_frac=0.3, rng=rng)

            cfg = dict(best)
            lr = float(cfg.pop("lr", 1e-3))
            batch_size = int(cfg.pop("batch_size", 32))
            h1, h2 = cfg.pop("hidden1", None), cfg.pop("hidden2", None)
            if h1 is not None:
                cfg["hidden"] = (int(h1),) if h2 is None else (int(h1), int(h2))
            model = spec.build_model(**cfg)

            report = run_training_job(
                model, x_tr, y_tr, cluster, precision=precision,
                epochs=final_epochs, batch_size=batch_size, loss=spec.loss,
                lr=lr, seed=seed, faults=faults, checkpoint_dir=checkpoint_dir,
            )
            train_time, energy = report.sim_total_time, report.energy_joules
            if train_span is not None:
                train_span["attrs"].update(sim_time=train_time, energy_joules=energy)

        # -- 3. evaluate -----------------------------------------------------
        with maybe_span(rec, "evaluate", "campaign.evaluate"):
            if spec.metric == "loss":
                final_metric = model.evaluate(x_va, y_va, loss=spec.loss)["loss"]
            else:
                pred = model.predict(np.asarray(x_va))
                target = x_va if y_va is None else y_va
                final_metric = metrics_mod.get(spec.metric)(pred, np.asarray(target))

        # -- 4. resilience ledger --------------------------------------------
        resilience: Optional[ResilienceReport] = None
        if faults is not None:
            resilience = report.resilience or ResilienceReport()
            stats = log.stats
            resilience.retries += stats.get("retries", 0)
            resilience.quarantined += stats.get("quarantined", 0)
            resilience.workers_lost += stats.get("workers_lost", 0)
            resilience.faults = resilience.faults + stats["faults"]  # search + training, by kind

        if campaign_span is not None:
            campaign_span["attrs"].update(
                final_metric=float(final_metric), metric=spec.metric,
            )

        # -- 5. publish ------------------------------------------------------
        published = None
        if publish_to is not None:
            with maybe_span(rec, "publish", "campaign.publish"):
                published = publish_to.publish(
                    model,
                    name=model_name or spec.name,
                    benchmark=spec.name,
                    input_shape=tuple(np.asarray(x_va).shape[1:]),
                    hparams=cfg,
                    lineage={
                        "campaign_span": campaign_span["id"] if campaign_span else None,
                        "strategy": strategy,
                        "best_config": dict(best),
                        "final_metric": float(final_metric),
                        "metric": spec.metric,
                        "precision": precision,
                        "seed": seed,
                    },
                )
            if campaign_span is not None:
                campaign_span["attrs"]["published"] = published.spec

    return CampaignReport(
        benchmark=spec.name,
        strategy=strategy,
        search_log=log,
        best_config=best,
        final_metric=float(final_metric),
        metric_name=spec.metric,
        search_wallclock=search_wall,
        final_train_time=train_time,
        total_energy=energy,
        resilience=resilience,
        published=published,
    )
