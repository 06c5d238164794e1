"""Workload registry: name in BENCHMARK.json -> ``run(ctx) -> Outcome``."""

from . import ddp, hpo, registry_churn, serve_b1, serve_open, train

WORKLOADS = {
    "train_mlp": train.run_mlp,
    "train_cnn": train.run_cnn,
    "ddp_mlp": ddp.run,
    "serve_open": serve_open.run,
    "serve_b1": serve_b1.run,
    "hpo_campaign": hpo.run_campaign,
    "hpo_sim": hpo.run_sim,
    "registry_churn": registry_churn.run,
}
