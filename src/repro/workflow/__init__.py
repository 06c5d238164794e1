"""End-to-end workflows: real training priced on the simulated cluster,
and DL-supervised molecular-dynamics sampling (claims C3, C15)."""

from .campaign import CampaignReport, run_campaign
from .distributed import (
    DistributedRunResult,
    topk_sparsify,
    train_async_sgd,
    train_topk_sgd,
)
from .md_supervision import NoveltyModel, SamplingResult, compare_strategies, run_sampling_campaign
from .training_job import TrainingReport, run_training_job, simulated_trial_cost, time_to_loss

__all__ = [
    "TrainingReport", "run_training_job", "simulated_trial_cost", "time_to_loss",
    "NoveltyModel", "SamplingResult", "run_sampling_campaign", "compare_strategies",
    "CampaignReport", "run_campaign",
    "DistributedRunResult", "train_async_sgd",
    "train_topk_sgd", "topk_sparsify",
]
