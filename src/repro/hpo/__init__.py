"""Hyperparameter search at scale (claims C13-C15 / experiments E5, E6):
typed search spaces, seven strategies, and sequential + simulated-parallel
schedulers."""

from .elastic import WorkerPlan, run_elastic
from .objectives import SurrogateLandscape, benchmark_objective
from .queue import DurableTrialQueue
from .results import ResultLog, Trial
from .scheduler import constant_cost, run_parallel, run_sequential
from .space import Categorical, Config, Dimension, Float, Int, SearchSpace, candle_mlp_space
from .strategies import (
    ASHA,
    STRATEGIES,
    BayesianSearch,
    ConfigVAE,
    EvolutionarySearch,
    GaussianProcess,
    GenerativeSearch,
    GridSearch,
    Hyperband,
    RandomSearch,
    Strategy,
    SuccessiveHalving,
    Suggestion,
    expected_improvement,
)

__all__ = [
    "SearchSpace", "Float", "Int", "Categorical", "Dimension", "Config",
    "candle_mlp_space",
    "ResultLog", "Trial",
    "run_sequential", "run_parallel", "constant_cost",
    "run_elastic", "WorkerPlan", "DurableTrialQueue",
    "SurrogateLandscape", "benchmark_objective",
    "Strategy", "Suggestion", "STRATEGIES",
    "RandomSearch", "GridSearch", "SuccessiveHalving", "Hyperband", "ASHA",
    "EvolutionarySearch", "BayesianSearch", "GaussianProcess",
    "expected_improvement", "GenerativeSearch", "ConfigVAE",
]
