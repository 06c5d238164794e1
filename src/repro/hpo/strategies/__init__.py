"""Search strategies: naive (grid/random) and intelligent (successive
halving, Hyperband, evolutionary, GP-Bayesian, generative-NN-guided)."""

from .base import Strategy, Suggestion
from .bayesian import BayesianSearch, GaussianProcess, expected_improvement
from .evolutionary import EvolutionarySearch
from .generative import ConfigVAE, GenerativeSearch
from .hyperband import ASHA, Hyperband, SuccessiveHalving
from .naive import GridSearch, RandomSearch

STRATEGIES = {
    "random": RandomSearch,
    "grid": GridSearch,
    "successive_halving": SuccessiveHalving,
    "hyperband": Hyperband,
    "asha": ASHA,
    "evolutionary": EvolutionarySearch,
    "bayesian": BayesianSearch,
    "generative": GenerativeSearch,
}

__all__ = [
    "Strategy", "Suggestion", "RandomSearch", "GridSearch",
    "SuccessiveHalving", "Hyperband", "ASHA", "EvolutionarySearch",
    "BayesianSearch", "GaussianProcess", "expected_improvement",
    "GenerativeSearch", "ConfigVAE", "STRATEGIES",
]
