"""Causal direction from bivariate samples via variational Bayesian codelengths."""

from .codelength import (
    PairReport,
    TrainConfig,
    conditional_variational_codelength,
    marginal_gaussian_codelength,
    score_pair,
    train_conditional,
)
from .data import (
    GeneratorSpec,
    PairDataset,
    UNDECIDED,
    X_CAUSES_Y,
    Y_CAUSES_X,
    fetch_tuebingen,
    generate_dataset,
    generate_pair,
    load_pair_file,
    load_tuebingen,
    standardize,
    swap_pair,
)
from .evaluation import BenchmarkResult, auroc, bi_auroc, run_benchmark, weighted_accuracy
from .rng import RngStream, draw_standard_normal

__all__ = [
    "BenchmarkResult",
    "GeneratorSpec",
    "PairDataset",
    "PairReport",
    "RngStream",
    "TrainConfig",
    "UNDECIDED",
    "X_CAUSES_Y",
    "Y_CAUSES_X",
    "auroc",
    "bi_auroc",
    "conditional_variational_codelength",
    "draw_standard_normal",
    "fetch_tuebingen",
    "generate_dataset",
    "generate_pair",
    "load_pair_file",
    "load_tuebingen",
    "marginal_gaussian_codelength",
    "run_benchmark",
    "score_pair",
    "standardize",
    "swap_pair",
    "train_conditional",
    "weighted_accuracy",
]

__version__ = "0.1.0"
