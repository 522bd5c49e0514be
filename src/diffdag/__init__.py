"""Differentiable DAG sampling and variational structure learning."""

__version__ = "0.1.0"

from .autodiff import Tape, Tensor, straight_through
from .graphs import (
    AcyclicityError,
    AdjacencyMatrix,
    PermutationMatrix,
    UpperTriangularEdges,
    compose,
    decompose,
    is_acyclic,
)
from .gumbel import (
    SINKHORN,
    TOPK,
    EdgeParams,
    GumbelSource,
    PermutationParams,
    hungarian,
    sample_edges,
    sample_permutation,
    sinkhorn_operator,
    softsort,
)
from .metrics import auc_pr, auc_roc, bench_sampling, mechanism_mse, perturbation_confidence, shd
from .model import DpDagModel, edge_scores, load_checkpoint, sample_dag, save_checkpoint, threshold_dag
from .semdata import GenSpec, SemDataset, gen_graph, gen_mechanisms_and_sample, generate, load_csv
from .training import DivergenceError, FitResult, MechanismNet, TrainConfig, elbo_loss, fit, fit_direct, predict

__all__ = [
    "__version__",
    "Tape",
    "Tensor",
    "straight_through",
    "AcyclicityError",
    "AdjacencyMatrix",
    "PermutationMatrix",
    "UpperTriangularEdges",
    "compose",
    "decompose",
    "is_acyclic",
    "SINKHORN",
    "TOPK",
    "EdgeParams",
    "GumbelSource",
    "PermutationParams",
    "hungarian",
    "sample_edges",
    "sample_permutation",
    "sinkhorn_operator",
    "softsort",
    "auc_pr",
    "auc_roc",
    "bench_sampling",
    "mechanism_mse",
    "perturbation_confidence",
    "shd",
    "DpDagModel",
    "edge_scores",
    "load_checkpoint",
    "sample_dag",
    "save_checkpoint",
    "threshold_dag",
    "GenSpec",
    "SemDataset",
    "gen_graph",
    "gen_mechanisms_and_sample",
    "generate",
    "load_csv",
    "DivergenceError",
    "FitResult",
    "MechanismNet",
    "TrainConfig",
    "elbo_loss",
    "fit",
    "fit_direct",
    "predict",
]
