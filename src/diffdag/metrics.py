"""Structure and mechanism quality metrics and the sampling-time harness.

AUC metrics sweep every distinct score value (ties grouped), so they are
exact and threshold-free: ROC area by trapezoidal integration, PR area by
the step integral sum of precision times recall increments. The candidate
universe always excludes the diagonal; the undirected variant scores each
unordered pair once with the sum of both direction scores.

SHD counts insertions, deletions and reversals, a reversed pair costing 1.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from ._checks import check_count, check_same_n
from .graphs import AdjacencyMatrix
from .gumbel import GumbelSource
from .model import DpDagModel, edge_scores, sample_dag

__all__ = [
    "MetricError",
    "auc_roc",
    "auc_pr",
    "directed_pairs",
    "undirected_pairs",
    "structure_aucs",
    "shd",
    "mechanism_mse",
    "perturbation_confidence",
    "bench_sampling",
]


class MetricError(ValueError):
    """Metric undefined for the given inputs (e.g. single-class labels)."""


def _sweep(scores: np.ndarray, labels: np.ndarray):
    """Cumulative true/false positives at each distinct threshold, descending."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if scores.shape != labels.shape:
        raise MetricError(f"scores and labels differ in length: {scores.size} vs {labels.size}")
    if not np.isin(labels, (0, 1)).all():
        raise MetricError("labels must be binary")
    pos = int(labels.sum())
    neg = labels.size - pos
    if pos == 0 or neg == 0:
        raise MetricError(f"need both classes, got {pos} positives / {neg} negatives")
    order = np.argsort(-scores, kind="stable")
    y = labels[order]
    s = scores[order]
    # Indices closing each tie block.
    block_end = np.flatnonzero(np.diff(s) != 0)
    block_end = np.append(block_end, s.size - 1)
    tp = np.cumsum(y)[block_end]
    fp = np.cumsum(1 - y)[block_end]
    return tp, fp, pos, neg


def auc_roc(scores, labels) -> float:
    tp, fp, pos, neg = _sweep(scores, labels)
    tpr = np.concatenate(([0.0], tp / pos))
    fpr = np.concatenate(([0.0], fp / neg))
    return float(np.trapezoid(tpr, fpr))


def auc_pr(scores, labels) -> float:
    tp, fp, pos, _ = _sweep(scores, labels)
    recall = tp / pos
    precision = tp / (tp + fp)
    prev = np.concatenate(([0.0], recall[:-1]))
    return float(np.sum((recall - prev) * precision))


def directed_pairs(score_matrix: np.ndarray, truth: AdjacencyMatrix):
    """All ordered off-diagonal pairs."""
    n = truth.n
    off = ~np.eye(n, dtype=bool)
    return np.asarray(score_matrix)[off], truth.entries[off].astype(np.int64)


def undirected_pairs(score_matrix: np.ndarray, truth: AdjacencyMatrix):
    """Each unordered pair once: score S_ij + S_ji, label = either direction."""
    n = truth.n
    iu = np.triu_indices(n, k=1)
    s = np.asarray(score_matrix)
    scores = s[iu] + s.T[iu]
    labels = ((truth.entries + truth.entries.T) > 0)[iu].astype(np.int64)
    return scores, labels


def structure_aucs(model: DpDagModel, truth: AdjacencyMatrix) -> dict:
    """The four threshold-free structure numbers for a trained model; a
    ``truth`` on another number of nodes raises ``ValueError``."""
    check_same_n("model", model.n, "truth", truth.n)
    directed, _ = edge_scores(model)
    ds, dl = directed_pairs(directed, truth)
    us, ul = undirected_pairs(directed, truth)
    return {
        "dir_auc_pr": auc_pr(ds, dl),
        "dir_auc_roc": auc_roc(ds, dl),
        "un_auc_pr": auc_pr(us, ul),
        "un_auc_roc": auc_roc(us, ul),
    }


def shd(pred: AdjacencyMatrix, truth: AdjacencyMatrix) -> int:
    """Edge insertions + deletions + reversals (a reversed pair counts 1)."""
    check_same_n("pred", pred.n, "truth", truth.n)
    p, t = pred.entries, truth.entries
    iu = np.triu_indices(pred.n, k=1)
    p_fwd, p_bwd = p[iu], p.T[iu]
    t_fwd, t_bwd = t[iu], t.T[iu]
    p_any = (p_fwd + p_bwd) > 0
    t_any = (t_fwd + t_bwd) > 0
    mismatch = p_any != t_any
    reversed_pair = p_any & t_any & ((p_fwd != t_fwd) | (p_bwd != t_bwd))
    return int(mismatch.sum() + reversed_pair.sum())


def mechanism_mse(x_test: np.ndarray, x_hat: np.ndarray) -> float:
    """Grand mean of squared reconstruction error (per row, per node)."""
    x_test = np.asarray(x_test, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if x_test.shape != x_hat.shape:
        raise ValueError(f"shape mismatch: {x_test.shape} vs {x_hat.shape}")
    return float(np.mean((x_test - x_hat) ** 2))


def perturbation_confidence(
    model: DpDagModel,
    truth: AdjacencyMatrix,
    k_moved: int,
    trials: int = 10,
    seed: int = 0,
) -> tuple[float, float]:
    """Score of a graph with k edges moved, relative to the clean graph.

    Each trial moves k random true edges to random vacant off-diagonal cells
    and sums the model's directed scores over the perturbed edge set, divided
    by the sum over the true edge set. Returns (mean, sd) over trials.
    ``k_moved`` and ``seed`` must be integers >= 0 and ``trials`` one >= 1;
    either raises ``ValueError`` naming it before any work otherwise, as do
    a ``truth`` on another number of nodes than ``model`` and a true edge
    set that the model scores 0, where no ratio is defined.
    """
    check_count("k_moved", k_moved, 0)
    check_count("trials", trials, 1)
    check_count("seed", seed, 0)
    check_same_n("model", model.n, "truth", truth.n)
    edges = np.argwhere(truth.entries == 1)
    if k_moved > edges.shape[0]:
        raise ValueError(f"cannot move {k_moved} edges, graph has {edges.shape[0]}")
    directed, _ = edge_scores(model)
    clean_score = float(directed[truth.entries == 1].sum())
    if clean_score == 0.0:
        raise ValueError("the clean edge set scores 0, so no ratio is defined")
    off_diag_empty = np.argwhere((truth.entries == 0) & ~np.eye(truth.n, dtype=bool))
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(trials):
        keep = np.ones(edges.shape[0], dtype=bool)
        keep[rng.choice(edges.shape[0], size=k_moved, replace=False)] = False
        new_cells = off_diag_empty[rng.choice(off_diag_empty.shape[0], size=k_moved, replace=False)]
        cells = np.concatenate([edges[keep], new_cells], axis=0)
        ratios.append(float(directed[cells[:, 0], cells[:, 1]].sum()) / clean_score)
    return float(np.mean(ratios)), float(np.std(ratios))


def bench_sampling(
    model: DpDagModel, repetitions: int = 30, warmup: int = 3, seed: int = 0
) -> tuple[float, float]:
    """Mean and sd of wall-clock seconds per hard DAG sample.

    Garbage collection is paused around the timed section; stray collection
    pauses otherwise dwarf sub-millisecond samples. ``repetitions`` must be
    an integer >= 1, ``warmup`` and ``seed`` integers >= 0; each raises a
    ``ValueError`` naming it before any draw otherwise.
    """
    check_count("repetitions", repetitions, 1)
    check_count("warmup", warmup, 0)
    noise = GumbelSource(seed)
    for _ in range(warmup):
        sample_dag(model, noise)
    times = []
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(repetitions):
            t0 = time.perf_counter()
            sample_dag(model, noise)
            times.append(time.perf_counter() - t0)
    finally:
        if gc_was_enabled:
            gc.enable()
    return float(np.mean(times)), float(np.std(times))
