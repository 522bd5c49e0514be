"""Probabilistic DAG model: permutation sampler x edge sampler.

A sample is assembled as ``A = E * (P^T M P)`` where ``E`` holds
straight-through edge samples for every ordered pair, ``P`` is the
straight-through permutation matrix and ``M`` is the strictly upper
triangular all-ones mask. The mask keeps exactly the pairs allowed by the
sampled node ranking, so every sample is acyclic by construction, at any
point during training. Sampling every pair and masking is distributionally
identical to sampling only the allowed triangle and cheaper to vectorize.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graphs import AdjacencyMatrix, PermutationMatrix, strict_upper_mask
from .gumbel import (
    SINKHORN,
    TOPK,
    EdgeParams,
    GumbelSource,
    ParameterError,
    PermutationParams,
    sample_edges,
    sample_permutation,
)

__all__ = [
    "DpDagModel",
    "DagSample",
    "sample_dag",
    "sample_dag_parts",
    "edge_scores",
    "threshold_dag",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_FORMAT = "diffdag-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass
class DpDagModel:
    """Learnable distribution over DAGs on n nodes."""

    n: int
    edge_params: EdgeParams
    perm_params: PermutationParams

    def __post_init__(self):
        if self.edge_params.n != self.n or self.perm_params.n != self.n:
            raise ParameterError(
                f"inconsistent node counts: model n={self.n}, "
                f"edges n={self.edge_params.n}, permutation n={self.perm_params.n}"
            )

    @classmethod
    def create(
        cls,
        n: int,
        perm_mode: str = TOPK,
        temperature: float = 1.0,
        sinkhorn_iters: int = 20,
    ) -> "DpDagModel":
        """Fresh model with zero logits/scores (uniform edges, uniform order)."""
        return cls(
            n=n,
            edge_params=EdgeParams(n=n, temperature=temperature),
            perm_params=PermutationParams(
                n=n, mode=perm_mode, temperature=temperature, sinkhorn_iters=sinkhorn_iters
            ),
        )

    def parameters(self) -> list[Tensor]:
        return [self.edge_params.logits, self.perm_params.scores]


@dataclass
class DagSample:
    """One DAG draw plus the tensors the trainer differentiates through."""

    hard: AdjacencyMatrix
    soft: Tensor  # E * (P^T M P); value equals the hard sample unless relaxed
    mask: Tensor  # P^T M P on its own, for objective terms over allowed pairs
    permutation: PermutationMatrix


def sample_dag_parts(
    model: DpDagModel, noise: GumbelSource | None = None, relaxed: bool = False
) -> DagSample:
    """Sample permutation then edges, then combine.

    The straight-through substitution happens once, at the assembled
    adjacency: the forward value is the discrete sample while the backward
    pass sees the fully relaxed product, so gradients reach the scores and
    logits even through pairs the discrete draw masked out. ``relaxed=True``
    skips the substitution and keeps the smooth tensors end to end (used by
    gradient checks); the hard sample is still assembled from the discrete
    draws.
    """
    n = model.n
    p_hard, p_soft = sample_permutation(model.perm_params, noise)
    e_hard, e_soft = sample_edges(model.edge_params, noise)
    # mask[i][j] = 1 iff the sampled ranking puts i strictly before j
    perm = p_hard.perm
    hard_mask = strict_upper_mask(n)[np.ix_(perm, perm)]
    hard_entries = e_hard * hard_mask
    hard = AdjacencyMatrix(np.rint(hard_entries).astype(np.int8), validate=False)
    if not relaxed and ad._active_tape() is None:
        # value-only sampling: the straight-through outputs equal the hard
        # draw, so skip the relaxed composition entirely
        return DagSample(
            hard=hard, soft=Tensor(hard_entries), mask=Tensor(hard_mask), permutation=p_hard
        )
    m_const = Tensor(strict_upper_mask(n))
    soft_mask = ad.matmul(ad.matmul(ad.transpose(p_soft), m_const), p_soft)
    soft_adj = ad.mul(e_soft, soft_mask)
    if relaxed:
        adj, mask = soft_adj, soft_mask
    else:
        adj = ad.straight_through(hard_entries, soft_adj)
        mask = ad.straight_through(hard_mask, soft_mask)
    return DagSample(hard=hard, soft=adj, mask=mask, permutation=p_hard)


def sample_dag(
    model: DpDagModel, noise: GumbelSource | None = None, relaxed: bool = False
) -> tuple[AdjacencyMatrix, Tensor]:
    """Draw one DAG; returns the hard sample and the differentiable tensor."""
    s = sample_dag_parts(model, noise, relaxed=relaxed)
    return s.hard, s.soft


def _allowed_mask(model: DpDagModel) -> tuple[np.ndarray, PermutationMatrix]:
    """Binary matrix of pairs the noise-free permutation allows."""
    p_hard, _ = sample_permutation(model.perm_params, noise=None)
    perm = p_hard.perm
    return strict_upper_mask(model.n)[np.ix_(perm, perm)], p_hard


def edge_scores(model: DpDagModel) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic per-pair structure scores.

    Directed score of (i, j) is the edge probability sigmoid(logits[i, j])
    where the noise-free permutation allows the direction and 0 elsewhere;
    the undirected score sums both directions of a pair.
    """
    allowed, _ = _allowed_mask(model)
    directed = model.edge_params.probabilities() * allowed
    return directed, directed + directed.T


def threshold_dag(model: DpDagModel, t: float = 0.5) -> AdjacencyMatrix:
    """Keep the allowed edges whose probability strictly exceeds ``t``."""
    if not (0.0 < t < 1.0):
        raise ParameterError(f"threshold must lie strictly inside (0, 1), got {t}")
    directed, _ = edge_scores(model)
    return AdjacencyMatrix((directed > t).astype(np.int8), validate=False)


def save_checkpoint(model: DpDagModel, path, extras: dict | None = None) -> None:
    """Write the model as JSON; floats round-trip exactly (repr encoding)."""
    blob = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "n": model.n,
        "perm_mode": model.perm_params.mode,
        "temperature": model.edge_params.temperature,
        "sinkhorn_iters": model.perm_params.sinkhorn_iters,
        "edge_logits": model.edge_params.logits.value.tolist(),
        "perm_scores": model.perm_params.scores.value.tolist(),
        "extras": extras or {},
    }
    with open(path, "w") as fh:
        json.dump(blob, fh)


def load_checkpoint(path) -> tuple[DpDagModel, dict]:
    """Inverse of :func:`save_checkpoint`. A missing key, or a sampler array
    that is not numeric or holds a non-finite value, raises ValueError naming
    the key; a temperature that is not finite and positive raises
    ``ParameterError``."""
    with open(path) as fh:
        blob = json.load(fh)
    if blob.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    if blob.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {blob.get('version')}")
    for key in ("n", "perm_mode", "temperature", "sinkhorn_iters", "edge_logits", "perm_scores"):
        if key not in blob:
            raise ValueError(f"{path}: missing key {key!r}")
    arrays = {}
    for key in ("edge_logits", "perm_scores"):
        try:
            arrays[key] = np.array(blob[key], dtype=np.float64)
        except (TypeError, ValueError):
            raise ValueError(f"{path}: {key} is not a numeric array") from None
        if not np.isfinite(arrays[key]).all():
            raise ValueError(f"{path}: {key} holds non-finite values")
    n = int(blob["n"])
    tau = float(blob["temperature"])
    model = DpDagModel(
        n=n,
        edge_params=EdgeParams(n=n, logits=arrays["edge_logits"], temperature=tau),
        perm_params=PermutationParams(
            n=n,
            mode=blob["perm_mode"],
            scores=arrays["perm_scores"],
            temperature=tau,
            sinkhorn_iters=int(blob["sinkhorn_iters"]),
        ),
    )
    return model, blob.get("extras", {})
