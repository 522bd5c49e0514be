"""Probabilistic DAG model: permutation sampler x edge sampler.

A sample is assembled as ``A = E * (P^T M P)`` where ``E`` holds edge
samples for every ordered pair, ``P`` is the permutation matrix and ``M`` is
the strictly upper triangular all-ones mask. The mask keeps exactly the
pairs allowed by the sampled node ranking, so every sample is acyclic by
construction, at any point during training. Sampling every pair and masking
is distributionally identical to sampling only the allowed triangle and
cheaper to vectorize.

Under a tape, a draw records the ``"order-mask"`` and ``"dag"`` nodes after
the samplers' own; see :func:`sample_dag_parts`.

With no tape active and ``relaxed`` off, a draw computes only the hard
sample: the ranking of the perturbed scores (or the assignment of their
Sinkhorn relaxation), the edge rule ``logits + L > 0`` and the order mask,
from the same noise in the same order as a taped draw, so both give the
same hard sample.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from ._checks import check_choice, check_count, check_real, check_scale
from .autodiff import Tensor
from .graphs import AdjacencyMatrix, strict_upper_mask
from .gumbel import (
    PERM_MODES,
    SINKHORN_ITERS,
    TOPK,
    EdgeParams,
    GumbelSource,
    ParameterError,
    PermutationParams,
    _hard_edges,
    _hard_permutation,
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
        # a checkpoint stores one temperature for both samplers
        if self.edge_params.temperature != self.perm_params.temperature:
            raise ParameterError(
                f"inconsistent temperatures: edges {self.edge_params.temperature}, "
                f"permutation {self.perm_params.temperature}"
            )

    @classmethod
    def create(
        cls,
        n: int,
        perm_mode: str = TOPK,
        temperature: float = 1.0,
        sinkhorn_iters: int = SINKHORN_ITERS,
    ) -> "DpDagModel":
        """Fresh model with zero logits/scores (uniform edges, uniform order)."""
        check_choice("perm_mode", perm_mode, PERM_MODES, ParameterError)
        return cls(
            n=n,
            edge_params=EdgeParams(n=n, temperature=temperature),
            perm_params=PermutationParams(n=n, mode=perm_mode, temperature=temperature, sinkhorn_iters=sinkhorn_iters),
        )

    def parameters(self) -> list[Tensor]:
        return [self.edge_params.logits, self.perm_params.scores]


@dataclass
class DagSample:
    """One DAG draw plus the tensors the trainer differentiates through."""

    hard: AdjacencyMatrix
    soft: Tensor  # E * (P^T M P); value equals the hard sample unless relaxed
    mask: Tensor  # P^T M P on its own, for objective terms over allowed pairs


def _order_mask(perm: np.ndarray) -> np.ndarray:
    """mask[i][j] is True iff the ranking ``perm`` puts i strictly before j."""
    return perm[:, None] < perm[None, :]


def _order_mask_node(p_soft: Tensor, hard_mask: np.ndarray | None) -> tuple[Tensor, np.ndarray]:
    """Record the ``"order-mask"`` node on the soft permutation ``P``.

    Its value is ``hard_mask`` or, when that is None, ``P^T M P``; its
    adjoint is that of ``P^T M P`` either way. Returns the node's output and
    the value of ``P^T M P``.
    """
    p = p_soft.value
    m = strict_upper_mask(p.shape[0])
    # P^T made contiguous: a gemm on the transposed view can sum in another
    # order, and did in seeded n = 50 fits
    pt_m = np.matmul(p.T.copy(), m)
    soft = np.matmul(pt_m, p)

    def bw(g, node):
        # d(P^T M P)/dP in the summation order of the transpose/matmul
        # chain this node replaced, so seeded fits stay bit-identical
        pt_m, p, m = node.saved
        return (np.matmul(pt_m.T, g) + np.matmul(np.matmul(g, p.T), m.T).T,)

    value = soft if hard_mask is None else hard_mask
    return ad._record("order-mask", (p_soft,), value, bw, (pt_m, p, m)), soft


def _dag_node(e_soft: Tensor, mask: Tensor, soft_mask: np.ndarray, hard_entries: np.ndarray | None) -> Tensor:
    """Record the ``"dag"`` node: the adjacency ``E * mask``. Its value is
    ``hard_entries`` or, when that is None, ``E * soft_mask``; its adjoint is
    that of ``E * soft_mask`` either way."""

    def bw(g, node):
        (te, tm), (e, soft_mask) = node.inputs, node.saved
        return (g * soft_mask if te.requires_grad else None, g * e if tm.requires_grad else None)

    value = e_soft.value * soft_mask if hard_entries is None else hard_entries
    return ad._record("dag", (e_soft, mask), value, bw, (e_soft.value, soft_mask))


def sample_dag_parts(
    model: DpDagModel, noise: GumbelSource | None = None, relaxed: bool = False
) -> DagSample:
    """Sample permutation then edges, then combine.

    The straight-through substitution happens in the last two nodes of the
    draw: the ``"order-mask"`` node outputs the hard order mask and the
    ``"dag"`` node the hard adjacency, while their adjoints are those of the
    fully relaxed ``P^T M P`` and ``E * P^T M P``, so gradients reach the
    scores and logits even through pairs the discrete draw masked out.
    ``relaxed=True`` makes the two nodes output the smooth values instead
    (used by gradient checks); the graph and the hard sample stay the same.

    With no tape active and ``relaxed`` off, the straight-through outputs
    equal the hard draw, so only the hard draw is computed; ``soft`` and
    ``mask`` then hold the hard sample and the hard order mask.
    """
    if not relaxed and ad._active_tape() is None:
        hard_mask = _order_mask(_hard_permutation(model.perm_params, noise).perm)
        hard_entries = _hard_edges(model.edge_params, noise) & hard_mask
        hard = AdjacencyMatrix(hard_entries, validate=False)
        return DagSample(hard=hard, soft=Tensor(hard_entries), mask=Tensor(hard_mask))
    p_hard, p_soft = sample_permutation(model.perm_params, noise)
    e_hard, e_soft = sample_edges(model.edge_params, noise)
    hard_mask = _order_mask(p_hard.perm)
    hard_entries = e_hard * hard_mask
    hard = AdjacencyMatrix(hard_entries, validate=False)
    mask, soft_mask = _order_mask_node(p_soft, None if relaxed else hard_mask)
    adj = _dag_node(e_soft, mask, soft_mask, None if relaxed else hard_entries)
    return DagSample(hard=hard, soft=adj, mask=mask)


def sample_dag(
    model: DpDagModel, noise: GumbelSource | None = None, relaxed: bool = False
) -> tuple[AdjacencyMatrix, Tensor]:
    """Draw one DAG; returns the hard sample and the differentiable tensor."""
    s = sample_dag_parts(model, noise, relaxed=relaxed)
    return s.hard, s.soft


def _directed_scores(model: DpDagModel) -> tuple[np.ndarray, np.ndarray]:
    """The directed scores of :func:`edge_scores` and the noise-free
    permutation's order mask they were taken under."""
    allowed = _order_mask(_hard_permutation(model.perm_params).perm)
    return model.edge_params.probabilities() * allowed, allowed


def edge_scores(model: DpDagModel) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic per-pair structure scores.

    Directed score of (i, j) is the edge probability sigmoid(logits[i, j])
    where the noise-free permutation allows the direction and 0 elsewhere;
    the undirected score sums both directions of a pair.
    """
    directed, _ = _directed_scores(model)
    return directed, directed + directed.T


def threshold_dag(model: DpDagModel, t: float = 0.5) -> AdjacencyMatrix:
    """Keep the allowed edges whose probability strictly exceeds ``t``."""
    check_real("threshold", t, ParameterError)
    if not (0.0 < t < 1.0):
        raise ParameterError(f"threshold must lie strictly inside (0, 1), got {t}")
    directed, _ = edge_scores(model)
    return AdjacencyMatrix(directed > t, validate=False)


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


def _finite_array(value, what: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """``value`` as a new float64 array. One that is not numeric, has a shape
    other than ``shape`` (when given) or holds a non-finite value raises
    ValueError, its message starting with ``what``: every array a checkpoint
    carries is read through here."""
    try:
        v = np.array(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(f"{what} is not a numeric array") from None
    if shape is not None and v.shape != shape:
        raise ValueError(f"{what} has shape {v.shape}, expected {shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{what} holds non-finite values")
    return v


def load_checkpoint(path) -> tuple[DpDagModel, dict]:
    """Inverse of :func:`save_checkpoint`. A missing key, an ``n`` that is
    not an integer >= 0, or a sampler array that is not numeric or holds a
    non-finite value raises ValueError naming the key; a ``perm_mode`` that
    is not one of ``PERM_MODES``, a ``sinkhorn_iters`` that is not an integer
    >= 1 or a temperature that is not finite and positive raises
    ``ParameterError`` naming the key."""
    with open(path) as fh:
        blob = json.load(fh)
    if blob.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    if blob.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {blob.get('version')}")
    for key in ("n", "perm_mode", "temperature", "sinkhorn_iters", "edge_logits", "perm_scores"):
        if key not in blob:
            raise ValueError(f"{path}: missing key {key!r}")
    check_choice(f"{path}: perm_mode", blob["perm_mode"], PERM_MODES, ParameterError)
    check_count(f"{path}: n", blob["n"], 0)
    check_count(f"{path}: sinkhorn_iters", blob["sinkhorn_iters"], 1, ParameterError)
    check_scale(f"{path}: temperature", blob["temperature"], ParameterError)
    arrays = {key: _finite_array(blob[key], f"{path}: {key}") for key in ("edge_logits", "perm_scores")}
    n = blob["n"]
    tau = float(blob["temperature"])
    model = DpDagModel(
        n=n,
        edge_params=EdgeParams(n=n, logits=arrays["edge_logits"], temperature=tau),
        perm_params=PermutationParams(
            n=n,
            mode=blob["perm_mode"],
            scores=arrays["perm_scores"],
            temperature=tau,
            sinkhorn_iters=blob["sinkhorn_iters"],
        ),
    )
    return model, blob.get("extras", {})
