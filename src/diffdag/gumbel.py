"""Stochastic relaxations for edges and permutations.

Edges use the binary Gumbel-Softmax trick in its two-noise (logistic) form:
``soft = sigmoid((logits + G1 - G2) / tau)``. Permutations come in two
flavours, which :func:`sample_permutation` picks by ``params.mode``: a
doubly-stochastic relaxation (log-space Sinkhorn iteration, projected to a
hard permutation with an exact assignment solver) and a rank-based
relaxation (SoftSort of perturbed scores, their descending argsort for the
hard permutation). Each relaxation runs in numpy and records one tape node
with its own adjoint. All samplers run noise-free when ``noise is None``,
which makes them pure functions of their parameters; that mode is what
evaluation uses.

Soft outputs are :class:`~diffdag.autodiff.Tensor` values so gradients flow
when a tape is active; hard outputs are plain arrays / permutations detached
from the tape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graphs import PermutationMatrix

__all__ = [
    "ParameterError",
    "GumbelSource",
    "EdgeParams",
    "PermutationParams",
    "SINKHORN",
    "TOPK",
    "sample_edges",
    "sinkhorn_operator",
    "hungarian",
    "softsort",
    "sample_permutation",
]

SINKHORN = "sinkhorn"
TOPK = "topk"

# Uniform draws are clamped away from {0, 1} so -log(-log(u)) stays finite.
_U_EPS = 1e-12


class ParameterError(ValueError):
    """Invalid sampler parameterization (temperature, mode, shapes)."""


def _check_temperature(tau) -> None:
    # math.isfinite also rejects NaN, which passes a bare tau <= 0 check
    if not (math.isfinite(tau) and tau > 0):
        raise ParameterError(f"temperature must be finite and positive, got {tau}")


class GumbelSource:
    """Stream of standard Gumbel(0, 1) noise from a counter-based generator.

    Independent callers must use independent sources (distinct seeds); one
    source is not safe to share across threads.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.Philox(self.seed))

    def gumbel(self, shape) -> np.ndarray:
        u = self._gen.random(shape)
        np.clip(u, _U_EPS, 1.0 - _U_EPS, out=u)
        np.log(u, out=u)
        np.negative(u, out=u)
        np.log(u, out=u)
        np.negative(u, out=u)
        return u


@dataclass
class EdgeParams:
    """Per-pair edge log-odds; diagonal entries exist but are masked downstream."""

    n: int
    logits: Tensor = None
    temperature: float = 1.0

    def __post_init__(self):
        if self.logits is None:
            self.logits = Tensor(np.zeros((self.n, self.n)), requires_grad=True)
        elif not isinstance(self.logits, Tensor):
            self.logits = Tensor(np.asarray(self.logits, dtype=np.float64), requires_grad=True)
        if self.logits.value.shape != (self.n, self.n):
            raise ParameterError(f"edge logits must be {self.n}x{self.n}, got {self.logits.value.shape}")
        _check_temperature(self.temperature)

    def probabilities(self) -> np.ndarray:
        """sigmoid(logits): the implied per-pair edge probabilities."""
        return _sigmoid_np(self.logits.value)


@dataclass
class PermutationParams:
    """Scores for permutation sampling; shape depends on the mode.

    ``sinkhorn`` uses an n x n score matrix, ``topk`` a length-n score vector
    (stored as an n x 1 column).
    """

    n: int
    mode: str = TOPK
    scores: Tensor = None
    temperature: float = 1.0
    # Training replays every round in the backward pass, so the budget stays
    # small; standalone operator calls default to a larger cap (see
    # sinkhorn_operator).
    sinkhorn_iters: int = 20

    def __post_init__(self):
        if self.mode not in (SINKHORN, TOPK):
            raise ParameterError(f"mode must be {SINKHORN!r} or {TOPK!r}, got {self.mode!r}")
        want = (self.n, self.n) if self.mode == SINKHORN else (self.n, 1)
        if self.scores is None:
            self.scores = Tensor(np.zeros(want), requires_grad=True)
        else:
            if not isinstance(self.scores, Tensor):
                self.scores = Tensor(np.asarray(self.scores, dtype=np.float64), requires_grad=True)
            if self.scores.value.ndim == 1:
                self.scores = Tensor(self.scores.value.reshape(-1, 1), requires_grad=self.scores.requires_grad)
        if self.scores.value.shape != want:
            raise ParameterError(
                f"{self.mode} scores must have shape {want}, got {self.scores.value.shape}"
            )
        _check_temperature(self.temperature)
        if self.sinkhorn_iters < 1:
            raise ParameterError(f"sinkhorn_iters must be >= 1, got {self.sinkhorn_iters}")


def _lse(a: np.ndarray, axis: int) -> np.ndarray:
    m = a.max(axis=axis, keepdims=True)
    return m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True))


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    """Overflow-free sigmoid: ``1 / (1 + exp(-x))`` at x >= 0, ``e / (1 + e)``
    with ``e = exp(x)`` below."""
    e = np.exp(-np.abs(x))  # one exp for both tails, never overflowing
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


# Above this, sigmoid(v) rounds strictly above 1/2; see _edge_rule.
_EDGE_BAND = 1e-15


def _edge_rule(v: np.ndarray) -> np.ndarray:
    """``sigmoid(v) > 0.5`` exactly, as a bool array, without the full sigmoid.

    At or below 0 the sigmoid never exceeds 1/2, and above ``_EDGE_BAND`` it
    always does. Inside ``0 < v <= _EDGE_BAND``, ``exp(-v)`` may round to 1
    and the sigmoid to exactly 1/2, so those entries alone take the sigmoid.
    """
    on = v > _EDGE_BAND
    band = v > 0
    band ^= on
    if band.any():
        on[band] = _sigmoid_np(v[band]) > 0.5
    return on


def _scaled_logits(params: EdgeParams, noise: GumbelSource | None) -> np.ndarray:
    """``(logits + G1 - G2) / tau``, or ``logits / tau`` without noise: the
    argument of the edge sigmoid, in a fresh array."""
    if noise is None:
        return params.logits.value * (1.0 / params.temperature)
    n = params.n
    v = noise.gumbel((n, n))
    v -= noise.gumbel((n, n))
    v += params.logits.value
    v *= 1.0 / params.temperature
    return v


def sample_edges(params: EdgeParams, noise: GumbelSource | None = None) -> tuple[np.ndarray, Tensor]:
    """Sample all n*n candidate edges at once.

    Returns ``(hard, soft)``: a detached binary matrix (1 where soft > 0.5)
    and the relaxed sigmoid tensor. Noise-free mode drops the Gumbel pair
    difference and is deterministic. Under a tape the soft output records one
    ``"edges"`` node on the logits.
    """
    v = _scaled_logits(params, noise)
    s = _sigmoid_np(v)
    inv_tau = 1.0 / params.temperature

    def bw(g, node):
        s = node.output.value
        return ((g * s * (1.0 - s)) * inv_tau,)

    return _edge_rule(v).astype(np.float64), ad._record("edges", (params.logits,), s, bw)


def _hard_edges(params: EdgeParams, noise: GumbelSource | None = None) -> np.ndarray:
    """The hard draw of :func:`sample_edges` alone, as a bool array: the same
    noise and arithmetic, no sigmoid and no tape node."""
    return _edge_rule(_scaled_logits(params, noise))


def sinkhorn_operator(m, iters: int = 500, tau: float = 1.0, tol: float = 1e-6) -> Tensor:
    """Push ``m / tau`` toward the doubly-stochastic polytope in log space.

    Alternates row and column log-sum-exp normalization up to ``iters``
    times, exiting as soon as the worst row/column sum deviates from 1 by
    less than ``tol``. An early exit is the exception at training's default
    cap of 20: over 30 draws of ``scale * N(0, 1) + Gumbel`` per cell
    (scales 0.1, 1 and 5), 10-30 ran all 20 rounds at n = 10 and 24-30 at
    n = 50 and n = 200, so training draws at n >= 50 almost always run the
    full cap. Log-space arithmetic keeps the iteration finite for
    arbitrarily large score magnitudes.

    The loop runs once, in numpy, whether or not a tape is active, so the
    output does not depend on taping. Under a tape it records one
    ``"sinkhorn"`` node whose adjoint replays the saved iterates in reverse:
    exactly the gradient of the unrolled loop, at whatever round it stopped.
    """
    _check_temperature(tau)
    if iters < 1:
        raise ParameterError(f"iters must be >= 1, got {iters}")
    m = m if isinstance(m, Tensor) else Tensor(m)
    # Iterates are kept only when a node will be recorded, as a flat list
    # rows_1, p_1, rows_2, p_2, ...: naming no array beyond the two that the
    # loop rebinds keeps an untaped draw's peak memory at four n x n arrays.
    saved = [] if ad._active_tape() is not None and m.requires_grad else None
    log_p = m.value / tau
    for _ in range(iters):
        log_p = log_p - _lse(log_p, axis=1)
        if saved is not None:
            saved.append(log_p)
        log_p = log_p - _lse(log_p, axis=0)
        p = np.exp(log_p)
        if saved is not None:
            saved.append(p)
        dev = max(np.abs(p.sum(axis=1) - 1.0).max(), np.abs(p.sum(axis=0) - 1.0).max())
        if dev < tol:
            break

    def bw(g, node):
        g = g * node.output.value  # through the final exp
        for rows_k, p_k in reversed(list(zip(node.saved[::2], node.saved[1::2]))):
            # column step: its softmax is p_k; row step: its softmax is exp(rows_k)
            g -= p_k * g.sum(axis=0, keepdims=True)
            g -= np.exp(rows_k) * g.sum(axis=1, keepdims=True)
        return (g / tau,)

    return ad._record("sinkhorn", (m,), p, bw, saved)


_MAX_PROFIT = 1e300


def hungarian(profit) -> PermutationMatrix:
    """Exact maximum-profit assignment in O(n^3).

    Shortest-augmenting-path algorithm with potentials on ``cost = -profit``.
    The returned permutation maximizes the total profit picked up by its
    matrix form, ``sum_i profit[perm[i], i]`` (transposing the profit matrix
    yields the row-indexed formulation with the same optimal value).

    Rows are added one at a time. Among equal reduced costs the search takes
    the lowest column index, so ties always resolve the same way. A row whose
    cheapest reduced column is still free takes it at once, with no search;
    otherwise the search runs in buffers allocated once per call, masking a
    scanned column with +inf rather than dropping it.

    Entries must be finite and at most 1e300 in magnitude; anything else
    raises ``ParameterError``.
    """
    profit = np.asarray(profit, dtype=np.float64)
    if profit.ndim != 2 or profit.shape[0] != profit.shape[1]:
        raise ParameterError(f"profit must be square, got shape {profit.shape}")
    # the bound leaves over 10^8 of headroom below the float64 limit (~1.8e308)
    # for the sums of entries that reduced costs and potentials hold; NaN fails it
    if not (np.abs(profit) <= _MAX_PROFIT).all():
        raise ParameterError(f"profit entries must be finite and at most {_MAX_PROFIT:g} in magnitude")
    cost = -profit
    n = cost.shape[0]
    u = np.zeros(n)
    v = np.zeros(n)
    col4row = np.full(n, -1, dtype=np.int64)
    row4col = np.full(n, -1, dtype=np.int64)
    reduced = np.empty(n)
    shortest = np.empty(n)  # distance at which each scanned column was reached
    todo = np.empty(n)  # tentative distances; +inf once a column is scanned
    v_open = np.empty(n)  # v, with -inf at scanned columns so their reduced cost is +inf
    pred = np.empty(n, dtype=np.int64)
    better = np.empty(n, dtype=bool)
    for cur_row in range(n):
        # the first scan, at distance min_val = 0.0, in the later scans' order of operations
        np.add(0.0, cost[cur_row], out=reduced)
        reduced -= u[cur_row]
        reduced -= v
        j = int(reduced.argmin())
        min_val = reduced[j]
        if row4col[j] == -1:  # free: the update after the search would leave v[j] as it is
            u[cur_row] += min_val
            row4col[j] = cur_row
            col4row[cur_row] = j
            continue
        todo[:] = reduced
        v_open[:] = v
        pred.fill(cur_row)
        rows, cols = [], []
        while True:
            shortest[j] = min_val
            todo[j] = np.inf
            v_open[j] = -np.inf
            cols.append(j)
            i = int(row4col[j])
            if i == -1:
                break
            rows.append(i)
            np.add(min_val, cost[i], out=reduced)
            reduced -= u[i]
            reduced -= v_open
            np.less(reduced, todo, out=better)
            np.copyto(todo, reduced, where=better)
            np.copyto(pred, i, where=better)
            j = int(todo.argmin())
            min_val = todo[j]
        u[cur_row] += min_val
        rows = np.array(rows)
        u[rows] += min_val - shortest[col4row[rows]]
        cols = np.array(cols)
        v[cols] -= min_val - shortest[cols]
        while True:
            i = int(pred[j])
            row4col[j] = i
            col4row[i], j = j, int(col4row[i])
            if i == cur_row:
                break
    # matrix()[row4col[c], c] = 1 marks exactly the matched cells
    return PermutationMatrix(row4col)


def softsort(s, tau: float = 1.0) -> Tensor:
    """Row-stochastic relaxation of the descending argsort of ``s``.

    Row i is a softmax over ``-|sorted_desc(s)[i] - s[j]| / tau``. Its argmax
    reproduces the stable descending argsort only where neighbouring scores
    differ by well over about ``1e-16 * tau``: a closer gap rounds away in
    ``exp``, and the row ties (``s = [1, nextafter(1, 2)]`` at ``tau = 10``
    gives every entry 0.5). ``s`` is a plain score vector or column, or an
    (n, 1) ``Tensor``; a Tensor is used as given, so gradients reach the
    caller's own tensor.

    The value is computed in numpy; under a tape it records one
    ``"softsort"`` node with its own adjoint.
    """
    _check_temperature(tau)
    if not isinstance(s, Tensor):
        s = np.asarray(s, dtype=np.float64)
        s = Tensor(s.reshape(-1, 1) if s.ndim == 1 else s)
    if s.value.ndim != 2 or s.value.shape[1] != 1:
        raise ad.DimensionError(f"softsort: scores must be an (n, 1) column, got shape {s.value.shape}")
    order = np.argsort(-s.value.ravel(), kind="stable")
    diff = s.value[order] - s.value.T  # row i: the i-th largest score minus every score
    x = np.abs(diff) * (-1.0 / tau)
    e = np.exp(x - x.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)

    def bw(g, node):
        diff, order = node.saved
        p = node.output.value
        g = p * (g - (g * p).sum(axis=1, keepdims=True))  # through the row softmax
        g = g * (-1.0 / tau) * np.sign(diff)
        n = g.shape[0]
        # row and column sums as matmuls with ones, which sum in the same order
        # as the op chain this node replaced; row i's sum belongs to s[order[i]]
        ds = np.empty((n, 1))
        ds[order] = np.matmul(g, np.ones((n, 1)))
        return (np.matmul(np.ones((1, n)), -g).T + ds,)

    return ad._record("softsort", (s,), p, bw, (diff, order))


def _rank_permutation(scores: np.ndarray) -> PermutationMatrix:
    """perm[v] = descending rank of scores[v], stable on ties."""
    order = np.argsort(-scores.ravel(), kind="stable")
    ranks = np.empty(scores.size, dtype=np.int64)
    ranks[order] = np.arange(scores.size)
    return PermutationMatrix(ranks)


def sample_permutation(
    params: PermutationParams, noise: GumbelSource | None = None
) -> tuple[PermutationMatrix, Tensor]:
    """Soft permutation plus its hard counterpart, in ``params.mode``.

    ``sinkhorn`` relaxes the perturbed score matrix to a doubly-stochastic one
    and projects it with the exact assignment solver. ``topk`` takes the
    SoftSort of the perturbed score vector; the hard permutation is the
    stable descending argsort of those scores. It is the soft one's row-wise
    argmax only when neighbouring scores differ by well over ``1e-16 * tau``
    (see :func:`softsort`); closer scores tie in the soft matrix, while the
    hard draw still breaks the tie by the stable argsort.
    """
    scores = params.scores
    if noise is not None:
        scores = ad.add(scores, Tensor(noise.gumbel(scores.value.shape)))
    if params.mode == SINKHORN:
        soft = sinkhorn_operator(scores, iters=params.sinkhorn_iters, tau=params.temperature)
        return hungarian(soft.value), soft
    return _rank_permutation(scores.value), softsort(scores, tau=params.temperature)


def _hard_permutation(params: PermutationParams, noise: GumbelSource | None = None) -> PermutationMatrix:
    """The hard draw of :func:`sample_permutation` alone: the same noise and
    arithmetic, no soft output and no tape node."""
    scores = params.scores.value
    if noise is not None:
        scores = scores + noise.gumbel(scores.shape)
    if params.mode == SINKHORN:
        return hungarian(sinkhorn_operator(scores, iters=params.sinkhorn_iters, tau=params.temperature).value)
    return _rank_permutation(scores)
