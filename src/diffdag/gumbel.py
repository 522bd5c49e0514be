"""Stochastic relaxations for edges and permutations.

Edges use the binary Gumbel-Softmax (binary Concrete) relaxation with one
uniform per pair: ``soft = sigmoid((logits + L) / tau)``, where
``L = log(u) - log1p(-u)`` is Logistic(0, 1), the law of the difference of
two iid Gumbel(0, 1) variables. Permutations come in two
flavours, which :func:`sample_permutation` picks by ``params.mode``: a
doubly-stochastic relaxation (Sinkhorn iteration, one log-space round and
then matrix scaling ``diag(r) K diag(c)``, two matrix-vector products a
round, projected to a hard permutation with an exact assignment solver)
and a rank-based
relaxation (SoftSort of perturbed scores, their descending argsort for the
hard permutation). Each relaxation runs in numpy and records one tape node
with its own adjoint, with the Gumbel noise inside the node's value. All
samplers run noise-free when ``noise is None``, which makes them pure
functions of their parameters; that mode is what evaluation uses.

Soft outputs are :class:`~diffdag.autodiff.Tensor` values so gradients flow
when a tape is active; hard outputs are plain arrays / permutations detached
from the tape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from ._checks import check_count, check_real, check_scale
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

# Uniform draws are clamped away from {0, 1} so -log(-log(u)) and
# log(u) - log1p(-u) stay finite; the logistic noise is then within +-27.64.
_U_EPS = 1e-12


class ParameterError(ValueError):
    """Invalid sampler parameterization (temperature, mode, shapes)."""


class GumbelSource:
    """Stream of standard Gumbel(0, 1) and Logistic(0, 1) noise from a
    counter-based generator. Each noise value takes one uniform of the
    stream: a draw of ``shape`` advances it by ``prod(shape)`` uniforms.

    Independent callers must use independent sources (distinct seeds); one
    source is not safe to share across threads. A ``seed`` that is not an
    integer >= 0 raises ``ParameterError``.
    """

    def __init__(self, seed: int):
        check_count("seed", seed, 0, ParameterError)
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.Philox(self.seed))

    def gumbel(self, shape) -> np.ndarray:
        """Fresh ``-log(-log(u))`` noise of ``shape``, ``u`` uniform and
        clamped to ``[_U_EPS, 1 - _U_EPS]``. The clamp is the array's own
        ``clip`` method: the clip ufunc and bits of ``np.clip`` in one pass,
        without the two Python wrappers ``np.clip`` adds in front of it."""
        u = self._gen.random(shape)
        u.clip(_U_EPS, 1.0 - _U_EPS, out=u)
        np.log(u, out=u)
        np.negative(u, out=u)
        np.log(u, out=u)
        np.negative(u, out=u)
        return u

    def logistic(self, shape) -> np.ndarray:
        """Fresh ``log(u) - log1p(-u)`` noise of ``shape``, ``u`` uniform and
        clamped as in :meth:`gumbel`: Logistic(0, 1), the law of the
        difference of two iid Gumbel(0, 1) variables, from one uniform."""
        u = self._gen.random(shape)
        u.clip(_U_EPS, 1.0 - _U_EPS, out=u)
        t = np.negative(u)
        np.log1p(t, out=t)
        np.log(u, out=u)
        u -= t
        return u


@dataclass
class EdgeParams:
    """Per-pair edge log-odds; diagonal entries exist but are masked downstream."""

    n: int
    logits: Tensor = None
    temperature: float = 1.0

    def __post_init__(self):
        check_count("n", self.n, 0, ParameterError)
        check_scale("temperature", self.temperature, ParameterError)
        if self.logits is None:
            self.logits = Tensor(np.zeros((self.n, self.n)), requires_grad=True)
        elif not isinstance(self.logits, Tensor):
            self.logits = Tensor(np.asarray(self.logits, dtype=np.float64), requires_grad=True)
        if self.logits.value.shape != (self.n, self.n):
            raise ParameterError(f"edge logits must be {self.n}x{self.n}, got {self.logits.value.shape}")

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
    # Training replays every round in the backward pass, a few n x n
    # elementwise passes each, from two length-n scalings a taped round
    # keeps; so the budget stays small. Standalone operator calls default to
    # a larger cap (see sinkhorn_operator).
    sinkhorn_iters: int = 20

    def __post_init__(self):
        check_count("n", self.n, 0, ParameterError)
        check_scale("temperature", self.temperature, ParameterError)
        check_count("sinkhorn_iters", self.sinkhorn_iters, 1, ParameterError)
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


def _lse(a: np.ndarray, axis: int, e: np.ndarray) -> np.ndarray:
    """``max + log(sum(exp(a - max)))`` along ``axis``, kept as a length-1
    axis; ``e``, of ``a``'s shape, receives the exponentials."""
    top = np.maximum.reduce(a, axis=axis, keepdims=True)
    out = np.add.reduce(np.exp(np.subtract(a, top, out=e), out=e), axis=axis, keepdims=True)
    np.log(out, out=out)
    return np.add(top, out, out=out)


def _sums_near_one(s: np.ndarray, tol: float) -> bool:
    """``abs(s - 1).max() < tol`` without the temporaries: rounding ``x - 1``
    is monotone in ``x`` and ``fl(1 - x) = -fl(x - 1)``, so the largest
    deviation sits at the maximum or the minimum. NaN fails either way."""
    return bool(np.maximum.reduce(s, axis=None) - 1.0 < tol and 1.0 - np.minimum.reduce(s, axis=None) < tol)


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
    """``(logits + L) / tau`` with ``L`` the source's logistic noise, one
    uniform per pair, or ``logits / tau`` without noise: the argument of the
    edge sigmoid, in a fresh array."""
    if noise is None:
        return params.logits.value * (1.0 / params.temperature)
    v = noise.logistic((params.n, params.n))
    v += params.logits.value
    v *= 1.0 / params.temperature
    return v


def sample_edges(params: EdgeParams, noise: GumbelSource | None = None) -> tuple[np.ndarray, Tensor]:
    """Sample all n*n candidate edges at once.

    Returns ``(hard, soft)``: a detached binary matrix (1 where soft > 0.5)
    and the relaxed sigmoid tensor. A noisy draw takes n*n uniforms of
    ``noise``, one logistic value per pair; noise-free mode drops the noise
    and is deterministic. Under a tape the soft output records one
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
    """Push ``exp(m / tau)`` toward the doubly-stochastic polytope.

    Sinkhorn's iteration alternates row and column normalization up to
    ``iters`` times, exiting as soon as the worst row/column sum deviates
    from 1 by less than ``tol``. ``tol`` is a finite real number >= 0; at 0
    every round runs. An early exit is the exception at training's default
    cap of 20: over 30 draws of ``scale * N(0, 1) + Gumbel`` per cell
    (scales 0.1, 1 and 5), 10-30 ran all 20 rounds at n = 10 and 24-30 at
    n = 50 and n = 200, so training draws at n >= 50 almost always run the
    full cap.

    Round 1 is one row and column step in log space, which stays finite for
    arbitrarily large score magnitudes; its exponential is a matrix ``K``
    with entries in [0, 1] and a positive entry in every row and column
    (see ``_sinkhorn``). Later rounds are matrix scaling (Cuturi 2013): the
    iterate is ``diag(r) K diag(c)``, and a round sets ``r = 1 / (K @ c)``
    and then ``c = 1 / (r @ K)``, two matrix-vector products and no
    ``exp``. When ``K @ c`` or ``r @ K`` has an entry below ``2**-200``,
    so that ``r`` or ``c`` has one above ``2**200``, both are folded into
    ``K`` and reset to 1 (Schmitzer 2019): they stay finite and positive
    however long the iteration runs. The output
    ``r[:, None] * K * c`` is formed once, at the end.

    A round's exit is tested at the top of the next round: its row sums are
    ``r * (K @ c)``, and that matrix-vector product is the next round's
    first step, so the test costs one multiply and the reductions. The
    column sums, ``c * (r @ K)``, are taken only once the rows pass. The
    last round is not tested: exiting there returns the same output.

    The loop runs once, in numpy, whether or not a tape is active, so the
    output does not depend on taping. Under a tape it records one
    ``"sinkhorn"`` node whose adjoint replays the rounds in reverse: the
    gradient of the unrolled loop, at whatever round it stopped. A taped
    round saves its two scaling vectors, O(n); ``K`` is
    saved once per absorption segment. The adjoint forms each step's
    softmax from them, ``diag(r_k) K diag(c_{k-1})`` for the row step and
    ``diag(r_k) K diag(c_k)`` for the column step, again without ``exp``.
    A draw records the same node on its unperturbed scores (see
    :func:`sample_permutation`). A matrix with no entries runs no round and
    comes back as an empty output.
    """
    check_scale("tau", tau, ParameterError)
    check_count("iters", iters, 1, ParameterError)
    check_real("tol", tol, ParameterError)
    if tol < 0:
        raise ParameterError(f"tol must be >= 0, got {tol!r}")
    m = m if isinstance(m, Tensor) else Tensor(m)
    return _sinkhorn(m, m.value, iters, tau, tol)


# An entry of K @ c or r @ K below this, of r or c above its inverse, folds
# both scalings into K (see _sinkhorn).
_SCALING_FLOOR = 2.0**-200


def _sinkhorn(m: Tensor, x: np.ndarray, iters: int, tau: float, tol: float = 1e-6) -> Tensor:
    """:func:`sinkhorn_operator` of ``x``, recorded on ``m``; ``x`` is
    ``m.value`` or ``m.value`` plus a constant, so the adjoints agree."""
    # Taped, every K, r and c is a fresh array and saved holds one tuple
    # (K, r_k, c_{k-1}, c_k) per round, the rounds of a segment sharing their
    # K. Untaped, K, r and c are overwritten in place, and the output is
    # written into K: a call holds K, round 1's scratch e and O(n) vectors,
    # whatever iters is. (Each broadcasting op also makes numpy allocate and
    # free a hidden iterator buffer even with out= given, 65 KB at n = 200.)
    #
    # Why no matrix-vector product has a zero entry. Let the shape be
    # n_r x n_c. Round 1 rounds to nearest, so a rounded a + b lies within
    # |b| of a + b when a is a float (a itself is a candidate):
    #  - Row step. A row's log-sum-exp is t + log(sigma), t the row's maximum
    #    and sigma in [1, n_c] up to rounding (its largest term is exp(0) =
    #    1), so it lies in [t, t + 2 log(n_c)]: subtracting it leaves every
    #    entry <= 0 and each row's maximum >= -2 log(n_c) (about -log(n_c)
    #    while |t| is small against 2^52).
    #  - Column step. Likewise a column's log-sum-exp lies in [t', t' + 2
    #    log(n_r)], t' <= 0 the column's maximum: every entry stays <= 0,
    #    each column's maximum is >= -2 log(n_r), and the entry that was its
    #    row's maximum is >= -2 log(n_c) - 2 log(n_r), up to ulps.
    # So K = exp(iterate) has entries in [0, 1], each column an entry >=
    # 1/n_r^2 and each row one >= 1/(n_r n_c)^2 (about 1/n_r and 1/(n_r n_c)
    # at moderate magnitudes). The check keeps K @ c and r @ K >= 2^-200, so
    # r and c are at most H = 2^200; then K @ c <= n_c H and r @ K <= n_r H
    # make r >= 1/(n_c H) and c >= 1/(n_r H), and the next round has K @ c
    # >= 1/(H n_r^3 n_c^2) and r @ K >= 1/(H n_c n_r^2): both positive and
    # their reciprocals finite for n below 2^100, at any score magnitude.
    # Absorbing sets K to the iterate diag(r_k) K diag(c_k): its row step
    # made every row sum to 1 and its column step divided by column sums <=
    # n_r, so its entries are in [0, 1], its columns sum to 1 and every row
    # has an entry >= 1/(n_r n_c), up to rounding: the bound holds again.
    saved = [] if ad._active_tape() is not None and m.requires_grad else None
    k_mat = x / tau
    n_rows, n_cols = k_mat.shape
    r, c = np.ones(n_rows), np.ones(n_cols)
    rounds = iters if k_mat.size else 0  # no entries, nothing to normalize
    if rounds:
        e = np.empty_like(k_mat)
        k_mat -= _lse(k_mat, 1, e)
        col_lse = _lse(k_mat, 0, e)
        k_mat -= col_lse
        del e  # freed before a taped call allocates its output
        np.exp(k_mat, out=k_mat)
        if saved is not None:  # the row step's softmax is K diag(exp(col_lse))
            saved.append((k_mat, r, np.exp(col_lse[0]), c))
    # s = K @ c and t = r @ K share a buffer, so one reduction finds whether
    # either has an entry below the floor
    st, sums = np.empty(n_rows + n_cols), np.empty(n_rows)
    s, t = st[:n_rows], st[n_rows:]
    for _ in range(rounds - 1):
        k_mat.dot(c, out=s)
        if _sums_near_one(np.multiply(r, s, out=sums), tol) and _sums_near_one(c * r.dot(k_mat), tol):
            break
        c_prev = c
        r = np.reciprocal(s, out=r if saved is None else None)
        c = np.reciprocal(r.dot(k_mat, out=t), out=c if saved is None else None)
        if saved is not None:
            saved.append((k_mat, r, c_prev, c))
        if np.minimum.reduce(st) < _SCALING_FLOOR:
            k_mat = np.multiply(k_mat, r[:, None], out=k_mat if saved is None else None)
            k_mat *= c
            r, c = np.ones(n_rows), np.ones(n_cols)
    p = np.multiply(k_mat, r[:, None], out=k_mat if saved is None else None)
    p *= c

    def bw(g, node):
        g = g * node.output.value  # through the final exp
        rk, t = np.empty_like(g), np.empty_like(g)
        ones_r, ones_c = np.ones(g.shape[0]), np.ones(g.shape[1])
        for k_mat, r, c_prev, c in reversed(node.saved):
            np.multiply(k_mat, r[:, None], out=rk)
            # column step: its softmax is diag(r) K diag(c)
            a = ones_r.dot(g)
            a *= c
            g -= np.multiply(rk, a, out=t)
            # row step: its softmax is diag(r) K diag(c_prev)
            np.multiply(rk, c_prev, out=t)
            t *= g.dot(ones_c)[:, None]
            g -= t
        g /= tau
        return (g,)

    return ad._record("sinkhorn", (m,), p, bw, saved)


_MAX_PROFIT = 1e300


def hungarian(profit) -> PermutationMatrix:
    """Exact maximum-profit assignment in O(n^3).

    Shortest-augmenting-path algorithm with potentials on ``cost = -profit``.
    The returned permutation maximizes the total profit picked up by its
    matrix form, ``sum_i profit[perm[i], i]`` (transposing the profit matrix
    yields the row-indexed formulation with the same optimal value).

    Rows are added one at a time. Among equal reduced costs the search takes
    the lowest column index, so ties always resolve the same way. A row's
    first scan is ``cost - v``: its potential ``u`` is still 0 when it
    starts, since only finished rows' potentials move, so that scan is the
    later scans' ``((0 + cost) - u) - v`` up to the sign of a zero. A row
    whose cheapest reduced column is still free takes it at once, with no
    search.
    Otherwise the search's k-th scan writes its reduced row into row k of an
    (n, n) buffer allocated once per call, masking a scanned column with +inf
    rather than dropping it, and keeps each column's tentative distance as a
    running ``np.minimum``. A column's predecessor on the augmenting path is
    the row of the first scan that reached that column's minimum, which is
    what a strict ``<`` update records. ``np.minimum`` may keep -0.0 where
    such an update keeps +0.0, so the potentials can differ from it in the
    sign of a zero. The solver only adds, subtracts, takes minima and
    compares, so a zero's sign never changes a comparison's outcome, and the
    permutation cannot differ.

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
    cost_rows = list(cost)
    u = np.zeros(n)
    v = np.zeros(n)
    col4row = [-1] * n
    row4col = [-1] * n
    scans = np.empty((n, n))  # row k: the k-th scan's reduced costs; a search scans at most n rows
    todo = np.empty(n)  # tentative distances; +inf once a column is scanned
    v_open = np.empty(n)  # v, with -inf at scanned columns so their reduced cost is +inf
    for cur_row in range(n):
        # the first scan: u[cur_row] is still 0 (see the docstring)
        reduced = np.subtract(cost_rows[cur_row], v, out=scans[0])
        j = int(reduced.argmin())
        min_val = reduced[j]
        if row4col[j] == -1:  # free: the update after the search would leave v[j] as it is
            u[cur_row] += min_val
            row4col[j] = cur_row
            col4row[cur_row] = j
            continue
        todo[:] = reduced
        v_open[:] = v
        rows, cols, settled = [cur_row], [], []  # scanned rows; scanned columns and their distances
        while True:
            settled.append(min_val)
            todo[j] = np.inf
            v_open[j] = -np.inf
            cols.append(j)
            i = row4col[j]
            if i == -1:
                break
            reduced = np.add(min_val, cost_rows[i], out=scans[len(rows)])
            rows.append(i)
            reduced -= u[i]
            reduced -= v_open
            np.minimum(todo, reduced, out=todo)
            j = int(todo.argmin())
            min_val = todo[j]
        # row rows[k] (k >= 1) was matched to column cols[k - 1]
        u[cur_row] += min_val
        settled = np.array(settled)
        u[rows[1:]] += min_val - settled[:-1]
        v[cols] -= min_val - settled
        while True:
            i = rows[int(scans[: len(rows), j].argmin())]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
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
    ``"softsort"`` node with its own adjoint; a draw records the same node
    on its unperturbed scores (see :func:`sample_permutation`). An empty
    score vector gives an empty (0, 0) output.
    """
    check_scale("tau", tau, ParameterError)
    if not isinstance(s, Tensor):
        s = np.asarray(s, dtype=np.float64)
        s = Tensor(s.reshape(-1, 1) if s.ndim == 1 else s)
    if s.value.ndim != 2 or s.value.shape[1] != 1:
        raise ad.DimensionError(f"softsort: scores must be an (n, 1) column, got shape {s.value.shape}")
    return _softsort(s, s.value, tau)


def _softsort(s: Tensor, v: np.ndarray, tau: float) -> Tensor:
    """:func:`softsort` of the (n, 1) column ``v``, recorded on ``s``; ``v``
    is ``s.value`` or ``s.value`` plus a constant, so the adjoints agree."""
    order = np.argsort(-v.ravel(), kind="stable")
    diff = v[order] - v.T  # row i: the i-th largest score minus every score
    x = np.abs(diff) * (-1.0 / tau)
    e = np.exp(x - x.max(axis=1, keepdims=True, initial=-np.inf))
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

    Under a tape the draw records one ``"sinkhorn"`` or ``"softsort"`` node
    on ``params.scores``, whose value is computed from ``scores + Gumbel``:
    the noise is a constant, so no node is recorded for adding it.
    """
    x = _perturbed_scores(params, noise)
    if params.mode == SINKHORN:
        soft = _sinkhorn(params.scores, x, params.sinkhorn_iters, params.temperature)
        return hungarian(soft.value), soft
    return _rank_permutation(x), _softsort(params.scores, x, params.temperature)


def _perturbed_scores(params: PermutationParams, noise: GumbelSource | None) -> np.ndarray:
    """``scores + Gumbel``, or the scores themselves without noise: the
    relaxation's input, read-only."""
    if noise is None:
        return params.scores.value
    return params.scores.value + noise.gumbel(params.scores.value.shape)


def _hard_permutation(params: PermutationParams, noise: GumbelSource | None = None) -> PermutationMatrix:
    """The hard draw of :func:`sample_permutation` alone: the same noise and
    arithmetic, no soft output and no tape node."""
    x = _perturbed_scores(params, noise)
    if params.mode == SINKHORN:
        return hungarian(sinkhorn_operator(x, iters=params.sinkhorn_iters, tau=params.temperature).value)
    return _rank_permutation(x)
