"""The law of the topk DAG sampler against its exact distribution.

In topk mode the hard order is the descending argsort of ``scores +
Gumbel``, so by the Gumbel-max trick it is Plackett-Luce over
``exp(scores)``. Each pair the order allows is an edge when ``logit + L > 0``
for Logistic(0, 1) noise ``L``, which is Bernoulli(sigmoid(logit)) at any
temperature. At n = 3 that gives the probability of each of the 25 DAGs in
closed form, and a chi-square test compares the value-only draws with it.

A wrong sign on the score noise, or a temperature that reaches the hard edge
rule at all, changes the law and fails these tests: the rule is the sign of
``logit + L``, and a rule that rounds ``sigmoid((logit + L) / tau)`` instead
turns edges off once ``tau`` is near 1e16. A sign flip of the edge noise
does not: the logistic law is symmetric, so no test of the law can see it.

Sinkhorn mode has no closed form, so its tests check the law's symmetries.
The score matrix's rows index positions and its columns nodes (the hard
permutation puts node v at row ``perm[v]``), and the noise is iid per cell.
So at zero scores every order is equally likely, and relabelling the nodes,
which permutes the score matrix's columns and the logits' rows and columns
by the same map, relabels the DAG frequencies by that map. (Permuting the
rows as well would relabel the positions too, which conjugates the order
rather than relabelling the DAG.) Score noise of one value per row instead
of per cell fails the first test; a solver that returns the inverse
permutation, or a Sinkhorn output transposed, fails the second. A solver that breaks ties toward the last column fails
neither: with continuous noise the best assignment is unique, so no test
of the law can see its tie rule.
"""

import contextlib
import itertools

import numpy as np
import pytest

from diffdag.autodiff import Tape
from diffdag.gumbel import SINKHORN, TOPK, EdgeParams, GumbelSource, PermutationParams, _hard_edges, _hard_permutation
from diffdag.model import DpDagModel, sample_dag

N = 3
SCORES = np.array([0.9, -0.3, -0.8])
LOGITS = np.array([[0.0, 1.2, -0.8], [0.5, 0.0, -1.5], [1.0, -0.4, 0.0]])
CELLS = [(i, j) for i in range(N) for j in range(N) if i != j]
DRAWS = 20_000
# the 99.99th percentile of chi-square on 24 degrees of freedom is about 55.5;
# the smallest expected cell count at DRAWS is 32
CHI2_BOUND = 60.0


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _plackett_luce(scores):
    """P(order) for every order, first the highest-ranked node."""
    w = np.exp(scores)
    out = {}
    for order in itertools.permutations(range(len(scores))):
        p, rest = 1.0, w.sum()
        for v in order:
            p *= w[v] / rest
            rest -= w[v]
        out[order] = p
    return out


def _key(entries):
    return sum(1 << k for k, (i, j) in enumerate(CELLS) if entries[i, j])


def _dag_pmf(scores, logits):
    """P(A), keyed by ``_key(A)``: the sum over orders of PL(order) times
    independent Bernoulli(sigmoid(logit)) terms on the pairs it allows."""
    pmf = {}
    for order, p_order in _plackett_luce(scores).items():
        rank = {v: r for r, v in enumerate(order)}
        allowed = [(i, j) for i, j in CELLS if rank[i] < rank[j]]
        for bits in itertools.product((0, 1), repeat=len(allowed)):
            p = p_order
            a = np.zeros((N, N), dtype=bool)
            for (i, j), b in zip(allowed, bits):
                q = _sigmoid(logits[i, j])
                p *= q if b else 1.0 - q
                a[i, j] = b
            k = _key(a)
            pmf[k] = pmf.get(k, 0.0) + p
    return pmf


def test_the_enumerated_law_covers_every_dag():
    pmf = _dag_pmf(SCORES, LOGITS)
    assert len(pmf) == 25 and abs(sum(pmf.values()) - 1.0) < 1e-12


@pytest.mark.parametrize("tau", [0.5, 2.0])
def test_topk_dag_law_at_n3(tau):
    model = DpDagModel(
        n=N,
        edge_params=EdgeParams(n=N, logits=LOGITS, temperature=tau),
        perm_params=PermutationParams(n=N, mode=TOPK, scores=SCORES, temperature=tau),
    )
    noise = GumbelSource(101)
    counts = {}
    for _ in range(DRAWS):  # no tape: value-only draws
        k = _key(sample_dag(model, noise)[0].entries)
        counts[k] = counts.get(k, 0) + 1
    pmf = _dag_pmf(SCORES, LOGITS)
    assert set(counts) <= set(pmf), "a draw outside the 25 DAGs"
    chi2 = sum((counts.get(k, 0) - DRAWS * p) ** 2 / (DRAWS * p) for k, p in pmf.items())
    assert chi2 < CHI2_BOUND, f"chi2 = {chi2:.1f} on 24 degrees of freedom at tau = {tau}"


@pytest.mark.parametrize("tau", [0.3, 1.0, 3.0, 1e16, 1e17])
def test_edge_marginals_are_sigmoid_of_the_logits(tau):
    n, draws = 40, 25
    logits = np.where(np.indices((n, n)).sum(axis=0) % 2 == 0, 2.0, -2.0)
    params = EdgeParams(n=n, logits=logits, temperature=tau)
    noise = GumbelSource(202)
    on = sum(_hard_edges(params, noise).astype(np.int64) for _ in range(draws))
    for logit in (2.0, -2.0):
        p, trials = _sigmoid(logit), draws * int((logits == logit).sum())
        freq = on[logits == logit].sum() / trials
        z = (freq - p) / np.sqrt(p * (1.0 - p) / trials)
        assert abs(z) < 4.5, f"logit {logit}, tau {tau}: frequency {freq:.4f} against {p:.4f} (z = {z:.1f})"


@pytest.mark.parametrize("mode", [SINKHORN, TOPK])
@pytest.mark.parametrize("taped", [False, True])
def test_zero_logit_dags_keep_half_the_allowed_pairs_at_any_temperature(mode, taped):
    n = 100
    model = DpDagModel.create(n, perm_mode=mode, temperature=1e17)
    allowed = n * (n - 1) // 2
    with Tape() if taped else contextlib.nullcontext():
        edges = sample_dag(model, GumbelSource(404))[0].edge_count()
    z = (edges - allowed / 2) / np.sqrt(allowed / 4)
    assert abs(z) < 4.5, f"{edges} edges of {allowed} allowed pairs (z = {z:.1f})"


# the 99.99th percentile of chi-square on 5 degrees of freedom is about 25.7
SINKHORN_DRAWS = 2000
UNIFORM_BOUND = 27.0


def test_sinkhorn_order_is_uniform_at_zero_scores():
    params = PermutationParams(n=N, mode=SINKHORN)
    noise = GumbelSource(303)
    counts = {}
    for _ in range(SINKHORN_DRAWS):
        k = tuple(_hard_permutation(params, noise).perm.tolist())
        counts[k] = counts.get(k, 0) + 1
    expect = SINKHORN_DRAWS / 6
    chi2 = sum((counts.get(k, 0) - expect) ** 2 / expect for k in itertools.permutations(range(N)))
    assert len(counts) <= 6 and chi2 < UNIFORM_BOUND, f"chi2 = {chi2:.1f} on 5 degrees of freedom: {counts}"


def _sinkhorn_dags(scores, logits, seed):
    model = DpDagModel(
        n=N,
        edge_params=EdgeParams(n=N, logits=logits),
        perm_params=PermutationParams(n=N, mode=SINKHORN, scores=scores),
    )
    noise = GumbelSource(seed)
    return [sample_dag(model, noise)[0].entries for _ in range(SINKHORN_DRAWS)]


def test_relabelling_the_nodes_relabels_the_sinkhorn_dag_law():
    # node v of the relabelled model is node sigma[v] of the original: a
    # 3-cycle, so a map confused with its inverse shows
    sigma = np.array([1, 2, 0])
    scores = np.array([[1.2, -0.4, 0.3], [-0.9, 0.8, 0.1], [0.5, -1.1, -0.2]])
    original = _sinkhorn_dags(scores, LOGITS, 404)
    relabelled = _sinkhorn_dags(scores[:, sigma], LOGITS[np.ix_(sigma, sigma)], 505)
    a, b = {}, {}
    for entries in original:
        k = _key(entries[np.ix_(sigma, sigma)])
        a[k] = a.get(k, 0) + 1
    for entries in relabelled:
        b[_key(entries)] = b.get(_key(entries), 0) + 1
    # two equal samples: sum (a - b)^2 / (a + b) is chi-square on one fewer
    # degrees of freedom than there are cells, at most 24
    chi2 = sum((a.get(k, 0) - b.get(k, 0)) ** 2 / (a.get(k, 0) + b.get(k, 0)) for k in set(a) | set(b))
    assert chi2 < CHI2_BOUND, f"chi2 = {chi2:.1f} over {len(set(a) | set(b))} cells"
