"""The taped DAG draw and the KL term against the op chains they replaced.

``sample_dag_parts`` records one ``"edges"``, one ``"order-mask"`` and one
``"dag"`` node, and ``_kl_term`` one ``"kl"`` node. Their adjoints replay the
arithmetic of the generic op chains below, in the same order, so the loss
and every gradient must match the chains bit for bit.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import matmul, transpose, tsum
from diffdag import autodiff as ad
from diffdag.autodiff import Tape, Tensor
from diffdag.graphs import strict_upper_mask
from diffdag.gumbel import SINKHORN, TOPK, EdgeParams, GumbelSource, PermutationParams, _edge_rule, sample_permutation
from diffdag.model import DpDagModel, _order_mask, sample_dag_parts
from diffdag.training import _kl_term


def _sigmoid(x):
    v = x.value
    e = np.exp(-np.abs(v))
    s = np.where(v >= 0, 1.0, e) / (1.0 + e)
    return ad._record("sigmoid", (x,), s, lambda g, node: (g * node.saved * (1.0 - node.saved),), s)


def _softplus(x):
    v = x.value
    e = np.exp(-np.abs(v))

    def bw(g, node):
        v, e = node.saved
        return (g * np.where(v >= 0, 1.0, e) / (1.0 + e),)

    return ad._record("softplus", (x,), np.maximum(v, 0.0) + np.log1p(e), bw, (v, e))


def _straight_through(hard, soft):
    return ad._record("straight-through", (soft,), np.asarray(hard, dtype=np.float64), lambda g, node: (g,))


def _reference_draw(model, noise, relaxed):
    """The 11-node draw: score noise, the relaxation, edge noise, 1/tau,
    sigmoid, P^T M P as transpose and two matmuls, E * mask, and two
    straight-through substitutions."""
    n = model.n
    p_hard, p_soft = sample_permutation(model.perm_params, noise)
    z = model.edge_params.logits
    if noise is not None:
        z = ad.add(z, Tensor(noise.gumbel((n, n)) - noise.gumbel((n, n))))
    v = ad.mul(z, Tensor(1.0 / model.edge_params.temperature))
    e_hard, e_soft = _edge_rule(v.value).astype(np.float64), _sigmoid(v)
    hard_mask = _order_mask(p_hard.perm)
    hard_entries = e_hard * hard_mask
    soft_mask = matmul(matmul(transpose(p_soft), Tensor(strict_upper_mask(n))), p_soft)
    soft_adj = ad.mul(e_soft, soft_mask)
    if relaxed:
        return soft_adj, soft_mask
    return _straight_through(hard_entries, soft_adj), _straight_through(hard_mask, soft_mask)


def _reference_kl(model, mask, prior_p):
    """The 8-node KL term: sigmoid, sub, mul, softplus, add, sub, mul, sum.

    An entry whose sigmoid rounds to 1 is then set to its limit -log(prior_p),
    as ``_kl_term`` sets it; multiplying the others by 1 and adding 0 keeps
    their bits and their gradient.
    """
    logits = model.edge_params.logits
    logit_prior = Tensor(math.log(prior_p) - math.log1p(-prior_p))
    s = _sigmoid(logits)
    kl = ad.sub(
        ad.mul(s, ad.sub(logits, logit_prior)),
        ad.add(_softplus(logits), Tensor(math.log1p(-prior_p))),
    )
    saturated = s.value == 1.0
    kl = ad.add(ad.mul(kl, Tensor(np.where(saturated, 0.0, 1.0))), Tensor(np.where(saturated, -math.log(prior_p), 0.0)))
    return tsum(ad.mul(kl, mask))


@st.composite
def _models(draw):
    n = draw(st.integers(1, 8))
    mode = draw(st.sampled_from([SINKHORN, TOPK]))
    tau = draw(st.floats(0.05, 5.0))
    values = st.floats(-60.0, 60.0)
    logits = draw(arrays(np.float64, (n, n), elements=values))
    scores = draw(arrays(np.float64, (n, n) if mode == SINKHORN else (n,), elements=values))
    return DpDagModel(
        n=n,
        edge_params=EdgeParams(n=n, logits=logits, temperature=tau),
        perm_params=PermutationParams(n=n, mode=mode, scores=scores, temperature=tau, sinkhorn_iters=8),
    )


def _run(model, draw, kl, seed, relaxed, mask_kind, readout):
    """Loss = readout . A + 0.7 * KL; its value, the draw's two values and
    both parameter gradients."""
    params = model.parameters()
    for p in params:
        p.zero_grad()
    noise = None if seed is None else GumbelSource(seed)
    with Tape() as tape:
        adj, mask = draw(model, noise, relaxed)
        kl_mask = mask if mask_kind == "taped" else Tensor(readout > 0)
        loss = ad.add(tsum(ad.mul(adj, Tensor(readout))), ad.mul(kl(model, kl_mask, 0.05), Tensor(0.7)))
    tape.backward(loss)
    return [loss.value, adj.value, mask.value] + [p.grad.copy() for p in params]


def _fused_draw(model, noise, relaxed):
    s = sample_dag_parts(model, noise, relaxed=relaxed)
    return s.soft, s.mask


class TestFusedNodesMatchTheChains:
    @settings(max_examples=150, deadline=None)
    @given(
        model=_models(),
        seed=st.none() | st.integers(0, 2**32 - 1),
        relaxed=st.booleans(),
        mask_kind=st.sampled_from(["taped", "constant"]),
    )
    def test_value_and_gradients_bit_identical(self, model, seed, relaxed, mask_kind):
        readout = np.random.default_rng(0 if seed is None else seed).normal(size=(model.n, model.n))
        fused = _run(model, _fused_draw, _kl_term, seed, relaxed, mask_kind, readout)
        reference = _run(model, _reference_draw, _reference_kl, seed, relaxed, mask_kind, readout)
        for got, want in zip(fused, reference):
            np.testing.assert_array_equal(got, want)
