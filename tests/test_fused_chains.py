"""The taped DAG draw, the KL term and the loss against the op chains they
replaced.

``sample_dag_parts`` records one relaxation node (``"sinkhorn"`` or
``"softsort"``, with the score noise inside its value), one ``"edges"``, one
``"order-mask"`` and one ``"dag"`` node, ``_kl_term`` one ``"kl"`` node and
``_loss`` one ``"loss"`` node. Their adjoints replay the arithmetic of the
test-local op chains below, in the same order, so the loss and every
gradient must match the chains bit for bit.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import add, matmul, mul, squared_norm, sub, transpose, tsum
from diffdag import autodiff as ad
from diffdag.autodiff import Tape, Tensor
from diffdag.graphs import strict_upper_mask
from diffdag.graphs import PermutationMatrix
from diffdag.gumbel import (
    _U_EPS,
    SINKHORN,
    TOPK,
    EdgeParams,
    GumbelSource,
    PermutationParams,
    hungarian,
    sample_permutation,
    sinkhorn_operator,
    softsort,
)
from diffdag.model import DpDagModel, _order_mask, sample_dag_parts
from diffdag.training import _kl_term, _loss


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


def _reference_permutation(params, noise):
    """The 2-node relaxation: ``add`` of the score noise, then the public
    operator on its output; the hard draw as before."""
    scores = params.scores
    if noise is not None:
        scores = add(scores, Tensor(noise.gumbel(scores.value.shape)))
    if params.mode == SINKHORN:
        soft = sinkhorn_operator(scores, iters=params.sinkhorn_iters, tau=params.temperature)
        return hungarian(soft.value), soft
    order = np.argsort(-scores.value.ravel(), kind="stable")
    ranks = np.empty(params.n, dtype=np.int64)
    ranks[order] = np.arange(params.n)
    return PermutationMatrix(ranks), softsort(scores, tau=params.temperature)


def _logistic_noise(noise, shape):
    """``log(u) - log1p(-u)`` from the source's next clamped uniforms."""
    u = np.clip(noise._gen.random(shape), _U_EPS, 1.0 - _U_EPS)
    return np.log(u) - np.log1p(-u)


def _reference_draw(model, noise, relaxed):
    """The 11-node draw: score noise, the relaxation, edge noise, 1/tau,
    sigmoid, P^T M P as transpose and two matmuls, E * mask, and two
    straight-through substitutions."""
    n = model.n
    p_hard, p_soft = _reference_permutation(model.perm_params, noise)
    z = model.edge_params.logits
    if noise is not None:
        z = add(z, Tensor(_logistic_noise(noise, (n, n))))
    v = mul(z, Tensor(1.0 / model.edge_params.temperature))
    e_hard, e_soft = (z.value > 0).astype(np.float64), _sigmoid(v)
    hard_mask = _order_mask(p_hard.perm)
    hard_entries = e_hard * hard_mask
    soft_mask = matmul(matmul(transpose(p_soft), Tensor(strict_upper_mask(n))), p_soft)
    soft_adj = mul(e_soft, soft_mask)
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
    kl = sub(
        mul(s, sub(logits, logit_prior)),
        add(_softplus(logits), Tensor(math.log1p(-prior_p))),
    )
    saturated = s.value == 1.0
    kl = add(mul(kl, Tensor(np.where(saturated, 0.0, 1.0))), Tensor(np.where(saturated, -math.log(prior_p), 0.0)))
    return tsum(mul(kl, mask))


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
        loss = add(tsum(mul(adj, Tensor(readout))), mul(kl(model, kl_mask, 0.05), Tensor(0.7)))
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


class TestNoiseInsideTheRelaxation:
    @settings(max_examples=150, deadline=None)
    @given(model=_models(), seed=st.none() | st.integers(0, 2**32 - 1))
    def test_value_and_gradient_bit_identical(self, model, seed):
        params = model.perm_params
        readout = np.random.default_rng(0 if seed is None else seed).normal(size=(model.n, model.n))
        runs = []
        for draw in (sample_permutation, _reference_permutation):
            params.scores.zero_grad()
            with Tape() as tape:
                hard, soft = draw(params, None if seed is None else GumbelSource(seed))
                loss = tsum(mul(soft, Tensor(readout)))
            tape.backward(loss)
            runs.append((hard.perm, soft.value, params.scores.grad.copy(), [node.kind for node in tape.nodes]))
        (*fused, kinds), (*reference, reference_kinds) = runs
        for got, want in zip(fused, reference):
            np.testing.assert_array_equal(got, want)
        relaxation = "sinkhorn" if params.mode == SINKHORN else "softsort"
        readout_kinds = ["elementwise-mul", "sum"]
        assert kinds == [relaxation] + readout_kinds
        assert reference_kinds == ([] if seed is None else ["add"]) + [relaxation] + readout_kinds


def _reference_loss(a, b, scale, penalty, lam):
    """The 3- or 5-node loss: sub, squared norm and a scalar product, then a
    scalar product and an add for the penalty."""
    loss = mul(squared_norm(sub(a, b)), Tensor(scale))
    if penalty is not None:
        loss = add(loss, mul(penalty, Tensor(lam)))
    return loss


class TestLossNode:
    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
        seed=st.integers(0, 2**32 - 1),
        grads=st.sampled_from([(True, False), (False, True), (True, True)]),
        transposed=st.booleans(),
        scale=st.floats(1e-3, 10.0),
        penalty=st.none() | st.floats(-50.0, 50.0),
        lam=st.floats(0.0, 0.1),
        weight=st.floats(0.1, 10.0),
    )
    def test_value_and_gradients_bit_identical(self, shape, seed, grads, transposed, scale, penalty, lam, weight):
        rng = np.random.default_rng(seed)
        a_val, b_val = rng.normal(size=shape), rng.normal(size=shape[::-1]).T.copy()
        if transposed:  # a Fortran-ordered operand, as the mechanisms' output is
            b_val = np.asfortranarray(b_val)
        runs = []
        for loss_fn in (_loss, _reference_loss):
            a = Tensor(a_val, requires_grad=grads[0])
            b = Tensor(b_val, requires_grad=grads[1])
            p = Tensor(0.0 if penalty is None else penalty, requires_grad=True)
            leaves = [t for t in (a, b) if t.requires_grad] + ([] if penalty is None else [p])
            with Tape() as tape:
                # the penalty is a node's output, as the KL term is
                pen = None if penalty is None else tsum(mul(p, Tensor(1.0)))
                # a weight downstream, so the loss's incoming gradient is not 1
                loss = mul(loss_fn(a, b, scale, pen, lam), Tensor(weight))
            tape.backward(loss)
            runs.append([loss.value] + [t.grad for t in leaves])
        fused, reference = runs
        assert len(fused) == len(reference)
        for got, want in zip(fused, reference):
            assert np.shape(got) == np.shape(want)
            np.testing.assert_array_equal(got, want)

    def test_node_kinds(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        with Tape() as tape:
            _loss(a, Tensor(np.zeros((2, 3))), 0.5)
            _loss(a, Tensor(np.zeros((2, 3))), 0.5, Tensor(1.0, requires_grad=True), 0.1)
        assert [node.kind for node in tape.nodes] == ["loss", "loss"]
