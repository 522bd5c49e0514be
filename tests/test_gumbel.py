import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import assert_grads_close, matmul, mul, sub, transpose, tsum
from diffdag import autodiff as ad
from diffdag.autodiff import Tape, Tensor
from diffdag.graphs import PermutationMatrix, compose, is_acyclic, UpperTriangularEdges
from diffdag.gumbel import (
    _U_EPS,
    SINKHORN,
    TOPK,
    EdgeParams,
    GumbelSource,
    ParameterError,
    PermutationParams,
    _hard_edges,
    _sigmoid_np,
    _sums_near_one,
    hungarian,
    sample_edges,
    sample_permutation,
    sinkhorn_operator,
    softsort,
)


class TestGumbelSource:
    def test_reproducible(self):
        a = GumbelSource(42).gumbel((3, 3))
        b = GumbelSource(42).gumbel((3, 3))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("shape", [1, 7, (3, 3), (10, 10), (200, 200)])
    def test_clamp_equals_np_clip(self, shape):
        for seed in (0, 1, 7919):
            u = np.random.Generator(np.random.Philox(seed)).random(shape)
            want = -np.log(-np.log(np.clip(u, _U_EPS, 1.0 - _U_EPS)))
            assert np.array_equal(GumbelSource(seed).gumbel(shape), want)

    def test_clamp_at_the_uniforms_ends(self):
        # random() returns values in [0, 1 - 2**-53]; both ends are clamped
        u = np.array([0.0, 1e-300, _U_EPS, 0.5, 1.0 - _U_EPS, 1.0 - 2.0**-53])
        source = GumbelSource(0)
        source._gen = type("Fixed", (), {"random": lambda self, shape: u.copy().reshape(shape)})()
        want = -np.log(-np.log(np.clip(u, _U_EPS, 1.0 - _U_EPS)))
        got = source.gumbel(u.shape)
        assert np.array_equal(got, want) and np.isfinite(got).all()
        assert got[0] == got[1] == got[2] and got[-1] == got[-2]

    def test_distribution_moments(self):
        g = GumbelSource(0).gumbel(200_000)
        # standard Gumbel: mean = Euler-Mascheroni, var = pi^2/6
        assert abs(g.mean() - 0.5772) < 0.01
        assert abs(g.var() - np.pi**2 / 6) < 0.02
        assert np.isfinite(g).all()


class TestLogisticNoise:
    def test_reproducible(self):
        np.testing.assert_array_equal(GumbelSource(42).logistic((3, 3)), GumbelSource(42).logistic((3, 3)))
        assert not np.array_equal(GumbelSource(42).logistic((3, 3)), GumbelSource(43).logistic((3, 3)))

    @pytest.mark.parametrize("shape", [1, 7, (3, 3), (200, 200)])
    def test_one_clamped_uniform_per_value(self, shape):
        for seed in (0, 1, 7919):
            u = np.clip(np.random.Generator(np.random.Philox(seed)).random(shape), _U_EPS, 1.0 - _U_EPS)
            assert np.array_equal(GumbelSource(seed).logistic(shape), np.log(u) - np.log1p(-u))

    def test_clamp_at_the_uniforms_ends(self):
        u = np.array([0.0, 1e-300, _U_EPS, 0.5, 1.0 - _U_EPS, 1.0 - 2.0**-53])
        source = GumbelSource(0)
        source._gen = type("Fixed", (), {"random": lambda self, shape: u.copy().reshape(shape)})()
        got = source.logistic(u.shape)
        assert np.isfinite(got).all() and np.abs(got).max() <= 27.64
        assert got[0] == got[1] == got[2] < -27.6 and got[-1] == got[-2] > 27.6 and got[3] == 0.0

    def test_distribution_moments(self):
        g = GumbelSource(0).logistic(400_000)
        # standard logistic: mean 0, var = pi^2/3 (sd of the variance estimate ~0.011)
        assert abs(g.mean()) < 0.01
        assert abs(g.var() - np.pi**2 / 3) < 0.05
        assert np.isfinite(g).all()


class TestSampleEdges:
    def test_zero_logits_deterministic(self):
        hard, soft = sample_edges(EdgeParams(n=3), noise=None)
        np.testing.assert_allclose(soft.value, 0.5)
        np.testing.assert_array_equal(hard, 0.0)  # 0.5 is not > 0.5

    def test_saturated_logits(self):
        hard, _ = sample_edges(EdgeParams(n=3, logits=np.full((3, 3), 10.0)), noise=None)
        np.testing.assert_array_equal(hard, 1.0)

    def test_zero_logit_fires_half_the_time(self):
        params = EdgeParams(n=25)
        noise = GumbelSource(7)
        total, count = 0.0, 0
        for _ in range(40):  # 25,000 pair draws
            hard, _ = sample_edges(params, noise)
            total += hard.sum()
            count += hard.size
        assert abs(total / count - 0.5) < 0.01

    def test_temperature_must_be_positive(self):
        with pytest.raises(ParameterError, match="temperature"):
            EdgeParams(n=2, temperature=0.0)

    # NaN fails every `tau <= 0` test, so it once passed all four boundaries
    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "build",
        [
            lambda tau: EdgeParams(n=3, temperature=tau),
            lambda tau: PermutationParams(n=3, mode=TOPK, temperature=tau),
            lambda tau: sinkhorn_operator(np.zeros((3, 3)), tau=tau),
            lambda tau: softsort(np.arange(3.0), tau=tau),
        ],
        ids=["edge-params", "permutation-params", "sinkhorn", "softsort"],
    )
    def test_temperature_must_be_finite_and_positive(self, build, tau):
        with pytest.raises(ParameterError, match="finite and positive"):
            build(tau)

    def test_noise_matches_logistic_form(self):
        # soft = sigmoid((logits + L) / tau), L = log(u) - log1p(-u) from one
        # clamped uniform per pair of the source's Philox stream
        params = EdgeParams(n=4, logits=np.linspace(-2, 2, 16).reshape(4, 4), temperature=0.7)
        _, soft = sample_edges(params, GumbelSource(5))
        u = np.clip(np.random.Generator(np.random.Philox(5)).random((4, 4)), _U_EPS, 1.0 - _U_EPS)
        expect = 1 / (1 + np.exp(-((params.logits.value + np.log(u) - np.log1p(-u)) / 0.7)))
        np.testing.assert_allclose(soft.value, expect, atol=1e-12)


# the smallest v whose sigmoid exceeds 1/2; between 0 and here it is exactly 1/2
_SIGMOID_CROSSING = 1.5612511283791264e-16


def _logistic_replay(seed, shape):
    """The logistic noise a fresh ``GumbelSource(seed)`` draws first."""
    u = np.clip(np.random.Generator(np.random.Philox(seed)).random(shape), _U_EPS, 1.0 - _U_EPS)
    return np.log(u) - np.log1p(-u)


class TestEdgeRule:
    @pytest.mark.parametrize("tau", [1.0, 1e-3, 1e17])
    def test_hard_is_the_sign_of_logits_plus_noise_on_the_band_and_beyond(self, tau):
        c, x = _SIGMOID_CROSSING, 1.56e-16
        special = [np.nextafter(0.0, 1.0), x, np.nextafter(x, 0.0), np.nextafter(x, 1.0)]
        special += [c, np.nextafter(c, 0.0), np.nextafter(c, 1.0), 1e-15, np.nextafter(1e-15, 1.0)]
        special += [0.0, -0.0, 1e300, -1e300, -np.nextafter(0.0, 1.0), 5e-324 * 2**40]
        v = np.concatenate([special, np.geomspace(1e-17, 1e-15, 4000), -np.geomspace(1e-17, 1e-15, 50)])
        logits = np.concatenate([v, np.zeros(64 * 64 - v.size)]).reshape(64, 64)
        params = EdgeParams(n=64, logits=logits, temperature=tau)
        noisy = logits + _logistic_replay(5, (64, 64))
        np.testing.assert_array_equal(sample_edges(params)[0], (logits > 0).astype(np.float64))
        np.testing.assert_array_equal(sample_edges(params, GumbelSource(5))[0], (noisy > 0).astype(np.float64))
        np.testing.assert_array_equal(_hard_edges(params), logits > 0)
        np.testing.assert_array_equal(_hard_edges(params, GumbelSource(5)), noisy > 0)
        # below the crossing at tau = 1 the edge is on though its sigmoid rounds to 1/2
        hard, soft = sample_edges(EdgeParams(n=1, logits=[[np.nextafter(c, 0.0)]]))
        assert hard[0, 0] == 1.0 and soft.value[0, 0] == 0.5

    def test_sigmoid_matches_the_two_branch_form(self, rng):
        special = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 745.0, -745.0, 800.0, -800.0, np.nan]
        v = np.concatenate([special, rng.normal(scale=40.0, size=2000), np.geomspace(1e-17, 1e-15, 50)])
        ref = np.empty_like(v)
        pos = v >= 0
        ref[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
        e = np.exp(v[~pos])
        ref[~pos] = e / (1.0 + e)
        np.testing.assert_array_equal(_sigmoid_np(v), ref)

    @pytest.mark.parametrize("tau", [1.0, 0.5, 3.0, 1e16, 1e17])
    def test_sample_edges_hard_is_its_soft_value_rounded_outside_the_band(self, rng, tau):
        # where |logits + L| > 1e-15 * tau, sigmoid((logits + L) / tau) cannot round to 1/2
        band = np.array([1e-16, 2e-16, 3e-16, 4e-16, _SIGMOID_CROSSING, 0.0, -0.0, 1e-300, -1e-16])
        wide = [1e-15, -1e-15, 2e-15, 1e-14]
        logits = np.concatenate([rng.normal(size=7), band, tau * rng.normal(size=7), tau * band, wide]).reshape(6, 6)
        params = EdgeParams(n=6, logits=logits, temperature=tau)
        for noise, z in ((None, logits), (GumbelSource(9), logits + _logistic_replay(9, (6, 6)))):
            hard, soft = sample_edges(params, noise)
            np.testing.assert_array_equal(hard, (z > 0).astype(np.float64))
            away = np.abs(z) > 1e-15 * tau
            assert away.sum() >= 7
            np.testing.assert_array_equal(hard[away], (soft.value[away] > 0.5).astype(np.float64))


class TestSinkhorn:
    def test_dominant_diagonal(self):
        out = sinkhorn_operator(1e3 * np.eye(4), iters=20).value
        np.testing.assert_allclose(out, np.eye(4), atol=1e-6)

    def test_doubly_stochastic(self, rng):
        for n in (5, 20, 50):
            for _ in range(20):
                p = sinkhorn_operator(rng.uniform(-5, 5, (n, n))).value
                assert np.abs(p.sum(axis=1) - 1).max() <= 1e-4
                assert np.abs(p.sum(axis=0) - 1).max() <= 1e-4
                assert ((p > 0) & (p < 1)).all()

    def test_constant_input_uniform(self):
        out = sinkhorn_operator(np.full((5, 5), 3.0), iters=20).value
        np.testing.assert_allclose(out, 0.2, atol=1e-12)

    def test_gradient_flows(self, rng):
        m = Tensor(rng.uniform(-1, 1, (4, 4)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (4, 4)))
        assert_grads_close(lambda: tsum(mul(sinkhorn_operator(m, iters=8, tol=0.0), w)), [m], rtol=1e-4)


def _unrolled_sinkhorn(m, iters, tau, tol):
    """Reference: the same iteration unrolled on the tape, seven nodes a round."""

    def logsumexp_rows(x):
        mx = x.value.max(axis=1, keepdims=True)
        lse = mx + np.log(np.exp(x.value - mx).sum(axis=1, keepdims=True))
        return ad._record("logsumexp-rows", (x,), lse, lambda g, node: (g * np.exp(x.value - lse),))

    n_rows, n_cols = m.value.shape
    ones_row = Tensor(np.ones((1, n_cols)))
    ones_col = Tensor(np.ones((1, n_rows)))
    log_p = mul(m, Tensor(1.0 / tau))
    for _ in range(iters):
        log_p = sub(log_p, matmul(logsumexp_rows(log_p), ones_row))
        cols = transpose(log_p)
        cols = sub(cols, matmul(logsumexp_rows(cols), ones_col))
        log_p = transpose(cols)
        p = np.exp(log_p.value)
        dev = max(np.abs(p.sum(axis=1) - 1.0).max(), np.abs(p.sum(axis=0) - 1.0).max())
        if dev < tol:
            break
    e = np.exp(log_p.value)
    return ad._record("exp", (log_p,), e, lambda g, node: (g * e,))


def _sinkhorn_grad(op, m_value, w, **kw):
    m = Tensor(m_value, requires_grad=True)
    with Tape() as tape:
        loss = tsum(mul(op(m, **kw), Tensor(w)))
    tape.backward(loss)
    return m.grad


def _reference_sinkhorn(m, iters, tau, tol, cotangent):
    """Reference: the loop and adjoint with a fresh array for every step and
    both deviations tested each round. Returns the value and the adjoint of
    ``cotangent``."""

    def lse(a, axis):
        top = a.max(axis=axis, keepdims=True)
        return top + np.log(np.exp(a - top).sum(axis=axis, keepdims=True))

    saved = []
    log_p = m / tau
    for _ in range(iters):
        rows = log_p - lse(log_p, axis=1)
        log_p = rows - lse(rows, axis=0)
        p = np.exp(log_p)
        saved.append((rows, p))
        dev = max(np.abs(p.sum(axis=1) - 1.0).max(), np.abs(p.sum(axis=0) - 1.0).max())
        if dev < tol:
            break
    g = cotangent * p
    for rows_k, p_k in reversed(saved):
        g -= p_k * g.sum(axis=0, keepdims=True)
        g -= np.exp(rows_k) * g.sum(axis=1, keepdims=True)
    return p, g / tau


def _scaling_sinkhorn(m, iters, tau, tol, cotangent):
    """Reference: the scaling form, with a fresh array for every step and
    both deviations taken every round. Round 1 is the log-space step; later
    rounds set ``r = 1 / (K @ c)`` and ``c = 1 / (r @ K)``, and fold both
    into ``K`` once ``K @ c`` or ``r @ K`` has an entry below ``2**-200``.
    Returns the value, the adjoint of ``cotangent``, the (row, column)
    deviations each exit test saw and the rounds' ``(K, r, c_prev, c)``."""

    def lse(a, axis):
        top = a.max(axis=axis, keepdims=True)
        return top + np.log(np.exp(a - top).sum(axis=axis, keepdims=True))

    n_rows, n_cols = m.shape
    x = m / tau
    rows = x - lse(x, 1)
    col_lse = lse(rows, 0)
    k = np.exp(rows - col_lse)
    r, c = np.ones(n_rows), np.ones(n_cols)
    rounds, devs = [(k, r, np.exp(col_lse[0]), c)], []
    for _ in range(iters - 1):
        s = k @ c
        devs.append((np.abs(r * s - 1.0).max(), np.abs(c * (r @ k) - 1.0).max()))
        if max(devs[-1]) < tol:
            break
        r_next = 1.0 / s
        t = r_next @ k
        rounds.append((k, r_next, c, 1.0 / t))
        r, c = r_next, 1.0 / t
        if min(s.min(), t.min()) < 2.0**-200:
            k = r[:, None] * k * c
            r, c = np.ones(n_rows), np.ones(n_cols)
    p = r[:, None] * k * c
    g = cotangent * p
    for k, r, c_prev, c in reversed(rounds):
        rk = k * r[:, None]
        g = g - rk * ((np.ones(n_rows) @ g) * c)
        g = g - rk * c_prev * (g @ np.ones(n_cols))[:, None]
    return p, g / tau, devs, rounds


def _segments(saved):
    """The distinct K matrices of a node's rounds: one plus the absorptions."""
    return len({id(k) for k, *_ in saved})


def _near_doubly_stochastic_log(n, seed, spread):
    """``log`` of a random mixture of the uniform matrix and three
    permutation matrices (doubly stochastic), plus ``spread`` normal noise."""
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(4))
    p = np.full((n, n), w[0] / n)
    for wk in w[1:]:
        p[np.arange(n), rng.permutation(n)] += wk
    return np.log(p) + spread * rng.normal(size=(n, n))


class TestSinkhornOp:
    """The fused op against the unrolled loop it replaces."""

    @pytest.mark.parametrize("n", [3, 10, 30])
    def test_gradient_matches_unrolled_loop(self, n, rng):
        for tau in (0.5, 1.0):
            for tol in (0.0, 1e-6):
                m = rng.normal(scale=2.0, size=(n, n))
                w = rng.normal(size=(n, n))
                kw = dict(iters=20, tau=tau, tol=tol)
                got = _sinkhorn_grad(sinkhorn_operator, m, w, **kw)
                ref = _sinkhorn_grad(_unrolled_sinkhorn, m, w, **kw)
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), (tau, tol)

    @settings(max_examples=150, deadline=None)
    @given(
        unit=st.integers(1, 12).flatmap(
            lambda n: arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0))
        ),
        scale=st.sampled_from([1e-3, 1.0, 30.0, 1e4, 1e12]),
        tau=st.sampled_from([0.05, 1.0]),
        tol=st.sampled_from([0.0, 1e-14, 1e-6]),
        iters=st.sampled_from([1, 20]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_value_and_adjoint_equal_the_reference_bit_for_bit(self, unit, scale, tau, tol, iters, seed):
        m = scale * unit
        w = np.random.default_rng(seed).normal(size=m.shape)
        ref_value, ref_grad, _, _ = _scaling_sinkhorn(m, iters, tau, tol, w)
        kw = dict(iters=iters, tau=tau, tol=tol)
        assert np.array_equal(sinkhorn_operator(m, **kw).value, ref_value)
        with Tape() as tape:
            taped = sinkhorn_operator(Tensor(m, requires_grad=True), **kw)
        (node,) = tape.nodes
        assert np.array_equal(taped.value, ref_value)
        assert np.array_equal(node.backward_fn(w, node)[0], ref_grad)

    # Worst gaps seen over 3000 such inputs: values 8.9e-16 from the log-space
    # loop and 2.1e-14 from the unrolled one; adjoints 2.9e-16 and 1.2e-14 in
    # units of max|w| / tau
    @settings(max_examples=100, deadline=None)
    @given(
        unit=st.integers(1, 12).flatmap(
            lambda n: arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0))
        ),
        scale=st.sampled_from([1e-3, 1.0, 30.0, 1e4, 1e12]),
        tau=st.sampled_from([0.05, 1.0]),
        iters=st.sampled_from([1, 20]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_value_and_adjoint_stay_close_to_the_log_space_loop(self, unit, scale, tau, iters, seed):
        m = scale * unit
        w = np.random.default_rng(seed).normal(size=m.shape)
        kw = dict(iters=iters, tau=tau, tol=0.0)
        with Tape() as tape:
            value = sinkhorn_operator(Tensor(m, requires_grad=True), **kw).value
        (node,) = tape.nodes
        grad = node.backward_fn(w, node)[0]
        log_value, log_grad = _reference_sinkhorn(m, iters, tau, 0.0, w)
        with Tape():
            unrolled_value = _unrolled_sinkhorn(Tensor(m, requires_grad=True), **kw).value
        unrolled_grad = _sinkhorn_grad(_unrolled_sinkhorn, m, w, **kw)
        grad_unit = np.abs(w).max() / tau
        for ref_value, ref_grad in ((log_value, log_grad), (unrolled_value, unrolled_grad)):
            assert np.abs(value - ref_value).max() <= 1e-13
            assert np.abs(grad - ref_grad).max() <= 1e-12 * grad_unit

    def test_columns_hold_the_exit_until_they_pass(self):
        # near-uniform scores converge to an ulp, where a round's row sums
        # r * (K @ c) can all be exactly 1 while a column sum c * (r @ K) is
        # an ulp off: a tol between the two must keep iterating
        m = 0.01 * np.random.default_rng(7).normal(size=(12, 12))
        kw = dict(iters=40, tau=1.0, tol=1e-16)
        ref_value, _, devs, _ = _scaling_sinkhorn(m, cotangent=np.ones_like(m), **kw)
        held = [k for k, (row_dev, col_dev) in enumerate(devs) if row_dev < kw["tol"] <= col_dev]
        assert held and len(devs) == kw["iters"] - 1
        with Tape() as tape:
            sinkhorn_operator(Tensor(m, requires_grad=True), **kw)
        (node,) = tape.nodes
        assert len(node.saved) == kw["iters"]
        assert np.array_equal(node.output.value, ref_value)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        spread=st.sampled_from([0.0, 1e-8, 1e-4, 1e-2, 0.3, 3.0]),
        tau=st.sampled_from([0.5, 1.0]),
        tol=st.sampled_from([1e-3, 1e-2, 0.5]),
        iters=st.integers(1, 200),
    )
    def test_early_exits_equal_the_reference_bit_for_bit(self, n, seed, spread, tau, tol, iters):
        # near-doubly-stochastic inputs pass the exit test at varied rounds
        m = _near_doubly_stochastic_log(n, seed, spread)
        w = np.random.default_rng(seed).normal(size=m.shape)
        ref_value, ref_grad, _, _ = _scaling_sinkhorn(m, iters, tau, tol, w)
        kw = dict(iters=iters, tau=tau, tol=tol)
        assert np.array_equal(sinkhorn_operator(m, **kw).value, ref_value)
        with Tape() as tape:
            taped = sinkhorn_operator(Tensor(m, requires_grad=True), **kw)
        (node,) = tape.nodes
        assert np.array_equal(taped.value, ref_value)
        assert np.array_equal(node.backward_fn(w, node)[0], ref_grad)

    @pytest.mark.parametrize("tol", [1e-6, 0.5, 0.0])
    @pytest.mark.parametrize("row_0_inside", [True, False])
    def test_the_exit_test_takes_every_row_bit_for_bit(self, row_0_inside, tol):
        # two independent diagonal blocks (exp(-800) is 0): a lone row 0 sums
        # to 1 from the start, while slow's rows stay far from 1 for 14-24
        # rounds and a constant block's rows sum to 1 from the start
        slow = [[0.0, 0.0, 0.0], [0.0, -20.0, -20.0], [0.0, -20.0, -20.0]]
        first, second = ([[0.0]], slow) if row_0_inside else (slow, np.zeros((4, 4)))
        k = len(first)
        m = np.full((k + len(second),) * 2, -800.0)
        m[:k, :k], m[k:, k:] = first, second
        w = np.random.default_rng(5).normal(size=m.shape)
        ref_value, ref_grad, _, _ = _scaling_sinkhorn(m, 60, 1.0, tol, w)
        if tol:  # round 1's row sums lie on both sides of tol
            p1, _, _, _ = _scaling_sinkhorn(m, 1, 1.0, 0.0, w)
            inside = np.abs(p1.sum(axis=1) - 1.0) < tol
            assert inside[0] == row_0_inside and (inside[1:] != inside[0]).any()
        assert np.array_equal(sinkhorn_operator(m, iters=60, tol=tol).value, ref_value)
        with Tape() as tape:
            taped = sinkhorn_operator(Tensor(m, requires_grad=True), iters=60, tol=tol)
        (node,) = tape.nodes
        assert np.array_equal(taped.value, ref_value)
        assert np.array_equal(node.backward_fn(w, node)[0], ref_grad)
        assert (len(node.saved) < 60) == (tol > 0)  # every positive tol exits early

    def test_the_exit_test_is_strict(self):
        # round 1's worst row sum, r * (K @ c), deviates from 1 by dev: at
        # tol = dev the round runs on (dev < dev fails), at the next float up
        # the call exits after round 1
        m = 0.5 * np.random.default_rng(3).normal(size=(8, 8))
        _, _, devs, _ = _scaling_sinkhorn(m, 2, 1.0, 0.0, np.ones_like(m))
        row_dev, col_dev = devs[0]
        assert col_dev < row_dev < 0.5
        for tol, rounds in ((row_dev, 2), (np.nextafter(row_dev, np.inf), 1)):
            ref_value, _, _, _ = _scaling_sinkhorn(m, 6, 1.0, tol, np.ones_like(m))
            assert np.array_equal(sinkhorn_operator(m, iters=6, tol=tol).value, ref_value)
            with Tape() as tape:
                sinkhorn_operator(Tensor(m, requires_grad=True), iters=6, tol=tol)
            (node,) = tape.nodes
            assert len(node.saved) == rounds
            assert np.array_equal(node.output.value, ref_value)

    def test_absorption_keeps_the_iteration_finite(self):
        # at large score magnitudes and a low temperature the scalings leave
        # [2**-200, 2**200] and are folded into K, here twice in 500 rounds
        m = 100.0 * np.random.default_rng(2).uniform(-1.0, 1.0, size=(5, 5))
        w = np.random.default_rng(12).normal(size=m.shape)
        kw = dict(iters=500, tau=0.05, tol=0.0)
        ref_value, ref_grad, _, ref_rounds = _scaling_sinkhorn(m, cotangent=w, **kw)
        with Tape() as tape:
            p = sinkhorn_operator(Tensor(m, requires_grad=True), **kw)
        (node,) = tape.nodes
        grad = node.backward_fn(w, node)[0]
        assert _segments(node.saved) == _segments(ref_rounds) > 1
        assert np.array_equal(p.value, ref_value) and np.array_equal(grad, ref_grad)
        assert np.isfinite(grad).all() and np.abs(p.value.sum(axis=0) - 1.0).max() <= 1e-9
        assert all(np.isfinite(v).all() and (v > 0).all() for _, *vs in node.saved for v in vs)
        # without absorption 164 of 400 such inputs at 2000 rounds came out
        # non-finite
        rng = np.random.default_rng(13)
        for scale in (1e2, 1e4, 1e12) * 4:
            n = int(rng.integers(2, 9))
            m = Tensor(scale * rng.uniform(-1.0, 1.0, size=(n, n)), requires_grad=True)
            with Tape() as tape:
                p = sinkhorn_operator(m, iters=2000, tau=0.05, tol=0.0)
            (node,) = tape.nodes
            assert np.isfinite(node.backward_fn(np.ones((n, n)), node)[0]).all(), scale
            assert np.isfinite(p.value).all() and np.abs(p.value.sum(axis=0) - 1.0).max() <= 1e-9, scale

    def test_taped_and_untaped_outputs_identical(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 60))
            m = rng.normal(scale=3.0, size=(n, n))
            untaped = sinkhorn_operator(m, iters=20).value
            with Tape():
                taped = sinkhorn_operator(Tensor(m, requires_grad=True), iters=20).value
            assert np.array_equal(taped, untaped)

    def test_one_node_per_call(self, rng):
        m = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
        for iters in (1, 5, 50):
            with Tape() as tape:
                sinkhorn_operator(m, iters=iters, tol=0.0)
            assert [node.kind for node in tape.nodes] == ["sinkhorn"]
            # one (K, r_k, c_{k-1}, c_k) per round, every round sharing K
            saved = tape.nodes[0].saved
            assert len(saved) == iters and _segments(saved) == 1
            assert all(v.shape == (6,) for _, *vs in saved for v in vs)

    def test_untaped_call_holds_no_iterates(self, rng):
        m = rng.normal(size=(200, 200))

        def traced_peak(iters):
            tracemalloc.start()
            try:
                sinkhorn_operator(m, iters=iters, tol=0.0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        sinkhorn_operator(m, iters=1)  # first-call caches stay out of the peaks
        peaks = [traced_peak(iters) for iters in (1, 20)]
        assert peaks[0] == peaks[1]  # nothing grows with the round count
        # the iterate, p and one scratch array; the headroom above 3 is the
        # hidden iterator buffer numpy allocates (and frees) for each
        # broadcasting subtraction even with out= given, 65 KB at n = 200
        assert peaks[1] <= 3.5 * m.nbytes

    def test_taped_call_holds_no_matrix_per_round(self, rng):
        n = 200
        m = Tensor(rng.normal(size=(n, n)), requires_grad=True)

        def traced(iters):
            tracemalloc.start()
            try:
                with Tape():
                    sinkhorn_operator(m, iters=iters, tol=0.0)
                    return tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()

        sinkhorn_operator(m.value, iters=1)  # first-call caches stay out of the peaks
        (held_1, peak_1), (held_20, peak_20) = traced(1), traced(20)
        # the node keeps K and the output; the peak adds round 1's scratch or
        # numpy's hidden iterator buffer (see above). Each round after the
        # first adds r_k, c_k and their tuple, nothing of size n x n.
        nbytes, per_round = m.value.nbytes, 2 * 8 * n + 1024
        assert held_20 <= 2 * nbytes + 20 * per_round and peak_20 <= 2.5 * nbytes + 20 * per_round
        assert held_20 - held_1 <= 19 * per_round and peak_20 - peak_1 <= 19 * per_round

    def test_matrix_with_no_entries(self):
        for shape in ((0, 0), (3, 0), (0, 3)):
            assert sinkhorn_operator(np.zeros(shape)).value.shape == shape
            m = Tensor(np.zeros(shape), requires_grad=True)
            with Tape() as tape:
                p = sinkhorn_operator(m)
            (node,) = tape.nodes
            assert p.value.shape == shape and node.saved == []
            assert node.backward_fn(np.zeros(shape), node)[0].shape == shape

    def test_rejects_zero_iterations(self):
        with pytest.raises(ParameterError, match="iters"):
            sinkhorn_operator(np.eye(3), iters=0)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), tol=st.sampled_from([0.0, 1e-14, 1e-6, 0.5]) | st.floats(allow_nan=True))
    def test_sum_check_is_the_largest_deviation_test(self, data, tol):
        edges = [1.0, np.nan, np.inf, -np.inf]
        with np.errstate(over="ignore"):  # the ulp above the largest float is inf
            for bound in (1.0 + tol, 1.0 - tol):
                edges += [bound, np.nextafter(bound, -np.inf), np.nextafter(bound, np.inf)]
        element = st.sampled_from(edges) | st.floats(allow_nan=True, allow_infinity=True)
        s = np.array(data.draw(st.lists(element, min_size=1, max_size=12)))
        want = bool(np.abs(s - 1.0).max() < tol)
        assert _sums_near_one(s, tol) is want

    @settings(max_examples=80, deadline=None)
    @given(
        scores=st.integers(1, 8).flatmap(
            lambda n: arrays(np.float64, (n, n), elements=st.floats(-1e6, 1e6, allow_nan=False))
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_finite_and_column_stochastic_for_any_scores(self, scores, seed):
        w = np.random.default_rng(seed).normal(size=scores.shape)
        m = Tensor(scores, requires_grad=True)
        with Tape() as tape:
            p = sinkhorn_operator(m, iters=20)
            loss = tsum(mul(p, Tensor(w)))
        tape.backward(loss)
        assert np.isfinite(p.value).all() and np.isfinite(m.grad).all()
        assert np.abs(p.value.sum(axis=0) - 1.0).max() <= 1e-9


def _reference_hungarian(profit) -> PermutationMatrix:
    """Reference: the same solver with fresh arrays for every row, dropping
    each scanned column from a shrinking index array."""
    profit = np.asarray(profit, dtype=np.float64)
    cost = -profit
    n = cost.shape[0]
    u = np.zeros(n)
    v = np.zeros(n)
    col4row = np.full(n, -1, dtype=np.int64)
    row4col = np.full(n, -1, dtype=np.int64)
    for cur_row in range(n):
        shortest = np.full(n, np.inf)
        pred = np.full(n, -1, dtype=np.int64)
        scanned_rows = np.zeros(n, dtype=bool)
        scanned_cols = np.zeros(n, dtype=bool)
        remaining = np.arange(n)
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            scanned_rows[i] = True
            reduced = min_val + cost[i, remaining] - u[i] - v[remaining]
            better = reduced < shortest[remaining]
            if better.any():
                cols = remaining[better]
                shortest[cols] = reduced[better]
                pred[cols] = i
            k = int(np.argmin(shortest[remaining]))
            j = int(remaining[k])
            min_val = shortest[j]
            scanned_cols[j] = True
            remaining = np.delete(remaining, k)
            if row4col[j] == -1:
                sink = j
            else:
                i = int(row4col[j])
        u[cur_row] += min_val
        others = scanned_rows.copy()
        others[cur_row] = False
        rows = np.flatnonzero(others)
        if rows.size:
            u[rows] += min_val - shortest[col4row[rows]]
        cols = np.flatnonzero(scanned_cols)
        v[cols] -= min_val - shortest[cols]
        j = sink
        while True:
            i = int(pred[j])
            row4col[j] = i
            col4row[i], j = j, int(col4row[i])
            if i == cur_row:
                break
    return PermutationMatrix(row4col)


def _assert_same_as_reference(profit):
    np.testing.assert_array_equal(hungarian(profit).perm, _reference_hungarian(profit).perm)


_PERMS = {n: np.array(list(itertools.permutations(range(n)))) for n in range(1, 8)}


class TestHungarian:
    def test_identity_profit(self):
        assert hungarian(np.eye(5)) == PermutationMatrix.identity(5)

    def test_empty_and_single(self):
        np.testing.assert_array_equal(hungarian(np.zeros((0, 0))).perm, [])
        np.testing.assert_array_equal(hungarian([[-2.5]]).perm, [0])

    # multiples of 2**-10 below 2**10: every sum and potential is exact, so
    # optimality is checked with ==, and ties are common
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 7).flatmap(
            lambda n: arrays(np.float64, (n, n), elements=st.integers(-(2**20), 2**20).map(lambda k: k / 1024))
        )
    )
    def test_matches_brute_force_property(self, profit):
        n = profit.shape[0]
        pm = hungarian(profit)
        assert sorted(pm.perm.tolist()) == list(range(n))
        assert profit[pm.perm, np.arange(n)].sum() == profit[_PERMS[n], np.arange(n)].sum(axis=1).max()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: arrays(np.float64, (n, n), elements=st.floats(-1e6, 1e6))))
    def test_same_permutation_as_reference(self, profit):
        _assert_same_as_reference(profit)

    def test_same_permutation_as_reference_with_ties(self, rng):
        # integer-valued entries tie often; the lowest column index must win every tie
        for _ in range(400):
            n = int(rng.integers(1, 10))
            _assert_same_as_reference(rng.integers(-3, 4, (n, n)).astype(np.float64))
        for n in (2, 5, 9):
            for value in (0.0, -0.0, 1.0, -3.5):
                _assert_same_as_reference(np.full((n, n), value))
        # a row's first scan is cost - v, which can differ from the
        # reference's ((0 + cost) - u) - v in the sign of a zero
        for _ in range(200):
            n = int(rng.integers(1, 10))
            signed_zeros = np.where(rng.random((n, n)) < 0.5, -0.0, 0.0)
            _assert_same_as_reference(signed_zeros)
            _assert_same_as_reference(np.where(rng.random((n, n)) < 0.5, signed_zeros, rng.integers(-2, 3, (n, n))))

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 40),
        kind=st.sampled_from(["integer", "dyadic", "saturated"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_permutation_as_reference_on_ties_and_near_ties(self, n, kind, seed):
        # equal reduced costs reached by several scans test the predecessor
        # rule: the first scan to reach a column's minimum must win
        rng = np.random.default_rng(seed)
        if kind == "integer":
            profit = rng.integers(-3, 4, (n, n)).astype(np.float64)
        elif kind == "dyadic":
            profit = rng.integers(-64, 65, (n, n)) / 16.0
        else:  # most entries fall below 1e-12
            scores = 5.0 * rng.normal(size=(n, n)) + GumbelSource(seed).gumbel((n, n))
            profit = sinkhorn_operator(scores, iters=20, tau=0.05).value
        _assert_same_as_reference(profit)

    def test_hungarian_holds_no_per_scan_arrays(self, rng):
        profit = sinkhorn_operator(rng.normal(size=(200, 200)) + GumbelSource(5).gumbel((200, 200)), iters=20).value
        hungarian(profit)  # first-call caches stay out of the peak
        tracemalloc.start()
        try:
            hungarian(profit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * profit.nbytes  # the cost copy and the scan buffer

    def test_same_permutation_as_reference_on_saturated_sinkhorn(self, rng):
        # most entries fall below 1e-12, so many reduced costs nearly tie
        for k in range(40):
            n = int(rng.integers(2, 61))
            scores = 5.0 * rng.normal(size=(n, n)) + GumbelSource(k).gumbel((n, n))
            _assert_same_as_reference(sinkhorn_operator(scores, iters=20, tau=0.2).value)

    def test_same_permutation_as_reference_on_n200_draws(self, rng):
        params = PermutationParams(n=200, mode=SINKHORN, scores=rng.normal(size=(200, 200)))
        noise = GumbelSource(17)
        for _ in range(50):
            hard, soft = sample_permutation(params, noise)
            np.testing.assert_array_equal(hard.perm, _reference_hungarian(soft.value).perm)

    def test_two_by_two(self):
        pm = hungarian(np.array([[1.0, 2.0], [2.0, 1.0]]))
        np.testing.assert_array_equal(pm.perm, [1, 0])
        profit = np.array([[1.0, 2.0], [2.0, 1.0]])
        assert profit[pm.perm, np.arange(2)].sum() == 4.0

    def test_matches_brute_force(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 8))
            profit = rng.uniform(-10, 10, (n, n))
            pm = hungarian(profit)
            got = profit[pm.perm, np.arange(n)].sum()
            best = max(
                profit[list(sigma), np.arange(n)].sum()
                for sigma in itertools.permutations(range(n))
            )
            assert got == best

    def test_rejects_nonfinite(self):
        with pytest.raises(ParameterError, match="finite"):
            hungarian(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_entries_near_float_limit(self, rng):
        signs = rng.choice([-1.0, 1.0], (3, 3))
        with pytest.raises(ParameterError, match="1e\\+300"):
            hungarian(1.7e308 * signs)
        # at the bound the solver runs without overflow and stays optimal
        profit = 1e300 * signs * rng.uniform(0.5, 1.0, (3, 3))
        pm = hungarian(profit)
        best = max(profit[list(sigma), np.arange(3)].sum() for sigma in itertools.permutations(range(3)))
        assert profit[pm.perm, np.arange(3)].sum() == best

    def test_picks_argmax_cells_of_soft_matrix(self, rng):
        # the hard matrix must be the best matching on the soft matrix itself
        soft = sinkhorn_operator(rng.uniform(-3, 3, (6, 6))).value
        pm = hungarian(soft)
        m = pm.matrix()
        assert (soft * m).sum() == max(
            (soft * PermutationMatrix(list(sigma)).matrix()).sum()
            for sigma in itertools.permutations(range(6))
        )


class TestSoftSort:
    def test_empty_scores_give_an_empty_matrix(self):
        assert softsort(np.zeros(0)).value.shape == (0, 0)

    def test_rows_sum_to_one(self, rng):
        s = softsort(rng.uniform(-3, 3, 9), tau=0.7).value
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)

    def test_argmax_is_descending_argsort(self, rng):
        for _ in range(50):
            v = rng.uniform(-5, 5, 8)
            s = softsort(v, tau=0.3).value
            np.testing.assert_array_equal(s.argmax(axis=1), np.argsort(-v, kind="stable"))

    def test_three_values_example(self):
        s = softsort(np.array([1.0, 3.0, 2.0]), tau=0.05).value
        # rank 0 -> node 2, rank 1 -> node 3, rank 2 -> node 1 (one-based)
        np.testing.assert_array_equal(s.argmax(axis=1), [1, 2, 0])

    def test_equal_entries_uniform(self):
        s = softsort(np.zeros(4), tau=1.0).value
        np.testing.assert_allclose(s, 0.25, atol=1e-12)

    def test_gradient_reaches_the_callers_tensor(self, rng):
        # a 1-d Tensor was once re-wrapped as a new leaf, leaving .grad None
        v = rng.uniform(-2, 2, 5)
        w = Tensor(rng.uniform(-1, 1, (5, 5)))
        col = Tensor(v.reshape(-1, 1), requires_grad=True)
        assert_grads_close(lambda: tsum(mul(softsort(col, tau=0.5), w)), [col])
        flat = Tensor(v, requires_grad=True)
        with Tape(), pytest.raises(ad.DimensionError, match="softsort"):
            softsort(flat)

    def test_close_scores_tie_in_the_soft_matrix_but_not_in_the_hard_draw(self):
        # a gap of one ulp at 1.0 is 2.2e-16, far below 1e-16 * tau at tau = 10
        scores = np.array([1.0, np.nextafter(1.0, 2.0)])
        params = PermutationParams(n=2, mode=TOPK, scores=scores, temperature=10.0)
        hard, soft = sample_permutation(params, None)
        np.testing.assert_array_equal(soft.value, 0.5)
        # the hard draw is still the stable descending argsort: node 1 first
        np.testing.assert_array_equal(hard.perm, [1, 0])

    # distinct scores, at least 1e-6 apart: a smaller gap over tau can round
    # the runner-up's exp(-gap / tau) to 1 and tie the row's argmax
    @settings(max_examples=150, deadline=None)
    @given(
        scores=st.integers(1, 12).flatmap(
            lambda n: arrays(np.float64, n, elements=st.floats(-1e6, 1e6), unique=True)
        ),
        tau=st.floats(0.01, 10.0),
        taped=st.booleans(),
    )
    def test_hard_draw_is_row_argmax_and_rows_sum_to_one(self, scores, tau, taped):
        assume(scores.size == 1 or np.diff(np.sort(scores)).min() >= 1e-6)
        params = PermutationParams(n=scores.size, mode=TOPK, scores=scores, temperature=tau)
        if taped:
            with Tape() as tape:
                hard, soft = sample_permutation(params, None)
            assert [node.kind for node in tape.nodes] == ["softsort"]
        else:
            hard, soft = sample_permutation(params, None)
        np.testing.assert_array_equal(soft.value.argmax(axis=1), hard.matrix().argmax(axis=1))
        np.testing.assert_allclose(soft.value.sum(axis=1), 1.0, rtol=0, atol=1e-12)


class TestPermutationSamplers:
    def test_sinkhorn_dominant_diagonal_identity(self):
        params = PermutationParams(n=5, mode=SINKHORN, scores=1e3 * np.eye(5))
        hard, _ = sample_permutation(params, noise=None)
        assert hard == PermutationMatrix.identity(5)

    def test_sinkhorn_hard_always_bijection(self, rng):
        params = PermutationParams(n=8, mode=SINKHORN, scores=rng.normal(size=(8, 8)))
        noise = GumbelSource(3)
        for _ in range(20):
            hard, soft = sample_permutation(params, noise)
            assert sorted(hard.perm.tolist()) == list(range(8))
            assert soft.value.shape == (8, 8)

    def test_topk_deterministic_ranks(self):
        params = PermutationParams(n=3, mode=TOPK, scores=np.array([3.0, 1.0, 2.0]))
        hard, _ = sample_permutation(params, noise=None)
        # node 1 ranked first, node 3 second, node 2 third (one-based)
        np.testing.assert_array_equal(hard.perm, [0, 2, 1])

    def test_topk_uniform_frequencies(self):
        params = PermutationParams(n=3, mode=TOPK)
        noise = GumbelSource(11)
        counts = {}
        draws = 20_000
        for _ in range(draws):
            hard, _ = sample_permutation(params, noise)
            key = tuple(hard.perm.tolist())
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        for key, c in counts.items():
            assert abs(c / draws - 1 / 6) < 0.02

    def test_topk_duplicate_scores_stable(self):
        params = PermutationParams(n=4, mode=TOPK, scores=np.zeros(4))
        hard, _ = sample_permutation(params, noise=None)
        np.testing.assert_array_equal(hard.perm, [0, 1, 2, 3])

    def test_composed_samples_are_acyclic(self, rng):
        for mode in (SINKHORN, TOPK):
            params = PermutationParams(n=12, mode=mode)
            noise = GumbelSource(9)
            for _ in range(25):
                hard, _ = sample_permutation(params, noise)
                u = UpperTriangularEdges(np.triu((rng.random((12, 12)) < 0.4).astype(np.int8), 1))
                assert is_acyclic(compose(hard, u).entries)

    def test_deterministic_mode_is_pure(self):
        for mode in (SINKHORN, TOPK):
            shape = (6, 6) if mode == SINKHORN else (6,)
            scores = np.random.default_rng(1).normal(size=shape)
            params = PermutationParams(n=6, mode=mode, scores=scores)
            h1, s1 = sample_permutation(params, None)
            h2, s2 = sample_permutation(params, None)
            assert h1 == h2
            np.testing.assert_array_equal(s1.value, s2.value)


class TestStraightThroughWiring:
    """Gradients w.r.t. scores and logits on the soft path vs finite differences."""

    def test_edge_gradients(self, rng):
        params = EdgeParams(n=4, logits=rng.uniform(-1, 1, (4, 4)))
        w = Tensor(rng.uniform(-1, 1, (4, 4)))

        def build():
            _, soft = sample_edges(params, GumbelSource(21))
            return tsum(mul(soft, w))

        assert_grads_close(build, [params.logits], rtol=1e-3)

    def test_topk_score_gradients(self, rng):
        params = PermutationParams(n=5, mode=TOPK, scores=rng.uniform(-1, 1, 5))
        w = Tensor(rng.uniform(-1, 1, (5, 5)))

        def build():
            _, soft = sample_permutation(params, GumbelSource(22))
            return tsum(mul(soft, w))

        assert_grads_close(build, [params.scores], rtol=1e-3)

    def test_sinkhorn_score_gradients(self, rng):
        params = PermutationParams(n=4, mode=SINKHORN, scores=rng.uniform(-1, 1, (4, 4)))
        w = Tensor(rng.uniform(-1, 1, (4, 4)))

        def build():
            _, soft = sample_permutation(params, GumbelSource(23))
            return tsum(mul(soft, w))

        assert_grads_close(build, [params.scores], rtol=1e-3)
