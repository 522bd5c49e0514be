import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import assert_grads_close
from diffdag import autodiff as ad
from diffdag.autodiff import Tape, Tensor
from diffdag.graphs import PermutationMatrix, compose, is_acyclic, UpperTriangularEdges
from diffdag.gumbel import (
    SINKHORN,
    TOPK,
    EdgeParams,
    GumbelSource,
    ParameterError,
    PermutationParams,
    hungarian,
    sample_edges,
    sample_permutation_sinkhorn,
    sample_permutation_topk,
    sinkhorn_operator,
    softsort,
)


class TestGumbelSource:
    def test_reproducible(self):
        a = GumbelSource(42).gumbel((3, 3))
        b = GumbelSource(42).gumbel((3, 3))
        np.testing.assert_array_equal(a, b)

    def test_distribution_moments(self):
        g = GumbelSource(0).gumbel(200_000)
        # standard Gumbel: mean = Euler-Mascheroni, var = pi^2/6
        assert abs(g.mean() - 0.5772) < 0.01
        assert abs(g.var() - np.pi**2 / 6) < 0.02
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
        # soft = sigmoid((logits + g1 - g2) / tau) for the recorded draws
        params = EdgeParams(n=4, logits=np.linspace(-2, 2, 16).reshape(4, 4), temperature=0.7)
        _, soft = sample_edges(params, GumbelSource(5))
        # reproduce: the sampler draws g1 then g2 from one stream
        src = GumbelSource(5)
        expect = 1 / (1 + np.exp(-((params.logits.value + src.gumbel((4, 4)) - src.gumbel((4, 4))) / 0.7)))
        np.testing.assert_allclose(soft.value, expect, atol=1e-12)


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
        assert_grads_close(lambda: ad.tsum(ad.mul(sinkhorn_operator(m, iters=8, tol=0.0), w)), [m], rtol=1e-4)


def _unrolled_sinkhorn(m, iters, tau, tol):
    """Reference: the same iteration unrolled on the tape, seven nodes a round."""

    def logsumexp_rows(x):
        mx = x.value.max(axis=1, keepdims=True)
        lse = mx + np.log(np.exp(x.value - mx).sum(axis=1, keepdims=True))
        return ad._record("logsumexp-rows", (x,), lse, lambda g, node: (g * np.exp(x.value - lse),))

    n_rows, n_cols = m.value.shape
    ones_row = Tensor(np.ones((1, n_cols)))
    ones_col = Tensor(np.ones((1, n_rows)))
    log_p = ad.mul(m, Tensor(1.0 / tau))
    for _ in range(iters):
        log_p = ad.sub(log_p, ad.matmul(logsumexp_rows(log_p), ones_row))
        cols = ad.transpose(log_p)
        cols = ad.sub(cols, ad.matmul(logsumexp_rows(cols), ones_col))
        log_p = ad.transpose(cols)
        p = np.exp(log_p.value)
        dev = max(np.abs(p.sum(axis=1) - 1.0).max(), np.abs(p.sum(axis=0) - 1.0).max())
        if dev < tol:
            break
    e = np.exp(log_p.value)
    return ad._record("exp", (log_p,), e, lambda g, node: (g * e,))


def _sinkhorn_grad(op, m_value, w, **kw):
    m = Tensor(m_value, requires_grad=True)
    with Tape() as tape:
        loss = ad.tsum(ad.mul(op(m, **kw), Tensor(w)))
    tape.backward(loss)
    return m.grad


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
            assert len(tape.nodes[0].saved) == 2 * iters

    def test_untaped_call_holds_no_iterates(self, rng):
        m = rng.normal(size=(200, 200))
        tracemalloc.start()
        try:
            sinkhorn_operator(m, iters=20, tol=0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * m.nbytes  # four n x n arrays at once, whatever iters is

    def test_rejects_zero_iterations(self):
        with pytest.raises(ParameterError, match="iters"):
            sinkhorn_operator(np.eye(3), iters=0)

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
            loss = ad.tsum(ad.mul(p, Tensor(w)))
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
            for value in (0.0, 1.0, -3.5):
                _assert_same_as_reference(np.full((n, n), value))

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
            hard, soft = sample_permutation_sinkhorn(params, noise)
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
        assert_grads_close(lambda: ad.tsum(ad.mul(softsort(col, tau=0.5), w)), [col])
        flat = Tensor(v, requires_grad=True)
        with Tape(), pytest.raises(ad.DimensionError, match="softsort"):
            softsort(flat)


class TestPermutationSamplers:
    def test_sinkhorn_dominant_diagonal_identity(self):
        params = PermutationParams(n=5, mode=SINKHORN, scores=1e3 * np.eye(5))
        hard, _ = sample_permutation_sinkhorn(params, noise=None)
        assert hard == PermutationMatrix.identity(5)

    def test_sinkhorn_hard_always_bijection(self, rng):
        params = PermutationParams(n=8, mode=SINKHORN, scores=rng.normal(size=(8, 8)))
        noise = GumbelSource(3)
        for _ in range(20):
            hard, soft = sample_permutation_sinkhorn(params, noise)
            assert sorted(hard.perm.tolist()) == list(range(8))
            assert soft.value.shape == (8, 8)

    def test_topk_deterministic_ranks(self):
        params = PermutationParams(n=3, mode=TOPK, scores=np.array([3.0, 1.0, 2.0]))
        hard, _ = sample_permutation_topk(params, noise=None)
        # node 1 ranked first, node 3 second, node 2 third (one-based)
        np.testing.assert_array_equal(hard.perm, [0, 2, 1])

    def test_topk_uniform_frequencies(self):
        params = PermutationParams(n=3, mode=TOPK)
        noise = GumbelSource(11)
        counts = {}
        draws = 20_000
        for _ in range(draws):
            hard, _ = sample_permutation_topk(params, noise)
            key = tuple(hard.perm.tolist())
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        for key, c in counts.items():
            assert abs(c / draws - 1 / 6) < 0.02

    def test_topk_duplicate_scores_stable(self):
        params = PermutationParams(n=4, mode=TOPK, scores=np.zeros(4))
        hard, _ = sample_permutation_topk(params, noise=None)
        np.testing.assert_array_equal(hard.perm, [0, 1, 2, 3])

    def test_mode_mismatch(self):
        params = PermutationParams(n=3, mode=TOPK)
        with pytest.raises(ParameterError, match="mode"):
            sample_permutation_sinkhorn(params)

    def test_composed_samples_are_acyclic(self, rng):
        for mode in (SINKHORN, TOPK):
            params = PermutationParams(n=12, mode=mode)
            noise = GumbelSource(9)
            for _ in range(25):
                hard, _ = (
                    sample_permutation_sinkhorn(params, noise)
                    if mode == SINKHORN
                    else sample_permutation_topk(params, noise)
                )
                u = UpperTriangularEdges(np.triu((rng.random((12, 12)) < 0.4).astype(np.int8), 1))
                assert is_acyclic(compose(hard, u).entries)

    def test_deterministic_mode_is_pure(self):
        for mode in (SINKHORN, TOPK):
            shape = (6, 6) if mode == SINKHORN else (6,)
            scores = np.random.default_rng(1).normal(size=shape)
            params = PermutationParams(n=6, mode=mode, scores=scores)
            sampler = sample_permutation_sinkhorn if mode == SINKHORN else sample_permutation_topk
            h1, s1 = sampler(params, None)
            h2, s2 = sampler(params, None)
            assert h1 == h2
            np.testing.assert_array_equal(s1.value, s2.value)


class TestStraightThroughWiring:
    """Gradients w.r.t. scores and logits on the soft path vs finite differences."""

    def test_edge_gradients(self, rng):
        params = EdgeParams(n=4, logits=rng.uniform(-1, 1, (4, 4)))
        w = Tensor(rng.uniform(-1, 1, (4, 4)))

        def build():
            _, soft = sample_edges(params, GumbelSource(21))
            return ad.tsum(ad.mul(soft, w))

        assert_grads_close(build, [params.logits], rtol=1e-3)

    def test_topk_score_gradients(self, rng):
        params = PermutationParams(n=5, mode=TOPK, scores=rng.uniform(-1, 1, 5))
        w = Tensor(rng.uniform(-1, 1, (5, 5)))

        def build():
            _, soft = sample_permutation_topk(params, GumbelSource(22))
            return ad.tsum(ad.mul(soft, w))

        assert_grads_close(build, [params.scores], rtol=1e-3)

    def test_sinkhorn_score_gradients(self, rng):
        params = PermutationParams(n=4, mode=SINKHORN, scores=rng.uniform(-1, 1, (4, 4)))
        w = Tensor(rng.uniform(-1, 1, (4, 4)))

        def build():
            _, soft = sample_permutation_sinkhorn(params, GumbelSource(23))
            return ad.tsum(ad.mul(soft, w))

        assert_grads_close(build, [params.scores], rtol=1e-3)
