import contextlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import add, analytic_grads, enumerate_dags, mul, tsum
from diffdag import autodiff as ad
from diffdag.autodiff import Tape, Tensor
from diffdag.graphs import AdjacencyMatrix, is_acyclic
from diffdag.gumbel import (
    SINKHORN,
    TOPK,
    EdgeParams,
    GumbelSource,
    ParameterError,
    PermutationParams,
)
from diffdag.model import (
    DpDagModel,
    edge_scores,
    load_checkpoint,
    sample_dag,
    sample_dag_parts,
    save_checkpoint,
    threshold_dag,
)
from diffdag.training import MechanismNet


def make_model(n, mode=TOPK, logits=None, scores=None, rng=None):
    edge = EdgeParams(n=n, logits=logits if logits is not None else np.zeros((n, n)))
    if scores is None:
        scores = np.zeros((n, n)) if mode == SINKHORN else np.zeros(n)
    perm = PermutationParams(n=n, mode=mode, scores=scores)
    return DpDagModel(n=n, edge_params=edge, perm_params=perm)


class TestSampleDag:
    def test_saturated_logits_give_complete_dag(self):
        n = 6
        model = make_model(n, logits=np.full((n, n), 10.0))
        hard, _ = sample_dag(model, GumbelSource(0))
        assert hard.edge_count() == n * (n - 1) // 2

    @pytest.mark.parametrize("mode, taped", [(SINKHORN, False), (SINKHORN, True), (TOPK, False), (TOPK, True)])
    def test_model_with_no_nodes_draws_the_empty_dag(self, mode, taped):
        model = DpDagModel.create(0, perm_mode=mode)
        with Tape() if taped else contextlib.nullcontext():
            hard, _ = sample_dag(model, GumbelSource(0))
        assert hard == AdjacencyMatrix(np.zeros((0, 0)))

    def test_negative_logits_give_empty_graph(self):
        model = make_model(5, logits=np.full((5, 5), -10.0))
        hard, _ = sample_dag(model, GumbelSource(0))
        assert hard.edge_count() == 0

    @pytest.mark.parametrize("mode", [SINKHORN, TOPK])
    def test_samples_always_acyclic(self, mode, rng):
        for n in (4, 10):
            model = make_model(
                n,
                mode=mode,
                logits=rng.normal(size=(n, n)),
                scores=rng.normal(size=(n, n) if mode == SINKHORN else n),
            )
            noise = GumbelSource(17)
            for _ in range(60):
                hard, soft = sample_dag(model, noise)
                assert is_acyclic(hard.entries)
                np.testing.assert_array_equal(hard.entries, soft.value)

    def test_covers_all_three_node_dags(self):
        want = {m.tobytes() for m in enumerate_dags(3)}
        assert len(want) == 25
        model = make_model(3)
        noise = GumbelSource(5)
        seen = set()
        for _ in range(100_000):
            hard, _ = sample_dag(model, noise)
            seen.add(hard.entries.astype(np.int8).tobytes())
            if seen == want:
                break
        assert seen == want

    def test_gradients_reach_both_parameter_sets(self, rng):
        for mode in (SINKHORN, TOPK):
            model = make_model(
                5,
                mode=mode,
                logits=rng.normal(size=(5, 5)),
                scores=rng.normal(size=(5, 5) if mode == SINKHORN else 5),
            )
            w = ad.Tensor(rng.normal(size=(5, 5)))
            with Tape() as tape:
                _, soft = sample_dag(model, GumbelSource(1))
                loss = tsum(mul(soft, w))
            tape.backward(loss)
            assert model.edge_params.logits.grad is not None
            assert np.abs(model.edge_params.logits.grad).max() > 0
            assert model.perm_params.scores.grad is not None
            assert np.abs(model.perm_params.scores.grad).max() > 0

    @pytest.mark.parametrize("mode", [SINKHORN, TOPK])
    def test_straight_through_routes_the_relaxed_gradient(self, mode, rng):
        # hard values forward; with a linear readout the gradient does not
        # depend on the forward value, so it equals the relaxed draw's exactly
        scores = rng.normal(size=(5, 5) if mode == SINKHORN else 5)
        model = make_model(5, mode=mode, logits=rng.normal(size=(5, 5)), scores=scores)
        w_adj, w_mask = Tensor(rng.normal(size=(5, 5))), Tensor(rng.normal(size=(5, 5)))
        samples, grads = [], []
        for relaxed in (False, True):

            def build():
                s = sample_dag_parts(model, GumbelSource(3), relaxed=relaxed)
                samples.append(s)
                return add(tsum(mul(s.soft, w_adj)), tsum(mul(s.mask, w_mask)))

            grads.append(analytic_grads(build, model.parameters()))
        hard, smooth = samples
        np.testing.assert_array_equal(hard.soft.value, hard.hard.entries)
        assert set(np.unique(hard.mask.value)) <= {0.0, 1.0}
        assert hard.hard == smooth.hard and ((smooth.soft.value > 0) & (smooth.soft.value < 1)).any()
        for g_hard, g_smooth in zip(*grads):
            np.testing.assert_array_equal(g_hard, g_smooth)

    def test_relaxed_mode_is_smooth(self):
        model = make_model(4)
        hard, soft = sample_dag(model, GumbelSource(2), relaxed=True)
        assert is_acyclic(hard.entries)
        assert ((soft.value > 0) & (soft.value < 1)).any()


@st.composite
def _models(draw):
    """Any mode, n <= 12, tau in [0.05, 5], parameters up to +-1e6 or all equal."""
    n = draw(st.integers(1, 12))
    mode = draw(st.sampled_from([SINKHORN, TOPK]))
    tau = draw(st.floats(0.05, 5.0))
    score_shape = (n, n) if mode == SINKHORN else (n,)
    big = st.floats(-1e6, 1e6)
    if draw(st.booleans()):
        logits = np.full((n, n), draw(big))
        scores = np.full(score_shape, draw(big))
    else:
        logits = draw(arrays(np.float64, (n, n), elements=big))
        scores = draw(arrays(np.float64, score_shape, elements=big))
    return DpDagModel(
        n=n,
        edge_params=EdgeParams(n=n, logits=logits, temperature=tau),
        perm_params=PermutationParams(n=n, mode=mode, scores=scores, temperature=tau),
    )


class TestValueOnlyDraw:
    @settings(max_examples=120, deadline=None)
    @given(model=_models(), seed=st.none() | st.integers(0, 2**32 - 1))
    def test_acyclic_and_equal_to_the_taped_hard_sample(self, model, seed):
        untaped_noise = None if seed is None else GumbelSource(seed)
        taped_noise = None if seed is None else GumbelSource(seed)
        untaped = sample_dag_parts(model, untaped_noise)
        with Tape():
            taped = sample_dag_parts(model, taped_noise)
        assert is_acyclic(untaped.hard.entries) and is_acyclic(taped.hard.entries)
        assert untaped.hard == taped.hard
        # untaped, the straight-through outputs hold the hard values
        np.testing.assert_array_equal(untaped.soft.value, untaped.hard.entries)
        np.testing.assert_array_equal(untaped.mask.value, taped.mask.value)
        if seed is not None:  # both draws consumed the same stretch of noise
            np.testing.assert_array_equal(untaped_noise.gumbel(3), taped_noise.gumbel(3))

    def test_a_topk_draw_takes_n_plus_n_squared_uniforms(self, rng):
        # n Gumbel values for the scores, then one logistic value per pair
        n, seed = 10, 29
        noise = GumbelSource(seed)
        sample_dag(make_model(n, logits=rng.normal(size=(n, n)), scores=rng.normal(size=n)), noise)
        fresh = np.random.Generator(np.random.Philox(seed))
        fresh.random(n + n * n)
        np.testing.assert_array_equal(noise._gen.random(4), fresh.random(4))

    def test_owns_a_read_only_int8_sample(self, rng):
        model = make_model(6, logits=rng.normal(size=(6, 6)), scores=rng.normal(size=6))
        s = sample_dag_parts(model, GumbelSource(4))
        assert s.hard.entries.dtype == np.int8 and not s.hard.entries.flags.writeable


class TestEdgeScores:
    def test_two_node_uniform(self):
        model = make_model(2)
        directed, undirected = edge_scores(model)
        # exactly one direction allowed, scored at sigmoid(0) = 0.5
        assert sorted([directed[0, 1], directed[1, 0]]) == [0.0, 0.5]
        np.testing.assert_array_equal(undirected, directed + directed.T)

    def test_undirected_is_symmetrized(self, rng):
        model = make_model(6, logits=rng.normal(size=(6, 6)), scores=rng.normal(size=6))
        directed, undirected = edge_scores(model)
        np.testing.assert_allclose(undirected, directed + directed.T)
        assert np.allclose(undirected, undirected.T)

    def test_saturated_logits_reproduce_one_dag(self, rng):
        logits = np.where(rng.random((5, 5)) < 0.5, 12.0, -12.0)
        model = make_model(5, logits=logits, scores=rng.normal(size=5))
        directed, _ = edge_scores(model)
        on = directed > 0.5
        assert np.all((directed[on] > 0.99))
        assert np.all(directed[~on] < 0.01)
        assert is_acyclic(on.astype(np.int8))

    def test_diagonal_never_scores(self, rng):
        model = make_model(5, logits=rng.normal(size=(5, 5)), scores=rng.normal(size=5))
        directed, _ = edge_scores(model)
        np.testing.assert_array_equal(np.diagonal(directed), 0.0)


class TestThresholdDag:
    def test_half_threshold_with_zero_logits_is_empty(self):
        assert threshold_dag(make_model(4), 0.5).edge_count() == 0

    def test_tiny_threshold_gives_complete_dag(self):
        a = threshold_dag(make_model(4), 0.001)
        assert a.edge_count() == 6
        assert is_acyclic(a.entries)

    def test_monotone_in_threshold(self, rng):
        model = make_model(7, logits=rng.normal(size=(7, 7)), scores=rng.normal(size=7))
        prev = None
        for t in (0.1, 0.3, 0.5, 0.7, 0.9):
            cur = threshold_dag(model, t).entries
            if prev is not None:
                assert np.all(cur <= prev)  # larger t keeps a subset
            prev = cur

    def test_threshold_range_checked(self):
        with pytest.raises(ParameterError):
            threshold_dag(make_model(3), 1.0)


# every finite float, with -0.0, subnormals and +-1e308 drawn often
_finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308, 1.7976931348623157e308]
)


class TestCheckpoint:
    def test_round_trip_lossless(self, tmp_path, rng):
        model = make_model(
            6, mode=SINKHORN, logits=rng.normal(size=(6, 6)), scores=rng.normal(size=(6, 6))
        )
        path = tmp_path / "ck.json"
        save_checkpoint(model, path, extras={"note": 1})
        loaded, extras = load_checkpoint(path)
        assert extras == {"note": 1}
        assert loaded.n == 6
        assert loaded.perm_params.mode == SINKHORN
        np.testing.assert_array_equal(loaded.edge_params.logits.value, model.edge_params.logits.value)
        np.testing.assert_array_equal(loaded.perm_params.scores.value, model.perm_params.scores.value)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 5), hidden=st.integers(1, 3), mode=st.sampled_from([SINKHORN, TOPK]))
    def test_any_finite_arrays_round_trip_bit_exactly(self, tmp_path_factory, data, n, hidden, mode):
        edge = data.draw(arrays(np.float64, (n, n), elements=_finite))
        scores = data.draw(arrays(np.float64, (n, n) if mode == SINKHORN else (n,), elements=_finite))
        tau = data.draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
        model = DpDagModel(
            n=n,
            edge_params=EdgeParams(n=n, logits=edge, temperature=tau),
            perm_params=PermutationParams(n=n, mode=mode, scores=scores, temperature=tau),
        )
        mech = MechanismNet(n, hidden, np.random.default_rng(0))
        for p in mech.parameters():
            p.value = data.draw(arrays(np.float64, p.value.shape, elements=_finite))
        path = tmp_path_factory.mktemp("ck") / "ck.json"
        save_checkpoint(model, path, extras={"mechanisms": mech.state()})
        loaded, extras = load_checkpoint(path)
        back = MechanismNet.from_state(extras["mechanisms"])
        assert loaded.edge_params.temperature == tau
        for a, b in zip(model.parameters() + mech.parameters(), loaded.parameters() + back.parameters()):
            assert a.value.tobytes() == b.value.tobytes()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"hello": "world"}')
        with pytest.raises(ValueError, match="not a"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, bad", [("edge_logits", np.nan), ("perm_scores", np.inf)])
    def test_non_finite_sampler_arrays_rejected(self, tmp_path, rng, key, bad):
        model = make_model(4, mode=SINKHORN, logits=rng.normal(size=(4, 4)), scores=rng.normal(size=(4, 4)))
        path = tmp_path / "ck.json"
        save_checkpoint(model, path)
        blob = json.loads(path.read_text())
        blob[key][1][2] = bad
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match=f"{key} holds non-finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan"), float("inf")])
    def test_non_finite_or_nonpositive_temperature_rejected(self, tmp_path, tau):
        with pytest.raises(ParameterError, match="temperature"):
            DpDagModel.create(5, temperature=tau)
        path = tmp_path / "ck.json"
        save_checkpoint(make_model(4), path)
        blob = json.loads(path.read_text())
        blob["temperature"] = tau  # json writes NaN and Infinity, and reads them back
        path.write_text(json.dumps(blob))
        with pytest.raises(ParameterError, match="temperature"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["n", "perm_mode", "temperature", "sinkhorn_iters", "edge_logits", "perm_scores"])
    def test_missing_key_is_named(self, tmp_path, key):
        path = tmp_path / "ck.json"
        save_checkpoint(make_model(4), path)
        blob = json.loads(path.read_text())
        del blob[key]
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match=f"missing key '{key}'"):
            load_checkpoint(path)

    def test_inconsistent_sizes_rejected(self):
        with pytest.raises(ParameterError, match="inconsistent"):
            DpDagModel(n=3, edge_params=EdgeParams(n=4), perm_params=PermutationParams(n=3))

    def test_inconsistent_temperatures_rejected(self):
        # a checkpoint stores one temperature, so a second one would be lost on reload
        with pytest.raises(ParameterError, match="inconsistent temperatures"):
            DpDagModel(
                n=4,
                edge_params=EdgeParams(n=4, temperature=1.0),
                perm_params=PermutationParams(n=4, temperature=0.25),
            )

    @pytest.mark.parametrize(
        "key, bad",
        [
            ("n", "4.5"),
            ("n", True),
            ("n", 4.0),
            ("perm_mode", None),
            ("temperature", "1.0"),
            ("temperature", True),
            ("temperature", None),
            ("sinkhorn_iters", None),
            ("sinkhorn_iters", 2.5),
            ("sinkhorn_iters", False),
        ],
    )
    def test_scalar_field_of_wrong_type_is_named(self, tmp_path, key, bad):
        path = tmp_path / "ck.json"
        save_checkpoint(make_model(4), path)
        blob = json.loads(path.read_text())
        blob[key] = bad
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match=f"{key} must be"):
            load_checkpoint(path)
