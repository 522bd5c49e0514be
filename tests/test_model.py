import json

import numpy as np
import pytest

from conftest import enumerate_dags
from diffdag import autodiff as ad
from diffdag.autodiff import Tape
from diffdag.graphs import is_acyclic
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
    save_checkpoint,
    threshold_dag,
)


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
                loss = ad.tsum(ad.mul(soft, w))
            tape.backward(loss)
            assert model.edge_params.logits.grad is not None
            assert np.abs(model.edge_params.logits.grad).max() > 0
            assert model.perm_params.scores.grad is not None
            assert np.abs(model.perm_params.scores.grad).max() > 0

    def test_relaxed_mode_is_smooth(self):
        model = make_model(4)
        hard, soft = sample_dag(model, GumbelSource(2), relaxed=True)
        assert is_acyclic(hard.entries)
        assert ((soft.value > 0) & (soft.value < 1)).any()


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
