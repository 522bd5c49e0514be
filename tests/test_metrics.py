import numpy as np
import pytest

from conftest import auc_pr_oracle, auc_roc_oracle
from diffdag.graphs import AdjacencyMatrix
from diffdag.gumbel import SINKHORN, TOPK, EdgeParams, PermutationParams
from diffdag.metrics import (
    MetricError,
    auc_pr,
    auc_roc,
    bench_sampling,
    directed_pairs,
    mechanism_mse,
    perturbation_confidence,
    shd,
    structure_aucs,
    undirected_pairs,
)
from diffdag.model import DpDagModel


def uniform_model(n, mode=TOPK):
    return DpDagModel.create(n, perm_mode=mode)


class TestAuc:
    def test_perfect_scores(self):
        labels = np.array([0, 1, 0, 1, 1])
        assert auc_roc(labels.astype(float), labels) == 1.0
        assert auc_pr(labels.astype(float), labels) == 1.0

    def test_constant_scores_roc_half(self):
        labels = np.array([0, 1, 0, 1])
        assert auc_roc(np.full(4, 0.3), labels) == 0.5

    def test_degenerate_labels_rejected(self):
        with pytest.raises(MetricError, match="classes"):
            auc_roc(np.array([0.1, 0.2]), np.array([1, 1]))

    def test_matches_exhaustive_oracle(self, rng):
        for _ in range(300):
            size = int(rng.integers(4, 31))
            # heavy ties: scores drawn from a small grid
            scores = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=size)
            labels = rng.integers(0, 2, size=size)
            if labels.sum() in (0, size):
                continue
            assert auc_roc(scores, labels) == pytest.approx(auc_roc_oracle(scores, labels), abs=1e-12)
            assert auc_pr(scores, labels) == pytest.approx(auc_pr_oracle(scores, labels), abs=1e-12)

    def test_rank_invariance(self, rng):
        scores = rng.uniform(0, 1, 40)
        labels = rng.integers(0, 2, 40)
        if labels.sum() in (0, 40):
            labels[0] = 1 - labels[0]
        transformed = np.exp(3 * scores) + 7
        assert auc_roc(scores, labels) == pytest.approx(auc_roc(transformed, labels), abs=1e-12)
        assert auc_pr(scores, labels) == pytest.approx(auc_pr(transformed, labels), abs=1e-12)

    def test_pair_universes(self):
        truth = AdjacencyMatrix(np.array([[0, 0], [1, 0]], dtype=np.int8))
        s = np.array([[0.0, 0.2], [0.9, 0.0]])
        ds, dl = directed_pairs(s, truth)
        assert ds.tolist() == [0.2, 0.9] and dl.tolist() == [0, 1]
        us, ul = undirected_pairs(s, truth)
        assert us.tolist() == [pytest.approx(1.1)] and ul.tolist() == [1]


class TestShd:
    def truth(self):
        return AdjacencyMatrix(np.array([[0, 0, 0], [1, 0, 0], [1, 0, 0]], dtype=np.int8))

    def test_identical_is_zero(self):
        assert shd(self.truth(), self.truth()) == 0

    def test_reversal_counts_one(self):
        t = AdjacencyMatrix(np.array([[0, 0], [1, 0]], dtype=np.int8))
        p = AdjacencyMatrix(np.array([[0, 1], [0, 0]], dtype=np.int8))
        assert shd(p, t) == 1

    def test_empty_prediction_costs_edge_count(self):
        t = self.truth()
        p = AdjacencyMatrix(np.zeros((3, 3), dtype=np.int8))
        assert shd(p, t) == t.edge_count()

    def test_symmetric(self, rng):
        from diffdag.graphs import PermutationMatrix, UpperTriangularEdges, compose

        for _ in range(50):
            mk = lambda: compose(
                PermutationMatrix(rng.permutation(6)),
                UpperTriangularEdges(np.triu((rng.random((6, 6)) < 0.4).astype(np.int8), 1)),
            )
            a, b = mk(), mk()
            assert shd(a, b) == shd(b, a)


class TestMechanismMse:
    def test_zero_for_identical(self, rng):
        x = rng.normal(size=(20, 4))
        assert mechanism_mse(x, x) == 0.0

    def test_unit_offset(self, rng):
        x = rng.normal(size=(20, 4))
        assert mechanism_mse(x, x + 1.0) == pytest.approx(1.0)


class TestPerturbationConfidence:
    def truth(self):
        rng = np.random.default_rng(5)
        from diffdag.graphs import PermutationMatrix, UpperTriangularEdges, compose

        u = np.triu((rng.random((10, 10)) < 0.25).astype(np.int8), 1)
        return compose(PermutationMatrix(rng.permutation(10)), UpperTriangularEdges(u))

    def test_zero_moves_is_exactly_one(self):
        mean, sd = perturbation_confidence(uniform_model(10), self.truth(), k_moved=0, trials=5)
        assert mean == 1.0 and sd == 0.0

    def test_uniform_model_stays_near_one(self):
        truth = self.truth()
        means = []
        for k in (2, 4):
            mean, _ = perturbation_confidence(uniform_model(10), truth, k_moved=k, trials=400, seed=1)
            means.append(mean)
        assert all(abs(m - 1.0) < 0.3 for m in means)

    @pytest.mark.parametrize(
        "kw, name",
        [
            ({"trials": 0}, "trials"),
            ({"trials": -2}, "trials"),
            ({"trials": 2.0}, "trials"),
            ({"k_moved": -1}, "k_moved"),
            ({"k_moved": 1.5}, "k_moved"),
            ({"k_moved": True}, "k_moved"),
        ],
    )
    def test_bad_count_names_the_argument(self, kw, name):
        args = {"k_moved": 1, "trials": 3, **kw}
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= {0 if name == 'k_moved' else 1}, got"):
            perturbation_confidence(uniform_model(10), self.truth(), **args)

    def test_k_larger_than_edges_rejected(self):
        with pytest.raises(ValueError, match="cannot move"):
            perturbation_confidence(uniform_model(10), self.truth(), k_moved=99)

    # both once divided by a clean score of 0 and raised a bare ZeroDivisionError
    def test_clean_score_of_zero_is_named(self):
        empty = AdjacencyMatrix(np.zeros((3, 3), dtype=np.int8))
        with pytest.raises(ValueError, match="^the clean edge set scores 0, so no ratio is defined$"):
            perturbation_confidence(uniform_model(3), empty, k_moved=0)
        chain = AdjacencyMatrix(np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=np.int8))
        model = uniform_model(3)
        model.edge_params.logits.value = np.full((3, 3), -800.0)
        with pytest.raises(ValueError, match="^the clean edge set scores 0"):
            perturbation_confidence(model, chain, k_moved=1)

    # once a bare IndexError from the boolean mask
    def test_other_node_count_is_named(self):
        with pytest.raises(ValueError, match="^node counts differ: model has 8, truth has 10$"):
            perturbation_confidence(uniform_model(8), self.truth(), k_moved=1)


class TestBenchSampling:
    def test_returns_positive_times(self):
        mean, sd = bench_sampling(uniform_model(10), repetitions=5, warmup=1)
        assert mean > 0 and sd >= 0

    # once a bare IndexError from the boolean mask
    def test_structure_aucs_on_other_node_count_is_named(self):
        with pytest.raises(ValueError, match="^node counts differ: model has 5, truth has 6$"):
            structure_aucs(uniform_model(5), self.random_truth())

    def test_structure_aucs_keys(self):
        out = structure_aucs(uniform_model(6), self.random_truth())
        assert set(out) == {"dir_auc_pr", "dir_auc_roc", "un_auc_pr", "un_auc_roc"}
        assert all(0.0 <= v <= 1.0 for v in out.values())

    def random_truth(self):
        rng = np.random.default_rng(2)
        from diffdag.graphs import PermutationMatrix, UpperTriangularEdges, compose

        u = np.triu((rng.random((6, 6)) < 0.4).astype(np.int8), 1)
        return compose(PermutationMatrix(rng.permutation(6)), UpperTriangularEdges(u))
