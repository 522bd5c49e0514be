import json

import numpy as np
import pytest

from diffdag.graphs import AdjacencyMatrix, is_acyclic
from diffdag.semdata import (
    GenSpec,
    ParseError,
    SemDataset,
    gen_graph,
    gen_mechanisms_and_sample,
    generate,
    gp_function_sample,
    load_csv,
    load_dataset,
    make_splits,
    save_dataset,
)


class TestGenSpec:
    def test_er_edge_budget_checked(self):
        with pytest.raises(ValueError, match="edge count"):
            GenSpec(graph_kind="er", n=4, m=7)

    def test_bad_kind(self):
        with pytest.raises(ValueError, match="graph_kind"):
            GenSpec(graph_kind="ws", n=4, m=3)

    def test_nonpositive_noise(self):
        with pytest.raises(ValueError, match="noise_std"):
            GenSpec(graph_kind="er", n=4, m=3, noise_std=0.0)

    # NaN once passed and gave a NaN dataset; inf gave NaN after standardising
    @pytest.mark.parametrize("name", ["noise_std", "root_std"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_nonpositive_std(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            GenSpec(graph_kind="er", n=4, m=3, **{name: value})

    # N=3.5 once failed with a TypeError inside generate
    @pytest.mark.parametrize("name", ["n", "m", "N", "seed"])
    @pytest.mark.parametrize("value", [3.5, True, "4"])
    def test_integer_fields_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            GenSpec(**{"graph_kind": "er", "n": 4, "m": 3, name: value})

    def test_numpy_integers_accepted(self):
        spec = GenSpec(graph_kind="er", n=np.int64(4), m=np.int32(3), N=np.int64(30), seed=np.uint32(2))
        assert generate(spec).X.shape == (30, 4)

    # seed=-1 once failed inside numpy, naming no field
    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            GenSpec(graph_kind="er", n=4, m=3, seed=-1)

    @pytest.mark.parametrize(("field", "value"), [("n", 1), ("N", 2)])
    def test_too_small_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be >= "):
            GenSpec(**{"graph_kind": "er", "n": 4, "m": 3, field: value})


class TestGenGraph:
    def test_er_exact_edge_count(self):
        a = gen_graph(GenSpec(graph_kind="er", n=10, m=10))
        assert a.edge_count() == 10
        assert is_acyclic(a.entries)

    def test_er_two_nodes_single_edge(self):
        a = gen_graph(GenSpec(graph_kind="er", n=2, m=1))
        assert a.edge_count() == 1

    def test_sf_roughly_m_edges(self):
        a = gen_graph(GenSpec(graph_kind="sf", n=50, m=200))
        assert is_acyclic(a.entries)
        assert 0.7 * 200 <= a.edge_count() <= 200

    def test_sf_heavier_degree_tail_than_er(self):
        wins = 0
        for seed in range(100):
            er = gen_graph(GenSpec(graph_kind="er", n=100, m=100, seed=seed))
            sf = gen_graph(GenSpec(graph_kind="sf", n=100, m=100, seed=seed))
            deg = lambda a: (a.entries.sum(0) + a.entries.sum(1)).max()
            wins += deg(sf) > deg(er)
        assert wins >= 90

    def test_reproducible(self):
        spec = GenSpec(graph_kind="er", n=8, m=12, seed=3)
        assert gen_graph(spec) == gen_graph(spec)


class TestMechanisms:
    def test_empty_truth_pure_noise(self):
        spec = GenSpec(graph_kind="er", n=5, m=1, N=500, seed=0)
        truth = AdjacencyMatrix(np.zeros((5, 5), dtype=np.int8))
        ds = gen_mechanisms_and_sample(truth, spec)
        assert ds.X.shape == (500, 5)
        # standardized columns: means vanish, well inside 4*noise_std/sqrt(N)
        assert np.abs(ds.X.mean(axis=0)).max() < 4 * spec.noise_std / np.sqrt(spec.N)

    def test_er_10_10_shapes_and_splits(self):
        ds = generate(GenSpec(graph_kind="er", n=10, m=10, N=1000, seed=1))
        assert ds.X.shape == (1000, 10)
        assert len(ds.splits.train) == 800
        assert len(ds.splits.val) == 100
        assert len(ds.splits.test) == 100
        all_idx = np.concatenate([ds.splits.train, ds.splits.val, ds.splits.test])
        np.testing.assert_array_equal(np.sort(all_idx), np.arange(1000))

    def test_gp_draw_is_a_function(self, rng):
        base = rng.normal(size=(40, 2))
        doubled = np.concatenate([base, base], axis=0)
        f = gp_function_sample(doubled, np.random.default_rng(0))
        np.testing.assert_allclose(f[:40], f[40:], atol=1e-6)

    def test_chain_child_is_smooth_function_of_parent(self):
        # 1 -> 2 with (nearly) no noise: nearby parent values give nearby
        # child values once the shared GP function is applied.
        truth = AdjacencyMatrix(np.array([[0, 0], [1, 0]], dtype=np.int8))
        spec = GenSpec(graph_kind="er", n=2, m=1, N=800, noise_std=1e-6, seed=4)
        ds = gen_mechanisms_and_sample(truth, spec)
        order = np.argsort(ds.X[:, 0])
        x1, x2 = ds.X[order, 0], ds.X[order, 1]
        close = np.diff(x1) < 0.005
        assert close.sum() > 50
        assert np.abs(np.diff(x2))[close].max() < 0.25

    def test_determinism(self):
        spec = GenSpec(graph_kind="sf", n=12, m=24, N=300, seed=9)
        a = generate(spec)
        b = generate(spec)
        np.testing.assert_array_equal(a.X, b.X)
        assert a.truth == b.truth
        np.testing.assert_array_equal(a.splits.train, b.splits.train)

    def test_mean_4sigma_bound_on_raw_roots(self):
        # splits partition sizes round to +-1 on awkward N
        s = make_splits(853, seed=0)
        assert len(s.train) == 682 and len(s.val) == 85 and len(s.test) == 86


class TestDatasetIO:
    def test_save_load_round_trip_bitwise(self, tmp_path):
        ds = generate(GenSpec(graph_kind="er", n=6, m=8, N=120, seed=5))
        save_dataset(ds, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        np.testing.assert_array_equal(back.X, ds.X)
        assert back.truth == ds.truth
        np.testing.assert_array_equal(back.splits.test, ds.splits.test)
        assert back.name == ds.name
        assert back.meta["standardized"] is True

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda meta: meta["splits"]["val"].append(10**6), "splits.val index 1000000 is outside"),
            (lambda meta: meta["splits"]["test"].append(-1), "splits.test index -1 is outside"),
            (lambda meta: meta["splits"]["val"].append(meta["splits"]["train"][0]), "splits.train and splits.val both"),
            (lambda meta: meta["splits"]["test"].append(meta["splits"]["test"][0]), "splits.test lists row .* twice"),
            (lambda meta: meta["splits"].update(train=[0.5]), "splits.train must be a list of integer"),
            (lambda meta: meta.update(shape=[7, 9]), r"shape \[7, 9\] does not match data.csv's \[120, 6\]"),
        ],
        ids=["val-out-of-range", "negative-index", "overlap", "repeat", "non-integer", "shape"],
    )
    def test_load_rejects_bad_meta(self, tmp_path, edit, message):
        ds = generate(GenSpec(graph_kind="er", n=6, m=8, N=120, seed=5))
        save_dataset(ds, tmp_path / "d")
        path = tmp_path / "d" / "meta.json"
        meta = json.loads(path.read_text())
        edit(meta)
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=message):
            load_dataset(tmp_path / "d")

    def test_load_csv_sachs_shape(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(853, 11))
        path = tmp_path / "obs.csv"
        np.savetxt(path, data, delimiter=",", fmt="%.17g")
        edges = tmp_path / "truth.edges"
        pairs = set()
        while len(pairs) < 17:
            u, v = rng.integers(1, 12, size=2)
            if u < v:
                pairs.add((int(u), int(v)))
        edges.write_text("".join(f"{u} {v}\n" for u, v in sorted(pairs)))
        ds = load_csv(path, edges, seed=0, name="sachs-shaped")
        assert ds.X.shape == (853, 11)
        assert ds.truth.edge_count() == 17
        assert len(ds.splits.train) == 682

    def test_load_csv_header_skipped(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        edges = tmp_path / "t.edges"
        edges.write_text("1 2\n")
        ds = load_csv(path, edges, standardize=False)
        assert ds.X.shape == (3, 2)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("")
        (tmp_path / "t.edges").write_text("1 2\n")
        with pytest.raises(ParseError, match="empty"):
            load_csv(path, tmp_path / "t.edges")

    def test_ragged_rows_report_line(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("1.0,2.0\n3.0\n")
        (tmp_path / "t.edges").write_text("1 2\n")
        with pytest.raises(ParseError, match=":2"):
            load_csv(path, tmp_path / "t.edges")

    def test_non_numeric_cell_reported(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        (tmp_path / "t.edges").write_text("1 2\n")
        with pytest.raises(ParseError, match="non-numeric"):
            load_csv(path, tmp_path / "t.edges")
