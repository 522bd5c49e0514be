import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffdag import semdata
from diffdag.graphs import AdjacencyMatrix, is_acyclic
from diffdag.semdata import (
    GenerationError,
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

    @pytest.mark.parametrize("kind", [3, None, b"er", ["er"]])
    def test_kind_that_is_not_a_string(self, kind):
        with pytest.raises(ValueError, match="^graph_kind must be "):
            GenSpec(graph_kind=kind, n=4, m=3)

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
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            GenSpec(graph_kind="er", n=4, m=3, seed=-1)

    @pytest.mark.parametrize(("field", "value"), [("n", 1), ("N", 2)])
    def test_too_small_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= "):
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

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_er_matches_pair_list_reference(self, data, seed):
        n = data.draw(st.integers(2, 40))
        m = data.draw(st.integers(1, n * (n - 1) // 2))
        rng = np.random.default_rng(seed)
        order = rng.permutation(n)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        want = np.zeros((n, n), dtype=np.int8)
        for k in rng.choice(len(pairs), size=m, replace=False):
            p, q = pairs[k]
            want[order[q], order[p]] = 1
        assert np.array_equal(semdata._er_graph(n, m, np.random.default_rng(seed)).entries, want)


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


def _reference_rbf_gram(x):
    sq = np.sum(x * x, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d2, 0.0, out=d2)
    return np.exp(-0.5 * d2)


def _reference_gp_function_sample(parent_values, rng, seed_echo=None):
    """The GP draw as first written: out-of-place gram, jitter * eye added."""
    uniq, inverse = np.unique(parent_values, axis=0, return_inverse=True)
    inverse = np.asarray(inverse).ravel()
    gram = _reference_rbf_gram(uniq)
    z = rng.standard_normal(uniq.shape[0])
    jitter = 1e-8
    while jitter <= 1e-2:
        try:
            chol = np.linalg.cholesky(gram + jitter * np.eye(uniq.shape[0]))
            return (chol @ z)[inverse]
        except np.linalg.LinAlgError:
            jitter *= 2.0
    raise GenerationError(f"covariance factorization failed up to jitter 1e-2 (seed={seed_echo})")


@st.composite
def _parent_columns(draw):
    """1-4 parent columns over 3-200 rows at scales 1e-3..1e3, some rows
    repeated and possibly one column constant."""
    rows = draw(st.integers(3, 200))
    cols = draw(st.integers(1, 4))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = scale * rng.standard_normal((rows, cols))
    repeats = draw(st.integers(0, rows - 1))
    x[:repeats] = x[rng.integers(repeats, rows, size=repeats)]
    if draw(st.booleans()):
        x[:, draw(st.integers(0, cols - 1))] = scale * draw(st.floats(-2.0, 2.0))
    return x


def _draw_or_error(sample, x, seed):
    try:
        return sample(x, np.random.default_rng(seed), seed_echo=seed)
    except GenerationError as exc:
        return str(exc)


class TestGpDraw:
    """The in-place GP draw against the out-of-place one it replaced."""

    @settings(max_examples=120, deadline=None)
    @given(x=_parent_columns(), seed=st.integers(0, 2**32 - 1))
    def test_bit_identical_to_reference(self, x, seed):
        # both sides run in this process, so at whatever BLAS thread count it has
        ours = _draw_or_error(gp_function_sample, x, seed)
        ref = _draw_or_error(_reference_gp_function_sample, x, seed)
        assert type(ours) is type(ref)
        if isinstance(ref, str):
            assert ours == ref
        else:
            assert np.array_equal(ours, ref)

    @pytest.mark.parametrize(("kind", "n", "m"), [("er", 10, 10), ("sf", 20, 40), ("er", 50, 50)])
    def test_generate_bit_identical_to_reference(self, monkeypatch, kind, n, m):
        spec = GenSpec(graph_kind=kind, n=n, m=m, N=600, seed=3)
        ours = generate(spec).X
        monkeypatch.setattr(semdata, "gp_function_sample", _reference_gp_function_sample)
        assert np.array_equal(ours, generate(spec).X)

    @staticmethod
    def _failing_cholesky(monkeypatch, failures):
        """Patch numpy's Cholesky to fail ``failures`` times; returns a copy
        of each matrix it was handed."""
        real = np.linalg.cholesky
        seen = []

        def cholesky(a):
            seen.append(np.array(a, copy=True))
            if len(seen) <= failures:
                raise np.linalg.LinAlgError("forced")
            return real(a)

        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        return seen, real

    def test_each_retry_sees_the_gram_plus_its_own_jitter(self, monkeypatch, rng):
        x = rng.normal(size=(30, 2))
        gram = _reference_rbf_gram(np.unique(x, axis=0))
        seen, real = self._failing_cholesky(monkeypatch, 5)
        f = gp_function_sample(x, np.random.default_rng(7))
        assert len(seen) == 6
        off = ~np.eye(gram.shape[0], dtype=bool)
        for k, a in enumerate(seen):
            assert np.array_equal(a[off], gram[off])
            # doubled from 1e-8 each time, not summed over the failed tries
            assert np.array_equal(np.diag(a), np.diag(gram) + 1e-8 * 2.0**k)
        z = np.random.default_rng(7).standard_normal(gram.shape[0])
        order = np.unique(x, axis=0, return_inverse=True)[1].ravel()
        assert np.array_equal(f, (real(gram + 1e-8 * 2.0**5 * np.eye(gram.shape[0])) @ z)[order])

    def test_twenty_failures_raise_naming_the_seed(self, monkeypatch, rng):
        seen, _ = self._failing_cholesky(monkeypatch, 20)
        with pytest.raises(GenerationError, match=r"jitter 1e-2 \(seed=42\)"):
            gp_function_sample(rng.normal(size=(10, 1)), np.random.default_rng(0), seed_echo=42)
        assert len(seen) == 20

    def test_draw_holds_the_gram_and_at_most_one_more_array(self):
        n = 500
        x = np.random.default_rng(0).normal(size=(n, 2))  # distinct rows
        gp_function_sample(x, np.random.default_rng(1))  # first-call caches stay out of the peak
        tracemalloc.start()
        try:
            gp_function_sample(x, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the gram and one more N x N array (x x^T while building, the factor
        # while factorizing); numpy's Cholesky work buffer is allocated
        # outside Python's allocator, so tracemalloc does not see it
        assert peak <= 2.5 * n * n * 8


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
            (lambda meta: meta.pop("splits"), "d: meta.json has no splits$"),
            (lambda meta: meta["splits"].pop("val"), "d: meta.json has no splits.val$"),
        ],
        ids=["val-out-of-range", "negative-index", "overlap", "repeat", "non-integer", "shape", "no-splits", "no-val"],
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

    def test_generator_meta_is_the_spec_in_field_order(self):
        meta = generate(GenSpec(graph_kind="er", n=4, m=3, N=30, seed=2)).meta
        assert json.dumps(meta["generator"]) == (
            '{"graph_kind": "er", "n": 4, "m": 3, "N": 30, "noise_std": 1.0, "root_std": 1.0, "seed": 2}'
        )

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_load_rejects_non_finite_data_naming_the_row(self, tmp_path, cell):
        ds = generate(GenSpec(graph_kind="er", n=6, m=8, N=120, seed=5))
        save_dataset(ds, tmp_path / "d")
        path = tmp_path / "d" / "data.csv"
        lines = path.read_text().splitlines(keepends=True)
        row = int(ds.splits.test[0])
        cells = lines[row].rstrip("\n").split(",")
        cells[2] = cell
        lines[row] = ",".join(cells) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=rf"data.csv: row {row} holds a non-finite value$"):
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

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_reported_by_line(self, tmp_path, cell):
        path = tmp_path / "obs.csv"
        path.write_text(f"a,b\n1.0,2.0\n3.0,{cell}\n5.0,6.0\n")
        (tmp_path / "t.edges").write_text("1 2\n")
        with pytest.raises(ParseError, match=rf"obs.csv:3: non-finite cell in '3.0,{cell}'"):
            load_csv(path, tmp_path / "t.edges")

    def test_non_numeric_cell_reported(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        (tmp_path / "t.edges").write_text("1 2\n")
        with pytest.raises(ParseError, match="non-numeric"):
            load_csv(path, tmp_path / "t.edges")
