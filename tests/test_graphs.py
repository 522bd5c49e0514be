import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import _acyclic_ref, enumerate_dags
from diffdag.graphs import (
    AcyclicityError,
    AdjacencyMatrix,
    PermutationMatrix,
    UpperTriangularEdges,
    compose,
    decompose,
    find_cycle,
    is_acyclic,
    load_edge_list,
    save_edge_list,
)


def random_upper(n, rng, p=0.5):
    return UpperTriangularEdges(np.triu(rng.random((n, n)) < p, 1).astype(np.int8))


class TestTypes:
    def test_adjacency_rejects_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            AdjacencyMatrix(np.eye(2, dtype=int))

    def test_adjacency_rejects_cycle(self):
        with pytest.raises(AcyclicityError):
            AdjacencyMatrix([[0, 1], [1, 0]])

    def test_permutation_rejects_non_bijection(self):
        with pytest.raises(ValueError, match="bijection"):
            PermutationMatrix([0, 0, 1])

    def test_permutation_matrix_one_per_row_and_column(self, rng):
        p = PermutationMatrix(rng.permutation(7))
        m = p.matrix()
        assert (m.sum(axis=0) == 1).all() and (m.sum(axis=1) == 1).all()

    def test_upper_triangular_rejects_lower(self):
        with pytest.raises(ValueError, match="upper"):
            UpperTriangularEdges([[0, 0], [1, 0]])


class TestCompose:
    def test_identity_permutation(self, rng):
        u = random_upper(6, rng)
        a = compose(PermutationMatrix.identity(6), u)
        np.testing.assert_array_equal(a.entries, u.entries)

    def test_two_node_swap(self):
        # perm (2,1) one-based; A[i][j] = U[perm[i]][perm[j]]
        a = compose(PermutationMatrix([1, 0]), UpperTriangularEdges([[0, 1], [0, 0]]))
        np.testing.assert_array_equal(a.entries, [[0, 0], [1, 0]])

    def test_matrix_identity_matches_index_form(self, rng):
        u = random_upper(5, rng)
        pi = PermutationMatrix(rng.permutation(5))
        a = compose(pi, u)
        p = pi.matrix()
        np.testing.assert_array_equal(a.entries, (p.T @ u.entries @ p).astype(np.int8))

    def test_closure_random_pairs(self, rng):
        # quantified closure property: >= 10^4 pairs across the stated sizes
        for n, trials in ((5, 5000), (20, 3000), (100, 2000)):
            for _ in range(trials):
                a = compose(PermutationMatrix(rng.permutation(n)), random_upper(n, rng, p=0.3))
                assert is_acyclic(a.entries)

    def test_size_mismatch(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            compose(PermutationMatrix.identity(3), random_upper(4, rng))


class TestDecompose:
    def test_chain_round_trip(self):
        a = AdjacencyMatrix([[0, 0, 0], [1, 0, 0], [0, 1, 0]])  # 1 -> 2 -> 3
        pi, u = decompose(a)
        assert compose(pi, u) == a

    def test_empty_graph(self):
        a = AdjacencyMatrix(np.zeros((4, 4), dtype=int))
        pi, u = decompose(a)
        assert not u.entries.any()
        assert compose(pi, u) == a

    def test_permuted_matrix_is_strictly_upper(self, rng):
        for _ in range(50):
            a = compose(PermutationMatrix(rng.permutation(8)), random_upper(8, rng))
            pi, u = decompose(a)
            inv = pi.inverse().perm
            np.testing.assert_array_equal(a.entries[np.ix_(inv, inv)], u.entries)
            assert not np.tril(u.entries).any()

    def test_all_four_node_dags_round_trip(self):
        dags = enumerate_dags(4)
        assert len(dags) == 543
        for m in dags:
            a = AdjacencyMatrix(m)
            pi, u = decompose(a)
            assert compose(pi, u) == a

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 9))
    def test_compose_of_decompose_is_the_identity(self, data, n):
        upper = np.triu(data.draw(arrays(np.int8, (n, n), elements=st.integers(0, 1))), 1)
        perm = np.array(data.draw(st.permutations(range(n))))
        a = AdjacencyMatrix(upper[np.ix_(perm, perm)])
        pi, u = decompose(a)
        back = compose(pi, u)
        assert back == a
        # compose trusts its own 0/1 int8 construction, and still owns a read-only copy
        assert back.entries.dtype == np.int8 and not back.entries.flags.writeable
        assert not np.shares_memory(back.entries, u.entries)

    def test_deterministic(self, rng):
        a = compose(PermutationMatrix(rng.permutation(9)), random_upper(9, rng))
        p1, u1 = decompose(a)
        p2, u2 = decompose(a)
        assert p1 == p2 and u1 == u2

    def test_cyclic_input_reports_cycle(self):
        m = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=np.int8)
        cycle = find_cycle(m)
        assert cycle is not None and cycle[0] == cycle[-1] and len(cycle) >= 3
        a = AdjacencyMatrix.__new__(AdjacencyMatrix)
        a.n = 3
        a.entries = m
        with pytest.raises(AcyclicityError, match="cycle"):
            decompose(a)


@st.composite
def _graphs(draw):
    """Random 0/1 matrices: DAGs, cyclic graphs without self-loops, anything."""
    n = draw(st.integers(1, 8))
    m = draw(arrays(np.int8, (n, n), elements=st.integers(0, 1)))
    kind = draw(st.sampled_from(["dag", "loopless", "any"]))
    if kind == "dag":
        perm = np.array(draw(st.permutations(range(n))))
        m = np.triu(m, 1)[np.ix_(perm, perm)]
    elif kind == "loopless":
        np.fill_diagonal(m, 0)
    return m


class TestFindCycle:
    @settings(max_examples=300, deadline=None)
    @given(m=_graphs())
    def test_returns_a_real_cycle_or_none(self, m):
        cycle = find_cycle(m)
        if _acyclic_ref(m):
            assert cycle is None
            return
        assert cycle is not None and cycle[0] == cycle[-1]
        body = cycle[:-1]
        assert len(body) >= 1 and len(set(body)) == len(body)
        # consecutive nodes u, v are an edge u -> v, i.e. m[v][u] = 1
        assert all(m[v, u] == 1 for u, v in zip(cycle, cycle[1:]))


class TestIsAcyclic:
    def test_zero_matrix(self):
        assert is_acyclic(np.zeros((5, 5), dtype=int))

    def test_two_cycle(self):
        assert not is_acyclic([[0, 1], [1, 0]])

    def test_self_loop(self):
        assert not is_acyclic([[1]])

    def test_triangular_then_permuted_always_acyclic(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 12))
            perm = rng.permutation(n)
            m = np.triu((rng.random((n, n)) < 0.5).astype(np.int8), 1)
            assert is_acyclic(m[np.ix_(perm, perm)])

    def test_matches_brute_force_on_three_nodes(self):
        assert len(enumerate_dags(3)) == 25
        import itertools

        cells = [(i, j) for i in range(3) for j in range(3) if i != j]
        count = 0
        for bits in itertools.product((0, 1), repeat=6):
            m = np.zeros((3, 3), dtype=np.int8)
            for (i, j), b in zip(cells, bits):
                m[i, j] = b
            count += is_acyclic(m)
        assert count == 25


class TestEdgeListIO:
    def test_direction_convention(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("1 2\n3 2\n")
        a = load_edge_list(path)
        # u v means u -> v, stored as entries[v][u] = 1
        np.testing.assert_array_equal(a.entries, [[0, 0, 0], [1, 0, 1], [0, 0, 0]])

    def test_round_trip(self, tmp_path, rng):
        a = compose(PermutationMatrix(rng.permutation(7)), random_upper(7, rng))
        path = tmp_path / "g.edges"
        save_edge_list(a, path)
        assert load_edge_list(path, n=7) == a

    def test_bad_line_reports_number(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("1 2\n1 2 3\n")
        with pytest.raises(ValueError, match=":2"):
            load_edge_list(path)

    def test_out_of_range_index(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("1 5\n")
        with pytest.raises(ValueError, match="out of range"):
            load_edge_list(path, n=3)

    def test_self_loop_names_the_line_and_node(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("1 2\n# a comment\n3 3\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: self-loop on node 3$"):
            load_edge_list(path)

    def test_cycle_names_the_file_and_its_ids(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("1 2\n2 3\n3 2\n")
        with pytest.raises(AcyclicityError, match=re.escape(f"{path}: edge list is cyclic")) as info:
            load_edge_list(path)
        assert info.value.cycle == [2, 3, 2]
        assert str(info.value).endswith("[2, 3, 2]")

