"""Integer matrices and the structural incidence identities."""

import pytest

from xyzspectra.graph import Graph, complete_graph, cycle_graph, line_graph
from xyzspectra.linalg import (
    DimensionMismatch,
    IntMatrix,
    adjacency,
    degree_matrix,
    incidence,
    laplacian,
    signless_laplacian,
)
from xyzspectra.verify import default_corpus


class TestMatrixOps:
    def test_all_ones_square(self):
        j = IntMatrix.all_ones(2, 2)
        assert j * j == j + j

    def test_identity_neutral(self):
        m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert IntMatrix.identity(3) * m == m
        assert m * IntMatrix.identity(3) == m

    def test_add_sub_scalar(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        b = IntMatrix.from_rows([[5, 6], [7, 8]])
        assert a + a + a == IntMatrix.from_rows([[3, 6], [9, 12]])
        with pytest.raises(TypeError):
            3 * a  # matrices have no scalar product

    def test_transpose(self):
        a = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert a.transpose() == IntMatrix.from_rows([[1, 4], [2, 5], [3, 6]])
        assert a.transpose().transpose() == a

    def test_dimension_mismatch(self):
        a = IntMatrix.from_rows([[1, 2]])
        b = IntMatrix.from_rows([[1, 2]])
        with pytest.raises(DimensionMismatch):
            a * b
        with pytest.raises(DimensionMismatch):
            a + IntMatrix.from_rows([[1], [2]])

    def test_trace(self):
        assert IntMatrix.from_rows([[2, 9], [9, 5]]).trace() == 7

    def test_from_rows_rejects_non_int(self):
        for bad in (1.5, "3", None):
            with pytest.raises(TypeError):
                IntMatrix.from_rows([[1, bad]])
        assert IntMatrix.from_rows([[True, 2]]).entries == ((1, 2),)


class TestGraphMatrices:
    def test_signless_laplacian_k2(self):
        assert signless_laplacian(complete_graph(2)) == IntMatrix.from_rows([[1, 1], [1, 1]])

    def test_incidence_k3(self):
        # edge order of the generator is lexicographic: (0,1), (0,2), (1,2)
        r = incidence(complete_graph(3))
        assert r == IntMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 1]])

    def test_incidence_follows_edge_order(self):
        from xyzspectra.graph import from_edge_list

        g = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
        assert incidence(g) == IntMatrix.from_rows([[1, 0, 1], [1, 1, 0], [0, 1, 1]])

    def test_signless_laplacian_c4_entrywise(self):
        c4 = cycle_graph(4)
        i4 = IntMatrix.identity(4)
        assert signless_laplacian(c4) == i4 + i4 + adjacency(c4)

    def test_incidence_identity_k3(self):
        r = incidence(complete_graph(3))
        assert r * r.transpose() == signless_laplacian(complete_graph(3))

    def test_symmetry(self):
        for g in (cycle_graph(5), complete_graph(4)):
            for m in (adjacency(g), laplacian(g), signless_laplacian(g)):
                assert m == m.transpose()


def edge_list_definitions(g):
    """A, D, L and Q of g as nested lists, entry by entry from the edge list."""
    edges = {frozenset(e) for e in g.edges}
    deg = [sum(1 for e in g.edges if i in e) for i in range(g.n)]
    n = range(g.n)
    a = [[1 if frozenset((i, j)) in edges else 0 for j in n] for i in n]
    d = [[deg[i] if i == j else 0 for j in n] for i in n]
    lap = [[d[i][j] - a[i][j] for j in n] for i in n]
    q = [[d[i][j] + a[i][j] for j in n] for i in n]
    return {adjacency: a, degree_matrix: d, laplacian: lap, signless_laplacian: q}


K4_EDGES = tuple((a, b) for a in range(4) for b in range(a + 1, 4))
PINNED_GRAPHS = default_corpus() + [
    # the regression graphs: r = 1 with m < n, and disconnected graphs
    ("K2", Graph(2, ((0, 1),))),
    ("3K2", Graph(6, ((0, 1), (2, 3), (4, 5)))),
    ("2C3", Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))),
    ("C3+C4", Graph(7, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)))),
    ("2K4", Graph(8, K4_EDGES + tuple((a + 4, b + 4) for a, b in K4_EDGES))),
    ("edgeless", Graph(3, ())),
    ("K1", Graph(1, ())),
    # irregular, with edges written high endpoint first
    ("P4", Graph(4, ((3, 2), (2, 1), (1, 0)))),
]


@pytest.mark.parametrize("g", [g for _, g in PINNED_GRAPHS], ids=[name for name, _ in PINNED_GRAPHS])
def test_graph_matrices_match_edge_list_definitions(g):
    for build, rows in edge_list_definitions(g).items():
        mat = build(g)
        assert (mat.rows, mat.cols) == (g.n, g.n)
        assert [list(row) for row in mat.entries] == rows, build.__name__
        assert all(type(x) is int for row in mat.entries for x in row)


@pytest.fixture(scope="module")
def corpus():
    return default_corpus()


class TestCorpusIdentities:
    """Structural identities over the whole default corpus."""

    def test_incidence_gram_is_signless_laplacian(self, corpus):
        for _, g in corpus:
            r = incidence(g)
            assert r * r.transpose() == signless_laplacian(g)

    def test_incidence_cogram_is_line_graph_adjacency(self, corpus):
        for _, g in corpus:
            r = incidence(g)
            lhs = r.transpose() * r
            im = IntMatrix.identity(g.m)
            rhs = adjacency(line_graph(g)) + im + im
            assert lhs == rhs

    def test_laplacian_pair_sums_to_twice_degree(self, corpus):
        for _, g in corpus:
            d = degree_matrix(g)
            assert signless_laplacian(g) + laplacian(g) == d + d

    def test_trace_counts_edges_twice(self, corpus):
        for _, g in corpus:
            assert signless_laplacian(g).trace() == 2 * g.m
