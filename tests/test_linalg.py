"""Integer matrix storage, the graph matrices, and the structural incidence identities."""

import dataclasses

import pytest

from xyzspectra.exactpoly import IntPoly, charpoly
from xyzspectra.graph import Graph, complete_graph, cycle_graph, line_graph
from xyzspectra.linalg import (
    IntMatrix,
    NotSquare,
    adjacency,
    laplacian,
    signless_laplacian,
)
from xyzspectra.verify import default_corpus


def incidence(g):
    """n x m vertex-edge incidence matrix as rows: column j marks the endpoints of edge j."""
    return [[1 if i in e else 0 for e in g.edges] for i in range(g.n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def matmul(a, b):
    """Schoolbook product of two matrices given as rows."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def plus_twice_identity(mat):
    """2I + mat, as rows."""
    return [[x + 2 if i == j else x for j, x in enumerate(row)] for i, row in enumerate(mat.entries)]


def as_rows(mat):
    return [list(row) for row in mat.entries]


class TestMatrixOps:
    def test_dimension_mismatch(self):
        # the one constructor is the one shape check: every row as long as there are rows
        for rows in ([[1, 2]], [[1, 2], [3]], [[]], [[1], [2]]):
            with pytest.raises(NotSquare):
                IntMatrix(rows)
        empty = IntMatrix([])
        assert (empty.entries, empty.rows) == ((), 0)
        assert charpoly(empty) == IntPoly.one()
        mat = IntMatrix(([1, 2], (3, 4)))
        assert (mat.entries, mat.rows) == (((1, 2), (3, 4)), 2)
        assert [f.name for f in dataclasses.fields(IntMatrix)] == ["entries"]

    def test_from_rows_rejects_non_int(self):
        for bad in (1.5, "3", None):
            with pytest.raises(TypeError):
                IntMatrix([[1, bad], [3, 4]])
        assert IntMatrix([[True, 2], [3, False]]).entries == ((1, 2), (3, 0))


class TestGraphMatrices:
    def test_signless_laplacian_k2(self):
        assert signless_laplacian(complete_graph(2)) == IntMatrix([[1, 1], [1, 1]])

    def test_incidence_k3(self):
        # edge order of the generator is lexicographic: (0,1), (0,2), (1,2)
        assert incidence(complete_graph(3)) == [[1, 1, 0], [1, 0, 1], [0, 1, 1]]

    def test_incidence_follows_edge_order(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert incidence(g) == [[1, 0, 1], [1, 1, 0], [0, 1, 1]]

    def test_signless_laplacian_c4_entrywise(self):
        c4 = cycle_graph(4)
        assert as_rows(signless_laplacian(c4)) == plus_twice_identity(adjacency(c4))

    def test_incidence_identity_k3(self):
        r = incidence(complete_graph(3))
        assert matmul(r, transpose(r)) == as_rows(signless_laplacian(complete_graph(3)))

    def test_symmetry(self):
        for g in (cycle_graph(5), complete_graph(4)):
            for m in (adjacency(g), laplacian(g), signless_laplacian(g)):
                assert as_rows(m) == transpose(m.entries)


def edge_list_definitions(g):
    """A, L and Q of g as nested lists, entry by entry from the edge list."""
    edges = {frozenset(e) for e in g.edges}
    deg = [sum(1 for e in g.edges if i in e) for i in range(g.n)]
    n = range(g.n)
    a = [[1 if frozenset((i, j)) in edges else 0 for j in n] for i in n]
    d = [[deg[i] if i == j else 0 for j in n] for i in n]
    lap = [[d[i][j] - a[i][j] for j in n] for i in n]
    q = [[d[i][j] + a[i][j] for j in n] for i in n]
    return {adjacency: a, laplacian: lap, signless_laplacian: q}


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
        assert mat.rows == g.n and all(len(row) == g.n for row in mat.entries)
        assert [list(row) for row in mat.entries] == rows, build.__name__
        assert all(type(x) is int for row in mat.entries for x in row)


@pytest.fixture(scope="module")
def corpus():
    """Every pinned graph with an edge: the default corpus and the regression graphs."""
    return [(name, g) for name, g in PINNED_GRAPHS if g.m >= 1]


class TestCorpusIdentities:
    """Structural identities over every pinned graph with an edge."""

    def test_incidence_gram_is_signless_laplacian(self, corpus):
        for name, g in corpus:
            r = incidence(g)
            assert matmul(r, transpose(r)) == as_rows(signless_laplacian(g)), name

    def test_incidence_cogram_is_line_graph_adjacency(self, corpus):
        for name, g in corpus:
            r = incidence(g)
            assert matmul(transpose(r), r) == plus_twice_identity(adjacency(line_graph(g))), name

    def test_laplacian_pair_sums_to_twice_degree(self, corpus):
        for name, g in corpus:
            deg = g.degrees()
            total = [[q + l for q, l in zip(rq, rl)]
                     for rq, rl in zip(signless_laplacian(g).entries, laplacian(g).entries)]
            assert total == [[2 * deg[i] if i == j else 0 for j in range(g.n)] for i in range(g.n)], name

    def test_trace_counts_edges_twice(self, corpus):
        for name, g in corpus:
            q = signless_laplacian(g).entries
            assert sum(q[i][i] for i in range(g.n)) == 2 * g.m, name
