"""Construction of the 64 vertex-edge transformations."""

import hashlib
import random

import pytest

from xyzspectra import transform
from xyzspectra.graph import (
    EmptyEdgeSet,
    Graph,
    InvalidParameter,
    circulant_graph,
    complement,
    complete_graph,
    cycle_graph,
    format_edge_list,
    generate,
    line_graph,
    petersen_graph,
)
from xyzspectra.formulas import list_cases
from xyzspectra.transform import transform_size, xyz_transform
from xyzspectra.verify import default_corpus, run_corpus

from helpers import case

# SHA-256 of the edge lists of all 64 transforms of K4, the Petersen graph and C5, in that order
TRANSFORMS_SHA256 = "8015df7d2c653c8f8f91ec4d1562432100cd944a0220ef02a604a91b1221dc42"
# SHA-256 of small_rule_blob(): the edge lists of the 64 transforms of K2, K3, 3K2 and 2C3, every
# symbol's part and cross pairs on a one-vertex and two one-edge graphs, and small generated graphs
SMALL_RULE_SHA256 = "06b4a9677018d57f1d37448fce2004c5eebec99752130f94b0cadd1f715d196a"
GENERATED = [
    *[("cycle", [k]) for k in range(3, 9)], *[("complete", [k]) for k in range(2, 8)],
    *[("complete_bipartite", [a]) for a in range(1, 5)], *[("hypercube", [d]) for d in range(1, 5)],
    ("petersen", []), ("circulant", [5, 1]), ("circulant", [6, 1, 2]), ("circulant", [6, 3]),
    ("circulant", [7, 1, 3]), ("circulant", [8, 1, 4]), ("circulant", [8, 2]), ("circulant", [9, 3, 1]),
]


def part_graph(g, s):
    """The vertex part of symbol s, as a graph on g's vertices."""
    return Graph(g.n, transform._part(g, "x" + s))


def cross_edges(g, z):
    """The cross pairs of symbol z, as (vertex index, edge index)."""
    return [(v, j - g.n) for v, j in transform._part(g, "z" + z)]


def small_rule_blob():
    three_k2 = Graph(6, [(0, 1), (2, 3), (4, 5)])  # r = 1: edgeless line graph, m < n
    two_c3 = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])  # disconnected
    blob = [format_edge_list(xyz_transform(g, c))
            for g in (complete_graph(2), complete_graph(3), three_k2, two_c3) for c in list_cases()]
    blob += [format_edge_list(part_graph(g, s)) + f"{cross_edges(g, s)}\n"
             for g in (Graph(1, ()), Graph(2, ((0, 1),)), Graph(3, ((2, 0),))) for s in transform.SYMBOLS]
    return "".join(blob + [format_edge_list(generate(kind, params)) for kind, params in GENERATED])


def edge_key_set(g):
    return {frozenset(e) for e in g.edges}


class TestXyzCase:
    def test_parse_roundtrip(self):
        assert str(case("+0-")) == "+0-"

    def test_bad_symbol(self):
        with pytest.raises(InvalidParameter):
            case("ab+")
        with pytest.raises(InvalidParameter):
            case("++")

    def test_all_distinct(self):
        assert len(set(list_cases())) == 64


class TestPartGraph:
    def test_empty_part(self):
        g = part_graph(cycle_graph(4), "0")
        assert (g.n, g.m) == (4, 0)

    def test_complete_part(self):
        g = part_graph(cycle_graph(4), "1")
        assert edge_key_set(g) == edge_key_set(complete_graph(4))

    def test_self_part(self):
        c4 = cycle_graph(4)
        assert transform._part(c4, "x+") is c4.edges

    def test_complement_part(self):
        c5 = cycle_graph(5)
        assert edge_key_set(part_graph(c5, "-")) == edge_key_set(complement(c5))


class TestCrossEdges:
    def test_single_edge_incident(self):
        assert cross_edges(complete_graph(2), "+") == [(0, 0), (1, 0)]

    def test_single_edge_non_incident(self):
        assert cross_edges(complete_graph(2), "-") == []

    def test_k3_non_incident_brute_force(self):
        g = complete_graph(3)
        pairs = cross_edges(g, "-")
        assert len(pairs) == 3
        for v, j in pairs:
            assert v not in g.edges[j]
        # each vertex is non-incident to exactly one edge of a triangle
        assert sorted(v for v, _ in pairs) == [0, 1, 2]

    def test_all_and_none(self):
        g = cycle_graph(4)
        assert cross_edges(g, "0") == []
        assert len(cross_edges(g, "1")) == g.n * g.m

    def test_incident_complements_non_incident(self):
        g = cycle_graph(5)
        inc = set(cross_edges(g, "+"))
        non = set(cross_edges(g, "-"))
        assert inc & non == set()
        assert len(inc) + len(non) == g.n * g.m


class TestTransform:
    def test_k3_001_is_balanced_biclique(self):
        t = xyz_transform(complete_graph(3), case("001"))
        assert t.n == 6
        expected = {frozenset((v, 3 + j)) for v in range(3) for j in range(3)}
        assert edge_key_set(t) == expected

    def test_k2_00plus_is_path(self):
        t = xyz_transform(complete_graph(2), case("00+"))
        assert t.n == 3
        assert edge_key_set(t) == {frozenset((0, 2)), frozenset((1, 2))}

    def test_k3_111_is_complete(self):
        t = xyz_transform(complete_graph(3), case("111"))
        assert t.n == 6
        assert t.m == 15

    def test_c4_total_graph_is_four_regular(self):
        t = xyz_transform(cycle_graph(4), case("+++"))
        assert t.n == 8
        assert t.degrees() == [4] * 8

    def test_000_has_no_edges(self):
        t = xyz_transform(cycle_graph(5), case("000"))
        assert (t.n, t.m) == (10, 0)

    def test_vertex_count_all_cases(self):
        for g in (complete_graph(3), cycle_graph(4)):
            for c in list_cases():
                assert xyz_transform(g, c).n == g.n + g.m

    def test_z0_is_disjoint_union(self):
        g = cycle_graph(5)
        for xs in "01+-":
            for ys in "01+-":
                t = xyz_transform(g, case(f"{xs}{ys}0"))
                for u, v in t.edges:
                    # no edge joins the vertex part to the edge part
                    assert (u < g.n) == (v < g.n)

    def test_edgeless_input_rejected(self):
        with pytest.raises(EmptyEdgeSet):
            xyz_transform(Graph(3, ()), case("+++"))

    def test_edge_lists_pinned(self):
        blob = "".join(format_edge_list(xyz_transform(g, c))
                       for g in (complete_graph(4), petersen_graph(), cycle_graph(5))
                       for c in list_cases())
        assert hashlib.sha256(blob.encode()).hexdigest() == TRANSFORMS_SHA256

    def test_small_graphs_parts_and_generators_pinned(self):
        # the complement rule's edge cases: one vertex, one edge, r = 1, disconnected, K_n and C_k
        assert hashlib.sha256(small_rule_blob().encode()).hexdigest() == SMALL_RULE_SHA256

    def test_line_graph_only_for_y_plus_or_minus(self, monkeypatch):
        # y = 0 and y = 1 read only m; the 32 cases with y = + or - share one line graph
        calls = []

        def counting(g):
            calls.append(g)
            return line_graph(g)

        monkeypatch.setattr(transform, "line_graph", counting)
        transform._part.cache_clear()
        k4, c5 = complete_graph(4), cycle_graph(5)
        assert run_corpus([("K4", k4), ("C5", c5)]).all_match
        assert calls == [k4, c5]

    def test_irregular_input_accepted(self):
        # construction does not require regularity
        p3 = Graph(3, [(0, 1), (1, 2)])
        t = xyz_transform(p3, case("00+"))
        assert t.n == 5


# r = 1 with m < n, and an irregular path, beside a clique and a cycle
CACHE_GRAPHS = {
    "K4": complete_graph(4),
    "C5": cycle_graph(5),
    "3K2": Graph(6, [(0, 1), (2, 3), (4, 5)]),
    "P3": Graph(3, [(0, 1), (1, 2)]),
}


def seeded_regular_graphs(count=30, seed=20131019):
    """Random circulants on random offset sets, relabelled (a random vertex permutation, edge
    order and orientation), every third one united with a relabelled copy of itself."""
    rng = random.Random(seed)

    def relabelled(g):
        perm = rng.sample(range(g.n), g.n)
        edges = [(perm[u], perm[v])[::rng.choice((1, -1))] for u, v in g.edges]
        rng.shuffle(edges)
        return Graph(g.n, tuple(edges))

    graphs = []
    for i in range(count):
        k = rng.randint(3, 12)
        g = relabelled(circulant_graph(k, rng.sample(range(1, k // 2 + 1), rng.randint(1, k // 2))))
        if i % 3 == 2:
            g = Graph(2 * k, g.edges + tuple((u + k, v + k) for u, v in relabelled(g).edges))
        graphs.append(g)
    return graphs


def fresh_transform(g, c):
    """xyz_transform with no part kept from an earlier call."""
    transform._part.cache_clear()
    return xyz_transform(g, c)


class TestPartsCache:
    @pytest.mark.parametrize("name", sorted(CACHE_GRAPHS))
    def test_every_case_equals_a_fresh_build(self, name):
        g = CACHE_GRAPHS[name]
        cases = list_cases()
        fresh = [fresh_transform(g, c) for c in cases]
        transform._part.cache_clear()
        assert [xyz_transform(g, c) for c in cases] == fresh
        assert [xyz_transform(g, c) for c in reversed(cases)] == fresh[::-1]

    def test_alternating_graphs(self):
        names = sorted(CACHE_GRAPHS)
        fresh = {(a, c): fresh_transform(CACHE_GRAPHS[a], c) for a in names for c in list_cases()}
        for a, b in zip(names, names[1:] + names[:1]):
            for c in list_cases():
                for name in (a, b):
                    assert xyz_transform(CACHE_GRAPHS[name], c) == fresh[name, c], (name, str(c))

    def test_unchecked_build_is_a_valid_graph(self):
        # xyz_transform skips Graph's checks; the checked constructor accepts every result
        graphs = [g for _, g in default_corpus()] + list(CACHE_GRAPHS.values()) + seeded_regular_graphs()
        for g in graphs:
            for c in list_cases():
                t = xyz_transform(g, c)
                assert Graph(t.n, t.edges) == t, (g, str(c))

    def test_size_without_building(self):
        graphs = [g for _, g in default_corpus()] + list(CACHE_GRAPHS.values())
        for g in graphs:
            for c in list_cases():
                t = xyz_transform(g, c)
                assert transform_size(g, c) == (t.n, t.m), str(c)


class TestComplementaryCase:
    BAR = {"0": "1", "1": "0", "+": "-", "-": "+"}

    def test_swapped_symbols_build_the_complement(self):
        # c-bar swaps 0 with 1 and + with - in every symbol; each part, and the cross pairs,
        # is complemented in its own block, so the two edge sets split all N(N-1)/2 pairs
        for g in [g for _, g in default_corpus()] + seeded_regular_graphs():
            for c in list_cases():
                t = xyz_transform(g, c)
                assert c.complement() == case("".join(self.BAR[s] for s in str(c)))
                tbar = xyz_transform(g, c.complement())
                edges, bar_edges = ({frozenset(e) for e in x.edges} for x in (t, tbar))
                assert tbar.n == t.n and not edges & bar_edges, (g, str(c))
                assert len(edges) + len(bar_edges) == t.n * (t.n - 1) // 2, (g, str(c))


class TestDegreeDiagonals:
    """Vertex-part and edge-part degrees for six cases, on every corpus graph."""

    CASES = {
        # case -> (vertex-part degree, edge-part degree) as functions of n, m, r
        "-01": (lambda n, m, r: n + m - r - 1, lambda n, m, r: n),
        "+11": (lambda n, m, r: m + r, lambda n, m, r: m + n - 1),
        "0+1": (lambda n, m, r: m, lambda n, m, r: n + 2 * r - 2),
        "+++": (lambda n, m, r: 2 * r, lambda n, m, r: 2 * r),
        "1--": (lambda n, m, r: n + m - r - 1, lambda n, m, r: n + m - 2 * r - 1),
        "10-": (lambda n, m, r: n + m - r - 1, lambda n, m, r: n - 2),
    }

    @pytest.mark.parametrize("case_str", sorted(CASES))
    def test_degrees_match(self, case_str):
        vdeg, edeg = self.CASES[case_str]
        for _, g in default_corpus():
            n, m = g.n, g.m
            r = 2 * m // n
            t = xyz_transform(g, case(case_str))
            deg = t.degrees()
            assert deg[:n] == [vdeg(n, m, r)] * n, f"{case_str} vertex part on n={n}"
            assert deg[n:] == [edeg(n, m, r)] * m, f"{case_str} edge part on n={n}"
