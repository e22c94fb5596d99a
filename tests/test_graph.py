"""Graph construction, generators, derived graphs, and the edge-list format."""

import pytest

from xyzspectra import graph
from xyzspectra.graph import (
    DuplicateEdge,
    EmptyEdgeSet,
    Graph,
    IndexOutOfRange,
    InvalidParameter,
    SelfLoop,
    circulant_graph,
    complement,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    format_edge_list,
    generate,
    hypercube_graph,
    line_graph,
    parse_edge_list,
    petersen_graph,
    regularity,
)


def brute_degrees(g):
    # independent of Graph.degrees: count endpoint occurrences
    return [sum(1 for u, v in g.edges if w in (u, v)) for w in range(g.n)]


def edge_key_set(g):
    return {frozenset(e) for e in g.edges}


class TestConstruction:
    def test_single_edge(self):
        g = Graph(2, [(0, 1)])
        assert (g.n, g.m) == (2, 1)

    def test_triangle(self):
        pairs = [(0, 1), (1, 2), (0, 2)]
        # any iterable of pairs, read once: a generator is not used up by the checks
        for edges in (pairs, [list(e) for e in pairs], (e for e in pairs)):
            g = Graph(3, edges)
            assert g.m == 3
            assert g.edges == tuple(pairs)
            assert regularity(g) == 2

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateEdge):
            Graph(3, [(0, 1), (0, 1)])

    def test_duplicate_reversed_rejected(self):
        with pytest.raises(DuplicateEdge):
            Graph(3, [(0, 1), (1, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            Graph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexOutOfRange):
            Graph(3, [(0, 3)])

    def test_edge_order_preserved(self):
        for edges in ([(2, 3), (0, 1)], [[2, 3], [0, 1]]):
            assert Graph(4, edges).edges == ((2, 3), (0, 1))

    def test_list_pairs_give_a_hashable_value(self):
        g = Graph(4, [[0, 1], [1, 2], [2, 3], [0, 3]])
        assert g == cycle_graph(4)
        assert hash(g) == hash(cycle_graph(4))

    def test_non_int_endpoints_rejected(self):
        # an edge that is not iterable at all (5, None, 0.5) raises TypeError too
        for bad in ((0.9, 1.7), (0, 1.0), ("0", 1), (0, None), 5, None, 0.5):
            with pytest.raises(TypeError):
                Graph(3, [bad])

    def test_non_pair_edge_rejected(self):
        # a GraphError quoting the edge, cut short however long it is
        for bad, shown in (((0, 1, 2), r"\(0, 1, 2\)"), ((0,), r"\(0,\)"),
                           (tuple(range(10**4)), r"\(0, 1, 2, .{30}\.\.\.")):
            with pytest.raises(InvalidParameter, match=f"^edge {shown} is not a pair$"):
                Graph(3, [(0, 1), bad])

    def test_non_int_vertex_count_rejected(self):
        for bad in (3.0, "3", None):
            with pytest.raises(TypeError):
                Graph(bad, [(0, 1)])


class TestGenerators:
    def test_cycle4(self):
        g = cycle_graph(4)
        assert (g.n, g.m, regularity(g)) == (4, 4, 2)

    def test_complete4(self):
        g = complete_graph(4)
        assert (g.n, g.m, regularity(g)) == (4, 6, 3)

    def test_cycle_too_small(self):
        with pytest.raises(InvalidParameter):
            cycle_graph(2)

    def test_petersen_degree_sequence(self):
        g = petersen_graph()
        assert (g.n, g.m) == (10, 15)
        assert brute_degrees(g) == [3] * 10
        assert regularity(g) == 3

    def test_hypercube3(self):
        g = hypercube_graph(3)
        assert (g.n, g.m) == (8, 12)
        assert brute_degrees(g) == [3] * 8

    def test_complete_bipartite(self):
        g = complete_bipartite_graph(3)
        assert (g.n, g.m, regularity(g)) == (6, 9, 3)
        # no edge inside either part
        for u, v in g.edges:
            assert (u < 3) != (v < 3)

    def test_circulant_c8_12(self):
        g = circulant_graph(8, [1, 2])
        assert (g.n, g.m, regularity(g)) == (8, 16, 4)
        for u, v in g.edges:
            assert min((u - v) % 8, (v - u) % 8) in (1, 2)

    def test_circulant_half_offset(self):
        # offset k/2 contributes a perfect matching, degree 1
        g = circulant_graph(6, [3])
        assert (g.m, regularity(g)) == (3, 1)

    def test_circulant_bad_offsets(self):
        with pytest.raises(InvalidParameter):
            circulant_graph(8, [0])
        with pytest.raises(InvalidParameter):
            circulant_graph(8, [1, 7])  # 7 = -1 collides with 1
        with pytest.raises(InvalidParameter, match=r"^offsets \[1, 9\] collide mod 8$"):
            circulant_graph(8, (s for s in [1, 9]))  # a generator, read once

    def test_generate_dispatch(self):
        assert generate("cycle", [5]).m == 5
        assert generate("petersen").n == 10
        assert generate("circulant", [8, 1, 2]).m == 16
        with pytest.raises(InvalidParameter):
            generate("moebius", [5])
        with pytest.raises(InvalidParameter):
            generate("cycle", [])

    def test_generator_order_is_exact(self):
        # the order refused by generate must be the n + m the generator builds
        for kind, params in [("cycle", [7]), ("complete", [6]), ("complete_bipartite", [4]),
                             ("petersen", []), ("hypercube", [1]), ("hypercube", [4]),
                             ("circulant", [8, 1, 2]), ("circulant", [8, 4]),
                             ("circulant", [9, -1, 2, 13])]:
            g = generate(kind, params)
            assert graph.GENERATORS[kind][2](*params) == g.n + g.m, (kind, params)

    def test_all_generators_satisfy_handshake(self):
        graphs = [
            cycle_graph(5),
            complete_graph(5),
            complete_bipartite_graph(3),
            petersen_graph(),
            hypercube_graph(3),
            circulant_graph(8, [1, 2]),
        ]
        for g in graphs:
            r = regularity(g)
            assert r is not None
            assert 2 * g.m == r * g.n


class TestComplement:
    def test_complement_k4_empty(self):
        assert complement(complete_graph(4)).m == 0

    def test_complement_c5_two_regular(self):
        g = complement(cycle_graph(5))
        assert (g.m, regularity(g)) == (5, 2)

    def test_complement_c6_brute_force(self):
        c6 = cycle_graph(6)
        g = complement(c6)
        expected = {
            frozenset((u, v))
            for u in range(6)
            for v in range(u + 1, 6)
            if frozenset((u, v)) not in edge_key_set(c6)
        }
        assert edge_key_set(g) == expected
        assert (g.m, regularity(g)) == (9, 3)

    def test_complement_lexicographic_order(self):
        g = complement(cycle_graph(5))
        assert list(g.edges) == sorted(g.edges)

    def test_double_complement(self):
        for g in (cycle_graph(6), petersen_graph()):
            assert edge_key_set(complement(complement(g))) == edge_key_set(g)


class TestLineGraph:
    def test_triangle_line_graph(self):
        lg = line_graph(complete_graph(3))
        assert (lg.n, lg.m) == (3, 3)
        assert edge_key_set(lg) == {frozenset((0, 1)), frozenset((1, 2)), frozenset((0, 2))}

    def test_cycle_line_graph(self):
        lg = line_graph(cycle_graph(6))
        assert (lg.n, lg.m, regularity(lg)) == (6, 6, 2)

    def test_petersen_line_graph_brute_force(self):
        g = petersen_graph()
        lg = line_graph(g)
        assert lg.n == 15
        assert regularity(lg) == 4
        expected = {
            frozenset((i, j))
            for i in range(g.m)
            for j in range(i + 1, g.m)
            if set(g.edges[i]) & set(g.edges[j])
        }
        assert edge_key_set(lg) == expected

    def test_line_graph_regularity_shift(self):
        # line graph of an r-regular graph is (2r-2)-regular
        for g in (cycle_graph(7), complete_graph(5), hypercube_graph(3)):
            r = regularity(g)
            assert regularity(line_graph(g)) == 2 * r - 2

    def test_empty_edge_set(self):
        with pytest.raises(EmptyEdgeSet):
            line_graph(Graph(3, ()))


class TestRegularity:
    def test_cycle7(self):
        assert regularity(cycle_graph(7)) == 2

    def test_path_irregular(self):
        assert regularity(Graph(3, [(0, 1), (1, 2)])) is None

    def test_hypercube(self):
        assert regularity(hypercube_graph(3)) == 3


class TestEdgeListFormat:
    def test_roundtrip(self):
        for g in (cycle_graph(5), petersen_graph(), circulant_graph(8, [1, 2])):
            assert parse_edge_list(format_edge_list(g)) == g

    def test_format_header(self):
        text = format_edge_list(cycle_graph(6))
        assert text.splitlines()[0] == "6 6"
        assert len(text.splitlines()) == 7

    def test_order_is_file_order(self):
        g = parse_edge_list("4 2\n2 3\n0 1\n")
        assert g.edges == ((2, 3), (0, 1))

    def test_parse_errors(self):
        with pytest.raises(InvalidParameter):
            parse_edge_list("")
        with pytest.raises(InvalidParameter):
            parse_edge_list("3\n")
        with pytest.raises(InvalidParameter):
            parse_edge_list("3 2\n0 1\n")
        with pytest.raises(InvalidParameter):
            parse_edge_list("3 1\n0 one\n")

    def test_header_size_guard(self, monkeypatch):
        # refused from the header alone, before the missing edge lines count
        with pytest.raises(InvalidParameter, match="exceeds the limit"):
            parse_edge_list("1000000000 0\n")
        monkeypatch.setattr(graph, "MAX_HEADER_ORDER", 5)
        assert parse_edge_list("3 2\n0 1\n1 2\n").m == 2
        with pytest.raises(InvalidParameter, match="n \\+ m = 6 exceeds the limit 5"):
            parse_edge_list("3 3\n")

    def test_header_sum_too_long_to_print(self):
        # n + m has 4301 digits, past the length an int may have as a str: refused unnamed
        with pytest.raises(InvalidParameter, match="^header n \\+ m exceeds the limit 1000$"):
            parse_edge_list("9" * 4300 + " 1\n0 1\n")
