"""Every r-regular graph on at most 8 vertices (10 under `pytest -m slow`), each through all 64 cases
of the oracle harness.

The graphs are generated, not listed.  A breadth-first search starts from one circulant and
applies every double-edge switch ab, cd -> ac, bd, which keeps each degree.  The switches connect
all labelled r-regular graphs on one vertex set (R. Taylor, "Constrained switchings in graphs",
1981), so the search reaches every isomorphism class.  Classes are keyed by a canonical form:
colour refinement with individualisation (B. McKay, "Practical graph isomorphism", 1981).  A degree
above (n - 1)/2 takes the complements of degree n - 1 - r, one per class, each put in canonical form
again: the complement of a canonical form is a form of the complement, not always the least.
"""

import hashlib
from functools import cache
from itertools import combinations

import pytest

from xyzspectra import verify
from xyzspectra.exactpoly import charpoly_pair
from xyzspectra.formulas import list_cases
from xyzspectra.graph import Graph, hypercube_graph
from xyzspectra.transform import xyz_transform

by_order = pytest.mark.parametrize("order", [8, pytest.param(10, marks=pytest.mark.slow)])


def refine(adj: list, colours: list) -> list:
    """The coarsest equitable refinement of colours: each cell splits by its vertices' multisets of
    neighbour colours until none splits.  New colours sort by (old colour, multiset), so the result
    depends on no vertex label."""
    while True:
        keys = [(colours[v], tuple(sorted(colours[u] for u in adj[v]))) for v in range(len(adj))]
        rank = {key: i for i, key in enumerate(sorted(set(keys)))}
        split, colours = len(rank) > len(set(colours)), [rank[key] for key in keys]
        if not split:
            return colours


def canonical_form(n: int, edges) -> tuple:
    """The least sorted edge tuple over the leaves of the individualisation-refinement tree: at each
    node the first cell of two or more vertices is split, one vertex of it at a time.  Two leaves with
    equal forms give an automorphism of the graph.  A child is skipped when the automorphisms found so
    far that fix its node's individualised vertices map an explored child's vertex to its own: its
    subtree is that child's image, with the same forms (McKay's pruning by automorphisms)."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    best, leaves, automorphisms = None, {}, []  # leaves: form -> the colouring of the first leaf with it

    def search(colours, path):
        nonlocal best
        colours = refine(adj, colours)
        cells = [c for c in range(n) if colours.count(c) > 1]
        if not cells:
            form = tuple(sorted(tuple(sorted((colours[u], colours[v]))) for u, v in edges))
            if form in leaves:  # u -> the vertex of the same colour at the earlier leaf
                vertex = {c: w for w, c in enumerate(leaves[form])}
                automorphisms.append([vertex[c] for c in colours])
            else:
                leaves[form] = colours
            best = form if best is None else min(best, form)
            return
        orbit = set()  # of the explored children's vertices, under the automorphisms that fix path
        for v in [v for v in range(n) if colours[v] == cells[0]]:  # v before the rest of its cell
            fixing = [a for a in automorphisms if all(a[u] == u for u in path)]
            stack = list(orbit)
            while stack:
                x = stack.pop()
                for w in {a[x] for a in fixing} - orbit:
                    orbit.add(w)
                    stack.append(w)
            if v not in orbit:
                orbit.add(v)
                search([2 * c + (c == cells[0] and u != v) for u, c in enumerate(colours)], path + [v])

    search([0] * n, [])
    return best


def regular_forms(n: int, r: int) -> set:
    """The canonical forms of the r-regular graphs on n vertices, r <= (n - 1)/2 and rn even."""
    offsets = [*range(1, r // 2 + 1), *([n // 2] if r % 2 else [])]
    start = canonical_form(n, {tuple(sorted((i, (i + s) % n))) for i in range(n) for s in offsets})
    seen, queue = {start}, [start]
    for form in queue:  # breadth first: queue grows behind the loop
        edges = set(form)
        for (a, b), (c, d) in combinations(form, 2):
            if len({a, b, c, d}) < 4:
                continue
            for x, y in ((a, c), (b, d)), ((a, d), (b, c)):
                x, y = tuple(sorted(x)), tuple(sorted(y))
                if x not in edges and y not in edges:
                    if (new := canonical_form(n, edges - {(a, b), (c, d)} | {x, y})) not in seen:
                        seen.add(new)
                        queue.append(new)
    return seen


@cache
def regular_graphs(max_order: int) -> dict:
    """(n, r) -> the sorted canonical forms of the r-regular graphs on n <= max_order vertices.
    The tests below take max_order from their order parameter: 8, and 10 under `-m slow`."""
    out = {}
    for n in range(1, max_order + 1):
        pairs = set(combinations(range(n), 2))
        for r in range(n):
            if r * n % 2:
                continue
            if 2 * r <= n - 1:
                out[n, r] = sorted(regular_forms(n, r))
            else:  # the complements of degree n - 1 - r < r, already in, each relabelled canonically
                out[n, r] = sorted(canonical_form(n, pairs - set(f)) for f in out[n, n - 1 - r])
    return out


@by_order
def test_counts_per_order_match_oeis_a005176(order):
    # regular graphs on n vertices, any degree, the edgeless graph included
    graphs = regular_graphs(order)
    per_order = [sum(len(forms) for (n, _), forms in graphs.items() if n == k) for k in range(1, order + 1)]
    assert per_order == [1, 2, 2, 4, 3, 8, 6, 22, 26, 176][:order]
    per_degree = [[len(graphs.get((n, r), ())) for r in range(n)] for n in range(1, order + 1)]
    assert per_degree == [
        [1], [1, 1], [1, 0, 1], [1, 1, 1, 1], [1, 0, 1, 0, 1], [1, 1, 2, 2, 1, 1], [1, 0, 2, 0, 2, 0, 1],
        [1, 1, 3, 6, 6, 3, 1, 1], [1, 0, 4, 0, 16, 0, 4, 0, 1], [1, 1, 5, 21, 60, 60, 21, 5, 1, 1],
    ][:order]


@by_order
def test_canonical_forms_digest(order):
    text = repr(sorted((n, r, form) for (n, r), forms in regular_graphs(order).items() for form in forms))
    assert hashlib.sha256(text.encode()).hexdigest() == {
        8: "d99d6da0aa48377745dae9f39bcf69b077e89cbd79d745a0d8e43a1d3910ad9b",
        10: "ec83e2dc15091e7f1614d33e4aa995e9e9527a462ca2552dcfb84b18dead927d",
    }[order]


@by_order
def test_every_stored_form_is_canonical(order):
    for (n, r), forms in regular_graphs(order).items():
        assert all(canonical_form(n, form) == form for form in forms), (n, r)


def test_canonical_form_ignores_labels():
    # the 3-cube under a relabelling and as the 4-prism, against a twisted prism that is not a cube
    cube = hypercube_graph(3).edges
    perm = [5, 2, 7, 0, 3, 6, 1, 4]
    relabelled = [(perm[u], perm[v]) for u, v in cube]
    assert canonical_form(8, cube) == canonical_form(8, relabelled)
    prism = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4), (0, 4), (1, 5), (2, 6), (3, 7)]
    assert canonical_form(8, prism) == canonical_form(8, cube)
    twisted = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4), (0, 4), (1, 6), (2, 5), (3, 7)]
    assert canonical_form(8, twisted) != canonical_form(8, cube)


@by_order
def test_every_regular_graph_matches_on_all_64_cases(order, monkeypatch):
    graphs = [(f"n{n}r{r}#{i}", Graph(n, form)) for (n, r), forms in regular_graphs(order).items() if r >= 1
              for i, form in enumerate(forms)]
    assert len(graphs) == {8: 40, 10: 240}[order]  # K2 included
    reductions = []
    monkeypatch.setattr(verify, "charpoly_pair", lambda t: reductions.append(t) or charpoly_pair(t))
    failures, results = (), 0
    for gid, g in graphs:
        reductions.clear()
        report = verify.run_corpus([(gid, g)])
        failures += report.failures
        results += len(report.results)
        # each reduction serves a transform and its complement: two edge sets, none served twice
        edge_sets = {frozenset(map(frozenset, xyz_transform(g, c).edges)) for c in list_cases()}
        assert 2 * len(reductions) == len(edge_sets), (gid, len(reductions), len(edge_sets))
    assert failures == () and results == len(graphs) * 64, failures[:5]
