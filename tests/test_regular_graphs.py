"""Every r-regular graph on at most 8 vertices, each through all 64 cases of the oracle harness.

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

from xyzspectra.graph import Graph, hypercube_graph
from xyzspectra.verify import run_corpus

MAX_ORDER = 8


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
def regular_graphs(max_order: int = MAX_ORDER) -> dict:
    """(n, r) -> the sorted canonical forms of the r-regular graphs on n <= max_order vertices.
    CI runs max_order = 10: counts 26 and 176 on 9 and 10 vertices, 240 graphs with r >= 1."""
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


def test_counts_per_order_match_oeis_a005176():
    # regular graphs on n vertices, any degree, the edgeless graph included
    graphs = regular_graphs()
    per_order = [sum(len(forms) for (n, _), forms in graphs.items() if n == k) for k in range(1, 9)]
    assert per_order == [1, 2, 2, 4, 3, 8, 6, 22]
    per_degree = {n: [len(graphs.get((n, r), ())) for r in range(n)] for n in range(1, 9)}
    assert per_degree == {
        1: [1], 2: [1, 1], 3: [1, 0, 1], 4: [1, 1, 1, 1], 5: [1, 0, 1, 0, 1],
        6: [1, 1, 2, 2, 1, 1], 7: [1, 0, 2, 0, 2, 0, 1], 8: [1, 1, 3, 6, 6, 3, 1, 1],
    }


def test_canonical_forms_digest():
    text = repr(sorted((n, r, form) for (n, r), forms in regular_graphs().items() for form in forms))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d99d6da0aa48377745dae9f39bcf69b077e89cbd79d745a0d8e43a1d3910ad9b"
    )


def test_every_stored_form_is_canonical():
    for (n, r), forms in regular_graphs().items():
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


def test_every_regular_graph_matches_on_all_64_cases():
    graphs = [(f"n{n}r{r}#{i}", Graph(n, form)) for (n, r), forms in regular_graphs().items() if r >= 1
              for i, form in enumerate(forms)]
    assert len(graphs) == 40  # K2 included
    report = run_corpus(graphs)
    assert report.failures == ()
    assert len(report.results) == 40 * 64
