"""Simple undirected graphs with a canonical vertex and edge order.

Graph(n, edges) is the one constructor.  The edge order is part of the
graph value: edge j of a graph becomes vertex j of its line graph, and
the vertex order of every derived construction is fixed by it.  This
makes every matrix (and hence every characteristic polynomial) deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

__all__ = [
    "Graph",
    "GraphError",
    "SelfLoop",
    "DuplicateEdge",
    "IndexOutOfRange",
    "EmptyEdgeSet",
    "InvalidParameter",
    "cycle_graph",
    "complete_graph",
    "complete_bipartite_graph",
    "petersen_graph",
    "hypercube_graph",
    "circulant_graph",
    "generate",
    "complement",
    "line_graph",
    "regularity",
    "parse_edge_list",
    "format_edge_list",
]


class GraphError(ValueError):
    """Base class for graph construction errors."""


class SelfLoop(GraphError):
    pass


class DuplicateEdge(GraphError):
    pass


class IndexOutOfRange(GraphError):
    pass


class EmptyEdgeSet(GraphError):
    pass


class InvalidParameter(GraphError):
    pass


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with an ordered edge list.

    Graph(n, edges) coerces n and each endpoint with operator.index (TypeError
    otherwise) and stores edges, any iterable of pairs read once, as a tuple of
    int pairs in input order, the canonical order.  An edge that is not a pair,
    self-loops and duplicate edges (in either orientation) raise GraphError
    subclasses; a non-iterable edge raises TypeError.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n, seen = index(self.n), {}  # seen: each edge by its unordered pair, in input order
        if n < 1:
            raise InvalidParameter(f"vertex count must be >= 1, got {_shown(n)}")
        for edge in self.edges:
            try:
                u, v = edge  # reads at most three items, however long edge is
            except ValueError:
                raise InvalidParameter(f"edge {_shown(edge)} is not a pair") from None
            u, v = index(u), index(v)
            if u == v:
                raise SelfLoop(f"self-loop at vertex {_shown(u)}")
            if not (0 <= u < n and 0 <= v < n):
                raise IndexOutOfRange(f"edge ({_shown(u)},{_shown(v)}) out of range for n={_shown(n)}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise DuplicateEdge(f"duplicate edge ({_shown(u)},{_shown(v)})")
            seen[key] = u, v
        self.__dict__.update(n=n, edges=tuple(seen.values()))  # frozen: set as _graph sets them

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


def _graph(n: int, edges: tuple) -> Graph:
    """Graph(n, edges) without the coercion and the checks, for transforms only: n an int and
    edges a tuple of int pairs, simple and in range by construction (validated graphs' edges on
    disjoint vertex ranges joined by distinct cross pairs)."""
    g = object.__new__(Graph)
    g.__dict__.update(n=n, edges=edges)
    return g


def _shown(value) -> str:
    """value as a message quotes it: at most 40 characters, "..." marking a cut, and an int only below
    10**100 (str() raises above 4300 digits, inside a container too), so no message grows with its input."""
    try:
        text = "<int of over 100 digits>" if isinstance(value, int) and abs(value) >= 10**100 else str(value)
    except ValueError:  # a container holding an int of over 4300 digits
        text = f"<{type(value).__name__} with an int of over 4300 digits>"
    return text if len(text) <= 40 else text[:40] + "..."


# ----------------------------------------------------------------------------
# Generators.  Each emits a documented canonical vertex/edge order so that
# repeated runs produce byte-identical downstream output.
# ----------------------------------------------------------------------------


def cycle_graph(k: int) -> Graph:
    """Cycle C_k, k >= 3: the circulant on offset 1.  Edge j joins (j, j+1 mod k), normalized (min,max)."""
    if k < 3:
        raise InvalidParameter(f"cycle needs k >= 3, got {_shown(k)}")
    return circulant_graph(k, [1])


def complete_graph(k: int) -> Graph:
    """Complete graph K_k, k >= 2: the edgeless graph's complement.  Edges in lexicographic (u,v) order."""
    if k < 2:
        raise InvalidParameter(f"complete graph needs k >= 2, got {_shown(k)}")
    return complement(Graph(k, ()))


def complete_bipartite_graph(a: int) -> Graph:
    """Balanced complete bipartite K_{a,a}: parts 0..a-1 and a..2a-1, lex order."""
    if a < 1:
        raise InvalidParameter(f"part size must be >= 1, got {_shown(a)}")
    edges = [(u, a + w) for u in range(a) for w in range(a)]
    return Graph(2 * a, edges)


def petersen_graph() -> Graph:
    """Petersen graph: outer 5-cycle 0..4, inner pentagram 5..9.

    Edge order: outer cycle, then spokes (i, i+5), then inner (5+i, 5+(i+2 mod 5)).
    """
    outer = [tuple(sorted((i, (i + 1) % 5))) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [tuple(sorted((5 + i, 5 + (i + 2) % 5))) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def hypercube_graph(d: int) -> Graph:
    """d-cube on vertices 0..2^d-1; edges (i, i ^ bit) ordered by i then bit."""
    if d < 1:
        raise InvalidParameter(f"hypercube needs d >= 1, got {_shown(d)}")
    size = 1 << d
    edges = []
    for i in range(size):
        for b in range(d):
            j = i ^ (1 << b)
            if i < j:
                edges.append((i, j))
    return Graph(size, edges)


def circulant_graph(k: int, offsets) -> Graph:
    """Circulant graph on Z_k with connection set {±s : s in offsets}.

    Offsets must reduce to distinct values in 1..k//2 (nonzero mod k; the
    set is closed under negation by construction).  Edge order: for i
    ascending, for s ascending, edge (i, i+s mod k) when not yet present.
    """
    if k < 3:
        raise InvalidParameter(f"circulant needs k >= 3, got {_shown(k)}")
    offsets, folded = list(offsets), []  # read once: the collision message quotes them
    for s in offsets:
        t = s % k
        if t == 0:
            raise InvalidParameter(f"offset {_shown(s)} is 0 mod {_shown(k)}")
        folded.append(min(t, k - t))
    if len(set(folded)) != len(folded):
        raise InvalidParameter(f"offsets {_shown(offsets)} collide mod {_shown(k)}")
    folded.sort()
    edges = dict.fromkeys(tuple(sorted((i, (i + s) % k))) for i in range(k) for s in folded)
    return Graph(k, edges)  # each edge at its first (i, s)


# kind -> (generator, parameter count, n + m of the graph it builds).  The
# hypercube's shift is capped at 64: 2^64 already exceeds any order limit,
# and 2^d itself would exhaust memory for a huge d.
GENERATORS = {
    "cycle": (cycle_graph, 1, lambda k: 2 * k),
    "complete": (complete_graph, 1, lambda k: k * (k + 1) // 2),
    "complete_bipartite": (complete_bipartite_graph, 1, lambda a: a * (a + 2)),
    "petersen": (petersen_graph, 0, lambda: 25),
    "hypercube": (hypercube_graph, 1, lambda d: (d + 2) << min(d - 1, 64)),
    "circulant": (  # k followed by offsets; an offset of k/2 adds k/2 edges
        circulant_graph, None,
        lambda k, *offsets: k + sum(k if 2 * (s % k) != k else k // 2 for s in offsets),
    ),
}


def generate(kind: str, params: list[int] | None = None) -> Graph:
    """Dispatch onto the named generator; raises InvalidParameter on bad input.

    A graph whose n + m would exceed MAX_HEADER_ORDER is refused before it
    is built, so every generated edge list is one parse_edge_list accepts.
    """
    params = params or []
    if kind not in GENERATORS:
        raise InvalidParameter(f"unknown generator {_shown(repr(kind))}")
    fn, arity, order = GENERATORS[kind]
    if arity is None:  # circulant: k plus at least one offset
        if len(params) < 2:
            raise InvalidParameter("circulant needs a modulus and at least one offset")
    elif len(params) != arity:
        raise InvalidParameter(f"{kind} takes {arity} parameter(s), got {len(params)}")
    # a size parameter below 1 is left to the generator's own check
    if (not params or params[0] >= 1) and order(*params) > MAX_HEADER_ORDER:
        raise InvalidParameter(
            f"{_shown(' '.join([kind, *map(_shown, params)]))} has n + m above the limit {MAX_HEADER_ORDER}"
        )
    if arity is None:
        return fn(params[0], params[1:])
    return fn(*params)


# ----------------------------------------------------------------------------
# Derived graphs and regularity.
# ----------------------------------------------------------------------------


def complement(g: Graph) -> Graph:
    """Complement on the same vertex set; edges in lexicographic order."""
    present = {(u, v) if u < v else (v, u) for u, v in g.edges}
    edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if (u, v) not in present]
    return Graph(g.n, edges)


def line_graph(g: Graph) -> Graph:
    """Line graph: vertex j is edge j of g; adjacency = shared endpoint.

    Edge order of the result: lexicographic over index pairs (i, j), i < j.
    Requires m >= 1.
    """
    if g.m == 0:
        raise EmptyEdgeSet("line graph of an edgeless graph")
    ends = [frozenset(e) for e in g.edges]
    edges = [
        (i, j)
        for i in range(g.m)
        for j in range(i + 1, g.m)
        if ends[i] & ends[j]
    ]
    return Graph(g.m, edges)


def regularity(g: Graph) -> int | None:
    """Common degree r when g is regular (then 2m = rn holds), else None."""
    deg = g.degrees()
    r = deg[0]
    if any(d != r for d in deg):
        return None
    assert 2 * g.m == r * g.n
    return r


# ----------------------------------------------------------------------------
# Edge-list text format: first line "n m", then one "u v" line per edge,
# 0-indexed; file order is the edge order.
# ----------------------------------------------------------------------------

# Largest n + m a header may declare or `generate` may build.  Transforms
# build graphs and matrices of order n + m (case 010 a complete graph on m
# vertices), so a larger header is refused before any of them is allocated.
MAX_HEADER_ORDER = 1000


def parse_edge_list(text: str) -> Graph:
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise InvalidParameter("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise InvalidParameter(f"header must be 'n m', got {_shown(repr(lines[0]))}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise InvalidParameter(f"header must be two integers, got {_shown(repr(lines[0]))}")
    if (total := n + m) > MAX_HEADER_ORDER:  # a sum of over 4300 digits has no str: not named
        named = f" = {total}" if total < 10**100 else ""
        raise InvalidParameter(f"header n + m{named} exceeds the limit {MAX_HEADER_ORDER}")
    body = lines[1:]
    if len(body) != m:
        raise InvalidParameter(f"expected {_shown(m)} edge lines, found {len(body)}")
    edges = []
    for ln in body:
        parts = ln.split()
        if len(parts) != 2:
            raise InvalidParameter(f"edge line must be 'u v', got {_shown(repr(ln))}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise InvalidParameter(f"edge line must be two integers, got {_shown(repr(ln))}")
    return Graph(n, edges)


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
