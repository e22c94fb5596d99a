"""Vertex-edge transformations of a graph.

A transformation is selected by three symbols drawn from {0, 1, +, -}.  The result lives
on the disjoint union of the vertex set and the edge set: the first symbol picks the graph
on the original vertices, the second the same on the edge part via the line graph, and the
third the cross pairs of a vertex and an edge.  One rule serves every symbol: 0 and 1 start
from nothing, + and - from the graph (or from the incident pairs, for the cross pairs), and
1 and - then take the complement (for the cross pairs, the rest of all n*m pairs).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graph import EmptyEdgeSet, Graph, InvalidParameter, _graph, complement, line_graph

__all__ = ["SYMBOLS", "XyzCase", "part_graph", "cross_edges", "xyz_transform", "transform_size"]

SYMBOLS = ("0", "1", "+", "-")


@dataclass(frozen=True)
class XyzCase:
    """One of the 64 transformation cases, e.g. XyzCase.parse("+0-")."""

    x: str
    y: str
    z: str

    def __post_init__(self):
        for s in (self.x, self.y, self.z):
            if s not in SYMBOLS:
                raise InvalidParameter(f"symbol must be one of {SYMBOLS}, got {s!r}")

    @classmethod
    def parse(cls, text: str) -> XyzCase:
        if len(text) != 3:
            raise InvalidParameter(f"case string must have 3 symbols, got {text!r}")
        return cls(text[0], text[1], text[2])

    def __str__(self) -> str:
        return self.x + self.y + self.z

    def complement(self) -> XyzCase:
        """0 and 1, + and - swapped: each part of its transform, and the cross pairs, complemented."""
        return XyzCase(*("10-+"["01+-".index(s)] for s in str(self)))


def part_graph(g: Graph, s: str) -> Graph:
    """Graph induced on the vertex set by one symbol: 0 and 1 start from the edgeless graph,
    + and - from g, and 1 and - take the complement (complete, or g's complement)."""
    if s not in SYMBOLS:
        raise InvalidParameter(f"unknown part symbol {s!r}")
    base = g if s in "+-" else Graph(g.n, ())
    return complement(base) if s in "1-" else base


def cross_edges(g: Graph, z: str) -> list[tuple[int, int]]:
    """Vertex-edge pairs selected by z, as (vertex index, edge index), vertex-major: 0 and 1 start
    from none, + and - from the incident pairs, and 1 and - take the rest of all n*m pairs."""
    if z not in SYMBOLS:
        raise InvalidParameter(f"unknown cross symbol {z!r}")
    base = sorted((v, j) for j, e in enumerate(g.edges) for v in e) if z in "+-" else []
    return sorted({(v, j) for v in range(g.n) for j in range(g.m)}.difference(base)) if z in "1-" else base


@lru_cache(maxsize=1)
def _parts(g: Graph) -> dict:
    """The last graph's parts by key ("L", "x+", "y-", ...), so its 64 cases build each once."""
    return {}


def xyz_transform(g: Graph, case: XyzCase) -> Graph:
    """Build the transformed graph on n + m vertices.

    Vertices 0..n-1 are the original vertices in order; vertices n..n+m-1
    are the edges of g in canonical edge order.  The edge list concatenates
    the vertex-part edges, the edge-part edges (shifted by n), and the cross
    pairs, each built once per graph, and joined unchecked: they make a simple
    graph by construction.  Requires m >= 1: with no edges every case degenerates.
    """
    if g.m == 0:
        raise EmptyEdgeSet("transformation of an edgeless graph")
    n, memo = g.n, _parts(g)

    def part(key, build):
        if key not in memo:
            memo[key] = build()
        return memo[key]
    edges = part("x" + case.x, lambda: part_graph(g, case.x).edges)
    line = part("L", lambda: line_graph(g)) if case.y in "+-" else Graph(g.m, ())
    edges += part("y" + case.y, lambda: tuple((n + a, n + b) for a, b in part_graph(line, case.y).edges))
    edges += part("z" + case.z, lambda: tuple((v, n + j) for v, j in cross_edges(g, case.z)))
    return _graph(n + g.m, edges)


def transform_size(g: Graph, case: XyzCase) -> tuple[int, int]:
    """Vertex and edge counts of xyz_transform(g, case), from n, m and the degrees, unbuilt."""
    n, m, line = g.n, g.m, sum(d * (d - 1) // 2 for d in g.degrees())
    parts = zip(str(case), (n * (n - 1) // 2, m * (m - 1) // 2, n * m), (m, line, 2 * m))
    return n + m, sum({"0": 0, "1": full, "+": own, "-": full - own}[s] for s, full, own in parts)
