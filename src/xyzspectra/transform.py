"""Vertex-edge transformations of a graph.

A transformation is selected by three symbols drawn from {0, 1, +, -}.
The result lives on the disjoint union of the vertex set and the edge
set: the first symbol picks the graph induced on the original vertices
(empty, complete, the graph itself, or its complement), the second does
the same on the edge part via the line graph, and the third chooses the
cross edges between a vertex and an edge (none, all, incident pairs, or
non-incident pairs).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graph import EmptyEdgeSet, Graph, InvalidParameter, _graph, complement, complete_graph, line_graph

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
    """Graph induced on the vertex set by one symbol: empty, complete, g, or complement."""
    if s == "0":
        return Graph(g.n, ())
    if s == "1":
        return complete_graph(g.n) if g.n >= 2 else Graph(g.n, ())
    if s == "+":
        return g
    if s == "-":
        return complement(g)
    raise InvalidParameter(f"unknown part symbol {s!r}")


def cross_edges(g: Graph, z: str) -> list[tuple[int, int]]:
    """Vertex-edge pairs selected by z, as (vertex index, edge index), vertex-major.

    z="+" gives incident pairs, z="-" non-incident pairs, z="0" none, and
    z="1" all n*m pairs.
    """
    if z == "0":
        return []
    if z == "1":
        return [(v, j) for v in range(g.n) for j in range(g.m)]
    if z in ("+", "-"):
        return [(v, j) for v in range(g.n) for j, e in enumerate(g.edges) if (v in e) == (z == "+")]
    raise InvalidParameter(f"unknown cross symbol {z!r}")


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
