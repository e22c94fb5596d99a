"""Vertex-edge transformations of a graph.

A transformation is selected by three symbols drawn from {0, 1, +, -}.  The result lives
on the disjoint union of the vertex set and the edge set: the first symbol picks the graph
on the original vertices, the second the same on the edge part via the line graph, and the
third the cross pairs of a vertex and an edge.  One rule, applied in _part, serves every symbol.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graph import EmptyEdgeSet, Graph, InvalidParameter, _graph, complement, line_graph

__all__ = ["SYMBOLS", "XyzCase", "xyz_transform", "transform_size"]

SYMBOLS = ("0", "1", "+", "-")
_SWAP = str.maketrans("01+-", "10-+")  # a case's text to its complement's


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
        return XyzCase(*str(self).translate(_SWAP))


@lru_cache(maxsize=13)  # one graph's parts: 4 symbols at each of 3 positions, and its line graph
def _part(g: Graph, key: str) -> tuple | Graph:
    """One part of g's transforms, built once: "x" + x, "y" + y or "z" + z gives its edges, numbered as
    xyz_transform's, and "L" the line graph.  0 and 1 start from nothing, + and - from g (the line
    graph for y, the incident pairs for z), and 1 and - then take the complement (for z, the rest of
    all n*m pairs); the cross pairs (v, n + j) are vertex-major."""
    n, p, s = g.n, key[0], key[1:]
    if p == "L":
        return line_graph(g)
    if p == "z":
        pairs = sorted((v, n + j) for j, e in enumerate(g.edges) for v in e) if s in "+-" else []
        if s in "1-":
            pairs = sorted({(v, n + j) for v in range(n) for j in range(g.m)}.difference(pairs))
        return tuple(pairs)
    if s in "+-":
        base = g if p == "x" else _part(g, "L")
    else:
        base = Graph(n if p == "x" else g.m, ())
    edges = (complement(base) if s in "1-" else base).edges
    return edges if p == "x" else tuple((n + a, n + b) for a, b in edges)


def xyz_transform(g: Graph, case: XyzCase) -> Graph:
    """Build the transformed graph on n + m vertices: 0..n-1 are g's vertices in order, n..n+m-1 its
    edges in edge order.  The edges are the vertex part's, the edge part's and the cross pairs, each
    built once per graph (_part) and joined unchecked: they make a simple graph by construction.
    Requires m >= 1: with no edges every case degenerates."""
    if g.m == 0:
        raise EmptyEdgeSet("transformation of an edgeless graph")
    return _graph(g.n + g.m, _part(g, "x" + case.x) + _part(g, "y" + case.y) + _part(g, "z" + case.z))


def transform_size(g: Graph, case: XyzCase) -> tuple[int, int]:
    """Vertex and edge counts of xyz_transform(g, case), from n, m and the degrees, unbuilt."""
    n, m, line = g.n, g.m, sum(d * (d - 1) // 2 for d in g.degrees())
    parts = zip(str(case), (n * (n - 1) // 2, m * (m - 1) // 2, n * m), (m, line, 2 * m))
    return n + m, sum({"0": 0, "1": full, "+": own, "-": full - own}[s] for s, full, own in parts)
