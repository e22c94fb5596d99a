"""Square matrices over the integers (arbitrary precision).

Everything downstream depends on exactness, so entries are plain Python
ints and no floating point appears anywhere.  A matrix is square by
construction and has at most n + m rows, which the edge-list header limits
to 1000, so dense row tuples are the simplest correct storage for charpoly
(charpoly_pair reads edge lists).  A, L and Q are each d*D + a*A, built in
one pass over the edge list.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

from .graph import Graph

__all__ = [
    "IntMatrix",
    "NotSquare",
    "adjacency",
    "laplacian",
    "signless_laplacian",
]


class NotSquare(ValueError):
    pass


@dataclass(frozen=True)
class IntMatrix:
    """Immutable dense integer matrix, row-major.  IntMatrix(rows) coerces each entry with
    operator.index (any other entry raises TypeError) and raises NotSquare unless every row is
    as long as there are rows; IntMatrix([]) is the 0 x 0 matrix."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        entries = tuple(tuple(map(index, row)) for row in self.entries)
        if any(len(row) != len(entries) for row in entries):
            raise NotSquare("matrix must be square")
        object.__setattr__(self, "entries", entries)

    @property
    def rows(self) -> int:
        return len(self.entries)


# ----------------------------------------------------------------------------
# Graph matrices.  Row/column order is the graph's vertex order.
# ----------------------------------------------------------------------------


def _graph_matrix(g: Graph, d: int, a: int) -> IntMatrix:
    """d*D + a*A: each edge adds d at (u, u) and (v, v) and puts a at (u, v) and (v, u)."""
    rows = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        rows[u][u] += d
        rows[v][v] += d
        rows[u][v] = rows[v][u] = a
    return IntMatrix(rows)


def adjacency(g: Graph) -> IntMatrix:
    return _graph_matrix(g, 0, 1)


def laplacian(g: Graph) -> IntMatrix:
    """Degree matrix minus adjacency."""
    return _graph_matrix(g, 1, -1)


def signless_laplacian(g: Graph) -> IntMatrix:
    """Degree matrix plus adjacency."""
    return _graph_matrix(g, 1, 1)
