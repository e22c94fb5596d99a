"""Dense matrices over the integers (arbitrary precision).

Everything downstream depends on exactness, so entries are plain Python
ints and no floating point appears anywhere.  A matrix has at most n + m
rows, which the edge-list header limits to 1000, so dense row tuples are
the simplest correct storage for charpoly (charpoly_pair reads edge lists).
A, L and Q are each d*D + a*A, built in one pass over the edge list.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

from .graph import Graph

__all__ = [
    "IntMatrix",
    "DimensionMismatch",
    "NotSquare",
    "adjacency",
    "laplacian",
    "signless_laplacian",
]


class DimensionMismatch(ValueError):
    pass


class NotSquare(ValueError):
    pass


@dataclass(frozen=True)
class IntMatrix:
    """Immutable dense integer matrix, row-major."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise DimensionMismatch("row count does not match entries")
        if any(len(row) != self.cols for row in self.entries):
            raise DimensionMismatch("column count does not match entries")

    @classmethod
    def from_rows(cls, rows) -> IntMatrix:
        """Matrix from rows of ints; any other entry raises TypeError."""
        tup = tuple(tuple(index(x) for x in row) for row in rows)
        return cls(len(tup), len(tup[0]) if tup else 0, tup)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols


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
    return IntMatrix(g.n, g.n, tuple(tuple(row) for row in rows))


def adjacency(g: Graph) -> IntMatrix:
    return _graph_matrix(g, 0, 1)


def laplacian(g: Graph) -> IntMatrix:
    """Degree matrix minus adjacency."""
    return _graph_matrix(g, 1, -1)


def signless_laplacian(g: Graph) -> IntMatrix:
    """Degree matrix plus adjacency."""
    return _graph_matrix(g, 1, 1)
