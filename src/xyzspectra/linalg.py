"""Dense matrices over the integers (arbitrary precision).

Everything downstream depends on exactness, so entries are plain Python
ints and no floating point appears anywhere.  A matrix has at most n + m
rows, which the edge-list header limits to 1000, so dense row tuples are
the simplest correct storage for charpoly (charpoly_pair reads edge lists);
the schoolbook product serves the identity checks.
A, D, L and Q are each d*D + a*A, built in one pass over the edge list.
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
    "degree_matrix",
    "laplacian",
    "signless_laplacian",
    "incidence",
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

    @classmethod
    def identity(cls, k: int) -> IntMatrix:
        return cls(k, k, tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k)))

    @classmethod
    def all_ones(cls, p: int, q: int) -> IntMatrix:
        return cls(p, q, tuple((1,) * q for _ in range(p)))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __add__(self, other: IntMatrix) -> IntMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("add: shapes differ")
        return IntMatrix(
            self.rows,
            self.cols,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )

    def __mul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch("mul: inner dimensions differ")
        bt = other.transpose().entries  # walk rows of both operands
        return IntMatrix(
            self.rows,
            other.cols,
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in bt)
                for row in self.entries
            ),
        )

    def transpose(self) -> IntMatrix:
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(
                tuple(self.entries[i][j] for i in range(self.rows))
                for j in range(self.cols)
            ),
        )

    def trace(self) -> int:
        if not self.is_square:
            raise NotSquare("trace: matrix must be square")
        return sum(self.entries[i][i] for i in range(self.rows))


# ----------------------------------------------------------------------------
# Graph matrices.  Row/column order is the graph's vertex order; incidence
# columns follow the canonical edge order.
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


def degree_matrix(g: Graph) -> IntMatrix:
    return _graph_matrix(g, 1, 0)


def laplacian(g: Graph) -> IntMatrix:
    """Degree matrix minus adjacency."""
    return _graph_matrix(g, 1, -1)


def signless_laplacian(g: Graph) -> IntMatrix:
    """Degree matrix plus adjacency."""
    return _graph_matrix(g, 1, 1)


def incidence(g: Graph) -> IntMatrix:
    """n x m vertex-edge incidence matrix: column j marks the endpoints of edge j."""
    a = [[0] * g.m for _ in range(g.n)]
    for j, (u, v) in enumerate(g.edges):
        a[u][j] = 1
        a[v][j] = 1
    return IntMatrix(g.n, g.m, tuple(tuple(row) for row in a))
