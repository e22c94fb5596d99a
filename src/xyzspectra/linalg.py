"""Dense matrices over the integers (arbitrary precision).

Everything downstream depends on exactness, so entries are plain Python
ints and no floating point appears anywhere.  A matrix has at most n + m
rows, which the edge-list header limits to 1000, so dense row tuples are
the simplest correct storage.  The characteristic polynomial reads those
row tuples directly; the schoolbook product serves the identity checks.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        tup = tuple(tuple(int(x) for x in row) for row in rows)
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

    def __sub__(self, other: IntMatrix) -> IntMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("sub: shapes differ")
        return IntMatrix(
            self.rows,
            self.cols,
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
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


def adjacency(g: Graph) -> IntMatrix:
    a = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        a[u][v] = 1
        a[v][u] = 1
    return IntMatrix.from_rows(a)


def degree_matrix(g: Graph) -> IntMatrix:
    deg = g.degrees()
    return IntMatrix.from_rows(
        [[deg[i] if i == j else 0 for j in range(g.n)] for i in range(g.n)]
    )


def laplacian(g: Graph) -> IntMatrix:
    """Degree matrix minus adjacency."""
    return degree_matrix(g) - adjacency(g)


def signless_laplacian(g: Graph) -> IntMatrix:
    """Degree matrix plus adjacency."""
    return degree_matrix(g) + adjacency(g)


def incidence(g: Graph) -> IntMatrix:
    """n x m vertex-edge incidence matrix: column j marks the endpoints of edge j."""
    a = [[0] * g.m for _ in range(g.n)]
    for j, (u, v) in enumerate(g.edges):
        a[u][j] = 1
        a[v][j] = 1
    return IntMatrix(g.n, g.m, tuple(tuple(row) for row in a))
