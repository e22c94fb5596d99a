"""Exact polynomial arithmetic over the integers.

The computational kernel: integer univariate and bivariate polynomials, characteristic polynomials
and determinants of integer matrices (modulo one 2^e - 1 above Hadamard's bound, e prime),
products of a bivariate factor over the roots of a monic polynomial (one resultant over Z[x], whose
loop also runs over Z on sequences of ints), and the square-free parts of a monic polynomial (Yun's
algorithm on primitive remainder sequences, over Z).  One ring arithmetic serves both polynomial classes:
IntPoly is a polynomial over Z, and BiPoly a polynomial in the second variable over IntPoly in the
first, the layout the resultant in the second variable reads.  No floating point; every result is
exact by a proven bound.  charpoly_pair takes a graph's Q and its complement's at once.
Constructors take ints only, and operator results are canonical by construction.
"""

from __future__ import annotations

from contextlib import suppress
from functools import lru_cache, partial
from itertools import count
from math import gcd, isqrt, prod
from operator import index, mul

from .graph import Graph
from .linalg import IntMatrix

__all__ = [
    "IntPoly",
    "BiPoly",
    "NotDivisible",
    "DegreeMismatch",
    "exact_div",
    "compose_linear",
    "charpoly",
    "charpoly_pair",
    "det",
    "resultant",
    "reduced_qpoly",
    "eig_product",
]


class NotDivisible(ArithmeticError):
    """Exact division failed; the quotient is not an integer polynomial."""


class DegreeMismatch(ValueError):
    """A polynomial came out with the wrong degree."""


def _trim(cs: list) -> tuple:
    """cs with its trailing zeros dropped, ints or IntPoly alike, as a tuple."""
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


class _Poly:
    """A polynomial over the ring whose zero is the class's _zero; coeffs ascending, no trailing zero.

    The ring arithmetic of IntPoly and BiPoly.  An int operand of +, - or * is a constant of
    the ring; any other operand, the other polynomial class too, gives NotImplemented both
    ways, so TypeError.  Results are built as type(self)."""

    __slots__ = ("coeffs",)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):  # pickle and copy rebuild through _poly, as __setattr__ refuses the slot
        return _poly, (type(self), list(self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if type(other) is not (cls := type(self)):
            if not isinstance(other, int):
                return NotImplemented
            other = _poly(cls, [cls._zero + other])
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _poly(cls, out)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not type(self) and not isinstance(other, int):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return _poly(type(self), [-c for c in self.coeffs])

    def __mul__(self, other):
        if type(other) is not (cls := type(self)):  # one test on the hot path, same class
            if not isinstance(other, int):
                return NotImplemented
            return _poly(cls, [other * c for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        out = [cls._zero] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return _poly(cls, out)

    __rmul__ = __mul__


class IntPoly(_Poly):
    """Univariate integer polynomial; coefficients ascending, no trailing zeros.

    A coefficient that is not an int, such as 1.5 or "3", raises TypeError; so
    does an operand of +, - or * that is neither an IntPoly nor an int.  The zero
    polynomial is false and every other polynomial true."""

    __slots__ = ()
    _zero = 0

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _trim([index(c) for c in coeffs]))

    @classmethod
    def zero(cls) -> IntPoly:
        return cls(())

    @classmethod
    def one(cls) -> IntPoly:
        return cls((1,))

    @classmethod
    def x(cls) -> IntPoly:
        return cls((0, 1))

    @classmethod
    def constant(cls, c: int) -> IntPoly:
        return cls((c,))

    @classmethod
    def linear_root(cls, root: int) -> IntPoly:
        """The monic factor (x - root)."""
        return cls((-root, 1))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def norm1(self) -> int:
        """The sum of |coefficient|: submultiplicative, and at least every |coefficient|."""
        return sum(map(abs, self.coeffs))

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"

    def __pow__(self, k: int) -> IntPoly:
        """Binary powering: floor(log2 k) + popcount(k) - 1 products for k >= 1, none wasted."""
        if k < 0:
            raise ValueError("pow: exponent must be >= 0")
        out, base = None, self
        while k > 1:
            if k & 1:
                out = base if out is None else out * base
            base, k = base * base, k >> 1
        return out * base if out is not None else base if k else IntPoly.one()

    def __call__(self, x):
        """The value at x; x may be an int or an IntPoly."""
        return _horner(self.coeffs, x)

    def to_string(self) -> str:
        """Ascending coefficients as space-separated decimal strings."""
        if not self:
            return "0"
        return " ".join(str(c) for c in self.coeffs)

    def pretty(self, var: str = "x") -> str:
        """Conventional display, highest power first: x^2 - 14*x + 40."""
        return _poly(BiPoly, [self]).pretty(var)


def _horner(cs, x):
    """The polynomial with ascending coefficients cs at x, by Horner's rule."""
    y = 0
    for c in reversed(cs):
        y = y * x + c
    return y


def exact_div(a: IntPoly, b: IntPoly) -> IntPoly:
    """Quotient q with a = b*q; raises NotDivisible when no such q exists.

    A divisor of 1 or -1 returns a or -a, and a zero a returns a: safe, as IntPoly is immutable."""
    if b.coeffs == (1,):
        return a
    if b.coeffs == (-1,):
        return -a
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return a
    if a.degree < b.degree:
        raise NotDivisible(f"degree {a.degree} < {b.degree}")
    rem = list(a.coeffs)
    lead = b.coeffs[-1]
    qdeg = a.degree - b.degree
    quot = [0] * (qdeg + 1)
    for k in range(qdeg, -1, -1):
        top = rem[k + b.degree]
        if top % lead != 0:
            raise NotDivisible("leading coefficient does not divide")
        t = top // lead
        quot[k] = t
        if t:
            for i, c in enumerate(b.coeffs):
                rem[k + i] -= t * c
    if any(rem):
        raise NotDivisible("nonzero remainder")
    return _intpoly(quot)


def compose_linear(f: IntPoly, a: int, b: int) -> IntPoly:
    """Expand f(a*x + b) exactly (a is +1 or -1 in every use here), by Horner's rule."""
    return f(IntPoly((b, a))) if f else f


class BiPoly(_Poly):
    """Bivariate integer polynomial: a polynomial in the second variable v over IntPoly in the first, u.

    The two variables are abstract; callers bind them to (lambda, q) for
    per-eigenvalue factors or to the two arguments of a matrix polynomial.
    coeffs holds the coefficients of v^0, v^1, ... as IntPoly in u, so the ring
    arithmetic is _Poly's over IntPoly's, and the resultant in v reads coeffs as
    it is.  grid[i][j] is the coefficient of u^i v^j, in ragged
    canonical rows: no row ends in a zero and the last row is not empty.  A
    coefficient that is not an int raises TypeError.
    """

    __slots__ = ()
    _zero = IntPoly.zero()

    def __init__(self, grid=()):
        rows = [[index(c) for c in row] for row in grid]
        width = max(map(len, rows), default=0)
        columns = [_intpoly([row[j] if j < len(row) else 0 for row in rows]) for j in range(width)]
        object.__setattr__(self, "coeffs", _trim(columns))

    @classmethod
    def constant(cls, c: int) -> BiPoly:
        return _poly(cls, [IntPoly.constant(c)])

    @classmethod
    def u(cls) -> BiPoly:
        """The first variable."""
        return _poly(cls, [IntPoly.x()])

    @classmethod
    def v(cls) -> BiPoly:
        """The second variable."""
        return _poly(cls, [IntPoly.zero(), IntPoly.one()])

    @property
    def grid(self) -> tuple:
        columns = [c.coeffs for c in self.coeffs]
        return tuple(_trim([c[i] if i < len(c) else 0 for c in columns]) for i in range(self.deg_u + 1))

    @property
    def deg_u(self) -> int:
        return max((c.degree for c in self.coeffs), default=-1)

    def __repr__(self):
        return f"BiPoly({[list(r) for r in self.grid]})"

    def eval_u(self, x: int) -> IntPoly:
        """Substitute an integer for the first variable; polynomial in the second."""
        return _intpoly([c(x) for c in self.coeffs])

    def pretty(self, u: str = "x", v: str = "y") -> str:
        """Term-by-term display, u-major: x^2 - x*y + 3."""
        if not self:
            return "0"
        terms = []
        for i, row in reversed(list(enumerate(self.grid))):
            for j in range(len(row) - 1, -1, -1):
                c = row[j]
                if c == 0:
                    continue
                mag = abs(c)
                names = []
                if i:
                    names.append(u if i == 1 else f"{u}^{i}")
                if j:
                    names.append(v if j == 1 else f"{v}^{j}")
                body = "*".join(names) if names else ""
                if body:
                    body = body if mag == 1 else f"{mag}*{body}"
                else:
                    body = str(mag)
                if not terms:
                    terms.append(body if c > 0 else f"-{body}")
                else:
                    terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms)


_new, _set_coeffs = object.__new__, _Poly.coeffs.__set__


def _poly(cls, cs: list):
    """The operators' constructor: a cls on the list cs of its ring's elements (ints for
    IntPoly, IntPoly for BiPoly), trimmed in place, unchecked."""
    p = _new(cls)
    _set_coeffs(p, _trim(cs))
    return p


_intpoly = partial(_poly, IntPoly)  # IntPoly's, on the hot paths


# ----------------------------------------------------------------------------
# Exact characteristic polynomials and determinants.
# ----------------------------------------------------------------------------


def charpoly(mat: IntMatrix) -> IntPoly:
    """Characteristic polynomial det(x*I - M), monic of degree dim(M).

    Hadamard's bound on each principal k-minor gives |c_(N-k)| <= e_k(|row_i|) <= B =
    prod_i (2 + isqrt(sum_j a_ij^2)).  Modulo p = 2^e - 1 > 2B, e the least prime above bits(B),
    a similarity pivoting on any nonzero entry below the subdiagonal makes M upper Hessenberg;
    its recurrence gives the coefficients, lifted to (-p/2, p/2) (Cohen, A Course in
    Computational Algebraic Number Theory, 2.2).  p need not be prime while every pivot is a
    unit; each prime factor of 2^e - 1 is 1 mod 2e, so a pivot that is not is rare, pow raises
    ValueError on it, and the next prime e is tried.  The recurrence packs a block's charpoly in
    W-bit slots, W = 2e + bits(N + 1), each in [0, p] (p is a redundant 0).  A step adds at most
    k + 2 <= N + 1 terms under 2^(2e) into a slot (a slot, or one times p - h[k][k] or
    p - h[i][k]*t in [1, p]), so no slot carries; adding each slot's bits from e up back in at bit
    0 (2^e = 1 mod p) until none are left puts it in [0, p] again.  When column k - 1 is zero from
    row k down, h[k][k-1] = 0 ends every later step's product t at i = k - 1, so no row above k is
    read in a column from k on, and the reduction skips those entries.  As every entry stays in [0, p),
    where x - t*0 = x + t*0 = x, an elimination writes row i only at column k and at row k's nonzero
    columns, and column k only in column i's nonzero rows: the dense reduction's matrix, entry for entry.
    """
    e = prod(2 + isqrt(sum(map(mul, row, row))) for row in mat.entries).bit_length()
    while True:  # e goes from bits(B) to the least prime above it, then to the next prime
        with suppress(ValueError):  # when a pivot shares a factor with 2^e - 1
            p = (1 << (e := _prime_above(e))) - 1
            return _hessenberg_charpoly(_hessenberg([[x % p for x in row] for row in mat.entries], p), p)[0]


def charpoly_pair(g: Graph) -> tuple[IntPoly, IntPoly]:
    """(charpoly(Q(g)), charpoly(Q(complement(g)))) from one reduction, set up from g's edge list.

    Bounds: row i of Q holds d_i once and 1 d_i times, so sum_j a_ij^2 = d_i^2 + d_i; the complement's
    Q = (N - 2)I + J - Q holds N - 1 - d_i for d_i, so (N - 1 - d_i)(N - d_i).  p is above both bounds.
    Rows: the reduction fixes e_0, so on S^-1 Q S, S = I + sum_(i>=1) e_i e_0^T, it gives H = L^-1 Q L with
    L e_0 = S e_0 = 1.  Column 0 of Q S is Q 1 = 2 deg, the others are Q's.  Row i >= 1 of S^-1 Q S is row i
    of Q S less row 0, which is nonzero only at column 0 and at vertex 0's neighbours, so only those entries
    can leave [0, p).  The row 1^T S below takes the column operations and ends as w^T = 1^T L, so
    L^-1 J L = e_0 w^T.  Complement: L^-1 Q(complement) L = (N - 2)I + e_0 w^T - H = -H', where
    H' = H - e_0 w^T - (N - 2)I is H with row 0 and the diagonal rewritten; as charpoly(-H')(x) =
    (-1)^N charpoly(H')(-x), coefficient j of charpoly(H') takes the sign (-1)^(N - j)."""
    n, deg = g.n, g.degrees()
    e = max(prod(2 + isqrt(d * d + d) for d in deg),
            prod(2 + isqrt((n - 1 - d) * (n - d)) for d in deg)).bit_length()
    while True:  # as charpoly's
        with suppress(ValueError):
            p, rows = (1 << (e := _prime_above(e))) - 1, [[0] * n for _ in range(n)]
            for u, v in g.edges:
                rows[u][v] = rows[v][u] = 1
            for i, row in enumerate(rows):  # Q S: Q with column 0 = Q 1 = 2 deg
                row[i], row[0] = deg[i], 2 * deg[i]
            hood = [j for j in range(1, n) if rows[0][j]]  # vertex 0's neighbours
            for row in rows[1:]:  # S^-1 (Q S): row 0 taken from each row below it
                row[0] = (row[0] - 2 * deg[0]) % p
                for j in hood:
                    row[j] = (row[j] - 1) % p
            *h, w = _hessenberg([*rows, [n, *[1] * (n - 1)]], p)  # S^-1 Q S, then 1^T S
            f, fbar = _hessenberg_charpoly(h, p, w)  # H and H'
            return f, _intpoly([(-1) ** (n - j) * c for j, c in enumerate(fbar.coeffs)])


@lru_cache(maxsize=None)  # keyed by bit lengths of bounds: a few dozen in a long run
def _prime_above(k: int) -> int:
    return next(q for q in count(k + 1) if all(q % d for d in range(2, isqrt(q) + 1)))


def _hessenberg(h: list, p: int) -> list:
    """h with its leading square block made upper Hessenberg mod p in place, e_0 fixed, rows below it
    taking the column operations (see charpoly_pair).  Entries nothing reads are left stale.  A step
    writes only where the pivot row or the eliminated column is nonzero (see charpoly)."""
    n, s = len(h[0]) if h else 0, 0
    for k in range(1, n - 1):
        if not (nz := [i for i in range(k, n) if h[i][k - 1]]):
            s = k  # deflation: see charpoly
        elif (piv := nz[0]) != k:
            h[k], h[piv] = h[piv], h[k]
            for row in h[s:]:
                row[k], row[piv] = row[piv], row[k]
        if not nz[1:]:  # no row to eliminate
            continue
        hk, inv = h[k], pow(h[k][k - 1], -1, p)
        columns = [k, *filter(hk.__getitem__, range(k + 1, n))]  # of row k, only column k changes below
        for i in nz[1:]:  # row_i -= t*row_k from column k (column k - 1 is not read again)
            t, hi = h[i][k - 1] * inv % p, h[i]
            for j in columns:
                hi[j] = (hi[j] - t * hk[j]) % p
            for row in h[s:]:  # col_k += t*col_i
                if x := row[i]:
                    row[k] = (row[k] + t * x) % p
    return h


def _hessenberg_charpoly(h: list, p: int, w: list | None = None) -> tuple:
    """(charpoly,) of the upper Hessenberg rows h, entries in [0, p], mod p = 2^e - 1, lifted; given w, also
    that of H' = h - e_0 w^T - (N - 2)I (see charpoly_pair), each h[i][k]*h[i+1][i]...h[k][k-1] taken once."""
    width = 2 * (e := p.bit_length()) + ((n := len(h)) + 1).bit_length()
    lo, polys, vpolys = ((1 << width * (n + 1)) - 1) // ((1 << width) - 1) * p, [1], [1]  # p in each slot
    for k in range(n):  # polys[k] (vpolys[k]) is the leading k x k block's charpoly in h (in H'), packed
        v = (polys[k] << width) + (p - h[k][k]) * polys[k]
        u = (vpolys[k] << width) + (p - (h[k][k] - n + 2 - (0 if k else w[0])) % p) * vpolys[k] if w else 0
        t = 1  # h[i+1][i] * ... * h[k][k-1]
        for i in range(k - 1, -1, -1):
            if not (t := t * h[i + 1][i] % p):
                break
            if c := h[i][k] * t % p:
                v += (c := p - c) * polys[i]
                if w and i:
                    u += c * vpolys[i]
        while top := (v - (r := v & lo)) >> e:  # each slot's bits from e up, moved to bit 0
            v = r + top
        polys.append(v)
        if w:
            if k and (c := (h[0][k] - w[k]) * t % p):  # t is the product down to row 0, or 0
                u += p - c
            while top := (u - (r := u & lo)) >> e:
                u = r + top
            vpolys.append(u)
    return tuple(_intpoly([c - p if c > p // 2 else c for c in (q[n] >> width * j & p for j in range(n + 1))])
                 for q in ((polys, vpolys) if w else (polys,)))


# No caller in src: benchmarks/tracing.py wraps it, and CI's traced smoke needs every wrapped name bound.
def det(mat: IntMatrix) -> int:
    """Integer determinant: (-1)^N times the constant term of charpoly(M)."""
    return (-1) ** mat.rows * charpoly(mat).coeffs[0]


def reduced_qpoly(f: IntPoly, r: int) -> IntPoly:
    """Strip the known root 2r from a monic characteristic polynomial.

    For a connected r-regular graph the signless Laplacian has 2r as an
    eigenvalue; the quotient is monic of degree n-1 and carries the rest
    of the spectrum.
    """
    if not f.is_monic:
        raise ValueError("reduced_qpoly: input must be monic")
    return exact_div(f, IntPoly.linear_root(2 * r))


# ----------------------------------------------------------------------------
# Eigen-products as resultants over Z[x].
# ----------------------------------------------------------------------------


def resultant(a: BiPoly, b: BiPoly) -> IntPoly:
    """Res_v(a, b), the resultant in the second variable: a polynomial in the first.

    The subresultant remainder sequence over Z[u] (Collins 1967, J. ACM 14;
    Cohen, A Course in Computational Algebraic Number Theory, Algorithm
    3.3.7): each pseudo-remainder of A by B is divided by g*h^(deg A - deg B),
    which keeps coefficient growth polynomial (division by +-1 is free).  Every
    division is exact by the subresultant theorem; a remainder raises NotDivisible.
    The pseudo-remainder scales lazily: an entry takes its power of lc(B) when a
    step first writes it, not once per step, and h is updated only when read.
    """
    return _subresultant(a.coeffs, b.coeffs, IntPoly.one(), exact_div)


def _int_div(a: int, b: int) -> int:
    """exact_div for ints."""
    quot, rem = divmod(a, b)
    if rem:
        raise NotDivisible("nonzero remainder")
    return quot


def _prem(A, B, one) -> tuple:
    """prem(A, B) = c^(deg A - deg B + 1) A mod B, c = lc(B), on coefficient sequences over the ring of
    one, trimmed.  Each entry is scaled only when written: the top is as the step before wrote it,
    entries above k gain one c since then, k gets ck = c^step."""
    r, c, ck, n = list(A), B[-1], one, len(B) - 1
    for k in range(len(A) - len(B), -1, -1):
        top, ck = r[k + n], ck * c
        r[k] = r[k] * ck - top * B[0]
        for i in range(1, n):
            r[k + i] = r[k + i] * c - top * B[i]
    return _trim(r[:n])


def _subresultant(A, B, one, div):
    """resultant's loop on the coefficient tuples A, B over the ring of one (1 or IntPoly.one()).

    A short B takes no loop (von zur Gathen and Gerhard, Modern Computer Algebra, 6.3), m = deg A:
    Res(A, b0 + b1 v) = (-1)^m b1^m A(-b0 / b1); for B = b0 + b1 v + s v^2, s = +-1, whose roots have
    product s b0 and sum -s b1, A = u v + w mod B gives Res(A, B) = s^m (u^2 s b0 - u w s b1 + w^2).
    """
    if not A or not B:
        raise ValueError("resultant of the zero polynomial")
    sign = -1 if len(A) < len(B) and (len(A) - 1) * (len(B) - 1) % 2 else 1
    if len(A) < len(B):
        A, B = B, A
    if len(B) == 2:  # b1^m A(t / b1), t = -b0, by Horner's rule: a_j takes power = b1^(m-j)
        t, res, power = -B[0], A[-1], one
        for a in reversed(A[:-1]):
            power *= B[1]
            res = res * t + a * power
        return res if sign * (-1) ** (len(A) - 1) > 0 else -res
    if len(B) == 3 and B[2] * B[2] == one:
        s = 1 if B[2] == one else -1
        b0, b1, u, w = s * B[0], s * B[1], A[-1], A[-2]
        for a in reversed(A[:-2]):  # (u v + w) v + a = (w - b1 u) v + a - b0 u mod v^2 + b1 v + b0
            u, w = w - b1 * u, a - b0 * u
        res = u * u * b0 - u * w * b1 + w * w
        return res if sign * s ** (len(A) - 1) > 0 else -res
    g = h = one
    delta = 0  # h owes the update h <- g^delta / h^(delta-1) until something reads it
    while len(B) > 1:
        if delta:
            h = div(g ** delta, h ** (delta - 1))
        m, n = len(A) - 1, len(B) - 1
        if m * n % 2:
            sign = -sign
        c, delta = B[-1], m - n
        if not (r := _prem(A, B, one)):
            return 0 * one
        scale = g * h ** delta
        A, B, g = B, [div(t, scale) for t in r], c
    d = len(A) - 1
    if d > 1 and delta:
        h = div(g ** delta, h ** (delta - 1))
    # at d = 1 the division is by h^0 = 1, so B[0] is the resultant; d = 0 has sign 1
    res = div(B[0] ** d, h ** (d - 1)) if d > 1 else B[0] if d else one
    return res if sign > 0 else -res


def eig_product(p: IntPoly, g: BiPoly) -> IntPoly:
    """Product of g(x, alpha) over the roots alpha of the monic polynomial p.

    For monic p this product is the resultant Res_v(p(v), g(u, v)), taken
    exactly over Z[u]; a constant p gives 1.  The first variable of g is the
    surviving one; the second is bound to the roots of p.
    """
    if not p.is_monic:
        raise ValueError("eig_product: p must be monic")
    if not g:
        raise ValueError("eig_product: g must be nonzero")
    return resultant(_poly(BiPoly, [_intpoly([c]) for c in p.coeffs]), g)


def _squarefree(p: IntPoly) -> tuple:
    """((h's coefficients, k), ...), k ascending, with p = prod h^k, the h monic, square-free, nonconstant
    and pairwise coprime: Yun's algorithm (von zur Gathen and Gerhard, Modern Computer Algebra, 14.6) for
    a monic p.  Each gcd has a monic argument, so its monic form has integer coefficients (Gauss's
    lemma): the last term of a primitive remainder sequence, with a positive leading coefficient."""
    def monic_gcd(a, b):
        a, b = a.coeffs, b.coeffs
        while b:
            content = gcd(*b) if b[-1] > 0 else -gcd(*b)
            b = tuple(_int_div(c, content) for c in b)  # primitive, with a positive leading coefficient
            a, b = b, _prem(a, b, 1)
        return _intpoly(list(a))

    def deriv(a):
        return _intpoly([i * c for i, c in enumerate(a.coeffs)][1:])

    a = monic_gcd(p, dp := deriv(p))
    b, c, parts = exact_div(p, a), exact_div(dp, a), []
    for k in count(1):
        if b.degree < 1:
            return tuple(parts)
        h = monic_gcd(b, d := c - deriv(b))
        b, c = exact_div(b, h), exact_div(d, h)
        if h.degree:
            parts.append((h.coeffs, k))


def signed_digits(v: int, k: int) -> IntPoly:
    """The P with P(2^k) = v and coefficients in [-2^(k-1), 2^(k-1)): unique, as its lowest
    is d = v mod 2^k, or d - 2^k when d >= 2^(k-1), which borrows 1 from the digits above."""
    cs, mask, half = [], (1 << k) - 1, 1 << (k - 1)
    while v:
        d = v & mask
        borrow = d >= half
        cs.append(d - (borrow << k))
        v = (v >> k) + borrow
    return _intpoly(cs)
