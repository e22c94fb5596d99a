"""The exact polynomial kernel, checked against independent brute force.

The characteristic polynomial (Hessenberg reduction modulo one 2^e - 1 in
production) is cross-checked by expanding det(x*I - M) as a signed sum over
permutations (an O(n!) oracle that shares no code with the production path),
against Berkowitz's division-free recurrence over Z, and against Bareiss
determinants det(x0*I - M) at x0 = 0..N joined by Lagrange interpolation
over the rationals.  The resultant over Z[x] (a subresultant remainder
sequence in production) and the eigen-product built on it are checked
against direct substitution of known roots and against Sylvester-matrix
Bareiss resultants at sample points joined the same way.
"""

import copy
import itertools
import pickle
import random
from fractions import Fraction
from math import isqrt, lcm, prod
from operator import mul
from unittest import mock

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from xyzspectra import exactpoly
from xyzspectra.exactpoly import (
    BiPoly,
    IntPoly,
    NotDivisible,
    _horner,
    _int_div,
    _squarefree,
    _subresultant,
    _trim,
    charpoly,
    charpoly_pair,
    compose_linear,
    det,
    eig_product,
    exact_div,
    reduced_qpoly,
    resultant,
    signed_digits,
)
from xyzspectra.formulas import _eig_bound, list_cases
from xyzspectra.graph import Graph, circulant_graph, complement, complete_graph, cycle_graph, petersen_graph
from xyzspectra.linalg import IntMatrix, NotSquare, signless_laplacian
from xyzspectra.transform import XyzCase, xyz_transform

from helpers import from_roots


def poly(*coeffs):
    """Ascending-coefficient literal."""
    return IntPoly(coeffs)


def q_columns(g):
    """g's coefficients of v^0, v^1, ... as lists of u-coefficients, each padded with a zero as
    a compiled descriptor pads its columns to the factor's degree in lam."""
    return [[*c.coeffs, 0] for c in g.coeffs]


def deg_v(f):
    """f's degree in its second variable: the v-coefficients it holds, less one."""
    return len(f.coeffs) - 1


def brute_charpoly(mat):
    """Permutation expansion of det(x*I - M); independent oracle, n <= 6."""
    n = mat.rows
    entries = [
        [
            IntPoly((-mat.entries[i][j], 1)) if i == j else IntPoly((-mat.entries[i][j],))
            for j in range(n)
        ]
        for i in range(n)
    ]
    total = IntPoly.zero()
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        term = IntPoly.one()
        for i in range(n):
            term = term * entries[i][perm[i]]
        total = total + (-1) ** (inversions % 2) * term
    return total


def lagrange_interpolate(points):
    """Lagrange interpolation through integer points over the rationals;
    ascending Fraction coefficients.  Each basis polynomial prod_{j != i}
    (x - xj) has integer coefficients; the weighted sum is taken over the
    common denominator of the (xi - xj) products."""
    terms = []
    for i, (xi, yi) in enumerate(points):
        basis, denom = [1], 1
        for j, (xj, _) in enumerate(points):
            if j != i:
                basis = [a - xj * b for a, b in zip([0] + basis, basis + [0])]
                denom *= xi - xj
        terms.append((basis, yi, denom))
    common = lcm(*(denom for _, _, denom in terms))
    numer = [0] * len(points)
    for basis, yi, denom in terms:
        weight = yi * (common // denom)
        for k, c in enumerate(basis):
            numer[k] += c * weight
    return [Fraction(c, common) for c in numer]


def integer_interpolate(values):
    """The integer polynomial through (x, values[x]) for x = 0..D, by Lagrange
    interpolation; every coefficient must come out with denominator 1."""
    coeffs = lagrange_interpolate(list(enumerate(values)))
    assert all(c.denominator == 1 for c in coeffs)
    return IntPoly(int(c) for c in coeffs)


def bareiss_det(mat):
    """Integer determinant via fraction-free (Bareiss) elimination."""
    n = mat.rows
    if n == 0:
        return 1
    a = [list(row) for row in mat.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def berkowitz_charpoly(mat):
    """Berkowitz's division-free recurrence (Berkowitz 1984, Inf. Process.
    Lett. 18), exact over Z with no bound and no modulus.  Write the leading
    (k+1) x (k+1) block as the k x k block C bordered by the column S, the row
    R and the corner a_kk.  The block's descending coefficients are the
    lower-triangular Toeplitz matrix with first column
    [1, -a_kk, -R*S, -R*C*S, ..., -R*C^(k-1)*S] times C's."""
    a = mat.entries
    desc = [1]  # descending coefficients of the leading k x k block
    for k in range(mat.rows):
        block = [row[:k] for row in a[:k]]
        bottom = a[k][:k]
        v = [row[k] for row in a[:k]]
        col = [1, -a[k][k]]
        for i in range(k):
            if i:
                v = [sum(map(mul, row, v)) for row in block]
            col.append(-sum(map(mul, bottom, v)))
        desc = [
            sum(col[i - j] * desc[j] for j in range(min(i, k) + 1))
            for i in range(k + 2)
        ]
    return IntPoly(reversed(desc))


def bareiss_charpoly(mat):
    """det(x0*I - M) by Bareiss at x0 = 0..N, joined by interpolation;
    a reference for charpoly that shares no code with either recurrence."""
    n = mat.rows
    return integer_interpolate([
        bareiss_det(IntMatrix(
            [[(x0 if i == j else 0) - mat.entries[i][j] for j in range(n)] for i in range(n)]
        ))
        for x0 in range(n + 1)
    ])


def sylvester_resultant(pc, hc):
    """Resultant of two integer polynomials, given as ascending coefficient
    lists of formal degree len - 1, as the Bareiss determinant of their
    Sylvester matrix."""
    dp, dh = len(pc) - 1, len(hc) - 1
    size = dp + dh
    if size == 0:
        return 1
    rows = [[0] * i + pc[::-1] + [0] * (size - dp - 1 - i) for i in range(dh)]
    rows += [[0] * i + hc[::-1] + [0] * (size - dh - 1 - i) for i in range(dp)]
    return bareiss_det(IntMatrix(rows))


def sylvester_bi_resultant(a, b):
    """Res_v(a, b) of two BiPoly: one Sylvester resultant of the v-coefficients
    at each x0 = 0..D, D = deg_u(a)*deg_v(b) + deg_u(b)*deg_v(a), joined by
    interpolation.  Evaluating each coefficient keeps the formal degrees, so
    a leading coefficient vanishing at x0 does not change the matrix shape."""
    def at(f, x0):
        return [sum(row[j] * x0 ** i for i, row in enumerate(f.grid) if j < len(row))
                for j in range(deg_v(f) + 1)]

    bound = a.deg_u * deg_v(b) + b.deg_u * deg_v(a)
    return integer_interpolate(
        [sylvester_resultant(at(a, x0), at(b, x0)) for x0 in range(bound + 1)]
    )


class TestArithmetic:
    def test_exact_div_basic(self):
        assert exact_div(poly(-1, 0, 1), poly(-1, 1)) == poly(1, 1)

    def test_exact_div_not_divisible(self):
        with pytest.raises(NotDivisible, match="nonzero remainder"):
            exact_div(poly(1, 0, 1), poly(-1, 1))
        with pytest.raises(NotDivisible, match="degree 1 < 2"):
            exact_div(poly(1, 1), poly(1, 0, 1))
        with pytest.raises(NotDivisible, match="leading coefficient does not divide"):
            exact_div(poly(1, 1), poly(1, 2))  # x + 1 over 2x + 1

    def test_pow_binomial(self):
        assert poly(-2, 1) ** 3 == poly(-8, 12, -6, 1)
        with pytest.raises(ValueError, match="exponent must be >= 0"):
            poly(-2, 1) ** -1

    def test_pow_is_repeated_product_in_minimal_products(self, monkeypatch):
        # k = 0, 1 and the powers of two are the loop's exit boundaries; for k >= 1 binary
        # powering needs floor(log2 k) squarings and popcount(k) - 1 products into the result
        rng = random.Random(37)
        cases = []
        for k in range(41):
            p = IntPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])
            cases.append((p, k, prod([p] * k, start=IntPoly.one())))
        calls, plain_mul = [], IntPoly.__mul__

        def counting(a, b):
            calls.append((a, b))
            return plain_mul(a, b)

        monkeypatch.setattr(IntPoly, "__mul__", counting)
        for p, k, expected in cases:
            calls.clear()
            assert p ** k == expected
            if k:
                assert len(calls) == k.bit_length() - 1 + bin(k).count("1") - 1, k

    def test_mul_and_eval(self):
        p = poly(1, 2) * poly(3, 4)
        assert p == poly(3, 10, 8)
        assert p(2) == 55

    def test_zero_normalization(self):
        assert poly(0, 0, 0) == IntPoly.zero()
        assert poly(1, 2, 0, 0).degree == 1
        assert IntPoly.zero().degree == -1

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            exact_div(poly(1), IntPoly.zero())

    def test_unit_division_returns_its_operand(self):
        # a divisor of +-1 is answered before any other check: the operand itself, or its negation
        for p in (poly(3, -1, 2), IntPoly.zero()):
            assert exact_div(p, IntPoly.one()) is p
            assert exact_div(p, -IntPoly.one()) == -p

    def test_pretty(self):
        assert poly(40, -14, 1).pretty("lam") == "lam^2 - 14*lam + 40"
        assert IntPoly.zero().pretty() == "0"
        assert IntPoly.zero().to_string() == "0"
        assert repr(poly(40, -14, 1)) == "IntPoly([40, -14, 1])"

    def test_int_mixing(self):
        p = poly(1, 2)
        assert 3 + p == p + 3 == poly(4, 2)
        assert p - 3 == poly(-2, 2)
        assert 3 - p == poly(2, -2)
        assert (p - 1) + (1 - p) == IntPoly.zero()

    def test_non_int_coefficients_rejected(self):
        for bad in ([1.5, 2.9], [1.0], ["3"], [1, None]):
            with pytest.raises(TypeError):
                IntPoly(bad)
        with pytest.raises(TypeError):
            IntPoly.constant(1.5)

    def test_non_int_operands_rejected(self):
        # neither an IntPoly nor an int: NotImplemented both ways, so TypeError
        p = IntPoly.x()
        for bad in (1.5, "3", None, BiPoly.u(), Fraction(1, 2)):
            for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
                with pytest.raises(TypeError):
                    op(p, bad)
                with pytest.raises(TypeError):
                    op(bad, p)
        assert True * p == p * True == p


class TestComposeLinear:
    def test_square_shift(self):
        assert compose_linear(poly(0, 0, 1), -1, 2) == poly(4, -4, 1)

    def test_identity_shift(self):
        f = poly(-4, 9, -6, 1)
        assert compose_linear(f, 1, 0) == f

    def test_zero_polynomial_stays_a_polynomial(self):
        # Horner's rule on no coefficients would give the int 0
        for a in (1, -1):
            out = compose_linear(IntPoly.zero(), a, 3)
            assert isinstance(out, IntPoly) and out == IntPoly.zero()

    def test_reflect_k3(self):
        # f(1 - x) for f = (x-4)(x-1)^2 is -x^3 - 3x^2; spot values at 0..3
        f = poly(-4, 9, -6, 1)
        g = compose_linear(f, -1, 1)
        assert g == poly(0, 0, -3, -1)
        for x in range(4):
            assert g(x) == f(1 - x)


class TestCharpoly:
    def test_zero_matrix(self):
        assert charpoly(IntMatrix([[0, 0], [0, 0]])) == poly(0, 0, 1)

    def test_k3_hand_expansion(self):
        assert charpoly(signless_laplacian(complete_graph(3))) == poly(-4, 9, -6, 1)

    def test_c4_hand_expansion(self):
        assert charpoly(signless_laplacian(cycle_graph(4))) == poly(0, -16, 20, -8, 1)

    def test_known_spectra(self):
        # Q = D + A shifts the adjacency spectrum by the degree:
        # Petersen A-spectrum {3, 1^5, (-2)^4}, 3-cube {3, 1^3, (-1)^3, -3},
        # K_{4,4} {4, 0^6, -4}
        from xyzspectra.graph import complete_bipartite_graph, hypercube_graph

        assert charpoly(signless_laplacian(petersen_graph())) == from_roots(
            6, 4, 4, 4, 4, 4, 1, 1, 1, 1
        )
        assert charpoly(signless_laplacian(hypercube_graph(3))) == from_roots(
            6, 4, 4, 4, 2, 2, 2, 0
        )
        assert charpoly(signless_laplacian(complete_bipartite_graph(4))) == from_roots(
            8, 4, 4, 4, 4, 4, 4, 0
        )

    def test_against_permutation_expansion(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(1, 5)
            mat = IntMatrix(
                [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            )
            assert charpoly(mat) == brute_charpoly(mat)

    def test_constant_term_is_signed_det(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 6)
            mat = IntMatrix(
                [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            )
            assert charpoly(mat)(0) == (-1) ** (n % 2) * bareiss_det(mat)

    def test_block_diagonal_factorizes(self):
        # charpoly of a block-diagonal matrix is the product of the blocks'
        rng = random.Random(19)
        for _ in range(10):
            na, nb = rng.randint(1, 4), rng.randint(1, 4)
            a = [[rng.randint(-5, 5) for _ in range(na)] for _ in range(na)]
            b = [[rng.randint(-5, 5) for _ in range(nb)] for _ in range(nb)]
            rows = [row + [0] * nb for row in a] + [[0] * na + row for row in b]
            combined = charpoly(IntMatrix(rows))
            parts = charpoly(IntMatrix(a)) * charpoly(IntMatrix(b))
            assert combined == parts

    def test_permutation_similarity(self):
        rng = random.Random(13)
        for _ in range(10):
            n = 6
            mat = IntMatrix(
                [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            )
            perm = list(range(n))
            rng.shuffle(perm)
            permuted = IntMatrix([[mat.entries[a][b] for b in perm] for a in perm])
            assert charpoly(permuted) == charpoly(mat)

    def test_all_transforms_match_bareiss_reference(self):
        for g in (complete_graph(4), cycle_graph(5)):
            for case in list_cases():
                q = signless_laplacian(xyz_transform(g, case))
                assert charpoly(q) == bareiss_charpoly(q), str(case)

    def test_ladder_sized_q_needs_a_prime_above_2_127(self):
        # the +++ transform of C16(1,3), N = 48 as on the benchmark's ladder:
        # its Hadamard bound has 160 bits, so the modulus is 2^163 - 1, and
        # its coefficients reach 147 bits
        q = signless_laplacian(xyz_transform(circulant_graph(16, [1, 3]), XyzCase.parse("+++")))
        assert prod(2 + isqrt(sum(x * x for x in row)) for row in q.entries).bit_length() > 127
        got = charpoly(q)
        assert max(abs(c) for c in got.coeffs).bit_length() > 127
        assert got == bareiss_charpoly(q)

    def test_zero_pivot_is_swapped_in(self):
        # column 0 is zero on the subdiagonal but not below it
        mat = IntMatrix([[1, 2, 3], [0, 4, 5], [6, 7, -8]])
        assert charpoly(mat) == brute_charpoly(mat) == berkowitz_charpoly(mat)

    def test_zero_column_below_subdiagonal_is_skipped(self):
        # block upper triangular: column 1 has nothing to eliminate
        mat = IntMatrix([[1, -2, 3, 4], [5, 6, 7, 8], [0, 0, 9, -1], [0, 0, 2, 3]])
        assert charpoly(mat) == brute_charpoly(mat) == berkowitz_charpoly(mat)

    def test_tabulated_prime_boundaries(self):
        # B = 2^60 + 2 has 61 bits, so e = 67: e = 61 would give 2^61 - 1, which
        # is above B but not above 2B, and would lift -2^60 to 2^60 - 1
        for a in (2**60, -2**60):
            assert charpoly(IntMatrix([[a]])) == IntPoly.linear_root(a)
        big = 2 * 2**11211  # no ceiling: B = 2^11212 + 2 takes e = 11239
        assert charpoly(IntMatrix([[big]])) == IntPoly.linear_root(big)

    def test_modulus_one_bit_above_the_bound(self):
        # B = 2^60 - 1 has 60 bits and 61 is prime, so p = 2^61 - 1 = 2B + 1, the least
        # modulus that lifts every |c| <= B; +-(2^60 - 3) lift exactly
        with recording_moduli(moduli := []):
            for a in (2**60 - 3, 3 - 2**60):
                assert charpoly(IntMatrix([[a]])) == IntPoly.linear_root(a)
        assert moduli == [2**61 - 1] * 2

    def test_non_unit_pivot_retries_at_the_next_prime(self):
        # B = 3 * 25 * 5 has 9 bits, so e = 11 and p = 2047 = 23 * 89: the pivot 23 has
        # no inverse mod p, and the retry at e = 13 gives the exact polynomial
        mat = IntMatrix([[1, 0, 0], [23, 2, 0], [1, 0, 3]])
        with recording_moduli(moduli := []):
            assert charpoly(mat) == from_roots(1, 2, 3) == berkowitz_charpoly(mat)
        assert moduli == [2**11 - 1, 2**13 - 1]


def recording_moduli(moduli: list):
    """A context in which each modulus charpoly or charpoly_pair reduces by is appended to moduli:
    both start every attempt with one _hessenberg call."""
    kernel = exactpoly._hessenberg

    def recording(h, p):
        moduli.append(p)
        return kernel(h, p)

    return mock.patch.object(exactpoly, "_hessenberg", recording)


def charpoly_mod(mat, p: int) -> IntPoly:
    """charpoly's kernel at the modulus p, lifted: M mod p reduced to Hessenberg form, then its recurrence."""
    h = exactpoly._hessenberg([[x % p for x in row] for row in mat.entries], p)
    return exactpoly._hessenberg_charpoly(h, p)[0]


def hadamard_bits(mat):
    """bits(B), B = prod_i (2 + isqrt(sum_j a_ij^2)), the bound charpoly's modulus is taken above."""
    return prod(2 + isqrt(sum(x * x for x in row)) for row in mat.entries).bit_length()


class TestCharpolyPair:
    def test_complement_bound_dominates(self):
        # Q of the edgeless graph on 20 vertices is 0, with Hadamard bound 2^20; its complement's
        # Q = 18I + J, of K20, has bound 21^20 (88 bits) and a constant term 38 * 18^19 of 85
        # bits, so a modulus taken from Q's bound alone would wrap it
        g = Graph(20, ())
        q = signless_laplacian(g)
        assert q.entries == ((0,) * 20,) * 20
        assert charpoly_pair(g) == (IntPoly.x() ** 20, from_roots(38, *[18] * 19))
        assert hadamard_bits(q) == 21 and (38 * 18**19).bit_length() == 85 > exactpoly._prime_above(21)
        assert hadamard_bits(signless_laplacian(complement(g))) == 88

    def test_non_unit_pivot_retries_at_the_next_prime(self):
        # both bounds of this graph on 8 vertices have at most 22 bits, so e = 23 and
        # p = 2^23 - 1 = 47 * 178481, where a pivot of S^-1 Q S has no inverse; the retry at
        # e = 29 gives the exact pair
        g = Graph(8, ((0, 7), (1, 4), (1, 5), (1, 6), (2, 5), (2, 6), (4, 7), (5, 6), (5, 7)))
        q, qbar = signless_laplacian(g), signless_laplacian(complement(g))
        assert max(hadamard_bits(q), hadamard_bits(qbar)) <= 22
        with recording_moduli(moduli := []):
            assert charpoly_pair(g) == (bareiss_charpoly(q), bareiss_charpoly(qbar))
        assert moduli == [2**23 - 1, 2**29 - 1]

    # C12 + C13 is disconnected: its z = 0 transforms split into more diagonal blocks than C25's,
    # so the deflated reduction (a column zero from the subdiagonal down) runs at N = 50
    @pytest.mark.slow
    @pytest.mark.parametrize("g", [
        cycle_graph(25),
        Graph(25, cycle_graph(12).edges + tuple((u + 12, v + 12) for u, v in cycle_graph(13).edges)),
    ], ids=["C25", "C12+C13"])
    def test_equals_two_charpoly_calls_on_32_transform_pairs_at_n_50(self, g):
        for c in [c for c in list_cases() if c.x in "0+"]:  # one case of each pair
            t = xyz_transform(g, c)
            q = signless_laplacian(t)
            qbar = signless_laplacian(xyz_transform(g, c.complement()))
            n = q.rows
            assert all(qbar.entries[i][j] == (i == j) * (n - 2) + 1 - x
                       for i, row in enumerate(q.entries) for j, x in enumerate(row)), str(c)
            assert charpoly_pair(t) == (charpoly(q), charpoly(qbar)), str(c)


class TestDet:
    def test_small_cases(self):
        assert bareiss_det(IntMatrix([[5]])) == 5
        assert bareiss_det(IntMatrix([[1, 2], [3, 4]])) == -2
        assert bareiss_det(IntMatrix([[int(i == j) for j in range(4)] for i in range(4)])) == 1

    def test_singular_with_zero_pivot(self):
        assert bareiss_det(IntMatrix([[0, 1], [0, 2]])) == 0

    def test_row_swap_pivoting(self):
        assert bareiss_det(IntMatrix([[0, 1], [1, 0]])) == -1

    def test_against_permutation_expansion(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randint(1, 5)
            mat = IntMatrix(
                [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            )
            assert bareiss_det(mat) == brute_charpoly(mat)(0) * (-1) ** (n % 2)

    def test_public_det_matches_bareiss(self):
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(0, 6)
            mat = IntMatrix(
                [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            )
            assert det(mat) == bareiss_det(mat)

    def test_public_det_rejects_non_square(self):
        # a non-square matrix cannot be built, so det never sees one
        with pytest.raises(NotSquare):
            IntMatrix([[1, 2]])
        assert det(IntMatrix([])) == 1


class TestReducedQPoly:
    def test_k3(self):
        assert reduced_qpoly(from_roots(4, 1, 1), 2) == from_roots(1, 1)

    def test_c4(self):
        assert reduced_qpoly(from_roots(0, 2, 2, 4), 2) == from_roots(0, 2, 2)

    def test_petersen_degree(self):
        f = charpoly(signless_laplacian(petersen_graph()))
        reduced = reduced_qpoly(f, 3)
        assert reduced.degree == 9
        assert reduced.is_monic
        assert reduced * IntPoly.linear_root(6) == f

    def test_wrong_degree_not_divisible(self):
        with pytest.raises(NotDivisible):
            reduced_qpoly(from_roots(1, 1), 2)  # 4 is not a root

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError, match="must be monic"):
            reduced_qpoly(poly(-8, 2), 2)  # 2x - 8 has the root 4 but is not monic


class TestResultant:
    """Integer resultants: eig_product with g constant in the first variable."""

    def test_two_linear(self):
        assert eig_product(from_roots(3), BiPoly.v() - 5) == poly(3 - 5)

    def test_constant_h(self):
        assert eig_product(from_roots(1, 2, 3), BiPoly.constant(7)) == poly(343)

    def test_shared_root(self):
        h = (BiPoly.v() - 2) * (BiPoly.v() - 9)
        assert eig_product(from_roots(1, 2), h) == IntPoly.zero()

    def test_non_monic_leading_coefficient(self):
        # a = u*v - 1 has the root v = 1/u, so with b = v^2 - u:
        # Res_v(a, b) = u^2 * b(1/u) = 1 - u^3, and Res_v(b, a) equals it
        # because deg a * deg b is even
        u, v = BiPoly.u(), BiPoly.v()
        a, b = u * v - 1, v * v - u
        assert resultant(a, b) == resultant(b, a) == poly(1, 0, 0, -1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            resultant(BiPoly(), BiPoly.v())


class TestEigProduct:
    def test_single_root(self):
        # p = q - c, g = lam - q  ->  lam - c
        g = BiPoly.u() - BiPoly.v()
        assert eig_product(from_roots(5), g) == from_roots(5)

    def test_k3_reduced_square(self):
        # p = (q-1)^2, g = lam - 3 - q  ->  (lam-4)^2
        g = BiPoly.u() - 3 - BiPoly.v()
        assert eig_product(from_roots(1, 1), g) == from_roots(4, 4)

    def test_c4_quadratic_factor(self):
        # p = q(q-2)^2 and g = (lam-r-q)(lam-2r+2-q)-q with r=2:
        # substituting the roots 0, 2, 2 gives (lam-2)^2 * ((lam-4)^2 - 2)^2
        lam, q = BiPoly.u(), BiPoly.v()
        g = (lam - 2 - q) * (lam - 2 - q) - q
        expected = (
            (IntPoly.linear_root(2) * IntPoly.linear_root(2))
            * (from_roots(4, 4) - poly(2)) ** 2
        )
        assert eig_product(from_roots(0, 2, 2), g) == expected

    def test_identity_reproduces_p(self):
        g = BiPoly.u() - BiPoly.v()
        rng = random.Random(23)
        for _ in range(25):
            deg = rng.randint(1, 8)
            p = IntPoly([rng.randint(-9, 9) for _ in range(deg)] + [1])
            assert eig_product(p, g) == p

    def test_multiplicativity(self):
        lam, q = BiPoly.u(), BiPoly.v()
        g = (lam - 1 - q) * (lam + q) - q
        rng = random.Random(29)
        for _ in range(10):
            p1 = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))] + [1])
            p2 = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))] + [1])
            assert eig_product(p1 * p2, g) == eig_product(p1, g) * eig_product(p2, g)

    def test_constant_p(self):
        g = BiPoly.u() - BiPoly.v()
        assert eig_product(IntPoly.one(), g) == IntPoly.one()

    def test_degree_drop_in_q(self):
        # g = (lam - 1)*q + lam: at lam = 1 the q-degree collapses to 0
        lam, q = BiPoly.u(), BiPoly.v()
        g = (lam - 1) * q + lam
        p = from_roots(2, 3)
        got = eig_product(p, g)
        # direct substitution: ((lam-1)*2 + lam) * ((lam-1)*3 + lam)
        expected = poly(-2, 3) * poly(-3, 4)
        assert got == expected

    def test_p_of_lower_degree_than_g(self):
        # deg p = 1 < deg_v g = 3, an odd product of degrees: p = q - 2 and
        # g = lam - q^3 give lam - 8
        q = BiPoly.v()
        assert eig_product(from_roots(2), BiPoly.u() - q * q * q) == from_roots(8)

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            eig_product(poly(1, 2), BiPoly.u() - BiPoly.v())

    def test_zero_factor_rejected(self):
        with pytest.raises(ValueError, match="g must be nonzero"):
            eig_product(from_roots(1, 2), BiPoly())


class TestKronecker:
    """The integer pieces formulas evaluates a descriptor with at lam = 2^k."""

    def test_int_division(self):
        assert _int_div(-6, 3) == -2 and _int_div(0, -7) == 0
        with pytest.raises(NotDivisible):
            _int_div(7, 2)

    def test_planted_remainder_raises(self):
        # the loop ends with a division by h = 16 on these inputs; one more in a dividend
        # leaves a remainder, which must surface as NotDivisible, not as a floor quotient
        divisors = []

        def planted(a, b):
            divisors.append(b)
            return _int_div(a + (abs(b) > 1), b)

        a, b = (1, 2, 3, 4, 5, 1), (3, 0, 2)
        assert _subresultant(a, b, 1, _int_div) == sylvester_resultant(list(a), list(b))
        with pytest.raises(NotDivisible):
            _subresultant(a, b, 1, planted)
        assert any(abs(d) > 1 for d in divisors)

    def test_norm1(self):
        assert poly(3, 0, -4, 1).norm1 == 8 and IntPoly.zero().norm1 == 0

    def test_eig_bound_takes_each_row_sum_to_its_row_count(self):
        # p = v^2 + 3 gives deg_v(g) = 1 row of norm 4, g = u - v gives deg(p) = 2 rows of
        # norm 1 + 1: 4^1 * 2^2 = 16; Res = u^2 + 3, of norm 4
        p, g = poly(3, 0, 1), BiPoly.u() - BiPoly.v()
        assert _eig_bound(p.norm1, p.degree, q_columns(g)) == 16
        assert eig_product(p, g) == poly(3, 0, 1)


class TestBiPoly:
    def test_eval_u(self):
        lam, q = BiPoly.u(), BiPoly.v()
        g = (lam - 2) * (lam - q) - q
        # at lam = 5: (3)*(5 - q) - q = 15 - 4q
        assert g.eval_u(5) == poly(15, -4)

    def test_degrees(self):
        lam, q = BiPoly.u(), BiPoly.v()
        g = (lam - q) * (lam - q)
        assert (g.deg_u, deg_v(g)) == (2, 2)

    def test_int_mixing(self):
        assert 3 + BiPoly.u() == BiPoly.u() + 3
        assert 2 * BiPoly.v() == BiPoly.v() + BiPoly.v()
        assert (1 - BiPoly.u()) + (BiPoly.u() - 1) == BiPoly()

    def test_canonical_grid(self):
        assert BiPoly([[1, 0, 0], [0, 0], [2, 3, 0], [0]]) == BiPoly([[1], [], [2, 3]])
        assert BiPoly([[1, 0], [0, 0]]).grid == ((1,),)
        assert repr(BiPoly([[1, 0, 0], [0, 0], [2, 3, 0], [0]])) == "BiPoly([[1], [], [2, 3]])"
        assert (BiPoly.u() * BiPoly.u() + 1).grid == ((1,), (), (1,))

    def test_equal_only_within_a_class(self):
        # the two zeros share an empty coefficient tuple, yet are not equal
        assert BiPoly() != IntPoly.zero() and IntPoly.zero() != BiPoly()
        assert BiPoly.constant(3) != IntPoly.constant(3)

    def test_non_int_coefficients_rejected(self):
        for bad in ([[0.7, 2.2]], [[1], [2.0]], [["3"]], [[1, "2"]]):
            with pytest.raises(TypeError):
                BiPoly(bad)

    def test_non_int_operands_rejected(self):
        for bad in (1.5, None, IntPoly.x()):
            for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
                with pytest.raises(TypeError):
                    op(BiPoly.u(), bad)
                with pytest.raises(TypeError):
                    op(bad, BiPoly.u())


# ----------------------------------------------------------------------------
# Property-based checks.
# ----------------------------------------------------------------------------

coeff_lists = st.lists(st.integers(-50, 50), min_size=1, max_size=7)


@given(coeff_lists, coeff_lists)
def test_exact_div_roundtrips_mul(a_coeffs, b_coeffs):
    a, b = IntPoly(a_coeffs), IntPoly(b_coeffs)
    if not b:
        return
    assert exact_div(a * b, b) == a


@given(coeff_lists)
@example([0, 0])
def test_truth_value_is_nonzero(coeffs):
    assert bool(IntPoly(coeffs)) == any(coeffs)


@given(coeff_lists, st.integers(-10, 10))
def test_compose_linear_reflection_involution(coeffs, b):
    f = IntPoly(coeffs)
    assert compose_linear(compose_linear(f, -1, b), -1, b) == f


@settings(max_examples=40)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=6))
def test_eig_product_identity_property(coeffs):
    p = IntPoly(coeffs + [1])
    assert eig_product(p, BiPoly.u() - BiPoly.v()) == p


@st.composite
def eig_product_inputs(draw):
    """Monic p of degree 0-8 and nonzero g with deg_u <= 2 and deg_v <= 4."""
    d = draw(st.integers(0, 8))
    p = IntPoly(draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d)) + [1])
    du, dv = draw(st.integers(0, 2)), draw(st.integers(0, 4))
    rows = [draw(st.lists(st.integers(-5, 5), min_size=dv + 1, max_size=dv + 1))
            for _ in range(du + 1)]
    g = BiPoly(rows)
    return p, (BiPoly.v() if not g else g)


@seed(19670101)
@settings(max_examples=250, deadline=None)
@given(eig_product_inputs())
def test_eig_product_matches_sylvester_reference(inputs):
    p, g = inputs
    assert eig_product(p, g) == sylvester_bi_resultant(BiPoly((p.coeffs,)), g)


@st.composite
def bipolys(draw):
    """Nonzero BiPoly with deg_u <= 2 and deg_v <= 4, leading terms not forced."""
    du, dv = draw(st.integers(0, 2)), draw(st.integers(0, 4))
    rows = [draw(st.lists(st.integers(-5, 5), min_size=dv + 1, max_size=dv + 1))
            for _ in range(du + 1)]
    f = BiPoly(rows)
    return BiPoly.v() if not f else f


@seed(19670102)
@settings(max_examples=150, deadline=None)
@given(bipolys(), bipolys())
def test_resultant_matches_sylvester_reference(a, b):
    assert resultant(a, b) == sylvester_bi_resultant(a, b)


@st.composite
def factored_monics(draw):
    """(p, its factors): p the product of one to three random monic factors of degree 1 or 2,
    each to a power 1 to 3, deg p <= 8.  Factors may repeat or share roots."""
    factors = draw(st.lists(st.tuples(st.lists(st.integers(-3, 3), min_size=1, max_size=2),
                                      st.integers(1, 3)), min_size=1, max_size=3)
                   .filter(lambda fs: sum(len(cs) * k for cs, k in fs) <= 8))
    return prod((IntPoly([*cs, 1]) ** k for cs, k in factors), start=IntPoly.one()), factors


@seed(19761001)
@settings(max_examples=120, deadline=None)
@given(factored_monics(), bipolys())
@example((from_roots(1, 2, 3), None), BiPoly.u() - BiPoly.v())
def test_squarefree_parts_rebuild_p_and_its_resultants(factored, g):
    # p = prod h^k, each h monic and square-free, the h pairwise coprime with distinct k, and
    # Res(p, g) = prod Res(h, g)^k over Z[lam] and over Z at lam = 2^64 (above every root of
    # lc_q(g), whose coefficients are at most 5); a p with a nonzero discriminant is its own part
    p, _ = factored
    parts = _squarefree(p)
    hs = [IntPoly(h) for h, _ in parts]
    assert prod((h ** k for h, (_, k) in zip(hs, parts)), start=IntPoly.one()) == p
    assert [k for _, k in parts] == sorted({k for _, k in parts})
    for i, h in enumerate(hs):
        assert h.is_monic and h.degree >= 1
        derivative = [j * c for j, c in enumerate(h.coeffs)][1:]
        assert sylvester_resultant(list(h.coeffs), derivative) != 0
        assert all(sylvester_resultant(list(h.coeffs), list(other.coeffs)) != 0 for other in hs[i + 1:])
    if sylvester_resultant(list(p.coeffs), [j * c for j, c in enumerate(p.coeffs)][1:]) != 0:
        assert parts == ((p.coeffs, 1),)
    expected = sylvester_bi_resultant(BiPoly((p.coeffs,)), g)
    assert prod((resultant(BiPoly((h,)), g) ** k for h, k in parts), start=IntPoly.one()) == expected
    x = 1 << 64
    at_x = _trim([_horner(column, x) for column in q_columns(g)])
    assert prod(_subresultant(h, at_x, 1, _int_div) ** k for h, k in parts) == expected(x)


def test_squarefree_of_a_constant_is_empty():
    assert _squarefree(IntPoly.one()) == ()


small_coeffs = st.lists(st.integers(-3, 3), max_size=6)
small_grids = st.lists(st.lists(st.integers(-3, 3), max_size=4), max_size=4)


def assert_canonical(p):
    """p equals, in fields, == and hash, the public constructor's form of its own
    coefficients: ints only, no trailing zero, no empty last BiPoly row."""
    if isinstance(p, IntPoly):
        q = IntPoly(list(p.coeffs))
        assert p.coeffs == q.coeffs and all(type(c) is int for c in p.coeffs)
    else:
        q = BiPoly([list(row) for row in p.grid])
        assert p.grid == q.grid and all(type(c) is int for row in p.grid for c in row)
    assert p == q and hash(p) == hash(q)


@seed(19670103)
@settings(max_examples=300, deadline=None)
@given(small_coeffs, small_coeffs, st.integers(-3, 3), small_grids, small_grids)
def test_operator_results_are_canonical(a_coeffs, b_coeffs, k, f_grid, g_grid):
    a, b, f, g = IntPoly(a_coeffs), IntPoly(b_coeffs), BiPoly(f_grid), BiPoly(g_grid)
    results = [a * b, a + b, a - b, -a, k * a, a * k, a + k, k - a, f + g, f - g, f * g,
               -f, k * f, f - k, f.eval_u(k), compose_linear(a, -1, k)]
    if b:
        results.append(exact_div(a * b, b))
    for p in results:
        assert_canonical(p)
    assert (a + (-a)).coeffs == (a - a).coeffs == ()
    assert (f + (-f)).grid == (f - f).grid == ()


@seed(19670109)
@settings(max_examples=100, deadline=None)
@given(small_coeffs, small_grids, st.integers(-(2**80), 2**80))
def test_pickle_and_copies_keep_type_equality_and_immutability(coeffs, grid, k):
    for p in (k * IntPoly(coeffs), k * BiPoly(grid)):
        for twin in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
            assert type(twin) is type(p) and twin == p and hash(twin) == hash(p)
            assert_canonical(twin)
            with pytest.raises(AttributeError, match="immutable"):
                twin.coeffs = ()


@seed(19670108)
@settings(max_examples=200, deadline=None)
@given(small_grids, small_grids, st.integers(-3, 3), st.integers(-3, 3))
def test_eval_u_is_a_ring_map(f_grid, g_grid, k, x):
    # BiPoly's operators are the shared ones over IntPoly: substituting u = x commutes with each
    f, g = BiPoly(f_grid), BiPoly(g_grid)
    fx, gx = f.eval_u(x), g.eval_u(x)
    pairs = [(f + g, fx + gx), (f - g, fx - gx), (f * g, fx * gx), (-f, -fx),
             (f + k, fx + k), (k * f, k * fx), (k - f, k - fx)]
    for got, expected in pairs:
        assert type(got) is BiPoly and all(type(c) is IntPoly for c in got.coeffs)
        assert got.eval_u(x) == expected


@st.composite
def lazy_scaling_pairs(draw):
    """(a, b) with 1 <= deg_v(b) <= 3, deg_v(a) >= deg_v(b) + 3 (up to 7), and
    lc_v(b) of degree 1-2 in u: the pseudo-remainder runs at least four steps
    with a nonunit leading coefficient, so entries wait at different powers."""
    def draw_bipoly(dv, lead_du):
        cols = [draw(st.lists(st.integers(-4, 4), min_size=1, max_size=3)) for _ in range(dv)]
        cols.append(draw(st.lists(st.integers(-4, 4), min_size=lead_du, max_size=lead_du))
                    + [draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))])
        du = max(len(col) for col in cols)
        return BiPoly([[col[i] if i < len(col) else 0 for col in cols] for i in range(du)])

    nb = draw(st.integers(1, 3))
    b = draw_bipoly(nb, draw(st.integers(1, 2)))
    a = draw_bipoly(draw(st.integers(nb + 3, 7)), draw(st.integers(0, 2)))
    return a, b


@seed(19670104)
@settings(max_examples=150, deadline=None)
@given(lazy_scaling_pairs())
def test_lazily_scaled_resultant_matches_sylvester_reference(pair):
    a, b = pair
    lead = IntPoly([row[deg_v(b)] if len(row) > deg_v(b) else 0 for row in b.grid])
    assert deg_v(a) - deg_v(b) >= 3 and lead.degree >= 1
    expected = sylvester_bi_resultant(a, b)
    assert resultant(a, b) == expected
    assert resultant(b, a) == (-1) ** (deg_v(a) * deg_v(b)) * expected


@st.composite
def int_matrices(draw):
    """Square integer matrices of size 0-12: symmetric or not, dense or with
    the odd draws zeroed, and block upper triangular from a drawn split.
    Zeros force the Hessenberg reduction to swap in pivots from below the
    subdiagonal, and the split leaves columns with nothing to eliminate."""
    n = draw(st.integers(0, 12))
    # one draw of n*n bytes, each mapped onto -20..20 with byte 0 on 0, so examples shrink to 0
    flat = [(b + 20) % 41 - 20 for b in draw(st.binary(min_size=n * n, max_size=n * n))]
    if draw(st.booleans()):
        flat = [0 if x % 2 else x for x in flat]
    rows = [flat[i * n:(i + 1) * n] for i in range(n)]
    split = draw(st.integers(0, n))
    rows = [[0 if i >= split > j else x for j, x in enumerate(row)] for i, row in enumerate(rows)]
    if draw(st.booleans()):
        rows = [[rows[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]
    return IntMatrix(rows)


@seed(19840101)
@settings(max_examples=200, deadline=None)
@given(int_matrices())
def test_charpoly_matches_references(mat):
    assert charpoly(mat) == berkowitz_charpoly(mat) == bareiss_charpoly(mat)


@st.composite
def permuted_block_triangular(draw):
    """Block upper triangular integer matrices of size 1-12 with about half their entries
    zero, under a drawn permutation similarity.  A leading block that holds e_0 is an
    invariant subspace the reduction closes early: a column with nothing at or below the
    subdiagonal moves the deflation index, and the recurrence stops at its zero."""
    n = draw(st.integers(1, 12))
    starts = draw(st.sets(st.integers(1, n - 1), max_size=n - 1)) if n > 1 else set()
    block = [sum(s <= i for s in starts) for i in range(n)]
    # one draw of n*n bytes: an even byte is 0, an odd one maps onto -9..9 (0 on byte 1)
    data = draw(st.binary(min_size=n * n, max_size=n * n))
    flat = [0 if b % 2 == 0 else (b // 2 + 9) % 19 - 9 for b in data]
    rows = [[flat[i * n + j] if block[i] <= block[j] else 0 for j in range(n)] for i in range(n)]
    perm = draw(st.permutations(range(n)))
    return IntMatrix([[rows[a][b] for b in perm] for a in perm])


@seed(20240517)
@settings(max_examples=200, deadline=None)
@given(permuted_block_triangular())
def test_charpoly_of_permuted_block_triangular_matches_bareiss(mat):
    expected = bareiss_charpoly(mat)
    assert charpoly(mat) == expected
    # at the Mersenne primes 3, 7, 31 and 127 (entries reach 9, above the first two, and go
    # negative) a slot often folds to the redundant value p, which the lift must read as 0
    for p in (3, 7, 31, 127):
        got = charpoly_mod(mat, p).coeffs
        assert [c % p for c in got] == [c % p for c in expected.coeffs], p


def dense_hessenberg(h: list, p: int) -> list:
    """_hessenberg as it was before it skipped zero entries, the reference it must equal entry for entry:
    each elimination rewrites row i from column k on and column k in every row from the deflation index."""
    n, s = len(h[0]) if h else 0, 0
    for k in range(1, n - 1):
        if not (nz := [i for i in range(k, n) if h[i][k - 1]]):
            s = k
        elif (piv := nz[0]) != k:
            h[k], h[piv] = h[piv], h[k]
            for row in h[s:]:
                row[k], row[piv] = row[piv], row[k]
        inv = pow(h[k][k - 1], -1, p) if nz[1:] else 0
        for i in nz[1:]:
            t = h[i][k - 1] * inv % p
            h[i][k:] = [(x - t * y) % p for x, y in zip(h[i][k:], h[k][k:])]
            for row in h[s:]:
                row[k] = (row[k] + t * row[i]) % p
    return h


@st.composite
def sparse_int_matrices(draw):
    """Square integer matrices of size 1-14 with 10-40% of their entries nonzero in -9..9, some rows
    and columns zeroed: zeros on the subdiagonal swap in pivots, and columns zero from the
    subdiagonal down deflate."""
    n, density = draw(st.integers(1, 14)), draw(st.integers(10, 40))
    # two bytes an entry: the first makes it nonzero density percent of the time (byte 0 never, so
    # examples shrink to 0), the second picks its value
    data = draw(st.binary(min_size=2 * n * n, max_size=2 * n * n))
    flat = [(b % 9 + 1) * (-1) ** (b >> 7) if a % 100 >= 100 - density else 0
            for a, b in zip(data[::2], data[1::2])]
    zeroed = draw(st.sets(st.integers(0, n - 1), max_size=n // 3))
    return IntMatrix([[0 if i in zeroed or j in zeroed else flat[i * n + j] for j in range(n)]
                                for i in range(n)])


@seed(20240901)
@settings(max_examples=200, deadline=None)
@given(sparse_int_matrices(), st.booleans())
def test_sparse_reduction_matches_the_dense_one(mat, below):
    # charpoly against Berkowitz, and the reduced rows (a row of ones below, as charpoly_pair's w, if
    # drawn) equal to the dense reference's at charpoly's modulus, at the primes 7 and 127 and at
    # 2^11 - 1 = 23 * 89, where a pivot may not be a unit and both must raise
    assert charpoly(mat) == berkowitz_charpoly(mat)
    for p in (7, 127, 2**11 - 1, 2 ** exactpoly._prime_above(hadamard_bits(mat)) - 1):
        rows = [[x % p for x in row] for row in mat.entries] + [[1] * mat.rows] * below
        try:
            want = dense_hessenberg([list(r) for r in rows], p)
        except ValueError:
            with pytest.raises(ValueError):
                exactpoly._hessenberg([list(r) for r in rows], p)
        else:
            assert exactpoly._hessenberg([list(r) for r in rows], p) == want, p


@st.composite
def pair_graphs(draw):
    """Graphs on 1-12 vertices for charpoly_pair: random edge sets, edgeless and complete graphs,
    or two of those side by side (disconnected), relabelled by a drawn permutation."""
    def part(n):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        kind = draw(st.sampled_from(["random", "edgeless", "complete"]))
        if kind == "random" and pairs:
            return draw(st.lists(st.sampled_from(pairs), unique=True))
        return pairs if kind == "complete" else []

    n = draw(st.integers(1, 12))
    split = draw(st.integers(1, n))  # below n: one part on 0..split-1, another on the rest
    edges = part(split) + [(u + split, v + split) for u, v in part(n - split)] if split < n else part(n)
    perm = draw(st.permutations(range(n)))
    return Graph(n, tuple((perm[u], perm[v]) for u, v in edges))


def with_transform_pairs(test):
    """test with one transform of each complementary pair of K4 and of 2C3 as explicit examples: 2C3 is
    disconnected, so its z = 0 transforms are block diagonal and the reduction deflates."""
    for g in complete_graph(4), Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))):
        for case in [c for c in list_cases() if c.x in "0+"]:
            test = example(g=xyz_transform(g, case))(test)
    return test


@seed(20131020)
@settings(max_examples=200, deadline=None)
@example(g=Graph(1, ()))
@example(g=Graph(2, ()))
@example(g=Graph(2, ((0, 1),)))
@with_transform_pairs
@given(g=pair_graphs())
def test_charpoly_pair_matches_references(g):
    q, qbar = signless_laplacian(g), signless_laplacian(complement(g))
    with recording_moduli(moduli := []):
        pair = charpoly_pair(g)
    assert pair == (bareiss_charpoly(q), bareiss_charpoly(qbar))
    # the bounds, taken from the degrees, equal the built matrices' row bounds
    assert moduli[0] == 2 ** exactpoly._prime_above(max(hadamard_bits(q), hadamard_bits(qbar))) - 1


def test_widest_slot_sum_does_not_carry():
    # Hessenberg already, with 0 on the diagonal, 1 on the subdiagonal, row 0 zero and 1
    # above the diagonal elsewhere: at p = 127 the constant slot of every leading block's
    # charpoly from the 1 x 1 block's on holds the redundant 127, and the last step sums
    # 127 * 127 + 32 * 126 * 127 = 528193 > 2^19 there: all W = 2e + bits(N + 1) = 20 bits
    n, p = 34, 127
    mat = IntMatrix(
        [[1 if i == j + 1 or 0 < i < j else 0 for j in range(n)] for i in range(n)]
    )
    got = charpoly_mod(mat, p).coeffs
    assert [c % p for c in got] == [c % p for c in berkowitz_charpoly(mat).coeffs]
    assert charpoly(mat) == berkowitz_charpoly(mat)


@st.composite
def signed_digit_polys(draw):
    """(k, IntPoly) with every coefficient in [-2^(k-1), 2^(k-1)): the ends, zero and
    +-(2^(k-1) - 1) drawn often."""
    k = draw(st.integers(1, 300))
    half = 1 << (k - 1)
    coeff = st.one_of(st.sampled_from([0, half - 1, 1 - half, -half]), st.integers(-half, half - 1))
    return k, IntPoly(draw(st.lists(coeff, max_size=12)))


@seed(19670105)
@settings(max_examples=300, deadline=None)
@given(signed_digit_polys())
def test_signed_digits_round_trip(drawn):
    k, p = drawn
    assert signed_digits(p(1 << k), k) == p


@st.composite
def int_poly_pairs(draw):
    """Two integer coefficient lists of degree 0-7 with nonzero leading coefficients."""
    def one():
        lead = draw(st.integers(-5, 5).filter(bool))
        return draw(st.lists(st.integers(-9, 9), max_size=7)) + [lead]

    return one(), one()


@seed(19670106)
@settings(max_examples=250, deadline=None)
@given(int_poly_pairs())
def test_subresultant_over_ints_matches_sylvester_reference(pair):
    a, b = pair
    assert _subresultant(tuple(a), tuple(b), 1, _int_div) == sylvester_resultant(a, b)


def no_division(a, b):
    raise AssertionError("the short B took the remainder loop")


@st.composite
def short_second_operands(draw, coefficient, leads):
    """(A, B, short) with deg B 1 or 2, lc(B) drawn from leads, deg A from deg B to 6 and any
    nonzero lc(A); short says _subresultant(A, B) skips its loop: B linear, or lc(B) = +-1."""
    def operand(degree, lead):
        return [draw(coefficient) for _ in range(degree)] + [lead]

    b = operand(draw(st.integers(1, 2)), draw(st.sampled_from(leads)))
    a = operand(draw(st.integers(len(b) - 1, 6)), draw(coefficient.filter(bool)))
    return a, b, len(b) == 2 or leads.index(b[-1]) < 2


@seed(19670110)
@settings(max_examples=250, deadline=None)
@given(short_second_operands(st.integers(-9, 9), [1, -1, 2, -3]))
def test_short_second_operand_over_ints_matches_sylvester_reference(operands):
    # Res(A, B) for a linear B, or a quadratic B with lc +-1, by the closed forms in
    # _subresultant's docstring, which no division reaches; a non-unit lc takes the loop
    a, b, short = operands
    expected = sylvester_resultant(a, b)
    assert _subresultant(tuple(a), tuple(b), 1, no_division if short else _int_div) == expected
    assert _subresultant(tuple(b), tuple(a), 1, _int_div) == sylvester_resultant(b, a)


@seed(19670111)
@settings(max_examples=150, deadline=None)
@given(short_second_operands(st.lists(st.integers(-4, 4), max_size=3).map(IntPoly),
                             [IntPoly.one(), -IntPoly.one(), IntPoly((2,)), IntPoly((1, 1))]))
def test_short_second_operand_over_bivariates_matches_sylvester_reference(operands):
    # the same over Z[u], where lc(B) = 2 and 1 + u are the non-units
    a, b, short = operands

    def bipoly(columns):
        return BiPoly([[c.coeffs[i] if i < len(c.coeffs) else 0 for c in columns]
                       for i in range(max(len(c.coeffs) for c in columns))])

    a, b = bipoly(a), bipoly(b)
    expected = sylvester_bi_resultant(a, b)
    assert _subresultant(a.coeffs, b.coeffs, IntPoly.one(), no_division if short else exact_div) == expected
    assert resultant(a, b) == expected
    assert resultant(b, a) == sylvester_bi_resultant(b, a)


@seed(19670107)
@settings(max_examples=150, deadline=None)
@given(eig_product_inputs(), st.one_of(st.integers(-40, 40), st.integers(2**60, 2**200)))
def test_eig_value_is_eig_product_at_x(inputs, x):
    p, g = inputs
    expected = eig_product(p, g)
    # formula_charpoly's value at lam = x: resultant's loop over Z on the q-columns at x
    at_x = _trim([_horner(column, x) for column in q_columns(g)])
    assert _subresultant(p.coeffs, at_x, 1, _int_div) == expected(x)
    assert expected.norm1 <= _eig_bound(p.norm1, p.degree, q_columns(g))
