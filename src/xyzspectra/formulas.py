"""Closed-form characteristic polynomials for all 64 transformation cases.

Each case is a data record, not code: a descriptor holds a sign, a
prefactor of degree at most two in lam, a list of linear factors
(lam - root)^exponent whose roots and exponents are integer expressions
in (n, m, r), an optional per-eigenvalue factor g(lam, q) applied as a
product over the reduced spectrum q_1..q_{n-1}, and optional composed
copies f(a*lam + b) of the input polynomial.  Each expression is written
in the table as the text the audit export prints, over ints, the names
n, m, r, lam and q, + - * and parentheses.  On a descriptor's first use
one walk over the parse trees of its texts, which refuses any other
token, expands them into coefficient grids whose entries are integer
polynomials in (n, m, r), compiled into one expression with no builtins
bound; so every check of a polynomial also checks its printed formula.
One instantiation evaluates that expression at (n, m, r), and both the
evaluator and the instantiated display read its ints.  The reduced
spectrum is computed only for a case with a per-eigenvalue factor.

The numerator N (all factors but the negative powers) has |coefficients| at most the product
of its factors' l1 norms, which is submultiplicative: norm1(prefactor), (1 + |root|)^e,
norm1(f) * (|a| + |b|)^n and _eig_bound.  With K the bound's bit length plus a sign bit, N is
evaluated once, on the instantiation's ints, at one point x: its eigen product is one resultant
over the ring of x.  At x = 2^K the one integer N(2^K) fixes N by its signed base-2^K digits
(Kronecker substitution; von zur Gathen and Gerhard, Modern Computer Algebra, 8.4); above
_KRONECKER_MAX_BITS x is lam itself, over Z[lam].  N is then divided exactly by the negative powers.

A descriptor's status is read off its record: one that retains a
published form is "corrected", as it deviates from the catalog it
transcribes (sign slips, a dropped factor, an unbound symbol), and
every corrected form is held to exact agreement with the brute-force
construction over the whole verification corpus.
"""

from __future__ import annotations

import ast
import functools
import re
from dataclasses import dataclass
from math import prod
from operator import index

from .exactpoly import (
    BiPoly,
    DegreeMismatch,
    IntPoly,
    _horner,
    _int_div,
    _intpoly,
    _poly,
    _subresultant,
    _trim,
    # these two have no caller here: bound for benchmarks/tracing.py until ROADMAP item 1 or 9 drops its wraps
    compose_linear,
    eig_product,
    exact_div,
    reduced_qpoly,
    signed_digits,
)
from .transform import SYMBOLS, XyzCase

__all__ = [
    "FormulaDescriptor",
    "list_cases",
    "descriptor_for",
    "formula_charpoly",
    "render_formula",
    "render_formula_instantiated",
    "descriptor_records",
]


@dataclass(frozen=True)
class FormulaDescriptor:
    """One closed-form case: sign * prefactor * linear factors * eigen product * composed terms."""

    case: XyzCase
    sign_exponent: str                               # overall sign (-1)**value
    prefactor: str                                   # polynomial in lam, degree <= 2
    linear_factors: tuple[tuple[str, str], ...]      # (root, exponent) -> (lam - root)^exponent
    eig_factor: str | None                           # g(lam, q), product over q_1..q_{n-1}
    composed_terms: tuple[tuple[int, str], ...]      # (a, b) -> factor f(a*lam + b)
    published_form: str = ""                         # printed display, retained when corrected

    @property
    def status(self) -> str:
        """The audit's status: corrected exactly when a published form is retained."""
        return "corrected" if self.published_form else "as-published"


def list_cases() -> list[XyzCase]:
    """All 64 cases: x varies slowest, then y, then z; symbol order 0, 1, +, -."""
    return [XyzCase(x, y, z) for x in SYMBOLS for y in SYMBOLS for z in SYMBOLS]


def _build_table() -> dict[XyzCase, FormulaDescriptor]:
    table: dict[XyzCase, FormulaDescriptor] = {}

    def add(case, prefactor="1", linear=(), eig=None, composed=(), sign="0", published=""):
        key = XyzCase.parse(case)
        table[key] = FormulaDescriptor(
            case=key,
            sign_exponent=sign,
            prefactor=prefactor,
            linear_factors=tuple(linear),
            eig_factor=eig,
            composed_terms=tuple(composed),
            published_form=published,
        )

    # ------------------------------------------------------------------
    # z = 0: the transformation is a disjoint union, so each case is the
    # product of a vertex-part polynomial and an edge-part polynomial.
    # Vertex parts (on n vertices, degree r):
    #   0: lam^n
    #   1: (lam-2n+2)(lam-n+2)^(n-1)
    #   +: f(lam)
    #   -: (-1)^n (lam-n+2+2r)^(-1) (lam-2n+2+2r) f(n-2-lam)
    # Edge parts are the same shapes on the line graph (m vertices,
    # degree 2r-2), with the + part pushed through the line-graph shift
    # f(lam-2r+4) and the - part through the complement identity.
    # ------------------------------------------------------------------
    x_parts = {
        "0": ("0", (("0", "n"),), ()),
        "1": ("0", (("2*n - 2", "1"), ("n - 2", "n - 1")), ()),
        "+": ("0", (), ((1, "0"),)),
        "-": ("n", (("n - 2 - 2*r", "-1"), ("2*n - 2 - 2*r", "1")), ((-1, "n - 2"),)),
    }
    y_parts = {
        "0": ("0", (("0", "m"),), ()),
        "1": ("0", (("2*m - 2", "1"), ("m - 2", "m - 1")), ()),
        "+": ("0", (("2*r - 4", "m - n"),), ((1, "4 - 2*r"),)),
        "-": ("n", (("m - 4*r + 2", "-1"), ("2*m - 4*r + 2", "1"), ("m + 2 - 2*r", "m - n")),
              ((-1, "m - 2*r + 2"),)),
    }
    z0_notes = {
        "0+0": "lam^n * (lam - 2r + 4)^(m-n) * f(lam - 2r + 4, G^x)"
               " [x unbound in the printed display; resolved to the base graph]",
        "1+0": "(lam - 2n + 2) * (lam - n + 2)^(n-1) * (lam - 2r + 4)^(m-n)"
               " * f(lam - 2r + 4, G^x) [x unbound; resolved to the base graph]",
        "++0": "(lam - 2r + 4)^(m-n) * f(lam) * f(lam - 2r + 4, G^x)"
               " [x unbound; resolved to the base graph]",
        "-+0": "(-1)^n * (lam - n + 2 + 2r)^(-1) * (lam - 2n + 2 + 2r) * f(n - 2 - lam)"
               " * f(lam - 2r + 4, G^x)"
               " [x unbound; factor (lam - 2r + 4)^(m-n) missing from the printed display]",
        "0-0": "(-1)^(n-1) * lam^n * (lam - m + 4r - 2)^(-1) * (lam + 4r - 2m - 2)"
               " * (lam + 2r - 2 - m)^(m-n) * f(m - 2r - lam + 2)"
               " [printed sign (-1)^(n-1); exact expansion requires (-1)^n]",
        "1-0": "(-1)^(n-1) * (lam - 2n + 2) * (lam - n + 2)^(n-1) * (lam - m + 4r - 2)^(-1)"
               " * (lam + 4r - 2m - 2) * (lam + 2r - 2 - m)^(m-n) * f(m - 2r - lam + 2)"
               " [printed sign (-1)^(n-1); exact expansion requires (-1)^n]",
        "+-0": "(-1)^(n-1) * (lam - m + 4r - 2)^(-1) * (lam + 4r - 2m - 2)"
               " * (lam + 2r - 2 - m)^(m-n) * f(lam) * f(m - 2r - lam + 2)"
               " [printed sign (-1)^(n-1); exact expansion requires (-1)^n]",
        "--0": "-(lam - n + 2 + 2r)^(-1) * (lam - 2n + 2 + 2r) * (lam - m + 4r - 2)^(-1)"
               " * (lam + 4r - 2m - 2) * (lam + 2r - 2 - m)^(m-n) * f(n - 2 - lam)"
               " * f(m - 2r - lam + 2)"
               " [printed sign -1; exact expansion requires +1]",
    }
    for xs in SYMBOLS:
        for ys in SYMBOLS:
            case = f"{xs}{ys}0"
            sx, lx, cx = x_parts[xs]
            sy, ly, cy = y_parts[ys]
            if sx == "0":
                sign = sy
            elif sy == "0":
                sign = sx
            else:
                sign = f"{sx} + {sy}"
            add(case, sign=sign, linear=lx + ly, composed=cx + cy, published=z0_notes.get(case, ""))

    # ------------------------------------------------------------------
    # z = 1: cross edges join every vertex to every edge.  The vertex and
    # edge blocks decouple on the reduced spectrum, so the per-eigenvalue
    # factor is a product of one or two linear terms in lam.
    # ------------------------------------------------------------------
    add("001", prefactor="lam*(lam - m - n)",
        linear=[("m", "n - 1"), ("n", "m - 1")])
    add("101", prefactor="(lam - n)*(lam - m - 2*n + 2) - m*n",
        linear=[("m + n - 2", "n - 1"), ("n", "m - 1")])
    add("+01", prefactor="(lam - n)*(lam - 2*r - m) - m*n",
        linear=[("n", "m - 1")], eig="lam - m - q")
    add("-01", prefactor="(lam - n)*(lam - 2*n - m + 2*r + 2) - m*n",
        linear=[("n", "m - 1")], eig="lam - n - m + 2 + q")
    add("011", prefactor="(lam - m)*(lam - 2*m - n + 2) - m*n",
        linear=[("m", "n - 1"), ("m + n - 2", "m - 1")])
    add("111", prefactor="lam - 2*n - 2*m + 2",
        linear=[("m + n - 2", "m + n - 1")])
    add("+11", prefactor="(lam - m - 2*r)*(lam - 2*m - n + 2) - m*n",
        linear=[("m + n - 2", "m - 1")], eig="lam - m - q")
    add("-11", prefactor="(lam - 2*m - n + 2)*(lam - m - 2*n + 2*r + 2) - m*n",
        linear=[("m + n - 2", "m - 1")], eig="lam - m - n + 2 + q")
    add("0+1", prefactor="(lam - m)*(lam - n - 4*r + 4) - m*n",
        linear=[("n + 2*r - 4", "m - n"), ("m", "n - 1")], eig="lam - n - 2*r + 4 - q")
    add("1+1", prefactor="(lam - 2*n - m + 2)*(lam - n - 4*r + 4) - m*n",
        linear=[("n + 2*r - 4", "m - n"), ("m + n - 2", "n - 1")], eig="lam - n - 2*r + 4 - q")
    add("++1", prefactor="(lam - 2*r - m)*(lam - n - 4*r + 4) - m*n",
        linear=[("n + 2*r - 4", "m - n")],
        eig="(lam - n - 2*r + 4 - q)*(lam - m - q)")
    add("-+1", prefactor="(lam - 2*n - m + 2*r + 2)*(lam - n - 4*r + 4) - m*n",
        linear=[("n + 2*r - 4", "m - n")],
        eig="(lam - n - 2*r + 4 - q)*(lam - n - m + 2 + q)")
    add("0-1", prefactor="(lam - m)*(lam - 2*m - n + 4*r - 2) - m*n",
        linear=[("m + n + 2 - 2*r", "m - n"), ("m", "n - 1")], eig="lam - m - n - 2 + 2*r + q")
    add("1-1", prefactor="(lam - 2*n - m + 2)*(lam - 2*m - n + 4*r - 2) - m*n",
        linear=[("m + n + 2 - 2*r", "m - n"), ("m + n - 2", "n - 1")],
        eig="lam - m - n - 2 + 2*r + q")
    add("+-1", prefactor="(lam - 2*r - m)*(lam - 2*m - n + 4*r - 2) - m*n",
        linear=[("m + n + 2 - 2*r", "m - n")],
        eig="(lam - m - q)*(lam - m - n - 2 + 2*r + q)")
    add("--1", prefactor="(lam - 2*n - m + 2*r + 2)*(lam - 2*m - n + 4*r - 2) - m*n",
        linear=[("m + n + 2 - 2*r", "m - n")],
        eig="(lam - m - n + 2 + q)*(lam - n - m + 2*r - 2 + q)")

    # ------------------------------------------------------------------
    # z = +: cross edges are the incidence pairs.  The incidence coupling
    # contributes the trailing "- q" inside each per-eigenvalue factor.
    # ------------------------------------------------------------------
    add("00+", prefactor="lam*(lam - r - 2)",
        linear=[("2", "m - n")], eig="(lam - 2)*(lam - r) - q")
    add("10+", prefactor="lam*lam - (r + 2*n)*lam + 4*n - 4",
        linear=[("2", "m - n")], eig="(lam - r - n + 2)*(lam - 2) - q")
    add("+0+", prefactor="lam*lam - (2 + 3*r)*lam + 4*r",
        linear=[("2", "m - n")], eig="(lam - 2)*(lam - r - q) - q")
    add("-0+", prefactor="(lam - 2)*(lam - 2*n + r + 2) - 2*r",
        linear=[("2", "m - n")], eig="(lam - 2)*(lam - n - r + 2 + q) - q")
    add("01+", prefactor="(lam - r)*(lam - 2*m) - 2*r",
        linear=[("m", "m - n")], eig="(lam - r)*(lam - m) - q")
    add("11+", prefactor="(lam - r - 2*n + 2)*(lam - 2*m) - 2*r",
        linear=[("m", "m - n")], eig="(lam - r - n + 2)*(lam - m) - q")
    add("+1+", prefactor="(lam - 2*m)*(lam - 3*r) - 2*r",
        linear=[("m", "m - n")], eig="(lam - m)*(lam - r - q) - q")
    add("-1+", prefactor="(lam - 2*m)*(lam - 2*n + r + 2) - 2*r",
        linear=[("m", "m - n")], eig="(lam - m)*(lam - n - r + 2 + q) - q",
        published="[(lam - 2m)(lam - 2n + r + 2) - 2r] * (lam - m)^(m-n)"
                  " * prod[(lam - m)(lam - n + r + 2 - q_i) - q_i]"
                  " [per-eigenvalue factor printed with +r and -q_i;"
                  " exact expansion requires -r and +q_i]")
    add("0++", prefactor="(lam - r)*(lam - 4*r + 2) - 2*r",
        linear=[("2*r - 2", "m - n")], eig="(lam - r)*(lam - 2*r + 2 - q) - q")
    add("1++", prefactor="(lam - r - 2*n + 2)*(lam - 4*r + 2) - 2*r",
        linear=[("2*r - 2", "m - n")], eig="(lam - r - n + 2)*(lam - 2*r + 2 - q) - q")
    add("+++", prefactor="(lam - 3*r + 2)*(lam - 4*r)",
        linear=[("2*r - 2", "m - n")], eig="(lam - r - q)*(lam - 2*r + 2 - q) - q")
    add("-++", prefactor="(lam - 2*n + r + 2)*(lam - 4*r + 2) - 2*r",
        linear=[("2*r - 2", "m - n")], eig="(lam - n - r + 2 + q)*(lam - 2*r + 2 - q) - q")
    add("0-+", prefactor="(lam - r)*(lam - 2*m + 4*r - 4) - 2*r",
        linear=[("m - 2*r + 4", "m - n")], eig="(lam - r)*(lam - m + 2*r - 4 + q) - q")
    add("1-+", prefactor="(lam - r - 2*n + 2)*(lam - 2*m + 4*r - 4) - 2*r",
        linear=[("m - 2*r + 4", "m - n")], eig="(lam - r - n + 2)*(lam - m + 2*r - 4 + q) - q")
    add("+-+", prefactor="(lam - 3*r)*(lam - 2*m + 4*r - 4) - 2*r",
        linear=[("m - 2*r + 4", "m - n")], eig="(lam - r - q)*(lam - m + 2*r - 4 + q) - q")
    add("--+", prefactor="(lam - 2*n + r + 2)*(lam - 2*m + 4*r - 4) - 2*r",
        linear=[("m - 2*r + 4", "m - n")], eig="(lam - n - r + 2 + q)*(lam - m + 2*r - 4 + q) - q")

    # ------------------------------------------------------------------
    # z = -: cross edges are the non-incidence pairs.
    # ------------------------------------------------------------------
    add("00-", prefactor="lam*(lam - n - m + r + 2)",
        linear=[("n - 2", "m - n")], eig="(lam - m + r)*(lam - n + 2) - q")
    add("10-", prefactor="(lam - n + 2)*(lam - 2*n - m + r + 2) + (2*r - m)*n - 2*r",
        linear=[("n - 2", "m - n")], eig="(lam - m - n + r + 2)*(lam - n + 2) - q",
        published="[(lam - n + 2)(lam - 2n + m + r + 2) + (2r - m)n - 2r]"
                  " * (lam - n + 2)^(m-n)"
                  " * prod[(lam - m - n + r + 2)(lam - n + 2) - q_i]"
                  " [prefactor printed with +m inside the second factor;"
                  " exact expansion requires -m]")
    add("+0-", prefactor="(lam - n + 2)*(lam - m - r) + (2*r - m)*n - 2*r",
        linear=[("n - 2", "m - n")], eig="(lam - n + 2)*(lam - m + r - q) - q")
    add("-0-", prefactor="(lam - n + 2)*(lam - 2*n - m + 3*r + 2) + (2*r - m)*n - 2*r",
        linear=[("n - 2", "m - n")], eig="(lam - n + 2)*(lam - n - m + r + 2 + q) - q")
    add("01-", prefactor="(lam - m + r)*(lam - n - 2*m + 4) + (4 - n)*m - 2*r",
        linear=[("n + m - 4", "m - n")], eig="(lam - m - n + 4)*(lam - m + r) - q")
    add("11-", prefactor="(lam - 2*n - 2*m + 2)*(lam - n - m + r + 4) + 8*m",
        linear=[("n + m - 4", "m - n")], eig="(lam - m - n + r + 2)*(lam - n - m + 4) - q")
    add("+1-", prefactor="(lam - m - r)*(lam - n - 2*m + 4) + (4 - n)*m - 2*r",
        linear=[("n + m - 4", "m - n")], eig="(lam - n - m + 4)*(lam - m + r - q) - q")
    add("-1-", prefactor="(lam - n - 2*m + 4)*(lam - 2*n - m + 3*r + 2) + (4 - n)*m - 2*r",
        linear=[("n + m - 4", "m - n")], eig="(lam - n - m + 4)*(lam - m - n + r + q + 2) - q")
    add("0+-", prefactor="(lam - m + r)*(lam - n - 4*r + 6) + (4 - n)*m - 2*r",
        linear=[("n + 2*r - 6", "m - n")], eig="(lam - m + r)*(lam - n - 2*r + 6 - q) - q")
    add("1+-", prefactor="(lam - 2*n - m + r + 2)*(lam - n - 4*r + 6) + (4 - n)*m - 2*r",
        linear=[("n + 2*r - 6", "m - n")], eig="(lam - n - m + r + 2)*(lam - n - 2*r + 6 - q) - q")
    add("++-", prefactor="(lam - m - r)*(lam - n - 4*r + 6) + (4 - n)*m - 2*r",
        linear=[("n + 2*r - 6", "m - n")], eig="(lam - m + r - q)*(lam - n - 2*r + 6 - q) - q")
    add("-+-", prefactor="(lam - n - 4*r + 6)*(lam - 2*n - m + 3*r + 2) + (4 - n)*m - 2*r",
        linear=[("n + 2*r - 6", "m - n")], eig="(lam - m - n + r + 2 + q)*(lam - n - 2*r + 6 - q) - q")
    add("0--", prefactor="(lam - m + r)*(lam - n - 2*m + 4*r) + (4 - n)*m - 2*r",
        linear=[("n + m - 2*r", "m - n")], eig="(lam - m + r)*(lam - n - m + 2*r + q) - q")
    add("1--", prefactor="(lam - n - 2*m + 4*r)*(lam - 2*n - m + r + 2) + (4 - n)*m - 2*r",
        linear=[("n + m - 2*r", "m - n")], eig="(lam - n - m + r + 2)*(lam - n - m + 2*r + q) - q")
    add("+--", prefactor="(lam - m - r)*(lam - n - 2*m + 4*r) + (4 - n)*m - 2*r",
        linear=[("n + m - 2*r", "m - n")], eig="(lam - n - m + 2*r + q)*(lam + r - m - q) - q")
    add("---", prefactor="(lam - 2*n - 2*m + 4*r + 2)*(lam + 3*r - n - m)",
        linear=[("n + m - 2*r", "m - n")],
        eig="(lam - n - m + r + q + 2)*(lam + 2*r - n - m + q) - q")

    assert len(table) == 64
    return table


_TABLE = _build_table()


def descriptor_for(case: XyzCase) -> FormulaDescriptor:
    """The stored descriptor; total over all 64 cases."""
    return _TABLE[case]


# ----------------------------------------------------------------------------
# Evaluation.
# ----------------------------------------------------------------------------


_NAMES = ("n", "m", "r", "lam", "q")


def _grid(text: str, names=_NAMES) -> list:
    """text's coefficients as Python source in n, m, r: [[of lam^0, lam^1, ...] for q^0, q^1, ...].

    One walk over the parse tree expands text to {exponents of (n, m, r, lam, q): int}.
    The walk is the table's grammar: int literals, the given names, unary minus, binary
    + - * and parentheses; anything else raises ValueError.
    """
    def walk(node) -> dict:
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return {(0,) * 5: node.value}
        if isinstance(node, ast.Name) and node.id in names:
            return {tuple(int(name == node.id) for name in _NAMES): 1}
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return {k: -c for k, c in walk(node.operand).items()}
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult))):
            raise ValueError(f"unbound variable {node.id!r} in {text!r}" if isinstance(node, ast.Name)
                             else f"not a descriptor expression: {text!r}")
        a, b, out = walk(node.left), walk(node.right), {}
        if isinstance(node.op, ast.Mult):
            terms = [(tuple(map(sum, zip(ka, kb))), ca * cb) for ka, ca in a.items() for kb, cb in b.items()]
        else:
            terms = [*a.items(), *((k, c if isinstance(node.op, ast.Add) else -c) for k, c in b.items())]
        for k, c in terms:
            out[k] = out.get(k, 0) + c
        return out

    try:
        terms = {k: c for k, c in walk(ast.parse(text, mode="eval").body).items() if c}
    except SyntaxError:
        raise ValueError(f"not a descriptor expression: {text!r}") from None
    grid = [["0"] * (1 + max((k[3] for k in terms), default=0))
            for _ in range(1 + max((k[4] for k in terms), default=0))]
    for (*nmr, a, b), c in terms.items():
        grid[b][a] += f" + {c}" + "".join(f"*{v}" * e for v, e in zip("nmr", nmr))
    return grid


@functools.cache
def _compiled(desc: FormulaDescriptor):
    """desc's texts expanded once into code taking n, m, r to ints: (sign, prefactor
    coefficients, (root, exponent) pairs, eigen factor's q-columns or None, (a, b) pairs)."""
    def ints(text):
        return _grid(text, _NAMES[:3])[0][0]

    parts = (f"1 - 2*(({ints(desc.sign_exponent)}) % 2)", _grid(desc.prefactor, _NAMES[:4])[0],
             [(ints(root), ints(e)) for root, e in desc.linear_factors],
             None if desc.eig_factor is None else _grid(desc.eig_factor),
             [(a, ints(b)) for a, b in desc.composed_terms])
    # the sources hold no quote, so the unquoted repr of parts is their tuple's source
    return compile(str(parts).replace("'", ""), f"<descriptor {desc.case}>", "eval")


def _evaluate(desc: FormulaDescriptor, n: int, m: int, r: int) -> tuple:
    """_compiled(desc) run at (n, m, r): ints and lists of ints.  An n, m or r that
    operator.index refuses raises TypeError, naming it."""
    env = {}
    for name, value in zip("nmr", (n, m, r)):
        try:
            env[name] = index(value)
        except TypeError:
            raise TypeError(f"{name} must be an int, not {type(value).__name__}") from None
    return eval(_compiled(desc), {"__builtins__": {}}, env)


def _instantiate(desc: FormulaDescriptor, n: int, m: int, r: int) -> tuple:
    """_evaluate's tuple with the prefactor an IntPoly in lam and g a BiPoly in (lam, q), or None."""
    sign, pre, linear, g, composed = _evaluate(desc, n, m, r)
    return sign, _intpoly(pre), linear, g if g is None else _poly(BiPoly, [_intpoly(c) for c in g]), composed


def _eig_bound(p: IntPoly, g: list) -> int:
    """A bound on norm1(eig_product(p, g)) for g's q-columns, the Sylvester determinant's: each term
    takes one entry a_ij of each row, so norm1(det) <= prod_i sum_j norm1(a_ij), over len(g) - 1 rows
    of p's coefficients and deg(p) rows of g's q-columns (p is monic: a zero last column loosens it)."""
    return p.norm1 ** (len(g) - 1) * sum(abs(c) for column in g for c in column) ** p.degree


# Above this K, padding coefficients to K bits costs more than polynomial products (CPython has
# no FFT multiply), so the evaluation runs at lam itself.  Kronecker time over polynomial time (now
# the same evaluation at lam), all 64 cases on the closed-form seed-1 circulants, the ladder rungs,
# C30..C80, C60(1,2) and C100(1,2) (2-core x86-64, Python 3.11), median (max) by K: 0.27 (0.64)
# below 128, 0.29 (0.93) to 255, 0.45 (1.29) to 383, 0.68 (1.75) to 511, 0.86 (1.52) to 639, 1.16
# (2.03) to 767, 1.53 (5.20) to 1023, 2.14 (4.94) to 1535.
_KRONECKER_MAX_BITS = 512


def formula_charpoly(desc: FormulaDescriptor, n: int, m: int, r: int, f: IntPoly) -> IntPoly:
    """Evaluate one descriptor to an exact polynomial of degree n + m.

    Inputs: the vertex count n, edge count m, degree r (with 2m = rn) and
    the monic degree-n characteristic polynomial f of the base graph's
    signless Laplacian.  Negative-exponent linear factors accumulate in a
    denominator that must divide out exactly at the end; failure to divide
    (or a wrong final degree) signals a bad descriptor or bad input.  At
    lam = 2^K, above the bound and so above norm1(lc_q(g)), a Cauchy bound on
    the roots of lc_q(g), the eigen factor keeps its degree in q.
    """
    sign, pre, linear, g, composed = _evaluate(desc, n, m, r)
    if m < 1:
        raise ValueError("formula_charpoly: m must be >= 1")
    if 2 * m != r * n:
        raise ValueError(f"formula_charpoly: 2m = rn violated (n={n}, m={m}, r={r})")
    if not f.is_monic or f.degree != n:
        raise ValueError("formula_charpoly: f must be monic of degree n")
    if f(2 * r):  # checked here, as the cases without an eigen factor never divide by x - 2r
        raise ValueError("formula_charpoly: f must have the root 2r")
    rises = [(root, e) for root, e in linear if e > 0]
    bound = sum(map(abs, pre))
    for root, e in rises:
        bound *= (1 + abs(root)) ** e
    for a, b in composed:
        bound *= f.norm1 * (abs(a) + abs(b)) ** n
    p = None if g is None else reduced_qpoly(f, r)
    k = (bound if p is None else bound * _eig_bound(p, g)).bit_length() + 1  # with a sign bit
    x, one, div = (1 << k, 1, _int_div) if k <= _KRONECKER_MAX_BITS else (IntPoly.x(), IntPoly.one(), exact_div)
    num = sign * _horner(pre, x)
    for root, e in rises:
        num *= (x - root) ** e
    if p is not None:  # g(x, q) keeps its degree in q (see above): Res_q(p(q), g(x, q)); p's ints serve
        # as constants, as the first pseudo-remainder writes ring elements, or ends the sequence (n = 2)
        num *= _subresultant(p.coeffs, _trim([_horner(column, x) for column in g]), one, div)
    for a, b in composed:
        num *= f(a * x + b)
    if one == 1:  # N(2^K), read back by its digits
        num = signed_digits(num, k)
    if den := [IntPoly.linear_root(root) ** -e for root, e in linear if e < 0]:
        num = exact_div(num, prod(den, start=IntPoly.one()))
    if num.degree != n + m:
        raise DegreeMismatch(f"case {desc.case}: got degree {num.degree}, expected {n + m}")
    return num


# ----------------------------------------------------------------------------
# Human-readable rendering and the audit export.
# ----------------------------------------------------------------------------


def render_formula(desc: FormulaDescriptor) -> str:
    """One-line rendering of a descriptor in its symbolic form."""
    parts = []
    se = desc.sign_exponent
    if se != "0":
        parts.append("-1" if se == "1" else f"(-1)^({se})")
    if desc.prefactor != "1":
        parts.append(f"[{desc.prefactor}]")
    for root, exponent in desc.linear_factors:  # a name or a literal, negative too, is an atom
        base = "lam" if root == "0" else (
            f"(lam - {root})" if re.fullmatch(r"-?\w+", root) else f"(lam - ({root}))"
        )
        parts.append(base if exponent == "1" else f"{base}^({exponent})")
    if desc.eig_factor is not None:
        parts.append(f"prod_i[{desc.eig_factor}]")
    for a, b in desc.composed_terms:
        arg = "lam" if a == 1 and b == "0" else f"lam + ({b})" if a == 1 else f"{b} - lam"
        parts.append(f"f({arg})")
    return " * ".join(parts) if parts else "1"


def render_formula_instantiated(desc: FormulaDescriptor, n: int, m: int, r: int) -> str:
    """Factored display with (n, m, r) substituted, eigen factors left symbolic."""
    sign, pre, linear, g, composed = _instantiate(desc, n, m, r)
    parts = []
    if sign < 0:
        parts.append("-1")
    if pre != IntPoly.one():
        parts.append(f"[{pre.pretty('lam')}]")
    for rv, ev in linear:
        if ev == 0:
            continue
        base = f"({IntPoly.linear_root(rv).pretty('lam')})" if rv else "lam"
        parts.append(base if ev == 1 else f"{base}^{ev}" if ev > 0 else f"{base}^({ev})")
    if g is not None:
        parts.append(f"prod_i[{g.pretty('lam', 'q_i')}]")
    for a, bv in composed:
        arg = IntPoly((bv, 1)).pretty("lam") if a == 1 else f"{bv} - lam"
        parts.append(f"f({arg})")
    return " * ".join(parts) if parts else "1"


def descriptor_records() -> list[dict]:
    """JSON-ready audit table: case, status, rendered expression, original form."""
    records = []
    for case in list_cases():
        desc = _TABLE[case]
        rec = {
            "case": str(case),
            "status": desc.status,
            "expression": render_formula(desc),
        }
        if desc.status == "corrected":
            rec["published_form"] = desc.published_form
        records.append(rec)
    return records
