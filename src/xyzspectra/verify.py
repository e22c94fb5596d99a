"""Oracle harness: closed forms against brute force, plus identity suites.

For every (graph, case) pair the harness compares the case's closed-form
polynomial, coefficient by coefficient, with the exact charpoly of the
constructed transform.  A plan made once per graph keys each case by its
transform's parts, so each distinct transform (for K_n, -yz and 0yz coincide)
is built and reduced once, with its complement's (0 and 1, + and - swapped).
There is no tolerance anywhere; a mismatch ships the difference polynomial.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .exactpoly import BiPoly, IntPoly, charpoly, charpoly_pair, compose_linear, eig_product, reduced_qpoly
from .formulas import descriptor_for, formula_charpoly, list_cases
from .graph import (
    Graph,
    circulant_graph,
    complement,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    line_graph,
    petersen_graph,
    regularity,
)
from .linalg import IntMatrix, signless_laplacian
from .transform import _SWAP, XyzCase, _part, xyz_transform

__all__ = [
    "PreconditionViolated",
    "VerificationResult",
    "CorpusReport",
    "verify_case",
    "run_corpus",
    "report_to_json",
    "default_corpus",
    "check_complement_lemma",
    "check_line_graph_relation",
    "check_eigen_lemma",
]


class PreconditionViolated(ValueError):
    pass


@dataclass(frozen=True)
class VerificationResult:
    """One (graph, case) comparison: the two polynomials, or the error that stopped it.

    outcome and diff are read off them: "error" with no diff when error is set,
    else "match" with the zero diff exactly when the two are equal, else
    "mismatch" with diff formula - oracle.
    """

    graph_id: str
    case: XyzCase
    formula_poly: IntPoly | None = None
    oracle_poly: IntPoly | None = None
    error: str = ""

    @property
    def outcome(self) -> str:
        return "error" if self.error else "match" if self.formula_poly == self.oracle_poly else "mismatch"

    @property
    def diff(self) -> IntPoly | None:
        if self.error:
            return None
        return IntPoly.zero() if self.formula_poly == self.oracle_poly else self.formula_poly - self.oracle_poly


@dataclass(frozen=True)
class CorpusReport:
    """The results of a corpus run; every tally is read off the results."""

    graph_ids: tuple[str, ...]
    cases: tuple[XyzCase, ...]
    results: tuple[VerificationResult, ...]
    runtime_seconds: float

    @property
    def per_case(self) -> dict:
        """Case string -> (matched, total), for every case of the run."""
        tally = {str(c): (0, 0) for c in self.cases}
        for res in self.results:
            matched, total = tally[str(res.case)]
            tally[str(res.case)] = (matched + (res.outcome == "match"), total + 1)
        return tally

    @property
    def failures(self) -> tuple[tuple[str, str], ...]:
        """(graph id, case string) of each result that is not a match, in run order."""
        return tuple((res.graph_id, str(res.case)) for res in self.results if res.outcome != "match")

    @property
    def descriptor_status(self) -> dict:
        """Case string -> the status of its descriptor."""
        return {str(c): descriptor_for(c).status for c in self.cases}

    @property
    def all_match(self) -> bool:
        return not self.failures


def _case_keys(g: Graph, cases) -> dict:
    """The text of each case and of its complement -> its key: each symbol mapped to the first symbol
    used at its position with the same part.  Parts lie on disjoint vertex ranges, so two transforms
    are equal graphs exactly when their keys are equal."""
    both, first = {*map(str, cases), *(str(case).translate(_SWAP) for case in cases)}, {}
    canon = [{s: first.setdefault((p, _part(g, p + s)), s) for s in sorted({t[i] for t in both})}
             for i, p in enumerate("xyz")]  # first: (position, part edges) -> the first symbol with them
    return {t: canon[0][t[0]] + canon[1][t[1]] + canon[2][t[2]] for t in both}


def _verify_graph(gid: str, g: Graph, cases) -> list[VerificationResult]:
    """Compare the closed form against direct construction for each case.

    The degree r, the base graph's polynomial and the cases' keys are made once per call.  A new
    key's transform is built and reduced with its complement's by one charpoly_pair.  All failures
    (irregular or edgeless input, evaluation errors) are captured in the results rather than raised.
    """
    try:
        r = regularity(g)
        if r is None:
            raise PreconditionViolated("input graph is not regular")
        if g.m < 1:
            raise PreconditionViolated("input graph has no edges")
        f = charpoly(signless_laplacian(g))
        keys = _case_keys(g, cases)
    except Exception as exc:  # reported, never propagated
        return [_error(gid, case, exc) for case in cases]
    results, oracles = [], {}  # case key -> (its oracle, its complement's), for this call only
    for case in cases:
        try:
            if (pair := oracles.get(key := keys[text := str(case)])) is None:
                kbar = keys[text.translate(_SWAP)]
                pair = oracles[kbar][::-1] if kbar in oracles else charpoly_pair(xyz_transform(g, case))
                oracles[key], oracles[kbar] = pair, pair[::-1]
            oracle = pair[0]
            formula = formula_charpoly(descriptor_for(case), g.n, g.m, r, f)
        except Exception as exc:  # reported, never propagated
            results.append(_error(gid, case, exc))
            continue
        results.append(VerificationResult(gid, case, formula, oracle))
    return results


def _error(gid: str, case: XyzCase, exc: Exception) -> VerificationResult:
    return VerificationResult(gid, case, error=f"{type(exc).__name__}: {exc}")


def verify_case(g: Graph, case: XyzCase, graph_id: str = "") -> VerificationResult:
    """Compare the closed form against direct construction for one case.

    All failures (irregular input, evaluation errors) are captured in the
    result rather than raised.
    """
    return _verify_graph(graph_id or f"graph(n={g.n},m={g.m})", g, [case])[0]


def run_corpus(graphs, cases=None) -> CorpusReport:
    """Evaluate the full (graph, case) cross product; deterministic order.

    graphs is a sequence of (id, Graph) pairs; cases defaults to all 64.
    """
    start = time.perf_counter()
    cases = list(cases) if cases is not None else list_cases()
    graphs = list(graphs)
    results = tuple(res for gid, g in graphs for res in _verify_graph(gid, g, cases))
    return CorpusReport(
        graph_ids=tuple(gid for gid, _ in graphs),
        cases=tuple(cases),
        results=results,
        runtime_seconds=time.perf_counter() - start,
    )


def _coeff_strings(p: IntPoly | None) -> list[str]:
    return [str(c) for c in p.coeffs] if p is not None else []


def report_to_json(report: CorpusReport) -> str:
    """Serialize a report; decimal-string coefficients, stable key order.

    The runtime field is the only part of the document that varies between
    identical runs.
    """
    doc = {
        "graphs": list(report.graph_ids),
        "cases": [str(c) for c in report.cases],
        "results": [
            {
                "graph": res.graph_id,
                "case": str(res.case),
                "outcome": res.outcome,
                "formula_coeffs": _coeff_strings(res.formula_poly),
                "oracle_coeffs": _coeff_strings(res.oracle_poly),
                "diff_coeffs": _coeff_strings(res.diff),
                **({"error": res.error} if res.error else {}),
            }
            for res in report.results
        ],
        "per_case": {
            c: {"matched": mt[0], "total": mt[1]} for c, mt in report.per_case.items()
        },
        "failures": [list(f) for f in report.failures],
        "descriptor_status": report.descriptor_status,
        "runtime_seconds": report.runtime_seconds,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def default_corpus() -> list[tuple[str, Graph]]:
    """The standard verification corpus: cycles, cliques, balanced bicliques,
    the Petersen graph, the 3-cube and an 8-vertex circulant.

    Degrees range from 2 to 5; the set mixes bipartite with non-bipartite
    and m = n with m > n.
    """
    return [
        *((f"C{k}", cycle_graph(k)) for k in range(3, 9)),
        *((f"K{k}", complete_graph(k)) for k in range(3, 7)),
        *((f"K{a}{a}", complete_bipartite_graph(a)) for a in range(2, 5)),
        ("petersen", petersen_graph()), ("Q3", hypercube_graph(3)), ("C8_12", circulant_graph(8, [1, 2])),
    ]


# ----------------------------------------------------------------------------
# Standalone identities.
# ----------------------------------------------------------------------------


def check_complement_lemma(g: Graph) -> bool:
    """Exact identity tying a regular graph's polynomial to its complement's:

        (lam - n + 2 + 2r) * f(lam, complement)
            = (-1)^n * (lam - 2n + 2 + 2r) * f(n - 2 - lam, g)
    """
    r = regularity(g)
    if r is None:
        raise PreconditionViolated("complement identity needs a regular graph")
    n = g.n
    f = charpoly(signless_laplacian(g))
    fc = charpoly(signless_laplacian(complement(g)))
    lhs = IntPoly.linear_root(n - 2 - 2 * r) * fc
    rhs = (-1) ** (n % 2) * IntPoly.linear_root(2 * n - 2 - 2 * r) * compose_linear(f, -1, n - 2)
    return lhs == rhs


def check_line_graph_relation(g: Graph) -> bool:
    """Exact identity for the line graph of an r-regular graph (m >= n):

        f(lam, line graph) = (lam - 2r + 4)^(m-n) * f(lam - 2r + 4, g)
    """
    r = regularity(g)
    if r is None:
        raise PreconditionViolated("line-graph identity needs a regular graph")
    if g.m < g.n:
        raise PreconditionViolated("line-graph identity stated for m >= n")
    f = charpoly(signless_laplacian(g))
    lhs = charpoly(signless_laplacian(line_graph(g)))
    rhs = IntPoly.linear_root(2 * r - 4) ** (g.m - g.n) * compose_linear(f, 1, 4 - 2 * r)
    return lhs == rhs


def _matmul(a: tuple, b: tuple) -> tuple:
    """Schoolbook product of two square matrices given as row tuples."""
    columns = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in columns) for row in a)


def _matrix_poly(p: BiPoly, first: tuple, second: tuple) -> tuple:
    """Substitute square matrices, as row tuples, into a bivariate polynomial.

    Monomial u^s v^t maps to first^s * second^t (first-powers on the left;
    the two arguments commute in every use here, but the order is pinned
    for determinism).  Horner's rule in both variables; a constant c adds
    c on the diagonal.
    """
    k = len(first)
    out = ((0,) * k,) * k
    for row in reversed(p.grid):
        inner = ((0,) * k,) * k
        for c in reversed(row):
            inner = tuple(
                tuple(x + c if i == j else x for j, x in enumerate(r))
                for i, r in enumerate(_matmul(second, inner))
            )
        out = tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(_matmul(first, out), inner))
    return out


def check_eigen_lemma(g: Graph, p: BiPoly) -> bool:
    """Spectrum of P(Q, J) for regular g: P(2r, n) once, P(q_i, 0) on the rest.

    Verified as the exact polynomial identity

        charpoly(P(Q, J)) = (lam - P(2r, n)) * prod_i (lam - P(q_i, 0))

    with the product computed through the resultant-based eigen-product.
    """
    r = regularity(g)
    if r is None:
        raise PreconditionViolated("eigenvalue lemma needs a regular graph")
    n = g.n
    qmat = signless_laplacian(g)
    lhs = charpoly(IntMatrix(_matrix_poly(p, qmat.entries, ((1,) * n,) * n)))

    f = charpoly(qmat)
    reduced = reduced_qpoly(f, r)
    # g(lam, q) = lam - P(q, 0): keep the u^s v^0 column, re-expressed in v
    p_at_zero = [row[0] if row else 0 for row in p.grid]
    factor = BiPoly.u() - BiPoly((p_at_zero,))
    rhs = IntPoly.linear_root(p.eval_u(2 * r)(n)) * eig_product(reduced, factor)
    return lhs == rhs
