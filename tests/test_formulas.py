"""The descriptor table and its evaluator.

Expected polynomials come from independent constructions: hand-expanded
spectra for the named instances, and the brute-force charpoly of the
constructed transformation for the rest.
"""

import hashlib
import json
import operator
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from xyzspectra import exactpoly, formulas
from xyzspectra.exactpoly import BiPoly, DegreeMismatch, IntPoly, NotDivisible, charpoly
from xyzspectra.formulas import (
    descriptor_for,
    descriptor_records,
    formula_charpoly,
    list_cases,
    render_formula,
    render_formula_instantiated,
)
from xyzspectra.graph import (
    Graph,
    circulant_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    petersen_graph,
    regularity,
)
from xyzspectra.linalg import signless_laplacian
from xyzspectra.transform import xyz_transform
from xyzspectra.verify import default_corpus

from helpers import case, from_roots

CORRECTED_CASES = {"0+0", "1+0", "++0", "-+0", "0-0", "1-0", "+-0", "--0", "-1+", "10-"}


def fpoly(g):
    return charpoly(signless_laplacian(g))


def evaluate(text, env):
    """A descriptor text run as Python source, its names bound by env to ints or
    polynomial generators, with no builtins: the reference the grids are held to."""
    return eval(compile(text, "<descriptor>", "eval"), {"__builtins__": {}}, env)


def reference_instantiate(desc, n, m, r):
    """What formulas._instantiate must return, built from the texts on the generators
    IntPoly.x(), BiPoly.u() and BiPoly.v(), one operation per operator."""
    env = {"n": n, "m": m, "r": r}
    g = desc.eig_factor
    if g is not None:  # zero + value: an int-valued expression becomes a constant polynomial
        g = BiPoly.constant(0) + evaluate(g, {**env, "lam": BiPoly.u(), "q": BiPoly.v()})
    return (
        -1 if evaluate(desc.sign_exponent, env) % 2 else 1,
        IntPoly.zero() + evaluate(desc.prefactor, {**env, "lam": IntPoly.x()}),
        [(evaluate(root, env), evaluate(e, env)) for root, e in desc.linear_factors],
        g,
        [(a, evaluate(b, env)) for a, b in desc.composed_terms],
    )


def run_formula(g, case_str):
    r = regularity(g)
    return formula_charpoly(descriptor_for(case(case_str)), g.n, g.m, r, fpoly(g))


# _KRONECKER_MAX_BITS for each route: every K is at least 1, and none reaches 10**9
POLYNOMIAL, KRONECKER = 0, 10**9


def on_routes(monkeypatch, calls):
    """Each call() on the polynomial route, then on the Kronecker route: its result, or the
    type and message of what it raised; the signed-digit reads of each route are counted."""
    out, reads, plain = [], [], formulas.signed_digits
    monkeypatch.setattr(formulas, "signed_digits", lambda v, k: reads.append(k) or plain(v, k))
    for limit in (POLYNOMIAL, KRONECKER):
        monkeypatch.setattr(formulas, "_KRONECKER_MAX_BITS", limit)
        results = []
        for call in calls:
            try:
                results.append(call())
            except Exception as exc:
                results.append((type(exc), str(exc)))
        out.append(results)
        out.append(len(reads))
        reads.clear()
    return out


def regression_corpus():
    """r = 1 with m < n (K2, 3K2) and disconnected graphs, where 2r is a repeated root."""
    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    return [Graph(2, ((0, 1),)), Graph(6, ((0, 1), (2, 3), (4, 5))),
            Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))),
            Graph(7, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6))),
            Graph(8, tuple(k4) + tuple((a + 4, b + 4) for a, b in k4))]


def all_cases(g):
    """One call per case, the closed form of g."""
    f, r = fpoly(g), regularity(g)
    return [lambda d=descriptor_for(c): formula_charpoly(d, g.n, g.m, r, f) for c in list_cases()]


class TestListCases:
    def test_first_and_count(self):
        cases = list_cases()
        assert len(cases) == 64
        assert cases[0] == case("000")
        assert cases[-1] == case("---")

    def test_contains_each_once(self):
        cases = list_cases()
        assert cases.count(case("-+-")) == 1

    def test_order_is_x_major(self):
        cases = list_cases()
        assert [str(c) for c in cases[:5]] == ["000", "001", "00+", "00-", "010"]


class TestDescriptors:
    def test_total_function(self):
        for c in list_cases():
            assert descriptor_for(c).case == c

    def test_corrected_set_is_documented(self):
        corrected = {str(c) for c in list_cases() if descriptor_for(c).status == "corrected"}
        assert corrected == CORRECTED_CASES

    def test_corrected_entries_retain_original(self):
        for c in list_cases():
            desc = descriptor_for(c)
            if desc.status == "corrected":
                assert desc.published_form
            else:
                assert desc.published_form == ""

    def test_000_shape(self):
        desc = descriptor_for(case("000"))
        assert desc.prefactor == "1"
        assert desc.eig_factor is None
        assert len(desc.linear_factors) == 2  # lam^n * lam^m

    def test_111_shape(self):
        desc = descriptor_for(case("111"))
        assert desc.eig_factor is None
        assert len(desc.linear_factors) == 1
        root, exponent = desc.linear_factors[0]
        env = {"n": 3, "m": 3, "r": 2}
        assert (evaluate(root, env), evaluate(exponent, env)) == (4, 5)

    def test_int_fields_need_only_n_m_r(self):
        # the sign, the roots, the exponents and the composed offsets are ints in (n, m, r)
        env = {"n": 8, "m": 12, "r": 3}
        for c in list_cases():
            desc = descriptor_for(c)
            texts = [desc.sign_exponent, *(t for pair in desc.linear_factors for t in pair),
                     *(b for _, b in desc.composed_terms)]
            for text in texts:
                assert type(evaluate(text, env)) is int, f"case {c}: {text}"

    def test_degree_accounting(self):
        # declared degrees must add up to n + m for every descriptor
        for n, m, r in [(3, 3, 2), (8, 12, 3), (6, 15, 5)]:
            for c in list_cases():
                _, pre, linear, g, composed = formulas._instantiate(descriptor_for(c), n, m, r)
                assert pre.degree <= 2
                deg = pre.degree + sum(e for _, e in linear) + n * len(composed)
                if g is not None:
                    deg += (n - 1) * g.deg_u
                assert deg == n + m, f"case {c}: degree budget {deg} != {n + m}"

    def test_composed_copies_cancel_every_negative_power_from_r_2(self):
        # f = (lam - 2r) p, so f(a lam + b) holds lam - root when a*root + b = 2r.  For r >= 2,
        # m = rn/2 >= n, and the negative exponents are the literal -1s alone; each one's root
        # is sent to 2r by exactly one composed term, its own, of slope a = +-1 (the copies that
        # formula_charpoly cancels), as an identity in (n, m, r)
        samples = [{"n": n, "m": r * n // 2, "r": r} for r in range(2, 8) for n in range(r + 1, 16)
                   if r * n % 2 == 0]
        powers = 0
        for c in list_cases():
            desc = descriptor_for(c)
            roots = [root for root, e in desc.linear_factors if any(evaluate(e, env) < 0 for env in samples)]
            assert all(e == "-1" for root, e in desc.linear_factors if root in roots), c
            hits = [[(a, b) for a, b in desc.composed_terms if a in (1, -1)
                     and formulas._grid(f"{a}*({root}) + ({b}) - 2*r", ("n", "m", "r")) == [["0"]]]
                    for root in roots]
            assert all(len(hit) == 1 for hit in hits), c
            assert len({hit[0] for hit in hits}) == len(hits), c
            powers += len(roots)
        assert powers == 8  # x = -: -00, -10, -+0, --0; y = -: 0-0, 1-0, +-0, --0

    def test_every_table_descriptor_compiles(self):
        # each descriptor's grids are derived on first use; a bad table text fails here
        for c in list_cases():
            assert formulas._compiled(descriptor_for(c)).co_filename == f"<descriptor {c}>"

    @pytest.mark.parametrize("n, m, r", [
        (5, 5, 2), (4, 6, 3), (4, 2, 1), (17, 68, 8),   # C5, K4, 2K2, an 8-regular graph
        (10**6, 3 * 10**6, 6),                          # large
        (0, 0, 0), (-3, 7, 2), (0, -5, -2), (3, -4, 0), # no graph: the grids are identities
    ])
    def test_grids_equal_generator_evaluation(self, n, m, r):
        for c in list_cases():
            desc = descriptor_for(c)
            assert formulas._instantiate(desc, n, m, r) == reference_instantiate(desc, n, m, r), c


class TestFormulaCharpoly:
    def test_k3_111(self):
        assert run_formula(complete_graph(3), "111") == from_roots(10, 4, 4, 4, 4, 4)

    def test_k3_00plus_is_hexagon(self):
        got = run_formula(complete_graph(3), "00+")
        assert got == from_roots(0, 4, 1, 1, 3, 3)
        assert got == fpoly(cycle_graph(6))

    def test_c4_000(self):
        assert run_formula(cycle_graph(4), "000") == IntPoly.x() ** 8

    def test_c4_minus00_inverse_factor_cancels(self):
        # exercises the negative-exponent path; complement of C4 is two
        # disjoint edges, so the answer is lam^6 (lam-2)^2
        got = run_formula(cycle_graph(4), "-00")
        assert got == IntPoly.x() ** 6 * IntPoly.linear_root(2) ** 2
        oracle = fpoly(xyz_transform(cycle_graph(4), case("-00")))
        assert got == oracle

    def test_monic_of_full_degree(self):
        g = hypercube_graph(3)
        for c in list_cases():
            p = run_formula(g, str(c))
            assert p.is_monic
            assert p.degree == g.n + g.m

    def test_trace_identity_all_cases(self):
        # second-highest coefficient equals -2 * edge count of the transform
        for g in (complete_graph(3), cycle_graph(4)):
            for c in list_cases():
                p = run_formula(g, str(c))
                t = xyz_transform(g, c)
                assert p.coeffs[-2] == -2 * t.m

    def test_bipartite_cases_have_root_zero(self):
        for g in (complete_graph(3), cycle_graph(5), hypercube_graph(3)):
            for cs in ("00+", "00-"):
                p = run_formula(g, cs)
                assert p(0) == 0

    def test_all_minus_consistent_with_complement_identity(self):
        # the --- polynomial is tied to the +++ polynomial by the complement
        # identity applied on n+m vertices with degree 2r
        for g in (complete_graph(3), cycle_graph(4), hypercube_graph(3)):
            r = regularity(g)
            nn = g.n + g.m
            rr = 2 * r
            f_minus = run_formula(g, "---")
            f_plus = run_formula(g, "+++")
            lhs = IntPoly.linear_root(nn - 2 - 2 * rr) * f_minus
            reflected = IntPoly.zero()
            # f_plus(nn - 2 - lam), expanded exactly
            arg = IntPoly((nn - 2, -1))
            for c in reversed(f_plus.coeffs):
                reflected = reflected * arg + IntPoly.constant(c)
            rhs = (-1) ** (nn % 2) * IntPoly.linear_root(2 * nn - 2 - 2 * rr) * reflected
            assert lhs == rhs

    def test_smallest_regular_graph(self):
        # n=2, m=1 sits outside the corpus and makes the kernel exponents
        # negative (m < n); every case still matches the brute force
        g = complete_graph(2)
        f = fpoly(g)
        for c in list_cases():
            formula = formula_charpoly(descriptor_for(c), 2, 1, 1, f)
            oracle = fpoly(xyz_transform(g, c))
            assert formula == oracle, f"case {c} fails on the single edge"

    def test_precondition_validation(self, monkeypatch):
        # each refusal by its whole message, alike on both routes, before either reads a digit
        f = fpoly(complete_graph(3))
        desc = descriptor_for(case("111"))
        calls = [
            lambda: formula_charpoly(desc, 3, 4, 2, f),  # 2m != rn
            lambda: formula_charpoly(desc, 4, 4, 2, f),  # degree of f is not n
            lambda: formula_charpoly(desc, 3, 0, 0, IntPoly.x() ** 3),  # edgeless: 2m = rn holds at r = 0
        ]
        refusals = [(ValueError, "formula_charpoly: 2m = rn violated (n=3, m=4, r=2)"),
                    (ValueError, "formula_charpoly: f must be monic of degree n"),
                    (ValueError, "formula_charpoly: m must be >= 1")]
        assert on_routes(monkeypatch, calls) == [refusals, 0, refusals, 0]

    def test_divides_only_by_a_nonconstant_denominator(self, monkeypatch):
        # a composed copy f(a lam + b) = a (lam - a(2r - b)) p(a lam + b) takes one negative
        # power at its root: on C5 (n = m = 5, r = 2) 7 cases have one and none is left to
        # divide by; at r = 1 (K2, 3K2) the 48 cases with a factor (lam - root)^(m - n) divide
        # and no other, on both routes alike, each equal to the brute force
        graphs = [cycle_graph(5), *regression_corpus()[:2]]
        env = {"n": 5, "m": 5, "r": 2}
        negative = {str(c) for c in list_cases()
                    if any(evaluate(e, env) < 0 for _, e in descriptor_for(c).linear_factors)}
        assert len(negative) == 7
        left = {str(c) for c in list_cases() if any(e == "m - n" for _, e in descriptor_for(c).linear_factors)}
        assert len(left) == 48
        divided, plain_div = [], formulas.exact_div

        def counting(num, den):
            divided.append(den.degree > 0)
            return plain_div(num, den)

        monkeypatch.setattr(formulas, "exact_div", counting)

        def call(g, c, oracle):
            def run():
                divided.clear()
                return run_formula(g, c) == oracle, any(divided)
            return run

        calls = [call(g, str(c), fpoly(xyz_transform(g, c))) for g in graphs for c in list_cases()]
        polynomial, _, kronecker, _ = on_routes(monkeypatch, calls)
        assert polynomial == kronecker
        assert all(match for match, _ in polynomial)
        cases = [str(c) for c in list_cases()]
        for i, expected in enumerate((set(), left, left)):
            assert {c for c, (_, div) in zip(cases, polynomial[64 * i:64 * (i + 1)]) if div} == expected

    def test_only_a_unit_slope_copy_cancels(self):
        # on K3 (r = 2) f(2 lam) = (2 lam - 4) p(2 lam) holds lam - 2, not lam - a(2r - b) = lam - 8,
        # so a power of lam - 8 is left to divide by, and does not divide
        desc = replace(descriptor_for(case("+00")), linear_factors=(("8", "-1"),), composed_terms=((2, "0"),))
        with pytest.raises(NotDivisible):
            formula_charpoly(desc, 3, 3, 2, fpoly(complete_graph(3)))

    def test_skips_zero_exponent_factors(self, monkeypatch):
        # on C5 (n = m = 5, r = 2) 48 linear factors over the 64 cases have exponent 0,
        # each a product by (lam - root)**0 = 1; no power of 0 is taken anywhere on the
        # polynomial route, the one that raises IntPoly to powers
        monkeypatch.setattr(formulas, "_KRONECKER_MAX_BITS", POLYNOMIAL)
        g = cycle_graph(5)
        env = {"n": 5, "m": 5, "r": 2}
        zero = [e for c in list_cases() for _, e in descriptor_for(c).linear_factors
                if evaluate(e, env) == 0]
        assert len(zero) == 48
        zero_powers, plain_pow = [], IntPoly.__pow__

        def counting(self, k):
            if k == 0:
                zero_powers.append(current)
            return plain_pow(self, k)

        monkeypatch.setattr(IntPoly, "__pow__", counting)
        for current in map(str, list_cases()):
            assert run_formula(g, current) == fpoly(xyz_transform(g, case(current)))
        assert zero_powers == []

    def test_f_without_the_root_2r_rejected(self):
        # x^3 is monic of degree n but is no charpoly of a 2-regular graph;
        # 000 has no eigen factor, so nothing else would divide by x - 4
        for c in ("000", "+++"):
            with pytest.raises(ValueError):
                formula_charpoly(descriptor_for(case(c)), 3, 3, 2, IntPoly([0, 0, 0, 1]))

    def test_base_checks_every_new_f(self, monkeypatch):
        # _base keeps the last (f, r) and never a raise: after a good call on C4, an f of the
        # same n = 4 and r = 2 without the root 4, and a non-monic one, raise their messages
        # on every call, on both routes, and f is taken again after them
        g = cycle_graph(4)
        f, desc = fpoly(g), descriptor_for(case("+++"))
        calls = [lambda h=h: formula_charpoly(desc, 4, 4, 2, h)
                 for h in (f, IntPoly.x() ** 4, IntPoly.x() ** 4, 2 * f, 2 * f, f)]
        good = fpoly(xyz_transform(g, case("+++")))
        rootless = (ValueError, "formula_charpoly: f must have the root 2r")
        non_monic = (ValueError, "formula_charpoly: f must be monic of degree n")
        expected = [good, rootless, rootless, non_monic, non_monic, good]
        assert on_routes(monkeypatch, calls) == [expected, 0, expected, 2]

    def test_non_int_arguments_refused_by_name(self):
        # one TypeError naming the argument, before any arithmetic, in every case;
        # what operator.index accepts (here a bool) counts as the int it stands for
        g = complete_graph(2)
        f = fpoly(g)
        for c in list_cases():
            desc = descriptor_for(c)
            for i, name in enumerate("nmr"):
                for bad in (2.0, "2", Fraction(2), None):
                    args = [2, 1, 1]
                    args[i] = bad
                    with pytest.raises(TypeError, match=f"^{name} must be an int"):
                        formula_charpoly(desc, *args, f)
                    with pytest.raises(TypeError, match=f"^{name} must be an int"):
                        render_formula_instantiated(desc, *args)
            assert formula_charpoly(desc, 2, True, True, f) == formula_charpoly(desc, 2, 1, 1, f)
            assert render_formula_instantiated(desc, 2, True, True) == \
                render_formula_instantiated(desc, 2, 1, 1)


class TestRoutes:
    """formula_charpoly evaluates at lam = 2^K when K, its bound's bit length plus a sign
    bit, is at most _KRONECKER_MAX_BITS, and multiplies polynomials above it."""

    @pytest.mark.parametrize("graphs", [[g for _, g in default_corpus()], regression_corpus()],
                             ids=["default-corpus", "regression-corpus"])
    def test_routes_agree(self, monkeypatch, graphs):
        calls = [call for g in graphs for call in all_cases(g)]
        polynomial, poly_reads, kronecker, kronecker_reads = on_routes(monkeypatch, calls)
        assert polynomial == kronecker
        assert all(isinstance(p, IntPoly) for p in polynomial)
        assert (poly_reads, kronecker_reads) == (0, len(calls))

    def test_published_variants_fail_alike(self, monkeypatch):
        # TestPublishedVariantsFail's printed forms, and a denominator that does not divide
        k3, c4, k4 = complete_graph(3), cycle_graph(4), complete_graph(4)
        desc = {c: descriptor_for(case(c)) for c in ("0-0", "--0", "-1+", "10-", "-+0", "-00")}
        variants = [
            (k3, replace(desc["0-0"], sign_exponent="n - 1")),
            (k3, replace(desc["--0"], sign_exponent="1")),
            (c4, replace(desc["-1+"], eig_factor="(lam - m)*(lam - n + r + 2 - q) - q")),
            (k3, replace(desc["10-"], prefactor="(lam - n + 2)*(lam - 2*n + m + r + 2) + (2*r - m)*n - 2*r")),
            (k4, replace(desc["-+0"], linear_factors=tuple(
                pair for pair in desc["-+0"].linear_factors if pair[0] != "2*r - 4"))),
            (k3, replace(desc["-00"], linear_factors=(("n - 2*r", "-1"),) + desc["-00"].linear_factors[1:])),
        ]
        calls = [lambda g=g, d=d: formula_charpoly(d, g.n, g.m, regularity(g), fpoly(g)) for g, d in variants]
        polynomial, _, kronecker, _ = on_routes(monkeypatch, calls)
        assert polynomial == kronecker
        assert [type(p) for p in polynomial[4:]] == [tuple, tuple]
        assert polynomial[4][0] is DegreeMismatch and polynomial[5][0] is NotDivisible

    def test_route_follows_the_constant(self, monkeypatch):
        # on C51, K is 339 for +++ and 682 for 111: either side of the constant; a constant
        # one below K moves a case to the polynomial route, and one at K to the Kronecker route
        calls = dict(zip(map(str, list_cases()), all_cases(cycle_graph(51))))
        reads, plain = [], formulas.signed_digits
        monkeypatch.setattr(formulas, "signed_digits", lambda v, k: reads.append(k) or plain(v, k))
        results = {}
        for limit, c, read in ((None, "+++", [339]), (None, "111", []), (338, "+++", []), (682, "111", [682])):
            if limit is not None:
                monkeypatch.setattr(formulas, "_KRONECKER_MAX_BITS", limit)
            results.setdefault(c, []).append(calls[c]())
            assert reads == read, (limit, c)
            reads.clear()
        assert all(a == b for a, b in results.values())

    def test_reduced_qpoly_once_per_graph(self, monkeypatch):
        # the eigen-factor cases share one reduced polynomial per (f, r)
        formulas._base.cache_clear()
        divisions, plain = [], exactpoly.exact_div
        monkeypatch.setattr(exactpoly, "exact_div", lambda a, b: divisions.append(b) or plain(a, b))
        for call in all_cases(petersen_graph()):
            call()
        assert divisions.count(IntPoly.linear_root(6)) == 1

    # N = n + m = 300, which no Tier-1 test reaches; the digests are of the 64 to_string() lines,
    # joined by newlines, as the Kronecker and polynomial routes gave them before the square-free parts
    @pytest.mark.slow
    @pytest.mark.parametrize("g, digest", [
        (circulant_graph(100, [1, 2]), "438bfb4c94ddb54b5560ede170db28ccbf08105a9831a4d20027723c14ec5beb"),
        (cycle_graph(150), "2bda4ac085d55cd603e6ca81f937c44d8a2ac5b7e438dd227de1e3b480fa1c10"),
    ], ids=["C100(1,2)", "C150"])
    def test_closed_forms_at_n_300_keep_their_digest(self, monkeypatch, g, digest):
        reads, plain = [], formulas.signed_digits
        monkeypatch.setattr(formulas, "signed_digits", lambda v, k: reads.append(k) or plain(v, k))
        lines = "\n".join(call().to_string() for call in all_cases(g))
        assert hashlib.sha256(lines.encode()).hexdigest() == digest
        assert 0 < len(reads) < 64  # some cases on each route

    def test_squarefree_once_per_graph(self, monkeypatch):
        # the 64 cases share one square-free decomposition of p per (f, r)
        formulas._base.cache_clear()
        decompositions, plain = [], formulas._squarefree
        monkeypatch.setattr(formulas, "_squarefree", lambda p: decompositions.append(p) or plain(p))
        for call in all_cases(petersen_graph()):
            call()
        assert len(decompositions) == 1


class TestSquarefreeParts:
    """The square-free parts of p that _base holds, against hand-known Q-spectra: K_n's is
    2n - 2 and n - 2 (n - 1 times), K_{a,a}'s 2a, a (2a - 2 times) and 0, Petersen's 3 + its
    adjacency spectrum 3, 1^5, (-2)^4, and C_n's 2 + 2cos(2 pi j / n)."""

    @staticmethod
    def parts(g):
        return [(IntPoly(h), k) for h, k in formulas._base(fpoly(g), regularity(g))[2]]

    @pytest.mark.parametrize("g, expected", [
        (complete_graph(5), [((3,), 4)]),
        (complete_bipartite_graph(3), [((0,), 1), ((3,), 4)]),
        (petersen_graph(), [((1,), 4), ((4,), 5)]),
        (regression_corpus()[2], [((4,), 1), ((1,), 4)]),  # 2C3: f = (lam - 4)^2 (lam - 1)^4
        (regression_corpus()[4], [((6,), 1), ((2,), 6)]),  # 2K4: f = (lam - 6)^2 (lam - 2)^6
    ], ids=["K5", "K33", "Petersen", "2C3", "2K4"])
    def test_known_spectra(self, g, expected):
        assert self.parts(g) == [(from_roots(*roots), k) for roots, k in expected]

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
    def test_odd_cycle_is_one_square(self, n):
        # q_j = q_(n-j) for j = 1..n-1, and no two of q_1..q_((n-1)/2) are equal when n is odd
        assert [(h.degree, k) for h, k in self.parts(cycle_graph(n))] == [((n - 1) // 2, 2)]


NAMES = ("n", "m", "r", "lam", "q")


@st.composite
def texts_in_step(draw):
    """(a text in the table's grammar, int bindings for NAMES, its value on them, its
    value with lam = x).

    The text is built from parts, and each value by the same operator on the parts'
    values, so the two never share an evaluator.
    """
    ints = {name: draw(st.integers(-9, 9)) for name in NAMES}
    polys = {**ints, "lam": IntPoly.x()}

    def operand(drawn):  # a compound part is parenthesised, an atom (negative literal too) is not
        text, v, p = drawn
        return (text if text.lstrip("-").isalnum() else f"({text})"), v, p

    def build(depth):
        kind = draw(st.sampled_from(("int", "var", "neg", "+", "-", "*")[:6 if depth else 2]))
        if kind == "int":
            v = draw(st.integers(-20, 20))
            return str(v), v, v
        if kind == "var":
            name = draw(st.sampled_from(NAMES))
            return name, ints[name], polys[name]
        if kind == "neg":
            text, v, p = operand(build(depth - 1))
            return f"-{text}", -v, -p
        op = {"+": operator.add, "-": operator.sub, "*": operator.mul}[kind]
        (a, va, pa), (b, vb, pb) = operand(build(depth - 1)), operand(build(depth - 1))
        return f"{a} {kind} {b}", op(va, vb), op(pa, pb)

    text, v, p = build(4)
    return text, ints, v, p


class TestExpr:
    """Descriptor expressions: the expansion that is the table's grammar, and its grids."""

    @seed(20130101)
    @settings(max_examples=300, deadline=None)
    @given(texts_in_step())
    def test_evaluation_runs_the_rendering(self, drawn):
        text, ints, value, poly_value = drawn
        assert evaluate(text, ints) == value
        assert evaluate(text, {**ints, "lam": IntPoly.x()}) == poly_value
        # the expansion: its coefficients in lam and q, each as source in n, m, r
        grid = [[evaluate(src, ints) for src in col] for col in formulas._grid(text)]
        q = ints["q"]
        assert sum(c * ints["lam"] ** a * q ** b
                   for b, col in enumerate(grid) for a, c in enumerate(col)) == value
        assert IntPoly([sum(col[a] * q ** b for b, col in enumerate(grid))
                        for a in range(len(grid[0]))]) == IntPoly.zero() + poly_value

    def test_check_refuses_outside_grammar(self):
        for bad in ("n.real", "f(n)", "x", "__import__('os')", "lambda: 0", "n**2", "2n", ""):
            with pytest.raises(ValueError):
                formulas._grid(bad)

    def test_unbound_name_is_named(self):
        # a name outside the grammar, a builtin's too, and lam or q in an int field
        for text, names, name in (("x", NAMES, "'x'"), ("2*abs", NAMES, "'abs'"),
                                  ("n - lam", NAMES[:3], "'lam'"), ("q", NAMES[:4], "'q'")):
            with pytest.raises(ValueError, match=name):
                formulas._grid(text, names)


class TestPublishedVariantsFail:
    """The corrected descriptors genuinely differ from their printed forms:
    re-instating the printed form breaks oracle agreement."""

    def oracle(self, g, case_str):
        return fpoly(xyz_transform(g, case(case_str)))

    def test_sign_variant_0_minus_0(self):
        g = complete_graph(3)
        desc = descriptor_for(case("0-0"))
        printed = replace(desc, sign_exponent="n - 1")
        got = formula_charpoly(printed, g.n, g.m, 2, fpoly(g))
        assert got == -1 * self.oracle(g, "0-0")  # off by a global sign

    def test_sign_variant_minus_minus_0(self):
        g = complete_graph(3)
        desc = descriptor_for(case("--0"))
        printed = replace(desc, sign_exponent="1")
        got = formula_charpoly(printed, g.n, g.m, 2, fpoly(g))
        assert got != self.oracle(g, "--0")

    def test_eig_variant_minus_1_plus(self):
        g = cycle_graph(4)
        desc = descriptor_for(case("-1+"))
        printed = replace(desc, eig_factor="(lam - m)*(lam - n + r + 2 - q) - q")
        got = formula_charpoly(printed, g.n, g.m, 2, fpoly(g))
        assert got != self.oracle(g, "-1+")

    def test_prefactor_variant_10_minus(self):
        g = complete_graph(3)
        desc = descriptor_for(case("10-"))
        printed_prefactor = "(lam - n + 2)*(lam - 2*n + m + r + 2) + (2*r - m)*n - 2*r"
        printed = replace(desc, prefactor=printed_prefactor)
        got = formula_charpoly(printed, g.n, g.m, 2, fpoly(g))
        assert got != self.oracle(g, "10-")

    def test_missing_factor_minus_plus_0(self):
        # without the (lam - 2r + 4)^(m-n) factor the degree cannot reach n+m
        g = complete_graph(4)  # m > n so the factor matters
        desc = descriptor_for(case("-+0"))
        linear = tuple(
            (root, exponent)
            for root, exponent in desc.linear_factors
            if root != "2*r - 4"
        )
        assert len(linear) == len(desc.linear_factors) - 1
        printed = replace(desc, linear_factors=linear)
        with pytest.raises(DegreeMismatch):
            formula_charpoly(printed, g.n, g.m, 3, fpoly(g))


class TestRendering:
    def test_symbolic_contains_product(self):
        text = render_formula(descriptor_for(case("+++")))
        assert "prod_i" in text
        assert "lam - 3*r + 2" in text

    def test_atom_roots_unparenthesised(self):
        # a name and a negative literal are atoms; any compound root is parenthesised
        desc = replace(descriptor_for(case("111")), prefactor="1",
                       linear_factors=(("-3", "1"), ("n", "1"), ("n - 2", "1"), ("2*n", "1")))
        assert render_formula(desc) == "(lam - -3) * (lam - n) * (lam - (n - 2)) * (lam - (2*n))"

    def test_instantiated_k3_111(self):
        text = render_formula_instantiated(descriptor_for(case("111")), 3, 3, 2)
        assert text == "[lam - 10] * (lam - 4)^5"

    def test_instantiated_pinned(self):
        # all 64 cases on K3, C5, K4, K3,3 and Petersen
        graphs = [complete_graph(3), cycle_graph(5), complete_graph(4),
                  complete_bipartite_graph(3), petersen_graph()]
        lines = [
            render_formula_instantiated(descriptor_for(c), g.n, g.m, regularity(g))
            for g in graphs
            for c in list_cases()
        ]
        assert len(lines) == 320
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "ed2195156b002794b54cbcb35fb9956dd2afce77589e9b7596551ae694394f29"

    def test_records_pinned(self):
        blob = json.dumps(descriptor_records(), sort_keys=True)
        digest = hashlib.sha256(blob.encode()).hexdigest()
        assert digest == "ae6b9e36713f4c7646d90b7e7cda93b03dffb9c5ffc9404974b6ccd4b77227b7"

    def test_records_are_json_ready(self):
        records = descriptor_records()
        assert len(records) == 64
        blob = json.dumps(records)
        assert "corrected" in blob
        for rec in records:
            if rec["status"] == "corrected":
                assert rec["published_form"]
