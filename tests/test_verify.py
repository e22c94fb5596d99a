"""The oracle harness and the standalone identity checks."""

import copy
import dataclasses
import json
import pickle
import random
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from xyzspectra.exactpoly import BiPoly, IntPoly, charpoly, charpoly_pair, compose_linear
from xyzspectra import formulas, transform, verify
from xyzspectra.formulas import descriptor_for, formula_charpoly, list_cases
from xyzspectra.graph import (
    Graph,
    circulant_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    line_graph,
    petersen_graph,
    regularity,
)
from xyzspectra.linalg import signless_laplacian
from xyzspectra.transform import xyz_transform
from xyzspectra.verify import (
    CorpusReport,
    PreconditionViolated,
    VerificationResult,
    check_complement_lemma,
    check_eigen_lemma,
    check_line_graph_relation,
    default_corpus,
    report_to_json,
    run_corpus,
    verify_case,
)

from helpers import case, from_roots
from test_transform import seeded_regular_graphs


class TestVerifyCase:
    def test_k3_111(self):
        res = verify_case(complete_graph(3), case("111"))
        assert res.outcome == "match"
        assert res.oracle_poly == from_roots(10, 4, 4, 4, 4, 4)
        assert res.formula_poly == res.oracle_poly
        assert not res.diff

    def test_k3_001(self):
        res = verify_case(complete_graph(3), case("001"))
        assert res.outcome == "match"
        assert res.oracle_poly == from_roots(0, 6, 3, 3, 3, 3)

    def test_c4_000(self):
        res = verify_case(cycle_graph(4), case("000"))
        assert res.outcome == "match"
        assert res.oracle_poly == IntPoly.x() ** 8

    def test_irregular_reported_not_raised(self):
        p3 = Graph(3, [(0, 1), (1, 2)])
        res = verify_case(p3, case("111"))
        assert res.outcome == "error"
        assert "regular" in res.error

    def test_edgeless_reported_not_raised(self):
        res = verify_case(Graph(3, ()), case("111"))
        assert res.outcome == "error"
        assert res.error == "PreconditionViolated: input graph has no edges"

    def test_graph_id_passthrough(self):
        res = verify_case(complete_graph(3), case("000"), graph_id="triangle")
        assert res.graph_id == "triangle"


class TestRunCorpus:
    def test_single_pair(self):
        rep = run_corpus([("K3", complete_graph(3))], [case("111")])
        assert len(rep.results) == 1
        assert rep.per_case == {"111": (1, 1)}
        assert rep.all_match

    def test_empty_cases(self):
        rep = run_corpus([("K3", complete_graph(3))], [])
        assert rep.results == ()
        assert rep.per_case == {}

    def test_every_pair_appears_once(self):
        graphs = [("K3", complete_graph(3)), ("C4", cycle_graph(4))]
        cases = [case("000"), case("+++"), case("11-")]
        rep = run_corpus(graphs, cases)
        seen = [(r.graph_id, str(r.case)) for r in rep.results]
        assert len(seen) == len(set(seen)) == 6
        total = sum(t for _, t in rep.per_case.values())
        assert total == 6

    def test_list_pair_graph_matches_every_case(self):
        rep = run_corpus([("C4", Graph(4, [[0, 1], [1, 2], [2, 3], [0, 3]]))])
        assert [r.outcome for r in rep.results] == ["match"] * 64

    def test_failure_capture(self):
        p3 = Graph(3, [(0, 1), (1, 2)])
        rep = run_corpus([("P3", p3)], [case("000")])
        assert rep.failures == (("P3", "000"),)
        assert not rep.all_match

    def test_case_error_captured_and_the_run_goes_on(self, monkeypatch):
        # a case whose evaluation raises is reported as an error; the cases after it still run
        def failing_on_111(desc, *args):
            if str(desc.case) == "111":
                raise ValueError("boom")
            return formula_charpoly(desc, *args)

        monkeypatch.setattr(verify, "formula_charpoly", failing_on_111)
        rep = run_corpus([("K3", complete_graph(3))], [case("000"), case("111"), case("+++")])
        assert [r.outcome for r in rep.results] == ["match", "error", "match"]
        assert rep.results[1].error == "ValueError: boom"
        assert rep.failures == (("K3", "111"),)

    def test_default_corpus_membership(self):
        names = [gid for gid, _ in default_corpus()]
        assert names == [
            "C3", "C4", "C5", "C6", "C7", "C8",
            "K3", "K4", "K5", "K6",
            "K22", "K33", "K44",
            "petersen", "Q3", "C8_12",
        ]
        degrees = set()
        for _, g in default_corpus():
            r = 2 * g.m // g.n
            assert g.degrees() == [r] * g.n
            degrees.add(r)
        assert degrees == {2, 3, 4, 5}


    def test_base_charpoly_once_per_graph(self, monkeypatch):
        dims = []

        def counting(mat):
            dims.append(mat.rows)
            return charpoly(mat)

        monkeypatch.setattr(verify, "charpoly", counting)
        rep = run_corpus([("K3", complete_graph(3)), ("C4", cycle_graph(4))])
        assert rep.all_match and len(rep.results) == 128
        # base graphs have 3 and 4 vertices, their transforms 6 and 8
        assert sorted(d for d in dims if d < 6) == [3, 4]

    def test_oracle_once_per_distinct_transform_and_call(self, monkeypatch):
        dims, pair_dims = [], []

        def counting(mat):
            dims.append(mat.rows)
            return charpoly(mat)

        def counting_pairs(g):
            pair_dims.append(g.n)
            return charpoly_pair(g)

        monkeypatch.setattr(verify, "charpoly", counting)
        monkeypatch.setattr(verify, "charpoly_pair", counting_pairs)
        # each reduction serves a transform and its complement's: half of the distinct
        # transforms, 16 for K3 and 32 for K4-K6 (see below).  C3's cycle_graph edge order
        # differs from K3's, so +yz and 1yz are equal graphs under different keys: its 24 keys
        # take 8 reductions, and each +yz reads its oracle off the complement -yz = 0yz, kept
        pairs = {"C3": 8, "K3": 8, "K4": 16, "K5": 16, "K6": 16}
        oracles = reductions = 0
        for gid, g in default_corpus():
            distinct = len({xyz_transform(g, c) for c in list_cases()})
            graphs = {frozenset(map(frozenset, xyz_transform(g, c).edges)) for c in list_cases()}
            for _ in range(2):  # nothing is kept from one call to the next
                dims.clear()
                pair_dims.clear()
                assert run_corpus([(gid, g)]).all_match
                assert dims == [g.n], gid  # the base charpoly only
                assert pair_dims == [g.n + g.m] * pairs.get(gid, 32), gid
            assert 2 * len(pair_dims) == len(graphs), gid  # one per two complementary edge sets
            oracles += distinct
            reductions += len(pair_dims)
        assert oracles == 840  # of 1024 cases
        assert reductions == 416
        # K_n's complement part is edgeless: -yz and 0yz coincide, and for K3 also x-z and x0z
        assert len({xyz_transform(complete_graph(4), c) for c in list_cases()}) == 32
        assert len({xyz_transform(complete_graph(3), c) for c in list_cases()}) == 16

    def test_shared_oracles_change_no_result(self):
        # verify_case takes every case on its own, with nothing shared between cases: its oracle
        # is always the first polynomial of a pair, while run_corpus takes half of its oracles
        # from the second, the complement's; also on the plan's graphs with n + m <= 36
        graphs = [*default_corpus(), *((f"plan{i}", g) for i, g in enumerate(plan_graphs()) if g.n + g.m <= 36)]
        for gid, g in graphs:
            shared = run_corpus([(gid, g)]).results
            alone = [verify_case(g, c, gid) for c in list_cases()]
            assert [(r.case, r.outcome, r.formula_poly, r.oracle_poly, r.diff) for r in shared] == [
                (r.case, r.outcome, r.formula_poly, r.oracle_poly, r.diff) for r in alone], gid
            assert all(r.outcome == "match" for r in shared), gid

    def test_regimes_outside_default_corpus(self):
        # r = 1 with m < n (K2, 3K2), disconnected graphs (2C3, C3+C4,
        # 2K4), where 2r is a repeated eigenvalue, and larger r (K7 with
        # r = 6, K5,5 with N = 35, C10(1,2,3,4) with r = 8 and N = 50)
        k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        graphs = [
            ("K2", Graph(2, ((0, 1),))),
            ("3K2", Graph(6, ((0, 1), (2, 3), (4, 5)))),
            ("2C3", Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))),
            ("C3+C4", Graph(7, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)))),
            ("2K4", Graph(8, tuple(k4) + tuple((a + 4, b + 4) for a, b in k4))),
            ("K7", complete_graph(7)),
            ("K5,5", complete_bipartite_graph(5)),
            ("C10(1,2,3,4)", circulant_graph(10, [1, 2, 3, 4])),
        ]
        rep = run_corpus(graphs)
        assert len(rep.results) == 512
        assert rep.failures == ()


def plan_graphs() -> list:
    """Graphs whose transform parts coincide in different ways: seeded circulants (relabelled, edges
    shuffled and flipped, every third disconnected); C3, whose + and 1 vertex parts are one edge set
    in two orders; K2, whose edge parts are all empty; and K4 and K5 with their edges shuffled, whose
    - and 0 vertex parts are both empty."""
    rng = random.Random(20131020)
    shuffled = [Graph(k, tuple(rng.sample(complete_graph(k).edges, k * (k - 1) // 2))) for k in (4, 5)]
    return [*seeded_regular_graphs(), cycle_graph(3), Graph(2, ((0, 1),)), *shuffled]


class TestCasePlan:
    @pytest.mark.parametrize("g", plan_graphs(), ids=lambda g: f"n{g.n}m{g.m}")
    def test_equal_keys_exactly_for_equal_transforms(self, g):
        cases = list_cases()
        transforms = {str(c): xyz_transform(g, c) for c in cases}
        plans = [verify._case_keys(g, cases)]
        if g.n + g.m <= 15:  # and each two-case list's own plan, which sees fewer symbols
            plans += [verify._case_keys(g, [a, b]) for a, b in combinations(cases, 2)]
        for keys in plans:
            for a, b in combinations(keys, 2):  # the cases' texts and their complements'
                assert (keys[a] == keys[b]) == (transforms[a] == transforms[b]), (a, b)

    def test_one_transform_built_per_reduction(self, monkeypatch):
        built, reduced = [], []
        monkeypatch.setattr(verify, "xyz_transform", lambda g, c: built.append(xyz_transform(g, c)) or built[-1])
        monkeypatch.setattr(verify, "charpoly_pair", lambda t: reduced.append(t) or charpoly_pair(t))
        assert run_corpus(default_corpus()).all_match
        assert len(built) == 416  # 1024 cases, 840 distinct transforms
        assert reduced == built

    def test_one_case_builds_the_line_graph_only_when_y_uses_it(self, monkeypatch):
        calls = []
        monkeypatch.setattr(transform, "line_graph", lambda g: calls.append(g) or line_graph(g))
        g = cycle_graph(5)
        for c in list_cases():
            transform._part.cache_clear()  # nothing kept from the case before
            calls.clear()
            assert verify_case(g, c).outcome == "match"
            assert len(calls) == (c.y in "+-"), str(c)


class TestVerificationResult:
    def test_outcome_and_diff_read_off_the_polynomials(self):
        names = [f.name for f in dataclasses.fields(VerificationResult)]
        assert names == ["graph_id", "case", "formula_poly", "oracle_poly", "error"]
        c = case("+1-")
        formula, oracle = IntPoly((3, 0, 1)), IntPoly((1, 2, 1))
        res = VerificationResult("A", c, formula, oracle)
        assert (res.outcome, res.diff) == ("mismatch", IntPoly((2, -2)))
        assert res.diff == formula - oracle
        res = VerificationResult("A", c, formula, IntPoly((3, 0, 1)))
        assert (res.outcome, res.diff) == ("match", IntPoly.zero())
        assert not res.diff
        res = VerificationResult("A", c, error="ValueError: boom")
        assert (res.outcome, res.diff) == ("error", None)
        # an error outranks the polynomials, equal or not
        assert VerificationResult("A", c, formula, oracle, "ValueError: boom").outcome == "error"
        assert VerificationResult("A", c, formula, formula, "ValueError: boom").diff is None


class TestCorpusReport:
    def test_tallies_read_off_results(self):
        # built by hand from the only four fields, so nothing but the results can set the tallies
        names = [f.name for f in dataclasses.fields(CorpusReport)]
        assert names == ["graph_ids", "cases", "results", "runtime_seconds"]
        c0, c1 = case("000"), case("+1-")
        results = (
            VerificationResult("A", c0, IntPoly.one(), IntPoly.one()),
            VerificationResult("A", c1, IntPoly.one(), IntPoly.zero()),
            VerificationResult("B", c0, error="ValueError: boom"),
        )
        rep = CorpusReport(("A", "B"), (c0, c1), results, 0.0)
        assert rep.per_case == {"000": (1, 2), "+1-": (0, 1)}
        assert rep.failures == (("A", "+1-"), ("B", "000"))
        assert not rep.all_match
        assert rep.descriptor_status == {str(c): descriptor_for(c).status for c in (c0, c1)}
        only_match = CorpusReport(("A",), (c0, c1), results[:1], 0.0)
        assert only_match.per_case == {"000": (1, 1), "+1-": (0, 0)}
        assert only_match.failures == () and only_match.all_match


class TestReportJson:
    def test_deterministic_modulo_runtime(self):
        graphs = [("K3", complete_graph(3))]
        cases = [case("000"), case("+1-")]
        doc1 = json.loads(report_to_json(run_corpus(graphs, cases)))
        doc2 = json.loads(report_to_json(run_corpus(graphs, cases)))
        doc1.pop("runtime_seconds")
        doc2.pop("runtime_seconds")
        assert doc1 == doc2

    def test_report_survives_pickle_and_deepcopy(self):
        report = run_corpus([("C5", cycle_graph(5))])
        for twin in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
            assert twin == report and report_to_json(twin) == report_to_json(report)

    def test_coefficients_are_decimal_strings(self):
        doc = json.loads(report_to_json(run_corpus([("K3", complete_graph(3))], [case("111")])))
        entry = doc["results"][0]
        assert entry["outcome"] == "match"
        assert entry["formula_coeffs"][-1] == "1"
        assert entry["oracle_coeffs"][0] == "10240"
        assert entry["diff_coeffs"] == []
        assert doc["descriptor_status"]["111"] == "as-published"


class TestComplementLemma:
    def test_k4_expanded_by_hand(self):
        # complement of K4 is edgeless: both sides equal (lam + 4) * lam^4
        assert check_complement_lemma(complete_graph(4))
        f = charpoly(signless_laplacian(complete_graph(4)))
        lhs = IntPoly.linear_root(-4) * IntPoly.x() ** 4
        rhs = IntPoly.linear_root(0) * compose_linear(f, -1, 2)
        assert lhs == rhs

    def test_c5(self):
        assert check_complement_lemma(cycle_graph(5))

    def test_petersen(self):
        assert check_complement_lemma(petersen_graph())

    def test_irregular_rejected(self):
        with pytest.raises(PreconditionViolated):
            check_complement_lemma(Graph(3, [(0, 1), (1, 2)]))


class TestLineGraphRelation:
    def test_c6_equal_counts(self):
        assert check_line_graph_relation(cycle_graph(6))

    def test_k4(self):
        assert check_line_graph_relation(complete_graph(4))

    def test_petersen(self):
        assert check_line_graph_relation(petersen_graph())

    def test_irregular_rejected(self):
        with pytest.raises(PreconditionViolated, match="needs a regular graph"):
            check_line_graph_relation(Graph(3, [(0, 1), (1, 2)]))

    def test_m_less_than_n_rejected(self):
        matching = Graph(4, [(0, 1), (2, 3)])  # 1-regular, m < n
        with pytest.raises(PreconditionViolated):
            check_line_graph_relation(matching)


class TestEigenLemma:
    def x(self):
        return BiPoly.u()

    def y(self):
        return BiPoly.v()

    def test_first_projection(self):
        assert check_eigen_lemma(complete_graph(3), self.x())

    def test_second_projection_k3(self):
        # P(Q, J) = J has spectrum {n, 0, ..., 0}
        assert check_eigen_lemma(complete_graph(3), self.y())

    def test_sum_on_c4(self):
        assert check_eigen_lemma(cycle_graph(4), self.x() + self.y())

    def test_product_and_mixed(self):
        for g in (complete_graph(3), cycle_graph(4)):
            assert check_eigen_lemma(g, self.x() * self.y())
            assert check_eigen_lemma(g, self.x() * self.x() + self.y())

    def test_irregular_rejected(self):
        with pytest.raises(PreconditionViolated):
            check_eigen_lemma(Graph(3, [(0, 1), (1, 2)]), self.x())

    def test_matrix_poly_pinned_without_the_lemma(self):
        # P(Q, J) against values computed here: the Horner order and the
        # constant's diagonal are checked without going through check_eigen_lemma
        for g in (complete_graph(4), cycle_graph(5)):
            n, r = g.n, regularity(g)
            q = signless_laplacian(g).entries
            ones = ((1,) * n,) * n
            q2 = tuple(tuple(sum(q[i][k] * q[k][j] for k in range(n)) for j in range(n)) for i in range(n))
            assert verify._matrix_poly(self.x() * self.y(), q, ones) == ((2 * r,) * n,) * n
            assert verify._matrix_poly(self.y() * self.y(), q, ones) == ((n,) * n,) * n
            assert verify._matrix_poly(self.x() * self.x() - 3, q, ones) == tuple(
                tuple(x - 3 if i == j else x for j, x in enumerate(row)) for i, row in enumerate(q2)
            )


@st.composite
def regular_graphs(draw):
    """A regular graph with N = n + m <= 30: a circulant on a random offset set,
    the disjoint union of two circulants of one degree, or the Cartesian product
    of two circulants.  A circulant on two vertices is K2."""
    def circulant(k_max):
        k = draw(st.integers(2, k_max))
        if k == 2:
            return Graph(2, ((0, 1),))
        return circulant_graph(k, sorted(draw(st.sets(st.integers(1, k // 2), min_size=1))))

    kind = draw(st.sampled_from(("circulant", "union", "product")))
    if kind == "circulant":
        g = circulant(15)
    elif kind == "union":
        a, b = circulant(8), circulant(8)
        assume(regularity(a) == regularity(b))
        g = Graph(a.n + b.n, a.edges + tuple((u + a.n, v + a.n) for u, v in b.edges))
    else:  # (i, j) is vertex i * b.n + j; edges of a in each row, of b in each column
        a, b = circulant(6), circulant(4)
        g = Graph(a.n * b.n,
                  tuple((u * b.n + j, v * b.n + j) for u, v in a.edges for j in range(b.n))
                  + tuple((i * b.n + u, i * b.n + v) for i in range(a.n) for u, v in b.edges))
    assume(g.n + g.m <= 30)
    return g


def test_closed_forms_of_regular_transforms_match():
    # +++, --- and 111 give a regular transform for every regular base, so each
    # transform is a base in turn: formula_charpoly then reads an f that is itself
    # a closed form, with roots of multiplicity up to 11 (K12, C6's 111)
    graphs = [(f"{name} {c}", xyz_transform(g, case(c)))
              for name, g in (("C5", cycle_graph(5)), ("K4", complete_graph(4)), ("C6", cycle_graph(6)))
              for c in ("+++", "---", "111")]
    assert sorted(t.n + t.m for _, t in graphs) == [25, 30, 35, 36, 40, 54, 55, 55, 78]
    rep = run_corpus(graphs)
    assert len(rep.results) == 9 * 64
    assert rep.failures == ()


@seed(20130102)
@settings(max_examples=20, deadline=None)
@given(regular_graphs())
def test_all_cases_match_on_random_regular_graphs(g):
    rep = run_corpus([("g", g)])
    assert len(rep.results) == 64
    assert rep.failures == ()


@seed(20130102)
@settings(max_examples=20, deadline=None)
@given(regular_graphs())
def test_routes_agree_on_random_regular_graphs(g):
    # the graphs above on both routes of formula_charpoly: every K is above 0 and below 10**9
    f, r = charpoly(signless_laplacian(g)), regularity(g)
    results = []
    for limit in (0, 10**9):
        with mock.patch.object(formulas, "_KRONECKER_MAX_BITS", limit):
            results.append([formula_charpoly(descriptor_for(c), g.n, g.m, r, f) for c in list_cases()])
    assert results[0] == results[1]
