"""Command-line interface: outputs, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from xyzspectra import cli, graph
from xyzspectra.exactpoly import charpoly, charpoly_pair
from xyzspectra.formulas import list_cases
from xyzspectra.graph import Graph, complete_graph, format_edge_list, parse_edge_list
from xyzspectra.linalg import signless_laplacian
from xyzspectra.graph import cycle_graph
from xyzspectra.transform import xyz_transform
from xyzspectra.verify import PreconditionViolated, default_corpus


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.g"
    path.write_text(format_edge_list(complete_graph(3)))
    return str(path)


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.g"
    path.write_text(format_edge_list(cycle_graph(4)))
    return str(path)


@pytest.fixture
def e3_file(tmp_path):
    path = tmp_path / "e3.g"
    path.write_text("3 0\n")
    return str(path)


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.g"
    path.write_text(format_edge_list(Graph(3, [(0, 1), (1, 2)])))
    return str(path)


class TestGen:
    def test_cycle_to_file(self, tmp_path):
        out = tmp_path / "c6.g"
        assert cli.main(["gen", "cycle", "6", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "6 6"
        assert len(lines) == 7

    def test_petersen_header(self, tmp_path, capsys):
        assert cli.main(["gen", "petersen"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "10 15"

    def test_invalid_parameter_exits_2(self, capsys):
        assert cli.main(["gen", "cycle", "2"]) == 2
        assert "gen:" in capsys.readouterr().err

    def test_unknown_kind_exits_2(self):
        assert cli.main(["gen", "dodecahedron"]) == 2

    def test_circulant(self, capsys):
        assert cli.main(["gen", "circulant", "8", "1", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "8 16"

    def test_order_limit(self, monkeypatch, capsys):
        monkeypatch.setattr(graph, "MAX_HEADER_ORDER", 10)
        assert cli.main(["gen", "cycle", "5"]) == 0  # n + m = 10
        capsys.readouterr()
        assert cli.main(["gen", "cycle", "6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "gen: cycle 6 has n + m above the limit 10\n"

    def test_huge_parameters_refused_unbuilt(self, capsys):
        tracemalloc.start()
        try:
            for argv in (["gen", "complete", "100000"], ["gen", "hypercube", "1000000000"]):
                assert cli.main(argv) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.startswith(f"gen: {argv[1]} {argv[2]} has n + m above")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestTransform:
    def test_k3_001_is_biclique(self, k3_file, tmp_path, capsys):
        assert cli.main(["transform", k3_file, "--case", "001"]) == 0
        g = parse_edge_list(capsys.readouterr().out)
        assert (g.n, g.m) == (6, 9)
        for u, v in g.edges:
            assert (u < 3) != (v < 3)

    def test_k3_111_is_complete(self, k3_file, capsys):
        assert cli.main(["transform", k3_file, "--case", "111"]) == 0
        g = parse_edge_list(capsys.readouterr().out)
        assert (g.n, g.m) == (6, 15)

    def test_irregular_exits_3(self, p3_file):
        assert cli.main(["transform", p3_file, "--case", "+++"]) == 3

    def test_bad_case_exits_2(self, k3_file):
        assert cli.main(["transform", k3_file, "--case", "abc"]) == 2
        assert cli.main(["transform", k3_file, "--case", "+++-"]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert cli.main(["transform", str(tmp_path / "none.g"), "--case", "+++"]) == 2

    def test_edgeless_exits_2(self, e3_file, capsys):
        assert cli.main(["transform", e3_file, "--case", "+++"]) == 2
        assert capsys.readouterr().err == "transform: input graph has no edges\n"

    def test_oversized_header_exits_2(self, k3_file, monkeypatch, capsys):
        monkeypatch.setattr(graph, "MAX_HEADER_ORDER", 5)
        for argv in (["transform", k3_file, "--case", "010"], ["charpoly", k3_file],
                     ["formula", k3_file, "--case", "010"], ["verify", k3_file, "--all"]):
            assert cli.main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"{argv[0]}: header n + m = 6 exceeds the limit 5\n"


    def test_output_above_the_header_limit_refused_unbuilt(self, tmp_path, monkeypatch, capsys):
        # 111 of C51 is K102: n + m = 102 + 5151 = 5253, a header no reader accepts
        src, out = tmp_path / "c51.g", tmp_path / "t.g"
        src.write_text(format_edge_list(cycle_graph(51)))
        monkeypatch.setattr(cli, "xyz_transform", None)  # refused before any building
        assert cli.main(["transform", str(src), "--case", "111", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == "transform: n + m = 5253 of case 111 exceeds the limit 1000\n"

    def test_header_limit_is_inclusive(self, k3_file, monkeypatch, capsys):
        # 111 of K3 is K6: n + m = 6 + 15 = 21
        monkeypatch.setattr(graph, "MAX_HEADER_ORDER", 21)
        assert cli.main(["transform", k3_file, "--case", "111"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(graph, "MAX_HEADER_ORDER", 20)
        assert cli.main(["transform", k3_file, "--case", "111"]) == 2
        assert capsys.readouterr().err == "transform: n + m = 21 of case 111 exceeds the limit 20\n"


# gen arguments that build each corpus graph
CORPUS_GEN = {
    **{f"C{k}": ["cycle", str(k)] for k in range(3, 9)},
    **{f"K{k}": ["complete", str(k)] for k in range(3, 7)},
    **{f"K{a}{a}": ["complete_bipartite", str(a)] for a in range(2, 5)},
    "petersen": ["petersen"], "Q3": ["hypercube", "3"], "C8_12": ["circulant", "8", "1", "2"],
}


def test_written_files_parse_back(tmp_path):
    # every file gen and transform write for the corpus graphs is one the CLI reads
    for gid, g in default_corpus():
        path = tmp_path / f"{gid}.g"
        assert cli.main(["gen", *CORPUS_GEN[gid], "--out", str(path)]) == 0
        assert parse_edge_list(path.read_text()) == g
        for case in list_cases():
            out = tmp_path / "t.g"
            assert cli.main(["transform", str(path), f"--case={case}", "--out", str(out)]) == 0
            assert parse_edge_list(out.read_text()) == xyz_transform(g, case), (gid, str(case))


MINUS_CASES = [str(case) for case in list_cases() if str(case).startswith("-")]


@pytest.mark.parametrize("cmd", ["transform", "formula", "verify"])
def test_cases_beginning_with_minus(cmd, c4_file, capsys):
    # argparse alone reads "--case -0-" as an option with no value; both spellings must work
    assert len(MINUS_CASES) == 16
    for case in MINUS_CASES:
        outs = []
        for selector in (["--case", case], [f"--case={case}"]):
            assert cli.main([cmd, c4_file, *selector]) == 0, (case, selector)
            captured = capsys.readouterr()
            assert captured.err == ""
            outs.append(captured.out)
        assert outs[0] == outs[1]
        if cmd == "verify":
            assert outs[0] == f"PASS {case}\n"


def test_case_value_missing_still_exits_2(c4_file, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", c4_file, "--case"])
    assert exc.value.code == 2
    assert "--case: expected one argument" in capsys.readouterr().err


class TestCharpoly:
    def test_k3_q(self, k3_file, capsys):
        assert cli.main(["charpoly", k3_file]) == 0
        assert capsys.readouterr().out.strip() == "-4 9 -6 1"

    def test_edgeless(self, tmp_path, capsys):
        path = tmp_path / "e3.g"
        path.write_text("3 0\n")
        assert cli.main(["charpoly", str(path), "--matrix", "Q"]) == 0
        assert capsys.readouterr().out.strip() == "0 0 0 1"

    def test_c4_q(self, c4_file, capsys):
        assert cli.main(["charpoly", c4_file]) == 0
        assert capsys.readouterr().out.strip() == "0 -16 20 -8 1"

    def test_adjacency_and_laplacian(self, k3_file, capsys):
        assert cli.main(["charpoly", k3_file, "--matrix", "A"]) == 0
        # A(K3) has spectrum {2, -1, -1}: (x-2)(x+1)^2 = x^3 - 3x - 2
        assert capsys.readouterr().out.strip() == "-2 -3 0 1"
        assert cli.main(["charpoly", k3_file, "--matrix", "L"]) == 0
        # L(K3) has spectrum {0, 3, 3}
        assert capsys.readouterr().out.strip() == "0 9 -6 1"

    def test_parse_failure_exits_2(self, tmp_path):
        path = tmp_path / "bad.g"
        path.write_text("nonsense\n")
        assert cli.main(["charpoly", str(path)]) == 2


class TestFormula:
    def test_k3_111(self, k3_file, capsys):
        assert cli.main(["formula", k3_file, "--case", "111"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "10240 -13824 7680 -2240 360 -30 1"
        assert lines[1].startswith("# ")

    def test_k3_000(self, k3_file, capsys):
        assert cli.main(["formula", k3_file, "--case", "000"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "0 0 0 0 0 0 1"

    def test_k3_00plus_matches_hexagon(self, k3_file, capsys):
        assert cli.main(["formula", k3_file, "--case", "00+"]) == 0
        coeffs = capsys.readouterr().out.splitlines()[0]
        expected = charpoly(signless_laplacian(cycle_graph(6))).to_string()
        assert coeffs == expected

    def test_irregular_exits_3(self, p3_file):
        assert cli.main(["formula", p3_file, "--case", "111"]) == 3

    def test_edgeless_exits_2(self, e3_file, capsys):
        assert cli.main(["formula", e3_file, "--case", "+++"]) == 2
        assert capsys.readouterr().err == "formula: input graph has no edges\n"

    def test_evaluation_error_exits_4(self, k3_file, monkeypatch, capsys):
        from xyzspectra.exactpoly import NotDivisible

        def boom(*args, **kwargs):
            raise NotDivisible("nonzero remainder")

        monkeypatch.setattr(cli, "formula_charpoly", boom)
        assert cli.main(["formula", k3_file, "--case", "+++"]) == 4
        assert capsys.readouterr().err == "formula: descriptor +++: nonzero remainder\n"


class TestVerify:
    def test_all_cases_pass(self, k3_file, capsys):
        assert cli.main(["verify", k3_file, "--all"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 64
        assert all(line.startswith("PASS") for line in lines)

    def test_single_case(self, c4_file, capsys):
        assert cli.main(["verify", c4_file, "--case", "+++"]) == 0
        assert capsys.readouterr().out.strip() == "PASS +++"

    def test_requires_exactly_one_selector(self, k3_file):
        assert cli.main(["verify", k3_file]) == 2
        assert cli.main(["verify", k3_file, "--case", "+++", "--all"]) == 2

    def test_irregular_exits_3(self, p3_file):
        assert cli.main(["verify", p3_file, "--all"]) == 3

    def test_edgeless_exits_2(self, e3_file, capsys):
        for selector in (["--all"], ["--case", "+++"]):
            assert cli.main(["verify", e3_file, *selector]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "verify: input graph has no edges\n"

    @staticmethod
    def count_oracles(monkeypatch) -> tuple[list, list]:
        """The orders of verify's charpoly and charpoly_pair calls, recorded while the test runs."""
        from xyzspectra import verify

        dims, pair_dims = [], []

        def counting(mat):
            dims.append(mat.rows)
            return charpoly(mat)

        def counting_pairs(g):
            pair_dims.append(g.n)
            return charpoly_pair(g)

        monkeypatch.setattr(verify, "charpoly", counting)
        monkeypatch.setattr(verify, "charpoly_pair", counting_pairs)
        return dims, pair_dims

    def test_base_charpoly_once(self, k3_file, monkeypatch, capsys):
        dims, pair_dims = self.count_oracles(monkeypatch)
        assert cli.main(["verify", k3_file, "--all"]) == 0
        # one base charpoly (K3, 3 rows) and one oracle (6 rows) per distinct transform: the
        # complement of K3 is edgeless and its line graph is K3, so x in {0, -} build the same
        # vertex part, x in {1, +} the same, and likewise y; 2 * 2 * 4 = 16 transforms, the
        # complements of one another in pairs, so 8 reductions
        assert dims == [3]
        assert pair_dims == [6] * 8

    def test_base_charpoly_once_c5(self, tmp_path, monkeypatch, capsys):
        dims, pair_dims = self.count_oracles(monkeypatch)
        path = tmp_path / "c5.g"
        path.write_text(format_edge_list(cycle_graph(5)))
        assert cli.main(["verify", str(path), "--all"]) == 0
        # C5's 64 transforms are 64 distinct graphs: one base charpoly and 32 reductions
        assert dims == [5]
        assert pair_dims == [10] * 32

    def test_order_limit(self, k3_file, monkeypatch, capsys):
        # K3 has n + m = 6: refused before run_corpus (so before any charpoly) at limit 5
        def refuse(graphs, cases=None):
            raise AssertionError("run_corpus called above the verify limit")

        monkeypatch.setattr(cli, "MAX_VERIFY_ORDER", 5)
        monkeypatch.setattr(cli, "run_corpus", refuse)
        for selector in (["--all"], ["--case", "+++"]):
            assert cli.main(["verify", k3_file, *selector]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "verify: n + m = 6 exceeds the verify limit 5\n"
        monkeypatch.undo()
        monkeypatch.setattr(cli, "MAX_VERIFY_ORDER", 6)
        assert cli.main(["verify", k3_file, "--all"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 64

    def test_precondition_violated_exits_3(self, k3_file, monkeypatch, capsys):
        # main maps a PreconditionViolated raised anywhere under a command to exit 3 and one
        # "<cmd>: <message>" stderr line, not only the one the input check raises
        def refuse(graphs, cases=None):
            raise PreconditionViolated("a precondition of the run failed")

        monkeypatch.setattr(cli, "run_corpus", refuse)
        assert cli.main(["verify", k3_file, "--all"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "verify: a precondition of the run failed\n"

    def test_formula_keeps_only_the_header_limit(self, k3_file, monkeypatch, capsys):
        monkeypatch.setattr(cli, "MAX_VERIFY_ORDER", 5)
        assert cli.main(["formula", k3_file, "--case", "+++"]) == 0
        assert capsys.readouterr().err == ""

    def test_mismatch_exits_1(self, k3_file, monkeypatch, capsys):
        from xyzspectra.exactpoly import IntPoly
        from xyzspectra.verify import CorpusReport, VerificationResult

        def fake(graphs, cases=None):
            res = VerificationResult("k3", cases[0], IntPoly((1,)), IntPoly.zero())
            return CorpusReport(("k3",), tuple(cases), (res,), 0.0)

        monkeypatch.setattr(cli, "run_corpus", fake)
        assert cli.main(["verify", k3_file, "--case", "+++"]) == 1
        assert capsys.readouterr().out.startswith("FAIL +++")


class TestCorpus:
    def test_report_written_and_deterministic(self, tmp_path, monkeypatch, capsys):
        # shrink the corpus so the CLI path stays fast; the full corpus run
        # is exercised by the acceptance suite
        small = [("K3", complete_graph(3)), ("C4", cycle_graph(4))]
        monkeypatch.setattr(cli, "default_corpus", lambda: small)
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert cli.main(["corpus", "--report", str(out1)]) == 0
        assert cli.main(["corpus", "--report", str(out2)]) == 0
        doc1 = json.loads(out1.read_text())
        doc2 = json.loads(out2.read_text())
        doc1.pop("runtime_seconds")
        doc2.pop("runtime_seconds")
        assert doc1 == doc2
        assert len(doc1["results"]) == 128
        assert doc1["failures"] == []
        assert capsys.readouterr().err.strip().endswith("128/128 matched")

    def test_unwritable_report_fails_before_the_run(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "run_corpus", lambda *args: calls.append(args))
        assert cli.main(["corpus", "--report", str(tmp_path / "missing" / "r.json")]) == 2
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("corpus: ")
        assert captured.err.count("\n") == 1

    def test_report_check_keeps_an_old_report(self, tmp_path, monkeypatch):
        def boom(*args):
            raise RuntimeError("run failed")

        monkeypatch.setattr(cli, "run_corpus", boom)
        out = tmp_path / "r.json"
        out.write_text("old report\n")
        with pytest.raises(RuntimeError):
            cli.main(["corpus", "--report", str(out)])
        assert out.read_text() == "old report\n"


class TestUndecodableInput:
    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "b.g"
        path.write_bytes(b"\xff\xfe\x00x\n")
        for argv in (["charpoly", str(path)], ["transform", str(path), "--case", "+++"],
                     ["formula", str(path), "--case", "+++"], ["verify", str(path), "--all"]):
            assert cli.main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"{argv[0]}: {path}: not UTF-8 text")
            assert captured.err.count("\n") == 1


class TestOutputFailures:
    """An unwritable output file exits 2; a closed stdout ends quietly."""

    def test_unwritable_output_exits_2(self, k3_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "default_corpus", lambda: [("K3", complete_graph(3))])
        missing = str(tmp_path / "no-such-dir" / "out")
        for argv in (["gen", "cycle", "6", "--out", missing],
                     ["transform", k3_file, "--case", "+++", "--out", missing],
                     ["corpus", "--report", missing],
                     ["gen", "cycle", "6", "--out", str(tmp_path)]):
            assert cli.main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"{argv[0]}: ")
            assert captured.err.count("\n") == 1

    def test_closed_stdout_ends_quietly(self, k3_file):
        # the read end is closed before the child starts, so its first write
        # to stdout meets a broken pipe
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        for argv in (["formula", k3_file, "--case", "+++"], ["verify", k3_file, "--all"]):
            r, w = os.pipe()
            os.close(r)
            try:
                proc = subprocess.run([sys.executable, "-m", "xyzspectra.cli", *argv],
                                      stdout=w, stderr=subprocess.PIPE, env=env, timeout=120)
            finally:
                os.close(w)
            assert proc.stderr == b""
            assert proc.returncode == 141


# ----------------------------------------------------------------------------
# Generated edge lists: every mutated input ends in a documented exit code.
# ----------------------------------------------------------------------------

BAD_TOKENS = ["x", "1.5", "0x3", "1e3", "-1", "0", "-0", "3.", "\u0663", "1_0", "\x00"]
HUGE_TOKENS = [str(graph.MAX_HEADER_ORDER + 1), str(10**30), "9" * 4300, "9" * 5000]


@st.composite
def mutated_edge_lists(draw):
    """The bytes of a small regular graph's edge list under up to four mutations: bad or
    huge header tokens, a header of the wrong length, self-loops, duplicate and
    out-of-range edges (counted in the header or not), non-int edge tokens, dropped
    lines; then CRLF line ends, a BOM or a stray non-UTF-8 byte.  Or an empty file."""
    if draw(st.integers(0, 19)) == 0:
        return b""
    g = draw(st.sampled_from([cycle_graph(4), complete_graph(3), complete_graph(4), cycle_graph(5)]))
    head, edges = [str(g.n), str(g.m)], [[str(u), str(v)] for u, v in g.edges]
    vertex = st.integers(0, g.n - 1)
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["head", "head", "head-len", "loop", "dup", "range", "token", "drop"]))
        if kind == "head" and head:
            head[draw(st.integers(0, len(head) - 1))] = draw(st.sampled_from(BAD_TOKENS + HUGE_TOKENS)
                                                             | st.integers(-2, 12).map(str))
        elif kind == "head-len":
            head = draw(st.sampled_from([head[:1], head + ["1"], []]))
        elif kind == "drop" and edges:
            del edges[draw(st.integers(0, len(edges) - 1))]
        elif kind == "token" and edges:
            edges[draw(st.integers(0, len(edges) - 1))][draw(st.integers(0, 1))] = draw(
                st.sampled_from(BAD_TOKENS + HUGE_TOKENS))
        elif kind in ("loop", "dup", "range") and edges:
            u = draw(vertex)
            if kind == "loop":
                edges.append([str(u), str(u)])
            elif kind == "dup":
                edges.append(draw(st.permutations(draw(st.sampled_from(edges)))))
            else:
                edges.append([str(u), str(draw(st.sampled_from([g.n, g.n + 1, -1, 10**30])))])
            if draw(st.booleans()) and len(head) == 2 and head[1].isdigit() and len(head[1]) < 5:
                head[1] = str(int(head[1]) + 1)  # counted in the header, so the edge itself is read
    text = draw(st.sampled_from(["\n", "\r\n"])).join(" ".join(t) for t in [head, *edges]) + "\n"
    return draw(st.sampled_from([b""] * 4 + [b"\xef\xbb\xbf", b"\xff"])) + text.encode()


@pytest.fixture(scope="module")
def generated_file(tmp_path_factory):
    return tmp_path_factory.mktemp("generated") / "g.g"


@seed(20131018)
@settings(max_examples=200, deadline=None)
@example(data=b"9" * 4300 + b" 1\n0 1\n", command="charpoly", case="+++")  # n + m has 4301 digits
@example(data=b"3 1\n" + b"0 " * 50000 + b"\n", command="charpoly", case="+++")  # a 100 000-character line
@example(data=b"3 1\n0 " + b"9" * 4000 + b"\n", command="charpoly", case="+++")  # a 4000-digit endpoint
@given(data=mutated_edge_lists(), command=st.sampled_from(["transform", "charpoly", "formula", "verify"]),
       case=st.sampled_from([str(c) for c in list_cases()]))
def test_generated_edge_lists_exit_cleanly(generated_file, data, command, case):
    # an exit code in 0-4, one short stderr line when it is not 0, and never a traceback
    generated_file.write_bytes(data)
    argv = [command, str(generated_file)] + ([] if command == "charpoly" else ["--case", case])
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue()) < 200, err.getvalue()[:400]
    if code:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), err.getvalue()


GEN_TOKENS = BAD_TOKENS + HUGE_TOKENS + ["-" + "9" * 4300, "x" * 5000]


@st.composite
def gen_arguments(draw):
    """A gen command line: every generator kind or an unknown one, with the right number of
    parameters or a wrong one, each a small int, 0, a negative, a non-int token or a huge int
    (up to 5000 digits); for circulant also colliding offsets or hundreds of offsets."""
    kind = draw(st.sampled_from([*sorted(graph.GENERATORS), "dodecahedron"]))
    arity = graph.GENERATORS[kind][1] if kind in graph.GENERATORS else 1
    count = arity if arity is not None and draw(st.booleans()) else draw(st.integers(0, 4))
    token = st.integers(-3, 12).map(str) | st.sampled_from(GEN_TOKENS)
    params = [draw(token) for _ in range(count)]
    if kind == "circulant" and draw(st.booleans()):
        k = draw(st.integers(3, 1000))
        params = [str(k)] + draw(st.sampled_from([
            [str(s) for s in (1, k - 1, k + 1, -1)],  # all fold to 1 mod k
            [str(s) for s in range(1, 400)],
            ["1"] * 300,
            [str(k), "1"],  # 0 mod k
        ]))
    return [kind, *params]


@seed(20131019)
@settings(max_examples=200, deadline=None)
@example(argv=["circulant", "1000", *map(str, range(1, 400))])  # a 1.5 kB parameter list
@example(argv=["cycle", "x" * 5000])  # int()'s own message would quote 200 characters of it
@example(argv=["complete", "44"])  # n + m = 990, the largest complete graph under the limit: 0.33 MB
@given(argv=gen_arguments())
def test_generated_gen_parameters_exit_cleanly(generated_file, argv):
    # an exit code in 0-4, one short stderr line when it is not 0, never a traceback, and a bounded
    # peak of allocated memory: a graph is built only with n + m <= 1000, and a huge parameter never
    out, err = io.StringIO(), io.StringIO()
    tracemalloc.start()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["gen", *argv, "--out", str(generated_file)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue()) < 200, err.getvalue()[:400]
    if code:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), err.getvalue()
    else:
        assert parse_edge_list(generated_file.read_text()).n >= 1
