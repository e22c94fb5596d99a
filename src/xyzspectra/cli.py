"""Command-line front end.

Exit codes: 0 success, 1 verification mismatch, 2 usage or parse error,
3 irregular input graph, 4 formula evaluation error.  A command refuses by raising;
main maps OSError and GraphError to 2 (an input file that cannot be read, decoded
as UTF-8 or parsed, an output file that cannot be written, an edgeless graph given
to transform, formula or verify), PreconditionViolated to 3 and a descriptor's
NotDivisible or DegreeMismatch, which only formula raises, to 4, each with one
"<cmd>: ..." stderr line; charpoly accepts an edgeless graph.  gen and transform
exit 2, before building anything, when the graph they would write has n + m above
graph.MAX_HEADER_ORDER (1000), the limit every edge-list header obeys.  verify
exits 2, before any charpoly, when n + m exceeds MAX_VERIFY_ORDER (100); formula
keeps only the header limit.  corpus checks its --report path before the run.
When stdout's reader has gone (head -n 1 read its line), the command ends quietly
with exit 141, the shell's 128 + SIGPIPE.
Polynomial output is one line of ascending decimal coefficients, byte-identical
across runs.  Data goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import graph
from .exactpoly import DegreeMismatch, NotDivisible, charpoly
from .formulas import (
    descriptor_for,
    formula_charpoly,
    list_cases,
    render_formula_instantiated,
)
from .graph import Graph, GraphError, _shown, format_edge_list, generate, parse_edge_list, regularity
from .linalg import adjacency, laplacian, signless_laplacian
from .transform import XyzCase, transform_size, xyz_transform
from .verify import PreconditionViolated, default_corpus, report_to_json, run_corpus

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_IRREGULAR = 3
EXIT_FORMULA = 4

# verify --all takes 32 paired oracle reductions of order n + m: 5.4-5.8 s in all for C50 (n + m =
# 100) on a loaded 2-core x86-64 host and 35 s for C75 (150), the slowest pair 0.32 s and 2.6 s
# (unpaired: 20-22 s and 147 s); the cost grows faster than N^3, so a header near 1000 would take days.
MAX_VERIFY_ORDER = 100

_MATRICES = {"A": adjacency, "L": laplacian, "Q": signless_laplacian}


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise GraphError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_edge_list(text)


def _load_regular(path: str) -> tuple[Graph, int]:
    """A regular graph with edges and its degree; main maps each refusal to its exit code."""
    g = _load_graph(path)
    if (r := regularity(g)) is None:
        raise PreconditionViolated("input graph is not regular")
    if g.m < 1:
        raise graph.EmptyEdgeSet("input graph has no edges")
    return g, r


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_gen(args) -> int:
    try:
        params = [int(token := p) for p in args.params]
    except ValueError:  # int()'s own message would quote up to 200 characters of the token
        return _fail(EXIT_USAGE, f"gen: parameter {_shown(repr(token))} is not an int of at most 4300 digits")
    _emit(format_edge_list(generate(args.kind, params)), args.out)
    return EXIT_OK


def cmd_transform(args) -> int:
    case = XyzCase.parse(args.case)
    g, r = _load_regular(args.input)
    if (order := sum(transform_size(g, case))) > (limit := graph.MAX_HEADER_ORDER):
        return _fail(EXIT_USAGE, f"transform: n + m = {order} of case {case} exceeds the limit {limit}")
    _emit(format_edge_list(xyz_transform(g, case)), args.out)
    return EXIT_OK


def cmd_charpoly(args) -> int:
    poly = charpoly(_MATRICES[args.matrix](_load_graph(args.input)))
    print(poly.to_string())
    return EXIT_OK


def cmd_formula(args) -> int:
    case = XyzCase.parse(args.case)
    g, r = _load_regular(args.input)
    desc = descriptor_for(case)
    poly = formula_charpoly(desc, g.n, g.m, r, charpoly(signless_laplacian(g)))
    print(poly.to_string())
    print(f"# {render_formula_instantiated(desc, g.n, g.m, r)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if (args.case is None) == (not args.all):
        return _fail(EXIT_USAGE, "verify: pass exactly one of --case or --all")
    g, r = _load_regular(args.input)
    if (order := g.n + g.m) > MAX_VERIFY_ORDER:
        return _fail(EXIT_USAGE, f"verify: n + m = {order} exceeds the verify limit {MAX_VERIFY_ORDER}")
    cases = list_cases() if args.all else [XyzCase.parse(args.case)]
    report = run_corpus([(args.input, g)], cases)
    for res in report.results:
        tag = "PASS" if res.outcome == "match" else "FAIL"
        detail = "" if res.outcome == "match" else f"  [{res.outcome}: {res.error or 'nonzero diff'}]"
        print(f"{tag} {res.case}{detail}")
    return EXIT_OK if report.all_match else EXIT_MISMATCH


def cmd_corpus(args) -> int:
    if args.report:  # an unwritable path fails before the run; append leaves an old report whole
        open(args.report, "a", encoding="utf-8").close()
    report = run_corpus(default_corpus())
    _emit(report_to_json(report), args.report)
    matched = sum(mt[0] for mt in report.per_case.values())
    total = sum(mt[1] for mt in report.per_case.values())
    print(f"corpus: {matched}/{total} matched", file=sys.stderr)
    return EXIT_OK if report.all_match else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xyzspectra",
        description="Exact signless-Laplacian polynomials of graph transformations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph and write its edge list")
    p.add_argument("kind", help="cycle | complete | complete_bipartite | petersen | hypercube | circulant")
    p.add_argument("params", nargs="*", help="integer parameters for the generator")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("transform", help="apply a transformation case to a graph")
    p.add_argument("input", help="edge-list file")
    p.add_argument("--case", required=True, help="three symbols over 01+-, e.g. +0-")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("charpoly", help="characteristic polynomial of a graph matrix")
    p.add_argument("input", help="edge-list file")
    p.add_argument("--matrix", choices=sorted(_MATRICES), default="Q")
    p.set_defaults(fn=cmd_charpoly)

    p = sub.add_parser("formula", help="evaluate the closed form for one case")
    p.add_argument("input", help="edge-list file")
    p.add_argument("--case", required=True)
    p.set_defaults(fn=cmd_formula)

    p = sub.add_parser("verify", help="closed form vs construction for one graph")
    p.add_argument("input", help="edge-list file")
    p.add_argument("--case")
    p.add_argument("--all", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("corpus", help="run the default corpus and write a JSON report")
    p.add_argument("--report", help="report file (default stdout)")
    p.set_defaults(fn=cmd_corpus)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed([i for i, a in enumerate(argv[:-1]) if a == "--case"]):  # else -0- is an option
        argv[i:i + 2] = [f"--case={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # Exit as a shell reports SIGPIPE (128 + 13), with stdout pointed at
        # devnull so that the interpreter's flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (OSError, GraphError) as exc:  # a file not read or written, malformed or edgeless input
        return _fail(EXIT_USAGE, f"{args.command}: {exc}")
    except PreconditionViolated as exc:  # an input graph outside the paper's hypothesis
        return _fail(EXIT_IRREGULAR, f"{args.command}: {exc}")
    except (NotDivisible, DegreeMismatch) as exc:  # only formula's: verify records them per result
        return _fail(EXIT_FORMULA, f"{args.command}: descriptor {args.case}: {exc}")
    return code


if __name__ == "__main__":
    sys.exit(main())
