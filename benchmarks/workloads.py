"""The benchmark workloads: inputs from a seed, one timed batch, checks.

Every workload goes through the public API only: names exported from
``xyzspectra/__init__.py`` and ``xyzspectra.cli.main``.  A batch is the
unit a user waits for; an item is the unit whose latency is reported.

- ``verify``: for each of six small regular graphs, relabelled by the
  seed, ``run_corpus`` over all 64 cases: brute force against closed form,
  as ``xyzspectra corpus`` does for each corpus graph.  An item is one
  graph.
- ``corpus``: one ``xyzspectra corpus --report <file>`` call, in-process,
  over the fixed 16-graph x 64-case corpus.  The whole call is one item.
- ``closed-form``: for each seeded circulant, the base charpoly once, then
  ``formula_charpoly`` for all 64 cases.  An item is one
  ``formula_charpoly`` call; the base charpolys are timed apart.
- ``bruteforce-ladder``: for each rung, transform, Q, oracle charpoly, base
  charpoly and the closed form, compared exactly.  An item is one rung.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import xyzspectra as xs
from xyzspectra import cli

DEFAULT_SEED = 0

# SHA-256 of the corpus report with "runtime_seconds" removed and the rest
# re-serialised as canonical JSON.  The corpus is fixed: every seed.
CORPUS_REPORT_SHA256 = "6c01588281529255c40b0fa48ca5a5b4c13eed1c02ca4d27d7c324e4e2b34c8c"
CORPUS_PAIRS = 1024

# The verify graphs: id, constructor and its argument.  Six graphs of degree 2
# to 4 from the corpus, each under 1.1 s a pass on the reference box, so
# that a pass takes about 3 s and a run repeats every graph 14 times or
# more (see run.py: an item's latency is its median over the repeats).  The
# seed relabels the vertices, which leaves every polynomial, and the cost,
# unchanged.
VERIFY_GRAPHS = (
    ("C5", xs.cycle_graph, 5),
    ("C7", xs.cycle_graph, 7),
    ("K4", xs.complete_graph, 4),
    ("K5", xs.complete_graph, 5),
    ("K22", xs.complete_bipartite_graph, 2),
    ("K33", xs.complete_bipartite_graph, 3),
)

# SHA-256 of every output coefficient (see output_digest).  The verify
# outputs on VERIFY_GRAPHS do not depend on the seed; the other two are
# pinned at DEFAULT_SEED.
VERIFY_SHA256 = "b7d64b72c41d79ab3f4a36d2bbb3bc7641b0ea3560393e2826b53060fc03af1a"
CLOSED_FORM_SHA256 = "79e4c4f171d4dd6bb284a4761552b2ddbfa602546429c4a51480fe135864d945"
LADDER_SHA256 = "65c3af219da156937e7883e0e7e965aa1a7328e2142db46610bf22c080f987c1"

# (n, k) of each seeded circulant C_n(S) (see random_circulant).  The sizes
# are chosen so that every seed costs about the same.  For prime n the
# offset sets fall into a few isomorphism classes (S ~ aS); for n = 7, 11
# and 13 with k = 2 the classes cost alike, while for n = 13 with k = 3,
# 17 and 19 one class cost 1.2x to 1.6x another, which moved the batch
# time with the seed.  The 7-vertex graph puts the median item among the
# cheap cases (no eigen-product, or a small one): the median of the larger
# graphs' eigen-product cases slowed by up to 2x in the host's slow phases,
# twice as much as the batch, while the costliest cases, which set the
# tail, stayed within 5%.
CLOSED_FORM_GRAPHS = ((7, 2), (11, 2), (13, 2))

# One case on every rung; the transformed size is N = n + m = n(1 + k):
# 48, 64, 80 and 100.  "+++" (the total graph) uses every part of the
# transform and has an eigen-product factor.
LADDER_RUNGS = ((16, 2), (16, 3), (20, 3), (20, 4))
LADDER_CASE = "+++"


# Runs of the reference kernel in one probe (the probe reports their median).
PROBE_RUNS = 3
_REF_MATRIX = [[(7 * i + 13 * j) % 11 - 5 for j in range(6)] for i in range(6)]


def no_span(name: str, n: int | None = None):
    """Stand-in for Tracer.span in untraced runs."""
    return contextlib.nullcontext()


def reference() -> Fraction:
    """A fixed piece of pure-Python work shaped like the library's: products
    of big-integer matrices and a sum of fractions.  It does not use
    xyzspectra, so no change to the library changes its time; only the
    speed the host gives this process does."""
    m = _REF_MATRIX
    for _ in range(3):
        m = [[sum(m[i][k] * _REF_MATRIX[k][j] for k in range(6)) * 1000003 + 1 for j in range(6)]
             for i in range(6)]
    return sum((Fraction(m[i % 6][i % 5] % 997 + 1, i) for i in range(1, 25)), Fraction(0))


def probe() -> float:
    """Median time of PROBE_RUNS runs of the reference kernel."""
    times = []
    for _ in range(PROBE_RUNS):
        t = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


@dataclass
class Batch:
    """One timed pass over a workload's inputs.

    Each timed part (an item, or a part that is not one, such as the base
    charpolys of closed-form) runs between two probes of the reference
    kernel; its ``*_ref_s`` entry is the mean of those two probes.
    """

    wall_s: float
    item_s: list[float]
    outputs: list            # one per item; None where the item raised
    errors: list[str]
    item_ref_s: list[float] = field(default_factory=list)
    extra_s: list[float] = field(default_factory=list)
    extra_ref_s: list[float] = field(default_factory=list)


class Stopwatch:
    """Times the parts of one batch, probing the host's speed between parts."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.last_probe = probe()
        self.item_s, self.item_ref_s, self.extra_s, self.extra_ref_s = [], [], [], []

    @contextlib.contextmanager
    def part(self, item: bool = True):
        t = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t
            before, self.last_probe = self.last_probe, probe()
            times, refs = (self.item_s, self.item_ref_s) if item else (self.extra_s, self.extra_ref_s)
            times.append(elapsed)
            refs.append((before + self.last_probe) / 2)

    def batch(self, outputs: list, errors: list[str]) -> Batch:
        return Batch(time.perf_counter() - self.t0, self.item_s, outputs, errors,
                     self.item_ref_s, self.extra_s, self.extra_ref_s)


def random_circulant(rng: random.Random, n: int, k: int) -> xs.Graph:
    """C_n(S) with S = {1} plus k - 1 offsets drawn from 2..(n-1)//2.

    The graph is 2k-regular and, holding the n-cycle, connected: a
    disconnected one keeps its matrices block-diagonal, which made the
    oracle about 25% cheaper on those seeds.
    """
    return xs.circulant_graph(n, [1] + sorted(rng.sample(range(2, (n - 1) // 2 + 1), k - 1)))


def relabelled(rng: random.Random, g: xs.Graph) -> xs.Graph:
    """g with its vertices renamed by a random permutation."""
    perm = rng.sample(range(g.n), g.n)
    return xs.Graph(g.n, tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges)))


def coeffs(p) -> tuple[int, ...] | None:
    return None if p is None else tuple(p.coeffs)


def output_digest(outputs) -> str:
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


def report_digest(text: str) -> str:
    doc = json.loads(text)
    doc.pop("runtime_seconds", None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def trace_identities(n: int, m: int, case: str) -> tuple[int, int, int]:
    """(N, c_{N-1}, c_{N-2}) of charpoly(Q(T)) for T the case's transform of
    an r-regular graph with n vertices and m edges.

    Worked out from degrees alone, independently of the library: every
    original vertex of T has one degree dv and every edge vertex one degree
    de.  tr Q = sum d and tr Q^2 = sum d^2 + sum d (the diagonal of A^2 is
    the degree), so c_{N-1} = -tr Q and c_{N-2} = (tr^2 Q - tr Q^2) / 2.
    """
    x, y, z = case
    r = 2 * m // n
    line_r = 2 * r - 2                      # the line graph is (2r-2)-regular
    dv = {"0": 0, "1": n - 1, "+": r, "-": n - 1 - r}[x]
    de = {"0": 0, "1": m - 1, "+": line_r, "-": m - 1 - line_r}[y]
    cv, ce = {"0": (0, 0), "1": (m, n), "+": (r, 2), "-": (m - r, n - 2)}[z]
    dv, de = dv + cv, de + ce
    tr = n * dv + m * de
    tr2 = n * dv * dv + m * de * de + tr
    return n + m, -tr, (tr * tr - tr2) // 2


def identities_hold(coeffs: tuple[int, ...], expected: tuple[int, int, int]) -> bool:
    size, c1, c2 = expected
    return (
        len(coeffs) == size + 1
        and coeffs[size] == 1
        and coeffs[size - 1] == c1
        and coeffs[size - 2] == c2
    )


class Verify:
    """Brute force against closed form, all 64 cases, on small corpus graphs."""

    name = "verify"

    def __init__(self, graphs=VERIFY_GRAPHS):
        self.graphs = graphs

    def build(self, seed: int):
        rng = random.Random(seed)
        return [(gid, relabelled(rng, make(arg))) for gid, make, arg in self.graphs]

    def run(self, graphs, span=no_span) -> Batch:
        outputs, errors = [], []
        watch = Stopwatch()
        for gid, g in graphs:
            with watch.part(), span("bench.graph", g.n):
                try:
                    report = xs.run_corpus([(gid, g)])
                    out = tuple((res.outcome, coeffs(res.formula_poly), coeffs(res.oracle_poly))
                                for res in report.results)
                except Exception as exc:  # counted as failing the graph's every case
                    out = None
                    errors.append(f"{gid}: {type(exc).__name__}: {exc}")
            outputs.append(out)
        return watch.batch(outputs, errors)

    def digest(self, batch: Batch) -> str:
        return output_digest(batch.outputs)

    def check(self, seed: int, graphs, batch: Batch) -> tuple[int, int]:
        """(attempted, failed) over (graph, case) pairs.  A pair fails unless
        it matched and its brute-force polynomial meets the trace identities;
        on VERIFY_GRAPHS a digest mismatch fails every pair."""
        cases = xs.list_cases()
        attempted = len(graphs) * len(cases)
        if self.graphs == VERIFY_GRAPHS and self.digest(batch) != VERIFY_SHA256:
            return attempted, attempted
        failed = 0
        for (_, g), out in zip(graphs, batch.outputs, strict=True):
            if out is None or len(out) != len(cases):
                failed += len(cases)
                continue
            for case, (outcome, _, oracle) in zip(cases, out, strict=True):
                exp = trace_identities(g.n, g.m, str(case))
                failed += outcome != "match" or oracle is None or not identities_hold(oracle, exp)
        return attempted, failed


class Corpus:
    """The product's own run: ``xyzspectra corpus`` over the fixed corpus."""

    name = "corpus"

    def __init__(self, scratch: Path):
        self.report = scratch / "corpus-report.json"

    def build(self, seed: int):
        return None

    def run(self, inputs, span=no_span) -> Batch:
        errors = []
        watch = Stopwatch()
        with watch.part():
            try:
                code = cli.main(["corpus", "--report", str(self.report)])
            except Exception as exc:  # counted as failing every pair
                code = f"{type(exc).__name__}: {exc}"
                errors.append(code)
        text = ""
        if self.report.exists():
            text = self.report.read_text(encoding="utf-8")
            self.report.unlink()
        return watch.batch([(code, text)], errors)

    def digest(self, batch: Batch) -> str:
        code, text = batch.outputs[0]
        return f"{code}:{report_digest(text) if text else ''}"

    def check(self, seed: int, inputs, batch: Batch) -> tuple[int, int]:
        """(attempted, failed) over the corpus pairs; an error, a nonzero exit,
        a wrong pair count or a digest mismatch fails every pair."""
        code, text = batch.outputs[0]
        if code != 0 or not text or report_digest(text) != CORPUS_REPORT_SHA256:
            return CORPUS_PAIRS, CORPUS_PAIRS
        results = json.loads(text)["results"]
        if len(results) != CORPUS_PAIRS:
            return CORPUS_PAIRS, CORPUS_PAIRS
        return CORPUS_PAIRS, sum(res["outcome"] != "match" for res in results)


class ClosedForm:
    """All 64 closed forms on seeded circulants; no oracle."""

    name = "closed-form"

    def __init__(self, graphs=CLOSED_FORM_GRAPHS):
        self.graphs = graphs

    def build(self, seed: int):
        rng = random.Random(seed)
        return [random_circulant(rng, n, k) for n, k in self.graphs]

    def run(self, graphs, span=no_span) -> Batch:
        outputs, errors = [], []
        watch = Stopwatch()
        for g in graphs:
            with span("bench.graph", g.n):
                with watch.part(item=False):
                    r = xs.regularity(g)
                    f = xs.charpoly(xs.signless_laplacian(g))
                for case in xs.list_cases():
                    with watch.part():
                        try:
                            out = tuple(xs.formula_charpoly(xs.descriptor_for(case), g.n, g.m, r, f).coeffs)
                        except Exception as exc:  # counted as a failed item
                            out = None
                            errors.append(f"n={g.n} {case}: {type(exc).__name__}: {exc}")
                    outputs.append(out)
        return watch.batch(outputs, errors)

    def digest(self, batch: Batch) -> str:
        return output_digest(batch.outputs)

    def check(self, seed: int, graphs, batch: Batch) -> tuple[int, int]:
        """(attempted, failed); at the default seed a digest mismatch fails all."""
        attempted = len(batch.outputs)
        if seed == DEFAULT_SEED and self.digest(batch) != CLOSED_FORM_SHA256:
            return attempted, attempted
        expected = [trace_identities(g.n, g.m, str(c)) for g in graphs for c in xs.list_cases()]
        failed = sum(
            out is None or not identities_hold(out, exp)
            for out, exp in zip(batch.outputs, expected, strict=True)
        )
        return attempted, failed


class Ladder:
    """Oracle against closed form for one case at growing transformed size."""

    name = "bruteforce-ladder"

    def __init__(self, rungs=LADDER_RUNGS):
        self.rungs = rungs

    def build(self, seed: int):
        rng = random.Random(seed)
        return [random_circulant(rng, n, k) for n, k in self.rungs]

    def run(self, graphs, span=no_span) -> Batch:
        outputs, errors = [], []
        case = xs.XyzCase.parse(LADDER_CASE)
        watch = Stopwatch()
        for g in graphs:
            with watch.part(), span("bench.rung", g.n):
                try:
                    oracle = xs.charpoly(xs.signless_laplacian(xs.xyz_transform(g, case)))
                    f = xs.charpoly(xs.signless_laplacian(g))
                    closed = xs.formula_charpoly(xs.descriptor_for(case), g.n, g.m, xs.regularity(g), f)
                    out = (tuple(oracle.coeffs), tuple(closed.coeffs))
                except Exception as exc:  # counted as a failed item
                    out = None
                    errors.append(f"n={g.n}: {type(exc).__name__}: {exc}")
            outputs.append(out)
        return watch.batch(outputs, errors)

    def digest(self, batch: Batch) -> str:
        return output_digest(batch.outputs)

    def check(self, seed: int, graphs, batch: Batch) -> tuple[int, int]:
        """(attempted, failed); at the default seed a digest mismatch fails all."""
        attempted = len(batch.outputs)
        if seed == DEFAULT_SEED and self.digest(batch) != LADDER_SHA256:
            return attempted, attempted
        failed = 0
        for g, out in zip(graphs, batch.outputs, strict=True):
            exp = trace_identities(g.n, g.m, LADDER_CASE)
            failed += out is None or out[0] != out[1] or not identities_hold(out[0], exp)
        return attempted, failed


def make(name: str, scratch: Path):
    if name == "verify":
        return Verify()
    if name == "corpus":
        return Corpus(scratch)
    if name == "closed-form":
        return ClosedForm()
    if name == "bruteforce-ladder":
        return Ladder()
    raise ValueError(f"unknown workload {name!r}")
