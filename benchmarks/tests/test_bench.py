"""Tests of the benchmark harness itself.

    python3 -m pytest benchmarks/tests -q

They use small graphs so that they run in seconds; the corpus workload
(about 20 s a pass) is covered only through its digest helper.
"""

import ast
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import pytest  # noqa: E402
import xyzspectra as xs  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = [
    workloads.Verify(graphs=(("C4", xs.cycle_graph, 4), ("K4", xs.complete_graph, 4))),
    workloads.ClosedForm(graphs=((7, 1), (9, 2), (8, 2))),
    workloads.Ladder(rungs=((6, 1), (7, 2))),
]


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_traced_run_reproduces_untraced_outputs(workload):
    graphs = workload.build(3)
    plain = workload.run(graphs)
    assert plain.outputs and all(out is not None for out in plain.outputs)
    original = xs.charpoly
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        assert xs.charpoly is not original
        traced = workload.run(graphs, tracer.span)
    assert xs.charpoly is original
    assert workload.digest(traced) == workload.digest(plain)
    assert plain.outputs == traced.outputs
    assert workload.check(3, graphs, plain)[1] == 0
    assert tracer.absent == []
    assert tracer.open == []


def test_charpoly_spans_split_base_from_oracle():
    ladder = workloads.Ladder(rungs=((6, 1), (7, 2)))
    graphs = ladder.build(0)
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        ladder.run(graphs, tracer.span)
    dims = {name: sorted(s[4]["dim"] for s in tracer.spans if s[0] == name)
            for name in (tracing.BASE, tracing.ORACLE)}
    assert dims[tracing.BASE] == sorted(g.n for g in graphs)
    assert dims[tracing.ORACLE] == sorted(g.n + g.m for g in graphs)
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["exactpoly.charpoly_oracle_calls"] == (2, "count")
    assert metrics["exactpoly.charpoly_base_useful_ratio"] == (1.0, "ratio")
    assert metrics["transform.xyz_transform_s"][0] > 0


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["outer", 0.0, 10.0, -1, None],
        ["inner", 1.0, 4.0, 0, None],
        ["inner", 5.0, 6.0, 0, None],
        ["leaf", 2.0, 3.0, 1, None],
    ]
    t = tracing.totals(tracer.spans)
    assert t["outer"][:3] == [10.0, 6.0, 1]
    assert t["inner"][:3] == [4.0, 3.0, 2]
    assert t["leaf"][:3] == [1.0, 1.0, 1]


def test_missing_wrapped_name_is_reported_absent():
    targets = tracing.TARGETS + (
        ("xyzspectra.exactpoly", "no_such_function", "exactpoly.no_such_function"),
        ("xyzspectra.no_such_module", "f", "gone.f"),
    )
    workload = workloads.ClosedForm(graphs=((7, 1),))
    graphs = workload.build(0)
    tracer = tracing.Tracer()
    with tracing.patched(tracer, targets):
        batch = workload.run(graphs, tracer.span)
    assert tracer.absent == ["xyzspectra.exactpoly.no_such_function", "xyzspectra.no_such_module.f"]
    assert workload.check(1, graphs, batch)[1] == 0
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["trace_absent"] == (2, "count")
    assert not hasattr(xs.exactpoly, "no_such_function")


@pytest.mark.parametrize("count, expected", [(1, 100), (10, 100), (11, 9), (20, 50), (100, 90),
                                             (192, 94), (1000, 99), (5000, 99)])
def test_item_tail_percentile(count, expected):
    p = run.tail_percentile(count)
    assert p == expected
    if p < 100:
        position = -(-p * count // 100)          # nearest rank, 1-based
        assert count - position >= 10
        assert count - -(-(p + 1) * count // 100) < 10 or p == 99


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    assert run.percentile(values, 90) == 90
    assert run.percentile(values, 100) == 100
    assert run.percentile([5.0], 94) == 5.0


@pytest.mark.parametrize("workload", [workloads.ClosedForm(), workloads.Ladder()], ids=lambda w: w.name)
def test_seed_generation_is_deterministic(workload):
    first, again, other = workload.build(7), workload.build(7), workload.build(8)
    assert [g.edges for g in first] == [g.edges for g in again]
    assert [g.edges for g in first] != [g.edges for g in other]
    sizes = workload.graphs if isinstance(workload, workloads.ClosedForm) else workload.rungs
    for g, (n, k) in zip(first, sizes, strict=True):
        assert g.n == n and xs.regularity(g) == 2 * k


def test_verify_seed_relabels_only():
    verify = workloads.Verify()
    first, again, other = verify.build(7), verify.build(7), verify.build(8)
    assert first == again
    assert [g.edges for _, g in first] != [g.edges for _, g in other]
    for (gid, g), (_, h), (_, make, arg) in zip(first, other, workloads.VERIFY_GRAPHS, strict=True):
        base = make(arg)
        assert (g.n, g.m) == (h.n, h.m) == (base.n, base.m)
        assert sorted(xs.regularity(x) for x in (g, h, base)) == [xs.regularity(base)] * 3


def test_normalised_scales_each_part_by_its_probes():
    ref = run.REF_S
    batch = workloads.Batch(9.0, [3.0, 1.0], [], [], [ref, 2 * ref], [0.5], [ref / 2])
    items, total = run.normalised(batch)
    assert items == pytest.approx([3.0, 0.5])
    assert total == pytest.approx(3.0 + 0.5 + 1.0)
    other = workloads.Batch(1.0, [1.0, 1.0], [], [], [ref] * 2, [1.0], [ref])
    assert run.batch_seconds([batch, batch, other]) == pytest.approx(4.5)
    assert run.item_latencies([batch, other, other]) == pytest.approx([1.0, 1.0])


def test_tally_checks_each_batch_and_drops_its_outputs():
    workload = workloads.ClosedForm(graphs=((7, 1),))
    graphs = workload.build(3)
    tally = run.Tally(workload, 3, graphs)
    first, second, wrong = (workload.run(graphs) for _ in range(3))
    wrong.outputs[0] = None
    for batch in (first, second, wrong):
        tally.add(batch)
        assert batch.outputs is None
    assert (tally.attempted, tally.failed) == (3 * 64, 64)
    assert tally.errors == ["outputs differ from the first batch"]


def test_stopwatch_probes_around_every_part():
    watch = workloads.Stopwatch()
    for item in (True, False, True):
        with watch.part(item):
            workloads.reference()
    batch = watch.batch(["a", "b"], [])
    assert len(batch.item_s) == len(batch.item_ref_s) == 2
    assert len(batch.extra_s) == len(batch.extra_ref_s) == 1
    assert all(r > 0 for r in batch.item_ref_s + batch.extra_ref_s)
    assert batch.wall_s >= sum(batch.item_s) + sum(batch.extra_s)


def test_rung_dims_are_the_ladder_sizes():
    sizes = tuple(n * (1 + k) for n, k in workloads.LADDER_RUNGS)
    assert sizes == tracing.RUNG_DIMS


def test_trace_identities_match_the_oracle_on_every_case():
    g = xs.circulant_graph(8, [1, 3])
    for case in xs.list_cases():
        coeffs = tuple(xs.charpoly(xs.signless_laplacian(xs.xyz_transform(g, case))).coeffs)
        assert workloads.identities_hold(coeffs, workloads.trace_identities(g.n, g.m, str(case)))


def test_report_digest_ignores_runtime_only():
    base = '{"results": [], "runtime_seconds": %s}'
    assert workloads.report_digest(base % "1.5") == workloads.report_digest(base % "2.25")
    assert workloads.report_digest(base % "1.5") != workloads.report_digest('{"results": [1]}')


def test_corpus_failures_fail_every_pair(tmp_path):
    corpus = workloads.Corpus(tmp_path)
    report = '{"results": [{"outcome": "match"}], "runtime_seconds": 1.0}'
    for output in [(1, report), ("RuntimeError: boom", ""), (0, report)]:
        batch = workloads.Batch(1.0, [1.0], [output], [])
        assert corpus.check(0, None, batch) == (workloads.CORPUS_PAIRS, workloads.CORPUS_PAIRS)


def test_workloads_call_only_exported_names():
    tree = ast.parse((BENCH / "workloads.py").read_text())
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "xs"}
    exported = {name for name, value in vars(xs).items()
                if not name.startswith("_") and not isinstance(value, type(xs))}
    assert used and used <= exported
    cli_calls = {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id == "cli"}
    assert cli_calls == {"main"}
