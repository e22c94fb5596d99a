"""Spans around the calls into each xyzspectra module, for the traced run.

Nothing inside the library is changed: the tracer wraps public functions
at the names their callers bind (``verify.charpoly``,
``formulas.eig_product``, ``exactpoly.resultant`` ...) for the duration of
a ``with patched(tracer):`` block and restores them afterwards.  A name
that is missing is reported as absent, so the trace survives functions
moving between modules.

Each span records its name, start, end, parent index and a small note.
A span's self time is its duration minus the durations of its children;
calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from importlib import import_module

CHARPOLY = "exactpoly.charpoly"      # split into _base / _oracle per call
ORACLE = "exactpoly.charpoly_oracle"
BASE = "exactpoly.charpoly_base"

MODULES = ("cli", "verify", "transform", "graph", "linalg", "exactpoly", "formulas")

# Ladder rung sizes with a per-rung oracle time (transformed N = n + m).
RUNG_DIMS = (48, 64, 80, 100)

# (module that binds the name, attribute, span name).  A function bound in
# several modules is wrapped at every binding its callers use.
TARGETS = (
    ("xyzspectra.cli", "main", "cli.main"),
    ("xyzspectra.cli", "run_corpus", "verify.run_corpus"),
    ("xyzspectra.cli", "report_to_json", "verify.report_to_json"),
    ("xyzspectra.cli", "default_corpus", "verify.default_corpus"),
    ("xyzspectra.verify", "verify_case", "verify.verify_case"),
    ("xyzspectra.verify", "xyz_transform", "transform.xyz_transform"),
    ("xyzspectra.verify", "signless_laplacian", "linalg.signless_laplacian"),
    ("xyzspectra.verify", "charpoly", CHARPOLY),
    ("xyzspectra.verify", "formula_charpoly", "formulas.formula_charpoly"),
    ("xyzspectra", "xyz_transform", "transform.xyz_transform"),
    ("xyzspectra", "signless_laplacian", "linalg.signless_laplacian"),
    ("xyzspectra", "charpoly", CHARPOLY),
    ("xyzspectra", "formula_charpoly", "formulas.formula_charpoly"),
    ("xyzspectra.transform", "line_graph", "graph.line_graph"),
    ("xyzspectra.transform", "complement", "graph.complement"),
    ("xyzspectra.formulas", "reduced_qpoly", "exactpoly.reduced_qpoly"),
    ("xyzspectra.formulas", "eig_product", "exactpoly.eig_product"),
    ("xyzspectra.formulas", "compose_linear", "exactpoly.compose_linear"),
    ("xyzspectra.exactpoly", "exact_div", "exactpoly.exact_div"),
    ("xyzspectra.exactpoly", "resultant", "exactpoly.resultant"),
    ("xyzspectra.exactpoly", "det", "exactpoly.det"),
)


class Tracer:
    """In-memory span recorder.  A span is [name, start, end, parent, note]."""

    def __init__(self):
        self.spans: list[list] = []
        self.open: list[int] = []
        self.absent: list[str] = []

    def _begin(self, name: str, note) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.open[-1] if self.open else -1, note])
        self.open.append(idx)
        return idx

    @contextlib.contextmanager
    def span(self, name: str, n: int | None = None):
        """A span from the benchmark's own code; n is the base graph's order."""
        idx = self._begin(name, n)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._end(idx, t0)

    def _end(self, idx: int, t0: float) -> None:
        t1 = time.perf_counter()
        self.open.pop()
        rec = self.spans[idx]
        rec[1], rec[2] = t0, t1

    def graph_order(self) -> int | None:
        """n of the innermost open span that is about one base graph."""
        for idx in reversed(self.open):
            name, note = self.spans[idx][0], self.spans[idx][4]
            if name.startswith("bench.") or name == "verify.verify_case":
                return note
        return None

    def wrap(self, name: str, fn):
        note_in = _NOTE_IN.get(name)
        note_out = _NOTE_OUT.get(name)

        def traced(*args, **kwargs):
            span_name, note = name, None
            if name == CHARPOLY:
                dim = args[0].rows
                if dim == self.graph_order():
                    span_name, note = BASE, {"dim": dim, "key": hash(args[0].entries)}
                else:
                    span_name, note = ORACLE, {"dim": dim}
            elif note_in is not None:
                note = note_in(args)
            idx = self._begin(span_name, note)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end(idx, t0)
            if note_out is not None:
                self.spans[idx][4] = note_out(note, out)
            return out

        traced.__wrapped__ = fn
        return traced


_NOTE_IN = {
    "verify.verify_case": lambda args: args[0].n,
    "graph.line_graph": lambda args: hash(args[0].edges),
}

_NOTE_OUT = {
    CHARPOLY: lambda note, out: {**note, "bits": max(abs(c) for c in out.coeffs).bit_length()},
    "verify.report_to_json": lambda note, out: len(out.encode()),
}


@contextlib.contextmanager
def patched(tracer: Tracer, targets=TARGETS):
    """Wrap every target that exists; restore all of them on exit."""
    saved = []
    try:
        for modname, attr, name in targets:
            try:
                mod = import_module(modname)
            except ImportError:
                mod = None
            fn = getattr(mod, attr, None)
            if not callable(fn):
                tracer.absent.append(f"{modname}.{attr}")
                continue
            saved.append((mod, attr, fn))
            setattr(mod, attr, tracer.wrap(name, fn))
        yield tracer
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def totals(spans) -> dict[str, list]:
    """name -> [total seconds, self seconds, calls, notes]."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0, []])
    for i, (name, t0, t1, _, note) in enumerate(spans):
        agg = out[name]
        agg[0] += t1 - t0
        agg[1] += t1 - t0 - child[i]
        agg[2] += 1
        if note is not None:
            agg[3].append(note)
    return out


def layer_metrics(tracer: Tracer, batches: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per batch: name -> (value, unit)."""
    t = totals(tracer.spans)
    empty = [0.0, 0.0, 0, []]

    def get(name):
        return t.get(name, empty)

    def secs(name, kind=0):
        return get(name)[kind] / batches, "s"

    def calls(name):
        return get(name)[2] / batches, "count"

    def useful(name, keyed):
        # distinct inputs / calls within one batch; every batch repeats the
        # same inputs, so the distinct count over all batches is per batch
        keys = [keyed(note) for note in get(name)[3]]
        return (len(set(keys)) * batches / len(keys) if keys else 1.0), "ratio"

    oracle_notes = get(ORACLE)[3]
    m = {
        "exactpoly.charpoly_oracle_s": secs(ORACLE),
        "exactpoly.charpoly_oracle_calls": calls(ORACLE),
        "exactpoly.charpoly_oracle_dim_max": (max((x["dim"] for x in oracle_notes), default=0), "rows"),
        "exactpoly.oracle_coeff_bits_max": (max((x["bits"] for x in oracle_notes), default=0), "bits"),
    }
    oracle_spans = [s for s in tracer.spans if s[0] == ORACLE]
    for dim in RUNG_DIMS:
        m[f"exactpoly.charpoly_oracle_s.N{dim}"] = (
            sum(s[2] - s[1] for s in oracle_spans if s[4]["dim"] == dim) / batches, "s")
    m.update({
        "exactpoly.eig_product_self_s": secs("exactpoly.eig_product", 1),
        "exactpoly.eig_product_calls": calls("exactpoly.eig_product"),
        "exactpoly.resultant_self_s": secs("exactpoly.resultant", 1),
        "exactpoly.resultant_calls": calls("exactpoly.resultant"),
        "exactpoly.det_s": secs("exactpoly.det"),
        "exactpoly.charpoly_base_s": secs(BASE),
        "exactpoly.charpoly_base_calls": calls(BASE),
        "exactpoly.charpoly_base_useful_ratio": useful(BASE, lambda x: x["key"]),
        "graph.line_graph_calls": calls("graph.line_graph"),
        "graph.line_graph_useful_ratio": useful("graph.line_graph", lambda x: x),
        "formulas.formula_charpoly_self_s": secs("formulas.formula_charpoly", 1),
        "formulas.formula_charpoly_calls": calls("formulas.formula_charpoly"),
        "exactpoly.compose_linear_s": secs("exactpoly.compose_linear"),
        "exactpoly.exact_div_s": secs("exactpoly.exact_div"),
        "exactpoly.exact_div_calls": calls("exactpoly.exact_div"),
        "exactpoly.reduced_qpoly_calls": calls("exactpoly.reduced_qpoly"),
        "transform.xyz_transform_s": secs("transform.xyz_transform"),
        "linalg.signless_laplacian_s": secs("linalg.signless_laplacian"),
        "verify.verify_case_self_s": secs("verify.verify_case", 1),
        "verify.report_to_json_s": secs("verify.report_to_json"),
        "verify.report_bytes": (sum(get("verify.report_to_json")[3]) / batches, "B"),
        "cli.main_self_s": secs("cli.main", 1),
    })
    for module in MODULES:
        names = [name for name in t if name.split(".", 1)[0] == module]
        m[f"{module}.self_s"] = (sum(t[name][1] for name in names) / batches, "s")
        m[f"{module}.calls"] = (sum(t[name][2] for name in names) / batches, "count")
    m["trace_absent"] = (len(tracer.absent), "count")
    return m


def largest_self_time(tracer: Tracer) -> str:
    """The library span name with the largest total self time."""
    t = totals(tracer.spans)
    names = [name for name in t if not name.startswith("bench.")]
    return max(names, key=lambda name: t[name][1], default="")
