"""xyzspectra benchmark: one workload, one seed, one JSON result line.

    python3 benchmarks/run.py --workload verify --seed 0 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.
Batches repeat until the next one would end past ``--seconds`` (at least
one runs).  Every output is checked after its batch, outside the timed
region.  Every reported time is scaled to the reference speed (see
``normalised``).  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment, the seed, the item count, the tail percentile
and the raw times.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload untraced for half the time and traced for the other half, and
reports the per-layer metrics (per batch) and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
# Seconds one probe of the reference kernel (workloads.probe) takes at the
# reference speed: its median on the reference box, 2 vCPUs of an Intel
# Xeon with Python 3.11.7.
REF_S = 3.0e-4
WORKLOADS = ("verify", "closed-form", "corpus", "bruteforce-ladder")


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least ten items beyond its
    nearest-rank position; 100 (the maximum) when count is too small."""
    for p in range(99, 0, -1):
        if count - (-(-p * count // 100)) >= 10:
            return p
    return 100


def percentile(values, p: int) -> float:
    """Nearest-rank percentile: the smallest value with p% of items at or below it."""
    ordered = sorted(values)
    return ordered[max(0, -(-p * len(ordered) // 100) - 1)]


class Tally:
    """Checks each batch's outputs as the batch ends, then drops them.

    Only the counts are kept, so the measuring process's memory, reported
    as peak_rss_mb, does not grow with the number of batches a run holds.
    A batch whose outputs differ from the first batch's fails as a whole.
    """

    def __init__(self, workload, seed: int, inputs):
        self.workload, self.seed, self.inputs = workload, seed, inputs
        self.reference = None
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def add(self, batch) -> None:
        attempted, failed = self.workload.check(self.seed, self.inputs, batch)
        digest = self.workload.digest(batch)
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            failed = attempted
            self.errors.append("outputs differ from the first batch")
        self.attempted += attempted
        self.failed += failed
        self.errors.extend(batch.errors)
        batch.outputs = None


def measure(workload, inputs, seconds: float, span, tally: Tally) -> list:
    """Run batches until the next one would end past `seconds`; at least one.
    Each batch is checked, outside its timed region, before the next runs."""
    batches = []
    start = time.perf_counter()
    while True:
        batch = workload.run(inputs, span)
        tally.add(batch)
        batches.append(batch)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(b.wall_s for b in batches) > seconds:
            return batches


def normalised(batch) -> tuple[list[float], float]:
    """(the batch's item times, its total time), at the reference speed.

    The shared host runs this process up to 1.5x slower in phases of
    seconds to minutes, and slows pure-Python work of every kind alike.
    Each timed part ran between two probes of a fixed reference kernel, so
    its time times REF_S / (mean of the two probes) is what it would have
    taken at the reference speed.  The total adds every timed part of the
    batch, items and the rest, and leaves out the probes.
    """
    items = [t * REF_S / ref for t, ref in zip(batch.item_s, batch.item_ref_s, strict=True)]
    extra = [t * REF_S / ref for t, ref in zip(batch.extra_s, batch.extra_ref_s, strict=True)]
    return items, sum(items) + sum(extra)


def item_latencies(batches) -> list[float]:
    """Each item's median normalised time over the run's batches.

    The items of a batch differ in cost by up to 100x; a quantile taken
    over all repeats of all items lands on the few repeats of one costly
    item, whose noise it then follows.  One median per item first makes
    the quantiles over items as steady as the batch time.
    """
    return [statistics.median(ts) for ts in zip(*(normalised(b)[0] for b in batches), strict=True)]


def batch_seconds(batches) -> float:
    """Median normalised batch time."""
    return statistics.median(normalised(b)[1] for b in batches)


def setup_seconds(workload: str, seed: int) -> float:
    """Median time of fresh processes that import xyzspectra, build the
    workload's inputs and exit (process start up to the first timed item),
    each normalised by the probes taken just before and after it."""
    from workloads import probe

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times = []
    before = probe()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        after = probe()
        times.append(elapsed * REF_S / ((before + after) / 2))
        before = after
    return statistics.median(times)


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "seed": seed,
    }


def import_library():
    """Import xyzspectra from this checkout's src/, never from elsewhere."""
    if not (SRC / "xyzspectra" / "__init__.py").is_file():
        raise ImportError(f"no xyzspectra package under {SRC}")
    sys.path.insert(0, str(SRC))
    import xyzspectra

    if SRC not in Path(xyzspectra.__file__).resolve().parents:
        raise ImportError(f"xyzspectra imported from {xyzspectra.__file__}, not {SRC}")


def run(args) -> dict:
    import tracing
    import workloads

    scratch_root = ROOT / ".bench_build"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="xyzspectra-", dir=scratch_root))
    try:
        workload = workloads.make(args.workload, scratch)
        inputs = workload.build(args.seed)
        info = {"workload": args.workload, "env": environment(args.seed)}
        tally = Tally(workload, args.seed, inputs)
        if args.trace:
            untraced = measure(workload, inputs, args.seconds / 2, workloads.no_span, tally)
            tracer = tracing.Tracer()
            with tracing.patched(tracer):
                traced = measure(workload, inputs, args.seconds / 2, tracer.span, tally)
            batches = untraced + traced
            metrics = tracing.layer_metrics(tracer, len(traced))
            overhead = batch_seconds(traced) - batch_seconds(untraced)
            metrics["trace_overhead_s"] = (overhead, "s")
            info["absent"] = tracer.absent
            info["largest_self_time"] = tracing.largest_self_time(tracer)
        else:
            setup_s = setup_seconds(args.workload, args.seed)
            batches = measure(workload, inputs, args.seconds, workloads.no_span, tally)
            items = item_latencies(batches)
            tail = tail_percentile(len(items))
            metrics = {
                "setup_s": (setup_s, "s"),
                "wall_s": (batch_seconds(batches), "s"),
                "item_ms_p50": (statistics.median(items) * 1e3, "ms"),
                "item_ms_tail": (percentile(items, tail) * 1e3, "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            info["items"] = len(items)
            info["repeats"] = len(batches)
            info["item_ms_tail_percentile"] = tail
            info["raw_wall_s"] = statistics.median(sum(b.item_s) + sum(b.extra_s) for b in batches)
        refs = [r for b in batches for r in b.item_ref_s + b.extra_ref_s]
        info.update({
            "batch_wall_s": [b.wall_s for b in batches],
            "host_speed": REF_S / statistics.median(refs),
            "digest": tally.reference,
            "fail_frac": tally.failed / tally.attempted,
            "errors": tally.errors[:5],
        })
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(info, sort_keys=True))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        import_library()
    except ImportError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        import workloads

        workloads.make(args.workload, ROOT).build(args.seed)
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
