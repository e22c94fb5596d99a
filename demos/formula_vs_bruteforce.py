#!/usr/bin/env python3
"""Full oracle verification on one graph, plus the descriptor audit table.

Runs all 64 closed forms against brute-force construction on the
Petersen graph, then prints the audit records for the descriptors whose
published displays needed correction (the original form travels with
each corrected record).
"""

import time

from xyzspectra import descriptor_records, petersen_graph, run_corpus

g = petersen_graph()
print(f"Verifying all 64 cases on the Petersen graph (n={g.n}, m={g.m})...")

start = time.perf_counter()
report = run_corpus([("petersen", g)])
for res in report.results:
    if res.outcome != "match":
        print(f"  {res.outcome}: case {res.case} ({res.error})")
elapsed = time.perf_counter() - start

print(f"done in {elapsed:.1f}s: {64 - len(report.failures)}/64 exact matches")
print()

corrected = [rec for rec in descriptor_records() if rec["status"] == "corrected"]
print(f"{len(corrected)} of 64 descriptors are shipped as corrected:")
for rec in corrected:
    print(f"  case {rec['case']}")
    print(f"    published: {rec['published_form']}")
    print(f"    corrected: {rec['expression']}")
