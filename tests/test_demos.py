"""Each demo runs as a script under -W error and prints its pinned stdout.

The demos print closed forms, identities and brute-force agreements, so
their stdout pins the package's outputs end to end.  formula_vs_bruteforce.py
ends with its wall time ("done in N.Ns: ..."), which is masked before hashing.
"""

import hashlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"

# SHA-256 of each demo's stdout, with the timing masked
DIGESTS = {
    "formula_vs_bruteforce.py": "9933507b6c9f17de60da67f9e557b7825e3db88bffa2279f42db201ec23d4a26",
    "identity_checks.py": "df3e2e7d30e9cc4ad22e54f9262866e629c92d35fc367a5e4e334e48873a204d",
    "tour_of_transformations.py": "b8b930367fb863b4f8c48a03b42643f5733465b11b3166172b3c6a25cb00ff07",
}


def test_every_demo_is_pinned():
    # a demo added without a digest, or one removed, fails here
    names = sorted(path.name for path in DEMOS.glob("*.py"))
    assert len(names) == 3 and names == sorted(DIGESTS)


@pytest.mark.parametrize("demo", sorted(DIGESTS))
def test_demo_stdout_is_pinned(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-W", "error", str(DEMOS / demo)], capture_output=True,
                         env={**os.environ, "PYTHONPATH": path}, cwd=ROOT, timeout=120)
    assert run.returncode == 0, run.stderr.decode()
    stdout = re.sub(rb"(?m)^done in [0-9.]+s:", b"done in <t>s:", run.stdout)
    assert hashlib.sha256(stdout).hexdigest() == DIGESTS[demo]
