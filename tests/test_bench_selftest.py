"""The benchmark's self-test, run against the package in this checkout.

bench/ builds and alters HalfField objects through the dict interface
(exp_terms); this keeps a change to the field layout from breaking it
unnoticed.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "bench", "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
