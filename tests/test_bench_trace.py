"""The benchmark's traced pass, run against the package in this checkout.

A traced job wraps the package's public functions and reads
halfspace.derivative_matrix's cache counters; this keeps a rename of a
function it hooks from breaking `bench/run.py --trace 1` unnoticed.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_sampled_job():
    spec = {"name": "sampled", "func": "sampled", "params": {"seed": 1},
            "check": "sampled", "trace": True}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "bench", "job.py"),
                           json.dumps(spec)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["problems"] == []
    assert record["layers"]["halfspace.derivative_matrix_builds"] == 1
    assert record["layers"]["halfspace.columns_solved"] == 32
