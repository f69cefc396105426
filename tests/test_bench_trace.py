"""The benchmark's traced pass, run against the package in this checkout.

A traced job wraps the package's public functions and methods (among them
MatrixSymbol.evaluate) and reads halfspace.derivative_matrix's cache
counters; this keeps a change to what it hooks from breaking
`bench/run.py --trace 1` unnoticed.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _workloads():
    """bench/workloads.py, loaded without putting bench/ on sys.path."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(ROOT, "bench", "workloads.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _traced(spec):
    """The record of one traced job.py run of spec."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "bench", "job.py"),
                           json.dumps(dict(spec, trace=True))],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_sampled_job():
    record = _traced({"name": "sampled", "func": "sampled", "params": {"seed": 1},
                      "check": "sampled"})
    assert record["problems"] == []
    assert record["layers"]["halfspace.derivative_matrix_builds"] == 1
    assert record["layers"]["halfspace.columns_solved"] == 32


@pytest.mark.parametrize("name, expect", [
    # one roots call and one outermost evaluation of the 512 x 257 mesh
    ("boundary_neumann", {"factorization.roots_calls": 1,
                          "symbols.grid_points": 131584}),
    # u*: two fields made from coefficients; u: two fields made, and each
    # transformed once for the residual
    ("whole", {"spectral.transforms": 6}),
])
def test_traced_certify_job(name, expect):
    spec, = [s for s in _workloads().certify_pass(1, 0) if s["name"] == name]
    record = _traced(spec)
    assert record["problems"] == []
    assert {k: record["layers"][k] for k in expect} == expect
