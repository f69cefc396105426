"""Self-tests of the benchmark: span accounting and the correctness checks.

Run from the root of a checkout:

    python3 bench/selftest.py

Each check is first given the real output of its job, which must pass, and
then corrupted copies of it, each of which must fail.  The jobs run in this
process, so the whole suite takes about as long as one pass of every
workload.
"""

import copy
import dataclasses
import math
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import job  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class SpanAccountingTest(unittest.TestCase):
    def test_nested_call_tree(self):
        now = [0]
        tracer = spans.Tracer(clock=lambda: now[0])

        def work(n):
            now[0] += n

        leaf = tracer.wrap("leaf", lambda: work(7))

        def mid_body():
            work(3)
            leaf()
            work(2)
            leaf()
        mid = tracer.wrap("mid", mid_body)

        def root_body():
            work(5)
            mid()
            work(11)
        root = tracer.wrap("root", root_body)
        tracer.enabled = True
        root()
        got = dict(zip(range(len(tracer.names)), tracer.self_times()))
        by_name = {}
        for i, name in enumerate(tracer.names):
            by_name.setdefault(name, []).append(got[i])
        self.assertEqual(by_name, {"root": [16], "mid": [5], "leaf": [7, 7]})
        self.assertEqual(tracer.parents, [-1, 0, 1, 1])

    def test_disabled_tracer_records_nothing(self):
        tracer = spans.Tracer()
        f = tracer.wrap("f", lambda x: x + 1)
        self.assertEqual(f(1), 2)
        self.assertEqual(tracer.names, [])

    def test_layer_groups(self):
        now = [0]
        tracer = spans.Tracer(clock=lambda: now[0])

        def tick():
            now[0] += 1_000_000_000
        hull = tracer.wrap("polygons.polygon_from_exponents", tick)
        solve = tracer.wrap("halfspace.solve_half_scalar", lambda: (tick(), hull()))
        tracer.enabled = True
        solve()
        hull()
        sums = spans.layer_sums(tracer)
        metrics = spans.layer_metrics(sums)
        self.assertEqual(metrics["polygons.self_s"], 2.0)
        self.assertEqual(metrics["polygons.hull_builds"], 2)
        self.assertEqual(metrics["polygons.calls"], 2)
        self.assertEqual(metrics["halfspace.boundary_solve_s"], 1.0)
        self.assertEqual(metrics["halfspace.terms_kept_ratio"], 0.0)


def _spec(workload, name, seed=0):
    pass_jobs, run_checks = WORKLOADS[workload]
    for spec in pass_jobs(seed, 0) + run_checks(seed):
        if spec["name"] == name:
            return spec
    raise KeyError(name)


def _output(spec):
    call, finish = job.prepare(spec)
    output, ctx = finish(call())
    if isinstance(output, dict):
        output.pop("text", None)
    return output, ctx


def _set(path, value=None, scale=None):
    """Mutator setting (or scaling) report["data"][path...]."""
    def mutate(out):
        node = out["report"]["data"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value if scale is None else node[path[-1]] * scale
    return mutate


def _exit_code(code):
    def mutate(out):
        out["exit"] = code
    return mutate


def _drop_last_row(out):
    out["report"]["data"]["rows"].pop()


def _flatten_contrast(out):
    rows = out["report"]["data"]["rows"]
    rows[-1]["cond_contrast"] = rows[0]["cond_contrast"]


CLI_CORRUPTIONS = {
    ("probe", "probe"): [
        _exit_code(1), _drop_last_row,
        _set(["rows", 1, "trace_norm_T2"], scale=1 + 1e-8),
        _set(["rows", 2, "neumann_ratio"], scale=1.5),
        _flatten_contrast],
    ("ensemble", "ensemble"): [
        _exit_code(2), _set(["ratios", 0], math.nan), _set(["ratios", 1], -1.0),
        lambda out: out["report"]["data"]["ratios"].pop()],
    ("certify", "boundary_neumann"): [
        _exit_code(2), _set(["complementing_passed"], False),
        _set(["lopatinskii", "pass"], False)],
    ("certify", "boundary_dirichlet"): [
        _exit_code(0), _set(["lopatinskii", "max_abs_det"], 2.0),
        _set(["lopatinskii", "pass"], False),
        _set(["complementing_passed"], True),
        _set(["decay_witness", "ray_xi"], 1.0),
        _set(["decay_witness", "slope"], -0.1)],
    ("certify", "mixed_order"): [_exit_code(2), _set(["passed"], False)],
    ("certify", "ellipticity"): [
        _exit_code(2), _set(["report", "c_lower"], scale=1 + 1e-9),
        _set(["report", "c_lower"], 0.25)],
    ("certify", "whole"): [
        _exit_code(1), _set(["recovery_error"], 1e-6),
        _set(["relative_residual"], 1e-3)],
}


def _scaled_field(field, factor):
    out = field.copy()
    out.samples = out.values() * factor
    out.exp_terms = {}
    return out


def _corrupt_sampled_u(out):
    res, norm, tr = out
    return dataclasses.replace(res, u=_scaled_field(res.u, 1.05)), norm, tr


def _corrupt_sampled_trace(out):
    res, norm, tr = out
    tr = tr.copy()
    tr[3, 0] += 1e-6 * abs(tr[3]).max()
    return res, norm, tr


def _corrupt_sampled_norm(out):
    res, norm, tr = out
    return res, norm * 1.01, tr


def _corrupt_convergence(out):
    fine, coarse = out
    return [dataclasses.replace(fine, u=_scaled_field(fine.u, 1.05)), coarse]


def _corrupt_chg(out):
    u0 = out.u[0].copy()
    u0.samples[1, 1, 0] += 1e-6
    return dataclasses.replace(out, u=(u0, out.u[1]))


LIB_CORRUPTIONS = {
    ("sampled", "sampled"): [_corrupt_sampled_u, _corrupt_sampled_trace,
                             _corrupt_sampled_norm],
    ("sampled", "sampled_convergence"): [_corrupt_convergence],
    ("ensemble", "chg_manufactured"): [_corrupt_chg],
}


class ChecksTest(unittest.TestCase):
    def _verify(self, workload, name, corruptions, corrupt_copy):
        spec = _spec(workload, name)
        check = checks.CHECKS[spec["check"]]
        params = spec.get("check_params", {})
        output, ctx = _output(spec)
        self.assertEqual(check(output, ctx, **params), [], name)
        for i, corrupt in enumerate(corruptions):
            bad = corrupt_copy(output, corrupt)
            self.assertNotEqual(check(bad, ctx, **params), [],
                                f"{name}: corruption {i} passed the check")

    def test_cli_checks(self):
        def corrupt_copy(output, corrupt):
            bad = copy.deepcopy(output)
            corrupt(bad)
            return bad
        for (workload, name), corruptions in CLI_CORRUPTIONS.items():
            with self.subTest(name):
                self._verify(workload, name, corruptions, corrupt_copy)

    def test_library_checks(self):
        for (workload, name), corruptions in LIB_CORRUPTIONS.items():
            with self.subTest(name):
                self._verify(workload, name, corruptions,
                             lambda output, corrupt: corrupt(output))

    def test_probe_closed_form(self):
        # the closed form of the probe's solvability functional at K=16
        self.assertAlmostEqual(checks.probe_trace_norm(16), 12.30489306139007,
                               places=12)


class RunAccountingTest(unittest.TestCase):
    def _run(self, records):
        """A Run whose jobs return the given records in turn."""
        records = iter(records)
        saved, run.run_job = run.run_job, lambda spec, env: next(records)
        self.addCleanup(setattr, run, "run_job", saved)
        return run.Run(env={})

    def test_changed_report_is_wrong(self):
        r = self._run({"name": "probe", "problems": [], "report_sha256": d}
                      for d in "aab")
        spec = {"name": "probe", "argv": ["probe"]}
        for _ in range(2):
            r.job(spec)
        self.assertTrue(r.correct)
        r.job(spec)
        self.assertFalse(r.correct)
        self.assertEqual((r.attempted, r.failed), (3, 1))

    def test_times_scaled_to_reference_speed(self):
        rec = {"cal_s": 2 * run.CAL_REF_S, "setup_s": 0.5, "call_s": 3.0,
               "layers": {"polygons.self_s": 1.0, "polygons.calls": 10}}
        run.at_reference_speed(rec)
        self.assertEqual((rec["speed"], rec["setup_s"], rec["call_s"]),
                         (0.5, 0.25, 1.5))
        self.assertEqual(rec["layers"],
                         {"polygons.self_s": 0.5, "polygons.calls": 10})

    def test_crashed_job_is_wrong(self):
        r = self._run([{"name": "sampled_convergence", "crashed": "exit 1"}])
        r.job({"name": "sampled_convergence", "func": "sampled_convergence"})
        self.assertFalse(r.correct)
        self.assertEqual((r.attempted, r.failed, r.completed), (1, 1, 0))


if __name__ == "__main__":
    unittest.main()
