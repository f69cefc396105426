"""Benchmark driver: cold maxreg jobs, one fresh process each, one at a time.

Usage (from the root of a checkout):

    python3 bench/run.py --workload probe --seed 1 --seconds 20 --trace 0

The driver uses the standard library only.  It runs whole passes of the
workload's jobs (workloads.py) until ``--seconds`` have passed, then the
workload's once-per-run checks, and prints one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s``
(median over the run's jobs), ``job_s`` (mean over passes) and
``peak_rss_mb`` (median over passes).  With ``--trace 1`` each round is an
untraced pass followed by a traced pass on the same inputs; the metrics are
the per-layer means over the traced passes plus ``trace.overhead_s``, and
the spans of the first traced pass are written to ``bench/out/spans/``.

Times are given at a reference CPU speed.  The host's CPU speed drifts by
tens of percent, from second to second and from hour to hour, so each job
also times a fixed pure-Python loop (``job.calibrate``) just before and just
after its call, and the driver multiplies the job's set-up, call and
per-layer self times by ``CAL_REF_S / cal_s``: the loop's time on the
reference machine over its time in that job.  Counts are not scaled.

Before the first job the driver writes the bytecode cache of ``src/maxreg``
(as an install would), and the jobs run with PYTHONDONTWRITEBYTECODE=1, so
every job's import loads the same bytecode whatever the caller's settings.
"""

import argparse
import compileall
import json
import os
import subprocess
import sys
import time
from statistics import fmean, median

import spans
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
JOB = os.path.join(HERE, "job.py")
SPANS_DIR = os.path.join(HERE, "out", "spans")
JOB_TIMEOUT_S = 120
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
# job.calibrate()'s typical time on the reference machine, where its median
# over a run's jobs was 15-18 ms (README)
CAL_REF_S = 0.016


def job_env():
    """The caller's environment with MAXREG_THREADS removed, so that the
    program runs with its default, BLAS pinned to one thread whatever the
    caller set, no bytecode writes, and the checkout's src on PYTHONPATH."""
    env = dict(os.environ)
    env.pop("MAXREG_THREADS", None)
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def at_reference_speed(record):
    """Scale a job record's set-up, call and per-layer self times, in place,
    by ``CAL_REF_S / cal_s``; counts stay as they are."""
    speed = record["speed"] = CAL_REF_S / record["cal_s"]
    record["setup_s"] *= speed
    record["call_s"] *= speed
    for k in record.get("layers", {}):
        if k in spans.SELF_TIME_GROUPS:
            record["layers"][k] *= speed


def run_job(spec, env):
    """Run one job process and return its record, with its times scaled to
    the reference CPU speed; the record of a job that crashed, timed out or
    printed no record has ``crashed`` set."""
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, JOB, json.dumps(spec)],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"name": spec["name"], "crashed": f"timed out after {JOB_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"name": spec["name"],
                "crashed": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    record["setup_s"] = record["imported_at"] - started
    at_reference_speed(record)
    if any(p.startswith("crashed:") for p in record["problems"]):
        record["crashed"] = "\n".join(record["problems"])
    return record


class Run:
    """Accumulates the jobs of one benchmark run."""

    def __init__(self, env):
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.completed = 0
        self.digests = {}  # argv -> report digest of its first pass

    def job(self, spec):
        self.attempted += 1
        rec = run_job(spec, self.env)
        if "crashed" in rec:
            self.failed += 1
            self.correct = False
            print(f"job {spec['name']} failed: {rec['crashed']}", file=sys.stderr)
            return None
        self.completed += 1
        problems = list(rec["problems"])
        if "report_sha256" in rec:
            key = tuple(spec["argv"])
            first = self.digests.setdefault(key, rec["report_sha256"])
            if first != rec["report_sha256"]:
                problems.append("report differs from the first pass's report "
                                "for the same configuration and seed")
        if problems:
            self.failed += 1
            self.correct = False
            print(f"job {spec['name']} is wrong: " + "; ".join(problems),
                  file=sys.stderr)
        return rec

    def run_pass(self, specs, traced, spans_out=False):
        """Run one pass; return its records, or None if a job failed."""
        recs = []
        for spec in specs:
            spec = dict(spec, trace=traced)
            if spans_out:
                spec["spans_out"] = os.path.join(
                    SPANS_DIR, f"{spec['name']}.json")
            recs.append(self.job(spec))
        return None if None in recs else recs


def pass_time(passes):
    """Mean over passes of the summed timed calls of a pass.  The host's CPU
    speed alternates between two levels; a median of passes jumps from one
    level to the other, the mean moves with the share of slow passes."""
    return fmean(sum(r["call_s"] for r in recs) for recs in passes)


def end_to_end(passes):
    setups = [r["setup_s"] for recs in passes for r in recs]
    return {
        "setup_s": {"value": median(setups), "unit": "s"},
        "job_s": {"value": pass_time(passes), "unit": "s"},
        "peak_rss_mb": {"value": median([max(r["rss_mb"] for r in recs)
                                         for recs in passes]), "unit": "MB"},
    }


def per_layer(untraced, traced):
    per_pass = []
    for recs in traced:
        sums = {}
        for r in recs:
            for k, v in r["layers"].items():
                sums[k] = sums.get(k, 0) + v
        per_pass.append(spans.layer_metrics(sums))
    out = {metric: {"value": fmean(p[metric] for p in per_pass),
                    "unit": spans.unit(metric)}
           for metric in per_pass[0]}
    out["trace.overhead_s"] = {"value": pass_time(traced) - pass_time(untraced),
                               "unit": spans.unit("trace.overhead_s")}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(ROOT, "src", "maxreg", "cli.py")):
        print(f"error: no maxreg sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    if not compileall.compile_dir(os.path.join(ROOT, "src", "maxreg"), quiet=1):
        print("error: the maxreg sources do not compile", file=sys.stderr)
        return 2
    pass_jobs, run_checks = WORKLOADS[args.workload]
    run = Run(job_env())
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
    untraced, traced = [], []
    deadline = time.monotonic() + args.seconds
    i = 0
    while i == 0 or time.monotonic() < deadline:
        specs = pass_jobs(args.seed, i)
        recs = run.run_pass(specs, traced=False)
        if recs:
            untraced.append(recs)
        if args.trace:
            recs = run.run_pass(specs, traced=True, spans_out=(i == 0))
            if recs:
                traced.append(recs)
        i += 1
    for spec in run_checks(args.seed):
        run.job(spec)
    if run.completed == 0 or not untraced or (args.trace and not traced):
        print("error: no pass completed; nothing was measured", file=sys.stderr)
        return 2
    metrics = per_layer(untraced, traced) if args.trace else end_to_end(untraced)
    speeds = [r["speed"] for recs in untraced for r in recs]
    print(f"{args.workload}: {len(untraced)} passes, CPU speed "
          f"{min(speeds):.2f}-{max(speeds):.2f} of the reference, "
          "job_s per pass at the reference speed "
          + ", ".join(f"{sum(r['call_s'] for r in recs):.3f}" for recs in untraced),
          file=sys.stderr)
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
