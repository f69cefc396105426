"""One benchmark job in a fresh process: import, one timed call, checks.

Usage: python3 bench/job.py SPEC_JSON  (with the checkout's src on PYTHONPATH)

The spec names a CLI command (``"argv"``, run through ``maxreg.cli.main``)
or a library job from ``library.JOBS`` (``"func"`` and ``"params"``), the
check to apply and whether to trace.  The job prints one JSON line:

- ``imported_at``: time.monotonic() once ``maxreg.cli`` is imported; the
  driver subtracts the moment it started this process;
- ``call_s``: wall time of the timed call alone;
- ``cal_s``: mean wall time of ``calibrate()`` run just before and just
  after the call (only before, if the call raised): the CPU speed the job
  saw, by which the driver scales its times;
- ``rss_mb``: peak resident set right after the call, before any check;
- ``problems``: what the check found wrong (empty when correct);
- ``report_sha256``: digest of a CLI report, for the byte-identity check;
- ``layers``: per-layer sums of a traced call (see spans.py).
"""

import sys
import time

import maxreg.cli  # the timed set-up

IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


CAL_LOOPS = 200_000


def calibrate():
    """Wall time of a fixed pure-Python loop that calls nothing of the
    package: a reading of the CPU speed this process gets right now."""
    t0 = time.perf_counter()
    x = 0
    for k in range(CAL_LOOPS):
        x += k * k
    return time.perf_counter() - t0


def prepare(spec):
    """Build the job's inputs (untimed); return (call, finish) where finish
    turns the call's return value into (output, context) for the check."""
    if "argv" in spec:
        buf = io.StringIO()

        def call():
            with contextlib.redirect_stdout(buf):
                try:
                    return maxreg.cli.main(list(spec["argv"]))
                except SystemExit as e:  # argparse usage errors
                    return e.code

        def finish(code):
            text = buf.getvalue()
            try:
                report = json.loads(text)
            except ValueError:
                report = None
            return {"exit": code, "report": report, "text": text}, None
        return call, finish

    import library
    call, ctx = library.JOBS[spec["func"]](**spec.get("params", {}))
    return call, lambda value: (value, ctx)


def run(spec):
    import checks

    call, finish = prepare(spec)
    tracer = None
    if spec.get("trace"):
        import spans
        tracer = spans.Tracer()
        finish_counters = spans.instrument(tracer)
        tracer.enabled = True
    record = {"name": spec["name"], "imported_at": IMPORTED_AT}
    cal_before = calibrate()
    record["cal_s"] = cal_before
    t0 = time.perf_counter()
    try:
        value = call()
    except Exception:
        record["call_s"] = time.perf_counter() - t0
        record["problems"] = ["crashed: " + traceback.format_exc()]
        return record, tracer
    record["call_s"] = time.perf_counter() - t0
    record["cal_s"] = (cal_before + calibrate()) / 2
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.enabled = False
        finish_counters()
        record["layers"] = spans.layer_sums(tracer)
    output, ctx = finish(value)
    if isinstance(output, dict) and "text" in output:
        record["report_sha256"] = hashlib.sha256(
            output.pop("text").encode()).hexdigest()
    check = checks.CHECKS[spec["check"]]
    try:
        record["problems"] = check(output, ctx, **spec.get("check_params", {}))
    except Exception:  # a malformed output the check could not read
        record["problems"] = ["check failed: " + traceback.format_exc()]
    return record, tracer


def write_spans(path, tracer):
    """Write the recorded spans as {names, spans: [name, parent, start_ns,
    end_ns]} with times relative to the first span."""
    index = {}
    names = [index.setdefault(n, len(index)) for n in tracer.names]
    t0 = tracer.starts[0] if tracer.starts else 0
    rows = [[n, p, s - t0, e - t0] for n, p, s, e in
            zip(names, tracer.parents, tracer.starts, tracer.ends)]
    with open(path, "w") as fh:
        json.dump({"names": list(index), "spans": rows}, fh,
                  separators=(",", ":"))


def main():
    spec = json.loads(sys.argv[1])
    record, tracer = run(spec)
    if tracer is not None and spec.get("spans_out"):
        write_spans(spec["spans_out"], tracer)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
