"""Spans and counters for the traced benchmark pass.

A traced job wraps every public function of every ``maxreg`` module, plus
the methods in ``METHODS``, in every namespace that binds it (the package
imports with ``from .x import y``, so a call through an unwrapped binding
would escape its span).  Each call records a span: name, parent, start and
end.  Spans stay in memory while the job runs; ``layer_sums`` turns them
into per-layer self times and counts when the job ends, and the driver
turns the sums of a pass into metrics with ``layer_metrics``.

A span's self time is its duration minus the durations of its direct child
spans (a job is single-threaded, so children never overlap).  Time spent in
private helpers is therefore charged to the nearest public caller.
"""

import functools
import time
from collections import Counter

NS_PER_S = 1e9

MODULES = ("polygons", "factorization", "symbols", "boundary", "spectral",
           "halfspace", "cli")

# (module, class, method): layer boundaries that are methods, not functions
METHODS = (
    ("symbols", "PolySymbol", "__call__"),
    ("symbols", "SymbolFn", "__call__"),
    ("symbols", "MatrixSymbol", "evaluate"),
    ("boundary", "BoundaryOperator", "evaluate_at_root"),
    ("spectral", "Field", "coefficients"),
    ("spectral", "Field", "from_coefficients"),
)

SYMBOL_EVALS = frozenset({"symbols.PolySymbol.__call__",
                          "symbols.SymbolFn.__call__",
                          "symbols.MatrixSymbol.evaluate"})


def _hs(*names):
    return frozenset(f"halfspace.{n}" for n in names)


# per-layer self times: metric -> span names, or a module prefix
SELF_TIME_GROUPS = {
    "polygons.self_s": "polygons.",
    "factorization.roots_s": frozenset({"factorization.roots"}),
    "symbols.self_s": "symbols.",
    "boundary.self_s": "boundary.",
    "spectral.self_s": "spectral.",
    "halfspace.resolvent_terms_s": _hs("causal_resolvent_terms",
                                       "anticausal_resolvent_terms"),
    "halfspace.resolvent_samples_s": _hs("causal_resolvent_samples",
                                         "anticausal_resolvent_samples"),
    "halfspace.operator_s": _hs("apply_poly_operator", "apply_dminus",
                                "apply_d_quartic"),
    # fd_weights builds the matrix rows; the few small trace stencils it
    # also builds are charged here too
    "halfspace.derivative_matrix_s": _hs("derivative_matrix", "fd_weights"),
    "halfspace.traces_s": _hs("traces", "trace_of_terms", "trace_extension"),
    "halfspace.norms_s": _hs("halfspace_norm", "column_weighted_l2_sq",
                             "terms_l2_sq", "exp_column_norm",
                             "boundary_norm", "column_l2_sq"),
    "halfspace.boundary_solve_s": _hs("solve_half_scalar"),
    "halfspace.system_s": _hs("solve_half_chg_system"),
    "halfspace.merge_terms_s": _hs("merge_terms"),
    "cli.report_s": frozenset({"cli.build_report", "cli.render_report",
                               "cli.emit"}),
}

# call counts: metric -> span names, or a module prefix
CALL_GROUPS = {
    "polygons.calls": "polygons.",
    "polygons.hull_builds": frozenset({"polygons.polygon_from_exponents"}),
    "factorization.roots_calls": frozenset({"factorization.roots"}),
    "boundary.evaluate_at_root_calls": frozenset(
        {"boundary.BoundaryOperator.evaluate_at_root"}),
    "spectral.transforms": frozenset({"spectral.Field.coefficients",
                                      "spectral.Field.from_coefficients"}),
    "halfspace.resolvent_terms_calls": _hs("causal_resolvent_terms",
                                           "anticausal_resolvent_terms"),
    "halfspace.resolvent_samples_calls": _hs("causal_resolvent_samples",
                                             "anticausal_resolvent_samples"),
    "halfspace.merge_terms_calls": _hs("merge_terms"),
}

# counters filled by hooks: metric -> counter name (plain sums)
COUNTER_METRICS = {
    "factorization.roots_points": "roots_points",
    "symbols.grid_points": "grid_points",
    "halfspace.derivative_matrix_builds": "derivative_matrix_builds",
    "halfspace.columns_solved": "columns_solved",
}

# ratios: metric -> (numerator counter, denominator counter, unit)
RATIO_METRICS = {
    "polygons.distinct_args_ratio": ("exact_distinct", "exact_calls", "ratio"),
    "halfspace.terms_kept_ratio": ("terms_out", "terms_in", "ratio"),
    "halfspace.solution_terms_mean": ("solution_terms", "solution_columns",
                                      "terms"),
}


def _in_group(name, group):
    if isinstance(group, str):
        return name.startswith(group)
    return name in group


class Tracer:
    """Records one span per wrapped call while ``enabled`` is true."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.enabled = False
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.stack = []
        self.counters = Counter()
        self.polygon_args = []  # (span name, args) of every polygons call

    def wrap(self, name, fn, enter=None, leave=None):
        """Return fn wrapped in a span; enter(tracer, args) runs before the
        call and leave(tracer, args, result) after a call that returned."""
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self.stack)
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if enter is not None:
                enter(self, args)
            i = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if leave is not None:
                leave(self, args, result)
            return result

        return traced

    def in_span(self, names):
        """True if an open span has one of the given names."""
        return any(self.names[i] in names for i in self.stack)

    def self_times(self):
        return self_times(self.parents, self.starts, self.ends)


def self_times(parents, starts, ends):
    """Duration of each span minus its direct children's durations, in the
    clock's units."""
    out = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out


def layer_sums(tracer):
    """Self-time, call-count and counter sums of one job, before ratios."""
    selfs = tracer.self_times()
    totals = {}
    for metric, group in SELF_TIME_GROUPS.items():
        totals[metric] = sum(t for n, t in zip(tracer.names, selfs)
                             if _in_group(n, group)) / NS_PER_S
    counts = Counter(tracer.names)
    for metric, group in CALL_GROUPS.items():
        totals[metric] = sum(c for n, c in counts.items() if _in_group(n, group))
    for metric, counter in COUNTER_METRICS.items():
        totals[metric] = tracer.counters[counter]
    for num, den, _ in RATIO_METRICS.values():
        totals[num] = tracer.counters[num]
        totals[den] = tracer.counters[den]
    return totals


def layer_metrics(sums):
    """Per-layer metrics from (possibly summed) ``layer_sums`` results."""
    out = {m: sums[m] for m in (*SELF_TIME_GROUPS, *CALL_GROUPS,
                                *COUNTER_METRICS)}
    for metric, (num, den, _) in RATIO_METRICS.items():
        out[metric] = sums[num] / sums[den] if sums[den] else 0.0
    return out


def unit(metric):
    if metric in RATIO_METRICS:
        return RATIO_METRICS[metric][2]
    return "s" if metric.endswith("_s") else "count"


# ---------------------------------------------------------------------------
# maxreg instrumentation
# ---------------------------------------------------------------------------


def _exact_key(x, polygons):
    """Hashable key of an argument made of exact values only (integers,
    fractions, order functions, polygons); TypeError for anything else."""
    if isinstance(x, (int, str, type(None), polygons.Fraction,
                      polygons.OrderFunction, polygons.NewtonPolygon)):
        return x
    if isinstance(x, (tuple, list)):
        return tuple(_exact_key(v, polygons) for v in x)
    if isinstance(x, (set, frozenset)):
        return frozenset(_exact_key(v, polygons) for v in x)
    if isinstance(x, polygons.OrderFunctionDiff):  # unhashable by design
        return ("diff", x.plus, x.minus)
    raise TypeError("not exact")


def count_exact_args(tracer, polygons):
    """Count polygons calls whose arguments are all exact values, and how
    many distinct (function, arguments) pairs they hold."""
    keys = []
    for name, args in tracer.polygon_args:
        try:
            keys.append((name, _exact_key(args, polygons)))
        except TypeError:  # float or array arguments: not exact work
            continue
    tracer.counters["exact_calls"] = len(keys)
    tracer.counters["exact_distinct"] = len(set(keys))


def _hooks(name, np):
    """(enter, leave) hooks that fill the counters for one span name."""
    if name.startswith("polygons."):
        def enter(tr, args):  # keyed after the job, to keep spans cheap
            tr.polygon_args.append((name, args))
        return enter, None
    if name == "factorization.roots":
        def enter(tr, args):
            tr.counters["roots_points"] += np.broadcast(
                np.asarray(args[0]), np.asarray(args[1])).size
        return enter, None
    if name in SYMBOL_EVALS:
        def enter(tr, args):
            if tr.in_span(SYMBOL_EVALS):
                return
            tau, xi = args[1], args[2]
            xs = xi if isinstance(xi, (list, tuple)) else (xi,)
            tr.counters["grid_points"] += np.broadcast(
                np.asarray(tau), *(np.asarray(c) for c in xs)).size
        return enter, None
    if name == "halfspace.merge_terms":
        def enter(tr, args):
            tr.counters["terms_in"] += len(args[0])

        def leave(tr, args, result):
            tr.counters["terms_out"] += len(result)
        return enter, leave
    if name in ("halfspace.solve_half_scalar", "halfspace.solve_half_chg_system"):
        def leave(tr, args, result):
            if name == "halfspace.solve_half_scalar":
                tr.counters["columns_solved"] += len(result.diagnostics["conds"])
            fields = result.u if isinstance(result.u, tuple) else (result.u,)
            for f in fields:
                tr.counters["solution_terms"] += sum(
                    len(t) for t in f.exp_terms.values())
                tr.counters["solution_columns"] += len(f.exp_terms)
        return None, leave
    return None, None


def instrument(tracer):
    """Wrap maxreg's public functions and METHODS; return a function that
    fills the counters not kept during the call (run it after the call)."""
    import importlib
    import types

    import numpy as np

    mods = {m: importlib.import_module(f"maxreg.{m}") for m in MODULES}
    dm = mods["halfspace"].derivative_matrix  # an lru_cache object
    misses0 = dm.cache_info().misses
    wrapped = {}  # id(original) -> wrapper
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            is_function = (isinstance(obj, types.FunctionType)
                           or hasattr(obj, "cache_info"))
            if attr.startswith("_") or not is_function:
                continue
            if obj.__module__ != mod.__name__:
                continue
            if id(obj) not in wrapped:
                name = f"{short}.{attr}"
                wrapped[id(obj)] = tracer.wrap(
                    name, obj, *_hooks(name, np))
    for mod in mods.values():
        ns = vars(mod)
        for attr, obj in list(ns.items()):
            if id(obj) in wrapped:
                ns[attr] = wrapped[id(obj)]
            elif isinstance(obj, dict):  # dispatch tables such as cli._COMMANDS
                for k, v in list(obj.items()):
                    if id(v) in wrapped:
                        obj[k] = wrapped[id(v)]
    for short, cls_name, meth in METHODS:
        cls = getattr(mods[short], cls_name)
        raw = cls.__dict__[meth]
        name = f"{short}.{cls_name}.{meth}"
        hooks = _hooks(name, np)
        if isinstance(raw, staticmethod):
            setattr(cls, meth, staticmethod(tracer.wrap(name, raw.__func__, *hooks)))
        else:
            setattr(cls, meth, tracer.wrap(name, raw, *hooks))

    def finish():
        tracer.counters["derivative_matrix_builds"] = (
            dm.cache_info().misses - misses0)
        count_exact_args(tracer, mods["polygons"])
    return finish
