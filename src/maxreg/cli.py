"""Command-line driver: polygon reports, certifications, solves, probes, export.

Every subcommand builds a complete report in memory (a plain dict with a
canonical JSON rendering) and only then writes it with any field or CSV
files: each goes to a temp file beside its target, and the temp files are
renamed into place once all are written, so an error never leaves partial
output behind.  Reports carry a provenance block with the package version
and a hash of the effective configuration; two runs with the same
configuration and seed produce byte-identical output.

Exit codes: 0 = success / check passed, 2 = a certification failed,
1 = usage or runtime error.
"""

import argparse
import cmath
import contextlib
import csv
import hashlib
import io
import json
import os
import sys
from fractions import Fraction
from typing import NamedTuple

import numpy as np

try:
    from importlib.metadata import version as _pkg_version
    VERSION = _pkg_version("maxreg")
except Exception:  # pragma: no cover - not installed
    VERSION = "0.0.0"

from .boundary import (
    _default_chi,
    bc_from_jsonable,
    builtin_boundary_conditions,
    complementing_check,
)
from .factorization import (
    MU_D,
    MU_MINUS,
    MU_PLUS,
    T1_ORDER,
    chg_matrix,
    d_symbol,
    dplus_coeffs,
    factor_residual,
)
from .halfspace import (
    HalfGrid,
    apply_symbol,
    boundary_norm,
    dirichlet_failure_probe,
    halfspace_norm,
    random_exp_field,
    solve_half_chg_system,
    solve_half_scalar,
    traces,
    write_half_field,
)
from .polygons import (
    ZERO_OF,
    chg_shape,
    elementary_decomposition,
    is_regular_in_time,
    normal_slopes,
    order_function_of,
    trace_order_function,
)
from .spectral import (
    TorusGrid,
    norm_table,
    random_band_limited_field,
    system_residual,
    system_solve,
    system_times,
    system_values,
    write_field,
)
from .symbols import GridSpec, PolySymbol, ellipticity_certify, mixed_order_certify


class CliError(Exception):
    """User-facing error: message on stderr, exit code 1."""


# ---------------------------------------------------------------------------
# Configuration: defaults < flags < config file
# ---------------------------------------------------------------------------

_TORUS_KEYS = ("T", "K", "n", "N", "Lx")
_HALF_KEYS = ("T", "K", "n", "N", "Lx", "Ln", "Nn")
_GRIDSPEC_KEYS = ("tau_max", "n_tau", "xi_min", "xi_max", "n_xi", "n_dirs")


def _is_json_type(val, types) -> bool:
    if isinstance(val, bool):
        return types is bool
    return isinstance(val, types)


def parse_grid(text):
    """'K=32,Nn=256' -> {'K': 32, 'Nn': 256} (ints where possible); a value
    that is not a finite number is an error."""
    out = {}
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item:
            raise CliError(f"bad grid entry {item!r}: expected key=value")
        key, _, val = item.partition("=")
        key = key.strip()
        try:  # int() of inf or nan raises
            num = float(val)
            out[key] = int(num) if num == int(num) and key != "T" else num
        except (ValueError, OverflowError):
            raise CliError(f"bad grid value {val!r} for {key!r}")
    return out


class _Option(NamedTuple):
    """A flag --NAME: its default, its argparse type (None keeps the
    string) and the JSON types a config file may give it; a true or false
    is not taken for a number."""
    default: object
    help: str
    parse: object = None
    json: object = (str, type(None))
    choices: tuple = None
    count: str = None  # what the flag counts, for one that must be >= 0


_OPTIONS = {
    # argparse passes a string default through parse_grid too, so each run
    # gets its own {}
    "grid": _Option("", "grid overrides, e.g. K=32,Nn=256", parse_grid,
                    (dict, type(None))),
    "lambda": _Option(1.0, "low-frequency cutoff for certifications", float,
                      (int, float)),
    "seed": _Option(0, "random seed (>= 0)", int, int, count="an integer"),
    "bc": _Option(None, "boundary condition (dirichlet | neumann_13 | file; "
                        "neumann_13 if unset)"),
    "ensemble": _Option(0, "number of random system samples (>= 0; 0 runs "
                           "the scalar solve)", int, int, count="a sample count"),
    "resolutions": _Option(None, "comma list of K:Nn pairs, e.g. 16:256,32:256"),
    "out": _Option(None, "write the report here instead of stdout"),
    "format": _Option("json-like", "report format", json=str,
                      choices=("json-like", "csv")),
    "config": _Option(None, "JSON file whose entries override this "
                            "command's flags"),
}

# the flags each command reads; the parser, the entries a config file may
# set and the report's config block all follow from these lists
_EVERY_COMMAND = ("out", "format", "config")
_COMMAND_OPTIONS = {
    "polygon": (),
    "check": ("grid", "lambda", "seed"),
    "chg": ("grid", "lambda"),
    "solve whole": ("grid", "seed"),
    "solve half": ("grid", "seed", "bc", "ensemble"),
    "probe": ("resolutions",),
    "export": (),
}


def _load_config_file(path):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as e:
        raise CliError(f"cannot read config {path}: {e}")
    except json.JSONDecodeError as e:
        raise CliError(f"config parse error at line {e.lineno}, "
                       f"column {e.colno}: {e.msg}")
    if not isinstance(obj, dict):
        raise CliError("config file must hold a JSON object")
    return obj


def build_settings(args):
    """Effective configuration: the command's arguments and flags, its
    flags overridden by --config."""
    cfg = {k: v for k, v in vars(args).items() if k not in ("cmd", "config")}
    if args.config:
        for key, val in _load_config_file(args.config).items():
            # cfg holds this command's flags and positionals; a config file
            # sets only the flags
            if key not in cfg or key not in _OPTIONS:
                raise CliError(f"config entry {key!r} is not an option")
            if not _is_json_type(val, _OPTIONS[key].json):
                raise CliError(f"config entry {key!r} has the wrong type: {val!r}")
            cfg[key] = val
        for key, val in (cfg.get("grid") or {}).items():
            if not _is_json_type(val, (int, float)):
                raise CliError(f"grid {key} must be a number, got {val!r}")
    for key, val in cfg.items():
        opt = _OPTIONS.get(key)
        if opt and opt.choices and val not in opt.choices:
            raise CliError(f"unknown {key} {val!r}")
        if opt and opt.count and val < 0:
            raise CliError(f"--{key} takes {opt.count} >= 0, not {val}")
    return cfg


def _grid_kwargs(cfg, allowed):
    grid = cfg["grid"] or {}
    bad = set(grid) - set(allowed)
    if bad:
        raise CliError(f"unknown grid key(s): {', '.join(sorted(bad))}")
    return dict(grid)


def _grid_spec(cfg, seed=0):
    """The certification grid of --grid and --lambda; seed draws the xi
    directions of a non-radial symbol."""
    kwargs = _grid_kwargs(cfg, _GRIDSPEC_KEYS)
    return GridSpec(lam=float(cfg["lambda"]), seed=seed, **kwargs)


# ---------------------------------------------------------------------------
# Report assembly and rendering
# ---------------------------------------------------------------------------


def _plain(x):
    """Recursively convert report values to JSON-compatible types."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, float):
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, np.generic):
        return _plain(x.item())
    if isinstance(x, np.ndarray):
        return [_plain(v) for v in x.tolist()]
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if hasattr(x, "to_jsonable"):
        return _plain(x.to_jsonable())
    return str(x)


def _canonical_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def build_report(command, cfg, data, summary):
    cfg = _plain({k: v for k, v in cfg.items() if k != "out"})
    digest = hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()).hexdigest()
    return {"command": command,
            "config": cfg,
            "provenance": {"tool": "maxreg", "version": VERSION,
                           "config_sha256": digest},
            "data": _plain(data),
            "summary": list(summary)}


def _csv_cell(v):
    if isinstance(v, dict) and set(v) == {"re", "im"}:
        return repr(complex(v["re"], v["im"]))
    if isinstance(v, (list, tuple)):
        return ";".join(str(x) for x in v)
    return "" if v is None else v


def render_report(report, fmt):
    if fmt == "json-like":
        return _canonical_json(report)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["# maxreg report", report["command"], VERSION])
    w.writerow(["# config_sha256", report["provenance"]["config_sha256"]])
    scalars = []

    def walk(prefix, val):
        if isinstance(val, list) and val and all(isinstance(r, dict) for r in val):
            keys = sorted({k for r in val for k in r})
            w.writerow([f"# table {prefix}"])
            w.writerow(keys)
            for r in val:
                w.writerow([_csv_cell(r.get(k)) for k in keys])
        elif isinstance(val, dict):
            if set(val) == {"re", "im"}:
                scalars.append((prefix, _csv_cell(val)))
            else:
                for k in sorted(val):
                    walk(f"{prefix}.{k}" if prefix else k, val[k])
        else:
            scalars.append((prefix, _csv_cell(val)))

    walk("", report["data"])
    if scalars:
        w.writerow(["# values"])
        w.writerow(["key", "value"])
        for key, val in scalars:
            w.writerow([key, val])
    for line in report["summary"]:
        w.writerow(["# summary", line])
    return buf.getvalue()


def _write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _publish(files):
    """Write each (path, writer) pair with writer(tmp), tmp a temp file
    beside path, then rename every temp file into place; a failed write
    leaves none of the files behind."""
    temps = []
    try:
        for path, write in files:
            head, tail = os.path.split(path)
            temps.append(os.path.join(head, f".{tail}.{os.getpid()}.tmp"))
            try:
                write(temps[-1])
            except OSError as e:
                raise CliError(f"cannot write {path}: {e.strerror or e}")
        for tmp, (path, _) in zip(temps, files):
            try:
                os.replace(tmp, path)
            except OSError as e:
                raise CliError(f"cannot write {path}: {e.strerror or e}")
    finally:
        for tmp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)


def emit(report, cfg, files=()):
    """Write the report (to cfg["out"], or else to stdout) and the files."""
    text = render_report(report, cfg["format"])
    if cfg["out"]:
        path = cfg["out"]
        if os.path.isdir(path):
            ext = "csv" if cfg["format"] == "csv" else "json"
            path = os.path.join(path, f"report.{ext}")
        _publish([(path, lambda tmp: _write_text(tmp, text)), *files])
    else:
        _publish(files)
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Symbol / boundary-condition inputs
# ---------------------------------------------------------------------------


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise CliError(f"{path}: parse error at line {e.lineno}, "
                       f"column {e.colno}: {e.msg}")


def load_poly_symbol(target):
    if target == "chg-D":
        return d_symbol()
    if not os.path.exists(target):
        raise CliError(f"unknown symbol {target!r}: not a builtin name "
                       f"(chg-D) and no such file")
    try:
        sym = PolySymbol.from_jsonable(_load_json(target))
    except (KeyError, TypeError, ValueError) as e:
        raise CliError(f"{target}: bad symbol file: {e}")
    if not sym.monomials:
        raise CliError(f"{target}: symbol has no monomials")
    for c, i, alpha in sym.monomials:  # JSON reads NaN, Infinity and 1e400
        if not cmath.isfinite(c):
            raise CliError(f"{target}: coefficient {c} of the monomial with tau "
                           f"power {i} and xi power {alpha} is not finite")
    return sym


def load_boundary_pair(target):
    """(bc, m, nu) of a builtin pair (m = 0, nu = 0) or of a file."""
    builtins = builtin_boundary_conditions()
    if target in builtins:
        return builtins[target](), 0, ZERO_OF
    if not os.path.exists(target):
        raise CliError(f"unknown boundary condition {target!r}: not one of "
                       f"{', '.join(sorted(builtins))} and no such file")
    try:
        return bc_from_jsonable(_load_json(target))
    except (KeyError, TypeError, ValueError) as e:
        raise CliError(f"{target}: bad boundary-condition file: {e}")


# ---------------------------------------------------------------------------
# Subcommands.  Each returns (data, summary, passed, files); passed None
# means the command is informational (exit 0 unless an error occurred), and
# files lists the (path, writer) pairs to write beside the report.
# ---------------------------------------------------------------------------


def _of_jsonable(mu):
    return {"pieces": mu.to_jsonable()["pieces"], "ord": str(mu.ord)}


def _trace_rows(mu):
    """One row per trace order function T_j(mu), j = 0..ord mu - 1."""
    return [{"j": j, **_of_jsonable(trace_order_function(mu, j))}
            for j in range(int(mu.ord))]


def cmd_polygon(cfg):
    sym = load_poly_symbol(cfg["target"])
    poly = sym.newton_polygon()
    mu = order_function_of(poly)
    data = {
        "exponents": sorted([str(p.r), str(p.s)] for p in sym.exponent_set()),
        "vertices": poly.to_jsonable()["vertices"],
        "gamma_slopes": [None if s is None else str(s)
                         for s in normal_slopes(poly)],
        "order_function": _of_jsonable(mu),
        "regular_in_time": is_regular_in_time(mu),
        "elementary_decomposition": [[str(y), str(e)]
                                     for y, e in elementary_decomposition(mu)],
    }
    shape = chg_shape(mu)
    if shape is not None and mu.ord == int(mu.ord) and mu.ord > 0:
        data["trace_order_functions"] = _trace_rows(mu)
    verts = ", ".join(f"({r}, {s})" for r, s in data["vertices"])
    summary = [f"vertices: {verts}", f"ord = {mu.ord}",
               f"regular in time: {data['regular_in_time']}"]
    return data, summary, None, []


# shared by the mixed-order and boundary reports; _plain renders the objects
_CERT_KEYS = ("delta", "det", "decay_witness", "worst_slope")


def cmd_check(cfg):
    what = cfg["what"]
    grid = _grid_spec(cfg, cfg["seed"])
    if what == "ellipticity":
        sym = load_poly_symbol(cfg["target"])
        mu = order_function_of(sym.newton_polygon())
        floor = 0.0
        if cfg["target"] == "chg-D":
            floor = min(1.0, float(cfg["lambda"])) / (2.0 * np.sqrt(3.0))
            floor *= 1.0 - 1e-9
        rep = ellipticity_certify(sym, mu, grid=grid, floor=floor)
        data = {"report": rep.to_jsonable(), "mu": _of_jsonable(mu)}
        summary = [f"ellipticity: {'pass' if rep.passed else 'FAIL'} "
                   f"(C = {rep.c_lower:.6g}, floor = {floor:.6g})"]
        return data, summary, rep.passed, []
    if what == "mixed-order":
        if cfg["target"] != "chg-L":
            raise CliError("mixed-order check supports the builtin "
                           "system chg-L")
        out = mixed_order_certify(chg_matrix(), grid=grid)
        data = {k: out[k] for k in ("passed", "entries", *_CERT_KEYS)}
        summary = [f"mixed-order: {'pass' if out['passed'] else 'FAIL'}"]
        return data, summary, out["passed"], []
    # what == "boundary"
    bc, m, nu = load_boundary_pair(cfg["target"])
    out = complementing_check(bc, nu=nu, m=m, grid=grid)
    passed = bool(out["passed"] and out["lopatinskii"]["pass"])
    data = {"complementing_passed": out["passed"],
            **{k: out[k] for k in ("lopatinskii", *_CERT_KEYS)}}
    ls = "pass" if out["lopatinskii"]["pass"] else "FAIL"
    comp = "pass" if out["passed"] else "FAIL"
    summary = [f"lopatinskii: {ls}", f"complementing: {comp}"]
    if not out["passed"] and out["decay_witness"] is not None:
        w = out["decay_witness"]
        summary.append(f"witness ray |xi'| = {w['ray_xi']:.6g}, "
                       f"slope = {w['slope']:.4g}")
    return data, summary, passed, []


def cmd_chg(cfg):
    poly = d_symbol().newton_polygon()
    mu = order_function_of(poly)
    grid = _grid_spec(cfg)
    # certified first: it names the first mesh point where D overflows
    ell = ellipticity_certify(d_symbol(), MU_D, grid=grid)
    max_res = factor_residual(grid)
    fc = dplus_coeffs(1.0, 1.0)
    data = {
        "polygon_vertices": poly.to_jsonable()["vertices"],
        "mu_D": _of_jsonable(mu),
        "mu_plus": _of_jsonable(MU_PLUS),
        "mu_minus": _of_jsonable(MU_MINUS),
        "t1_order": _of_jsonable(T1_ORDER),
        "elementary_decomposition": [[str(y), str(e)]
                                     for y, e in elementary_decomposition(mu)],
        "trace_order_functions": _trace_rows(mu),
        "factor_residual": max_res,
        "dplus_sample": {"tau": 1.0, "xi": 1.0,
                         "d0_plus": fc.d0_plus, "d1_plus": fc.d1_plus},
        "ellipticity_constant": ell.c_lower,
    }
    summary = [f"N(D) vertices: "
               + ", ".join(f"({r}, {s})" for r, s in data["polygon_vertices"]),
               f"factor residual <= {max_res:.3e}",
               f"C_lambda = {ell.c_lower:.6g} at lambda = {cfg['lambda']}"]
    return data, summary, None, []


def _solve_whole(cfg):
    kwargs = _grid_kwargs(cfg, _TORUS_KEYS)
    grid = TorusGrid(**kwargs)
    seed = cfg["seed"]
    u_star = tuple(random_band_limited_field(grid, seed=seed + i) for i in range(2))
    # one evaluation of L makes f, solves and takes the residual; f stays in
    # coefficients, and u's norms come from the residual's transform of u
    vals = system_values(chg_matrix(grid.n), grid)
    fc = list(system_times(vals, [us.coefficients() for us in u_star]))
    u = system_solve(vals, fc, grid)
    err = max(np.abs(u[i].data - u_star[i].data).max()
              / max(np.abs(u_star[i].data).max(), 1e-300) for i in range(2))
    del u_star
    residual, uc = system_residual(vals, u, fc)
    del vals
    tables = {f"norms_{name}": norm_table(grid, c, [("l2", 0), ("mu_D", MU_D)])
              for name, c in (("u1", uc[0]), ("u2", uc[1]),
                              ("f1", fc[0]), ("f2", fc[1]))}
    data = {"grid": grid.to_jsonable(), "seed": seed,
            "relative_residual": residual, "recovery_error": err, **tables}
    summary = [f"whole-space manufactured solve on K={grid.K}, N={grid.N}",
               f"recovery error = {err:.3e}",
               f"relative residual = {data['relative_residual']:.3e}"]
    fields = [("u1", u[0], write_field), ("u2", u[1], write_field)]
    return data, summary, fields


def _median(xs):
    """The middle value of xs, or the mean of its two middle values, as
    np.median takes it; np.median imports numpy.ma (about 10 ms in a cold
    process) and statistics imports random and decimal (about 4 ms)."""
    s = sorted(xs)
    m = len(s) // 2
    return s[m] if len(s) % 2 else (s[m - 1] + s[m]) / 2


def _solve_half(cfg):
    kwargs = _grid_kwargs(cfg, _HALF_KEYS)
    grid = HalfGrid(**kwargs)
    seed = cfg["seed"]
    bc_name = cfg["bc"] or "neumann_13"
    ensemble = cfg["ensemble"]
    if ensemble:
        zero_g = np.zeros(grid.col_shape, complex)
        ratios = []
        for s in range(ensemble):
            f1 = random_exp_field(grid, seed=seed + 2 * s)
            f2 = random_exp_field(grid, seed=seed + 2 * s + 1)
            res = solve_half_chg_system(f1, f2, zero_g, zero_g)
            ratios.append(res.diagnostics["ratio"])
        data = {"grid": grid.to_jsonable(), "seed": seed,
                "samples": ensemble,
                "ratios": ratios,
                "median_ratio": _median(ratios),
                "max_ratio": float(max(ratios))}
        summary = [f"system ensemble, {ensemble} samples: median "
                   f"max-regularity ratio = {data['median_ratio']:.4g}"]
        return data, summary, []
    bc, m, nu = load_boundary_pair(bc_name)
    if m or nu != ZERO_OF:
        raise CliError(f"{bc_name}: solve half takes only m = 0 and nu = 0 "
                       f"from a boundary-condition file (m = {m}, "
                       f"nu {'=' if nu == ZERO_OF else '!='} 0)")
    u_star = random_exp_field(grid, seed=seed)
    f = apply_symbol(u_star, d_symbol())
    index, tau, xi = grid.column_mesh()
    tr = traces(u_star, 4)[(slice(None),) + index]
    g = [np.zeros(grid.col_shape, complex) for _ in range(2)]
    for gi, op in zip(g, bc):
        gi[index] = op.apply_to_traces(tau, xi, tr)
    res = solve_half_scalar(f, tuple(g), bc)
    denom = max(halfspace_norm(u_star, MU_D), 1e-300)
    err = halfspace_norm(res.u - u_star, MU_D) / denom
    data = {"grid": grid.to_jsonable(), "seed": seed, "bc": bc_name,
            "recovery_error": err,
            "norm_u_mu_D": halfspace_norm(res.u, MU_D),
            "norm_f_l2": halfspace_norm(f, 0),
            "boundary_norms": [boundary_norm(gi, _default_chi(op, ZERO_OF), grid)
                               for gi, op in zip(g, bc)],
            "max_cond": res.diagnostics["max_cond"],
            "max_scaled_cond": res.diagnostics["max_scaled_cond"]}
    summary = [f"half-space manufactured solve, bc = {bc_name}",
               f"recovery error = {err:.3e}",
               f"max boundary-system cond = {data['max_cond']:.4g}"]
    fields = [("u", res.u, write_half_field)]
    return data, summary, fields


def cmd_solve(cfg):
    solve = _solve_whole if cfg["domain"] == "whole" else _solve_half
    data, summary, fields = solve(cfg)
    files = []
    out = cfg["out"]
    if out and fields:
        # DIR/u1.field when --out names a directory DIR, else OUT.u1.field
        stem = os.path.join(out, "") if os.path.isdir(out) else f"{out}."
        files = [(f"{stem}{name}.field",
                  lambda tmp, fld=fld, writer=writer: writer(tmp, fld))
                 for name, fld, writer in fields]
        data["field_files"] = [path for path, _ in files]
    return data, summary, None, files


def _parse_resolutions(text):
    out = []
    for item in text.split(","):
        k, _, nn = item.partition(":")
        try:
            out.append((int(k), int(nn)))
        except ValueError:
            raise CliError(f"bad resolution {item!r}: expected K:Nn with "
                           f"integers K and Nn") from None
    return out


def cmd_probe(cfg):
    resolutions = None
    if cfg["resolutions"]:
        resolutions = _parse_resolutions(cfg["resolutions"])
    rows = dirichlet_failure_probe(resolutions)
    growth = rows[-1]["trace_norm_T2"] / rows[0]["trace_norm_T2"]
    neumann = [r["neumann_ratio"] for r in rows]
    data = {"rows": rows,
            "trace_norm_growth": growth,
            "neumann_ratio_variation": max(neumann) / min(neumann),
            "cond_contrast_growth": rows[-1]["cond_contrast"]
            / rows[0]["cond_contrast"]}
    summary = [
        "borderline Dirichlet datum vs resolution",
        f"solvability trace norm grows x{growth:.3f} "
        f"over K = {rows[0]['K']}..{rows[-1]['K']}",
        f"neumann max-regularity ratio variation = "
        f"{data['neumann_ratio_variation']:.4f}",
        f"dirichlet/neumann conditioning contrast grows "
        f"x{data['cond_contrast_growth']:.3f}",
    ]
    return data, summary, None, []


_EXPORT_HEADERS = {
    "polygon_vertices.csv": ["r", "s"],
    "trace_polygons.csv": ["trace", "r", "s"],
    "growth.csv": ["K", "Nn", "trace_norm_T2", "dirichlet_ratio",
                   "neumann_ratio", "cond_contrast"],
}


def _report_list(data, key, item_ok, items):
    """data[key], which must be a list whose entries pass item_ok."""
    val = data[key]
    if not isinstance(val, list) or not all(map(item_ok, val)):
        raise CliError(f"report entry {key!r} must be a list of {items}")
    return val


def _is_list_of(n):
    return lambda v: isinstance(v, list) and len(v) == n


def _is_trace_entry(e):
    return (isinstance(e, dict) and "j" in e and isinstance(e.get("pieces"), list)
            and all(map(_is_list_of(3), e["pieces"])))


def cmd_export(cfg):
    report = _load_json(cfg["report"])
    if not isinstance(report, dict):
        raise CliError("report file must hold a JSON object")
    data = report.get("data", {})
    if not isinstance(data, dict):
        raise CliError("report entry 'data' must be a JSON object")
    out_dir = cfg["out"] or "export"
    files = {}

    def table(name, header, rows):
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow(row)
        files[name] = buf.getvalue()

    # a polygon report names its vertices "vertices", a chg report
    # "polygon_vertices"
    verts = "polygon_vertices" if "polygon_vertices" in data else "vertices"
    if data.get(verts) is not None:
        table("polygon_vertices.csv", _EXPORT_HEADERS["polygon_vertices.csv"],
              _report_list(data, verts, _is_list_of(2), "[r, s] pairs"))
    if "trace_order_functions" in data:
        entries = _report_list(data, "trace_order_functions", _is_trace_entry,
                               'objects {"j": ..., "pieces": [[gamma, r, s], ...]}')
        table("trace_polygons.csv", _EXPORT_HEADERS["trace_polygons.csv"],
              [[e["j"], b, m] for e in entries for _, b, m in e["pieces"]])
    if "rows" in data:
        rows = _report_list(data, "rows", lambda r: isinstance(r, dict), "JSON objects")
        keys = sorted({k for r in rows for k in r}) or _EXPORT_HEADERS["growth.csv"]
        table("growth.csv", keys, [[r.get(k, "") for k in keys] for r in rows])
    for key, val in sorted(data.items()):
        if key == "rows" or key == "trace_order_functions":
            continue
        if (isinstance(val, list) and val
                and all(isinstance(r, dict) for r in val)):
            keys = sorted({k for r in val for k in r})
            table(f"{key}.csv", keys,
                  [[_csv_cell(r.get(k)) for k in keys] for r in val])
    if not files:
        # header-only bundle for an empty report
        for name, header in _EXPORT_HEADERS.items():
            table(name, header, [])
    os.makedirs(out_dir, exist_ok=True)
    data_out = {"directory": out_dir, "files": sorted(files)}
    summary = [f"wrote {len(files)} CSV file(s) to {out_dir}"]
    return data_out, summary, None, [
        (os.path.join(out_dir, name), lambda tmp, text=text: _write_text(tmp, text))
        for name, text in sorted(files.items())]


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A usage error raises CliError: one error line and exit code 1, as
    for any other bad input."""

    def error(self, message):
        raise CliError(message)


def _build_parser():
    p = _Parser(prog="maxreg",
                description="Newton-polygon calculus and time-periodic solvers "
                            "for the Cahn-Hilliard-Gurtin system")
    sub = p.add_subparsers(dest="cmd", required=True)

    def command(subparsers, name, help):
        parser = subparsers.add_parser(name.split()[-1], help=help)
        for key in (*_COMMAND_OPTIONS[name], *_EVERY_COMMAND):
            opt = _OPTIONS[key]
            parser.add_argument(f"--{key}", default=opt.default, type=opt.parse,
                                choices=opt.choices, help=opt.help)
        return parser

    command(sub, "polygon", "Newton polygon and order-function report"
            ).add_argument("target", help="builtin name (chg-D) or symbol JSON file")
    sc = command(sub, "check", "run a certification (exit 2 on failure)")
    sc.add_argument("what", choices=("ellipticity", "mixed-order", "boundary"))
    sc.add_argument("target",
                    help="chg-D | chg-L | dirichlet | neumann_13 | file")
    command(sub, "chg", "report the standard CHG objects")
    domains = sub.add_parser("solve", help="manufactured solve with norm tables"
                             ).add_subparsers(dest="domain", required=True)
    command(domains, "solve whole", "whole-space CHG system solve")
    command(domains, "solve half", "half-space scalar solve, or a system ensemble")
    command(sub, "probe", "borderline Dirichlet datum growth table")
    command(sub, "export", "expand a JSON report into a CSV bundle"
            ).add_argument("report", help="report file produced by this tool")
    return p


_COMMANDS = {
    "polygon": cmd_polygon,
    "check": cmd_check,
    "chg": cmd_chg,
    "solve": cmd_solve,
    "probe": cmd_probe,
    "export": cmd_export,
}


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        cfg = build_settings(args)
        # floating-point faults raise FloatingPointError, an ArithmeticError
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            data, summary, passed, files = _COMMANDS[args.cmd](cfg)
        emit(build_report(args.cmd, cfg, data, summary), cfg, files)
    except (CliError, ValueError, ArithmeticError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0 if passed is None or passed else 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
