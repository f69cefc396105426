"""Tests for the command-line driver: exit codes, determinism, formats."""

import argparse
import json
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from maxreg.boundary import complementing_check, dirichlet_pair
from maxreg.cli import _build_parser, _median, main, parse_grid
from maxreg.factorization import d_symbol
from maxreg.spectral import Field
from maxreg.polygons import ZERO_OF, of_const
from maxreg.symbols import GridSpec, PolySymbol


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code in (0, 2), err
    return code, json.loads(out)


def _trace_pair_file(j1, j2, **entries):
    """The boundary file of the pair (Tr_j1, Tr_j2), with m = 0 and nu = 0
    unless entries say otherwise: numbers read as constant coefficients, and
    an operator without chi targets T_j(mu_D)."""
    ops = [{"coeffs": [int(k == j) for k in range(4)]} for j in (j1, j2)]
    return {"ops": ops, "nu": ZERO_OF.to_jsonable(), **entries}


# --- polygon ---------------------------------------------------------------


def test_polygon_chg_d_vertices(capsys):
    code, rep = run_json(capsys, "polygon", "chg-D")
    assert code == 0
    assert rep["data"]["vertices"] == [["0", "0"], ["4", "0"],
                                       ["2", "1"], ["0", "1"]]
    assert rep["data"]["order_function"]["ord"] == "4"
    assert rep["data"]["gamma_slopes"] == ["2", None]
    assert len(rep["data"]["trace_order_functions"]) == 4


def test_polygon_symbol_file(capsys, tmp_path):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(d_symbol().to_jsonable()))
    _, rep_file = run_json(capsys, "polygon", str(path))
    _, rep_builtin = run_json(capsys, "polygon", "chg-D")
    assert rep_file["data"] == rep_builtin["data"]


def test_polygon_missing_file(capsys):
    code, out, err = run(capsys, "polygon", "/no/such/file.json")
    assert code == 1 and out == "" and "unknown symbol" in err


def test_polygon_parse_error_has_position(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 1, "radial": true, "monomials": [')
    code, out, err = run(capsys, "polygon", str(path))
    assert code == 1 and out == ""
    assert "line 1" in err and "column" in err


def test_polygon_empty_symbol(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"n": 1, "radial": true, "monomials": []}')
    code, out, err = run(capsys, "polygon", str(path))
    assert code == 1 and "no monomials" in err


@pytest.mark.parametrize("command", [("polygon",), ("check", "ellipticity")])
def test_non_finite_symbol_coefficient_is_one_error_line(capsys, tmp_path, command):
    """JSON reads NaN: the symbol file is rejected on loading, by every
    command, rather than giving a polygon of a symbol that is not one."""
    path = tmp_path / "nan.json"
    path.write_text('{"n": 1, "radial": true, "monomials": ['
                    '{"re": NaN, "im": 0.0, "i": 1, "r": 0}, '
                    '{"re": 1.0, "im": 0.0, "i": 0, "r": 2}]}')
    code, out, err = run(capsys, *command, str(path))
    assert code == 1 and out == ""
    assert err == (f"error: {path}: coefficient (nan+0j) of the monomial with "
                   "tau power 1 and xi power 0 is not finite\n")


def test_no_partial_output_on_error(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "polygon", "/no/such/file.json",
                     "--out", str(out_path))
    assert code == 1 and not out_path.exists()


# --- check -----------------------------------------------------------------


def test_check_ellipticity_chg_d(capsys):
    code, rep = run_json(capsys, "check", "ellipticity", "chg-D",
                         "--lambda", "1")
    assert code == 0
    c = rep["data"]["report"]["c_lower"]
    assert c >= 1.0 / (2.0 * 3.0 ** 0.5) * (1 - 1e-9)


def test_check_mixed_order_chg_l(capsys):
    code, rep = run_json(capsys, "check", "mixed-order", "chg-L")
    assert code == 0 and rep["data"]["passed"]


def test_check_boundary_dirichlet_fails(capsys):
    code, rep = run_json(capsys, "check", "boundary", "dirichlet")
    assert code == 2
    assert rep["data"]["lopatinskii"]["pass"]
    assert not rep["data"]["complementing_passed"]
    assert rep["data"]["decay_witness"]["ray_xi"] == 0.0


def test_check_boundary_neumann_passes(capsys):
    code, rep = run_json(capsys, "check", "boundary", "neumann_13")
    assert code == 0 and rep["data"]["complementing_passed"]


def test_overflowing_symbol_is_one_error_line(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 1, "radial": True, "monomials": [
        {"re": 1e300, "im": 0.0, "i": 2, "r": 0},
        {"re": 1.0, "im": 0.0, "i": 0, "r": 4}]}))
    code, out, err = run(capsys, "check", "ellipticity", str(path))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def _boundary_file(tmp_path, coeff):
    """The Tr_1/Tr_3 Neumann pair with coeff in place of b_1 of B_1."""
    obj = _trace_pair_file(1, 3)
    obj["ops"][0]["coeffs"][1] = {"poly": coeff}
    path = tmp_path / "bc.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_overflowing_boundary_file_is_one_error_line(capsys, tmp_path):
    path = _boundary_file(tmp_path, {"n": 1, "radial": True, "monomials": [
        {"re": 1e300, "im": 0.0, "i": 2, "r": 0},
        {"re": 1.0, "im": 0.0, "i": 0, "r": 0}]})
    code, out, err = run(capsys, "check", "boundary", path)
    assert code == 1 and out == ""
    assert err == "error: symbol evaluation not finite at tau=-1000000.0, |xi|=0.0\n"


@pytest.mark.parametrize("coeffs", [
    {(0, 1): float("inf")},
    {(0, 1): 1e200, (1, 3): 1e200},  # finite entries, overflowing det
])
def test_non_finite_constant_boundary_file_is_one_error_line(capsys, tmp_path,
                                                             coeffs):
    """Constant coefficients are evaluated once, 0-d; a non-finite entry or
    determinant is still reported at the first mesh point."""
    obj = _trace_pair_file(1, 3)
    for (op, k), c in coeffs.items():
        obj["ops"][op]["coeffs"][k] = {"poly": {"n": 1, "radial": True, "monomials": [
            {"re": c, "im": 0.0, "i": 0, "r": 0}]}}
    path = tmp_path / "bc.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "check", "boundary", str(path))
    assert code == 1 and out == ""
    assert err == "error: symbol evaluation not finite at tau=-1000000.0, |xi|=0.0\n"


@pytest.mark.parametrize("what, expect", [
    ("boundary", "error: symbol evaluation not finite at tau=-1000000.0, "
                 "|xi|=19.306977288832496\n"),
    ("ellipticity", "error: symbol evaluation not finite at tau=-1000000.0, "
                    "|xi|=12.451970847350319\n"),
])
def test_overflow_inside_the_mesh_is_located(capsys, tmp_path, what, expect):
    """|xi|^250 in a boundary coefficient and |xi|^300 in a symbol first
    overflow at an inner |xi| of the first tau row: the error names it."""
    if what == "boundary":
        path = _boundary_file(tmp_path, {"n": 1, "radial": True, "monomials": [
            {"re": 1.0, "im": 0.0, "i": 0, "r": 250}]})
    else:
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"n": 1, "radial": True, "monomials": [
            {"re": 1.0, "im": 0.0, "i": 1, "r": 0},
            {"re": 1.0, "im": 0.0, "i": 0, "r": 300}]}))
    code, out, err = run(capsys, "check", what, str(path))
    assert code == 1 and out == "" and err == expect


@pytest.mark.parametrize("n", [1, 2])
def test_non_radial_boundary_file_is_one_error_line(capsys, tmp_path, n):
    path = _boundary_file(tmp_path, {"n": n, "radial": False, "monomials": [
        {"re": 1.0, "im": 0.0, "i": 0, "alpha": [0] * n}]})
    grid = "K=2,Nn=64" if n == 1 else "K=2,n=2,N=4,Nn=64"
    for argv in (("check", "boundary", path),
                 ("solve", "half", "--grid", grid, "--bc", path)):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "radial entries" in err


def test_solve_half_boundary_file_without_chi(capsys, tmp_path):
    """An operator with chi null takes the default target T_j(mu_D), so the
    file solves as the builtin neumann_13 does."""
    obj = _trace_pair_file(1, 3)
    obj["ops"][0]["chi"] = None
    path = tmp_path / "bc.json"
    path.write_text(json.dumps(obj))
    reports = [run_json(capsys, "solve", "half", "--grid", "K=4,Nn=64",
                        "--bc", bc)[1]["data"] for bc in (str(path), "neumann_13")]
    for data in reports:
        del data["bc"]
    assert reports[0] == reports[1]


def test_check_boundary_file_honours_m_and_nu(capsys, tmp_path):
    """check boundary FILE certifies B^(m) with the file's nu, as the
    library does."""
    nu = of_const(1)
    path = tmp_path / "bc.json"
    path.write_text(json.dumps(_trace_pair_file(0, 1, m=1, nu=nu.to_jsonable())))
    _, rep = run_json(capsys, "check", "boundary", str(path),
                      "--grid", "n_tau=64,n_xi=64")
    want = complementing_check(dirichlet_pair(), nu=nu, m=1,
                               grid=GridSpec(n_tau=64, n_xi=64))
    data = rep["data"]
    assert data["det"]["c_lower"] == want["det"].c_lower
    assert data["complementing_passed"] == want["passed"]
    assert data["lopatinskii"]["pass"] == want["lopatinskii"]["pass"]


@pytest.mark.parametrize("m, nu", [(1, of_const(1)), (0, of_const(1)), (1, ZERO_OF)])
def test_solve_half_refuses_boundary_file_with_m_or_nu(capsys, tmp_path, m, nu):
    path = tmp_path / "bc.json"
    path.write_text(json.dumps(_trace_pair_file(1, 3, m=m, nu=nu.to_jsonable())))
    code, out, err = run(capsys, "solve", "half", "--grid", "K=2,Nn=64",
                         "--bc", str(path))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {path}: solve half takes only m = 0 and nu = 0")


def test_boundary_file_m_must_be_an_integer(capsys, tmp_path):
    obj = _trace_pair_file(1, 3)
    obj["m"] = 1.5
    path = tmp_path / "bc.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "check", "boundary", str(path))
    assert code == 1 and out == ""
    assert err == (f"error: {path}: bad boundary-condition file: "
                   f"m must be an integer, got 1.5\n")


def test_boundary_file_coefficient_must_not_be_a_boolean(capsys, tmp_path):
    """JSON true is refused, not read as the coefficient 1 (which would
    certify the pair as Tr_1)."""
    obj = _trace_pair_file(1, 3)
    obj["ops"][0]["coeffs"][1] = True
    path = tmp_path / "bc.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "check", "boundary", str(path))
    assert code == 1 and out == ""
    assert err == (f"error: {path}: bad boundary-condition file: "
                   f"a coefficient must be a number or an object, got True\n")


def test_boundary_file_with_a_large_m_is_refused_at_once(capsys, tmp_path):
    """A trace index beyond Tr_3 is refused before the (4 + m)^2 entries
    of B^(m) are filled, so m = 10^6 fails as fast as m = 1 does."""
    path = tmp_path / "bc.json"
    path.write_text(json.dumps(_trace_pair_file(1, 3, m=1_000_000)))
    start = time.monotonic()
    code, out, err = run(capsys, "check", "boundary", str(path))
    assert time.monotonic() - start < 5.0
    assert code == 1 and out == ""
    assert err == "error: trace index 4 outside [0, 3]\n"


def test_boundary_file_unknown_ref_is_named(capsys, tmp_path):
    obj = _trace_pair_file(1, 3)
    obj["ops"][0]["coeffs"][0] = {"ref": "bogus"}
    path = tmp_path / "bc.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "check", "boundary", str(path))
    assert code == 1 and out == ""
    assert err == f"error: {path}: bad boundary-condition file: 'bogus'\n"


def test_check_unknown_target(capsys):
    code, out, err = run(capsys, "check", "boundary", "robin")
    assert code == 1 and "unknown boundary condition" in err


# --- chg -------------------------------------------------------------------


def test_chg_report(capsys):
    code, rep = run_json(capsys, "chg")
    assert code == 0
    assert rep["data"]["polygon_vertices"] == [["0", "0"], ["4", "0"],
                                               ["2", "1"], ["0", "1"]]
    assert rep["data"]["factor_residual"] < 1e-10
    assert rep["data"]["ellipticity_constant"] >= 1.0 / (2.0 * 3.0 ** 0.5)


def test_chg_root_overflow_is_located(capsys):
    """The factorization residual names the first mesh point whose roots
    overflow (-tau^2 at tau = -1e200), as the certifications do."""
    code, out, err = run(capsys, "chg", "--grid", "tau_max=1e200")
    assert code == 1 and out == ""
    assert err == "error: roots not finite at tau=-1e+200, |xi|=0.0\n"


def test_export_chg_bundle(capsys, tmp_path):
    rep_path = tmp_path / "chg.json"
    run(capsys, "chg", "--out", str(rep_path))
    out_dir = tmp_path / "bundle"
    code, _, _ = run(capsys, "export", str(rep_path), "--out", str(out_dir))
    assert code == 0
    verts = (out_dir / "polygon_vertices.csv").read_text().splitlines()
    assert verts == ["r,s", "0,0", "4,0", "2,1", "0,1"]


# --- solve -----------------------------------------------------------------


def test_solve_whole_manufactured(capsys, tmp_path):
    out_path = tmp_path / "whole.json"
    code, _, _ = run(capsys, "solve", "whole", "--grid", "K=4,N=16",
                     "--seed", "3", "--out", str(out_path))
    assert code == 0
    rep = json.loads(out_path.read_text())
    assert rep["data"]["recovery_error"] < 1e-9
    assert rep["data"]["relative_residual"] < 1e-10
    for name in rep["data"]["field_files"]:
        assert (tmp_path / name.split("/")[-1]).exists()


@pytest.mark.parametrize("grid", ["K=8,N=32", "K=4,n=2,N=16"])
def test_solve_whole_recovers_u_star(capsys, grid):
    """u* drawn on the live band in coefficients is recovered to round-off,
    and each norm table holds the l2 and mu_D rows."""
    code, rep = run_json(capsys, "solve", "whole", "--grid", grid, "--seed", "4")
    data = rep["data"]
    assert code == 0
    assert data["recovery_error"] <= 1e-13
    assert data["relative_residual"] <= 1e-13
    for name in ("u1", "u2", "f1", "f2"):
        assert [r["name"] for r in data[f"norms_{name}"]] == ["l2", "mu_D"]


@pytest.mark.parametrize("argv", [
    ("chg",),
    ("solve", "whole", "--grid", "K=4,N=16"),
])
def test_out_into_missing_directory_is_one_error_line(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv,
                         "--out", str(tmp_path / "missing" / "r.json"))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert list(tmp_path.iterdir()) == []


def test_solve_out_into_existing_directory(capsys, tmp_path):
    """With --out DIR, the report and both fields go into DIR."""
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code, out, _ = run(capsys, "solve", "whole", "--grid", "K=2,N=8",
                       "--out", str(out_dir))
    assert code == 0 and out == ""
    assert sorted(p.name for p in tmp_path.rglob("*")) == [
        "out", "report.json", "u1.field", "u2.field"]
    rep = json.loads((out_dir / "report.json").read_text())
    assert rep["data"]["field_files"] == [str(out_dir / "u1.field"),
                                          str(out_dir / "u2.field")]


def test_failed_report_write_leaves_no_field_files(capsys, tmp_path):
    """The report goes to OUT/report.json and the fields into OUT; when the
    report cannot be put in place, no field file appears either."""
    out_dir = tmp_path / "out"
    (out_dir / "report.json").mkdir(parents=True)
    code, out, err = run(capsys, "solve", "whole", "--grid", "K=4,N=16",
                         "--out", str(out_dir))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["out", "report.json"]


def test_solve_whole_transforms(capsys, monkeypatch):
    """Each field is transformed once per solve and once per norm table."""
    calls = []
    coefficients, from_coefficients = Field.coefficients, Field.from_coefficients

    def counted(self):
        calls.append("forward")
        return coefficients(self)

    def counted_inverse(*args, **kwargs):
        calls.append("inverse")
        return from_coefficients(*args, **kwargs)
    monkeypatch.setattr(Field, "coefficients", counted)
    monkeypatch.setattr(Field, "from_coefficients", staticmethod(counted_inverse))
    code, _ = run_json(capsys, "solve", "whole", "--grid", "K=4,N=16")
    assert code == 0 and len(calls) <= 8


def test_solve_whole_evaluates_each_entry_of_l_once(capsys, monkeypatch):
    calls = []
    real = PolySymbol.__call__

    def counted(self, tau, xi):
        calls.append(self)
        return real(self, tau, xi)
    monkeypatch.setattr(PolySymbol, "__call__", counted)
    code, _ = run_json(capsys, "solve", "whole", "--grid", "K=4,N=16")
    assert code == 0 and len(calls) <= 4


def test_solve_half_manufactured(capsys):
    code, rep = run_json(capsys, "solve", "half", "--grid", "K=4,Nn=64",
                         "--bc", "dirichlet", "--seed", "1")
    assert code == 0
    assert rep["data"]["recovery_error"] < 1e-9
    assert rep["data"]["bc"] == "dirichlet"


@pytest.mark.parametrize("argv", [
    ("solve", "half", "--grid", "T=0"),
    ("solve", "half", "--grid", "Ln=-1,K=2,Nn=64"),
    ("solve", "whole", "--grid", "T=0"),
    ("solve", "half", "--grid", "K=2,Nn=64,Ln=1e-300"),
    ("solve", "half", "--grid", "K=2,Nn=64,T=1e-300"),
    ("solve", "half", "--grid", "K=2,n=2,N=0,Nn=64"),
    ("solve", "half", "--grid", "K=2,n=2,N=-2,Nn=64"),
    ("solve", "half", "--grid", "K=1.5,Nn=64"),
    ("solve", "half", "--grid", "K=2,Nn=64.5"),
    ("solve", "whole", "--grid", "K=1.5,N=16"),
    ("solve", "whole", "--grid", "K=2,N=16.5"),
])
def test_degenerate_grid_is_one_error_line(capsys, tmp_path, argv):
    out_path = tmp_path / "report.json"
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert code == 1 and out == "" and not out_path.exists()
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_solve_half_ensemble(capsys):
    code, rep = run_json(capsys, "solve", "half", "--grid", "K=4,Nn=64",
                         "--ensemble", "3")
    assert code == 0
    assert len(rep["data"]["ratios"]) == 3
    assert rep["data"]["median_ratio"] > 0


@pytest.mark.parametrize("bc", ["dirichlet", "neumann_13", "no-such-file.json"])
def test_ensemble_refuses_bc(capsys, tmp_path, bc):
    """The system ensemble solves under its own Neumann pair: a --bc it
    would not read is an error, not a config entry."""
    out_path = tmp_path / "report.json"
    code, out, err = run(capsys, "solve", "half", "--ensemble", "1",
                         "--grid", "K=2,Nn=64", "--bc", bc, "--out", str(out_path))
    assert code == 1 and out == "" and not out_path.exists()
    assert len(err.splitlines()) == 1 and err.startswith("error: --bc ")


def test_negative_ensemble_is_one_error_line(capsys, recwarn):
    code, out, err = run(capsys, "solve", "half", "--ensemble", "-1",
                         "--grid", "K=4,Nn=64")
    assert code == 1 and out == ""
    assert err == "error: --ensemble takes a sample count >= 0, not -1\n"
    assert len(recwarn) == 0


@pytest.mark.parametrize("argv, config", [
    (("solve", "half", "--seed", "-1"), None),
    (("solve", "whole", "--seed", "-1"), None),
    (("check", "boundary", "neumann_13", "--seed", "-1"), None),
    (("solve", "whole"), {"seed": -1}),
])
def test_negative_seed_is_one_error_line(capsys, tmp_path, argv, config):
    """A negative seed is named, from a flag or a config file, before
    numpy's random generator refuses it."""
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv += ("--config", str(path))
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: --seed takes an integer >= 0, not -1\n"


def test_median_is_numpy_median():
    rng = np.random.default_rng(0)
    for n in range(1, 8):
        xs = list(rng.normal(size=n) * 10.0 ** rng.uniform(-5, 5, size=n))
        assert _median(xs) == float(np.median(xs))


def test_ensemble_does_not_import_numpy_ma():
    """The ensemble median is taken without np.median, which imports
    numpy.ma (about 10 ms in a cold process)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    script = ("import contextlib, io, sys\n"
              "from maxreg.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = main(['solve', 'half', '--ensemble', '2', '--grid', 'K=2,Nn=64'])\n"
              "print(code, 'numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


@pytest.mark.parametrize("domain", ["whole", "half"])
@pytest.mark.parametrize("grid, expect", [
    ('{"Lx": 1e400}', "error: grid Lx must be a positive finite number, got inf\n"),
    ('{"T": NaN, "K": 2, "N": 8}',
     "error: grid T must be a positive finite number, got nan\n"),
])
def test_non_finite_config_grid_is_one_error_line(capsys, tmp_path, domain, grid,
                                                  expect):
    """A config file can pass the non-finite lengths that --grid rejects."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"grid": {grid}}}')
    code, out, err = run(capsys, "solve", domain, "--config", str(cfg))
    assert code == 1 and out == "" and err == expect


@pytest.mark.parametrize("config, argv", [
    ({"grid": [1, 2]}, ("solve", "half")),
    ({"grid": [1, 2]}, ("check", "ellipticity", "chg-D")),
    ({"resolutions": 5}, ("probe",)),
    ({"grid": {"K": True}}, ("solve", "whole")),
    ({"seed": 1.5}, ("solve", "whole")),
])
def test_config_entry_of_wrong_type_is_one_error_line(capsys, tmp_path, config,
                                                      argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("config, key", [({"foo": 1}, "foo"),
                                         ({"probe": True}, "probe")])
def test_config_entry_that_is_no_option_is_one_error_line(capsys, tmp_path,
                                                          config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, "solve", "half", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err == f"error: config entry {key!r} is not an option\n"


@pytest.mark.parametrize("config, argv, key", [
    ({"lambda": 1}, ("solve", "half"), "lambda"),
    ({"domain": "half"}, ("solve", "whole"), "domain"),
    ({"seed": 1}, ("polygon", "chg-D"), "seed"),
    ({"config": "other.json"}, ("chg",), "config"),
])
def test_config_entry_the_command_does_not_read_is_one_error_line(
        capsys, tmp_path, config, argv, key):
    """A config file sets only the flags of the command it runs: neither a
    flag of another command nor a positional."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 1 and out == ""
    assert err == f"error: config entry {key!r} is not an option\n"


def _command_parsers(parser, prefix=""):
    """{"polygon": parser, ..., "solve whole": parser, ...}: the parsers
    that take flags."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {prefix: parser}
    return {name: p for cmd, sub in subs[0].choices.items()
            for name, p in _command_parsers(sub, f"{prefix} {cmd}".strip()).items()}


def test_each_command_takes_only_the_flags_it_reads():
    """39 option slots over six parsers at the shared-parent design, 33 now."""
    every = {"out", "format", "config"}
    want = {"polygon": set(), "check": {"grid", "lambda", "seed"},
            "chg": {"grid", "lambda"}, "solve whole": {"grid", "seed"},
            "solve half": {"grid", "seed", "bc", "ensemble"},
            "probe": {"resolutions"}, "export": set()}
    flags = {name: {a.dest for a in p._actions
                    if a.option_strings and not isinstance(a, argparse._HelpAction)}
             for name, p in _command_parsers(_build_parser()).items()}
    assert flags == {name: own | every for name, own in want.items()}
    assert sum(map(len, flags.values())) == 33


@pytest.mark.parametrize("argv, message", [
    (("polygon", "chg-D", "--seed", "1"), "unrecognized arguments: --seed 1"),
    (("probe", "--grid", "K=4"), "unrecognized arguments: --grid K=4"),
    (("export", "R", "--lambda", "2"), "unrecognized arguments: --lambda 2"),
    (("chg", "--seed", "1"), "unrecognized arguments: --seed 1"),
    (("solve", "whole", "--bc", "dirichlet"),
     "unrecognized arguments: --bc dirichlet"),
    (("solve", "whole", "--ensemble", "2"), "unrecognized arguments: --ensemble 2"),
    (("solve", "half", "--lambda", "2"), "unrecognized arguments: --lambda 2"),
    (("check", "parity", "chg-D"), "argument what: invalid choice: 'parity'"),
    (("polygon",), "the following arguments are required: target"),
    (("solve",), "the following arguments are required: domain"),
    (("solve", "half", "--seed", "x"), "argument --seed: invalid int value: 'x'"),
    (("chg", "--format", "xml"), "argument --format: invalid choice: 'xml'"),
])
def test_usage_error_is_one_error_line(capsys, tmp_path, monkeypatch, argv,
                                      message):
    """A flag the command does not read, a bad choice or a missing argument
    is a usage error: exit 1, one error line, no output (export would write
    into ./export)."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {message}")
    assert list(tmp_path.iterdir()) == []


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "half", "--help"])
    assert exc.value.code == 0
    assert "--ensemble" in capsys.readouterr().out


# --- probe -----------------------------------------------------------------


def test_probe_growth_table(capsys):
    code, rep = run_json(capsys, "probe", "--resolutions", "8:64,16:64")
    assert code == 0
    rows = rep["data"]["rows"]
    assert [r["K"] for r in rows] == [8, 16]
    assert rep["data"]["trace_norm_growth"] > 1.0
    assert all(r["cond_contrast"] > 1.0 for r in rows)


def test_solve_half_refuses_probe_flag(capsys):
    """The probe report has one route, `maxreg probe`."""
    code, out, err = run(capsys, "solve", "half", "--probe")
    assert code == 1 and out == ""
    assert err == "error: unrecognized arguments: --probe\n"


@pytest.mark.parametrize("resolutions", ["a:64", "16:64:3", "16.5:64", "16"])
def test_bad_resolution_is_named(capsys, resolutions):
    code, out, err = run(capsys, "probe", "--resolutions", f"8:64,{resolutions}")
    assert code == 1 and out == ""
    assert err == (f"error: bad resolution {resolutions!r}: expected K:Nn "
                   f"with integers K and Nn\n")


# --- export ----------------------------------------------------------------


def test_export_polygon_bundle(capsys, tmp_path):
    rep_path = tmp_path / "poly.json"
    run(capsys, "polygon", "chg-D", "--out", str(rep_path))
    out_dir = tmp_path / "bundle"
    code, _, _ = run(capsys, "export", str(rep_path), "--out", str(out_dir))
    assert code == 0
    verts = (out_dir / "polygon_vertices.csv").read_text().splitlines()
    assert verts[0] == "r,s" and len(verts) == 5
    traces = (out_dir / "trace_polygons.csv").read_text().splitlines()
    assert traces[0] == "trace,r,s"
    assert len(traces) == 9  # four trace order functions, two pieces each


def test_export_probe_bundle(capsys, tmp_path):
    rep_path = tmp_path / "probe.json"
    run(capsys, "probe", "--resolutions", "8:64,16:64",
        "--out", str(rep_path))
    out_dir = tmp_path / "bundle"
    code, _, _ = run(capsys, "export", str(rep_path), "--out", str(out_dir))
    assert code == 0
    rows = (out_dir / "growth.csv").read_text().splitlines()
    assert "trace_norm_T2" in rows[0] and len(rows) == 3


def test_export_empty_report_header_only(capsys, tmp_path):
    rep_path = tmp_path / "empty.json"
    rep_path.write_text("{}")
    out_dir = tmp_path / "bundle"
    code, _, _ = run(capsys, "export", str(rep_path), "--out", str(out_dir))
    assert code == 0
    for name in ("polygon_vertices.csv", "trace_polygons.csv", "growth.csv"):
        lines = (out_dir / name).read_text().splitlines()
        assert len(lines) == 1  # header only


@pytest.mark.parametrize("data, growth_header", [
    ([], None),
    ({"rows": 5}, None),
    ({"rows": [1, 2]}, None),
    ({"vertices": 3}, None),
    ({"trace_order_functions": [{"j": 0, "pieces": 5}]}, None),
    ({"rows": []}, "K,Nn,trace_norm_T2,dirichlet_ratio,neumann_ratio,cond_contrast"),
])
def test_export_malformed_report(capsys, tmp_path, data, growth_header):
    """A malformed report ends in one error line, exit 1 and no files; an
    empty row list gets the standard growth.csv header."""
    rep_path = tmp_path / "bad.json"
    rep_path.write_text(json.dumps({"data": data}))
    out_dir = tmp_path / "bundle"
    code, out, err = run(capsys, "export", str(rep_path), "--out", str(out_dir))
    if growth_header is None:
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: report entry ")
        assert not out_dir.exists()
    else:
        assert code == 0
        assert (out_dir / "growth.csv").read_text().splitlines() == [growth_header]


# --- configuration and determinism ----------------------------------------


def test_config_overrides_flags(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda": 0.25}))
    _, rep = run_json(capsys, "check", "ellipticity", "chg-D",
                      "--lambda", "9", "--config", str(cfg))
    assert rep["config"]["lambda"] == 0.25
    assert rep["data"]["report"]["details"]["lambda"] == 0.25


def test_flags_override_defaults(capsys):
    _, rep = run_json(capsys, "check", "ellipticity", "chg-D",
                      "--lambda", "4")
    assert rep["data"]["report"]["details"]["lambda"] == 4.0


def test_deterministic_reports(capsys):
    argv = ("solve", "half", "--grid", "K=4,Nn=64", "--seed", "5")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2
    argv_csv = argv + ("--format", "csv")
    _, csv1, _ = run(capsys, *argv_csv)
    _, csv2, _ = run(capsys, *argv_csv)
    assert csv1 == csv2
    assert csv1.startswith("# maxreg report")


def test_provenance_hash_tracks_config(capsys):
    argv = ("check", "ellipticity", "chg-D", "--grid", "n_tau=16,n_xi=16")
    _, rep1 = run_json(capsys, *argv, "--lambda", "1")
    _, rep2 = run_json(capsys, *argv, "--lambda", "2")
    assert rep1["provenance"]["config_sha256"] \
        != rep2["provenance"]["config_sha256"]


def test_parse_grid():
    assert parse_grid("K=32,Nn=256") == {"K": 32, "Nn": 256}
    assert parse_grid("T=6.5") == {"T": 6.5}
    assert parse_grid(None) == {}


def test_bad_grid_flag(capsys):
    code, _, err = run(capsys, "solve", "whole", "--grid", "K:4")
    assert code == 1 and "grid" in err


def test_unknown_grid_key(capsys):
    code, _, err = run(capsys, "solve", "whole", "--grid", "Q=4")
    assert code == 1 and "unknown grid key" in err


@pytest.mark.parametrize("key", ["foo", "lam"])
@pytest.mark.parametrize("argv", [("check", "boundary", "neumann_13"),
                                  ("check", "ellipticity", "chg-D"),
                                  ("chg",)])
def test_unknown_grid_key_in_certifications(capsys, argv, key):
    """check and chg reject a key that is not a certification-grid field,
    rather than running on the default grid while the report echoes it."""
    code, out, err = run(capsys, *argv, "--grid", f"{key}=1")
    assert code == 1 and out == ""
    assert err == f"error: unknown grid key(s): {key}\n"


@pytest.mark.parametrize("argv, named", [
    (("check", "boundary", "neumann_13", "--grid", "n_tau=0"), "n_tau"),
    (("check", "boundary", "neumann_13", "--lambda", "0"), "lam"),
    (("check", "boundary", "neumann_13", "--grid", "xi_min=0"), "xi_min"),
    (("check", "boundary", "neumann_13", "--grid", "tau_max=1e400"), "tau_max"),
    (("check", "ellipticity", "chg-D", "--grid", "n_xi=-3"), "n_xi"),
    (("check", "mixed-order", "chg-L", "--grid", "n_tau=2.5"), "n_tau"),
    (("chg", "--grid", "xi_max=nan"), "xi_max"),
    (("chg", "--lambda", "0"), "lam"),
    (("check", "boundary", "neumann_13", "--lambda", "inf"), "lam"),
    (("solve", "whole", "--grid", "T=nan"), "'T'"),
    (("check", "boundary", "neumann_13", "--grid", "xi_max=1e100"),
     "weight not finite at tau=-1000000.0, |xi|="),
    (("chg", "--grid", "xi_max=1e100"),
     "symbol evaluation not finite at tau=-1000000.0, |xi|="),
])
def test_bad_certification_grid_is_one_error_line(capsys, argv, named):
    """A grid value out of range or not finite is named before any work; a
    grid on which a symbol or weight overflows names the first mesh point
    that does."""
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert named in err


def test_csv_table_rendering(capsys):
    code, out, _ = run(capsys, "probe", "--resolutions", "8:64",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("# table rows") for line in lines)
    assert any(line.startswith("# summary") for line in lines)


@pytest.mark.parametrize("argv, limit_mib", [
    (("check", "boundary", "neumann_13", "--grid", "n_tau=256,n_xi=256"), 26),
    (("solve", "whole", "--grid", "K=32,n=2,N=64"), 48),
])
def test_peak_traced_memory(capsys, argv, limit_mib):
    """Matrix entries keep their own broadcast shape and no (m, m, ...)
    stack is built: a stack of the 16 entries of B^(0) on the 512 x 257
    mesh alone takes 32 MiB."""
    tracemalloc.start()
    try:
        code, _, _ = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < limit_mib * 2 ** 20
