"""Tests for the command-line driver: exit codes, determinism, formats."""

import json

import pytest

from maxreg.boundary import bc_to_jsonable, neumann_pair_13
from maxreg.cli import main, parse_grid
from maxreg.factorization import d_symbol


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code in (0, 2), err
    return code, json.loads(out)


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
    obj = bc_to_jsonable(neumann_pair_13())
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


# --- probe -----------------------------------------------------------------


def test_probe_growth_table(capsys):
    code, rep = run_json(capsys, "probe", "--resolutions", "8:64,16:64")
    assert code == 0
    rows = rep["data"]["rows"]
    assert [r["K"] for r in rows] == [8, 16]
    assert rep["data"]["trace_norm_growth"] > 1.0
    assert all(r["cond_contrast"] > 1.0 for r in rows)


def test_solve_half_probe_flag(capsys, tmp_path):
    # --probe on solve half emits the same growth table shape
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"resolutions": "8:64,16:64"}))
    code, rep = run_json(capsys, "solve", "half", "--probe",
                         "--config", str(cfg))
    assert code == 0
    assert [r["K"] for r in rep["data"]["rows"]] == [8, 16]


def test_solve_half_probe_is_the_probe_report(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"resolutions": "8:64,16:64"}))
    _, solve = run_json(capsys, "solve", "half", "--probe",
                        "--config", str(cfg))
    _, probe = run_json(capsys, "probe", "--resolutions", "8:64,16:64")
    assert solve["data"] == probe["data"]
    assert solve["summary"] == probe["summary"]


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
    _, rep1 = run_json(capsys, "polygon", "chg-D")
    _, rep2 = run_json(capsys, "polygon", "chg-D", "--seed", "1")
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


def test_csv_table_rendering(capsys):
    code, out, _ = run(capsys, "probe", "--resolutions", "8:64",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("# table rows") for line in lines)
    assert any(line.startswith("# summary") for line in lines)
