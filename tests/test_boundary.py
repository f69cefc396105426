"""Tests for extended boundary matrices and the two solvability checks."""

from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from maxreg import boundary, factorization, polygons
from maxreg.boundary import (
    BoundaryOperator,
    _default_chi,
    bc_from_jsonable,
    build_extended_matrix,
    builtin_boundary_conditions,
    complementing_check,
    dirichlet_pair,
    dplus_band,
    neumann_pair_13,
    trace_operator,
)
from maxreg.factorization import MU_D, chg_matrix, dplus_coeffs, roots
from maxreg.polygons import (
    ZERO_OF,
    as_diff,
    o_elem,
    of_add,
    of_const,
    of_neg,
    trace_order_function,
    weight_eval,
)
from maxreg.symbols import (
    GridSpec,
    _is_zero,
    _upper_report,
    MatrixSymbol,
    PolySymbol,
    det_values,
    invertibility_report,
    mesh_axes,
    mixed_order_certify,
    sample_matrix,
)

O_HALF = o_elem(F(1, 2))

# the Tr_1/Tr_3 Neumann pair as a boundary file: numbers read as constant
# coefficients, and each operator without chi targets T_j(mu_D)
NEUMANN_FILE = {"ops": [{"coeffs": [0, 1, 0, 0]}, {"coeffs": [0, 0, 0, 1]}],
                "nu": ZERO_OF.to_jsonable()}


def stacked(rows):
    """Entry rows (MatrixSymbol.evaluate) as one broadcast (..., m, m) array."""
    flat = np.broadcast_arrays(*(v for row in rows for v in row))
    return np.stack(flat, axis=-1).reshape(flat[0].shape + (len(rows),) * 2)


def _sample_points():
    rng = np.random.default_rng(11)
    tau = rng.uniform(-1e3, 1e3, 40)
    tau[np.abs(tau) < 1e-2] = 2.0
    xip = 10.0 ** rng.uniform(-2, 2, 40)
    return tau, xip


def test_neumann_matrix_symbolic_match():
    """Entries match [[0,1,0,0],[0,0,0,1],[d0,d1,-1,0],[0,d0,d1,-1]]."""
    B = build_extended_matrix(neumann_pair_13())
    tau, xip = _sample_points()
    fc = dplus_coeffs(tau, xip)
    z = np.zeros_like(fc.d0_plus)
    one = np.ones_like(fc.d0_plus)
    expect = np.moveaxis(np.array([
        [z, one, z, z],
        [z, z, z, one],
        [fc.d0_plus, fc.d1_plus, -one, z],
        [z, fc.d0_plus, fc.d1_plus, -one]]), (0, 1), (-2, -1))
    got = stacked(B.evaluate(tau, xip))
    assert np.abs(got - expect).max() < 1e-12


def test_constant_entries_are_0d():
    """B^(0)'s 12 constant entries evaluate to 0-d values; only d0+ and d1+
    fill the mesh."""
    tau, xi = mesh_axes(GridSpec(n_tau=16, n_xi=16))
    vals = build_extended_matrix(neumann_pair_13()).evaluate(tau, xi)
    shapes = {(i, j): v.shape for i, row in enumerate(vals) for j, v in enumerate(row)}
    full = {(2, 0), (2, 1), (3, 1), (3, 2)}
    assert {k for k, s in shapes.items() if s == (32, 17)} == full
    assert all(s == () for k, s in shapes.items() if k not in full)


@pytest.mark.parametrize("matrix", [
    lambda: build_extended_matrix(neumann_pair_13()),
    lambda: build_extended_matrix(dirichlet_pair()),
    lambda: build_extended_matrix(dirichlet_pair(), m=1, nu=of_const(1)),
])
def test_det_values_with_0d_zeros_matches_lapack(matrix):
    """Rows that mix 0-d exact zeros with mesh-filling entries give LAPACK's
    determinant of the broadcast stack to 1e-12 relative."""
    tau, xi = mesh_axes(GridSpec(n_tau=16, n_xi=16))
    rows = matrix().evaluate(tau, xi)
    assert any(np.ndim(v) == 0 and v == 0 for row in rows for v in row)
    ref = np.linalg.det(stacked(rows))
    got = np.broadcast_to(det_values(rows), ref.shape)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))


def test_dirichlet_matrix_symbolic_match():
    B = build_extended_matrix(dirichlet_pair())
    tau, xip = 5.0, 0.7
    fc = dplus_coeffs(tau, xip)
    expect = np.array([
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [fc.d0_plus, fc.d1_plus, -1, 0],
        [0, fc.d0_plus, fc.d1_plus, -1]])
    assert np.abs(B.evaluate(tau, xip) - expect).max() < 1e-12


def test_band_structure_audit():
    """Rows >= 3 satisfy entry(i,j) = d+_{j+2-i} exactly, for several m."""
    tau, xip = 7.0, 1.3
    fc = dplus_coeffs(tau, xip)
    dplus = {0: fc.d0_plus, 1: fc.d1_plus, 2: -1.0}
    for m in (0, 1, 3):
        nu = of_const(m)
        B = build_extended_matrix(neumann_pair_13(), m=m, nu=nu)
        got = B.evaluate(tau, xip)
        size = 4 + m
        for i in range(3, size + 1):
            for j in range(1, size + 1):
                expect = dplus.get(j + 2 - i, 0.0)
                assert got[i - 1][j - 1] == pytest.approx(expect, abs=1e-14)


def test_neumann_det_is_minus_d0_d1():
    B = build_extended_matrix(neumann_pair_13())
    tau, xip = _sample_points()
    fc = dplus_coeffs(tau, xip)
    expect = -fc.d0_plus * fc.d1_plus
    got = det_values(B.evaluate(tau, xip))
    assert np.abs(got - expect).max() / np.abs(expect).max() < 1e-12


def test_neumann_m1_det_is_plus_d0_d1():
    B = build_extended_matrix(neumann_pair_13(), m=1, nu=of_const(1))
    tau, xip = _sample_points()
    fc = dplus_coeffs(tau, xip)
    expect = fc.d0_plus * fc.d1_plus
    got = det_values(B.evaluate(tau, xip))
    assert np.abs(got - expect).max() / np.abs(expect).max() < 1e-10


def test_neumann_column_orders():
    B = build_extended_matrix(neumann_pair_13())
    expect = (O_HALF.scale(2) + of_const(F(3, 2)),
              O_HALF.scale(2) + of_const(F(1, 2)),
              O_HALF.scale(F(3, 2)),
              O_HALF.scale(F(1, 2)))
    assert B.col_orders == tuple(as_diff(e) for e in expect)


def test_neumann_row_orders():
    B = build_extended_matrix(neumann_pair_13())
    expect = (of_neg(O_HALF.scale(2) + of_const(F(1, 2))),  # -T_1(mu_D)
              of_neg(O_HALF.scale(F(1, 2))),                # -T_3(mu_D)
              of_neg(O_HALF + of_const(F(1, 2))),           # -T_0(mu_-)
              of_neg(O_HALF.scale(F(1, 2))))                # -T_1(mu_-)
    assert B.row_orders == expect


def test_lopatinskii_neumann_passes():
    out = complementing_check(neumann_pair_13())["lopatinskii"]
    assert out["pass"] and out["min_abs_det"] > 0


def test_lopatinskii_dirichlet_det_is_one():
    out = complementing_check(dirichlet_pair())["lopatinskii"]
    assert out["pass"]
    assert abs(out["min_abs_det"] - 1.0) < 1e-12
    assert abs(out["max_abs_det"] - 1.0) < 1e-12


def test_lopatinskii_zero_operators_fail():
    z = BoundaryOperator((0, 0, 0, 0), chi=O_HALF)
    tau, xi, _, abs_det = sample_matrix(build_extended_matrix((z, z)), GridSpec())
    out = invertibility_report(tau, xi, abs_det)
    assert not out["pass"] and out["min_abs_det"] == 0.0


def test_complementing_neumann_nu0():
    out = complementing_check(neumann_pair_13())
    assert out["passed"]
    assert out["delta"] == as_diff(O_HALF.scale(2) + of_const(1))
    assert out["lopatinskii"]["pass"]


def test_complementing_neumann_nu1():
    out = complementing_check(neumann_pair_13(), nu=of_const(1))
    assert out["passed"]
    assert out["matrix"].m == 5
    assert out["delta"] == as_diff(O_HALF.scale(2) + of_const(1))


def test_complementing_dirichlet_fails_with_witness():
    out = complementing_check(dirichlet_pair())
    assert not out["passed"]
    assert out["lopatinskii"]["pass"]  # LS holds; complementing does not
    delta = of_add(of_neg(of_const(F(1, 2))), O_HALF.scale(F(1, 2)))
    assert out["delta"] == delta
    w = out["decay_witness"]
    assert w is not None and w["ray_xi"] == 0.0
    assert w["slope"] == pytest.approx(-0.25, abs=0.02)


def test_complementing_implies_lopatinskii():
    pairs = [neumann_pair_13(), dirichlet_pair(),
             (trace_operator(0), trace_operator(2)),
             (trace_operator(2), trace_operator(3))]
    for bc in pairs:
        out = complementing_check(bc)
        if out["passed"]:
            assert out["lopatinskii"]["pass"]


def test_apply_to_traces_on_arrays_matches_each_column():
    """B u = sum_j b_j(tau, |xi'|) Tr_j u on column arrays, column by column."""
    op = BoundaryOperator((PolySymbol(1, True, ((1j, 1, 0), (1.0, 0, 2))), 0.5,
                           dplus_band()[1], 1j))
    tau, xip = _sample_points()
    rng = np.random.default_rng(3)
    tr = rng.normal(size=(4, tau.size)) + 1j * rng.normal(size=(4, tau.size))
    per_column = [sum(complex(c(t, x)) * tr[j, i] for j, c in enumerate(op.coeffs))
                  for i, (t, x) in enumerate(zip(tau, xip))]
    np.testing.assert_allclose(op.apply_to_traces(tau, xip, tr), per_column,
                               rtol=1e-13)


def test_non_radial_coefficient_is_rejected():
    with pytest.raises(ValueError, match="radial entries"):
        BoundaryOperator((PolySymbol(2, False, ((1.0, 0, (1, 0)),)), 0, 0, 0))


@pytest.mark.parametrize("certify", [
    lambda grid: complementing_check(neumann_pair_13(), grid=grid),
    lambda grid: complementing_check(neumann_pair_13(), nu=of_const(1),
                                     grid=grid),
    lambda grid: mixed_order_certify(chg_matrix(), grid=grid),
])
def test_one_matrix_evaluation_per_certification(monkeypatch, certify):
    calls = []
    evaluate = MatrixSymbol.evaluate

    def counted(self, tau, xi):
        calls.append(self)
        return evaluate(self, tau, xi)
    monkeypatch.setattr(MatrixSymbol, "evaluate", counted)
    out = certify(GridSpec(n_tau=16, n_xi=16))
    assert out["passed"] and len(calls) == 1


def test_complementing_check_takes_the_roots_at_most_once(monkeypatch):
    """d0+ and d1+ each sit twice in the band; both come from one roots call."""
    calls = []
    real = factorization.roots

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(factorization, "roots", counted)
    assert complementing_check(neumann_pair_13())["passed"]
    assert len(calls) <= 1


def test_dplus_band_matches_the_single_symbols():
    """A band entry evaluated at new (tau, xi) objects takes fresh roots,
    whichever of the pair came first."""
    d0, d1 = dplus_band()
    tau, xip = _sample_points()
    other = (tau + 1.0, xip * 2.0)
    np.testing.assert_array_equal(d0(tau, xip), dplus_coeffs(tau, xip).d0_plus)
    np.testing.assert_array_equal(d1(*other), dplus_coeffs(*other).d1_plus)
    np.testing.assert_array_equal(d1(tau, xip), dplus_coeffs(tau, xip).d1_plus)
    np.testing.assert_array_equal(d0(tau, xip), dplus_coeffs(tau, xip).d0_plus)


def test_loaded_file_shares_one_band(monkeypatch):
    """A file that names d0_plus and d1_plus takes D+'s coefficients once
    per evaluation at one (tau, xi), whichever operator holds them."""
    obj = {**NEUMANN_FILE, "ops": [{"coeffs": [{"ref": "d0_plus"}, 1, 0, 0]},
                                   {"coeffs": [{"ref": "d1_plus"}, 0, 0, 1]}]}
    (op1, op2), _, _ = bc_from_jsonable(obj)
    calls = []
    real = boundary.dplus_coeffs

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(boundary, "dplus_coeffs", counted)
    tau, xip = _sample_points()
    for other in ((tau + 1.0, xip * 2.0), (tau, xip)):
        calls.clear()
        d0 = op1.coeffs[0](*other)
        d1 = op2.coeffs[0](*other)
        assert len(calls) == 1
        fc = real(*other)
        np.testing.assert_array_equal(d0, fc.d0_plus)
        np.testing.assert_array_equal(d1, fc.d1_plus)


CERT_MESH = GridSpec(n_tau=256, n_xi=256)


def test_dirichlet_determinant_is_exactly_one():
    M = build_extended_matrix(dirichlet_pair())
    tau, xi, vals, abs_det = sample_matrix(M, CERT_MESH)
    assert np.all(det_values(vals) == 1.0)
    rep = invertibility_report(tau, xi, abs_det)
    assert rep["min_abs_det"] == rep["max_abs_det"] == 1.0


def test_neumann_determinant_is_exactly_minus_d0_d1():
    M = build_extended_matrix(neumann_pair_13())
    tau, xi, vals, _ = sample_matrix(M, CERT_MESH)
    fc = dplus_coeffs(tau, xi)
    np.testing.assert_array_equal(det_values(vals), -(fc.d0_plus * fc.d1_plus))


@pytest.mark.parametrize("matrix", [
    lambda: build_extended_matrix(neumann_pair_13()),
    lambda: build_extended_matrix(dirichlet_pair(), m=1, nu=of_const(1)),
    chg_matrix,
])
def test_one_weight_per_positive_part(monkeypatch, matrix):
    M = matrix()
    calls = []
    real = polygons._weight_positive

    def counted(mu, tau, xi):
        calls.append(mu)
        return real(mu, tau, xi)
    monkeypatch.setattr(polygons, "_weight_positive", counted)
    mixed_order_certify(M, grid=GridSpec(n_tau=16, n_xi=16))
    orders = [of_add(s, t) for s in M.row_orders for t in M.col_orders]
    parts = {p for mu in orders + [M.delta()] for p in (mu.plus, mu.minus)}
    assert len(calls) == len(parts) and set(calls) == parts


def test_complementing_lopatinskii_matches_standalone_check():
    grid = GridSpec(n_tau=16, n_xi=16)
    for bc in (neumann_pair_13(), dirichlet_pair()):
        out = complementing_check(bc, grid=grid)
        tau, xi, _, abs_det = sample_matrix(out["matrix"], grid)
        assert out["lopatinskii"] == invertibility_report(tau, xi, abs_det)
        assert "invertibility" not in out


def _ls_division_oracle(bc, tau, xip, tol=1e-8):
    """Independence of B_1, B_2 modulo D+ via explicit polynomial division."""
    rq = roots(tau, xip)
    # D+(z) = (z - rho1+)(z - rho2+); remainders of B_i(z) = sum b_j (iz)^j
    dplus = np.array([1.0, -(rq.rho1_plus + rq.rho2_plus),
                      rq.rho1_plus * rq.rho2_plus])
    rem = []
    for op in bc:
        coeffs = [complex(c(tau, xip)) * 1j ** j
                  for j, c in enumerate(op.coeffs)]
        poly = np.array(coeffs[::-1], dtype=complex)  # descending in z
        _, r = np.polydiv(poly, dplus)
        r = np.concatenate([np.zeros(2 - len(r), complex), r])
        rem.append(r)
    scale = max(np.abs(np.array(rem)).max(), 1.0)
    return abs(np.linalg.det(np.array(rem))) / scale ** 2 > tol


def test_ls_matches_polynomial_division_oracle():
    """Extended-matrix invertibility equals independence mod D+ pointwise."""
    rng = np.random.default_rng(5)
    grid = GridSpec(n_tau=8, n_xi=8)
    tau_values = grid.tau_values()[::4]
    xi_values = grid.xi_norms()[1::3]
    base = [neumann_pair_13(), dirichlet_pair()]
    # random perturbations, including a deliberately dependent pair
    for trial in range(6):
        if trial < 4:
            c1 = rng.normal(size=4).round(1)
            c2 = rng.normal(size=4).round(1)
        else:
            c1 = rng.normal(size=4).round(1)
            c2 = 2.0 * c1  # proportional operators: LS must fail
        bc = (BoundaryOperator(tuple(c1), chi=O_HALF),
              BoundaryOperator(tuple(c2), chi=O_HALF))
        B = build_extended_matrix(bc)
        for tau in tau_values:
            for xip in xi_values:
                det_pass = abs(det_values(B.evaluate(tau, xip))) > 1e-8 * max(
                    1.0, abs(dplus_coeffs(tau, xip).d0_plus)) ** 2
                oracle_pass = _ls_division_oracle(bc, float(tau), float(xip))
                assert det_pass == oracle_pass, (trial, tau, xip)


def test_builtin_catalog():
    cat = builtin_boundary_conditions()
    assert len(cat) >= 2
    neu = cat["neumann_13"]()
    assert neu[0].chi == as_diff(O_HALF.scale(2) + of_const(F(1, 2)))
    assert neu[1].chi == as_diff(O_HALF.scale(F(1, 2)))
    dir_ = cat["dirichlet"]()
    assert dir_[0].chi == as_diff(trace_order_function(MU_D, 0))
    assert dir_[1].chi == as_diff(trace_order_function(MU_D, 1))


def test_leading_trace():
    assert trace_operator(3).leading_trace() == 3
    op = BoundaryOperator((1.0, 0, 2.0, 0))
    assert op.leading_trace() == 2


def test_nu_must_keep_shape():
    bad = o_elem(F(1, 3))  # mu_D + o_{1/3} is not CHG-shaped
    with pytest.raises(ValueError):
        build_extended_matrix(neumann_pair_13(), nu=bad)


def test_bc_file_round_trip():
    bc = neumann_pair_13()
    obj = {"ops": [{"coeffs": [{"poly": c.to_jsonable()} for c in op.coeffs],
                    "chi": op.chi.to_jsonable(), "name": op.name} for op in bc],
           "m": 1, "nu": of_const(1).to_jsonable()}
    ops, m, nu = bc_from_jsonable(obj)
    assert m == 1 and nu == of_const(1)
    assert len(ops) == 2
    for a, b in zip(ops, bc):
        assert a.chi == b.chi and a.name == b.name
        assert a.coeffs == b.coeffs
        for ca, cb in zip(a.coeffs, b.coeffs):
            assert ca(3.0, 2.0) == pytest.approx(cb(3.0, 2.0))
    import json
    json.dumps(obj)  # representation is pure JSON


def test_bc_file_numbers_are_constant_symbols():
    """A number in a file reads as the constant symbol BoundaryOperator makes
    of it, so a 0 counts as zero when the leading trace is taken."""
    obj = {"ops": [{"coeffs": [0, 1, 0, 0]},
                   {"coeffs": [0.0, 0, 0, {"re": 1.0, "im": 0.0}]}],
           "nu": ZERO_OF.to_jsonable()}
    ops, _, _ = bc_from_jsonable(obj)
    assert ops[0].coeffs == trace_operator(1).coeffs
    assert ops[1].coeffs == trace_operator(3).coeffs
    assert [op.leading_trace() for op in ops] == [1, 3]


def test_boundary_operator_evaluate_at_root():
    op = trace_operator(2)
    assert op.evaluate_at_root(2.0, 1.0, 3.0) == pytest.approx((3j) ** 2)


def test_builtin_chi_is_the_default_target():
    """Each builtin operator's attached chi is the target T_j(mu_D) that an
    operator without one defaults to."""
    for make in builtin_boundary_conditions().values():
        for op in make():
            assert _default_chi(replace(op, chi=None), ZERO_OF) == op.chi


def _file_pair_m1():
    """The Neumann pair read back from a boundary file with m = 1, nu = 1."""
    return bc_from_jsonable({**NEUMANN_FILE, "m": 1, "nu": of_const(1).to_jsonable()})


@pytest.mark.parametrize("pair", [
    lambda: (neumann_pair_13(), 0, ZERO_OF),
    lambda: (dirichlet_pair(), 0, ZERO_OF),
    _file_pair_m1,
], ids=["neumann_13", "dirichlet", "file_m1"])
@pytest.mark.parametrize("grid", [GridSpec(), GridSpec(n_tau=40, n_xi=23)],
                         ids=["default", "40x23"])
def test_exact_zero_entry_reports_match_the_full_mesh(pair, grid):
    """An exact-zero entry of B^(m) is reported without mesh work; every
    entry report equals the one taken from |v| / W on the full mesh."""
    bc, m, nu = pair()
    out = complementing_check(bc, nu=nu, m=m, grid=grid)
    B = out["matrix"]
    tau, xi, vals, _ = sample_matrix(B, grid)
    zeros = 0
    for i, s in enumerate(B.row_orders):
        for j, t in enumerate(B.col_orders):
            v = vals[i][j]
            zeros += int(_is_zero(v))
            want = _upper_report(tau, xi, np.abs(v) / weight_eval(of_add(s, t), tau, xi),
                                 grid)
            got = out["entries"][f"{i},{j}"]
            assert (got.c_upper, got.passed, got.details) \
                == (want.c_upper, want.passed, want.details)
    assert zeros == {0: 8, 1: 14}[m]
