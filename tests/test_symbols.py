"""Tests for symbol representation, algebra, and grid certification."""

import re
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxreg.factorization import MU_D, chg_matrix, d_symbol
from maxreg.polygons import (
    OrderFunction,
    as_diff,
    o_elem,
    of_add,
    of_const,
    order_function_of,
    polygon_from_exponents,
    qpoint,
)
from maxreg.symbols import (
    GridSpec,
    MatrixSymbol,
    PolySymbol,
    SymbolFn,
    adjugate,
    as_symbol,
    det,
    det_values,
    ellipticity_certify,
    mesh_axes,
    mixed_order_certify,
    normal_coeffs,
    sample_matrix,
)
from maxreg.symbols import _ray_decay_witness, _sample_ratio, _upper_report


def upper_bound_certify(sym, mu, grid=GridSpec()):
    """The upper-bound report of one symbol, sampled alone: the reference
    for the entry reports of mixed_order_certify."""
    return _upper_report(*_sample_ratio(as_symbol(sym), as_diff(mu), grid), grid)


def stacked(rows):
    """Entry rows (MatrixSymbol.evaluate) as one broadcast (..., m, m) array."""
    flat = np.broadcast_arrays(*(v for row in rows for v in row))
    return np.stack(flat, axis=-1).reshape(flat[0].shape + (len(rows),) * 2)


def test_exponent_set_of_d():
    assert d_symbol().exponent_set() == {qpoint(4, 0), qpoint(2, 1), qpoint(0, 1)}


def test_exponent_set_trivial():
    one = PolySymbol(1, True, ((1.0, 0, 0),))
    itau = PolySymbol(1, True, ((1j, 1, 0),))
    assert one.exponent_set() == {qpoint(0, 0)}
    assert itau.exponent_set() == {qpoint(0, 1)}


def test_eval_d():
    # D at (tau, xi) = (1, e1): i + 1*(i + 1) = 1 + 2i
    assert d_symbol()(1.0, 1.0) == pytest.approx(1 + 2j)


def test_eval_l12():
    L = chg_matrix()
    assert L.entries[0][1](3.0, 2.0) == pytest.approx(4.0)


def test_eval_zero_polynomial():
    z = PolySymbol(1, True, ())
    assert z(5.0, 2.0) == pytest.approx(0.0)


def test_duplicate_monomials_merge_and_prune():
    p = PolySymbol(1, True, ((1.0, 1, 2), (2.0, 1, 2), (-3.0, 1, 2)))
    assert p.monomials == ()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 3), st.integers(0, 4)),
                min_size=1, max_size=4),
       st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 3), st.integers(0, 4)),
                min_size=1, max_size=4))
def test_product_exponent_set_minkowski(m1, m2):
    p = PolySymbol(1, True, tuple((complex(c), i, a) for c, i, a in m1))
    q = PolySymbol(1, True, tuple((complex(c), i, a) for c, i, a in m2))
    prod = p * q
    mink = {(qp.r + qq.r, qp.s + qq.s)
            for qp in p.exponent_set() for qq in q.exponent_set()}
    got = {(v.r, v.s) for v in prod.exponent_set()}
    assert got <= mink  # equality up to cancellation
    # brute-force expansion oracle at sample points
    for tau, xi in [(1.0, 1.0), (2.0, 0.5), (-3.0, 2.0)]:
        assert prod(tau, xi) == pytest.approx(p(tau, xi) * q(tau, xi), abs=1e-9)


def test_det_of_chg_matrix_is_d():
    """D = det L = i tau + |xi|^2 (i tau + |xi|^2), monomial for monomial."""
    for n in (1, 2):
        D = PolySymbol(n, True, ((1j, 1, 0), (1j, 1, 2), (1.0, 0, 4)))
        assert det(chg_matrix(n)) == D
        assert d_symbol(n) == D


@pytest.mark.parametrize("n", [1, 2])
def test_adjugate_of_chg_matrix_is_the_hand_written_one(n):
    """ad L = [[1, -|xi|^2], [i tau + |xi|^2, i tau]], monomial for monomial."""
    def poly(*monos):
        return PolySymbol(n, True, monos)
    assert adjugate(chg_matrix(n)).entries == (
        (poly((1.0, 0, 0)), poly((-1.0, 0, 2))),
        (poly((1j, 1, 0), (1.0, 0, 2)), poly((1j, 1, 0))))


@pytest.mark.parametrize("n", [1, 2])
def test_chg_matrix_times_its_adjugate_is_det_times_identity(n):
    """L ad L = det L I, exactly, as polynomials."""
    L = chg_matrix(n).entries
    adj = adjugate(chg_matrix(n)).entries
    D = det(chg_matrix(n))
    zero = PolySymbol(n, True, ())
    for i in range(2):
        for j in range(2):
            got = L[i][0] * adj[0][j] + L[i][1] * adj[1][j]
            assert got == (D if i == j else zero)


def test_det_and_adjugate_take_polynomial_entries_only():
    """The extended boundary matrix holds the D+ band, which is no polynomial."""
    from maxreg.boundary import build_extended_matrix, neumann_pair_13
    B = build_extended_matrix(neumann_pair_13())
    with pytest.raises(TypeError):
        det(B)
    with pytest.raises(TypeError):
        adjugate(B)


def test_adjugate_of_chg_matrix():
    adj = adjugate(chg_matrix())
    tau, xi = 2.0, 3.0
    expect = np.array([[1.0, -9.0], [2j + 9.0, 2j]])
    got = adj.evaluate(tau, xi)
    assert np.allclose(got, expect, atol=1e-12)


def test_adjugate_identity_random():
    rng = np.random.default_rng(1)
    L = chg_matrix()
    adj = adjugate(L)
    dd = det(L)
    worst = 0.0
    for _ in range(100):
        tau = rng.uniform(-100, 100)
        if tau == 0:
            continue
        xi = rng.uniform(0, 30)
        M = stacked(L.evaluate(tau, xi))
        A = stacked(adj.evaluate(tau, xi))
        dI = dd(tau, xi) * np.eye(2)
        worst = max(worst, np.linalg.norm(M @ A - dI) / (1 + np.linalg.norm(dI)))
    assert worst < 1e-10


def test_det_of_one_by_one_is_its_entry():
    e = as_symbol(PolySymbol(1, True, ((0.3 + 1.7j, 1, 2), (-2.1, 0, 3))))
    tau, xi = mesh_axes(GridSpec(n_tau=16, n_xi=16))
    np.testing.assert_array_equal(det(MatrixSymbol(((e,),)))(tau, xi),
                                  e(tau, xi))


def test_polynomial_entries_are_kept_as_given():
    p = PolySymbol(1, True, ((0.3 + 1.7j, 1, 2),))
    M = MatrixSymbol(((p,),))
    assert M.entries[0][0] is p
    assert det(M) is p


def test_number_is_the_constant_polynomial():
    c = as_symbol(2.5)
    assert c == PolySymbol(1, True, ((2.5, 0, 0),))
    tau, xi = mesh_axes(GridSpec(n_tau=16, n_xi=16))
    val = c(tau, xi)
    assert val.shape == () and val == 2.5


def test_normal_coeffs_takes_only_a_polynomial():
    """A SymbolFn is an evaluation map, even one that wraps a polynomial."""
    with pytest.raises(ValueError):
        normal_coeffs(SymbolFn(fn=d_symbol()))


def test_axis_evaluation_matches_the_mesh():
    """Symbols and weights on the broadcast axes give, bit for bit, what they
    give on the full meshgrid, and the reports name the mesh points."""
    from maxreg.boundary import build_extended_matrix, neumann_pair_13
    from maxreg.polygons import weight_eval
    grid = GridSpec(n_tau=16, n_xi=16)
    T, X = np.meshgrid(grid.tau_values(), grid.xi_norms(), indexing="ij")
    M = build_extended_matrix(neumann_pair_13())
    tau, xi, axis_vals, abs_det = sample_matrix(M, grid)
    vals = M.evaluate(T, X)
    np.testing.assert_array_equal(stacked(axis_vals), stacked(vals))
    np.testing.assert_array_equal(abs_det, np.abs(det_values(vals)))
    np.testing.assert_array_equal(weight_eval(M.delta(), tau, xi),
                                  weight_eval(M.delta(), T, X))

    def point(k):
        return {"tau": T[k], "xi": X[k]}
    out = mixed_order_certify(M, grid=grid)
    for i, s in enumerate(M.row_orders):
        for j, t in enumerate(M.col_orders):
            ratio = np.abs(vals[i][j]) / weight_eval(of_add(s, t), T, X)
            k = np.unravel_index(ratio.argmax(), ratio.shape)
            assert out["entries"][f"{i},{j}"].details["argmax"] == point(k)
    k = np.unravel_index(abs_det.argmin(), abs_det.shape)
    assert out["invertibility"]["argmin"] == point(k)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_det_values_matches_lapack(m):
    """Within 1e-12 of the Hadamard bound prod ||row_i||, rows scaled from
    1e-6 to 1e6."""
    rng = np.random.default_rng(m)
    a = rng.normal(size=(300, m, m)) + 1j * rng.normal(size=(300, m, m))
    a *= 10.0 ** rng.uniform(-6, 6, size=(300, m, 1))
    bound = np.prod(np.linalg.norm(a, axis=-1), axis=-1)
    got = det_values([[a[:, i, j] for j in range(m)] for i in range(m)])
    assert got.shape == (300,)
    assert np.all(np.abs(got - np.linalg.det(a)) <= 1e-12 * bound)


def test_det_values_is_a_new_array():
    a = np.ones((3, 1, 1), complex)
    det_values([[a[:, 0, 0]]])[:] = 5.0
    assert np.all(a == 1.0)


def test_ray_slopes_match_polyfit():
    """The batched fit gives each ray's np.polyfit slope to 1e-13."""
    grid = GridSpec(n_tau=64, n_xi=32)
    M = chg_matrix()
    tau, xi, _, abs_det = sample_matrix(M, grid)
    from maxreg.polygons import weight_eval
    ratio = abs_det / weight_eval(M.delta(), tau, xi)
    rays = _ray_decay_witness(tau, xi, ratio, grid)
    half = tau.shape[0] // 2
    top = tau[half:, 0] >= grid.tau_max ** 0.75
    logt = np.log(tau[half:, 0][top])
    for j, ray in enumerate(rays):
        vals = ratio[half:, j][top]
        assert ray["slope"] == pytest.approx(
            np.polyfit(logt, np.log(vals), 1)[0], abs=1e-13)
        assert ray["ratio_at_end"] == vals[-1]


def test_zero_ratio_ray_has_slope_minus_inf():
    """|det| = |xi|^2 vanishes on the xi = 0 ray: that ray is the witness,
    with slope -inf, and no log(0) is taken."""
    M = MatrixSymbol(((PolySymbol(1, True, ((1.0, 0, 2),)),),),
                     row_orders=(as_diff(0),), col_orders=(as_diff(0),))
    out = mixed_order_certify(M, GridSpec(n_tau=16, n_xi=16))
    assert out["decay_witness"] == {"ray_xi": 0.0, "slope": float("-inf"),
                                    "ratio_at_end": 0.0}
    assert not out["passed"]


@pytest.mark.parametrize("grid", [GridSpec(n_tau=1, n_xi=4),
                                  GridSpec(n_tau=2, n_xi=4),
                                  GridSpec(tau_max=1.0, n_xi=4)])
def test_ray_fit_needs_two_tau_in_the_window(grid):
    """A top tau-decade without two distinct samples has no slope to fit."""
    with pytest.raises(ValueError, match="decay fit needs two distinct tau"):
        mixed_order_certify(chg_matrix(), grid)


def test_non_finite_point_is_located_on_the_mesh():
    """The first non-finite value in row-major mesh order is reported, here
    at an inner tau and |xi|."""
    grid = GridSpec(n_tau=16, n_xi=16)
    T, X = np.meshgrid(grid.tau_values(), grid.xi_norms(), indexing="ij")
    k = tuple(np.argwhere((T > 5) & (X > 2))[0])
    expect = f"symbol evaluation not finite at tau={T[k]}, |xi|={X[k]}"
    sym = SymbolFn(fn=lambda t, x: np.where((t > 5) & (x > 2), np.inf, 1.0))
    with pytest.raises(FloatingPointError, match=re.escape(expect)):
        upper_bound_certify(sym, 0, grid)
    with pytest.raises(FloatingPointError, match=re.escape(expect)):
        sample_matrix(MatrixSymbol(((1, 0), (0, sym))), grid)


def test_identity_matrix_det_adj():
    I = MatrixSymbol(((1, 0), (0, 1)),
                     row_orders=(as_diff(0), as_diff(0)),
                     col_orders=(as_diff(0), as_diff(0)))
    assert det(I)(5.0, 2.0) == pytest.approx(1.0)
    assert np.allclose(adjugate(I).evaluate(5.0, 2.0), np.eye(2))
    assert mixed_order_certify(I)["passed"]


def test_upper_bound_d():
    rep = upper_bound_certify(d_symbol(), MU_D)
    assert rep.passed and rep.c_upper <= 2.0


def test_upper_bound_constant():
    rep = upper_bound_certify(as_symbol(1), as_diff(0))
    assert rep.passed and rep.c_upper == pytest.approx(1.0)


def test_upper_bound_l21():
    l21 = chg_matrix().entries[1][0]
    mu = order_function_of(polygon_from_exponents([(2, 0), (0, 1)]))  # max(2, gamma)
    rep = upper_bound_certify(l21, mu)
    assert rep.passed and np.isfinite(rep.c_upper)


def test_ellipticity_d_reference_constant():
    rep = ellipticity_certify(d_symbol(), MU_D)
    assert rep.passed
    assert rep.c_lower >= 1.0 / (2.0 * np.sqrt(3.0))


def test_ellipticity_constant_symbol():
    rep = ellipticity_certify(as_symbol(1), as_diff(0), grid=GridSpec(lam=2.0))
    assert rep.c_lower == pytest.approx(1.0)


def test_ellipticity_itau():
    itau = PolySymbol(1, True, ((1j, 1, 0),))
    mu = OrderFunction(((None, F(0), F(1)),))  # mu(gamma) = gamma
    rep = ellipticity_certify(as_symbol(itau), mu)
    assert rep.passed and rep.c_lower >= 0.5


def test_certification_monotone_in_grid():
    sym = d_symbol()
    small = GridSpec(n_tau=16, n_xi=16)
    big = GridSpec(n_tau=64, n_xi=64)
    lo_small = ellipticity_certify(sym, MU_D, grid=small).c_lower
    lo_big = ellipticity_certify(sym, MU_D, grid=big).c_lower
    hi_small = upper_bound_certify(sym, MU_D, grid=small).c_upper
    hi_big = upper_bound_certify(sym, MU_D, grid=big).c_upper
    # the big grid is not a superset pointwise, but constants stay ordered
    # within sampling tolerance
    assert lo_big <= lo_small * (1 + 1e-6)
    assert hi_big >= hi_small * (1 - 1e-6)


def test_mixed_order_chg_passes_and_delta_is_mu_d():
    out = mixed_order_certify(chg_matrix())
    assert out["passed"]
    assert out["delta"] == as_diff(MU_D)


def test_mixed_order_reports_match_single_symbol_certificates():
    """The one-evaluation matrix path agrees with the per-symbol reference."""
    from maxreg.boundary import build_extended_matrix, neumann_pair_13
    grid = GridSpec(n_tau=16, n_xi=16)
    for M in (chg_matrix(), build_extended_matrix(neumann_pair_13())):
        out = mixed_order_certify(M, grid=grid)
        for i, s in enumerate(M.row_orders):
            for j, t in enumerate(M.col_orders):
                assert out["entries"][f"{i},{j}"] == upper_bound_certify(
                    M.entries[i][j], of_add(s, t), grid)
        det_map = SymbolFn(fn=lambda tau, xi, M=M: det_values(M.evaluate(tau, xi)))
        assert out["det"] == ellipticity_certify(det_map, M.delta(), grid=grid,
                                                 floor=1e-8)


def test_pointwise_det_elliptic_bound_zero_tolerance():
    """|D| >= (min(1,lam)/(2 sqrt 3)) W_{mu_D} at every grid point."""
    from maxreg.polygons import weight_eval
    grid = GridSpec(lam=1.0)
    T, X = np.meshgrid(grid.tau_values(), grid.xi_norms(), indexing="ij")
    D = np.abs(d_symbol()(T, X))
    W = weight_eval(MU_D, T, X)
    assert np.all(D >= W / (2.0 * np.sqrt(3.0)))


def test_symbol_serialization_round_trip():
    p = d_symbol()
    q = PolySymbol.from_jsonable(p.to_jsonable())
    assert q == p


def test_oscillatory_only_rejects_tau_zero():
    s = SymbolFn(fn=lambda t, x: 1.0 / t, oscillatory_only=True)
    with pytest.raises(ValueError):
        s(0.0, 1.0)
