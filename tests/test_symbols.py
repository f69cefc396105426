"""Tests for symbol representation, algebra, and grid certification."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxreg.factorization import MU_D, chg_matrix, chg_symbols, d_symbol
from maxreg.polygons import (
    as_diff,
    o_elem,
    of_add,
    of_const,
    of_linear,
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
    ellipticity_certify,
    mixed_order_certify,
    upper_bound_certify,
)


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
    L = chg_matrix()
    dd = det(L)
    D = d_symbol()
    for tau, xi in [(1.0, 0.0), (3.0, 2.0), (-7.0, 0.3)]:
        assert dd(tau, xi) == pytest.approx(D(tau, xi))


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
        M = L.evaluate(tau, xi)
        A = adj.evaluate(tau, xi)
        dI = dd(tau, xi) * np.eye(2)
        worst = max(worst, np.linalg.norm(M @ A - dI) / (1 + np.linalg.norm(dI)))
    assert worst < 1e-10


def test_identity_matrix_det_adj():
    I = MatrixSymbol(((1, 0), (0, 1)),
                     row_orders=(as_diff(0), as_diff(0)),
                     col_orders=(as_diff(0), as_diff(0)))
    assert det(I)(5.0, 2.0) == pytest.approx(1.0)
    assert np.allclose(adjugate(I).evaluate(5.0, 2.0), np.eye(2))
    assert mixed_order_certify(I)["passed"]


def test_upper_bound_d():
    rep = upper_bound_certify(chg_symbols()["D"], MU_D)
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
    rep = ellipticity_certify(chg_symbols()["D"], MU_D, lam=1.0)
    assert rep.passed
    assert rep.c_lower >= 1.0 / (2.0 * np.sqrt(3.0))


def test_ellipticity_constant_symbol():
    rep = ellipticity_certify(as_symbol(1), as_diff(0), lam=2.0)
    assert rep.c_lower == pytest.approx(1.0)


def test_ellipticity_itau():
    itau = PolySymbol(1, True, ((1j, 1, 0),))
    mu = of_linear(0, 1)  # mu(gamma) = gamma
    rep = ellipticity_certify(as_symbol(itau), mu, lam=1.0)
    assert rep.passed and rep.c_lower >= 0.5


def test_certification_monotone_in_grid():
    sym = chg_symbols()["D"]
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
        assert out["det"] == ellipticity_certify(det(M), M.delta(), grid=grid,
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
