"""Tests for the root quadruple and the D+/D- factorization."""

import time
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxreg.factorization import (
    MU_D,
    MU_PLUS,
    d_eval_split,
    d_symbol,
    dplus_coeffs,
    factor_residual,
    roots,
)
from maxreg.polygons import o_elem, of_const, weight_eval
from maxreg.symbols import GridSpec, as_symbol, ellipticity_certify, mesh_axes

O_HALF = o_elem(F(1, 2))


def _random_frequencies(n, seed=0):
    rng = np.random.default_rng(seed)
    tau = rng.uniform(-1e3, 1e3, n)
    tau[np.abs(tau) < 1e-3] = 1.0
    xip = 10.0 ** rng.uniform(-3, 3, n)
    xip[rng.random(n) < 0.1] = 0.0
    return tau, xip


def _normalizer(tau, xip, rho):
    """Largest monomial magnitude of D along xi_n = rho, for relative residuals."""
    xi2 = xip ** 2 + rho ** 2
    return np.maximum.reduce([np.abs(tau), np.abs(tau) * np.abs(xi2),
                              np.abs(xi2) ** 2, np.ones_like(np.abs(tau))])


def test_roots_satisfy_quartic():
    tau, xip = _random_frequencies(10_000, seed=3)
    rq = roots(tau, xip)
    for rho in rq.all():
        res = np.abs(d_eval_split(tau, xip, rho)) / _normalizer(tau, xip, rho)
        assert res.max() < 1e-9


def test_roots_quadrants_exact():
    tau, xip = _random_frequencies(10_000, seed=4)
    rq = roots(tau, xip)
    assert np.all(rq.rho1_plus.imag > 0) and np.all(rq.rho2_plus.imag > 0)
    assert np.all(rq.rho1_minus.imag < 0) and np.all(rq.rho2_minus.imag < 0)
    # one root per open quadrant: the two upper roots have opposite real sign
    assert np.all(rq.rho1_plus.real * rq.rho2_plus.real < 0)
    # mirror symmetry
    assert np.allclose(rq.rho1_plus, -rq.rho1_minus)
    assert np.allclose(rq.rho2_plus, -rq.rho2_minus)


def test_rho2_argument_sector():
    tau, xip = _random_frequencies(10_000, seed=5)
    rq = roots(tau, xip)
    for rho in (rq.rho2_plus, rq.rho2_minus):
        a = np.abs(np.angle(rho))
        assert np.all(a > np.pi / 4) and np.all(a < 3 * np.pi / 4)


def test_factorization_residual_small():
    assert factor_residual() < 1e-10


def test_factor_coeffs_match_root_products():
    tau, xip = _random_frequencies(2000, seed=6)
    rq = roots(tau, xip)
    fc = dplus_coeffs(tau, xip)
    assert np.allclose(fc.d0_plus, rq.rho1_plus * rq.rho2_plus)
    assert np.allclose(fc.d1_plus, 1j * (rq.rho1_plus + rq.rho2_plus))
    # D+- written as polynomials in (i xi_n) reproduce the root products
    xin = np.linspace(-5, 5, 7)[:, None]
    ixn = 1j * xin
    dplus_poly = -ixn ** 2 + fc.d1_plus * ixn + fc.d0_plus
    assert np.allclose(dplus_poly, (xin - rq.rho1_plus) * (xin - rq.rho2_plus),
                       atol=1e-8)
    # D- is the mirror of D+: its coefficients are (d0_plus, -d1_plus, -1)
    dminus_poly = -ixn ** 2 - fc.d1_plus * ixn + fc.d0_plus
    assert np.allclose(dminus_poly, (xin - rq.rho1_minus) * (xin - rq.rho2_minus),
                       atol=1e-8)


def test_roots_full_check_under_five_seconds():
    start = time.monotonic()
    tau, xip = _random_frequencies(10_000, seed=7)
    rq = roots(tau, xip)
    for rho in rq.all():
        res = np.abs(d_eval_split(tau, xip, rho)) / _normalizer(tau, xip, rho)
        assert res.max() < 1e-9
    assert factor_residual() < 1e-10
    assert time.monotonic() - start < 5.0


@settings(max_examples=60, deadline=None)
@given(st.floats(-1e5, 1e5).filter(lambda t: abs(t) > 1e-4),
       st.floats(0.0, 1e3))
def test_roots_property_random(tau, xip):
    rq = roots(tau, xip)
    for rho in rq.all():
        res = abs(d_eval_split(tau, xip, rho)) / _normalizer(
            np.asarray(tau), np.asarray(xip), rho)
        assert res < 1e-9
    assert rq.rho1_plus.imag > 0 and rq.rho2_plus.imag > 0


def test_d1_plus_elliptic_for_o_half():
    """|d1+| is two-sided comparable to W_{o_{1/2}}."""
    grid = GridSpec()
    T, X = np.meshgrid(grid.tau_values(), grid.xi_norms(), indexing="ij")
    fc = dplus_coeffs(T, X)
    ratio = np.abs(fc.d1_plus) / weight_eval(O_HALF, T, X)
    assert ratio.min() > 0.5 and ratio.max() < 2.0


def test_d0_d1_product_elliptic():
    """|d0+ d1+| is comparable to W_{2 o_{1/2} + 1} for large tau or xi'."""
    mu = o_elem(0.5).scale(2) + of_const(1)
    grid = GridSpec()
    T, X = np.meshgrid(grid.tau_values(), grid.xi_norms(), indexing="ij")
    fc = dplus_coeffs(T, X)
    ratio = np.abs(fc.d0_plus * fc.d1_plus) / weight_eval(mu, T, X)
    assert ratio.min() > 0.25 and ratio.max() < 2.0


def test_mu_plus_is_half_mu_d():
    assert MU_PLUS + MU_PLUS == MU_D


def test_z_func_real_part_limit():
    """Z(tau) = -i tau - sqrt(-tau^2 - 4 i tau) is 2 (rho_2^+)^2 at xi' = 0,
    and |Re Z| -> 2 as |tau| -> inf."""
    for tau in (1e6, -1e6):
        z = 2.0 * roots(tau, 0.0).rho2_plus ** 2
        assert abs(z.real) == pytest.approx(2.0, abs=1e-5)


def test_root_bounds_report():
    """|rho_1^+| is comparable to W_{o_{1/2}} and |rho_2^+| to W_{o_0} on
    the certification mesh."""
    tau, xip = mesh_axes(GridSpec())
    rq = roots(tau, xip)
    r1 = np.abs(rq.rho1_plus) / weight_eval(O_HALF, tau, xip)
    r2 = np.abs(rq.rho2_plus) / weight_eval(o_elem(0), tau, xip)
    assert r1.min() > 0.3
    assert r2.min() > 0.5
    assert r2.max() <= 1.0 + 1e-12


def test_roots_reject_tau_zero():
    with pytest.raises(ValueError):
        roots(0.0, 1.0)


def test_d_symbol_ellipticity_scales_with_lambda():
    """C_lambda = min(1, lam)/(2 sqrt 3) is a valid lower bound for small lam."""
    for lam in (0.1, 1.0, 10.0):
        rep = ellipticity_certify(as_symbol(d_symbol()), MU_D, grid=GridSpec(lam=lam))
        assert rep.c_lower >= min(1.0, lam) / (2.0 * np.sqrt(3.0))
