"""Closed-form roots and the D+/D- factorization of the CHG determinant.

The determinant D(tau, xi) = i*tau + |xi|^2 (i*tau + |xi|^2), viewed as a
quartic in the normal frequency xi_n at fixed (tau, |xi'|), has four simple
roots, one per open quadrant of the complex plane.  D+ collects the two
roots in the upper half plane, D- their mirrors; this is the admissible
(Wiener-Hopf-type) factorization driving the half-space solvers.

All root formulas use the principal square root; the inner argument
-tau^2 - 4i*tau never meets the negative real axis for tau != 0, so no
branch tracking is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .polygons import (
    OrderFunction,
    o_elem,
    of_const,
    order_function_of,
    polygon_from_exponents,
)
from .symbols import (
    GridSpec,
    MatrixSymbol,
    PolySymbol,
    _require_finite,
    as_diff,
    det,
    mesh_axes,
)

F = Fraction

# Canonical order functions of the CHG system
MU_D: OrderFunction = o_elem(F(1, 2)).scale(2) + of_const(2)  # max(4, 2+gamma)
MU_PLUS: OrderFunction = o_elem(F(1, 2)) + of_const(1)  # (1/2) mu_D
MU_MINUS: OrderFunction = MU_PLUS
O_HALF: OrderFunction = o_elem(F(1, 2))
O_ZERO: OrderFunction = o_elem(0)
T1_ORDER: OrderFunction = order_function_of(
    polygon_from_exponents([(3, 0), (1, 1)]))  # max(3, 1+gamma)
T2_ORDER: OrderFunction = of_const(2)


def chg_matrix(n: int = 1) -> MatrixSymbol:
    """L = [[i tau, |xi|^2], [-|xi|^2 - i tau, 1]] with its mixed orders."""
    l11 = PolySymbol(n, True, ((1j, 1, 0),))
    l12 = PolySymbol(n, True, ((1.0, 0, 2),))
    l21 = PolySymbol(n, True, ((-1.0, 0, 2), (-1j, 1, 0)))
    l22 = PolySymbol(n, True, ((1.0, 0, 0),))
    s = (as_diff(0), as_diff(-1))
    t = (as_diff(T1_ORDER), as_diff(T2_ORDER))
    return MatrixSymbol(((l11, l12), (l21, l22)), row_orders=s, col_orders=t)


def d_symbol(n: int = 1) -> PolySymbol:
    """D = det L = i tau + |xi|^2 (i tau + |xi|^2), radial in xi."""
    return det(chg_matrix(n))


@dataclass(frozen=True)
class RootQuadruple:
    rho1_plus: np.ndarray
    rho2_plus: np.ndarray
    rho1_minus: np.ndarray
    rho2_minus: np.ndarray

    def all(self):
        return (self.rho1_plus, self.rho2_plus, self.rho1_minus, self.rho2_minus)


def roots(tau, xi_prime_norm) -> RootQuadruple:
    """The four classified roots of D(tau, xi', .) for tau != 0.

    rho_eps = (eps1/sqrt(2)) * sqrt(-2|xi'|^2 - i tau + eps2 * sqrt(-tau^2 - 4 i tau)),
    labeled so that sign(Re rho_eps) = eps1 and
    sign(Im rho_eps) = -eps1 * eps2 * sign(tau): both + roots lie in the upper
    half plane, rho_j^+ = -rho_j^-.
    """
    tau = np.asarray(tau, dtype=float)
    xip = np.asarray(xi_prime_norm, dtype=float)
    if np.any(tau == 0):
        raise ValueError("roots are defined for tau != 0 (purely oscillatory)")
    inner = np.sqrt(-tau.astype(complex) ** 2 - 4j * tau)
    base = -2.0 * xip ** 2 - 1j * tau
    s_plus = np.sqrt(base + inner)  # eps2 = +1: the rho_1 family
    s_minus = np.sqrt(base - inner)  # eps2 = -1: the rho_2 family
    sgn = np.sign(tau)
    half = 1.0 / np.sqrt(2.0)  # note: the prefactor must square to 1/2
    return RootQuadruple(
        rho1_plus=-sgn * half * s_plus,
        rho2_plus=sgn * half * s_minus,
        rho1_minus=sgn * half * s_plus,
        rho2_minus=-sgn * half * s_minus,
    )


@dataclass(frozen=True)
class FactorCoeffs:
    """D+ = -(i xi_n)^2 + d1_plus (i xi_n) + d0_plus.  D- is its mirror
    (rho_j^- = -rho_j^+): -(i xi_n)^2 - d1_plus (i xi_n) + d0_plus."""

    d0_plus: np.ndarray
    d1_plus: np.ndarray


def dplus_coeffs(tau, xi_prime_norm) -> FactorCoeffs:
    rq = roots(tau, xi_prime_norm)
    return FactorCoeffs(
        d0_plus=rq.rho1_plus * rq.rho2_plus,
        d1_plus=1j * (rq.rho1_plus + rq.rho2_plus),
    )


def d_plus_eval(tau, xi_prime_norm, xi_n):
    rq = roots(tau, xi_prime_norm)
    xin = np.asarray(xi_n)
    return (xin - rq.rho1_plus) * (xin - rq.rho2_plus)


def d_minus_eval(tau, xi_prime_norm, xi_n):
    rq = roots(tau, xi_prime_norm)
    xin = np.asarray(xi_n)
    return (xin - rq.rho1_minus) * (xin - rq.rho2_minus)


def d_eval_split(tau, xi_prime_norm, xi_n):
    """d_symbol() at |xi| = sqrt(|xi'|^2 + xi_n^2); xi_n may be complex (a
    root).  D holds even powers of |xi| only, so the branch of the square
    root does not matter.  Forming |xi|^2 first, rather than expanding D in
    xi_n, avoids cancellation near the roots."""
    xi2 = np.asarray(xi_prime_norm, dtype=float) ** 2 + np.asarray(xi_n) ** 2
    return d_symbol()(np.asarray(tau, dtype=float), np.sqrt(xi2 + 0j))


def z_func(tau):
    """Z(tau) = -i tau - sqrt(-tau^2 - 4 i tau); |Re Z| -> 2 as |tau| -> inf."""
    tau = np.asarray(tau, dtype=float)
    return -1j * tau - np.sqrt(-tau.astype(complex) ** 2 - 4j * tau)


def factor_residual(grid: GridSpec = GridSpec()) -> float:
    """max over the grid of |D - D+ D-| / (1 + |D|), at xi_n = 0 and
    +-10^(-2..2)."""
    xi_n_values = np.concatenate([[0.0], np.logspace(-2, 2, 17)])
    xi_n_values = np.concatenate([-xi_n_values[::-1], xi_n_values])
    tau, xip = mesh_axes(grid)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        rq = roots(tau, xip)
    for rho in rq.all():
        _require_finite(rho, tau, xip, "roots")
    rho1p, rho2p, rho1m, rho2m = (rho[..., None] for rho in rq.all())
    tau, xip = tau[..., None], xip[..., None]
    xin = xi_n_values[None, None, :]
    prod = (xin - rho1m) * (xin - rho2m) * (xin - rho1p) * (xin - rho2p)
    D = d_eval_split(tau, xip, xin)
    return float((np.abs(D - prod) / (1.0 + np.abs(D))).max())


def root_bounds_check(grid: GridSpec = GridSpec()):
    """Two-sided comparison of |rho_1| with W_{o_{1/2}} and |rho_2| with W_{o_0},
    for |tau| >= grid.lam."""
    from .polygons import weight_eval
    from .symbols import CertReport

    tau, xip = mesh_axes(grid)
    rq = roots(tau, xip)
    w_half = weight_eval(O_HALF, tau, xip)
    w_zero = weight_eval(O_ZERO, tau, xip)
    r1 = np.abs(rq.rho1_plus) / w_half
    r2 = np.abs(rq.rho2_plus) / w_zero
    return CertReport(
        kind="root_bounds",
        passed=bool(r1.min() > 0 and r2.min() > 0),
        c_lower=float(min(r1.min(), r2.min())),
        c_upper=float(max(r1.max(), r2.max())),
        grid=grid,
        details={
            "rho1_over_Wohalf": {"min": float(r1.min()), "max": float(r1.max())},
            "rho2_over_Wozero": {"min": float(r2.min()), "max": float(r2.max())},
            "re_z_at_tau_max": float(np.abs(z_func(grid.tau_max).real)),
        })
