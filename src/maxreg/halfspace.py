"""Half-space solvers: one-sided resolvents, traces, and boundary systems.

Per tangential frequency column (k, xi') every operator of interest is an
ODE in the normal variable x_n.  The quartic determinant factors into
D+ (roots in the upper half plane) and D- (their mirrors); the inverse of
D- preserving lower support is a composition of causal first-order
resolvents (integrating down from x_n = infinity), while particular
solutions for D+ come from anticausal resolvents (integrating up from the
boundary).  Columns carry a dual representation: plain samples on [0, Ln],
plus an exact exponential-sum part c * x^m * e^{i rho x_n} on which
resolvents, derivatives, traces, and L^2 norms are evaluated in closed
form.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .boundary import BoundaryOperator, dirichlet_pair, neumann_pair_13
from .factorization import (
    MU_D,
    MU_MINUS,
    T1_ORDER,
    adj_chg_matrix,
    chg_matrix,
    dplus_coeffs,
    roots,
)
from .polygons import (
    OFLike,
    OrderFunction,
    ZERO_OF,
    as_diff,
    chg_shape,
    elementary_decomposition,
    of_const,
    smooth_weight_eval,
    trace_order_function,
)
from .symbols import normal_coeffs

# exponential-sum terms: (coefficient, exponent rho with Im rho >= 0, power m)
Term = tuple[complex, complex, int]

_DEGENERATE = 1e-6  # |i(sigma - rho)| * Ln below this -> series branch


# ---------------------------------------------------------------------------
# Grid and field containers
# ---------------------------------------------------------------------------


def _slowest_decay(T: float) -> float:
    """min |Im rho| over the upper roots at the slowest live mode (k=1, xi'=0)."""
    rq = roots(2.0 * np.pi / T, 0.0)
    return float(min(rq.rho1_plus.imag, rq.rho2_plus.imag))


@dataclass(frozen=True)
class HalfGrid:
    """Time circle x (n-1 tangential dims, periodic) x normal ray [0, Ln]."""

    T: float = 2.0 * np.pi
    K: int = 32
    n: int = 1
    N: int = 16          # tangential samples per dimension (n = 2 only)
    Lx: float = 2.0 * np.pi * 16.0
    Ln: Optional[float] = None
    Nn: int = 512

    def __post_init__(self):
        if self.K < 1 or self.Nn < 64:
            raise ValueError("K >= 1 and Nn >= 64 required")
        if self.n not in (1, 2):
            raise ValueError("total spatial dimension must be 1 or 2")
        if not (self.T > 0 and self.Lx > 0):
            raise ValueError("positive box and period")
        if self.Ln is not None and not self.Ln > 0:
            raise ValueError("positive normal length Ln")
        if self.Ln is None:
            object.__setattr__(self, "Ln", 16.0 / _slowest_decay(self.T))

    @property
    def omega(self) -> float:
        return 2.0 * np.pi / self.T

    @property
    def h(self) -> float:
        return self.Ln / (self.Nn - 1)

    def xn(self) -> np.ndarray:
        return np.linspace(0.0, self.Ln, self.Nn)

    def k_values(self) -> np.ndarray:
        return np.arange(-self.K, self.K + 1)

    @property
    def col_shape(self) -> tuple:
        return (2 * self.K + 1,) if self.n == 1 else (2 * self.K + 1, self.N)

    @property
    def shape(self) -> tuple:
        return self.col_shape + (self.Nn,)

    def xi_prime_axis(self) -> np.ndarray:
        if self.n == 1:
            return np.zeros(1)
        return 2.0 * np.pi * np.fft.fftfreq(self.N, d=self.Lx / self.N)

    def columns(self, live_only: bool = True):
        """Yield (index, tau, |xi'|) over the (k, xi'-mode) column grid."""
        xi = self.xi_prime_axis()
        for ik, k in enumerate(self.k_values()):
            if live_only and k == 0:
                continue
            if self.n == 1:
                yield (ik,), k * self.omega, 0.0
            else:
                for j in range(self.N):
                    yield (ik, j), k * self.omega, abs(float(xi[j]))

    def to_jsonable(self):
        return {"T": self.T, "K": self.K, "n": self.n, "N": self.N,
                "Lx": self.Lx, "Ln": self.Ln, "Nn": self.Nn}


@dataclass
class HalfField:
    """samples[col, xn] plus optional exact exponential-sum terms per column."""

    grid: HalfGrid
    samples: np.ndarray
    exp_terms: dict = field(default_factory=dict)
    oscillatory: bool = True

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)
        if self.samples.shape != self.grid.shape:
            raise ValueError(f"shape {self.samples.shape} != {self.grid.shape}")
        for terms in self.exp_terms.values():
            for _, rho, m in terms:
                if np.imag(rho) < -1e-12:
                    raise ValueError("exponential-sum exponent grows with x_n")
                if m < 0:
                    raise ValueError("negative polynomial power")

    def column(self, idx) -> np.ndarray:
        """Materialized values of one column on the x_n grid."""
        vals = self.samples[idx].copy()
        terms = self.exp_terms.get(idx)
        if terms:
            vals += eval_terms(terms, self.grid.xn())
        return vals

    def values(self) -> np.ndarray:
        out = self.samples.copy()
        x = self.grid.xn()
        for idx, terms in self.exp_terms.items():
            out[idx] += eval_terms(terms, x)
        return out

    def materialized(self) -> "HalfField":
        return HalfField(self.grid, self.values(), {}, self.oscillatory)

    def copy(self) -> "HalfField":
        return HalfField(self.grid, self.samples.copy(),
                         {k: tuple(v) for k, v in self.exp_terms.items()},
                         self.oscillatory)

    def __add__(self, other: "HalfField") -> "HalfField":
        if other.grid != self.grid:
            raise ValueError("grid mismatch")
        terms = {k: list(v) for k, v in self.exp_terms.items()}
        for k, v in other.exp_terms.items():
            terms.setdefault(k, []).extend(v)
        return HalfField(self.grid, self.samples + other.samples,
                         {k: merge_terms(v) for k, v in terms.items()},
                         self.oscillatory and other.oscillatory)

    def __sub__(self, other: "HalfField") -> "HalfField":
        return self + HalfField(other.grid, -other.samples,
                                {k: tuple((-c, rho, m) for c, rho, m in v)
                                 for k, v in other.exp_terms.items()},
                                other.oscillatory)


def zero_half_field(grid: HalfGrid) -> HalfField:
    return HalfField(grid, np.zeros(grid.shape, complex))


def exp_field(grid: HalfGrid, terms_by_column: dict) -> HalfField:
    return HalfField(grid, np.zeros(grid.shape, complex),
                     {k: merge_terms(v) for k, v in terms_by_column.items()})


# ---------------------------------------------------------------------------
# Exponential-sum arithmetic
# ---------------------------------------------------------------------------


def eval_terms(terms: Sequence[Term], x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    acc = np.zeros(x.shape, complex)
    for c, rho, m in terms:
        acc += c * x ** m * np.exp(1j * rho * x)
    return acc


def merge_terms(terms: Sequence[Term], tol: float = 0.0) -> tuple[Term, ...]:
    seen: dict = {}
    for c, rho, m in terms:
        key = (complex(rho), int(m))
        seen[key] = seen.get(key, 0.0) + complex(c)
    out = [(c, rho, m) for (rho, m), c in seen.items() if c != 0]
    if tol > 0:
        top = max((abs(c) for c, _, _ in out), default=0.0)
        out = [t for t in out if abs(t[0]) > tol * top]
    return tuple(out)


def differentiate_terms(terms: Sequence[Term]) -> tuple[Term, ...]:
    out = []
    for c, rho, m in terms:
        out.append((1j * rho * c, rho, m))
        if m > 0:
            out.append((m * c, rho, m - 1))
    return merge_terms(out)


def trace_of_terms(terms: Sequence[Term], j: int) -> complex:
    """d^j/dx^j at x = 0 of the exponential sum."""
    acc = 0.0 + 0.0j
    for c, rho, m in terms:
        if j >= m:
            acc += c * math.comb(j, m) * math.factorial(m) * (1j * rho) ** (j - m)
    return acc


def _int_power_exp(p: int, b: complex, L: float) -> complex:
    """integral_0^L x^p e^{b x} dx, stable for small |b| L."""
    if abs(b) * L < 0.5:
        total = 0.0 + 0.0j
        fact = 1.0
        for l in range(64):
            term = b ** l * L ** (p + l + 1) / (fact * (p + l + 1))
            total += term
            fact *= l + 1
            if abs(term) < 1e-18 * (abs(total) + 1e-300):
                break
        return total
    if p == 0:
        return (np.exp(b * L) - 1.0) / b
    return (L ** p) * np.exp(b * L) / b - (p / b) * _int_power_exp(p - 1, b, L)


def terms_l2_sq(terms: Sequence[Term], L: float) -> float:
    """integral_0^L |sum|^2 dx in closed form."""
    total = 0.0 + 0.0j
    for c1, r1, m1 in terms:
        for c2, r2, m2 in terms:
            b = 1j * (r1 - np.conj(r2))
            total += c1 * np.conj(c2) * _int_power_exp(m1 + m2, b, L)
    return max(float(np.real(total)), 0.0)


def causal_resolvent_terms(rho: complex, terms: Sequence[Term]) -> tuple[Term, ...]:
    """Bounded solution of (-i d/dx - rho) v = g for Im rho < 0, exact.

    v(x) = -i * integral_x^infty e^{i rho (x-y)} g(y) dy; each input term
    c x^m e^{i sigma x} maps to a polynomial times e^{i sigma x}.
    """
    if np.imag(rho) >= 0:
        raise ValueError("causal resolvent requires Im rho < 0")
    out = []
    for c, sigma, m in terms:
        a = 1j * (sigma - rho)
        # Q_m with integral_x^infty y^m e^{a y} dy = e^{a x} Q_m(x)
        q = {0: -1.0 / a}
        for mm in range(1, m + 1):
            nq = {k + 0: v * (-mm / a) for k, v in q.items()}
            nq[mm] = nq.get(mm, 0.0) - 1.0 / a
            q = nq
        for power, coeff in q.items():
            out.append((-1j * c * coeff, sigma, power))
    return merge_terms(out)


def anticausal_resolvent_terms(rho: complex, terms: Sequence[Term],
                               Ln: float) -> tuple[Term, ...]:
    """Solution vanishing at x = 0 of (-i d/dx - rho) v = g for Im rho > 0.

    v(x) = i * integral_0^x e^{i rho (x-y)} g(y) dy.  Near-degenerate
    exponents (sigma close to rho) switch to a convergent power series to
    avoid catastrophic cancellation.
    """
    if np.imag(rho) <= 0:
        raise ValueError("anticausal resolvent requires Im rho > 0")
    out = []
    for c, sigma, m in terms:
        a = 1j * (sigma - rho)
        if abs(a) * Ln < _DEGENERATE:
            # integral_0^x y^m e^{a y} dy as a series in a
            fact = 1.0
            for l in range(40):
                coeff = 1j * c * a ** l / (fact * (m + l + 1))
                if abs(coeff) * Ln ** (m + l + 1) < 1e-18 * abs(c) * Ln ** (m + 1):
                    break
                out.append((coeff, rho, m + l + 1))
                fact *= l + 1
            continue
        # antiderivative: integral y^m e^{ay} dy = e^{ay} sum_l (-1)^l m!/(m-l)! y^{m-l} / a^{l+1}
        coeffs = {}
        for l in range(m + 1):
            coeffs[m - l] = ((-1.0) ** l * math.factorial(m)
                             / math.factorial(m - l) / a ** (l + 1))
        g0 = coeffs.get(0, 0.0) if m == 0 else ((-1.0) ** m * math.factorial(m)
                                                / a ** (m + 1))
        for power, coeff in coeffs.items():
            out.append((1j * c * coeff, sigma, power))
        out.append((-1j * c * g0, rho, 0))
    return merge_terms(out)


# ---------------------------------------------------------------------------
# Sampled-column quadratures (exact exponential integration per linear cell)
# ---------------------------------------------------------------------------


def _phi_integrals(z: complex, h: float) -> tuple[complex, complex]:
    """I0 = integral_0^h e^{z s/h} ds, I1 = integral_0^h s e^{z s/h} ds."""
    if abs(z) < 1e-5:
        i0 = h * (1.0 + z / 2.0 + z * z / 6.0 + z ** 3 / 24.0)
        i1 = h * h * (0.5 + z / 3.0 + z * z / 8.0 + z ** 3 / 30.0)
        return i0, i1
    ez = np.exp(z)
    return h * (ez - 1.0) / z, h * h * (ez * (z - 1.0) + 1.0) / (z * z)


def causal_resolvent_samples(rho: complex, g: np.ndarray, h: float) -> np.ndarray:
    """Downward recursion for (-i d/dx - rho) v = g, data zero beyond Ln."""
    if np.imag(rho) >= 0:
        raise ValueError("causal resolvent requires Im rho < 0")
    g = np.asarray(g, dtype=complex)
    n = g.shape[0]
    z = -1j * rho * h  # Re z < 0
    i0, i1 = _phi_integrals(z, h)
    ez = np.exp(z)
    v = np.zeros(n, complex)
    for j in range(n - 2, -1, -1):
        cell = g[j] * i0 + (g[j + 1] - g[j]) * i1 / h
        v[j] = -1j * cell + ez * v[j + 1]
    return v


def anticausal_resolvent_samples(rho: complex, g: np.ndarray,
                                 h: float) -> np.ndarray:
    """Upward recursion for (-i d/dx - rho) v = g with v(0) = 0."""
    if np.imag(rho) <= 0:
        raise ValueError("anticausal resolvent requires Im rho > 0")
    g = np.asarray(g, dtype=complex)
    n = g.shape[0]
    z = 1j * rho * h  # Re z < 0
    i0, i1 = _phi_integrals(z, h)
    ez = np.exp(z)
    v = np.zeros(n, complex)
    for j in range(n - 1):
        cell = g[j + 1] * i0 - (g[j + 1] - g[j]) * i1 / h
        v[j + 1] = ez * v[j] + 1j * cell
    return v


# ---------------------------------------------------------------------------
# Finite differences (Fornberg weights) and integration
# ---------------------------------------------------------------------------


def fd_weights(x: np.ndarray, x0: float, m: int) -> np.ndarray:
    """Fornberg weights: columns k = 0..m give the k-th derivative at x0."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    c = np.zeros((n, m + 1))
    c1 = 1.0
    c4 = x[0] - x0
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c


@lru_cache(maxsize=32)
def derivative_matrix(nn: int, h: float, order: int, acc: int = 4) -> np.ndarray:
    """Dense differentiation matrix of the given order, 4th-order accurate."""
    npts = order + acc + (order + acc) % 2 - 1  # odd stencil size
    npts = min(npts, nn)
    half = npts // 2
    D = np.zeros((nn, nn))
    x = np.arange(nn, dtype=float) * h
    for i in range(nn):
        lo = min(max(i - half, 0), nn - npts)
        w = fd_weights(x[lo:lo + npts], x[i], order)[:, order]
        D[i, lo:lo + npts] = w
    return D


def _simpson(y: np.ndarray, h: float) -> float:
    n = len(y)
    if n < 2:
        return 0.0
    if n == 2:
        return float(0.5 * h * (y[0] + y[1]))
    if n % 2 == 1:
        w = np.ones(n)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return float(h / 3.0 * np.dot(w, y))
    # even sample count: Simpson on the first n-1, trapezoid on the last cell
    return _simpson(y[:-1], h) + float(0.5 * h * (y[-2] + y[-1]))


# ---------------------------------------------------------------------------
# Column-wise operator application
# ---------------------------------------------------------------------------


def apply_poly_operator(f: HalfField, coeff_fn: Callable) -> HalfField:
    """Apply sum_j c_j(tau, |xi'|) d^j/dx^j column-wise.

    coeff_fn(tau, xi_prime_norm) returns the coefficient list (c_0, c_1, ...).
    Exponential-sum parts are differentiated exactly; sampled parts use the
    4th-order finite-difference matrices.
    """
    grid = f.grid
    out_samples = np.zeros(grid.shape, complex)
    out_terms = {}
    for idx, tau, xi in grid.columns():
        coeffs = coeff_fn(tau, xi)
        col = f.samples[idx]
        if np.any(col):
            acc = coeffs[0] * col
            for j in range(1, len(coeffs)):
                if coeffs[j] != 0:
                    acc = acc + coeffs[j] * (derivative_matrix(grid.Nn, grid.h, j) @ col)
            out_samples[idx] = acc
        terms = f.exp_terms.get(idx)
        if terms:
            acc_t = [(coeffs[0] * c, rho, m) for c, rho, m in terms]
            d_t = terms
            for j in range(1, len(coeffs)):
                d_t = differentiate_terms(d_t)
                acc_t.extend((coeffs[j] * c, rho, m) for c, rho, m in d_t)
            merged = merge_terms(acc_t)
            if merged:
                out_terms[idx] = merged
    return HalfField(grid, out_samples, out_terms)


def apply_symbol(f: HalfField, sym) -> HalfField:
    """Forward op[P] for a radial polynomial symbol P (a PolySymbol, or a
    SymbolFn wrapping one), with xi_n -> -i d/dx_n."""
    return apply_poly_operator(f, normal_coeffs(sym))


def _minus_roots(tau: float, xi: float):
    rq = roots(tau, xi)
    return complex(rq.rho1_minus), complex(rq.rho2_minus)


def _plus_roots(tau: float, xi: float):
    rq = roots(tau, xi)
    return complex(rq.rho1_plus), complex(rq.rho2_plus)


def apply_dminus(f: HalfField) -> HalfField:
    """Forward op[D-] = d2 d^2/dx^2 + d1 d/dx + d0 (factorization.dplus_coeffs)."""
    def coeffs(tau, xi):
        fc = dplus_coeffs(tau, xi)
        return (complex(fc.d0_minus), complex(fc.d1_minus), fc.d2_minus)
    return apply_poly_operator(f, coeffs)


def dminus_inverse_plus(f: HalfField) -> HalfField:
    """op[D-]^{-1}_+ f: two chained causal resolvents per column."""
    if not f.oscillatory:
        raise ValueError("half-space inverses act on oscillatory data")
    grid = f.grid
    out_samples = np.zeros(grid.shape, complex)
    out_terms = {}
    for idx, tau, xi in grid.columns():
        r1, r2 = _minus_roots(tau, xi)
        col = f.samples[idx]
        if np.any(col):
            v = causal_resolvent_samples(r2, col, grid.h)
            out_samples[idx] = causal_resolvent_samples(r1, v, grid.h)
        terms = f.exp_terms.get(idx)
        if terms:
            t = causal_resolvent_terms(r2, terms)
            t = causal_resolvent_terms(r1, t)
            if t:
                out_terms[idx] = t
    return HalfField(grid, out_samples, out_terms)


def dotted_inverse(f: HalfField, factor_fn: Callable) -> HalfField:
    """Chained anticausal resolvents (the dotted one-sided inverse).

    factor_fn(tau, xi) returns (prefactor, [rho_1, ..., rho_r]) so the
    inverted symbol is prefactor^{-1} * prod (xi_n - rho_j)^{-1}, all
    rho_j in the upper half plane.
    """
    grid = f.grid
    out_samples = np.zeros(grid.shape, complex)
    out_terms = {}
    for idx, tau, xi in grid.columns():
        pref, rhos = factor_fn(tau, xi)
        col = f.samples[idx] / pref
        terms = [(c / pref, rho, m) for c, rho, m in f.exp_terms.get(idx, ())]
        use_samples = np.any(col)
        for rho in rhos:
            if use_samples:
                col = anticausal_resolvent_samples(rho, col, grid.h)
            if terms:
                terms = anticausal_resolvent_terms(rho, terms, grid.Ln)
        if use_samples:
            out_samples[idx] = col
        if terms:
            out_terms[idx] = merge_terms(terms)
    return HalfField(grid, out_samples, out_terms)


# ---------------------------------------------------------------------------
# Half-space norms via the one-sided weight factors
# ---------------------------------------------------------------------------


def weight_factors(mu: OFLike) -> list[tuple[float, int]]:
    """(y / 2, e) for each elementary piece e * o_y of mu; none for mu = 0.

    The weight of mu acts on a column as the product of the first-order
    operators (1 + tau^2)^(y/2) + <xi'> - d/dx, each e times.
    """
    if isinstance(mu, (int, Fraction)) and mu == 0:
        return []
    if not isinstance(mu, OrderFunction):
        raise TypeError("half-space norms take a plain OrderFunction")
    if mu == ZERO_OF:
        return []
    return [(float(y) / 2.0, int(e)) for y, e in elementary_decomposition(mu)]


def _weighted(col, terms, tau, xi, factors, d1):
    """Apply the weight factors to one column: the samples col (unless None)
    through the first-derivative matrix d1, the terms exactly."""
    for half_y, e in factors:
        a = (1.0 + tau * tau) ** half_y + np.sqrt(1.0 + xi * xi)
        for _ in range(e):
            if col is not None:
                col = a * col - d1 @ col
            if terms:
                terms = merge_terms(
                    [(a * c, rho, m) for c, rho, m in terms]
                    + [(-c, rho, m) for c, rho, m in differentiate_terms(terms)])
    return col, terms


def column_weighted_l2_sq(terms: Sequence[Term], tau: float, xi: float,
                          factors, Ln: float) -> float:
    """Exact squared column norm of an exp sum after the weight factors
    (from weight_factors)."""
    return terms_l2_sq(_weighted(None, tuple(terms), tau, xi, factors, None)[1], Ln)


def halfspace_norm(u: HalfField, mu: OFLike = 0) -> float:
    """|| op[omega_mu^-]^+ u ||_{L^2(G_+)} via the elementary decomposition.

    Exponential-sum columns are integrated in closed form; a column holding
    samples is weighted with the 4th-order first-derivative matrix and
    integrated by Simpson's rule.
    """
    grid = u.grid
    factors = weight_factors(mu)
    total = 0.0
    for idx, tau, xi in grid.columns():
        col = u.samples[idx]
        terms = u.exp_terms.get(idx, ())
        if not np.any(col):
            total += column_weighted_l2_sq(terms, tau, xi, factors, grid.Ln)
            continue
        d1 = derivative_matrix(grid.Nn, grid.h, 1) if factors else None
        col, terms = _weighted(col, terms, tau, xi, factors, d1)
        vals = col + (eval_terms(terms, grid.xn()) if terms else 0.0)
        total += _simpson(np.abs(np.asarray(vals)) ** 2, grid.h)
    meas = grid.T * grid.Lx ** (grid.n - 1)
    return float(np.sqrt(meas * total))


def boundary_norm(g: np.ndarray, mu: OFLike, grid: HalfGrid) -> float:
    """Weighted l^2 norm of boundary spectral data over live columns."""
    mu = as_diff(mu)
    g = np.asarray(g, dtype=complex)
    if g.shape != grid.col_shape:
        raise ValueError("boundary data must live on the column grid")
    total = 0.0
    for idx, tau, xi in grid.columns():
        w = float(smooth_weight_eval(mu, tau, xi))
        total += abs(g[idx]) ** 2 * w * w
    return float(np.sqrt(grid.T * grid.Lx ** (grid.n - 1) * total))


# ---------------------------------------------------------------------------
# Traces and the Vandermonde trace extension
# ---------------------------------------------------------------------------


def traces(u: HalfField, count: int) -> np.ndarray:
    """Discrete Tr_j, j = 0..count-1; shape (count,) + col_shape."""
    grid = u.grid
    out = np.zeros((count,) + grid.col_shape, complex)
    x = grid.xn()
    for j in range(count):
        npts = min(j + 6, grid.Nn)
        w = fd_weights(x[:npts], 0.0, j)[:, j]
        for idx, tau, xi in grid.columns():
            val = 0.0 + 0.0j
            if np.any(u.samples[idx]):
                val += complex(np.dot(w, u.samples[idx][:npts]))
            terms = u.exp_terms.get(idx)
            if terms:
                val += trace_of_terms(terms, j)
            out[(j,) + idx] = val
    return out


def trace_extension(grid: HalfGrid, g: np.ndarray,
                    mu: OrderFunction) -> HalfField:
    """Right inverse of Tr^{(ord mu)}: exact exponential-sum extension.

    g has shape (ord mu,) + col_shape.  Per column, trace j is matched by
    eta_j = sigma_j A_j^{-j} sum_k c_{kj} e^{-k A_j x} with Vandermonde
    nodes {0, -1, ..., -(r1-1)}.
    """
    shape = chg_shape(mu)
    if shape is None:
        raise ValueError("trace extension requires a CHG-shaped order function")
    r1, r2 = shape.r1, shape.r2
    g = np.asarray(g, dtype=complex)
    if g.shape != (r1,) + grid.col_shape:
        raise ValueError(f"expected {r1} traces on the column grid")
    nodes = -np.arange(r1, dtype=float)
    V = np.vander(nodes, r1, increasing=True).T  # V[m, k] = nodes[k]^m
    Vinv = np.linalg.inv(V)
    terms_by_col = {}
    for idx, tau, xi in grid.columns():
        terms = []
        for j in range(r1):
            sigma = g[(j,) + idx]
            if sigma == 0:
                continue
            a = np.sqrt(1.0 + xi * xi)
            if j >= r2 and r2 > 0:
                a = a + (1.0 + 1j * tau) ** (-float(shape.gamma_perp))
            cj = Vinv @ np.eye(r1)[j]
            amp = sigma * a ** (-j)
            for k in range(r1):
                if cj[k] != 0:
                    terms.append((amp * cj[k], 1j * k * a, 0))
        if terms:
            terms_by_col[idx] = merge_terms(terms)
    return exp_field(grid, terms_by_col)


# ---------------------------------------------------------------------------
# Boundary-value solvers
# ---------------------------------------------------------------------------


def _boundary_matrix(bc, tau, xi):
    r1, r2 = _plus_roots(tau, xi)
    M = np.array([[bc[0].evaluate_at_root(tau, xi, r1),
                   bc[0].evaluate_at_root(tau, xi, r2)],
                  [bc[1].evaluate_at_root(tau, xi, r1),
                   bc[1].evaluate_at_root(tau, xi, r2)]], dtype=complex)
    return M, (r1, r2)


def _apply_boundary_operator(op: BoundaryOperator, tr: np.ndarray,
                             tau, xi) -> complex:
    """B(p) from the first four traces tr[j] of a column."""
    acc = 0.0 + 0.0j
    for j, c in enumerate(op.coeffs):
        acc += complex(c(tau, xi)) * tr[j]
    return acc


def solve_half_scalar(f: HalfField, g, bc=None) -> "HalfSolveResult":
    """Solve op[D]_+ u = f, B_1 u = g_1, B_2 u = g_2 column by column.

    Route: w = op[D-]^{-1}_+ f; particular p from anticausal D+ inversion;
    homogeneous correction c_1 e^{i rho_1^+ x} + c_2 e^{i rho_2^+ x} fixed
    by the 2x2 boundary system M c = g - B(p).
    """
    if bc is None:
        bc = neumann_pair_13()
    grid = f.grid
    if g is None:
        g = (np.zeros(grid.col_shape, complex), np.zeros(grid.col_shape, complex))
    w = dminus_inverse_plus(f)
    p = dotted_inverse(w, lambda tau, xi: (1, _plus_roots(tau, xi)))
    p_traces = traces(p, 4)
    out = p.copy()
    conds = []
    factors = weight_factors(MU_D)
    for idx, tau, xi in grid.columns():
        M, (r1, r2) = _boundary_matrix(bc, tau, xi)
        det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
        scale = max(np.abs(M).max(), 1e-300)
        if abs(det) < 1e-14 * scale ** 2:
            raise ZeroDivisionError(
                f"Lopatinskii violation: singular boundary system at column "
                f"k={idx[0] - grid.K}, |xi'|={xi:.6g}")
        rhs = np.array([
            g[0][idx] - _apply_boundary_operator(bc[0], p_traces[(slice(None),) + idx], tau, xi),
            g[1][idx] - _apply_boundary_operator(bc[1], p_traces[(slice(None),) + idx], tau, xi)])
        c = np.linalg.solve(M, rhs)
        # norm of the map (boundary data in its trace space) -> (correction
        # in H^{mu_D}): the numerical shadow of the complementing condition
        n_col = np.sqrt([column_weighted_l2_sq(((1.0, r, 0),), tau, xi,
                                               factors, grid.Ln)
                         for r in (r1, r2)])
        w_chi = np.array([float(smooth_weight_eval(bc[0].chi, tau, xi)),
                          float(smooth_weight_eval(bc[1].chi, tau, xi))])
        scaled = float(np.linalg.norm(
            n_col[:, None] * np.linalg.inv(M) / w_chi[None, :], 2))
        conds.append((idx, float(np.linalg.cond(M)), scaled))
        extra = [(c[0], r1, 0), (c[1], r2, 0)]
        prev = out.exp_terms.get(idx, ())
        out.exp_terms[idx] = merge_terms(tuple(prev) + tuple(extra))
    diagnostics = {
        "max_cond": max((c for _, c, _ in conds), default=0.0),
        "max_scaled_cond": max((s for _, _, s in conds), default=0.0),
        "conds": conds,
    }
    return HalfSolveResult(u=out, diagnostics=diagnostics)


@dataclass
class HalfSolveResult:
    u: "HalfField | tuple"
    diagnostics: dict = field(default_factory=dict)


# order functions for the system solution/data spaces
E1_ORDER = T1_ORDER                  # H^{(1,1)} cap H^{(0,3)}
E2_ORDER = of_const(2)               # H^{(0,2)}
F2_ORDER = of_const(1)               # H^{(0,1)}
G1_ORDER = trace_order_function(T1_ORDER, 1)   # (3/2) o_{1/2}
G2_ORDER = trace_order_function(E2_ORDER, 1)   # constant 1/2


def _lift_from_neumann_data(grid: HalfGrid, g: np.ndarray) -> HalfField:
    """psi with Tr_0 psi = 0 and Tr_1 psi = g: psi = g x e^{i rho_0 x}."""
    terms = {}
    for idx, tau, xi in grid.columns():
        if g[idx] != 0:
            rho0 = 1j * (1.0 + np.sqrt(1.0 + xi * xi))
            terms[idx] = ((complex(g[idx]), rho0, 1),)
    return exp_field(grid, terms)


def solve_half_chg_system(f1: HalfField, f2: HalfField, g1: np.ndarray,
                          g2: np.ndarray) -> HalfSolveResult:
    """The adjugate construction for the CHG half-space system.

    Lift the Neumann boundary data off via explicit decaying profiles,
    solve op[D]_+ v_i = f_i with Tr_1 v_i = Tr_3 v_i = 0 for i = 1, 2, and
    set u = op[ad L]_+ v plus the lift.
    """
    grid = f1.grid
    L, adj = chg_matrix(grid.n).entries, adj_chg_matrix(grid.n).entries
    psi = (_lift_from_neumann_data(grid, g1), _lift_from_neumann_data(grid, g2))
    neumann = neumann_pair_13()
    zero_g = (np.zeros(grid.col_shape, complex), np.zeros(grid.col_shape, complex))
    f_tilde = [fi - apply_symbol(psi[0], L[i][0]) - apply_symbol(psi[1], L[i][1])
               for i, fi in enumerate((f1, f2))]
    v1 = solve_half_scalar(f_tilde[0], zero_g, neumann)
    v2 = solve_half_scalar(f_tilde[1], zero_g, neumann)
    u = [apply_symbol(v1.u, adj[i][0]) + apply_symbol(v2.u, adj[i][1]) + psi[i]
         for i in range(2)]
    tr = [traces(ui, 2) for ui in u]
    diag = {
        "norm_u1_E1": halfspace_norm(u[0], E1_ORDER),
        "norm_u2_E2": halfspace_norm(u[1], E2_ORDER),
        "norm_f1_F1": halfspace_norm(f1, 0),
        "norm_f2_F2": halfspace_norm(f2, F2_ORDER),
        "norm_g1_G1": boundary_norm(g1, G1_ORDER, grid),
        "norm_g2_G2": boundary_norm(g2, G2_ORDER, grid),
        "bdry_residual_1": float(np.abs(tr[0][1] - g1).max()),
        "bdry_residual_2": float(np.abs(tr[1][1] - g2).max()),
        "max_cond": max(v1.diagnostics["max_cond"], v2.diagnostics["max_cond"]),
    }
    data = diag["norm_f1_F1"] + diag["norm_f2_F2"] \
        + diag["norm_g1_G1"] + diag["norm_g2_G2"]
    if data > 0:
        diag["ratio"] = (diag["norm_u1_E1"] + diag["norm_u2_E2"]) / data
    return HalfSolveResult(u=tuple(u), diagnostics=diag)


# ---------------------------------------------------------------------------
# The Dirichlet failure probe
# ---------------------------------------------------------------------------

T0_MU_MINUS = trace_order_function(MU_MINUS, 0)   # o_{1/2} + 1/2
T2_MU_D = trace_order_function(MU_D, 2)           # (3/2) o_{1/2}


def borderline_datum(grid: HalfGrid) -> np.ndarray:
    """|g_k| = 1 / w_{T0(mu_-)}(tau_k, 0): exactly the critical decay rate."""
    g = np.zeros(grid.col_shape, complex)
    for idx, tau, xi in grid.columns():
        if xi == 0.0:
            g[idx] = 1.0 / float(smooth_weight_eval(T0_MU_MINUS, tau, 0.0))
    return g


def _sup_column_ratio(u: HalfField, f: HalfField) -> float:
    """max over columns of ||u_col||_{mu_D} / ||f_col||_{0}: the discrete
    operator-norm estimate (data concentrated on a single column)."""
    grid = u.grid
    factors = weight_factors(MU_D)
    best = 0.0
    for idx, tau, xi in grid.columns():
        fsq = terms_l2_sq(f.exp_terms.get(idx, ()), grid.Ln)
        if fsq <= 0:
            continue
        usq = column_weighted_l2_sq(u.exp_terms.get(idx, ()), tau, xi,
                                    factors, grid.Ln)
        best = max(best, np.sqrt(usq / fsq))
    return float(best)


def dirichlet_failure_probe(resolutions: Optional[Sequence[tuple]] = None,
                            T: float = 2.0 * np.pi) -> list[dict]:
    """Growth table for the borderline Dirichlet datum across resolutions.

    The headline diagnostic is the Dirichlet solvability functional
    ||Tr_0 op[D-]^{-1}_+ f||_{T2(mu_D)}: it diverges with K exactly when the
    datum leaves H^{T2(mu_D)}.  The per-boundary-condition ratio reported is
    the sup over columns of the per-column maximal-regularity quotient; the
    weight-scaled correction-operator norms expose the conditioning contrast
    (Dirichlet grows along k at xi' = 0, Neumann stays bounded).
    """
    if resolutions is None:
        resolutions = [(16, 256), (32, 256), (64, 256), (128, 256)]

    def row_for(K: int, Nn: int) -> dict:
        grid = HalfGrid(T=T, K=K, n=1, Nn=Nn)
        g = borderline_datum(grid)
        gg = np.zeros((2,) + grid.col_shape, complex)
        gg[0] = g
        F = trace_extension(grid, gg, MU_MINUS)
        f = apply_dminus(F)
        w = dminus_inverse_plus(f)
        tr0 = traces(w, 1)[0]
        trace_norm = boundary_norm(tr0, T2_MU_D, grid)
        zero_g = (np.zeros(grid.col_shape, complex),
                  np.zeros(grid.col_shape, complex))
        f_norm = halfspace_norm(f, 0)
        dir_u = solve_half_scalar(f, zero_g, dirichlet_pair())
        neu_u = solve_half_scalar(f, zero_g, neumann_pair_13())
        edge_dir = dir_u.diagnostics["conds"][-1][2]
        edge_neu = neu_u.diagnostics["conds"][-1][2]
        return {
            "K": K, "Nn": Nn,
            "trace_norm_T2": trace_norm,
            "f_norm": f_norm,
            "dirichlet_ratio": _sup_column_ratio(dir_u.u, f),
            "neumann_ratio": _sup_column_ratio(neu_u.u, f),
            "dirichlet_edge_scaled_cond": edge_dir,
            "neumann_edge_scaled_cond": edge_neu,
            "cond_contrast": edge_dir / edge_neu,
        }

    return [row_for(K, Nn) for K, Nn in resolutions]


# ---------------------------------------------------------------------------
# Binary I/O: Field header plus {Ln, Nn}; samples complex64 k-major
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<diiiddi")


def write_half_field(path, f: HalfField) -> None:
    g = f.grid
    data = f.values()
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(g.T, g.K, g.n, g.N, g.Lx, g.Ln, g.Nn))
        fh.write(np.ascontiguousarray(data, dtype=np.complex64).tobytes())


def read_half_field(path) -> HalfField:
    with open(path, "rb") as fh:
        T, K, n, N, Lx, Ln, Nn = _HEADER.unpack(fh.read(_HEADER.size))
        grid = HalfGrid(T=T, K=K, n=n, N=N, Lx=Lx, Ln=Ln, Nn=Nn)
        raw = np.frombuffer(fh.read(), dtype=np.complex64)
    data = raw.reshape(grid.shape).astype(complex)
    osc = bool(np.all(data[grid.K] == 0))
    return HalfField(grid, data, oscillatory=osc)


# ---------------------------------------------------------------------------
# Random data generators for ensembles
# ---------------------------------------------------------------------------


def random_exp_field(grid: HalfGrid, seed: int = 0, terms_per_col: int = 3,
                     cols: Optional[int] = None) -> HalfField:
    """Random decaying exponential-sum field over (a subset of) live columns."""
    rng = np.random.default_rng(seed)
    live = [idx for idx, _, _ in grid.columns()]
    if cols is not None and cols < len(live):
        chosen = [live[i] for i in rng.choice(len(live), size=cols, replace=False)]
    else:
        chosen = live
    terms_by_col = {}
    for idx in chosen:
        terms = []
        for _ in range(terms_per_col):
            c = rng.normal() + 1j * rng.normal()
            rho = rng.uniform(-2.0, 2.0) + 1j * rng.uniform(0.3, 2.0)
            terms.append((c, rho, 0))
        terms_by_col[idx] = tuple(terms)
    return exp_field(grid, terms_by_col)
