"""Half-space solvers: one-sided resolvents, traces, and boundary systems.

Per tangential frequency column (k, xi') every operator of interest is an
ODE in the normal variable x_n.  The quartic determinant factors into
D+ (roots in the upper half plane) and D- (their mirrors); the inverse of
D- preserving lower support is a composition of causal first-order
resolvents (integrating down from x_n = infinity), while particular
solutions for D+ come from anticausal resolvents (integrating up from the
boundary).  Columns carry a dual representation: plain samples on [0, Ln],
plus an exact exponential-sum part sum_{s,p} coef[c, s, p] x^p e^{i rho[c, s] x_n}
held as arrays over the live columns c.  Every operator runs once over all
live columns: in closed form on the exact part (resolvents, derivatives,
traces, L^2 norms), by quadrature and finite differences on the samples.
"""

from __future__ import annotations

import math
import struct
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .boundary import _default_chi, dirichlet_pair, neumann_pair_13, trace_operator
from .factorization import (
    MU_D,
    MU_MINUS,
    T1_ORDER,
    T2_ORDER,
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
from .spectral import SolveResult, require_integers, require_positive_finite
from .symbols import adjugate, normal_coeffs

_DEGENERATE = 1e-6  # |i(sigma - rho)| * Ln below this -> series branch


# ---------------------------------------------------------------------------
# Grid and field containers
# ---------------------------------------------------------------------------


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
        require_integers(self, "K", "N", "Nn")
        if self.K < 1 or self.Nn < 64:
            raise ValueError("K >= 1 and Nn >= 64 required")
        if self.n not in (1, 2):
            raise ValueError("total spatial dimension must be 1 or 2")
        if self.n == 2 and not self.N >= 1:
            raise ValueError("N >= 1 tangential samples required for n = 2")
        require_positive_finite(self, "T", "Lx")
        if self.Ln is not None:
            require_positive_finite(self, "Ln")
        else:  # sixteen decay lengths of the slowest mode (k=1, xi'=0)
            rq = roots(self.omega, 0.0)
            object.__setattr__(self, "Ln", 16.0 / float(min(rq.rho1_plus.imag,
                                                             rq.rho2_plus.imag)))
        with np.errstate(all="ignore"):
            # Tr_0 .. Tr_3, the traces boundary operators act on
            finite = all(np.isfinite(self.trace_stencil(j)).all() for j in range(4))
        if not finite:
            raise ValueError(f"normal length Ln={self.Ln!r} too small: trace stencils not finite")

    @property
    def omega(self) -> float:
        return 2.0 * np.pi / self.T

    @property
    def h(self) -> float:
        return self.Ln / (self.Nn - 1)

    def xn(self) -> np.ndarray:
        return np.linspace(0.0, self.Ln, self.Nn)

    @property
    def col_shape(self) -> tuple:
        return (2 * self.K + 1,) if self.n == 1 else (2 * self.K + 1, self.N)

    @property
    def shape(self) -> tuple:
        return self.col_shape + (self.Nn,)

    def column_mesh(self) -> tuple:
        """(index, tau, |xi'|) of the live (k != 0) columns in row-major order:
        index holds one integer array per column axis, so a[index] gathers
        the live columns of a col_shape array; tau and |xi'| are float arrays."""
        live = np.ones(self.col_shape, dtype=bool)
        live[self.K] = False
        index = np.nonzero(live)
        tau = (index[0] - self.K) * self.omega
        xi = (np.abs(2.0 * np.pi * np.fft.fftfreq(self.N, d=self.Lx / self.N))[index[1]]
              if self.n == 2 else np.zeros(tau.size))
        return index, tau, xi

    def columns(self):
        """(index, tau, |xi'|) per live column, in column_mesh order."""
        index, tau, xi = self.column_mesh()
        return zip(zip(*(i.tolist() for i in index)), tau, xi)

    def trace_stencil(self, j: int) -> np.ndarray:
        """Fornberg weights of Tr_j on the first j + 6 samples of a column."""
        return fd_weights(self.xn()[:j + 6], 0.0, j)[:, j]

    def to_jsonable(self):
        return asdict(self)


class HalfField:
    """samples[col, xn] plus an exact exponential-sum part on the live columns.

    samples is None for a field without a sampled part (or all-zero samples),
    and the field is oscillatory when its k = 0 slab is zero.
    The exact part of live column c (HalfGrid.column_mesh() order) is
    sum_{s, p} coef[c, s, p] x^p e^{i rho[c, s] x}: slot s shares one
    exponent across its powers p, and unused entries carry zero
    coefficients and a decaying pad exponent.  exp_terms reads and sets
    the exact part as {column index: ((c, rho, m), ...)}, the terms with
    c != 0; terms of one column with equal rho share a slot.
    """

    def __init__(self, grid: HalfGrid, samples, exp_terms=None):
        self.grid = grid
        data = None if samples is None else np.asarray(samples, dtype=complex)
        if data is not None and data.shape != grid.shape:
            raise ValueError(f"shape {data.shape} != {grid.shape}")
        self.samples = data if data is not None and data.any() else None
        self.exp_terms = exp_terms or {}

    @property
    def oscillatory(self) -> bool:
        return self.samples is None or not self.samples[self.grid.K].any()

    @property
    def exp_terms(self) -> dict:
        index = self.grid.column_mesh()[0]
        out: dict = {}
        for c, s, m in zip(*np.nonzero(self.coef)):
            out.setdefault(tuple(int(i[c]) for i in index), []).append(
                (complex(self.coef[c, s, m]), complex(self.rho[c, s]), int(m)))
        return {k: tuple(v) for k, v in out.items()}

    @exp_terms.setter
    def exp_terms(self, terms_by_column: dict) -> None:
        row_of = {idx: r for r, (idx, _, _) in enumerate(self.grid.columns())}
        slots = [{} for _ in row_of]  # per live column: {rho: slot}
        entries = []  # (column, slot, power, coefficient)
        for idx, terms in terms_by_column.items():
            r = row_of.get(tuple(idx))
            if r is None:
                raise ValueError(f"exponential sums live on the k != 0 columns, not {idx}")
            for c, rho, m in terms:
                if np.imag(rho) < -1e-12:
                    raise ValueError("exponential-sum exponent grows with x_n")
                if m < 0:
                    raise ValueError("negative polynomial power")
                s = slots[r].setdefault(complex(rho), len(slots[r]))
                entries.append((r, s, int(m), complex(c)))
        # unused slots: zero coefficients and a decaying exponent
        self.rho = np.full((len(slots), max(map(len, slots))), 1j)
        for r, keys in enumerate(slots):
            self.rho[r, list(keys.values())] = list(keys)
        self.coef = np.zeros(self.rho.shape + (1 + max((e[2] for e in entries),
                                                       default=0),), complex)
        for r, s, m, c in entries:
            self.coef[r, s, m] += c

    def values(self) -> np.ndarray:
        out = self.copy().samples
        if self.rho.shape[1]:
            out[self.grid.column_mesh()[0]] += eval_terms(self.rho, self.coef, self.grid.xn())
        return out

    def materialized(self) -> "HalfField":
        return HalfField(self.grid, self.values())

    def copy(self) -> "HalfField":
        """A copy with writable grid.shape samples, zeros for a field without samples."""
        s = np.zeros(self.grid.shape, complex) if self.samples is None else self.samples.copy()
        return _field(self.grid, s, self.rho.copy(), self.coef.copy())

    def __add__(self, other: "HalfField") -> "HalfField":
        return self._combine(other, np.add)

    def __sub__(self, other: "HalfField") -> "HalfField":
        return self._combine(other, np.subtract)

    def _combine(self, other: "HalfField", op) -> "HalfField":
        """self op other, with samples of its own; a slot of other merges into
        the first slot of self whose exponent equals its own on every live
        column, else is appended."""
        if other.grid != self.grid:
            raise ValueError("grid mismatch")
        if other.samples is not None:
            samples = op(0.0 if self.samples is None else self.samples, other.samples)
        else:
            samples = None if self.samples is None else self.samples.copy()
        theirs = op(0.0, other.coef)
        (S, P), Q = self.coef.shape[1:], theirs.shape[2]
        same = (self.rho[:, :, None] == other.rho[:, None, :]).all(axis=0)
        new = ~same.any(axis=0)
        coef = np.zeros((len(self.rho), S + new.sum(), max(P, Q)), complex)
        coef[:, :S, :P] = self.coef
        for t in np.flatnonzero(~new):
            coef[:, same[:, t].argmax(), :Q] += theirs[:, t]
        coef[:, S:, :Q] = theirs[:, new]
        return _field(self.grid, samples,
                      np.concatenate([self.rho, other.rho[:, new]], axis=1), coef)


def _field(grid: HalfGrid, samples, rho: np.ndarray, coef: np.ndarray) -> HalfField:
    """A field from its samples (or None) and its packed exact part."""
    f = HalfField.__new__(HalfField)
    vars(f).update(grid=grid, samples=samples, rho=rho, coef=coef)
    return f


def _exp_field(grid: HalfGrid, rho: np.ndarray, coef: np.ndarray) -> HalfField:
    """A field without samples, holding the slots of (rho, coef) that are not zero."""
    keep = coef.any(axis=(0, 2))
    return _field(grid, None, rho[:, keep], coef[:, keep])


def _gather(f: HalfField, index) -> Optional[np.ndarray]:
    """The samples of f on the live columns index, None for a field without samples."""
    return None if f.samples is None else f.samples[index]


def _scatter(grid: HalfGrid, index, cols: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """A grid.shape sample array with cols on the live columns; None for None."""
    if cols is None:
        return None
    out = np.zeros(grid.shape, complex)
    out[index] = cols
    return out


# ---------------------------------------------------------------------------
# Exponential-sum arithmetic on (rho[..., s], coef[..., s, p])
# ---------------------------------------------------------------------------


def eval_terms(rho: np.ndarray, coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_{s, p} coef[..., s, p] x^p e^{i rho[..., s] x}; shape
    rho.shape[:-1] + x.shape."""
    x = np.asarray(x)
    out = np.zeros(rho.shape[:-1] + x.shape, complex)
    for s in range(rho.shape[-1]):
        e = np.exp(1j * rho[..., s, None] * x)
        for p in range(coef.shape[-1]):
            out += coef[..., s, p, None] * x ** p * e
    return out


def _derivative(rho: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Coefficients of d/dx of the sum, on the same slots."""
    out = 1j * rho[..., None] * coef
    out[..., :-1] += np.arange(1, coef.shape[-1]) * coef[..., 1:]
    return out


def trace_of_terms(rho: np.ndarray, coef: np.ndarray, j: int) -> np.ndarray:
    """d^j/dx^j at x = 0 of the sum; shape rho.shape[:-1]."""
    acc = np.zeros(rho.shape[:-1], complex)
    for m in range(min(j + 1, coef.shape[-1])):
        acc = acc + (coef[..., m] * math.comb(j, m) * math.factorial(m)
                     * (1j * rho) ** (j - m)).sum(axis=-1)
    return acc


def _int_power_exp(qmax: int, b: np.ndarray, L: float, ebl: np.ndarray) -> np.ndarray:
    """integral_0^L x^q e^{b x} dx for q = 0..qmax, given ebl = e^{bL};
    shape b.shape + (qmax + 1,).

    A power series where |b| L < 0.5, the integration-by-parts recursion
    elsewhere.  The recursion runs on the whole array, with the stand-in
    divisor b = -1/L on the series entries (|e^{bL}| < e^{1/2} there, so
    nothing overflows or divides by zero), whose series values then
    overwrite it."""
    q = np.arange(qmax + 1)
    out = np.empty(b.shape + (qmax + 1,), complex)
    small = np.abs(b) * L < 0.5
    any_small = small.any()  # the stand-in and the series cost ~30 us even on no entries
    inv = 1.0 / (np.where(small, -1.0 / L, b) if any_small else b)
    out[..., 0] = (ebl - 1.0) * inv
    for p in range(1, qmax + 1):
        out[..., p] = (L ** p * ebl - p * out[..., p - 1]) * inv
    if any_small:
        bs, total, fact = b[small][:, None], 0.0, 1.0
        for l in range(64):
            term = bs ** l * L ** (q + l + 1) / (fact * (q + l + 1))
            total = total + term
            fact *= l + 1
            if np.all(np.abs(term) < 1e-18 * (np.abs(total) + 1e-300)):
                break
        out[small] = total
    return out


def terms_l2_sq(rho: np.ndarray, coef: np.ndarray, L: float) -> np.ndarray:
    """integral_0^L |sum|^2 dx in closed form; shape rho.shape[:-1].  The Gram
    sum runs one slot s at a time, to keep its temporaries (columns x slots);
    the pair (s, t) integrates e^{bx}, b = i (rho_s - conj rho_t), whose
    e^{bL} is E_s conj(E_t) with E = e^{i rho L} taken once."""
    P = coef.shape[-1]
    E = np.exp(rho * (1j * L))
    conj_rho, conj_E, conj_coef = np.conj(rho), np.conj(E), np.conj(coef)
    total = np.zeros(rho.shape[:-1], complex)
    for s in range(rho.shape[-1]):
        # ints[..., t, q] = integral_0^L x^q e^{i (rho_s - conj rho_t) x} dx
        ints = _int_power_exp(2 * P - 2, 1j * (rho[..., s, None] - conj_rho), L,
                              E[..., s, None] * conj_E)
        for p in range(P):
            for q in range(P):
                total += coef[..., s, p] * np.einsum("...t,...t->...",
                                                     conj_coef[..., q], ints[..., p + q])
    return np.maximum(np.real(total), 0.0)


def _resolvent_map(a: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """i sum_m c_m (-1)^(m-k) m! / (k! a^(m-k+1)) at power k, for a = i(sigma - rho):
    both resolvents' action on the slot sigma."""
    inv = 1.0 / a
    out = np.zeros(coef.shape, complex)
    for m in range(coef.shape[-1]):
        for k in range(m + 1):
            w = (-1.0) ** (m - k) * math.factorial(m) / math.factorial(k)
            out[..., k] += coef[..., m] * (w * inv ** (m - k + 1))
    return 1j * out


def causal_resolvent_terms(rho, slots: np.ndarray, coef: np.ndarray) -> tuple:
    """Bounded solution of (-i d/dx - rho) v = g for Im rho < 0, exact.

    v(x) = -i * integral_x^infty e^{i rho (x-y)} g(y) dy keeps g's slots:
    each c x^m e^{i sigma x} maps to a polynomial times e^{i sigma x}.  rho
    holds one root per column (or one for all); returns (slots, coef).
    """
    rho = np.asarray(rho)
    if np.any(np.imag(rho) >= 0):
        raise ValueError("causal resolvent requires Im rho < 0")
    return slots, _resolvent_map(1j * (slots - rho[..., None]), coef)


def anticausal_resolvent_terms(rho, slots: np.ndarray, coef: np.ndarray,
                               Ln: float) -> tuple:
    """Solution vanishing at x = 0 of (-i d/dx - rho) v = g for Im rho > 0.

    v(x) = i * integral_0^x e^{i rho (x-y)} g(y) dy: g's slots map as in the
    causal case, and one slot rho is appended, holding minus their value at
    x = 0.  Near-degenerate exponents (sigma close to rho, per column)
    switch to a convergent power series on the rho slot, to avoid
    catastrophic cancellation.  Returns (slots, coef).
    """
    rho = np.asarray(rho)
    if np.any(np.imag(rho) <= 0):
        raise ValueError("anticausal resolvent requires Im rho > 0")
    a = 1j * (slots - rho[..., None])
    deg = np.abs(a) * Ln < _DEGENERATE
    S, P, extra = slots.shape[-1], coef.shape[-1], (3 if deg.any() else 0)
    out = np.zeros(slots.shape[:-1] + (S + 1, P + extra), complex)
    mapped = out[..., :S, :P]  # g's slots; the rho slot `new` goes last
    mapped[...] = _resolvent_map(np.where(deg, 1.0, a), coef)
    mapped[deg] = 0.0
    new = out[..., S, :]
    new[..., 0] = -out[..., :S, 0].sum(axis=-1)
    # on degenerate slots, integral_0^x y^m e^{a y} dy = sum_l a^l x^(m+l+1)
    # / (l! (m+l+1)), whose three first terms reach 1e-18 relative
    ad = np.where(deg, a, 0.0)
    for m in range(P):
        cm = np.where(deg, coef[..., m], 0.0)
        for l in range(extra):
            new[..., m + l + 1] += (1j * cm * ad ** l
                                    / (math.factorial(l) * (m + l + 1))).sum(axis=-1)
    rho_slot = np.broadcast_to(rho, slots.shape[:-1])[..., None]
    return np.concatenate([slots, rho_slot], axis=-1), out


# ---------------------------------------------------------------------------
# Sampled columns: quadrature recursions (exact exponential integration per
# linear cell), finite differences (Fornberg weights) and Simpson's rule
# ---------------------------------------------------------------------------


def _phi_integrals(z, h: float) -> tuple:
    """I0 = integral_0^h e^{z s/h} ds, I1 = integral_0^h s e^{z s/h} ds."""
    small = np.abs(z) < 1e-5
    zs = np.where(small, 1.0, z)  # the closed form only off the series branch
    ez = np.exp(zs)
    i0 = np.where(small, h * (1.0 + z / 2.0 + z * z / 6.0 + z ** 3 / 24.0),
                  h * (ez - 1.0) / zs)
    i1 = np.where(small, h * h * (0.5 + z / 3.0 + z * z / 8.0 + z ** 3 / 30.0),
                  h * h * (ez * (zs - 1.0) + 1.0) / (zs * zs))
    return i0, i1


def _downward(rho, g, h: float) -> np.ndarray:
    """v[j] = e^z v[j+1] - i cell_j from v = 0 at Ln, z = -i rho h: cell_j integrates
    e^{i rho (x_j - y)} times g's linear interpolant over [x_j, x_{j+1}]."""
    g = np.ascontiguousarray(np.moveaxis(np.asarray(g, dtype=complex), -1, 0))
    z = -1j * np.asarray(rho) * h
    i0, i1 = _phi_integrals(z, h)
    ez = np.exp(z)
    cell = g[:-1] * i0 + (g[1:] - g[:-1]) * i1 / h
    v = np.zeros(g.shape, complex)
    for j in range(len(g) - 2, -1, -1):
        v[j] = -1j * cell[j] + ez * v[j + 1]
    return np.moveaxis(v, 0, -1)


def causal_resolvent_samples(rho, g: np.ndarray, h: float) -> np.ndarray:
    """Downward recursion for (-i d/dx - rho) v = g, data zero beyond Ln.

    g holds samples along its last axis; rho one root per column (or one
    for all)."""
    if np.any(np.imag(rho) >= 0):
        raise ValueError("causal resolvent requires Im rho < 0")
    return _downward(rho, g, h)


def anticausal_resolvent_samples(rho, g: np.ndarray, h: float) -> np.ndarray:
    """Upward recursion for (-i d/dx - rho) v = g with v(0) = 0: the
    downward one for -rho on the reflected data, reflected and negated."""
    if np.any(np.imag(rho) <= 0):
        raise ValueError("anticausal resolvent requires Im rho > 0")
    return -_downward(-np.asarray(rho), np.flip(g, -1), h)[..., ::-1]


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
def derivative_matrix(nn: int, h: float, order: int) -> np.ndarray:
    """The 4th-order differentiation matrix of the given order on nn samples
    spaced h, as its npts distinct rows W (npts, npts).

    Sample i is differentiated on the window lo .. lo + npts - 1 with
    lo = clip(i - npts // 2, 0, nn - npts), by the row W[i - lo]: every
    interior sample takes the row W[npts // 2].  A window of order + 4
    points makes every row 4th-order accurate, the one-sided edge rows
    included; for an even order the interior row is the centred
    (order + 3)-point stencil, its first weight 0 up to rounding."""
    npts = min(order + 4, nn)
    return np.stack([fd_weights((np.arange(npts) - r) * h, 0.0, order)[:, order]
                     for r in range(npts)])


def _differentiate(cols: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The matrix held as W (derivative_matrix) applied along the last axis of cols."""
    npts = len(W)
    half = npts // 2
    return np.concatenate([cols[..., :npts] @ W[:half].T,
                           sliding_window_view(cols, npts, axis=-1) @ W[half],
                           cols[..., -npts:] @ W[half + 1:].T], axis=-1)


def _simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Simpson's rule along the last axis (at least three samples); an even
    sample count takes the trapezoid rule on its last cell."""
    n = y.shape[-1]
    if n % 2 == 0:
        return _simpson(y[..., :-1], h) + 0.5 * h * (y[..., -2] + y[..., -1])
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return h / 3.0 * (y @ w)


# ---------------------------------------------------------------------------
# Operators, each applied once over all live columns
# ---------------------------------------------------------------------------


def apply_poly_operator(f: HalfField, coeff_fn: Callable) -> HalfField:
    """Apply sum_j c_j(tau, |xi'|) d^j/dx^j column-wise.

    coeff_fn(tau, xi_prime_norm), called once on the column_mesh arrays,
    returns the coefficient list (c_0, c_1, ...), each an array over the
    live columns or a scalar.  Exponential-sum parts are differentiated
    exactly; sampled parts use the 4th-order stencils of derivative_matrix.
    """
    grid = f.grid
    index, tau, xi = grid.column_mesh()
    coeffs = [np.asarray(c) for c in coeff_fn(tau, xi)]
    cols = _gather(f, index)
    if cols is not None:
        acc = coeffs[0][..., None] * cols
        for j in range(1, len(coeffs)):
            if np.any(coeffs[j]):
                acc = acc + coeffs[j][..., None] * _differentiate(
                    cols, derivative_matrix(grid.Nn, grid.h, j))
        cols = acc
    coef = coeffs[0][..., None, None] * f.coef
    d = f.coef
    for j in range(1, len(coeffs)):
        d = _derivative(f.rho, d)
        coef = coef + coeffs[j][..., None, None] * d
    return _field(grid, _scatter(grid, index, cols), f.rho, coef)


def apply_symbol(f: HalfField, sym) -> HalfField:
    """Forward op[P] for a radial PolySymbol P, with xi_n -> -i d/dx_n."""
    return apply_poly_operator(f, normal_coeffs(sym))


def apply_dminus(f: HalfField) -> HalfField:
    """Forward op[D-] = -d^2/dx^2 - d1_plus d/dx + d0_plus, the mirror of
    op[D+] (factorization.FactorCoeffs)."""
    def coeffs(tau, xi):
        fc = dplus_coeffs(tau, xi)
        return (fc.d0_plus, -fc.d1_plus, -1.0)
    return apply_poly_operator(f, coeffs)


def dotted_inverse(f: HalfField, roots_fn: Callable) -> HalfField:
    """Chained one-sided resolvents: prod_j (xi_n - rho_j)^{-1}, in order.

    roots_fn(tau, xi), called once on the column_mesh arrays, returns
    [rho_1, ..., rho_r] (arrays over the live columns, or scalars), each in
    one half plane: a lower root takes the causal resolvent (preserving
    lower support), an upper root the anticausal one (the dotted inverse).
    """
    if not f.oscillatory:
        raise ValueError("half-space inverses act on oscillatory data")
    grid = f.grid
    index, tau, xi = grid.column_mesh()
    cols = _gather(f, index)
    slots, coef = f.rho, f.coef
    for rho in roots_fn(tau, xi):
        causal = bool(np.all(np.imag(rho) < 0))
        if cols is not None:
            cols = (causal_resolvent_samples(rho, cols, grid.h) if causal
                    else anticausal_resolvent_samples(rho, cols, grid.h))
        if slots.shape[1]:
            slots, coef = (causal_resolvent_terms(rho, slots, coef) if causal
                           else anticausal_resolvent_terms(rho, slots, coef, grid.Ln))
    return _field(grid, _scatter(grid, index, cols), slots, coef)


def dminus_inverse_plus(f: HalfField) -> HalfField:
    """op[D-]^{-1}_+ f: the causal resolvents of rho_2^- and then rho_1^-."""
    # RootQuadruple.all() is (rho1_plus, rho2_plus, rho1_minus, rho2_minus)
    return dotted_inverse(f, lambda tau, xi: roots(tau, xi).all()[:1:-1])


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


def _weighted(cols, rho, coef, tau, xi, factors, d1):
    """Apply the weight factors to the columns at (tau, xi): the samples
    cols (unless None) through the first-derivative stencils d1
    (derivative_matrix), the exact part (rho, coef) exactly; returns (cols, coef)."""
    for half_y, e in factors:
        a = (1.0 + tau * tau) ** half_y + np.sqrt(1.0 + xi * xi)
        for _ in range(e):
            if cols is not None:
                cols = a[:, None] * cols - _differentiate(cols, d1)
            coef = a[:, None, None] * coef - _derivative(rho, coef)
    return cols, coef


def column_weighted_l2_sq(rho: np.ndarray, coef: np.ndarray, tau, xi,
                          factors, Ln: float) -> np.ndarray:
    """Exact squared column norms of an exp sum after the weight factors
    (from weight_factors), one per column at (tau, xi)."""
    return terms_l2_sq(rho, _weighted(None, rho, coef, tau, xi, factors, None)[1], Ln)


def halfspace_norm(u: HalfField, mu: OFLike = 0) -> float:
    """|| op[omega_mu^-]^+ u ||_{L^2(G_+)} via the elementary decomposition.

    Exponential-sum columns are integrated in closed form; a column holding
    samples is weighted with the 4th-order first-derivative stencils and
    integrated by Simpson's rule.
    """
    grid = u.grid
    factors = weight_factors(mu)
    index, tau, xi = grid.column_mesh()
    sq = column_weighted_l2_sq(u.rho, u.coef, tau, xi, factors, grid.Ln)
    cols = _gather(u, index)
    if cols is not None:
        held = cols.any(axis=1)
        d1 = derivative_matrix(grid.Nn, grid.h, 1) if factors else None
        cols, coef = _weighted(cols[held], u.rho[held], u.coef[held], tau[held],
                               xi[held], factors, d1)
        vals = cols + eval_terms(u.rho[held], coef, grid.xn())
        sq[held] = _simpson(np.abs(vals) ** 2, grid.h)
    meas = grid.T * grid.Lx ** (grid.n - 1)
    return float(np.sqrt(meas * sq.sum()))


def boundary_norm(g: np.ndarray, mu: OFLike, grid: HalfGrid) -> float:
    """Weighted l^2 norm of boundary spectral data over live columns."""
    mu = as_diff(mu)
    g = np.asarray(g, dtype=complex)
    if g.shape != grid.col_shape:
        raise ValueError("boundary data must live on the column grid")
    index, tau, xi = grid.column_mesh()
    w = smooth_weight_eval(mu, tau, xi)
    total = float(np.sum(np.abs(g[index]) ** 2 * w * w))
    return float(np.sqrt(grid.T * grid.Lx ** (grid.n - 1) * total))


# ---------------------------------------------------------------------------
# Traces and the Vandermonde trace extension
# ---------------------------------------------------------------------------


def traces(u: HalfField, count: int) -> np.ndarray:
    """Discrete Tr_j, j = 0..count-1; shape (count,) + col_shape."""
    grid = u.grid
    index = grid.column_mesh()[0]
    cols = _gather(u, index)
    out = np.zeros((count,) + grid.col_shape, complex)
    for j in range(count):
        val = trace_of_terms(u.rho, u.coef, j)
        if cols is not None:
            val = cols[:, :j + 6] @ grid.trace_stencil(j) + val
        out[(j,) + index] = val
    return out


def trace_extension(grid: HalfGrid, g: np.ndarray,
                    mu: OrderFunction) -> HalfField:
    """Right inverse of Tr^{(ord mu)}: exact exponential-sum extension.

    g has shape (ord mu,) + col_shape.  Per column, trace j is matched by
    eta_j = sigma_j A_j^{-j} sum_k c_{kj} e^{-k A_j x} with Vandermonde
    nodes {0, -1, ..., -(r1-1)}; A_j is <xi'> for j < r2, plus
    (1 + i tau)^(-gamma_perp) from r2 on.
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
    index, tau, xi = grid.column_mesh()
    sigma = g[(slice(None),) + index]
    a = np.sqrt(1.0 + xi * xi)
    groups = [(a, range(r1))]
    if r2 > 0:
        groups = [(a, range(r2)),
                  (a + (1.0 + 1j * tau) ** (-float(shape.gamma_perp)), range(r2, r1))]
    amp = [sigma[j] * base ** (-j) for base, js in groups for j in js]
    # the node k = 0 gives one constant profile for every j
    rho = [np.zeros(tau.shape, complex)]
    coef = [sum(amp[j] * Vinv[0, j] for j in range(r1))]
    for base, js in groups:
        for k in range(1, r1):
            rho.append(1j * k * base)
            coef.append(sum(amp[j] * Vinv[k, j] for j in js))
    return _exp_field(grid, np.stack(rho, axis=-1),
                      np.stack(coef, axis=-1)[..., None])


# ---------------------------------------------------------------------------
# Boundary-value solvers
# ---------------------------------------------------------------------------


def _norm_2x2(A: np.ndarray) -> np.ndarray:
    """Spectral norm of each matrix of a (..., 2, 2) stack, in closed form:
    the root of the larger eigenvalue (p + r)/2 + hypot((p - r)/2, |q|) of
    A^H A = [[p, q], [q*, r]], whose two terms never cancel."""
    sq = (A * A.conj()).real
    p, r = sq[..., 0].sum(axis=-1), sq[..., 1].sum(axis=-1)
    q = (A[..., 0, 0].conj() * A[..., 0, 1] + A[..., 1, 0].conj() * A[..., 1, 1])
    return np.sqrt(0.5 * (p + r) + np.hypot(0.5 * (p - r), np.abs(q)))


def _conditioning(M: np.ndarray, det: np.ndarray, left: np.ndarray,
                  right: np.ndarray) -> tuple:
    """cond_2(M) and ||diag(left) M^{-1} diag(right)^{-1}||_2 for a stack of
    2x2 matrices M with determinants det: cond = s_max^2 / |det|, and
    M^{-1} = adj(M) / det."""
    adj = np.stack([M[:, 1, 1], -M[:, 0, 1], -M[:, 1, 0], M[:, 0, 0]],
                   axis=-1).reshape(M.shape)
    scaled = left[:, :, None] * (adj / det[:, None, None]) / right[:, None, :]
    return _norm_2x2(M) ** 2 / np.abs(det), _norm_2x2(scaled)


def _apply_row(row, tau, xi, tr) -> np.ndarray:
    """B_i u = sum_k B_ik u_k on the live columns at (tau, xi), from the
    traces tr[k] (Tr_0 .. Tr_3 over those columns) of each component u_k;
    a None entry adds nothing."""
    return sum(op.apply_to_traces(tau, xi, t) for op, t in zip(row, tr) if op is not None)


def _symbol_at_root(sym, tau, xi, rho) -> np.ndarray:
    """A radial PolySymbol at xi_n = rho: its action on e^{i rho x_n}."""
    return sum(c * (1j * rho) ** j for j, c in enumerate(normal_coeffs(sym)(tau, xi)))


def _boundary_solve(mesh: tuple, fs: Sequence[HalfField], g, bc, adj=None) -> tuple:
    """Solve op[L]_+ u = f, B_1 u = g_1, B_2 u = g_2 on the live columns
    mesh = (index, tau, |xi'|) (HalfGrid.column_mesh()), for L = [[D]]
    (adj None) or an m x m system with det L = D and adjugate adj (rows of
    radial PolySymbols).

    The Agmon-Douglis-Nirenberg construction: the particular part
    u_p = op[ad L] v with v_k = op[D+]^{-1} op[D-]^{-1}_+ f_k (causal
    resolvents of rho^-, then anticausal ones of rho^+), plus the kernel
    modes phi_j e^{i rho_j^+ x}, phi_j the first column of ad L at
    xi_n = rho_j^+ (phi_j = 1 for the scalar).  Row i of bc holds B_ik,
    a BoundaryOperator or None, with B_i u = sum_k B_ik u_k; the
    coefficients c of the modes solve the 2x2 system M c = g - B(u_p),
    M[i, j] = sum_k B_ik(rho_j^+) phi_j[k], for every live column at once.
    Returns (u, M, det, plus): the m solution fields, the boundary matrices
    and their determinants over the live columns, and (rho_1^+, rho_2^+).
    """
    grid = fs[0].grid
    if len(bc) != 2 or any(len(row) != len(fs) for row in bc):
        raise ValueError(f"boundary conditions: 2 rows of {len(fs)} operators (or None)")
    index, tau, xi = mesh
    rq = roots(tau, xi)
    plus = (rq.rho1_plus, rq.rho2_plus)
    rho_plus = np.stack(plus, axis=-1)
    col = (tau[:, None], xi[:, None])  # (C, 1), against rho_plus (C, 2)
    # phi[k, c, j]: component k of the kernel vector at rho_j^+ on column c
    phi = (np.ones((1, 1, 2)) if adj is None
           else np.array([_symbol_at_root(row[0], *col, rho_plus) for row in adj]))
    M = np.zeros((tau.size, 2, 2), complex)
    for i, row in enumerate(bc):
        for k, op in enumerate(row):
            if op is not None:
                M[:, i] += op.evaluate_at_root(*col, rho_plus) * phi[k]
    det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
    scale = np.maximum(np.abs(M).max(axis=(1, 2)), 1e-300)
    singular = np.abs(det) < 1e-14 * scale ** 2
    if singular.any():
        first = np.argmax(singular)
        raise ZeroDivisionError(
            f"Lopatinskii violation: singular boundary system at column "
            f"k={index[0][first] - grid.K}, |xi'|={xi[first]:.6g}")
    u = [dotted_inverse(dminus_inverse_plus(f), lambda tau, xi: plus) for f in fs]
    if adj is not None:
        u = [reduce(HalfField.__add__, map(apply_symbol, u, row)) for row in adj]
    tr = [traces(uk, 4)[(slice(None),) + index] for uk in u]
    rhs = np.stack([gi[index] - _apply_row(row, tau, xi, tr)
                    for gi, row in zip(g, bc)], axis=-1)
    c = np.linalg.solve(M, rhs[..., None])[..., 0]
    # the modes merge into the rho_j^+ slots the dotted inverse made
    u = [uk + _field(grid, None, rho_plus, (c * phi_k)[..., None])
         for uk, phi_k in zip(u, phi)]
    return u, M, det, plus


def solve_half_scalar(f: HalfField, g, bc=None) -> SolveResult:
    """Solve op[D]_+ u = f, B_1 u = g_1, B_2 u = g_2 on every live column:
    _boundary_solve for L = [[D]], whose kernel modes are e^{i rho_j^+ x}
    and whose boundary matrix is M[i, j] = B_i(rho_j^+).
    """
    if bc is None:
        bc = neumann_pair_13()
    grid = f.grid
    if g is None:
        g = (np.zeros(grid.col_shape, complex), np.zeros(grid.col_shape, complex))
    index, tau, xi = mesh = grid.column_mesh()
    (out,), M, det, plus = _boundary_solve(mesh, [f], g, [(op,) for op in bc])
    # norm of the map (boundary data in its trace space) -> (correction
    # in H^{mu_D}): the numerical shadow of the complementing condition
    factors = weight_factors(MU_D)
    n_col = np.stack([column_weighted_l2_sq(r[:, None], np.ones((tau.size, 1, 1)), tau, xi,
                                            factors, grid.Ln) for r in plus], axis=-1)
    w_chi = np.stack([smooth_weight_eval(_default_chi(op, ZERO_OF), tau, xi)
                      for op in bc], axis=-1)
    cond, scaled = _conditioning(M, det, np.sqrt(n_col), w_chi)
    conds = list(zip(zip(*(i.tolist() for i in index)), cond.tolist(), scaled.tolist()))
    return SolveResult(u=out, diagnostics={
        "max_cond": max((c for _, c, _ in conds), default=0.0),
        "max_scaled_cond": max((s for _, _, s in conds), default=0.0),
        "conds": conds,
    })


# order functions for the system solution/data spaces
E1_ORDER = T1_ORDER                  # H^{(1,1)} cap H^{(0,3)}
E2_ORDER = T2_ORDER                  # H^{(0,2)}
F2_ORDER = of_const(1)               # H^{(0,1)}
G1_ORDER = trace_order_function(T1_ORDER, 1)   # (3/2) o_{1/2}
G2_ORDER = trace_order_function(E2_ORDER, 1)   # constant 1/2


def solve_half_chg_system(f1: HalfField, f2: HalfField, g1: np.ndarray,
                          g2: np.ndarray, bc=None) -> SolveResult:
    """Solve op[L]_+ u = f, B_1 u = g_1, B_2 u = g_2 for the CHG system L.

    bc is a 2x2 table of BoundaryOperator or None, B_i u = sum_k bc[i][k]
    u_k; the default is the Neumann pair (Tr_1 u_1, Tr_1 u_2).  One
    _boundary_solve with ad L: max_cond is the largest cond_2 of its
    boundary matrices.  The data norms are taken in the spaces of the
    Neumann data, G1 and G2, whatever the pair.
    """
    if bc is None:
        bc = ((trace_operator(1), None), (None, trace_operator(1)))
    grid = f1.grid
    index, tau, xi = mesh = grid.column_mesh()
    u, M, det, _ = _boundary_solve(mesh, [f1, f2], (g1, g2), bc,
                                   adjugate(chg_matrix(grid.n)).entries)
    tr = [traces(ui, 4)[(slice(None),) + index] for ui in u]
    residual = []
    for gi, row in zip((g1, g2), bc):
        Bu = np.zeros(grid.col_shape, complex)
        Bu[index] = _apply_row(row, tau, xi, tr)
        residual.append(float(np.abs(Bu - gi).max()))
    diag = {
        "norm_u1_E1": halfspace_norm(u[0], E1_ORDER),
        "norm_u2_E2": halfspace_norm(u[1], E2_ORDER),
        "norm_f1_F1": halfspace_norm(f1, 0),
        "norm_f2_F2": halfspace_norm(f2, F2_ORDER),
        "norm_g1_G1": boundary_norm(g1, G1_ORDER, grid),
        "norm_g2_G2": boundary_norm(g2, G2_ORDER, grid),
        "bdry_residual_1": residual[0],
        "bdry_residual_2": residual[1],
        "max_cond": float((_norm_2x2(M) ** 2 / np.abs(det)).max(initial=0.0)),
    }
    data = diag["norm_f1_F1"] + diag["norm_f2_F2"] \
        + diag["norm_g1_G1"] + diag["norm_g2_G2"]
    if data > 0:
        diag["ratio"] = (diag["norm_u1_E1"] + diag["norm_u2_E2"]) / data
    return SolveResult(u=tuple(u), diagnostics=diag)


# ---------------------------------------------------------------------------
# The Dirichlet failure probe
# ---------------------------------------------------------------------------

T0_MU_MINUS = trace_order_function(MU_MINUS, 0)   # o_{1/2} + 1/2
T2_MU_D = trace_order_function(MU_D, 2)           # (3/2) o_{1/2}


def borderline_datum(grid: HalfGrid) -> np.ndarray:
    """|g_k| = 1 / w_{T0(mu_-)}(tau_k, 0): exactly the critical decay rate."""
    g = np.zeros(grid.col_shape, complex)
    index, tau, xi = grid.column_mesh()
    on_axis = tuple(i[xi == 0.0] for i in index)
    g[on_axis] = 1.0 / smooth_weight_eval(T0_MU_MINUS, tau[xi == 0.0], 0.0)
    return g


def _sup_column_ratio(u: HalfField, f: HalfField) -> float:
    """max over columns of ||u_col||_{mu_D} / ||f_col||_{0}: the discrete
    operator-norm estimate (data concentrated on a single column)."""
    _, tau, xi = u.grid.column_mesh()
    fsq = terms_l2_sq(f.rho, f.coef, u.grid.Ln)
    usq = column_weighted_l2_sq(u.rho, u.coef, tau, xi, weight_factors(MU_D), u.grid.Ln)
    return float(np.sqrt(usq[fsq > 0] / fsq[fsq > 0]).max(initial=0.0))


def dirichlet_failure_probe(resolutions: Optional[Sequence[tuple]] = None) -> list[dict]:
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
        grid = HalfGrid(K=K, n=1, Nn=Nn)
        g = borderline_datum(grid)
        f = apply_dminus(trace_extension(grid, np.stack([g, np.zeros_like(g)]), MU_MINUS))
        dir_u = solve_half_scalar(f, None, dirichlet_pair())
        neu_u = solve_half_scalar(f, None, neumann_pair_13())
        edge_dir = dir_u.diagnostics["conds"][-1][2]
        edge_neu = neu_u.diagnostics["conds"][-1][2]
        return {
            "K": K, "Nn": Nn,
            "trace_norm_T2": boundary_norm(traces(dminus_inverse_plus(f), 1)[0], T2_MU_D, grid),
            "f_norm": halfspace_norm(f, 0),
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
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(g.T, g.K, g.n, g.N, g.Lx, g.Ln, g.Nn))
        fh.write(f.values().astype(np.complex64).tobytes())


def read_half_field(path) -> HalfField:
    with open(path, "rb") as fh:
        T, K, n, N, Lx, Ln, Nn = _HEADER.unpack(fh.read(_HEADER.size))
        grid = HalfGrid(T=T, K=K, n=n, N=N, Lx=Lx, Ln=Ln, Nn=Nn)
        raw = np.frombuffer(fh.read(), dtype=np.complex64)
    return HalfField(grid, raw.reshape(grid.shape).astype(complex))


# ---------------------------------------------------------------------------
# Random data generators for ensembles
# ---------------------------------------------------------------------------


def random_exp_field(grid: HalfGrid, seed: int = 0) -> HalfField:
    """Random decaying exponential-sum field: three terms c e^{i rho x} on
    every live column, with Re rho in [-2, 2] and Im rho in [0.3, 2].

    Two draws from ``default_rng(seed)``: one standard-normal array
    (columns, 3, 2) for the real and imaginary parts of c, then one uniform
    array (columns, 3, 2) mapped affinely onto Re rho and Im rho."""
    rng = np.random.default_rng(seed)
    shape = (grid.column_mesh()[1].size, 3, 2)
    c, r = rng.standard_normal(shape), rng.random(shape)
    rho = (-2.0 + 4.0 * r[..., 0]) + 1j * (0.3 + 1.7 * r[..., 1])
    return _exp_field(grid, rho, (c[..., 0] + 1j * c[..., 1])[..., None])
