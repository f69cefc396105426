"""Scalar and matrix symbols on (tau, xi) with grid-based certification.

Symbols are either explicit polynomials (PolySymbol, with exact exponent
sets) or plain evaluation maps (SymbolFn) carrying a declared upper order
function.  Certification evaluates |P|/W_mu over a wide logarithmic grid;
the reported constants are grid-relative evidence, not proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .polygons import (
    NewtonPolygon,
    OFLike,
    OrderFunctionDiff,
    QPoint,
    as_diff,
    frac,
    of_add,
    polygon_from_exponents,
    qpoint,
    weight_eval,
)

Alpha = Union[int, tuple]  # radial power of |xi|, or a multi-index over xi_1..xi_n


@dataclass(frozen=True)
class PolySymbol:
    """P(tau, xi) = sum coeff * tau^i * (|xi|^a or xi^alpha)."""

    n: int
    radial: bool
    monomials: tuple[tuple[complex, int, Alpha], ...]

    def __post_init__(self):
        seen = {}
        for coeff, i, alpha in self.monomials:
            if i < 0:
                raise ValueError("negative tau power")
            key = (i, alpha if isinstance(alpha, int) else tuple(alpha))
            seen[key] = seen.get(key, 0) + complex(coeff)
        mono = tuple((c, i, a) for (i, a), c in sorted(seen.items(),
                     key=lambda kv: (kv[0][0], str(kv[0][1]))) if c != 0)
        object.__setattr__(self, "monomials", mono)

    def exponent_set(self) -> set[QPoint]:
        out = set()
        for _, i, alpha in self.monomials:
            r = alpha if isinstance(alpha, int) else sum(alpha)
            out.add(qpoint(r, i))
        return out

    def newton_polygon(self) -> NewtonPolygon:
        return polygon_from_exponents(self.exponent_set())

    def __call__(self, tau, xi):
        tau = np.asarray(tau)
        acc = 0
        if self.radial:
            xin = np.asarray(xi)
            shape = np.broadcast(tau, xin).shape
            for coeff, i, a in self.monomials:
                acc = acc + coeff * tau ** i * xin ** a
        else:
            comps = [np.asarray(c) for c in xi]
            if len(comps) != self.n:
                raise ValueError(f"expected {self.n} xi components")
            shape = np.broadcast(tau, *comps).shape
            for coeff, i, alpha in self.monomials:
                term = coeff * tau ** i
                for c, a in zip(comps, alpha):
                    term = term * c ** a
                acc = acc + term
        return np.asarray(acc, dtype=complex) + np.zeros(shape, dtype=complex)

    def __mul__(self, other: "PolySymbol") -> "PolySymbol":
        if self.radial != other.radial or self.n != other.n:
            raise ValueError("incompatible symbols")
        mono = []
        for c1, i1, a1 in self.monomials:
            for c2, i2, a2 in other.monomials:
                if self.radial:
                    mono.append((c1 * c2, i1 + i2, a1 + a2))
                else:
                    mono.append((c1 * c2, i1 + i2,
                                 tuple(x + y for x, y in zip(a1, a2))))
        return PolySymbol(self.n, self.radial, tuple(mono))

    def __add__(self, other: "PolySymbol") -> "PolySymbol":
        if self.radial != other.radial or self.n != other.n:
            raise ValueError("incompatible symbols")
        return PolySymbol(self.n, self.radial, self.monomials + other.monomials)

    def to_jsonable(self):
        return {"n": self.n, "radial": self.radial, "monomials": [
            {"re": c.real, "im": c.imag, "i": i,
             **({"r": a} if isinstance(a, int) else {"alpha": list(a)})}
            for c, i, a in self.monomials]}

    @staticmethod
    def from_jsonable(obj) -> "PolySymbol":
        mono = []
        for m in obj["monomials"]:
            alpha = m["r"] if "r" in m else tuple(m["alpha"])
            mono.append((complex(m.get("re", 0.0), m.get("im", 0.0)), m["i"], alpha))
        return PolySymbol(obj["n"], obj["radial"], tuple(mono))


@dataclass(frozen=True)
class SymbolFn:
    """A pure evaluation map (tau, xi) -> complex with a declared upper order."""

    fn: Callable
    order: Optional[OrderFunctionDiff] = None
    radial: bool = True
    n: int = 1
    name: str = ""
    oscillatory_only: bool = False

    def __call__(self, tau, xi):
        if self.oscillatory_only and np.any(np.asarray(tau) == 0):
            raise ValueError(f"symbol {self.name or '<anon>'} requires tau != 0")
        return np.asarray(self.fn(tau, xi))


def normal_coeffs(sym) -> Callable:
    """A radial symbol read as an ODE in x_n: (tau, |xi'|) -> (c_0, ..., c_d).

    Expands |xi|^2 = |xi'|^2 + xi_n^2 and maps xi_n^j -> (-i d/dx_n)^j, so
    that P(tau, xi) acts on a column as sum_j c_j(tau, |xi'|) d^j/dx_n^j.
    The expansion is done once, here; the returned map only evaluates it.
    """
    poly = sym.fn if isinstance(sym, SymbolFn) else sym
    if not isinstance(poly, PolySymbol) or not poly.radial:
        raise ValueError("normal coefficients need a radial PolySymbol")
    table: dict = {}  # j -> [(coeff, tau power, |xi'| power)]
    for coeff, i, a in poly.monomials:
        if a < 0 or a % 2:
            raise ValueError(f"|xi|^{a} is not a polynomial in xi_n")
        # |xi|^a = sum_l C(a/2, l) |xi'|^(a-2l) xi_n^(2l), and (-i)^(2l) = (-1)^l
        for l in range(a // 2 + 1):
            table.setdefault(2 * l, []).append(
                (coeff * math.comb(a // 2, l) * (-1) ** l, i, a - 2 * l))
    monos = tuple(tuple(table.get(j, ())) for j in range(max(table, default=0) + 1))

    def coeffs(tau, xi):
        return tuple(sum(c * tau ** i * xi ** p for c, i, p in mono)
                     for mono in monos)
    return coeffs


def as_symbol(sym, order: Optional[OFLike] = None) -> SymbolFn:
    if isinstance(sym, SymbolFn):
        if order is not None and sym.order is None:
            return replace(sym, order=as_diff(order))
        return sym
    if isinstance(sym, PolySymbol):
        return SymbolFn(fn=sym, radial=sym.radial, n=sym.n,
                        order=None if order is None else as_diff(order))
    if isinstance(sym, (int, float, complex)):
        c = complex(sym)
        return SymbolFn(fn=lambda tau, xi, c=c: c + 0.0 * np.asarray(tau, dtype=complex),
                        order=None if order is None else as_diff(order),
                        name=str(sym))
    raise TypeError(f"cannot interpret {sym!r} as a symbol")


@dataclass(frozen=True)
class MatrixSymbol:
    entries: tuple[tuple[SymbolFn, ...], ...]
    row_orders: Optional[tuple[OrderFunctionDiff, ...]] = None  # s_i
    col_orders: Optional[tuple[OrderFunctionDiff, ...]] = None  # t_j

    def __post_init__(self):
        m = len(self.entries)
        if any(len(row) != m for row in self.entries):
            raise ValueError("matrix symbol must be square")
        object.__setattr__(self, "entries", tuple(
            tuple(as_symbol(e) for e in row) for row in self.entries))

    @property
    def m(self) -> int:
        return len(self.entries)

    def evaluate(self, tau, xi) -> np.ndarray:
        """Stack entry values: result shape (..., m, m)."""
        vals = [[np.asarray(e(tau, xi), dtype=complex) for e in row]
                for row in self.entries]
        shape = np.broadcast(*(v for row in vals for v in row)).shape
        out = np.empty(shape + (self.m, self.m), dtype=complex)
        for i, row in enumerate(vals):
            for j, v in enumerate(row):
                out[..., i, j] = np.broadcast_to(v, shape)
        return out

    def delta(self) -> Optional[OrderFunctionDiff]:
        """delta = sum_k (s_k + t_k), the order function of the determinant."""
        if self.row_orders is None or self.col_orders is None:
            return None
        acc = None
        for s, t in zip(self.row_orders, self.col_orders):
            st = of_add(s, t)
            acc = st if acc is None else of_add(acc, st)
        return acc


def det(M: MatrixSymbol) -> SymbolFn:
    def fn(tau, xi, M=M):
        return np.linalg.det(M.evaluate(tau, xi))
    return SymbolFn(fn=fn, order=M.delta(),
                    radial=all(e.radial for row in M.entries for e in row),
                    name="det")


def _minor(M: MatrixSymbol, i: int, j: int) -> MatrixSymbol:
    ent = tuple(tuple(e for jj, e in enumerate(row) if jj != j)
                for ii, row in enumerate(M.entries) if ii != i)
    return MatrixSymbol(ent)


def adjugate(M: MatrixSymbol) -> MatrixSymbol:
    """(ad M)_{ij} = (-1)^{i+j} det M^{(ji)} so that M * ad M = det * I."""
    m = M.m
    if m == 1:
        return MatrixSymbol(((as_symbol(1),),))
    rows = []
    for i in range(m):
        row = []
        for j in range(m):
            minor_det = det(_minor(M, j, i))
            sign = (-1) ** (i + j)
            row.append(SymbolFn(
                fn=lambda tau, xi, d=minor_det, s=sign: s * d(tau, xi),
                radial=minor_det.radial, name=f"adj[{i}][{j}]"))
        rows.append(tuple(row))
    row_orders = col_orders = None
    if M.row_orders is not None and M.col_orders is not None:
        # entry (i,j) of the adjugate is bounded by T_i + S_j with
        # S_i = sum_{k != i} s_k and T_j = sum_{k != j} t_k.
        def drop_sum(funcs, skip):
            acc = None
            for k, f in enumerate(funcs):
                if k == skip:
                    continue
                acc = as_diff(f) if acc is None else of_add(acc, f)
            return acc if acc is not None else as_diff(0)
        row_orders = tuple(drop_sum(M.col_orders, i) for i in range(m))
        col_orders = tuple(drop_sum(M.row_orders, j) for j in range(m))
    return MatrixSymbol(tuple(rows), row_orders=row_orders, col_orders=col_orders)


# ---------------------------------------------------------------------------
# Grid certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    lam: float = 1.0
    tau_max: float = 1e6
    n_tau: int = 64
    xi_min: float = 1e-3
    xi_max: float = 1e3
    n_xi: int = 64
    n_dirs: int = 8  # random xi directions per radius for non-radial symbols
    seed: int = 0

    def tau_values(self) -> np.ndarray:
        pos = np.logspace(math.log10(self.lam), math.log10(self.tau_max), self.n_tau)
        return np.concatenate([-pos[::-1], pos])

    def xi_norms(self) -> np.ndarray:
        return np.concatenate([[0.0], np.logspace(math.log10(self.xi_min),
                                                  math.log10(self.xi_max), self.n_xi)])

    def to_jsonable(self):
        return {"lam": self.lam, "tau_max": self.tau_max, "n_tau": self.n_tau,
                "xi_min": self.xi_min, "xi_max": self.xi_max, "n_xi": self.n_xi,
                "n_dirs": self.n_dirs, "seed": self.seed}


@dataclass(frozen=True)
class CertReport:
    kind: str
    passed: bool
    c_upper: Optional[float] = None
    c_lower: Optional[float] = None
    grid: Optional[GridSpec] = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.c_upper is not None and self.c_lower is not None:
            assert self.c_lower <= self.c_upper * (1 + 1e-12)

    def to_jsonable(self):
        return {"kind": self.kind, "passed": self.passed,
                "c_upper": self.c_upper, "c_lower": self.c_lower,
                "grid": None if self.grid is None else self.grid.to_jsonable(),
                "details": self.details}


def _require_finite(vals: np.ndarray, T: np.ndarray, X: np.ndarray) -> None:
    """Raise at the first non-finite value on the mesh; a stack of matrices
    (mesh axes first) is scanned entry by entry, in row-major order."""
    bad = np.moveaxis(~np.isfinite(vals), (0, 1), (-2, -1))
    if bad.any():
        pt = tuple(np.argwhere(bad)[0][-2:])
        raise FloatingPointError(
            f"symbol evaluation not finite at tau={T[pt]}, |xi|={X[pt]}")


def _sample_ratio(sym: SymbolFn, mu: OrderFunctionDiff, grid: GridSpec):
    """|P|/W_mu over the grid; returns (tau mesh, |xi| mesh, ratio)."""
    T, X = np.meshgrid(grid.tau_values(), grid.xi_norms(), indexing="ij")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        if sym.radial:
            vals = np.abs(np.asarray(sym(T, X), dtype=complex))
        else:
            rng = np.random.default_rng(grid.seed)
            dirs = [np.eye(sym.n)[k] for k in range(sym.n)]
            for _ in range(grid.n_dirs):
                v = rng.normal(size=sym.n)
                dirs.append(v / np.linalg.norm(v))
            vals = np.zeros(T.shape)
            for d in dirs:
                xi_vec = [X * comp for comp in d]
                vals = np.maximum(vals, np.abs(np.asarray(sym(T, xi_vec),
                                                          dtype=complex)))
    _require_finite(vals, T, X)
    return T, X, vals / weight_eval(mu, T, X)


def sample_matrix(M: MatrixSymbol, grid: GridSpec):
    """(tau mesh, |xi| mesh, |M_ij| as (..., m, m), |det M|) from one
    evaluation of M; the entries are checked before the determinant."""
    if not all(e.radial for row in M.entries for e in row):
        raise ValueError("mixed-order certification needs radial entries")
    T, X = np.meshgrid(grid.tau_values(), grid.xi_norms(), indexing="ij")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        vals = M.evaluate(T, X)
        abs_entries = np.abs(vals)
        _require_finite(abs_entries, T, X)
        abs_det = np.abs(np.linalg.det(vals))
    _require_finite(abs_det, T, X)
    return T, X, abs_entries, abs_det


def _upper_report(T, X, ratio, grid: GridSpec) -> CertReport:
    c = float(ratio.max())
    idx = np.unravel_index(int(ratio.argmax()), ratio.shape)
    return CertReport(kind="upper_bound", passed=bool(np.isfinite(c)),
                      c_upper=c, grid=grid,
                      details={"argmax": {"tau": float(T[idx]), "xi": float(X[idx])}})


def _ellipticity_report(T, X, ratio, grid: GridSpec, floor: float) -> CertReport:
    mask = np.abs(T) >= grid.lam * (1 - 1e-12)
    vals = np.where(mask, ratio, np.inf)
    c_lo = float(vals.min())
    c_hi = float(np.where(mask, ratio, -np.inf).max())
    idx = np.unravel_index(int(vals.argmin()), vals.shape)
    return CertReport(kind="ellipticity", passed=bool(c_lo > floor),
                      c_lower=c_lo, c_upper=c_hi, grid=grid,
                      details={"lambda": grid.lam, "floor": floor,
                               "argmin": {"tau": float(T[idx]), "xi": float(X[idx])}})


def invertibility_report(T, X, abs_det) -> dict:
    """Pointwise invertibility over the mesh, read off |det| sampled there."""
    idx = np.unravel_index(int(abs_det.argmin()), abs_det.shape)
    return {"pass": bool(abs_det.min() > 0), "min_abs_det": float(abs_det.min()),
            "max_abs_det": float(abs_det.max()),
            "argmin": {"tau": float(T[idx]), "xi": float(X[idx])}}


def upper_bound_certify(sym, mu: OFLike, grid: GridSpec = GridSpec()) -> CertReport:
    T, X, ratio = _sample_ratio(as_symbol(sym), as_diff(mu), grid)
    return _upper_report(T, X, ratio, grid)


def ellipticity_certify(sym, mu: OFLike, lam: Optional[float] = None,
                        grid: GridSpec = GridSpec(), floor: float = 0.0) -> CertReport:
    if lam is not None and lam != grid.lam:
        grid = replace(grid, lam=lam)
    T, X, ratio = _sample_ratio(as_symbol(sym), as_diff(mu), grid)
    return _ellipticity_report(T, X, ratio, grid, floor)


def _ray_decay_witness(T, X, ratio, grid: GridSpec) -> list:
    """Fitted log-log slope of |det|/W over the top tau-decade of each xi-ray.

    Returns one record per ray.  A clearly negative slope exposes a ratio
    that decays along the ray (ellipticity failure in the limit).
    """
    rays = []
    half = T.shape[0] // 2
    tau_pos = T[half:, 0]
    top = tau_pos >= grid.tau_max ** 0.75
    logt = np.log(tau_pos[top])
    for j in range(X.shape[1]):
        vals = ratio[half:, j][top]
        if np.any(vals <= 0):
            rays.append({"ray_xi": float(X[0, j]), "slope": float("-inf"),
                         "ratio_at_end": 0.0})
            continue
        slope = float(np.polyfit(logt, np.log(vals), 1)[0])
        rays.append({"ray_xi": float(X[0, j]), "slope": slope,
                     "ratio_at_end": float(vals[-1])})
    return rays


def mixed_order_certify(M: MatrixSymbol, grid: GridSpec = GridSpec(),
                        floor: float = 1e-8, slope_tol: float = 0.05,
                        decay_ratio_max: float = 0.2) -> dict:
    """Certify M as a mixed-order system (Def. of the complementing machinery).

    Every entry must be bounded by W_{s_i+t_j}; the determinant must be
    N-elliptic for delta = sum(s_k + t_k).  Failure of the determinant is
    reported with a witness ray along which |det|/W_delta decays.  A decay
    witness counts as a failure only when the ratio both trends down
    (fitted slope below -slope_tol) and has already fallen under
    decay_ratio_max at the grid edge; this separates genuine power-law
    decay from a benign crossover between growth regimes, where the ratio
    dips but stays order one.  Every report, and the pointwise
    invertibility of M, comes from one evaluation of M on the mesh.
    """
    if M.row_orders is None or M.col_orders is None:
        raise ValueError("mixed-order certification requires row/column orders")
    T, X, abs_entries, abs_det = sample_matrix(M, grid)
    entry_reports = {}
    for i, s in enumerate(M.row_orders):
        for j, t in enumerate(M.col_orders):
            ratio = abs_entries[..., i, j] / weight_eval(of_add(s, t), T, X)
            entry_reports[f"{i},{j}"] = _upper_report(T, X, ratio, grid)
    delta = M.delta()
    ratio = abs_det / weight_eval(delta, T, X)
    det_rep = _ellipticity_report(T, X, ratio, grid, floor)
    rays = _ray_decay_witness(T, X, ratio, grid)
    failing = [r for r in rays
               if r["slope"] < -slope_tol and r["ratio_at_end"] < decay_ratio_max]
    if failing:
        # the most-decayed ray is the clearest witness; near-ties resolve
        # to the smallest |xi| so degenerate rays are reported canonically
        best = min(r["ratio_at_end"] for r in failing)
        near = [r for r in failing if r["ratio_at_end"] <= best * 1.15]
        witness = min(near, key=lambda r: r["ray_xi"])
    else:
        witness = min(rays, key=lambda r: r["slope"]) if rays else None
    slope = witness["slope"] if witness else 0.0
    passed = bool(all(r.passed for r in entry_reports.values())
                  and det_rep.passed and not failing)
    return {"passed": passed, "delta": delta, "entries": entry_reports,
            "det": det_rep, "decay_witness": witness, "worst_slope": slope,
            "invertibility": invertibility_report(T, X, abs_det)}
