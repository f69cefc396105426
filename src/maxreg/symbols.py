"""Scalar and matrix symbols on (tau, xi) with grid-based certification.

Symbols are either explicit polynomials (PolySymbol, with exact exponent
sets) or plain evaluation maps (SymbolFn).  Certification evaluates
|P|/W_mu over a wide logarithmic grid; the reported constants are
grid-relative evidence, not proofs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field
from functools import reduce
from typing import Callable, Optional, Union

import numpy as np

from .polygons import (
    NewtonPolygon,
    OFLike,
    OrderFunctionDiff,
    QPoint,
    _no_bool,
    as_diff,
    of_add,
    polygon_from_exponents,
    qpoint,
    weight_eval,
    weight_parts,
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
        """P at (tau, xi), at the broadcast shape of the variables its
        monomials use: a constant is 0-d and i tau keeps tau's shape.
        Callers that need the full mesh broadcast the result."""
        tau = np.asarray(tau)
        comps = [np.asarray(xi)] if self.radial else [np.asarray(c) for c in xi]
        if not self.radial and len(comps) != self.n:
            raise ValueError(f"expected {self.n} xi components")
        acc = 0
        for coeff, i, alpha in self.monomials:
            term = coeff
            for x, p in zip([tau] + comps, (i, alpha) if self.radial else (i, *alpha)):
                if p:  # a factor of power 0 is 1
                    term = term * x ** p
            acc = acc + term
        return np.asarray(acc, dtype=complex)

    def __mul__(self, other: Union["PolySymbol", numbers.Number]) -> "PolySymbol":
        if isinstance(other, numbers.Number):
            return PolySymbol(self.n, self.radial,
                              tuple((c * other, i, a) for c, i, a in self.monomials))
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
            alpha = _no_bool(m["r"]) if "r" in m else tuple(map(_no_bool, m["alpha"]))
            mono.append((complex(_no_bool(m.get("re", 0.0)), _no_bool(m.get("im", 0.0))),
                         _no_bool(m["i"]), alpha))
        return PolySymbol(obj["n"], obj["radial"], tuple(mono))


@dataclass(frozen=True)
class SymbolFn:
    """A pure evaluation map (tau, xi) -> complex that is not a polynomial."""

    fn: Callable
    radial: bool = True
    n: int = 1
    name: str = ""
    oscillatory_only: bool = False

    def __call__(self, tau, xi):
        if self.oscillatory_only and np.any(np.asarray(tau) == 0):
            raise ValueError(f"symbol {self.name or '<anon>'} requires tau != 0")
        return np.asarray(self.fn(tau, xi))


def normal_coeffs(sym) -> Callable:
    """A radial PolySymbol read as an ODE in x_n: (tau, |xi'|) -> (c_0, ..., c_d).

    Expands |xi|^2 = |xi'|^2 + xi_n^2 and maps xi_n^j -> (-i d/dx_n)^j, so
    that P(tau, xi) acts on a column as sum_j c_j(tau, |xi'|) d^j/dx_n^j.
    The expansion is done once, here; the returned map only evaluates it.
    """
    if not isinstance(sym, PolySymbol) or not sym.radial:
        raise ValueError("normal coefficients need a radial PolySymbol")
    table: dict = {}  # j -> [(coeff, tau power, |xi'| power)]
    for coeff, i, a in sym.monomials:
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


def as_symbol(sym) -> Union[PolySymbol, SymbolFn]:
    """A symbol as given, or a number as the constant PolySymbol."""
    if isinstance(sym, (PolySymbol, SymbolFn)):
        return sym
    if isinstance(sym, (int, float, complex)):
        return PolySymbol(1, True, ((complex(sym), 0, 0),))
    raise TypeError(f"cannot interpret {sym!r} as a symbol")


@dataclass(frozen=True)
class MatrixSymbol:
    entries: tuple[tuple[Union[PolySymbol, SymbolFn], ...], ...]
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

    def entry_rows(self, value) -> tuple:
        """value(e) over the entry rows, taken once per distinct entry object."""
        distinct = {id(e): e for row in self.entries for e in row}
        vals = {k: value(e) for k, e in distinct.items()}
        return tuple(tuple(vals[id(e)] for e in row) for row in self.entries)

    def evaluate(self, tau, xi) -> tuple:
        """The entry rows, vals[i][j] = M_ij(tau, xi), each at its own
        broadcast shape (a constant is 0-d); an entry object that sits in
        several places is evaluated once."""
        return self.entry_rows(lambda e: np.asarray(e(tau, xi), dtype=complex))

    def delta(self) -> Optional[OrderFunctionDiff]:
        """delta = sum_k (s_k + t_k), the order function of the determinant."""
        if self.row_orders is None or self.col_orders is None:
            return None
        acc = None
        for s, t in zip(self.row_orders, self.col_orders):
            st = of_add(s, t)
            acc = st if acc is None else of_add(acc, st)
        return acc


# (columns of rows 0-1, complementary columns of rows 2-3, sign) for the
# Laplace expansion of a 4x4 determinant along its first two rows
_LAPLACE_4 = (((0, 1), (2, 3), 1), ((0, 2), (1, 3), -1), ((0, 3), (1, 2), 1),
              ((1, 2), (0, 3), 1), ((1, 3), (0, 2), -1), ((2, 3), (0, 1), 1))


def _is_zero(v) -> bool:  # None stands for an exact zero too
    return v is None or (np.ndim(v) == 0 and v == 0)


def _signed_sum(terms):
    """The sum of sign * a * b over the (sign, a, b), in order, skipping each
    product with a 0-d exact zero factor; b may be a function that gives
    it, called only when a is not such a zero.  None if nothing is left."""
    out = None
    for sign, a, b in terms:
        if not (_is_zero(a) or _is_zero(b := b() if callable(b) else b)):
            v = a * b if sign > 0 else -(a * b)
            out = v if out is None else out + v
    return out


def det_values(rows) -> np.ndarray:
    """Determinants from a matrix's entry rows (MatrixSymbol.evaluate), as a
    new array at the broadcast shape of the entries it uses.

    Up to m = 4 this is whole-array arithmetic on the entries: the entry,
    ad - bc, the first-row expansion, and for m = 4 the Laplace expansion
    along the first two rows (six products of complementary 2x2 minors),
    skipping each product with a 0-d exact zero factor and the minor it
    multiplies.  Larger matrices are stacked for LAPACK (np.linalg.det).
    """
    m = len(rows)
    if m > 4:
        flat = np.broadcast_arrays(*(v for row in rows for v in row))
        return np.linalg.det(np.stack(flat, axis=-1).reshape(flat[0].shape + (m, m)))

    def minor2(r, c):  # the 2x2 minor on rows r, columns c
        return _signed_sum(((1, rows[r[0]][c[0]], rows[r[1]][c[1]]),
                            (-1, rows[r[0]][c[1]], rows[r[1]][c[0]])))
    if m == 1:
        out = np.array(rows[0][0], dtype=complex)
    elif m == 2:
        out = minor2((0, 1), (0, 1))
    elif m == 3:  # along the first row
        out = _signed_sum((1 - 2 * (j % 2), rows[0][j],
                           lambda j=j: minor2((1, 2), [c for c in range(3) if c != j]))
                          for j in range(3))
    else:  # along the first two rows
        out = _signed_sum((sign, minor2((0, 1), top),
                           lambda bottom=bottom: minor2((2, 3), bottom))
                          for top, bottom, sign in _LAPLACE_4)
    return np.zeros((), complex) if out is None else np.asarray(out)


def _cofactor(M: MatrixSymbol, i: int, j: int) -> PolySymbol:
    """(-1)^{i+j} det of M without row i and column j."""
    d = det(MatrixSymbol(tuple(row[:j] + row[j + 1:]
                               for k, row in enumerate(M.entries) if k != i)))
    return d if (i + j) % 2 == 0 else d * -1


def det(M: MatrixSymbol) -> PolySymbol:
    """det M of a matrix of PolySymbols, exact: expansion along the first row."""
    if not all(isinstance(e, PolySymbol) for row in M.entries for e in row):
        raise TypeError("det and adjugate take polynomial entries only")
    if M.m == 1:
        return M.entries[0][0]
    return reduce(PolySymbol.__add__, (M.entries[0][j] * _cofactor(M, 0, j)
                                       for j in range(M.m)))


def adjugate(M: MatrixSymbol) -> MatrixSymbol:
    """ad M of a matrix of PolySymbols, exact: (ad M)_{ij} is the (j, i)
    cofactor, so that M * ad M = det M * I; a 1x1 matrix has ad M = (1).
    Every entry of an m >= 2 matrix sits in some minor, whose det checks it."""
    if M.m == 1:
        return MatrixSymbol(((as_symbol(1),),))
    return MatrixSymbol(tuple(tuple(_cofactor(M, j, i) for j in range(M.m))
                              for i in range(M.m)))


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

    def __post_init__(self):
        for name, least in (("n_tau", 1), ("n_xi", 0), ("n_dirs", 0)):
            if not isinstance(value := getattr(self, name), numbers.Integral) or value < least:
                raise ValueError(f"grid size {name} must be an integer >= {least}, "
                                 f"got {value!r}")
        for name in ("lam", "tau_max", "xi_min", "xi_max"):
            if not (isinstance(value := getattr(self, name), numbers.Real)
                    and 0 < value < math.inf):
                raise ValueError(f"grid bound {name} must be finite and positive, "
                                 f"got {value!r}")

    def tau_values(self) -> np.ndarray:
        pos = np.logspace(math.log10(self.lam), math.log10(self.tau_max), self.n_tau)
        return np.concatenate([-pos[::-1], pos])

    def xi_norms(self) -> np.ndarray:
        return np.concatenate([[0.0], np.logspace(math.log10(self.xi_min),
                                                  math.log10(self.xi_max), self.n_xi)])

    def to_jsonable(self):
        return asdict(self)


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


def mesh_axes(grid: GridSpec):
    """(tau, |xi|) as broadcast axes of shapes (n, 1) and (1, m): symbols and
    weights evaluate on these, and only their combinations fill the mesh."""
    return grid.tau_values()[:, None], grid.xi_norms()[None, :]


def _point(tau, xi, idx) -> dict:
    """The (tau, |xi|) of mesh index idx."""
    return {"tau": float(tau[idx[0], 0]), "xi": float(xi[0, idx[1]])}


def _require_finite(vals: np.ndarray, tau: np.ndarray, xi: np.ndarray,
                    what: str = "symbol evaluation") -> None:
    """Raise at the first non-finite value of vals broadcast to the mesh,
    in row-major order."""
    bad = ~np.isfinite(vals)
    if bad.any():
        bad = np.broadcast_to(bad, np.broadcast(tau, xi).shape)
        pt = _point(tau, xi, np.argwhere(bad)[0])
        raise FloatingPointError(
            f"{what} not finite at tau={pt['tau']}, |xi|={pt['xi']}")


def _sample_ratio(sym, mu: OrderFunctionDiff, grid: GridSpec):
    """|P|/W_mu over the grid; returns (tau axis, |xi| axis, ratio)."""
    tau, xi = mesh_axes(grid)
    shape = np.broadcast(tau, xi).shape
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        if sym.radial:
            vals = np.abs(np.asarray(sym(tau, xi), dtype=complex))
        else:
            rng = np.random.default_rng(grid.seed)
            dirs = [np.eye(sym.n)[k] for k in range(sym.n)]
            for _ in range(grid.n_dirs):
                v = rng.normal(size=sym.n)
                dirs.append(v / np.linalg.norm(v))
            vals = np.zeros(shape)
            for d in dirs:
                xi_vec = [xi * comp for comp in d]
                vals = np.maximum(vals, np.abs(np.asarray(sym(tau, xi_vec),
                                                          dtype=complex)))
    vals = np.broadcast_to(vals, shape)
    _require_finite(vals, tau, xi)
    return tau, xi, vals / weight_eval(mu, tau, xi)


def sample_matrix(M: MatrixSymbol, grid: GridSpec):
    """(tau axis, |xi| axis, M's entry rows, |det M| on the mesh) from one
    evaluation of M; each entry keeps its own broadcast shape (a constant
    is 0-d).  Each |M_ij| is checked, entry by entry in row-major order,
    before the determinant; none of them is kept."""
    if not all(e.radial for row in M.entries for e in row):
        raise ValueError("mixed-order certification needs radial entries")
    tau, xi = mesh_axes(grid)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        vals = M.evaluate(tau, xi)
        for row in vals:
            for v in row:
                _require_finite(np.abs(v), tau, xi)
        abs_det = np.abs(det_values(vals))
    abs_det = np.broadcast_to(abs_det, np.broadcast(tau, xi).shape)
    _require_finite(abs_det, tau, xi)
    return tau, xi, vals, abs_det


def _upper_report(tau, xi, ratio, grid: GridSpec) -> CertReport:
    c = float(ratio.max())
    idx = np.unravel_index(int(ratio.argmax()), ratio.shape)
    return CertReport(kind="upper_bound", passed=bool(np.isfinite(c)),
                      c_upper=c, grid=grid,
                      details={"argmax": _point(tau, xi, idx)})


def _zero_report(tau, xi, grid: GridSpec) -> CertReport:
    """_upper_report of an exact-zero entry: its ratio 0/W is 0 on the whole
    mesh, because every weight is finite and positive, so its max is 0 at
    mesh index (0, 0)."""
    return CertReport(kind="upper_bound", passed=True, c_upper=0.0, grid=grid,
                      details={"argmax": _point(tau, xi, (0, 0))})


def _ellipticity_report(tau, xi, ratio, grid: GridSpec, floor: float) -> CertReport:
    mask = np.abs(tau) >= grid.lam * (1 - 1e-12)
    vals = np.where(mask, ratio, np.inf)
    c_lo = float(vals.min())
    c_hi = float(np.where(mask, ratio, -np.inf).max())
    idx = np.unravel_index(int(vals.argmin()), vals.shape)
    return CertReport(kind="ellipticity", passed=bool(c_lo > floor),
                      c_lower=c_lo, c_upper=c_hi, grid=grid,
                      details={"lambda": grid.lam, "floor": floor,
                               "argmin": _point(tau, xi, idx)})


def invertibility_report(tau, xi, abs_det) -> dict:
    """Pointwise invertibility over the mesh, read off |det| sampled there."""
    idx = np.unravel_index(int(abs_det.argmin()), abs_det.shape)
    return {"pass": bool(abs_det.min() > 0), "min_abs_det": float(abs_det.min()),
            "max_abs_det": float(abs_det.max()),
            "argmin": _point(tau, xi, idx)}


def ellipticity_certify(sym, mu: OFLike, grid: GridSpec = GridSpec(),
                        floor: float = 0.0) -> CertReport:
    """N-ellipticity of sym for mu on the grid, for |tau| >= grid.lam."""
    tau, xi, ratio = _sample_ratio(as_symbol(sym), as_diff(mu), grid)
    return _ellipticity_report(tau, xi, ratio, grid, floor)


def _ray_decay_witness(tau, xi, ratio, grid: GridSpec) -> list:
    """Fitted log-log slope of |det|/W over the top tau-decade of each xi-ray.

    Returns one record per ray.  A clearly negative slope exposes a ratio
    that decays along the ray (ellipticity failure in the limit).  Every
    ray is fitted at once, by one centered least-squares product; a ray
    that touches zero has slope -inf.  A window without two distinct tau
    has no slope, and raises ValueError.
    """
    half = tau.shape[0] // 2
    tau_pos = tau[half:, 0]
    top = tau_pos >= grid.tau_max ** 0.75
    logt = np.log(tau_pos[top])
    if logt.size < 2 or logt[0] == logt[-1]:
        raise ValueError("the decay fit needs two distinct tau >= tau_max^0.75 "
                         "on the grid: raise n_tau or tau_max")
    logt -= logt.mean()
    sxx = float(logt @ logt)
    vals = ratio[half:][top]  # (tau in the window, ray)
    positive = (vals > 0).all(axis=0)
    logv = np.log(np.where(positive, vals, 1.0))
    logv -= logv.mean(axis=0)
    slopes = logt @ logv / sxx
    return [{"ray_xi": float(x), "slope": float(sl), "ratio_at_end": float(v)}
            if ok else
            {"ray_xi": float(x), "slope": float("-inf"), "ratio_at_end": 0.0}
            for x, sl, v, ok in zip(xi[0], slopes, vals[-1], positive)]


# mixed_order_certify: the determinant's ellipticity floor, and the slope and
# edge ratio below which a decay witness counts as a failure
MIXED_ORDER_FLOOR = 1e-8
DECAY_SLOPE_TOL = 0.05
DECAY_RATIO_MAX = 0.2


def mixed_order_certify(M: MatrixSymbol, grid: GridSpec = GridSpec()) -> dict:
    """Certify M as a mixed-order system (Def. of the complementing machinery).

    Every entry must be bounded by W_{s_i+t_j}; the determinant must be
    N-elliptic for delta = sum(s_k + t_k).  Failure of the determinant is
    reported with a witness ray along which |det|/W_delta decays.  A decay
    witness counts as a failure only when the ratio both trends down
    (fitted slope below -DECAY_SLOPE_TOL) and has already fallen under
    DECAY_RATIO_MAX at the grid edge; this separates genuine power-law
    decay from a benign crossover between growth regimes, where the ratio
    dips but stays order one.  Every report, and the pointwise
    invertibility of M, comes from one evaluation of M on the mesh.
    """
    if M.row_orders is None or M.col_orders is None:
        raise ValueError("mixed-order certification requires row/column orders")
    tau, xi, vals, abs_det = sample_matrix(M, grid)
    weight = weight_parts(tau, xi)
    entry_reports = {}
    for i, s in enumerate(M.row_orders):
        for j, t in enumerate(M.col_orders):
            # the weight parts are taken, and checked, for every entry; an
            # exact zero needs no mesh work beyond them
            plus, minus = weight(of_add(s, t))
            v = vals[i][j]
            entry_reports[f"{i},{j}"] = (
                _zero_report(tau, xi, grid) if _is_zero(v) else
                _upper_report(tau, xi, np.abs(v) / (plus / minus), grid))
    delta = M.delta()
    plus, minus = weight(delta)
    ratio = abs_det / (plus / minus)
    det_rep = _ellipticity_report(tau, xi, ratio, grid, MIXED_ORDER_FLOOR)
    rays = _ray_decay_witness(tau, xi, ratio, grid)
    failing = [r for r in rays
               if r["slope"] < -DECAY_SLOPE_TOL and r["ratio_at_end"] < DECAY_RATIO_MAX]
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
            "invertibility": invertibility_report(tau, xi, abs_det)}
