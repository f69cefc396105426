"""Exact-rational Newton polygons, order functions, weight functions.

Conventions: a point (r, s) pairs the xi-degree r with the tau-degree s.
A Newton polygon is the convex envelope of a finite point set in the closed
first quadrant together with the axis projections of every point and the
origin.  Its canonical vertex list runs counter-clockwise starting at (0,0),
with collinear points dropped.  The order function of a polygon is
mu(gamma) = max_j (r_j + gamma*s_j), stored as canonical piecewise-linear
segments.  All polygon/order-function data is exact (fractions.Fraction);
floats appear only when weights are evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

RatLike = Union[int, str, Fraction]


def frac(x: RatLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _no_bool(x):
    """x, a number read from a JSON file: true and false are refused, not
    read as 1 and 0."""
    if isinstance(x, bool):
        raise ValueError(f"expected a number, got {x!r}")
    return x


class QPoint(NamedTuple):
    r: Fraction
    s: Fraction


def qpoint(r: RatLike, s: RatLike) -> QPoint:
    r, s = frac(r), frac(s)
    if r < 0 or s < 0:
        raise ValueError(f"point ({r}, {s}) outside the closed first quadrant")
    return QPoint(r, s)


_ORIGIN = QPoint(Fraction(0), Fraction(0))


def _cross(o, a, b):
    """Orientation of (o, a, b) for any (r, s) pairs: QPoints or integer pairs."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (b[0] - o[0]) * (a[1] - o[1])


def _hull_ccw(points: Sequence[QPoint]) -> list[QPoint]:
    """Monotone-chain convex hull, CCW, starting at the lexicographic minimum.

    The points are scaled by the common denominator of their coordinates, so
    the orientation tests run on exact integers instead of Fractions.
    """
    uniq = set(points)
    den = math.lcm(*(c.denominator for p in uniq for c in p))
    by_int = {(p.r.numerator * (den // p.r.denominator),
               p.s.numerator * (den // p.s.denominator)): p for p in uniq}
    pts = sorted(by_int)
    if len(pts) <= 1:
        return [by_int[q] for q in pts]
    lower: list = []
    for q in pts:
        while len(lower) > 1 and _cross(lower[-2], lower[-1], q) <= 0:
            lower.pop()
        lower.append(q)
    upper: list = []
    for q in reversed(pts):
        while len(upper) > 1 and _cross(upper[-2], upper[-1], q) <= 0:
            upper.pop()
        upper.append(q)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:  # all points collinear: keep the two extremes
        hull = [pts[0], pts[-1]]
    return [by_int[q] for q in hull]


@dataclass(frozen=True)
class NewtonPolygon:
    vertices: tuple[QPoint, ...]

    def __post_init__(self):
        if self.vertices[0] != _ORIGIN:
            raise ValueError("canonical vertex list must start at (0,0)")

    def upper_chain(self) -> list[QPoint]:
        """Non-origin vertices in CCW order (from the xi-axis up to the s-axis)."""
        return [v for v in self.vertices if v != _ORIGIN]

    def to_jsonable(self):
        return {"vertices": [[str(v.r), str(v.s)] for v in self.vertices]}

    @staticmethod
    def from_jsonable(obj) -> "NewtonPolygon":
        return polygon_from_exponents([qpoint(r, s) for r, s in obj["vertices"]])


def polygon_from_exponents(points) -> NewtonPolygon:
    """conv(points + axis projections + origin) with canonical CCW vertex list."""
    pts = [qpoint(p[0], p[1]) for p in points]
    aug = [_ORIGIN]
    for p in pts:
        aug.append(p)
        aug.append(QPoint(p.r, Fraction(0)))
        aug.append(QPoint(Fraction(0), p.s))
    return NewtonPolygon(tuple(_hull_ccw(aug)))


def normal_slopes(p: NewtonPolygon) -> list[Optional[Fraction]]:
    """Slopes gamma_j = (r_j - r_{j+1})/(s_{j+1} - s_j) along the upper chain.

    None encodes infinity (horizontal top edge, or a degenerate segment on
    the xi-axis).  The list is strictly increasing.
    """
    chain = p.upper_chain()
    if not chain:
        raise ValueError("polygon has no non-origin vertex")
    if chain[-1].r > 0:  # terminate the chain on the s-axis
        chain = chain + [QPoint(Fraction(0), chain[-1].s)]
    slopes: list[Optional[Fraction]] = []
    for a, b in zip(chain, chain[1:]):
        if b.s == a.s:
            slopes.append(None)
        else:
            slopes.append((a.r - b.r) / (b.s - a.s))
    return slopes


# ---------------------------------------------------------------------------
# Order functions
# ---------------------------------------------------------------------------

Piece = tuple[Optional[Fraction], Fraction, Fraction]  # (gamma_end or None=inf, b, m)


def _normalize_pieces(pieces: Sequence[Piece]) -> tuple[Piece, ...]:
    out: list[Piece] = []
    start = Fraction(0)
    for gamma_end, b, m in pieces:
        if gamma_end is not None and gamma_end <= start:
            continue  # empty interval
        if out and (out[-1][1], out[-1][2]) == (b, m):
            out[-1] = (gamma_end, b, m)
        else:
            out.append((gamma_end, b, m))
        if gamma_end is None:
            break
        start = gamma_end
    if not out or out[-1][0] is not None:
        raise ValueError("pieces must cover [0, inf)")
    return tuple(out)


@dataclass(frozen=True)
class OrderFunction:
    """Piecewise-linear mu(gamma) = b_k + gamma*m_k on consecutive intervals."""

    pieces: tuple[Piece, ...]

    def __post_init__(self):
        object.__setattr__(self, "pieces", _normalize_pieces(self.pieces))
        # continuity at the breakpoints
        for (ge, b, m), (_, b2, m2) in zip(self.pieces, self.pieces[1:]):
            if b + ge * m != b2 + ge * m2:
                raise ValueError("order function discontinuous at a breakpoint")

    def __call__(self, gamma: RatLike) -> Fraction:
        g = frac(gamma)
        if g < 0:
            raise ValueError("order functions are defined for gamma >= 0")
        for gamma_end, b, m in self.pieces:
            if gamma_end is None or g < gamma_end:
                return b + g * m
        raise AssertionError("unreachable")

    @property
    def breakpoints(self) -> list[Fraction]:
        return [ge for ge, _, _ in self.pieces if ge is not None]

    @property
    def ord(self) -> Fraction:
        """ord mu := mu(0) = r_1 (the xi-degree of the polygon)."""
        return self.pieces[0][1]

    @property
    def strictly_positive(self) -> bool:
        """True iff mu is the order function of a Newton polygon."""
        prev_m = None
        prev_b = None
        for _, b, m in self.pieces:
            if b < 0 or m < 0:
                return False
            if prev_m is not None and (m <= prev_m or b >= prev_b):
                return False
            prev_m, prev_b = m, b
        return True

    def __add__(self, other: "OrderFunction") -> "OrderFunction":
        cuts = sorted(set(self.breakpoints) | set(other.breakpoints))
        pieces: list[Piece] = []
        lo = Fraction(0)
        for cut in cuts + [None]:
            probe = lo if cut is None else (lo + cut) / 2
            a = self._piece_at(probe)
            b = other._piece_at(probe)
            pieces.append((cut, a[0] + b[0], a[1] + b[1]))
            if cut is not None:
                lo = cut
        return OrderFunction(tuple(pieces))

    def _piece_at(self, gamma: Fraction) -> tuple[Fraction, Fraction]:
        for gamma_end, b, m in self.pieces:
            if gamma_end is None or gamma < gamma_end:
                return (b, m)
        raise AssertionError("unreachable")

    def scale(self, c: RatLike) -> "OrderFunction":
        c = frac(c)
        if c <= 0:
            raise ValueError("scale factor must be positive")
        return OrderFunction(tuple((ge, c * b, c * m) for ge, b, m in self.pieces))

    def to_jsonable(self):
        return {"pieces": [[None if ge is None else str(ge), str(b), str(m)]
                           for ge, b, m in self.pieces]}

    @staticmethod
    def from_jsonable(obj) -> "OrderFunction":
        return OrderFunction(tuple(
            (None if ge is None else frac(_no_bool(ge)), frac(_no_bool(b)), frac(_no_bool(m)))
            for ge, b, m in obj["pieces"]))


def of_const(c: RatLike) -> OrderFunction:
    return OrderFunction(((None, frac(c), Fraction(0)),))


ZERO_OF = of_const(0)


def o_elem(y: RatLike) -> OrderFunction:
    """Elementary order function o_y(gamma) = max(1, y*gamma)."""
    y = frac(y)
    if y < 0:
        raise ValueError("o_y requires y >= 0")
    if y == 0:
        return of_const(1)
    return OrderFunction(((Fraction(1, 1) / y, Fraction(1), Fraction(0)),
                          (None, Fraction(0), y)))


def order_function_of(p: NewtonPolygon) -> OrderFunction:
    chain = p.upper_chain()
    if not chain:
        return ZERO_OF
    pieces: list[Piece] = []
    for a, b in zip(chain, chain[1:]):
        if b.s == a.s:  # horizontal top edge: later lines never dominate
            break
        gamma = (a.r - b.r) / (b.s - a.s)
        pieces.append((gamma, a.r, a.s))
    last = len(pieces)
    pieces.append((None, chain[last].r, chain[last].s))
    return OrderFunction(tuple(pieces))


def polygon_of(mu: OrderFunction) -> NewtonPolygon:
    if not mu.strictly_positive:
        raise ValueError("polygon_of requires a strictly positive order function")
    return polygon_from_exponents([(b, m) for _, b, m in mu.pieces if (b, m) != (0, 0)])


def is_regular_in_time(mu: OrderFunction) -> bool:
    """gamma_1 > 0: the polygon starts with a flat piece of positive height r_1."""
    _, b, m = mu.pieces[0]
    return b > 0 and m == 0


def elementary_decomposition(mu: OrderFunction) -> list[tuple[Fraction, Fraction]]:
    """mu = sum e_j * o_{y_j} with y_j = 1/gamma_j, for mu regular in time."""
    if not mu.strictly_positive:
        raise ValueError("decomposition requires a strictly positive order function")
    if mu.pieces == ZERO_OF.pieces or not is_regular_in_time(mu):
        raise ValueError("order function is not regular in time")
    p = polygon_of(mu)
    chain = p.upper_chain()
    if chain[-1].r > 0:
        chain = chain + [QPoint(Fraction(0), chain[-1].s)]
    out: list[tuple[Fraction, Fraction]] = []
    for a, b in zip(chain, chain[1:]):
        e = a.r - b.r
        if e == 0:
            continue
        y = Fraction(0) if b.s == a.s else (b.s - a.s) / e
        out.append((y, e))
    return out


# ---------------------------------------------------------------------------
# Formal differences of order functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderFunctionDiff:
    """Unreduced formal difference plus - minus of strictly positive order fns."""

    plus: OrderFunction
    minus: OrderFunction

    def __post_init__(self):
        if not (self.plus.strictly_positive and self.minus.strictly_positive):
            raise ValueError("both parts of a difference must be strictly positive")

    def __call__(self, gamma: RatLike) -> Fraction:
        return self.plus(gamma) - self.minus(gamma)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OrderFunctionDiff):
            return NotImplemented
        return self.plus + other.minus == other.plus + self.minus

    def __hash__(self):
        raise TypeError("OrderFunctionDiff is unhashable (equality is semantic)")

    def to_jsonable(self):
        return {"plus": self.plus.to_jsonable(), "minus": self.minus.to_jsonable()}

    @staticmethod
    def from_jsonable(obj) -> "OrderFunctionDiff":
        return OrderFunctionDiff(OrderFunction.from_jsonable(obj["plus"]),
                                 OrderFunction.from_jsonable(obj["minus"]))


OFLike = Union[OrderFunction, OrderFunctionDiff, int, Fraction]


def as_diff(mu: OFLike) -> OrderFunctionDiff:
    if isinstance(mu, OrderFunctionDiff):
        return mu
    if isinstance(mu, OrderFunction):
        return OrderFunctionDiff(mu, ZERO_OF)
    c = frac(mu)
    if c >= 0:
        return OrderFunctionDiff(of_const(c), ZERO_OF)
    return OrderFunctionDiff(ZERO_OF, of_const(-c))


def of_add(a: OFLike, b: OFLike) -> OrderFunctionDiff:
    a, b = as_diff(a), as_diff(b)
    return OrderFunctionDiff(a.plus + b.plus, a.minus + b.minus)


def of_neg(a: OFLike) -> OrderFunctionDiff:
    a = as_diff(a)
    return OrderFunctionDiff(a.minus, a.plus)


# ---------------------------------------------------------------------------
# Weight functions (float evaluation; numpy-vectorized)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=128)
def _vertex_terms(mu: OrderFunction) -> tuple[tuple[float, float], ...]:
    """(r, s) exponent pairs over the non-origin vertices of N(mu); the
    weights of one order function are evaluated many times, so its hull is
    built once."""
    return tuple((float(v.r), float(v.s)) for v in polygon_of(mu).upper_chain())


def _weight_positive(mu: OrderFunction, tau, xi_norm):
    """1 + sum over vertices |tau|^s |xi|^r; FloatingPointError naming the
    (tau, |xi|) of the first non-finite value, in row-major order."""
    tau = np.asarray(tau, dtype=float)
    xi = np.asarray(xi_norm, dtype=float)
    acc = np.ones(np.broadcast(tau, xi).shape)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        for r, s in _vertex_terms(mu):
            acc = acc + np.abs(tau) ** s * xi ** r
    bad = ~np.isfinite(acc)
    if bad.any():
        k = tuple(np.argwhere(bad)[0])
        t, x = (float(np.broadcast_to(v, acc.shape)[k]) for v in (tau, xi))
        raise FloatingPointError(f"weight not finite at tau={t}, |xi|={x}")
    return acc


def _smooth_weight_positive(mu: OrderFunction, tau, xi_norm):
    tau2 = 1.0 + np.asarray(tau, dtype=float) ** 2
    xi2 = 1.0 + np.asarray(xi_norm, dtype=float) ** 2
    terms = _vertex_terms(mu)
    if not terms:  # mu == 0: the weight of the point polygon is 1
        return np.ones(np.broadcast(tau2, xi2).shape)
    acc = np.zeros(np.broadcast(tau2, xi2).shape)
    for r, s in terms:
        acc = acc + tau2 ** (s / 2.0) * xi2 ** (r / 2.0)
    return acc


def weight_parts(tau, xi_norm):
    """mu -> (W_plus, W_minus), the parts of W_mu = W_plus / W_minus,
    evaluating each distinct positive part once over the evaluator's life."""
    parts: dict = {}

    def part(p: OrderFunction):
        if p not in parts:
            parts[p] = _weight_positive(p, tau, xi_norm)
        return parts[p]

    def both(mu: OFLike):
        mu = as_diff(mu)
        return part(mu.plus), part(mu.minus)
    return both


def weight_eval(mu: OFLike, tau, xi_norm):
    """W_mu = W_plus / W_minus with W = 1 + sum over vertices |tau|^s |xi|^r."""
    plus, minus = weight_parts(tau, xi_norm)(mu)
    return plus / minus


def smooth_weight_eval(mu: OFLike, tau, xi_norm):
    """w_mu = w_plus / w_minus with w = sum over vertices <tau>^s <xi>^r."""
    mu = as_diff(mu)
    return (_smooth_weight_positive(mu.plus, tau, xi_norm)
            / _smooth_weight_positive(mu.minus, tau, xi_norm))


# ---------------------------------------------------------------------------
# CHG-shaped polygons and the trace rule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChgShape:
    r1: int
    r2: int
    s2: Fraction
    gamma_perp: Fraction  # s2/(r2 - r1) <= 0

    @property
    def slope_y(self) -> Fraction:
        """-gamma_perp = s2/(r1 - r2), the y of the elementary factor o_y."""
        return -self.gamma_perp


def chg_shape(mu: OrderFunction) -> Optional[ChgShape]:
    """Recognize vertices {(0,0),(r1,0),(r2,s2),(0,s2)} with integers r2 < r1."""
    if not mu.strictly_positive or not is_regular_in_time(mu):
        return None
    # the pieces (b, m) of a strictly positive mu that is regular in time are
    # the vertices of N(mu) from the xi-axis up; (0, m) on the s-axis closes it
    chain = [QPoint(b, m) for _, b, m in mu.pieces]
    if chain[-1].r > 0 and chain[-1].s > 0:
        chain.append(QPoint(Fraction(0), chain[-1].s))
    if len(chain) == 1:  # segment {(0,0),(r1,0)}: r2 = 0, s2 = 0
        r1 = chain[0].r
        if r1 != int(r1):
            return None
        return ChgShape(int(r1), 0, Fraction(0), Fraction(0))
    if len(chain) == 2:  # triangle: (r2, s2) = (0, s2)
        (r1, _), (_, s2) = chain[0], chain[1]
        if chain[1].r != 0 or r1 != int(r1):
            return None
        return ChgShape(int(r1), 0, s2, -s2 / r1)
    if len(chain) == 3:
        v1, v2, v3 = chain
        if v3.r != 0 or v2.s != v3.s:
            return None
        r1, (r2, s2) = v1.r, v2
        if r1 != int(r1) or r2 != int(r2):
            return None
        return ChgShape(int(r1), int(r2), s2, s2 / (r2 - r1))
    return None


def trace_order_function(mu: OrderFunction, j: int) -> OrderFunction:
    """T_j(mu) for a CHG-shaped mu: the boundary space of the j-th trace."""
    shape = chg_shape(mu)
    if shape is None:
        raise ValueError("trace order functions require a CHG-shaped polygon")
    if not (0 <= j <= shape.r1 - 1):
        raise ValueError(f"trace index {j} outside [0, {shape.r1 - 1}]")
    y = shape.slope_y
    if j < shape.r2:
        base = o_elem(y).scale(shape.r1 - shape.r2)
        return base + of_const(Fraction(shape.r2) - j - Fraction(1, 2))
    return o_elem(y).scale(Fraction(shape.r1) - j - Fraction(1, 2))
