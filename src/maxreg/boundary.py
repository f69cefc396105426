"""Boundary operators, extended boundary matrices, and solvability checks.

A boundary operator B_i = sum_j b^(i)_j Tr_j pairs coefficient symbols on
(tau, xi') with normal-derivative traces.  Appending the banded
coefficients of D+ produces the extended boundary matrix; its pointwise
invertibility is the Lopatinskii-Shapiro condition, and its mixed-order
ellipticity is the complementing condition.  The two builtin pairs
(Dirichlet and the Tr_1/Tr_3 Neumann pair) separate the conditions: the
Dirichlet matrix has determinant identically one, which can never dominate
the growing weight the complementing check demands.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Optional, Sequence

import numpy as np

from .factorization import MU_D, MU_MINUS, dplus_coeffs
from .polygons import (
    OFLike,
    OrderFunction,
    OrderFunctionDiff,
    ZERO_OF,
    _no_bool,
    as_diff,
    chg_shape,
    of_neg,
    trace_order_function,
)
from .symbols import (
    GridSpec,
    MatrixSymbol,
    PolySymbol,
    SymbolFn,
    as_symbol,
    mixed_order_certify,
)

F = Fraction

MAX_TRACE = 3  # the determinant is quartic: traces Tr_0..Tr_3


def dplus_band() -> tuple[SymbolFn, SymbolFn]:
    """(d0+, d1+) from one computation of D+'s coefficients.

    The first of the two evaluated at some (tau, xi) computes both and
    holds the other until it is evaluated at the same (tau, xi) objects,
    so one evaluation of an extended matrix takes the roots once.
    """
    held = {}

    def part(name, other):
        def fn(tau, xi):
            got = held.pop(name, None)
            if got is not None and got[0] is tau and got[1] is xi:
                return got[2]
            held.clear()
            fc = dplus_coeffs(tau, xi)
            held[other] = (tau, xi, getattr(fc, other))
            return getattr(fc, name)
        return SymbolFn(fn=fn, name=name, oscillatory_only=True)
    return part("d0_plus", "d1_plus"), part("d1_plus", "d0_plus")


def _is_zero_symbol(sym) -> bool:
    return isinstance(sym, PolySymbol) and not sym.monomials


@dataclass(frozen=True)
class BoundaryOperator:
    """B = sum_{j=0}^{3} b_j Tr_j with target boundary order function chi."""

    coeffs: tuple
    chi: Optional[OrderFunctionDiff] = None
    name: str = ""

    def __post_init__(self):
        if len(self.coeffs) != MAX_TRACE + 1:
            raise ValueError("boundary operator needs 4 trace coefficients")
        coerced = [as_symbol(c) for c in self.coeffs]
        if not all(c.radial for c in coerced):
            raise ValueError("boundary operators need radial entries: "
                             "coefficients in tau and |xi'|")
        object.__setattr__(self, "coeffs", tuple(coerced))
        if self.chi is not None:
            object.__setattr__(self, "chi", as_diff(self.chi))

    def leading_trace(self) -> int:
        """Largest j with a (detectably) nonzero coefficient."""
        for j in range(MAX_TRACE, -1, -1):
            if not _is_zero_symbol(self.coeffs[j]):
                return j
        return 0

    def evaluate_at_root(self, tau, xi_prime_norm, rho):
        """B(rho) = sum_j b_j (i rho)^j, the action on e^{i rho x_n}."""
        acc = 0
        for j, c in enumerate(self.coeffs):
            acc = acc + np.asarray(c(tau, xi_prime_norm)) * (1j * rho) ** j
        return acc

    def apply_to_traces(self, tau, xi_prime_norm, tr) -> np.ndarray:
        """B u = sum_j b_j(tau, |xi'|) Tr_j u from the traces tr[0..3], each
        an array over the columns at (tau, |xi'|)."""
        return sum(np.asarray(c(tau, xi_prime_norm)) * tr[j]
                   for j, c in enumerate(self.coeffs))


def trace_operator(j: int, chi: Optional[OFLike] = None,
                   name: str = "") -> BoundaryOperator:
    coeffs = [0, 0, 0, 0]
    coeffs[j] = 1
    return BoundaryOperator(tuple(coeffs),
                            chi=None if chi is None else as_diff(chi),
                            name=name or f"Tr_{j}")


def _default_chi(op: BoundaryOperator, nu: OrderFunction) -> OrderFunctionDiff:
    # an operator's attached chi is its nu = 0 target; for shifted systems
    # the row order must follow the shifted trace spaces T_j(mu_D + nu),
    # which is not a constant shift of T_j(mu_D)
    if op.chi is not None and nu == ZERO_OF:
        return op.chi
    return as_diff(trace_order_function(MU_D + nu, op.leading_trace()))


def build_extended_matrix(bc: Sequence[BoundaryOperator], m: int = 0,
                          nu: OrderFunction = ZERO_OF) -> MatrixSymbol:
    """Assemble B^(m): rows 1-2 from the boundary coefficients, rows >= 3
    the shifted band (d0+, d1+, -1) of D+.

    Column orders t_j = T_{j-1}(mu_D + nu); row orders s_i = -chi_i for the
    boundary rows and s_i = -T_{i-3}(mu_minus + nu) for the band rows.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if len(bc) != 2:
        raise ValueError("exactly two boundary operators")
    if chg_shape(MU_D + nu) is None:
        raise ValueError("nu does not keep mu_D + nu CHG-shaped")
    size = 4 + m
    # the orders first: a trace index they do not have is refused before
    # the (4 + m)^2 entries are filled
    col_orders = tuple(as_diff(trace_order_function(MU_D + nu, j))
                       for j in range(size))
    row_orders = tuple(
        [of_neg(_default_chi(op, nu)) for op in bc]
        + [of_neg(trace_order_function(MU_MINUS + nu, i)) for i in range(size - 2)])
    zero = as_symbol(0)
    d0_plus, d1_plus = dplus_band()
    band = {0: d0_plus, 1: d1_plus, 2: as_symbol(-1)}
    rows = []
    for i in range(1, size + 1):  # 1-based as in the definition
        row = []
        for j in range(1, size + 1):
            if i <= 2:
                k = j - 1
                row.append(bc[i - 1].coeffs[k] if k <= MAX_TRACE else zero)
            else:
                row.append(band.get(j + 2 - i, zero))
        rows.append(tuple(row))
    return MatrixSymbol(tuple(rows), row_orders=row_orders, col_orders=col_orders)


def complementing_check(bc: Sequence[BoundaryOperator],
                        nu: OrderFunction = ZERO_OF,
                        m: Optional[int] = None,
                        grid: GridSpec = GridSpec()) -> dict:
    """Mixed-order ellipticity of B^(ord nu) with the definition's orders."""
    ops = list(bc)
    if m is None:
        m = int(nu.ord)
        if m != nu.ord or m < 0:
            raise ValueError("ord nu must be a nonnegative integer "
                             "(or pass m explicitly)")
    B = build_extended_matrix(ops, m=m, nu=nu)
    out = mixed_order_certify(B, grid=grid)
    out["matrix"] = B
    out["lopatinskii"] = out.pop("invertibility")
    return out


@cache  # frozen operators of exact orders: built once per process
def dirichlet_pair() -> tuple[BoundaryOperator, BoundaryOperator]:
    """(Tr_0, Tr_1) with targets (T_0(mu_D), T_1(mu_D))."""
    return (trace_operator(0, trace_order_function(MU_D, 0), "dirichlet-0"),
            trace_operator(1, trace_order_function(MU_D, 1), "dirichlet-1"))


@cache
def neumann_pair_13() -> tuple[BoundaryOperator, BoundaryOperator]:
    """(Tr_1, Tr_3) with targets (T_1(mu_D), T_3(mu_D))."""
    return (trace_operator(1, trace_order_function(MU_D, 1), "neumann-1"),
            trace_operator(3, trace_order_function(MU_D, 3), "neumann-3"))


def builtin_boundary_conditions() -> dict:
    return {"dirichlet": dirichlet_pair, "neumann_13": neumann_pair_13}


# ---------------------------------------------------------------------------
# Boundary-condition definition files
# ---------------------------------------------------------------------------

def _coeff_from_jsonable(obj, band: dict):
    """A number (BoundaryOperator takes it as the constant symbol), a named
    D+ coefficient from band or a PolySymbol; JSON true and false are
    refused, not read as 1 and 0."""
    if isinstance(obj, bool):
        raise ValueError(f"a coefficient must be a number or an object, got {obj!r}")
    if isinstance(obj, (int, float)):
        return obj
    if "ref" in obj:
        return band[obj["ref"]]
    if "re" in obj or "im" in obj:
        return complex(_no_bool(obj.get("re", 0.0)), _no_bool(obj.get("im", 0.0)))
    return PolySymbol.from_jsonable(obj["poly"])


def bc_from_jsonable(obj) -> tuple[tuple[BoundaryOperator, ...], int, OrderFunction]:
    """(ops, m, nu) of a file; its named D+ coefficients share one band, so
    an evaluation at one (tau, xi) takes the roots once."""
    band = {sym.name: sym for sym in dplus_band()}
    ops = tuple(
        BoundaryOperator(
            tuple(_coeff_from_jsonable(c, band) for c in op["coeffs"]),
            chi=None if op.get("chi") is None
            else OrderFunctionDiff.from_jsonable(op["chi"]),
            name=op.get("name", ""))
        for op in obj["ops"])
    m = obj.get("m", 0)
    if isinstance(m, bool) or not isinstance(m, int):
        raise ValueError(f"m must be an integer, got {m!r}")
    return ops, m, OrderFunction.from_jsonable(obj["nu"])
