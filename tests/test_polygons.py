"""Tests for the exact-rational polygon calculus."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxreg.polygons import (
    ChgShape,
    NewtonPolygon,
    OrderFunction,
    OrderFunctionDiff,
    ZERO_OF,
    as_diff,
    chg_shape,
    contains,
    elementary_decomposition,
    normal_slopes,
    o_elem,
    of_add,
    of_const,
    of_from_elementary,
    of_linear,
    of_scale,
    of_sub,
    order_function_of,
    polygon_from_exponents,
    polygon_of,
    qpoint,
    shape_queries,
    shift_left_clipped,
    smooth_weight_eval,
    trace_order_function,
    weight_eval,
)

MU_D = o_elem(F(1, 2)).scale(2) + of_const(2)  # 2*o_{1/2} + 2 = max(4, 2+gamma)
ND_VERTICES = [(0, 0), (4, 0), (2, 1), (0, 1)]


def verts(p: NewtonPolygon):
    return [(v.r, v.s) for v in p.vertices]


# --- polygon_from_exponents ------------------------------------------------

def test_chg_determinant_polygon():
    p = polygon_from_exponents([(4, 0), (2, 1), (0, 1)])
    assert verts(p) == ND_VERTICES


def test_empty_point_set_gives_point_polygon():
    assert verts(polygon_from_exponents([])) == [(0, 0)]


def test_collinear_absorption_on_axis():
    p = polygon_from_exponents([(2, 0), (1, 0), (3, 0)])
    assert verts(p) == [(0, 0), (3, 0)]


def test_negative_coordinate_rejected():
    with pytest.raises(ValueError):
        polygon_from_exponents([(-1, 2)])


def _hull_oracle(points):
    """Brute-force hull: a point is a vertex iff some strict half-plane keeps
    it alone; realized by checking it is not a convex combination of others
    via exhaustive triangle containment (sufficient in 2D for small sets).
    The points are scaled by their common denominator, as _hull_ccw does, so
    the search runs on integers."""
    pts = set(points)
    aug = {(F(0), F(0))}
    for r, s in pts:
        aug |= {(F(r), F(s)), (F(r), F(0)), (F(0), F(s))}
    den = math.lcm(*(c.denominator for p in aug for c in p))
    exact = {(int(r * den), int(s * den)): (r, s) for r, s in aug}
    aug = sorted(exact)

    def inside(q, a, b, c):
        def cr(o, u, v):
            return (u[0] - o[0]) * (v[1] - o[1]) - (v[0] - o[0]) * (u[1] - o[1])
        if cr(a, b, c) == 0:
            return False  # degenerate triangle: segment checks cover this
        d1, d2, d3 = cr(a, b, q), cr(b, c, q), cr(c, a, q)
        neg = (d1 < 0) or (d2 < 0) or (d3 < 0)
        pos = (d1 > 0) or (d2 > 0) or (d3 > 0)
        return not (neg and pos)

    def on_segment(q, a, b):
        cr = (b[0] - a[0]) * (q[1] - a[1]) - (q[0] - a[0]) * (b[1] - a[1])
        return (cr == 0 and min(a[0], b[0]) <= q[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= q[1] <= max(a[1], b[1]))

    import itertools
    hull_pts = []
    for q in aug:
        others = [p for p in aug if p != q]
        covered = any(on_segment(q, a, b) for a, b in itertools.combinations(others, 2))
        covered = covered or any(
            inside(q, a, b, c) for a, b, c in itertools.combinations(others, 3))
        if not covered:
            hull_pts.append(exact[q])
    return set(hull_pts)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.fractions(0, 6, max_denominator=4),
                          st.fractions(0, 6, max_denominator=4)),
                max_size=8))
def test_hull_matches_bruteforce_oracle(points):
    p = polygon_from_exponents(points)
    assert set((v.r, v.s) for v in p.vertices) == _hull_oracle(points)


# --- order functions -------------------------------------------------------

def test_order_function_of_nd():
    mu = order_function_of(polygon_from_exponents([(4, 0), (2, 1), (0, 1)]))
    assert mu == MU_D
    assert mu(0) == 4 and mu(2) == 4 and mu(3) == 5


def test_order_function_point_polygon():
    assert order_function_of(polygon_from_exponents([])) == ZERO_OF


def test_order_function_single_vertex():
    mu = order_function_of(polygon_from_exponents([(3, 2)]))
    assert mu == of_linear(3, 2)


def test_round_trip_polygon_of():
    p = polygon_from_exponents([(4, 0), (2, 1), (0, 1)])
    assert polygon_of(order_function_of(p)) == p
    assert verts(polygon_of(MU_D)) == ND_VERTICES


def test_polygon_of_elementary():
    assert verts(polygon_of(o_elem(F(1, 2)))) == [(0, 0), (1, 0), (0, F(1, 2))]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.fractions(0, 6, max_denominator=4),
                          st.fractions(0, 6, max_denominator=4)),
                max_size=8))
def test_round_trip_random(points):
    p = polygon_from_exponents(points)
    mu = order_function_of(p)
    assert mu.strictly_positive
    assert polygon_of(mu) == p
    assert order_function_of(polygon_of(mu)) == mu


def test_normal_slopes():
    nd = polygon_from_exponents([(4, 0), (2, 1), (0, 1)])
    assert normal_slopes(nd) == [F(2), None]
    assert normal_slopes(polygon_from_exponents([(3, 0)])) == [None]
    assert normal_slopes(polygon_from_exponents([(1, 0), (0, 1)])) == [F(1)]


# --- arithmetic ------------------------------------------------------------

def test_of_add_reproduces_mu_d():
    two_o = o_elem(F(1, 2)).scale(2)
    assert of_add(OrderFunctionDiff(two_o, ZERO_OF), 2) == as_diff(MU_D)


def test_of_sub_self_is_zero():
    assert of_sub(MU_D, MU_D) == as_diff(ZERO_OF)


def test_mixed_order_t1():
    # s1 + t1 with t1 = max(3, 1+gamma), s1 = 0
    t1 = order_function_of(polygon_from_exponents([(3, 0), (1, 1)]))
    assert of_add(t1, as_diff(ZERO_OF)) == as_diff(t1)
    assert t1(0) == 3 and t1(4) == 5


def test_of_scale_rejects_nonpositive():
    with pytest.raises(ValueError):
        of_scale(MU_D, 0)


# --- containment and weights ----------------------------------------------

def test_contains():
    nd = polygon_from_exponents([(4, 0), (2, 1), (0, 1)])
    assert contains(nd, (3, F(1, 2)))
    assert contains(nd, (4, 0))
    assert not contains(nd, (3, 1))


def test_weight_eval_values():
    # W_D = 1 + |xi|^4 + |tau||xi|^2 + |tau|
    assert weight_eval(MU_D, 1.0, 1.0) == pytest.approx(4.0)
    assert weight_eval(as_diff(ZERO_OF), 123.0, 4.0) == pytest.approx(1.0)
    assert weight_eval(MU_D, 2.0, 0.0) == pytest.approx(3.0)


def test_weight_monotone_under_inclusion():
    # N(o_{1/2}+1) is contained in N(mu_D): pointwise W smaller up to constant
    small = o_elem(F(1, 2)) + of_const(1)
    tau = np.logspace(-1, 5, 20)
    xi = np.logspace(-2, 3, 20)
    T, X = np.meshgrid(tau, xi)
    ratio = weight_eval(small, T, X) / weight_eval(MU_D, T, X)
    assert ratio.max() <= 3.0  # sampled constant


def test_weight_additivity_sampled():
    nu = o_elem(F(1, 2))
    tau = np.logspace(-1, 5, 20)
    xi = np.logspace(-2, 3, 20)
    T, X = np.meshgrid(tau, xi)
    lhs = weight_eval(of_add(MU_D, nu), T, X)
    rhs = weight_eval(MU_D, T, X) * weight_eval(nu, T, X)
    q = lhs / rhs
    assert q.max() <= 1.0 + 1e-12  # W_{mu+nu} <= W_mu W_nu always
    assert q.min() >= 1.0 / 16.0  # bounded below by 1/(vertex-count product)


def test_smooth_weight_origin_counts_vertices():
    assert smooth_weight_eval(MU_D, 0.0, 0.0) == pytest.approx(3.0)


def test_smooth_vs_rough_weight_equivalence():
    tau = np.logspace(-2, 6, 40)
    xi = np.concatenate([[0.0], np.logspace(-3, 3, 40)])
    T, X = np.meshgrid(tau, xi)
    ratio = smooth_weight_eval(MU_D, T, X) / weight_eval(MU_D, T, X)
    assert 0.3 <= ratio.min() and ratio.max() <= 4.0


# --- elementary decomposition ----------------------------------------------

def test_decomposition_mu_d():
    assert elementary_decomposition(MU_D) == [(F(1, 2), F(2)), (F(0), F(2))]


def test_decomposition_o_y():
    assert elementary_decomposition(o_elem(F(2, 3))) == [(F(2, 3), F(1))]


def test_decomposition_mu_d_plus_one():
    mu = (of_add(MU_D, 1)).plus
    assert elementary_decomposition(mu) == [(F(1, 2), F(2)), (F(0), F(3))]


def test_decomposition_reconstructs():
    for mu in [MU_D, o_elem(F(1, 2)), of_const(3),
               order_function_of(polygon_from_exponents([(3, 0), (1, 1)]))]:
        assert of_from_elementary(elementary_decomposition(mu)) == mu


def test_decomposition_rejects_irregular():
    with pytest.raises(ValueError):
        elementary_decomposition(of_linear(0, 1))  # mu = gamma, not regular


# --- trace rule ------------------------------------------------------------

def test_trace_order_functions_of_mu_d():
    o = o_elem(F(1, 2))
    assert trace_order_function(MU_D, 0) == o.scale(2) + of_const(F(3, 2))
    assert trace_order_function(MU_D, 1) == o.scale(2) + of_const(F(1, 2))
    assert trace_order_function(MU_D, 2) == o.scale(F(3, 2))
    assert trace_order_function(MU_D, 3) == o.scale(F(1, 2))


def test_trace_polygon_tables():
    # Vertex tables of the four trace polygons of mu_D
    expect = {
        0: [(0, 0), (F(7, 2), 0), (F(3, 2), 1), (0, 1)],
        1: [(0, 0), (F(5, 2), 0), (F(1, 2), 1), (0, 1)],
        2: [(0, 0), (F(3, 2), 0), (0, F(3, 4))],
        3: [(0, 0), (F(1, 2), 0), (0, F(1, 4))],
    }
    for j, table in expect.items():
        assert verts(polygon_of(trace_order_function(MU_D, j))) == table


def test_trace_translation_rule():
    nd = polygon_of(MU_D)
    for j in range(4):
        shifted = shift_left_clipped(nd, F(2 * j + 1, 2))
        assert polygon_of(trace_order_function(MU_D, j)) == shifted


def test_trace_rejects_out_of_range():
    with pytest.raises(ValueError):
        trace_order_function(MU_D, 4)


# --- shape queries ---------------------------------------------------------

def test_shape_queries():
    assert shape_queries(MU_D) == {"is_chg_shaped": True,
                                   "is_regular_in_time": True, "ord": 4}
    assert shape_queries(ZERO_OF) == {"is_chg_shaped": False,
                                      "is_regular_in_time": False, "ord": 0}
    mu5 = of_add(MU_D, 1).plus
    assert shape_queries(mu5) == {"is_chg_shaped": True,
                                  "is_regular_in_time": True, "ord": 5}
    assert verts(polygon_of(mu5)) == [(0, 0), (5, 0), (3, 1), (0, 1)]


def test_chg_shape_fields():
    sh = chg_shape(MU_D)
    assert sh == ChgShape(4, 2, F(1), F(-1, 2))
    assert sh.slope_y == F(1, 2)


def test_diff_equality_cross_addition():
    a = of_sub(MU_D, o_elem(F(1, 2)))
    b = of_add(o_elem(F(1, 2)), 2)  # mu_D - o = o + 2
    assert a == b


def test_serialization_round_trip():
    for obj in [MU_D, trace_order_function(MU_D, 2)]:
        assert OrderFunction.from_jsonable(obj.to_jsonable()) == obj
    d = of_sub(MU_D, o_elem(F(1, 2)))
    assert OrderFunctionDiff.from_jsonable(d.to_jsonable()) == d
    p = polygon_of(MU_D)
    assert NewtonPolygon.from_jsonable(p.to_jsonable()) == p
