"""Acceptance gate: the ten headline checks, each at its stated tolerance.

Each test exercises the library the way the module test suites do, but in
one place and with the budgets (tolerances, sample counts, wall-clock
limits) pinned down explicitly.
"""

import time
from fractions import Fraction as F

import numpy as np
import pytest

from maxreg.boundary import (
    build_extended_matrix,
    complementing_check,
    dirichlet_pair,
    neumann_pair_13,
)
from maxreg.factorization import MU_D, chg_matrix, d_symbol, dplus_coeffs, roots
from maxreg.halfspace import (
    HalfField,
    HalfGrid,
    apply_symbol,
    dirichlet_failure_probe,
    eval_terms,
    halfspace_norm,
    random_exp_field,
    solve_half_chg_system,
    solve_half_scalar,
    trace_extension,
    traces,
)
from maxreg.polygons import (
    as_diff,
    elementary_decomposition,
    normal_slopes,
    o_elem,
    of_const,
    order_function_of,
    polygon_from_exponents,
    trace_order_function,
)
from maxreg.spectral import (
    Field,
    TorusGrid,
    random_band_limited_coefficients,
    system_residual,
    system_solve,
    system_times,
    system_values,
)
from maxreg.symbols import (
    MatrixSymbol,
    SymbolFn,
    det_values,
    ellipticity_certify,
    mixed_order_certify,
)
from maxreg.polygons import smooth_weight_eval

O_HALF = o_elem(F(1, 2))


def _elapsed(fn, repeat=1):
    best = np.inf
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


# -- 1: polygon, order function, slopes, and trace order functions, exact ---


def test_acceptance_1_polygon_exactness():
    def compute():
        poly = d_symbol().newton_polygon()
        mu = order_function_of(poly)
        slopes = normal_slopes(poly)
        trs = [trace_order_function(mu, j) for j in range(4)]
        return poly, mu, slopes, trs

    (poly, mu, slopes, trs), best = _elapsed(compute, repeat=5)
    assert best < 1e-3
    assert [(v.r, v.s) for v in poly.vertices] \
        == [(0, 0), (4, 0), (2, 1), (0, 1)]
    assert mu == O_HALF.scale(2) + of_const(2)
    assert mu.pieces == ((F(2), F(4), F(0)), (None, F(2), F(1)))
    assert slopes == [F(2), None]
    assert elementary_decomposition(mu) == [(F(1, 2), F(2)), (F(0), F(2))]
    # trace rule: T_j(mu_D) for j = 0..3, exact rational pieces
    assert trs[0].pieces == ((F(2), F(7, 2), F(0)), (None, F(3, 2), F(1)))
    assert trs[1].pieces == ((F(2), F(5, 2), F(0)), (None, F(1, 2), F(1)))
    assert trs[2].pieces == ((F(2), F(3, 2), F(0)), (None, F(0), F(3, 4)))
    assert trs[3].pieces == ((F(2), F(1, 2), F(0)), (None, F(0), F(1, 4)))


# -- 2: ellipticity constant of the determinant -----------------------------


def test_acceptance_2_ellipticity_constant():
    floor = 1.0 / (2.0 * np.sqrt(3.0))
    rep, best = _elapsed(lambda: ellipticity_certify(
        d_symbol(), MU_D, floor=floor * (1 - 1e-12)))
    assert best < 1.0
    assert rep.passed  # zero violations: the min over the grid clears the bar
    assert rep.c_lower >= floor * (1 - 1e-12)


# -- 3: mixed-order certification of the system -----------------------------


def test_acceptance_3_mixed_order_system():
    out = mixed_order_certify(chg_matrix())
    assert out["passed"]
    assert out["delta"] == as_diff(MU_D)


# -- 4: roots and factorization ---------------------------------------------


def test_acceptance_4_roots_and_factorization():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst_root = 0.0
    worst_fact = 0.0
    for _ in range(10_000):
        tau = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 6))
        xi = float(10.0 ** rng.uniform(-3, 3)) if rng.random() > 0.1 else 0.0
        rq = roots(tau, xi)
        quad = (rq.rho1_plus, rq.rho2_plus, rq.rho1_minus, rq.rho2_minus)
        a2 = 1j * tau + 2 * xi * xi
        a0 = 1j * tau + 1j * tau * xi * xi + xi ** 4
        for rho in quad:
            res = abs(rho ** 4 + a2 * rho ** 2 + a0)
            scale = max(1.0, abs(rho) ** 4 + abs(a2) * abs(rho) ** 2 + abs(a0))
            worst_root = max(worst_root, res / scale)
        # quadrant signs exact, and the minus roots mirror the plus roots
        assert rq.rho1_plus.imag > 0 and rq.rho2_plus.imag > 0
        assert rq.rho1_minus == -rq.rho1_plus
        assert rq.rho2_minus == -rq.rho2_plus
        # sector bound for the fast root pair
        for rho in (rq.rho2_plus, rq.rho2_minus):
            assert np.pi / 4 - 1e-12 < abs(np.angle(rho)) < 3 * np.pi / 4 + 1e-12
        xn = float(rng.uniform(-3, 3))
        d_val = xn ** 4 + a2 * xn ** 2 + a0
        prod = np.prod([xn - rho for rho in quad])
        worst_fact = max(worst_fact, abs(d_val - prod) / (1.0 + abs(d_val)))
    assert worst_root < 1e-9
    assert worst_fact < 1e-10
    assert time.perf_counter() - t0 < 5.0


# -- 5: boundary matrices and the complementing dichotomy -------------------


def test_acceptance_5_boundary_matrices():
    taus = np.concatenate([-np.logspace(0, 5, 12), np.logspace(0, 5, 12)])
    xis = np.concatenate([[0.0], np.logspace(-2, 2, 9)])

    B = build_extended_matrix(neumann_pair_13())
    for tau in taus:
        for xi in xis:
            fc = dplus_coeffs(tau, xi)
            want = -complex(fc.d0_plus) * complex(fc.d1_plus)
            got = complex(det_values(B.evaluate(tau, xi)))
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    out = complementing_check(neumann_pair_13())
    assert out["passed"]
    assert out["delta"] == as_diff(O_HALF.scale(2) + of_const(1))
    out_m1 = complementing_check(neumann_pair_13(), nu=of_const(1))
    assert out_m1["passed"] and out_m1["matrix"].m == 5

    out_d = complementing_check(dirichlet_pair())
    ls = out_d["lopatinskii"]
    assert ls["pass"]
    assert abs(ls["min_abs_det"] - 1.0) < 1e-12
    assert abs(ls["max_abs_det"] - 1.0) < 1e-12
    assert not out_d["passed"]
    w = out_d["decay_witness"]
    assert w is not None and w["ray_xi"] == 0.0


# -- 6: whole-space solver and the weight-lift identity ---------------------


def test_acceptance_6_whole_space_solver():
    """The whole-space primitives that solve whole composes: op[m] is
    system_times on the coefficients and its inverse system_solve."""
    t0 = time.perf_counter()
    grid = TorusGrid()

    def samples(c):
        return Field.from_coefficients(grid, c).data

    def scalar(m):  # the entry rows of the 1x1 system (m)
        return system_values(MatrixSymbol(((m,),)), grid)

    c_star = random_band_limited_coefficients(grid, seed=1)
    u_star = samples(c_star)
    D = scalar(d_symbol())
    rhs = list(system_times(D, [c_star]))
    u, = system_solve(D, rhs, grid)
    back = samples(next(system_times(D, [u.coefficients()])))
    f = samples(rhs[0])
    assert np.abs(back - f).max() < 1e-9 * np.abs(f).max()
    assert np.abs(u.data - u_star).max() < 1e-9 * np.abs(u_star).max()

    vals = system_values(chg_matrix(), grid)
    cs = [random_band_limited_coefficients(grid, seed=2 + i) for i in range(2)]
    fc = list(system_times(vals, cs))
    us = system_solve(vals, fc, grid)
    assert system_residual(vals, us, fc)[0] < 1e-9
    for got, c in zip(us, cs):
        want = samples(c)
        assert np.abs(got.data - want).max() < 1e-9 * np.abs(want).max()

    w = SymbolFn(fn=lambda t, x: smooth_weight_eval(MU_D, t, x),
                 oscillatory_only=True)
    w_inv = SymbolFn(fn=lambda t, x: 1.0 / smooth_weight_eval(MU_D, t, x),
                     oscillatory_only=True)
    lifted = samples(c_star * scalar(w)[0][0])
    g = samples(Field(grid, lifted).coefficients() * scalar(w_inv)[0][0])
    assert np.abs(g - u_star).max() < 1e-12 * np.abs(u_star).max()
    assert time.perf_counter() - t0 < 5.0


# -- 7: trace extension round trip and the dotted-inverse kernel ------------


def test_acceptance_7_trace_theory():
    grid = HalfGrid(K=4, Nn=256)
    rng = np.random.default_rng(7)
    g = rng.normal(size=(4,) + grid.col_shape) \
        + 1j * rng.normal(size=(4,) + grid.col_shape)
    g[:, grid.K] = 0.0
    E = trace_extension(grid, g, MU_D)
    tr = traces(E, 4)
    assert np.abs(tr - g).max() < 1e-10 * np.abs(g).max()

    from maxreg.halfspace import dotted_inverse

    def factors(tau, xi):
        rq = roots(tau, xi)
        a = np.sqrt(np.sqrt(1 + tau * tau)) + np.sqrt(1 + xi * xi)
        return [rq.rho1_plus, rq.rho2_plus, 1j * a, 1j * a]

    w = dotted_inverse(random_exp_field(grid, seed=70), factors)
    tr4 = traces(w, 4)
    assert np.abs(tr4).max() < 1e-8 * np.abs(w.values()).max()


# -- 8: half-space Neumann well-posedness -----------------------------------


def test_acceptance_8_neumann_well_posedness():
    t0 = time.perf_counter()
    grid = HalfGrid(K=4, Nn=256)
    u_star = random_exp_field(grid, seed=80)
    f = apply_symbol(u_star, d_symbol())
    tr = traces(u_star, 4)
    res = solve_half_scalar(f, (tr[1], tr[3]), neumann_pair_13())
    diff = HalfField(grid, None, {
        k: tuple(res.u.exp_terms.get(k, ()))
        + tuple((-c, r, m) for c, r, m in u_star.exp_terms.get(k, ()))
        for k in set(res.u.exp_terms) | set(u_star.exp_terms)})
    assert halfspace_norm(diff, MU_D) < 1e-7 * halfspace_norm(u_star, MU_D)

    def ensemble(K, N, Nn, samples=50):
        g = HalfGrid(K=K, n=2, N=N, Nn=Nn)
        zg = np.zeros(g.col_shape, complex)
        ratios = []
        for s in range(samples):
            f1 = random_exp_field(g, seed=1000 + 2 * s)
            f2 = random_exp_field(g, seed=1000 + 2 * s + 1)
            out = solve_half_chg_system(f1, f2, zg, zg)
            ratios.append(out.diagnostics["ratio"])
        return float(np.median(ratios))

    coarse = ensemble(4, 16, 64)
    fine = ensemble(8, 16, 128)
    assert np.isfinite(coarse) and np.isfinite(fine)
    assert max(coarse, fine) / min(coarse, fine) < 2.0
    assert time.perf_counter() - t0 < 300.0


# -- 9: Dirichlet failure for the borderline datum --------------------------


def test_acceptance_9_dirichlet_failure():
    rows = dirichlet_failure_probe()  # K in {16, 32, 64, 128}
    assert [r["K"] for r in rows] == [16, 32, 64, 128]
    tn = [r["trace_norm_T2"] for r in rows]
    assert all(a < b for a, b in zip(tn, tn[1:]))  # monotone growth
    assert tn[-1] / tn[0] >= 3.0
    nr = [r["neumann_ratio"] for r in rows]
    assert max(nr) / min(nr) <= 1.2

    # solvable branch: band-limited data gives a finite, K-stable ratio
    ratios = []
    for K in (16, 64):
        grid = HalfGrid(K=K, Nn=128)
        terms = {}
        for idx, tau, xi in grid.columns():
            k = idx[0] - grid.K
            if abs(k) <= 8:
                terms[idx] = ((1.0, 0.5j + 1j * abs(k) ** 0.5, 0),)
        f = HalfField(grid, None, terms)
        zg = (np.zeros(grid.col_shape, complex),
              np.zeros(grid.col_shape, complex))
        res = solve_half_scalar(f, zg, dirichlet_pair())
        ratios.append(halfspace_norm(res.u, MU_D) / halfspace_norm(f, 0))
    assert np.all(np.isfinite(ratios))
    assert abs(ratios[1] - ratios[0]) < 1e-8 * ratios[0]


# -- 10: cross-path collocation oracle --------------------------------------


def _cheb(N):
    x = np.cos(np.pi * np.arange(N + 1) / N)
    c = np.hstack([2.0, np.ones(N - 1), 2.0]) * (-1.0) ** np.arange(N + 1)
    X = np.tile(x, (N + 1, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(N + 1))
    D -= np.diag(D.sum(axis=1))
    return D, x


def _collocate_column(tau, xi, f_terms, g1, g2, bc, Ln, N=300):
    D, x = _cheb(N)
    t = Ln * (1 - x) / 2
    Dt = -(2.0 / Ln) * D
    n1 = N + 1
    eye = np.eye(n1)
    Z = np.zeros((n1, n1))
    a2 = -(1j * tau + 2 * xi ** 2)
    a0 = 1j * tau + 1j * tau * xi ** 2 + xi ** 4
    A = np.block([
        [Dt, -eye, Z, Z],
        [Z, Dt, -eye, Z],
        [Z, Z, Dt, -eye],
        [a0 * eye, Z, a2 * eye, Dt]]).astype(complex)
    rhs = np.zeros(4 * n1, complex)
    rhs[3 * n1:] = eval_terms(*f_terms, t)
    for row, (op, g) in zip((0, n1), zip(bc, (g1, g2))):
        A[row, :] = 0
        for j, c in enumerate(op.coeffs):
            A[row, j * n1] = complex(c(tau, xi))
        rhs[row] = g
    for row, blk in ((N, 0), (n1 + N, 1)):
        A[row, :] = 0
        A[row, blk * n1 + N] = 1.0
        rhs[row] = 0.0
    sol = np.linalg.solve(A, rhs)
    return t, sol[:n1]


def test_acceptance_10_collocation_oracle():
    grid = HalfGrid(K=8, Nn=128)
    # manufactured solution with Im rho >= 1 so the truncation at x_n = Ln
    # (where the collocation imposes decay) is far below the tolerance
    rng_u = np.random.default_rng(100)
    terms = {}
    for idx, tau, xi in grid.columns():
        terms[idx] = tuple(
            (complex(rng_u.normal(), rng_u.normal()),
             complex(rng_u.uniform(-2, 2), rng_u.uniform(1.0, 2.5)), 0)
            for _ in range(3))
    u_star = HalfField(grid, None, terms)
    f = apply_symbol(u_star, d_symbol())
    tr = traces(u_star, 4)
    rng = np.random.default_rng(10)
    cases = []
    for s in range(5):
        cases.append((int(rng.integers(1, 9)) * (-1) ** s,
                      neumann_pair_13(), (1, 3)))
        cases.append((int(rng.integers(1, 9)) * (-1) ** (s + 1),
                      dirichlet_pair(), (0, 1)))
    assert len(cases) == 10
    for k, bc, (j1, j2) in cases:
        idx = (grid.K + k,)
        r = [i for i, _, _ in grid.columns()].index(idx)
        res = solve_half_scalar(f, (tr[j1], tr[j2]), bc)
        t, u_c = _collocate_column(k * grid.omega, 0.0, (f.rho[r], f.coef[r]),
                                   tr[j1][idx], tr[j2][idx], bc, grid.Ln)
        u_f = eval_terms(res.u.rho[r], res.u.coef[r], t)
        assert np.abs(u_c - u_f).max() < 1e-7 * np.abs(u_f).max()
