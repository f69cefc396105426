"""Tests for the half-space resolvents, norms, traces, and solvers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxreg import halfspace
from maxreg.boundary import (
    BoundaryOperator,
    dirichlet_pair,
    neumann_pair_13,
    trace_operator,
)
from maxreg.factorization import (
    MU_D,
    MU_MINUS,
    T1_ORDER,
    chg_matrix,
    d_symbol,
    roots,
)
from maxreg.halfspace import (
    E1_ORDER,
    E2_ORDER,
    HalfField,
    HalfGrid,
    T0_MU_MINUS,
    T2_MU_D,
    anticausal_resolvent_samples,
    anticausal_resolvent_terms,
    apply_dminus,
    apply_poly_operator,
    apply_symbol,
    borderline_datum,
    boundary_norm,
    causal_resolvent_samples,
    causal_resolvent_terms,
    derivative_matrix,
    dirichlet_failure_probe,
    dminus_inverse_plus,
    dotted_inverse,
    eval_terms,
    halfspace_norm,
    random_exp_field,
    read_half_field,
    solve_half_chg_system,
    solve_half_scalar,
    terms_l2_sq,
    trace_extension,
    traces,
    write_half_field,
)
from maxreg.polygons import smooth_weight_eval
from maxreg.symbols import PolySymbol, SymbolFn, adjugate

GRID = HalfGrid(K=4, Nn=256)


def _random_traces(grid, r1, seed=0):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(r1,) + grid.col_shape) \
        + 1j * rng.normal(size=(r1,) + grid.col_shape)
    g[:, grid.K] = 0.0  # k = 0 slab stays empty
    return g


def _term(c, rho):
    """One column holding the single term c e^{i rho x}, as (slots, coef)."""
    return np.array([[rho]], complex), np.array([[[c]]], complex)


def _row(grid, idx):
    """Position of the live column idx in column_mesh order."""
    return [i for i, _, _ in grid.columns()].index(idx)


# ---------------------------------------------------------------------------
# grid and container invariants
# ---------------------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError):
        HalfGrid(Nn=32)
    with pytest.raises(ValueError):
        HalfGrid(K=0)
    with pytest.raises(ValueError):
        HalfGrid(n=3)
    for bad in ({"T": 0.0}, {"T": -1.0}, {"T": float("nan")}, {"Lx": 0.0},
                {"Ln": 0.0}, {"Ln": -1.0}, {"T": float("inf")},
                {"Lx": float("inf")}, {"Lx": float("nan")}, {"Ln": float("inf")},
                {"T": "1"}):
        with pytest.raises(ValueError, match=f"grid {next(iter(bad))} must be a "
                           "positive finite number"):
            HalfGrid(K=2, Nn=64, **bad)


def test_grid_rejects_ln_too_small_for_trace_stencils():
    """Below Ln ~ 1e-40 the Fornberg trace stencils over- or underflow."""
    with pytest.raises(ValueError, match="Ln=1e-300 too small"):
        HalfGrid(K=2, Nn=64, Ln=1e-300)
    assert HalfGrid(K=2, Nn=64, Ln=1e-30).Ln == 1e-30


@pytest.mark.parametrize("name", ["K", "N", "Nn"])
def test_grid_sizes_must_be_integers(name):
    sizes = {"K": 2, "N": 4, "Nn": 64}
    with pytest.raises(ValueError, match=f"grid size {name} must be an integer"):
        HalfGrid(n=2, **{**sizes, name: sizes[name] + 0.5})
    assert HalfGrid(n=2, **{**sizes, name: np.int64(sizes[name])}) \
        == HalfGrid(n=2, **sizes)


@pytest.mark.parametrize("n", [1, 2])
def test_column_mesh_matches_enumeration(n):
    """Row-major live columns, k = 0 left out, tau = 2 pi k / T and
    |xi'| = |2 pi fftfreq(N, Lx / N)|."""
    grid = HalfGrid(T=3.0, K=3, n=n, N=6, Lx=5.0, Nn=64)
    xi_axis = (np.abs(2.0 * np.pi * np.fft.fftfreq(6, d=5.0 / 6)) if n == 2
               else [0.0])
    expected = [((ik,) if n == 1 else (ik, j), 2.0 * np.pi * k / 3.0, x)
                for ik, k in enumerate(range(-3, 4)) if k != 0
                for j, x in enumerate(xi_axis)]
    index, tau, xi = grid.column_mesh()
    assert [tuple(int(i[c]) for i in index) for c in range(tau.size)] \
        == [e[0] for e in expected]
    np.testing.assert_allclose(tau, [e[1] for e in expected], rtol=1e-15)
    assert np.array_equal(xi, [e[2] for e in expected])
    assert list(grid.columns()) == list(zip([e[0] for e in expected], tau, xi))


def test_half_field_sub():
    u = random_exp_field(GRID, seed=1)
    v = random_exp_field(GRID, seed=2).materialized()
    d = u - v
    assert np.abs(d.values() - (u.values() - v.values())).max() == 0.0
    assert not any((u - u).exp_terms.values())


def test_exp_terms_round_trip_merges_slots():
    """Equal exponents of one column share a slot and their powers add;
    a + a keeps a's slots."""
    idx = (GRID.K + 1,)
    f = HalfField(GRID, None, {idx: ((1.0, 0.5j, 0), (4.0, 1j, 0), (2.0, 0.5j, 0),
                               (3.0, 0.5j, 1))})
    assert f.rho.shape[1] == 2 and f.coef.shape[2] == 2
    assert f.exp_terms == {idx: ((3.0, 0.5j, 0), (3.0, 0.5j, 1), (4.0, 1j, 0))}
    u = random_exp_field(GRID, seed=1)
    assert np.array_equal((u + u).rho, u.rho)
    assert np.array_equal((u + u).coef, 2.0 * u.coef)


def test_dict_interface_of_the_benchmark():
    """A positional dict in the constructor, exp_terms read and assigned,
    and values(): the calls bench/ makes."""
    grid = HalfGrid(K=2, n=2, N=4, Nn=64)
    terms = {idx: ((complex(1.0, r), complex(0.1 * r, 0.3), 0),)
             for r, (idx, _, _) in enumerate(grid.columns())}
    f = HalfField(grid, np.zeros(grid.shape, complex), terms)
    assert f.exp_terms == terms
    want = np.zeros(grid.shape, complex)
    for idx, ((c, rho, _),) in terms.items():
        want[idx] = c * np.exp(1j * rho * grid.xn())
    assert np.abs(f.values() - want).max() < 1e-14
    g = f.copy()
    g.samples = f.values() * 2.0
    g.exp_terms = {}
    assert g.exp_terms == {} and np.array_equal(g.values(), 2.0 * f.values())


def test_exact_data_holds_no_samples():
    """Every operator on exponential sums keeps samples None, through the
    scalar and the system solves."""
    grid = HalfGrid(K=2, n=2, N=4, Nn=64)
    u = random_exp_field(grid, seed=3)
    v = random_exp_field(grid, seed=4)
    ext = trace_extension(grid, _random_traces(grid, 2), MU_MINUS)
    inv = dotted_inverse(u, roots(*grid.column_mesh()[1:]).all()[:2])
    tr = traces(u, 4)
    scalar = solve_half_scalar(apply_symbol(u, d_symbol()), (tr[1], tr[3]))
    system = solve_half_chg_system(u, v, tr[1], tr[0])
    for f in (u, ext, apply_symbol(u, d_symbol()), apply_dminus(u), inv, u + v, u - v,
              scalar.u, *system.u, HalfField(grid, None), HalfField(grid, None, {})):
        assert f.samples is None and f.oscillatory


def test_all_zero_samples_are_held_as_none():
    grid = HalfGrid(K=2, n=2, N=4, Nn=64)
    assert HalfField(grid, np.zeros(grid.shape)).samples is None
    assert HalfField(grid, None).samples is None
    with pytest.raises(ValueError):
        HalfField(grid, np.zeros(grid.shape[:-1] + (grid.Nn - 1,)))


def test_copy_of_exact_field_has_writable_zero_samples():
    u = random_exp_field(GRID, seed=6)
    c = u.copy()
    assert c.samples.shape == GRID.shape and not c.samples.any()
    c.samples[1, 0] += 1.0
    assert u.samples is None
    assert c.values()[1, 0] == u.values()[1, 0] + 1.0


def test_sum_owns_its_samples():
    """A sum never shares a samples array with an operand."""
    u = random_exp_field(GRID, seed=7).materialized()
    v = random_exp_field(GRID, seed=8)
    for w in (u + v, v + u, u - v, v - u, u + u):
        assert w.samples is not None
        assert not np.shares_memory(w.samples, u.samples)


def test_nonzero_k0_slab_is_not_oscillatory(tmp_path):
    """The k = 0 slab decides oscillatory; half-space inverses refuse it,
    also after a write and read."""
    data = np.zeros(GRID.shape, complex)
    data[GRID.K] = 1.0
    f = HalfField(GRID, data)
    assert not f.oscillatory
    with pytest.raises(ValueError, match="half-space inverses act on oscillatory data"):
        dminus_inverse_plus(f)
    path = tmp_path / "k0.bin"
    write_half_field(path, f)
    g = read_half_field(path)
    assert not g.oscillatory
    with pytest.raises(ValueError, match="half-space inverses act on oscillatory data"):
        dminus_inverse_plus(g)


def test_grid_auto_truncation_is_sixteen_decay_lengths():
    g = HalfGrid()
    rq = roots(g.omega, 0.0)
    slowest = min(rq.rho1_plus.imag, rq.rho2_plus.imag)
    assert g.Ln == pytest.approx(16.0 / slowest)


def test_field_rejects_growing_exponent():
    with pytest.raises(ValueError):
        HalfField(GRID, None, {(GRID.K + 1,): ((1.0, -0.5j, 0),)})


# ---------------------------------------------------------------------------
# resolvents: eigenfunction identities and convergence
# ---------------------------------------------------------------------------


def test_causal_terms_eigenfunction():
    """(xi_n - rho)^{-1} applied to e^{i sigma x} gives e^{i sigma x}/(sigma - rho)."""
    rho, sigma = -0.4 - 0.9j, 0.7 + 0.5j
    slots, coef = causal_resolvent_terms(rho, *_term(2.0 - 1.0j, sigma))
    assert coef.shape == (1, 1, 1)
    c, r = coef[0, 0, 0], slots[0, 0]
    assert r == sigma
    assert c == pytest.approx((2.0 - 1.0j) / (sigma - rho))


def test_anticausal_terms_eigenfunction():
    rho, sigma = 0.3 + 1.1j, -0.6 + 0.4j
    out = anticausal_resolvent_terms(rho, *_term(1.0, sigma), GRID.Ln)
    x = np.linspace(0.0, 8.0, 33)
    want = (np.exp(1j * sigma * x) - np.exp(1j * rho * x)) / (sigma - rho)
    assert np.abs(eval_terms(*out, x)[0] - want).max() < 1e-13


def test_anticausal_terms_degenerate_exponent():
    """sigma -> rho limit of (e^{i sigma x} - e^{i rho x})/(sigma - rho)."""
    rho = 0.2 + 0.8j
    out = anticausal_resolvent_terms(rho, *_term(1.0, rho + 1e-12), GRID.Ln)
    x = np.linspace(0.0, 10.0, 21)
    want = 1j * x * np.exp(1j * rho * x)
    assert np.abs(eval_terms(*out, x)[0] - want).max() < 1e-6


def test_dotted_inverse_degenerate_on_one_column():
    """A slot equal to the root on one column takes the series branch there,
    i x e^{i rho x}, and the closed form on the other columns."""
    grid = HalfGrid(K=2, Nn=64)
    rho = 0.3 + 0.9j
    sigma = {idx: rho if r == 1 else rho + 0.2 * (r + 1)
             for r, (idx, _, _) in enumerate(grid.columns())}
    f = HalfField(grid, None, {i: ((1.0, s, 0),) for i, s in sigma.items()})
    w = dotted_inverse(f, [rho])
    x, vals = grid.xn(), w.values()
    for idx, s in sigma.items():
        want = (1j * x * np.exp(1j * rho * x) if s == rho
                else (np.exp(1j * s * x) - np.exp(1j * rho * x)) / (s - rho))
        assert np.abs(vals[idx] - want).max() < 1e-13


@pytest.mark.parametrize("bl", [0.0, 0.3, 0.45, 0.55, 0.7, 4.0])
def test_int_power_exp_matches_quadrature(bl):
    """Both branches, the series (|b| L < 0.5) and integration by parts."""
    L = 3.0
    b = bl / L * np.exp(2.2j)
    x = np.linspace(0.0, L, 20001)
    w = np.ones(x.size)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    got = halfspace._int_power_exp(4, np.array([b]), L, np.exp(np.array([b]) * L))[0]
    for q in range(5):
        want = (x[1] - x[0]) / 3.0 * np.dot(w, x ** q * np.exp(b * x))
        assert abs(got[q] - want) < 1e-12 * abs(want)


@pytest.mark.parametrize("L", [1.0, 30.0, 1e3])
def test_int_power_exp_mixed_branches_match_gauss_legendre(L):
    """Series (|b| L < 0.5) and recursion entries in one array: the recursion
    runs over all of them with a decaying stand-in on the series entries, so
    nothing overflows, underflows or divides by zero even at L = 1e3; e^{bL}
    comes precomputed, as terms_l2_sq passes it."""
    bl = np.array([0.0, 1e-9, 0.1, 0.49, 0.5, 2.0, 40.0, 0.49, 3.0, 40.0])
    angle = np.array([0.0, 2.2, 1.7, 3.1, 2.2, 1.6, 2.6, np.pi / 2, np.pi / 2, np.pi])
    b = (bl / L * np.exp(1j * angle)).reshape(2, 5)
    with np.errstate(all="raise"):
        got = halfspace._int_power_exp(4, b, L, np.exp(b * L))
    nodes, weights = np.polynomial.legendre.leggauss(200)
    x, w = 0.5 * L * (nodes + 1.0), 0.5 * L * weights
    for q in range(5):
        f = x ** q * np.exp(b[..., None] * x)
        want, scale = f @ w, np.abs(f) @ w
        assert np.all(np.abs(got[..., q] - want) < 1e-12 * scale)


def test_terms_l2_sq_matches_gauss_legendre():
    """The Gram sum of a 3-slot, 3-power sum against 200-node Gauss-Legendre
    quadrature of |sum|^2; the slot pair (0, 1) has |b| L = 0.16 and takes
    the series branch, the other pairs the recursion."""
    L = 2.0
    rho = np.array([[0.3 + 0.02j, 0.3 + 0.06j, -1.1 + 0.9j],
                    [2.0 + 0.5j, -0.4 + 1.5j, 0.7 + 3.0j]])
    rng = np.random.default_rng(9)
    coef = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    b01 = 1j * (rho[0, 0] - np.conj(rho[0, 1]))
    assert abs(b01) * L < 0.5 and abs(1j * (rho[0, 0] - np.conj(rho[0, 2]))) * L > 0.5
    with np.errstate(all="raise"):
        got = terms_l2_sq(rho, coef, L)
    nodes, weights = np.polynomial.legendre.leggauss(200)
    x, w = 0.5 * L * (nodes + 1.0), 0.5 * L * weights
    want = np.abs(eval_terms(rho, coef, x)) ** 2 @ w
    assert np.all(np.abs(got - want) < 1e-13 * want)


def _stack_2x2(rng, size, near_singular):
    """size random complex 2x2 matrices, with nearly parallel columns when
    near_singular is given (their distance from singular)."""
    z = rng.normal(size=(size, 2, 2)) + 1j * rng.normal(size=(size, 2, 2))
    if near_singular is not None:
        z[:, :, 1] = (rng.normal(size=(size, 1)) * z[:, :, 0]
                      + near_singular * z[:, :, 1])
    return z * 10.0 ** rng.uniform(-3, 3, size=(size, 1, 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.one_of(st.none(), st.floats(1e-10, 1.0)))
def test_conditioning_matches_lapack(seed, near_singular):
    """The closed-form cond_2(M) and ||diag(l) M^-1 diag(r)^-1||_2 of
    solve_half_scalar against np.linalg.cond and np.linalg.norm(., 2): both
    agree to a few ulps of 1/cond, and to eps * cond relative for the
    inverse, whose rounding grows with cond in either method."""
    rng = np.random.default_rng(seed)
    M = _stack_2x2(rng, 16, near_singular)
    left, right = (10.0 ** rng.uniform(-1, 1, size=(16, 2)) for _ in range(2))
    det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
    cond = halfspace._norm_2x2(M) ** 2 / np.abs(det)
    scaled = halfspace._conditioning(M, det, left, right)
    want_cond = np.linalg.cond(M)
    assert np.all(np.abs(1.0 / cond - 1.0 / want_cond) < 1e-13)
    want = np.linalg.norm(left[:, :, None] * np.linalg.inv(M) / right[:, None, :],
                          2, axis=(-2, -1))
    assert np.all(np.abs(scaled - want) < 1e-12 * want_cond * want)


def test_norm_2x2_of_scaled_unitary_matrices():
    """Equal singular values, where a discriminant f^2 - 4|det|^2 of the
    Frobenius norm f would lose half the digits."""
    t = np.linspace(0.1, 3.0, 7)
    U = np.stack([np.stack([np.cos(t), -np.sin(t)], -1),
                  np.stack([np.sin(t), np.cos(t)], -1)], -2) * np.exp(1j * t)[:, None, None]
    got = halfspace._norm_2x2(3.0 * U)
    assert np.all(np.abs(got - 3.0) < 4e-15 * 3.0)


def test_random_exp_field_draw_stream_is_pinned():
    """Golden draws of random_exp_field(seed=5) on the ensemble grid: the
    ensemble reports depend on this exact stream."""
    grid = HalfGrid(K=8, n=2, N=16, Nn=128)
    f = random_exp_field(grid, seed=5)
    assert f.rho.shape == (256, 3) and f.coef.shape == (256, 3, 1)
    golden = {
        (0, 0): (-1.5597803810294106 + 1.2932791495513118j,
                 -0.8019314252534474 - 1.324358995628145j),
        (1, 2): (1.9252286624744652 + 0.8953039070158946j,
                 0.27276877584472176 - 1.2333286640307717j),
        (100, 1): (0.19814454341180676 + 0.8344006051016073j,
                   0.2036961304237924 - 0.49260852892014195j),
        (255, 2): (1.8980224502595089 + 1.4987322478789806j,
                   -0.3356299385339455 - 0.6474533088072583j),
    }
    for idx, (rho, coef) in golden.items():
        assert f.rho[idx] == rho and f.coef[idx][0] == coef
    assert np.all((-2.0 <= f.rho.real) & (f.rho.real <= 2.0))
    assert np.all((0.3 <= f.rho.imag) & (f.rho.imag <= 2.0))
    g = random_exp_field(grid, seed=6)
    assert np.all(f.rho != g.rho) and np.all(f.coef != g.coef)


def test_resolvents_reject_wrong_half_plane():
    with pytest.raises(ValueError):
        causal_resolvent_terms(0.5j, *_term(1.0, 1.0j))
    with pytest.raises(ValueError):
        anticausal_resolvent_terms(-0.5j, *_term(1.0, 1.0j), GRID.Ln)
    with pytest.raises(ValueError):
        causal_resolvent_samples(0.5j, np.zeros(8, complex), 0.1)
    with pytest.raises(ValueError):
        anticausal_resolvent_samples(-0.5j, np.zeros(8, complex), 0.1)


def test_sampled_resolvents_second_order():
    """Piecewise-linear quadrature: error drops ~4x when h halves."""
    sigma = 0.8 + 0.7j
    rho_c, rho_a = -0.3 - 1.0j, 0.4 + 1.2j
    errs_c, errs_a = [], []
    for nn in (128, 256, 512):
        g = HalfGrid(K=1, Nn=nn, Ln=GRID.Ln)
        x = g.xn()
        data = np.exp(1j * sigma * x)
        m = int(0.6 * nn)
        vc = causal_resolvent_samples(rho_c, data, g.h)
        errs_c.append(np.abs(vc[:m] - data[:m] / (sigma - rho_c)).max())
        va = anticausal_resolvent_samples(rho_a, data, g.h)
        want = (data - np.exp(1j * rho_a * x)) / (sigma - rho_a)
        errs_a.append(np.abs(va - want).max())
    for errs in (errs_c, errs_a):
        assert errs[0] / errs[1] > 3.0
        assert errs[1] / errs[2] > 3.0


def test_causal_reflection_identity():
    """anticausal(rho, g)(L - x) = -causal(-rho, g(L - .))(x) for interior data."""
    g = HalfGrid(K=1, Nn=512)
    x = g.xn()
    data = np.exp(-((x - g.Ln / 2) / (g.Ln / 12)) ** 2)  # supported well inside
    rho = 0.3 + 0.9j
    anti = anticausal_resolvent_samples(rho, data, g.h)
    caus = causal_resolvent_samples(-rho, data[::-1], g.h)
    assert np.abs(anti[::-1] + caus).max() < 1e-10 * np.abs(anti).max()


def test_dminus_inverse_preserves_upper_support():
    """Sampled data vanishing beyond b stays zero beyond b."""
    grid = GRID
    data = np.zeros(grid.shape, complex)
    cut = grid.Nn // 3
    rng = np.random.default_rng(2)
    for idx, _, _ in grid.columns():
        data[idx][:cut] = rng.normal(size=cut) + 1j * rng.normal(size=cut)
    out = dminus_inverse_plus(HalfField(grid, data))
    assert np.abs(out.samples[..., cut:]).max() == 0.0


# ---------------------------------------------------------------------------
# forward / inverse round trips
# ---------------------------------------------------------------------------


def test_dminus_round_trip_exact_on_exp_sums():
    f = random_exp_field(GRID, seed=3)
    back = dminus_inverse_plus(apply_dminus(f))
    err = np.abs(back.values() - f.values()).max()
    assert err < 1e-9 * np.abs(f.values()).max()


def test_dminus_round_trip_sampled_converges():
    """Sampled path agrees with the exact path at second order."""
    errs = []
    for nn in (128, 256):
        grid = HalfGrid(K=2, Nn=nn, Ln=GRID.Ln)
        f = random_exp_field(grid, seed=4)
        w_exact = dminus_inverse_plus(f).values()
        f_sampled = f.materialized()
        w_sampled = dminus_inverse_plus(f_sampled).values()
        errs.append(np.abs(w_sampled - w_exact).max() / np.abs(w_exact).max())
    assert errs[0] / errs[1] > 3.0
    assert errs[1] < 5e-3


@pytest.mark.parametrize("name,sym", [("D", d_symbol())]
                         + [(f"L{i}{j}", chg_matrix().entries[i][j])
                            for i in range(2) for j in range(2)]
                         + [(f"adjL{i}{j}", adjugate(chg_matrix()).entries[i][j])
                            for i in range(2) for j in range(2)])
def test_apply_symbol_matches_symbol_on_exponentials(name, sym):
    """op[P] c e^{i rho x} = P(tau, sqrt(|xi'|^2 + rho^2)) c e^{i rho x}."""
    rng = np.random.default_rng(sum(map(ord, name)))
    grid = HalfGrid(T=rng.uniform(1.0, 10.0), K=3, n=2, N=4,
                    Lx=rng.uniform(1.0, 10.0), Nn=64)
    terms = {idx: ((complex(rng.normal(), rng.normal()),
                    complex(rng.uniform(-3.0, 3.0), rng.uniform(0.1, 3.0)), 0),)
             for idx, _, _ in grid.columns()}
    out = apply_symbol(HalfField(grid, None, terms), sym)
    for idx, tau, xi in grid.columns():
        (c, rho, _), = terms[idx]
        expect = complex(sym(tau, np.sqrt(xi * xi + rho * rho))) * c
        (got, got_rho, got_m), = out.exp_terms[idx]
        assert (got_rho, got_m) == (rho, 0)
        assert abs(got - expect) <= 1e-12 * abs(expect)


def test_apply_symbol_rejects_non_polynomial_symbols():
    u = random_exp_field(GRID, seed=2)
    for sym in (PolySymbol(1, True, ((1.0, 0, 1),)),       # |xi|, odd power
                PolySymbol(2, False, ((1.0, 0, (2, 0)),)),  # xi_1^2, not radial
                SymbolFn(fn=lambda tau, xi: 1j * tau)):    # not a PolySymbol
        with pytest.raises(ValueError):
            apply_symbol(u, sym)


def test_quartic_splits_through_factors():
    """op[D-] then the two anticausal D+ factors inverts op[D] up to traces."""
    u = random_exp_field(GRID, seed=5)
    f = apply_symbol(u, d_symbol())
    w = dminus_inverse_plus(f)
    # D+ applied to u must reproduce w: D- (D+ u) = f and both sides bounded
    def dplus_coeff(tau, xi):
        rq = roots(tau, xi)
        r1, r2 = rq.rho1_plus, rq.rho2_plus
        return (r1 * r2, 1j * (r1 + r2), -1.0)
    dplus_u = apply_poly_operator(u, dplus_coeff)
    assert np.abs(dplus_u.values() - w.values()).max() \
        < 1e-10 * np.abs(w.values()).max()


def test_extension_independence():
    """The one-sided calculus depends only on the data on [0, Ln]."""
    terms = {}
    rng = np.random.default_rng(6)
    for idx, _, _ in GRID.columns():
        terms[idx] = tuple(
            (rng.normal() + 1j * rng.normal(),
             rng.uniform(-1, 1) + 1j * rng.uniform(1.0, 2.0), 0)
            for _ in range(2))
    big = HalfGrid(K=GRID.K, Nn=384, Ln=1.5 * GRID.Ln)
    u_small = dminus_inverse_plus(HalfField(GRID, None, terms))
    u_big = dminus_inverse_plus(HalfField(big, None, terms))
    x = GRID.xn()[: GRID.Nn // 2]
    for a, b in zip(eval_terms(u_small.rho, u_small.coef, x),
                    eval_terms(u_big.rho, u_big.coef, x)):
        assert np.abs(a - b).max() < 1e-10 * max(np.abs(a).max(), 1.0)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_halfspace_norm_single_profile_oracle():
    """One exponential column: closed form |prod (a_y - i rho)|^e * L2(e^{i rho x})."""
    grid = GRID
    k, rho = 2, 0.5 + 1.3j
    idx = (grid.K + k,)
    u = HalfField(grid, None, {idx: ((1.0, rho, 0),)})
    tau = k * grid.omega
    # mu_D factors: (sqrt<tau> + <xi'> - d)^2 (1 + <xi'> - d)^2 at xi' = 0
    a1 = np.sqrt(np.sqrt(1 + tau * tau)) + 1.0
    a0 = 1.0 + 1.0
    mult = abs((a1 - 1j * rho) ** 2 * (a0 - 1j * rho) ** 2)
    l2 = np.sqrt((1 - np.exp(-2 * rho.imag * grid.Ln)) / (2 * rho.imag))
    expect = np.sqrt(grid.T) * mult * l2
    assert halfspace_norm(u, MU_D) == pytest.approx(expect, rel=1e-8)


def test_halfspace_norm_zero_order_is_l2():
    u = random_exp_field(GRID, seed=7)
    total = terms_l2_sq(u.rho, u.coef, GRID.Ln).sum()
    assert halfspace_norm(u, 0) == pytest.approx(np.sqrt(GRID.T * total), rel=1e-10)


def test_halfspace_norm_builds_derivative_matrix_only_for_samples():
    u = random_exp_field(GRID, seed=8)
    derivative_matrix.cache_clear()
    halfspace_norm(u, MU_D)
    assert derivative_matrix.cache_info().misses == 0
    halfspace_norm(u.materialized(), MU_D)
    assert derivative_matrix.cache_info().misses == 1


def _window_rows(nn, npts):
    """(lo, r) of every sample: its window start and its row of the compact matrix."""
    lo = np.clip(np.arange(nn) - npts // 2, 0, nn - npts)
    return lo, np.arange(nn) - lo


@pytest.mark.parametrize("nn", [64, 1024])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_derivative_matrix_exact_on_polynomials(order, nn):
    """Every row, edge rows included, differentiates x^p exactly for p < npts."""
    h = 0.03
    W = derivative_matrix(nn, h, order)
    npts = len(W)
    x = np.arange(nn) * h
    row_sums = np.abs(W).sum(axis=1)[_window_rows(nn, npts)[1]]
    for p in range(npts):
        f = x ** p
        exact = (math.factorial(p) / math.factorial(p - order) * x ** (p - order)
                 if p >= order else np.zeros(nn))
        err = np.abs(halfspace._differentiate(f, W) - exact)
        assert np.all(err <= 16 * np.finfo(float).eps * row_sums * np.abs(f).max())


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_derivative_matrix_matches_dense_rows(order):
    """The compact form acts as the dense matrix built one Fornberg row at a time."""
    nn, h = 200, 0.03
    W = derivative_matrix(nn, h, order)
    npts = len(W)
    x = np.arange(nn) * h
    D = np.zeros((nn, nn))
    for i, lo in enumerate(_window_rows(nn, npts)[0]):
        D[i, lo:lo + npts] = halfspace.fd_weights(x[lo:lo + npts], x[i], order)[:, order]
    rng = np.random.default_rng(order)
    cols = rng.normal(size=(3, 2, nn)) + 1j * rng.normal(size=(3, 2, nn))
    dense = cols @ D.T
    assert np.abs(halfspace._differentiate(cols, W) - dense).max() < 1e-12 * np.abs(dense).max()


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_derivative_matrix_edge_rows_are_fourth_order(order):
    """Halving h shrinks the error of every one-sided edge row by 2^3.5 or
    more, on e^{-0.7x} cos(1.3x) over [0, 10]."""
    z = complex(-0.7, 1.3)

    def edge_errors(nn):
        x = np.linspace(0.0, 10.0, nn)
        W = derivative_matrix(nn, x[1] - x[0], order)
        half = len(W) // 2
        err = np.abs(halfspace._differentiate(np.exp(z * x).real, W)
                     - (z ** order * np.exp(z * x)).real)
        return np.concatenate([err[:half], err[nn - len(W) + half + 1:]])

    assert np.all(edge_errors(201) / edge_errors(401) >= 2 ** 3.5)


def test_derivative_matrix_is_compact(monkeypatch):
    """npts rows from npts Fornberg solves, whatever the number of samples."""
    calls, fd_weights = [], halfspace.fd_weights

    def counted(*args):
        calls.append(args)
        return fd_weights(*args)

    monkeypatch.setattr(halfspace, "fd_weights", counted)
    derivative_matrix.cache_clear()
    W = derivative_matrix(1024, 0.03, 1)
    derivative_matrix.cache_clear()
    assert W.shape == (5, 5)
    assert len(calls) == 5


def test_halfspace_norm_sampled_matches_exact():
    """The sampled mu_D norm is second order in h: within 1e-3 of the exact
    norm at Nn = 1021, and its error falls at least 3x from GRID's Nn = 256
    (about 16x for second order, as h falls about 4x)."""
    def error(grid, seed):
        u = random_exp_field(grid, seed=seed)
        exact = halfspace_norm(u, MU_D)
        return abs(halfspace_norm(u.materialized(), MU_D) - exact) / exact

    fine = HalfGrid(K=GRID.K, Nn=1021)
    for seed in range(20):
        e_fine = error(fine, seed)
        assert e_fine < 1e-3, seed
        assert error(GRID, seed) > 3.0 * e_fine, seed


def test_boundary_norm_evaluates_weights_once(monkeypatch):
    grid = HalfGrid(K=8, n=2, N=4, Nn=64)
    g = _random_traces(grid, 1)[0]
    calls = []

    def counted(mu, tau, xi):
        calls.append(mu)
        return smooth_weight_eval(mu, tau, xi)
    monkeypatch.setattr(halfspace, "smooth_weight_eval", counted)
    assert boundary_norm(g, T2_MU_D, grid) > 0 and len(calls) == 1


def test_boundary_norm_closed_form():
    grid = GRID
    g = np.zeros(grid.col_shape, complex)
    g[grid.K + 3] = 2.0
    w = float(smooth_weight_eval(T2_MU_D, 3 * grid.omega, 0.0))
    assert boundary_norm(g, T2_MU_D, grid) == pytest.approx(
        2.0 * w * np.sqrt(grid.T), rel=1e-12)


# ---------------------------------------------------------------------------
# traces and the trace extension
# ---------------------------------------------------------------------------


def test_trace_extension_round_trip():
    g = _random_traces(GRID, 4, seed=9)
    F = trace_extension(GRID, g, MU_D)
    assert np.abs(traces(F, 4) - g).max() < 1e-10


def test_trace_extension_mu_minus_constant_term():
    """The k = 0 Vandermonde node contributes a non-decaying profile."""
    g = np.zeros((2,) + GRID.col_shape, complex)
    g[0, GRID.K + 1] = 1.0
    F = trace_extension(GRID, g, MU_MINUS)
    # extension of (g, 0) is exactly the constant g in x_n
    col = F.values()[(GRID.K + 1,)]
    assert np.abs(col - 1.0).max() < 1e-12


def test_trace_extension_requires_chg_shape():
    from fractions import Fraction as F

    from maxreg.polygons import OrderFunction
    with pytest.raises(ValueError):
        # mu(gamma) = 1 + gamma is not regular in time: no flat first piece
        trace_extension(GRID, _random_traces(GRID, 1),
                        OrderFunction(((None, F(1), F(1)),)))


def test_fd_traces_converge():
    """Finite-difference traces of sampled data match the exact exp traces."""
    u = random_exp_field(GRID, seed=10)
    exact = traces(u, 4)
    approx = traces(u.materialized(), 4)
    scale = np.abs(exact).max()
    assert np.abs(approx - exact)[:3].max() < 1e-4 * scale
    assert np.abs(approx - exact)[3].max() < 1e-3 * scale


def _annihilating_roots(grid):
    """rho_1^+, rho_2^+ and twice i a, a = (1 + tau^2)^(1/4) + <xi'>, over
    the live columns: four upper roots, so four anticausal resolvents."""
    _, tau, xi = grid.column_mesh()
    rq = roots(tau, xi)
    a = np.sqrt(np.sqrt(1 + tau * tau)) + np.sqrt(1 + xi * xi)
    return [rq.rho1_plus, rq.rho2_plus, 1j * a, 1j * a]


def test_dotted_inverse_trace_annihilation():
    """Four chained anticausal resolvents annihilate Tr_0..Tr_3 (exact path)."""
    f = random_exp_field(GRID, seed=11)

    w = dotted_inverse(f, _annihilating_roots(GRID))
    tr = traces(w, 4)
    assert np.abs(tr).max() < 1e-8 * np.abs(w.values()).max()


def test_dotted_inverse_trace_annihilation_sampled():
    """Sampled path: Tr_0 vanishes exactly by the recursion; Tr_1 to
    quadrature accuracy (higher traces amplify sample noise by h^-j)."""
    f = random_exp_field(GRID, seed=12).materialized()

    w = dotted_inverse(f, _annihilating_roots(GRID))
    tr = traces(w, 2)
    scale = np.abs(w.values()).max()
    assert np.abs(tr[0]).max() == 0.0
    assert np.abs(tr[1]).max() < 1e-3 * scale


# ---------------------------------------------------------------------------
# scalar boundary-value solver
# ---------------------------------------------------------------------------


def _manufactured(grid, seed):
    u_star = random_exp_field(grid, seed=seed)
    f = apply_symbol(u_star, d_symbol())
    tr = traces(u_star, 4)
    return u_star, f, tr


def test_solve_scalar_neumann_manufactured():
    u_star, f, tr = _manufactured(GRID, 13)
    res = solve_half_scalar(f, (tr[1], tr[3]), neumann_pair_13())
    err = halfspace_norm(res.u - u_star, MU_D)
    assert err < 1e-9 * halfspace_norm(u_star, MU_D)


def test_solve_scalar_dirichlet_manufactured():
    u_star, f, tr = _manufactured(GRID, 14)
    res = solve_half_scalar(f, (tr[0], tr[1]), dirichlet_pair())
    err = halfspace_norm(res.u - u_star, MU_D)
    assert err < 1e-9 * halfspace_norm(u_star, MU_D)


def test_solve_scalar_interior_residual():
    _, f, tr = _manufactured(GRID, 15)
    res = solve_half_scalar(f, (tr[1], tr[3]), neumann_pair_13())
    back = apply_symbol(res.u, d_symbol())
    assert np.abs(back.values() - f.values()).max() \
        < 1e-9 * np.abs(f.values()).max()


def _calls_in_solve(monkeypatch, name, K):
    """How often solve_half_scalar calls halfspace.<name> at the given K."""
    f = random_exp_field(HalfGrid(K=K, Nn=64), seed=3)
    calls = []
    real = getattr(halfspace, name)

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(halfspace, name, counted)
    solve_half_scalar(f, None, neumann_pair_13())
    monkeypatch.undo()
    return len(calls)


def test_solve_scalar_roots_calls_do_not_grow_with_K(monkeypatch):
    assert _calls_in_solve(monkeypatch, "roots", 4) \
        == _calls_in_solve(monkeypatch, "roots", 16)


@pytest.mark.parametrize("name", ["causal_resolvent_terms",
                                  "anticausal_resolvent_terms"])
def test_solve_scalar_resolvent_calls_do_not_grow_with_K(monkeypatch, name):
    """Each resolvent runs once per root over all columns, not per column."""
    assert _calls_in_solve(monkeypatch, name, 4) \
        == _calls_in_solve(monkeypatch, name, 16) == 2


def test_one_roots_call_per_boundary_solve(monkeypatch):
    """The scalar and the system solve each take the roots once and run the
    four-root resolvent chain from that one table."""
    grid = HalfGrid(K=2, n=2, N=4, Nn=64)  # built first: HalfGrid takes the roots too
    f1, f2 = random_exp_field(grid, seed=1), random_exp_field(grid, seed=2)
    zero = np.zeros(grid.col_shape, complex)
    calls = []
    real = halfspace.roots

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(halfspace, "roots", counted)
    solve_half_scalar(f1, None, neumann_pair_13())
    assert len(calls) == 1
    solve_half_chg_system(f1, f2, zero, zero)
    assert len(calls) == 2


def test_sup_column_ratio_reads_samples():
    """The probe's column ratio of a solution and its data held as samples
    matches that of their exact form (Simpson's rule against the Gram sum)."""
    grid = HalfGrid(K=2, n=1, Nn=512)
    f = random_exp_field(grid, seed=1)
    u = solve_half_scalar(f, None, neumann_pair_13()).u
    exact = halfspace._sup_column_ratio(u, f)
    sampled = halfspace._sup_column_ratio(u.materialized(), f.materialized())
    assert exact > 1.0
    assert abs(sampled - exact) < 1e-3 * exact


def test_solve_scalar_ls_violation_raises():
    op = BoundaryOperator((1.0, 0.5, 0.0, 0.0))
    f = random_exp_field(GRID, seed=16)
    with pytest.raises(ZeroDivisionError, match=r"Lopatinskii violation: "
                       r"singular boundary system at column k=-4, \|xi'\|=0$"):
        solve_half_scalar(f, None, (op, BoundaryOperator((2.0, 1.0, 0.0, 0.0))))


def test_conditioning_signature():
    """Scaled correction-operator norm: Dirichlet/Neumann contrast grows in k."""
    grid = HalfGrid(K=64, Nn=128)
    f = random_exp_field(grid, seed=17)
    zg = (np.zeros(grid.col_shape, complex), np.zeros(grid.col_shape, complex))
    res_d = solve_half_scalar(f, zg, dirichlet_pair())
    res_n = solve_half_scalar(f, zg, neumann_pair_13())
    sd = {idx[0] - grid.K: s for idx, _, s in res_d.diagnostics["conds"]}
    sn = {idx[0] - grid.K: s for idx, _, s in res_n.diagnostics["conds"]}
    contrast = [sd[k] / sn[k] for k in (1, 4, 16, 64)]
    assert all(a < b for a, b in zip(contrast, contrast[1:]))
    # Neumann itself is bounded: it decreases toward its asymptote
    assert sn[64] < sn[1]


def test_collocation_oracle_single_column():
    """Factorized route equals a dense Chebyshev collocation solve.

    The data have Im rho >= 0.3, so u* has not decayed at x_n = Ln
    (e^{-0.3 Ln} is about 5e-4): the collocation is given u*'s exact
    value and slope there."""
    for seed in (42, *range(10)):
        u_star, f, tr = _manufactured(HalfGrid(K=8, Nn=128), seed)
        grid = f.grid
        res = solve_half_scalar(f, (tr[1], tr[3]), neumann_pair_13())
        k = 3
        idx = (grid.K + k,)
        r = _row(grid, idx)
        rho, coef = u_star.rho[r], u_star.coef[r]
        far = (eval_terms(rho, coef, np.array([grid.Ln]))[0],
               eval_terms(rho, halfspace._derivative(rho, coef),
                          np.array([grid.Ln]))[0])
        t, u_c = _collocate_column(k * grid.omega, 0.0, (f.rho[r], f.coef[r]),
                                   tr[1][idx], tr[3][idx], neumann_pair_13(),
                                   grid.Ln, far=far)
        u_f = eval_terms(res.u.rho[r], res.u.coef[r], t)
        assert np.abs(u_c - u_f).max() < 1e-7 * np.abs(u_f).max(), seed


def _cheb(N):
    x = np.cos(np.pi * np.arange(N + 1) / N)
    c = np.hstack([2.0, np.ones(N - 1), 2.0]) * (-1.0) ** np.arange(N + 1)
    X = np.tile(x, (N + 1, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(N + 1))
    D -= np.diag(D.sum(axis=1))
    return D, x


def _collocate_column(tau, xi, f_terms, g1, g2, bc, Ln, N=300, far=(0.0, 0.0)):
    """Dense first-order-system Chebyshev solve of the quartic column BVP;
    far gives u and u' at x_n = Ln (default: decayed to 0)."""
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
    for row, blk in ((N, 0), (n1 + N, 1)):  # u, u' at x_n = Ln
        A[row, :] = 0
        A[row, blk * n1 + N] = 1.0
        rhs[row] = far[blk]
    sol = np.linalg.solve(A, rhs)
    return t, sol[:n1]


# ---------------------------------------------------------------------------
# the CHG system solver
# ---------------------------------------------------------------------------


def _random_boundary(grid, seed):
    rng = np.random.default_rng(seed)
    g = np.zeros(grid.col_shape, complex)
    for idx, _, _ in grid.columns():
        g[idx] = rng.normal() + 1j * rng.normal()
    return g


def test_system_zero_data_gives_zero():
    z = HalfField(GRID, None)
    g0 = np.zeros(GRID.col_shape, complex)
    res = solve_half_chg_system(z, z, g0, g0)
    for ui in res.u:
        assert np.abs(ui.values()).max() == 0.0


def test_system_interior_and_boundary_residuals():
    L = chg_matrix().entries
    f1 = random_exp_field(GRID, seed=18)
    f2 = random_exp_field(GRID, seed=19)
    g1, g2 = _random_boundary(GRID, 20), _random_boundary(GRID, 21)
    res = solve_half_chg_system(f1, f2, g1, g2)
    u1, u2 = res.u
    for i, fi in enumerate((f1, f2)):
        row = apply_symbol(u1, L[i][0]) + apply_symbol(u2, L[i][1])
        err = np.abs(row.values() - fi.values()).max()
        assert err < 1e-7 * np.abs(fi.values()).max()
    assert res.diagnostics["bdry_residual_1"] < 1e-10 * np.abs(g1).max()
    assert res.diagnostics["bdry_residual_2"] < 1e-10 * np.abs(g2).max()


def test_system_ratio_bounded_small_ensemble():
    ratios = []
    for s in range(5):
        f1 = random_exp_field(GRID, seed=30 + s)
        f2 = random_exp_field(GRID, seed=40 + s)
        g1, g2 = _random_boundary(GRID, 50 + s), _random_boundary(GRID, 60 + s)
        res = solve_half_chg_system(f1, f2, g1, g2)
        ratios.append(res.diagnostics["ratio"])
    assert max(ratios) < 50.0


def test_system_norm_reports_present():
    f1 = random_exp_field(GRID, seed=22)
    f2 = random_exp_field(GRID, seed=23)
    g0 = np.zeros(GRID.col_shape, complex)
    res = solve_half_chg_system(f1, f2, g0, g0)
    assert res.diagnostics["norm_u1_E1"] > 0
    assert res.diagnostics["norm_u2_E2"] > 0
    # E1 is the stronger space: check the orders actually differ
    assert E1_ORDER.ord == 3 and E2_ORDER.ord == 2


_Tr = trace_operator
# B_i u = sum_k bc[i][k] u_k, None for no term
SYSTEM_PAIRS = {
    "Tr1u1,Tr1u2": ((_Tr(1), None), (None, _Tr(1))),
    "Tr0u1,Tr0u2": ((_Tr(0), None), (None, _Tr(0))),
    "Tr0u1,Tr1u2": ((_Tr(0), None), (None, _Tr(1))),
    "Tr1u1+Tr0u2,Tr3u1": ((_Tr(1), _Tr(0)), (_Tr(3), None)),
}


def _system_data(grid, bc):
    """u* from two random_exp_field components, f = L u* and g_i = B_i u*."""
    L = chg_matrix(grid.n).entries
    u_star = [random_exp_field(grid, seed=7), random_exp_field(grid, seed=8)]
    f = [apply_symbol(u_star[0], row[0]) + apply_symbol(u_star[1], row[1]) for row in L]
    index, tau, xi = grid.column_mesh()
    tr = [traces(u, 4)[(slice(None),) + index] for u in u_star]
    g = [np.zeros(grid.col_shape, complex) for _ in bc]
    for gi, row in zip(g, bc):
        gi[index] = sum(op.apply_to_traces(tau, xi, t)
                        for op, t in zip(row, tr) if op is not None)
    return u_star, f, g


@pytest.mark.parametrize("grid", [HalfGrid(K=8, Nn=128), HalfGrid(K=4, n=2, N=8, Nn=64)],
                         ids=["n1", "n2"])
@pytest.mark.parametrize("pair", list(SYSTEM_PAIRS))
def test_system_recovers_manufactured_solution(grid, pair):
    """One boundary solve for any system pair: u* comes back to round-off
    in E1 x E2, and B u = g holds."""
    bc = SYSTEM_PAIRS[pair]
    u_star, f, g = _system_data(grid, bc)
    res = solve_half_chg_system(f[0], f[1], g[0], g[1], bc)
    for u, v, mu in zip(res.u, u_star, (E1_ORDER, E2_ORDER)):
        assert halfspace_norm(u - v, mu) < 1e-12 * halfspace_norm(v, mu)
    for i, gi in enumerate(g, 1):
        assert res.diagnostics[f"bdry_residual_{i}"] < 1e-12 * np.abs(gi).max()
    assert 1.0 <= res.diagnostics["max_cond"] < 1e3


def test_system_singular_pair_raises_located():
    """Two equal boundary rows: the same located error as the scalar solve."""
    bc = ((_Tr(0), None), (_Tr(0), None))
    f = random_exp_field(GRID, seed=16)
    g0 = np.zeros(GRID.col_shape, complex)
    with pytest.raises(ZeroDivisionError, match=r"Lopatinskii violation: "
                       r"singular boundary system at column k=-4, \|xi'\|=0$"):
        solve_half_chg_system(f, f, g0, g0, bc)


def test_system_takes_one_boundary_solve(monkeypatch):
    """The system runs one batched 2x2 solve and no scalar solve."""
    calls = {"solve": 0, "scalar": 0}
    real_solve = np.linalg.solve

    def solve(*args):
        calls["solve"] += 1
        return real_solve(*args)

    def scalar(*args):
        calls["scalar"] += 1
    monkeypatch.setattr(np.linalg, "solve", solve)
    monkeypatch.setattr(halfspace, "solve_half_scalar", scalar)
    f1, f2 = random_exp_field(GRID, seed=24), random_exp_field(GRID, seed=25)
    g0 = np.zeros(GRID.col_shape, complex)
    solve_half_chg_system(f1, f2, g0, g0)
    assert calls == {"solve": 1, "scalar": 0}


# ---------------------------------------------------------------------------
# the Dirichlet failure probe
# ---------------------------------------------------------------------------


def _expected_trace_partial_sum(grid):
    """Closed-form oracle: Tr_0 op[D-]^{-1}_+ f equals the datum g exactly."""
    total = 0.0
    for idx, tau, xi in grid.columns():
        gk = 1.0 / float(smooth_weight_eval(T0_MU_MINUS, tau, 0.0))
        total += (gk * float(smooth_weight_eval(T2_MU_D, tau, 0.0))) ** 2
    return np.sqrt(grid.T * total)


def test_probe_trace_norm_matches_partial_sum_oracle():
    rows = dirichlet_failure_probe([(16, 128), (32, 128)])
    for row in rows:
        grid = HalfGrid(K=row["K"], Nn=row["Nn"])
        assert row["trace_norm_T2"] == pytest.approx(
            _expected_trace_partial_sum(grid), rel=1e-8)


def test_probe_growth_and_neumann_contrast():
    rows = dirichlet_failure_probe([(16, 128), (32, 128), (64, 128)])
    tn = [r["trace_norm_T2"] for r in rows]
    assert all(a < b for a, b in zip(tn, tn[1:]))
    assert tn[-1] / tn[0] > 1.5 ** 2  # >= 1.5 per K-doubling
    nr = [r["neumann_ratio"] for r in rows]
    assert max(nr) / min(nr) <= 1.2
    cc = [r["cond_contrast"] for r in rows]
    assert all(a < b for a, b in zip(cc, cc[1:]))


def test_probe_band_limited_solvable():
    """Band-limited data lies in every trace space: finite, stable ratio."""
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
    assert np.isfinite(ratios).all() if hasattr(np, "isfinite") else True
    assert abs(ratios[1] - ratios[0]) < 1e-8 * ratios[0]


def test_borderline_datum_rates():
    """|g_k| sits exactly on the T0(mu_D-) rate and off the T2(mu_D) rate."""
    grid = HalfGrid(K=64, Nn=128)
    g = borderline_datum(grid)
    for k in (1, 8, 64):
        idx = (grid.K + k,)
        tau = k * grid.omega
        assert abs(g[idx]) * float(smooth_weight_eval(T0_MU_MINUS, tau, 0.0)) \
            == pytest.approx(1.0)
    # T2-weighted contributions grow ~ <k>^{1/4}: divergent tail
    def t2_weighted(k):
        return abs(g[(grid.K + k,)]) * float(
            smooth_weight_eval(T2_MU_D, k * grid.omega, 0.0))
    assert t2_weighted(64) / t2_weighted(1) > 1.8


# ---------------------------------------------------------------------------
# binary I/O
# ---------------------------------------------------------------------------


def test_half_field_io_round_trip(tmp_path):
    f = random_exp_field(GRID, seed=24).materialized()
    path = tmp_path / "half.bin"
    write_half_field(path, f)
    g = read_half_field(path)
    assert g.grid == f.grid
    assert g.oscillatory
    assert np.abs(g.samples - f.samples).max() < 1e-6 * np.abs(f.samples).max()


def test_half_field_io_n2(tmp_path):
    grid = HalfGrid(K=2, n=2, N=8, Nn=64)
    f = random_exp_field(grid, seed=25).materialized()
    path = tmp_path / "half2.bin"
    write_half_field(path, f)
    g = read_half_field(path)
    assert g.grid == grid
    assert np.abs(g.samples - f.samples).max() < 1e-6 * np.abs(f.samples).max()
