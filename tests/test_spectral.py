"""Tests for the time-periodic whole-space discretization and solvers."""

import numpy as np
import pytest

from maxreg import spectral
from maxreg.factorization import MU_D, chg_matrix, d_symbol
from maxreg.polygons import of_add, of_const, of_linear, smooth_weight_eval
from maxreg.spectral import (
    Field,
    TorusGrid,
    apply_multiplier,
    apply_system,
    coefficient_norms,
    mode_field,
    norm_weighted,
    plain_l2_norm,
    project_oscillatory,
    random_band_limited_coefficients,
    read_field,
    solve_whole_scalar,
    solve_whole_system,
    write_field,
    zero_field,
)
from maxreg.symbols import MatrixSymbol, PolySymbol, SymbolFn

GRID = TorusGrid()


def _band_limited(grid, seed):
    return Field.from_coefficients(grid, random_band_limited_coefficients(grid, seed=seed))


def _rand(seed=1, grid=GRID):
    return project_oscillatory(_band_limited(grid, seed))


def _weight_symbol(mu):
    return SymbolFn(fn=lambda t, x: smooth_weight_eval(mu, t, x),
                    oscillatory_only=True)


def _inv_weight_symbol(mu):
    return SymbolFn(fn=lambda t, x: 1.0 / smooth_weight_eval(mu, t, x),
                    oscillatory_only=True)


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid(N=100)  # not a power of two
    with pytest.raises(ValueError):
        TorusGrid(K=0)
    with pytest.raises(ValueError):
        TorusGrid(n=3)


@pytest.mark.parametrize("name, value", [("T", float("nan")), ("T", float("inf")),
                                         ("Lx", float("inf")), ("Lx", -1.0), ("T", "1")])
def test_grid_lengths_must_be_positive_finite(name, value):
    with pytest.raises(ValueError, match=f"grid {name} must be a positive finite number"):
        TorusGrid(**{name: value})


def test_non_finite_symbol_is_located_in_plain_integers():
    grid = TorusGrid(K=2, N=8)
    vals = np.ones(grid.shape)
    vals[0, 3] = np.nan
    with pytest.raises(FloatingPointError) as err:
        spectral._require_finite(vals, grid)
    assert str(err.value) == "symbol not finite at k=-2, grid index (3,)"


@pytest.mark.parametrize("name", ["K", "N"])
def test_grid_sizes_must_be_integers(name):
    sizes = {"K": 2, "N": 16}
    with pytest.raises(ValueError, match=f"grid size {name} must be an integer"):
        TorusGrid(**{**sizes, name: sizes[name] + 0.5})
    assert TorusGrid(**{**sizes, name: np.int64(sizes[name])}) == TorusGrid(**sizes)


def test_project_constant_in_time_to_zero():
    data = np.zeros(GRID.shape, complex)
    data[GRID.K] = 1.0  # constant in time
    f = Field(GRID, data)
    assert np.all(project_oscillatory(f).data == 0)


def test_project_single_mode_unchanged():
    f = mode_field(GRID, k=1, xi_index=3)
    g = project_oscillatory(f)
    assert np.allclose(g.data, f.data)


def test_project_mean_free():
    f = _rand(7)
    ts = np.linspace(0, GRID.T, 64, endpoint=False)
    series = f.sample_time(ts)
    assert np.abs(series.mean(axis=0)).max() < 1e-13


def test_project_idempotent():
    f = _rand(8)
    assert np.array_equal(project_oscillatory(f).data, f.data)


def test_multiplier_time_derivative():
    f = mode_field(GRID, k=2, xi_index=0)
    itau = SymbolFn(fn=lambda t, x: 1j * t)
    g = apply_multiplier(f, itau)
    assert np.allclose(g.data, 1j * 2 * GRID.omega * f.data)


def test_multiplier_composition():
    f = _rand(2)
    m1 = _weight_symbol(of_const(1))
    m2 = SymbolFn(fn=lambda t, x: 1j * t, oscillatory_only=True)
    m12 = SymbolFn(fn=lambda t, x: smooth_weight_eval(of_const(1), t, x) * 1j * t,
                   oscillatory_only=True)
    a = apply_multiplier(apply_multiplier(f, m1), m2)
    b = apply_multiplier(f, m12)
    assert np.abs(a.data - b.data).max() / np.abs(b.data).max() < 1e-12


def test_weight_lift_identity():
    """op[w_{-mu}] op[w_mu] = id to 1e-12."""
    f = _rand(3)
    g = apply_multiplier(apply_multiplier(f, _weight_symbol(MU_D)),
                         _inv_weight_symbol(MU_D))
    assert np.abs(g.data - f.data).max() / np.abs(f.data).max() < 1e-12


def test_norm_zero_field():
    assert norm_weighted(zero_field(GRID), MU_D) == 0.0


def test_norm_single_mode():
    f = mode_field(GRID, k=3, xi_index=5, amplitude=2.0)
    xi = GRID.xi_axis()[5]
    w = smooth_weight_eval(MU_D, 3 * GRID.omega, abs(xi))
    expect = 2.0 * float(w) * np.sqrt(GRID.T * GRID.Lx)
    assert norm_weighted(f, MU_D) == pytest.approx(expect, rel=1e-12)


def test_plancherel():
    f = _rand(4)
    assert abs(norm_weighted(f, 0) - plain_l2_norm(f)) < 1e-12 * plain_l2_norm(f)


def test_norm_lift_exact_nu0():
    f = _rand(5)
    lifted = apply_multiplier(f, _weight_symbol(MU_D))
    assert norm_weighted(f, MU_D) == pytest.approx(norm_weighted(lifted, 0),
                                                  rel=1e-12)


def test_norm_lift_equivalence_nu1():
    # w_{mu+nu} and w_mu w_nu differ on collinear vertices; the norms agree
    # only up to fixed constants
    f = _rand(6)
    lifted = apply_multiplier(f, _weight_symbol(MU_D))
    ratio = norm_weighted(f, of_add(MU_D, 1)) / norm_weighted(lifted, 1)
    assert 0.5 < ratio < 2.0


def test_vertex_norm_equivalence():
    """norm(mu_D) is comparable to the sum of the three vertex norms."""
    f = _rand(9)
    total = norm_weighted(f, MU_D)
    vertex_sum = (norm_weighted(f, of_linear(4, 0))
                  + norm_weighted(f, of_linear(2, 1))
                  + norm_weighted(f, of_linear(0, 1)))
    assert total <= vertex_sum <= 4.0 * total


def test_solve_scalar_manufactured():
    u_star = _rand(10)
    rhs = apply_multiplier(u_star, d_symbol())
    res = solve_whole_scalar(d_symbol(), rhs, mu=MU_D)
    err = np.abs(res.u.data - u_star.data).max() / np.abs(u_star.data).max()
    assert err < 1e-10
    # residual identity: op[D] u = f
    back = apply_multiplier(res.u, d_symbol())
    assert np.abs(back.data - rhs.data).max() / np.abs(rhs.data).max() < 1e-11


def test_solve_scalar_poincare():
    f = mode_field(GRID, k=4, xi_index=2)
    itau = SymbolFn(fn=lambda t, x: 1j * t, oscillatory_only=True)
    res = solve_whole_scalar(itau, f)
    assert np.allclose(res.u.data, f.data / (1j * 4 * GRID.omega))


def test_solve_scalar_constant_bound():
    """||u||_{mu_D} / ||f||_0 stays below the sampled 1/C_lambda = 2 sqrt 3."""
    for seed in range(5):
        f = _rand(20 + seed)
        res = solve_whole_scalar(d_symbol(), f, mu=MU_D)
        assert res.diagnostics["constant"] <= 2.0 * np.sqrt(3.0)


def test_solve_scalar_singular_symbol():
    sing = SymbolFn(fn=lambda t, x: np.asarray(x, complex) * 0 + np.asarray(x),
                    oscillatory_only=True)  # vanishes at xi = 0, k != 0
    with pytest.raises(ZeroDivisionError):
        solve_whole_scalar(sing, _rand(11))


def test_solve_system_manufactured():
    from maxreg.spectral import _symbol_values
    L = chg_matrix()
    u_star = (_rand(12), _rand(13))
    fc = []
    for i in range(2):
        acc = np.zeros(GRID.shape, complex)
        for j in range(2):
            acc += _symbol_values(L.entries[i][j], GRID) \
                * u_star[j].coefficients()
        fc.append(Field.from_coefficients(GRID, acc))
    res = solve_whole_system(L, fc)
    for got, want in zip(res.u, u_star):
        assert np.abs(got.data - want.data).max() / np.abs(want.data).max() < 1e-9
    assert res.diagnostics["relative_residual"] < 1e-10


def test_solve_system_elementary_mode():
    L = chg_matrix()
    e = (mode_field(GRID, 1, 4), mode_field(GRID, 1, 4, amplitude=0.5))
    from maxreg.spectral import _symbol_values
    fc = []
    for i in range(2):
        acc = np.zeros(GRID.shape, complex)
        for j in range(2):
            acc += _symbol_values(L.entries[i][j], GRID) * e[j].coefficients()
        fc.append(Field.from_coefficients(GRID, acc))
    res = solve_whole_system(L, fc)
    for got, want in zip(res.u, e):
        assert np.abs(got.data - want.data).max() < 1e-10


def test_oscillatory_closure():
    f = _rand(14)
    assert apply_multiplier(f, _weight_symbol(of_const(1))).oscillatory
    assert solve_whole_scalar(d_symbol(), f).u.oscillatory
    assert project_oscillatory(f).oscillatory


def test_oscillatory_is_read_off_the_k0_slab():
    """A field is oscillatory exactly when its k = 0 slab is zero; the
    multiplier and the scalar solve refuse a field that is not."""
    data = _rand(30).data.copy()
    f = Field(GRID, data)
    assert f.oscillatory
    assert apply_multiplier(f, d_symbol()).oscillatory
    data[GRID.K, 3] = 1.0
    g = Field(GRID, data)
    assert not g.oscillatory
    with pytest.raises(ValueError, match="purely oscillatory"):
        apply_multiplier(g, d_symbol())
    with pytest.raises(ValueError, match="oscillatory data"):
        solve_whole_scalar(d_symbol(), g)


@pytest.mark.parametrize("m", [d_symbol(), 2.5, _weight_symbol(MU_D)])
def test_scalar_is_the_1x1_system(m):
    """apply_multiplier and solve_whole_scalar are the 1x1 system, bit for bit."""
    f = _rand(31)
    L = MatrixSymbol(((m,),))
    assert np.array_equal(apply_multiplier(f, m).data, apply_system(L, (f,))[0].data)
    res = solve_whole_scalar(m, f, mu=MU_D)
    assert np.array_equal(res.u.data, solve_whole_system(L, (f,)).u[0].data)
    assert res.diagnostics["relative_residual"] < 1e-12


def test_field_io_round_trip(tmp_path):
    f = _rand(15)
    path = tmp_path / "field.bin"
    write_field(path, f)
    g = read_field(path)
    assert g.grid == f.grid
    assert g.oscillatory
    # storage is complex64: single-precision round-trip
    assert np.abs(g.data - f.data).max() / np.abs(f.data).max() < 1e-6


def test_field_io_n2(tmp_path):
    grid = TorusGrid(K=2, N=16, n=2)
    f = project_oscillatory(_band_limited(grid, 16))
    path = tmp_path / "field2.bin"
    write_field(path, f)
    g = read_field(path)
    assert g.grid == grid
    assert np.abs(g.data - f.data).max() / np.abs(f.data).max() < 1e-6


def test_band_limited_spectrum_decays():
    f = _band_limited(GRID, 17)
    c = np.abs(f.coefficients())
    nyquist = c[:, GRID.N // 2]
    assert nyquist.max() < 1e-12 * c.max()
    edge_k = np.concatenate([c[0].ravel(), c[-1].ravel()])
    assert edge_k.max() < 1e-12 * c.max()


def test_n2_solver():
    grid = TorusGrid(K=4, N=32, n=2)
    f = project_oscillatory(_band_limited(grid, 18))
    res = solve_whole_scalar(d_symbol(2), apply_multiplier(f, d_symbol(2)))
    assert np.abs(res.u.data - f.data).max() / np.abs(f.data).max() < 1e-10


def test_solve_whole_system_takes_one_determinant(monkeypatch):
    """The adjugate of a 2x2 system takes its 1x1 minors as entries."""
    grid = TorusGrid(K=2, N=8, n=2)
    L = chg_matrix(2)
    f = tuple(_rand(seed, grid) for seed in (20, 21))
    calls = []
    real = spectral.det_values

    def counted(rows):  # the shape of the (..., m, m) stack the rows stand for
        calls.append(np.broadcast_shapes(*(np.shape(v) for r in rows for v in r))
                     + (len(rows), len(rows[0])))
        return real(rows)
    monkeypatch.setattr(spectral, "det_values", counted)
    res = solve_whole_system(L, f)
    assert calls == [grid.shape + (2, 2)]
    assert res.diagnostics["relative_residual"] < 1e-12


@pytest.mark.parametrize("m", [1, 3])
def test_solve_whole_system_of_any_size(m):
    """The adjugate rows come from the minors of the one evaluation of L:
    the entry itself for m = 1, 2x2 minors for m = 3."""
    grid = TorusGrid(K=2, N=8, n=2)

    def entry(i, j):
        if i == j:  # i tau + |xi|^2 + 1: invertible on the live modes
            return PolySymbol(2, True, ((1j, 1, 0), (1.0, 0, 2), (1.0, 0, 0)))
        return PolySymbol(2, True, ((0.1 * (i - j), 0, 0),))
    L = MatrixSymbol(tuple(tuple(entry(i, j) for j in range(m))
                           for i in range(m)))
    u_star = tuple(_rand(30 + i, grid) for i in range(m))
    res = solve_whole_system(L, apply_system(L, u_star))
    for got, want in zip(res.u, u_star):
        assert np.abs(got.data - want.data).max() < 1e-12 * np.abs(want.data).max()
    assert res.diagnostics["relative_residual"] < 1e-14


def test_xi_norm_mesh_broadcasts_over_time():
    for grid in (TorusGrid(K=2, N=8), TorusGrid(K=2, N=8, n=2)):
        xi = grid.xi_norm_mesh()
        assert xi.shape == (1,) + grid.shape[1:]
        comps = np.broadcast_arrays(*grid.xi_components())
        np.testing.assert_array_equal(
            xi[0], np.sqrt(sum(c[0] ** 2 for c in comps)))


def test_norm_table():
    """The norms of several coefficient arrays share one weight table; each
    array's row equals its norms taken alone."""
    f, g = _rand(19), _rand(20)
    rows, other = coefficient_norms(f.grid, [f.coefficients(), g.coefficients()],
                                    [0, MU_D])
    assert rows[0] == pytest.approx(norm_weighted(f, 0))
    assert rows[1] > rows[0]
    assert other == coefficient_norms(g.grid, [g.coefficients()], [0, MU_D])[0]


@pytest.mark.parametrize("grid", [TorusGrid(K=4, N=32), TorusGrid(K=3, N=16, n=2)],
                         ids=["n1", "n2"])
def test_band_limited_coefficients(grid):
    """Normals only on the live band, in C order (one real and imaginary
    pair per entry): zero on the k = 0 slab and wherever the envelope is
    below 1e-14; a seed gives one array, the next seed another."""
    c = random_band_limited_coefficients(grid, seed=5)
    assert c.shape == grid.shape and c.dtype == complex
    k_width = max(1.0, grid.K / 6.0)
    xi_width = np.abs(grid.xi_axis()).max() / 6.0
    envelope = np.exp(-(grid.tau_mesh() / (grid.omega * k_width)) ** 2
                      - (grid.xi_norm_mesh() / xi_width) ** 2)
    envelope = np.broadcast_to(envelope, grid.shape)
    assert not c[grid.K].any()
    assert not c[envelope < 1e-14].any()
    live = envelope >= 1e-14
    live[grid.K] = False
    z = np.random.default_rng(5).standard_normal((np.count_nonzero(live), 2))
    np.testing.assert_array_equal(c[live], (z[:, 0] + 1j * z[:, 1]) * envelope[live])
    np.testing.assert_array_equal(c, random_band_limited_coefficients(grid, seed=5))
    assert not np.array_equal(c, random_band_limited_coefficients(grid, seed=6))
    assert Field.from_coefficients(grid, c).oscillatory
