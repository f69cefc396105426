"""Tests for the time-periodic whole-space discretization and the system
primitives that solve whole composes."""

from fractions import Fraction as F

import numpy as np
import pytest

from maxreg import spectral
from maxreg.factorization import MU_D, chg_matrix, d_symbol
from maxreg.polygons import OrderFunction, of_add, of_const, smooth_weight_eval
from maxreg.spectral import (
    Field,
    TorusGrid,
    coefficient_norms,
    random_band_limited_coefficients,
    read_field,
    relative_residual,
    system_residual,
    system_solve,
    system_times,
    system_values,
    write_field,
)
from maxreg.symbols import MatrixSymbol, PolySymbol, SymbolFn

GRID = TorusGrid()


def _band_limited(grid, seed):
    return Field.from_coefficients(grid, random_band_limited_coefficients(grid, seed=seed))


def _rand(seed=1, grid=GRID):
    return _band_limited(grid, seed)


def _mode(k, xi_index, amplitude=1.0):
    """The single mode amplitude * e^{i(tau_k t + xi x)} on GRID."""
    coeffs = np.zeros(GRID.shape, complex)
    coeffs[k + GRID.K, xi_index] = amplitude
    return Field.from_coefficients(GRID, coeffs)


def _scalar(m, grid=GRID):
    """The entry rows of the 1x1 system (m) on the grid."""
    return system_values(MatrixSymbol(((m,),)), grid)


def _op(m, f):
    """op[m] f as solve whole applies L: the 1x1 system_times on f's coefficients."""
    c = next(system_times(_scalar(m, f.grid), [f.coefficients()]))
    return Field.from_coefficients(f.grid, c)


def _power(c):
    """|c|^2 of coefficients c, as coefficient_norms and relative_residual
    take them."""
    return np.abs(c) ** 2


def _norm(f, mu):
    return coefficient_norms(f.grid, [_power(f.coefficients())], [mu])[0][0]


def _residual(vals, u, fc):
    """||op[L] u - f|| / ||f|| of a solve on one block, the whole grid."""
    return relative_residual(system_residual(vals, u, fc)[0], [_power(c) for c in fc])


def _plain_l2_norm(f):
    """Direct space-time quadrature of |f|^2 (trapezoid = exact for modes)."""
    grid = f.grid
    # time integral via Plancherel over modes, spatial by the sample sum
    cell = (grid.Lx / grid.N) ** grid.n
    return float(np.sqrt(grid.T * cell * np.sum(np.abs(f.data) ** 2)))


def _linear(r, s):
    """mu(gamma) = r + s*gamma, the order function of the exponent (r, s)."""
    return OrderFunction(((None, F(r), F(s)),))


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
    """The solve sets the k = 0 slab to zero: data constant in time solve to 0."""
    data = np.zeros(GRID.shape, complex)
    data[GRID.K] = 1.0  # constant in time
    f = Field(GRID, data)
    u, = system_solve(_scalar(d_symbol()), [f.coefficients()], GRID)
    assert np.all(u.data == 0)


def test_project_single_mode_unchanged():
    """The solve keeps an oscillatory mode: op[1]^{-1} leaves it as it is."""
    f = _mode(k=1, xi_index=3)
    u, = system_solve(_scalar(1.0), [f.coefficients()], GRID)
    assert np.allclose(u.data, f.data)


def test_project_mean_free():
    """A random band-limited field has zero mean in time at every point."""
    f = _rand(7)
    ts = np.linspace(0, GRID.T, 64, endpoint=False)
    phases = np.exp(1j * np.multiply.outer(ts, GRID.tau_values()))
    series = np.tensordot(phases, f.data, axes=(-1, 0))
    assert np.abs(series.mean(axis=0)).max() < 1e-13


def test_multiplier_time_derivative():
    f = _mode(k=2, xi_index=0)
    itau = SymbolFn(fn=lambda t, x: 1j * t)
    g = _op(itau, f)
    assert np.allclose(g.data, 1j * 2 * GRID.omega * f.data)


def test_multiplier_composition():
    f = _rand(2)
    m1 = _weight_symbol(of_const(1))
    m2 = SymbolFn(fn=lambda t, x: 1j * t, oscillatory_only=True)
    m12 = SymbolFn(fn=lambda t, x: smooth_weight_eval(of_const(1), t, x) * 1j * t,
                   oscillatory_only=True)
    a = _op(m2, _op(m1, f))
    b = _op(m12, f)
    assert np.abs(a.data - b.data).max() / np.abs(b.data).max() < 1e-12


def test_weight_lift_identity():
    """op[w_{-mu}] op[w_mu] = id to 1e-12."""
    f = _rand(3)
    g = _op(_inv_weight_symbol(MU_D), _op(_weight_symbol(MU_D), f))
    assert np.abs(g.data - f.data).max() / np.abs(f.data).max() < 1e-12


def test_norm_zero_field():
    assert coefficient_norms(GRID, [_power(np.zeros(GRID.shape, complex))],
                             [MU_D]) == [[0.0]]


def test_norm_single_mode():
    f = _mode(k=3, xi_index=5, amplitude=2.0)
    xi = GRID.xi_axis()[5]
    w = smooth_weight_eval(MU_D, 3 * GRID.omega, abs(xi))
    expect = 2.0 * float(w) * np.sqrt(GRID.T * GRID.Lx)
    assert _norm(f, MU_D) == pytest.approx(expect, rel=1e-12)


def test_plancherel():
    f = _rand(4)
    assert abs(_norm(f, 0) - _plain_l2_norm(f)) < 1e-12 * _plain_l2_norm(f)


def test_norm_lift_exact_nu0():
    f = _rand(5)
    lifted = _op(_weight_symbol(MU_D), f)
    assert _norm(f, MU_D) == pytest.approx(_norm(lifted, 0), rel=1e-12)


def test_norm_lift_equivalence_nu1():
    # w_{mu+nu} and w_mu w_nu differ on collinear vertices; the norms agree
    # only up to fixed constants
    f = _rand(6)
    lifted = _op(_weight_symbol(MU_D), f)
    ratio = _norm(f, of_add(MU_D, 1)) / _norm(lifted, 1)
    assert 0.5 < ratio < 2.0


def test_vertex_norm_equivalence():
    """norm(mu_D) is comparable to the sum of the three vertex norms."""
    f = _rand(9)
    total, *vertex = coefficient_norms(GRID, [_power(f.coefficients())], [
        MU_D, _linear(4, 0), _linear(2, 1), _linear(0, 1)])[0]
    assert total <= sum(vertex) <= 4.0 * total


def test_solve_scalar_manufactured():
    u_star = _rand(10)
    rhs = _op(d_symbol(), u_star)
    u, = system_solve(_scalar(d_symbol()), [rhs.coefficients()], GRID)
    err = np.abs(u.data - u_star.data).max() / np.abs(u_star.data).max()
    assert err < 1e-10
    # residual identity: op[D] u = f
    back = _op(d_symbol(), u)
    assert np.abs(back.data - rhs.data).max() / np.abs(rhs.data).max() < 1e-11


def test_solve_scalar_poincare():
    f = _mode(k=4, xi_index=2)
    itau = SymbolFn(fn=lambda t, x: 1j * t, oscillatory_only=True)
    u, = system_solve(_scalar(itau), [f.coefficients()], GRID)
    assert np.allclose(u.data, f.data / (1j * 4 * GRID.omega))


def test_solve_scalar_constant_bound():
    """||u||_{mu_D} / ||f||_0 stays below the sampled 1/C_lambda = 2 sqrt 3,
    with u's coefficients from the residual's transform, as solve whole
    takes its norm tables."""
    vals = _scalar(d_symbol())
    for seed in range(5):
        fc = [_rand(20 + seed).coefficients()]
        u = system_solve(vals, fc, GRID)
        _, uc = system_residual(vals, u, fc)
        (_, norm_u), (norm_f, _) = coefficient_norms(
            GRID, [_power(uc[0]), _power(fc[0])], [0, MU_D])
        assert norm_u / norm_f <= 2.0 * np.sqrt(3.0)


def test_solve_scalar_singular_symbol():
    sing = SymbolFn(fn=lambda t, x: np.asarray(x, complex) * 0 + np.asarray(x),
                    oscillatory_only=True)  # vanishes at xi = 0, k != 0
    with pytest.raises(ZeroDivisionError):
        system_solve(_scalar(sing), [_rand(11).coefficients()], GRID)


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
        fc.append(acc)
    vals = system_values(L, GRID)
    u = system_solve(vals, fc, GRID)
    for got, want in zip(u, u_star):
        assert np.abs(got.data - want.data).max() / np.abs(want.data).max() < 1e-9
    assert _residual(vals, u, fc) < 1e-10


def test_solve_system_elementary_mode():
    L = chg_matrix()
    e = (_mode(1, 4), _mode(1, 4, amplitude=0.5))
    from maxreg.spectral import _symbol_values
    fc = []
    for i in range(2):
        acc = np.zeros(GRID.shape, complex)
        for j in range(2):
            acc += _symbol_values(L.entries[i][j], GRID) * e[j].coefficients()
        fc.append(acc)
    u = system_solve(system_values(L, GRID), fc, GRID)
    for got, want in zip(u, e):
        assert np.abs(got.data - want.data).max() < 1e-10


def test_oscillatory_closure():
    f = _rand(14)
    assert _op(_weight_symbol(of_const(1)), f).oscillatory
    assert system_solve(_scalar(d_symbol()), [f.coefficients()], GRID)[0].oscillatory


def test_oscillatory_is_read_off_the_k0_slab():
    """A field is oscillatory exactly when its k = 0 slab is zero; the
    multiplier keeps an oscillatory field so, and the solve returns one
    for any data, its k = 0 slab set to zero."""
    data = _rand(30).data.copy()
    f = Field(GRID, data)
    assert f.oscillatory
    assert _op(d_symbol(), f).oscillatory
    data[GRID.K, 3] = 1.0
    g = Field(GRID, data)
    assert not g.oscillatory
    assert system_solve(_scalar(d_symbol()), [g.coefficients()], GRID)[0].oscillatory


@pytest.mark.parametrize("m", [d_symbol(), 2.5, _weight_symbol(MU_D)])
def test_scalar_is_the_1x1_system(m):
    """A scalar symbol is the 1x1 system: op[m] is m's values times the
    coefficients, bit for bit, and the 1x1 solve inverts it to round-off."""
    c = _rand(31).coefficients()
    vals = _scalar(m)
    assert np.array_equal(next(system_times(vals, [c])), vals[0][0] * c)
    u = system_solve(vals, [c], GRID)
    assert _residual(vals, u, [c]) < 1e-12


def test_field_io_round_trip(tmp_path):
    f = _rand(15)
    path = tmp_path / "field.bin"
    write_field(path, f.grid, f.data)
    g = read_field(path)
    assert g.grid == f.grid
    assert g.oscillatory
    # storage is complex64: single-precision round-trip
    assert np.abs(g.data - f.data).max() / np.abs(f.data).max() < 1e-6


def test_field_io_n2(tmp_path):
    grid = TorusGrid(K=2, N=16, n=2)
    f = _band_limited(grid, 16)
    path = tmp_path / "field2.bin"
    write_field(path, f.grid, f.data)
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
    f = _band_limited(grid, 18)
    vals = _scalar(d_symbol(2), grid)
    u, = system_solve(vals, list(system_times(vals, [f.coefficients()])), grid)
    assert np.abs(u.data - f.data).max() / np.abs(f.data).max() < 1e-10


def test_solve_whole_system_takes_one_determinant(monkeypatch):
    """The adjugate of a 2x2 system takes its 1x1 minors as entries."""
    grid = TorusGrid(K=2, N=8, n=2)
    vals = system_values(chg_matrix(2), grid)
    fc = [_rand(seed, grid).coefficients() for seed in (20, 21)]
    calls = []
    real = spectral.det_values

    def counted(rows):  # the shape of the (..., m, m) stack the rows stand for
        calls.append(np.broadcast_shapes(*(np.shape(v) for r in rows for v in r))
                     + (len(rows), len(rows[0])))
        return real(rows)
    monkeypatch.setattr(spectral, "det_values", counted)
    u = system_solve(vals, fc, grid)
    assert calls == [grid.shape + (2, 2)]
    assert _residual(vals, u, fc) < 1e-12


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
    vals = system_values(L, grid)
    fc = list(system_times(vals, [uj.coefficients() for uj in u_star]))
    u = system_solve(vals, fc, grid)
    for got, want in zip(u, u_star):
        assert np.abs(got.data - want.data).max() < 1e-12 * np.abs(want.data).max()
    assert _residual(vals, u, fc) < 1e-14


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
    rows, other = coefficient_norms(
        f.grid, [_power(f.coefficients()), _power(g.coefficients())], [0, MU_D])
    assert rows[0] == pytest.approx(_plain_l2_norm(f))
    assert rows[1] > rows[0]
    assert other == coefficient_norms(g.grid, [_power(g.coefficients())], [0, MU_D])[0]


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


# --- blocks of time slabs ---------------------------------------------------

# partitions of the 7 modes of K = 3 (k = 0 is index 3): blocks that end and
# start at k = 0, k = 0 alone, and one slab each
_PARTITIONS = {
    "ends_at_k0": [(0, 4), (4, 7)],
    "starts_at_k0": [(0, 3), (3, 7)],
    "k0_alone": [(0, 2), (2, 3), (3, 4), (4, 7)],
    "one_slab_each": [(i, i + 1) for i in range(7)],
}
_BLOCK_GRIDS = [TorusGrid(K=3, N=16), TorusGrid(K=3, n=2, N=8)]


def _partitions():
    return [pytest.param(grid, bounds, id=f"n{grid.n}-{name}")
            for grid in _BLOCK_GRIDS for name, bounds in _PARTITIONS.items()]


@pytest.mark.parametrize("grid", [TorusGrid(K=32, n=2, N=64), TorusGrid(K=4, N=16),
                                  TorusGrid(K=2, n=2, N=256)], ids=["4", "all", "1"])
def test_slab_blocks_cover_the_modes_in_order(grid):
    """The blocks run over the modes once, in order, each of 2^14 entries
    at most unless it is one slab, and each answers as the grid does with
    its modes restricted."""
    blocks = list(grid.slab_blocks())
    assert [b.lo for b in blocks] == [0] + [b.hi for b in blocks[:-1]]
    assert blocks[-1].hi == 2 * grid.K + 1
    for b in blocks:
        assert b.hi - b.lo == 1 or np.prod(b.shape) <= 2 ** 14
        assert b.shape == (b.hi - b.lo,) + grid.shape[1:]
        np.testing.assert_array_equal(b.k_values(), grid.k_values()[b.lo:b.hi])
        np.testing.assert_array_equal(b.tau_mesh(), grid.tau_mesh()[b.lo:b.hi])
        np.testing.assert_array_equal(b.xi_norm_mesh(), grid.xi_norm_mesh())
        assert (b.K, b.omega) == (grid.K, grid.omega)


@pytest.mark.parametrize("grid, bounds", _partitions())
def test_block_draws_reassemble_the_one_shot_draw(grid, bounds):
    """Blocks drawn in order from one generator hold, bit for bit, the
    coefficients drawn at once over the grid: the live band's normals in C
    order under the envelope."""
    k_width = max(1.0, grid.K / 6.0)
    xi_width = np.abs(grid.xi_axis()).max() / 6.0
    envelope = np.broadcast_to(np.exp(-(grid.tau_mesh() / (grid.omega * k_width)) ** 2
                                      - (grid.xi_norm_mesh() / xi_width) ** 2), grid.shape)
    live = envelope >= 1e-14
    live[grid.K] = False
    rng = np.random.default_rng(8)
    band = rng.standard_normal((np.count_nonzero(live), 2)).view(complex)[:, 0]
    one_shot = np.zeros(grid.shape, complex)
    one_shot[live] = band * envelope[live]

    rng = np.random.default_rng(8)
    blocks = [random_band_limited_coefficients(grid.block(lo, hi), rng)
              for lo, hi in bounds]
    assert np.array_equal(np.concatenate(blocks), one_shot)
    assert np.array_equal(random_band_limited_coefficients(grid, 8), one_shot)


@pytest.mark.parametrize("grid, bounds", _partitions())
def test_block_solve_reassembles_the_grid_solve(grid, bounds):
    """The system primitives act on each block as on the grid: L's values,
    f, u and the residual's summands of the blocks make the grid's bit for
    bit, and so do the relative residual and the norms they give."""
    L = chg_matrix(grid.n)
    c_star = [random_band_limited_coefficients(grid, seed) for seed in (3, 4)]

    def solve(block, c):
        vals = system_values(L, block)
        fc = list(system_times(vals, c))
        u = system_solve(vals, fc, block)
        res_sq, uc = system_residual(vals, u, fc)
        return [fc, [uj.data for uj in u], res_sq, uc]

    whole = solve(grid, c_star)
    parts = [solve(grid.block(lo, hi), [c[lo:hi] for c in c_star]) for lo, hi in bounds]
    for i, arrays in enumerate(whole):
        for j, want in enumerate(arrays):
            assert np.array_equal(np.concatenate([p[i][j] for p in parts]), want)
    fc, _, res_sq, uc = whole
    assert relative_residual(res_sq, [_power(c) for c in fc]) < 1e-14
    assert coefficient_norms(grid, [_power(c) for c in uc], [0, MU_D]) == \
        coefficient_norms(grid, [_power(np.concatenate([p[3][j] for p in parts]))
                                 for j in range(2)], [0, MU_D])


def test_block_faults_name_the_grid_mode():
    """A non-finite or singular value in a block is located by the grid's
    mode k, not by its index in the block; the k = 0 slab of a block that
    holds it is not live."""
    grid = TorusGrid(K=2, N=8)
    block = grid.block(3, 5)  # k = 1, 2
    vals = np.ones(block.shape)
    vals[1, 3] = np.nan
    with pytest.raises(FloatingPointError) as err:
        spectral._require_finite(vals, block)
    assert str(err.value) == "symbol not finite at k=2, grid index (3,)"
    vals = np.ones(block.shape)
    vals[0, 5] = 0.0
    with pytest.raises(ZeroDivisionError, match="at live frequency k=1, grid index"):
        spectral._invert_values(vals, block)
    vals = np.ones((2, 8))
    vals[0] = 0.0  # the k = 0 slab of the block of k = 0, 1
    inv = spectral._invert_values(vals, grid.block(2, 4))
    assert not inv[0].any() and np.all(inv[1] == 1.0)
    # tau = 0 is evaluated at omega, and its slab is set to 0 before the
    # check: a symbol that fails at tau = omega is named at k = 1
    fails_at_omega = SymbolFn(fn=lambda t, x: np.where(t == grid.omega, np.inf, 1.0) + 0 * x)
    for where in (grid, grid.block(2, 4)):
        with pytest.raises(FloatingPointError, match=r"at k=1, grid index \(0,\)"):
            _scalar(fails_at_omega, where)


def test_field_of_a_block_is_oscillatory_unless_it_holds_k0():
    grid = TorusGrid(K=2, N=8)
    data = np.ones((2, 8))
    assert Field(grid.block(3, 5), data).oscillatory
    assert not Field(grid.block(2, 4), data).oscillatory
    data[0] = 0.0
    assert Field(grid.block(2, 4), data).oscillatory
