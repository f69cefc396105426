"""Time-periodic whole-space discretization and diagonal solvers.

Fields live on a time circle of period T crossed with a periodic spatial
box: time is kept spectral (modes k = -K..K, frequencies tau_k = 2 pi k/T),
space is sampled on a regular grid.  All operators of interest are Fourier
multipliers, hence diagonal after a spatial FFT; on band-limited data the
multiplier algebra is exact and discretization error lives entirely in the
data truncation.  The purely oscillatory projection removes the k = 0 slab,
on which the symbols below may degenerate.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .polygons import OFLike, as_diff, smooth_weight_eval
from .symbols import MatrixSymbol, SymbolFn, as_symbol


def require_integers(grid, *names) -> None:
    """ValueError naming the first of the grid's sizes that is not an integer."""
    for name in names:
        if not isinstance(value := getattr(grid, name), (int, np.integer)):
            raise ValueError(f"grid size {name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class TorusGrid:
    """Period-T time circle x n-dimensional periodic box, N samples per side."""

    T: float = 2.0 * np.pi
    K: int = 32
    n: int = 1
    N: int = 128
    Lx: float = 2.0 * np.pi * 16.0

    def __post_init__(self):
        require_integers(self, "K", "N")
        if self.K < 1:
            raise ValueError("K >= 1")
        if self.N < 2 or self.N & (self.N - 1):
            raise ValueError("N must be a power of two")
        if self.Lx <= 0 or self.T <= 0:
            raise ValueError("positive box and period")
        if self.n not in (1, 2):
            raise ValueError("spatial dimension must be 1 or 2")

    @property
    def omega(self) -> float:
        return 2.0 * np.pi / self.T

    @property
    def lam(self) -> float:
        """Smallest live |tau|: the oscillatory spectral gap 2 pi / T."""
        return self.omega

    def k_values(self) -> np.ndarray:
        return np.arange(-self.K, self.K + 1)

    def tau_values(self) -> np.ndarray:
        return self.omega * self.k_values()

    def xi_axis(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.N, d=self.Lx / self.N)

    def x_axis(self) -> np.ndarray:
        return np.arange(self.N) * (self.Lx / self.N)

    def xi_components(self) -> list[np.ndarray]:
        """Spatial frequency meshes, each broadcastable over the data shape."""
        ax = self.xi_axis()
        if self.n == 1:
            return [ax[np.newaxis, :]]
        return [ax[np.newaxis, :, np.newaxis], ax[np.newaxis, np.newaxis, :]]

    def xi_norm_mesh(self) -> np.ndarray:
        comps = self.xi_components()
        return np.sqrt(sum(np.broadcast_to(c ** 2, self.shape) for c in comps))

    def tau_mesh(self) -> np.ndarray:
        t = self.tau_values()
        return t.reshape((-1,) + (1,) * self.n)

    @property
    def shape(self) -> tuple:
        return (2 * self.K + 1,) + (self.N,) * self.n

    def to_jsonable(self):
        return {"T": self.T, "K": self.K, "n": self.n, "N": self.N, "Lx": self.Lx}


@dataclass
class Field:
    """Samples per time mode: data[k + K] is the k-th coefficient function."""

    grid: TorusGrid
    data: np.ndarray
    oscillatory: bool = False

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        if self.data.shape != self.grid.shape:
            raise ValueError(f"data shape {self.data.shape} != {self.grid.shape}")
        if self.oscillatory and np.any(self.data[self.grid.K] != 0):
            raise ValueError("oscillatory field has a nonzero k=0 slab")

    def copy(self) -> "Field":
        return Field(self.grid, self.data.copy(), self.oscillatory)

    def coefficients(self) -> np.ndarray:
        """Full (k, xi) Fourier coefficients (unitary in the box measure)."""
        axes = tuple(range(1, 1 + self.grid.n))
        return np.fft.fftn(self.data, axes=axes) / self.grid.N ** self.grid.n

    @staticmethod
    def from_coefficients(grid: TorusGrid, coeffs: np.ndarray,
                          oscillatory: bool = False) -> "Field":
        axes = tuple(range(1, 1 + grid.n))
        data = np.fft.ifftn(np.asarray(coeffs, complex) * grid.N ** grid.n,
                            axes=axes)
        return Field(grid, data, oscillatory)

    def sample_time(self, t) -> np.ndarray:
        """Evaluate the time series at physical times t (spatial samples kept)."""
        t = np.asarray(t, dtype=float)
        phases = np.exp(1j * np.multiply.outer(t, self.grid.tau_values()))
        return np.tensordot(phases, self.data, axes=(-1, 0))


def zero_field(grid: TorusGrid, oscillatory: bool = True) -> Field:
    return Field(grid, np.zeros(grid.shape, complex), oscillatory)


def mode_field(grid: TorusGrid, k: int, xi_index, amplitude=1.0) -> Field:
    """A single discrete mode e^{i(tau_k t + xi.x)}."""
    coeffs = np.zeros(grid.shape, complex)
    idx = (k + grid.K,) + (tuple(np.atleast_1d(xi_index)) if grid.n > 1
                           else (int(np.atleast_1d(xi_index)[0]),))
    coeffs[idx] = amplitude
    return Field.from_coefficients(grid, coeffs, oscillatory=(k != 0))


def random_band_limited_field(grid: TorusGrid, seed: int = 0,
                              k_width: Optional[float] = None,
                              xi_width: Optional[float] = None,
                              oscillatory: bool = True) -> Field:
    """Random smooth field whose spectrum decays below 1e-12 at the edges."""
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    k_width = k_width or max(1.0, grid.K / 6.0)
    xi_max = np.abs(grid.xi_axis()).max()
    xi_width = xi_width or xi_max / 6.0
    envelope = np.exp(-(grid.tau_mesh() / (grid.omega * k_width)) ** 2
                      - (grid.xi_norm_mesh() / xi_width) ** 2)
    coeffs = coeffs * envelope
    coeffs[np.abs(envelope) < 1e-14] = 0.0
    if oscillatory:
        coeffs[grid.K] = 0.0
    return Field.from_coefficients(grid, coeffs, oscillatory=oscillatory)


def project_oscillatory(f: Field) -> Field:
    data = f.data.copy()
    data[f.grid.K] = 0.0
    return Field(f.grid, data, oscillatory=True)


def _symbol_values(m, grid: TorusGrid, oscillatory: bool) -> np.ndarray:
    """Evaluate a symbol over the live (tau_k, xi) mesh; k=0 slab set to 0."""
    m = as_symbol(m)
    tau = grid.tau_mesh()
    if oscillatory:
        # mask tau=0 during evaluation; its slab is projected away anyway
        tau = np.where(tau == 0, grid.omega, tau)
    if m.radial:
        vals = np.asarray(m(tau, grid.xi_norm_mesh()), dtype=complex)
    else:
        vals = np.asarray(m(tau, grid.xi_components()), dtype=complex)
    vals = np.broadcast_to(vals, grid.shape).copy()
    if oscillatory:
        vals[grid.K] = 0.0
    if not np.all(np.isfinite(vals)):
        bad = np.argwhere(~np.isfinite(vals))[0]
        raise FloatingPointError(
            f"symbol not finite at k={bad[0] - grid.K}, grid index {tuple(bad[1:])}")
    return vals


def apply_multiplier(f: Field, m) -> Field:
    """op[m] f: diagonal multiplication in the discrete (k, xi) basis."""
    if not f.oscillatory:
        raise ValueError("multipliers act on purely oscillatory fields")
    vals = _symbol_values(m, f.grid, oscillatory=True)
    return Field.from_coefficients(f.grid, f.coefficients() * vals,
                                   oscillatory=True)


def norm_weighted(f: Field, mu: OFLike = 0) -> float:
    """|| op[w_mu] f ||_{L^2(G)} by discrete Plancherel with smooth weights."""
    mu = as_diff(mu)
    grid = f.grid
    tau = grid.tau_mesh()
    tau = np.where(tau == 0, grid.omega if f.oscillatory else 0.0, tau)
    w = smooth_weight_eval(mu, np.broadcast_to(tau, grid.shape),
                           grid.xi_norm_mesh())
    c = f.coefficients()
    if f.oscillatory:
        c = c.copy()
        c[grid.K] = 0.0
    total = float(np.sum(np.abs(c) ** 2 * np.asarray(w) ** 2))
    return float(np.sqrt(grid.T * grid.Lx ** grid.n * total))


def plain_l2_norm(f: Field) -> float:
    """Direct space-time quadrature of |f|^2 (trapezoid = exact for modes)."""
    grid = f.grid
    # time integral via Plancherel over modes, spatial by the sample sum
    cell = (grid.Lx / grid.N) ** grid.n
    return float(np.sqrt(grid.T * cell * np.sum(np.abs(f.data) ** 2)))


@dataclass
class SolveResult:
    u: "Field | tuple"
    diagnostics: dict = field(default_factory=dict)


def _invert_values(vals: np.ndarray, grid: TorusGrid) -> np.ndarray:
    live = np.ones(grid.shape, dtype=bool)
    live[grid.K] = False
    if np.any(vals[live] == 0):
        bad = np.argwhere(live & (vals == 0))[0]
        k = int(bad[0] - grid.K)
        raise ZeroDivisionError(
            f"singular symbol at live frequency k={k}, grid index {tuple(bad[1:])}")
    inv = np.zeros_like(vals)
    inv[live] = 1.0 / vals[live]
    return inv


def solve_whole_scalar(P, f: Field, mu: Optional[OFLike] = None,
                       nu: OFLike = 0) -> SolveResult:
    """u = op[1/P] f with the k=0 slab untouched (it must be absent)."""
    if not f.oscillatory:
        raise ValueError("whole-space solves act on oscillatory data")
    grid = f.grid
    vals = _symbol_values(P, grid, oscillatory=True)
    inv = _invert_values(vals, grid)
    u = Field.from_coefficients(grid, f.coefficients() * inv, oscillatory=True)
    diag = {"norm_f_nu": norm_weighted(f, nu)}
    if mu is not None:
        from .polygons import of_add
        diag["norm_u_mu_plus_nu"] = norm_weighted(u, of_add(mu, nu))
        diag["constant"] = (diag["norm_u_mu_plus_nu"] / diag["norm_f_nu"]
                           if diag["norm_f_nu"] > 0 else 0.0)
    return SolveResult(u=u, diagnostics=diag)


def solve_whole_system(L: MatrixSymbol, f: Sequence[Field]) -> SolveResult:
    """u = op[ad L] op[1/det L] f, frequency by frequency."""
    if len(f) != L.m:
        raise ValueError("one right-hand side per equation")
    if not all(fi.oscillatory for fi in f):
        raise ValueError("whole-space solves act on oscillatory data")
    grid = f[0].grid
    from .symbols import adjugate, det
    det_vals = _symbol_values(det(L), grid, oscillatory=True)
    inv = _invert_values(det_vals, grid)
    adj = adjugate(L)
    fc = [fi.coefficients() for fi in f]
    out = []
    for i in range(L.m):
        acc = np.zeros(grid.shape, complex)
        for j in range(L.m):
            a_ij = _symbol_values(adj.entries[i][j], grid, oscillatory=True)
            acc += a_ij * inv * fc[j]
        out.append(Field.from_coefficients(grid, acc, oscillatory=True))
    # residual of the solved system on the discrete basis
    res = 0.0
    scale = 0.0
    for i in range(L.m):
        acc = np.zeros(grid.shape, complex)
        for j in range(L.m):
            l_ij = _symbol_values(L.entries[i][j], grid, oscillatory=True)
            acc += l_ij * out[j].coefficients()
        res += float(np.sum(np.abs(acc - fc[i]) ** 2))
        scale += float(np.sum(np.abs(fc[i]) ** 2))
    diag = {"relative_residual": float(np.sqrt(res / scale)) if scale else 0.0}
    return SolveResult(u=tuple(out), diagnostics=diag)


# ---------------------------------------------------------------------------
# Binary field I/O: little-endian header {T, K, n, N, Lx}, complex64 k-major
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<diiid")


def write_field(path, f: Field) -> None:
    g = f.grid
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(g.T, g.K, g.n, g.N, g.Lx))
        fh.write(np.ascontiguousarray(f.data, dtype=np.complex64).tobytes())


def read_field(path) -> Field:
    with open(path, "rb") as fh:
        T, K, n, N, Lx = _HEADER.unpack(fh.read(_HEADER.size))
        grid = TorusGrid(T=T, K=K, n=n, N=N, Lx=Lx)
        raw = np.frombuffer(fh.read(), dtype=np.complex64)
    data = raw.reshape(grid.shape).astype(complex)
    oscillatory = bool(np.all(data[grid.K] == 0))
    return Field(grid, data, oscillatory=oscillatory)


def norm_table(f: Field, orders: Sequence[tuple[str, OFLike]]) -> list[dict]:
    """Rows {name, norm} for CSV export."""
    return [{"name": name, "norm": norm_weighted(f, mu)} for name, mu in orders]
