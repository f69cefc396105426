"""Time-periodic whole-space discretization and diagonal solvers.

Fields live on a time circle of period T crossed with a periodic spatial
box: time is kept spectral (modes k = -K..K, frequencies tau_k = 2 pi k/T),
space is sampled on a regular grid.  All operators of interest are Fourier
multipliers, hence diagonal after a spatial FFT; on band-limited data the
multiplier algebra is exact and discretization error lives entirely in the
data truncation.  Oscillatory data vanish on the k = 0 slab, on which the
symbols below may degenerate; the solve sets that slab to zero.

The multipliers are diagonal in (k, xi) and the transforms act on the
spatial axes only, so each time slab can be handled alone.  A `SlabBlock`
is a grid restricted to a run of consecutive time modes; it answers as the
grid does, with its modes restricted.  The primitives below act on a grid
or a block alike: a grid is the block of all its modes.
"""

from __future__ import annotations

import math
import struct
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .polygons import OFLike, as_diff, smooth_weight_eval
from .symbols import MatrixSymbol, as_symbol, det_values


def require_integers(grid, *names) -> None:
    """ValueError naming the first of the grid's sizes that is not an integer."""
    for name in names:
        if not isinstance(value := getattr(grid, name), (int, np.integer)):
            raise ValueError(f"grid size {name} must be an integer, got {value!r}")


def require_positive_finite(grid, *names) -> None:
    """ValueError naming the first of the grid's lengths that is not a
    positive finite number."""
    for name in names:
        value = getattr(grid, name)
        if not (isinstance(value, (int, float, np.integer, np.floating))
                and 0 < value < np.inf):
            raise ValueError(f"grid {name} must be a positive finite number, got {value!r}")


def require_finite_scales(grid, dims: int) -> None:
    """ValueError naming T when the frequency 2 pi / T is not finite, or Lx
    when the volume T * Lx^dims the norms take is not finite."""
    with np.errstate(over="ignore"):
        try:  # a Python float or int power past the floats raises
            volume = float(grid.T * grid.Lx ** dims)
        except OverflowError:
            volume = math.inf
        if not np.isfinite(grid.omega):
            raise ValueError(f"grid T={grid.T!r} too small: frequency 2 pi / T not finite")
    if not math.isfinite(volume):
        raise ValueError(f"grid Lx too large: volume T * Lx^{dims} not finite")


# entries of a block of time slabs, as solve whole takes them: 4 slabs of a
# 64 x 64 mesh
_BLOCK_ENTRIES = 2 ** 14


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
        require_positive_finite(self, "T", "Lx")
        if self.n not in (1, 2):
            raise ValueError("spatial dimension must be 1 or 2")
        require_finite_scales(self, self.n)

    @property
    def omega(self) -> float:
        return 2.0 * np.pi / self.T

    def k_values(self) -> np.ndarray:
        return np.arange(-self.K, self.K + 1)

    def tau_values(self) -> np.ndarray:
        return self.omega * self.k_values()

    def xi_axis(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.N, d=self.Lx / self.N)

    def xi_components(self) -> list[np.ndarray]:
        """Spatial frequency meshes, each broadcastable over the data shape."""
        ax = self.xi_axis()
        if self.n == 1:
            return [ax[np.newaxis, :]]
        return [ax[np.newaxis, :, np.newaxis], ax[np.newaxis, np.newaxis, :]]

    def xi_norm_mesh(self) -> np.ndarray:
        """|xi| over the spatial axes, shape (1, N) or (1, N, N): it
        broadcasts over the time modes like tau_mesh() over space."""
        return np.sqrt(sum(c ** 2 for c in self.xi_components()))

    def tau_mesh(self) -> np.ndarray:
        t = self.tau_values()
        return t.reshape((-1,) + (1,) * self.n)

    @property
    def shape(self) -> tuple:
        return (2 * self.K + 1,) + (self.N,) * self.n

    def to_jsonable(self):
        return asdict(self)

    def block(self, lo: int, hi: int) -> "SlabBlock":
        """The grid restricted to its time modes k_values()[lo:hi]."""
        return SlabBlock(**asdict(self), lo=lo, hi=hi)

    def slab_blocks(self):
        """The grid's time modes in order, in blocks of _BLOCK_ENTRIES
        entries (one slab at least; the last block may be smaller)."""
        step = max(1, _BLOCK_ENTRIES // self.N ** self.n)
        modes = 2 * self.K + 1
        return (self.block(lo, min(lo + step, modes)) for lo in range(0, modes, step))


@dataclass(frozen=True, kw_only=True)
class SlabBlock(TorusGrid):
    """The time modes k_values()[lo:hi] of a grid: the block's modes, tau
    mesh and shape are restricted to them, and K, T and space are the
    grid's."""

    lo: int
    hi: int

    def k_values(self) -> np.ndarray:
        return super().k_values()[self.lo:self.hi]

    @property
    def shape(self) -> tuple:
        return (self.hi - self.lo,) + (self.N,) * self.n


@dataclass
class Field:
    """Samples per time mode of a grid or block: data[i] is the coefficient
    function of the mode k_values()[i]."""

    grid: TorusGrid
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        if self.data.shape != self.grid.shape:
            raise ValueError(f"data shape {self.data.shape} != {self.grid.shape}")

    @property
    def oscillatory(self) -> bool:
        """True when the k = 0 slab is zero (or not in the block)."""
        return not self.data[self.grid.k_values() == 0].any()

    def coefficients(self) -> np.ndarray:
        """Full (k, xi) Fourier coefficients (unitary in the box measure).
        The 1/N^n scaling, a power of two and so exact, is applied inside
        the transform rather than on a copy after it."""
        axes = tuple(range(1, 1 + self.grid.n))
        return np.fft.fftn(self.data, axes=axes, norm="forward")

    @staticmethod
    def from_coefficients(grid: TorusGrid, coeffs: np.ndarray) -> "Field":
        axes = tuple(range(1, 1 + grid.n))
        data = np.fft.ifftn(np.asarray(coeffs, complex), axes=axes,
                            norm="forward")
        return Field(grid, data)


def random_band_limited_coefficients(grid: TorusGrid, seed=0) -> np.ndarray:
    """(k, xi) coefficients of a random smooth oscillatory field: complex
    normals under a Gaussian envelope, drawn only on the live band, where
    the envelope is >= 1e-14 and k != 0, in C order, and zero elsewhere, so
    the spectrum decays below 1e-12 at the edges.  seed may be a Generator:
    a grid's blocks, drawn in order from one generator, hold the grid's
    coefficients drawn at once from a generator in the same state."""
    rng = np.random.default_rng(seed)
    k_width = max(1.0, grid.K / 6.0)
    xi_width = np.abs(grid.xi_axis()).max() / 6.0
    envelope = np.exp(-(grid.tau_mesh() / (grid.omega * k_width)) ** 2
                      - (grid.xi_norm_mesh() / xi_width) ** 2)
    live = envelope >= 1e-14
    live[grid.k_values() == 0] = False
    # one (re, im) pair of standard normals per live entry
    band = rng.standard_normal((np.count_nonzero(live), 2)).view(complex)[:, 0]
    band *= envelope[live]
    coeffs = np.zeros(grid.shape, complex)
    coeffs[live] = band
    return coeffs


def _symbol_values(m, grid: TorusGrid) -> np.ndarray:
    """A symbol on the live (tau_k, xi) mesh of a grid or block, at the
    broadcast shape of the variables it uses (a constant is 0-d); the k=0
    slab is set to 0 when the values run over the modes (oscillatory
    coefficients vanish there)."""
    m = as_symbol(m)
    # mask tau=0 during evaluation; its slab is projected away anyway
    tau = grid.tau_mesh()
    tau = np.where(tau == 0, grid.omega, tau)
    xi = grid.xi_norm_mesh() if m.radial else grid.xi_components()
    vals = np.asarray(m(tau, xi), dtype=complex)
    zero = grid.k_values() == 0
    if vals.ndim == len(grid.shape) and vals.shape[0] == zero.size and zero.any():
        vals = vals.copy()
        vals[zero] = 0.0
    _require_finite(vals, grid)
    return vals


def _require_finite(vals: np.ndarray, grid: TorusGrid) -> None:
    """Raise at the first non-finite value of vals broadcast to the mesh of
    a grid or block."""
    if not np.all(np.isfinite(vals)):
        bad = np.argwhere(~np.isfinite(np.broadcast_to(vals, grid.shape)))[0].tolist()
        raise FloatingPointError(
            f"symbol not finite at k={int(grid.k_values()[bad[0]])}, "
            f"grid index {tuple(bad[1:])}")


def coefficient_norms(grid: TorusGrid, powers: Sequence[np.ndarray],
                      mus: Sequence[OFLike]) -> list[list[float]]:
    """|| op[w_mu] f ||_{L^2(G)} for each mu, by discrete Plancherel with
    smooth weights, from |c|^2 of the (k, xi) coefficients c of f, for each
    |c|^2 in powers; each weight is evaluated once for all of them."""
    tau = grid.tau_mesh()
    xi = grid.xi_norm_mesh()
    w2 = [np.asarray(smooth_weight_eval(as_diff(mu), tau, xi)) ** 2 for mu in mus]
    volume = grid.T * grid.Lx ** grid.n
    return [[float(np.sqrt(volume * float(np.sum(power * w)))) for w in w2]
            for power in powers]


@dataclass
class SolveResult:
    u: "Field | tuple"
    diagnostics: dict = field(default_factory=dict)


def _invert_values(vals: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """1/vals on the live modes and 0 on the k=0 slab, in place of a full vals."""
    if vals.shape != grid.shape:
        vals = np.broadcast_to(vals, grid.shape).copy()
    ks = grid.k_values()
    k0 = ks == 0
    zero = vals == 0
    zero[k0] = False
    if zero.any():
        bad = np.argwhere(zero)[0]
        k = int(ks[bad[0]])
        raise ZeroDivisionError(
            f"singular symbol at live frequency k={k}, grid index {tuple(bad[1:])}")
    vals[k0] = 1.0
    np.divide(1.0, vals, out=vals)
    vals[k0] = 0.0
    return vals


def system_values(L: MatrixSymbol, grid: TorusGrid) -> tuple:
    """L's entry rows vals[i][j] on the live mesh of a grid or block, each
    at its own broadcast shape (_symbol_values) and each distinct entry
    object evaluated once."""
    return L.entry_rows(lambda e: _symbol_values(e, grid))


def system_times(vals: Sequence, coeffs: Sequence[np.ndarray]):
    """The coefficients of op[L] u from L's entry rows (system_values) and
    the coefficients of u, made row by row as they are taken."""
    def row(i):
        acc = vals[i][0] * coeffs[0]
        for j in range(1, len(coeffs)):
            acc += vals[i][j] * coeffs[j]
        return acc
    return (row(i) for i in range(len(vals)))


def _adjugate_times(vals: Sequence, coeffs: Sequence[np.ndarray]):
    """The rows of op[ad L] f, (ad L)_ij = (-1)^(i+j) det L^(ji), from L's
    entry rows, made row by row as they are taken; the minors of a 2x2
    system are its entries."""
    m = len(vals)

    def row(i):
        acc = None
        for j in range(m):
            sub = [[v for c, v in enumerate(r) if c != i]
                   for k, r in enumerate(vals) if k != j]
            minor = sub[0][0] if m == 2 else det_values(sub)
            if acc is None:
                acc = minor * coeffs[j]
                if (i + j) % 2:
                    np.negative(acc, out=acc)
            elif (i + j) % 2:
                acc -= minor * coeffs[j]
            else:
                acc += minor * coeffs[j]
        return acc
    if m == 1:
        return (coeffs[0].copy(),)
    return (row(i) for i in range(m))


def system_solve(vals: Sequence, fc: Sequence[np.ndarray],
                 grid: TorusGrid) -> tuple:
    """u = op[ad L] op[1/det L] f as fields of a grid or block, frequency by
    frequency, from L's entry rows and the coefficients of f."""
    det = det_values(vals)
    _require_finite(det, grid)
    inv = _invert_values(det, grid)
    rows = list(_adjugate_times(vals, fc))
    for row in rows:
        row *= inv
    del inv, row
    u = []
    while rows:  # each row is dropped once its field is made
        u.append(Field.from_coefficients(grid, rows.pop(0)))
    return tuple(u)


def _distance_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a - b|^2, taken in place of a."""
    a -= b
    return np.abs(a) ** 2


def system_residual(vals: Sequence, u: Sequence[Field],
                    fc: Sequence[np.ndarray]) -> tuple:
    """(the summands |op[L] u - f|^2 of each row, the coefficients of u) on
    a grid or block, from one transform of each returned u_j; one row of
    op[L] u is held at a time."""
    uc = [uj.coefficients() for uj in u]
    return [_distance_sq(a, b) for a, b in zip(system_times(vals, uc), fc)], uc


def relative_residual(residual_sq: Sequence[np.ndarray],
                      f_sq: Sequence[np.ndarray]) -> float:
    """||op[L] u - f|| / ||f|| on the discrete basis (0 when f is zero), from
    the summands of system_residual and |f|^2 over a whole grid: each array
    is summed at once, in np.sum's pairwise order, so the result does not
    depend on the blocks that filled it."""
    res = sum(float(np.sum(r)) for r in residual_sq)
    scale = sum(float(np.sum(p)) for p in f_sq)
    return float(np.sqrt(res / scale)) if scale else 0.0


# ---------------------------------------------------------------------------
# Binary field I/O: little-endian header {T, K, n, N, Lx}, complex64 k-major
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<diiid")


def write_field(path, grid: TorusGrid, samples: np.ndarray) -> None:
    """The grid's header, then its samples stored as complex64."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(grid.T, grid.K, grid.n, grid.N, grid.Lx))
        fh.write(np.ascontiguousarray(samples, dtype=np.complex64).tobytes())


def read_field(path) -> Field:
    with open(path, "rb") as fh:
        T, K, n, N, Lx = _HEADER.unpack(fh.read(_HEADER.size))
        grid = TorusGrid(T=T, K=K, n=n, N=N, Lx=Lx)
        raw = np.frombuffer(fh.read(), dtype=np.complex64)
    return Field(grid, raw.reshape(grid.shape).astype(complex))
