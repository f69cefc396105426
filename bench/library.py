"""Library jobs and their manufactured inputs (run inside job processes).

Each job builds its inputs from a seed, untimed, and returns ``(call,
context)``: ``call()`` is the timed sequence of calls into the package's
public functions, and ``context`` holds what the checks need to judge its
result.  Inputs are made in closed form here, independently of the package:
a manufactured solution u* is a sum of decaying profiles c e^{i rho x_n} per
column, and every operator is applied to it through its symbol, with
xi_n -> rho.
"""

import numpy as np

# calls go through the module attributes, so that a traced job sees them
from maxreg import boundary, factorization, halfspace
from maxreg.halfspace import HalfField, HalfGrid

SAMPLED_K = 16
SAMPLED_NN = 1024
PROFILES_PER_COLUMN = 2


def live_columns(grid):
    """(index, tau, |xi'|) for every column with k != 0, built from the
    grid's parameters alone."""
    tau = 2.0 * np.pi / grid.T * np.arange(-grid.K, grid.K + 1)
    xi = np.abs(2.0 * np.pi * np.fft.fftfreq(grid.N, d=grid.Lx / grid.N))
    out = []
    for ik in range(2 * grid.K + 1):
        if ik == grid.K:
            continue
        if grid.n == 1:
            out.append(((ik,), float(tau[ik]), 0.0))
        else:
            out.extend(((ik, j), float(tau[ik]), float(xi[j]))
                       for j in range(grid.N))
    return out


def random_profiles(rng, columns, im_lo):
    """column index -> [(c, rho)] with Im rho in [im_lo, 2]."""
    out = {}
    for idx, _, _ in columns:
        out[idx] = [(complex(rng.normal(), rng.normal()),
                     complex(rng.uniform(-2.0, 2.0), rng.uniform(im_lo, 2.0)))
                    for _ in range(PROFILES_PER_COLUMN)]
    return out


def profile_values(profiles, grid):
    """Samples of sum c e^{i rho x_n} on the grid's x_n points."""
    x = np.linspace(0.0, grid.Ln, grid.Nn)
    out = np.zeros(grid.shape, complex)
    for idx, terms in profiles.items():
        for c, rho in terms:
            out[idx] += c * np.exp(1j * rho * x)
    return out


def d_symbol_at(tau, xi, rho):
    """D = i tau + |xi|^2 (i tau + |xi|^2) with |xi|^2 = |xi'|^2 + rho^2."""
    s = xi * xi + rho * rho
    return 1j * tau + s * (1j * tau + s)


def l_entry_at(i, j, tau, xi, rho):
    """Entry (i, j) of L = [[i tau, |xi|^2], [-|xi|^2 - i tau, 1]]."""
    s = xi * xi + rho * rho
    return ((1j * tau, s), (-s - 1j * tau, 1.0))[i][j]


def sampled_inputs(seed, Nn):
    """Sampled right-hand side for op[D]_+ u = f with Neumann data (Tr_1, Tr_3)
    of a manufactured u*: profiles with Im rho >= 1/2."""
    grid = HalfGrid(K=SAMPLED_K, n=1, Nn=Nn)
    cols = live_columns(grid)
    u_star = random_profiles(np.random.default_rng(seed), cols, 0.5)
    rhs = {idx: [(d_symbol_at(tau, xi, rho) * c, rho) for c, rho in u_star[idx]]
           for idx, tau, xi in cols}
    g = tuple(np.zeros(grid.col_shape, complex) for _ in range(2))
    for idx, _, _ in cols:
        for c, rho in u_star[idx]:
            g[0][idx] += c * (1j * rho)
            g[1][idx] += c * (1j * rho) ** 3
    f = HalfField(grid, profile_values(rhs, grid))
    return grid, f, g, u_star


def sampled(seed):
    """The sampled-column path: scalar Neumann solve, weighted norm, traces."""
    grid, f, g, u_star = sampled_inputs(seed, SAMPLED_NN)

    def call():
        res = halfspace.solve_half_scalar(f, g, boundary.neumann_pair_13())
        return (res, halfspace.halfspace_norm(res.u, factorization.MU_D),
                halfspace.traces(res.u, 4))

    return call, {"grid": grid, "g": g, "u_star": u_star}


def sampled_convergence(seed):
    """The same solve at SAMPLED_NN and SAMPLED_NN/2 (grid spacing doubled)."""
    inputs = [sampled_inputs(seed, n) for n in (SAMPLED_NN, SAMPLED_NN // 2)]

    def call():
        return [halfspace.solve_half_scalar(f, g, boundary.neumann_pair_13())
                for _, f, g, _ in inputs]

    return call, {"grids": [i[0] for i in inputs],
                  "u_star": [i[3] for i in inputs]}


def chg_manufactured(seed, grid):
    """solve_half_chg_system on f = L u*, g_i = Tr_1 u*_i for a manufactured
    pair u* on a HalfGrid with the given parameters."""
    grid = HalfGrid(**grid)
    cols = live_columns(grid)
    rng = np.random.default_rng(seed)
    u_star = [random_profiles(rng, cols, 0.3) for _ in range(2)]
    f_terms = [{}, {}]
    g = [np.zeros(grid.col_shape, complex) for _ in range(2)]
    for idx, tau, xi in cols:
        for i in range(2):
            f_terms[i][idx] = tuple(
                (l_entry_at(i, j, tau, xi, rho) * c, rho, 0)
                for j in range(2) for c, rho in u_star[j][idx])
            g[i][idx] = sum(c * 1j * rho for c, rho in u_star[i][idx])
    f = [HalfField(grid, np.zeros(grid.shape, complex), f_terms[i])
         for i in range(2)]

    def call():
        return halfspace.solve_half_chg_system(f[0], f[1], g[0], g[1])

    return call, {"grid": grid, "u_star": u_star}


JOBS = {"sampled": sampled, "sampled_convergence": sampled_convergence,
        "chg_manufactured": chg_manufactured}
