"""Correctness checks for the benchmark's jobs (run inside job processes).

Every check takes the job's output and returns a list of problems; an empty
list means the output is correct.  Reference values come from closed forms
computed here, apart from the package, or from properties the method must
have (boundary conditions met, second-order convergence, exit codes).

CLI outputs are ``{"exit": code, "report": parsed JSON report or None}``.
Library outputs are whatever the job's ``call()`` returned, with the job's
context alongside.
"""

import math

import numpy as np
from maxreg.symbols import GridSpec

from library import profile_values

PROBE_T = 2.0 * math.pi  # the probe's time period


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _exit(out, expected):
    if out["exit"] != expected:
        return [f"exit code {out['exit']}, expected {expected}"]
    if out["report"] is None:
        return ["no report"]
    return []


def probe_trace_norm(K):
    """||Tr_0 op[D-]^{-1}_+ f||_{T2(mu_D)} of the borderline datum in closed
    form: T2(mu_D) = (3/2) o_{1/2} and T0(mu_-) = o_{1/2} + 1/2 at xi' = 0."""
    total = 0.0
    for k in range(1, K + 1):
        q = 1.0 + (2.0 * math.pi * k / PROBE_T) ** 2
        total += 2.0 * ((1.0 + q ** 0.375) / (1.0 + 2.0 * q ** 0.25)) ** 2
    return math.sqrt(PROBE_T * total)


def check_probe(out, ctx=None, ks=None):
    problems = _exit(out, 0)
    if problems:
        return problems
    rows = out["report"]["data"]["rows"]
    if [r["K"] for r in rows] != list(ks):
        return [f"rows at K = {[r['K'] for r in rows]}, expected {list(ks)}"]
    norms = [r["trace_norm_T2"] for r in rows]
    for K, v in zip(ks, norms):
        ref = probe_trace_norm(K)
        if not _rel(v, ref) <= 1e-9:
            problems.append(f"trace_norm_T2 at K={K} is {v!r}, closed form {ref!r}")
    if not all(b > a for a, b in zip(norms, norms[1:])):
        problems.append("trace norm does not grow monotonically with K")
    if not norms[-1] >= 3.0 * norms[0]:
        problems.append(f"trace norm grows x{norms[-1] / norms[0]:.3f} < 3 "
                        f"over K = 16..128")
    neu = [r["neumann_ratio"] for r in rows]
    if not (min(neu) > 0 and max(neu) <= 1.2 * min(neu)):
        problems.append(f"neumann ratio varies beyond 1.2x: {neu}")
    contrast = [r["cond_contrast"] for r in rows]
    if not all(b > a for a, b in zip(contrast, contrast[1:])):
        problems.append(f"cond_contrast does not increase with K: {contrast}")
    return problems


def check_ensemble(out, ctx=None, samples=None):
    problems = _exit(out, 0)
    if problems:
        return problems
    ratios = out["report"]["data"]["ratios"]
    if len(ratios) != samples:
        problems.append(f"{len(ratios)} ratios for {samples} samples")
    bad = [r for r in ratios if not (isinstance(r, float) and math.isfinite(r)
                                     and r > 0)]
    if bad:
        problems.append(f"ratios not finite and positive: {bad}")
    return problems


def check_boundary_neumann(out, ctx=None):
    problems = _exit(out, 0)
    if problems:
        return problems
    data = out["report"]["data"]
    if data["lopatinskii"]["pass"] is not True:
        problems.append("neumann_13 fails the Lopatinskii check")
    if data["complementing_passed"] is not True:
        problems.append("neumann_13 fails the complementing check")
    return problems


def check_boundary_dirichlet(out, ctx=None):
    problems = _exit(out, 2)
    if problems:
        return problems
    data = out["report"]["data"]
    lop = data["lopatinskii"]
    if lop["pass"] is not True:
        problems.append("dirichlet fails the Lopatinskii check")
    for key in ("min_abs_det", "max_abs_det"):
        if not abs(lop[key] - 1.0) <= 1e-9:
            problems.append(f"dirichlet {key} = {lop[key]!r}, expected 1")
    if data["complementing_passed"] is not False:
        problems.append("dirichlet passes the complementing check")
    w = data["decay_witness"] or {}
    if w.get("ray_xi") != 0.0:
        problems.append(f"witness ray at |xi'| = {w.get('ray_xi')!r}, expected 0")
    if not abs(w.get("slope", math.inf) + 0.25) <= 0.01:
        problems.append(f"witness slope {w.get('slope')!r}, expected -1/4")
    return problems


def check_mixed_order(out, ctx=None):
    problems = _exit(out, 0)
    if problems:
        return problems
    if out["report"]["data"]["passed"] is not True:
        problems.append("chg-L fails the mixed-order check")
    return problems


def ellipticity_reference(grid):
    """min |D| / W_{mu_D} over the certification mesh of a GridSpec, with
    W_{mu_D} = 1 + |xi|^4 + |tau| |xi|^2 + |tau| (vertices of N(D))."""
    tau, xi = np.meshgrid(grid.tau_values(), grid.xi_norms(), indexing="ij")
    d = np.abs(1j * tau + xi ** 2 * (1j * tau + xi ** 2))
    w = 1.0 + xi ** 4 + np.abs(tau) * xi ** 2 + np.abs(tau)
    keep = np.abs(tau) >= grid.lam * (1 - 1e-12)
    return float((d / w)[keep].min())


def check_ellipticity(out, ctx=None, grid=None):
    problems = _exit(out, 0)
    if problems:
        return problems
    c = out["report"]["data"]["report"]["c_lower"]
    ref = ellipticity_reference(GridSpec(**grid))
    if not _rel(c, ref) <= 1e-12:
        problems.append(f"c_lower = {c!r}, recomputed {ref!r}")
    if not c >= 1.0 / (2.0 * math.sqrt(3.0)):
        problems.append(f"c_lower = {c!r} below 1/(2 sqrt 3)")
    return problems


def check_whole(out, ctx=None):
    problems = _exit(out, 0)
    if problems:
        return problems
    data = out["report"]["data"]
    for key in ("recovery_error", "relative_residual"):
        if not data[key] < 1e-9:
            problems.append(f"whole-space {key} = {data[key]!r}")
    return problems


def recovery_error(field, profiles, grid):
    """||u - u*|| / ||u*|| (l2 over the grid's samples) on the x_n grid."""
    ref = profile_values(profiles, grid)
    return float(np.linalg.norm(field.values() - ref) / np.linalg.norm(ref))


def weighted_norm_reference(profiles, grid):
    """||op[omega_{mu_D}^-]^+ u*||: each elementary factor o_y of
    mu_D = 2 o_{1/2} + 2 acts on e^{i rho x} as (<tau>^y + <xi'>) - i rho."""
    L = grid.Ln
    total = 0.0
    for idx, terms in profiles.items():
        tau = 2.0 * math.pi / grid.T * (idx[0] - grid.K)
        a_half = (1.0 + tau * tau) ** 0.25 + 1.0
        a_zero = 2.0
        amp = [(c * (a_half - 1j * rho) ** 2 * (a_zero - 1j * rho) ** 2, rho)
               for c, rho in terms]
        for c1, r1 in amp:
            for c2, r2 in amp:
                b = 1j * (r1 - r2.conjugate())
                total += (c1 * c2.conjugate() * (np.exp(b * L) - 1.0) / b).real
    return math.sqrt(grid.T * total)


def check_sampled(out, ctx):
    res, norm, tr = out
    grid, g, u_star = ctx["grid"], ctx["g"], ctx["u_star"]
    problems = []
    err = recovery_error(res.u, u_star, grid)
    if not err <= 1.5e-2:
        problems.append(f"solution error {err:.3e} against u* exceeds 1.5e-2")
    for j, gi in ((1, g[0]), (3, g[1])):
        e = float(np.abs(tr[j] - gi).max() / np.abs(gi).max())
        if not e <= 1e-12:
            problems.append(f"Tr_{j} u misses its Neumann datum by {e:.3e}")
    ref = weighted_norm_reference(u_star, grid)
    if not _rel(norm, ref) <= 3e-3:
        problems.append(f"norm {norm!r}, closed form {ref!r}")
    return problems


def check_sampled_convergence(out, ctx):
    errs = [recovery_error(r.u, u, grid)
            for r, u, grid in zip(out, ctx["u_star"], ctx["grids"])]
    if not errs[0] * 3.0 <= errs[1]:
        return [f"error {errs[1]:.3e} at Nn={ctx['grids'][1].Nn} and "
                f"{errs[0]:.3e} at Nn={ctx['grids'][0].Nn}: "
                f"falls by less than 3x"]
    return []


def check_chg_manufactured(out, ctx):
    errs = [recovery_error(u, p, ctx["grid"])
            for u, p in zip(out.u, ctx["u_star"])]
    if not max(errs) <= 1e-10:
        return [f"manufactured CHG pair recovered to {max(errs):.3e} > 1e-10"]
    return []


CHECKS = {
    "probe": check_probe,
    "ensemble": check_ensemble,
    "boundary_neumann": check_boundary_neumann,
    "boundary_dirichlet": check_boundary_dirichlet,
    "mixed_order": check_mixed_order,
    "ellipticity": check_ellipticity,
    "whole": check_whole,
    "sampled": check_sampled,
    "sampled_convergence": check_sampled_convergence,
    "chg_manufactured": check_chg_manufactured,
}
