"""The benchmark's workloads: the jobs of one pass and the once-per-run checks.

A job spec is a dict read by job.py: ``argv`` for a CLI command or ``func``
and ``params`` for a library job, plus the check to apply.  Pass ``i`` of a
run with seed ``s`` always gets the same jobs, so two runs with one seed
make the same inputs.
"""

PROBE_KS = (16, 32, 64, 128)
PROBE_ARGV = ["probe", "--resolutions",
              ",".join(f"{k}:256" for k in PROBE_KS)]
ENSEMBLE_SAMPLES = 3
ENSEMBLE_GRID = {"K": 8, "n": 2, "N": 16, "Nn": 128}
CERT_GRID = {"n_tau": 256, "n_xi": 256}
WHOLE_GRID = "K=32,n=2,N=64"


def _grid_arg(grid):
    return ",".join(f"{k}={v}" for k, v in grid.items())


def _cli(name, argv, **check_params):
    return {"name": name, "argv": argv, "check": name,
            "check_params": check_params}


def _lib(name, seed, **params):
    return {"name": name, "func": name, "params": {"seed": seed, **params},
            "check": name}


def probe_pass(seed, i):
    return [_cli("probe", PROBE_ARGV, ks=PROBE_KS)]


def ensemble_pass(seed, i):
    # each pass draws fresh samples: the CLI seeds sample s with seed + 2s
    # and seed + 2s + 1, so passes step by twice the sample count
    pass_seed = seed * 100_000 + 2 * ENSEMBLE_SAMPLES * i
    argv = ["solve", "half", "--ensemble", str(ENSEMBLE_SAMPLES),
            "--grid", _grid_arg(ENSEMBLE_GRID), "--seed", str(pass_seed)]
    return [_cli("ensemble", argv, samples=ENSEMBLE_SAMPLES)]


def certify_pass(seed, i):
    grid = _grid_arg(CERT_GRID)
    return [
        _cli("boundary_neumann",
             ["check", "boundary", "neumann_13", "--grid", grid]),
        _cli("boundary_dirichlet",
             ["check", "boundary", "dirichlet", "--grid", grid]),
        _cli("mixed_order", ["check", "mixed-order", "chg-L", "--grid", grid]),
        _cli("ellipticity", ["check", "ellipticity", "chg-D", "--grid", grid],
             grid=CERT_GRID),
        _cli("whole", ["solve", "whole", "--grid", WHOLE_GRID,
                       "--seed", str(seed)]),
    ]


def sampled_pass(seed, i):
    return [_lib("sampled", seed)]


def no_checks(seed):
    return []


# name -> (jobs of pass i, jobs run once per run after the passes)
WORKLOADS = {
    "probe": (probe_pass, no_checks),
    "ensemble": (ensemble_pass, lambda seed: [
        _lib("chg_manufactured", seed, grid=ENSEMBLE_GRID)]),
    "certify": (certify_pass, no_checks),
    "sampled": (sampled_pass, lambda seed: [_lib("sampled_convergence", seed)]),
}
