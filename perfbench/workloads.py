"""Workload definitions shared by perfbench/run.py and its worker.

Each workload is the config file a user would pass to `srlab sweep`;
the worker fills in the run's seed.
"""

SUBCOMMAND = "sweep"

WORKLOADS = {
    "sweep-neumann": {
        "experiment": "sweep-neumann",
        "domain": "unit_square",
        "bc": "neumann",
        "mu": 0.3,
        "level": 5,
        "lambda": {"log10_min": 0.7, "log10_max": 2.7, "count": 5, "rays": [0.0]},
    },
    "dual-dense": {
        "experiment": "dual-dense",
        "domain": "unit_square",
        "bc": "dirichlet",
        "level": 4,
        "dual": True,
        "lambda": {"log10_min": 0.0, "log10_max": 2.0, "count": 5, "rays": [1.0]},
    },
}

WHY = {
    "sweep-neumann": "Neumann L2 sweep on the implicit projector: ARPACK "
                     "mode 2, paired forward/adjoint sparse solves, real lambda",
    "dual-dense": "Dirichlet dual-norm sweep on the explicit dense basis: "
                  "dense LU, dual Gram, Cholesky-congruence eigensolve, "
                  "complex lambda",
}


def config(workload: str, seed: int) -> dict:
    """The config file content for one run of `workload` with this seed."""
    return dict(WORKLOADS[workload], seed=int(seed))


def n_samples(workload: str) -> int:
    grid = WORKLOADS[workload]["lambda"]
    return grid["count"] * len(grid["rays"])
