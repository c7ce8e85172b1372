"""Benchmark workloads: one reduced experiment grid each, keyed by a master seed.

Every workload is a single replicate of a slice of one of the paper's paired
grids.  ``ORDERINGS`` lists the sampler comparisons at the top N that the
output check requires (the first sampler's median test RMSE must be below
the second's).
"""

from __future__ import annotations

WORKLOADS = {
    # Largest ridge problems (K=5000, N up to 300) and the K^2 nonlocal pass.
    "hd-borehole": {
        "benchmark": "borehole",
        "d": 8,
        "K": 5000,
        "samplers": ["uniform", "active-subspace", "nonlocal-gradient"],
        "n_grid": [150, 300],
        "workers": 1,
    },
    # Many small cells, staged residual fits, and the only thread-pool grid.
    "checkmark3-grid": {
        "benchmark": "checkmark",
        "d": 3,
        "K": 2000,
        "samplers": [
            "uniform",
            "local-gradient",
            "nonlocal-gradient",
            {"kind": "residual", "base": "local-gradient"},
        ],
        "n_grid": [25, 50, 100, 150],
        "workers": 2,
    },
    # ReLU order: Hessians, the affine polynomial block and psi-table rejection.
    "relu-density": {
        "benchmark": "planar_wave",
        "d": 2,
        "K": 1000,
        "activation": {"s": 2},
        "samplers": [
            "uniform",
            "nonlocal-hessian",
            {"kind": "integral-density", "order_m": 1},
        ],
        "n_grid": [25, 100],
        "workers": 1,
    },
}

COMMON = {"replicates": 1, "test_size": 5000}

ORDERINGS = {
    "hd-borehole": [("nonlocal-gradient", "uniform")],
    "checkmark3-grid": [
        ("nonlocal-gradient", "uniform"),
        ("residual-local-gradient", "uniform"),
    ],
    "relu-density": [("nonlocal-hessian", "uniform")],
}

# Reduced sizes for the smoke run: same samplers and N grid, so the same
# metric names, on a grid small enough to finish in seconds.
SMOKE = {"K": 300, "test_size": 200}


def config_dict(name: str, seed: int, smoke: bool = False, **overrides) -> dict:
    """The experiment config of workload ``name`` under master seed ``seed``."""
    data = dict(WORKLOADS[name], **COMMON, master_seed=seed, output_dir="unused")
    if smoke:
        data.update(SMOKE)
    data.update(overrides)
    return data

