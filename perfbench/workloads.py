"""Scenario workloads of the benchmark.

Each workload is one ``run_scenario`` call on a fixed config, the same call
``missingrobust simulate`` makes after loading its config file.  The
benchmark seed picks one of ``SLOTS`` scenario master seeds (``seed mod
SLOTS``), so every seed maps to inputs whose seed-commit results are stored
under ``perfbench/reference`` and the correctness gate can check every run.

This module imports nothing heavy: the set-up probe times ``import
missingrobust`` after importing it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

SLOTS = 16

# (rtol, atol) on sq_error against the reference: |x - ref| <= atol + rtol * |ref|
EXACT = (1e-9, 1e-12)


@dataclass(frozen=True)
class Workload:
    """One scenario config; BENCHMARK.json gives the reason for each workload."""

    name: str
    model: dict
    estimators: tuple
    grid: dict
    reps: int
    headline: str
    workers: int | None = None
    # estimator -> (rtol, atol); estimators not listed must match to EXACT
    tolerance: dict = field(default_factory=dict)
    # the results CSV must equal the reference byte for byte
    exact_csv: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="adversary_mk",
            model={"kind": "f1_adversary", "a": 1.0, "law": "f1"},
            estimators=("observed_mean", "average_of_extremes", "min_kolmogorov"),
            grid={"n": [1000, 10000], "epsilon": [0.3], "q": [1.0], "sigma": [1.0]},
            reps=2,
            headline="min_kolmogorov",
            tolerance={"min_kolmogorov": (1e-3, 1e-7)},
        ),
        Workload(
            name="mcar_pool",
            model={"kind": "mcar", "theta0": 0.0},
            estimators=("observed_mean", "median_of_means", "trimmed_mean", "average_of_extremes"),
            grid={"n": [100, 1000, 10000], "q": [0.5]},
            reps=1000,
            headline="median_of_means",
            workers=2,
            exact_csv=True,
        ),
        Workload(
            name="regression_mnar",
            model={
                "kind": "regression",
                "theta0": [1.0, -2.0],
                "design": "intercept_gaussian",
                "mechanism2": {"name": "residual_above"},
            },
            estimators=("ks_regression", "ols_observed"),
            grid={"n": [5000], "d": [2], "epsilon": [0.4], "q": [0.8]},
            # objective evaluations per fit vary widely between samples
            reps=16,
            headline="ks_regression",
            tolerance={"ks_regression": (1e-2, 1e-6)},
        ),
        Workload(
            name="multivariate_d2",
            model={"kind": "realisable", "theta0": 0.5, "mechanism": {"name": "threshold_above", "t": 0.0}},
            estimators=("complete_case_mean", "robust_descent", "min_kolmogorov_multi"),
            grid={"n": [2000], "d": [2], "epsilon": [0.2], "q": [0.8]},
            # one rep is ~12 s and its cost follows its net size (17 to 20
            # directions), so a pass averages over two nets
            reps=2,
            headline="min_kolmogorov_multi",
            tolerance={"robust_descent": (1e-6, 1e-12), "min_kolmogorov_multi": (1e-3, 1e-7)},
        ),
    )
}


def slot_of(seed: int) -> int:
    return seed % SLOTS


def config_dict(workload: Workload, seed: int) -> dict:
    """The raw scenario config for a benchmark seed, as ``simulate`` would load it."""
    return {
        "model": workload.model,
        "estimators": list(workload.estimators),
        "grid": workload.grid,
        "reps": workload.reps,
        "delta": 0.1,
        "seed": slot_of(seed),
    }
