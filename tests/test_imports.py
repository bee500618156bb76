"""What the package loads: numpy and the standard library, and scipy only where a draw or estimator uses it.

``import missingrobust``, building a config and the CLI's ``report`` load no
scipy module and no ``multiprocessing``.  The samplers and base CDFs import
``scipy.special`` (``ndtr``/``ndtri``) on their first call; ``ks_regression``
(Nelder-Mead) and ``min_kolmogorov_multi`` at d >= 2 (the net's convex hull
and the Chebyshev LP) are the only users of ``scipy.optimize`` and
``scipy.spatial``; and only a pooled ``run_scenario`` imports the process
pool.  A pooled run loads the scipy modules it needs before it forks, so its
workers inherit them.  Each check runs in a fresh interpreter, because this
test process has loaded all of them already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import missingrobust
from missingrobust import ScenarioConfig, run_scenario, write_records_csv

DEFERRED = ("scipy.optimize", "scipy.spatial")
# what no package import, config build or report needs, submodules included
HEAVY = ("scipy", "multiprocessing")


def run_fresh(code: str):
    """Run ``code`` in a fresh interpreter and read the JSON of its last printed line."""
    src = str(Path(missingrobust.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"import json, sys\n{code}"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(code: str, modules=DEFERRED) -> list[str]:
    """The modules of ``modules`` that a fresh interpreter holds after running ``code``."""
    return run_fresh(f"{code}\nprint(json.dumps([m for m in {tuple(modules)!r} if m in sys.modules]))")


def heavy_after(code: str) -> list[str]:
    """Every module of the HEAVY packages that a fresh interpreter holds after running ``code``."""
    return run_fresh(f"{code}\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in {HEAVY!r})))")


def scenario(model: dict, estimators: list, grid: dict) -> str:
    """Source that builds ``cfg``, a two-rep ScenarioConfig."""
    raw = {"model": model, "estimators": estimators, "grid": grid, "reps": 2, "delta": 0.1, "seed": 3}
    return f"from missingrobust import ScenarioConfig, run_scenario\ncfg = ScenarioConfig.from_dict({raw!r})\n"


MCAR_POOL = scenario(
    {"kind": "mcar", "theta0": 0.0},
    ["observed_mean", "median_of_means", "trimmed_mean", "average_of_extremes"],
    {"n": [40]},
)
REGRESSION = scenario(
    {"kind": "regression", "theta0": [1.0, -2.0]},
    ["ks_regression", "ols_observed"],
    {"n": [60], "d": [2], "epsilon": [0.2], "q": [0.8]},
)
MULTIVARIATE = scenario(
    {"kind": "realisable", "theta0": 0.5, "mechanism": {"name": "threshold_above", "t": 0.0}},
    ["complete_case_mean", "robust_descent", "min_kolmogorov_multi"],
    {"n": [60], "d": [2], "epsilon": [0.2], "q": [0.8]},
)


@pytest.mark.parametrize("module", ["missingrobust", "missingrobust.cli"])
def test_importing_the_package_loads_neither(module):
    # neither any scipy module nor multiprocessing
    assert heavy_after(f"import {module}") == []


def test_building_a_config_of_every_model_kind_loads_no_scipy():
    univariate, cell = ["observed_mean"], {"n": [40], "epsilon": [0.2], "q": [0.8]}
    configs = {
        "mcar": ({"kind": "mcar"}, univariate, {"n": [40]}),
        "realisable": ({"kind": "realisable", "mechanism": {"name": "threshold_above", "t": 0.0}}, univariate, cell),
        "arbitrary": ({"kind": "arbitrary", "contaminant": {"name": "point", "value": 3.0}}, univariate, cell),
        "f1_adversary": ({"kind": "f1_adversary", "a": 1.0}, univariate, cell),
        "two_point": ({"kind": "two_point"}, univariate, cell),
        "regression": ({"kind": "regression", "theta0": [1.0, -2.0]}, ["ols_observed"], {**cell, "d": [2]}),
    }
    assert tuple(configs) == missingrobust.harness._MODEL_KINDS
    assert heavy_after("".join(scenario(*config) for config in configs.values())) == []


def test_a_cli_report_loads_no_scipy(tmp_path):
    results, table = tmp_path / "results.csv", tmp_path / "table.csv"
    raw = {"model": {"kind": "mcar"}, "estimators": ["observed_mean"], "grid": {"n": [20, 40]}}
    write_records_csv(run_scenario(ScenarioConfig.from_dict({**raw, "reps": 3, "delta": 0.1, "seed": 3})), results)
    argv = ["report", "--in", str(results), "--out", str(table)]
    assert heavy_after(f"from missingrobust.cli import main\nassert main({argv!r}) == 0") == []
    assert len(table.read_text().splitlines()) == 3  # the header and one row per n


@pytest.mark.parametrize(
    "draw",
    [
        "from missingrobust import Stream\nStream(0).normals(3)",
        "from missingrobust import Gaussian\nGaussian.univariate(0.0, 1.0).cdf(0.5)",
    ],
    ids=["normals", "cdf"],
)
def test_one_draw_loads_scipy_special(draw):
    assert loaded_after(draw, ("scipy.special",)) == ["scipy.special"]


def test_serial_runs_of_the_other_estimators_load_neither():
    adversary = scenario(
        {"kind": "f1_adversary", "a": 1.0, "law": "f1"},
        ["observed_mean", "average_of_extremes", "min_kolmogorov"],
        {"n": [200], "epsilon": [0.3]},
    )
    multivariate = scenario(
        {"kind": "realisable", "theta0": 0.5, "mechanism": {"name": "threshold_above", "t": 0.0}},
        ["complete_case_mean", "robust_descent"],
        {"n": [60], "d": [2], "epsilon": [0.2], "q": [0.8]},
    )
    regression = scenario(
        {"kind": "regression", "theta0": [1.0, -2.0]}, ["ols_observed"], {"n": [60], "d": [2], "q": [0.8]}
    )
    runs = "".join(f"{code}assert run_scenario(cfg)\n" for code in (MCAR_POOL, adversary, multivariate, regression))
    assert loaded_after(runs, (*DEFERRED, "multiprocessing")) == []


def test_one_regression_fit_loads_scipy_optimize():
    code = """
import numpy as np
from missingrobust import ExtendedArray, ks_regression_estimate
X = np.column_stack([np.ones(30), np.linspace(-1.0, 1.0, 30)])
Z = ExtendedArray((X @ np.array([1.0, -2.0]))[:, None], np.ones((30, 1), dtype=bool))
ks_regression_estimate(X, Z, 1.0, 0.1, 0.9)
"""
    assert "scipy.optimize" in loaded_after(code)


def test_one_d2_multivariate_mk_call_loads_both():
    code = """
import numpy as np
from missingrobust import ExtendedArray, multivariate_mk
X = np.random.default_rng(0).normal(size=(60, 2))
multivariate_mk(ExtendedArray(X, np.ones_like(X, dtype=bool)), 0.1, 1.0, np.eye(2), seed=0)
"""
    assert loaded_after(code) == list(DEFERRED)


@pytest.mark.parametrize(
    "config, needs",
    [(MCAR_POOL, []), (REGRESSION, ["scipy.optimize"]), (MULTIVARIATE, list(DEFERRED))],
    ids=["mcar_pool", "ks_regression", "min_kolmogorov_multi"],
)
def test_a_pooled_run_loads_what_its_estimators_need_before_the_pool_is_built(config, needs):
    code = f"""
import concurrent.futures
at_build = []

class RecordingPool:
    \"\"\"Runs ``map`` in process and records the deferred modules loaded when it is built.\"\"\"

    def __init__(self, max_workers):
        at_build.append([m for m in {("scipy.special", *DEFERRED)!r} if m in sys.modules])

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)

concurrent.futures.ProcessPoolExecutor = RecordingPool
{config}assert run_scenario(cfg, workers=2) == run_scenario(cfg)
print(json.dumps(at_build[0]))
"""
    at_build = run_fresh(code)
    # every sampler but TwoPoint draws through scipy.special, so every pooled run loads it
    assert "scipy.special" in at_build
    # importing scipy.optimize loads scipy.spatial too, so a run may hold more than it needs
    assert set(needs) <= set(at_build)
    if not needs:
        assert at_build == ["scipy.special"]
