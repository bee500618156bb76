"""The benchmark's trace hooks still find, wrap and restore every library attribute.

``perfbench/spans.py`` wraps library functions by attribute name, so a
refactor that renames or moves one would break ``perfbench/run.py --trace 1``
without failing any library test.  The hooks are installed after a config
is loaded, so a cell that bound its sampler at load would bypass them; a
traced run of each model kind therefore has to record its samples.  The
module is compiled from its source here, without importing it as a package
or writing bytecode next to it.
"""

import types
from pathlib import Path

import pytest

from missingrobust import ScenarioConfig, run_scenario

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans() -> types.ModuleType:
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_traced_attribute_exists_and_is_restored():
    spans = load_spans()
    targets = [(owner, attr) for owner, attr, _name, _count in spans._TARGETS]
    for owner, attr in targets:
        assert attr in vars(owner), f"{owner.__name__}.{attr} is traced but no longer exists"
    before = {key: vars(key[0])[key[1]] for key in targets}
    with spans.Tracer().installed():
        for owner, attr in targets:
            assert vars(owner)[attr] is not before[owner, attr], f"{owner.__name__}.{attr} was not wrapped"
    for owner, attr in targets:
        assert vars(owner)[attr] is before[owner, attr], f"{owner.__name__}.{attr} was not restored"


@pytest.mark.parametrize(
    "model, estimator, grid",
    [
        ({"kind": "mcar"}, "observed_mean", {"n": [20], "q": [0.7]}),
        ({"kind": "realisable"}, "observed_mean", {"n": [20], "epsilon": [0.1], "q": [0.7]}),
        ({"kind": "arbitrary"}, "observed_mean", {"n": [20], "epsilon": [0.1], "q": [0.7]}),
        ({"kind": "f1_adversary", "a": 1.0}, "observed_mean", {"n": [20], "epsilon": [0.2]}),
        ({"kind": "two_point"}, "observed_mean", {"n": [20], "epsilon": [0.2], "q": [0.7]}),
        ({"kind": "regression", "theta0": [1.0, -1.0]}, "ols_observed", {"n": [20], "d": [2], "q": [0.7]}),
    ],
    ids=["mcar", "realisable", "arbitrary", "f1_adversary", "two_point", "regression"],
)
def test_traced_run_records_one_sample_span_per_replication(model, estimator, grid):
    spans = load_spans()
    raw = {"model": model, "estimators": [estimator], "grid": grid, "reps": 3, "delta": 0.1, "seed": 4}
    config = ScenarioConfig.from_dict(raw)
    with spans.Tracer().installed() as tracer:
        run_scenario(config)
    names = [s[spans.NAME] for s in tracer.spans]
    assert names.count("harness.task") == 3
    assert names.count("models.sample") == 3


@pytest.mark.parametrize(
    "model, estimator, grid, layers",
    [
        (
            {"kind": "f1_adversary", "a": 1.0},
            "min_kolmogorov",
            {"n": [200], "epsilon": [0.3], "q": [1.0]},
            ("univariate.mk", "kolmogorov.batch", "kolmogorov.dist", "kolmogorov.chain_bounds"),
        ),
        (
            {"kind": "regression", "theta0": [1.0, -1.0]},
            "ks_regression",
            {"n": [100], "d": [2], "epsilon": [0.2], "q": [0.8]},
            ("regression.fit", "kolmogorov.sym", "kolmogorov.chain_bounds"),
        ),
    ],
    ids=["min_kolmogorov", "ks_regression"],
)
def test_traced_estimator_records_its_set_distance_layers(model, estimator, grid, layers):
    # a kernel refactor that stops calling a traced entry point must fail
    # here, not silently zero a per-layer metric of the benchmark
    spans = load_spans()
    raw = {"model": model, "estimators": [estimator], "grid": grid, "reps": 1, "delta": 0.1, "seed": 4}
    config = ScenarioConfig.from_dict(raw)
    with spans.Tracer().installed() as tracer:
        run_scenario(config)
    names = [s[spans.NAME] for s in tracer.spans]
    for layer in layers:
        assert names.count(layer) > 0, f"{estimator} recorded no {layer} span"
