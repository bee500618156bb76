"""Monte Carlo scenario runner, quantile summaries, and CSV plumbing.

A scenario config names one data model, a list of estimators, and a grid of
(n, d, epsilon, q, sigma) cells.  Every cell x replication gets the child
seed ``child_seed(master, cell_index, rep)``; the sample it generates is
shared by all estimators of that replication, and estimator j's own
randomness (partitions, nets, restarts) is seeded
``child_seed(rep_seed, 100 + j)``.  Failures of an estimator on a
particular sample are recorded as NA rows instead of aborting the run.

``runtime_ms`` is emitted as NA: wall-clock readings differ between serial
and worker-pool runs, which would break byte-identical output.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import (
    _NUMERIC_ERRORS,
    ConfigError,
    DomainError,
    EstimationError,
    SizeError,
)
from .extended import ContaminationParams, ExtendedArray, PatternDistribution, as_univariate
from .models import (
    AdversaryLaw,
    Constant,
    ContaminationSpec,
    Custom,
    Gaussian,
    TailsOnly,
    ThresholdAbove,
    ThresholdBelow,
    adversary_two_point,
    all_star_contaminant,
    point_contaminant,
    sample_regression,
)
from .multivariate import iterative_robust_descent, multivariate_mk, robust_descent
from .regression import ks_regression_estimate
from .rng import Stream, child_seed
from .univariate import (
    average_of_extremes,
    median_of_means,
    mk_estimate,
    observed_mean,
    trimmed_mean,
)

__all__ = [
    "ScenarioConfig",
    "ResultRecord",
    "ESTIMATORS",
    "run_scenario",
    "empirical_quantile",
    "rate_table",
    "write_records_csv",
    "read_records_csv",
    "write_table_csv",
    "generate_datasets",
    "run_estimator",
]

CSV_HEADER = "scenario,estimator,n,d,epsilon,q,sigma,rep,seed,sq_error,runtime_ms"

_CONFIG_KEYS = {"model", "estimators", "grid", "reps", "delta", "seed"}
_GRID_KEYS = ("n", "d", "epsilon", "q", "sigma")
_GRID_DEFAULTS = {"d": [1], "epsilon": [0.0], "q": [1.0], "sigma": [1.0]}

_UNIVARIATE = ("observed_mean", "average_of_extremes", "median_of_means", "trimmed_mean", "min_kolmogorov")
_MULTIVARIATE = ("complete_case_mean", "robust_descent", "iterative_robust_descent", "min_kolmogorov_multi")
_REGRESSION = ("ks_regression", "ols_observed")
ESTIMATORS = _UNIVARIATE + _MULTIVARIATE + _REGRESSION

_VECTOR_KINDS = ("mcar", "realisable", "arbitrary")
_MODEL_KINDS = _VECTOR_KINDS + ("f1_adversary", "two_point", "regression")


@dataclass(frozen=True)
class EstimatorContext:
    epsilon: float
    q: float
    sigma: float
    delta: float
    d: int
    seed: int


@dataclass(frozen=True)
class ResultRecord:
    scenario: str
    estimator: str
    n: int
    d: int
    epsilon: float
    q: float
    sigma: float
    rep: int
    seed: int
    sq_error: float | None
    runtime_ms: float | None = None

    def sort_key(self):
        return (
            self.scenario,
            self.estimator,
            self.n,
            self.d,
            self.epsilon,
            self.q,
            self.sigma,
            self.rep,
        )


# ---------------------------------------------------------------------------
# estimator registry


def _obs_values(sample: ExtendedArray) -> np.ndarray:
    vals, obs = as_univariate(sample)
    return vals[obs]


def _mom_blocks(delta: float) -> int:
    return max(1, math.ceil(math.log(2.0 / delta)))


def _complete_rows(sample: ExtendedArray) -> np.ndarray:
    full = sample.fully_observed()
    if not full.any():
        raise EstimationError("no fully observed rows")
    return sample.values[full]


def _est_observed_mean(sample, ctx):
    return np.array([observed_mean(sample).value])


def _est_average_of_extremes(sample, ctx):
    return np.array([average_of_extremes(sample).value])


def _est_median_of_means(sample, ctx):
    return np.array([median_of_means(_obs_values(sample), _mom_blocks(ctx.delta), ctx.seed).value])


def _est_trimmed_mean(sample, ctx):
    return np.array([trimmed_mean(_obs_values(sample), ctx.epsilon, ctx.delta, ctx.seed).value])


def _est_min_kolmogorov(sample, ctx):
    return np.array([mk_estimate(sample, ctx.epsilon, ctx.q, ctx.sigma).value])


def _est_complete_case_mean(sample, ctx):
    return _complete_rows(sample).mean(axis=0)


def _est_robust_descent(sample, ctx):
    return robust_descent(_complete_rows(sample), ctx.epsilon, ctx.delta, ctx.seed)


def _est_iterative_robust_descent(sample, ctx):
    return iterative_robust_descent(sample, ctx.epsilon, ctx.delta, seed=ctx.seed)


def _est_min_kolmogorov_multi(sample, ctx):
    Sigma = ctx.sigma**2 * np.eye(ctx.d)
    return multivariate_mk(sample, ctx.epsilon, ctx.q, Sigma, ctx.seed)


def _est_ks_regression(data, ctx):
    X, Z = data
    return ks_regression_estimate(X, Z, ctx.sigma, ctx.epsilon, ctx.q, ctx.seed).theta


def _est_ols_observed(data, ctx):
    X, Z = data
    vals, obs = as_univariate(Z)
    if not obs.any():
        raise EstimationError("no observed responses")
    return np.linalg.lstsq(X[obs], vals[obs], rcond=None)[0]


_REGISTRY = {
    "observed_mean": _est_observed_mean,
    "average_of_extremes": _est_average_of_extremes,
    "median_of_means": _est_median_of_means,
    "trimmed_mean": _est_trimmed_mean,
    "min_kolmogorov": _est_min_kolmogorov,
    "complete_case_mean": _est_complete_case_mean,
    "robust_descent": _est_robust_descent,
    "iterative_robust_descent": _est_iterative_robust_descent,
    "min_kolmogorov_multi": _est_min_kolmogorov_multi,
    "ks_regression": _est_ks_regression,
    "ols_observed": _est_ols_observed,
}


def run_estimator(name: str, data, ctx: EstimatorContext) -> np.ndarray:
    """Run one registered estimator; raises ConfigError for unknown names."""
    if name not in _REGISTRY:
        raise ConfigError(f"unknown estimator {name!r}; known: {', '.join(ESTIMATORS)}")
    return np.atleast_1d(np.asarray(_REGISTRY[name](data, ctx), dtype=float))


# ---------------------------------------------------------------------------
# scenario config


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _is_int(x) -> bool:
    # JSON true/false load as bool, which subclasses int
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_finite(x) -> bool:
    return _is_number(x) and math.isfinite(x)


def _is_finite_list(x) -> bool:
    return isinstance(x, list) and all(_is_finite(v) for v in x)


def _model_value(section: dict, path: str, default, ok, want: str):
    """The entry of ``section`` named by the last part of the dotted ``path``.

    Falls back to ``default`` when the entry is absent and raises a
    ``ConfigError`` naming ``path`` when ``ok`` rejects the value.
    """
    value = section.get(path.rsplit(".", 1)[-1], default)
    _require(ok(value), f"{path} must be {want}, got {value!r}")
    return value


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description; construct from a dict or JSON file."""

    model: dict
    estimators: tuple
    grid: dict
    reps: int
    delta: float
    seed: int

    @staticmethod
    def from_dict(raw: dict) -> "ScenarioConfig":
        _require(isinstance(raw, dict), "config must be a JSON object")
        unknown = set(raw) - _CONFIG_KEYS
        _require(not unknown, f"unknown config keys: {sorted(unknown)}")
        missing = _CONFIG_KEYS - set(raw)
        _require(not missing, f"missing config keys: {sorted(missing)}")

        model = raw["model"]
        _require(isinstance(model, dict) and "kind" in model, "model must be an object with a 'kind'")
        _require(
            model["kind"] in _MODEL_KINDS,
            f"unknown model kind {model['kind']!r}; known: {', '.join(_MODEL_KINDS)}",
        )

        grid_raw = raw["grid"]
        _require(isinstance(grid_raw, dict), "grid must be an object")
        unknown = set(grid_raw) - set(_GRID_KEYS)
        _require(not unknown, f"unknown grid keys: {sorted(unknown)}")
        _require("n" in grid_raw, "grid must list n")
        grid = {}
        for key in _GRID_KEYS:
            vals = grid_raw.get(key, _GRID_DEFAULTS.get(key))
            _require(isinstance(vals, list) and len(vals) > 0, f"grid.{key} must be a nonempty list")
            grid[key] = list(vals)
        for nn in grid["n"]:
            _require(_is_int(nn) and nn >= 1, f"grid.n entries must be ints >= 1, got {nn!r}")
        for dd in grid["d"]:
            _require(_is_int(dd) and dd >= 1, f"grid.d entries must be ints >= 1, got {dd!r}")
        for e in grid["epsilon"]:
            _require(_is_number(e) and 0.0 <= e < 1.0, f"grid.epsilon entries must be numbers in [0, 1), got {e!r}")
        for qq in grid["q"]:
            _require(_is_number(qq) and 0.0 < qq <= 1.0, f"grid.q entries must be numbers in (0, 1], got {qq!r}")
        for s in grid["sigma"]:
            _require(_is_number(s) and s > 0.0, f"grid.sigma entries must be positive numbers, got {s!r}")

        estimators = raw["estimators"]
        _require(
            isinstance(estimators, list) and estimators and all(isinstance(e, str) for e in estimators),
            "estimators must be a nonempty list of names",
        )
        reps = raw["reps"]
        _require(_is_int(reps) and reps >= 1, f"reps must be an int >= 1, got {reps!r}")
        delta = raw["delta"]
        _require(_is_number(delta) and 0.0 < delta <= 1.0, f"delta must be a number in (0, 1], got {delta!r}")
        seed = raw["seed"]
        _require(_is_int(seed), f"seed must be an int, got {seed!r}")

        cfg = ScenarioConfig(model, tuple(estimators), grid, reps, float(delta), seed)
        cfg._validate_compatibility()
        for cell in cfg.cells():
            _CellModel(model, *cell)
        return cfg

    @staticmethod
    def from_json(path) -> "ScenarioConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config {path} is not valid JSON: {e}") from e
        return ScenarioConfig.from_dict(raw)

    def _validate_compatibility(self) -> None:
        kind = self.model["kind"]
        ds = self.grid["d"]
        for name in self.estimators:
            _require(name in _REGISTRY, f"unknown estimator {name!r}; known: {', '.join(ESTIMATORS)}")
            if name in _REGRESSION:
                _require(
                    kind == "regression",
                    f"estimator {name!r} is incompatible with model kind {kind!r}",
                )
            elif name in _UNIVARIATE:
                _require(
                    kind != "regression",
                    f"estimator {name!r} is incompatible with model kind {kind!r}",
                )
                _require(
                    all(d == 1 for d in ds),
                    f"estimator {name!r} is univariate but grid.d = {ds}",
                )
            else:
                _require(
                    kind in _VECTOR_KINDS,
                    f"estimator {name!r} is incompatible with model kind {kind!r}",
                )
                if name == "min_kolmogorov_multi" and any(d > 1 for d in ds):
                    _require(
                        kind != "mcar" or self.model.get("pattern", "independent") == "all_or_nothing",
                        "estimator 'min_kolmogorov_multi' needs all-or-nothing missingness for d > 1 "
                        f"but model kind {kind!r} uses per-coordinate patterns",
                    )
        if kind == "regression":
            _require(
                all(e in _REGRESSION for e in self.estimators),
                "regression models accept only regression estimators",
            )
        if kind == "mcar":
            _require(
                all(e == 0.0 for e in self.grid["epsilon"]),
                "mcar model requires grid.epsilon == [0.0]",
            )
        if kind in ("f1_adversary", "two_point"):
            _require(all(d == 1 for d in ds), f"model kind {kind!r} is univariate but grid.d = {ds}")
            _require(
                all(e > 0.0 for e in self.grid["epsilon"]),
                f"model kind {kind!r} needs epsilon > 0",
            )
        if kind == "f1_adversary":
            _require("a" in self.model, "f1_adversary model needs key 'a'")
        if kind == "regression":
            _require("theta0" in self.model, "regression model needs key 'theta0' (a list)")
            th = self.model["theta0"]
            _require(isinstance(th, list) and len(th) >= 1, "regression theta0 must be a list")
            _require(
                all(d == len(th) for d in ds),
                f"regression grid.d = {ds} must equal len(theta0) = {len(th)}",
            )

    def cells(self) -> list[tuple]:
        g = self.grid
        return list(product(g["n"], g["d"], g["epsilon"], g["q"], g["sigma"]))


# ---------------------------------------------------------------------------
# model construction per grid cell


def _probability(x) -> bool:
    return _is_number(x) and 0.0 <= x <= 1.0


def _build_mechanism(mdict) -> object:
    _require(isinstance(mdict, dict) and "name" in mdict, "mechanism must be an object with a 'name'")
    name = mdict["name"]
    if name == "constant":
        return Constant(float(_model_value(mdict, "model.mechanism.c", 1.0, _probability, "a number in [0, 1]")))

    def threshold(default: float) -> float:
        return float(_model_value(mdict, "model.mechanism.t", default, _is_finite, "a finite number"))

    if name == "threshold_above":
        return ThresholdAbove(threshold(0.0))
    if name == "threshold_below":
        return ThresholdBelow(threshold(0.0))
    if name == "tails_only":
        return TailsOnly(threshold(1.0))
    if name == "custom":
        knots = _model_value(
            mdict,
            "model.mechanism.knots",
            None,
            lambda v: _is_finite_list(v) and all(a < b for a, b in zip(v, v[1:])),
            "a strictly increasing list of finite numbers",
        )
        levels = _model_value(
            mdict,
            "model.mechanism.levels",
            None,
            lambda v: _is_finite_list(v) and len(v) == len(knots) + 1,
            f"a list of {len(knots) + 1} finite numbers (one more than knots)",
        )
        return Custom(np.asarray(knots, dtype=float), np.asarray(levels, dtype=float))
    raise ConfigError(f"unknown mechanism {name!r}")


def _build_contaminant(cdict, d: int) -> object:
    _require(isinstance(cdict, dict) and "name" in cdict, "contaminant must be an object with a 'name'")
    name = cdict["name"]
    if name == "all_star":
        return all_star_contaminant(d)
    if name == "point":
        value = _model_value(
            cdict,
            "model.contaminant.value",
            0.0,
            lambda v: _is_finite(v) or (_is_finite_list(v) and len(v) in (1, d)),
            f"a finite number or a list of {d} finite numbers",
        )
        return point_contaminant(np.broadcast_to(np.asarray(value, dtype=float), (d,)))
    raise ConfigError(f"unknown contaminant {name!r}")


class _CellModel:
    """Sampler + target for one grid cell of one scenario.

    Every model key is read through ``_model_value``, so a bad value is a
    ``ConfigError`` naming its key; ``ScenarioConfig.from_dict`` builds each
    cell once to surface these at load time.
    """

    def __init__(self, model: dict, n: int, d: int, epsilon: float, q: float, sigma: float):
        self.kind = model["kind"]
        self.n, self.d = n, d
        self.epsilon, self.q, self.sigma = epsilon, q, sigma
        kind = self.kind

        if kind in _VECTOR_KINDS:
            center = float(_model_value(model, "model.theta0", 0.0, _is_finite, "a finite number"))
            base = (
                Gaussian.univariate(center, sigma)
                if d == 1
                else Gaussian(np.full(d, center), sigma**2 * np.eye(d))
            )
            pattern_name = _model_value(
                model,
                "model.pattern",
                "independent",
                lambda v: v in ("independent", "all_or_nothing"),
                "'independent' or 'all_or_nothing'",
            )
            if kind == "mcar":
                pi = (
                    PatternDistribution.all_or_nothing(d, q)
                    if pattern_name == "all_or_nothing"
                    else PatternDistribution.independent(d, q)
                )
                self.spec = ContaminationSpec("mcar", base, ContaminationParams(0.0, pi))
            elif kind == "realisable":
                mech = _build_mechanism(model.get("mechanism", {"name": "constant", "c": 1.0}))
                self.spec = ContaminationSpec(
                    "realisable", base, ContaminationParams(epsilon, q), mechanism=mech
                )
            else:
                cont = _build_contaminant(model.get("contaminant", {"name": "all_star"}), d)
                pi = PatternDistribution.independent(d, q)
                self.spec = ContaminationSpec(
                    "arbitrary", base, ContaminationParams(epsilon, pi), contaminant=cont
                )
            self.theta0 = np.atleast_1d(np.asarray(base.mean(), dtype=float))
            self.label = self.spec.label()
        elif kind == "f1_adversary":
            law = AdversaryLaw(
                _model_value(model, "model.law", "f1", lambda v: v in ("f1", "f2"), "'f1' or 'f2'"),
                float(_model_value(model, "model.a", None, lambda v: _is_finite(v) and v > 0, "a positive number")),
                sigma,
                epsilon,
                q,
            )
            self.law = law
            self.theta0 = np.atleast_1d(np.asarray(law.base.mean(), dtype=float))
            self.label = f"f1_adversary:{law.name}"
        elif kind == "two_point":
            r = _model_value(model, "model.r", 2.0, lambda v: _is_finite(v) and v >= 2.0, "a number >= 2")
            pair = adversary_two_point(float(r), sigma, epsilon, q)
            which = _model_value(model, "model.which", 1, lambda v: _is_int(v) and v in (1, 2), "1 or 2")
            self.pair, self.which = pair, which
            self.theta0 = np.array([pair.theta1 if which == 1 else pair.theta2])
            self.label = f"two_point:{which}"
        else:
            theta0 = _model_value(model, "model.theta0", None, _is_finite_list, "a list of finite numbers")
            self.theta0 = np.asarray(theta0, dtype=float)
            self.design = _model_value(
                model,
                "model.design",
                "intercept_gaussian",
                lambda v: v in ("gaussian", "intercept_gaussian"),
                "'gaussian' or 'intercept_gaussian'",
            )
            m2 = model.get("mechanism2", {"name": "constant", "c": 1.0})
            _require(isinstance(m2, dict) and "name" in m2, "mechanism2 must be an object with a 'name'")
            if m2["name"] == "constant":
                c = float(_model_value(m2, "model.mechanism2.c", 1.0, _probability, "a number in [0, 1]"))
                self.mechanism2 = lambda X, y: c
            elif m2["name"] == "residual_above":
                th = self.theta0
                self.mechanism2 = lambda X, y: (y >= X @ th).astype(float)
            else:
                raise ConfigError(f"unknown mechanism2 {m2['name']!r}")
            self.label = f"regression:{self.design}"

    def sample(self, seed: int):
        if self.kind in _VECTOR_KINDS:
            return self.spec.sample(self.n, seed)
        if self.kind == "f1_adversary":
            return self.law.sample(self.n, seed)
        if self.kind == "two_point":
            return self.pair.sample(self.n, seed, self.which)
        # design rows on role 5, response channel on the seed's own roles
        g = Stream(child_seed(seed, 5)).normals(self.n * self.d).reshape(self.n, self.d)
        X = g if self.design == "gaussian" else np.column_stack([np.ones(self.n), g[:, 1:]])
        Z = sample_regression(X, self.theta0, self.sigma, self.epsilon, self.q, self.mechanism2, seed)
        return (X, Z)


# ---------------------------------------------------------------------------
# scenario execution


def _run_task(config: ScenarioConfig, cell_idx: int, rep: int) -> list[ResultRecord]:
    n, d, epsilon, q, sigma = config.cells()[cell_idx]
    model = _CellModel(config.model, n, d, epsilon, q, sigma)
    rep_seed = child_seed(config.seed, cell_idx, rep)
    data = model.sample(rep_seed)
    records = []
    for j, name in enumerate(config.estimators):
        ctx = EstimatorContext(epsilon, q, sigma, config.delta, d, child_seed(rep_seed, 100 + j))
        try:
            est = run_estimator(name, data, ctx)
            sq = float(np.sum((est - model.theta0) ** 2))
        except _NUMERIC_ERRORS:
            sq = None
        records.append(
            ResultRecord(model.label, name, n, d, epsilon, q, sigma, rep, rep_seed, sq)
        )
    return records


def run_scenario(config: ScenarioConfig, workers: int | None = None) -> list[ResultRecord]:
    """All grid cells x reps x estimators, deterministically ordered.

    ``workers`` > 1 fans replications out to a process pool; the merged
    output is sorted on the full record key, so worker count never changes
    the result.
    """
    tasks = [(ci, rep) for ci in range(len(config.cells())) for rep in range(config.reps)]
    if workers is not None and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_task, [config] * len(tasks), *zip(*tasks)))
    else:
        chunks = [_run_task(config, ci, rep) for ci, rep in tasks]
    records = [rec for chunk in chunks for rec in chunk]
    records.sort(key=ResultRecord.sort_key)
    return records


def generate_datasets(config: ScenarioConfig, out_dir) -> list[str]:
    """Dump every cell x rep sample as a TAB dataset; returns the paths.

    Regression samples are dumped with d+1 columns: the fully observed
    design first, the extended response last.
    """
    import os

    from .models import write_dataset

    paths = []
    for ci, (n, d, epsilon, q, sigma) in enumerate(config.cells()):
        model = _CellModel(config.model, n, d, epsilon, q, sigma)
        for rep in range(config.reps):
            rep_seed = child_seed(config.seed, ci, rep)
            data = model.sample(rep_seed)
            if isinstance(data, tuple):
                X, Z = data
                values = np.column_stack([X, Z.values[:, 0]])
                observed = np.column_stack([np.ones(X.shape, dtype=bool), Z.observed[:, 0]])
                data = ExtendedArray(values, observed)
            name = f"{model.label.replace(':', '_')}_c{ci:03d}_r{rep:03d}.tsv"
            path = os.path.join(out_dir, name)
            write_dataset(path, data, model.label, rep_seed)
            paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# summaries


def empirical_quantile(errors, delta: float) -> float:
    """Smallest error with empirical coverage at least 1 - delta."""
    v = np.sort(np.asarray(errors, dtype=float).reshape(-1))
    if len(v) == 0:
        raise SizeError("no errors to summarise")
    if not 0.0 < delta <= 1.0:
        raise DomainError(f"delta must lie in (0, 1], got {delta}")
    rank = max(1, math.ceil((1.0 - delta) * len(v)))
    return float(v[rank - 1])


_GROUP_COLS = ("scenario", "estimator", "d", "epsilon", "q", "sigma")


def rate_table(records, group_by=_GROUP_COLS, delta: float = 0.1) -> list[dict]:
    """Per-cell quantiles and log-log slope of quantile against n.

    One output row per (group, n) holding the empirical (1 - delta)
    quantile of sq_error; the group's slope (least squares of log quantile
    on log n) is repeated on each of its rows and None when fewer than two
    n values carry a finite positive quantile.
    """
    groups: dict[tuple, dict[int, list[float]]] = {}
    for rec in records:
        key = tuple(getattr(rec, col) for col in group_by)
        cell = groups.setdefault(key, {})
        cell.setdefault(rec.n, [])
        if rec.sq_error is not None:
            cell[rec.n].append(rec.sq_error)

    rows = []
    for key in sorted(groups):
        cell = groups[key]
        quants = {
            n: (empirical_quantile(errs, delta) if errs else None) for n, errs in sorted(cell.items())
        }
        pts = [(math.log(n), math.log(qv)) for n, qv in quants.items() if qv is not None and qv > 0]
        if len(pts) >= 2:
            lx, ly = np.array([p[0] for p in pts]), np.array([p[1] for p in pts])
            slope = float(np.polyfit(lx, ly, 1)[0])
        else:
            slope = None
        for n, qv in quants.items():
            row = dict(zip(group_by, key))
            row.update({"n": n, "quantile": qv, "slope": slope})
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# CSV io


def _fmt(x) -> str:
    if x is None:
        return "NA"
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def write_records_csv(records, path) -> None:
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            fh.write(
                ",".join(
                    _fmt(v)
                    for v in (
                        r.scenario,
                        r.estimator,
                        r.n,
                        r.d,
                        r.epsilon,
                        r.q,
                        r.sigma,
                        r.rep,
                        r.seed,
                        r.sq_error,
                        r.runtime_ms,
                    )
                )
                + "\n"
            )


def read_records_csv(path) -> list[ResultRecord]:
    records = []
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise ConfigError(f"{path}: unexpected header {header!r}")
        for line in fh:
            parts = line.rstrip("\n").split(",")
            if len(parts) != 11:
                raise ConfigError(f"{path}: malformed row {line!r}")
            records.append(
                ResultRecord(
                    scenario=parts[0],
                    estimator=parts[1],
                    n=int(parts[2]),
                    d=int(parts[3]),
                    epsilon=float(parts[4]),
                    q=float(parts[5]),
                    sigma=float(parts[6]),
                    rep=int(parts[7]),
                    seed=int(parts[8]),
                    sq_error=None if parts[9] == "NA" else float(parts[9]),
                    runtime_ms=None if parts[10] == "NA" else float(parts[10]),
                )
            )
    return records


def write_table_csv(rows, path, group_by=_GROUP_COLS) -> None:
    cols = tuple(group_by) + ("n", "quantile", "slope")
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in cols) + "\n")
