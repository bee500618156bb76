"""Monte Carlo scenario runner, quantile summaries, and CSV plumbing.

A scenario config names one data model, a list of estimators, and a grid of
(n, d, epsilon, q, sigma) cells.  Loading a config builds each cell's model
once, checking the rules of its model kind there, and keeps it: a built
model holds no random state, so it serves every replication, serial or in a
pool worker.  Every model kind samples one ``ExtendedArray``; a regression
sample holds the fully observed design columns and then the response, the
layout its dumps keep and its estimators split.  Every cell x replication
gets the child seed ``child_seed(master, cell_index, rep)``; the sample it
generates is shared by all estimators of that replication, and estimator
j's own randomness (partitions, nets, restarts) is seeded
``child_seed(rep_seed, 100 + j)``.  Failures of an estimator on a
particular sample are recorded as NA rows instead of aborting the run.

``runtime_ms`` is emitted as NA: wall-clock readings differ between serial
and worker-pool runs, which would break byte-identical output.
"""

from __future__ import annotations

import importlib
import json
import math
import os
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import product
from operator import attrgetter

import numpy as np

from .errors import (
    _NUMERIC_ERRORS,
    ConfigError,
    DomainError,
    EstimationError,
    SizeError,
    _is_int,
    _is_number,
    check_param,
)
from .extended import ExtendedArray, PatternDistribution
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
    write_dataset,
)
from .multivariate import (
    _NET_MAX_D,
    multivariate_mk,
    robust_descent,
)
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

_CONFIG_KEYS = {"model", "estimators", "grid", "reps", "delta", "seed"}
_GRID_KEYS = ("n", "d", "epsilon", "q", "sigma")
_GRID_DEFAULTS = {"d": [1], "epsilon": [0.0], "q": [1.0], "sigma": [1.0]}
# size caps: a cell draws its n x d sample whole (min_kolmogorov's scan then
# holds 128 x n doubles, 1 GB at the cap), and simulate builds its task list,
# one entry per cell and rep, before the first task runs
_MAX_N = 10**6
_MAX_D = 64
_MAX_REPS = 10**5

_UNIVARIATE = ("observed_mean", "average_of_extremes", "median_of_means", "trimmed_mean", "min_kolmogorov")
_MULTIVARIATE = ("complete_case_mean", "robust_descent", "min_kolmogorov_multi")
_REGRESSION = ("ks_regression", "ols_observed")
ESTIMATORS = _UNIVARIATE + _MULTIVARIATE + _REGRESSION
# modules an estimator imports on its first call, not at package import; a
# pooled run loads them before it forks, so its workers inherit them
_DEFERRED_IMPORTS = {
    "min_kolmogorov_multi": ("scipy.optimize", "scipy.spatial"),
    "ks_regression": ("scipy.optimize",),
}

_VECTOR_KINDS = ("mcar", "realisable", "arbitrary")


@dataclass(frozen=True)
class EstimatorContext:
    epsilon: float
    q: float
    sigma: float
    delta: float
    seed: int


@dataclass(frozen=True)
class ResultRecord:
    """One row of the results CSV; the field order is the column order."""

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

    def sort_key(self) -> tuple:
        """The columns up to ``rep``, which identify a record within a run."""
        return _KEY_COLUMNS(self)


_COLUMNS = tuple(f.name for f in fields(ResultRecord))
CSV_HEADER = ",".join(_COLUMNS)
_ROW = attrgetter(*_COLUMNS)
_KEY_COLUMNS = attrgetter(*_COLUMNS[: _COLUMNS.index("rep") + 1])


# ---------------------------------------------------------------------------
# estimator registry


def _obs_values(sample: ExtendedArray) -> np.ndarray:
    vals, obs = sample.univariate()
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


def _est_min_kolmogorov_multi(sample, ctx):
    Sigma = ctx.sigma**2 * np.eye(sample.d)
    return multivariate_mk(sample, ctx.epsilon, ctx.q, Sigma, ctx.seed)


def _design_and_response(sample: ExtendedArray) -> tuple[np.ndarray, ExtendedArray]:
    """Split a regression sample into its design columns and its response, the last column."""
    _require(sample.d >= 2, f"regression data needs >= 2 columns, got {sample.d}")
    _require(sample.observed[:, :-1].all(), "design columns must be fully observed")
    return sample.values[:, :-1], ExtendedArray(sample.values[:, -1:], sample.observed[:, -1:])


def _est_ks_regression(sample, ctx):
    X, Z = _design_and_response(sample)
    return ks_regression_estimate(X, Z, ctx.sigma, ctx.epsilon, ctx.q, ctx.seed).theta


def _est_ols_observed(sample, ctx):
    X, Z = _design_and_response(sample)
    vals, obs = Z.univariate()
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
    "min_kolmogorov_multi": _est_min_kolmogorov_multi,
    "ks_regression": _est_ks_regression,
    "ols_observed": _est_ols_observed,
}


def run_estimator(name: str, sample: ExtendedArray, ctx: EstimatorContext) -> np.ndarray:
    """Run one registered estimator; raises ConfigError for unknown names.

    A regression estimator reads the sample's last column as the response
    and the others as the design, which must be fully observed.
    """
    if name not in _REGISTRY:
        raise ConfigError(f"unknown estimator {name!r}; known: {', '.join(ESTIMATORS)}")
    return np.atleast_1d(np.asarray(_REGISTRY[name](sample, ctx), dtype=float))


# ---------------------------------------------------------------------------
# scenario config


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _is_finite(x) -> bool:
    return _is_number(x) and math.isfinite(x)


def _is_finite_list(x) -> bool:
    return isinstance(x, list) and all(_is_finite(v) for v in x)


def _check_range(key: str, value, where: str) -> None:
    """The library's ``check_param``, with a ``ConfigError`` naming ``where``, a config key or CLI flag."""
    try:
        check_param(key, value)
    except DomainError as e:
        raise ConfigError(f"{where}: {e}") from None


def _probability(x) -> bool:
    return _is_number(x) and 0.0 <= x <= 1.0


def _one_of(*choices) -> tuple:
    """The test and the words of a key that takes one of ``choices``."""
    return (lambda v: v in choices), " or ".join(map(repr, choices))


# Key tables: each branch of a model section maps the keys it reads, in the
# order it reads them, to (default, test, what the test wants); a None
# default makes the key required.  A key whose test is a key table is a
# nested section, its branch picked by its 'name'.  Checks that tie a value
# to another value or to the grid cell are left to the build.
_FINITE = (_is_finite, "a finite number")
_MECHANISMS = {
    "constant": {"c": (1.0, _probability, "a number in [0, 1]")},
    "threshold_above": {"t": (0.0, *_FINITE)},
    "threshold_below": {"t": (0.0, *_FINITE)},
    "tails_only": {"t": (1.0, *_FINITE)},
    "custom": {
        "knots": (
            None,
            lambda v: _is_finite_list(v) and all(a < b for a, b in zip(v, v[1:])),
            "a strictly increasing list of finite numbers",
        ),
        "levels": (None, lambda v: isinstance(v, list) and all(map(_probability, v)), "a list of numbers in [0, 1]"),
    },
}
_CONTAMINANTS = {
    "all_star": {},
    "point": {
        "value": (0.0, lambda v: _is_finite(v) or _is_finite_list(v), "a finite number or a list of finite numbers")
    },
}
_KINDS = {
    "mcar": {"theta0": (0.0, *_FINITE), "pattern": ("independent", *_one_of("independent", "all_or_nothing"))},
    "realisable": {"theta0": (0.0, *_FINITE), "mechanism": ({"name": "constant"}, _MECHANISMS, None)},
    "arbitrary": {"theta0": (0.0, *_FINITE), "contaminant": ({"name": "all_star"}, _CONTAMINANTS, None)},
    "f1_adversary": {
        "law": ("f1", *_one_of("f1", "f2")),
        "a": (None, lambda v: _is_finite(v) and v > 0, "a positive number"),
    },
    "two_point": {
        "r": (2.0, lambda v: _is_finite(v) and v >= 2.0, "a number >= 2"),
        "which": (1, lambda v: _is_int(v) and v in (1, 2), "1 or 2"),
    },
    "regression": {
        "theta0": (None, _is_finite_list, "a list of finite numbers"),
        "design": ("intercept_gaussian", *_one_of("gaussian", "intercept_gaussian")),
        "mechanism2": ({"name": "constant"}, {"constant": _MECHANISMS["constant"], "residual_above": {}}, None),
    },
}
_MODEL_KINDS = tuple(_KINDS)
# the reveal mechanism of each name that reads one number
_SCALAR_MECHANISMS = dict(
    constant=Constant, threshold_above=ThresholdAbove, threshold_below=ThresholdBelow, tails_only=TailsOnly
)


def _read_section(section, path: str, tag: str, branches: dict) -> tuple[str, dict]:
    """The branch of config section ``path`` that its ``tag`` picks from ``branches``, and its values.

    The values map each key of the branch's key table to the key's value or
    default; a nested section's value is its own (branch, values) pair.
    Unknown keys are refused before any value is read, and every refusal is
    a ``ConfigError`` naming the dotted key.
    """
    _require(isinstance(section, dict), f"{path} must be an object with a {tag!r}")
    _require(tag in section, f"{path} needs key {tag!r} ({path}.{tag} must be a string)")
    name = section[tag]
    _require(isinstance(name, str), f"{path}.{tag} must be a string, got {name!r}")
    noun = "model kind" if tag == "kind" else path.rsplit(".", 1)[1]
    _require(name in branches, f"unknown {noun} {name!r}; known: {', '.join(branches)}")
    keys = branches[name]
    unknown = [f"{path}.{k}" for k in section if k != tag and k not in keys]
    _require(
        not unknown,
        f"{path} {tag} {name!r} takes no key {', '.join(unknown)} (it reads {', '.join([tag, *keys])})",
    )
    values = {}
    for key, (default, test, want) in keys.items():
        _require(key in section or default is not None, f"{path} needs key {key!r} ({path}.{key} must be {want})")
        value = section.get(key, default)
        if isinstance(test, dict):
            values[key] = _read_section(value, f"{path}.{key}", "name", test)
        else:
            _require(test(value), f"{path}.{key} must be {want}, got {value!r}")
            values[key] = value
    return name, values


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description; construct from a dict or JSON file.

    Construction derives ``cells``, the grid points (n, d, epsilon, q,
    sigma) in product order, and ``cell_models``, the model built for each
    of them, then checks the estimators against them.
    """

    model: dict
    estimators: tuple
    grid: dict
    reps: int
    delta: float
    seed: int
    cells: tuple = field(init=False)
    cell_models: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cells = tuple(product(*(self.grid[key] for key in _GRID_KEYS)))
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "cell_models", tuple(_CellModel(self.model, *cell) for cell in cells))
        self._validate_compatibility()

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
        for key, cap in (("n", _MAX_N), ("d", _MAX_D)):
            for v in grid[key]:
                _require(_is_int(v) and 1 <= v <= cap, f"grid.{key} entries must be ints >= 1 and <= {cap}, got {v!r}")
        for key in ("epsilon", "q", "sigma"):
            for v in grid[key]:
                _check_range(key, v, f"grid.{key} entries")
        for key, vals in grid.items():
            _require(len(set(vals)) == len(vals), f"grid.{key} must not repeat a value, got {vals}")

        estimators = raw["estimators"]
        _require(
            isinstance(estimators, list) and estimators and all(isinstance(e, str) for e in estimators),
            "estimators must be a nonempty list of names",
        )
        _require(len(set(estimators)) == len(estimators), f"estimators must not repeat a name, got {estimators}")
        reps = raw["reps"]
        _require(_is_int(reps) and 1 <= reps <= _MAX_REPS, f"reps must be an int >= 1 and <= {_MAX_REPS}, got {reps!r}")
        delta = raw["delta"]
        _check_range("delta", delta, "delta")
        seed = raw["seed"]
        _require(_is_int(seed), f"seed must be an int, got {seed!r}")

        return ScenarioConfig(model, tuple(estimators), grid, reps, float(delta), seed)

    @staticmethod
    def from_json(path) -> "ScenarioConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config {path} is not valid JSON: {e}") from e
        except UnicodeDecodeError as e:
            raise ConfigError(f"config {path} is not text: {e}") from e
        except ValueError as e:  # an integer literal past the int-string conversion limit
            raise ConfigError(f"config {path} has a number JSON cannot read: {e}") from e
        return ScenarioConfig.from_dict(raw)

    def _validate_compatibility(self) -> None:
        """Estimator rules; each model kind's own rules are checked where its cells are built."""
        kind = self.model["kind"]
        ds = self.grid["d"]
        for name in self.estimators:
            _require(name in _REGISTRY, f"unknown estimator {name!r}; known: {', '.join(ESTIMATORS)}")
            if name in _MULTIVARIATE:
                compatible = kind in _VECTOR_KINDS
            else:  # a regression estimator needs a regression model, a univariate one any other kind
                compatible = (kind == "regression") == (name in _REGRESSION)
            _require(compatible, f"estimator {name!r} is incompatible with model kind {kind!r}")
            if name in _UNIVARIATE:
                _require(all(d == 1 for d in ds), f"estimator {name!r} is univariate but grid.d = {ds}")
            if name == "min_kolmogorov_multi" and any(d > 1 for d in ds):
                # arbitrary cells mask each coordinate, leaving rows partly observed at q < 1
                per_coordinate = (
                    kind == "mcar" and self.model.get("pattern", _KINDS["mcar"]["pattern"][0]) != "all_or_nothing"
                ) or (kind == "arbitrary" and min(self.grid["q"]) < 1.0)
                _require(
                    not per_coordinate,
                    "estimator 'min_kolmogorov_multi' needs all-or-nothing missingness for d > 1 "
                    f"but model kind {kind!r} uses per-coordinate patterns",
                )
                _require(
                    max(ds) <= _NET_MAX_D,
                    f"grid.d = {max(ds)} is too large for estimator 'min_kolmogorov_multi': "
                    f"its quarter net is capped at d = {_NET_MAX_D}",
                )


# ---------------------------------------------------------------------------
# model construction per grid cell


def _independent_pattern(d: int, q: float) -> PatternDistribution:
    try:
        return PatternDistribution.independent(d, q)
    except SizeError as e:
        raise ConfigError(f"grid.d = {d} is too large for per-coordinate missingness: {e}") from None


def _residual_above(theta0: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Response-MNAR reveal: 1 where the response lies on or above the regression line."""
    return (y >= X @ theta0).astype(float)


class _CellModel:
    """Sampler + target for one grid cell of one scenario.

    A non-regression cell draws from ``source``, the ``ContaminationSpec``
    or ``AdversaryLaw`` it built; ``sample`` looks its samplers up at each
    call, so a wrapper set on their class after load sees every draw.  Each
    branch sets ``label``, the ``scenario`` value of the cell's records.

    The model section is read once against the key tables (``_read_section``);
    each branch then checks only what ties one value to another or to the
    grid cell, so a bad config is a ``ConfigError`` naming its key.
    ``ScenarioConfig.from_dict`` builds each cell once and keeps it; a built
    cell holds no random state and pickles, so it serves every replication
    in any process.
    """

    def __init__(self, model: dict, n: int, d: int, epsilon: float, q: float, sigma: float):
        kind, v = _read_section(model, "model", "kind", _KINDS)
        self.kind, self.n, self.d = kind, n, d
        self.epsilon, self.q, self.sigma = epsilon, q, sigma

        if kind in _VECTOR_KINDS:
            base = Gaussian(np.full(d, float(v["theta0"])), sigma**2 * np.eye(d))
            if kind == "mcar":
                _require(epsilon == 0.0, f"mcar model requires grid.epsilon == [0.0], got {epsilon}")
                all_or_nothing = v["pattern"] == "all_or_nothing"
                pi = PatternDistribution.all_or_nothing(d, q) if all_or_nothing else _independent_pattern(d, q)
                self.source = ContaminationSpec("mcar", base, 0.0, pi)
                self.label = "mcar:gaussian"
            elif kind == "realisable":
                name, m = v["mechanism"]
                if name == "custom":
                    levels = m["levels"]
                    _require(
                        len(levels) == len(m["knots"]) + 1,
                        f"model.mechanism.levels must have one more entry than knots, got {levels!r}",
                    )
                    mech = Custom(m["knots"], levels)
                else:
                    mech = _SCALAR_MECHANISMS[name](*map(float, m.values()))
                self.source = ContaminationSpec("realisable", base, epsilon, q, mechanism=mech)
                self.label = f"realisable:gaussian:{name}"
            else:
                name, c = v["contaminant"]
                if name == "all_star":
                    cont = all_star_contaminant(d)
                else:
                    value = c["value"]
                    _require(
                        _is_finite(value) or len(value) in (1, d),
                        f"model.contaminant.value must be a finite number or a list of {d} finite numbers, "
                        f"got {value!r}",
                    )
                    cont = point_contaminant(np.broadcast_to(np.asarray(value, dtype=float), (d,)))
                pi = _independent_pattern(d, q)
                self.source = ContaminationSpec("arbitrary", base, epsilon, pi, contaminant=cont)
                self.label = "arbitrary:gaussian:atoms"
            self.theta0 = np.atleast_1d(np.asarray(base.mean(), dtype=float))
        elif kind in ("f1_adversary", "two_point"):
            _require(d == 1, f"model kind {kind!r} is univariate but grid.d = {d}")
            _require(epsilon > 0.0, f"model kind {kind!r} needs epsilon > 0, got {epsilon}")
            if kind == "f1_adversary":
                self.source = AdversaryLaw(v["law"], float(v["a"]), sigma, epsilon, q)
                self.theta0 = np.atleast_1d(np.asarray(self.source.base.mean(), dtype=float))
                self.label = f"f1_adversary:{v['law']}"
            else:
                self.source, theta = adversary_two_point(float(v["r"]), sigma, epsilon, q)[v["which"] - 1]
                self.theta0 = np.array([theta])
                self.label = f"two_point:{v['which']}"
        else:
            theta0 = v["theta0"]
            _require(len(theta0) == d, f"regression grid.d = {d} must equal len(theta0) = {len(theta0)}")
            self.theta0 = np.asarray(theta0, dtype=float)
            self.design = v["design"]
            name, m2 = v["mechanism2"]
            self.mechanism2 = float(m2["c"]) if name == "constant" else partial(_residual_above, self.theta0)
            self.label = f"regression:{self.design}"

    def sample(self, seed: int) -> ExtendedArray:
        """The replication's sample; a regression sample holds the design, then the response."""
        if self.kind != "regression":
            return self.source.sample(self.n, seed)
        # design rows on role 5, response channel on the seed's own roles
        g = Stream(child_seed(seed, 5)).normals(self.n * self.d).reshape(self.n, self.d)
        X = g if self.design == "gaussian" else np.column_stack([np.ones(self.n), g[:, 1:]])
        Z = sample_regression(X, self.theta0, self.sigma, self.epsilon, self.q, self.mechanism2, seed)
        observed = np.column_stack([np.ones(X.shape, dtype=bool), Z.observed])
        return ExtendedArray(np.column_stack([X, Z.values]), observed)


# ---------------------------------------------------------------------------
# scenario execution


def _run_task(
    cell: _CellModel, estimators: tuple, delta: float, rep: int, rep_seed: int
) -> list[ResultRecord]:
    sample = cell.sample(rep_seed)
    records = []
    for j, name in enumerate(estimators):
        ctx = EstimatorContext(cell.epsilon, cell.q, cell.sigma, delta, child_seed(rep_seed, 100 + j))
        try:
            est = run_estimator(name, sample, ctx)
            sq = float(np.sum((est - cell.theta0) ** 2))
        except _NUMERIC_ERRORS:
            sq = math.nan
        # an error that overflowed is a failure too, and read_records_csv refuses inf
        sq = sq if math.isfinite(sq) else None
        records.append(
            ResultRecord(
                cell.label, name, cell.n, cell.d, cell.epsilon, cell.q, cell.sigma, rep, rep_seed, sq
            )
        )
    return records


def _replications(config: ScenarioConfig):
    """(cell index, cell model, rep, rep seed) of every replication, in task order."""
    for ci, cell in enumerate(config.cell_models):
        for rep in range(config.reps):
            yield ci, cell, rep, child_seed(config.seed, ci, rep)


def run_scenario(config: ScenarioConfig, workers: int | None = None) -> list[ResultRecord]:
    """All grid cells x reps x estimators, deterministically ordered.

    ``workers`` > 1 fans replications out to a process pool in contiguous
    chunks of ``max(1, tasks // (8 * workers))`` tasks.  Neighbouring tasks
    share a cell model, so a chunk pickles it once, and results come back
    once per chunk.  The pool is capped at the number of chunks: with the
    ``fork`` start method every worker is started up front, so a large
    ``workers`` on a small config would fork processes that get no work.
    The merged output is sorted on the full record key, so worker count
    never changes the result.  Before it builds the pool, a pooled run loads
    the modules that the library imports on first call: scipy.special, which
    every sampler but ``TwoPoint`` draws through, and what its estimators
    need (``_DEFERRED_IMPORTS``: scipy.optimize and scipy.spatial).  So
    forked workers inherit them rather than each importing its own copy.
    The pool module itself, and the multiprocessing it loads, is imported
    only here, so a serial run never loads it.
    """
    tasks = [
        (cell, config.estimators, config.delta, rep, rep_seed)
        for _, cell, rep, rep_seed in _replications(config)
    ]
    if workers is not None and workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        importlib.import_module("scipy.special")
        for name in config.estimators:
            for module in _DEFERRED_IMPORTS.get(name, ()):
                importlib.import_module(module)
        chunksize = max(1, len(tasks) // (8 * workers))
        with ProcessPoolExecutor(max_workers=min(workers, math.ceil(len(tasks) / chunksize))) as pool:
            results = list(pool.map(_run_task, *zip(*tasks), chunksize=chunksize))
    else:
        results = [_run_task(*task) for task in tasks]
    records = [rec for task_records in results for rec in task_records]
    records.sort(key=ResultRecord.sort_key)
    return records


def generate_datasets(config: ScenarioConfig, out_dir) -> list[str]:
    """Dump every cell x rep sample as a TAB dataset; returns the paths."""
    paths = []
    for ci, cell, rep, rep_seed in _replications(config):
        name = f"{cell.label.replace(':', '_')}_c{ci:03d}_r{rep:03d}.tsv"
        path = os.path.join(out_dir, name)
        write_dataset(path, cell.sample(rep_seed), cell.label, rep_seed)
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# summaries


def empirical_quantile(errors, delta: float) -> float:
    """Smallest error with empirical coverage at least 1 - delta."""
    v = np.sort(np.asarray(errors, dtype=float).reshape(-1))
    if len(v) == 0:
        raise SizeError("no errors to summarise")
    check_param("delta", delta)
    rank = max(1, math.ceil((1.0 - delta) * len(v)))
    return float(v[rank - 1])


_GROUP_COLS = ("scenario", "estimator", "d", "epsilon", "q", "sigma")


def rate_table(records, delta: float = 0.1) -> list[dict]:
    """Per-cell quantiles and log-log slope of quantile against n.

    One output row per (group, n) holding the empirical (1 - delta)
    quantile of sq_error; the group's slope (least squares of log quantile
    on log n) is repeated on each of its rows and None when fewer than two
    n values carry a finite positive quantile.
    """
    groups: dict[tuple, dict[int, list[float]]] = {}
    for rec in records:
        key = tuple(getattr(rec, col) for col in _GROUP_COLS)
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
        slope = float(np.polyfit(*np.array(pts).T, 1)[0]) if len(pts) >= 2 else None
        for n, qv in quants.items():
            row = dict(zip(_GROUP_COLS, key))
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
            fh.write(",".join(map(_fmt, _ROW(r))) + "\n")


def _optional_float(text: str) -> float | None:
    return None if text == "NA" else float(text)


# column parsers, keyed by the ResultRecord field annotations
_PARSERS = {"str": str, "int": int, "float": float, "float | None": _optional_float}
_COLUMN_PARSERS = tuple(_PARSERS[f.type] for f in fields(ResultRecord))


def read_records_csv(path) -> list[ResultRecord]:
    """Records of a results CSV; a row is malformed if a field does not parse, n or d is
    below 1, sq_error is neither NA nor finite and >= 0, or epsilon, q or sigma is outside
    its domain."""
    records = []
    try:
        with open(path) as fh:
            header = fh.readline().rstrip("\n")
            if header != CSV_HEADER:
                raise ConfigError(f"{path}: unexpected header {header!r}")
            for lineno, line in enumerate(fh, start=2):
                parts = line.rstrip("\n").split(",")
                try:
                    if len(parts) != len(_COLUMNS):
                        raise ValueError(f"{len(parts)} fields, expected {len(_COLUMNS)}")
                    rec = ResultRecord(*(parse(p) for parse, p in zip(_COLUMN_PARSERS, parts)))
                    if rec.n < 1 or rec.d < 1 or not (rec.sq_error is None or 0.0 <= rec.sq_error < math.inf):
                        raise ValueError("need n >= 1, d >= 1 and sq_error NA or finite and >= 0")
                    for key in ("epsilon", "q", "sigma"):
                        check_param(key, getattr(rec, key))
                except ValueError as e:
                    raise ConfigError(f"{path}: line {lineno}: malformed row {line!r} ({e})") from None
                records.append(rec)
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not text: {e}") from None
    return records


def write_table_csv(rows, path) -> None:
    cols = _GROUP_COLS + ("n", "quantile", "slope")
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in cols) + "\n")
