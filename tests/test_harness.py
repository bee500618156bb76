"""Scenario configs, the Monte Carlo runner, summaries, and CSV io."""

import copy
import json
import math
import re
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from missingrobust import (
    ConfigError,
    DimensionError,
    DomainError,
    EstimationError,
    EstimatorContext,
    Gaussian,
    ModelError,
    PatternDistribution,
    ResultRecord,
    ScenarioConfig,
    SizeError,
    Stream,
    child_seed,
    empirical_quantile,
    generate_datasets,
    mk_estimate,
    observed_mean,
    rate_table,
    read_dataset,
    read_records_csv,
    run_estimator,
    run_scenario,
    sample_mcar,
    write_records_csv,
    write_table_csv,
)
from missingrobust import harness
from missingrobust.harness import CSV_HEADER, _mom_blocks
from missingrobust.univariate import median_of_means


def cfg_dict(**overrides) -> dict:
    base = {
        "model": {"kind": "mcar", "theta0": 0.0},
        "estimators": ["observed_mean"],
        "grid": {"n": [40]},
        "reps": 2,
        "delta": 0.1,
        "seed": 7,
    }
    base.update(copy.deepcopy(overrides))
    return base


class TestScenarioConfig:
    def test_grid_defaults(self):
        cfg = ScenarioConfig.from_dict(cfg_dict())
        assert list(cfg.cells) == [(40, 1, 0.0, 1.0, 1.0)]
        assert cfg.estimators == ("observed_mean",)
        assert isinstance(cfg.delta, float)

    def test_cells_follow_product_order(self):
        cfg = ScenarioConfig.from_dict(
            cfg_dict(
                model={"kind": "realisable", "mechanism": {"name": "constant", "c": 1.0}},
                grid={"n": [10, 20], "epsilon": [0.1, 0.2], "q": [0.5, 1.0]},
            )
        )
        assert list(cfg.cells) == list(product([10, 20], [1], [0.1, 0.2], [0.5, 1.0], [1.0]))

    def test_unknown_and_missing_keys(self):
        bad = cfg_dict()
        bad["extra"] = 1
        with pytest.raises(ConfigError, match="unknown config keys"):
            ScenarioConfig.from_dict(bad)
        short = cfg_dict()
        del short["reps"]
        with pytest.raises(ConfigError, match="missing config keys"):
            ScenarioConfig.from_dict(short)
        with pytest.raises(ConfigError, match="JSON object"):
            ScenarioConfig.from_dict([])

    def test_model_kind_checks(self):
        with pytest.raises(ConfigError, match="'kind'"):
            ScenarioConfig.from_dict(cfg_dict(model={"theta0": 0.0}))
        with pytest.raises(ConfigError, match="unknown model kind"):
            ScenarioConfig.from_dict(cfg_dict(model={"kind": "mystery"}))

    @pytest.mark.parametrize(
        "model, key",
        [
            ({"kind": "mcar", "patern": "all_or_nothing"}, "model.patern"),
            ({"kind": "arbitrary", "pattern": "all_or_nothing"}, "model.pattern"),
            ({"kind": "realisable", "mechanism": {"name": "constant", "p": 0.5}}, "model.mechanism.p"),
            ({"kind": "realisable", "mechanism": {"name": "tails_only", "c": 0.5}}, "model.mechanism.c"),
            ({"kind": "arbitrary", "contaminant": {"name": "all_star", "value": 3.0}}, "model.contaminant.value"),
            ({"kind": "two_point", "a": 1.0}, "model.a"),
            (
                {"kind": "regression", "theta0": [0.5], "mechanism2": {"name": "residual_above", "c": 0.5}},
                "model.mechanism2.c",
            ),
        ],
    )
    def test_key_its_branch_does_not_read_is_refused(self, model, key):
        grid = {"n": [10], "epsilon": [0.0 if model["kind"] == "mcar" else 0.1]}
        estimators = ["ols_observed"] if model["kind"] == "regression" else ["observed_mean"]
        with pytest.raises(ConfigError, match=rf"takes no key {re.escape(key)} "):
            ScenarioConfig.from_dict(cfg_dict(model=model, estimators=estimators, grid=grid))

    @pytest.mark.parametrize(
        "mechanism",
        [
            {"name": "threshold_below", "t": 0.5},
            {"name": "tails_only"},
            {"name": "custom", "knots": [-1.0, 1.0], "levels": [0.2, 1.0, 0.5]},
            {"name": "constant", "c": 0.5},
            {"name": "threshold_above"},
        ],
    )
    def test_mechanism_builds_its_cell(self, mechanism):
        model = {"kind": "realisable", "mechanism": mechanism}
        cfg = ScenarioConfig.from_dict(cfg_dict(model=model, grid={"n": [10], "epsilon": [0.1]}))
        assert cfg.cell_models[0].label == f"realisable:gaussian:{mechanism['name']}"

    @pytest.mark.parametrize(
        "model, label",
        [
            ({"kind": "mcar"}, "mcar:gaussian"),
            ({"kind": "mcar", "pattern": "all_or_nothing"}, "mcar:gaussian"),
            ({"kind": "realisable"}, "realisable:gaussian:constant"),
            ({"kind": "arbitrary"}, "arbitrary:gaussian:atoms"),
            ({"kind": "arbitrary", "contaminant": {"name": "point", "value": 3.0}}, "arbitrary:gaussian:atoms"),
            ({"kind": "f1_adversary", "a": 1.0}, "f1_adversary:f1"),
            ({"kind": "f1_adversary", "a": 1.0, "law": "f2"}, "f1_adversary:f2"),
            ({"kind": "two_point"}, "two_point:1"),
            ({"kind": "two_point", "which": 2}, "two_point:2"),
            ({"kind": "regression", "theta0": [0.5]}, "regression:intercept_gaussian"),
            ({"kind": "regression", "theta0": [0.5], "design": "gaussian"}, "regression:gaussian"),
        ],
    )
    def test_every_model_variant_labels_its_records(self, model, label):
        regression = model["kind"] == "regression"
        cfg = ScenarioConfig.from_dict(
            cfg_dict(
                model=model,
                estimators=["ols_observed" if regression else "observed_mean"],
                grid={"n": [10], "epsilon": [0.0 if model["kind"] == "mcar" else 0.1]},
                reps=1,
            )
        )
        assert cfg.cell_models[0].label == label
        assert {rec.scenario for rec in run_scenario(cfg)} == {label}

    @pytest.mark.parametrize(
        "model, match",
        [
            ({"kind": "realisable", "mechanism": {"name": "logistic"}}, "unknown mechanism 'logistic'"),
            ({"kind": "arbitrary", "contaminant": {"name": "cloud"}}, "unknown contaminant 'cloud'"),
            (
                {"kind": "regression", "theta0": [0.5], "mechanism2": {"name": "residual_below"}},
                "unknown mechanism2 'residual_below'",
            ),
        ],
    )
    def test_unknown_section_name_is_refused(self, model, match):
        estimators = ["ols_observed"] if model["kind"] == "regression" else ["observed_mean"]
        patch = {"model": model, "estimators": estimators, "grid": {"n": [10], "epsilon": [0.1]}}
        with pytest.raises(ConfigError, match=match):
            ScenarioConfig.from_dict(cfg_dict(**patch))

    @pytest.mark.parametrize(
        "grid, match",
        [
            ({"n": [10], "rho": [1]}, "unknown grid keys"),
            ({"d": [1]}, "grid must list n"),
            ({"n": []}, "nonempty list"),
            ({"n": [10.0]}, "ints >= 1"),
            ({"n": [0]}, "ints >= 1"),
            ({"n": [10], "d": [0]}, r"grid\.d entries"),
            ({"n": [10], "epsilon": [1.0]}, r"\[0, 1\)"),
            ({"n": [10], "q": [0.0]}, r"\(0, 1\]"),
            ({"n": [10], "sigma": [0.0]}, "positive"),
            ({"n": [True]}, r"grid\.n entries"),
            ({"n": [10], "d": [True]}, r"grid\.d entries"),
            ({"n": [10], "epsilon": ["0.1"]}, r"grid\.epsilon entries"),
            ({"n": [10], "epsilon": [False]}, r"grid\.epsilon entries"),
            ({"n": [10], "q": [True]}, r"grid\.q entries"),
            ({"n": [10], "sigma": ["1"]}, r"grid\.sigma entries"),
            ({"n": [50, 50]}, r"grid\.n must not repeat a value"),
            ({"n": [10], "q": [0.5, 1, 0.5]}, r"grid\.q must not repeat a value"),
            ({"n": [10], "epsilon": [0, 0.0]}, r"grid\.epsilon must not repeat a value"),
            ({"n": [10**400]}, r"grid\.n entries must be ints >= 1 and <= 1000000"),
            ({"n": [1_000_001]}, r"grid\.n entries"),
            ({"n": [10], "d": [10**400]}, r"grid\.d entries must be ints >= 1 and <= 64"),
            ({"n": [10], "d": [65]}, r"grid\.d entries"),
        ],
    )
    def test_grid_entry_checks(self, grid, match):
        with pytest.raises(ConfigError, match=match):
            ScenarioConfig.from_dict(cfg_dict(grid=grid))

    @pytest.mark.parametrize(
        "patch, match",
        [
            ({"reps": 0}, "reps"),
            ({"reps": 2.5}, "reps"),
            ({"delta": 0.0}, "delta"),
            ({"delta": 1.5}, "delta"),
            ({"seed": "seven"}, "seed"),
            ({"estimators": []}, "nonempty list of names"),
            ({"estimators": [3]}, "nonempty list of names"),
            ({"reps": True}, "reps"),
            ({"delta": True}, "delta"),
            ({"delta": "0.1"}, "delta"),
            ({"seed": True}, "seed"),
            ({"estimators": ["median_of_means", "median_of_means"]}, "estimators must not repeat a name"),
            ({"reps": 10**400}, r"reps must be an int >= 1 and <= 100000"),
            ({"reps": 100_001}, "reps"),
        ],
    )
    def test_scalar_field_checks(self, patch, match):
        with pytest.raises(ConfigError, match=match):
            ScenarioConfig.from_dict(cfg_dict(**patch))

    def test_from_json(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg_dict()))
        cfg = ScenarioConfig.from_json(path)
        assert cfg.cells == ScenarioConfig.from_dict(cfg_dict()).cells
        with pytest.raises(ConfigError, match="cannot read config"):
            ScenarioConfig.from_json(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            ScenarioConfig.from_json(bad)


class TestCompatibility:
    @pytest.mark.parametrize(
        "patch, match",
        [
            ({"estimators": ["nope"]}, "unknown estimator 'nope'"),
            ({"estimators": ["ks_regression"]}, "incompatible with model kind 'mcar'"),
            (
                {"estimators": ["observed_mean"], "grid": {"n": [10], "d": [1, 2]}},
                r"univariate but grid\.d = \[1, 2\]",
            ),
            (
                {"estimators": ["complete_case_mean"], "grid": {"n": [10], "epsilon": [0.2]},
                 "model": {"kind": "f1_adversary", "a": 1.0}},
                "incompatible with model kind 'f1_adversary'",
            ),
            ({"grid": {"n": [10], "epsilon": [0.1]}}, r"grid\.epsilon == \[0\.0\]"),
            (
                {"model": {"kind": "f1_adversary", "a": 1.0}, "estimators": ["min_kolmogorov"]},
                "needs epsilon > 0",
            ),
            (
                {"model": {"kind": "f1_adversary"}, "estimators": ["min_kolmogorov"],
                 "grid": {"n": [10], "epsilon": [0.2]}},
                "needs key 'a'",
            ),
            (
                {"model": {"kind": "two_point"}, "estimators": ["min_kolmogorov"]},
                "needs epsilon > 0",
            ),
            (
                {"model": {"kind": "regression"}, "estimators": ["ols_observed"]},
                "needs key 'theta0'",
            ),
            (
                {"model": {"kind": "regression", "theta0": [0.1, 0.2]},
                 "estimators": ["ols_observed"]},
                r"must equal len\(theta0\) = 2",
            ),
            (
                {"model": {"kind": "regression", "theta0": [0.1]},
                 "estimators": ["ols_observed", "observed_mean"]},
                "incompatible with model kind 'regression'",
            ),
            (
                {"model": {"kind": "mcar", "pattern": "independent"},
                 "estimators": ["min_kolmogorov_multi"], "grid": {"n": [10], "d": [2]}},
                "all-or-nothing missingness",
            ),
            (
                {"model": {"kind": "arbitrary"}, "estimators": ["min_kolmogorov_multi"],
                 "grid": {"n": [10], "d": [2], "epsilon": [0.1], "q": [0.8]}},
                "all-or-nothing missingness .*model kind 'arbitrary'",
            ),
            (
                {"model": {"kind": "arbitrary", "contaminant": {"name": "point", "value": 3.0}},
                 "estimators": ["min_kolmogorov_multi"],
                 "grid": {"n": [10], "d": [1, 2], "epsilon": [0.0, 0.2], "q": [0.7, 1.0]}},
                "all-or-nothing missingness .*model kind 'arbitrary'",
            ),
        ],
    )
    def test_rejections(self, patch, match):
        with pytest.raises(ConfigError, match=match):
            ScenarioConfig.from_dict(cfg_dict(**patch))

    @pytest.mark.parametrize(
        "patch, match",
        [
            (
                {"model": {"kind": "mcar"}, "estimators": ["complete_case_mean"], "grid": {"n": [10], "d": [17]}},
                r"grid\.d = 17 is too large .*capped at d <= 16",
            ),
            (
                {"model": {"kind": "arbitrary"}, "estimators": ["complete_case_mean"],
                 "grid": {"n": [10], "d": [2, 17], "epsilon": [0.1]}},
                r"grid\.d = 17 is too large .*capped at d <= 16",
            ),
            (
                {"model": {"kind": "mcar", "pattern": "all_or_nothing"},
                 "estimators": ["min_kolmogorov_multi"], "grid": {"n": [10], "d": [5]}},
                r"grid\.d = 5 is too large for estimator 'min_kolmogorov_multi'.*capped at d = 4",
            ),
            (
                {"model": {"kind": "realisable"}, "estimators": ["complete_case_mean", "min_kolmogorov_multi"],
                 "grid": {"n": [10], "d": [2, 9], "epsilon": [0.1]}},
                r"grid\.d = 9 is too large for estimator 'min_kolmogorov_multi'",
            ),
        ],
    )
    def test_too_large_d_is_refused_at_load(self, patch, match):
        with pytest.raises(ConfigError, match=match):
            ScenarioConfig.from_dict(cfg_dict(**patch))

    def test_multi_mk_net_cap_is_inclusive(self):
        patch = {"model": {"kind": "realisable"}, "estimators": ["min_kolmogorov_multi"],
                 "grid": {"n": [10], "d": [4], "epsilon": [0.1]}}
        assert ScenarioConfig.from_dict(cfg_dict(**patch)).grid["d"] == [4]

    def test_multi_mk_allowed_with_all_or_nothing(self):
        cfg = ScenarioConfig.from_dict(
            cfg_dict(
                model={"kind": "mcar", "pattern": "all_or_nothing"},
                estimators=["min_kolmogorov_multi", "complete_case_mean"],
                grid={"n": [10], "d": [2]},
            )
        )
        assert cfg.grid["d"] == [2]

    def test_multi_mk_allowed_on_arbitrary_rows_when_fully_observed(self):
        # arbitrary cells mask each coordinate on their own, so d > 1 needs q = 1
        for grid in ({"n": [10], "d": [2], "epsilon": [0.1], "q": [1.0]},
                     {"n": [10], "d": [1], "epsilon": [0.1], "q": [0.8]}):
            patch = {"model": {"kind": "arbitrary"}, "estimators": ["min_kolmogorov_multi"], "grid": grid}
            assert ScenarioConfig.from_dict(cfg_dict(**patch)).grid == {**grid, "sigma": [1.0]}

    def test_regression_config_accepted(self):
        cfg = ScenarioConfig.from_dict(
            cfg_dict(
                model={"kind": "regression", "theta0": [0.5, -1.0]},
                estimators=["ks_regression", "ols_observed"],
                grid={"n": [30], "d": [2], "epsilon": [0.1], "q": [0.8]},
            )
        )
        assert list(cfg.cells) == [(30, 2, 0.1, 0.8, 1.0)]


class TestRunScenario:
    def test_single_rep_reproduced_by_hand(self):
        cfg = ScenarioConfig.from_dict(
            cfg_dict(grid={"n": [40], "q": [0.8]}, reps=1, seed=11)
        )
        records = run_scenario(cfg)
        assert len(records) == 1
        rec = records[0]
        rep_seed = child_seed(11, 0, 0)
        sample = sample_mcar(
            Gaussian.univariate(0.0, 1.0), PatternDistribution.independent(1, 0.8), 40, rep_seed
        )
        expected = observed_mean(sample).value ** 2
        assert rec.scenario == "mcar:gaussian"
        assert rec.estimator == "observed_mean"
        assert (rec.n, rec.d, rec.epsilon, rec.q, rec.sigma) == (40, 1, 0.0, 0.8, 1.0)
        assert rec.rep == 0 and rec.seed == rep_seed
        assert rec.sq_error == pytest.approx(expected, abs=1e-15)

    def test_estimator_seeds_depend_on_position(self):
        cfg = ScenarioConfig.from_dict(
            cfg_dict(estimators=["median_of_means", "observed_mean"], reps=1, seed=3)
        )
        records = run_scenario(cfg)
        rep_seed = child_seed(3, 0, 0)
        sample = sample_mcar(
            Gaussian.univariate(0.0, 1.0), PatternDistribution.independent(1, 1.0), 40, rep_seed
        )
        vals = sample.values[sample.observed]
        mom = median_of_means(vals, _mom_blocks(0.1), child_seed(rep_seed, 100)).value
        by_name = {r.estimator: r for r in records}
        assert by_name["median_of_means"].sq_error == pytest.approx(mom**2, abs=1e-15)
        assert by_name["observed_mean"].sq_error == pytest.approx(float(np.mean(vals)) ** 2, abs=1e-15)

    def test_deterministic_and_worker_invariant(self):
        cfg = ScenarioConfig.from_dict(
            cfg_dict(estimators=["observed_mean", "median_of_means"], grid={"n": [20, 30]}, reps=3)
        )
        serial = run_scenario(cfg)
        assert serial == run_scenario(cfg)
        assert serial == run_scenario(cfg, workers=2)
        assert serial == sorted(serial, key=ResultRecord.sort_key)
        assert len(serial) == 2 * 2 * 3

    def test_an_overflowing_error_is_na_and_the_csv_reads_back(self, tmp_path):
        # a point contaminant at 1e200 puts the mean near 3e199, whose square is inf
        cfg = ScenarioConfig.from_dict(
            cfg_dict(
                model={"kind": "arbitrary", "contaminant": {"name": "point", "value": 1e200}},
                grid={"n": [50], "epsilon": [0.3]},
            )
        )
        with np.errstate(over="ignore"):
            records = run_scenario(cfg)
        assert [r.sq_error for r in records] == [None, None]
        path = tmp_path / "r.csv"
        write_records_csv(records, path)
        assert read_records_csv(path) == records

    def test_ragged_chunks_write_the_serial_bytes(self, tmp_path):
        # 3 cells x 37 reps = 111 tasks on 2 workers: chunks of 111 // 16 = 6
        # tasks, the last one holding 3
        cfg = ScenarioConfig.from_dict(
            cfg_dict(estimators=["observed_mean", "median_of_means"], grid={"n": [20, 30, 40]}, reps=37)
        )
        serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
        write_records_csv(run_scenario(cfg), serial)
        write_records_csv(run_scenario(cfg, workers=2), pooled)
        assert pooled.read_bytes() == serial.read_bytes()

    def test_pool_is_capped_at_the_number_of_chunks(self, monkeypatch):
        asked = []

        class RecordingPool:
            """Runs ``map`` in process and records the pool size asked for."""

            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        cfg = ScenarioConfig.from_dict(cfg_dict(grid={"n": [20, 30]}, reps=3))
        serial = run_scenario(cfg)
        assert run_scenario(cfg, workers=64) == serial
        assert len(serial) == 6 and len(asked) == 1 and asked[0] <= 6

    @pytest.mark.parametrize(
        "mechanism2", [{"name": "constant", "c": 0.7}, {"name": "residual_above"}], ids=lambda m: m["name"]
    )
    def test_regression_is_worker_invariant(self, mechanism2):
        cfg = ScenarioConfig.from_dict(
            cfg_dict(
                model={"kind": "regression", "theta0": [0.5, -1.0], "mechanism2": mechanism2},
                estimators=["ols_observed"],
                grid={"n": [30, 40], "d": [2], "epsilon": [0.3], "q": [0.8]},
                reps=2,
            )
        )
        serial = run_scenario(cfg)
        assert serial == run_scenario(cfg, workers=2)
        assert len(serial) == 4 and all(r.sq_error is not None for r in serial)

    def test_each_cell_model_is_built_once(self, monkeypatch, tmp_path):
        built = []

        class Counted(harness._CellModel):
            def __init__(self, model, *cell):
                built.append(cell)
                super().__init__(model, *cell)

        monkeypatch.setattr(harness, "_CellModel", Counted)
        cfg = ScenarioConfig.from_dict(cfg_dict(grid={"n": [20, 30], "q": [0.5, 1.0]}, reps=3))
        run_scenario(cfg)
        generate_datasets(cfg, tmp_path)
        assert built == list(cfg.cells)
        assert len(built) == 4

    def test_estimator_failure_records_none(self):
        cfg = ScenarioConfig.from_dict(
            cfg_dict(estimators=["trimmed_mean"], grid={"n": [2]}, reps=1)
        )
        records = run_scenario(cfg)
        assert records[0].sq_error is None

    @pytest.mark.parametrize(
        "error",
        [DomainError, DimensionError, SizeError, ModelError, EstimationError, FloatingPointError, np.linalg.LinAlgError],
        ids=lambda e: e.__name__,
    )
    def test_numeric_error_of_one_estimator_is_an_na_record(self, monkeypatch, error):
        def fail(sample, ctx):
            raise error("injected failure")

        monkeypatch.setitem(harness._REGISTRY, "median_of_means", fail)
        cfg = ScenarioConfig.from_dict(cfg_dict(estimators=["median_of_means", "observed_mean"], reps=2))
        failed = {(r.estimator, r.rep): r.sq_error is None for r in run_scenario(cfg)}
        assert failed == {(name, rep): name == "median_of_means" for name in cfg.estimators for rep in (0, 1)}

    def test_sq_error_is_squared_norm_for_vectors(self):
        cfg = ScenarioConfig.from_dict(
            cfg_dict(
                model={"kind": "mcar", "theta0": 1.5},
                estimators=["complete_case_mean"],
                grid={"n": [60], "d": [3]},
                reps=1,
                seed=5,
            )
        )
        rec = run_scenario(cfg)[0]
        model_sample = sample_mcar(
            Gaussian(np.full(3, 1.5), np.eye(3)),
            PatternDistribution.independent(3, 1.0),
            60,
            child_seed(5, 0, 0),
        )
        est = model_sample.values[model_sample.fully_observed()].mean(axis=0)
        assert rec.sq_error == pytest.approx(float(np.sum((est - 1.5) ** 2)), abs=1e-15)


class TestRunEstimator:
    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown estimator 'zzz'"):
            run_estimator("zzz", None, EstimatorContext(0.0, 1.0, 1.0, 0.1, 0))

    def test_dispatch_matches_direct_calls(self):
        sample = sample_mcar(
            Gaussian.univariate(0.0, 1.0), PatternDistribution.independent(1, 0.9), 200, 17
        )
        ctx = EstimatorContext(0.1, 0.9, 1.0, 0.1, 99)
        om = run_estimator("observed_mean", sample, ctx)
        assert om.shape == (1,)
        assert om[0] == observed_mean(sample).value
        mk = run_estimator("min_kolmogorov", sample, ctx)
        assert mk[0] == mk_estimate(sample, 0.1, 0.9, 1.0).value

    def test_mom_block_rule(self):
        assert _mom_blocks(1.0) == 1
        assert _mom_blocks(0.1) == math.ceil(math.log(20.0))
        assert _mom_blocks(0.01) == math.ceil(math.log(200.0))


class TestEmpiricalQuantile:
    def test_rank_examples(self):
        errs = list(range(10, 0, -1))
        assert empirical_quantile(errs, 0.1) == 9.0
        assert empirical_quantile(errs, 0.5) == 5.0
        assert empirical_quantile(errs, 1.0) == 1.0
        assert empirical_quantile(errs, 0.05) == 10.0

    def test_validation(self):
        with pytest.raises(SizeError):
            empirical_quantile([], 0.1)
        with pytest.raises(DomainError):
            empirical_quantile([1.0], 0.0)
        with pytest.raises(DomainError):
            empirical_quantile([1.0], 1.5)

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
        st.floats(0.01, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_coverage_property(self, errs, delta):
        qv = empirical_quantile(errs, delta)
        v = np.asarray(errs)
        assert qv in v
        assert np.mean(v <= qv) >= (1.0 - delta) - 1e-12


def make_record(**kw) -> ResultRecord:
    base = dict(
        scenario="s",
        estimator="e",
        n=100,
        d=1,
        epsilon=0.0,
        q=1.0,
        sigma=1.0,
        rep=0,
        seed=0,
        sq_error=1.0,
        runtime_ms=None,
    )
    base.update(kw)
    return ResultRecord(**base)


class TestRateTable:
    def test_exact_inverse_n_slope(self):
        records = [
            make_record(n=n, rep=r, sq_error=4.0 / n)
            for n in (100, 1000, 10000)
            for r in range(5)
        ]
        rows = rate_table(records, delta=0.1)
        assert len(rows) == 3
        for row in rows:
            assert row["quantile"] == pytest.approx(4.0 / row["n"], rel=1e-12)
            assert row["slope"] == pytest.approx(-1.0, abs=1e-9)

    def test_constant_errors_give_zero_slope(self):
        records = [make_record(n=n, sq_error=2.0) for n in (10, 100, 1000)]
        rows = rate_table(records)
        assert all(row["slope"] == pytest.approx(0.0, abs=1e-12) for row in rows)

    def test_single_n_has_no_slope(self):
        rows = rate_table([make_record(n=50)])
        assert rows == [
            {
                "scenario": "s",
                "estimator": "e",
                "d": 1,
                "epsilon": 0.0,
                "q": 1.0,
                "sigma": 1.0,
                "n": 50,
                "quantile": 1.0,
                "slope": None,
            }
        ]

    def test_failed_cells_drop_out(self):
        records = [
            make_record(n=10, sq_error=None),
            make_record(n=100, sq_error=0.5),
            make_record(n=1000, sq_error=0.05),
        ]
        rows = {row["n"]: row for row in rate_table(records)}
        assert rows[10]["quantile"] is None
        assert rows[100]["quantile"] == 0.5
        assert rows[10]["slope"] == pytest.approx(-1.0, abs=1e-9)

    def test_quantile_level_inside_cells(self):
        records = [make_record(rep=i, sq_error=float(i + 1)) for i in range(10)]
        rows = rate_table(records, delta=0.1)
        assert rows[0]["quantile"] == 9.0

    def test_groups_sorted_and_split_by_estimator(self):
        records = [
            make_record(estimator="b", n=10, sq_error=1.0),
            make_record(estimator="a", n=10, sq_error=2.0),
        ]
        rows = rate_table(records)
        assert [row["estimator"] for row in rows] == ["a", "b"]


class TestCsvIo:
    def test_roundtrip(self, tmp_path):
        records = [
            make_record(rep=0, sq_error=1.0 / 3.0, runtime_ms=12.25),
            make_record(rep=1, sq_error=None),
            make_record(rep=2, sq_error=1e-17, seed=2**62),
        ]
        path = tmp_path / "out.csv"
        write_records_csv(records, path)
        assert read_records_csv(path) == records
        header = path.read_text().splitlines()[0]
        assert header == CSV_HEADER

    def test_na_serialisation(self, tmp_path):
        path = tmp_path / "na.csv"
        write_records_csv([make_record(sq_error=None)], path)
        row = path.read_text().splitlines()[1]
        assert row.split(",")[9] == "NA"
        assert row.split(",")[10] == "NA"

    def test_header_and_row_validation(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header\n")
        with pytest.raises(ConfigError, match="unexpected header"):
            read_records_csv(bad)
        short = tmp_path / "short.csv"
        short.write_text(CSV_HEADER + "\ns,e,1,1,0,1,1,0,0,NA\n")
        with pytest.raises(ConfigError, match="malformed row"):
            read_records_csv(short)
        # n and d below 1 (math.log(0) in rate_table), a NaN, negative or infinite sq_error,
        # and an epsilon, q or sigma outside its grid range (a NaN one splits its cell in rate_table)
        path = tmp_path / "rows.csv"
        for row in (
            "s,e,0,1,0,1,1,0,0,0.5,NA",
            "s,e,10,0,0,1,1,0,0,0.5,NA",
            "s,e,10,1,0,1,1,0,0,nan,NA",
            "s,e,10,1,0,1,1,0,0,-0.5,NA",
            "s,e,10,1,0,1,1,0,0,inf,NA",
            "s,e,10,1,nan,1,1,0,0,0.5,NA",
            "s,e,10,1,0,0,1,0,0,0.5,NA",
            "s,e,10,1,0,1,0,0,0,0.5,NA",
        ):
            path.write_text(f"{CSV_HEADER}\ns,e,10,1,0,1,1,0,0,0.25,NA\n{row}\n")
            with pytest.raises(ConfigError, match=re.escape(f"{path}: line 3: malformed row")):
                read_records_csv(path)
        path.write_bytes(CSV_HEADER.encode() + b"\n\xff\xfe,e\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}: not text")):
            read_records_csv(path)

    def test_table_csv(self, tmp_path):
        rows = rate_table([make_record(n=50)])
        path = tmp_path / "table.csv"
        write_table_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "scenario,estimator,d,epsilon,q,sigma,n,quantile,slope"
        assert lines[1].endswith(",50,1,NA")


class TestGenerateDatasets:
    def test_mcar_files_match_runner_samples(self, tmp_path):
        cfg = ScenarioConfig.from_dict(cfg_dict(grid={"n": [6]}, reps=2, seed=4))
        paths = generate_datasets(cfg, tmp_path)
        assert [p.rsplit("/", 1)[1] for p in paths] == [
            "mcar_gaussian_c000_r000.tsv",
            "mcar_gaussian_c000_r001.tsv",
        ]
        for rep, path in enumerate(paths):
            data, meta = read_dataset(path)
            rep_seed = child_seed(4, 0, rep)
            expected = sample_mcar(
                Gaussian.univariate(0.0, 1.0), PatternDistribution.independent(1, 1.0), 6, rep_seed
            )
            assert meta["seed"] == rep_seed
            assert meta["d"] == 1
            np.testing.assert_array_equal(data.values, expected.values)
            np.testing.assert_array_equal(data.observed, expected.observed)

    def test_regression_files_carry_design_and_response(self, tmp_path):
        cfg = ScenarioConfig.from_dict(
            cfg_dict(
                model={"kind": "regression", "theta0": [0.5, -1.0]},
                estimators=["ols_observed"],
                grid={"n": [8], "d": [2], "q": [0.6]},
                reps=1,
                seed=9,
            )
        )
        (path,) = generate_datasets(cfg, tmp_path)
        assert path.endswith("regression_intercept_gaussian_c000_r000.tsv")
        data, _ = read_dataset(path)
        assert data.values.shape == (8, 3)
        assert data.observed[:, :2].all()
        rep_seed = child_seed(9, 0, 0)
        g = Stream(child_seed(rep_seed, 5)).normals(16).reshape(8, 2)
        design = np.column_stack([np.ones(8), g[:, 1:]])
        np.testing.assert_allclose(data.values[:, :2], design, atol=1e-12)


# model variants x every estimator x d in {1, 2} x these (epsilon, q) points
_SWEEP_MODELS = {
    "mcar_independent": {"kind": "mcar"},
    "mcar_all_or_nothing": {"kind": "mcar", "pattern": "all_or_nothing"},
    "realisable_constant": {"kind": "realisable"},
    "realisable_threshold": {"kind": "realisable", "mechanism": {"name": "threshold_above", "t": 0.0}},
    "arbitrary_all_star": {"kind": "arbitrary"},
    "arbitrary_point": {"kind": "arbitrary", "contaminant": {"name": "point", "value": 3.0}},
    "f1_adversary": {"kind": "f1_adversary", "a": 1.0},
    "two_point": {"kind": "two_point"},
    "regression": {"kind": "regression", "mechanism2": {"name": "residual_above"}},
}
_SWEEP_POINTS = ((0.0, 0.7), (0.2, 0.7), (0.2, 1.0))


def _sweep_config(variant: str, name: str, d: int, epsilon: float, q: float, reps: int = 2) -> dict:
    model = dict(_SWEEP_MODELS[variant])
    if model["kind"] == "regression":
        model["theta0"] = [0.5, -1.0][:d]
    grid = {"n": [200], "d": [d], "epsilon": [epsilon], "q": [q]}
    return cfg_dict(model=model, estimators=[name], grid=grid, reps=reps)


def test_every_estimator_loads_in_some_sweep_cell():
    """A registered estimator that every sweep cell refuses is one no scenario reaches."""
    loaded = set()
    for variant, name, d, (epsilon, q) in product(sorted(_SWEEP_MODELS), harness.ESTIMATORS, (1, 2), _SWEEP_POINTS):
        if name in loaded:
            continue
        try:
            ScenarioConfig.from_dict(_sweep_config(variant, name, d, epsilon, q))
        except ConfigError:
            continue
        loaded.add(name)
    assert sorted(set(harness.ESTIMATORS) - loaded) == []


@pytest.mark.parametrize("variant", sorted(_SWEEP_MODELS))
def test_every_loaded_config_yields_a_finite_record(variant):
    """A config either is refused at load or gives a finite error in 3 reps.

    A config that loads and then writes only NA records is a structural
    failure the load-time checks missed.  Rep 0 draws the same sample
    whatever ``reps`` is, so a finite rep 0 settles a config without its
    other two reps.
    """
    ran, all_na = 0, []
    for name, d, (epsilon, q) in product(harness.ESTIMATORS, (1, 2), _SWEEP_POINTS):
        try:
            ScenarioConfig.from_dict(_sweep_config(variant, name, d, epsilon, q))
        except ConfigError:
            continue
        ran += 1
        for reps in (1, 3):
            cfg = ScenarioConfig.from_dict(_sweep_config(variant, name, d, epsilon, q, reps))
            if any(rec.sq_error is not None for rec in run_scenario(cfg)):
                break
        else:
            all_na.append((name, d, epsilon, q))
    assert ran > 0
    assert not all_na, f"loaded but wrote only NA: {all_na}"
