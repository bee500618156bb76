"""Exit codes and output shapes for the four CLI subcommands."""

import copy
import json
import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import missingrobust
from missingrobust import child_seed, observed_mean, read_dataset, read_records_csv, run_scenario
from missingrobust.cli import main
from missingrobust.harness import _KINDS, CSV_HEADER, ESTIMATORS, ScenarioConfig


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "model": {"kind": "mcar", "theta0": 0.0},
        "estimators": ["observed_mean"],
        "grid": {"n": [12]},
        "reps": 2,
        "delta": 0.1,
        "seed": 21,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def run_module(*args):
    """``python -m missingrobust.cli *args`` in a child that imports this process's package."""
    src = str(Path(missingrobust.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "missingrobust.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


class TestGenerate:
    def test_writes_datasets(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "data"
        out.mkdir()
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        assert "wrote 2 datasets" in capsys.readouterr().out
        assert sorted(p.name for p in out.iterdir()) == [
            "mcar_gaussian_c000_r000.tsv",
            "mcar_gaussian_c000_r001.tsv",
        ]

    def test_bad_config_is_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["generate", "--config", str(bad), "--out", str(tmp_path)]) == 1
        assert "config error" in capsys.readouterr().err
        bad.write_bytes(b'{"model": "\xff"}')  # not UTF-8
        for command in ("generate", "simulate"):
            assert main([command, "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
            (err,) = capsys.readouterr().err.splitlines()
            assert err.startswith("config error:") and str(bad) in err and "not text" in err

    def test_integer_past_the_conversion_limit_is_exit_one(self, tmp_path, capsys):
        # json.load refuses an integer literal of more than 4300 digits with a plain ValueError
        bad = tmp_path / "huge.json"
        bad.write_text(write_config(tmp_path).read_text().replace('"reps": 2', '"reps": ' + "9" * 5000))
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "r.csv")]) == 1
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith("config error:") and str(bad) in err

    def test_missing_config_is_exit_one(self, tmp_path, capsys):
        missing = tmp_path / "none.json"
        assert main(["generate", "--config", str(missing), "--out", str(tmp_path)]) == 1
        assert "config error" in capsys.readouterr().err


class TestEstimate:
    def make_dataset(self, tmp_path):
        cfg = write_config(tmp_path, reps=1)
        out = tmp_path / "data"
        out.mkdir()
        main(["generate", "--config", str(cfg), "--out", str(out)])
        return out / "mcar_gaussian_c000_r000.tsv"

    def test_json_output_matches_direct_run(self, tmp_path, capsys):
        path = self.make_dataset(tmp_path)
        capsys.readouterr()
        assert main(["estimate", "--estimator", "observed_mean", "--data", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"estimate", "diagnostics"}
        sample, _ = read_dataset(path)
        assert payload["estimate"] == [observed_mean(sample).value]
        diag = payload["diagnostics"]
        assert diag["estimator"] == "observed_mean"
        assert diag["n"] == 12
        assert diag["model"] == "mcar:gaussian"
        assert diag["runtime_ms"] >= 0.0

    def test_regression_dump_splits_design_and_response(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            model={"kind": "regression", "theta0": [0.5, -1.0]},
            estimators=["ols_observed"],
            grid={"n": [25], "d": [2]},
            reps=1,
        )
        out = tmp_path / "data"
        out.mkdir()
        main(["generate", "--config", str(cfg), "--out", str(out)])
        capsys.readouterr()
        (path,) = list(out.iterdir())
        assert main(["estimate", "--estimator", "ols_observed", "--data", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        sample, _ = read_dataset(path)
        X = sample.values[:, :2]
        y = sample.values[:, 2]
        obs = sample.observed[:, 2]
        expected = np.linalg.lstsq(X[obs], y[obs], rcond=None)[0]
        np.testing.assert_allclose(payload["estimate"], expected, atol=1e-12)

    @pytest.mark.parametrize(
        "model, estimators, grid",
        [
            (
                {"kind": "regression", "theta0": [0.5, -1.0], "mechanism2": {"name": "residual_above"}},
                ["ks_regression", "ols_observed"],
                {"n": [40], "d": [2], "epsilon": [0.2], "q": [0.7], "sigma": [1.5]},
            ),
            ({"kind": "mcar", "theta0": 1.0}, ["observed_mean", "min_kolmogorov"], {"n": [40], "q": [0.6]}),
        ],
        ids=["regression", "mcar"],
    )
    def test_estimate_on_a_dump_reproduces_the_simulated_record(self, tmp_path, capsys, model, estimators, grid):
        cfg = write_config(tmp_path, model=model, estimators=estimators, grid=grid)
        out = tmp_path / "data"
        out.mkdir()
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        records = run_scenario(ScenarioConfig.from_json(cfg))
        (cell,) = ScenarioConfig.from_json(cfg).cell_models
        capsys.readouterr()
        assert len(records) == 4
        for rec in records:
            j = estimators.index(rec.estimator)
            path = out / f"{cell.label.replace(':', '_')}_c000_r{rec.rep:03d}.tsv"
            flags = {"--epsilon": rec.epsilon, "--q": rec.q, "--sigma": rec.sigma, "--delta": 0.1}
            argv = ["estimate", "--estimator", rec.estimator, "--data", str(path)]
            argv += [str(v) for item in flags.items() for v in item]
            assert main(argv + ["--seed", str(child_seed(rec.seed, 100 + j))]) == 0
            estimate = np.array(json.loads(capsys.readouterr().out)["estimate"])
            assert float(np.sum((estimate - cell.theta0) ** 2)) == rec.sq_error

    def test_regression_estimator_needs_wide_data(self, tmp_path, capsys):
        path = self.make_dataset(tmp_path)
        code = main(["estimate", "--estimator", "ols_observed", "--data", str(path)])
        assert code == 1
        assert ">= 2 columns" in capsys.readouterr().err

    def test_partly_observed_design_is_exit_one(self, tmp_path, capsys):
        path = tmp_path / "regression.tsv"
        path.write_text("# d=2 model=regression:gaussian seed=3\n0.5\t1.0\nNA\t2.0\n-0.5\tNA\n")
        code = main(["estimate", "--estimator", "ks_regression", "--data", str(path)])
        assert code == 1
        assert "design columns must be fully observed" in capsys.readouterr().err

    def test_numeric_failure_is_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, grid={"n": [2]}, reps=1)
        out = tmp_path / "data"
        out.mkdir()
        main(["generate", "--config", str(cfg), "--out", str(out)])
        capsys.readouterr()
        (path,) = list(out.iterdir())
        code = main(["estimate", "--estimator", "trimmed_mean", "--data", str(path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, where",
        [
            ("# d=1 model=m seed=0\n1.5\nfoo\n", "line 3"),
            ("# d=x model=m seed=0\n1.5\n", "d='x'"),
            ("# d=1 model=m seed=0\n1.5\ninf\n", "line 3"),
            ("# d=1 model=m seed=0\n1.5\nnan\n", "line 3"),
            ("# model=m seed=0\n1\t2\n3\n", "line 3 has 1 cells, expected 2"),
            ("# d=2 model=m seed=0\n1\t2\n\n3\n", "line 4 has 1 cells, expected 2"),
            (b"# d=1 model=m seed=0\n1.5\n\xe9\n", "not text"),
        ],
        ids=["non_numeric_cell", "non_integer_header", "inf_cell", "nan_cell", "ragged_rows", "row_narrower_than_d", "non_utf8"],
    )
    def test_malformed_dump_is_exit_two(self, tmp_path, capsys, text, where):
        path = tmp_path / "bad.tsv"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert main(["estimate", "--estimator", "observed_mean", "--data", str(path)]) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith("error:") and str(path) in err and where in err

    @pytest.mark.parametrize(
        "estimator, flag, value",
        [
            ("median_of_means", "--delta", "0"),
            ("median_of_means", "--delta", "-1"),
            ("median_of_means", "--delta", "2"),
            ("min_kolmogorov_multi", "--sigma", "-1"),
            ("observed_mean", "--epsilon", "1"),
            ("observed_mean", "--q", "0"),
            ("min_kolmogorov", "--epsilon", "nan"),
            ("min_kolmogorov", "--sigma", "1e308"),
            ("min_kolmogorov", "--sigma", "1e-300"),
            ("min_kolmogorov", "--sigma", "inf"),
        ],
    )
    def test_out_of_range_flag_is_exit_one(self, tmp_path, capsys, estimator, flag, value):
        path = self.make_dataset(tmp_path)
        capsys.readouterr()
        assert main(["estimate", "--estimator", estimator, "--data", str(path), flag, value]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"config error: {flag}:")

    def test_unknown_estimator_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--estimator", "zzz", "--data", "x.tsv"])
        assert exc.value.code == 2


class TestSimulateAndReport:
    def test_pipeline(self, tmp_path, capsys):
        cfg = write_config(tmp_path, grid={"n": [10, 20]}, reps=3)
        results = tmp_path / "results.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(results)]) == 0
        assert "wrote 6 records" in capsys.readouterr().out
        records = read_records_csv(results)
        assert records == run_scenario(ScenarioConfig.from_json(cfg))

        table = tmp_path / "table.csv"
        assert main(["report", "--in", str(results), "--out", str(table)]) == 0
        lines = table.read_text().splitlines()
        assert lines[0] == "scenario,estimator,d,epsilon,q,sigma,n,quantile,slope"
        assert len(lines) == 3

    def test_simulate_worker_flag_matches_serial(self, tmp_path):
        cfg = write_config(tmp_path, reps=2)
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(serial)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(parallel), "--workers", "2"]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_is_exit_one(self, tmp_path, capsys, workers):
        results = tmp_path / "r.csv"
        code = main(["simulate", "--config", str(write_config(tmp_path)), "--out", str(results), "--workers", workers])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"config error: --workers: expected an int >= 1, got {workers}")
        assert not results.exists()

    def test_report_rejects_empty_results(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text(CSV_HEADER + "\n")
        assert main(["report", "--in", str(empty), "--out", str(tmp_path / "t.csv")]) == 1
        assert "no records" in capsys.readouterr().err

    def test_report_rejects_a_non_integer_cell(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(CSV_HEADER + "\nmcar:gaussian,observed_mean,1e3,1,0,1,1,0,5,0.25,NA\n")
        assert main(["report", "--in", str(bad), "--out", str(tmp_path / "t.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(bad) in err and "line 2" in err

    @pytest.mark.parametrize(
        "row, where",
        [
            (b"mcar:gaussian,observed_mean,0,1,0,1,1,1,5,0.25,NA", "line 3: malformed row"),
            (b"mcar:gaussian,observed_mean,12,1,0,1,1,1,5,0.25\xff,NA", "not text"),
            (b"mcar:gaussian,observed_mean,12,1,0,1,1,1,5,inf,NA", "line 3: malformed row"),
            (b"mcar:gaussian,observed_mean,12,1,nan,1,1,1,5,0.25,NA", "line 3: malformed row"),
        ],
        ids=["n_zero", "non_utf8", "inf_sq_error", "nan_epsilon"],
    )
    def test_report_rejects_a_bad_row_without_traceback(self, tmp_path, capsys, row, where):
        bad = tmp_path / "bad.csv"
        good = b"mcar:gaussian,observed_mean,12,1,0,1,1,0,5,0.25,NA"
        bad.write_bytes(b"\n".join([CSV_HEADER.encode(), good, row, b""]))
        assert main(["report", "--in", str(bad), "--out", str(tmp_path / "t.csv")]) == 1
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith("config error:") and str(bad) in err and where in err

    def test_report_out_of_range_delta_is_exit_one(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        assert main(["simulate", "--config", str(write_config(tmp_path)), "--out", str(results)]) == 0
        capsys.readouterr()
        assert main(["report", "--in", str(results), "--delta", "0", "--out", str(tmp_path / "t.csv")]) == 1
        assert capsys.readouterr().err.startswith("config error: --delta:")

    def test_report_missing_file_is_exit_two(self, tmp_path, capsys):
        code = main(["report", "--in", str(tmp_path / "none.csv"), "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert "io error" in capsys.readouterr().err


class TestProcessEntry:
    @pytest.mark.parametrize(
        "grid, key",
        [
            ({"n": [12], "epsilon": ["0.1"]}, "grid.epsilon"),
            ({"n": [True]}, "grid.n"),
            # sigma**2 overflows, underflows to 0, or is not finite
            ({"n": [12], "sigma": [1e308]}, "grid.sigma"),
            ({"n": [12], "sigma": [1e-300]}, "grid.sigma"),
            ({"n": [12], "sigma": [math.inf]}, "grid.sigma"),
            # JSON reads 400 digits as an int past the float range
            ({"n": [12], "sigma": [10**400]}, "grid.sigma"),
        ],
    )
    def test_mistyped_grid_entry_is_exit_one_without_traceback(self, tmp_path, grid, key):
        cfg = write_config(tmp_path, grid=grid)
        proc = run_module("simulate", "--config", str(cfg), "--out", str(tmp_path / "r.csv"))
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("config error:") and key in lines[0]

    @pytest.mark.parametrize(
        "model, grid, key",
        [
            ({"kind": "mcar", "theta0": "a"}, {"n": [12]}, "model.theta0"),
            ({"kind": "mcar", "pattern": "banded"}, {"n": [12]}, "model.pattern"),
            ({"kind": "f1_adversary", "a": -1}, {"n": [12], "epsilon": [0.2]}, "model.a"),
            ({"kind": "f1_adversary", "a": 1.0, "law": "f3"}, {"n": [12], "epsilon": [0.2]}, "model.law"),
            ({"kind": "two_point", "r": 1}, {"n": [12], "epsilon": [0.2]}, "model.r"),
            ({"kind": "two_point", "which": "x"}, {"n": [12], "epsilon": [0.2]}, "model.which"),
            (
                {"kind": "realisable", "mechanism": {"name": "threshold_above", "t": "x"}},
                {"n": [12], "epsilon": [0.1]},
                "model.mechanism.t",
            ),
            (
                {"kind": "realisable", "mechanism": {"name": "constant", "c": 2}},
                {"n": [12], "epsilon": [0.1]},
                "model.mechanism.c",
            ),
            (
                {"kind": "realisable", "mechanism": {"name": "custom", "knots": [1, 0], "levels": [0, 1, 1]}},
                {"n": [12], "epsilon": [0.1]},
                "model.mechanism.knots",
            ),
            (
                {"kind": "realisable", "mechanism": {"name": "custom", "knots": [0], "levels": [0.5]}},
                {"n": [12], "epsilon": [0.1]},
                "model.mechanism.levels",
            ),
            (
                {"kind": "realisable", "mechanism": {"name": "custom", "knots": [0.0], "levels": [5.0, -3.0]}},
                {"n": [12], "epsilon": [0.1]},
                "model.mechanism.levels",
            ),
            (
                {"kind": "arbitrary", "contaminant": {"name": "point", "value": "x"}},
                {"n": [12], "epsilon": [0.1]},
                "model.contaminant.value",
            ),
            (
                {"kind": "regression", "theta0": [1.0, "a"]},
                {"n": [12], "d": [2], "epsilon": [0.1], "q": [0.8]},
                "model.theta0",
            ),
            (
                {"kind": "regression", "theta0": [1.0, -1.0], "design": "uniform"},
                {"n": [12], "d": [2], "epsilon": [0.1], "q": [0.8]},
                "model.design",
            ),
            (
                {"kind": "regression", "theta0": [1.0, -1.0], "mechanism2": {"name": "constant", "c": 1.5}},
                {"n": [12], "d": [2], "epsilon": [0.1], "q": [0.8]},
                "model.mechanism2.c",
            ),
            ({"kind": "mcar", "patern": "all_or_nothing"}, {"n": [12]}, "model.patern"),
            # a name that is not a string
            ({"kind": "realisable", "mechanism": {"name": [1]}}, {"n": [12], "epsilon": [0.1]}, "model.mechanism.name"),
            ({"kind": "realisable", "mechanism": {"name": {}}}, {"n": [12], "epsilon": [0.1]}, "model.mechanism.name"),
            ({"kind": "arbitrary", "contaminant": {"name": [1]}}, {"n": [12], "epsilon": [0.1]}, "model.contaminant.name"),
            (
                {"kind": "regression", "theta0": [1.0, -1.0], "mechanism2": {"name": {"a": 1}}},
                {"n": [12], "d": [2], "epsilon": [0.1], "q": [0.8]},
                "model.mechanism2.name",
            ),
        ],
    )
    def test_bad_model_key_is_exit_one_without_traceback(self, tmp_path, model, grid, key):
        estimators = ["ols_observed"] if model["kind"] == "regression" else ["observed_mean"]
        cfg = write_config(tmp_path, model=model, estimators=estimators, grid=grid)
        proc = run_module("simulate", "--config", str(cfg), "--out", str(tmp_path / "r.csv"))
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("config error:") and key in lines[0]

    @pytest.mark.parametrize(
        "model, estimators, d",
        [
            ({"kind": "mcar"}, ["complete_case_mean"], 17),
            ({"kind": "mcar", "pattern": "all_or_nothing"}, ["min_kolmogorov_multi"], 9),
        ],
    )
    def test_too_large_d_is_exit_one_without_traceback(self, tmp_path, model, estimators, d):
        cfg = write_config(tmp_path, model=model, estimators=estimators, grid={"n": [12], "d": [d]})
        proc = run_module("simulate", "--config", str(cfg), "--out", str(tmp_path / "r.csv"))
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"config error: grid.d = {d} is too large")
        assert not (tmp_path / "r.csv").exists()

    def test_multi_mk_on_partly_observed_arbitrary_rows_is_exit_one_without_traceback(self, tmp_path):
        cfg = write_config(
            tmp_path,
            model={"kind": "arbitrary"},
            estimators=["min_kolmogorov_multi"],
            grid={"n": [12], "d": [2], "epsilon": [0.1], "q": [0.8]},
        )
        proc = run_module("simulate", "--config", str(cfg), "--out", str(tmp_path / "r.csv"))
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("config error:")
        assert "needs all-or-nothing missingness" in lines[0] and "model kind 'arbitrary'" in lines[0]
        assert not (tmp_path / "r.csv").exists()

    def test_module_invocation(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "data"
        out.mkdir()
        proc = run_module("generate", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0
        assert "wrote 2 datasets" in proc.stdout

    def test_zero_delta_flag_is_exit_one_without_traceback(self, tmp_path):
        cfg = write_config(tmp_path, reps=1)
        out = tmp_path / "data"
        assert run_module("generate", "--config", str(cfg), "--out", str(out)).returncode == 0
        data = out / "mcar_gaussian_c000_r000.tsv"
        proc = run_module("estimate", "--estimator", "median_of_means", "--data", str(data), "--delta", "0")
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("config error: --delta:")


# ---------------------------------------------------------------------------
# no traceback by construction: one hostile key or flag at a time


def _fuzz_config(model, estimators, **grid):
    return {
        "model": model,
        "estimators": estimators,
        "grid": {"n": [8], "d": [1], "epsilon": [0.1], "q": [0.8], "sigma": [1.0], **grid},
        "reps": 1,
        "delta": 0.1,
        "seed": 3,
    }


# one tiny valid config per branch of the harness key tables; together they spell out every key
_FUZZ_CONFIGS = {
    "mcar": _fuzz_config(
        {"kind": "mcar", "theta0": 0.0, "pattern": "independent"},
        ["observed_mean", "median_of_means", "trimmed_mean", "min_kolmogorov"],
        epsilon=[0.0],
    ),
    "realisable": _fuzz_config(
        {"kind": "realisable", "theta0": 0.0, "mechanism": {"name": "threshold_above", "t": 0.0}},
        ["average_of_extremes", "min_kolmogorov"],
    ),
    "realisable_custom": _fuzz_config(
        {"kind": "realisable", "mechanism": {"name": "custom", "knots": [0.0], "levels": [0.2, 1.0]}},
        ["complete_case_mean", "robust_descent"],
    ),
    "arbitrary": _fuzz_config(
        {"kind": "arbitrary", "theta0": 0.0, "contaminant": {"name": "point", "value": [1.0, 1.0]}},
        ["complete_case_mean", "robust_descent"],
        d=[2],
    ),
    "realisable_constant": _fuzz_config(
        {"kind": "realisable", "mechanism": {"name": "constant", "c": 0.5}}, ["observed_mean", "trimmed_mean"]
    ),
    "realisable_threshold_below": _fuzz_config(
        {"kind": "realisable", "mechanism": {"name": "threshold_below", "t": 0.5}}, ["median_of_means"]
    ),
    "realisable_tails_only": _fuzz_config(
        {"kind": "realisable", "mechanism": {"name": "tails_only", "t": 1.0}}, ["average_of_extremes"]
    ),
    "arbitrary_all_star": _fuzz_config(
        {"kind": "arbitrary", "contaminant": {"name": "all_star"}}, ["min_kolmogorov_multi"], d=[2], q=[1.0]
    ),
    "f1_adversary": _fuzz_config(
        {"kind": "f1_adversary", "law": "f1", "a": 1.0}, ["observed_mean", "median_of_means"]
    ),
    "two_point": _fuzz_config({"kind": "two_point", "r": 2.0, "which": 2}, ["trimmed_mean"]),
    "regression": _fuzz_config(
        {
            "kind": "regression",
            "theta0": [1.0, -1.0],
            "design": "gaussian",
            "mechanism2": {"name": "constant", "c": 0.5},
        },
        ["ols_observed"],
        d=[2],
    ),
    "regression_residual_above": _fuzz_config(
        {"kind": "regression", "theta0": [0.5, 1.0], "mechanism2": {"name": "residual_above"}}, ["ks_regression"], d=[2]
    ),
}


def _key_paths(section, prefix=""):
    for key, value in section.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + key + ".")


_FUZZ_KEYS = [(label, path) for label, cfg in _FUZZ_CONFIGS.items() for path in _key_paths(cfg)]


def _table_keys(path, tag, table):
    """(section path, branch, key) of every key a harness key table reads, its tag among them."""
    for branch, keys in table.items():
        yield path, branch, tag
        for key, (_, test, _) in keys.items():
            yield path, branch, key
            if isinstance(test, dict):  # a nested section
                yield from _table_keys(f"{path}.{key}", "name", test)


def test_fuzz_keys_reach_every_key_of_the_key_tables():
    """Every key of every branch is mutated by some fuzz case, so a key added to a table is fuzzed too."""
    reached = set()
    for label, path in _FUZZ_KEYS:
        *parents, key = path.split(".")
        if parents[:1] == ["model"]:
            section = _FUZZ_CONFIGS[label]
            for part in parents:
                section = section[part]
            reached.add((".".join(parents), section["kind" if parents == ["model"] else "name"], key))
    missing = set(_table_keys("model", "kind", _KINDS)) - reached
    assert not missing, sorted(missing)


def test_readme_scenario_configs_name_every_branch_and_key():
    """The documented config surface cannot drift from the key tables the harness reads."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Scenario configs", 1)[1].split("\n## ", 1)[0]
    names = {name for _, branch, key in _table_keys("model", "kind", _KINDS) for name in (branch, key)}
    missing = sorted(name for name in names if f"`{name}`" not in section)
    assert not missing, f"README's Scenario configs section does not name {missing}"


_DELETE = "<key deleted>"
# hostile JSON values; json.dumps writes the non-finite floats as Infinity and NaN, which json.load reads back
_HOSTILE = [
    _DELETE, None, True, False, "x", "", [], {}, 0, -1, 2, 0.5, 1e-320, 1e308, -1e308,
    math.inf, -math.inf, math.nan, 10**400, [[1.0]], [None], ["x"], [0], [-1], [1e-320],
    [1e308], [math.inf], [math.nan], {"name": [1]}, {"name": {}}, {"name": "x"},
]
# flag values that argparse's float() parses, among them the overflow and underflow spellings
_FLOAT_TEXT = st.one_of(
    st.sampled_from(["0", "-0", "1", "-1", "2", "1e-320", "5e-324", "1e308", "1e400", "1e-400", "inf", "nan"]),
    st.floats().map(repr),
)
_FLAGS = ("--epsilon", "--q", "--sigma", "--delta")

_config_cases = st.tuples(
    st.sampled_from(["simulate", "generate"]), st.sampled_from(_FUZZ_KEYS), st.sampled_from(_HOSTILE)
)
# one flag=value token, so that argparse reads a value such as -1e+16 as the flag's value
_flag = partial("{}={}".format)
_estimate_cases = st.tuples(
    st.just("estimate"),
    st.sampled_from(ESTIMATORS),
    st.one_of(
        st.builds(_flag, st.sampled_from(_FLAGS), _FLOAT_TEXT),
        st.builds(_flag, st.just("--seed"), st.integers()),
    ),
)
_report_cases = st.tuples(st.just("report"), st.just(None), st.builds(_flag, st.just("--delta"), _FLOAT_TEXT))


def _mutated(label, path, value):
    cfg = copy.deepcopy(_FUZZ_CONFIGS[label])
    *parents, key = path.split(".")
    section = cfg
    for part in parents:
        section = section[part]
    if value == _DELETE:
        del section[key]
    else:
        section[key] = value
    return cfg


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A dataset dump and a results CSV for the estimate and report cases."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(_FUZZ_CONFIGS["mcar"]))
    assert main(["generate", "--config", str(cfg), "--out", str(root / "data")]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(root / "results.csv")]) == 0
    return root / "data" / "mcar_gaussian_c000_r000.tsv", root / "results.csv"


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(case=st.one_of(_config_cases, _estimate_cases, _report_cases))
@example(case=("simulate", ("mcar", "delta"), 1e-320)).via("OverflowError from ceil(log(2/delta)) in _mom_blocks")
@example(case=("simulate", ("realisable_custom", "delta"), 1e-320)).via(
    "OverflowError from ceil(log(2/delta)) in robust_descent"
)
@example(case=("estimate", "median_of_means", "--delta=1e-320")).via("OverflowError in _mom_blocks")
@example(case=("simulate", ("realisable", "model.mechanism.name"), [1])).via("TypeError: unhashable type: 'list'")
@example(case=("generate", ("realisable", "model.mechanism.name"), {})).via("TypeError: unhashable type: 'dict'")
# Gaussian.univariate's OverflowError for such a sigma was a library-only traceback; both paths here refuse it
@example(case=("simulate", ("mcar", "grid.sigma"), [1e200])).via("sigma whose square overflows, in a config")
@example(case=("estimate", "min_kolmogorov", "--sigma=1e200")).via("sigma whose square overflows, as a flag")
# sizes past numpy's index range, and a run that never ends; each is now capped in the config
@example(case=("simulate", ("mcar", "grid.n"), [10**400])).via("ValueError: Maximum allowed dimension exceeded")
@example(case=("simulate", ("mcar", "grid.d"), [10**400])).via("ValueError: Maximum allowed dimension exceeded")
@example(case=("generate", ("mcar", "reps"), 10**400)).via("generate writes dumps until it is killed")
def test_one_hostile_key_or_flag_never_raises_out_of_main(fuzz_inputs, tmp_path_factory, case):
    """``main`` returns 0, 1 or 2 whatever one config key or CLI flag holds."""
    command, target, change = case
    data, results = fuzz_inputs
    out = tmp_path_factory.mktemp("out")
    if command == "estimate":
        argv = ["estimate", "--estimator", target, "--data", str(data), change]
    elif command == "report":
        argv = ["report", "--in", str(results), "--out", str(out / "t.csv"), change]
    else:
        (label, path), value = target, change
        cfg = out / "config.json"
        cfg.write_text(json.dumps(_mutated(label, path, value)))
        argv = [command, "--config", str(cfg), "--out", str(out / ("r.csv" if command == "simulate" else "data"))]
    assert main(argv) in (0, 1, 2)
