"""Tests of the benchmark itself: gate, tracing, verdict rule and the command.

    python3 -m pytest perfbench/tests

Seed 29 maps to reference slot 13, which was not used while tuning the
benchmark.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compare
import gate
import spans
from workloads import WORKLOADS, config_dict, slot_of

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNSEEN_SEED = 29


def _bench(*args, cwd=ROOT):
    cmd = [*SPEC["command"], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=200)


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _pass(workload, seed, tmp_path):
    from missingrobust.harness import ScenarioConfig, run_scenario, write_records_csv

    records = run_scenario(ScenarioConfig.from_dict(config_dict(workload, seed)))
    path = tmp_path / "results.csv"
    write_records_csv(records, path)
    return records, path.read_bytes()


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_gate_fails_on_a_wrong_batch_distance(monkeypatch, tmp_path):
    import missingrobust.univariate as univariate

    workload = WORKLOADS["adversary_mk"]
    ref = gate.load_reference(workload, slot_of(0))
    monkeypatch.setattr(univariate, "dist_to_realisable_batch", lambda F, *a, **k: np.zeros(len(F)))
    problems = gate.check(workload, ref, *_pass(workload, 0, tmp_path))
    assert any("min_kolmogorov" in p for p in problems)
    assert not any("observed_mean" in p for p in problems)


def test_gate_fails_on_changed_csv_bytes(tmp_path):
    workload = WORKLOADS["mcar_pool"]
    ref = gate.load_reference(workload, 0)
    entry = dict(ref, csv_sha256="0" * 64)
    records, data = _pass(workload, 0, tmp_path)
    assert gate.check(workload, ref, records, data) == []
    assert gate.check(workload, entry, records, data)


def test_unseen_seed_passes_with_every_end_to_end_metric():
    proc = _bench("--workload", "regression_mnar", "--seed", str(UNSEEN_SEED), "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    proc = _bench("--workload", "regression_mnar", "--seed", str(UNSEEN_SEED), "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = _result(proc)["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert metrics["regression.fit_calls"]["value"] == WORKLOADS["regression_mnar"].reps
    assert metrics["kolmogorov.batch_calls"]["value"] == 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "adversary_mk", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_a_run_that_times_out_counts_as_failing_the_gate(monkeypatch):
    def overrun(cmd, **kwargs):
        raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])

    monkeypatch.setattr(compare.subprocess, "run", overrun)
    result = compare.run_once(ROOT, SPEC, "adversary_mk", 0, False)
    assert result == {"correct": False, "exit_code": None}


def test_self_times_add_up_to_the_root_span():
    tracer = spans.Tracer()

    def leaf():
        return sum(range(1000))

    def middle():
        return tracer.call("leaf", leaf) + tracer.call("leaf", leaf)

    tracer.call("root", lambda: tracer.call("middle", middle))
    own = spans.self_times(tracer.spans)
    root = tracer.spans[0]
    assert sum(own) == pytest.approx(root[spans.END] - root[spans.START], rel=1e-9)
    assert [s[spans.PARENT] for s in tracer.spans] == [-1, 0, 1, 1]


def test_verdict_rule():
    faster = {"name": "records_per_s", "better": "higher", "bound": 0.1}
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    assert compare.judge(faster, parent, [x * 1.2 for x in parent])["status"] == "gain"
    assert compare.judge(faster, parent, [x * 0.8 for x in parent])["status"] == "regression"
    assert compare.judge(faster, parent, [x * 0.97 for x in parent])["status"] == "within bound"
    noisy = [50.0, 150.0] * 5
    assert compare.judge(faster, noisy, [x * 0.95 for x in noisy])["status"] == "unresolved"
