"""Smoke tests for the scripts under ``scripts/``, so a harness API change breaks here."""

import importlib.util
from pathlib import Path

from missingrobust import read_records_csv

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_rate_separation_prints_and_writes_both_scenarios(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("rate_separation", SCRIPTS / "rate_separation.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--n", "50", "100", "--reps", "2", "--out-dir", str(tmp_path)]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    # 3 estimators x 2 sizes per scenario
    assert sum(row.startswith("f1_adversary:") for row in rows) == 6
    assert sum(row.startswith("two_point:") for row in rows) == 6
    for name in ("adversary", "two_point"):
        assert len(read_records_csv(tmp_path / f"{name}_records.csv")) == 12
        assert len((tmp_path / f"{name}_table.csv").read_text().splitlines()) == 1 + 6
