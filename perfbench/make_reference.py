"""Write the correctness-gate reference of each workload, for every seed slot.

    PYTHONPATH=src OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 \\
        python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each slot's scenario serially and stores what ``gate.summarize``
keeps.  For a pooled workload it also runs the pool and requires the same
CSV bytes.  The committed reference was made at the commit that added the
benchmark; regenerate it only in a change that says why results moved.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
from workloads import SLOTS, WORKLOADS, config_dict  # noqa: E402


def main(names: list[str]) -> int:
    from missingrobust.harness import ScenarioConfig, run_scenario, write_records_csv

    gate.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        slots = {}
        with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
            csv_path = Path(tmp) / "results.csv"
            for slot in range(SLOTS):
                config = ScenarioConfig.from_dict(config_dict(workload, slot))
                records = run_scenario(config)
                write_records_csv(records, csv_path)
                data = csv_path.read_bytes()
                if workload.workers:
                    write_records_csv(run_scenario(config, workers=workload.workers), csv_path)
                    if csv_path.read_bytes() != data:
                        raise SystemExit(f"{name} slot {slot}: pooled results differ from serial")
                slots[str(slot)] = gate.summarize(workload, records, data)
                print(f"{name} slot {slot}: {len(records)} records", flush=True)
        with open(gate.REFERENCE_DIR / f"{name}.json", "w") as fh:
            json.dump({"workload": name, "slots": slots}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
