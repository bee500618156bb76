"""Scenario benchmark of missingrobust: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src``.
With ``--trace 0`` it prints the end-to-end metrics: set-up time (median of
fresh-process probes, half before and half after the timed passes), scenario
throughput, peak RSS, the headline error
quantile relative to the seed-commit reference and the share of records that
are not NA.  With ``--trace 1`` it prints the per-layer metrics of serial
traced passes.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 0 only when the correctness gate passed.

BLAS pools are pinned to one thread, so a 2-worker pool uses at most two
CPUs.  See README.md for the workloads, metrics and gate.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# timed set-up probes on each side of the timed passes
SETUP_PROBES_EACH_SIDE = 6
# every process of a run must have ended by this many seconds after its start
RUN_LIMIT_S = 170

with open(ROOT / "BENCHMARK.json") as _fh:
    _SPEC = json.load(_fh)
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}


def _run(args: list[str], deadline: float) -> str:
    """Run a worker in its own session; stop the whole group if it overruns the deadline."""
    timeout = max(deadline - time.monotonic(), 0.0)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_ENV)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "measure.py"), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        start_new_session=True,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: {' '.join(args)} did not end within the run's {RUN_LIMIT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {' '.join(args)} exited with code {proc.returncode}")
    return out.strip().splitlines()[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "missingrobust" / "__init__.py").is_file():
        print(f"perfbench: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    common = [args.workload, str(args.seed)]

    def setup_probes():
        return [float(_run(["setup", *common], deadline)) for _ in range(SETUP_PROBES_EACH_SIDE)]

    probes = []
    if not args.trace:
        _run(["setup", *common], deadline)  # warm-up: byte-compiles and fills the file cache
        probes += setup_probes()
    worker = json.loads(_run(["run", *common, repr(args.seconds), str(args.trace)], deadline))
    metrics = {}
    if not args.trace:
        probes += setup_probes()
        metrics["setup_s"] = statistics.median(probes)
    metrics.update(worker["metrics"])

    for problem in worker["problems"]:
        print(f"gate: {problem}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {UNITS[name]}")
    for name, value in worker.get("extra", {}).items():
        print(f"{name:32s} {value:14.6g} (info)")
    result = {
        "correct": worker["correct"],
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if worker["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
