"""Benchmark worker process; ``run.py`` starts it, one process per measurement.

    python3 perfbench/measure.py setup WORKLOAD SEED
        prints the seconds taken by ``import missingrobust`` plus
        ``ScenarioConfig.from_dict`` of the workload config.

    python3 perfbench/measure.py run WORKLOAD SEED SECONDS TRACE
        repeats timed passes (``run_scenario`` + ``write_records_csv``) for
        about SECONDS, gates the results against the reference and prints
        one JSON line.  TRACE=1 alternates untraced passes with serial
        traced passes and reports per-layer metrics instead.

The library must be importable (``run.py`` puts the checkout's ``src`` on
PYTHONPATH).
"""

from __future__ import annotations

import sys
import time

from workloads import WORKLOADS, config_dict, slot_of


def setup(workload, seed: int) -> None:
    t0 = time.perf_counter()
    from missingrobust.harness import ScenarioConfig

    ScenarioConfig.from_dict(config_dict(workload, seed))
    print(repr(time.perf_counter() - t0))


def _timed_pass(config, workers, csv_path, tracer=None):
    """One ``run_scenario`` + ``write_records_csv`` pass; returns (records, bytes, wall seconds)."""
    from missingrobust.harness import run_scenario, write_records_csv

    t0 = time.perf_counter()
    if tracer is None:
        records = run_scenario(config, workers=workers)
        write_records_csv(records, csv_path)
    else:
        records = tracer.call("harness.run_scenario", run_scenario, (config,))
        tracer.call("harness.csv_write", write_records_csv, (records, csv_path))
    wall = time.perf_counter() - t0
    with open(csv_path, "rb") as fh:
        return records, fh.read(), wall


def _peak_rss_mib() -> float:
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # waited-for children: the pool workers of a pooled run
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run(workload, seed: int, seconds: float, traced: bool, out_dir) -> dict:
    import statistics

    import gate
    from missingrobust.harness import ScenarioConfig

    if traced:
        from spans import Tracer, layer_metrics

    config = ScenarioConfig.from_dict(config_dict(workload, seed))
    ref = gate.load_reference(workload, slot_of(seed))
    csv_path = out_dir / f"{workload.name}-{seed}-{'trace' if traced else 'run'}.csv"

    problems: list[str] = []
    first_bytes = None
    attempted = failed = 0
    walls: dict[str, list[float]] = {"run": [], "pool": [], "traced": []}
    layers: list[dict] = []
    extras: list[dict] = []

    def accept(kind, records, data, wall):
        nonlocal first_bytes, attempted, failed
        if first_bytes is None:
            first_bytes = data
            problems.extend(gate.check(workload, ref, records, data))
        elif data != first_bytes:
            problems.append(f"{kind} pass {len(walls[kind])} wrote different results than the first pass")
        walls[kind].append(wall)
        attempted += len(records)
        failed += sum(r.sq_error is None for r in records)
        return records

    start = time.perf_counter()
    while True:
        t_iter = time.perf_counter()
        # untraced passes use the workload's own worker count; a traced
        # run also times the serial path, which its traced pass is held to
        serial = traced or workload.workers is None
        records = accept(
            "run",
            *_timed_pass(config, None if serial else workload.workers, csv_path),
        )
        if traced:
            if workload.workers:
                accept("pool", *_timed_pass(config, workload.workers, csv_path))
            tracer = Tracer()
            with tracer.installed():
                _, data, wall = _timed_pass(config, None, csv_path, tracer)
            accept("traced", records, data, wall)
            metrics, extra = layer_metrics(tracer.spans)
            layers.append(metrics)
            extras.append(extra)
        # stop before a round that would end after the time budget
        now = time.perf_counter()
        if problems or (now - start) + (now - t_iter) > seconds:
            break
    csv_path.unlink()

    result = {"correct": not problems, "attempted": attempted, "failed": failed, "problems": problems}
    if not traced:
        n_records = len(records)
        result["metrics"] = {
            "records_per_s": statistics.median(n_records / w for w in walls["run"]),
            "peak_rss_mb": _peak_rss_mib(),
            "q90_sq_err_ratio": gate.headline_q90(workload, records) / ref["q90_sq_err"],
            "ok_share": (n_records - sum(r.sq_error is None for r in records)) / n_records,
        }
        result["extra"] = {"passes": len(walls["run"])}
        return result

    # counts repeat exactly between traced passes; times are medians over them
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    for k, v in layers[0].items():
        if isinstance(v, int):
            if any(m[k] != v for m in layers):
                problems.append(f"count {k} differs between traced passes")
            metrics[k] = v
    untraced = statistics.median(walls["run"])
    metrics["trace.overhead_share"] = (statistics.median(walls["traced"]) - untraced) / untraced
    busy = statistics.median(e["harness.task_busy_s"] for e in extras)
    metrics["harness.pool_efficiency"] = (
        busy / (workload.workers * statistics.median(walls["pool"])) if workload.workers else 0.0
    )
    result["correct"] = not problems
    result["metrics"] = metrics
    result["extra"] = {
        "univariate.mk_tail_pct": extras[0]["univariate.mk_tail_pct"],
        "untraced_wall_s": untraced,
        "traced_wall_s": statistics.median(walls["traced"]),
        "passes": len(walls["traced"]),
    }
    return result


def main(argv: list[str]) -> int:
    import json
    from pathlib import Path

    mode, name, seed = argv[0], argv[1], int(argv[2])
    workload = WORKLOADS[name]
    if mode == "setup":
        setup(workload, seed)
        return 0
    seconds, traced = float(argv[3]), argv[4] == "1"
    out_dir = Path(__file__).resolve().parent.parent / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    print(json.dumps(run(workload, seed, seconds, traced, out_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
