"""Repeated runs of the benchmark: steadiness series and parent/change pairs.

    python3 perfbench/compare.py series [--first-seed 0] [--against OLD.json] --out NEW.json
        Runs every workload once on each of 10 seeds in this checkout and
        reports, per end-to-end metric, the median, the quartiles and the
        interquartile spread as a share of the median.  With --against it
        also checks that each median is no worse than OLD's by more than the
        metric's bound.

    python3 perfbench/compare.py pairs PARENT CHANGE --out PAIRS.json
        Runs the benchmark in two checkouts, 10 pairs on seeds 100 to 109,
        alternating which side runs first, plus one traced run per side on
        seed 100, then prints the verdict.

    python3 perfbench/compare.py verdict PAIRS.json
        Prints the verdict of an earlier ``pairs`` run again.

Verdict rule, per workload and end-to-end metric: a gain needs the change to
win at least 9 in 10 pairs (ties count for neither side) and the medians to
differ by more than the parent's interquartile spread.  A metric whose
parent spread exceeds its bound is unresolved, unless every change run
beats every parent run; otherwise it regressed when the change's median is
worse than the parent's by more than the bound.  Both checkouts must hold
identical benchmark files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SERIES_RUNS = 10
PAIRS = 10
PAIRS_FIRST_SEED = 100
# above run.py's own limit on a run, so run.py stops its processes first
RUN_TIMEOUT_S = 200


def load_spec(checkout: Path) -> dict:
    with open(checkout / "BENCHMARK.json") as fh:
        return json.load(fh)


def bench_digest(checkout: Path) -> str:
    spec = load_spec(checkout)
    h = hashlib.sha256((checkout / "BENCHMARK.json").read_bytes())
    for top in spec["paths"]:
        for path in sorted((checkout / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(checkout)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def run_once(checkout: Path, spec: dict, workload: str, seed: int, trace: bool) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(spec["run_seconds"]), "--trace", "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        result = {"correct": False, "exit_code": None}
    else:
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {"correct": False}
        result["exit_code"] = proc.returncode
    print(f"  {checkout.name} {workload} seed {seed}: exit {result['exit_code']}, correct {result['correct']}", flush=True)
    return result


def values(results: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in results]


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def environment() -> dict:
    import numpy
    import scipy

    from run import BLAS_ENV

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_ENV,
        "machine": platform.machine(),
    }


def series(args) -> int:
    spec = load_spec(ROOT)
    names = [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + SERIES_RUNS))
    runs = {name: [run_once(ROOT, spec, name, s, False) for s in seeds] for name in names}
    old = json.loads(Path(args.against).read_text())["summary"] if args.against else {}
    summary, ok = {}, True
    for name in names:
        good = [r for r in runs[name] if r["correct"] and r["exit_code"] == 0]
        ok &= len(good) == len(seeds)
        summary[name] = {}
        if len(good) < 2:
            print(f"{name}: too few correct runs to summarise")
            continue
        for m in spec["end_to_end"]:
            xs = values(good, m["name"])
            q1, med, q3 = quartiles(xs)
            row = {"median": med, "q1": q1, "q3": q3, "spread_share": (q3 - q1) / med, "bound": m["bound"]}
            row["steady"] = row["spread_share"] < m["bound"] / 3
            ok &= row["spread_share"] <= m["bound"]
            line = (f"{name:16s} {m['name']:18s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                    f"spread {row['spread_share']:.4f} (bound {m['bound']}, steady {row['steady']})")
            if name in old:
                was = old[name][m["name"]]["median"]
                worse = (med - was) / was if m["better"] == "lower" else (was - med) / was
                row["worse_than_against"] = worse
                ok &= worse <= m["bound"]
                line += f" vs old {was:.6g}: worse by {worse:+.4f}"
            summary[name][m["name"]] = row
            print(line)
    out = {"environment": environment(), "seeds": seeds, "run_seconds": spec["run_seconds"],
           "summary": summary, "runs": runs}
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    print("all runs correct, spreads within bounds" if ok else "FAILED: a run, a spread or a median is out of bounds")
    return 0 if ok else 1


def judge(metric: dict, parent: list[float], change: list[float]) -> dict:
    lower = metric["better"] == "lower"

    def better(a, b):
        return a < b if lower else a > b

    wins = sum(better(c, p) for p, c in zip(parent, change))
    q1, mp, q3 = quartiles(parent)
    mc = statistics.median(change)
    worse = (mc - mp) / mp if lower else (mp - mc) / mp
    all_better = all(better(c, p) for c in change for p in parent)
    if wins >= 0.9 * len(parent) and abs(mc - mp) > q3 - q1 and better(mc, mp):
        status = "gain"
    elif (q3 - q1) / mp > metric["bound"] and not all_better:
        status = "unresolved"
    elif worse > metric["bound"]:
        status = "regression"
    else:
        status = "within bound"
    return {"status": status, "wins": wins, "pairs": len(parent), "parent_median": mp,
            "parent_q1": q1, "parent_q3": q3, "change_median": mc, "worse_share": worse}


def print_verdict(data: dict) -> int:
    spec = data["spec"]
    bad = False
    for name, sides in data["runs"].items():
        p, c = sides["parent"], sides["change"]
        if not all(r["correct"] for r in p + c):
            print(f"{name}: a run failed the correctness gate")
            bad = True
            continue
        if sum(r["failed"] for r in c) > sum(r["failed"] for r in p):
            print(f"{name}: the change has more failed records than the parent")
            bad = True
        for m in spec["end_to_end"]:
            v = judge(m, values(p, m["name"]), values(c, m["name"]))
            bad |= v["status"] == "regression"
            print(f"{name:16s} {m['name']:18s} {v['status']:12s} parent {v['parent_median']:.6g} "
                  f"[{v['parent_q1']:.6g}, {v['parent_q3']:.6g}] change {v['change_median']:.6g} "
                  f"wins {v['wins']}/{v['pairs']}")
        for side in ("parent", "change"):
            for r in sides.get(f"{side}_trace", []):
                print(f"  {side} trace: " + ", ".join(f"{k}={x['value']:.6g}" for k, x in r.get("metrics", {}).items()))
    return 1 if bad else 0


def pairs(args) -> int:
    parent, change = Path(args.parent).resolve(), Path(args.change).resolve()
    if bench_digest(parent) != bench_digest(change):
        raise SystemExit("the two checkouts hold different benchmark files; copy one side's to the other")
    spec = load_spec(change)
    names = [w["name"] for w in spec["workloads"]]
    runs = {}
    for name in names:
        sides = {"parent": [], "change": []}
        for i in range(PAIRS):
            seed = PAIRS_FIRST_SEED + i
            order = (("parent", parent), ("change", change))
            for side, checkout in order if i % 2 == 0 else order[::-1]:
                sides[side].append(run_once(checkout, spec, name, seed, False))
        # per-layer metrics show where a difference comes from
        sides["parent_trace"] = [run_once(parent, spec, name, PAIRS_FIRST_SEED, True)]
        sides["change_trace"] = [run_once(change, spec, name, PAIRS_FIRST_SEED, True)]
        runs[name] = sides
    data = {"environment": environment(), "spec": spec, "parent": str(parent), "change": str(change), "runs": runs}
    Path(args.out).write_text(json.dumps(data, indent=1) + "\n")
    return print_verdict(data)


def main(argv=None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("series")
    s.add_argument("--first-seed", type=int, default=0)
    s.add_argument("--against")
    s.add_argument("--out", required=True)
    p = sub.add_parser("pairs")
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--out", required=True)
    v = sub.add_parser("verdict")
    v.add_argument("file")
    args = parser.parse_args(argv)
    if args.mode == "series":
        return series(args)
    if args.mode == "pairs":
        return pairs(args)
    return print_verdict(json.loads(Path(args.file).read_text()))


if __name__ == "__main__":
    sys.exit(main())
