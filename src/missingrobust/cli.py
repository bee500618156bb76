"""Command-line surface: generate, estimate, simulate, report.

Exit codes: 0 on success, 1 for configuration problems (bad JSON, unknown
keys or names, incompatible estimator/model pairs), 2 for numeric or data
failures during a run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .errors import _NUMERIC_ERRORS, ConfigError
from .harness import (
    ESTIMATORS,
    EstimatorContext,
    ScenarioConfig,
    _check_range,
    generate_datasets,
    rate_table,
    read_records_csv,
    run_estimator,
    run_scenario,
    write_records_csv,
    write_table_csv,
)
from .models import read_dataset

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="missingrobust", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write dataset dumps for every grid cell and rep")
    g.add_argument("--config", required=True)
    g.add_argument("--out", required=True, help="output directory")

    e = sub.add_parser("estimate", help="run one estimator on a dataset dump")
    e.add_argument("--estimator", required=True, choices=ESTIMATORS)
    e.add_argument("--data", required=True)
    e.add_argument("--epsilon", type=float, default=0.0)
    e.add_argument("--q", type=float, default=1.0)
    e.add_argument("--sigma", type=float, default=1.0)
    e.add_argument("--delta", type=float, default=0.1)
    e.add_argument("--seed", type=int, default=0)

    s = sub.add_parser("simulate", help="run a scenario config to a results CSV")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--workers", type=int, default=None)

    r = sub.add_parser("report", help="summarise a results CSV into a rate table")
    r.add_argument("--in", dest="infile", required=True)
    r.add_argument("--delta", type=float, default=0.1)
    r.add_argument("--out", required=True)
    return p


def _cmd_generate(args) -> int:
    cfg = ScenarioConfig.from_json(args.config)
    os.makedirs(args.out, exist_ok=True)
    paths = generate_datasets(cfg, args.out)
    print(f"wrote {len(paths)} datasets to {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    for flag in ("epsilon", "q", "sigma", "delta"):
        _check_range(flag, getattr(args, flag), f"--{flag}")
    sample, meta = read_dataset(args.data)
    ctx = EstimatorContext(args.epsilon, args.q, args.sigma, args.delta, args.seed)
    t0 = time.perf_counter()
    try:
        est = run_estimator(args.estimator, sample, ctx)
    except ConfigError as e:  # a dump whose layout the estimator cannot read
        raise ConfigError(f"{args.data}: {e}") from None
    runtime_ms = 1000.0 * (time.perf_counter() - t0)
    out = {
        "estimate": [float(v) for v in est],
        "diagnostics": {
            "estimator": args.estimator,
            "n": sample.n,
            "source": str(args.data),
            "model": meta.get("model"),
            "runtime_ms": runtime_ms,
        },
    }
    print(json.dumps(out))
    return 0


def _cmd_simulate(args) -> int:
    if args.workers is not None and args.workers < 1:
        raise ConfigError(f"--workers: expected an int >= 1, got {args.workers}")
    cfg = ScenarioConfig.from_json(args.config)
    records = run_scenario(cfg, workers=args.workers)
    write_records_csv(records, args.out)
    failures = sum(1 for r in records if r.sq_error is None)
    print(f"wrote {len(records)} records to {args.out} ({failures} failures)")
    return 0


def _cmd_report(args) -> int:
    _check_range("delta", args.delta, "--delta")
    records = read_records_csv(args.infile)
    if not records:
        raise ConfigError(f"{args.infile}: no records")
    rows = rate_table(records, delta=args.delta)
    write_table_csv(rows, args.out)
    print(f"wrote {len(rows)} table rows to {args.out}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "estimate": _cmd_estimate,
    "simulate": _cmd_simulate,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except _NUMERIC_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
