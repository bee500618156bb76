"""Correctness gate: compare one pass's results with the seed-commit reference.

The reference for a workload holds, per seed slot, every (estimator, n, rep)
key with its ``sq_error`` (None for NA), the headline error quantile, and for
byte-exact workloads the SHA-256 of the results CSV.  ``make_reference.py``
writes it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import EXACT, Workload

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def headline_q90(workload: Workload, records) -> float:
    """``rate_table(delta=0.1)`` quantile of the headline estimator at the largest n."""
    from missingrobust.harness import rate_table

    n_max = max(workload.grid["n"])
    rows = [
        r
        for r in rate_table(records, delta=0.1)
        if r["estimator"] == workload.headline and r["n"] == n_max
    ]
    if len(rows) != 1 or rows[0]["quantile"] is None:
        raise ValueError(f"no {workload.headline} quantile at n = {n_max}")
    return rows[0]["quantile"]


def summarize(workload: Workload, records, csv_bytes: bytes) -> dict:
    """The reference entry for one slot."""
    entry = {"records": len(records), "q90_sq_err": headline_q90(workload, records)}
    if workload.exact_csv:
        entry["csv_sha256"] = hashlib.sha256(csv_bytes).hexdigest()
    else:
        entry["sq_error"] = [[r.estimator, r.n, r.rep, r.sq_error] for r in records]
    return entry


def load_reference(workload: Workload, slot: int) -> dict:
    path = REFERENCE_DIR / f"{workload.name}.json"
    with open(path) as fh:
        ref = json.load(fh)
    entry = ref["slots"].get(str(slot))
    if entry is None:
        raise KeyError(f"{path} has no slot {slot}")
    return entry


def check(workload: Workload, ref: dict, records, csv_bytes: bytes) -> list[str]:
    """Every way the pass departs from the reference; empty when it passes."""
    problems = []
    if len(records) != ref["records"]:
        problems.append(f"{len(records)} records, reference has {ref['records']}")
    if workload.exact_csv:
        digest = hashlib.sha256(csv_bytes).hexdigest()
        if digest != ref["csv_sha256"]:
            problems.append(f"results CSV sha256 {digest} != reference {ref['csv_sha256']}")
        return problems

    got = {(r.estimator, r.n, r.rep): r.sq_error for r in records}
    for est, n, rep, want in ref["sq_error"]:
        key = (est, n, rep)
        if key not in got:
            problems.append(f"missing record {key}")
            continue
        have = got.pop(key)
        if (have is None) != (want is None):
            problems.append(f"{key}: NA pattern differs (got {have}, reference {want})")
        elif want is not None:
            rtol, atol = workload.tolerance.get(est, EXACT)
            if not abs(have - want) <= atol + rtol * abs(want):
                problems.append(f"{key}: sq_error {have!r} vs reference {want!r} (rtol {rtol}, atol {atol})")
    problems.extend(f"unexpected record {key}" for key in sorted(got))
    return problems
