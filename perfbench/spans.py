"""In-memory spans around the calls into each library layer.

``Tracer.installed()`` replaces the public functions of each module, at the
attribute their callers look up, with wrappers that record a span (name,
start, end, parent span, task id and a work count) and restores them on
exit.  The library itself carries no spans.  Spans are only recorded in the
calling process, so a traced scenario must run serially.

A span's self time is its duration minus the durations of its child spans,
so the self times of all spans add up to the wall time of the root spans.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter

from missingrobust import harness, kolmogorov, models, multivariate, regression, rng, univariate

# Span fields: name, start, end, parent index (-1 for a root), task id, count.
NAME, START, END, PARENT, TASK, COUNT = range(6)

_SIMPLE = ("observed_mean", "average_of_extremes", "median_of_means", "trimmed_mean")

# (owner, attribute, span name, count of work done by the call)
_TARGETS = [
    (rng.Stream, "uniforms", "rng.uniforms", lambda args, result: len(result)),
    (models.ContaminationSpec, "sample", "models.sample", None),
    (models.AdversaryLaw, "sample", "models.sample", None),
    (harness, "sample_regression", "models.sample", None),
    (kolmogorov.EmpiricalSummary, "__init__", "kolmogorov.summary", None),
    (kolmogorov.EmpiricalSummary, "from_sample", "kolmogorov.summary", None),
    (kolmogorov.ChainBounds, "from_data", "kolmogorov.chain_bounds", None),
    (univariate, "dist_to_realisable_batch", "kolmogorov.batch", lambda args, result: len(args[0])),
    (univariate, "dist_to_realisable", "kolmogorov.dist", None),
    (regression, "dist_to_realisable_sym", "kolmogorov.sym", None),
    (harness, "mk_estimate", "univariate.mk", None),
    (multivariate, "mk_estimate", "univariate.mk", None),
    *((harness, name, "univariate.simple", None) for name in _SIMPLE),
    (harness, "multivariate_mk", "multivariate.mmk", None),
    (multivariate, "quarter_net", "multivariate.net", lambda args, result: len(result)),
    (harness, "robust_descent", "multivariate.descent", None),
    (harness, "ks_regression_estimate", "regression.fit", None),
    (harness, "run_estimator", "harness.run_estimator", None),
    (harness, "_run_task", "harness.task", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._task = -1

    def call(self, name: str, fn, args=(), kwargs=None, count=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        if name == "harness.task":
            self._task += 1
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._task, None]
        self.spans.append(span)
        self._stack.append(idx)
        span[START] = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span[END] = perf_counter()
            self._stack.pop()
        if count is not None:
            span[COUNT] = count(args, result)
        return result

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, count in _TARGETS:
                raw = vars(owner)[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, staticmethod):
                    setattr(owner, attr, staticmethod(self._wrap(name, raw.__func__, count)))
                else:
                    setattr(owner, attr, self._wrap(name, raw, count))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)


def self_times(spans) -> list[float]:
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _tail(values_ms: list[float]) -> tuple[float, float]:
    """Highest percentile in (99, 90, 75, 50) with at least ten samples beyond it."""
    for pct in (99.0, 90.0, 75.0, 50.0):
        if len(values_ms) * (1.0 - pct / 100.0) >= 10:
            return pct, statistics.quantiles(values_ms, n=100, method="inclusive")[int(pct) - 1]
    return 100.0, max(values_ms, default=0.0)


def layer_metrics(spans) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, plus extras.

    Every ``*_s`` metric is the summed self time of the named spans.
    """
    own = self_times(spans)
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    work: dict[str, int] = {}
    latency: dict[str, list[float]] = {}
    for s, t in zip(spans, own):
        name = s[NAME]
        busy[name] = busy.get(name, 0.0) + t
        calls[name] = calls.get(name, 0) + 1
        work[name] = work.get(name, 0) + (s[COUNT] or 0)
        latency.setdefault(name, []).append(1e3 * (s[END] - s[START]))

    # scalar distance calls made from inside mk_estimate
    dist_in_mk = sum(
        1 for s in spans if s[NAME] == "kolmogorov.dist" and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "univariate.mk"
    )
    mk_ms = latency.get("univariate.mk", [])
    tail_pct, tail_ms = _tail(mk_ms)
    mk_calls = calls.get("univariate.mk", 0)
    fit_calls = calls.get("regression.fit", 0)
    net_calls = calls.get("multivariate.net", 0)

    def p50(name):
        return statistics.median(latency[name]) if name in latency else 0.0

    metrics = {
        "rng.uniforms": work.get("rng.uniforms", 0),
        "rng.busy_s": busy.get("rng.uniforms", 0.0),
        "models.sample_s": busy.get("models.sample", 0.0),
        "kolmogorov.batch_calls": calls.get("kolmogorov.batch", 0),
        "kolmogorov.batch_rows": work.get("kolmogorov.batch", 0),
        "kolmogorov.batch_s": busy.get("kolmogorov.batch", 0.0),
        "kolmogorov.dist_calls": calls.get("kolmogorov.dist", 0),
        "kolmogorov.dist_s": busy.get("kolmogorov.dist", 0.0),
        "kolmogorov.sym_calls": calls.get("kolmogorov.sym", 0),
        "kolmogorov.sym_s": busy.get("kolmogorov.sym", 0.0),
        "kolmogorov.chain_bounds_s": busy.get("kolmogorov.chain_bounds", 0.0),
        "kolmogorov.summary_s": busy.get("kolmogorov.summary", 0.0),
        "univariate.mk_calls": mk_calls,
        "univariate.mk_ms_p50": p50("univariate.mk"),
        "univariate.mk_ms_tail": tail_ms,
        "univariate.mk_self_s": busy.get("univariate.mk", 0.0),
        "univariate.dist_evals_per_mk": dist_in_mk / mk_calls if mk_calls else 0.0,
        "univariate.simple_s": busy.get("univariate.simple", 0.0),
        "multivariate.net_calls": net_calls,
        "multivariate.net_s": busy.get("multivariate.net", 0.0),
        "multivariate.net_size": work.get("multivariate.net", 0) / net_calls if net_calls else 0.0,
        "multivariate.mmk_ms_p50": p50("multivariate.mmk"),
        "multivariate.mmk_self_s": busy.get("multivariate.mmk", 0.0),
        "multivariate.descent_s": busy.get("multivariate.descent", 0.0),
        "regression.fit_calls": fit_calls,
        "regression.fit_ms_p50": p50("regression.fit"),
        "regression.sym_evals_per_fit": calls.get("kolmogorov.sym", 0) / fit_calls if fit_calls else 0.0,
        "regression.self_s": busy.get("regression.fit", 0.0),
        "harness.tasks": calls.get("harness.task", 0),
        # time in harness code: the scenario loop, the task body and the estimator adapters
        "harness.self_s": sum(busy.get(k, 0.0) for k in ("harness.run_scenario", "harness.task", "harness.run_estimator")),
        "harness.csv_write_s": busy.get("harness.csv_write", 0.0),
    }
    extra = {
        "univariate.mk_tail_pct": tail_pct,
        "harness.task_busy_s": sum(s[END] - s[START] for s in spans if s[NAME] == "harness.task"),
    }
    return metrics, extra
