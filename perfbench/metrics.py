"""End-to-end and per-layer metrics from one run's measurements.

Per-layer seconds are per series unless the name says otherwise: the
optimizer's figures are per self-weighted fit, ``fit_self_weighted`` per
fit and ``local_qmele_step`` per step. Counts come from the workload's
quota of series, which every run completes, so they repeat exactly for a
seed; seconds come from the whole run.
"""

import math
import statistics

from tracing import LAYERS

PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def tail(samples):
    """The highest listed percentile with at least ten samples beyond it.

    Returns (percentile, nearest-rank value), or None when fewer than ten
    samples lie beyond even the median.
    """
    xs = sorted(samples)
    n = len(xs)
    best = None
    for p in PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            best = (p, xs[rank - 1])
    return best


class Missing(Exception):
    """A metric that cannot be computed, with the reason."""


def _ratio(num, den, what):
    if den == 0:
        raise Missing(f"no {what} observed")
    return num / den


# name -> (unit, layers it needs, formula). `c` holds the counts at the
# quota, `f` the whole run; `q` has series/quota_series/series_wall_s/
# top_s/wrapper_cost_s.
PER_LAYER = {
    "estimation.optimizer.starts": ("count", ["estimation.optimizer", "estimation.fit_self_weighted"],
        lambda c, f, q: _ratio(c.calls["estimation.optimizer"], c.calls["estimation.fit_self_weighted"], "fits")),
    "estimation.optimizer.nfev": ("count", ["estimation.optimizer", "estimation.fit_self_weighted"],
        lambda c, f, q: _ratio(c.counters["optimizer.nfev"], c.calls["estimation.fit_self_weighted"], "fits")),
    "estimation.optimizer.nit": ("count", ["estimation.optimizer", "estimation.fit_self_weighted"],
        lambda c, f, q: _ratio(c.counters["optimizer.nit"], c.calls["estimation.fit_self_weighted"], "fits")),
    "estimation.optimizer.s": ("s", ["estimation.optimizer", "estimation.fit_self_weighted"],
        lambda c, f, q: _ratio(f.total_s["estimation.optimizer"], f.calls["estimation.fit_self_weighted"], "fits")),
    "estimation.optimizer.us_per_eval": ("us", ["estimation.optimizer"],
        lambda c, f, q: 1e6 * _ratio(f.total_s["estimation.optimizer"], f.counters["optimizer.nfev"], "evaluations")),
    "estimation.optimizer.success_frac": ("fraction", ["estimation.optimizer"],
        lambda c, f, q: _ratio(c.counters["optimizer.success"], c.calls["estimation.optimizer"], "optimizer runs")),
    "estimation.optimizer.wasted_nfev_frac": ("fraction", ["estimation.optimizer", "estimation.fit_self_weighted"],
        lambda c, f, q: _ratio(c.counters["optimizer.wasted_nfev"], c.counters["optimizer.nfev"], "evaluations")),
    "weights.compute_weights.calls": ("count", ["weights.compute_weights"],
        lambda c, f, q: c.calls["weights.compute_weights"] / q["quota_series"]),
    "weights.compute_weights.s": ("s", ["weights.compute_weights"],
        lambda c, f, q: f.total_s["weights.compute_weights"] / q["series"]),
    "model.filter_series.calls": ("count", ["model.filter_series"],
        lambda c, f, q: c.calls["model.filter_series"] / q["quota_series"]),
    "model.filter_series.s": ("s", ["model.filter_series"],
        lambda c, f, q: f.total_s["model.filter_series"] / q["series"]),
    "model.filter_series.per_local_step": ("count", ["model.filter_series", "estimation.local_qmele_step"],
        lambda c, f, q: _ratio(c.counters["filter_series.in_local_step"],
                               c.calls["estimation.local_qmele_step"], "local steps")),
    "estimation.fit_self_weighted.s": ("s", ["estimation.fit_self_weighted"],
        lambda c, f, q: _ratio(f.total_s["estimation.fit_self_weighted"],
                               f.calls["estimation.fit_self_weighted"], "fits")),
    "estimation.fit_self_weighted.self_s": ("s", ["estimation.fit_self_weighted"],
        lambda c, f, q: _ratio(f.self_s["estimation.fit_self_weighted"],
                               f.calls["estimation.fit_self_weighted"], "fits")),
    "estimation.local_qmele_step.s": ("s", ["estimation.local_qmele_step"],
        lambda c, f, q: _ratio(f.total_s["estimation.local_qmele_step"],
                               f.calls["estimation.local_qmele_step"], "local steps")),
    "estimation.local_qmele_step.shrinks": ("count", ["estimation.local_qmele_step"],
        lambda c, f, q: _ratio(c.counters["local_step.shrinks"],
                               c.calls["estimation.local_qmele_step"], "local steps")),
    "estimation.covariance.s": ("s", ["estimation.covariance"],
        lambda c, f, q: f.total_s["estimation.covariance"] / q["series"]),
    "model.simulate.s": ("s", ["model.simulate"],
        lambda c, f, q: f.total_s["model.simulate"] / q["series"]),
    "diagnostics.s": ("s", ["diagnostics"],
        lambda c, f, q: f.total_s["diagnostics"] / q["series"]),
    "weights.hill_sweep.s": ("s", ["weights.hill_sweep"],
        lambda c, f, q: f.total_s["weights.hill_sweep"] / q["series"]),
    "cli.read_series_csv.s": ("s", ["cli.read_series_csv"],
        lambda c, f, q: f.total_s["cli.read_series_csv"] / q["series"]),
    "reports.write.s": ("s", ["reports.write"],
        lambda c, f, q: f.total_s["reports.write"] / q["series"]),
    "reports.write.bytes": ("bytes", ["reports.write"],
        lambda c, f, q: c.counters["reports.bytes"] / q["quota_series"]),
    "montecarlo.run_replication.s": ("s", ["montecarlo.run_replication"],
        lambda c, f, q: f.total_s["montecarlo.run_replication"] / q["series"]),
    # 0 when the workload runs no pool
    "montecarlo.pool.cpu_util": ("fraction", ["montecarlo.run_scenario"],
        lambda c, f, q: (f.counters["pool.worker_cpu_s"] / f.counters["pool.jobs_wall_s"]
                         if f.counters["pool.jobs_wall_s"] else 0.0)),
    # wrapper cost, measured on a no-op, times the wrapped calls
    "trace.overhead_frac": ("fraction", [],
        lambda c, f, q: f.counters["trace.wrapped_calls"] * q["wrapper_cost_s"] / q["series_wall_s"]),
    # series time in the benchmark's process that no span covers
    "trace.unattributed_s": ("s", [],
        lambda c, f, q: (q["series_wall_s"] - q["top_s"]) / q["series"]),
}


def per_layer(tracer, counts, q):
    """(metrics, missing) for every PER_LAYER name."""
    metrics, missing = {}, {}
    for name, (unit, layers, formula) in PER_LAYER.items():
        gone = [layer for layer in layers if not tracer.layer_present(layer)]
        if gone:
            missing[name] = "wrapped name gone: " + "; ".join(
                f"{t} ({tracer.missing[t]})" for layer in gone for t in LAYERS[layer]
            )
            continue
        try:
            metrics[name] = {"value": float(formula(counts, tracer.stats, q)), "unit": unit}
        except Missing as exc:
            missing[name] = str(exc)
    return metrics, missing


def shares(stats, series_wall_s):
    """Each layer's inclusive seconds as a share of the series wall time."""
    return {k: v / series_wall_s for k, v in sorted(stats.total_s.items())}


def end_to_end(run, outcome, setup_s, peak_rss_mb):
    """(metrics for the final line, the full report including absent ones).

    Times are in multiples of the yardstick task run around each unit
    (unit `ref`), which cancels the host's drift; the same figures in
    seconds are in the report.
    """
    units = run["units"]
    series = sum(n for _, _, n in units)
    in_ref = [s / ref for s, ref in run["series_s"].values()]
    in_s = [s for s, _ in run["series_s"].values()]
    metrics = {
        "series_per_ref": {"value": series / sum(wall / ref for wall, ref, _ in units), "unit": "1/ref"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    report = dict(metrics)
    report["series_ref_p50"] = {"value": statistics.median(in_ref), "unit": "ref"}
    report["series_per_s"] = {"value": series / sum(wall for wall, _, _ in units), "unit": "1/s"}
    report["series_s_p50"] = {"value": statistics.median(in_s), "unit": "s"}
    report["ref_s"] = {"value": statistics.median(ref for _, ref, _ in units), "unit": "s"}
    report["fail_frac"] = {"value": len(outcome.failures) / outcome.attempted, "unit": "fraction"}
    t = tail(in_s)
    if t is None:
        report["series_s_tail"] = {"absent": f"needs >= 20 series, run had {len(in_s)}"}
    else:
        report["series_s_tail"] = {"value": t[1], "unit": "s", "percentile": t[0]}
    report["series_samples"] = len(in_s)
    return metrics, report
