"""Deterministic text/CSV/JSON emission shared by the CLI and tests; every
output file is written by write_text.

All numeric output is fixed at 6 significant digits so repeated runs with
identical inputs produce byte-identical files.
"""

import json
import math
import os
from dataclasses import asdict

import numpy as np


def fmt(x):
    """Format one number at 6 significant digits ('nan', 'inf', '-inf' as is)."""
    return f"{float(x):.6g}"


def round6(x):
    """Round to 6 significant digits (for JSON payloads)."""
    x = float(x)
    if not math.isfinite(x):
        return x
    return float(fmt(x))


def write_text(path, text):
    """Write text as UTF-8 in one write, its newlines as given, making the
    file's directory if it is missing."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def write_csv(path, header, rows):
    """Write a header and rows of already-formatted strings with a fixed
    newline, in one write. rows may also be the body as one string of
    newline-ended lines (series_csv_rows)."""
    if not isinstance(rows, str):
        rows = "".join(",".join(row) + "\n" for row in rows)
    write_text(path, ",".join(header) + "\n" + rows)


def series_csv_rows(values, name="y"):
    """Header and body of a one-column series file. The body formats every
    value as fmt does, in one %-pass over a tuple of floats, so no list or
    string is made per row."""
    values = np.asarray(values, dtype=float).tolist()
    return [name], ("%.6g\n" * len(values)) % tuple(values)


def acf_csv_rows(report):
    rows = [[str(int(lag)), fmt(val), fmt(report.band)] for lag, val in zip(report.lags, report.values)]
    return ["lag", "value", "band"], rows


def hill_csv_rows(report):
    rows = [[str(int(k)), fmt(a)] for k, a in zip(report.k_values, report.alpha_hat)]
    return ["k", "alpha_hat"], rows


def _fit_fields(fit, n_obs):
    """The fields both fit reports give below the estimates, in the text
    report's order."""
    return dict(objective=float(fit.objective_value), g0=float(fit.g0), eta2=float(fit.eta2),
                converged=bool(fit.converged), status=fit.status, iterations=int(fit.iterations),
                n=int(n_obs))


def _json_value(v):
    return round6(v) if isinstance(v, float) else v


def _labelled(fields, width):
    """One line per (label, value) of fields, the label left-aligned in
    width: floats by fmt, bools as true/false, anything else by str."""
    def text(v):
        return fmt(v) if isinstance(v, float) else str(v).lower() if isinstance(v, bool) else str(v)
    return [f"{label:<{width}}{text(v)}" for label, v in fields.items()]


def fit_report_text(fit, n_obs):
    """Aligned fit report with standard errors in parentheses."""
    names = fit.orders.param_names()
    label_w = 11
    lines = [f"estimator: {fit.estimator_kind}"]
    est_line = " ".join(f"{fmt(v):>13}" for v in fit.theta_hat.theta)
    se_line = " ".join(f"{'(' + fmt(v) + ')':>13}" for v in fit.std_errors)
    hdr_line = " ".join(f"{nm:>13}" for nm in names)
    lines.append(" " * label_w + hdr_line)
    lines.append(f"{'estimate':<{label_w}}" + est_line)
    lines.append(f"{'std err':<{label_w}}" + se_line)
    lines += _labelled(_fit_fields(fit, n_obs), label_w)
    return "\n".join(lines) + "\n"


def fit_report_json(fit, n_obs):
    names = fit.orders.param_names()
    cert = fit.certificate
    payload = {
        "estimator": fit.estimator_kind,
        **{name: _json_value(v) for name, v in _fit_fields(fit, n_obs).items()},
        "certificate": None if cert is None else {k: _json_value(v) for k, v in asdict(cert).items()},
        "estimates": {nm: round6(v) for nm, v in zip(names, fit.theta_hat.theta)},
        "std_errors": {nm: round6(v) for nm, v in zip(names, fit.std_errors)},
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_fit_reports(out_dir, fits, n_obs):
    """fit_report.txt and fit_report.json in out_dir for (label, FitResult)
    pairs: a "== label ==" block of fit_report_text per fit, and a JSON
    array of their fit_report_json objects."""
    text = [f"== {label} ==\n" + fit_report_text(fit, n_obs) for label, fit in fits]
    objects = [fit_report_json(fit, n_obs).rstrip("\n") for _, fit in fits]
    write_text(os.path.join(out_dir, "fit_report.txt"), "\n".join(text))
    write_text(os.path.join(out_dir, "fit_report.json"), "[\n" + ",\n".join(objects) + "\n]\n")


def mc_table_csv_rows(table):
    header = ["estimator", "parameter", "truth", "bias", "sd", "ad", "successes", "failures"]
    theta0 = table.scenario.theta0.theta
    rows = []
    for kind in table.scenario.estimators:
        for j, nm in enumerate(table.param_names):
            numbers = [fmt(v) for v in (theta0[j], table.bias[kind][j], table.sd[kind][j], table.ad[kind][j])]
            rows.append([kind, nm, *numbers, str(table.successes[kind]), str(table.failures[kind])])
    return header, rows


def mc_table_text(table):
    sc = table.scenario
    lines = _labelled(dict(scenario=sc.name, n=sc.n, reps=sc.replications, seed=sc.seed,
                           theta0=" ".join(fmt(v) for v in sc.theta0.theta),
                           dist=f"{sc.dist.kind} ({sc.dist.standardization})"), 11) + [""]
    for kind in sc.estimators:
        lines.append(f"[{kind}]  successes={table.successes[kind]} failures={table.failures[kind]}")
        hdr = " " * 6 + "".join(f"{nm:>12}" for nm in table.param_names)
        lines.append(hdr)
        for label, block in (("bias", table.bias), ("sd", table.sd), ("ad", table.ad)):
            lines.append(f"{label:<6}" + "".join(f"{fmt(v):>12}" for v in block[kind]))
        lines.append("")
    return "\n".join(lines)


def efficiency_text(kind, report):
    """The efficiency report of an innovation law of this kind: kind, then
    the EfficiencyReport's fields in their order."""
    return "\n".join(_labelled({"kind": kind, **asdict(report)}, 12)) + "\n"


def mc_replications_csv_rows(table):
    names = table.param_names
    header = ["replication", "estimator", "converged"]
    header += names + [f"se_{nm}" for nm in names]
    rows = []
    for rec in table.records:
        for kind in table.scenario.estimators:
            row = [str(rec.index), kind, str(rec.converged[kind]).lower()]
            row += [fmt(v) for v in rec.estimates[kind]]
            row += [fmt(v) for v in rec.std_errors[kind]]
            rows.append(row)
    return header, rows
