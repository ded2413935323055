"""Batch command-line front end.

Verbs: fit, simulate, mc-table, hill, region-scan, acf, efficiency.
Every verb takes --out-dir; --seed belongs to simulate and region-scan,
the verbs that read it. Input CSVs are UTF-8 with a period decimal
point; a header row is assumed unless --no-header is given.
Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric failure.

An omitted setting (--seed, --draws and --jobs too) takes the default of
the dataclass or function it is passed to, and choices are the tuples
those validate against. fit hands --config and its settings flags to
load_fit_config, which reads the file and lets the flags win; reports
writes every output file.

Every command's output is a pure function of its flags, config and input
files; repeated runs are byte-identical.
"""

import argparse
import csv
import io
import os
import sys
import warnings
from dataclasses import replace

import numpy as np

from . import reports
from .diagnostics import acf, check_max_lag, efficiency_compare, pacf, standardized_residuals
from .estimation import FitConfig, fit_self_weighted, local_qmele_step
from .exceptions import DataIngestError
from .model import (
    INNOVATION_KINDS,
    STANDARDIZATIONS,
    InnovationDist,
    ModelOrders,
    ParamVector,
    log_return_transform,
    simulate,
)
from .montecarlo import load_fit_config, load_scenario, run_scenario
from .weights import THRESHOLDS, WEIGHT_VARIANTS, check_k_max, hill_sweep, moment_condition_check


# whitespace to str.strip() and numpy's float parser, but not to float()
_NOT_FLOAT_SPACE = "\x1c\x1d\x1e\x1f"


def read_series_csv(path, column=None, no_header=False):
    """Read one numeric column from a CSV file.

    Picks the named column (header files only) or the first column. The
    header is the first row whose cells are not all blank; such blank rows
    are skipped. numpy's compiled reader parses the column after the header
    in one pass, with no Python object per row. A file it rejects or finds
    empty is read again by _read_series_rows, the csv-module reference, so
    values and error messages are the same either way. Errors name the file
    and the offending row, counted among the non-blank rows.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            header = [] if no_header else next((r for r in csv.reader(fh) if "".join(r).strip()), [])
            body = fh.read()  # the rows after the header
        col_idx = [c.strip() for c in header].index(column) if column is not None else 0
        if not any(ch in body for ch in _NOT_FLOAT_SPACE):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # numpy warns on a file with no data
                values = np.loadtxt(io.StringIO(body), delimiter=",", quotechar='"', comments=None,
                                    usecols=col_idx, ndmin=1)
            if values.size:
                return values
    except (OSError, ValueError, csv.Error):
        pass
    return _read_series_rows(path, column, no_header)


def _read_series_rows(path, column, no_header):
    """read_series_csv by the csv module: one list per row, and every error message."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, csv.Error) as exc:
        raise DataIngestError(f"cannot read {path}: {exc}") from exc
    rows = [r for r in rows if "".join(r).strip()]
    if not rows:
        raise DataIngestError(f"{path}: file contains no data rows")

    col_idx = 0
    start = 0
    if not no_header:
        header = [c.strip() for c in rows[0]]
        start = 1
        if column is not None:
            if column not in header:
                raise DataIngestError(f"{path}: no column named {column!r} in header {header}")
            col_idx = header.index(column)
        if len(rows) == 1:
            raise DataIngestError(f"{path}: header only, no data rows")
    elif column is not None:
        raise DataIngestError(f"{path}: --column requires a header row (drop --no-header)")

    try:
        # float() strips surrounding whitespace itself
        return np.array([float(row[col_idx]) for row in rows[start:]])
    except (IndexError, ValueError):
        pass
    # find the failing row for the message
    for i, row in enumerate(rows[start:], start=start + 1):
        if col_idx >= len(row):
            raise DataIngestError(f"{path}: row {i} has no column {col_idx + 1}")
        cell = row[col_idx]
        try:
            float(cell)
        except ValueError as exc:
            shown = cell if any(ch in cell for ch in _NOT_FLOAT_SPACE) else cell.strip()
            raise DataIngestError(f"{path}: row {i}: non-numeric cell {shown!r}") from exc


def _parse_orders(text):
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != 4:
        raise DataIngestError(f"--orders expects four integers p,q,r,s, got {text!r}")
    try:
        return ModelOrders(*(int(p) for p in parts))
    except ValueError as exc:
        raise DataIngestError(f"--orders expects integers, got {text!r}") from exc


def _parse_theta(text, orders):
    try:
        vals = [float(p) for p in text.replace(",", " ").split() if p]
    except ValueError as exc:
        raise DataIngestError(f"--theta expects numbers, got {text!r}") from exc
    return ParamVector.from_theta(orders, np.asarray(vals)).validate()


def _given(args, *names):
    """The named flags that were given, as keywords for the library call."""
    return {k: getattr(args, k) for k in names if getattr(args, k, None) is not None}


def _dist_from_args(args):
    return InnovationDist(args.dist, **_given(args, "standardization", "epsilon", "tau"))


def _write_acf_pair(out, values, max_lag, suffix=""):
    """acf{suffix}.csv and pacf{suffix}.csv of values in out."""
    for label, corr in (("acf", acf), ("pacf", pacf)):
        rows = reports.acf_csv_rows(corr(values, max_lag))
        reports.write_csv(os.path.join(out, f"{label}{suffix}.csv"), *rows)


def cmd_fit(args):
    # the diagnostics' flags, checked before the fit so that a bad one writes no file
    check_max_lag(args.max_lag)
    if args.hill_k_max is not None:
        check_k_max(args.hill_k_max)
    data = read_series_csv(args.input, column=args.column, no_header=args.no_header)
    if args.log_returns_x100:
        data = log_return_transform(data)
    orders = _parse_orders(args.orders)

    # explicit flags win over the optional config file
    config = load_fit_config(
        args.config,
        weights=_given(args, "variant", "iota", "c_quantile", "threshold"),
        g0=None if args.g0_known is None else {"kind": "known", "value": args.g0_known},
        **_given(args, "restarts"),
    )
    sw = fit_self_weighted(data, orders, config, criterion="qmele")
    out = args.out_dir

    fits = [("sw", sw)]
    if sw.converged:
        fits.append(("local", local_qmele_step(sw, data)))
    for _, fit in fits:
        if fit.status != "ok":
            print(f"{fit.estimator_kind} fit: status {fit.status}", file=sys.stderr)
    reports.write_fit_reports(out, fits, data.size)

    # diagnostics of the last fit with status ok: the one-step unless it failed
    ok = [fit for _, fit in fits if fit.status == "ok"]
    if ok:
        eta = standardized_residuals(ok[-1], data)
        reports.write_csv(os.path.join(out, "residuals.csv"), *reports.series_csv_rows(eta, "eta"))
        max_lag = min(args.max_lag, eta.size - 1)
        eta_sq = eta * eta
        _write_acf_pair(out, eta, max_lag, "_eta")
        _write_acf_pair(out, eta_sq, max_lag, "_eta_sq")
        k_max = min(eta.size // 3, 180) if args.hill_k_max is None else args.hill_k_max
        reports.write_csv(
            os.path.join(out, "hill_eta_sq.csv"),
            *reports.hill_csv_rows(hill_sweep(eta_sq, k_max)),
        )
    print(f"fit written to {out}")
    return 0


def cmd_simulate(args):
    orders = _parse_orders(args.orders)
    theta = _parse_theta(args.theta, orders)
    dist = _dist_from_args(args)
    data = simulate(theta, dist, args.n, **_given(args, "seed", "burn_in"))
    path = os.path.join(args.out_dir, args.out)
    reports.write_csv(path, *reports.series_csv_rows(data, "y"))
    print(f"simulated series written to {path}")
    return 0


def cmd_mc_table(args):
    config = replace(load_scenario(args.config), **_given(args, "replications"))
    table = run_scenario(config, **_given(args, "jobs"))
    out = args.out_dir
    reports.write_csv(os.path.join(out, "mc_table.csv"), *reports.mc_table_csv_rows(table))
    reports.write_text(os.path.join(out, "mc_table.txt"), reports.mc_table_text(table))
    reports.write_csv(
        os.path.join(out, "mc_replications.csv"), *reports.mc_replications_csv_rows(table)
    )
    print(f"mc table written to {out}")
    return 0


def cmd_hill(args):
    values = read_series_csv(args.input, column=args.column, no_header=args.no_header)
    report = hill_sweep(values, args.k_max)
    path = os.path.join(args.out_dir, "hill.csv")
    reports.write_csv(path, *reports.hill_csv_rows(report))
    print(f"hill sweep written to {path}")
    return 0


def _parse_grid(text, flag):
    parts = text.split(":")
    if len(parts) != 3:
        raise DataIngestError(f"{flag} expects min:max:steps, got {text!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise DataIngestError(f"{flag} expects min:max:steps, got {text!r}") from exc
    if not np.isfinite([lo, hi]).all():
        raise DataIngestError(f"{flag}: grid bounds must be finite, got {text!r}")
    if steps < 1 or hi < lo:
        raise DataIngestError(f"{flag}: empty grid {text!r}")
    return np.linspace(lo, hi, steps)


def cmd_region_scan(args):
    dist = _dist_from_args(args)
    a_grid = _parse_grid(args.alpha1, "--alpha1")
    b_grid = _parse_grid(args.beta1, "--beta1")
    header = ["alpha1", "beta1", "holds"]
    rows = []
    for a1 in a_grid:
        for b1 in b_grid:
            dec = moment_condition_check(a1, b1, args.iota, dist, **_given(args, "mc_draws", "seed"))
            rows.append([reports.fmt(a1), reports.fmt(b1), str(int(dec.holds))])
    path = os.path.join(args.out_dir, "region_scan.csv")
    reports.write_csv(path, header, rows)
    print(f"region scan written to {path}")
    return 0


def cmd_acf(args):
    values = read_series_csv(args.input, column=args.column, no_header=args.no_header)
    _write_acf_pair(args.out_dir, values, args.max_lag)
    print(f"acf/pacf written to {args.out_dir}")
    return 0


def cmd_efficiency(args):
    text = reports.efficiency_text(args.dist, efficiency_compare(_dist_from_args(args)))
    reports.write_text(os.path.join(args.out_dir, "efficiency.txt"), text)
    print(text, end="")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qmele",
        description="Robust self-weighted / one-step estimation for ARMA-GARCH series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed=False):
        p.add_argument("--out-dir", default=".", help="directory for output files")
        if seed:
            p.add_argument("--seed", type=int)

    def add_dist(p, standardization=True):
        p.add_argument("--dist", required=True, choices=INNOVATION_KINDS)
        if standardization:
            p.add_argument("--standardization", choices=STANDARDIZATIONS)
        p.add_argument("--epsilon", type=float)
        p.add_argument("--tau", type=float)

    def add_input(p):
        p.add_argument("input", help="input CSV file")
        p.add_argument("--column", help="named column to read")
        p.add_argument("--no-header", action="store_true", help="input has no header row")

    p = sub.add_parser("fit", help="fit the model and emit diagnostics")
    add_input(p)
    add_common(p)
    p.add_argument("--orders", required=True, help="model orders p,q,r,s")
    p.add_argument("--log-returns-x100", action="store_true", help="transform prices to 100x log returns")
    p.add_argument("--config",
                   help="optional key=value file with [weights]/[g0]/[optimizer] sections; explicit flags win")
    p.add_argument("--weight-variant", dest="variant", choices=WEIGHT_VARIANTS)
    p.add_argument("--iota", type=float)
    p.add_argument("--c-quantile", type=float)
    p.add_argument("--weight-threshold", dest="threshold", choices=THRESHOLDS)
    p.add_argument("--g0-known", type=float,
                   help="inject a known innovation density at zero instead of the kernel estimate")
    p.add_argument("--restarts", type=int,
                   help="jittered starts after the initializer and the variance-targeted start, "
                        f"each tried in turn until a descent converges (default {FitConfig.restarts})")
    p.add_argument("--max-lag", type=int, default=20, help="diagnostic ACF/PACF lags")
    p.add_argument("--hill-k-max", type=int)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("simulate", help="simulate a seeded path to CSV")
    add_common(p, seed=True)
    p.add_argument("--orders", required=True)
    p.add_argument("--theta", required=True, help="comma-separated parameter vector")
    add_dist(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--burn-in", type=int)
    p.add_argument("--out", default="simulated.csv", help="output file name inside --out-dir")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("mc-table", help="run a replication study from a config file")
    add_common(p)
    p.add_argument("--config", required=True)
    p.add_argument("--jobs", type=int,
                   help="processes that run replications, this one included (default 1 = serial)")
    p.add_argument("--replications", type=int, help="override the config value")
    p.set_defaults(func=cmd_mc_table)

    p = sub.add_parser("hill", help="Hill tail-index sweep")
    add_input(p)
    add_common(p)
    p.add_argument("--k-max", type=int, required=True)
    p.set_defaults(func=cmd_hill)

    p = sub.add_parser("region-scan", help="fractional-moment region over an (alpha1, beta1) grid")
    add_common(p, seed=True)
    p.add_argument("--alpha1", required=True, help="grid min:max:steps")
    p.add_argument("--beta1", required=True, help="grid min:max:steps")
    p.add_argument("--iota", type=float, required=True)
    add_dist(p)
    p.add_argument("--draws", dest="mc_draws", type=int)
    p.set_defaults(func=cmd_region_scan)

    p = sub.add_parser("acf", help="ACF/PACF with white-noise bands")
    add_input(p)
    add_common(p)
    p.add_argument("--max-lag", type=int, default=20)
    p.set_defaults(func=cmd_acf)

    p = sub.add_parser("efficiency", help="criterion efficiency factors for a standardized law")
    add_common(p)
    add_dist(p, standardization=False)
    p.set_defaults(func=cmd_efficiency)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # domain / data / config problems
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:  # overflow / singular information
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
