"""Compare the self-weighted fits and one-step updates of two qmele trees.

Fits the same seeded paths of six designs with both criteria in each tree,
takes the one-step update from every converged fit, and prints per design
and estimator how the tree differs from its parent: the largest objective
rise, theta moves in units of the parent's standard errors (median and
largest), the median criterion evaluations, the share of fits that
certified their end (a tree whose gaussian fits have no certificate shows
"-" for them), the fits that are bit-identical, and the failing
one-steps. Each tree runs in its own subprocess with PYTHONPATH=<tree>/src,
so the two never share an import.

Run from the root of a checkout:

    python3 tools/compare_fits.py --parent <tree> [--tree .] [--paths 40]
"""

import argparse
import json
import os
import subprocess
import sys

import numpy as np

# (name, orders, theta, innovations, base seed, restarts); path i is
# simulated and fitted with seed base + i, n = 1000 after a 500 burn-in
DESIGNS = (
    ("laplace_finite", (1, 0, 1, 1), (0.0, 0.5, 0.1, 0.18, 0.4), "laplace", 50000, 5),
    ("laplace_igarch", (1, 0, 1, 1), (0.0, 0.5, 0.1, 0.3, 0.4), "laplace", 20260602, 5),
    ("ar1_normal", (1, 0, 1, 1), (0.0, 0.5, 0.1, 0.18, 0.4), "normal", 20260603, 5),
    ("arma11_normal", (1, 1, 1, 1), (0.0, 0.5, 0.3, 0.1, 0.18, 0.4), "normal", 3272157582, 1),
    ("garch12_a018", (1, 0, 1, 2), (0.0, 0.5, 0.1, 0.18, 0.2, 0.2), "laplace", 50000, 5),
    ("garch12_a030", (1, 0, 1, 2), (0.0, 0.5, 0.1, 0.3, 0.2, 0.2), "laplace", 50000, 5),
)
N_OBS = 1000


def _fit_record(fit):
    cert = getattr(fit, "certificate", None)
    return {
        "theta": fit.theta_hat.theta.tolist(),
        "se": fit.std_errors.tolist(),
        "objective": fit.objective_value,
        "nfev": fit.nfev,
        "converged": fit.converged,
        "certified": None if cert is None else cert.certified,
    }


def worker(paths):
    """Fit every path in the imported tree; print one JSON list of records."""
    from qmele import (
        FitConfig,
        G0Mode,
        InnovationDist,
        ModelOrders,
        OptimizerConfig,
        ParamVector,
        fit_self_weighted,
        local_qmele_step,
        simulate,
    )

    records = []
    for name, order_tuple, theta_tuple, kind, seed, restarts in DESIGNS:
        orders = ModelOrders(*order_tuple)
        theta = ParamVector.from_theta(orders, np.asarray(theta_tuple)).validate()
        if kind == "laplace":
            dist, g0_mode = InnovationDist("laplace", "abs_mean_one"), G0Mode.known(0.5)
        else:
            dist, g0_mode = InnovationDist("normal", "var_one"), G0Mode.kernel()
        for path in range(paths):
            data = simulate(theta, dist, N_OBS, burn_in=500, seed=seed + path)
            config = FitConfig(
                g0_mode=g0_mode, seed=seed + path, optimizer=OptimizerConfig(restarts=restarts)
            )
            for criterion in ("qmele", "qmle"):
                fit = fit_self_weighted(data, orders, config, criterion=criterion)
                record = {"design": name, "path": path, "criterion": criterion,
                          "sw": _fit_record(fit), "local": None}
                if fit.converged:
                    try:
                        record["local"] = _fit_record(local_qmele_step(fit, data, config=config))
                    except (ValueError, ArithmeticError) as exc:
                        record["local"] = f"{type(exc).__name__}: {exc}"
                records.append(record)
    json.dump(records, sys.stdout)


def _run_trees(trees, paths):
    procs = []
    for tree in trees:
        env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        cmd = [sys.executable, os.path.abspath(__file__), "--worker", "--paths", str(paths)]
        procs.append(subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, cwd=os.path.abspath(tree)))
    results = []
    for tree, proc in zip(trees, procs):
        out, _ = proc.communicate()
        if proc.returncode != 0:
            raise SystemExit(f"fits in {tree} failed (exit {proc.returncode})")
        results.append(json.loads(out))
    return results


def _moves(new, old):
    """Largest |theta move| over the coordinates, in the old fit's SE."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.max(np.abs(np.subtract(new["theta"], old["theta"])) / np.asarray(old["se"])))


def _summary(label, pairs):
    """One line for a list of (new, old) fit records of one estimator."""
    both = [(a, b) for a, b in pairs if isinstance(a, dict) and isinstance(b, dict)]
    fails = [sum(not isinstance(r, dict) for r in side) for side in zip(*pairs)] if pairs else [0, 0]
    rise = max((a["objective"] - b["objective"] for a, b in both), default=np.nan)
    moves = np.array([_moves(a, b) for a, b in both])
    moves = moves[np.isfinite(moves)]
    same = sum(a["theta"] == b["theta"] and a["se"] == b["se"] and a["objective"] == b["objective"]
               for a, b in both)
    nfev = [np.median([r["nfev"] for r in side]) for side in zip(*both)] if both else [np.nan] * 2
    certified = [a["certified"] for a, _ in both if a["certified"] is not None]
    cert = f"{sum(certified)}/{len(certified)}" if certified else "-"
    p50, top = (np.median(moves), np.max(moves)) if moves.size else (np.nan, np.nan)
    print(f"  {label:<12} rise {rise:+.2e}  move/SE p50 {p50:.2e} max {top:.2e}  "
          f"nfev {nfev[1]:.0f}->{nfev[0]:.0f}  certified {cert}  identical {same}/{len(both)}  "
          f"failed one-steps {fails[1]}->{fails[0]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="root of the tree to compare against")
    parser.add_argument("--tree", default=".", help="root of the tree under test (default .)")
    parser.add_argument("--paths", type=int, default=40, help="paths per design (default 40)")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.paths)
        return
    if args.parent is None:
        parser.error("--parent is required")
    new, old = _run_trees([args.tree, args.parent], args.paths)
    for name, *_ in DESIGNS:
        print(name)
        for criterion, sw_kind, local_kind in (("qmele", "sw_qmele", "local_qmele"),
                                               ("qmle", "sw_qmle", "local_qmle")):
            rows = [(a, b) for a, b in zip(new, old)
                    if a["design"] == name and a["criterion"] == criterion]
            _summary(sw_kind, [(a["sw"], b["sw"]) for a, b in rows])
            _summary(local_kind, [(a["local"], b["local"]) for a, b in rows
                                  if a["local"] is not None and b["local"] is not None])


if __name__ == "__main__":
    main()
