"""Check qmele's fits: one digest, one record format, one comparison.

    PYTHONPATH=<tree>/src python3 tools/fitcheck.py digest
    PYTHONPATH=<tree>/src python3 tools/fitcheck.py record SET FILE
    PYTHONPATH=src python3 tools/fitcheck.py compare NEW OLD

digest prints one sha256 over 40 self-weighted fits (5 designs x 4 seeded
paths x both criteria; the last design has two lags in the AR, ARCH and
GARCH parts) with their status and certificate, two one-step updates per
converged fit (the fit's kernel g0, and g0 = 0.5 passed in), the
public score, information, covariance and objective functions at the true
parameters, and a 3-replication run_scenario with all four estimators, run
on two processes so that the parallel path is covered too.
Floats are hashed by their bytes and exceptions by type and message, so two
trees print the same digest only if they compute the same numbers bit for
bit on the same machine.

record fits every path of SET (n = 1000 after a 500 burn-in) and writes one
JSON line per self-weighted fit with its one-step update (the status of a
step that fails), and truth, the criterion at the true parameters with the
fit's weights, floats in repr (exact); a fit that raises ValueError or
ArithmeticError is a line whose status names the exception. SET is one of
- designs: seven designs x 40 paths, both criteria, each with its one-step;
- bench:START:STOP[:R]: for each benchmark seed in [START, STOP), the first
  R (default 8, the quota) replications of each design of two perfbench
  workloads, fitted as they fit them. mc_laplace: each Laplace
  AR(1)-GARCH(1,1) design (finite variance, IGARCH), g0 known, sw_qmele
  and local_qmele. mc_arma_normal: ARMA(1,1)-GARCH(1,1) with normal
  innovations, restarts = 1: sw_qmele, sw_qmle and local_qmle. A 30 s
  mc_laplace run holds 150 or more replications of each design, so
  bench:1500:1600:150 holds the 30,000 mc_laplace units of 100 such runs
  (and 15,000 ARMA paths).

compare prints per design and estimator how the fits of NEW differ from
those of OLD, two record files of one SET: the largest objective rise,
theta moves in OLD's standard errors (median, largest), median and total
criterion evaluations and certified fits (for a one-step, the steps that
held a coordinate, or, in an older record, were halved), the fits with
identical theta, SE and objective, and the failing one-steps. Under each
self-weighted line come the count and sum of the objective rises and drops
beyond 1e-12, over the fits certified at both trees and over the rest,
each rise above 1e-9 with its theta move in OLD's SEs, and NEW's counts
(fits, certified, certified on a face
below a vertex, i.e. on fewer than p+q+1 kinks, pivoted, uncertified, run
from more than one start of the fit's start list, and converged above
truth by more than a relative 1e-9, as perfbench judges), the fits that
certified at OLD with no pivot and how many of them changed theta,
objective or nfev, the fits that raised at OLD and at NEW (left out of
every other count), and NEW's uncertified fits as benchmark
seed:simulation seed. The last lines give the rises and drops over all
designs. compare FILE FILE summarises one tree.

The tool builds FitConfig(restarts=...) and calls local_qmele_step without
a config, so a tree older than either (whose step takes its g0 mode from a
config) is recorded with that tree's own copy of this file: git show
<rev>:tools/fitcheck.py > old_fitcheck.py, run with PYTHONPATH=<that
tree>/src. Records of one SET from either tool compare; those without
truth count none above it.
"""

import hashlib
import json
import sys
import zlib

import numpy as np

from qmele import (ESTIMATOR_KINDS, FitConfig, FitResult, G0Mode, InnovationDist, ModelOrders,
                   ParamVector, ScenarioConfig, covariance_local, covariance_self_weighted,
                   fit_self_weighted, local_qmele_step, qmele_objective, qmle_objective,
                   run_scenario, sigma_star, simulate, t_star)

LAPLACE, NORMAL = InnovationDist("laplace", "abs_mean_one"), InnovationDist("normal", "var_one")
KNOWN = G0Mode.known(0.5)
THETA_FINITE, THETA_IGARCH = (0.0, 0.5, 0.1, 0.18, 0.4), (0.0, 0.5, 0.1, 0.3, 0.4)
THETA_ARMA = (0.0, 0.5, 0.3, 0.1, 0.18, 0.4)
OBJECTIVES = {"qmele": qmele_objective, "qmle": qmle_objective}
TRUTH_RTOL = 1e-9
# objective changes smaller than OBJECTIVE_TOL are rounding; rises above LISTED_RISE are listed
OBJECTIVE_TOL, LISTED_RISE = 1e-12, 1e-9
# digest: (name, orders, theta, innovations, base seed); path i of n = 600 has seed base + i
DIGEST_DESIGNS = (
    ("laplace_finite", (1, 0, 1, 1), THETA_FINITE, LAPLACE, 50000),
    ("laplace_igarch", (1, 0, 1, 1), THETA_IGARCH, LAPLACE, 20260602),
    ("arma_normal", (1, 1, 1, 1), (0.0, 0.4, 0.3, 0.1, 0.15, 0.6), NORMAL, 3272157582),
    ("garch12_laplace", (1, 0, 1, 2), (0.0, 0.5, 0.1, 0.3, 0.2, 0.2), LAPLACE, 50100),
    ("arma21_garch22_laplace", (2, 1, 2, 2), (0.0, 0.3, 0.2, 0.3, 0.1, 0.1, 0.08, 0.3, 0.2), LAPLACE, 7000),
)
# designs: (name, orders, theta, innovations, base seed, restarts); path i is
# simulated with seed base + i, g0 known for Laplace innovations
DESIGNS = (
    ("laplace_finite", (1, 0, 1, 1), THETA_FINITE, LAPLACE, 50000, 5),
    ("laplace_igarch", (1, 0, 1, 1), THETA_IGARCH, LAPLACE, 20260602, 5),
    ("ar1_normal", (1, 0, 1, 1), THETA_FINITE, NORMAL, 20260603, 5),
    ("arma11_normal", (1, 1, 1, 1), THETA_ARMA, NORMAL, 3272157582, 1),
    ("garch12_a018", (1, 0, 1, 2), (0.0, 0.5, 0.1, 0.18, 0.2, 0.2), LAPLACE, 50000, 5),
    ("garch12_a030", (1, 0, 1, 2), (0.0, 0.5, 0.1, 0.3, 0.2, 0.2), LAPLACE, 50000, 5),
    ("arma21_garch22_laplace", *DIGEST_DESIGNS[4][1:], 5),
)


def _truth(order_tuple, theta):
    orders = ModelOrders(*order_tuple)
    return orders, ParamVector.from_theta(orders, np.asarray(theta)).validate()


class Digest:
    def __init__(self):
        self.sha = hashlib.sha256()

    def add(self, *items):
        for item in items:
            if isinstance(item, (str, bool, int)):
                self.sha.update(repr(item).encode())
            else:
                self.sha.update(np.ascontiguousarray(item, dtype=float).tobytes())

    def call(self, label, fn, *args, **kwargs):
        """Hash fn's result, or the exception it raises; return the result or None."""
        self.add(label)
        try:
            result = fn(*args, **kwargs)
        except (ValueError, ArithmeticError) as exc:
            self.add(type(exc).__name__, str(exc))
            return None
        if isinstance(result, FitResult):
            self.add(result.estimator_kind, result.theta_hat.theta, result.objective_value,
                     result.covariance, result.std_errors, result.g0, result.eta2, result.converged,
                     result.iterations, result.nfev, result.starts, repr(result.held),
                     result.status)
            cert = result.certificate
            self.add(*(("no certificate",) if cert is None else
                       (repr(cert.active), cert.max_s, cert.kkt, cert.pivots, cert.certified)))
        else:
            self.add(result)
        return result


def digest():
    d = Digest()
    for name, order_tuple, theta_tuple, dist, seed in DIGEST_DESIGNS:
        orders, theta = _truth(order_tuple, theta_tuple)
        for path in range(4):
            data, ones = simulate(theta, dist, 600, seed=seed + path), np.ones(600)
            d.add(name, path, data)
            d.call("t_star", t_star, theta, data)
            d.call("sigma_star", sigma_star, theta, data, 0.5)
            d.call("cov_sw", covariance_self_weighted, theta, data, 0.5 + ones, 0.5, 1.3)
            d.call("cov_local", covariance_local, theta, data, 0.5, 1.3)
            d.call("qmele_objective", qmele_objective, theta, data, ones)
            d.call("qmle_objective", qmle_objective, theta, data, ones)
            for criterion in ("qmele", "qmle"):
                fit = d.call("fit", fit_self_weighted, data, orders, FitConfig(),
                             criterion=criterion)
                if fit is None or not fit.converged:
                    continue
                d.call("step_kernel", local_qmele_step, fit, data)
                d.call("step_known", local_qmele_step, fit, data, g0=0.5)
    name, order_tuple, theta_tuple, dist, seed = DIGEST_DESIGNS[0]
    orders, theta = _truth(order_tuple, theta_tuple)
    table = run_scenario(ScenarioConfig(
        orders=orders, theta0=theta, dist=dist, n=600, replications=3, seed=seed,
        estimators=ESTIMATOR_KINDS, g0_mode=KNOWN, restarts=1), jobs=2)
    for kind in ESTIMATOR_KINDS:
        d.add(kind, table.bias[kind], table.sd[kind], table.ad[kind],
              table.successes[kind], table.failures[kind])
    for rec in table.records:
        for kind in ESTIMATOR_KINDS:
            d.add(rec.estimates[kind], rec.std_errors[kind], rec.converged[kind])
    print(d.sha.hexdigest())


def derived_seeds(seed, workload, k):
    """k scenario seeds drawn from the workload seed and the workload name."""
    ss = np.random.SeedSequence([int(seed), zlib.crc32(workload.encode())])
    return [int(s) for s in ss.generate_state(k)]


def path_fits(spec):
    """(design, benchmark seed, orders, theta, innovations, simulation seed,
    FitConfig, ((criterion, with its one-step), ...)) of every path of SET."""
    if spec == "designs":
        for name, orders, theta, dist, base, restarts in DESIGNS:
            g0_mode = KNOWN if dist is LAPLACE else G0Mode.kernel()
            for s in range(base, base + 40):
                config = FitConfig(g0_mode=g0_mode, restarts=restarts)
                yield name, None, orders, theta, dist, s, config, (("qmele", True), ("qmle", True))
        return
    kind, *bounds = spec.split(":")
    if kind != "bench" or len(bounds) not in (2, 3):
        raise SystemExit(f"unknown SET {spec!r}")
    start, stop, reps = (*map(int, bounds), 8)[:3]
    for seed in range(start, stop):
        finite, igarch = derived_seeds(seed, "mc_laplace", 2)
        for name, theta, base in (("laplace_finite", THETA_FINITE, finite),
                                  ("laplace_igarch", THETA_IGARCH, igarch)):
            for s in range(base, base + reps):
                config = FitConfig(g0_mode=KNOWN)
                yield name, seed, (1, 0, 1, 1), theta, LAPLACE, s, config, (("qmele", True),)
        (base,) = derived_seeds(seed, "mc_arma_normal", 1)
        for s in range(base, base + reps):
            config = FitConfig(restarts=1)
            yield ("arma11_normal", seed, (1, 1, 1, 1), THETA_ARMA, NORMAL, s, config,
                   (("qmele", False), ("qmle", True)))


def _estimate(fit):
    return {"theta": fit.theta_hat.theta.tolist(), "se": fit.std_errors.tolist(),
            "objective": fit.objective_value}


def record(spec, path):
    fits = list(path_fits(spec))  # an unknown SET exits before FILE is opened
    with open(path, "w", encoding="utf-8") as fh:
        for design, bench, order_tuple, theta, dist, seed, config, criteria in fits:
            orders, truth = _truth(order_tuple, theta)
            data = simulate(truth, dist, 1000, burn_in=500, seed=seed)
            for criterion, with_step in criteria:
                key = {"design": design, "bench": bench, "seed": seed, "criterion": criterion,
                       "orders": order_tuple}
                try:
                    fit = fit_self_weighted(data, orders, config, criterion=criterion)
                except (ValueError, ArithmeticError) as exc:
                    fh.write(json.dumps({**key, "status": f"raised {type(exc).__name__}: {exc}"}) + "\n")
                    continue
                at_truth = OBJECTIVES[criterion](truth, data, fit.weights)
                c = fit.certificate
                line = {**key, **_estimate(fit), "truth": at_truth, "nfev": fit.nfev,
                        "iterations": fit.iterations, "starts": fit.starts, "converged": fit.converged,
                        "status": fit.status, "certificate": None if c is None else {
                            "active": len(c.active), "max_s": c.max_s, "kkt": c.kkt,
                            "pivots": c.pivots, "certified": c.certified}, "local": None}
                if with_step and fit.converged:
                    step = local_qmele_step(fit, data)
                    line["local"] = ({**_estimate(step), "held": step.held}
                                     if step.status == "ok" else step.status)
                fh.write(json.dumps(line) + "\n")


def above_truth(records):
    """The converged fits whose objective is above the criterion at the true theta
    (perfbench's rtol); records without a truth, from an older tool, count none."""
    return sum(r["converged"] and r["objective"] > r["truth"] + TRUTH_RTOL * max(1.0, abs(r["truth"]))
               for r in records if "truth" in r)


def _same(a, b, keys):
    return all(repr(a[k]) == repr(b[k]) for k in keys)


def _raised(r):
    return r["status"].startswith("raised")


def _certified(r):
    return r["certificate"] is not None and r["certificate"]["certified"]


def _name(r):
    """benchmark seed:simulation seed, or the simulation seed of a design path."""
    return f"{r['bench']}:{r['seed']}" if r["bench"] is not None else str(r["seed"])


def _move(a, b):
    """The largest |NEW theta - OLD theta| in OLD's standard errors (NaN where an SE is)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.max(np.abs(np.subtract(a["theta"], b["theta"])) / b["se"]))


def _summary(label, pairs):
    """One line for (new, old) records of one estimator; a failed one-step is a string."""
    both = [(a, b) for a, b in pairs if isinstance(a, dict) and isinstance(b, dict)]
    fails = [sum(isinstance(r, str) for r in side) for side in zip(*pairs)]
    rise = max((a["objective"] - b["objective"] for a, b in both), default=np.nan)
    moves = np.array([_move(a, b) for a, b in both])
    moves = moves[np.isfinite(moves)]
    p50, top = (np.median(moves), np.max(moves)) if moves.size else (np.nan, np.nan)
    line = f"  {label:<12} rise {rise:+.2e}  move/SE p50 {p50:.2e} max {top:.2e}"
    if both and "nfev" in both[0][0]:
        new, old = ([r["nfev"] for r in side] for side in zip(*both))
        cert = [sum(map(_certified, side)) for side in zip(*both)]
        line += (f"  nfev p50 {np.median(old):.0f}->{np.median(new):.0f} total {sum(old)}->{sum(new)}"
                 f"  certified {cert[1]}->{cert[0]}")
    else:
        line += f"  {_held(b for _, b in both)}->{_held(a for a, _ in both)}"
    same = sum(_same(a, b, ("theta", "se", "objective")) for a, b in both)
    print(f"{line}  identical {same}/{len(both)}  failed {fails[1]}->{fails[0]}")


def _held(steps):
    """How many one-steps held a coordinate, or, in a record from before the
    holds replaced the step halving, were halved."""
    steps = list(steps)
    if steps and "held" not in steps[0]:
        return f"halved {sum(r['shrink_count'] > 0 for r in steps)}"
    return f"held {sum(bool(r['held']) for r in steps)}"


def _counts(pairs, raised):
    """NEW's certificate counts, OLD's zero-pivot certified fits, the fits
    raised (NEW, OLD), NEW's uncertified fits."""
    new = [a for a, _ in pairs]
    face = sum(_certified(r) and r["certificate"]["active"] < sum(r["orders"][:2]) + 1 for r in new)
    pivoted = sum(r["certificate"] is not None and r["certificate"]["pivots"] > 0 for r in new)
    bad = [_name(r) for r in new if not _certified(r)]
    zero = [(a, b) for a, b in pairs if _certified(b) and b["certificate"]["pivots"] == 0]
    changed = sum(not _same(a, b, ("theta", "objective", "nfev")) for a, b in zero)
    print(f"{'':<15}fits {len(new)}  certified {len(new) - len(bad)}  face {face}  pivoted {pivoted}"
          f"  uncertified {len(bad)}  starts>1 {sum(r['starts'] > 1 for r in new)}"
          f"  above truth {above_truth(new)}"
          f"  zero-pivot at OLD {len(zero)}, changed {changed}  raised {raised[1]}->{raised[0]}")
    if bad:
        print(f"{'':<15}uncertified: " + " ".join(bad))


def _objective_moves(pairs, head="", list_rises=True):
    """NEW's objective rises and drops beyond OBJECTIVE_TOL against OLD, their
    count and sum over the fits certified at both trees and over the rest, and
    the rises above LISTED_RISE with their theta move in OLD's SEs."""
    groups = {"certified at both": [], "rest": []}
    for a, b in pairs:
        groups["certified at both" if _certified(a) and _certified(b) else "rest"].append(
            a["objective"] - b["objective"])
    parts = []
    for label, diffs in groups.items():
        diffs = np.array(diffs)
        rises, drops = diffs[diffs > OBJECTIVE_TOL], diffs[diffs < -OBJECTIVE_TOL]
        parts.append(f"{label} rises {rises.size} ({rises.sum():+.2e}) drops {drops.size} ({drops.sum():+.2e})")
    print(f"{head:<15}objective moves beyond {OBJECTIVE_TOL:g}: " + "; ".join(parts))
    big = [f"{_name(a)} {a['objective'] - b['objective']:+.2e} ({_move(a, b):.2f} SE)"
           for a, b in pairs if a["objective"] - b["objective"] > LISTED_RISE]
    if list_rises and big:
        print(f"{'':<15}rises above {LISTED_RISE:g}: " + " ".join(big))


def compare(new_path, old_path):
    with open(new_path, encoding="utf-8") as f_new, open(old_path, encoding="utf-8") as f_old:
        new, old = [json.loads(line) for line in f_new], [json.loads(line) for line in f_old]
    key = ("design", "bench", "seed", "criterion")
    if [[r[k] for k in key] for r in new] != [[r[k] for k in key] for r in old]:
        raise SystemExit(f"{new_path} and {old_path} do not hold the same fits")
    fitted = {"qmele": [], "qmle": []}
    for design in dict.fromkeys(r["design"] for r in new):
        print(design)
        for criterion in ("qmele", "qmle"):
            pairs = [(a, b) for a, b in zip(new, old) if (a["design"], a["criterion"]) == (design, criterion)]
            if pairs:
                raised = [sum(map(_raised, side)) for side in zip(*pairs)]
                pairs = [(a, b) for a, b in pairs if not (_raised(a) or _raised(b))]
                fitted[criterion] += pairs
                if pairs:  # not every fit raised
                    _summary(f"sw_{criterion}", pairs)
                    _objective_moves(pairs)
                _counts(pairs, raised)
                steps = [(a["local"], b["local"]) for a, b in pairs if None not in (a["local"], b["local"])]
                if steps:
                    _summary(f"local_{criterion}", steps)
    print("all designs")
    for criterion, pairs in fitted.items():
        if pairs:
            _objective_moves(pairs, f"  sw_{criterion}", list_rises=False)


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    commands = {"digest": (digest, 0), "record": (record, 2), "compare": (compare, 2)}
    if not args or args[0] not in commands or len(args) != 1 + commands[args[0]][1]:
        raise SystemExit("usage:\n" + __doc__.split("\n\n")[1])
    commands[args[0]][0](*args[1:])


if __name__ == "__main__":
    main()
