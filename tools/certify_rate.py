"""Count how the self-weighted fits of the benchmark's traffic end.

For each benchmark seed in [start, stop) this rebuilds the quota fits of
two perfbench workloads:

- mc_laplace: 8 replications of each of the two Laplace AR(1)-GARCH(1,1)
  designs (finite variance and IGARCH), n = 1000, g0 known, fitted with
  the exponential criterion;
- mc_arma_normal: 8 replications of ARMA(1,1)-GARCH(1,1) with normal
  innovations, n = 1000, restarts = 1, in two mc-table calls of 4, each
  fitted with the exponential criterion and, in the row arma11_normal_qmle,
  with the gaussian criterion as the workload's sw_qmle estimator does.

Per design it prints the fits, how many certified, how many certified on
a face below a vertex (fewer than p+q+1 kinks; the gaussian fit's face
has none), how many took any active-set pivot, how many ended uncertified
and how many ran restarts, and each uncertified fit as benchmark
seed:simulation seed. --records writes one JSON line per fit, to compare
two trees fit by fit.

Run from the root of a checkout, against the tree to be measured:

    PYTHONPATH=src python3 tools/certify_rate.py 700 900 [--records fits.jsonl]
"""

import argparse
import json
import zlib

import numpy as np

from qmele import (
    FitConfig,
    G0Mode,
    InnovationDist,
    ModelOrders,
    OptimizerConfig,
    ParamVector,
    fit_self_weighted,
    simulate,
)

LAPLACE = InnovationDist("laplace", "abs_mean_one")
NORMAL = InnovationDist("normal", "var_one")
AR1_GARCH11, ARMA11_GARCH11 = ModelOrders(1, 0, 1, 1), ModelOrders(1, 1, 1, 1)
THETA_FINITE, THETA_IGARCH = (0.0, 0.5, 0.1, 0.18, 0.4), (0.0, 0.5, 0.1, 0.3, 0.4)
THETA_ARMA = (0.0, 0.5, 0.3, 0.1, 0.18, 0.4)
N_OBS = 1000
COLUMNS = (("fits", 6), ("certified", 11), ("face", 6), ("pivoted", 9), ("uncertified", 13),
           ("restarts", 10))


def derived_seeds(seed, workload, k):
    """k scenario seeds drawn from the workload seed and the workload name."""
    ss = np.random.SeedSequence([int(seed), zlib.crc32(workload.encode())])
    return [int(s) for s in ss.generate_state(k)]


def quota_fits(seed):
    """(design, orders, theta, innovations, simulation seed, FitConfig,
    criteria) of one benchmark seed's quota fits, as perfbench's workloads
    run them."""
    finite, igarch = derived_seeds(seed, "mc_laplace", 2)
    for name, theta, base in (("laplace_finite", THETA_FINITE, finite),
                              ("laplace_igarch", THETA_IGARCH, igarch)):
        for rep in range(8):
            config = FitConfig(g0_mode=G0Mode.known(0.5), seed=base + rep)
            yield name, AR1_GARCH11, theta, LAPLACE, base + rep, config, ("qmele",)
    (base,) = derived_seeds(seed, "mc_arma_normal", 1)
    for call in range(2):
        config = FitConfig(optimizer=OptimizerConfig(restarts=1), seed=base + 4 * call)
        for rep in range(4):
            yield ("arma11_normal", ARMA11_GARCH11, THETA_ARMA, NORMAL, base + 4 * call + rep,
                   config, ("qmele", "qmle"))


def _line(name, row):
    return f"{name:<20}" + "".join(f"{v:>{w}}" for v, (_, w) in zip(row, COLUMNS))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("start", type=int, help="first benchmark seed")
    parser.add_argument("stop", type=int, help="benchmark seed to stop before")
    parser.add_argument("--records", help="write one JSON line per fit to this file")
    args = parser.parse_args(argv)
    counts, uncertified, records = {}, {}, []
    for seed in range(args.start, args.stop):
        for design, orders, theta, dist, sim_seed, config, criteria in quota_fits(seed):
            truth = ParamVector.from_theta(orders, np.asarray(theta))
            data = simulate(truth, dist, N_OBS, burn_in=500, seed=sim_seed)
            for criterion in criteria:
                name = design if criterion == "qmele" else f"{design}_{criterion}"
                fit = fit_self_weighted(data, orders, config, criterion=criterion)
                cert = fit.certificate
                certified = cert is not None and cert.certified
                row = counts.setdefault(name, np.zeros(len(COLUMNS), dtype=int))
                row += [
                    1,
                    certified,
                    certified and len(cert.active) < orders.p + orders.q + 1,
                    cert is not None and cert.pivots > 0,
                    not certified,
                    fit.starts > 1,
                ]
                if not certified:
                    uncertified.setdefault(name, []).append(f"{seed}:{sim_seed}")
                records.append({
                    "design": name, "seed": seed, "sim_seed": sim_seed,
                    "theta": fit.theta_hat.theta.tolist(),
                    "objective": fit.objective_value, "nfev": fit.nfev, "starts": fit.starts,
                    "converged": fit.converged, "certified": certified,
                    "pivots": None if cert is None else cert.pivots,
                    "max_s": None if cert is None else cert.max_s,
                    "kkt": None if cert is None else cert.kkt,
                    "active": None if cert is None else len(cert.active),
                })
    if args.records:
        with open(args.records, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(record) + "\n" for record in records)
    print(f"{'design':<20}" + "".join(f"{label:>{w}}" for label, w in COLUMNS))
    for name, row in counts.items():
        print(_line(name, row))
        if name in uncertified:
            print("  uncertified: " + " ".join(uncertified[name]))
    print(_line("total", sum(counts.values())))


if __name__ == "__main__":
    main()
