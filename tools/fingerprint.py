"""Print one sha256 over a fixed set of qmele outputs.

Covers 40 self-weighted fits (5 designs x 4 seeded paths x both criteria;
the last design has two lags in the AR, ARCH and GARCH parts) with their
status and face-finish certificate, two one-step updates per fit (kernel
g0 from the config, and g0 = 0.5 passed in), the public score,
information, covariance and objective functions at the true parameters,
and a 3-replication run_scenario with all four estimators. Every float is hashed by its bytes, and every raised
exception by its type and message, so two trees print the same digest only
if they compute the same numbers bit for bit on the same machine.

Run from the root of a checkout, against the tree to be fingerprinted:

    PYTHONPATH=src python3 tools/fingerprint.py
"""

import hashlib

import numpy as np

from qmele import (
    ESTIMATOR_KINDS,
    FitConfig,
    FitResult,
    G0Mode,
    InnovationDist,
    ModelOrders,
    OptimizerConfig,
    ParamVector,
    ScenarioConfig,
    covariance_local,
    covariance_self_weighted,
    fit_self_weighted,
    local_qmele_step,
    qmele_objective,
    qmle_objective,
    run_scenario,
    sigma_star,
    simulate,
    t_star,
)

LAPLACE = InnovationDist("laplace", "abs_mean_one")
# (name, orders, theta, innovations, base seed, n)
DESIGNS = (
    ("laplace_finite", (1, 0, 1, 1), (0.0, 0.5, 0.1, 0.18, 0.4), LAPLACE, 50000, 600),
    ("laplace_igarch", (1, 0, 1, 1), (0.0, 0.5, 0.1, 0.3, 0.4), LAPLACE, 20260602, 600),
    ("arma_normal", (1, 1, 1, 1), (0.0, 0.4, 0.3, 0.1, 0.15, 0.6),
     InnovationDist("normal", "var_one"), 3272157582, 600),
    ("garch12_laplace", (1, 0, 1, 2), (0.0, 0.5, 0.1, 0.3, 0.2, 0.2), LAPLACE, 50100, 600),
    ("arma21_garch22_laplace", (2, 1, 2, 2), (0.0, 0.3, 0.2, 0.3, 0.1, 0.1, 0.08, 0.3, 0.2),
     LAPLACE, 7000, 600),
)
PATHS = 4


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
                     result.iterations, result.nfev, result.starts, result.shrink_count,
                     result.status)
            cert = result.certificate
            if cert is None:
                self.add("no certificate")
            else:
                self.add(repr(cert.active), cert.max_s, cert.kkt, cert.pivots, cert.certified)
        else:
            self.add(result)
        return result


def main():
    d = Digest()
    known = FitConfig(g0_mode=G0Mode.known(0.5), seed=3)
    for name, order_tuple, theta_tuple, dist, seed, n in DESIGNS:
        orders = ModelOrders(*order_tuple)
        theta = ParamVector.from_theta(orders, np.asarray(theta_tuple)).validate()
        for path in range(PATHS):
            data = simulate(theta, dist, n, seed=seed + path)
            ones = np.ones(n)
            d.add(name, path, data.values)
            d.call("t_star", t_star, theta, data)
            d.call("sigma_star", sigma_star, theta, data, 0.5)
            d.call("cov_sw", covariance_self_weighted, theta, data, 0.5 + ones, 0.5, 1.3)
            d.call("cov_local", covariance_local, theta, data, 0.5, 1.3)
            d.call("qmele_objective", qmele_objective, theta, data, ones)
            d.call("qmle_objective", qmle_objective, theta, data, ones)
            for criterion in ("qmele", "qmle"):
                fit = d.call("fit", fit_self_weighted, data, orders, FitConfig(seed=path),
                             criterion=criterion)
                if fit is None or not fit.converged:
                    continue
                d.call("step_kernel", local_qmele_step, fit, data, config=FitConfig(seed=path))
                d.call("step_known", local_qmele_step, fit, data, g0=0.5, config=known)

    name, order_tuple, theta_tuple, dist, seed, n = DESIGNS[0]
    orders = ModelOrders(*order_tuple)
    scenario = ScenarioConfig(
        orders=orders,
        theta0=ParamVector.from_theta(orders, np.asarray(theta_tuple)).validate(),
        dist=dist,
        n=n,
        replications=3,
        seed=seed,
        estimators=ESTIMATOR_KINDS,
        g0_mode=G0Mode.known(0.5),
        optimizer=OptimizerConfig(restarts=1),
    )
    table = run_scenario(scenario)
    for kind in ESTIMATOR_KINDS:
        d.add(kind, table.bias[kind], table.sd[kind], table.ad[kind],
              table.successes[kind], table.failures[kind])
    for record in table.records:
        for kind in ESTIMATOR_KINDS:
            d.add(record.estimates[kind], record.std_errors[kind], record.converged[kind])
    print(d.sha.hexdigest())


if __name__ == "__main__":
    main()
