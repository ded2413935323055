"""The full estimation workflow on one simulated series.

Self-weighted exponential-criterion fit, then the one-step efficient
update, then the residual diagnostics that back a model-adequacy claim.
"""

import numpy as np

from qmele import (
    FitConfig,
    G0Mode,
    InnovationDist,
    ModelOrders,
    ParamVector,
    acf,
    fit_self_weighted,
    hill_sweep,
    local_qmele_step,
    pacf,
    simulate,
    standardized_residuals,
)

orders = ModelOrders(1, 0, 1, 1)
theta0 = ParamVector.from_parts(orders, mu=0.0, phi=[0.5], alpha0=0.1, alpha=[0.18], beta=[0.4])
data = simulate(theta0, InnovationDist("laplace"), n=1000, burn_in=500, seed=12)

# in simulation the innovation density at zero is known: g(0) = 1/2
config = FitConfig(g0_mode=G0Mode.known(0.5))
sw = fit_self_weighted(data, orders, config, criterion="qmele")
local = local_qmele_step(sw, data, g0=0.5)

names = orders.param_names()
print(f"{'':10}" + "".join(f"{nm:>12}" for nm in names))
print(f"{'truth':10}" + "".join(f"{v:12.4f}" for v in theta0.theta))
for label, fit in (("sw", sw), ("one-step", local)):
    print(f"{label:10}" + "".join(f"{v:12.4f}" for v in fit.theta_hat.theta))
    print(f"{'  (se)':10}" + "".join(f"{v:12.4f}" for v in fit.std_errors))
print(f"\nconverged={sw.converged} after {sw.iterations} optimizer iterations "
      f"({sw.nfev} criterion evaluations); "
      f"g0={local.g0:.3f}, eta2_hat={local.eta2:.3f}")

eta = standardized_residuals(local, data)
print(f"mean |eta_hat| = {np.mean(np.abs(eta)):.4f} (identification target 1)")

for label, series in (("eta_hat", eta), ("eta_hat^2", eta**2)):
    rep = acf(series, 10)
    prep = pacf(series, 10)
    n_out = int(np.sum(np.abs(rep.values[1:]) > rep.band))
    n_out_p = int(np.sum(np.abs(prep.values[1:]) > prep.band))
    print(f"{label:10}: {n_out} ACF and {n_out_p} PACF lags (of 10) outside +-{rep.band:.3f}")

tail = hill_sweep(eta**2, k_max=120)
sl = (tail.k_values >= 40)
print(f"tail index of eta_hat^2 (k >= 40): median {np.median(tail.alpha_hat[sl]):.2f} "
      "(> 1 keeps E eta^2 finite)")
