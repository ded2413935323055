"""Self-weights, Hill tail-index sweeps, and GARCH(1,1) parameter regions.

The self-weights damp observations that follow extreme values; the Hill
sweep reads off the tail index of squared residuals; the region checks map
where strict stationarity and fractional moments hold.
"""

import numpy as np

from qmele import (
    InnovationDist,
    ModelOrders,
    ParamVector,
    WeightSpec,
    compute_weights,
    hill_sweep,
    moment_condition_check,
    simulate,
    strict_stationarity_check,
)

orders = ModelOrders(1, 0, 1, 1)
igarch = ParamVector.from_parts(orders, mu=0.0, phi=[0.5], alpha0=0.1, alpha=[0.3], beta=[0.4])
dist = InnovationDist("laplace")

y = simulate(igarch, dist, 1500, seed=3)
w = compute_weights(y, WeightSpec("infinite_k9", c_quantile=0.90))
print(f"weights: min={w.min():.4f}  share at 1.0 = {np.mean(w == 1.0):.2%}")
print(f"ten smallest weights sit right after the ten largest |y| bursts: "
      f"{np.argsort(w)[:10].tolist()}")

# tail index of the squared series: integrated variance pushes it toward 1
rep = hill_sweep(y**2, k_max=150)
mid = (rep.k_values >= 50) & (rep.k_values <= 150)
print(f"hill alpha_hat(k) for y^2, k in [50,150]: "
      f"median {np.median(rep.alpha_hat[mid]):.3f}")

# stationarity and moment conditions along the alpha1 axis at beta1 = 0.4
print("\nalpha1   E log(a1 eta^2 + b1)   E[a1 eta^2 + b1]   stationary  var<inf")
for a1 in (0.1, 0.3, 0.5, 1.0, 2.0):
    st = strict_stationarity_check([a1], [0.4], dist, mc_draws=200_000, seed=1)
    mo = moment_condition_check(a1, 0.4, 1.0, dist, mc_draws=200_000, seed=1)
    print(f"{a1:5.2f}   {st.lyapunov_estimate:+20.4f}   {mo.moment_estimate:16.4f}"
          f"   {str(st.is_stationary):>10}  {str(mo.holds):>7}")
print("\n(the integrated case a1=0.3, b1=0.4 is strictly stationary with"
      " infinite variance)")
