"""Residual diagnostics and estimator-efficiency comparison.

The efficiency comparison contrasts the gaussian and exponential criteria
through the scalar factors

    kappa1 = E eta^4 / (E eta^2)^2 - 1      (gaussian criterion),
    kappa2 = 4 (E eta^2 - 1)                (exponential criterion),

computed in closed form for innovation laws standardized to E|eta| = 1; the
criterion with the smaller factor is asymptotically preferable for the pure
ARCH comparison these factors govern.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateSampleError, DomainError
from .model import as_series, checked_eps_h

PREFER_QMELE = "qmele"
PREFER_QMLE = "qmle"
PREFER_TIE = "tie"


@dataclass(frozen=True)
class AcfReport:
    """Sample (partial) autocorrelations with a white-noise band 2/sqrt(n)."""

    lags: np.ndarray
    values: np.ndarray
    band: float


@dataclass(frozen=True)
class EfficiencyReport:
    kappa1: float
    kappa2: float
    eta2: float
    eta4: float
    eta4_finite: bool
    preferred: str


def standardized_residuals(fit, data):
    """Residuals eta_hat_t = eps_t(gamma_hat) / sqrt(h_t(theta_hat)), from
    the fit's kept filter pass where data is the series it ran on.

    Raises NumericOverflowError, as every filter caller does, if a
    recursion leaves the finite range or h exceeds H_OVERFLOW_LIMIT.
    """
    if not fit.converged:
        raise DomainError("fit did not converge; residuals would be meaningless")
    out = fit.kept_pass(data)
    eps, h = checked_eps_h(fit.theta_hat, data)[1:] if out is None else (out.eps, out.h)
    return eps / np.sqrt(h)


def check_max_lag(max_lag):
    """DomainError unless max_lag >= 1, the least lag acf and pacf take."""
    if max_lag < 1:
        raise DomainError("max_lag must be >= 1")


def _acf_values(x, max_lag):
    x = as_series(x)
    n = x.size
    check_max_lag(max_lag)
    if n <= max_lag:
        raise DomainError("series must be longer than max_lag")
    xc = x - x.mean()
    denom = float(xc @ xc)
    if denom <= 0.0:
        raise DegenerateSampleError("constant series has no autocorrelation")
    rho = np.empty(max_lag + 1)
    rho[0] = 1.0
    for k in range(1, max_lag + 1):
        rho[k] = float(xc[k:] @ xc[:-k]) / denom
    return rho, n


def acf(values, max_lag):
    """Sample autocorrelations rho_hat(0..max_lag), divisor n, of a model.as_series series."""
    rho, n = _acf_values(values, max_lag)
    return AcfReport(np.arange(max_lag + 1), rho, band=2.0 / np.sqrt(n))


def pacf(values, max_lag):
    """Partial autocorrelations via the Durbin-Levinson recursion on rho_hat."""
    rho, n = _acf_values(values, max_lag)
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    prev = np.empty(0)
    for k in range(1, max_lag + 1):
        if k == 1:
            pk = rho[1]
        else:
            num = rho[k] - prev @ rho[k - 1 : 0 : -1]
            den = 1.0 - prev @ rho[1:k]
            if abs(den) < 1e-300:
                raise DegenerateSampleError(f"Durbin-Levinson recursion degenerate at lag {k}")
            pk = num / den
        cur = np.empty(k)
        cur[:-1] = prev - pk * prev[::-1]
        cur[-1] = pk
        prev = cur
        out[k] = pk
    return AcfReport(np.arange(max_lag + 1), out, band=2.0 / np.sqrt(n))


def efficiency_compare(dist):
    """Closed-form kappa1/kappa2 comparison for a standardized innovation law.

    Requires dist.standardization == "abs_mean_one". The moments are the
    law's own, dist.eta2() and dist.eta4(). For t3 innovations the fourth
    moment is infinite: kappa1 is reported as math.inf with
    eta4_finite=False and the exponential criterion is preferred.
    """
    if dist.standardization != "abs_mean_one":
        raise DomainError("efficiency comparison is defined under E|eta| = 1")
    eta2, eta4 = dist.eta2(), dist.eta4()
    kappa2 = 4.0 * (eta2 - 1.0)
    kappa1 = eta4 / eta2**2 - 1.0
    if kappa1 < kappa2:
        preferred = PREFER_QMLE
    elif kappa2 < kappa1:
        preferred = PREFER_QMELE
    else:
        preferred = PREFER_TIE
    return EfficiencyReport(
        kappa1=kappa1,
        kappa2=kappa2,
        eta2=eta2,
        eta4=eta4,
        eta4_finite=math.isfinite(eta4),
        preferred=preferred,
    )
