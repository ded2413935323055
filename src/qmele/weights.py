"""Self-weighting of observations, Hill tail-index estimation and
stationarity / fractional-moment region checks for GARCH(1,1).

The weight attached to time t downweights observations preceded by extreme
values:

    w_t = ( max{1, C^{-1} sum_k k^{-a} |y_{t-k}| 1(|y_{t-k}| > C)} )^{-4},

where C is an empirical quantile of |y| and the lag exponent a depends on
the variant. Weights depend only on the strict past of the series, lie in
(0, 1], and equal 1 whenever no lagged observation exceeds C.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateSampleError, DomainError, UnsupportedOrderError
from .model import as_series

DEFAULT_MC_DRAWS = 1_000_000
DEFAULT_MC_SEED = 20260401
WEIGHT_VARIANTS = ("infinite_k9", "finite_lag", "infinite_iota_scaled")
THRESHOLDS = ("signed", "absolute")


@dataclass(frozen=True)
class WeightSpec:
    """Weight-function variant and its tuning constants.

    variant "infinite_k9" sums all lags with exponent a = 9;
    "finite_lag" sums lags 1..p+r only (AR-ARCH case), a = 9;
    "infinite_iota_scaled" sums all lags with a = 1 + 8/iota.

    The threshold C is the c_quantile nearest-rank quantile of the
    observations themselves (threshold="signed", the convention the
    packaged replication studies use) or of their absolute values
    (threshold="absolute", a safe fallback for series that are not roughly
    centered at zero).
    """

    variant: str = "infinite_k9"
    iota: float | None = None
    c_quantile: float = 0.90
    threshold: str = "signed"

    def __post_init__(self):
        if self.variant not in WEIGHT_VARIANTS:
            raise DomainError(f"unknown weight variant {self.variant!r}")
        if not 0.0 < self.c_quantile < 1.0:
            raise DomainError("c_quantile must be in (0, 1)")
        if self.threshold not in THRESHOLDS:
            raise DomainError(f"unknown threshold convention {self.threshold!r}")
        if self.variant == "infinite_iota_scaled":
            if self.iota is None or self.iota <= 0.0:
                raise DomainError("infinite_iota_scaled requires iota > 0")

    def exponent(self):
        if self.variant == "infinite_iota_scaled":
            return 1.0 + 8.0 / self.iota
        return 9.0


@dataclass(frozen=True)
class TailReport:
    """Hill estimates alpha_hat(k) over a range of k values."""

    k_values: np.ndarray
    alpha_hat: np.ndarray
    n_dropped: int = 0


def nearest_rank_quantile(values, prob):
    """Nearest-rank empirical quantile: the ceil(prob*n)-th order statistic."""
    v = np.sort(np.asarray(values, dtype=float))
    n = v.size
    if n == 0:
        raise DomainError("empty sample")
    idx = int(np.ceil(prob * n)) - 1
    return float(v[min(max(idx, 0), n - 1)])


def compute_weights(data, spec=WeightSpec(), orders=None, prehistory=None):
    """Self-weights w_1..w_n for a series.

    Parameters
    ----------
    data : array_like
        The series y_1..y_n, checked by model.as_series.
    spec : WeightSpec
    orders : ModelOrders, optional
        Required by the "finite_lag" variant (lags 1..p+r).
    prehistory : array_like, optional
        Values assumed to precede y_1 (most recent last). By default the
        pre-sample is zero, so lag sums truncate at k = t-1.

    Returns
    -------
    ndarray of weights in (0, 1]. The threshold C is computed from
    y_1..y_n only (never from the pre-history), per spec.threshold.
    """
    y = as_series(data)
    n = y.size
    if spec.threshold == "signed":
        C = nearest_rank_quantile(y, spec.c_quantile)
        if C <= 0.0:
            raise DomainError(
                "signed threshold quantile is nonpositive; use threshold='absolute' "
                "for series that are not centered near zero"
            )
    else:
        C = nearest_rank_quantile(np.abs(y), spec.c_quantile)

    if spec.variant == "finite_lag" and orders is None:
        raise DomainError("finite_lag weights need model orders for p+r")

    if prehistory is None:
        prehistory = np.empty(0)
    pre = np.asarray(prehistory, dtype=float)
    ext = np.concatenate([pre, y])
    z = np.where(np.abs(ext) > C, np.abs(ext), 0.0)
    if C <= 0.0:
        # all-zero series: indicator fires on nothing
        return np.ones(n)

    # Lags beyond K add at most max(z) K^(1-a)/(a-1) to a sum that matters
    # only above C, so the kernel is cut where that tail is below 2^-53 C.
    # A direct (not FFT) convolution keeps each w_t a function of the past.
    a = spec.exponent()
    with np.errstate(over="ignore"):
        tail_lags = np.float64(z.max() / (C * (a - 1.0)) * 2.0**53) ** (1.0 / (a - 1.0))
    n_lags = int(min(ext.size - 1, np.ceil(tail_lags)))  # deepest lag: pre.size + n - 1
    if spec.variant == "finite_lag":
        n_lags = min(n_lags, orders.p + orders.r)
    if n_lags <= 0:
        return np.ones(n)

    kern = np.arange(1, n_lags + 1, dtype=float) ** (-a)
    # s[j] = sum_k kern[k-1] * z[j-k] for the extended index j
    s_ext = np.convolve(z, kern)[: ext.size]
    s_ext = np.concatenate([[0.0], s_ext[:-1]])
    s = s_ext[pre.size :]

    inner = np.maximum(1.0, s / C)
    return inner**-4.0


def _hill_from_sorted_logs(logs, k):
    """Denominator sum_{j=1..k} (log v_(n-j) - log v_(n-k)); exactly zero
    when the values involved are tied (notably always at k = 1)."""
    n = logs.size
    denom = float(np.sum(logs[n - 1 - k : n - 1]) - k * logs[n - 1 - k])
    if denom <= 0.0:
        return None
    return k / denom


def hill_estimator(values, k):
    """Hill tail-index estimate from the k largest order statistics.

    With ascending order statistics v_(1) <= ... <= v_(n) of the positive
    entries, returns

        alpha_hat(k) = k / sum_{j=1..k} (log v_(n-j) - log v_(n-k)).

    Nonpositive entries are dropped before ordering. The anchoring at
    v_(n-k) makes k = 1 degenerate by construction.
    """
    v = np.asarray(values, dtype=float)
    v = v[v > 0.0]
    n = v.size
    if k < 1:
        raise DomainError("k must be >= 1")
    if n < k + 1:
        raise DomainError(f"need at least k+1={k + 1} positive values, have {n}")
    est = _hill_from_sorted_logs(np.log(np.sort(v)), k)
    if est is None:
        raise DegenerateSampleError("top order statistics are tied; Hill estimate undefined")
    return est


def hill_sweep(values, k_max):
    """Hill estimates for k = 1..k_max, skipping degenerate k.

    Returns a TailReport; n_dropped counts discarded nonpositive entries.
    """
    v = np.asarray(values, dtype=float)
    pos = v[v > 0.0]
    dropped = v.size - pos.size
    if k_max < 1:
        raise DomainError("k_max must be >= 1")
    if k_max >= pos.size:
        raise DomainError(f"k_max must be < number of positive values ({pos.size})")
    logs = np.log(np.sort(pos))
    ks, alphas = [], []
    for k in range(1, k_max + 1):
        est = _hill_from_sorted_logs(logs, k)
        if est is not None:
            ks.append(k)
            alphas.append(est)
    return TailReport(np.asarray(ks, dtype=int), np.asarray(alphas), n_dropped=dropped)


@dataclass(frozen=True)
class StationarityDecision:
    """Monte Carlo Lyapunov-exponent check E log(alpha1 eta^2 + beta1) < 0."""

    lyapunov_estimate: float
    std_error: float
    is_stationary: bool


@dataclass(frozen=True)
class MomentDecision:
    """Monte Carlo fractional-moment check E[(alpha1 eta^2 + beta1)^iota] < 1."""

    moment_estimate: float
    std_error: float
    holds: bool


def _garch11_coeffs(alpha, beta):
    a = np.atleast_1d(np.asarray(alpha, dtype=float))
    b = np.atleast_1d(np.asarray(beta, dtype=float))
    if a.size > 1 or b.size > 1:
        raise UnsupportedOrderError("criterion is specific to GARCH(1,1)")
    a1 = float(a[0]) if a.size else 0.0
    b1 = float(b[0]) if b.size else 0.0
    if a1 < 0.0 or b1 < 0.0:
        raise DomainError("alpha1 and beta1 must be >= 0")
    return a1, b1


def _mc_mean(f, a1, b1, dist, mc_draws, seed):
    """Monte Carlo mean of f(a1 eta^2 + b1) over mc_draws seeded innovations, and its SE."""
    if mc_draws < 1:
        raise DomainError("mc_draws must be >= 1")
    eta = dist.sample(np.random.default_rng(seed), mc_draws)
    vals = f(a1 * eta * eta + b1)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(mc_draws)) if mc_draws > 1 else 0.0


def strict_stationarity_check(alpha, beta, dist, mc_draws=DEFAULT_MC_DRAWS, seed=DEFAULT_MC_SEED):
    """Check the GARCH(1,1) strict-stationarity condition E log(a1 eta^2 + b1) < 0.

    With alpha1 = 0 the expectation is log(beta1) exactly and no sampling is
    done; otherwise it is estimated from mc_draws innovations.
    """
    a1, b1 = _garch11_coeffs(alpha, beta)
    if a1 == 0.0:
        if b1 == 0.0:
            raise DomainError("alpha1 = beta1 = 0 leaves no dynamics to check")
        est = float(np.log(b1))
        return StationarityDecision(est, 0.0, est < 0.0)
    est, se = _mc_mean(np.log, a1, b1, dist, mc_draws, seed)
    return StationarityDecision(est, se, est < 0.0)


def moment_condition_check(
    alpha1, beta1, iota, dist, mc_draws=DEFAULT_MC_DRAWS, seed=DEFAULT_MC_SEED
):
    """Check the fractional-moment condition E[(a1 eta^2 + b1)^iota] < 1.

    The boundary (estimate = 1, e.g. an integrated model at iota = 1) must
    not be declared as holding just because of Monte Carlo noise, so `holds`
    requires the estimate to clear 1 by three standard errors.
    """
    a1, b1 = _garch11_coeffs(alpha1, beta1)
    if iota <= 0.0:
        raise DomainError("iota must be > 0")
    if a1 == 0.0:
        est = b1**iota
        return MomentDecision(float(est), 0.0, est < 1.0)
    est, se = _mc_mean(lambda x: x**iota, a1, b1, dist, mc_draws, seed)
    return MomentDecision(est, se, est + 3.0 * se < 1.0)
