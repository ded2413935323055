import math

import numpy as np
import pytest

from qmele import (
    DegenerateSampleError,
    DomainError,
    FitResult,
    InnovationDist,
    ModelOrders,
    NumericOverflowError,
    ParamVector,
    SW_QMELE,
    acf,
    efficiency_compare,
    pacf,
    simulate,
    standardized_residuals,
)

from conftest import THETA_FINITE, make_theta


def _const_fit(alpha0):
    theta = ParamVector.from_parts(ModelOrders(0, 0, 0, 0), mu=0.0, alpha0=alpha0)
    return FitResult(
        theta_hat=theta,
        objective_value=0.0,
        covariance=np.eye(2),
        std_errors=np.ones(2),
        converged=True,
        iterations=0,
        estimator_kind=SW_QMELE,
    )


def test_standardized_residuals_constant_model():
    res = standardized_residuals(_const_fit(4.0), np.array([2.0, -2.0]))
    np.testing.assert_allclose(res, [1.0, -1.0])


def test_standardized_residuals_roundtrip():
    from dataclasses import replace

    from qmele import simulate_with_innovations

    theta = make_theta(THETA_FINITE)
    y, eta = simulate_with_innovations(theta, InnovationDist("laplace"), 700, seed=31)
    fit = replace(_const_fit(1.0), theta_hat=theta)
    res = standardized_residuals(fit, y)
    assert np.max(np.abs(res[50:] - eta[50:])) < 1e-3


def test_standardized_residuals_requires_convergence():
    bad = FitResult(
        theta_hat=_const_fit(1.0).theta_hat,
        objective_value=np.nan,
        covariance=np.eye(2),
        std_errors=np.ones(2),
        converged=False,
        iterations=0,
        estimator_kind=SW_QMELE,
    )
    with pytest.raises(DomainError):
        standardized_residuals(bad, np.array([1.0, 2.0]))


def test_standardized_residuals_overflow_is_a_numeric_failure():
    # the same rule as every filter caller: h above H_OVERFLOW_LIMIT (here
    # 1 + 10 * 1e300 at t = 2, still finite) overflows
    from dataclasses import replace

    theta = ParamVector.from_parts(ModelOrders(0, 0, 1, 0), mu=0.0, alpha0=1.0, alpha=[10.0])
    fit = replace(_const_fit(1.0), theta_hat=theta, covariance=np.eye(3), std_errors=np.ones(3))
    with pytest.raises(NumericOverflowError, match="h recursion overflowed at t=2"):
        standardized_residuals(fit, np.array([1e150, 1.0, 1.0]))


def test_acf_lag_zero_and_bands():
    x = np.random.default_rng(0).standard_normal(10_000)
    rep = acf(x, 20)
    assert rep.values[0] == 1.0
    assert rep.band == pytest.approx(2.0 / 100.0)
    # white noise: at most 10% of lags 1..20 outside the two-sigma band
    assert np.sum(np.abs(rep.values[1:]) > rep.band) <= 2


def test_acf_ar1_level():
    theta = ParamVector.from_parts(ModelOrders(1, 0, 0, 0), mu=0.0, phi=[0.5], alpha0=1.0)
    y = simulate(theta, InnovationDist("normal", "var_one"), 10_000, seed=2)
    rep = acf(y, 5)
    assert 0.45 <= rep.values[1] <= 0.55
    assert 0.20 <= rep.values[2] <= 0.30


def test_acf_shift_scale_invariance():
    x = np.random.default_rng(5).standard_normal(500)
    a = acf(x, 10).values
    b = acf(-2.5 * x + 7.0, 10).values
    # sign flips cancel: a*x identical for a<0 too since both series flip
    np.testing.assert_allclose(b, a, atol=1e-12)


def test_pacf_lag1_equals_acf_lag1_and_ar2_cutoff():
    theta = ParamVector.from_parts(ModelOrders(2, 0, 0, 0), mu=0.0, phi=[0.5, 0.2], alpha0=1.0)
    y = simulate(theta, InnovationDist("normal", "var_one"), 20_000, seed=3)
    a = acf(y, 10)
    p = pacf(y, 10)
    assert p.values[0] == 1.0
    assert p.values[1] == pytest.approx(a.values[1], rel=1e-12)
    assert p.values[2] == pytest.approx(0.2, abs=0.03)
    assert np.all(np.abs(p.values[3:]) < 3.0 * p.band)


def test_acf_errors():
    with pytest.raises(DegenerateSampleError):
        acf(np.full(100, 2.0), 5)
    with pytest.raises(DomainError):
        acf(np.arange(10.0), 10)
    with pytest.raises(DomainError):
        pacf(np.arange(10.0), 0)
    for bad in (np.nan, np.inf):
        for corr in (acf, pacf):
            with pytest.raises(DomainError, match="^series values must be finite$"):
                corr(np.r_[np.arange(10.0), bad], 3)


def test_efficiency_laplace_exact():
    rep = efficiency_compare(InnovationDist("laplace"))
    assert rep.kappa1 == 5.0
    assert rep.kappa2 == 4.0
    assert rep.eta2 == 2.0 and rep.eta4 == 24.0
    assert rep.preferred == "qmele"


def test_efficiency_normal_closed_form():
    rep = efficiency_compare(InnovationDist("normal"))
    assert rep.eta2 == pytest.approx(math.pi / 2.0, rel=1e-14)
    assert rep.eta4 == pytest.approx(3.0 * math.pi**2 / 4.0, rel=1e-14)
    assert rep.kappa1 == pytest.approx(2.0, rel=1e-14)
    assert rep.kappa2 == pytest.approx(2.0 * math.pi - 4.0, rel=1e-14)
    assert rep.preferred == "qmle"


def test_efficiency_t3_infinite_fourth_moment():
    rep = efficiency_compare(InnovationDist("student_t3"))
    assert math.isinf(rep.kappa1) and math.isinf(rep.eta4)
    assert not rep.eta4_finite
    assert rep.eta2 == pytest.approx(math.pi**2 / 4.0, rel=1e-14)
    assert rep.preferred == "qmele"


def test_efficiency_mixture_pinned_values():
    rep = efficiency_compare(InnovationDist("mixture", epsilon=1.0, tau=math.sqrt(math.pi / 2)))
    assert rep.kappa1 == pytest.approx(2.0, abs=1e-12)
    assert rep.kappa2 == pytest.approx(2.0 * math.pi - 4.0, abs=1e-12)
    assert rep.preferred == "qmle"
    rep2 = efficiency_compare(InnovationDist("mixture", epsilon=0.99, tau=0.1))
    assert rep2.kappa1 == pytest.approx(75.51, abs=0.1)
    assert rep2.kappa2 == pytest.approx(6.5, abs=0.1)
    assert rep2.preferred == "qmele"


def test_mixture_second_moment_reduces_to_pure_normal():
    # at epsilon = 0 the mixture is the standardized normal; its second
    # moment (the exponential-criterion side) reduces exactly
    rep0 = efficiency_compare(InnovationDist("mixture", epsilon=0.0, tau=3.0))
    assert rep0.eta2 == pytest.approx(math.pi / 2.0, rel=1e-14)
    assert rep0.kappa2 == pytest.approx(2.0 * math.pi - 4.0, rel=1e-14)


@pytest.mark.parametrize("epsilon, tau", [(0.0, 3.0), (1.0, 1.0), (1.0, math.sqrt(math.pi / 2))])
def test_mixture_of_one_normal_reports_the_normal_law(epsilon, tau):
    # with one component the mixture is the normal law, and its fourth
    # moment, like its second, is the law's own
    mixture = efficiency_compare(InnovationDist("mixture", epsilon=epsilon, tau=tau))
    normal = efficiency_compare(InnovationDist("normal"))
    assert (mixture.kappa1, mixture.eta4, mixture.preferred) == (normal.kappa1, normal.eta4, normal.preferred)


def test_efficiency_requires_abs_mean_one():
    with pytest.raises(DomainError):
        efficiency_compare(InnovationDist("laplace", "var_one"))


def test_efficiency_second_moments_match_monte_carlo():
    # closed-form eta2 and eta4 (finite for all but t3) against 10^6
    # standardized draws, within 3 MC standard errors
    rng = np.random.default_rng(20260404)
    for kind, eps, tau in [
        ("laplace", 0.0, 1.0),
        ("normal", 0.0, 1.0),
        ("student_t3", 0.0, 1.0),
        ("mixture", 0.3, 2.0),
    ]:
        dist = InnovationDist(kind, "abs_mean_one", epsilon=eps, tau=tau)
        draws = dist.sample(rng, 1_000_000)
        sq = draws**2
        se = sq.std(ddof=1) / 1000.0
        assert abs(sq.mean() - dist.eta2()) <= 3.0 * se, kind
    for kind, eps, tau in [("laplace", 0.0, 1.0), ("normal", 0.0, 1.0), ("mixture", 0.3, 2.0)]:
        dist = InnovationDist(kind, "abs_mean_one", epsilon=eps, tau=tau)
        draws = dist.sample(rng, 1_000_000)
        q = draws**4
        se = q.std(ddof=1) / 1000.0
        assert abs(q.mean() - dist.eta4()) <= 3.0 * se, kind
        assert efficiency_compare(dist).eta4 == dist.eta4()
