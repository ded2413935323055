import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from qmele import (
    ESTIMATOR_KINDS,
    LOCAL_QMELE,
    SW_QMELE,
    DomainError,
    FitConfig,
    FitResult,
    G0Mode,
    InnovationDist,
    InsufficientDataError,
    ModelOrders,
    ParamVector,
    ScenarioConfig,
    SingularInformationError,
    WeightSpec,
    compute_weights,
    covariance_local,
    covariance_self_weighted,
    estimate_eta2,
    estimate_g0,
    filter_series,
    fit_self_weighted,
    local_qmele_step,
    qmele_objective,
    qmle_objective,
    run_replication,
    sigma_star,
    simulate,
    t_star,
)
from qmele.estimation import (
    CRITERIA,
    KKT_TOL,
    QMELE,
    QMLE,
    _TIGHT,
    Evaluator,
    _box,
    _criterion_mean,
    _initial_params,
    _sandwich,
)
from qmele.model import _eps_h, checked_eps_h

from conftest import AR1_GARCH11, LAPLACE, THETA_FINITE, THETA_IGARCH, estimates_matrix, make_theta

CONST = ModelOrders(0, 0, 0, 0)
NORMAL = InnovationDist("normal", "var_one")
THETA_ARMA = [0.0, 0.5, 0.3, 0.1, 0.18, 0.4]


def const_theta(alpha0):
    return ParamVector.from_parts(CONST, mu=0.0, alpha0=alpha0)


def test_qmele_objective_hand_values():
    assert qmele_objective(const_theta(1.0), np.zeros(5), np.ones(5)) == pytest.approx(0.0)
    y = np.array([2.0, -2.0])
    val = qmele_objective(const_theta(4.0), y, np.ones(2))
    assert val == pytest.approx(np.log(2.0) + 1.0, rel=1e-12)


def test_qmle_objective_hand_values():
    assert qmle_objective(const_theta(1.0), np.zeros(5), np.ones(5)) == pytest.approx(0.0)
    y = np.array([2.0, -2.0])
    val = qmle_objective(const_theta(4.0), y, np.ones(2))
    assert val == pytest.approx(np.log(4.0) + 1.0, rel=1e-12)


def test_objective_propagates_filter_overflow():
    from qmele import NumericOverflowError

    orders = ModelOrders(0, 1, 0, 0)
    theta = ParamVector.from_parts(orders, mu=0.0, psi=[3.0], alpha0=1.0)
    y = np.ones(1000)
    with pytest.raises(NumericOverflowError):
        qmele_objective(theta, y, np.ones(1000))


def test_objective_scales_linearly_in_weights():
    theta = make_theta([0.0, 0.3, 0.5, 0.1, 0.2])
    y = simulate(theta, InnovationDist("laplace"), 200, seed=5)
    w = compute_weights(y)
    base = qmele_objective(theta, y, w)
    assert qmele_objective(theta, y, 3.0 * w) == pytest.approx(3.0 * base, rel=1e-12)
    # objective ranking over a parameter grid is unchanged by weight scaling
    grid = [make_theta([0.0, p, 0.5, 0.1, 0.2]) for p in (-0.2, 0.1, 0.35, 0.6)]
    v1 = [qmele_objective(t, y, w) for t in grid]
    v2 = [qmele_objective(t, y, 3.0 * w) for t in grid]
    assert np.argsort(v1).tolist() == np.argsort(v2).tolist()


def test_qmle_argmin_of_constant_model_is_mean_square():
    y = np.random.default_rng(8).standard_normal(500) * 1.7
    w = np.ones(500)
    star = float(np.mean(y * y))

    def f(a0):
        return qmle_objective(const_theta(a0), y, w)

    h = 1e-5 * star
    deriv = (f(star + h) - f(star - h)) / (2 * h)
    assert abs(deriv) < 1e-10
    assert f(star) < f(star * 1.05) and f(star) < f(star * 0.95)


def test_t_star_hand_example_and_sign_convention():
    # two-observation constant model: sign terms cancel in mu;
    # alpha0 coordinate sums (1/2)(1 - |eta_t|) = -1
    y = np.array([2.0, -2.0])
    T = t_star(const_theta(1.0), y)
    assert T[0] == pytest.approx(0.0, abs=1e-14)
    assert T[1] == pytest.approx(-1.0, rel=1e-14)


def test_t_star_zero_at_unit_absolute_residuals():
    # |eta_t| = 1 kills the volatility term; symmetric signs kill the rest
    y = np.array([2.0, -2.0])
    T = t_star(const_theta(4.0), y)
    np.testing.assert_allclose(T, 0.0, atol=1e-14)


def test_t_star_equals_n_times_gradient_at_kink_free_points():
    theta0 = make_theta(THETA_FINITE)
    data = simulate(theta0, InnovationDist("laplace"), 400, seed=11)
    theta = make_theta([0.02, 0.45, 0.12, 0.2, 0.35])
    eps, h = _eps_h(theta, data)
    assert np.min(np.abs(eps / np.sqrt(h))) > 1e-3  # kink-free for this seed
    T = t_star(theta, data)
    n = data.size
    w = np.ones(n)
    grad = np.zeros(theta.m)
    for j in range(theta.m):
        step = 1e-7 * max(1.0, abs(theta.theta[j]))
        tp, tm = theta.theta.copy(), theta.theta.copy()
        tp[j] += step
        tm[j] -= step
        grad[j] = (
            qmele_objective(ParamVector.from_theta(theta.orders, tp), data, w)
            - qmele_objective(ParamVector.from_theta(theta.orders, tm), data, w)
        ) / (2 * step)
    assert np.max(np.abs(T - n * grad)) / np.max(np.abs(T)) < 1e-5


def test_sigma_star_hand_example():
    y = np.array([2.0, -2.0])
    S = sigma_star(const_theta(1.0), y, g0=0.5)
    np.testing.assert_allclose(S, [[1.0, 0.0], [0.0, 0.25]], atol=1e-14)


def test_sigma_star_symmetric_psd_and_linear_in_g0():
    theta = make_theta([0.0, 0.4, 0.3, 0.15, 0.45])
    y = simulate(theta, InnovationDist("laplace"), 300, seed=3)
    S1 = sigma_star(theta, y, g0=0.5)
    S2 = sigma_star(theta, y, g0=1.0)
    np.testing.assert_allclose(S1, S1.T)
    assert np.all(np.linalg.eigvalsh(S1) > -1e-10)
    # doubling g0 adds exactly the eps-outer-product part
    eps_part = S2 - S1
    S3 = sigma_star(theta, y, g0=1.5)
    np.testing.assert_allclose(S3, S2 + eps_part, rtol=1e-10)
    with pytest.raises(DomainError):
        sigma_star(theta, y, g0=0.0)


def brute_force_sw_covariance(theta, y, w, g0, eta2, eta_sq_dev=None):
    """Literal per-term evaluation of the sandwich, kept independent of the
    production implementation: the exponential criterion's, or the gaussian
    one's when the plug-in eta_sq_dev for E(1 - eta^2)^2 is given."""
    from qmele import filter_series

    out = filter_series(theta, y)
    n = y.size
    m = theta.m
    sig = np.zeros((m, m))
    omg = np.zeros((m, m))
    for t in range(n):
        de = out.deps[t][:, None]
        dh = out.dh[t][:, None]
        ht = out.h[t]
        if eta_sq_dev is None:
            sig += w[t] * (g0 / ht * de @ de.T + 1.0 / (8.0 * ht * ht) * dh @ dh.T)
            omg += w[t] ** 2 * (1.0 / ht * de @ de.T + (eta2 - 1.0) / 4.0 / ht**2 * dh @ dh.T)
        else:
            sig += w[t] * (1.0 / ht * de @ de.T + 1.0 / (2.0 * ht * ht) * dh @ dh.T)
            omg += w[t] ** 2 * (4.0 * eta2 / ht * de @ de.T + eta_sq_dev / ht**2 * dh @ dh.T)
    sig /= n
    omg /= n
    si = np.linalg.inv(sig)
    return 0.25 * si @ omg @ si / n


def test_covariance_matches_brute_force_oracle():
    theta = make_theta([0.0, 0.5, 0.12, 0.2, 0.35])
    y = simulate(make_theta(THETA_FINITE), InnovationDist("laplace"), 250, seed=9)
    w = compute_weights(y)
    cov = covariance_self_weighted(theta, y, w, g0=0.5, eta2=1.9)
    ref = brute_force_sw_covariance(theta, y, w, g0=0.5, eta2=1.9)
    np.testing.assert_allclose(cov, ref, rtol=1e-8)


def test_gaussian_covariance_matches_brute_force_oracle():
    theta = make_theta([0.0, 0.5, 0.12, 0.2, 0.35])
    y = simulate(make_theta(THETA_FINITE), InnovationDist("laplace"), 250, seed=9)
    w = compute_weights(y)
    cov = _sandwich(filter_series(theta, y), QMLE, w, 0.5, 1.9, 2.7)
    ref = brute_force_sw_covariance(theta, y, w, g0=0.5, eta2=1.9, eta_sq_dev=2.7)
    np.testing.assert_allclose(cov, ref, rtol=1e-8)


def test_covariance_eta2_one_drops_volatility_score_term():
    theta = make_theta([0.0, 0.5, 0.12, 0.2, 0.35])
    y = simulate(make_theta(THETA_FINITE), InnovationDist("laplace"), 250, seed=10)
    w = compute_weights(y)
    from qmele import filter_series
    from qmele.estimation import _cross, _sym_inv

    out = filter_series(theta, y)
    n = y.size
    sig = _cross(out, (0.5 * w / out.h, w / (8 * out.h**2))) / n
    omega_eps_only = _cross(out, (w * w / out.h, np.zeros(n))) / n
    si = _sym_inv(sig)
    expected = 0.25 * si @ omega_eps_only @ si / n
    got = covariance_self_weighted(theta, y, w, g0=0.5, eta2=1.0)
    np.testing.assert_allclose(got, expected, rtol=1e-10)


def test_covariance_local_equals_unit_weight_self_weighted():
    theta = make_theta([0.0, 0.5, 0.12, 0.2, 0.35])
    y = simulate(make_theta(THETA_FINITE), InnovationDist("laplace"), 250, seed=12)
    a = covariance_local(theta, y, g0=0.5, eta2=1.8)
    b = covariance_self_weighted(theta, y, np.ones(y.size), g0=0.5, eta2=1.8)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_allclose(a, a.T)
    assert np.all(np.linalg.eigvalsh(a) > 0.0)


def test_covariance_validates_inputs():
    theta = make_theta([0.0, 0.5, 0.12, 0.2, 0.35])
    y = simulate(make_theta(THETA_FINITE), InnovationDist("laplace"), 120, seed=13)
    with pytest.raises(DomainError):
        covariance_self_weighted(theta, y, np.ones(y.size), g0=-1.0, eta2=2.0)
    with pytest.raises(DomainError):
        covariance_self_weighted(theta, y, np.ones(y.size), g0=0.5, eta2=0.5)


def test_singular_information_raises():
    # an all-zero series carries no information about phi1: the corresponding
    # derivative column vanishes and the information matrix is singular
    y = np.zeros(30)
    theta = ParamVector.from_parts(ModelOrders(1, 0, 0, 0), mu=0.0, phi=[0.5], alpha0=1.0)
    with pytest.raises(SingularInformationError):
        covariance_local(theta, y, g0=0.5, eta2=2.0)


def test_estimate_eta2():
    assert estimate_eta2(np.ones(7)) == pytest.approx(1.0)
    assert estimate_eta2(np.array([1.0, -3.0])) == pytest.approx(5.0)
    rng = np.random.default_rng(4)
    eta = InnovationDist("laplace").sample(rng, 1_000_000)
    assert abs(estimate_eta2(eta) - 2.0) < 0.02
    with pytest.raises(DomainError):
        estimate_eta2(np.empty(0))


def test_estimate_g0():
    assert estimate_g0(np.empty(0), G0Mode.known(0.5)) == 0.5
    rng = np.random.default_rng(14)
    lap = InnovationDist("laplace").sample(rng, 100_000)
    assert 0.45 <= estimate_g0(lap) <= 0.55
    norm = rng.standard_normal(100_000)
    assert 0.37 <= estimate_g0(norm) <= 0.43
    with pytest.raises(DomainError):
        estimate_g0(np.empty(0))


def test_fit_insufficient_data_guard():
    with pytest.raises(InsufficientDataError):
        fit_self_weighted(np.ones(5) + np.arange(5) * 0.1, AR1_GARCH11)
    with pytest.raises(DomainError, match="unknown criterion"):
        fit_self_weighted(np.arange(100.0), AR1_GARCH11, criterion="bogus")


def test_fit_recovers_truth_single_path():
    theta0 = make_theta(THETA_FINITE)
    data = simulate(theta0, InnovationDist("laplace"), 1000, seed=600)
    fit = fit_self_weighted(
        data, AR1_GARCH11, FitConfig(g0_mode=G0Mode.known(0.5), seed=1)
    )
    assert fit.converged
    assert fit.estimator_kind == SW_QMELE
    assert np.all(np.abs(fit.theta_hat.theta - theta0.theta) <= 5.0 * fit.std_errors)
    assert np.all(fit.std_errors > 0.0)
    # identification: mean absolute standardized residual near one
    eps, h = _eps_h(fit.theta_hat, data)
    assert abs(np.mean(np.abs(eps / np.sqrt(h))) - 1.0) < 0.05


def test_local_step_fixed_point_at_zero_score():
    y = np.array([2.0, -2.0])
    theta = const_theta(4.0)
    np.testing.assert_allclose(t_star(theta, y), 0.0, atol=1e-14)
    init = FitResult(
        theta_hat=theta,
        objective_value=qmele_objective(theta, y, np.ones(2)),
        covariance=np.eye(2),
        std_errors=np.ones(2),
        converged=True,
        iterations=0,
        estimator_kind=SW_QMELE,
        weights=np.ones(2),
    )
    stepped = local_qmele_step(init, y, g0=0.5)
    np.testing.assert_allclose(stepped.theta_hat.theta, theta.theta, atol=1e-12)
    assert stepped.estimator_kind == LOCAL_QMELE
    assert stepped.shrink_count == 0


def test_local_step_requires_converged_initializer():
    y = np.array([2.0, -2.0])
    bad = FitResult(
        theta_hat=const_theta(4.0),
        objective_value=np.nan,
        covariance=np.eye(2),
        std_errors=np.ones(2),
        converged=False,
        iterations=0,
        estimator_kind=SW_QMELE,
    )
    with pytest.raises(DomainError):
        local_qmele_step(bad, y, g0=0.5)


def test_local_step_mse_improves_gamma_block(mc_laplace_finite):
    theta0 = np.asarray(THETA_FINITE)
    sw = estimates_matrix(mc_laplace_finite, SW_QMELE)
    loc = estimates_matrix(mc_laplace_finite, LOCAL_QMELE)
    mse_sw = np.mean((sw[:, :2] - theta0[:2]) ** 2, axis=0).sum()
    mse_loc = np.mean((loc[:, :2] - theta0[:2]) ** 2, axis=0).sum()
    assert mse_loc <= mse_sw


def test_fit_recovery_rate_five_sigma(mc_laplace_finite):
    # estimate within 5 estimated standard errors componentwise for >= 95% of seeds
    theta0 = np.asarray(THETA_FINITE)
    records = mc_laplace_finite.records
    hits = []
    for rec in records:
        if not rec.converged[SW_QMELE]:
            continue
        est, se = rec.estimates[SW_QMELE], rec.std_errors[SW_QMELE]
        hits.append(np.all(np.abs(est - theta0) <= 5.0 * se))
    assert len(hits) >= 190
    assert np.mean(hits) >= 0.95


def weighted_lad_objective(gamma, y, w):
    mu, phi = gamma
    eps = y - mu - phi * np.concatenate([[0.0], y[:-1]])
    return float(np.sum(w * np.abs(eps)))


def test_reduces_to_weighted_lad_when_variance_constant():
    orders = ModelOrders(1, 0, 0, 0)
    theta0 = ParamVector.from_parts(orders, mu=0.1, phi=[0.5], alpha0=1.0)
    y = simulate(theta0, InnovationDist("laplace"), 400, seed=15)
    w = compute_weights(y, WeightSpec())

    opts = dict(maxiter=4000, xatol=1e-10, fatol=1e-12)
    lad = minimize(weighted_lad_objective, [0.0, 0.3], args=(y, w), method="Nelder-Mead", options=opts)

    # profiling alpha0 out of the exponential criterion leaves the same argmin
    def profiled(gamma):
        return np.log(weighted_lad_objective(gamma, y, w))

    prof = minimize(profiled, [0.0, 0.3], args=(), method="Nelder-Mead", options=opts)
    np.testing.assert_allclose(prof.x, lad.x, atol=1e-6)

    fit = fit_self_weighted(y, orders, FitConfig(seed=2), criterion="qmele")
    assert fit.converged
    np.testing.assert_allclose(fit.theta_hat.gamma, lad.x, atol=1e-4)


def test_fit_under_t3_innovations():
    # heavy-tailed case: E eta^4 = inf, but the exponential criterion and its
    # sandwich still behave
    theta0 = make_theta([0.0, 0.5, 0.1, 0.2, 0.4])
    data = simulate(theta0, InnovationDist("student_t3"), 1000, seed=777)
    fit = fit_self_weighted(data, AR1_GARCH11, FitConfig(seed=4))
    assert fit.converged
    assert np.all(np.abs(fit.theta_hat.theta - theta0.theta) <= 5.0 * fit.std_errors)
    # the fit reports the public exponential sandwich at its own nuisance estimates
    np.testing.assert_array_equal(
        fit.covariance, covariance_self_weighted(fit.theta_hat, data, fit.weights, fit.g0, fit.eta2)
    )
    stepped = local_qmele_step(fit, data)
    assert stepped.converged
    assert np.all(np.isfinite(stepped.std_errors))


def test_optimizer_config_validation():
    with pytest.raises(DomainError):
        FitConfig(restarts=-1)
    with pytest.raises(DomainError):
        G0Mode("known")


def test_converged_describes_the_returned_point(monkeypatch):
    theta0 = make_theta(THETA_FINITE)
    data = simulate(theta0, InnovationDist("laplace"), 300, seed=602)
    with monkeypatch.context() as patch:
        patch.setattr("qmele.estimation.MAX_ITER", 1)
        fit = fit_self_weighted(data, AR1_GARCH11, FitConfig(restarts=0, g0_mode=G0Mode.known(0.5)))
    assert fit.converged is False
    assert fit.status == "not_converged"
    assert fit.nfev > 0
    assert np.all(np.isnan(fit.std_errors))
    full = fit_self_weighted(data, AR1_GARCH11, FitConfig(g0_mode=G0Mode.known(0.5)))
    assert full.converged is True
    assert full.nfev > fit.nfev


@pytest.mark.parametrize(
    "orders, truth, point",
    [
        (AR1_GARCH11, THETA_FINITE, [0.02, 0.45, 0.12, 0.2, 0.35]),
        (
            ModelOrders(1, 1, 1, 2),
            [0.0, 0.5, 0.3, 0.1, 0.18, 0.2, 0.2],
            [0.03, 0.42, 0.25, 0.14, 0.12, 0.3, 0.15],
        ),
    ],
)
@pytest.mark.parametrize("criterion, objective", [("qmele", qmele_objective), ("qmle", qmle_objective)])
def test_fit_gradient_matches_finite_differences(orders, truth, point, criterion, objective):
    data = simulate(make_theta(truth, orders), InnovationDist("laplace"), 400, seed=16)
    theta = make_theta(point, orders)
    eps, h = _eps_h(theta, data)
    assert np.min(np.abs(eps / np.sqrt(h))) > 1e-4  # kink-free for this seed
    w = np.random.default_rng(17).uniform(0.5, 2.0, data.size)
    x = theta.theta
    value, grad = Evaluator(orders, data, w, CRITERIA[criterion])(x)
    assert value == pytest.approx(objective(theta, data, w), rel=1e-12)
    fd = np.zeros(x.size)
    for j in range(x.size):
        step = 1e-6 * max(1.0, abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += step
        xm[j] -= step
        fd[j] = (
            objective(make_theta(xp, orders), data, w) - objective(make_theta(xm, orders), data, w)
        ) / (2 * step)
    assert np.max(np.abs(grad - fd)) / np.max(np.abs(grad)) <= 1e-6


@pytest.mark.parametrize("mu", [1e-2, 1e-4])
def test_smoothed_gradient_matches_finite_differences(mu):
    orders = ModelOrders(1, 1, 1, 2)
    data = simulate(make_theta([0.0, 0.5, 0.3, 0.1, 0.18, 0.2, 0.2], orders), InnovationDist("laplace"), 400, seed=16)
    x = make_theta([0.03, 0.42, 0.25, 0.14, 0.12, 0.3, 0.15], orders).theta
    w = np.random.default_rng(17).uniform(0.5, 2.0, data.size)

    evaluate = Evaluator(orders, data, w, QMELE)

    def value(z):
        return evaluate(z, mu)[0]

    grad = evaluate(x, mu)[1]
    fd = np.zeros(x.size)
    for j in range(x.size):
        step = 1e-6 * max(1.0, abs(x[j]))
        e = np.zeros(x.size)
        e[j] = step
        fd[j] = (value(x + e) - value(x - e)) / (2 * step)
    assert np.max(np.abs(grad - fd)) / np.max(np.abs(grad)) <= 1e-6
    # smoothing only adds: sqrt(eta^2 + mu^2) - |eta| lies in (0, mu]
    exact = qmele_objective(make_theta(x, orders), data, w)
    assert exact < value(x) <= exact + mu * w.mean()


def test_fit_value_is_nan_where_the_filter_overflows():
    # NaN ends an L-BFGS-B descent as a failure; inf could end it as a success.
    # held: the map over delta alone, gamma held
    for orders, x, held in [
        (ModelOrders(0, 1, 0, 0), [0.0, 3.0, 1.0], False),  # the MA recursion overflows
        (ModelOrders(0, 1, 0, 0), [0.0, 3.0, 1.0], True),
        (ModelOrders(1, 0, 1, 2), [0.0, 0.5, 0.1, 0.2, 0.6, 0.5], False),  # inside the box, sum(beta) > 1
        (ModelOrders(1, 0, 1, 2), [0.0, 0.5, 0.1, 0.2, 0.6, 0.5], True),
        (ModelOrders(0, 0, 1, 1), [0.0, 1e300, 0.1, 0.4], False),  # h passes H_OVERFLOW_LIMIT
        (ModelOrders(0, 0, 1, 1), [0.0, 1e300, 0.1, 0.4], True),
    ]:
        x = np.array(x)
        k = orders.p + orders.q + 1
        evaluate = Evaluator(orders, np.ones(1000), np.ones(1000), QMELE)
        value, grad = evaluate.held(x[:k])(x[k:]) if held else evaluate(x)
        assert np.isnan(value)
        assert grad.shape == (x.size - k if held else x.size,)
        np.testing.assert_array_equal(grad, 0.0)
    # eps^2 overflows while the constant h = alpha0 stays under H_OVERFLOW_LIMIT (r = s = 0)
    y, x = np.random.default_rng(0).standard_normal(600), np.array([0.0, 0.5, 1.9, 0.0, 1.0])
    for crit, mu in [(QMELE, 1e-2), (QMLE, 0.0), (QMLE, 1e-2)]:
        evaluate = Evaluator(ModelOrders(1, 2, 0, 0), y, np.ones(600), crit)
        for value, grad in [evaluate(x, mu), evaluate.held(x[:4])(x[4:], mu)]:
            assert np.isnan(value)
            np.testing.assert_array_equal(grad, 0.0)


SERIES_T3 = simulate(make_theta([0.0, 0.3, 0.2, 0.2, 0.5]), InnovationDist("student_t3"), 300, seed=4)


@st.composite
def evaluation_points(draw):
    """Orders up to (2,2,2,2), a valid theta, a criterion, a smoothing mu and a seed."""
    p, q, r, s = (draw(st.integers(0, 2)) for _ in range(4))
    orders = ModelOrders(p, q, r, s)
    gamma = [draw(st.floats(-0.5, 0.5))] + [draw(st.floats(-0.4, 0.4)) for _ in range(p + q)]
    share = [draw(st.floats(0.1, 1.0)) for _ in range(s)]
    beta_sum = draw(st.floats(0.0, 0.95))
    delta = [draw(st.floats(0.05, 1.0))] + [draw(st.floats(0.0, 0.3)) for _ in range(r)]
    delta += [beta_sum * c / sum(share) for c in share]
    criterion = draw(st.sampled_from(sorted(CRITERIA)))
    mu = draw(st.sampled_from([0.0, 1e-2, 1e-4]))
    return orders, make_theta(gamma + delta, orders), criterion, mu, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(evaluation_points())
def test_evaluator_is_the_filter_path(point):
    orders, theta, criterion, mu, seed = point
    crit, y = CRITERIA[criterion], SERIES_T3
    w = np.random.default_rng(seed).uniform(0.5, 2.0, y.size)
    evaluate = Evaluator(orders, y, w, crit)
    value, grad = evaluate(theta.theta, mu)
    # the value is the criterion mean over the checked filter, bit for bit
    _, eps, h = checked_eps_h(theta, y)
    assert value == _criterion_mean(eps, h, w, crit, mu)
    # the gradient is filter_series' Jacobian product
    out = filter_series(theta, y)
    _, a, b = crit.terms(out.eps, out.eps * out.eps, out.h, mu)
    np.testing.assert_allclose(grad, ((w * a) @ out.deps + (w * b) @ out.dh) / y.size, rtol=1e-9)
    # holding gamma changes neither the value nor the delta block
    held_value, held_grad = evaluate.held(theta.gamma)(theta.delta, mu)
    assert held_value == value
    assert np.array_equal(held_grad, grad[orders.p + orders.q + 1 :])


@pytest.mark.parametrize(
    "orders, truth",
    [(AR1_GARCH11, THETA_FINITE), (ModelOrders(1, 0, 1, 2), [0.0, 0.5, 0.1, 0.18, 0.2, 0.2])],
)
def test_restarts_run_after_a_failed_descent(orders, truth, monkeypatch):
    data = simulate(make_theta(truth, orders), LAPLACE, 500, seed=604)
    monkeypatch.setattr("qmele.estimation.MAX_ITER", 1)
    fit = fit_self_weighted(data, orders, FitConfig(restarts=3, seed=7))
    assert fit.converged is False
    assert fit.starts == 4
    assert fit.theta_hat.is_valid()
    assert np.isfinite(fit.objective_value)


def test_garch12_fit_not_above_criterion_at_truth():
    orders = ModelOrders(1, 0, 1, 2)
    theta0 = make_theta([0.0, 0.5, 0.1, 0.18, 0.2, 0.2], orders)
    data = simulate(theta0, InnovationDist("laplace"), 1000, seed=603)
    fit = fit_self_weighted(data, orders, FitConfig(g0_mode=G0Mode.known(0.5), seed=5))
    assert fit.converged
    assert fit.objective_value <= qmele_objective(theta0, data, fit.weights)
    assert fit.objective_value == pytest.approx(qmele_objective(fit.theta_hat, data, fit.weights), rel=1e-12)


def test_restarts_stop_at_the_first_converged_descent():
    # the first descent ends uncertified on the beta1 = beta2 = 0 face; the
    # first jittered start certifies, and no further start is descended
    orders = ModelOrders(1, 0, 1, 2)
    theta0 = make_theta([0.0, 0.5, 0.1, 0.3, 0.2, 0.2], orders)
    data = simulate(theta0, LAPLACE, 1000, burn_in=500, seed=50011)
    fit = fit_self_weighted(data, orders, FitConfig(g0_mode=G0Mode.known(0.5), seed=50011))
    assert fit.converged and fit.certificate.certified
    assert fit.starts == 2
    assert fit.nfev < 150
    assert fit.objective_value <= qmele_objective(theta0, data, fit.weights)


def test_igarch_fit_needs_one_ladder():
    # on this path the exponential fit once ended in an abnormal line search
    # and ran every restart
    data = simulate(make_theta(THETA_IGARCH), LAPLACE, 1000, burn_in=500, seed=20260604)
    fit = fit_self_weighted(data, AR1_GARCH11, FitConfig(g0_mode=G0Mode.known(0.5), seed=20260602))
    assert fit.converged
    assert fit.starts == 1


def nelder_mead_polish(fit, data, orders):
    """The exact criterion at fit.theta_hat and a Nelder-Mead run from there."""

    def objective(theta):
        try:
            return qmele_objective(ParamVector.from_theta(orders, theta), data, fit.weights)
        except DomainError:
            return np.inf

    polish = minimize(
        objective, fit.theta_hat.theta, method="Nelder-Mead",
        options=dict(xatol=1e-9, fatol=1e-13, maxfev=4000),
    )
    return objective(fit.theta_hat.theta), polish.fun


def recomputed_certificate(fit, data):
    """(max|s|, kkt, max|eta| on A) of a fit's certificate,
    rebuilt from filter_series' derivative matrices at theta_hat."""
    theta, cert = fit.theta_hat, fit.certificate
    active = list(cert.active)
    k, n = theta.gamma.size, data.size
    out = filter_series(theta, data)
    _, a, b = QMELE.terms(out.eps, out.eps * out.eps, out.h, 0.0)
    a[active] = 0.0
    grad = (fit.weights * a) @ out.deps + (fit.weights * b) @ out.dh
    # p+q+1 kinks (a vertex) give a square system, p+q (an edge) one with a residual
    kinks = out.deps[active, :k].T * (fit.weights[active] / np.sqrt(out.h[active]))
    s = np.linalg.lstsq(kinks, -grad[:k], rcond=None)[0]
    delta, g_delta = theta.delta, grad[k:] / n
    upper = np.where(np.arange(delta.size) > theta.orders.r, 1.0 - 2.0**-40, np.inf)
    kkt = max(np.abs(kinks @ s + grad[:k]).max() / n, np.abs(np.clip(delta - g_delta, 0.0, upper) - delta).max())
    return np.abs(s).max(), kkt, np.abs(out.eps[active] / np.sqrt(out.h[active])).max()


@pytest.mark.parametrize(
    "orders, truth, dist, seed",
    [
        (AR1_GARCH11, THETA_FINITE, LAPLACE, 50000),
        (AR1_GARCH11, THETA_IGARCH, LAPLACE, 20260602),
        (ModelOrders(1, 1, 1, 1), [0.0, 0.5, 0.3, 0.1, 0.18, 0.4], InnovationDist("normal", "var_one"), 20260603),
        (ModelOrders(1, 0, 1, 2), [0.0, 0.5, 0.1, 0.18, 0.2, 0.2], LAPLACE, 50000),
        # path 20260607 has an interior basin at beta1 ~ 3e-3, 3.7e-8 above the face's
        (AR1_GARCH11, THETA_FINITE, NORMAL, 20260607),
    ],
)
def test_exponential_fit_is_a_local_minimum(orders, truth, dist, seed):
    theta0 = make_theta(truth, orders)
    for i in range(4):
        data = simulate(theta0, dist, 1000, burn_in=500, seed=seed + i)
        fit = fit_self_weighted(data, orders, FitConfig(seed=seed))
        assert fit.converged

        def objective(theta):
            try:
                return qmele_objective(ParamVector.from_theta(orders, theta), data, fit.weights)
            except DomainError:
                return np.inf

        assert fit.objective_value == objective(fit.theta_hat.theta)
        polish = minimize(
            objective, fit.theta_hat.theta, method="Nelder-Mead",
            options=dict(xatol=1e-9, fatol=1e-13, maxfev=4000),
        )
        assert polish.fun >= fit.objective_value - 1e-9
        if fit.certificate.certified:
            max_s, kkt, eta_active = recomputed_certificate(fit, data)
            assert max_s <= 1.0 and kkt <= KKT_TOL
            assert max_s == pytest.approx(fit.certificate.max_s, rel=1e-6)
            assert eta_active <= 1e-12


def test_fit_keeps_an_uncertified_end_no_higher_than_the_ladder(monkeypatch):
    import qmele.estimation

    real_certify, real_minimize = qmele.estimation._certify, qmele.estimation.minimize
    runs = []

    def failing(*args):
        cert, _ = real_certify(*args)
        return dataclasses.replace(cert, certified=False), None

    def recorded(fun, x0, *args, **kwargs):
        runs.append(real_minimize(fun, x0, *args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(qmele.estimation, "_certify", failing)
    monkeypatch.setattr(qmele.estimation, "minimize", recorded)
    data = simulate(make_theta(THETA_FINITE), LAPLACE, 1000, burn_in=500, seed=50000)
    fit = fit_self_weighted(data, AR1_GARCH11, FitConfig(seed=50000))
    assert fit.certificate.certified is False
    # three smoothed stages and the vertex's delta-only run, then no move
    assert [run.x.size for run in runs] == [5, 5, 5, 3]
    value, polished = nelder_mead_polish(fit, data, AR1_GARCH11)
    assert fit.objective_value == value
    assert value <= qmele_objective(make_theta(runs[2].x), data, fit.weights)
    # converged is the success of the run that ended at theta_hat
    ended_there = runs[3] if np.array_equal(fit.theta_hat.delta, runs[3].x) else runs[2]
    assert fit.converged is bool(ended_there.success and np.isfinite(ended_there.fun))
    assert fit.converged is True and fit.status == "ok"
    assert np.all(np.isfinite(fit.std_errors))
    # restarts run only after a descent that is not converged
    assert fit.starts == 1
    assert polished >= fit.objective_value - 1e-9


def test_exponential_fit_certifies_an_edge_minimizer():
    # the minimizer has a single zero residual (p+q = 1): one swap to a
    # second vertex, whose entering kink then drops before any crossing
    data = simulate(make_theta(THETA_FINITE), LAPLACE, 1000, burn_in=500, seed=50010)
    fit = fit_self_weighted(data, AR1_GARCH11, FitConfig(seed=50010))
    assert fit.converged
    assert fit.certificate.certified and len(fit.certificate.active) == 1
    assert fit.certificate.pivots == 2
    value, polished = nelder_mead_polish(fit, data, AR1_GARCH11)
    assert fit.objective_value == value
    assert polished >= fit.objective_value - 1e-9


def test_exponential_fit_certifies_after_more_than_three_pivots():
    # the first active set has max|s| ~ 1e3; three swaps and a drop reach a
    # certified end on one kink
    data = simulate(make_theta(THETA_IGARCH), LAPLACE, 1000, burn_in=500, seed=20260614)
    fit = fit_self_weighted(data, AR1_GARCH11, FitConfig(g0_mode=G0Mode.known(0.5), seed=20260614))
    assert fit.converged
    assert fit.certificate.certified and fit.certificate.pivots > 3
    value, polished = nelder_mead_polish(fit, data, AR1_GARCH11)
    assert fit.objective_value == value
    assert polished >= fit.objective_value - 1e-9


def test_exponential_fit_certifies_below_an_edge():
    # the smoothed stages end near an edge (two zero residuals) whose kink
    # multiplier is 1.004; the minimizer has one zero residual
    orders = ModelOrders(1, 1, 1, 1)
    data = simulate(make_theta(THETA_ARMA, orders), NORMAL, 1000, burn_in=500, seed=3272157582)
    fit = fit_self_weighted(data, orders, FitConfig(restarts=1, seed=3272157582))
    assert fit.converged
    assert fit.certificate.certified and len(fit.certificate.active) < 3
    value, polished = nelder_mead_polish(fit, data, orders)
    assert fit.objective_value == value
    assert polished >= fit.objective_value - 1e-9


def test_exponential_fit_certifies_an_edge_fitted_along_its_kinks():
    # an mc_arma_normal quota fit (benchmark seed 758): with gamma held on
    # the edge its end had kkt 1.9e-6, the gradient along the edge
    orders = ModelOrders(1, 1, 1, 1)
    data = simulate(make_theta(THETA_ARMA, orders), NORMAL, 1000, burn_in=500, seed=4000994098)
    fit = fit_self_weighted(data, orders, FitConfig(restarts=1, seed=4000994096))
    assert fit.converged
    assert fit.certificate.certified and len(fit.certificate.active) == 2
    value, polished = nelder_mead_polish(fit, data, orders)
    assert fit.objective_value == value
    assert polished >= fit.objective_value - 1e-9


def test_gaussian_fit_certifies_an_abnormal_stop(monkeypatch):
    import qmele.estimation

    real_minimize, runs = qmele.estimation.minimize, []

    def recorded(*args, **kwargs):
        runs.append(real_minimize(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(qmele.estimation, "minimize", recorded)
    data = simulate(make_theta(THETA_IGARCH), LAPLACE, 1000, burn_in=500, seed=20260635)
    config = FitConfig(g0_mode=G0Mode.known(0.5), seed=20260635)
    fit = fit_self_weighted(data, AR1_GARCH11, config, criterion="qmle")
    # the lone tight run ends in an abnormal line search at a KKT point
    assert len(runs) == 1 and not runs[0].success
    assert fit.converged and fit.status == "ok"
    assert fit.certificate.certified and fit.certificate.active == ()
    assert fit.certificate.kkt <= KKT_TOL
    assert fit.starts == 1


@pytest.mark.parametrize("case", ["smoothed_then_held", "abnormal_stop", "max_iter"])
def test_minimize_replays_scipys_lbfgsb(case, monkeypatch):
    # the driver runs scipy's setulb as scipy.optimize.minimize does, so a
    # scipy release that changes either shows here as a moved run
    import qmele.estimation

    if case == "max_iter":
        monkeypatch.setattr(qmele.estimation, "MAX_ITER", 3)
    truth, crit, seed = (THETA_IGARCH, QMLE, 20260635) if case == "abnormal_stop" else (THETA_FINITE, QMELE, 50000)
    data = simulate(make_theta(truth), LAPLACE, 1000, burn_in=500, seed=seed)
    ev = Evaluator(AR1_GARCH11, data, compute_weights(data, WeightSpec(), AR1_GARCH11), crit)
    x, box, k = _initial_params(data, AR1_GARCH11).theta, _box(AR1_GARCH11), ev.k

    def replay(fun, x0, bounds, args=(), **tolerances):
        options = dict(maxiter=qmele.estimation.MAX_ITER, maxfun=10 * qmele.estimation.MAX_ITER, **tolerances)
        ref = minimize(fun, x0, args=args, jac=True, method="L-BFGS-B", bounds=bounds.T, options=options)
        run = qmele.estimation.minimize(fun, x0, bounds, [], args, **tolerances)
        assert run.x.tobytes() == ref.x.tobytes()
        np.testing.assert_equal((run.fun, run.nfev, run.nit, run.success, run.message),
                                (ref.fun, ref.nfev, ref.nit, ref.success, ref.message))
        return run

    if crit.ladder:
        # the exponential fit's first smoothed stage, then a tight delta-only
        # run at its gamma, as at a vertex
        end = replay(ev, x, box, (1e-2,))
        run = replay(ev.held(end.x[:k]), end.x[k:], box[:, k:], **_TIGHT)
    else:
        # the gaussian fit's lone tight run
        run = replay(ev, x, box, **_TIGHT)
    if case == "abnormal_stop":
        assert not run.success and run.message.startswith("ABNORMAL")
    if case == "max_iter":
        assert run.nit == 3 and not run.success


# orders up to (2,2,2,2), largest first so that examples shrink towards it
ORDERS_UP_TO_2222 = sorted(
    [(p, q, r, s) for p in range(3) for q in range(3) for r in range(3) for s in range(3) if r or not s],
    key=lambda o: (-sum(o), o),
)


@st.composite
def arma_garch_designs(draw):
    """Orders up to (2,2,2,2) and a valid theta with sum(alpha) + sum(beta) < 0.9."""
    p, q, r, s = draw(st.sampled_from(ORDERS_UP_TO_2222))
    # coefficients in [-0.7, 0.7] / lags keep the AR part stationary and the MA part invertible
    gamma = [draw(st.floats(-0.5, 0.5))]
    gamma += [draw(st.floats(-0.7, 0.7)) / lags for lags in (p, q) for _ in range(lags)]
    persistence = 0.9 * draw(st.floats(0.0, 1.0))
    share = [draw(st.floats(0.1, 1.0)) for _ in range(r + s)]
    delta = [draw(st.floats(0.05, 1.0))] + [persistence * c / sum(share) for c in share]
    orders = ModelOrders(p, q, r, s)
    return orders, make_theta(gamma + delta, orders), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(arma_garch_designs())
# the face finish's first Newton solve lands at psi1 = 2.84, where |eps| reaches
# 2.4e255 and eps^2 overflows while the face value stays finite
@example((ModelOrders(2, 1, 0, 0), make_theta([-0.078125, 0.0419921875, 0.0, 0.0, 0.21875], ModelOrders(2, 1, 0, 0)), 504))
def test_certified_fit_is_not_improved_by_nelder_mead(design):
    orders, theta, seed = design
    data = simulate(theta, LAPLACE, 600, seed=seed)
    # a mean up to 0.5 leaves some series off centre, where the signed threshold does not apply
    weights = WeightSpec(threshold="absolute")
    fit = fit_self_weighted(data, orders, FitConfig(weights, g0_mode=G0Mode.known(0.5), seed=seed))
    if fit.certificate is not None and fit.certificate.certified:
        value, polished = nelder_mead_polish(fit, data, orders)
        assert fit.objective_value == value
        assert polished >= fit.objective_value - 1e-9


def test_certificate_describes_the_point_the_fit_keeps():
    # the draw pinned above: the face finish rejects its face ends (the first at
    # psi1 = 2.84, value 2.6e253) and keeps the smoothed stages' end
    orders = ModelOrders(2, 1, 0, 0)
    data = simulate(make_theta([-0.078125, 0.0419921875, 0.0, 0.0, 0.21875], orders), LAPLACE, 600, seed=504)
    config = FitConfig(WeightSpec(threshold="absolute"), g0_mode=G0Mode.known(0.5), seed=504)
    fit = fit_self_weighted(data, orders, config)
    assert fit.converged and fit.status == "ok"
    np.testing.assert_allclose(fit.theta_hat.theta, [-0.029211, 0.683322, -0.025604, -0.610897, 0.218626],
                               atol=1e-6)
    assert fit.objective_value == pytest.approx(0.2252705, abs=1e-7)
    cert = fit.certificate
    if cert is not None:  # then theta_hat lies on the face it certifies
        eps, _ = _eps_h(fit.theta_hat, data)
        assert np.abs(eps[list(cert.active)]).max() <= 1e-8


def test_fit_status_names_a_singular_information_matrix():
    # the optimum has alpha1 = 0, where beta1 is not identified
    orders = ModelOrders(1, 1, 1, 1)
    theta = make_theta([0.0, 0.5, 0.3, 0.1, 0.18, 0.4], orders)
    data = simulate(theta, NORMAL, 1000, burn_in=500, seed=3966384047)
    config = FitConfig(restarts=1, seed=3966384047)
    for criterion in ("qmele", "qmle"):
        fit = fit_self_weighted(data, orders, config, criterion=criterion)
        assert fit.converged
        assert fit.theta_hat.alpha[0] == 0.0
        assert np.all(np.isnan(fit.std_errors))
        assert fit.status == "singular_information"
        # so is the one-step's information matrix: the step is reported as not taken
        stepped = local_qmele_step(fit, data)
        assert stepped.converged is False
        assert stepped.status == "singular_information"
        np.testing.assert_array_equal(stepped.theta_hat.theta, fit.theta_hat.theta)
        assert np.all(np.isnan(stepped.std_errors))
    # a replication records every estimator of that path as failed, with
    # NaN SEs, and the steps not taken with NaN estimates
    scenario = ScenarioConfig(orders=orders, theta0=theta, dist=NORMAL, n=1000, replications=1,
                              seed=3966384047, estimators=ESTIMATOR_KINDS, restarts=1)
    record = run_replication(scenario, 0)
    for kind in ESTIMATOR_KINDS:
        assert record.converged[kind] is False
        assert np.all(np.isnan(record.std_errors[kind]))
        assert np.all(np.isnan(record.estimates[kind])) == kind.startswith("local")


def test_exponential_fit_reaches_the_beta_face():
    data = simulate(make_theta(THETA_FINITE), NORMAL, 1000, burn_in=500, seed=20260607)
    fit = fit_self_weighted(data, AR1_GARCH11, FitConfig(seed=20260603))
    assert fit.converged
    assert fit.theta_hat.beta[0] == 0.0


@pytest.mark.parametrize(
    "orders, truth, dist, seed",
    [
        (ModelOrders(1, 1, 1, 1), [0.0, 0.5, 0.3, 0.1, 0.18, 0.4], NORMAL, 3272157583),
        (ModelOrders(1, 1, 1, 1), [0.0, 0.5, 0.3, 0.1, 0.18, 0.4], NORMAL, 3272157593),
        (ModelOrders(1, 0, 1, 2), [0.0, 0.5, 0.1, 0.3, 0.2, 0.2], LAPLACE, 50012),
        (ModelOrders(1, 0, 1, 2), [0.0, 0.5, 0.1, 0.3, 0.2, 0.2], LAPLACE, 50034),
        (ModelOrders(1, 0, 1, 2), [0.0, 0.5, 0.1, 0.3, 0.2, 0.2], LAPLACE, 50039),
    ],
)
def test_local_step_holds_face_coordinates(orders, truth, dist, seed):
    # the full step pushes the last beta below 0, where halving cannot help
    data = simulate(make_theta(truth, orders), dist, 1000, burn_in=500, seed=seed)
    fit = fit_self_weighted(data, orders, FitConfig(seed=seed))
    assert fit.converged
    assert fit.theta_hat.beta[-1] == 0.0
    stepped = local_qmele_step(fit, data)
    assert stepped.shrink_count == 0
    assert stepped.theta_hat.beta[-1] == 0.0
    assert stepped.theta_hat.is_valid()


@pytest.mark.parametrize("criterion", ["qmele", "qmle"])
def test_fit_forms_the_derivative_matrices_at_most_twice(monkeypatch, criterion):
    # the optimizer's gradients come from the adjoint pass, so the n x m
    # Jacobian is built only for the covariance, however many evaluations run
    import qmele.estimation

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return filter_series(*args, **kwargs)

    monkeypatch.setattr(qmele.estimation, "filter_series", counted)
    data = simulate(make_theta(THETA_FINITE), LAPLACE, 1000, burn_in=500, seed=50000)
    fit = fit_self_weighted(data, AR1_GARCH11, FitConfig(g0_mode=G0Mode.known(0.5)), criterion=criterion)
    assert fit.converged and fit.nfev > 20
    assert len(calls) <= 2


ARMA21_GARCH22 = ModelOrders(2, 1, 2, 2)
THETA_ARMA21_GARCH22 = [0.0, 0.3, 0.2, 0.3, 0.1, 0.1, 0.08, 0.3, 0.2]
# the threshold at the largest |y| of n = 600 (nearest rank) leaves every weight 1
UNIT_WEIGHTS = WeightSpec(threshold="absolute", c_quantile=0.999)


def unit_weight_gaussian_fit(seed):
    data = simulate(make_theta(THETA_ARMA21_GARCH22, ARMA21_GARCH22), NORMAL, 600, seed=seed)
    fit = fit_self_weighted(data, ARMA21_GARCH22, FitConfig(UNIT_WEIGHTS), criterion="qmle")
    assert np.all(fit.weights == 1.0)
    return data, fit


def test_evaluator_is_nan_where_only_the_gradient_overflows():
    # a trial point of this fit: psi = -1.36 makes the residuals grow while h
    # stays near alpha0 = 8.8e-27, so the value is finite (1.2e182) while the
    # lambda pass's ARCH dot products overflow
    data, fit = unit_weight_gaussian_fit(4)
    assert fit.converged and fit.status == "ok"
    point = [0.21693790618881634, 1.095869988645903, -1.0391097814995838, -1.3558793590915665,
             8.75651076269652e-27, 0.0, 0.0, 0.4334378629587764, 0.0]
    value, grad = Evaluator(ARMA21_GARCH22, data, np.ones(600), QMLE)(np.array(point))
    assert np.isnan(value) and not grad.any()


def test_local_step_reports_an_infeasible_step():
    # the fit ends on beta1 = beta2 = 0; the re-solve over the other
    # coordinates frees a beta that the step then pushes below 0
    data, fit = unit_weight_gaussian_fit(7)
    assert fit.converged and fit.status == "ok"
    assert np.all(fit.theta_hat.beta == 0.0)
    stepped = local_qmele_step(fit, data)
    assert stepped.converged is False
    assert stepped.status == "infeasible_step"
    assert stepped.shrink_count == 30
    np.testing.assert_array_equal(stepped.theta_hat.theta, fit.theta_hat.theta)
    assert np.all(np.isnan(stepped.covariance))


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(arma_garch_designs())
def test_local_step_is_a_fixed_point_at_an_interior_optimum(design):
    # the unit-weight gaussian fit minimizes the criterion the gaussian one-step
    # takes its Newton step on, so where it is certified inside the box the step stays put
    orders, theta, seed = design
    data = simulate(theta, NORMAL, 600, seed=seed)
    fit = fit_self_weighted(data, orders, FitConfig(UNIT_WEIGHTS, seed=seed), criterion="qmle")
    assume(fit.certificate is not None and fit.certificate.certified and fit.status == "ok")
    assume(np.all(fit.theta_hat.delta[1:] > 0.0))
    stepped = local_qmele_step(fit, data)
    assert stepped.converged and stepped.shrink_count == 0
    assert np.max(np.abs(stepped.theta_hat.theta - fit.theta_hat.theta) / fit.std_errors) <= 1e-5
