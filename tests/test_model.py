import numpy as np
import pytest
from scipy.signal import lfilter, lfiltic

from qmele import (
    DomainError,
    FitConfig,
    InnovationDist,
    ModelOrders,
    NumericOverflowError,
    ParamVector,
    compute_weights,
    covariance_self_weighted,
    filter_series,
    filter_vjp,
    fit_self_weighted,
    log_return_transform,
    qmele_objective,
    simulate,
    simulate_with_innovations,
)

from qmele.model import _iir, _reversed_iir, as_series, eps_gamma_derivs

from conftest import AR1_GARCH11, THETA_FINITE, make_theta


def test_filter_constant_model():
    orders = ModelOrders(0, 0, 0, 0)
    theta = ParamVector.from_parts(orders, mu=0.0, alpha0=1.0)
    out = filter_series(theta, [3.0, -2.0])
    np.testing.assert_allclose(out.eps, [3.0, -2.0])
    np.testing.assert_allclose(out.h, [1.0, 1.0])


def test_filter_hand_recursion():
    orders = ModelOrders(1, 0, 1, 1)
    theta = ParamVector.from_parts(orders, mu=0.0, phi=[0.5], alpha0=1.0, alpha=[0.2], beta=[0.3])
    out = filter_series(theta, [1.0, 2.0])
    np.testing.assert_allclose(out.eps, [1.0, 1.5])
    # presample h = 1/0.7; h1 = 1 + 0.3/0.7; h2 = 1 + 0.2*1 + 0.3*h1
    np.testing.assert_allclose(out.h, [1.0 + 0.3 / 0.7, 1.2 + 0.3 * (1.0 + 0.3 / 0.7)])


def test_filter_zero_input_fixed_point():
    orders = ModelOrders(1, 1, 1, 1)
    theta = ParamVector.from_parts(
        orders, mu=0.0, phi=[0.3], psi=[0.2], alpha0=0.7, alpha=[0.1], beta=[0.5]
    )
    out = filter_series(theta, np.zeros(50))
    np.testing.assert_allclose(out.eps, 0.0)
    np.testing.assert_allclose(out.h, 0.7 / 0.5, rtol=1e-14)


def test_filter_linear_in_data():
    theta = make_theta([0.0, 0.4, 0.2, 0.1, 0.5])
    y = np.random.default_rng(0).standard_normal(100)
    a = 3.7
    out1 = filter_series(theta, y)
    out2 = filter_series(theta, a * y)
    np.testing.assert_allclose(out2.eps, a * out1.eps, rtol=1e-12)


@pytest.mark.parametrize("point_seed", range(5))
def test_filter_derivatives_match_finite_differences(point_seed):
    orders = ModelOrders(1, 1, 1, 1)
    rng = np.random.default_rng(100 + point_seed)
    theta = ParamVector.from_parts(
        orders,
        mu=rng.uniform(-0.5, 0.5),
        phi=[rng.uniform(-0.7, 0.7)],
        psi=[rng.uniform(-0.7, 0.7)],
        alpha0=rng.uniform(0.1, 1.5),
        alpha=[rng.uniform(0.02, 0.4)],
        beta=[rng.uniform(0.05, 0.8)],
    )
    dist = InnovationDist("laplace")
    y = simulate(make_theta([0.0, 0.5, 0.1, 0.18, 0.4]), dist, 200, seed=point_seed)
    base = filter_series(theta, y)
    fd_deps = np.zeros_like(base.deps)
    fd_dh = np.zeros_like(base.dh)
    for j in range(orders.m):
        step = 1e-6 * max(1.0, abs(theta.theta[j]))
        tp, tm = theta.theta.copy(), theta.theta.copy()
        tp[j] += step
        tm[j] -= step
        op = filter_series(ParamVector.from_theta(orders, tp), y)
        om = filter_series(ParamVector.from_theta(orders, tm), y)
        fd_deps[:, j] = (op.eps - om.eps) / (2 * step)
        fd_dh[:, j] = (op.h - om.h) / (2 * step)
    assert np.max(np.abs(base.deps - fd_deps)) / np.max(np.abs(base.deps)) < 1e-6
    assert np.max(np.abs(base.dh - fd_dh)) / np.max(np.abs(base.dh)) < 1e-6


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("nonzero_presample", [False, True])
def test_iir_equals_lfilter_from_lfiltic_state(s, nonzero_presample):
    rng = np.random.default_rng(10 * s + nonzero_presample)
    for _ in range(20):
        lag = rng.uniform(-1.0, 1.0, s) / s
        c = rng.uniform(-5.0, 5.0) if nonzero_presample else 0.0
        x = rng.standard_normal(200)
        a = np.concatenate([[1.0], -lag])
        ref = lfilter([1.0], a, x, zi=lfiltic([1.0], a, y=np.full(s, c)))[0]
        assert np.array_equal(_iir(x, lag, c), ref)
        # the backward pass filters a reversed view of its forcing in place
        assert np.array_equal(_reversed_iir(x, lag), lfilter([1.0], a, x[::-1].copy())[::-1])


@pytest.mark.parametrize(
    "orders, theta",
    [
        ((1, 0, 1, 1), [0.1, 0.5, 0.2, 0.15, 0.6]),
        ((2, 2, 2, 2), [0.1, 0.3, -0.1, 0.2, 0.1, 0.2, 0.1, 0.05, 0.3, 0.2]),
    ],
)
def test_filter_derivatives_are_c_contiguous(orders, theta):
    o = ModelOrders(*orders)
    y = np.random.default_rng(3).standard_normal(300)
    out = filter_series(ParamVector.from_theta(o, theta), y)
    for d in (out.deps, out.dh):
        assert d.shape == (300, o.m)
        assert d.flags.c_contiguous


def test_filter_delta_columns_of_deps_are_zero():
    theta = make_theta([0.1, 0.4, 0.3, 0.2, 0.3])
    y = simulate(theta, InnovationDist("laplace"), 100, seed=1)
    out = filter_series(theta, y)
    np.testing.assert_array_equal(out.deps[:, 2:], 0.0)
    assert np.all(out.h >= theta.alpha0)


def test_filter_rejects_invalid_params():
    with pytest.raises(DomainError):
        filter_series(make_theta([0.0, 0.5, -0.1, 0.18, 0.4]), [1.0, 2.0])
    with pytest.raises(DomainError):
        filter_series(make_theta([0.0, 0.5, 0.1, 0.18, 1.0]), [1.0, 2.0])


def test_filter_overflow_names_index():
    # explosive MA start: |psi| > 1 makes the residual recursion blow up
    orders = ModelOrders(0, 1, 0, 0)
    theta = ParamVector.from_parts(orders, mu=0.0, psi=[3.0], alpha0=1.0)
    y = np.ones(1000)
    with pytest.raises(NumericOverflowError) as err:
        filter_series(theta, y)
    assert err.value.t is not None and err.value.t > 1


def test_simulate_deterministic():
    theta = make_theta([0.0, 0.5, 0.1, 0.18, 0.4])
    dist = InnovationDist("laplace")
    a = simulate(theta, dist, 500, seed=7)
    b = simulate(theta, dist, 500, seed=7)
    np.testing.assert_array_equal(a, b)
    c = simulate(theta, dist, 500, seed=8)
    assert not np.array_equal(a, c)


def test_sampler_abs_mean_one_law_of_large_numbers():
    rng = np.random.default_rng(12)
    eta = InnovationDist("laplace", "abs_mean_one").sample(rng, 100_000)
    assert 0.99 <= np.mean(np.abs(eta)) <= 1.01


def test_t3_standardization_constant():
    dist = InnovationDist("student_t3", "abs_mean_one")
    assert np.isclose(dist.scale_factor(), np.pi / (2 * np.sqrt(3.0)), rtol=1e-14)
    rng = np.random.default_rng(3)
    eta = dist.sample(rng, 200_000)
    assert abs(np.mean(np.abs(eta)) - 1.0) < 0.01


def test_var_one_standardization():
    for kind in ("laplace", "normal", "student_t3"):
        dist = InnovationDist(kind, "var_one")
        rng = np.random.default_rng(5)
        eta = dist.sample(rng, 200_000)
        tol = 0.15 if kind == "student_t3" else 0.02  # t3 second moments converge slowly
        assert abs(np.mean(eta**2) - 1.0) < tol
    assert InnovationDist("laplace", "var_one").eta2() == pytest.approx(1.0)
    assert InnovationDist("laplace", "abs_mean_one").eta2() == pytest.approx(2.0)


def test_mixture_sampler_moments():
    dist = InnovationDist("mixture", "abs_mean_one", epsilon=0.3, tau=2.0)
    rng = np.random.default_rng(9)
    eta = dist.sample(rng, 400_000)
    assert abs(np.mean(np.abs(eta)) - 1.0) < 0.01
    assert abs(np.mean(eta**2) - dist.eta2()) < 0.03


def test_simulate_filter_roundtrip_recovers_innovations():
    theta = make_theta([0.0, 0.5, 0.1, 0.18, 0.4])
    y, eta = simulate_with_innovations(theta, InnovationDist("laplace"), 800, burn_in=500, seed=21)
    out = filter_series(theta, y)
    rec = out.eps / np.sqrt(out.h)
    assert np.max(np.abs(rec[50:] - eta[50:])) < 1e-3


def test_log_return_transform():
    np.testing.assert_allclose(log_return_transform([1.0, np.e]), [100.0])
    np.testing.assert_allclose(log_return_transform(np.full(10, 3.3)), 0.0)
    np.testing.assert_allclose(
        log_return_transform([100.0, 110.0]), [100.0 * np.log(1.1)], rtol=1e-12
    )
    with pytest.raises(DomainError):
        log_return_transform([1.0, -2.0])
    with pytest.raises(DomainError):
        log_return_transform([5.0])


def test_series_data_validation():
    with pytest.raises(DomainError):
        as_series(np.array([1.0, np.nan]))
    with pytest.raises(DomainError):
        as_series(np.empty(0))


# each entry point that takes a series, mapped to an array of its result
SERIES_TAKERS = {
    "compute_weights": lambda y: compute_weights(y),
    "fit_self_weighted": lambda y: fit_self_weighted(y, AR1_GARCH11, FitConfig(restarts=0)).theta_hat.theta,
    "qmele_objective": lambda y: np.array(qmele_objective(make_theta(THETA_FINITE), y, np.ones(np.size(y)))),
    "filter_series": lambda y: filter_series(make_theta(THETA_FINITE), y).h,
    "covariance_self_weighted": lambda y: covariance_self_weighted(
        make_theta(THETA_FINITE), y, np.ones(np.size(y)), 0.5, 2.0
    ),
}


@pytest.mark.parametrize("take", SERIES_TAKERS.values(), ids=SERIES_TAKERS.keys())
@pytest.mark.parametrize(
    "bad, message",
    [
        ([1.0, np.nan, 2.0], "series values must be finite"),
        ([], "series must be a nonempty 1-d vector"),
        (np.ones((60, 2)), "series must be a nonempty 1-d vector"),
    ],
    ids=["nan", "empty", "2-d"],
)
def test_every_series_taker_checks_the_series(take, bad, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        take(bad)


@pytest.mark.parametrize("take", SERIES_TAKERS.values(), ids=SERIES_TAKERS.keys())
def test_every_series_taker_accepts_a_list(take):
    y = simulate(make_theta(THETA_FINITE), InnovationDist("laplace"), 300, seed=5)
    np.testing.assert_array_equal(take(y.tolist()), take(y))


def test_simulate_returns_the_path_of_simulate_with_innovations():
    theta, dist = make_theta(THETA_FINITE), InnovationDist("student_t3")
    y = simulate(theta, dist, 400, burn_in=100, seed=6)
    assert isinstance(y, np.ndarray) and y.dtype == np.float64
    np.testing.assert_array_equal(y, simulate_with_innovations(theta, dist, 400, burn_in=100, seed=6)[0])


def test_param_vector_accessors():
    theta = ParamVector.from_parts(
        ModelOrders(2, 1, 1, 2),
        mu=0.5,
        phi=[0.3, -0.1],
        psi=[0.2],
        alpha0=0.4,
        alpha=[0.1],
        beta=[0.2, 0.3],
    )
    assert theta.m == 8
    assert theta.mu == 0.5
    np.testing.assert_array_equal(theta.phi, [0.3, -0.1])
    np.testing.assert_array_equal(theta.psi, [0.2])
    np.testing.assert_array_equal(theta.beta, [0.2, 0.3])
    assert theta.h_presample == pytest.approx(0.4 / 0.5)
    rebuilt = ParamVector.from_theta(theta.orders, theta.theta)
    np.testing.assert_array_equal(rebuilt.gamma, theta.gamma)
    np.testing.assert_array_equal(rebuilt.delta, theta.delta)


@pytest.mark.parametrize(
    "orders",
    [(0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 2), (1, 0, 1, 1), (1, 1, 1, 1), (2, 0, 0, 1), (1, 2, 3, 0), (0, 3, 1, 3), (2, 2, 2, 2)],
)
def test_filter_vjp_matches_jacobian_product(orders):
    o = ModelOrders(*orders)
    rng = np.random.default_rng(sum(orders) + 10 * orders[0])
    y = simulate(make_theta([0.0, 0.3, 0.2, 0.2, 0.5]), InnovationDist("student_t3"), 300, seed=4)
    for _ in range(5):
        beta = rng.dirichlet(np.ones(o.s + 1))[: o.s] * 0.95
        theta = ParamVector.from_parts(
            o, rng.normal(0.0, 0.1), rng.uniform(-0.4, 0.4, o.p), rng.uniform(-0.4, 0.4, o.q),
            rng.uniform(0.05, 1.0), rng.uniform(0.0, 0.3, o.r), beta,
        )
        out = filter_series(theta, y)
        ga, gb = rng.standard_normal(y.size), rng.standard_normal(y.size)
        expected = ga @ out.deps + gb @ out.dh
        got = filter_vjp(theta, y, out.eps, out.h, ga, gb)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def _simulate_numpy_scalars(theta, dist, n, burn_in, seed):
    """The simulation loop on numpy scalars and arrays, as an oracle."""
    o = theta.orders
    eta = dist.sample(np.random.default_rng(seed), burn_in + n)
    lag = o.max_lag
    y, e, h = np.zeros(eta.size + lag), np.zeros(eta.size + lag), np.empty(eta.size + lag)
    h[:lag] = theta.h_presample
    for t in range(lag, eta.size + lag):
        ht = theta.alpha0
        for i in range(1, o.r + 1):
            ht += theta.alpha[i - 1] * e[t - i] ** 2
        for j in range(1, o.s + 1):
            ht += theta.beta[j - 1] * h[t - j]
        h[t] = ht
        e[t] = eta[t - lag] * np.sqrt(ht)
        yt = theta.mu + e[t]
        for i in range(1, o.p + 1):
            yt += theta.phi[i - 1] * y[t - i]
        for j in range(1, o.q + 1):
            yt += theta.psi[j - 1] * e[t - j]
        y[t] = yt
    return y[lag + burn_in :], eta[burn_in:]


@pytest.mark.parametrize(
    "orders, values",
    [
        ((1, 1, 1, 1), [0.1, 0.5, 0.3, 0.1, 0.18, 0.4]),
        ((2, 2, 2, 2), [0.01, 0.3, -0.1, 0.2, 0.1, 0.1, 0.1, 0.05, 0.3, 0.2]),
    ],
)
@pytest.mark.parametrize("dist", [InnovationDist("laplace"), InnovationDist("student_t3")])
def test_simulate_equals_numpy_scalar_loop(orders, values, dist):
    theta = make_theta(values, ModelOrders(*orders))
    # long paths: a 1-ulp change in one step (say x * x for x ** 2, which
    # differ in ~1e-3 of squares) often rounds away within a few steps
    for seed in range(8):
        y, eta = simulate_with_innovations(theta, dist, 2000, burn_in=100, seed=seed)
        y_ref, eta_ref = _simulate_numpy_scalars(theta, dist, 2000, 100, seed)
        assert np.array_equal(y, y_ref) and np.array_equal(eta, eta_ref)


@pytest.mark.parametrize("order_tuple", [(0, 0, 1, 1), (1, 0, 1, 1), (1, 1, 1, 2), (2, 2, 1, 1)])
def test_gamma_derivatives_are_the_mean_block_of_filter_series(order_tuple):
    orders = ModelOrders(*order_tuple)
    gamma = [0.1] + [0.3 / (i + 1) for i in range(orders.p)] + [0.2 / (j + 1) for j in range(orders.q)]
    delta = [0.2] + [0.1] * orders.r + [0.4 / orders.s] * orders.s
    theta = ParamVector.from_theta(orders, np.array(gamma + delta))
    y = simulate(theta, InnovationDist("laplace"), 300, seed=21)
    out = filter_series(theta, y)
    k = orders.p + orders.q + 1
    assert np.array_equal(eps_gamma_derivs(orders, y, theta.gamma, out.eps), out.deps[:, :k])
