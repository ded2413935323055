import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmele import (
    DegenerateSampleError,
    DomainError,
    InnovationDist,
    ModelOrders,
    UnsupportedOrderError,
    WeightSpec,
    compute_weights,
    hill_estimator,
    hill_sweep,
    moment_condition_check,
    simulate,
    strict_stationarity_check,
)
from qmele.weights import nearest_rank_quantile

from conftest import make_theta


def brute_force_weights(y, spec, orders=None, prehistory=()):
    """Direct lag-by-lag evaluation of the weight definition."""
    y = np.asarray(y, dtype=float)
    pre = list(prehistory)
    ext = pre + list(y)
    base = y if spec.threshold == "signed" else np.abs(y)
    C = nearest_rank_quantile(base, spec.c_quantile)
    a = spec.exponent()
    max_k = orders.p + orders.r if spec.variant == "finite_lag" else None
    w = np.empty(y.size)
    for t in range(1, y.size + 1):
        pos = len(pre) + t - 1  # 0-based index of y_t in ext
        s = 0.0
        k = 1
        while pos - k >= 0 and (max_k is None or k <= max_k):
            v = abs(ext[pos - k])
            if v > C:
                s += k ** (-a) * v
            k += 1
        w[t - 1] = max(1.0, s / C) ** -4.0
    return w


def test_weights_all_below_threshold():
    y = np.array([1.0, -0.5, 0.8, -0.2, 0.3])
    # C is the max abs value at the 100th percentile rank; use a c_quantile of
    # 0.99 so no observation exceeds it
    w = compute_weights(y, WeightSpec(c_quantile=0.99))
    np.testing.assert_array_equal(w, 1.0)


def test_weights_single_exceedance():
    # one spike at the first lag, exactly 2C: w = (max{1, 2})^-4 = 1/16
    y = np.array([1.0, 1.0, 1.0, 1.0, 2.0, 1.0])
    spec = WeightSpec(c_quantile=0.5)
    C = nearest_rank_quantile(np.abs(y), 0.5)
    assert C == 1.0
    w = compute_weights(y, spec)
    assert w[5] == pytest.approx(1.0 / 16.0, rel=1e-12)
    np.testing.assert_array_equal(w[:5], 1.0)


def test_weights_first_observation_is_one():
    y = np.random.default_rng(0).standard_t(3, 50)
    for variant in ("infinite_k9", "finite_lag", "infinite_iota_scaled"):
        spec = WeightSpec(variant, iota=0.4 if variant == "infinite_iota_scaled" else None)
        w = compute_weights(y, spec, orders=ModelOrders(1, 0, 1, 0))
        assert w[0] == 1.0


@pytest.mark.parametrize("variant,iota", [("infinite_k9", None), ("infinite_iota_scaled", 0.3)])
@pytest.mark.parametrize("threshold", ["signed", "absolute"])
def test_weights_match_brute_force(variant, iota, threshold):
    rng = np.random.default_rng(42)
    y = rng.standard_t(3, 120) * 2.0
    spec = WeightSpec(variant, iota=iota, threshold=threshold)
    w = compute_weights(y, spec)
    np.testing.assert_allclose(w, brute_force_weights(y, spec), rtol=0, atol=1e-12)


@st.composite
def weight_cases(draw):
    """A spec of any variant and threshold, orders up to (2,2,2,2), and a t3 series
    of 2-150 values shifted by up to 3 (off centre), with up to 5 pre-sample values."""
    variant = draw(st.sampled_from(["infinite_k9", "finite_lag", "infinite_iota_scaled"]))
    iota = draw(st.floats(0.2, 10.0)) if variant == "infinite_iota_scaled" else None
    spec = WeightSpec(variant, iota=iota, c_quantile=draw(st.floats(0.05, 0.95)),
                      threshold=draw(st.sampled_from(["signed", "absolute"])))
    orders = ModelOrders(*(draw(st.integers(0, 2)) for _ in range(4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shift = draw(st.floats(-3.0, 3.0))
    y = shift + rng.standard_t(3, draw(st.integers(2, 150)))
    return spec, orders, y, shift + rng.standard_t(3, draw(st.integers(0, 5)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(weight_cases())
def test_weights_match_brute_force_property(case):
    spec, orders, y, pre = case
    base = y if spec.threshold == "signed" else np.abs(y)
    if nearest_rank_quantile(base, spec.c_quantile) <= 0.0:
        with pytest.raises(DomainError, match="absolute"):
            compute_weights(y, spec, orders, prehistory=pre)
        return
    w = compute_weights(y, spec, orders, prehistory=pre)
    np.testing.assert_allclose(w, brute_force_weights(y, spec, orders, pre), rtol=0, atol=1e-12)


def test_weights_signed_threshold_needs_positive_quantile():
    y = -np.abs(np.random.default_rng(1).standard_normal(50)) - 0.5
    with pytest.raises(DomainError, match="absolute"):
        compute_weights(y, WeightSpec())
    w = compute_weights(y, WeightSpec(threshold="absolute"))
    assert np.all((w > 0.0) & (w <= 1.0))


def test_weights_finite_lag_matches_brute_force():
    rng = np.random.default_rng(43)
    y = rng.standard_t(3, 120)
    spec = WeightSpec("finite_lag")
    orders = ModelOrders(2, 0, 1, 0)
    w = compute_weights(y, spec, orders=orders)
    np.testing.assert_allclose(w, brute_force_weights(y, spec, orders=orders), atol=1e-12)
    with pytest.raises(DomainError):
        compute_weights(y, spec)  # orders required


def test_weights_bounds_and_strict_past():
    rng = np.random.default_rng(7)
    y = rng.standard_t(3, 300)
    w = compute_weights(y, WeightSpec())
    assert np.all(w > 0.0) and np.all(w <= 1.0)
    # w_1..w_t depend only on observations before t: changing the future
    # (while preserving the threshold C) leaves them unchanged
    y2 = y.copy()
    y2[200:] = y[200:][::-1]
    w2 = compute_weights(y2, WeightSpec())
    np.testing.assert_array_equal(w[:201], w2[:201])


@pytest.mark.parametrize(
    "spec",
    [
        WeightSpec(),
        WeightSpec("finite_lag"),
        WeightSpec("infinite_iota_scaled", iota=0.3),
        WeightSpec("infinite_iota_scaled", iota=1.0),
        WeightSpec("infinite_iota_scaled", iota=8.0),
        WeightSpec(threshold="absolute"),
    ],
)
def test_weights_truncated_kernel_matches_full_convolution(spec):
    y = np.random.default_rng(44).standard_t(1.5, 5000)
    orders = ModelOrders(1, 0, 1, 1)
    base = y if spec.threshold == "signed" else np.abs(y)
    C = nearest_rank_quantile(base, spec.c_quantile)
    z = np.where(np.abs(y) > C, np.abs(y), 0.0)
    n_lags = orders.p + orders.r if spec.variant == "finite_lag" else y.size - 1
    kern = np.arange(1, n_lags + 1, dtype=float) ** -spec.exponent()
    s = np.concatenate([[0.0], np.convolve(z, kern)[: y.size - 1]])
    full = np.maximum(1.0, s / C) ** -4.0
    np.testing.assert_allclose(compute_weights(y, spec, orders), full, rtol=0, atol=1e-14)


def test_weights_prehistory_effect_decays():
    theta = make_theta([0.0, 0.5, 0.1, 0.3, 0.4])
    path = simulate(theta, InnovationDist("laplace"), 2300, burn_in=500, seed=77)
    window, pre = path[300:], path[:300]
    w_true = compute_weights(window, WeightSpec(), prehistory=pre)
    w_zero = compute_weights(window, WeightSpec())
    diff = np.abs(w_true - w_zero)
    assert diff[:50].max() >= 0.0  # early weights may differ
    assert diff[499:].max() <= 1e-6


@pytest.mark.parametrize(
    "pre, message",
    [([np.inf], "series values must be finite"), ([np.nan], "series values must be finite"),
     (np.ones((2, 2)), "series must be a nonempty 1-d vector")],
    ids=["inf", "nan", "2-d"],
)
def test_weights_prehistory_is_checked_as_a_series(pre, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        compute_weights(np.arange(1.0, 30.0), prehistory=pre)


def test_weights_iota_validation():
    with pytest.raises(DomainError):
        WeightSpec("infinite_iota_scaled")
    for iota in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(DomainError, match="^infinite_iota_scaled requires iota > 0$"):
            WeightSpec("infinite_iota_scaled", iota=iota)
    assert WeightSpec("infinite_iota_scaled", iota=0.5).exponent() == pytest.approx(17.0)


def test_hill_pareto_quantile_oracle():
    n = 10_000
    i = np.arange(1, n + 1)
    v = (i / (n + 1.0)) ** (-1.0 / 1.5)
    est = hill_estimator(v, 1000)
    assert 1.35 <= est <= 1.65


def test_hill_brute_force_four_points():
    v = np.array([1.0, 2.0, 4.0, 8.0])
    # direct evaluation of the definition with n=4, k=3
    logs = np.log(np.sort(v))
    denom = sum(logs[4 - 1 - j] for j in (1, 2, 3)) - 3 * logs[0]
    assert hill_estimator(v, 3) == pytest.approx(3.0 / denom, rel=1e-14)


def test_hill_scale_invariance():
    rng = np.random.default_rng(11)
    v = rng.pareto(1.5, 5000) + 1.0
    a = hill_estimator(v, 400)
    b = hill_estimator(123.456 * v, 400)
    assert abs(a - b) <= 1e-12


def test_hill_errors():
    with pytest.raises(DegenerateSampleError):
        hill_estimator(np.ones(10), 5)
    with pytest.raises(DomainError):
        hill_estimator(np.arange(1.0, 6.0), 5)  # k >= positive count
    with pytest.raises(DomainError):
        hill_estimator(np.arange(1.0, 6.0), 0)


def test_tail_and_region_checks_reject_non_finite_values():
    dist = InnovationDist("laplace")
    for call in (lambda: strict_stationarity_check(np.nan, 0.5, dist),
                 lambda: strict_stationarity_check([0.1], [np.inf], dist),
                 lambda: moment_condition_check(0.0, np.nan, 1.0, dist),
                 lambda: moment_condition_check(np.inf, 0.2, 1.0, dist)):
        with pytest.raises(DomainError, match="^alpha1 and beta1 must be >= 0 and finite$"):
            call()
    for bad in (np.nan, np.inf):
        v = np.r_[np.arange(1.0, 21.0), bad]
        with pytest.raises(DomainError, match="^series values must be finite$"):
            hill_sweep(v, 5)
        with pytest.raises(DomainError, match="^series values must be finite$"):
            hill_estimator(v, 5)


def test_hill_sweep_drops_nonpositive_and_skips_degenerate():
    v = np.concatenate([[-1.0, 0.0], np.arange(1.0, 21.0)])
    rep = hill_sweep(v, 10)
    assert rep.n_dropped == 2
    assert rep.k_values[0] == 2  # k = 1 is degenerate by construction
    assert np.all(rep.alpha_hat > 0.0)


def test_strict_stationarity_degenerate_arch():
    dist = InnovationDist("laplace")
    dec = strict_stationarity_check([0.0], [0.99], dist)
    assert dec.lyapunov_estimate == pytest.approx(np.log(0.99))
    assert dec.is_stationary
    boundary = strict_stationarity_check([0.0], [1.0], dist)
    assert boundary.lyapunov_estimate == 0.0
    assert not boundary.is_stationary


def test_strict_stationarity_igarch_laplace():
    dec = strict_stationarity_check([0.3], [0.4], InnovationDist("laplace"), mc_draws=1_000_000)
    assert dec.lyapunov_estimate < 0.0
    assert dec.is_stationary


def test_strict_stationarity_rejects_higher_orders():
    with pytest.raises(UnsupportedOrderError):
        strict_stationarity_check([0.1, 0.1], [0.4], InnovationDist("laplace"))


def test_moment_condition_closed_form_iota_one():
    dist = InnovationDist("laplace")
    dec = moment_condition_check(0.2, 0.3, 1.0, dist, mc_draws=1_000_000)
    assert dec.moment_estimate == pytest.approx(0.2 * 2.0 + 0.3, rel=0.01)
    assert dec.holds
    # boundary: integrated model must not be declared as holding
    igarch = moment_condition_check(0.3, 0.4, 1.0, dist, mc_draws=1_000_000)
    assert igarch.moment_estimate == pytest.approx(1.0, abs=0.01)
    assert not igarch.holds


def test_moment_condition_agrees_with_closed_form_within_three_se():
    for kind in ("laplace", "normal"):
        dist = InnovationDist(kind, "abs_mean_one")
        dec = moment_condition_check(0.25, 0.2, 1.0, dist, mc_draws=500_000, seed=5)
        target = 0.25 * dist.eta2() + 0.2
        assert abs(dec.moment_estimate - target) <= 3.0 * dec.std_error


def test_moment_condition_degenerate_arch():
    dec = moment_condition_check(0.0, 0.5, 2.7, InnovationDist("normal"))
    assert dec.moment_estimate == pytest.approx(0.5**2.7)
    assert dec.holds
    for iota in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(DomainError, match="^iota must be > 0 and finite$"):
            moment_condition_check(0.1, 0.2, iota, InnovationDist("normal"))
