import re
from dataclasses import fields, replace

import numpy as np
import pytest

import qmele
from qmele import (
    DataIngestError,
    DomainError,
    FitConfig,
    G0Mode,
    InnovationDist,
    InsufficientDataError,
    LOCAL_QMELE,
    ModelOrders,
    NumericOverflowError,
    ParamVector,
    SW_QMELE,
    ScenarioConfig,
    parse_scenario,
    run_replication,
    run_scenario,
)
from conftest import make_theta

TINY_INI = """
[model]
p = 1
q = 0
r = 1
s = 1

[truth]
mu = 0.0
phi = 0.5
alpha0 = 0.1
alpha = 0.18
beta = 0.4

[innovations]
kind = laplace
standardization = abs_mean_one

[study]
n = 300
replications = 4
seed = 314
estimators = sw_qmele, local_qmele

[g0]
mode = known
value = 0.5

[optimizer]
restarts = 1
"""


def tiny_config(replications=4, estimators=(SW_QMELE, LOCAL_QMELE), seed=314, n=300):
    return ScenarioConfig(
        orders=ModelOrders(1, 0, 1, 1),
        theta0=make_theta([0.0, 0.5, 0.1, 0.18, 0.4]),
        dist=InnovationDist("laplace"),
        n=n,
        replications=replications,
        seed=seed,
        estimators=estimators,
        g0_mode=G0Mode.known(0.5),
        restarts=1,
        name="tiny",
    )


def test_parse_scenario_roundtrip():
    config = parse_scenario(TINY_INI)
    assert config.orders == ModelOrders(1, 0, 1, 1)
    np.testing.assert_allclose(config.theta0.theta, [0.0, 0.5, 0.1, 0.18, 0.4])
    assert config.dist.kind == "laplace"
    assert config.estimators == (SW_QMELE, LOCAL_QMELE)
    assert config.g0_mode == G0Mode.known(0.5)
    assert config.restarts == 1
    assert config.n == 300 and config.replications == 4 and config.seed == 314
    # no % interpolation: a value is read as written
    assert parse_scenario(TINY_INI.replace("seed = 314\n", "seed = 314\nname = 50%\n")).name == "50%"


def test_parse_scenario_takes_every_omitted_key_from_the_dataclasses():
    # only the required keys: every other field, estimators included, is
    # ScenarioConfig's own default
    text = (
        "[model]\np = 0\nq = 0\nr = 0\ns = 0\n[truth]\nmu = 0.5\nalpha0 = 2\n"
        "[innovations]\nkind = normal\n[study]\nn = 300\nreplications = 4\nseed = 314\n"
    )
    orders = ModelOrders(0, 0, 0, 0)
    expected = ScenarioConfig(
        orders=orders,
        theta0=ParamVector.from_parts(orders, mu=0.5, alpha0=2.0),
        dist=InnovationDist("normal"),
        n=300,
        replications=4,
        seed=314,
    )
    parsed = parse_scenario(text)
    for f in fields(ScenarioConfig):
        got, want = getattr(parsed, f.name), getattr(expected, f.name)
        if f.name == "theta0":
            assert got.orders == want.orders
            np.testing.assert_array_equal(got.theta, want.theta)
        else:
            assert got == want, f.name
    assert parsed.estimators == (SW_QMELE,)


def test_parse_scenario_named_errors():
    with pytest.raises(DataIngestError, match="unknown key"):
        parse_scenario(TINY_INI + "\n[weights]\nbogus = 3\n")
    with pytest.raises(DataIngestError, match=r"unknown config section"):
        parse_scenario(TINY_INI + "\n[surprise]\nx = 1\n")
    with pytest.raises(DataIngestError, match="alpha0"):
        parse_scenario(TINY_INI.replace("alpha0 = 0.1", ""))
    for key, line in (("n", "n = 300\n"), ("replications", "replications = 4\n"), ("seed", "seed = 314\n")):
        with pytest.raises(DataIngestError, match=f"^missing required key '{key}' in section \\[study\\]$"):
            parse_scenario(TINY_INI.replace(line, ""))
    with pytest.raises(DataIngestError, match="estimator"):
        parse_scenario(TINY_INI.replace("sw_qmele, local_qmele", "nonsense"))
    with pytest.raises(DataIngestError, match="unknown g0 mode 'knwon'"):
        parse_scenario(TINY_INI.replace("mode = known", "mode = knwon"))
    # the iteration cap is retired: a module constant, no longer a setting
    with pytest.raises(DataIngestError, match="unknown key 'max_iter' in section \\[optimizer\\]"):
        parse_scenario(TINY_INI + "max_iter = 10\n")
    with pytest.raises(DataIngestError, match="restarts must be >= 0"):
        parse_scenario(TINY_INI.replace("restarts = 1", "restarts = -1"))
    with pytest.raises(DataIngestError, match="epsilon and tau apply to the mixture only"):
        parse_scenario(TINY_INI.replace("kind = laplace", "kind = laplace\ntau = 3"))


def test_scenario_is_the_fit_config_of_its_replications(monkeypatch):
    config = tiny_config(replications=1, estimators=(SW_QMELE,))
    assert isinstance(config, FitConfig)
    seen = []

    def capture(data, orders, fit_config, criterion):
        seen.append(fit_config)
        raise DomainError("captured")

    monkeypatch.setattr(qmele.montecarlo, "fit_self_weighted", capture)
    run_replication(config, 0)
    assert seen[0] is config
    run_replication(replace(config, restarts=2), 0)
    assert seen[1].restarts == 2 and seen[1].seed == config.seed


def test_scenario_checks_its_fit_settings():
    kwargs = {f.name: getattr(tiny_config(), f.name) for f in fields(ScenarioConfig)}
    del kwargs["seed"]
    with pytest.raises(TypeError, match="seed"):
        ScenarioConfig(**kwargs)
    with pytest.raises(DomainError, match="restarts must be >= 0"):
        replace(tiny_config(), restarts=-1)
    for jobs in (0, -3):
        with pytest.raises(DomainError, match="^jobs must be >= 1$"):
            run_scenario(tiny_config(), jobs=jobs)


def test_scenario_orders_are_its_truths_orders():
    config = tiny_config()
    kwargs = {f.name: getattr(config, f.name) for f in fields(ScenarioConfig)}
    del kwargs["orders"]
    assert ScenarioConfig(**kwargs) == config
    garch12 = ParamVector.from_parts(ModelOrders(1, 0, 1, 2), phi=[0.5], alpha0=0.1, alpha=[0.1],
                                     beta=[0.2, 0.2])
    for orders in (ModelOrders(0, 1, 1, 1), ModelOrders(1, 0, 1, 2)):  # the same m, a different m
        message = f"orders {orders} differ from theta0's orders {config.orders}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            replace(config, orders=orders)
    # replace carries the old orders along, so a new truth of other orders names its own
    message = f"orders {config.orders} differ from theta0's orders {garch12.orders}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        replace(config, theta0=garch12)
    assert replace(config, theta0=garch12, orders=None).orders == garch12.orders


def test_load_fit_config_reads_the_fit_sections_and_merges_overrides(tmp_path):
    assert qmele.load_fit_config() == FitConfig()
    path = tmp_path / "fit.ini"
    path.write_text("[weights]\nc_quantile = 0.8\n\n[g0]\nmode = known\n\n[optimizer]\nrestarts = 2\n")
    config = qmele.load_fit_config(path, weights={"threshold": "absolute"}, g0={"value": 0.5})
    assert config == FitConfig(qmele.WeightSpec(c_quantile=0.8, threshold="absolute"), 2, G0Mode.known(0.5))
    # a fit's settings are its weights, its restarts and its g0; it reads no seed
    assert [f.name for f in fields(FitConfig)] == ["weight_spec", "restarts", "g0_mode"]
    with pytest.raises(TypeError, match="seed"):
        qmele.load_fit_config(seed=3)
    assert qmele.load_fit_config(path, g0={"kind": "kernel"}, restarts=0) == FitConfig(
        qmele.WeightSpec(c_quantile=0.8), 0)
    path.write_text("[study]\nn = 5\n")  # a scenario section outside the fit settings
    with pytest.raises(DataIngestError, match=r"unknown config section \[study\]"):
        qmele.load_fit_config(path)


def test_replication_determinism():
    config = tiny_config(replications=1)
    a = run_replication(config, 0)
    b = run_replication(config, 0)
    np.testing.assert_array_equal(a.estimates[SW_QMELE], b.estimates[SW_QMELE])
    c = run_replication(config, 1)
    assert not np.array_equal(a.estimates[SW_QMELE], c.estimates[SW_QMELE])


def test_serial_equals_parallel():
    config = tiny_config()
    serial = run_scenario(config, jobs=1)
    parallel = run_scenario(config, jobs=2)
    for kind in config.estimators:
        np.testing.assert_array_equal(serial.bias[kind], parallel.bias[kind])
        np.testing.assert_array_equal(serial.sd[kind], parallel.sd[kind])
        np.testing.assert_array_equal(serial.ad[kind], parallel.ad[kind])
    for ra, rb in zip(serial.records, parallel.records):
        assert ra.index == rb.index
        np.testing.assert_array_equal(ra.estimates[SW_QMELE], rb.estimates[SW_QMELE])


def test_single_replication_flags_sd_undefined():
    table = run_scenario(tiny_config(replications=1), jobs=1)
    assert np.all(np.isnan(table.sd[SW_QMELE]))
    assert np.all(np.isfinite(table.bias[SW_QMELE]))
    assert table.successes[SW_QMELE] + table.failures[SW_QMELE] == 1


def test_aggregation_matches_independent_recomputation():
    config = tiny_config()
    table = run_scenario(config, jobs=1)
    theta0 = config.theta0.theta
    for kind in config.estimators:
        est = np.array([r.estimates[kind] for r in table.records if r.converged[kind]])
        ses = np.array([r.std_errors[kind] for r in table.records if r.converged[kind]])
        np.testing.assert_allclose(table.bias[kind], est.mean(0) - theta0, rtol=1e-12)
        np.testing.assert_allclose(table.sd[kind], est.std(0, ddof=1), rtol=1e-12)
        np.testing.assert_allclose(table.ad[kind], ses.mean(0), rtol=1e-12)


def test_normal_innovations_criterion_ordering(mc_normal_ordering):
    # under light-tailed innovations the gaussian criterion is the more
    # efficient one, and its one-step update improves it further
    from qmele import LOCAL_QMLE, SW_QMLE

    table = mc_normal_ordering
    sd_qmele_phi = table.sd[SW_QMELE][1]
    sd_qmle_phi = table.sd[SW_QMLE][1]
    sd_local_phi = table.sd[LOCAL_QMLE][1]
    assert sd_qmle_phi < sd_qmele_phi
    assert sd_local_phi < sd_qmle_phi
    # levels in the neighborhood of the reference values 0.0457 / 0.0366 / 0.0300
    assert 0.7 * 0.0457 <= sd_qmele_phi <= 1.3 * 0.0457
    assert 0.7 * 0.0366 <= sd_qmle_phi <= 1.3 * 0.0366
    assert 0.7 * 0.0300 <= sd_local_phi <= 1.3 * 0.0300
    assert table.failures[SW_QMLE] <= 6


def test_parse_scenario_mixture_and_threshold():
    text = TINY_INI.replace("kind = laplace", "kind = mixture\nepsilon = 0.99\ntau = 0.1")
    text += "\n[weights]\nthreshold = absolute\nc_quantile = 0.95\n"
    config = parse_scenario(text)
    assert config.dist.kind == "mixture"
    assert config.dist.epsilon == 0.99 and config.dist.tau == 0.1
    assert config.weight_spec.threshold == "absolute"
    assert config.weight_spec.c_quantile == 0.95


def test_failures_counted_and_excluded(monkeypatch):
    # a fit failing on its path is that replication's failure: counted, and
    # left out of the moments, here on replications 1 and 3 and then on all
    config = tiny_config(replications=4)
    fit, calls = qmele.montecarlo.fit_self_weighted, []

    def failing_on(failing):
        def fit_or_overflow(*args, **kwargs):
            calls.append(None)
            if len(calls) - 1 in failing:
                raise NumericOverflowError("volatility recursion overflowed at t=7", t=7)
            return fit(*args, **kwargs)
        calls.clear()
        return fit_or_overflow

    monkeypatch.setattr(qmele.montecarlo, "fit_self_weighted", failing_on({1, 3}))
    table = run_scenario(config, jobs=1)
    for kind in (SW_QMELE, LOCAL_QMELE):
        assert (table.successes[kind], table.failures[kind]) == (2, 2)
        assert [r.converged[kind] for r in table.records] == [True, False, True, False]
        assert np.isnan(table.records[1].estimates[kind]).all()
        good = np.array([table.records[i].estimates[kind] for i in (0, 2)])
        assert np.array_equal(table.bias[kind], good.mean(axis=0) - config.theta0.theta)
    monkeypatch.setattr(qmele.montecarlo, "fit_self_weighted", failing_on(range(4)))
    table = run_scenario(config, jobs=1)
    assert (table.successes[SW_QMELE], table.failures[SW_QMELE]) == (0, 4)
    assert np.all(np.isnan(table.bias[SW_QMELE]))


def test_replication_filters_each_reported_theta_once(monkeypatch):
    # the fit's face ends hand their eps and h over from the Evaluator, and
    # the one-step reuses the pass the fit kept at theta_hat: one n x m pass
    # per reported theta, and the residual-volatility pass only inside them
    import qmele.estimation
    import qmele.model

    filter_series, eps_h, calls, inside = qmele.model.filter_series, qmele.model._eps_h, [], []

    def counted_filter(*args, **kwargs):
        calls.append("filter_series")
        inside.append(True)
        try:
            return filter_series(*args, **kwargs)
        finally:
            inside.pop()

    def counted_eps_h(*args, **kwargs):
        calls.append("_eps_h" if inside else "_eps_h outside filter_series")
        return eps_h(*args, **kwargs)

    monkeypatch.setattr(qmele.estimation, "filter_series", counted_filter)
    monkeypatch.setattr(qmele.model, "_eps_h", counted_eps_h)
    record = run_replication(tiny_config(), 0)
    assert record.converged == {SW_QMELE: True, LOCAL_QMELE: True}
    assert calls == ["filter_series", "_eps_h"] * 2


@pytest.mark.parametrize("jobs", [1, 2])
def test_study_too_short_for_its_model_raises(jobs):
    # n = 40 is below 10 * m = 50 on every path, so no replication is a
    # failure of its own: the study's settings are
    with pytest.raises(InsufficientDataError, match=re.escape("need n >= 10*m = 50 observations, have 40")):
        run_scenario(tiny_config(n=40, replications=2), jobs=jobs)
