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
    LOCAL_QMELE,
    ModelOrders,
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


def test_failures_counted_and_excluded():
    # two observations per parameter is far below the identifiability floor,
    # so every replication fails and the table must say so
    config = tiny_config(n=40, replications=2)
    table = run_scenario(config, jobs=1)
    assert table.failures[SW_QMELE] == 2
    assert table.successes[SW_QMELE] == 0
    assert np.all(np.isnan(table.bias[SW_QMELE]))
