import os

# one BLAS thread per process, set before numpy loads BLAS: the session
# fixtures already run two worker processes on the replications, and more
# threads on top of them only contend for the cores
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from qmele import (  # noqa: E402
    LOCAL_QMELE,
    LOCAL_QMLE,
    SW_QMELE,
    SW_QMLE,
    G0Mode,
    InnovationDist,
    ModelOrders,
    ParamVector,
    ScenarioConfig,
    run_scenario,
)

JOBS = 2

AR1_GARCH11 = ModelOrders(1, 0, 1, 1)
THETA_FINITE = (0.0, 0.5, 0.1, 0.18, 0.4)
THETA_IGARCH = (0.0, 0.5, 0.1, 0.3, 0.4)
LAPLACE = InnovationDist("laplace", "abs_mean_one")


def make_theta(values, orders=AR1_GARCH11):
    return ParamVector.from_theta(orders, np.asarray(values, dtype=float)).validate()


def laplace_scenario(theta, seed, replications=200, estimators=(SW_QMELE, LOCAL_QMELE)):
    return ScenarioConfig(
        orders=AR1_GARCH11,
        theta0=make_theta(theta),
        dist=LAPLACE,
        n=1000,
        replications=replications,
        seed=seed,
        estimators=estimators,
        g0_mode=G0Mode.known(0.5),
        name="laplace",
    )


@pytest.fixture(scope="session")
def mc_laplace_finite():
    """Finite-variance design: 200 seeded replications, both estimators."""
    return run_scenario(laplace_scenario(THETA_FINITE, seed=50000), jobs=JOBS)


@pytest.fixture(scope="session")
def mc_laplace_igarch():
    """Integrated-variance design: 200 seeded replications."""
    return run_scenario(laplace_scenario(THETA_IGARCH, seed=20260602), jobs=JOBS)


@pytest.fixture(scope="session")
def mc_normal_ordering():
    """Normal innovations, variance-one convention: exponential vs gaussian
    self-weighted criteria (and the gaussian one-step) on shared paths."""
    config = ScenarioConfig(
        orders=AR1_GARCH11,
        theta0=make_theta(THETA_FINITE),
        dist=InnovationDist("normal", "var_one"),
        n=1000,
        replications=120,
        seed=20260603,
        estimators=(SW_QMELE, SW_QMLE, LOCAL_QMLE),
        g0_mode=G0Mode.kernel(),
        name="normal",
    )
    return run_scenario(config, jobs=JOBS)


def estimates_matrix(table, kind):
    """Successful replications' estimates stacked row-wise."""
    ok = np.array([r.converged[kind] for r in table.records], dtype=bool)
    est = np.array([r.estimates[kind] for r in table.records])
    return est[ok]
