"""Self-weighted and one-step exponential-likelihood estimation for
ARMA-GARCH time series with heavy-tailed innovations."""

from .diagnostics import (
    AcfReport,
    EfficiencyReport,
    acf,
    efficiency_compare,
    pacf,
    standardized_residuals,
)
from .estimation import (
    ESTIMATOR_KINDS,
    LOCAL_QMELE,
    LOCAL_QMLE,
    SW_QMELE,
    SW_QMLE,
    FitConfig,
    FitResult,
    G0Mode,
    covariance_local,
    covariance_self_weighted,
    estimate_eta2,
    estimate_g0,
    fit_self_weighted,
    local_qmele_step,
    qmele_objective,
    qmle_objective,
    sigma_star,
    t_star,
)
from .exceptions import (
    DataIngestError,
    DegenerateSampleError,
    DomainError,
    InsufficientDataError,
    NumericOverflowError,
    SingularInformationError,
    UnsupportedOrderError,
)
from .model import (
    FilterOutput,
    InnovationDist,
    ModelOrders,
    ParamVector,
    filter_series,
    filter_vjp,
    log_return_transform,
    simulate,
    simulate_with_innovations,
)
from .montecarlo import (
    McTable,
    ReplicationRecord,
    ScenarioConfig,
    load_fit_config,
    load_scenario,
    parse_scenario,
    run_replication,
    run_scenario,
)
from .weights import (
    MomentDecision,
    StationarityDecision,
    TailReport,
    WeightSpec,
    compute_weights,
    hill_estimator,
    hill_sweep,
    moment_condition_check,
    strict_stationarity_check,
)

__version__ = "0.1.0"
