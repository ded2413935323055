"""Replication study harness: simulate, fit every requested estimator,
aggregate bias / sample SD / mean asymptotic SD per parameter.

Replication i uses seed base_seed + i, so parallel and serial execution
produce identical tables; failed replications are excluded from the moments
and counted separately.
"""

import configparser
from dataclasses import dataclass, field
from multiprocessing import Pool

import numpy as np

from .estimation import (
    CRITERIA,
    ESTIMATOR_KINDS,
    LOCAL_QMELE,
    SW_QMELE,
    FitConfig,
    G0Mode,
    fit_self_weighted,
    local_qmele_step,
)
from .exceptions import DataIngestError, DomainError
from .model import InnovationDist, ModelOrders, ParamVector, simulate
from .weights import WeightSpec


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one replication study."""

    orders: ModelOrders
    theta0: ParamVector
    dist: InnovationDist
    n: int
    replications: int
    seed: int
    estimators: tuple = (SW_QMELE, LOCAL_QMELE)
    weight_spec: WeightSpec = field(default_factory=WeightSpec)
    g0_mode: G0Mode = field(default_factory=G0Mode.kernel)
    restarts: int = 5
    burn_in: int = 500
    name: str = "scenario"

    def __post_init__(self):
        if self.replications < 1:
            raise DomainError("replications must be >= 1")
        if not self.estimators:
            raise DomainError("at least one estimator must be requested")
        for e in self.estimators:
            if e not in ESTIMATOR_KINDS:
                raise DomainError(f"unknown estimator kind {e!r}")
        self.fit_config()  # checks restarts

    def fit_config(self):
        return FitConfig(
            weight_spec=self.weight_spec,
            restarts=self.restarts,
            g0_mode=self.g0_mode,
            seed=self.seed,
        )


@dataclass(frozen=True)
class ReplicationRecord:
    index: int
    estimates: dict  # estimator kind -> theta vector (m,)
    std_errors: dict  # estimator kind -> SE vector (m,)
    converged: dict  # estimator kind -> bool


@dataclass(frozen=True)
class McTable:
    """Bias / SD / AD per estimator and parameter, plus failure counts."""

    scenario: ScenarioConfig
    param_names: list
    bias: dict  # estimator -> (m,)
    sd: dict  # estimator -> (m,) (NaN when < 2 successes)
    ad: dict  # estimator -> (m,)
    successes: dict  # estimator -> int
    failures: dict  # estimator -> int
    records: list  # ReplicationRecord in replication order


def run_replication(config, index):
    """Simulate path `index`, fit the requested estimators on it."""
    seed = config.seed + index
    data = simulate(config.theta0, config.dist, config.n, burn_in=config.burn_in, seed=seed)
    fit_cfg = config.fit_config()
    m = config.orders.m
    nan_vec = np.full(m, np.nan)

    wanted = set(config.estimators)
    estimates, std_errors, converged = {}, {}, {}

    def record(kind, fit):
        if kind not in wanted:
            return
        if fit is None or not fit.converged:
            estimates[kind] = nan_vec.copy()
            std_errors[kind] = nan_vec.copy()
            converged[kind] = False
        else:
            estimates[kind] = fit.theta_hat.theta
            std_errors[kind] = fit.std_errors
            converged[kind] = bool(np.all(np.isfinite(fit.std_errors)))

    for criterion, crit in CRITERIA.items():
        if not {crit.sw_kind, crit.local_kind} & wanted:
            continue
        try:
            sw = fit_self_weighted(data, config.orders, fit_cfg, criterion=criterion)
        except (DomainError, ArithmeticError):
            sw = None
        record(crit.sw_kind, sw)
        if crit.local_kind in wanted:
            record(crit.local_kind, local_qmele_step(sw, data) if sw is not None and sw.converged else None)

    return ReplicationRecord(index, estimates, std_errors, converged)


def _worker(args):
    return run_replication(*args)


def run_scenario(config, jobs=1):
    """Run all replications and aggregate them into an McTable.

    jobs > 1 runs replications in a process pool; results are identical to
    the serial run because each replication owns its derived seed and the
    aggregation folds in replication order.
    """
    tasks = [(config, i) for i in range(config.replications)]
    if jobs and jobs > 1:
        with Pool(processes=min(jobs, config.replications)) as pool:
            records = pool.map(_worker, tasks)
    else:
        records = [run_replication(config, i) for i in range(config.replications)]

    theta0 = config.theta0.theta
    names = config.orders.param_names()
    bias, sd, ad, successes, failures = {}, {}, {}, {}, {}
    for kind in config.estimators:
        est = np.array([r.estimates[kind] for r in records])
        ses = np.array([r.std_errors[kind] for r in records])
        ok = np.array([r.converged[kind] for r in records], dtype=bool)
        successes[kind] = int(ok.sum())
        failures[kind] = int((~ok).sum())
        if ok.any():
            good = est[ok]
            bias[kind] = good.mean(axis=0) - theta0
            sd[kind] = good.std(axis=0, ddof=1) if ok.sum() >= 2 else np.full(len(names), np.nan)
            ad[kind] = ses[ok].mean(axis=0)
        else:
            bias[kind] = np.full(len(names), np.nan)
            sd[kind] = np.full(len(names), np.nan)
            ad[kind] = np.full(len(names), np.nan)
    return McTable(
        scenario=config,
        param_names=names,
        bias=bias,
        sd=sd,
        ad=ad,
        successes=successes,
        failures=failures,
        records=records,
    )


# ---------------------------------------------------------------------------
# flat key = value scenario files


_ALLOWED_KEYS = {
    "model": {"p", "q", "r", "s"},
    "truth": {"mu", "phi", "psi", "alpha0", "alpha", "beta"},
    "innovations": {"kind", "standardization", "epsilon", "tau"},
    "study": {"n", "replications", "seed", "burn_in", "estimators", "name"},
    "weights": {"variant", "iota", "c_quantile", "threshold"},
    "g0": {"mode", "value"},
    "optimizer": {"restarts"},
}


def _floats(text):
    text = text.strip()
    if not text:
        return ()
    return tuple(float(x) for x in text.replace(",", " ").split())


def _fit_settings(cp):
    """WeightSpec, G0Mode and restarts from the [weights], [g0] and
    [optimizer] sections of a parsed config; absent keys take defaults."""
    weight_spec = WeightSpec(
        variant=cp.get("weights", "variant", fallback="infinite_k9"),
        iota=cp.getfloat("weights", "iota") if cp.has_option("weights", "iota") else None,
        c_quantile=cp.getfloat("weights", "c_quantile", fallback=0.90),
        threshold=cp.get("weights", "threshold", fallback="signed"),
    )
    g0_mode = G0Mode(
        cp.get("g0", "mode", fallback="kernel"),
        cp.getfloat("g0", "value") if cp.has_option("g0", "value") else None,
    )
    return weight_spec, g0_mode, cp.getint("optimizer", "restarts", fallback=5)


def _read_config(text, sections, source):
    """Parse key = value text, rejecting any section outside `sections` and
    any key outside _ALLOWED_KEYS; `source` names the text in messages."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise DataIngestError(f"{source} is not valid key=value text: {exc}") from exc
    for section in cp.sections():
        if section not in sections:
            raise DataIngestError(f"unknown config section [{section}] in {source}")
        for key in cp[section]:
            if key not in _ALLOWED_KEYS[section]:
                raise DataIngestError(f"unknown key {key!r} in section [{section}] of {source}")
    return cp


def parse_scenario(text, name="scenario"):
    """Parse a flat key = value scenario description (INI sections)."""
    cp = _read_config(text, _ALLOWED_KEYS, "scenario config")

    def need(section, key):
        if not cp.has_option(section, key):
            raise DataIngestError(f"missing required key {key!r} in section [{section}]")
        return cp.get(section, key)

    try:
        orders = ModelOrders(*(int(need("model", key)) for key in "pqrs"))
        theta0 = ParamVector.from_parts(
            orders,
            mu=float(need("truth", "mu")),
            phi=_floats(cp.get("truth", "phi", fallback="")),
            psi=_floats(cp.get("truth", "psi", fallback="")),
            alpha0=float(need("truth", "alpha0")),
            alpha=_floats(cp.get("truth", "alpha", fallback="")),
            beta=_floats(cp.get("truth", "beta", fallback="")),
        ).validate()
        dist = InnovationDist(
            kind=need("innovations", "kind"),
            standardization=cp.get("innovations", "standardization", fallback="abs_mean_one"),
            epsilon=cp.getfloat("innovations", "epsilon", fallback=0.0),
            tau=cp.getfloat("innovations", "tau", fallback=1.0),
        )
        estimators = tuple(
            e.strip()
            for e in cp.get("study", "estimators", fallback=SW_QMELE).replace(",", " ").split()
        )
        weight_spec, g0_mode, restarts = _fit_settings(cp)
        return ScenarioConfig(
            orders=orders,
            theta0=theta0,
            dist=dist,
            n=cp.getint("study", "n"),
            replications=cp.getint("study", "replications"),
            seed=cp.getint("study", "seed"),
            estimators=estimators,
            weight_spec=weight_spec,
            g0_mode=g0_mode,
            restarts=restarts,
            burn_in=cp.getint("study", "burn_in", fallback=500),
            name=cp.get("study", "name", fallback=name),
        )
    except DataIngestError:
        raise
    except (ValueError, DomainError, configparser.Error) as exc:
        raise DataIngestError(f"invalid scenario config: {exc}") from exc


def _read_text(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DataIngestError(f"cannot read {what} {path}: {exc}") from exc


def load_scenario(path):
    return parse_scenario(_read_text(path, "scenario config"), name=str(path))
