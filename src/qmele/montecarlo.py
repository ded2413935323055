"""Replication study harness: simulate, fit every requested estimator,
aggregate bias / sample SD / mean asymptotic SD per parameter.

Replication i uses seed base_seed + i, so parallel and serial execution
produce identical tables; failed replications are excluded from the moments
and counted separately. A study whose n is too short for its model fails
as a whole, with the fit's InsufficientDataError.

Scenario files are flat key = value sections read through one table,
_KEYS; a key a file omits takes the default of the dataclass it sets.
load_fit_config reads the fit-settings sections alone (qmele fit --config).
"""

import configparser
from dataclasses import dataclass
from multiprocessing import Pool

import numpy as np

from .estimation import (
    CRITERIA,
    ESTIMATOR_KINDS,
    SW_QMELE,
    FitConfig,
    G0Mode,
    fit_self_weighted,
    local_qmele_step,
)
from .exceptions import DataIngestError, DomainError, InsufficientDataError
from .model import BURN_IN, InnovationDist, ModelOrders, ParamVector, simulate
from .weights import WeightSpec


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig(FitConfig):
    """Everything needed to reproduce one replication study: the fit
    settings of every replication (a FitConfig), the study seed and the
    design they are fitted on. orders defaults to theta0.orders; a given
    value that differs is a DomainError."""

    seed: int  # replication i simulates its path with seed + i
    orders: ModelOrders | None = None
    theta0: ParamVector
    dist: InnovationDist
    n: int
    replications: int
    estimators: tuple = (SW_QMELE,)
    burn_in: int = BURN_IN
    name: str = "scenario"

    def __post_init__(self):
        super().__post_init__()
        if self.orders is None:
            object.__setattr__(self, "orders", self.theta0.orders)
        elif self.orders != self.theta0.orders:
            raise DomainError(f"orders {self.orders} differ from theta0's orders {self.theta0.orders}")
        if self.replications < 1:
            raise DomainError("replications must be >= 1")
        if not self.estimators:
            raise DomainError("at least one estimator must be requested")
        for e in self.estimators:
            if e not in ESTIMATOR_KINDS:
                raise DomainError(f"unknown estimator kind {e!r}")


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
    """Simulate path `index`, fit the requested estimators on it. A fit's
    DomainError or ArithmeticError is recorded as that estimator's failure,
    except InsufficientDataError, which is raised."""
    seed = config.seed + index
    data = simulate(config.theta0, config.dist, config.n, burn_in=config.burn_in, seed=seed)
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
            sw = fit_self_weighted(data, config.orders, config, criterion=criterion)
        except InsufficientDataError:
            raise  # the study's n is too short for its model, whatever the path
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

    jobs must be >= 1; above 1 it runs replications in a process pool, with
    results identical to the serial run because each replication owns its
    derived seed and the aggregation folds in replication order.
    """
    if not jobs >= 1:
        raise DomainError("jobs must be >= 1")
    tasks = [(config, i) for i in range(config.replications)]
    if jobs > 1:
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


def _floats(text):
    return tuple(float(x) for x in text.replace(",", " ").split())


def _names(text):
    return tuple(text.replace(",", " ").split())


# section -> {key: (builder keyword, parser)}: every key a file may set; the
# builders (ModelOrders ... FitConfig) hold the defaults and check the values
_KEYS = {
    "model": {k: (k, int) for k in "pqrs"},
    "truth": {"mu": ("mu", float), "alpha0": ("alpha0", float),
              **{k: (k, _floats) for k in ("phi", "psi", "alpha", "beta")}},
    "innovations": {"kind": ("kind", str), "standardization": ("standardization", str),
                    "epsilon": ("epsilon", float), "tau": ("tau", float)},
    "study": {"n": ("n", int), "replications": ("replications", int), "seed": ("seed", int),
              "burn_in": ("burn_in", int), "estimators": ("estimators", _names), "name": ("name", str)},
    "weights": {"variant": ("variant", str), "iota": ("iota", float),
                "c_quantile": ("c_quantile", float), "threshold": ("threshold", str)},
    "g0": {"mode": ("kind", str), "value": ("value", float)},
    "optimizer": {"restarts": ("restarts", int)},
}
_REQUIRED = {"model": ("p", "q", "r", "s"), "truth": ("mu", "alpha0"), "innovations": ("kind",),
             "study": ("n", "replications", "seed")}


def _keywords(cp, section):
    """Builder keywords of the keys that `section` of a parsed config sets."""
    for key in _REQUIRED.get(section, ()):
        if not cp.has_option(section, key):
            raise DataIngestError(f"missing required key {key!r} in section [{section}]")
    return {kw: parse(cp.get(section, key))
            for key, (kw, parse) in _KEYS[section].items() if cp.has_option(section, key)}


def _fit_settings(cp, weights, g0, fit):
    """FitConfig keywords from the [weights], [g0] and [optimizer] sections
    of a parsed config, each updated by the given WeightSpec, G0Mode and
    FitConfig keywords before anything is built."""
    return {
        "weight_spec": WeightSpec(**{**_keywords(cp, "weights"), **weights}),
        "g0_mode": G0Mode(**{**_keywords(cp, "g0"), **g0}),
        **_keywords(cp, "optimizer"),
        **fit,
    }


def _read_config(text, sections, source):
    """Parse key = value text, `%` literal, rejecting any section outside
    `sections` and any key outside _KEYS; `source` names the text in messages."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise DataIngestError(f"{source} is not valid key=value text: {exc}") from exc
    for section in cp.sections():
        if section not in sections:
            raise DataIngestError(f"unknown config section [{section}] in {source}")
        for key in cp[section]:
            if key not in _KEYS[section]:
                raise DataIngestError(f"unknown key {key!r} in section [{section}] of {source}")
    return cp


def parse_scenario(text, name=ScenarioConfig.name):
    """Parse a flat key = value scenario description (INI sections)."""
    cp = _read_config(text, _KEYS, "scenario config")
    try:
        orders = ModelOrders(**_keywords(cp, "model"))
        return ScenarioConfig(
            theta0=ParamVector.from_parts(orders, **_keywords(cp, "truth")).validate(),
            dist=InnovationDist(**_keywords(cp, "innovations")),
            **{"name": name, **_keywords(cp, "study")},
            **_fit_settings(cp, {}, {}, {}),
        )
    except DataIngestError:
        raise
    except (ValueError, configparser.Error) as exc:
        raise DataIngestError(f"invalid scenario config: {exc}") from exc


def _read_text(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DataIngestError(f"cannot read {what} {path}: {exc}") from exc


def load_scenario(path):
    return parse_scenario(_read_text(path, "scenario config"), name=str(path))


def load_fit_config(path=None, weights=None, g0=None, **fit):
    """The FitConfig of an optional file of a scenario's [weights], [g0] and
    [optimizer] sections, its keys updated by the WeightSpec, G0Mode and
    FitConfig keywords weights, g0 and fit before anything is built."""
    text = _read_text(path, "config") if path else ""
    cp = _read_config(text, ("weights", "g0", "optimizer"), f"config {path}")
    return FitConfig(**_fit_settings(cp, weights or {}, g0 or {}, fit))
