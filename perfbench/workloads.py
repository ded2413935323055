"""The three workloads: inputs made from the seed, the measured loop, and
the checks on the program's outputs.

``prepare`` runs in a fresh interpreter and is the workload's set-up;
``run`` repeats the workload's unit of work (one call into qmele, its
inputs made from the seed) until the time is up and the quota of series is
met; ``check`` judges the fits of the quota, which every run completes, and
rejects a wrong output anywhere in the run. Rationale for each workload is
in README.md.
"""

import contextlib
import csv
import hashlib
import json
import math
import os
import statistics
import time
import zlib
from dataclasses import replace

import numpy as np
import yardstick
from qmele import (
    LOCAL_QMELE, SW_QMELE, DomainError, G0Mode, InnovationDist, ModelOrders, ParamVector,
    ScenarioConfig, compute_weights, load_scenario, qmele_objective, qmle_objective,
    run_scenario, simulate,
)
from qmele.cli import main as qmele_main

SCALES = {
    # mc_n: series length of the Laplace designs; long_n, long_k: length
    # and number of the long series, fitted in turn;
    # arma_n, arma_reps: series length and replications per mc-table call;
    # quota: series every run completes, whose fits are judged and over
    # which traced counts are taken. arma_reps stays <= 8 so Pool.map hands
    # out single tasks (chunksize 1), which keeps the last worker's idle
    # tail short.
    "full": {"mc_n": 1000, "long_n": 20_000, "long_k": 10, "arma_n": 1000, "arma_reps": 4,
             "quota": {"mc_laplace": 16, "long_series": 5, "mc_arma_normal": 8}},
    "tiny": {"mc_n": 400, "long_n": 3000, "long_k": 2, "arma_n": 400, "arma_reps": 2,
             "quota": {"mc_laplace": 2, "long_series": 1, "mc_arma_normal": 2}},
}

AR1_GARCH11 = "1,0,1,1"
THETA_FINITE = "0,0.5,0.1,0.18,0.4"
THETA_IGARCH = "0,0.5,0.1,0.3,0.4"
ARMA_INI = """\
[model]
p = 1
q = 1
r = 1
s = 1

[truth]
mu = 0.0
phi = 0.5
psi = 0.3
alpha0 = 0.1
alpha = 0.18
beta = 0.4

[innovations]
kind = normal
standardization = var_one

[study]
n = {n}
replications = {reps}
seed = {seed}
estimators = sw_qmele, sw_qmle, local_qmle
name = mc_arma_normal

[g0]
mode = kernel

[optimizer]
restarts = 1
"""
OBJECTIVE_RTOL = 1e-9  # covers estimates read back at 6 significant digits
NOT_CONVERGED = "raised, not converged, or SE not finite"
ABOVE_TRUTH = "objective above the objective at the true theta"
SW_CRITERION = {"sw_qmele": "qmele", "sw_qmle": "qmle"}


def derived_seeds(seed, workload, k):
    """k scenario seeds drawn from the workload seed and the workload name."""
    ss = np.random.SeedSequence([int(seed), zlib.crc32(workload.encode())])
    return [int(s) for s in ss.generate_state(k)]


def file_digests(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _quiet(fn, *args):
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        return fn(*args)


def _timed_units(seconds, quota, step, after_step, sampler=None, length=1000):
    """Call step(i) for i = 0, 1, ... until `quota` series are done and the
    run is as close to `seconds` long as whole units allow.

    step(i) returns (series, n, own). `series` maps the name of each series
    it did to None when the series is the whole unit, or to (seconds, ref)
    when it was clocked where it ran; n counts them. `own` is None, or
    (seconds, ref) for a unit that ran the yardstick itself: the yardstick
    seconds in its wall time, and the ref to use. Otherwise the yardstick
    runs here before the first unit and after each one, and also inside
    the unit after each call `sampler` watches; a unit's ref is the mean of
    the samples from its start to its end, and the samples inside it are
    taken out of its wall time. after_step(done) runs outside the timed
    region. Another unit starts only if it is expected to end nearer
    `seconds`. The yardstick runs on arrays of `length` values.
    """
    units, series_s = [], {}
    done = 0
    t_start = time.perf_counter()
    ref_before = yardstick.probe(length)
    while done < quota or (
        time.perf_counter() - t_start + 0.5 * sum(u[0] for u in units) / len(units) < seconds
    ):
        t0 = time.perf_counter()
        seen, n, own = step(len(units))
        dt = time.perf_counter() - t0
        if own is None:
            inside = sampler.drain() if sampler else []
            ref_after = yardstick.probe(length)
            dt -= sum(inside)
            ref = statistics.mean([ref_before, *inside, ref_after])
            ref_before = ref_after
        else:
            probes_s, ref = own
            dt -= probes_s
        units.append([dt, ref, n])
        for name, s in seen.items():
            series_s[name] = [dt, ref] if s is None else list(s)
        done += n
        after_step(done)
    return {"units": units, "series_s": series_s, "series": done}


def objective_not_above_truth(theta_hat, theta_true, data, weights, criterion):
    """A global fit's criterion cannot exceed the criterion at the truth.

    Both are evaluated with the same weights; a higher value means the
    optimizer stopped in a worse point than one it could have reached.
    """
    f = qmele_objective if criterion == "qmele" else qmle_objective
    try:
        hat = f(ParamVector.from_theta(theta_true.orders, np.asarray(theta_hat, float)), data, weights)
    except (DomainError, ArithmeticError):
        return False
    truth = f(theta_true, data, weights)
    return math.isfinite(hat) and hat <= truth + OBJECTIVE_RTOL * max(1.0, abs(truth))


class Outcome:
    """Fits attempted and failed, with one line per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def fit(self, label, why=None):
        """Record one fit; `why` is None for a good fit."""
        self.attempted += 1
        if why is not None:
            self.failures.append(f"{label}: {why}")


def _judge_row(outcome, counted, label, why, wrong):
    """Count a fit of the quota in `outcome`; a wrong output beyond the
    quota is kept in `wrong`, so it still makes the run incorrect."""
    if counted:
        outcome.fit(label, why)
    elif why == ABOVE_TRUTH:
        wrong.append(f"{label}: {why}")


def _problems(wrong):
    return {"fits_beyond_quota": "; ".join(wrong[:5])} if wrong else {}


# ---------------------------------------------------------------------------
# mc_laplace: serial run_scenario on the paper's two Laplace designs


class McLaplace:
    name = "mc_laplace"
    clock_target = None

    def prepare(self, seed, workdir, scale):
        self.designs(seed, scale)  # the inputs are the seeds; built again in run

    @staticmethod
    def designs(seed, scale):
        """The two designs as single-replication scenarios; unit i runs
        replication i // 2 of design i % 2 (seed + i // 2)."""
        orders = ModelOrders(1, 0, 1, 1)
        seeds = derived_seeds(seed, "mc_laplace", 2)
        out = []
        for name, theta, s in (("finite", THETA_FINITE, seeds[0]), ("igarch", THETA_IGARCH, seeds[1])):
            vec = np.array([float(x) for x in theta.split(",")])
            out.append(ScenarioConfig(
                orders=orders,
                theta0=ParamVector.from_theta(orders, vec).validate(),
                dist=InnovationDist("laplace", "abs_mean_one"),
                n=SCALES[scale]["mc_n"],
                replications=1,
                seed=s,
                estimators=(SW_QMELE, LOCAL_QMELE),
                g0_mode=G0Mode.known(0.5),
                name=f"laplace_{name}",
            ))
        return out

    def run(self, workdir, seed, seconds, scale, after_step, clock=None):
        designs = self.designs(seed, scale)
        self.tables = []

        def step(i):
            cfg = designs[i % 2]
            cfg = replace(cfg, seed=cfg.seed + i // 2)
            self.tables.append(run_scenario(cfg))
            return {f"{cfg.name}/{cfg.seed}": None}, 1, None

        return _timed_units(seconds, SCALES[scale]["quota"][self.name], step, after_step)

    def check(self, workdir, seed, scale, outcome):
        quota = SCALES[scale]["quota"][self.name]
        wrong = []
        for i, table in enumerate(self.tables):
            cfg = table.scenario
            rec = table.records[0]
            data = simulate(cfg.theta0, cfg.dist, cfg.n, burn_in=cfg.burn_in, seed=cfg.seed)
            w = compute_weights(data, cfg.weight_spec, cfg.orders)
            for kind in cfg.estimators:
                why = None if rec.converged[kind] else NOT_CONVERGED
                if why is None and kind == SW_QMELE and not objective_not_above_truth(
                    rec.estimates[kind], cfg.theta0, data, w, "qmele"
                ):
                    why = ABOVE_TRUTH
                _judge_row(outcome, i < quota, f"{cfg.name} seed {cfg.seed} {kind}", why, wrong)
        return {"problems": _problems(wrong)}


# ---------------------------------------------------------------------------
# long_series: `qmele fit` on long t3 series


class LongSeries:
    name = "long_series"
    # one fit lasts seconds; the yardstick also runs after each optimizer
    # run inside it
    clock_target = None
    sample_target = "qmele.estimation:minimize"

    def prepare(self, seed, workdir, scale):
        for k, s in enumerate(derived_seeds(seed, self.name, SCALES[scale]["long_k"])):
            rc = _quiet(qmele_main, [
                "simulate", "--orders", AR1_GARCH11, "--theta", THETA_FINITE,
                "--dist", "student_t3", "--n", str(SCALES[scale]["long_n"]),
                "--seed", str(s), "--out-dir", workdir, "--out", f"series-{k}.csv",
            ])
            if rc != 0:
                raise RuntimeError(f"qmele simulate exited {rc}")

    def run(self, workdir, seed, seconds, scale, after_step, clock=None):
        k = SCALES[scale]["long_k"]
        self.outputs = []

        def step(i):
            csv_path = os.path.join(workdir, f"series-{i % k}.csv")
            out = os.path.join(workdir, f"fit-{i}")
            rc = _quiet(qmele_main, ["fit", csv_path, "--orders", AR1_GARCH11, "--out-dir", out])
            if rc != 0:
                raise RuntimeError(f"qmele fit exited {rc}")
            self.outputs.append((csv_path, out))
            return {f"fit-{i}": None}, 1, None

        return _timed_units(seconds, SCALES[scale]["quota"][self.name], step, after_step,
                            sampler=clock, length=SCALES[scale]["long_n"])

    def check(self, workdir, seed, scale, outcome):
        k = SCALES[scale]["long_k"]
        quota = SCALES[scale]["quota"][self.name]
        orders = ModelOrders(1, 0, 1, 1)
        truth = ParamVector.from_theta(orders, np.array([float(x) for x in THETA_FINITE.split(",")]))
        digests = [file_digests(out) for _, out in self.outputs]
        problems, wrong = {}, []
        if any(d != digests[i % k] for i, d in enumerate(digests)):
            problems["outputs_repeat"] = "fit outputs differ between calls on the same input"
        # a series fitted again must repeat its outputs byte for byte, so
        # only its first fit is judged
        for i, (csv_path, out) in enumerate(self.outputs[:k]):
            y = np.loadtxt(csv_path, skiprows=1, ndmin=1)
            w = compute_weights(y)
            with open(os.path.join(out, "fit_report.json"), encoding="utf-8") as fh:
                fits = {f["estimator"]: f for f in json.load(fh)}
            for kind in ("sw_qmele", "local_qmele"):
                f = fits.get(kind)
                ok = f is not None and f["converged"] and all(
                    math.isfinite(v) for v in f["std_errors"].values()
                )
                why = None if ok else NOT_CONVERGED
                if ok and kind == "sw_qmele":
                    theta_hat = [f["estimates"][nm] for nm in orders.param_names()]
                    if not objective_not_above_truth(theta_hat, truth, y, w, "qmele"):
                        why = ABOVE_TRUTH
                _judge_row(outcome, i < quota, f"{os.path.basename(csv_path)} {kind}", why, wrong)
        problems.update(_problems(wrong))
        return {"digests": digests[:quota], "problems": problems}


# ---------------------------------------------------------------------------
# mc_arma_normal: `qmele mc-table --jobs 2`, exponential and gaussian criteria


class McArmaNormal:
    name = "mc_arma_normal"
    jobs = 2
    # replications run in pool workers, so their seconds are clocked there
    clock_target = "qmele.montecarlo:run_replication"

    @staticmethod
    def write_config(seed, workdir, scale, i):
        """Scenario file of unit i: replications seed + reps*i onwards."""
        (s,) = derived_seeds(seed, "mc_arma_normal", 1)
        reps = SCALES[scale]["arma_reps"]
        path = os.path.join(workdir, f"scenario-{i}.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(ARMA_INI.format(n=SCALES[scale]["arma_n"], reps=reps, seed=s + reps * i))
        return path

    def prepare(self, seed, workdir, scale):
        load_scenario(self.write_config(seed, workdir, scale, 0))

    def run(self, workdir, seed, seconds, scale, after_step, clock=None):
        reps = SCALES[scale]["arma_reps"]
        self.outputs = []

        def step(i):
            ini = self.write_config(seed, workdir, scale, i)
            out = os.path.join(workdir, f"mc-{i}")
            rc = _quiet(qmele_main, ["mc-table", "--config", ini, "--jobs", str(self.jobs), "--out-dir", out])
            if rc != 0:
                raise RuntimeError(f"qmele mc-table exited {rc}")
            self.outputs.append((ini, out))
            if clock is None:  # traced run: per-layer figures only
                return {}, reps, None
            workers = clock.collect()
            seen = {f"unit-{i}/replication-{k}": (dt, ref)
                    for rows in workers.values() for k, dt, ref, _ in rows}
            # the worker busy longest is on the call's critical path; its
            # yardstick seconds are taken out of the call's wall time. The
            # workers share the replications, so the call's ref is the
            # harmonic mean of theirs: wall / ref is then the call's cost
            # in refs of one worker.
            busy = max(workers.values(), key=lambda rows: sum(r[1] + r[3] for r in rows))
            speeds = [len(rows) / sum(r[2] for r in rows) for rows in workers.values()]
            return seen, reps, (sum(r[3] for r in busy), len(speeds) / sum(speeds))

        return _timed_units(seconds, SCALES[scale]["quota"][self.name], step, after_step)

    def check(self, workdir, seed, scale, outcome):
        quota_units = SCALES[scale]["quota"][self.name] // SCALES[scale]["arma_reps"]
        wrong = []
        digests = None
        for i, (ini, out) in enumerate(self.outputs):
            cfg = load_scenario(ini)
            if i == 0:
                digests = file_digests(out)
            names = cfg.orders.param_names()
            with open(os.path.join(out, "mc_replications.csv"), encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
            paths = {}
            for row in rows:
                kind, index = row["estimator"], int(row["replication"])
                why = None if row["converged"] == "true" else NOT_CONVERGED
                if why is None and kind in SW_CRITERION:
                    if index not in paths:
                        data = simulate(cfg.theta0, cfg.dist, cfg.n, burn_in=cfg.burn_in, seed=cfg.seed + index)
                        paths[index] = (data, compute_weights(data, cfg.weight_spec, cfg.orders))
                    data, w = paths[index]
                    theta_hat = [float(row[nm]) for nm in names]
                    if not objective_not_above_truth(theta_hat, cfg.theta0, data, w, SW_CRITERION[kind]):
                        why = ABOVE_TRUTH
                label = f"seed {cfg.seed} replication {index} {kind}"
                _judge_row(outcome, i < quota_units, label, why, wrong)
        return {"digests": digests, "problems": _problems(wrong)}


WORKLOADS = {w.name: w for w in (McLaplace, LongSeries, McArmaNormal)}
