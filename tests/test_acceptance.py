"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

The replication studies behind criteria 1-3 are session fixtures shared with
the unit suite; run with `pytest -s tests/test_acceptance.py` to see the
per-criterion lines.
"""

import json
import math

import numpy as np

from qmele import (
    LOCAL_QMELE,
    SW_QMELE,
    FitResult,
    InnovationDist,
    ModelOrders,
    ParamVector,
    WeightSpec,
    acf,
    compute_weights,
    covariance_self_weighted,
    efficiency_compare,
    filter_series,
    hill_estimator,
    local_qmele_step,
    moment_condition_check,
    qmele_objective,
    simulate,
    t_star,
)
from qmele.cli import main as cli_main
from qmele.model import _eps_h

from conftest import THETA_FINITE, THETA_IGARCH, make_theta

# Reference rows for the 200-replication studies (per-parameter values for
# mu, phi1, alpha0, alpha1, beta1).
SW_SD_FINITE = np.array([0.0172, 0.0317, 0.0274, 0.0548, 0.1125])
SW_AD_FINITE = np.array([0.0166, 0.0304, 0.0255, 0.0540, 0.1061])
LOCAL_SD_PHI1 = 0.0253
SW_SD_IGARCH = np.array([0.0195, 0.0318, 0.0219, 0.0640, 0.0673])


def report(num, description, ok, detail=""):
    line = f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'}  {description}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_finite_variance_table(mc_laplace_finite):
    table = mc_laplace_finite
    sd = table.sd[SW_QMELE]
    bias = table.bias[SW_QMELE]
    ad = table.ad[SW_QMELE]
    sd_ok = np.all((sd >= 0.75 * SW_SD_FINITE) & (sd <= 1.25 * SW_SD_FINITE))
    bias_ok = np.all(np.abs(bias) <= 0.02)
    ad_ok = np.all((ad >= 0.75 * SW_AD_FINITE) & (ad <= 1.25 * SW_AD_FINITE))
    detail = (
        f"sd={np.round(sd, 4).tolist()} bias={np.round(bias, 4).tolist()} "
        f"ad={np.round(ad, 4).tolist()} failures={table.failures[SW_QMELE]}"
    )
    report(1, "finite-variance design: SD/bias/AD of the self-weighted fit",
           sd_ok and bias_ok and ad_ok, detail)


def test_criterion_2_local_step_efficiency(mc_laplace_finite):
    table = mc_laplace_finite
    ad_local = table.ad[LOCAL_QMELE]
    ad_sw = table.ad[SW_QMELE]
    ordering_ok = np.all(ad_local <= ad_sw + 1e-12)
    sd_phi = table.sd[LOCAL_QMELE][1]
    sd_ok = 0.75 * LOCAL_SD_PHI1 <= sd_phi <= 1.25 * LOCAL_SD_PHI1
    detail = f"ad_local={np.round(ad_local, 4).tolist()} ad_sw={np.round(ad_sw, 4).tolist()} sd_phi1={sd_phi:.4f}"
    report(2, "one-step estimator: AD dominance and phi1 SD", ordering_ok and sd_ok, detail)


def test_criterion_3_igarch_stability(mc_laplace_igarch):
    table = mc_laplace_igarch
    sd = table.sd[SW_QMELE]
    bias = table.bias[SW_QMELE]
    sd_ok = np.all((sd >= 0.70 * SW_SD_IGARCH) & (sd <= 1.30 * SW_SD_IGARCH))
    bias_ok = np.all(np.abs(bias) <= 0.02)
    detail = f"sd={np.round(sd, 4).tolist()} bias={np.round(bias, 4).tolist()}"
    report(3, "integrated-variance design: SD/bias of the self-weighted fit",
           sd_ok and bias_ok, detail)


def test_criterion_4_efficiency_calculator_exact():
    lap = efficiency_compare(InnovationDist("laplace"))
    ok = lap.kappa1 == 5.0 and lap.kappa2 == 4.0
    mix1 = efficiency_compare(InnovationDist("mixture", epsilon=1.0, tau=math.sqrt(math.pi / 2)))
    ok &= abs(mix1.kappa1 - (6.0 - math.pi) / math.pi) <= 1e-12
    ok &= abs(mix1.kappa2 - (2.0 * math.pi - 4.0)) <= 1e-12
    mix2 = efficiency_compare(InnovationDist("mixture", epsilon=0.99, tau=0.1))
    ok &= abs(mix2.kappa1 - 28.1) <= 0.1 and abs(mix2.kappa2 - 6.5) <= 0.1
    detail = f"laplace=({lap.kappa1},{lap.kappa2}) mix1=({mix1.kappa1:.12f},{mix1.kappa2:.12f}) mix2=({mix2.kappa1:.4f},{mix2.kappa2:.4f})"
    report(4, "efficiency factors match the pinned closed forms", ok, detail)


def test_criterion_5_derivative_correctness():
    orders = ModelOrders(1, 1, 1, 1)
    data = simulate(make_theta(THETA_FINITE), InnovationDist("laplace"), 300, seed=52)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        theta = ParamVector.from_parts(
            orders,
            mu=rng.uniform(-0.5, 0.5),
            phi=[rng.uniform(-0.7, 0.7)],
            psi=[rng.uniform(-0.7, 0.7)],
            alpha0=rng.uniform(0.05, 2.0),
            alpha=[rng.uniform(0.01, 0.5)],
            beta=[rng.uniform(0.05, 0.85)],
        )
        base = filter_series(theta, data)
        fd_deps = np.zeros_like(base.deps)
        fd_dh = np.zeros_like(base.dh)
        for j in range(orders.m):
            step = 1e-6 * max(1.0, abs(theta.theta[j]))
            tp, tm = theta.theta.copy(), theta.theta.copy()
            tp[j] += step
            tm[j] -= step
            op = filter_series(ParamVector.from_theta(orders, tp), data)
            om = filter_series(ParamVector.from_theta(orders, tm), data)
            fd_deps[:, j] = (op.eps - om.eps) / (2 * step)
            fd_dh[:, j] = (op.h - om.h) / (2 * step)
        rel_e = np.max(np.abs(base.deps - fd_deps)) / np.max(np.abs(base.deps))
        rel_h = np.max(np.abs(base.dh - fd_dh)) / np.max(np.abs(base.dh))
        worst = max(worst, rel_e, rel_h)
    deriv_ok = worst <= 1e-6

    # score vs n * numerical gradient at a kink-free point (the score equals
    # the gradient of the unweighted exponential criterion, cf. decision log)
    orders2 = ModelOrders(1, 0, 1, 1)
    data2 = simulate(make_theta(THETA_FINITE), InnovationDist("laplace"), 400, seed=11)
    theta2 = make_theta([0.02, 0.45, 0.12, 0.2, 0.35])
    eps, h = _eps_h(theta2, data2)
    assert np.min(np.abs(eps / np.sqrt(h))) > 1e-3
    T = t_star(theta2, data2)
    w = np.ones(data2.size)
    grad = np.zeros(orders2.m)
    for j in range(orders2.m):
        step = 1e-7 * max(1.0, abs(theta2.theta[j]))
        tp, tm = theta2.theta.copy(), theta2.theta.copy()
        tp[j] += step
        tm[j] -= step
        grad[j] = (
            qmele_objective(ParamVector.from_theta(orders2, tp), data2, w)
            - qmele_objective(ParamVector.from_theta(orders2, tm), data2, w)
        ) / (2 * step)
    score_rel = np.max(np.abs(T - data2.size * grad)) / np.max(np.abs(T))
    score_ok = score_rel <= 1e-5
    report(5, "filter derivatives and score match finite differences",
           deriv_ok and score_ok, f"worst_fd={worst:.2e} score_rel={score_rel:.2e}")


def test_criterion_6_hill_calibration():
    n = 10_000
    i = np.arange(1, n + 1)
    v = (i / (n + 1.0)) ** (-1.0 / 1.5)
    est = hill_estimator(v, 1000)
    in_range = 1.35 <= est <= 1.65
    scale_gap = abs(hill_estimator(3.7e4 * v, 1000) - est)
    report(6, "Hill estimator calibration and scale invariance",
           in_range and scale_gap <= 1e-12, f"alpha_hat={est:.4f} scale_gap={scale_gap:.2e}")


def test_criterion_7_moment_region_closed_form():
    ok = True
    details = []
    for kind in ("laplace", "normal"):
        dist = InnovationDist(kind, "abs_mean_one")
        dec = moment_condition_check(0.2, 0.3, 1.0, dist, mc_draws=1_000_000, seed=901)
        target = 0.2 * dist.eta2() + 0.3
        rel = abs(dec.moment_estimate - target) / target
        ok &= rel <= 0.01
        details.append(f"{kind}: est={dec.moment_estimate:.5f} target={target:.5f}")
    report(7, "fractional-moment Monte Carlo matches the closed form at iota=1",
           ok, "; ".join(details))


def test_criterion_8_property_suite(tmp_path):
    ok = True
    notes = []

    # weight bounds across heavy-tailed samples
    for seed in range(5):
        y = np.random.default_rng(seed).standard_t(2, 500)
        w = compute_weights(y, WeightSpec())
        ok &= bool(np.all(w > 0.0) and np.all(w <= 1.0))
    notes.append("weights in (0,1]")

    # covariance symmetry / positive semidefiniteness
    theta = make_theta([0.0, 0.5, 0.12, 0.2, 0.35])
    y = simulate(make_theta(THETA_FINITE), InnovationDist("laplace"), 400, seed=88)
    cov = covariance_self_weighted(theta, y, compute_weights(y), g0=0.5, eta2=1.9)
    ok &= bool(np.allclose(cov, cov.T))
    ok &= bool(np.min(np.linalg.eigvalsh(cov)) > -1e-14)
    notes.append("covariance sym/PSD")

    # one-step fixed point at zero score
    theta_c = ParamVector.from_parts(ModelOrders(0, 0, 0, 0), mu=0.0, alpha0=4.0)
    y2 = np.array([2.0, -2.0])
    init = FitResult(
        theta_hat=theta_c, objective_value=0.0, covariance=np.eye(2),
        std_errors=np.ones(2), converged=True, iterations=0,
        estimator_kind=SW_QMELE, weights=np.ones(2),
    )
    stepped = local_qmele_step(init, y2, g0=0.5)
    ok &= bool(np.allclose(stepped.theta_hat.theta, theta_c.theta, atol=1e-12))
    notes.append("one-step fixed point")

    # ACF lag zero and shift/scale invariance
    x = np.random.default_rng(3).standard_normal(800)
    a1 = acf(x, 12)
    a2 = acf(5.0 * x - 3.0, 12)
    ok &= a1.values[0] == 1.0
    ok &= bool(np.allclose(a1.values, a2.values, atol=1e-12))
    notes.append("ACF invariances")

    # byte-identical repeated runs, serial vs parallel
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(
        "[model]\np = 1\nq = 0\nr = 1\ns = 1\n\n"
        "[truth]\nmu = 0.0\nphi = 0.5\nalpha0 = 0.1\nalpha = 0.18\nbeta = 0.4\n\n"
        "[innovations]\nkind = laplace\n\n"
        "[study]\nn = 250\nreplications = 4\nseed = 5\nestimators = sw_qmele, local_qmele\n\n"
        "[g0]\nmode = known\nvalue = 0.5\n\n"
        "[optimizer]\nrestarts = 1\n"
    )
    outs = []
    for label, jobs in (("a", "1"), ("b", "1"), ("c", "2")):
        od = tmp_path / label
        assert cli_main(["mc-table", "--config", str(cfg), "--out-dir", str(od), "--jobs", jobs]) == 0
        outs.append((od / "mc_table.csv").read_bytes() + (od / "mc_replications.csv").read_bytes())
    ok &= outs[0] == outs[1] == outs[2]
    notes.append("mc-table determinism serial==parallel")

    report(8, "property suite", ok, "; ".join(notes))


def test_criterion_9_initial_value_insensitivity():
    theta = make_theta(THETA_IGARCH)
    path = simulate(theta, InnovationDist("laplace"), 2300, burn_in=500, seed=77)
    window, pre = path[300:], path[:300]
    assert window.size == 2000
    w_true = compute_weights(window, WeightSpec(), prehistory=pre)
    w_zero = compute_weights(window, WeightSpec())
    gap = float(np.max(np.abs(w_true - w_zero)[499:]))
    report(9, "weights forget the pre-history", gap <= 1e-6, f"max_gap_t>=500={gap:.2e}")


def test_full_cli_pipeline_on_simulated_design(tmp_path):
    # the finite-variance design pushed end-to-end through simulate + fit
    sim_dir = tmp_path / "sim"
    assert cli_main([
        "simulate", "--orders", "1,0,1,1", "--theta", "0,0.5,0.1,0.18,0.4",
        "--dist", "laplace", "--n", "1000", "--seed", "42",
        "--out-dir", str(sim_dir),
    ]) == 0
    fit_dir = tmp_path / "fit"
    assert cli_main([
        "fit", str(sim_dir / "simulated.csv"), "--orders", "1,0,1,1",
        "--g0-known", "0.5", "--out-dir", str(fit_dir), "--seed", "1",
    ]) == 0
    payload = json.loads((fit_dir / "fit_report.json").read_text())
    truth = dict(zip(["mu", "phi1", "alpha0", "alpha1", "beta1"], THETA_FINITE))
    ok = True
    for entry in payload:
        for name, tv in truth.items():
            ok &= abs(entry["estimates"][name] - tv) <= 5.0 * entry["std_errors"][name]
    report("E2E", "CLI simulate->fit pipeline recovers the design", ok,
           f"estimators={[e['estimator'] for e in payload]}")
