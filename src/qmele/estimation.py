"""Self-weighted estimation and one-step efficient updates.

Two per-observation criteria, each a frozen Criterion record in CRITERIA
chosen once by name: the exponential (QMELE, "qmele")
l_t = log sqrt(h_t) + |eps_t| / sqrt(h_t), the likelihood under
double-exponential innovations with E|eta| = 1, robust to heavy tails, and
the gaussian (QMLE, "qmle") l_t = log h_t + eps_t^2 / h_t with E eta^2 = 1.
A record holds all that differs between them; every code path is shared.

A series enters every public function through model.as_series, the one
series check, and goes on as the float ndarray it returns.
The self-weighted estimator minimizes (1/n) sum_t w_t l_t(theta) by
L-BFGS-B on the exact weighted score, in theta under _box, which holds the
faces alpha_i = 0 and beta_j = 0. Every run is one call of minimize, which
drives scipy's compiled setulb with the steps and results of
scipy.optimize.minimize but without its per-run and per-evaluation
wrappers. Every evaluation, and the reported objective, goes through the
fit's one Evaluator: a check of theta without a ParamVector, one residual
and one volatility pass, the loss and score factors (a_t, b_t) from one
eta, sqrt(h) and eps^2, and the score sum_t w_t (a_t deps_t + b_t dh_t)
from the adjoint passes that model.filter_vjp runs, with no n x m
derivatives. The Evaluator owns one model.Workspace, made once per fit:
every pass writes its n-length arrays into it through out=, by the same
ufuncs in the same order as the allocating calls of the other callers,
and each recursion's lag polynomial, (1, psi..) for the residuals and
kappa and (1, -beta..) for the volatility and lambda, is built once per
evaluation and shared by the forward pass and its adjoint. So an
evaluation allocates no n-length array but the compiled filter's
outputs, one per recursion. Its held-gamma mode, for fits over delta
alone at a vertex, keeps eps and eps^2 for the held gamma in arrays of
its own and runs only the volatility pass, the loss, b_t and the lambda
pass. The exponential fit descends up to three smoothed criteria; then every
fit finishes on a face {eps_t = 0, t in A} of its criterion, A empty for
the gaussian one, and certifies its end. The fit descends one fixed list
of starts in turn, the initializer first, until its stopping rule holds
(fit_self_weighted).
The "local" estimator takes a single Newton-type step from the self-weighted
fit,

    theta_1 = theta_0 - [2 Sigma*(theta_0)]^{-1} T*(theta_0),

with T* and Sigma* evaluated without weights and g(0) taken from the fit
(local_qmele_step). Both return the FitResult of one _fit_result: sandwich
standard errors (1/4) Sigma^-1 Omega Sigma^-1 / n from one filter_series
pass at the reported estimate, or NaN ones with a status naming the
failure; a step that cannot be taken is reported, not raised. The
FitResult keeps that pass, so the one-step from it and the diagnostics of
its residuals filter the series at theta_hat no second time.
"""
import bisect
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import OptimizeResult, _lbfgsb
from scipy.optimize._lbfgsb_py import status_messages, task_messages

from .exceptions import (
    DomainError,
    InsufficientDataError,
    NumericOverflowError,
    SingularInformationError,
)
from .model import (
    H_OVERFLOW_LIMIT,
    ModelOrders,
    ParamVector,
    Workspace,
    adjoint,
    as_series,
    check_coefficients,
    checked_eps_h,
    eps_gamma_derivs,
    filter_series,
    residuals,
    volatility,
)
from .weights import WeightSpec, compute_weights

SW_QMELE = "sw_qmele"
LOCAL_QMELE = "local_qmele"
SW_QMLE = "sw_qmle"
LOCAL_QMLE = "local_qmle"
ESTIMATOR_KINDS = (SW_QMELE, LOCAL_QMELE, SW_QMLE, LOCAL_QMLE)

ETA2_FLOOR = 1.0 + 1e-6
COND_LIMIT = 1e12
# mu of the exponential fit's smoothed stages at L-BFGS-B's default
# tolerances, which bring the fit near its kinks for the face finish.
# Every face run is tight, since the default stop divides the reduction by
# max(|f|, 1), loose for a criterion below 1. MAX_ITER caps the iterations
# of each run, far above what any fit takes.
_TIGHT = {"ftol": 1e-15, "gtol": 1e-12}
_MU_LADDER = (1e-2, 1e-3, 1e-4)
MAX_ITER = 3000
# the face finish: active-set moves, Newton steps onto eps_A(gamma) = 0
# with an MA part, and the largest smooth gradient that still counts as a
# KKT point (a gradient g left costs at most g^2 / 2c in the criterion, c
# its curvature, far below the 1e-9 the fit is held to)
MAX_PIVOTS = 10
NEWTON_STEPS = 8
KKT_TOL = 1e-6


@dataclass(frozen=True)
class G0Mode:
    """How to obtain the innovation density at zero, g(0).

    kind "kernel" estimates it from standardized residuals; "known" injects
    a user-supplied value (e.g. 0.5 for standardized double-exponential
    innovations in simulation studies).
    """

    kind: str = "kernel"
    value: float | None = None

    def __post_init__(self):
        if self.kind not in ("kernel", "known"):
            raise DomainError(f"unknown g0 mode {self.kind!r}")
        if self.kind == "known" and (self.value is None or not self.value > 0.0):
            raise DomainError("known g0 requires a positive value")

    @classmethod
    def kernel(cls):
        return cls("kernel")

    @classmethod
    def known(cls, value):
        return cls("known", float(value))


@dataclass(frozen=True)
class FitConfig:
    """Fit settings; restarts counts the jittered starts that end
    fit_self_weighted's start list, after the variance-targeted one."""

    weight_spec: WeightSpec = field(default_factory=WeightSpec)
    restarts: int = 5
    g0_mode: G0Mode = field(default_factory=G0Mode.kernel)

    def __post_init__(self):
        if self.restarts < 0:
            raise DomainError("restarts must be >= 0")


@dataclass(frozen=True)
class Certificate:
    """Optimality certificate of a fit's face finish.

    active lists the observations (0-based t) held at eps_t = 0: p+q+1 at a
    vertex, fewer on a larger face, none for the gaussian criterion. Their
    kink multipliers s solve J_A' (w_A s_A / sqrt(h_A)) = -n g_gamma, by
    least squares below a vertex, with J_A the rows d eps_t/d gamma on A
    and g_gamma the criterion's gamma-gradient with sign(eta_t) = 0 on A.
    kkt is the largest smooth gradient left: the delta block's projected
    gradient and that least squares residual / n. pivots counts the
    active-set moves taken. certified iff max|s| <= 1 and kkt <= KKT_TOL:
    then theta_hat is Clarke-stationary (a KKT point in the box when A is
    empty).
    """

    active: tuple
    max_s: float
    kkt: float
    pivots: int
    certified: bool


@dataclass(frozen=True)
class FitResult:
    """A fitted model with its estimated sampling covariance.

    covariance already carries the (1/4) Sigma^-1 Omega Sigma^-1 / n scaling,
    i.e. it estimates Var(theta_hat); std_errors are the square roots of its
    diagonal. g0 and eta2 record the nuisance quantities used to build it.
    For a self-weighted fit, converged says whether theta_hat is certified
    or the optimizer run that produced it met its termination tolerances;
    iterations and nfev count the iterations and criterion evaluations over
    all optimizer runs, starts the descents run. For a one-step update,
    converged says the step was taken. status says why the covariance is
    NaN: "ok", "not_converged", "singular_information", "domain",
    "overflow" or, for a step that is not finite, "infeasible_step". held
    names the coordinates a one-step update kept at the initializer's
    values. certificate is the face-finish certificate of theta_hat (None
    for a one-step update, or where theta_hat is not a face end but the
    smoothed stages' end). kept is (theta_hat, a copy of the series, the
    filter_series pass at theta_hat on it) of the pass that built the
    covariance, None where none ran; equality and repr leave it out, and
    kept_pass(y) hands it to the one-step and the diagnostics.
    """

    theta_hat: ParamVector
    objective_value: float
    covariance: np.ndarray
    std_errors: np.ndarray
    converged: bool
    iterations: int
    estimator_kind: str
    g0: float = np.nan
    eta2: float = np.nan
    weights: np.ndarray | None = None
    held: tuple = ()
    nfev: int = 0
    starts: int = 0
    status: str = "ok"
    certificate: Certificate | None = None
    kept: tuple | None = field(default=None, compare=False, repr=False)

    @property
    def orders(self):
        return self.theta_hat.orders

    def kept_pass(self, data):
        """filter_series(theta_hat, data) as kept where data is, bit for bit,
        the series the kept pass ran on at this theta_hat; else None."""
        if self.kept is None or self.kept[0] is not self.theta_hat:
            return None
        (_, series, out), y = self.kept, as_series(data)
        same = series.shape == y.shape and np.array_equal(series.view(np.uint64), y.view(np.uint64))
        return out if same else None


# ---------------------------------------------------------------------------
# criteria


def _exponential_terms(eps, e2, h, mu, with_a=True, ws=None):
    """l = log sqrt(h) + |eta|, a = sign(eta)/sqrt(h), b = (1 - |eta|)/(2h);
    smoothed, l = log sqrt(h) + sqrt(e2/h + mu^2), a = eta/(sqrt(h) r) and
    b = (1 - eta^2/r)/(2h) with r = sqrt(eta^2 + mu^2)."""
    ws = Workspace(h.size) if ws is None else ws
    sqrt_h, tmp = np.sqrt(h, out=ws.sqrt_h), ws.tmp
    eta = np.divide(eps, sqrt_h, out=ws.eta)
    loss = np.log(h, out=ws.loss)
    loss *= 0.5
    if mu:
        eta2 = np.multiply(eta, eta, out=ws.eta2)
        r = np.add(eta2, mu * mu, out=ws.r)
        np.sqrt(r, out=r)
        a = np.divide(eta, np.multiply(sqrt_h, r, out=ws.a), out=ws.a) if with_a else None
        q = np.divide(e2, h, out=tmp)
        q += mu * mu
        loss += np.sqrt(q, out=q)
        b = np.divide(eta2, r, out=ws.b)
    else:
        b = np.abs(eta, out=ws.b)
        a = np.divide(np.sign(eta, out=ws.a), sqrt_h, out=ws.a) if with_a else None
        loss += b
    b = np.subtract(1.0, b, out=b)
    b /= np.multiply(2.0, h, out=tmp)
    return loss, a, b


def _gaussian_terms(eps, e2, h, mu, with_a=True, ws=None):
    """l = log h + e2/h, a = 2 eps/h, b = (1 - e2/h)/h; mu is ignored."""
    ws = Workspace(h.size) if ws is None else ws
    q = np.divide(e2, h, out=ws.q)
    loss = np.log(h, out=ws.loss)
    loss += q
    a = np.divide(np.multiply(2.0, eps, out=ws.a), h, out=ws.a) if with_a else None
    b = np.subtract(1.0, q, out=ws.b)
    b /= h
    return loss, a, b


@dataclass(frozen=True)
class Criterion:
    """Everything that differs between the exponential and gaussian criteria.

    terms(eps, e2, h, mu, with_a=True, ws=None) gives (l_t, a_t, b_t) from
    one eta, sqrt(h) and e2 = eps^2: the per-observation criterion l_t, with
    |eta| smoothed to sqrt(eta^2 + mu^2) when mu > 0 (the gaussian criterion
    ignores mu), and the score factors with score_t = a_t deps_t + b_t dh_t
    (a_t is None unless with_a), written into the workspace ws (a
    model.Workspace, a new one unless given). sigma(w, h, g0) and
    omega(w, h, eta2, eta_sq_dev) give the per-observation scales of the
    deps and dh cross products in Sigma and Omega, where eta_sq_dev is the
    plug-in for E(1 - eta^2)^2. ladder lists the mu of the stages on the
    smoothed criterion before the face finish: none for a smooth criterion,
    whose finish starts with no kinks rather than at a vertex (p+q+1 kinks).
    """

    sw_kind: str
    local_kind: str
    ladder: tuple
    terms: Callable
    sigma: Callable
    omega: Callable


QMELE = Criterion(
    sw_kind=SW_QMELE,
    local_kind=LOCAL_QMELE,
    ladder=_MU_LADDER,
    terms=_exponential_terms,
    sigma=lambda w, h, g0: (g0 * w / h, w / (8.0 * h**2)),
    omega=lambda w, h, eta2, eta_sq_dev: (w * w / h, 0.25 * (eta2 - 1.0) * w * w / h**2),
)
QMLE = Criterion(
    sw_kind=SW_QMLE,
    local_kind=LOCAL_QMLE,
    ladder=(),
    terms=_gaussian_terms,
    sigma=lambda w, h, g0: (w / h, w / (2.0 * h**2)),
    omega=lambda w, h, eta2, eta_sq_dev: (4.0 * eta2 * w * w / h, eta_sq_dev * w * w / h**2),
)
CRITERIA = {"qmele": QMELE, "qmle": QMLE}


# ---------------------------------------------------------------------------
# objectives


def _weighted_mean(w, loss):
    """(1/n) sum_t w_t l_t, by np.mean's arithmetic without its call
    overhead; the products w_t l_t overwrite loss."""
    loss *= w
    return float(np.add.reduce(loss) / loss.size)


def _criterion_mean(eps, h, w, crit, mu=0.0):
    """Weighted criterion mean (1/n) sum_t w_t l_t."""
    return _weighted_mean(w, crit.terms(eps, eps * eps, h, mu, with_a=False)[0])


def _series_and_weights(data, weights):
    """The checked series and its weights as floats; DomainError unless the
    weights match the series length."""
    data = as_series(data)
    w = np.asarray(weights, dtype=float)
    if w.shape != data.shape:
        raise DomainError("weights must match the series length")
    return data, w


def _check_g0(g0):
    """DomainError unless g0 > 0 (NaN fails)."""
    if not g0 > 0.0:
        raise DomainError("g0 must be > 0")


def _checked_objective(theta, data, weights, crit):
    data, w = _series_and_weights(data, weights)
    # filter overflow propagates, as from filter_series
    _, eps, h = checked_eps_h(theta, data)
    return _criterion_mean(eps, h, w, crit)


class Evaluator:
    """One fit's weighted criterion mean (mu-smoothed) as theta -> (value,
    exact gradient), built once per orders, series y, weights and criterion;
    (nan, 0) where theta breaks ParamVector.validate's constraints (sum(beta)
    >= 1 is inside _box), checked_eps_h would report overflow or the value
    or the gradient is not finite. NaN, not inf: after an infinite trial
    value the L-BFGS-B line search can accept a near-zero step and report
    convergence, while NaN ends the descent as a failure, which the fit
    then handles. held(gamma) is the same map over delta alone, the
    residual pass, a_t and the gamma adjoint skipped. Every call writes
    into the evaluator's one Workspace, so calls may not overlap; the
    gradient returned is the caller's. point(x, kinks) also hands back the
    call's eps and h."""

    def __init__(self, orders, data, w, crit):
        self.orders, self.y = orders, as_series(data)
        self.w = w
        self.crit = crit
        self.k = orders.p + orders.q + 1
        self.ws = Workspace(self.y.size)

    def __call__(self, x, mu=0.0, kinks=None):
        """(value, gradient) at theta = x; a_t = 0 (sign(eta_t) = 0) on kinks."""
        return self._evaluate(x[: self.k], x[self.k :], mu, None, kinks)

    def point(self, x, kinks=None):
        """(value, gradient, eps, h) at theta = x, mu = 0: the call's own
        residual and volatility passes, copied out of the workspace that the
        next call writes over (h is its forcing array where s = 0); eps and h
        are None where the value is not finite."""
        value, grad = self(x, kinks=kinks)
        if not math.isfinite(value):
            return value, grad, None, None
        eps, h = self._passes
        return value, grad, eps.copy(), h.copy()

    def held(self, gamma):
        with np.errstate(over="ignore", invalid="ignore"):
            mean = self._mean_pass(gamma)
        return lambda delta, mu=0.0: self._evaluate(gamma, delta, mu, mean)

    def _mean_pass(self, gamma, ws=None):
        eps = residuals(self.orders, self.y, gamma, ws)
        return eps, np.multiply(eps, eps, out=None if ws is None else ws.e2)

    @np.errstate(over="ignore", invalid="ignore")
    def _evaluate(self, gamma, delta, mu, mean, kinks=None):
        size = delta.size if mean else gamma.size + delta.size
        try:
            omb = check_coefficients(self.orders, gamma, delta)
        except DomainError:
            return np.nan, np.zeros(size)
        w, ws = self.w, self.ws
        eps, e2 = mean or self._mean_pass(gamma, ws)
        h = volatility(self.orders, e2, delta, omb, ws)
        self._passes = eps, h
        loss, a, b = self.crit.terms(eps, e2, h, mu, mean is None, ws)
        value = _weighted_mean(w, loss)
        if a is not None:
            if kinks is not None:
                a[kinks] = 0.0
            a *= w
        b *= w
        grad = adjoint(self.orders, self.y, eps, e2, h, gamma, delta, omb, a, b, ws)
        # h >= alpha0 > 0, so its max is above the limit or NaN iff any entry is;
        # a non-finite eps, or an eps^2 overflowing under a finite h, gives a non-finite value
        if not (math.isfinite(value) and np.maximum.reduce(h) <= H_OVERFLOW_LIMIT
                and all(map(math.isfinite, grad.tolist()))):
            return np.nan, np.zeros(size)
        grad /= w.size
        return value, grad


def qmele_objective(theta, data, weights):
    """Self-weighted exponential criterion (1/n) sum w_t [log sqrt(h_t) + |eps_t|/sqrt(h_t)]."""
    return _checked_objective(theta, data, weights, QMELE)


def qmle_objective(theta, data, weights):
    """Self-weighted gaussian criterion (1/n) sum w_t [log h_t + eps_t^2/h_t]."""
    return _checked_objective(theta, data, weights, QMLE)


# ---------------------------------------------------------------------------
# scores and information-type matrices


def _score(out, crit, active=()):
    """sum_t a_t deps_t + b_t dh_t, with a_t = 0 (sign(eta_t) = 0) for t in active."""
    _, a, b = crit.terms(out.eps, out.eps * out.eps, out.h, 0.0)
    a[list(active)] = 0.0
    return a @ out.deps + b @ out.dh


def _cross(out, scales):
    """sum_t s_t deps_t deps_t' + u_t dh_t dh_t' for per-observation scales (s, u)."""
    s, u = scales
    return (out.deps * s[:, None]).T @ out.deps + (out.dh * u[:, None]).T @ out.dh


def t_star(theta, data):
    """Exponential-criterion score sum

    T*(theta) = sum_t { h_t^{-1/2} (d eps_t/d theta) sign(eta_t)
                        + (2 h_t)^{-1} (d h_t/d theta) (1 - |eta_t|) },

    with sign(0) = 0. Equals n times the gradient of the unweighted
    exponential objective wherever no eta_t sits on the kink.
    """
    return _score(filter_series(theta, data), QMELE)


def sigma_star(theta, data, g0):
    """Exponential-criterion information-type matrix sum

    Sigma*(theta) = sum_t { g0/h_t (d eps/d theta)(d eps/d theta)'
                            + (8 h_t^2)^{-1} (d h/d theta)(d h/d theta)' }.
    """
    _check_g0(g0)
    out = filter_series(theta, data)
    return _cross(out, QMELE.sigma(1.0, out.h, g0))


# ---------------------------------------------------------------------------
# nuisance estimates


def estimate_eta2(residuals):
    """Mean of squared standardized residuals, the plug-in for E eta^2."""
    r = np.asarray(residuals, dtype=float)
    if r.size == 0:
        raise DomainError("residuals must be nonempty")
    return float(np.mean(r * r))


def estimate_g0(residuals, mode=G0Mode.kernel()):
    """Innovation density at zero.

    Kernel mode evaluates a gaussian kernel density estimate at 0 with the
    bandwidth 1.06 * sigma_hat * n^{-1/5}, where sigma_hat is the robust
    scale min(std, IQR/1.349). Known mode returns the supplied value.
    """
    if mode.kind == "known":
        return float(mode.value)
    r = np.asarray(residuals, dtype=float)
    if r.size == 0:
        raise DomainError("residuals must be nonempty")
    sd = float(np.std(r, ddof=1)) if r.size > 1 else 0.0
    q75, q25 = np.percentile(r, [75.0, 25.0])
    iqr_scale = (q75 - q25) / 1.349
    sigma = min(x for x in (sd, iqr_scale) if x > 0.0) if max(sd, iqr_scale) > 0.0 else 0.0
    if sigma <= 0.0:
        raise DomainError("residuals have no spread; cannot estimate a density")
    bw = 1.06 * sigma * r.size ** (-0.2)
    u = r / bw
    return float(np.mean(np.exp(-0.5 * u * u)) / (bw * np.sqrt(2.0 * np.pi)))


# ---------------------------------------------------------------------------
# sandwich covariances


def _sym_inv(mat):
    """Inverse of a symmetric PSD matrix with a condition-number guard; a
    matrix that is not finite raises NumericOverflowError."""
    if not np.isfinite(mat).all():
        raise NumericOverflowError("information matrix is not finite")
    sym = 0.5 * (mat + mat.T)
    vals, vecs = np.linalg.eigh(sym)
    if vals[-1] <= 0.0 or vals[0] <= 0.0 or vals[-1] / vals[0] > COND_LIMIT:
        raise SingularInformationError(
            f"information matrix is numerically singular (eigenvalues {vals[0]:.3e}..{vals[-1]:.3e})"
        )
    return (vecs / vals) @ vecs.T


def _sandwich(out, crit, w, g0, eta2, eta_sq_dev):
    """(1/4) Sigma^-1 Omega Sigma^-1 / n with Sigma = (1/n) sum crit.sigma
    and Omega = (1/n) sum crit.omega cross products of deps and dh."""
    n = out.eps.size
    sig = _cross(out, crit.sigma(w, out.h, g0)) / n
    omg = _cross(out, crit.omega(w, out.h, eta2, eta_sq_dev)) / n
    sig_inv = _sym_inv(sig)
    cov = 0.25 * sig_inv @ omg @ sig_inv / n
    return 0.5 * (cov + cov.T)


def covariance_self_weighted(theta, data, weights, g0, eta2):
    """Sampling covariance of the self-weighted estimator.

    Builds the sample averages

        Sigma_hat = (1/n) sum w_t [ g0/h_t deps deps' + (8 h_t^2)^{-1} dh dh' ],
        Omega_hat = (1/n) sum [ w_t^2/h_t deps deps'
                                + (eta2-1)/4 * w_t^2/h_t^2 dh dh' ],

    and returns (1/4) Sigma_hat^{-1} Omega_hat Sigma_hat^{-1} / n.
    """
    _check_g0(g0)
    if not eta2 >= 1.0:
        raise DomainError("eta2 must be >= 1 (E|eta| = 1 forces E eta^2 >= 1)")
    data, w = _series_and_weights(data, weights)
    # the exponential Omega does not use E(1 - eta^2)^2
    return _sandwich(filter_series(theta, data), QMELE, w, g0, eta2, np.nan)


def covariance_local(theta, data, g0, eta2):
    """Sampling covariance of the one-step estimator (unit weights)."""
    data = as_series(data)
    return covariance_self_weighted(theta, data, np.ones(data.size), g0, eta2)


# ---------------------------------------------------------------------------
# initializer


def _long_ar_residuals(y, order):
    n = y.size
    order = max(1, min(order, n // 4))
    X = np.column_stack(
        [np.ones(n - order)] + [y[order - i - 1 : n - i - 1] for i in range(order)]
    )
    coef, *_ = np.linalg.lstsq(X, y[order:], rcond=None)
    resid = np.zeros(n)
    resid[order:] = y[order:] - X @ coef
    return resid


def _initial_params(y, orders):
    """Moment-based starting point: least-squares ARMA for gamma, a scaled
    variance proxy for alpha0 and mild fixed values for alpha/beta."""
    o = orders
    n = y.size
    if o.p == 0 and o.q == 0:
        mu = float(np.mean(y))
        phi = np.empty(0)
        psi = np.empty(0)
        resid = y - mu
    else:
        if o.q > 0:
            pre_resid = _long_ar_residuals(y, max(2 * (o.p + o.q), 5))
        else:
            pre_resid = None
        k = max(o.p, o.q)
        rows = np.arange(k, n)
        cols = [np.ones(rows.size)]
        for i in range(1, o.p + 1):
            cols.append(y[rows - i])
        for j in range(1, o.q + 1):
            cols.append(pre_resid[rows - j])
        X = np.column_stack(cols)
        coef, *_ = np.linalg.lstsq(X, y[rows], rcond=None)
        mu = float(coef[0])
        phi = np.clip(coef[1 : 1 + o.p], -0.97, 0.97)
        psi = np.clip(coef[1 + o.p :], -0.97, 0.97)
        resid = y[rows] - X @ np.concatenate([[mu], phi, psi])

    r2 = resid * resid
    proxy = min(float(np.mean(r2)), 10.0 * float(np.median(r2)) + 1e-12)
    alpha0 = max(0.5 * proxy, 1e-8)
    alpha = np.full(o.r, 0.05)
    beta = np.full(o.s, 0.5 / o.s) if o.s > 0 else np.empty(0)
    return ParamVector.from_parts(orders, mu, phi, psi, alpha0, alpha, beta)


# ---------------------------------------------------------------------------
# fitting


def _box(orders):
    """The parameter box's (lower, upper) rows: gamma free, alpha0 >= e^-60,
    alpha_i >= 0 and 0 <= beta_j <= 1 - 2^-40, which reach the faces
    alpha_i = 0 and beta_j = 0; sum(beta) >= 1 in it is NaN. Every L-BFGS-B
    run, the certificate and the one-step's holds read it, the holds its
    lower row and its finite upper entries, the beta block."""
    k = orders.p + orders.q + 1
    box = np.zeros((2, orders.m))
    box[0, :k], box[0, k], box[1] = -np.inf, math.exp(-60.0), np.inf
    box[1, k + 1 + orders.r :] = 1.0 - 2.0**-40
    return box


def minimize(fun, x0, box, runs, args=(), ftol=2.2204460492503131e-09, gtol=1e-5):
    """One L-BFGS-B run (Byrd, Lu, Nocedal & Zhu 1995) of fun(x, *args) ->
    (value, gradient) from x0 in the box's (lower, upper) rows, appended to
    runs as an OptimizeResult: x, fun (the value last handed to setulb),
    nfev, nit, success (the run met its tolerances) and message.

    It drives scipy's compiled setulb step for step as
    scipy.optimize.minimize(method="L-BFGS-B", jac=True) does, so its
    results are the same bit for bit, without that call's wrappers: memory
    10, 20 line-search steps, factr = ftol / eps, fun evaluated at x0
    clipped to the box and then only where setulb asks at an x not equal
    to the last one, and setulb handed a float64 copy of each gradient, so
    that it never writes into fun's. The run stops after MAX_ITER
    iterations (read at the call) or once more than 10 * MAX_ITER
    evaluations are made."""
    max_iter, n = MAX_ITER, len(x0)
    lower, upper = box
    finite_lower, finite_upper = np.isfinite(lower), np.isfinite(upper)
    nbd = np.array([[0, 3], [1, 2]], dtype=np.int32)[finite_lower.astype(int), finite_upper.astype(int)]
    low, up = np.where(finite_lower, lower, 0.0), np.where(finite_upper, upper, 0.0)
    x = np.clip(np.asarray(x0, dtype=np.float64), lower, upper)
    memory = 10
    wa = np.zeros(2 * memory * n + 5 * n + 11 * memory * memory + 8 * memory)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task, ln_task = np.zeros(2, dtype=np.int32), np.zeros(2, dtype=np.int32)
    lsave, isave, dsave = np.zeros(4, dtype=np.int32), np.zeros(44, dtype=np.int32), np.zeros(29)
    factr = ftol / np.finfo(float).eps
    last = x.copy()
    value, grad = fun(last, *args)
    nfev, nit = 1, 0
    f, g = np.array(0.0), np.zeros(n)
    while True:
        _lbfgsb.setulb(memory, x, low, up, nbd, f, g, factr, gtol, wa, iwa, task, lsave, isave, dsave, 20, ln_task)
        if task[0] == 3:  # FG: the value and gradient at x
            if (x != last).any():
                last = x.copy()
                value, grad = fun(last, *args)
                nfev += 1
            f, g = value, np.array(grad, dtype=np.float64)
        elif task[0] == 1:  # NEW_X: an iteration is done
            nit += 1
            if nit >= max_iter:
                task[:] = 5, 504
            elif nfev > 10 * max_iter:
                task[:] = 5, 502
        else:
            break
    message = status_messages[int(task[0])] + ": " + task_messages[int(task[1])]
    runs.append(OptimizeResult(x=x, fun=f, nfev=nfev, nit=nit, success=bool(task[0] == 4), message=message))
    return runs[-1]


def _kink_gamma(ev, gamma, active, basis, z):
    """(gamma, M) with eps_t(gamma) = 0 on A and basis' gamma = z by Newton
    steps from gamma, and M = [J_A; basis'] at the last step, J_A the rows
    d eps_t/d gamma on A: one linear solve for a pure AR mean, where eps is
    linear in gamma. None where M is singular, the steps leave the finite
    range or they do not settle within NEWTON_STEPS."""
    for _ in range(NEWTON_STEPS):
        with np.errstate(over="ignore", invalid="ignore"):
            eps = residuals(ev.orders, ev.y, gamma)
            jac = np.vstack([eps_gamma_derivs(ev.orders, ev.y, gamma, eps)[active], basis.T])
        try:
            step = np.linalg.solve(jac, np.r_[eps[active], basis.T @ gamma - z])
        except np.linalg.LinAlgError:
            return None
        gamma = gamma - step
        if not np.isfinite(gamma).all():
            return None
        if ev.orders.q == 0 or np.abs(step).max() <= 1e-13 * (1.0 + np.abs(gamma).max()):
            return gamma, jac
    return None


def _certify(ev, theta, active, box, pivots, grad, eps, h):
    """Certificate of theta on the face {eps_t = 0, t in active}, from the
    fit's evaluator's gradient grad, eps and h at theta with sign(eta_t) = 0
    on A (Evaluator.point) and the gamma-derivative recursion, and, for a
    criterion with kinks, the move that an end which does not certify calls
    for: (next active set, gamma to start from).

    s solves J_A' (w_A s_A / sqrt(h_A)) = -n g_gamma by least squares, which
    is exact at a vertex (p+q+1 kinks); below it the residual, the
    gamma-gradient along the face, counts in kkt with the delta block's
    projected gradient. An end below a vertex with max|s| <= 1 or that
    residual above KKT_TOL stopped on a kink off A: the residual nearest 0
    is added to A. Otherwise the kink l with the largest |s_l| > 1 is freed
    along d (J_A d = sign(s_l) e_l, least norm), where the criterion falls
    at rate (1 - |s_l|) w_l / sqrt(h_l) and each residual crossing 0 adds
    2 w_t |d eps_t/d tau| / sqrt(h_t). Bisection finds the first crossing
    with the exact rate (delta held) nonnegative just after it, at most the
    Barrodale-Roberts one where the linear rate does. If the rate turns
    positive before any crossing, l is dropped and the next face starts
    halfway to it; otherwise that crossing is swapped in for l.
    """
    k, w = ev.k, ev.w
    jac = eps_gamma_derivs(ev.orders, ev.y, theta.gamma, eps)
    c = w / np.sqrt(h)
    lhs = (jac[active] * c[active, None]).T
    s = np.linalg.lstsq(lhs, -w.size * grad[:k], rcond=None)[0]
    delta = theta.delta
    projected = np.clip(delta - grad[k:], *box[:, k:])
    left = np.abs(lhs @ s / w.size + grad[:k]).max()
    kkt = float(max(left, np.abs(projected - delta).max()))
    max_s = float(np.abs(s).max(initial=0.0))
    certified = bool(max_s <= 1.0 and kkt <= KKT_TOL)
    cert = Certificate(tuple(int(t) for t in active), max_s, kkt, pivots, certified)
    if certified or not ev.crit.ladder or len(active) == k and max_s <= 1.0:
        return cert, None
    if len(active) < k and (max_s <= 1.0 or left > KKT_TOL):
        near = np.abs(eps / np.sqrt(h))
        near[active] = np.inf
        return cert, (np.r_[active, np.argmin(near)], theta.gamma)
    leave = int(np.argmax(np.abs(s)))
    unit = np.sign(s[leave]) * np.eye(len(active))[leave]
    direction = np.linalg.lstsq(jac[active], unit, rcond=None)[0]
    rate = jac @ direction
    rate[active] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = -eps / rate
    crossing = np.flatnonzero(np.isfinite(tau) & (tau > 0.0))
    if crossing.size == 0:
        return cert, None
    crossing = crossing[np.argsort(tau[crossing], kind="stable")]
    jump, rest = 2.0 * c[crossing] * np.abs(rate[crossing]), np.delete(active, leave)

    def probe(j):
        """(gamma at crossing j along d, n times the rate just before it)"""
        gamma = theta.gamma + tau[crossing[j]] * direction
        grad = ev(np.r_[gamma, delta], kinks=np.r_[rest, crossing[j]])[1]
        return gamma, w.size * grad[:k] @ direction - 0.5 * jump[j]

    linear = c[active[leave]] * (1.0 - max_s) + np.cumsum(jump)
    last = min(int(np.searchsorted(linear, 0.0)), crossing.size - 1)
    lo = bisect.bisect_left(range(last), True, key=lambda j: not probe(j)[1] + jump[j] < 0.0)
    reached, before = probe(lo)
    if lo == 0 and before > 0.0:
        return cert, (rest, 0.5 * (theta.gamma + reached))
    return cert, (np.r_[rest, crossing[lo]], reached)


def _face_fit(ev, theta, active, box, runs):
    """One tight L-BFGS-B run on the face {eps_t = 0, t in active} from
    theta: (theta, success, ev.point(theta, active)) at its end, None where
    no gamma near theta.gamma solves eps_A = 0 or J_A is not finite there.

    With no kinks the run is over theta itself, and at a vertex (p+q+1
    kinks) over delta alone with gamma held at the vertex. In between,
    z = N' gamma gives coordinates on the face, N orthonormal columns
    spanning the null space of J_A at theta: gamma(z) solves eps_A = 0,
    N' gamma = z by Newton steps from theta.gamma, and the run is
    over (z, delta), its z-gradient the rows of M^-T g_gamma on N, with
    M = [J_A; N'] and g_gamma taken with sign(eta_t) = 0 on A.
    """
    orders, k = ev.orders, ev.k
    m = k - len(active)
    if m == k:
        run = minimize(ev, theta.theta, box, runs, **_TIGHT)
        end = ParamVector.from_theta(orders, run.x)
        return end, run.success, ev.point(end.theta, active)
    basis = np.empty((k, 0))
    if m:
        with np.errstate(over="ignore", invalid="ignore"):
            jac = eps_gamma_derivs(orders, ev.y, theta.gamma, residuals(orders, ev.y, theta.gamma))[active]
        if not np.isfinite(jac).all():
            return None
        basis = np.linalg.svd(jac)[2][len(active) :].T

    def on_face(z):
        return _kink_gamma(ev, theta.gamma, active, basis, z)

    def value_and_gradient(x):
        solved = on_face(x[:m])
        if solved is None:
            return np.nan, np.zeros(x.size)
        value, grad = ev(np.r_[solved[0], x[m:]], kinks=active)
        try:
            return value, np.r_[np.linalg.solve(solved[1].T, grad[:k])[k - m :], grad[k:]]
        except np.linalg.LinAlgError:
            return np.nan, np.zeros(x.size)

    solved = on_face(basis.T @ theta.gamma)
    if solved is None:
        return None
    fun = value_and_gradient if m else ev.held(solved[0])
    start = np.r_[basis.T @ solved[0], theta.delta]
    run = minimize(fun, start, np.c_[box[:, :m], box[:, k:]], runs, **_TIGHT)
    solved = on_face(run.x[:m]) if m else solved
    if solved is None:
        return None
    end = ParamVector(orders, solved[0], run.x[m:])
    return end, run.success, ev.point(end.theta, active)


def _smallest(values, k):
    """Indices of the k smallest values, ascending with ties in index order:
    np.argsort(values, kind="stable")[:k] of finite values, by selection
    (only the candidates at or below the k-th smallest value are sorted)."""
    if k == 0:
        return np.empty(0, dtype=np.intp)
    candidates = np.flatnonzero(values <= np.partition(values, k - 1)[k - 1])
    return candidates[np.argsort(values[candidates], kind="stable")[:k]]


def _face_finish(ev, x, success, box, runs):
    """(x, value, converged, certificate) of the face finish from the last
    smoothed stage's end x and its run's success (the initializer and False
    for a criterion without stages).

    A starts as the p+q+1 smallest |eta_t| at x, a vertex, for a criterion
    with kinks, and empty otherwise. Each face is fitted and its end
    certified, and A moves as the certificate says, at most MAX_PIVOTS
    times; where no finite end solves eps_A = 0, the kink with the largest
    |eta_t| at x leaves A. Without a certified end, the lowest of the face
    ends and x is kept, converged if its run succeeded with a finite value,
    with the certificate of the face end kept (None for x).
    """
    value, _, eps, h = ev.point(x)
    best = (x, value, bool(success), None)
    if not np.isfinite(value):
        return x, value, False, None
    theta = ParamVector.from_theta(ev.orders, x)
    abs_eta = np.abs(eps / np.sqrt(h))
    active = _smallest(abs_eta, ev.k if ev.crit.ladder else 0)
    for pivots in range(MAX_PIVOTS + 1):
        face = _face_fit(ev, theta, active, box, runs)
        if face is None or not np.isfinite(face[2][0]):
            if not active.size:
                break
            active = np.delete(active, np.argmax(abs_eta[active]))
            continue
        theta, success, (value, grad, eps, h) = face
        cert, move = _certify(ev, theta, active, box, pivots, grad, eps, h)
        if cert.certified:
            return theta.theta, value, True, cert
        if value < best[1]:
            best = theta.theta, value, success, cert
        if move is None:
            break
        active, gamma = move
        theta = ParamVector(ev.orders, gamma, theta.delta)
    return best


def _failure(exc):
    """The status naming the failure exc: singular_information, domain or overflow."""
    if isinstance(exc, SingularInformationError):
        return "singular_information"
    return "domain" if isinstance(exc, DomainError) else "overflow"


def _fit_result(theta, data, crit, w, g0, status="ok", objective=None, **fields):
    """The FitResult reporting theta, its other fields as given. Where status
    is "ok", one filter_series pass at theta gives the objective (the
    criterion mean with weights w, unless given), E eta^2 floored at
    ETA2_FLOOR, g0 (estimated where given as a G0Mode) and the sandwich
    with weights w; a failure on the way leaves NaN covariance and status
    naming it. Whatever is not computed is NaN. The pass is kept on the
    FitResult with a copy of data, the series it ran on."""
    cov, eta2, kept = np.full((theta.m, theta.m), np.nan), np.nan, None
    if status == "ok":
        try:
            out = filter_series(theta, data)
            kept = theta, data.copy(), out
            if objective is None:
                objective = _criterion_mean(out.eps, out.h, w, crit)
            eta = out.eps / np.sqrt(out.h)
            g0 = estimate_g0(eta, g0) if isinstance(g0, G0Mode) else g0
            eta2 = max(estimate_eta2(eta), ETA2_FLOOR)
            cov = _sandwich(out, crit, w, g0, eta2, float(np.mean((1.0 - eta * eta) ** 2)))
        except (DomainError, ArithmeticError) as exc:
            status = _failure(exc)
    objective = math.nan if objective is None else objective
    g0 = math.nan if isinstance(g0, G0Mode) else float(g0)
    return FitResult(theta, objective, cov, np.sqrt(np.maximum(np.diag(cov), 0.0)),
                     g0=g0, eta2=float(eta2), status=status, kept=kept, **fields)


def fit_self_weighted(data, orders, config=FitConfig(), criterion="qmele"):
    """Minimize the self-weighted criterion over the constrained space.

    Descends by L-BFGS-B on the exact weighted score from a moment-based
    initializer, in theta under the parameter box of _box, which reaches
    the faces alpha_i = 0 and beta_j = 0. The exponential criterion's
    minimizer sits on a face of its |eps| kinks, with 0 to p+q+1 residuals
    zero, so its descent first runs stages on the smoothed criterion
    (|eta| -> sqrt(eta^2 + mu^2), mu = 1e-2, 1e-3, 1e-4), each started where
    the previous one ended, up to the first mu with mu * n <= 4: smoothing
    need only reach the 1/n spacing of the residuals nearest zero (Chen
    2012), so n <= 400 runs one stage, n <= 4000 two and a longer series
    three. The face finish (_face_finish) then fits faces
    by tight L-BFGS-B runs, from the vertex of the p+q+1 smallest |eta_t|
    (with no kinks from the initializer for the gaussian criterion), until
    a certificate shows the end is Clarke-stationary. A descent that
    neither certifies nor ends in a successful run with a finite value is
    not converged. One list of starts is descended in turn: the
    initializer; a variance-targeted start (Francq, Horvath & Zakoian
    2011), its gamma, 0.2 times its alpha0, alpha_i = 0.1/r and beta_j =
    0.8/s; then config.restarts jittered starts from np.random.default_rng(0).
    The fit stops once the best end so far (the lowest converged one, else
    the lowest) is converged and either has no alpha_i or beta_j (i, j >= 1)
    at 0 or is not the only end: a first end on a GARCH face gets a second
    descent, and one that does not converge is followed by the next starts
    until one does. Every descent counts in starts, nfev and iterations.
    The objective reported is the exact criterion, the fit's Evaluator at
    theta_hat (inf where that is not finite).

    Returns a FitResult; converged=False flags that the descent which
    produced theta_hat was neither certified nor ended in a successful run
    (the point is still reported, with NaN covariance). status records why
    the covariance is NaN.
    """
    if criterion not in CRITERIA:
        raise DomainError(f"unknown criterion {criterion!r}")
    crit = CRITERIA[criterion]
    y = as_series(data)
    if not isinstance(orders, ModelOrders):
        orders = ModelOrders(*orders)
    if y.size < 10 * orders.m:
        raise InsufficientDataError(
            f"need n >= 10*m = {10 * orders.m} observations, have {y.size}"
        )

    w = compute_weights(y, config.weight_spec, orders)
    x0 = _initial_params(y, orders).theta
    k, j = orders.p + orders.q + 1, orders.p + orders.q + 2 + orders.r
    box = _box(orders)
    ev = Evaluator(orders, y, w, crit)
    # x0, the variance-targeted start, then the jittered ones (sum(beta) kept < 1)
    target = x0.copy()
    target[k] *= 0.2
    target[k + 1:j] = 0.1 / max(orders.r, 1)
    target[j:] = 0.8 / max(orders.s, 1)
    starts = [x0, target]
    for z in np.random.default_rng(0).normal(0.0, 1.0, (config.restarts, orders.m)):
        start = x0.copy()
        start[:k] += 0.3 * z[:k]
        start[k:] *= np.exp(0.7 * z[k:])
        start[j:] /= 1.0 - x0[j:].sum() + start[j:].sum()
        starts.append(start)
    runs, ends = [], []
    for start in starts:
        success = False
        for mu in crit.ladder:
            run = minimize(ev, start, box, runs, (mu,))
            start, success = run.x, run.success
            if mu * y.size <= 4.0:
                break
        ends.append(_face_finish(ev, start, success, box, runs))
        x_hat, value, converged, cert = min(ends, key=lambda end: (not end[2], np.nan_to_num(end[1], nan=np.inf)))
        if converged and (len(ends) > 1 or x_hat[k + 1:].all()):
            break
    return _fit_result(
        ParamVector.from_theta(orders, x_hat), y, crit, w, config.g0_mode,
        "ok" if converged else "not_converged", objective=value if math.isfinite(value) else math.inf,
        converged=converged, iterations=sum(r.nit for r in runs), estimator_kind=crit.sw_kind,
        weights=w, nfev=sum(r.nfev for r in runs), starts=len(ends), certificate=cert,
    )


def local_qmele_step(theta_init, data, g0=None):
    """One Newton-type step from a converged self-weighted fit.

    The update direction is -[2 Sigma*]^{-1} T* for the exponential
    criterion (or its gaussian analogue when the initializer is a
    self-weighted gaussian fit). T* takes sign(eta_t) = 0 on the kinks of a
    certified initializer's active set, where eps_t = 0 up to rounding, as
    t_star defines sign(0) = 0. The step is kept in the parameter space by
    holds read from _box: a coordinate the step would take below its lower
    bound, and the whole beta block (the finite upper entries) where
    sum(beta) would reach 1, keep the initializer's value, and the system
    is solved again over the rest, until nothing leaves (holds are only
    added). held names the held coordinates of a step taken.

    g0 defaults to the initializer's, which its sandwich used. A step taken
    is converged, its sandwich built as a fit's is. A step that cannot be
    taken reports the initializer's theta, not converged, with NaN
    objective and covariance and a status naming why: "infeasible_step"
    for a step that is not finite, or the failure of the information
    matrix, g0 or the filter at the initializer.
    """
    if not isinstance(theta_init, FitResult):
        raise DomainError("theta_init must be a FitResult from fit_self_weighted")
    if not theta_init.converged:
        raise DomainError("one-step update requires a converged initializer")
    crit = QMLE if theta_init.estimator_kind in (SW_QMLE, LOCAL_QMLE) else QMELE
    data = as_series(data)
    theta0 = theta_init.theta_hat
    g0 = theta_init.g0 if g0 is None else g0
    cert = theta_init.certificate
    held, status = (), "ok"
    try:
        _check_g0(g0)
        out = theta_init.kept_pass(data) or filter_series(theta0, data)
        info = 2.0 * _cross(out, crit.sigma(1.0, out.h, g0))
        score = _score(out, crit, cert.active if cert is not None and cert.certified else ())
        del out  # free a new n x m pass at theta0 before _fit_result makes one at theta1
        box, hold = _box(theta0.orders), np.zeros(theta0.m, dtype=bool)
        beta, theta = np.isfinite(box[1]), theta0.theta - _sym_inv(info) @ score
        while (leaves := ((theta < box[0]) | beta & (theta[beta].sum() >= 1.0)) & ~hold).any():
            hold |= leaves
            theta = theta0.theta
            theta[~hold] -= _sym_inv(info[np.ix_(~hold, ~hold)]) @ score[~hold]
        theta1 = ParamVector.from_theta(theta0.orders, theta)
        if theta1.is_valid():
            held = tuple(name for name, h in zip(theta0.orders.param_names(), hold) if h)
        else:
            theta1, status = theta0, "infeasible_step"
    except (DomainError, ArithmeticError) as exc:
        theta1, status = theta0, _failure(exc)
    return _fit_result(
        theta1, data, crit, 1.0, g0, status, converged=status == "ok", iterations=1,
        estimator_kind=crit.local_kind, weights=theta_init.weights, held=held,
    )
