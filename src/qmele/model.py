"""ARMA-GARCH parameterization, residual/volatility filtering and simulation.

The observation model is

    y_t = mu + sum_i phi_i y_{t-i} + sum_j psi_j e_{t-j} + e_t,
    e_t = eta_t sqrt(h_t),
    h_t = alpha0 + sum_i alpha_i e_{t-i}^2 + sum_j beta_j h_{t-j},

with i.i.d. innovations eta_t. Filtering treats pre-sample observations and
residuals as zeros and starts the volatility recursion at its zero-innovation
fixed point alpha0 / (1 - sum beta_j).

Every caller runs the same recursions, each written once over the orders,
the series y and plain coefficient arrays gamma = (mu, phi.., psi..),
delta = (alpha0, alpha.., beta..): residuals, volatility and the backward
passes of adjoint, which gives ga @ deps + gb @ dh without the n x m
derivatives that filter_series alone forms. residuals, volatility and
adjoint write their n-length arrays into a Workspace, the caller's or a
new one, and the adjoint reuses the lag polynomials its forward passes
left there.

A series is a float ndarray. as_series is its one check (1-d, nonempty,
finite), made by every public function that takes a series; simulate and
log_return_transform return one.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal._sigtools import _linear_filter

from .exceptions import DomainError, NumericOverflowError

H_OVERFLOW_LIMIT = 1e300
BURN_IN = 500  # simulated observations dropped before the retained path

# (E|X|, E X^2, E X^4) of each unscaled innovation law, in closed form; the
# mixture's from its weight epsilon and scale tau
_MOMENTS = {
    "laplace": lambda e, t: (1.0, 2.0, 24.0),
    "normal": lambda e, t: (np.sqrt(2.0 / np.pi), 1.0, 3.0),
    "student_t3": lambda e, t: (2.0 * np.sqrt(3.0) / np.pi, 3.0, np.inf),
    "mixture": lambda e, t: (np.sqrt(2.0 / np.pi) * (1.0 - e + e * t), 1.0 - e + e * t**2,
                             3.0 * (1.0 - e + e * t**4)),
}
INNOVATION_KINDS = tuple(_MOMENTS)
STANDARDIZATIONS = ("abs_mean_one", "var_one")


@dataclass(frozen=True)
class ModelOrders:
    """Lag orders (p, q, r, s) of the ARMA(p,q)-GARCH(r,s) model."""

    p: int
    q: int
    r: int
    s: int

    def __post_init__(self):
        for name in ("p", "q", "r", "s"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 0:
                raise DomainError(f"order {name} must be a nonnegative integer, got {v!r}")

    @property
    def m(self):
        """Total parameter dimension p+q+r+s+2."""
        return self.p + self.q + self.r + self.s + 2

    @property
    def max_lag(self):
        return max(self.p, self.q, self.r, self.s, 1)

    def param_names(self):
        names = ["mu"]
        names += [f"phi{i}" for i in range(1, self.p + 1)]
        names += [f"psi{i}" for i in range(1, self.q + 1)]
        names += ["alpha0"]
        names += [f"alpha{i}" for i in range(1, self.r + 1)]
        names += [f"beta{i}" for i in range(1, self.s + 1)]
        return names


@dataclass(frozen=True)
class ParamVector:
    """Model parameters theta = (gamma', delta')'.

    gamma = (mu, phi_1..phi_p, psi_1..psi_q) drives the conditional mean,
    delta = (alpha0, alpha_1..alpha_r, beta_1..beta_s) the conditional
    variance. Constraints: alpha0 > 0, alpha_i >= 0, beta_j >= 0 and
    sum_j beta_j < 1.
    """

    orders: ModelOrders
    gamma: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=float))
        object.__setattr__(self, "delta", np.asarray(self.delta, dtype=float))
        o = self.orders
        if self.gamma.shape != (o.p + o.q + 1,):
            raise DomainError(
                f"gamma must have length p+q+1={o.p + o.q + 1}, got {self.gamma.shape}"
            )
        if self.delta.shape != (o.r + o.s + 1,):
            raise DomainError(
                f"delta must have length r+s+1={o.r + o.s + 1}, got {self.delta.shape}"
            )

    @classmethod
    def from_parts(cls, orders, mu=0.0, phi=(), psi=(), alpha0=1.0, alpha=(), beta=()):
        gamma = np.concatenate([[mu], np.asarray(phi, float), np.asarray(psi, float)])
        delta = np.concatenate([[alpha0], np.asarray(alpha, float), np.asarray(beta, float)])
        return cls(orders, gamma, delta)

    @classmethod
    def from_theta(cls, orders, theta):
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (orders.m,):
            raise DomainError(f"theta must have length m={orders.m}, got {theta.shape}")
        k = orders.p + orders.q + 1
        return cls(orders, theta[:k], theta[k:])

    @property
    def mu(self):
        return float(self.gamma[0])

    @property
    def phi(self):
        return self.gamma[1 : 1 + self.orders.p]

    @property
    def psi(self):
        return self.gamma[1 + self.orders.p :]

    @property
    def alpha0(self):
        return float(self.delta[0])

    @property
    def alpha(self):
        return self.delta[1 : 1 + self.orders.r]

    @property
    def beta(self):
        return self.delta[1 + self.orders.r :]

    @property
    def theta(self):
        return np.concatenate([self.gamma, self.delta])

    @property
    def m(self):
        return self.orders.m

    def validate(self):
        """Raise DomainError if the variance constraints are violated."""
        check_coefficients(self.orders, self.gamma, self.delta)
        return self

    def is_valid(self):
        try:
            self.validate()
        except DomainError:
            return False
        return True

    @property
    def h_presample(self):
        """Zero-innovation fixed point alpha0 / (1 - sum beta), used for t <= 0."""
        return self.alpha0 / (1.0 - self.beta.sum())


@dataclass(frozen=True)
class InnovationDist:
    """Innovation law plus the scaling applied before use.

    kind is one of INNOVATION_KINDS; a mixture draws N(0,1) with probability
    1-epsilon and N(0,tau^2) with probability epsilon, and epsilon and tau
    apply to it alone (DomainError if another kind is given values other
    than the defaults 0 and 1). standardization selects the identification
    convention: "abs_mean_one" rescales so E|eta| = 1, "var_one" so
    E eta^2 = 1. The rescaling constants and moments are closed form.
    """

    kind: str
    standardization: str = "abs_mean_one"
    epsilon: float = 0.0
    tau: float = 1.0

    def __post_init__(self):
        if self.kind not in INNOVATION_KINDS:
            raise DomainError(f"unknown innovation kind {self.kind!r}")
        if self.standardization not in STANDARDIZATIONS:
            raise DomainError(f"unknown standardization {self.standardization!r}")
        if self.kind == "mixture":
            if not 0.0 <= self.epsilon <= 1.0:
                raise DomainError("mixture weight epsilon must be in [0, 1]")
            if self.tau <= 0.0:
                raise DomainError("mixture scale tau must be > 0")
        elif (self.epsilon, self.tau) != (0.0, 1.0):
            raise DomainError(f"epsilon and tau apply to the mixture only, got epsilon={self.epsilon}, "
                              f"tau={self.tau} for {self.kind}")

    def _moments(self):
        return _MOMENTS[self.kind](self.epsilon, self.tau)

    def scale_factor(self):
        """Multiplier applied to raw draws to enforce the standardization."""
        abs_mean, second, _ = self._moments()
        return 1.0 / (abs_mean if self.standardization == "abs_mean_one" else np.sqrt(second))

    def eta2(self):
        """E eta^2 under the chosen standardization."""
        return self._moments()[1] * self.scale_factor() ** 2

    def eta4(self):
        """E eta^4 under the chosen standardization (inf for student_t3)."""
        return self._moments()[2] * self.scale_factor() ** 4

    def sample(self, rng, size):
        """Draw `size` standardized innovations from `rng`."""
        if self.kind == "laplace":
            raw = rng.laplace(0.0, 1.0, size)
        elif self.kind == "normal":
            raw = rng.standard_normal(size)
        elif self.kind == "student_t3":
            raw = rng.standard_t(3, size)
        else:
            raw = rng.standard_normal(size)
            wide = rng.random(size) < self.epsilon
            raw = np.where(wide, raw * self.tau, raw)
        return raw * self.scale_factor()


@dataclass(frozen=True)
class FilterOutput:
    """Residuals, volatilities and their first derivatives w.r.t. theta.

    eps and h have length n; deps and dh are n x m with columns ordered as
    (mu, phi_1.., psi_1.., alpha0, alpha_1.., beta_1..). Columns of deps for
    the delta block are identically zero.
    """

    eps: np.ndarray
    h: np.ndarray
    deps: np.ndarray
    dh: np.ndarray


def as_series(data):
    """The observed series y_1..y_n as a float ndarray; DomainError unless it
    is a nonempty 1-d vector of finite values."""
    y = np.asarray(data, dtype=float)
    if y.ndim != 1 or y.size < 1:
        raise DomainError("series must be a nonempty 1-d vector")
    if not np.isfinite(y).all():
        raise DomainError("series values must be finite")
    return y


def _shift(v, k, fill=0.0):
    """Lag a vector by k >= 1 places, padding the head with `fill`."""
    out = np.empty_like(v)
    out[:k] = fill
    out[k:] = v[:-k]
    return out


_sum = np.add.reduce  # ndarray.sum without its Python-level wrapper


def check_coefficients(orders, gamma, delta):
    """1 - sum(beta) if the constraints hold, else DomainError naming the first
    one broken; Python floats keep the checks cheap, the sum is numpy's."""
    d = delta.tolist()
    if not (all(map(math.isfinite, gamma.tolist())) and all(map(math.isfinite, d))):
        raise DomainError("parameters must be finite")
    if d[0] <= 0.0:
        raise DomainError(f"alpha0 must be > 0, got {d[0]}")
    if min(d[1:], default=0.0) < 0.0:
        which = "alpha" if min(d[1 : orders.r + 1], default=0.0) < 0.0 else "beta"
        raise DomainError(f"{which} coefficients must be >= 0")
    bsum = _sum(delta[orders.r + 1 :])
    if bsum >= 1.0:
        raise DomainError(f"sum of beta coefficients must be < 1, got {bsum}")
    return 1.0 - bsum


_ONE = np.ones(1)


class Workspace:
    """One fit's work arrays. Each n-length float array is made on the first
    use of its name and written over by every later one, so the evaluations
    of a fit allocate none (nor, on a long series, fault in their pages).
    residuals and volatility keep the lag polynomials of their recursions
    in it, ma = (1, psi..) and garch = (1, -beta..), and the adjoint's kappa
    and lambda passes run on them. The passes of this module and the
    criterion terms take one as ws and make their own when given none, so
    what they return then is the caller's; given one, they return arrays
    its next use writes over."""

    def __init__(self, n):
        self.n, self.ma, self.garch = n, None, None

    def __getattr__(self, name):
        if name.startswith("__"):
            raise AttributeError(name)
        array = self.__dict__[name] = np.empty(self.n)
        return array


def _poly(lag_coeffs):
    """a = (1, -lag_coeffs), the filter denominator of
    x_t = forcing_t + sum_j lag_coeffs[j] * x_{t-j}."""
    a = np.empty(lag_coeffs.size + 1)
    a[0] = 1.0
    np.negative(lag_coeffs, out=a[1:])
    return a


def _iir(forcing, lag_coeffs, presample_value, a=None):
    """Run x_t = forcing_t + sum_j lag_coeffs[j] * x_{t-j} with constant
    pre-sample outputs x_k = c for k <= 0, c = presample_value.

    The run is scipy's compiled direct-form filter, the kernel that
    lfilter([1], a, forcing[, zi]) calls after its argument checks, with
    a = _poly(lag_coeffs) unless given; the pre-sample sits in its state zi.
    That state is zi[m] = 0 - sum_{j>m} a_j c, built here from the same
    products and sums as scipy's lfiltic, so the output equals
    lfilter([1], a, forcing, zi=lfiltic([1], a, full(s, c)))[0] bit for bit
    without the calls' overhead. For c = 0 the filter starts from its own
    zero state. With no lags, forcing itself is returned.
    """
    s = lag_coeffs.size
    if s == 0:
        return forcing
    a = _poly(lag_coeffs) if a is None else a
    if presample_value == 0.0:
        return _linear_filter(_ONE, a, forcing, -1)
    prods = a[1:] * presample_value
    zi = 0.0 - prods  # right for the last entry, a sum of one product
    for m in range(s - 1):
        zi[m] = 0.0 - prods[m:].sum()
    return _linear_filter(_ONE, a, forcing, -1, zi)[0]


def _reversed_iir(forcing, lag_coeffs, a=None, out=None):
    """x_t = forcing_t + sum_j lag_coeffs[j] x_{t+j}, zero past the end,
    copied into out (a new array unless given): contiguous, it keeps later
    dot products and sums on BLAS."""
    if lag_coeffs.size == 0:
        return forcing
    out = np.empty(forcing.size) if out is None else out
    out[:] = _iir(forcing[::-1], lag_coeffs, 0.0, a)[::-1]
    return out


def residuals(orders, y, gamma, ws=None):
    """eps_t = y_t - mu - sum_i phi_i y_{t-i} - sum_j psi_j eps_{t-j}."""
    p, ws = orders.p, Workspace(y.size) if ws is None else ws
    u, tmp = np.subtract(y, gamma[0], out=ws.u), ws.tmp
    for i in range(1, p + 1):
        lagged = u[i:]
        lagged -= np.multiply(gamma[i], y[:-i], out=tmp[i:])
    if orders.q == 0:
        return u
    ma = -gamma[p + 1 :]
    ws.ma = _poly(ma)
    return _iir(u, ma, 0.0, ws.ma)


def volatility(orders, e2, delta, omb, ws=None):
    """h_t = alpha0 + sum_i alpha_i e2_{t-i} + sum_j beta_j h_{t-j}, with
    h_t = alpha0 / omb for t <= 0 (omb = 1 - sum beta); unchecked."""
    r, ws = orders.r, Workspace(e2.size) if ws is None else ws
    forcing, tmp = ws.forcing, ws.tmp
    forcing.fill(delta[0])
    for i in range(1, r + 1):
        lagged = forcing[i:]
        lagged += np.multiply(delta[i], e2[:-i], out=tmp[i:])
    ws.garch = _poly(delta[r + 1 :])
    return _iir(forcing, delta[r + 1 :], delta[0] / omb, ws.garch)


def adjoint(orders, y, eps, e2, h, gamma, delta, omb, ga, gb, ws=None):
    """ga @ deps + gb @ dh by the backward passes (zero past n)
    lambda_t = gb_t + sum_j beta_j lambda_{t+j} and
    kappa_t = ga_t + 2 eps_t sum_i alpha_i lambda_{t+i} - sum_j psi_j kappa_{t+j}:
    -sum kappa (mu), -sum kappa_t y_{t-i} (phi_i), -sum kappa_t eps_{t-j}
    (psi_j), sum lambda + P/omb (alpha0), sum lambda_t e2_{t-i} (alpha_i) and
    sum lambda_t h_{t-j} + h_0 sum_{t<=j} lambda_t + P alpha0/omb^2 (beta_j),
    with omb = 1 - sum beta, h_0 = alpha0/omb, P = sum_j beta_j sum_{t<=j}
    lambda_t. With ga None only the delta block, and no kappa pass. Given
    the workspace the forward passes ran in, the passes run on its lag
    polynomials; ga and gb are only read."""
    beta, h0 = delta[orders.r + 1 :], delta[0] / omb
    if ws is None:
        ws = Workspace(y.size)
        ws.ma, ws.garch = _poly(-gamma[orders.p + 1 :]), _poly(beta)
    lam = _reversed_iir(gb, beta, ws.garch, ws.lam)
    head = [_sum(lam[:j]) for j in range(1, orders.s + 1)]
    pre = float(beta @ head) if orders.s > 0 else 0.0
    k = 0 if ga is None else gamma.size
    grad = np.empty(k + delta.size)
    gamma_grad, delta_grad = grad[:k], grad[k:]
    delta_grad[0] = _sum(lam) + pre / omb
    for i in range(1, orders.r + 1):
        delta_grad[i] = lam[i:] @ e2[:-i]
    for j in range(1, orders.s + 1):
        delta_grad[orders.r + j] = lam[j:] @ h[:-j] + h0 * head[j - 1] + pre * delta[0] / omb**2
    if ga is None:
        return grad
    if orders.r > 0:
        ahead, tmp = ws.ahead, ws.tmp
        ahead.fill(0.0)
        for i in range(1, orders.r + 1):
            leading = ahead[:-i]
            leading += np.multiply(delta[i], lam[i:], out=tmp[:-i])
        # ga + 2 eps ahead, into ahead
        tmp = np.multiply(2.0, eps, out=tmp)
        tmp *= ahead
        ga = np.add(ga, tmp, out=ahead)
    kappa = _reversed_iir(ga, -gamma[orders.p + 1 :], ws.ma, ws.kappa) if orders.q else ga
    gamma_grad[0] = -_sum(kappa)
    for i in range(1, orders.p + 1):
        gamma_grad[i] = -(kappa[i:] @ y[:-i])
    for j in range(1, orders.q + 1):
        gamma_grad[orders.p + j] = -(kappa[j:] @ eps[:-j])
    return grad


def eps_gamma_derivs(orders, y, gamma, eps):
    """d eps_t / d gamma, the n x (p+q+1) gamma block of filter_series' deps,
    for eps the residuals at gamma. Each column runs the MA recursion that
    eps itself runs, forced by -1 (mu), -y_{t-i} (phi_i) or -eps_{t-j} (psi_j).
    """
    forcings = [np.full(y.size, -1.0)]
    forcings += [-_shift(y, i) for i in range(1, orders.p + 1)]
    forcings += [-_shift(eps, j) for j in range(1, orders.q + 1)]
    return np.column_stack([_iir(f, -gamma[orders.p + 1 :], 0.0) for f in forcings])


def _eps_h(theta, y):
    """Residual and volatility recursions at theta, unchecked."""
    eps = residuals(theta.orders, y, theta.gamma)
    return eps, volatility(theta.orders, eps * eps, theta.delta, 1.0 - theta.beta.sum())


def checked_eps_h(theta, data):
    """Validate theta and run the residual and volatility recursions.

    Returns (y, eps, h); raises DomainError for invalid parameters or data
    and NumericOverflowError naming the first index that leaves the finite
    range (|h| above H_OVERFLOW_LIMIT counts as overflow).
    """
    theta.validate()
    y = as_series(data)
    with np.errstate(over="ignore", invalid="ignore"):
        eps, h = _eps_h(theta, y)
    _check_finite(eps, "eps")
    _check_finite(h, "h", limit=H_OVERFLOW_LIMIT)
    return y, eps, h


def filter_series(theta, data):
    """Residuals eps_t, volatilities h_t and their derivatives d eps_t/d theta
    and d h_t/d theta (FilterOutput) of the series data at the ParamVector
    theta. Pre-sample y and eps are zeros; pre-sample h is the fixed point
    alpha0/(1 - sum beta), and the derivative recursions start from the exact
    derivatives of that fixed point, so they agree with finite differences of
    this function at every t. Raises DomainError if theta violates the
    constraints and NumericOverflowError, naming the first offending time
    index, if a recursion leaves the finite range.
    """
    y, eps, h = checked_eps_h(theta, data)
    o, n = theta.orders, y.size
    k, beta = o.p + o.q + 1, theta.beta
    omb = 1.0 - beta.sum()
    deps, dh = np.zeros((n, o.m)), np.zeros((n, o.m))
    deps[:, :k] = eps_gamma_derivs(o, y, theta.gamma, eps)
    # the gamma block feeds h through ARCH: f_t = sum_i 2 alpha_i eps_{t-i} deps_{t-i}
    for j in range(k if o.r > 0 else 0):
        cross, f = eps * deps[:, j], np.zeros(n)
        for i in range(1, o.r + 1):
            f[i:] += 2.0 * theta.alpha[i - 1] * cross[:-i]
        dh[:, j] = _iir(f, beta, 0.0)
    # the delta block is forced by 1 (alpha0), e2_{t-i} (alpha_i) and h_{t-j} (beta_j)
    forcings = [np.ones(n)] + [_shift(eps * eps, i) for i in range(1, o.r + 1)]
    forcings += [_shift(h, j, fill=theta.alpha0 / omb) for j in range(1, o.s + 1)]
    presample = [1.0 / omb] + [0.0] * o.r + [theta.alpha0 / omb**2] * o.s
    for col, (f, c) in enumerate(zip(forcings, presample), k):
        dh[:, col] = _iir(f, beta, c)
    return FilterOutput(eps=eps, h=h, deps=deps, dh=dh)


def filter_vjp(theta, y, eps, h, ga, gb):
    """ga @ deps + gb @ dh of filter_series(theta, y) (eps, h its outputs),
    by one backward pass per recursion instead of the n x m Jacobian."""
    omb = 1.0 - theta.beta.sum()
    return adjoint(theta.orders, y, eps, eps * eps, h, theta.gamma, theta.delta, omb, ga, gb)


def _check_finite(v, name, limit=np.finfo(float).max):
    bad = ~(np.abs(v) <= limit)  # NaN fails the comparison
    if bad.any():
        t = int(np.argmax(bad)) + 1
        raise NumericOverflowError(f"{name} recursion overflowed at t={t}", t=t)


def simulate_with_innovations(theta, dist, n, burn_in=BURN_IN, seed=0):
    """Simulate a path and return (y, eta) for the retained segment."""
    theta.validate()
    if n < 1:
        raise DomainError("n must be >= 1")
    if burn_in < 0:
        raise DomainError("burn_in must be >= 0")
    rng = np.random.default_rng(seed)
    eta = dist.sample(rng, burn_in + n)

    # Python floats: the same IEEE arithmetic in the same order as numpy
    # scalars (x ** 2 is libm pow for both), without their per-operation
    # overhead. The lists grow by one entry a step, so lag i is index -i;
    # e2 holds the squared residuals
    lag = theta.orders.max_lag
    y, e, e2, h = [0.0] * lag, [0.0] * lag, [0.0] * lag, [float(theta.h_presample)] * lag
    arch, garch, ar, ma = (
        [(c, -i) for i, c in enumerate(v.tolist(), 1)]
        for v in (theta.alpha, theta.beta, theta.phi, theta.psi)
    )
    mu, a0 = theta.mu, theta.alpha0
    y_add, e_add, e2_add, h_add = y.append, e.append, e2.append, h.append
    sqrt, isfinite, limit = math.sqrt, math.isfinite, H_OVERFLOW_LIMIT
    for eta_t in eta.tolist():
        ht = a0
        for c, i in arch:
            ht += c * e2[i]
        for c, j in garch:
            ht += c * h[j]
        if not isfinite(ht) or ht > limit:
            t = len(h) - lag + 1
            raise NumericOverflowError(f"simulated volatility overflowed at t={t}", t=t)
        h_add(ht)
        et = eta_t * sqrt(ht)
        yt = mu + et
        for c, i in ar:
            yt += c * y[i]
        for c, j in ma:
            yt += c * e[j]
        e_add(et)
        y_add(yt)
        try:
            e2_add(et**2)
        except OverflowError:  # numpy scalars overflow to inf, Python floats raise
            e2_add(math.inf)

    return np.array(y[lag + burn_in :]), eta[burn_in:].copy()


def simulate(theta, dist, n, burn_in=BURN_IN, seed=0):
    """Simulate n observations from the model (after a burn-in), as a
    float ndarray.

    Identical arguments, including the seed, reproduce the identical series.
    """
    return simulate_with_innovations(theta, dist, n, burn_in=burn_in, seed=seed)[0]


def log_return_transform(prices):
    """Convert a positive price series to 100x log returns.

    Returns an array of length len(prices)-1 with
    y_t = 100 * (log p_t - log p_{t-1}).
    """
    prices = np.asarray(prices, dtype=float)
    if prices.ndim != 1 or prices.size < 2:
        raise DomainError("need at least two prices")
    if not np.all(np.isfinite(prices)) or np.any(prices <= 0.0):
        raise DomainError("prices must be finite and strictly positive")
    return 100.0 * np.diff(np.log(prices))
