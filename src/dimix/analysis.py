"""Weighted geometry and the convergence-rate certificate.

The analysis measures everything in the r-weighted norm
``||A||_r^2 = sum_i r_i ||A_i||^2`` (rows A_i), under which distance to the
optimum splits exactly into a consensus part and a mean part:

    ||X - 1 x*'||_r^2 = ||X - 1 xbar'||_r^2 + ||xbar - x*||^2,  xbar = X' r.

``TheoryConstants`` assembles the explicit constants of the convergence
guarantee for a given schedule, step sizes, and noise level, and
``theorem_bound`` evaluates the resulting bound on E||X(T) - 1 x*'||_r^2.
Two step-size regimes exist: mu + nu < 1 (an extra exponential burn-in term)
and mu + nu = 1 (a side condition on alpha0*beta0 instead).  All constants
are computed in closed form; the only measured inputs are the gradient bound
K, the noise level gamma, and the mean squared error q0 at the threshold
iteration T0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# weighted geometry


def weighted_mean(X: np.ndarray, r: np.ndarray) -> np.ndarray:
    """xbar = X' r, the r-weighted average of the agent states (rows of the
    float array X); a batch (R, n, d) gives one mean per item, (R, d)."""
    return r @ X


def r_norm_sq(A: np.ndarray, r: np.ndarray):
    """||A||_r^2 = sum_i r_i ||A_i||^2 over the rows A_i of the float array
    A (n, d), rows along the last axis.  A batch (R, n, d) gives R values,
    each computed from its own item alone; the float weights r are one (n,)
    vector or one per item, (R, n)."""
    sq = (A * A).sum(-1)
    if sq.shape[-1:] != r.shape[-1:]:
        raise ValueError("row count must match the weight vector")
    return (sq * r).sum(-1)


def deviation_sq(X: np.ndarray, r: np.ndarray):
    """Consensus error ||X - 1 xbar'||_r^2 of float states X at their r-weighted mean."""
    return r_norm_sq(X - weighted_mean(X, r)[..., None, :], r)


def dist_opt_sq(X: np.ndarray, r: np.ndarray, x_star: np.ndarray):
    """Squared r-weighted distance of all agents to a common float point x*."""
    return r_norm_sq(X - x_star, r)


# ---------------------------------------------------------------------------
# step sizes


@dataclass(frozen=True)
class StepSchedule:
    """Polynomially decaying steps alpha(t) = alpha0 / t^nu (gradient) and
    beta(t) = beta0 / t^mu (mixing), t >= 1."""

    alpha0: float
    nu: float
    beta0: float
    mu: float

    def __post_init__(self) -> None:
        if not (self.alpha0 > 0.0 and np.isfinite(self.alpha0)):
            raise ValueError("alpha0 must be positive and finite")
        if not 0.0 < self.beta0 <= 1.0:
            raise ValueError("beta0 must lie in (0, 1]")
        if not 0.0 < self.nu < 1.0:
            raise ValueError("nu must lie in (0, 1)")
        if not 0.0 < self.mu < 1.0:
            raise ValueError("mu must lie in (0, 1)")

    def alpha(self, t):
        return self.alpha0 / np.asarray(t, dtype=float) ** self.nu

    def beta(self, t):
        return self.beta0 / np.asarray(t, dtype=float) ** self.mu


# ---------------------------------------------------------------------------
# schedule-level constants


def contraction_factor(eta, r_min, B: int, n: int):
    """Per-window information-mixing rate lambda = eta * r_min / (2 B n^2).
    eta and r_min may be arrays: one lambda per entry, each the scalar's bits."""
    if not np.all((0.0 < eta) & (eta <= 1.0)):
        raise ValueError("entry floor eta must lie in (0, 1]")
    if not np.all((0.0 < r_min) & (r_min <= 1.0)):
        raise ValueError("r_min must lie in (0, 1]")
    if B < 1 or n < 1:
        raise ValueError("B and n must be >= 1")
    return eta * r_min / (2.0 * B * n * n)


def kappa_factor(lam, beta0, B: int):
    """kappa = 1 / (1 - B lambda beta0); requires B lambda beta0 < 1.  lam
    and beta0 may be arrays, as in ``contraction_factor``; the error names
    the first entry out of range."""
    x = B * lam * beta0
    outside = np.asarray(x)[np.logical_not((0.0 < x) & (x < 1.0))]
    if outside.size:
        raise ValueError(f"B*lambda*beta0 = {outside[0]:.3g} must lie in (0, 1)")
    return 1.0 / (1.0 - x)


# ---------------------------------------------------------------------------
# the A(a, sigma, delta) envelope constant


def A_constant(a: float, sigma: float, delta: float) -> float:
    """Envelope constant for weighted sums sum_{s<t} s^-sigma prod (1 - a/k^delta).

    For 0 <= delta < 1 the sum is bounded by A * t^-(sigma-delta) once t is
    past the burn-in, with branches by sigma; requires 0 < a <= 1 and
    sigma > delta.  For delta == 1 the bound is A * t^-min(sigma-1, a),
    defined for a > 0 and sigma > 1 except on the line a == sigma - 1 where
    this form degenerates.
    """
    if not (math.isfinite(a) and math.isfinite(sigma) and math.isfinite(delta)):
        raise ValueError("arguments must be finite")
    if delta == 1.0:
        if a <= 0.0:
            raise ValueError("a must be positive")
        if sigma <= 1.0:
            raise ValueError("delta == 1 needs sigma > 1 for a decaying bound")
        if abs(a - sigma + 1.0) < 1e-12:
            raise ValueError("degenerate case a == sigma - 1 has no constant of this form")
        return 2.0**sigma * (1.0 + 1.0 / abs(a - sigma + 1.0))
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must lie in [0, 1]")
    if not 0.0 < a <= 1.0:
        raise ValueError("a must lie in (0, 1] when delta < 1")
    if sigma <= delta:
        raise ValueError("need sigma > delta for a decaying bound")
    base = 1.0 + 2.0 / a
    if sigma > 1.0:
        alt = 1.0 + (1.0 / (sigma - 1.0)) * (2.0 * (sigma - delta) / a) ** ((sigma - delta) / (1.0 - delta))
    elif sigma == 1.0:
        alt = 1.0 + (2.0 / a) * math.log(2.0 * (1.0 - delta) / a)
    else:
        alt = 1.0 + 2.0 * (sigma - delta) / (a * (1.0 - sigma))
    return 2.0**sigma * max(base, alt)


# ---------------------------------------------------------------------------
# thresholds and explicit constants


@dataclass(frozen=True)
class Thresholds:
    """Iteration counts past which each piece of the guarantee is active.
    T4 only exists in the mu + nu < 1 regime."""

    T1: int
    T2: int
    T3: int
    T4: int | None

    @property
    def T0(self) -> int:
        return max(self.T1, self.T2, self.T3)

    @property
    def T_min(self) -> int:
        """Smallest T the final bound covers."""
        return self.T0 if self.T4 is None else max(self.T0, self.T4)


def _ceil_pow(name: str, base: float, exponent: float) -> int:
    try:
        return max(1, math.ceil(base**exponent))
    except OverflowError:
        raise ValueError(
            f"burn-in threshold {name} = {base:.4g}^{exponent:.4g}, about "
            f"10^{exponent * math.log10(base):.1f} iterations, is beyond the float range"
        ) from None


def thresholds(steps: StepSchedule, lam: float, mu_f: float, L_f: float) -> Thresholds:
    """Burn-in iteration counts for the guarantee's ingredients."""
    mu, nu = steps.mu, steps.nu
    if nu >= mu:
        raise ValueError(
            "the guarantee needs nu < mu (the gradient step must decay "
            "strictly faster than the mixing step)"
        )
    if mu + nu > 1.0:
        raise ValueError("the guarantee covers mu + nu <= 1 only")
    if not (L_f > 0.0 and mu_f > 0.0 and mu_f <= L_f):
        raise ValueError("need 0 < mu_f <= L_f")
    T1 = _ceil_pow("T1", 2.0 * mu / (lam * steps.beta0), 1.0 / (1.0 - mu))
    T2 = _ceil_pow("T2", 8.0 * nu / (lam * steps.beta0), 1.0 / (1.0 - mu))
    T3 = _ceil_pow("T3", steps.alpha0 * steps.beta0 * (mu_f + L_f) / 2.0, 1.0 / (mu + nu))
    if mu + nu < 1.0:
        c2 = mu_f * L_f / (mu_f + L_f)
        T4 = _ceil_pow(
            "T4",
            2.0 * min(mu - nu, 2.0 * nu) / (c2 * steps.alpha0 * steps.beta0),
            1.0 / (1.0 - mu - nu),
        )
    else:
        T4 = None
    return Thresholds(T1=T1, T2=T2, T3=T3, T4=T4)


@dataclass(frozen=True)
class TheoryConstants:
    """Everything the final bound needs, fully evaluated.

    ``q0`` is E||xbar(T0) - x*||^2, estimated by Monte Carlo at the burn-in
    iteration T0.  ``side_condition_ok`` records whether the mu + nu == 1
    regime's requirement alpha0*beta0 >= ``side_threshold`` = min(mu - nu,
    2 nu)/c2 holds (the threshold is None in the other regime); the
    constants are still reported when it fails, but the bound is then not
    certified.
    """

    steps: StepSchedule
    c1: float
    c2: float
    q0: float
    thresholds: Thresholds
    eps1: float
    eps2: float
    eps3: float
    eps4: float
    eps5: float
    xi1: float
    xi2: float | None
    xi3: float | None
    xi4: float
    xi5: float | None
    regime: int
    side_condition_ok: bool
    side_threshold: float | None


def xi_constants(
    steps: StepSchedule,
    th: Thresholds,
    lam: float,
    kappa: float,
    mu_f: float,
    L_f: float,
    gamma: float,
    K: float,
    q0: float,
) -> TheoryConstants:
    """Evaluate the explicit constants of the rate guarantee.

    ``th`` is ``thresholds(steps, lam, mu_f, L_f)``, computed by the caller,
    which also checks the step-size regime; it is taken as given.  lam and
    kappa are the schedule's ``contraction_factor`` and ``kappa_factor``.
    gamma bounds the per-iteration sharing-noise second moment, K the squared
    local gradients along the trajectory, q0 the mean squared error at T0.
    """
    if not all(math.isfinite(v) and v >= 0.0 for v in (gamma, K, q0)):
        raise ValueError(f"gamma, K, q0 must be finite and nonnegative, got {gamma}, {K}, {q0}")
    a0, b0, mu, nu = steps.alpha0, steps.beta0, steps.mu, steps.nu
    c1 = 1.0 / (mu_f + L_f)
    c2 = mu_f * L_f / (mu_f + L_f)
    if mu + nu < 1.0 and c2 * a0 * b0 > 1.0:  # eps5 and xi4 need A(c2 alpha0 beta0, ...)
        raise ValueError(f"c2*alpha0*beta0 must be <= 1 if mu + nu < 1: alpha0*beta0 = {a0 * b0:.4g}, c2 = {c2:.4g}")
    T0 = th.T0

    A_noise = A_constant(lam * b0, 2.0 * mu, mu)
    A_grad = A_constant(lam * b0 / 2.0, 2.0 * nu + mu, mu)
    eps1 = gamma * kappa * b0**2 * A_noise
    eps2 = K * a0**2 * b0 * math.sqrt(kappa) * A_grad
    eps3 = 2.0 * eps1 + 4.0 * math.sqrt(kappa) * eps2 / lam
    eps4 = a0 * b0 * (1.0 + 1.0 / c2) * L_f * eps3 + gamma * b0**2
    eps5 = A_constant(c2 * a0 * b0, min(2.0 * mu, 3.0 * nu + mu), nu + mu)

    xi1 = 4.0 * gamma * kappa * b0**2 * A_noise + (8.0 * K * kappa * a0**2 * b0 / lam) * A_grad
    xi4 = (
        a0 * b0 * (mu_f * L_f + mu_f + L_f) * xi1 / mu_f + 2.0 * gamma * b0**2
    ) * A_constant(a0 * b0 * mu_f * L_f / (mu_f + L_f), min(2.0 * mu, 3.0 * nu + mu), mu + nu)

    if mu + nu < 1.0:
        regime = 1
        xi3 = a0 * b0 * mu_f * L_f / ((1.0 - mu - nu) * (mu_f + L_f))
        try:
            xi2 = 2.0 * math.exp(xi3 * T0 ** (1.0 - mu - nu)) * q0
        except OverflowError:  # reported only: theorem_bound never forms xi2
            xi2 = math.inf if q0 else 0.0
        xi5 = side_threshold = None
        side_ok = True
    else:
        regime = 2
        xi2 = xi3 = None
        try:
            xi5 = 2.0 * T0 ** (c2 * a0 * b0) * q0 + xi4
        except OverflowError:
            raise ValueError(
                f"xi5's factor T0^(c2*alpha0*beta0) = {T0:.4g}^{c2 * a0 * b0:.4g}, about "
                f"10^{c2 * a0 * b0 * math.log10(T0):.1f}, is beyond the float range"
            ) from None
        side_threshold = min(mu - nu, 2.0 * nu) / c2
        side_ok = a0 * b0 >= side_threshold

    return TheoryConstants(
        steps=steps,
        c1=c1,
        c2=c2,
        q0=q0,
        thresholds=th,
        eps1=eps1,
        eps2=eps2,
        eps3=eps3,
        eps4=eps4,
        eps5=eps5,
        xi1=xi1,
        xi2=xi2,
        xi3=xi3,
        xi4=xi4,
        xi5=xi5,
        regime=regime,
        side_condition_ok=side_ok,
        side_threshold=side_threshold,
    )


def _bound_terms(constants: TheoryConstants, T):
    """(T as floats >= 1, e1, e2, tail, burn) of the bound
    xi1 T^-e1 + 2 q0 exp(burn) + tail T^-e2.  For mu + nu < 1, tail = xi4 and
    burn = xi3 (T0^p - T^p), p = 1 - mu - nu: xi2 exp(-xi3 T^p) in a form that
    is at most 2 q0 past T0, where xi2 alone can overflow.  For mu + nu == 1,
    tail = xi5 and burn is None (no burn-in term)."""
    mu, nu = constants.steps.mu, constants.steps.nu
    T = np.asarray(T, dtype=float)
    if np.any(T < 1):
        raise ValueError("iterations are numbered from 1")
    if constants.regime == 1:
        p = 1.0 - mu - nu
        tail, burn = constants.xi4, constants.xi3 * (constants.thresholds.T0**p - T**p)
    else:
        tail, burn = constants.xi5, None
    return T, min(mu, 2.0 * nu), min(mu - nu, 2.0 * nu), tail, burn


def theorem_bound(constants: TheoryConstants, T):
    """Upper bound on E||X(T) - 1 x*'||_r^2, evaluated for every T.

    Vectorizes over T.  Where it is certified is ``dimix.cli.certificate``'s
    verdict (``Certificate.not_covered``), not checked here.
    """
    T_arr, e1, e2, tail, burn = _bound_terms(constants, np.atleast_1d(np.asarray(T, dtype=float)))
    # Below burn-in the exp can overflow, so q0 = 0 must give 0 outright,
    # not 0 * inf.
    burn_in = 0.0
    if burn is not None and constants.q0:
        with np.errstate(over="ignore"):
            burn_in = 2.0 * constants.q0 * np.exp(burn)
    out = constants.xi1 * T_arr**-e1 + burn_in + tail * T_arr**-e2
    return float(out[0]) if np.ndim(T) == 0 else out


def theorem_log10_bound(constants: TheoryConstants, T):
    """log10 of ``theorem_bound(constants, T)``, summed in log
    space: finite below burn-in too, where 2 q0 exp(xi3 (T0^p - T^p)) is not."""
    T, e1, e2, tail, burn = _bound_terms(constants, T)
    with np.errstate(divide="ignore"):  # a zero term has log -inf
        out = np.logaddexp(np.log(constants.xi1) - e1 * np.log(T), np.log(tail) - e2 * np.log(T))
        if burn is not None:
            out = np.logaddexp(out, np.log(2.0 * constants.q0) + burn)
    return out / np.log(10.0)


# ---------------------------------------------------------------------------
# empirical rate fitting


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log(value) against log(t)."""

    slope: float
    intercept: float
    stderr: float
    points: int


def fit_rate(ts, values) -> RateFit:
    """Fit value ~ C * t^slope by ordinary least squares in log-log space.

    ``stderr`` is the standard error of the slope (0.0 for a two-point fit,
    where the residual has no degrees of freedom).
    """
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    if ts.shape != values.shape or ts.ndim != 1 or ts.size < 2:
        raise ValueError("need two or more (t, value) pairs")
    if np.any(ts <= 0.0) or np.any(values <= 0.0):
        raise ValueError("log-log fit needs positive data")
    x = np.log(ts)
    y = np.log(values)
    sxx = float(np.sum((x - x.mean()) ** 2))
    if sxx == 0.0:
        raise ValueError("all sample times are equal")
    slope = float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    m = ts.size
    if m == 2:
        stderr = 0.0
    else:
        rss = float(np.sum((y - intercept - slope * x) ** 2))
        stderr = math.sqrt(rss / (m - 2) / sxx)
    return RateFit(slope=slope, intercept=intercept, stderr=stderr, points=m)
