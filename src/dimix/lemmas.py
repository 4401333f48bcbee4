"""Numeric stress tests for the inequalities behind the rate certificate.

Every bound the convergence analysis chains together is checked here on
randomized instances: mixing-product contraction in the weighted norm, the
weighted operator bound, the split inequality, decaying-step product and sum
envelopes, the exact step-sum telescope, and the curvature split for
quadratics.  Each check is one instance generator behind ``Check``, which
draws at least a thousand instances from a seeded stream (plus a few pinned
corner cases), compares both sides exactly as stated, and reports the worst
slack seen.  A violation beyond floating-point tolerance means the
implementation and the certificate disagree, so the command-line entry point
turns any violation into a nonzero exit.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import partial
from itertools import islice

import numpy as np

from .analysis import A_constant, StepSchedule, contraction_factor, kappa_factor, r_norm_sq
from .rng import philox
from .topology import MixingSchedule, fixed_cycle_schedule, gossip_schedule


@dataclass
class CheckReport:
    """Outcome of one inequality check over many random instances.

    ``min_slack`` is the smallest tolerance-adjusted margin seen:
    (bound - value + tol) for inequalities, (tol - |mismatch|) for the exact
    telescope identity.  A negative ``min_slack`` is a violation.
    """

    name: str
    instances: int
    violations: int
    min_slack: float
    tol: float
    worst: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def line(self) -> str:
        state = "ok  " if self.passed else "FAIL"
        return (
            f"{state} {self.name}: {self.instances} instances, "
            f"{self.violations} violations, min slack {self.min_slack:.3e}"
        )


Instance = tuple[float, float, float, dict]


@dataclass(frozen=True)
class Check:
    """One inequality value <= bound.  ``instances(rng)`` yields an endless
    stream of (value, bound, scale, params) drawn from ``rng`` (a rejected
    draw yields nothing); an instance passes when its slack
    bound - value + tol * max(1, scale) is nonnegative.  Calling the check
    runs the first ``instances`` of them off Philox stream ``stream`` of
    ``seed``."""

    name: str
    stream: int
    tol: float
    instances: Callable[[np.random.Generator], Iterator[Instance]]

    def __call__(self, seed: int = 0, instances: int = 1000) -> CheckReport:
        report = CheckReport(self.name, 0, 0, math.inf, self.tol)
        drawn = self.instances(philox(seed, self.stream))
        for value, bound, scale, params in islice(drawn, instances):
            slack = bound - value + self.tol * max(1.0, scale)
            report.instances += 1
            if slack < report.min_slack:
                report.min_slack, report.worst = slack, params
            if slack < 0.0:
                report.violations += 1
        return report


def _random_schedule(rng: np.random.Generator) -> MixingSchedule:
    n = int(rng.integers(3, 9))
    p = 0.05 + rng.random(n)
    r = p / p.sum()
    if rng.random() < 0.5:
        return fixed_cycle_schedule(r)
    return gossip_schedule(r)


@partial(Check, "mixing product contraction", 71, 1e-9)
def check_mixing_contraction(rng: np.random.Generator) -> Iterator[Instance]:
    """Products of the per-iteration mixing maps forget the initial spread
    geometrically: with A(k) = (1 - beta(k)) I + beta(k) W(k),

        ||(A(t-1)...A(s+1) - 1 r') U||_r^2
            <= kappa * prod_{k=s+1}^{t-1} (1 - lambda beta(k)) * ||U||_r^2.
    """
    while True:
        sched = _random_schedule(rng)
        n = sched.n
        r = sched.r
        steps = StepSchedule(
            alpha0=1.0,
            nu=0.25,
            beta0=float(0.1 + 0.9 * rng.random()),
            mu=float(0.55 + 0.4 * rng.random()),
        )
        lam = contraction_factor(sched.eta, float(r.min()), sched.B, n)
        kap = kappa_factor(lam, steps.beta0, sched.B)
        s = int(rng.integers(1, 40))
        t = s + 1 + int(rng.integers(0, 3 * sched.B + 1))
        P = np.eye(n)
        for k in range(s + 1, t):
            beta_k = float(steps.beta(k))
            A = (1.0 - beta_k) * np.eye(n) + beta_k * sched.matrix_at(k)
            P = A @ P
        d = int(rng.integers(1, 5))
        U = rng.normal(size=(n, d))
        lhs = r_norm_sq((P - np.outer(np.ones(n), r)) @ U, r)
        ks = np.arange(s + 1, t, dtype=float)
        decay = float(np.prod(1.0 - lam * steps.beta0 / ks**steps.mu)) if ks.size else 1.0
        rhs = kap * decay * r_norm_sq(U, r)
        params = {"kind": sched.kind, "n": n, "s": s, "t": t, "beta0": steps.beta0, "mu": steps.mu}
        yield lhs, rhs, rhs, params


@partial(Check, "weighted operator bound", 72, 1e-9)
def check_weighted_operator_bound(rng: np.random.Generator) -> Iterator[Instance]:
    """||A B||_r <= ||A||_r ||B||_F for conformable matrices and weights r."""
    while True:
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 8))
        d = int(rng.integers(1, 8))
        p = 0.05 + rng.random(n)
        r = p / p.sum()
        A = rng.normal(size=(n, m)) * 10.0 ** rng.integers(-2, 3)
        B = rng.normal(size=(m, d)) * 10.0 ** rng.integers(-2, 3)
        lhs = math.sqrt(r_norm_sq(A @ B, r))
        rhs = math.sqrt(r_norm_sq(A, r)) * float(np.linalg.norm(B))
        yield lhs, rhs, rhs, {"n": n, "m": m, "d": d}


@partial(Check, "young split", 73, 1e-9)
def check_young_split(rng: np.random.Generator) -> Iterator[Instance]:
    """||u + v||^2 <= (1 + theta)||u||^2 + (1 + 1/theta)||v||^2, theta > 0,
    in both the vector and the weighted-matrix norm."""
    while True:
        theta = float(10.0 ** rng.uniform(-3, 3))
        if rng.random() < 0.5:
            d = int(rng.integers(1, 10))
            u = rng.normal(size=d) * 10.0 ** rng.integers(-2, 3)
            v = rng.normal(size=d) * 10.0 ** rng.integers(-2, 3)
            lhs = float(u @ u + 2 * u @ v + v @ v)
            rhs = (1 + theta) * float(u @ u) + (1 + 1 / theta) * float(v @ v)
            params = {"form": "vector", "d": d, "theta": theta}
        else:
            n = int(rng.integers(1, 6))
            d = int(rng.integers(1, 6))
            p = 0.05 + rng.random(n)
            r = p / p.sum()
            U = rng.normal(size=(n, d))
            V = rng.normal(size=(n, d))
            lhs = r_norm_sq(U + V, r)
            rhs = (1 + theta) * r_norm_sq(U, r) + (1 + 1 / theta) * r_norm_sq(V, r)
            params = {"form": "matrix", "n": n, "d": d, "theta": theta}
        yield lhs, rhs, abs(rhs), params


@partial(Check, "step product envelope", 74, 1e-9)
def check_step_product_envelope(rng: np.random.Generator) -> Iterator[Instance]:
    """prod_{k=s}^{t-1} (1 - a/k^delta) is killed at the integrated rate:
    bounded by exp(-a (t^(1-delta) - s^(1-delta)) / (1-delta)) for delta < 1
    and by (t/s)^-a for delta == 1."""
    while True:
        a = float(rng.uniform(1e-3, 0.999))
        delta = 1.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 0.999))
        s = int(rng.integers(1, 50))
        t = s + 1 + int(rng.integers(0, 2000))
        ks = np.arange(s, t, dtype=float)
        lhs = float(np.prod(1.0 - a / ks**delta))
        if delta == 1.0:
            rhs = (t / s) ** (-a)
        else:
            rhs = math.exp(-a / (1.0 - delta) * (t ** (1.0 - delta) - s ** (1.0 - delta)))
        yield lhs, rhs, rhs, {"a": a, "delta": delta, "s": s, "t": t}


@partial(Check, "step sum telescope", 75, 1e-10)
def check_step_sum_telescope(rng: np.random.Generator) -> Iterator[Instance]:
    """The weighted sum of survival products telescopes exactly:

        sum_{s=1}^{t-1} beta(s) prod_{k=s+1}^{t-1} (1 - lam beta(k))
            = (1/lam) (1 - prod_{k=1}^{t-1} (1 - lam beta(k)))

    for any real sequence beta and lam != 0, to 1e-10 * max(1, 1/|lam|).
    """
    while True:
        t = int(rng.integers(2, 200))
        if rng.random() < 0.5:
            # Canonical decaying steps; lam > 0 keeps all survival factors
            # inside (-1, 1) so the float error stays far below tolerance.
            lam = float(10.0 ** rng.uniform(-2, 1))
            beta0 = float(rng.uniform(0.05, 1.0))
            if lam * beta0 >= 2.0:
                lam = 1.0 / beta0
            mu = float(rng.uniform(0.1, 0.95))
            beta = beta0 / np.arange(1, t, dtype=float) ** mu
        else:
            # Arbitrary real steps of either sign, scaled so lam * beta(k)
            # lands in [0, 2] and the factors stay bounded by 1.
            lam = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2, 1))
            beta = rng.uniform(0.0, 2.0, size=t - 1) / lam
        factors = 1.0 - lam * beta
        suffix = np.ones(t - 1)
        if t > 2:
            suffix[:-1] = np.cumprod(factors[::-1])[:-1][::-1]
        lhs = float(np.sum(beta * suffix))
        rhs = (1.0 - float(np.prod(factors))) / lam
        yield abs(lhs - rhs), 0.0, 1.0 / abs(lam), {"t": t, "lam": lam}


def _decaying_sum(a: float, sigma: float, delta: float, t: int) -> float:
    """sum_{s=1}^{t-1} s^-sigma prod_{k=s+1}^{t-1} (1 - a/k^delta), exactly."""
    s = np.arange(1, t, dtype=float)
    # factors[j] is the survival factor at k = j + 2; the term at s needs the
    # product over k = s+1 .. t-1, which is the suffix product from j = s - 1.
    factors = 1.0 - a / np.arange(2, t, dtype=float) ** delta
    suffix = np.ones(t - 1)
    if t > 2:
        suffix[:-1] = np.cumprod(factors[::-1])[::-1]
    return float(np.sum(s**-sigma * suffix))


@partial(Check, "decaying sum envelope", 76, 1e-9)
def check_decaying_sum_envelope(rng: np.random.Generator) -> Iterator[Instance]:
    """The decaying-weight sum obeys the closed-form envelope constant:

        sum_{s=1}^{t-1} s^-sigma prod_{k=s+1}^{t-1} (1 - a/k^delta)
            <= A(a, sigma, delta) * t^-(sigma - delta)

    past the burn-in t > (2(sigma-delta)/a)^(1/(1-delta)); for delta == 1
    the decay exponent is min(sigma - 1, a) instead.
    """

    def one(a: float, sigma: float, delta: float, t: int) -> Instance:
        lhs = _decaying_sum(a, sigma, delta, t)
        if delta == 1.0:
            rhs = A_constant(a, sigma, delta) * t ** -min(sigma - 1.0, a)
        else:
            rhs = A_constant(a, sigma, delta) * t ** -(sigma - delta)
        return lhs, rhs, rhs, {"a": a, "sigma": sigma, "delta": delta, "t": t}

    # The branch boundary sigma == 1 and the delta == 1 family with a past 1.
    for t in (4, 7, 20, 200):
        yield one(2.0, 1.5, 1.0, t)
    for t in (40, 200, 1000):
        yield one(0.5, 1.0, 0.0, t)

    while True:
        branch = rng.random()
        if branch < 0.25:
            a = float(rng.uniform(0.1, 1.0))
            sigma = 1.0
            delta = float(rng.uniform(0.0, 0.45))
        elif branch < 0.45:
            a = float(rng.uniform(0.1, 1.0)) if rng.random() < 0.7 else 2.0
            sigma = float(rng.uniform(1.05, 3.0))
            delta = 1.0
            if abs(a - sigma + 1.0) < 1e-6:
                continue
        else:
            delta = float(rng.uniform(0.0, 0.9))
            sigma = delta + float(rng.uniform(0.05, 2.5))
            a = float(rng.uniform(0.05, 1.0))
        if delta == 1.0:
            t_lo = 4
        else:
            tau = (2.0 * (sigma - delta) / a) ** (1.0 / (1.0 - delta))
            if tau > 1500.0:
                continue
            t_lo = math.floor(tau) + 2
        yield one(a, sigma, delta, t_lo + int(rng.integers(0, 1000)))


@partial(Check, "curvature split", 77, 1e-9)
def check_curvature_split(rng: np.random.Generator) -> Iterator[Instance]:
    """For a quadratic with spectrum inside [mu, L] and minimizer x*:

        <x - x*, grad(x)> >= ||grad(x)||^2 / (mu + L)
                             + (mu L / (mu + L)) ||x - x*||^2,

    including the rank-deficient case mu == 0."""
    while True:
        d = int(rng.integers(1, 7))
        eigs = rng.uniform(0.0, 3.0, size=d)
        if rng.random() < 0.3:
            eigs[int(rng.integers(0, d))] = 0.0
        if np.all(eigs == 0.0):
            eigs[0] = 1.0
        mu = float(eigs.min())
        L = float(eigs.max())
        Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        H = (Q * eigs) @ Q.T
        x_star = rng.normal(size=d)
        mode = rng.random()
        if mode < 0.2:
            x = x_star + Q[:, int(np.argmin(eigs))] * rng.normal()
        elif mode < 0.4:
            x = x_star + Q[:, int(np.argmax(eigs))] * rng.normal()
        else:
            x = x_star + rng.normal(size=d) * 10.0 ** rng.integers(-2, 3)
        g = H @ (x - x_star)
        lhs = float((x - x_star) @ g)
        rhs = float(g @ g) / (mu + L) + (mu * L / (mu + L)) * float((x - x_star) @ (x - x_star))
        yield rhs, lhs, max(abs(lhs), abs(rhs)), {"d": d, "mu": mu, "L": L}


ALL_CHECKS = (
    check_mixing_contraction,
    check_weighted_operator_bound,
    check_young_split,
    check_step_product_envelope,
    check_step_sum_telescope,
    check_decaying_sum_envelope,
    check_curvature_split,
)


@dataclass
class SuiteReport:
    reports: list[CheckReport]

    @property
    def passed(self) -> bool:
        return all(rep.passed for rep in self.reports)

    @property
    def total_instances(self) -> int:
        return sum(rep.instances for rep in self.reports)

    def summary(self) -> str:
        lines = [rep.line() for rep in self.reports]
        verdict = "all checks passed" if self.passed else "VIOLATIONS FOUND"
        lines.append(f"{verdict} ({self.total_instances} instances total)")
        return "\n".join(lines)


def run_suite(seed: int = 0, instances: int = 1000) -> SuiteReport:
    """Run every inequality check with independent streams off one seed."""
    return SuiteReport([chk(seed=seed, instances=instances) for chk in ALL_CHECKS])
