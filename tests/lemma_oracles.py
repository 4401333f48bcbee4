"""The seven lemma checks one instance at a time.

Each generator draws one instance from its stream with the Generator calls
the checks were first written with (``uniform``, ``choice``, ``10.0 ** k``)
and computes both sides right away, yielding (value, bound, scale, params).
``dimix.lemmas`` splits every check into a draw phase and a batched evaluate
phase; tests compare the two bit for bit.
"""

import math
from itertools import islice

import numpy as np

from dimix.analysis import A_constant, StepSchedule, contraction_factor, kappa_factor, r_norm_sq
from dimix.rng import philox
from dimix.topology import fixed_cycle_schedule, gossip_schedule


def mixing(rng):
    while True:
        n = int(rng.integers(3, 9))
        p = 0.05 + rng.random(n)
        r = p / p.sum()
        sched = fixed_cycle_schedule(r) if rng.random() < 0.5 else gossip_schedule(r)
        steps = StepSchedule(
            alpha0=1.0, nu=0.25, beta0=float(0.1 + 0.9 * rng.random()), mu=float(0.55 + 0.4 * rng.random())
        )
        lam = contraction_factor(sched.eta, float(r.min()), sched.B, n)
        kap = kappa_factor(lam, steps.beta0, sched.B)
        s = int(rng.integers(1, 40))
        t = s + 1 + int(rng.integers(0, 3 * sched.B + 1))
        P = np.eye(n)
        for k in range(s + 1, t):
            beta_k = float(steps.beta(k))
            P = ((1.0 - beta_k) * np.eye(n) + beta_k * sched.matrix_at(k)) @ P
        U = rng.normal(size=(n, int(rng.integers(1, 5))))
        lhs = r_norm_sq((P - np.outer(np.ones(n), r)) @ U, r)
        ks = np.arange(s + 1, t, dtype=float)
        decay = float(np.prod(1.0 - lam * steps.beta0 / ks**steps.mu)) if ks.size else 1.0
        rhs = kap * decay * r_norm_sq(U, r)
        yield lhs, rhs, rhs, {"kind": sched.kind, "n": n, "s": s, "t": t, "beta0": steps.beta0, "mu": steps.mu}


def operator(rng):
    while True:
        n, m, d = (int(rng.integers(1, 8)) for _ in range(3))
        p = 0.05 + rng.random(n)
        r = p / p.sum()
        A = rng.normal(size=(n, m)) * 10.0 ** rng.integers(-2, 3)
        B = rng.normal(size=(m, d)) * 10.0 ** rng.integers(-2, 3)
        rhs = math.sqrt(r_norm_sq(A, r)) * float(np.linalg.norm(B))
        yield math.sqrt(r_norm_sq(A @ B, r)), rhs, rhs, {"n": n, "m": m, "d": d}


def young(rng):
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


def step_product(rng):
    while True:
        a = float(rng.uniform(1e-3, 0.999))
        delta = 1.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 0.999))
        s = int(rng.integers(1, 50))
        t = s + 1 + int(rng.integers(0, 2000))
        lhs = float(np.prod(1.0 - a / np.arange(s, t, dtype=float) ** delta))
        if delta == 1.0:
            rhs = (t / s) ** (-a)
        else:
            rhs = math.exp(-a / (1.0 - delta) * (t ** (1.0 - delta) - s ** (1.0 - delta)))
        yield lhs, rhs, rhs, {"a": a, "delta": delta, "s": s, "t": t}


def telescope(rng):
    while True:
        t = int(rng.integers(2, 200))
        if rng.random() < 0.5:
            lam = float(10.0 ** rng.uniform(-2, 1))
            beta0 = float(rng.uniform(0.05, 1.0))
            if lam * beta0 >= 2.0:
                lam = 1.0 / beta0
            mu = float(rng.uniform(0.1, 0.95))
            beta = beta0 / np.arange(1, t, dtype=float) ** mu
        else:
            lam = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2, 1))
            beta = rng.uniform(0.0, 2.0, size=t - 1) / lam
        factors = 1.0 - lam * beta
        suffix = np.ones(t - 1)
        if t > 2:
            suffix[:-1] = np.cumprod(factors[::-1])[:-1][::-1]
        lhs = float(np.sum(beta * suffix))
        rhs = (1.0 - float(np.prod(factors))) / lam
        yield abs(lhs - rhs), 0.0, 1.0 / abs(lam), {"t": t, "lam": lam}


def decaying_sum(a, sigma, delta, t):
    s = np.arange(1, t, dtype=float)
    factors = 1.0 - a / np.arange(2, t, dtype=float) ** delta
    suffix = np.ones(t - 1)
    if t > 2:
        suffix[:-1] = np.cumprod(factors[::-1])[::-1]
    return float(np.sum(s**-sigma * suffix))


def decaying(rng):
    def one(a, sigma, delta, t):
        if delta == 1.0:
            rhs = A_constant(a, sigma, delta) * t ** -min(sigma - 1.0, a)
        else:
            rhs = A_constant(a, sigma, delta) * t ** -(sigma - delta)
        return decaying_sum(a, sigma, delta, t), rhs, rhs, {"a": a, "sigma": sigma, "delta": delta, "t": t}

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


def curvature(rng):
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


# check name -> (Philox stream, per-instance generator)
ORACLES = {
    "mixing product contraction": (71, mixing),
    "weighted operator bound": (72, operator),
    "young split": (73, young),
    "step product envelope": (74, step_product),
    "step sum telescope": (75, telescope),
    "decaying sum envelope": (76, decaying),
    "curvature split": (77, curvature),
}


def instances(name: str, seed: int, count: int) -> list[tuple]:
    """The first ``count`` instances of check ``name`` off ``seed``."""
    stream, gen = ORACLES[name]
    return list(islice(gen(philox(seed, stream)), count))
