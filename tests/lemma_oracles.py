"""The seven lemma checks one instance at a time.

``dimix.lemmas`` passes each check's instances as columns: an array per
scalar field and a ``Ragged`` (flat values plus per-instance sizes) per
ragged one, and evaluates all of them at once.  ``instances`` rebuilds the
per-instance tuples from such columns, with the types, shapes and bytes the
draws held when they were yielded one by one, and ``part`` cuts a run of
instances out of them.  Each oracle function takes one tuple and computes
both sides right away, returning (value, bound, scale, params); tests compare
the two evaluations bit for bit.
"""

import math

import numpy as np

from dimix.analysis import A_constant, StepSchedule, contraction_factor, kappa_factor, r_norm_sq
from dimix.lemmas import Ragged
from dimix.topology import FAMILIES, fixed_cycle_schedule, gossip_schedule


def weights(p):
    q = 0.05 + p
    return q / q.sum()


def mixing(kind, p, beta0, mu, s, t, U):
    n = len(p)
    r = weights(p)
    sched = fixed_cycle_schedule(r) if kind == "fixed_cycle" else gossip_schedule(r)
    steps = StepSchedule(alpha0=1.0, nu=0.25, beta0=beta0, mu=mu)
    lam = contraction_factor(sched.eta, float(r.min()), sched.B, n)
    kap = kappa_factor(lam, steps.beta0, sched.B)
    P = np.eye(n)
    for k in range(s + 1, t):
        beta_k = float(steps.beta(k))
        P = ((1.0 - beta_k) * np.eye(n) + beta_k * sched.matrices[(k - 1) % sched.B]) @ P
    lhs = r_norm_sq((P - np.outer(np.ones(n), r)) @ U, r)
    ks = np.arange(s + 1, t, dtype=float)
    decay = float(np.prod(1.0 - lam * steps.beta0 / ks**steps.mu)) if ks.size else 1.0
    rhs = kap * decay * r_norm_sq(U, r)
    return lhs, rhs, rhs, {"kind": sched.kind, "n": n, "s": s, "t": t, "beta0": steps.beta0, "mu": steps.mu}


def operator(p, A, B):
    r = weights(p)
    rhs = math.sqrt(r_norm_sq(A, r)) * float(np.linalg.norm(B))
    return math.sqrt(r_norm_sq(A @ B, r)), rhs, rhs, {"n": A.shape[0], "m": A.shape[1], "d": B.shape[1]}


def young(theta, p, U, V):
    if p is None:
        u, v = U, V
        lhs = float(u @ u + 2 * u @ v + v @ v)
        rhs = (1 + theta) * float(u @ u) + (1 + 1 / theta) * float(v @ v)
        params = {"form": "vector", "d": u.size, "theta": theta}
    else:
        r = weights(p)
        lhs = r_norm_sq(U + V, r)
        rhs = (1 + theta) * r_norm_sq(U, r) + (1 + 1 / theta) * r_norm_sq(V, r)
        params = {"form": "matrix", "n": U.shape[0], "d": U.shape[1], "theta": theta}
    return lhs, rhs, abs(rhs), params


def step_product(a, delta, s, t):
    lhs = float(np.prod(1.0 - a / np.arange(s, t, dtype=float) ** delta))
    if delta == 1.0:
        rhs = (t / s) ** (-a)
    else:
        rhs = math.exp(-a / (1.0 - delta) * (t ** (1.0 - delta) - s ** (1.0 - delta)))
    return lhs, rhs, rhs, {"a": a, "delta": delta, "s": s, "t": t}


def telescope(t, lam, beta0, mu, v):
    if v is None:
        beta = beta0 / np.arange(1, t, dtype=float) ** mu
    else:
        beta = (0.0 + 2.0 * v) / lam  # u / lam for u = 2 v, as rng.uniform(0.0, 2.0) computes u
    factors = 1.0 - lam * beta
    suffix = np.ones(t - 1)
    if t > 2:
        suffix[:-1] = np.cumprod(factors[::-1])[:-1][::-1]
    lhs = float(np.sum(beta * suffix))
    rhs = (1.0 - float(np.prod(factors))) / lam
    return abs(lhs - rhs), 0.0, 1.0 / abs(lam), {"t": t, "lam": lam}


def decaying_sum(a, sigma, delta, t):
    s = np.arange(1, t, dtype=float)
    factors = 1.0 - a / np.arange(2, t, dtype=float) ** delta
    suffix = np.ones(t - 1)
    if t > 2:
        suffix[:-1] = np.cumprod(factors[::-1])[::-1]
    return float(np.sum(s**-sigma * suffix))


def decaying(a, sigma, delta, t):
    if delta == 1.0:
        rhs = A_constant(a, sigma, delta) * t ** -min(sigma - 1.0, a)
    else:
        rhs = A_constant(a, sigma, delta) * t ** -(sigma - delta)
    return decaying_sum(a, sigma, delta, t), rhs, rhs, {"a": a, "sigma": sigma, "delta": delta, "t": t}


def curvature(eigs, G, x_star, mode, step, scale):
    eigs = 0.0 + 3.0 * eigs  # the spectrum, as rng.uniform(0.0, 3.0) computes it
    if np.all(eigs == 0.0):
        eigs[0] = 1.0
    mu = float(eigs.min())
    L = float(eigs.max())
    Q, _ = np.linalg.qr(G)
    H = (Q * eigs) @ Q.T
    if mode < 0.2:
        x = x_star + Q[:, int(np.argmin(eigs))] * step
    elif mode < 0.4:
        x = x_star + Q[:, int(np.argmax(eigs))] * step
    else:
        x = x_star + step * scale
    g = H @ (x - x_star)
    lhs = float((x - x_star) @ g)
    rhs = float(g @ g) / (mu + L) + (mu * L / (mu + L)) * float((x - x_star) @ (x - x_star))
    return rhs, lhs, max(abs(lhs), abs(rhs)), {"d": eigs.size, "mu": mu, "L": L}


# check name -> per-instance evaluation
ORACLES = {
    "mixing product contraction": mixing,
    "weighted operator bound": operator,
    "young split": young,
    "step product envelope": step_product,
    "step sum telescope": telescope,
    "decaying sum envelope": decaying,
    "curvature split": curvature,
}


def piece(field: Ragged, i: int, *shape: int) -> np.ndarray:
    """Instance i's values of a ragged field, shaped ``shape``."""
    start = int(field.starts[i])
    return field.values[start : start + math.prod(shape)].reshape(shape)


def _mixing_row(c, f, i):
    kind = FAMILIES[c["fixed"][i]]
    n, d = c["n"][i], c["d"][i]
    return kind, piece(f["p"], i, n), c["beta0"][i], c["mu"][i], c["s"][i], c["t"][i], piece(f["U"], i, n, d)


def _operator_row(c, f, i):
    n, m, d = c["n"][i], c["m"][i], c["d"][i]
    return piece(f["p"], i, n), piece(f["A"], i, n, m), piece(f["B"], i, m, d)


def _young_row(c, f, i):
    n, d = c["n"][i], c["d"][i]
    if n == 0:
        return c["theta"][i], None, piece(f["u"], i, d), piece(f["v"], i, d)
    return c["theta"][i], piece(f["p"], i, n), piece(f["U"], i, n, d), piece(f["V"], i, n, d)


def _telescope_row(c, f, i):
    if c["canonical"][i]:
        return c["t"][i], c["lam"][i], c["beta0"][i], c["mu"][i], None
    return c["t"][i], c["lam"][i], None, None, piece(f["v"], i, c["t"][i] - 1)


def _curvature_row(c, f, i):
    d, mode = c["d"][i], c["mode"][i]
    head = piece(f["eigs"], i, d), piece(f["G"], i, d, d), piece(f["x_star"], i, d), mode
    return head + ((c["step"][i], None) if mode < 0.4 else (piece(f["vector"], i, d), c["scale"][i]))


# check name -> the tuple of instance i, from the columns as Python lists (c)
# and as given (f)
ROWS = {
    "mixing product contraction": _mixing_row,
    "weighted operator bound": _operator_row,
    "young split": _young_row,
    "step product envelope": lambda c, f, i: (c["a"][i], c["delta"][i], c["s"][i], c["t"][i]),
    "step sum telescope": _telescope_row,
    "decaying sum envelope": lambda c, f, i: (c["a"][i], c["sigma"][i], c["delta"][i], c["t"][i]),
    "curvature split": _curvature_row,
}


def instances(name: str, columns) -> list[tuple]:
    """The instances of check ``name`` held by ``columns`` (None holds
    none), one tuple each, as the oracle functions take them."""
    if columns is None:
        return []
    lists = {k: x.tolist() for k, x in columns.items() if isinstance(x, np.ndarray)}
    return [ROWS[name](lists, columns, i) for i in range(len(next(iter(lists.values()))))]


def part(columns, start: int, stop: int):
    """Instances start .. stop - 1 of a check's columns, as columns."""
    out = {}
    for k, x in columns.items():
        if isinstance(x, Ragged):
            lo = int(x.starts[start])
            out[k] = Ragged(x.values[lo : lo + int(x.sizes[start:stop].sum())], x.sizes[start:stop])
        else:
            out[k] = x[start:stop]
    return out
