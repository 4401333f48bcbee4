"""Synthetic distributed least squares.

A pool of N regression points (u_j, v_j) with v = U x_tilde + theta is sharded
across n agents.  Agent i holds shard S_i and minimizes the local mean square

    f_i(x) = 1 / (2 |S_i|) * sum_{j in S_i} (v_j - u_j' x)^2,

a quadratic 0.5 x' H_i x - b_i' x + c_i with H_i = U_i' U_i / |S_i|.  The
network-wide target is the r-weighted objective f(x) = sum_i r_i f_i(x), whose
minimizer solves (sum_i r_i H_i) x = sum_i r_i b_i.

Shard sizes follow the weights via largest-remainder apportionment and the
points are dealt by a seeded shuffle, so the whole problem instance is a pure
function of (n, d, N, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import philox
from .topology import make_weight_vector


def synthesize_regression(
    N: int,
    d: int,
    rng: np.random.Generator,
    x_high: float = 0.8,
    theta_high: float = 0.1,
):
    """Draw the data pool: U ~ U(0,1)^(N x d), x_tilde ~ U(0, x_high)^d,
    theta ~ U(0, theta_high)^N, v = U x_tilde + theta.

    Draw order (U, then x_tilde, then theta) is part of the contract; the
    same generator state always yields the same pool.
    """
    if N < 1 or d < 1:
        raise ValueError("need N >= 1 points of dimension d >= 1")
    U = rng.random((N, d))
    x_tilde = x_high * rng.random(d)
    theta = theta_high * rng.random(N)
    v = U @ x_tilde + theta
    return U, v, x_tilde, theta


def apportion_counts(r, N: int) -> np.ndarray:
    """Integer shard sizes summing to N, proportional to r by the
    largest-remainder rule (ties broken toward lower index), with every
    shard forced nonempty by taking single points from the largest shards.
    """
    r = np.asarray(r, dtype=float)
    n = r.size
    if N < n:
        raise ValueError(f"cannot deal {N} points to {n} nonempty shards")
    quota = N * r
    counts = np.floor(quota).astype(int)
    remainder = quota - counts
    leftover = N - int(counts.sum())
    # argsort is stable, so sorting by -remainder breaks ties toward lower index.
    for i in np.argsort(-remainder, kind="stable")[:leftover]:
        counts[i] += 1
    while np.any(counts == 0):
        counts[int(np.argmax(counts == 0))] += 1
        counts[int(np.argmax(counts))] -= 1
    return counts


def partition_indices(r, N: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Deal point indices 0..N-1 into shards: one seeded shuffle, then
    contiguous runs of the apportioned sizes."""
    counts = apportion_counts(r, N)
    perm = rng.permutation(N)
    splits = np.cumsum(counts)[:-1]
    return [np.sort(part) for part in np.split(perm, splits)]


@dataclass(frozen=True)
class LocalObjective:
    """One agent's quadratic: value 0.5 x'Hx - b'x + c over its shard.

    ``curvature_lo``/``curvature_hi`` are the extreme eigenvalues of H; a
    shard with fewer points than dimensions is rank deficient and reports
    curvature_lo == 0.
    """

    indices: np.ndarray
    U: np.ndarray
    v: np.ndarray
    H: np.ndarray
    b: np.ndarray
    c: float
    curvature_lo: float
    curvature_hi: float

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.H @ x - self.b @ x + self.c)

    def gradient(self, x) -> np.ndarray:
        return self.H @ np.asarray(x, dtype=float) - self.b


def local_objective(U: np.ndarray, v: np.ndarray, indices: np.ndarray) -> LocalObjective:
    indices = np.asarray(indices, dtype=int)
    if indices.size == 0:
        raise ValueError("shard must hold at least one point")
    Ui = U[indices]
    vi = v[indices]
    m = indices.size
    H = Ui.T @ Ui / m
    eigs = np.linalg.eigvalsh(H)
    lo = float(eigs[0])
    if lo < 0.0:
        if lo < -1e-10:
            raise ValueError("shard Hessian has a significantly negative eigenvalue")
        lo = 0.0
    return LocalObjective(
        indices=indices,
        U=Ui,
        v=vi,
        H=H,
        b=Ui.T @ vi / m,
        c=float(vi @ vi / (2 * m)),
        curvature_lo=lo,
        curvature_hi=float(eigs[-1]),
    )


@dataclass(frozen=True)
class Problem:
    """A full sharded instance: the pool, the weights, the per-agent
    quadratics, and the minimizer of the weighted objective."""

    n: int
    d: int
    N: int
    U: np.ndarray
    v: np.ndarray
    x_tilde: np.ndarray
    theta: np.ndarray
    r: np.ndarray
    agents: tuple[LocalObjective, ...]
    x_star: np.ndarray
    strong_convexity: float
    smoothness: float

    def pooled_loss(self, x):
        """Mean square over the whole pool at a single point, (1/2N)||v - Ux||^2;
        a batch (R, d) of points gives R values, each from its own point."""
        resid = self.v - np.matmul(self.U, np.asarray(x, dtype=float)[..., None])[..., 0]
        loss = (resid * resid).sum(-1) / (2 * self.N)
        return float(loss) if loss.ndim == 0 else loss

    def weighted_value(self, X: np.ndarray) -> float:
        """sum_i r_i f_i(x_i) at per-agent states X (n, d)."""
        X = np.asarray(X, dtype=float)
        return float(sum(r_i * f.value(x_i) for r_i, f, x_i in zip(self.r, self.agents, X)))

    def gradients(self, X: np.ndarray) -> np.ndarray:
        """Stacked local gradients: row i is grad f_i(X[i])."""
        X = np.asarray(X, dtype=float)
        H = np.stack([f.H for f in self.agents])
        B = np.stack([f.b for f in self.agents])
        return np.einsum("nij,nj->ni", H, X) - B

    def value_weighted_at(self, x) -> float:
        """The network objective f(x) = sum_i r_i f_i(x) at one shared point."""
        x = np.asarray(x, dtype=float)
        return float(sum(r_i * f.value(x) for r_i, f in zip(self.r, self.agents)))


def global_optimum(r, agents) -> np.ndarray:
    """Minimizer of sum_i r_i f_i: solves (sum r_i H_i) x = sum r_i b_i."""
    A = sum(r_i * f.H for r_i, f in zip(r, agents))
    rhs = sum(r_i * f.b for r_i, f in zip(r, agents))
    return np.linalg.solve(A, rhs)


def build_problem(
    n: int = 20,
    d: int = 25,
    N: int = 100,
    seed: int = 0,
    p_low: float = 0.01,
    p_high: float = 0.09,
    r=None,
) -> Problem:
    """Generate the standard sharded instance for a seed.

    One Philox stream (seed, 0) is consumed in a fixed order: the data pool,
    the raw weight scores p ~ U(p_low, p_high), the dealing shuffle.  An
    explicit weight vector ``r`` (e.g. the stationary weights of a given
    mixing schedule) replaces the p draw, which is then skipped entirely.
    """
    if n < 1:
        raise ValueError("need at least one agent")
    rng = philox(seed, 0)
    U, v, x_tilde, theta = synthesize_regression(N, d, rng)
    if r is None:
        p = p_low + (p_high - p_low) * rng.random(n)
        r = make_weight_vector(p)
    else:
        r = np.asarray(r, dtype=float)
        if r.shape != (n,):
            raise ValueError("explicit weights must have one entry per agent")
    shards = partition_indices(r, N, rng)
    agents = tuple(local_objective(U, v, idx) for idx in shards)
    x_star = global_optimum(r, agents)
    H_bar = sum(r_i * f.H for r_i, f in zip(r, agents))
    eigs = np.linalg.eigvalsh(H_bar)
    return Problem(
        n=n,
        d=d,
        N=N,
        U=U,
        v=v,
        x_tilde=x_tilde,
        theta=theta,
        r=r,
        agents=agents,
        x_star=x_star,
        strong_convexity=max(float(eigs[0]), 0.0),
        smoothness=float(eigs[-1]),
    )
