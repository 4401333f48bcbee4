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

from dataclasses import dataclass, field

import numpy as np

from .rng import philox
from .topology import make_weight_vector


def synthesize_regression(N: int, d: int, rng: np.random.Generator):
    """Draw the data pool: U ~ U(0,1)^(N x d), x_tilde ~ U(0, 0.8)^d,
    theta ~ U(0, 0.1)^N, v = U x_tilde + theta.

    Draw order (U, then x_tilde, then theta) is part of the contract; the
    same generator state always yields the same pool.
    """
    if N < 1 or d < 1:
        raise ValueError("need N >= 1 points of dimension d >= 1")
    U = rng.random((N, d))
    x_tilde = 0.8 * rng.random(d)
    theta = 0.1 * rng.random(N)
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


def local_quadratics(U: np.ndarray, v: np.ndarray, shards):
    """Stacked shard mean squares: H (n, d, d), b (n, d) and c (n,) with
    f_i(x) = 0.5 x'H_i x - b_i'x + c_i over the points ``shards[i]``."""
    H, b, c = [], [], []
    for idx in shards:
        # One gathered copy: numpy computes Ui.T @ Ui of a single buffer as
        # a symmetric product, whose rounding x_star is pinned to.
        Ui, vi, m = U[idx], v[idx], idx.size
        if m == 0:
            raise ValueError("shard must hold at least one point")
        H.append(Ui.T @ Ui / m)
        b.append(Ui.T @ vi / m)
        c.append(vi @ vi / (2 * m))
    return np.stack(H), np.stack(b), np.array(c)


@dataclass(frozen=True)
class Problem:
    """A sharded instance, built from its data alone: the pool (U, v), the
    weights r, agent i's point indices ``shards[i]`` and, optionally, a
    float minimizer x_star whose shape (d,) it checks (for objectives with
    no unique one, or an optimum pinned exactly).  It computes n, d, N,
    agent i's quadratic (H[i], b[i], c[i]), x_star of sum_i r_i f_i when
    none is given, and the curvature bounds of that objective."""

    n: int = field(init=False)
    d: int = field(init=False)
    N: int = field(init=False)
    U: np.ndarray
    v: np.ndarray
    r: np.ndarray
    shards: tuple[np.ndarray, ...]
    H: np.ndarray = field(init=False)
    b: np.ndarray = field(init=False)
    c: np.ndarray = field(init=False)
    x_star: np.ndarray | None = None
    strong_convexity: float = field(init=False)
    smoothness: float = field(init=False)

    def __post_init__(self) -> None:
        H, b, c = local_quadratics(self.U, self.v, self.shards)
        # Left folds, sum(r_i * H_i): x_star and the curvature bounds are pinned
        # to this summation order.
        H_bar = sum(r_i * H_i for r_i, H_i in zip(self.r, H))
        x_star = self.x_star
        if x_star is None:
            x_star = np.linalg.solve(H_bar, sum(r_i * b_i for r_i, b_i in zip(self.r, b)))
        elif np.shape(x_star) != (self.U.shape[1],):
            raise ValueError("x_star dimension does not match the objectives")
        eigs = np.linalg.eigvalsh(H_bar)
        derived = dict(
            n=len(self.shards), d=self.U.shape[1], N=len(self.v), H=H, b=b, c=c, x_star=x_star,
            strong_convexity=max(float(eigs[0]), 0.0), smoothness=float(eigs[-1]),
        )
        for name, value in derived.items():
            object.__setattr__(self, name, value)  # frozen: set once, here

    def pooled_loss(self, x):
        """Mean square over the whole pool at a single point, (1/2N)||v - Ux||^2;
        a batch (R, d) of points gives R values, each from its own point."""
        resid = self.v - np.matmul(self.U, x[..., None])[..., 0]
        return (resid * resid).sum(-1) / (2 * self.N)

    def local_values(self, X, HX):
        """Values f_i(x_i) (..., n) of every agent at its row of X (..., n, d),
        from the products HX = H_i x_i (..., n, d); the gradients are
        HX - b."""
        return (X * (0.5 * HX - self.b)).sum(-1) + self.c


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
    U, v, _, _ = synthesize_regression(N, d, rng)
    if r is None:
        p = p_low + (p_high - p_low) * rng.random(n)
        r = make_weight_vector(p)
    else:
        r = np.asarray(r, dtype=float)
        if r.shape != (n,):
            raise ValueError("explicit weights must have one entry per agent")
    return Problem(U, v, r, tuple(partition_indices(r, N, rng)))
