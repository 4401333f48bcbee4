"""Numeric stress tests for the inequalities behind the rate certificate.

Every bound the convergence analysis chains together is checked here on
randomized instances: mixing-product contraction in the weighted norm, the
weighted operator bound, the split inequality, decaying-step product and sum
envelopes, the exact step-sum telescope, and the curvature split for
quadratics.  A violation beyond floating-point tolerance means the
implementation and the certificate disagree, so the command-line entry point
turns any violation into a nonzero exit.

Each check is a draw phase and an evaluate phase behind ``Check``, passing
columns, not instances.  The draw generator reads the check's seeded stream
``DRAW_BLOCK`` instances at a time, one Generator call per field, and yields
each block as ``Columns``: an array per scalar field and a ``Ragged`` (flat
values plus sizes) per ragged one.  Rejected draws drop out inside a block,
and pinned corner cases form the first.  ``Check`` concatenates blocks and
cuts the last, so instance i never depends on how many are taken (the prefix
property).  Evaluate gets every instance's columns at once: instances of one
shape are grouped by one stable argsort and gathered by one fancy index per
field, chains of different length advance under a mask, and rows of
different length are padded in blocks of at most ``BLOCK_BYTES``.  Operator
and step products run one instance at a time (grouped by shape they measured
slower, batched no faster).

The invariant: each instance's arithmetic is that of the per-instance code
(``tests/lemma_oracles.py``) on the same instance, so a report is a pure
function of (seed, instances), bit for bit, whatever the padded block
sizes.  Padding only multiplies by 1.0; BLAS products, QR factorizations
and short reductions run on stacks of exactly the per-instance shapes; a
sum whose pairwise-summation tree depends on its length runs row by row;
and scalar formulas evaluated by libm (``math.exp``, float ``**``) stay
Python scalars.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .analysis import A_constant, contraction_factor, kappa_factor, r_norm_sq
from .rng import philox
from .topology import FAMILIES, entry_floor, family_matrices, family_window

# The largest padded (rows, length) array of a check over rows of different
# length (decaying sums run to about 2,500 terms).
BLOCK_BYTES = 1 << 17

# Instances per Generator call of each field in a check's draw phase.  The
# instances drawn depend on it, so a change re-pins every lemma report.
DRAW_BLOCK = 256


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


@dataclass
class Ragged:
    """A field whose instances hold different numbers of values: instance i
    holds the next sizes[i] entries of the flat ``values`` (none if 0)."""

    values: np.ndarray
    sizes: np.ndarray

    @cached_property
    def starts(self) -> np.ndarray:
        return np.cumsum(self.sizes) - self.sizes

    def take(self, idx: np.ndarray, *dims: np.ndarray) -> np.ndarray:
        """The values of instances idx, which share the shape (dims[0][i],
        dims[1][i], ...), stacked (len(idx), *shape) by one fancy index."""
        shape = [int(x[idx[0]]) for x in dims]
        return self.values[self.starts[idx, None] + np.arange(math.prod(shape))].reshape(len(idx), *shape)


# A check's instances, field by field: name -> array or Ragged, an array first.
Columns = dict

# value, bound and scale per instance, and the params of instance i.
Values = tuple[np.ndarray, np.ndarray, np.ndarray, Callable[[int], dict]]


@dataclass(frozen=True)
class Check:
    """One inequality value <= bound.  ``draw(rng)`` yields an endless stream
    of blocks of instances drawn from ``rng``, and ``evaluate(columns)`` turns
    the columns of many into value, bound and scale arrays plus the params of
    instance i.  An instance passes when its slack bound - value + tol *
    max(1, scale) is nonnegative; a non-finite slack is a violation and
    outranks every finite one as the worst case, and among equals the first
    instance is the worst.  Calling the check evaluates the first
    ``instances`` off Philox stream ``stream`` of ``seed`` in one call."""

    name: str
    stream: int
    tol: float
    draw: Callable[[np.random.Generator], Iterator[Columns]]
    evaluate: Callable[[Columns], Values]

    def columns(self, seed: int, instances: int) -> Columns | None:
        """The first ``instances`` instances off the check's stream: blocks are
        drawn until they hold that many and the last is cut (None if none)."""
        draws, blocks, count = self.draw(philox(seed, self.stream)), [], 0
        while count < instances and (block := next(draws, None)) is not None:
            blocks.append(block)
            count += len(next(iter(block.values())))
        if not count:
            return None
        out = {}
        for name, first in blocks[0].items():
            if isinstance(first, Ragged):
                sizes = np.concatenate([b[name].sizes for b in blocks])[:instances]
                out[name] = Ragged(np.concatenate([b[name].values for b in blocks])[: sizes.sum()], sizes)
            else:
                out[name] = np.concatenate([b[name] for b in blocks])[:instances]
        return out

    def __call__(self, seed: int, instances: int) -> CheckReport:
        columns = self.columns(seed, instances)
        if columns is None:
            return CheckReport(self.name, 0, 0, math.inf, self.tol)
        value, bound, scale, params = self.evaluate(columns)
        with np.errstate(invalid="ignore"):
            slack = bound - value + self.tol * np.fmax(1.0, scale)
        bad = ~np.isfinite(slack)
        i = int(np.argmax(bad)) if bad.any() else int(np.argmin(slack))
        violations = int(np.count_nonzero(bad | (slack < 0.0)))
        return CheckReport(self.name, slack.size, violations, float(slack[i]), self.tol, params(i))


# -- evaluation helpers -------------------------------------------------------


def _groups(*keys: np.ndarray) -> list[np.ndarray]:
    """The indices of the instances sharing each combination of the
    nonnegative integer keys, ascending, by one stable argsort.  BLAS, LAPACK
    and reductions on a group's stacks run on the per-instance shapes."""
    key = np.zeros(len(keys[0]), dtype=np.int64)
    for x in keys:
        key = key * (int(x.max()) + 1) + x
    order = np.argsort(key, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(key[order])) + 1)


def _rows(lengths: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Instances in order of length, in blocks whose padded (rows, width)
    float arrays stay within BLOCK_BYTES.  Yields the block's instance
    indices and its column numbers 0.0 .. width-1."""
    order = np.argsort(lengths, kind="stable")
    ordered = lengths[order].tolist()
    start = 0
    while start < order.size:
        stop = start + 1
        while stop < order.size and (stop + 1 - start) * ordered[stop] * 8 <= BLOCK_BYTES:
            stop += 1
        yield order[start:stop], np.arange(float(ordered[stop - 1]))
        start = stop


def _row_sums(terms: np.ndarray, lengths: np.ndarray) -> list[float]:
    """Each row's sum over its first ``length`` entries.  numpy's pairwise
    summation tree depends on the length, so padding would change it."""
    return [np.add.reduce(row[:n]) for row, n in zip(terms, lengths.tolist())]


def _suffix_products(factors: np.ndarray) -> np.ndarray:
    """suffix[:, j] = prod_{i >= j} factors[:, i], multiplied from the last
    factor down as ``np.cumprod(f[::-1])[::-1]`` does for one row; padding
    factors of 1.0 change nothing."""
    return np.cumprod(factors[:, ::-1], axis=1)[:, ::-1]


# numpy's scalar ``**`` may take a shortcut (reciprocal, sqrt, square, ...)
# for these exponents; an array of exponents always runs the power loop.
_SCALAR_SHORTCUTS = (-1.0, 0.0, 0.5, 1.0, 2.0)


def _power(base: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """base ** exps[i] along row i, each row bit-identical to
    ``row ** float(exps[i])``; ``base`` may be one row for all."""
    base = np.broadcast_to(base, (exps.size, np.shape(base)[-1]))
    out = base ** exps[:, None]
    hits = exps[:, None] == _SCALAR_SHORTCUTS
    for j in np.flatnonzero(hits.any(axis=0)).tolist():
        rows = np.flatnonzero(hits[:, j])
        out[rows] = base[rows] ** _SCALAR_SHORTCUTS[j]
    return out


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise ``x[i] @ y[i]`` of (G, d) stacks."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def _weights(p: np.ndarray) -> np.ndarray:
    """The weight vectors r = q / sum(q), q = 0.05 + p, of stacked p (G, n)."""
    q = 0.05 + p
    return q / q.sum(axis=1)[:, None]


# -- the checks ---------------------------------------------------------------


def _uniform(rng: np.random.Generator, lo: float, hi: float, size=None) -> np.ndarray:
    """``size`` (default ``DRAW_BLOCK``) floats uniform in [lo, hi).  Draws call only ``rng.random`` and
    ``rng.standard_normal``, as the engine does: ``uniform``, ``integers`` and ``normal`` page in 0.3 MB more."""
    return lo + (hi - lo) * rng.random(DRAW_BLOCK if size is None else size)


def _integers(rng: np.random.Generator, lo: int, hi, size=None) -> np.ndarray:
    """``size`` integers uniform in lo .. hi - 1 (hi may be an array), as ``_uniform``."""
    return lo + ((hi - lo) * rng.random(DRAW_BLOCK if size is None else size)).astype(np.int64)


def _decade_normals(rng: np.random.Generator, sizes: np.ndarray) -> np.ndarray:
    """Standard normal pieces of the given sizes, each times 10^k, k in -2 .. 2."""
    scale = 10.0 ** _integers(rng, -2, 3, sizes.size)
    return rng.standard_normal(sizes.sum()) * np.repeat(scale, sizes)


def _item(columns: Columns, i: int, *names: str) -> dict:
    """Fields ``names`` of instance i, as Python scalars."""
    return {x: columns[x][i].item() for x in names}


def _mixing_values(c: Columns) -> Values:
    n, fixed, beta0, mu, s, t, d = (c[x] for x in ("n", "fixed", "beta0", "mu", "s", "t", "d"))
    lhs, rhs = np.empty((2, n.size))
    for idx in _groups(fixed, n):
        # One family and n, the longest chain first.
        idx = idx[np.argsort(s[idx] - t[idx], kind="stable")]
        family, agents = FAMILIES[fixed[idx[0]]], int(n[idx[0]])
        r = _weights(c["p"].take(idx, n))
        W, B = family_matrices(family, r), family_window(family, agents)
        lam = contraction_factor(entry_floor(W), r.min(axis=1), B, agents)
        kap = kappa_factor(lam, beta0[idx], B)
        steps = t[idx] - s[idx] - 1
        k = s[idx, None] + 1 + np.arange(steps[0])  # k = s+1 .. t-1, padded
        k_mu = _power(k.astype(float), mu[idx])
        beta = beta0[idx, None] / k_mu  # the mixing step beta(k) = beta0 / k^mu
        slot = (k - 1) % W.shape[1]
        eye = np.eye(agents)
        P = np.tile(eye, (idx.size, 1, 1))
        running = steps[:, None] > np.arange(steps[0])
        for j, live in enumerate(np.count_nonzero(running, axis=0).tolist()):
            # The chains still running are the first ``live``.
            b = beta[:live, j, None, None]
            P[:live] = ((1.0 - b) * eye + b * W[np.arange(live), slot[:live, j]]) @ P[:live]
        factor = kap * np.where(running, 1.0 - (lam * beta0[idx])[:, None] / k_mu, 1.0).prod(axis=1)
        for sub in _groups(d[idx]):
            at, rs = idx[sub], r[sub]
            U = c["U"].take(at, n, d)
            lhs[at], rhs[at] = r_norm_sq((P[sub] - rs[:, None, :]) @ U, rs), factor[sub] * r_norm_sq(U, rs)
    return lhs, rhs, rhs, lambda i: {"kind": FAMILIES[fixed[i]], **_item(c, i, "n", "s", "t", "beta0", "mu")}


@partial(Check, "mixing product contraction", 71, 1e-9, evaluate=_mixing_values)
def check_mixing_contraction(rng: np.random.Generator) -> Iterator[Columns]:
    """Products of the per-iteration mixing maps forget the initial spread
    geometrically: with A(k) = (1 - beta(k)) I + beta(k) W(k),

        ||(A(t-1)...A(s+1) - 1 r') U||_r^2
            <= kappa * prod_{k=s+1}^{t-1} (1 - lambda beta(k)) * ||U||_r^2,

    for a fixed-cycle or gossip schedule on n agents with weights
    r = q / sum(q), q = 0.05 + p.  Drawn: n in 3 .. 8, p uniform in
    [0, 1)^n, either family with odds 1/2, beta0 in [0.1, 1), mu in
    [0.55, 0.95), s in 1 .. 39, t - s - 1 in 0 .. 3B for the family's
    window B, and U standard normal (n, d) with d in 1 .. 4."""
    window = np.array([[family_window(kind, n) for n in range(3, 9)] for kind in FAMILIES])
    while True:
        n = _integers(rng, 3, 9)
        fixed = (rng.random(DRAW_BLOCK) < 0.5).astype(int)
        beta0, mu = _uniform(rng, 0.1, 1.0), _uniform(rng, 0.55, 0.95)
        s = _integers(rng, 1, 40)
        t = s + 1 + _integers(rng, 0, 3 * window[fixed, n - 3] + 1)
        d = _integers(rng, 1, 5)
        p = Ragged(rng.random(n.sum()), n)
        U = Ragged(rng.standard_normal((n * d).sum()), n * d)
        yield {"n": n, "fixed": fixed, "beta0": beta0, "mu": mu, "s": s, "t": t, "d": d, "p": p, "U": U}


def _operator_values(c: Columns) -> Values:
    n, m, d, p, A, B = (c[x] for x in ("n", "m", "d", "p", "A", "B"))
    # One product per instance: the BLAS kernel of a product depends on its shape.
    AB = Ragged(np.empty((n * d).sum()), n * d)
    for i, j, k, rows, inner, cols in zip(*(x.tolist() for x in (A.starts, B.starts, AB.starts, n, m, d))):
        a, b = A.values[i : i + rows * inner].reshape(rows, inner), B.values[j : j + inner * cols].reshape(inner, cols)
        np.matmul(a, b, out=AB.values[k : k + rows * cols].reshape(rows, cols))
    lhs, rhs, frobenius = np.empty((3, n.size))
    for idx in _groups(n, d):
        lhs[idx] = r_norm_sq(AB.take(idx, n, d), _weights(p.take(idx, n)))
    for idx in _groups(n, m):
        rhs[idx] = r_norm_sq(A.take(idx, n, m), _weights(p.take(idx, n)))
    for idx in _groups(B.sizes):
        b = B.take(idx, B.sizes)
        frobenius[idx] = _dot(b, b)  # as np.linalg.norm
    rhs = np.sqrt(rhs) * np.sqrt(frobenius)
    return np.sqrt(lhs), rhs, rhs, lambda i: _item(c, i, "n", "m", "d")


@partial(Check, "weighted operator bound", 72, 1e-9, evaluate=_operator_values)
def check_weighted_operator_bound(rng: np.random.Generator) -> Iterator[Columns]:
    """||A B||_r <= ||A||_r ||B||_F for conformable matrices and weights
    r = q / sum(q), q = 0.05 + p.  Drawn: n, m and d in 1 .. 7, p uniform
    in [0, 1)^n, and A (n, m) and B (m, d) standard normal, each times its
    own 10^k with k in -2 .. 2."""
    while True:
        n, m, d = _integers(rng, 1, 8, (3, DRAW_BLOCK))
        p = Ragged(rng.random(n.sum()), n)
        A = Ragged(_decade_normals(rng, n * m), n * m)
        yield {"n": n, "m": m, "d": d, "p": p, "A": A, "B": Ragged(_decade_normals(rng, m * d), m * d)}


def _young_values(c: Columns) -> Values:
    theta, n, d = c["theta"], c["n"], c["d"]
    lhs, uu, vv = np.empty((3, n.size))
    for idx in _groups(n, d):
        if n[idx[0]] == 0:  # vectors: dot products
            u, v = c["u"].take(idx, d), c["v"].take(idx, d)
            uu[idx], vv[idx] = _dot(u, u), _dot(v, v)
            lhs[idx] = uu[idx] + _dot(2 * u, v) + vv[idx]
        else:  # matrices: r-weighted norms
            U, V, r = c["U"].take(idx, n, d), c["V"].take(idx, n, d), _weights(c["p"].take(idx, n))
            lhs[idx], uu[idx], vv[idx] = r_norm_sq(U + V, r), r_norm_sq(U, r), r_norm_sq(V, r)
    rhs = (1 + theta) * uu + (1 + 1 / theta) * vv
    return lhs, rhs, np.abs(rhs), lambda i: (
        {"form": "vector", **_item(c, i, "d", "theta")}
        if n[i] == 0 else {"form": "matrix", **_item(c, i, "n", "d", "theta")}
    )


@partial(Check, "young split", 73, 1e-9, evaluate=_young_values)
def check_young_split(rng: np.random.Generator) -> Iterator[Columns]:
    """||u + v||^2 <= (1 + theta)||u||^2 + (1 + 1/theta)||v||^2, theta > 0,
    in both the vector and the weighted-matrix norm (weights
    r = q / sum(q), q = 0.05 + p).  Drawn: log10 theta in [-3, 3); with
    odds 1/2 vectors u and v of d in 1 .. 9 standard normal entries, each
    times its own 10^k with k in -2 .. 2, else (n, d) standard normal
    matrices with n and d in 1 .. 5 and p uniform in [0, 1)^n (n = 0 for vectors)."""
    while True:
        theta = 10.0 ** _uniform(rng, -3.0, 3.0)
        vector = rng.random(DRAW_BLOCK) < 0.5
        length = _integers(rng, 1, 10, int(np.count_nonzero(vector)))
        u, v = _decade_normals(rng, length), _decade_normals(rng, length)
        rows, cols = _integers(rng, 1, 6, (2, DRAW_BLOCK - length.size))
        p = rng.random(rows.sum())
        U, V = (rng.standard_normal((rows * cols).sum()) for _ in "UV")
        n, d = np.zeros((2, DRAW_BLOCK), dtype=np.int64)
        n[~vector], d[~vector], d[vector] = rows, cols, length
        u, v, p, U, V = Ragged(u, d * vector), Ragged(v, d * vector), Ragged(p, n), Ragged(U, n * d), Ragged(V, n * d)
        yield {"theta": theta, "n": n, "d": d, "u": u, "v": v, "p": p, "U": U, "V": V}


def _step_product_values(c: Columns) -> Values:
    a, delta, s, t = (c[x].tolist() for x in ("a", "delta", "s", "t"))
    k = np.arange(float(max(t)))  # k[s:t] is np.arange(s, t, dtype=float)
    lhs = np.array([np.multiply.reduce(1.0 - x / k[lo:hi] ** e) for x, e, lo, hi in zip(a, delta, s, t)])
    rhs = np.array([
        (hi / lo) ** (-x) if e == 1.0 else math.exp(-x / (1.0 - e) * (hi ** (1.0 - e) - lo ** (1.0 - e)))
        for x, e, lo, hi in zip(a, delta, s, t)
    ])
    return lhs, rhs, rhs, lambda i: _item(c, i, "a", "delta", "s", "t")


@partial(Check, "step product envelope", 74, 1e-9, evaluate=_step_product_values)
def check_step_product_envelope(rng: np.random.Generator) -> Iterator[Columns]:
    """prod_{k=s}^{t-1} (1 - a/k^delta) is killed at the integrated rate:
    bounded by exp(-a (t^(1-delta) - s^(1-delta)) / (1-delta)) for delta < 1
    and by (t/s)^-a for delta == 1.  Drawn: a in [0.001, 0.999), delta = 1
    with odds 0.3 else in [0, 0.999), s in 1 .. 49, t - s - 1 in 0 .. 1999."""
    while True:
        a = _uniform(rng, 1e-3, 0.999)
        delta = np.where(rng.random(DRAW_BLOCK) < 0.3, 1.0, _uniform(rng, 0.0, 0.999))
        s = _integers(rng, 1, 50)
        yield {"a": a, "delta": delta, "s": s, "t": s + 1 + _integers(rng, 0, 2000)}


def _telescope_values(columns: Columns) -> Values:
    t, lam, beta0, mu, canonical, v = (columns[x] for x in ("t", "lam", "beta0", "mu", "canonical", "v"))
    lhs, prod = np.empty(t.size), np.empty(t.size)
    for idx, cols in _rows(t - 1):
        # beta(k) for k = 1 .. t-1, zero past the row's end, where the
        # survival factors f are then 1.0.
        c, held = canonical[idx], cols < (t[idx] - 1)[:, None]
        beta = np.zeros((idx.size, cols.size))
        beta[c] = beta0[idx[c], None] / _power(cols + 1.0, mu[idx[c]])
        steps = held & ~c[:, None]
        beta[steps] = v.values[(v.starts[idx, None] + np.arange(cols.size))[steps]]
        beta[~c] = (0.0 + 2.0 * beta[~c]) / lam[idx[~c], None]
        beta *= held
        f = 1.0 - lam[idx, None] * beta
        prod[idx] = f.prod(axis=1)
        # The term at s is beta(s) prod_{k > s} f(k); past the row's end
        # the suffix products are 1.0, so the last term is beta(t-1) itself.
        beta[:, :-1] *= _suffix_products(f)[:, 1:]
        lhs[idx] = _row_sums(beta, t[idx] - 1)
    value = np.abs(lhs - (1.0 - prod) / lam)  # |lhs - rhs|
    return value, np.zeros(t.size), 1.0 / np.abs(lam), lambda i: _item(columns, i, "t", "lam")


@partial(Check, "step sum telescope", 75, 1e-10, evaluate=_telescope_values)
def check_step_sum_telescope(rng: np.random.Generator) -> Iterator[Columns]:
    """The weighted sum of survival products telescopes exactly:

        sum_{s=1}^{t-1} beta(s) prod_{k=s+1}^{t-1} (1 - lam beta(k))
            = (1/lam) (1 - prod_{k=1}^{t-1} (1 - lam beta(k)))

    for any real sequence beta and lam != 0, to 1e-10 * max(1, 1/|lam|).
    Drawn: t in 2 .. 199, |lam| = 10^x with x in [-2, 1), and with odds 1/2
    canonical steps with beta0 in [0.05, 1) and mu in [0.1, 0.95), else
    arbitrary ones from v uniform in [0, 1)^(t-1).  A canonical instance
    holds no v; the other kind ignores its beta0 and mu.
    """
    while True:
        t = _integers(rng, 2, 200)
        canonical = rng.random(DRAW_BLOCK) < 0.5
        lam = 10.0 ** _uniform(rng, -2.0, 1.0)
        # Canonical decaying steps beta0 / k^mu: lam > 0, cut to 1 / beta0
        # where lam * beta0 >= 2, keeps all survival factors inside (-1, 1)
        # so the float error stays far below tolerance.
        beta0, mu = _uniform(rng, 0.05, 1.0), _uniform(rng, 0.1, 0.95)
        # Arbitrary real steps of either sign, u / lam with u = 2 v in [0, 2),
        # so lam * beta(k) lands in [0, 2] and the factors stay bounded by 1.
        sign = np.where(rng.random(DRAW_BLOCK) < 0.5, -1.0, 1.0)
        lam = np.where(canonical, np.where(lam * beta0 >= 2.0, 1.0 / beta0, lam), sign * lam)
        steps = np.where(canonical, 0, t - 1)
        v = Ragged(rng.random(steps.sum()), steps)
        yield {"t": t, "lam": lam, "beta0": beta0, "mu": mu, "canonical": canonical, "v": v}


def _decaying_sum(a, sigma, delta, t):
    """sum_{s=1}^{t-1} s^-sigma prod_{k=s+1}^{t-1} (1 - a/k^delta), exactly,
    for 1-D arrays of instances, one value each."""
    out = np.empty(t.shape)
    for idx, cols in _rows(t - 1):
        # Column j holds the term at s = j + 1 and the survival factor at
        # k = j + 2; the term at s needs the product over k = s+1 .. t-1,
        # the suffix product from column s - 1.
        f = _power(cols + 2.0, delta[idx])
        np.divide(a[idx, None], f, out=f)
        np.subtract(1.0, f, out=f)
        for row, n in zip(f, (t[idx] - 2).tolist()):  # 1.0 past the row's end
            row[n:] = 1.0
        terms = _power(cols + 1.0, -sigma[idx])
        terms *= _suffix_products(f)
        out[idx] = _row_sums(terms, t[idx] - 1)
    return out


def _decaying_values(c: Columns) -> Values:
    lhs = _decaying_sum(c["a"], c["sigma"], c["delta"], c["t"])
    rhs = np.array([
        A_constant(a, sigma, delta) * t ** -(min(sigma - 1.0, a) if delta == 1.0 else sigma - delta)
        for a, sigma, delta, t in zip(*(c[x].tolist() for x in ("a", "sigma", "delta", "t")))
    ])
    return lhs, rhs, rhs, lambda i: _item(c, i, "a", "sigma", "delta", "t")


@partial(Check, "decaying sum envelope", 76, 1e-9, evaluate=_decaying_values)
def check_decaying_sum_envelope(rng: np.random.Generator) -> Iterator[Columns]:
    """The decaying-weight sum obeys the closed-form envelope constant:

        sum_{s=1}^{t-1} s^-sigma prod_{k=s+1}^{t-1} (1 - a/k^delta)
            <= A(a, sigma, delta) * t^-(sigma - delta)

    past the burn-in t > (2(sigma-delta)/a)^(1/(1-delta)); for delta == 1
    the decay exponent is min(sigma - 1, a) instead.  Drawn after seven
    pinned cases: with odds 1/4 sigma = 1, a in [0.1, 1), delta in [0, 0.45);
    with odds 1/5 delta = 1, sigma in [1.05, 3), a in [0.1, 1) with odds 0.7
    else 2, redrawn where a = sigma - 1; else delta in [0, 0.9), sigma - delta
    in [0.05, 2.5), a in [0.05, 1).  Then t - t0 in 0 .. 999 for t0 = 4 if
    delta = 1, else t0 = floor(tau) + 2 for the burn-in tau, redrawn past 1500.
    """
    # The branch boundary sigma == 1 and the delta == 1 family with a past 1.
    pinned = [(2.0, 1.5, 1.0, t) for t in (4, 7, 20, 200)] + [(0.5, 1.0, 0.0, t) for t in (40, 200, 1000)]
    yield dict(zip(("a", "sigma", "delta", "t"), map(np.array, zip(*pinned))))

    while True:
        branch = rng.random(DRAW_BLOCK)
        sigma1, delta1 = branch < 0.25, (branch >= 0.25) & (branch < 0.45)
        a = np.where(branch < 0.45, _uniform(rng, 0.1, 1.0), _uniform(rng, 0.05, 1.0))
        a[delta1 & (rng.random(DRAW_BLOCK) >= 0.7)] = 2.0
        delta = np.select([sigma1, delta1], [_uniform(rng, 0.0, 0.45), 1.0], _uniform(rng, 0.0, 0.9))
        sigma = np.select([sigma1, delta1], [1.0, _uniform(rng, 1.05, 3.0)], delta + _uniform(rng, 0.05, 2.5))
        with np.errstate(divide="ignore", over="ignore"):  # tau = 2 gives delta == 1 its t0 = 4
            tau = np.where(delta1, 2.0, (2.0 * (sigma - delta) / a) ** (1.0 / (1.0 - delta)))
        keep = (tau <= 1500.0) & ~(delta1 & (np.abs(a - sigma + 1.0) < 1e-6))
        t = np.floor(tau[keep]).astype(int) + 2 + _integers(rng, 0, 1000)[keep]
        yield {"a": a[keep], "sigma": sigma[keep], "delta": delta[keep], "t": t}


def _curvature_values(c: Columns) -> Values:
    d, mode = c["d"], c["mode"]
    lhs, rhs, mu, L = np.empty((4, d.size))
    for idx in _groups(d, mode < 0.4):
        eigs = 0.0 + 3.0 * c["eigs"].take(idx, d)
        eigs[~eigs.any(axis=1), 0] = 1.0  # the zero quadratic becomes rank one
        Q = np.linalg.qr(c["G"].take(idx, d, d))[0]
        H = (Q * eigs[:, None, :]) @ Q.transpose(0, 2, 1)
        x_star = c["x_star"].take(idx, d)
        if mode[idx[0]] < 0.4:
            # A scalar step along the eigenvector of the smallest (mode < 0.2)
            # or the largest eigenvalue.
            col = np.where(mode[idx] < 0.2, eigs.argmin(axis=1), eigs.argmax(axis=1))
            x = x_star + Q[np.arange(idx.size), :, col] * c["step"][idx, None]
        else:
            x = x_star + c["vector"].take(idx, d) * c["scale"][idx, None]
        v = x - x_star
        g = (H @ v[:, :, None])[:, :, 0]
        lo, hi = mu[idx], L[idx] = eigs.min(axis=1), eigs.max(axis=1)
        lhs[idx] = _dot(v, g)
        rhs[idx] = _dot(g, g) / (lo + hi) + (lo * hi / (lo + hi)) * _dot(v, v)
    scale = np.maximum(np.abs(lhs), np.abs(rhs))
    return rhs, lhs, scale, lambda i: {"d": d[i].item(), "mu": mu[i].item(), "L": L[i].item()}  # rhs <= lhs


@partial(Check, "curvature split", 77, 1e-9, evaluate=_curvature_values)
def check_curvature_split(rng: np.random.Generator) -> Iterator[Columns]:
    """For a quadratic with spectrum inside [mu, L] and minimizer x*:

        <x - x*, grad(x)> >= ||grad(x)||^2 / (mu + L)
                             + (mu L / (mu + L)) ||x - x*||^2,

    including the rank-deficient case mu == 0.  The quadratic is
    H = Q diag(eigs) Q' with Q from the QR factors of a Gaussian matrix.
    Drawn: d in 1 .. 6, eigs uniform in [0, 1)^d (the spectrum is 3 eigs)
    with one entry zeroed with odds 0.3, G (d, d) and x* standard normal, and
    mode in [0, 1): below 0.4 a standard normal ``step`` along an
    eigenvector, else a standard normal step ``vector`` in R^d times
    ``scale`` = 10^k, k in -2 .. 2.  Each instance holds only its kind's fields."""
    while True:
        d = _integers(rng, 1, 7)
        eigs = rng.random(d.sum())
        zero = rng.random(DRAW_BLOCK) < 0.3
        eigs[(np.cumsum(d) - d)[zero] + _integers(rng, 0, d[zero], d[zero].size)] = 0.0
        G, x_star = rng.standard_normal((d * d).sum()), rng.standard_normal(d.sum())
        mode = rng.random(DRAW_BLOCK)
        line = mode < 0.4
        step, scale = np.zeros((2, DRAW_BLOCK))
        step[line] = rng.standard_normal(np.count_nonzero(line))
        vector = Ragged(rng.standard_normal(d[~line].sum()), d * ~line)
        scale[~line] = 10.0 ** _integers(rng, -2, 3, np.count_nonzero(~line))
        yield {"d": d, "eigs": Ragged(eigs, d), "G": Ragged(G, d * d), "x_star": Ragged(x_star, d), "mode": mode,
               "step": step, "vector": vector, "scale": scale}


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
