"""Numeric stress tests for the inequalities behind the rate certificate.

Every bound the convergence analysis chains together is checked here on
randomized instances: mixing-product contraction in the weighted norm, the
weighted operator bound, the split inequality, decaying-step product and sum
envelopes, the exact step-sum telescope, and the curvature split for
quadratics.  A violation beyond floating-point tolerance means the
implementation and the certificate disagree, so the command-line entry point
turns any violation into a nonzero exit.

Each check is a draw phase and an evaluate phase behind ``Check``:

* the draw generator reads the check's seeded stream ``DRAW_BLOCK`` instances
  at a time, one Generator call per field, and yields them one by one; a ragged
  field is one flat array of exactly the values needed, cut into pieces.
  Rejected draws drop out in order, pinned corner cases come first, and
  instance i never depends on how many are taken (the prefix property);
* the evaluate function is called once, on every drawn instance, and
  computes value, bound and scale as arrays: instances of one shape are
  stacked, chains of different length advance under a mask, and rows of
  different length are padded, in blocks of at most ``BLOCK_BYTES``.  Step
  products run one instance at a time, where batching measured no faster.

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
from functools import partial
from itertools import islice

import numpy as np

from .analysis import A_constant, contraction_factor, kappa_factor, r_norm_sq
from .rng import philox
from .topology import entry_floor, family_matrices, family_window

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


# value, bound and scale per instance, and the params of instance i.
Values = tuple[np.ndarray, np.ndarray, np.ndarray, Callable[[int], dict]]


@dataclass(frozen=True)
class Check:
    """One inequality value <= bound.  ``draw(rng)`` yields an endless
    stream of per-instance inputs drawn from ``rng`` (a rejected draw yields
    nothing), and ``evaluate(block)`` turns a list of them into value, bound
    and scale arrays plus the params of each instance.  An instance passes when
    its slack bound - value + tol * max(1, scale) is nonnegative; a
    non-finite slack is a violation and outranks every finite one as the
    worst case, and among equals the first instance is the worst.  Calling
    the check evaluates the first ``instances`` of them off Philox stream
    ``stream`` of ``seed`` in one call."""

    name: str
    stream: int
    tol: float
    draw: Callable[[np.random.Generator], Iterator[tuple]]
    evaluate: Callable[[list[tuple]], Values]

    def __call__(self, seed: int, instances: int) -> CheckReport:
        block = list(islice(self.draw(philox(seed, self.stream)), instances))
        if not block:
            return CheckReport(self.name, 0, 0, math.inf, self.tol)
        value, bound, scale, params = self.evaluate(block)
        with np.errstate(invalid="ignore"):
            slack = bound - value + self.tol * np.fmax(1.0, scale)
        bad = ~np.isfinite(slack)
        i = int(np.argmax(bad)) if bad.any() else int(np.argmin(slack))
        violations = int(np.count_nonzero(bad | (slack < 0.0)))
        return CheckReport(self.name, len(block), violations, float(slack[i]), self.tol, params(i))


# -- evaluation helpers -------------------------------------------------------


def _groups(keys: list) -> list[list[int]]:
    """Indices of the instances sharing each key, keys in first-seen order."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _stacked(fn: Callable, keys: list, *columns) -> np.ndarray:
    """``fn`` over every instance, one call per key: the inputs of the
    instances sharing a key (which must fix their shapes) are stacked into
    (G, ...) arrays, and ``fn`` returns one row of G values per output.  Any
    BLAS product, reduction or LAPACK call then runs on exactly the shapes
    of the per-instance code."""
    out = None
    for idx in _groups(keys):
        rows = np.asarray(fn(*(np.array([col[i] for i in idx]) for col in columns)))
        if out is None:
            out = np.empty(rows.shape[:-1] + (len(keys),))
        out[..., idx] = rows
    return out


def _rows(lengths: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Instances in order of length, in blocks whose padded (rows, width)
    float arrays stay within BLOCK_BYTES.  Yields the block's instance
    indices and its column numbers 0.0 .. width-1."""
    order = np.argsort(lengths, kind="stable")
    start = 0
    while start < order.size:
        stop = start + 1
        while stop < order.size and (stop + 1 - start) * lengths[order[stop]] * 8 <= BLOCK_BYTES:
            stop += 1
        yield order[start:stop], np.arange(float(lengths[order[stop - 1]]))
        start = stop


def _pad_ones(x: np.ndarray, lengths: np.ndarray) -> None:
    """Set every entry of row i of x past its first lengths[i] to 1.0."""
    for row, n in zip(x, lengths.tolist()):
        row[n:] = 1.0


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
    for e in _SCALAR_SHORTCUTS:
        rows = np.flatnonzero(exps == e)
        if rows.size:
            out[rows] = base[rows] ** e
    return out


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise ``x[i] @ y[i]`` of (G, d) stacks."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


# -- the checks ---------------------------------------------------------------

def _pieces(values: np.ndarray, *dims: np.ndarray) -> list[np.ndarray]:
    """``values`` cut into consecutive views, piece i of shape
    (dims[0][i], dims[1][i], ...); the piece sizes add up to values.size."""
    sizes = np.prod(dims, axis=0)
    ends = np.cumsum(sizes)
    bounds = zip((ends - sizes).tolist(), ends.tolist(), zip(*(x.tolist() for x in dims)))
    return [values[a:b].reshape(shape) for a, b, shape in bounds]


def _uniform(rng: np.random.Generator, lo: float, hi: float, size=None) -> np.ndarray:
    """``size`` (default ``DRAW_BLOCK``) floats uniform in [lo, hi).  Draws call only
    ``rng.random`` and ``rng.standard_normal``, as the engine does: ``Generator.uniform``,
    ``integers`` and ``normal`` would page in more of numpy (about 0.3 MB of peak RSS)."""
    return lo + (hi - lo) * rng.random(DRAW_BLOCK if size is None else size)


def _integers(rng: np.random.Generator, lo: int, hi, size=None) -> np.ndarray:
    """``size`` integers uniform in lo .. hi - 1 (hi may be an array), as ``_uniform``."""
    return lo + ((hi - lo) * rng.random(DRAW_BLOCK if size is None else size)).astype(np.int64)


def _decade_normals(rng: np.random.Generator, *dims: np.ndarray) -> list[np.ndarray]:
    """Standard normal pieces as ``_pieces`` cuts them, each times 10^k, k in -2 .. 2."""
    sizes = np.prod(dims, axis=0)
    scale = 10.0 ** _integers(rng, -2, 3, sizes.size)
    return _pieces(rng.standard_normal(sizes.sum()) * np.repeat(scale, sizes), *dims)


def _weights(p: list) -> list:
    """The weight vector r = q / sum(q), q = 0.05 + p, of every drawn p; a
    p of None gives None."""
    r = [None] * len(p)
    for idx in _groups([getattr(x, "size", None) for x in p]):
        if p[idx[0]] is not None:
            q = 0.05 + np.array([p[i] for i in idx])
            for i, row in zip(idx, q / q.sum(axis=1)[:, None]):
                r[i] = row
    return r


def _mixing_sides(r, W, U, beta0, mu, lam, kap, s, t):
    """Both sides for G instances of one family and n, longest chain first:
    weights r (G, n), one period of matrices W (G, period, n, n), and a list
    of G arrays U."""
    G, period, n, _ = W.shape
    steps = t - s - 1
    k = s[:, None] + 1 + np.arange(steps[0])  # k = s+1 .. t-1, padded
    k_mu = _power(k.astype(float), mu)
    beta = beta0[:, None] / k_mu  # the mixing step beta(k) = beta0 / k^mu
    slot = (k - 1) % period
    eye = np.eye(n)
    P = np.tile(eye, (G, 1, 1))
    for j, m in enumerate(np.count_nonzero(steps[:, None] > np.arange(steps[0]), axis=0).tolist()):
        # The chains still running are the first m.
        b = beta[:m, j, None, None]
        A = (1.0 - b) * eye + b * W[np.arange(m), slot[:m, j]]
        P[:m] = A @ P[:m]
    decay = 1.0 - (lam * beta0)[:, None] / k_mu
    _pad_ones(decay, steps)
    return _stacked(
        lambda P, r, V, factor: (r_norm_sq((P - r[:, None, :]) @ V, r), factor * r_norm_sq(V, r)),
        [u.shape for u in U], P, r, U, kap * decay.prod(axis=1),
    )


def _mixing_values(block: list[tuple]) -> Values:
    kind, p, beta0, mu, s, t, U = zip(*block)
    b0, m0, s0, t0 = (np.array(col) for col in (beta0, mu, s, t))
    lhs, rhs = np.empty(len(block)), np.empty(len(block))
    for idx in _groups(list(zip(kind, map(len, p)))):
        idx = np.array(idx)[np.argsort(s0[idx] - t0[idx], kind="stable")]
        family, n = kind[idx[0]], len(p[idx[0]])
        r = np.array(_weights([p[i] for i in idx]))
        W, B = family_matrices(family, r), family_window(family, n)
        lam = [contraction_factor(e, x, B, n) for e, x in zip(entry_floor(W).tolist(), r.min(axis=1).tolist())]
        kap = [kappa_factor(x, b, B) for x, b in zip(lam, b0[idx].tolist())]
        lhs[idx], rhs[idx] = _mixing_sides(
            r, W, [U[i] for i in idx], b0[idx], m0[idx], np.array(lam), np.array(kap), s0[idx], t0[idx]
        )
    def params(i: int) -> dict:
        return {"kind": kind[i], "n": len(p[i]), "s": s[i], "t": t[i], "beta0": beta0[i], "mu": mu[i]}

    return lhs, rhs, rhs, params


@partial(Check, "mixing product contraction", 71, 1e-9, evaluate=_mixing_values)
def check_mixing_contraction(rng: np.random.Generator) -> Iterator[tuple]:
    """Products of the per-iteration mixing maps forget the initial spread
    geometrically: with A(k) = (1 - beta(k)) I + beta(k) W(k),

        ||(A(t-1)...A(s+1) - 1 r') U||_r^2
            <= kappa * prod_{k=s+1}^{t-1} (1 - lambda beta(k)) * ||U||_r^2,

    for a fixed-cycle or gossip schedule on n agents with weights
    r = q / sum(q), q = 0.05 + p.  Drawn: n in 3 .. 8, p uniform in
    [0, 1)^n, either family with odds 1/2, beta0 in [0.1, 1), mu in
    [0.55, 0.95), s in 1 .. 39, t - s - 1 in 0 .. 3B for the family's
    window B, and U standard normal (n, d) with d in 1 .. 4."""
    kinds = ("gossip", "fixed_cycle")
    window = np.array([[family_window(kind, n) for n in range(3, 9)] for kind in kinds])
    while True:
        n = _integers(rng, 3, 9)
        fixed = (rng.random(DRAW_BLOCK) < 0.5).astype(int)
        beta0, mu = _uniform(rng, 0.1, 1.0), _uniform(rng, 0.55, 0.95)
        s = _integers(rng, 1, 40)
        t = s + 1 + _integers(rng, 0, 3 * window[fixed, n - 3] + 1)
        d = _integers(rng, 1, 5)
        p, U = _pieces(rng.random(n.sum()), n), _pieces(rng.standard_normal((n * d).sum()), n, d)
        yield from zip((kinds[x] for x in fixed.tolist()), p, beta0.tolist(), mu.tolist(), s.tolist(), t.tolist(), U)


def _operator_values(block: list[tuple]) -> Values:
    p, A, B = zip(*block)
    r = _weights(p)
    # Per instance: the BLAS kernel of a product depends on its shape.
    AB = [a @ b for a, b in zip(A, B)]
    frobenius = np.sqrt([x.dot(x) for x in (b.ravel() for b in B)])  # as np.linalg.norm
    lhs = np.sqrt(_stacked(r_norm_sq, [x.shape for x in AB], AB, r))
    rhs = np.sqrt(_stacked(r_norm_sq, [a.shape for a in A], A, r)) * frobenius
    return lhs, rhs, rhs, lambda i: {"n": A[i].shape[0], "m": A[i].shape[1], "d": B[i].shape[1]}


@partial(Check, "weighted operator bound", 72, 1e-9, evaluate=_operator_values)
def check_weighted_operator_bound(rng: np.random.Generator) -> Iterator[tuple]:
    """||A B||_r <= ||A||_r ||B||_F for conformable matrices and weights
    r = q / sum(q), q = 0.05 + p.  Drawn: n, m and d in 1 .. 7, p uniform
    in [0, 1)^n, and A (n, m) and B (m, d) standard normal, each times its
    own 10^k with k in -2 .. 2."""
    while True:
        n, m, d = _integers(rng, 1, 8, (3, DRAW_BLOCK))
        p = _pieces(rng.random(n.sum()), n)
        yield from zip(p, _decade_normals(rng, n, m), _decade_normals(rng, m, d))


def _young_sides(r, U, V):
    """(||U + V||^2, ||U||^2, ||V||^2): dot products for stacked vectors,
    r-weighted norms for stacked matrices."""
    if U.ndim == 2:
        uu, vv = _dot(U, U), _dot(V, V)
        return uu + _dot(2 * U, V) + vv, uu, vv
    return r_norm_sq(U + V, r), r_norm_sq(U, r), r_norm_sq(V, r)


def _young_values(block: list[tuple]) -> Values:
    theta, p, U, V = zip(*block)
    lhs, uu, vv = _stacked(_young_sides, [u.shape for u in U], _weights(p), U, V)
    th = np.array(theta)
    rhs = (1 + th) * uu + (1 + 1 / th) * vv
    def params(i: int) -> dict:
        if p[i] is None:
            return {"form": "vector", "d": U[i].size, "theta": theta[i]}
        return {"form": "matrix", "n": U[i].shape[0], "d": U[i].shape[1], "theta": theta[i]}

    return lhs, rhs, np.abs(rhs), params


@partial(Check, "young split", 73, 1e-9, evaluate=_young_values)
def check_young_split(rng: np.random.Generator) -> Iterator[tuple]:
    """||u + v||^2 <= (1 + theta)||u||^2 + (1 + 1/theta)||v||^2, theta > 0,
    in both the vector and the weighted-matrix norm (weights
    r = q / sum(q), q = 0.05 + p).  Drawn: log10 theta in [-3, 3); with
    odds 1/2 vectors u and v of d in 1 .. 9 standard normal entries, each
    times its own 10^k with k in -2 .. 2, else (n, d) standard normal
    matrices with n and d in 1 .. 5 and p uniform in [0, 1)^n."""
    while True:
        theta = 10.0 ** _uniform(rng, -3.0, 3.0)
        vector = rng.random(DRAW_BLOCK) < 0.5
        k = int(np.count_nonzero(vector))
        d = _integers(rng, 1, 10, k)
        u, v = iter(_decade_normals(rng, d)), iter(_decade_normals(rng, d))
        n, e = _integers(rng, 1, 6, (2, DRAW_BLOCK - k))
        p = iter(_pieces(rng.random(n.sum()), n))
        U, V = (iter(_pieces(rng.standard_normal((n * e).sum()), n, e)) for _ in "UV")
        for th, vec in zip(theta.tolist(), vector.tolist()):
            yield (th, None, next(u), next(v)) if vec else (th, next(p), next(U), next(V))


def _step_product_values(block: list[tuple]) -> Values:
    lhs = np.array([np.prod(1.0 - a / np.arange(s, t, dtype=float) ** delta) for a, delta, s, t in block])
    rhs = np.array([
        (t / s) ** (-a)
        if delta == 1.0
        else math.exp(-a / (1.0 - delta) * (t ** (1.0 - delta) - s ** (1.0 - delta)))
        for a, delta, s, t in block
    ])
    return lhs, rhs, rhs, lambda i: dict(zip(("a", "delta", "s", "t"), block[i]))


@partial(Check, "step product envelope", 74, 1e-9, evaluate=_step_product_values)
def check_step_product_envelope(rng: np.random.Generator) -> Iterator[tuple]:
    """prod_{k=s}^{t-1} (1 - a/k^delta) is killed at the integrated rate:
    bounded by exp(-a (t^(1-delta) - s^(1-delta)) / (1-delta)) for delta < 1
    and by (t/s)^-a for delta == 1.  Drawn: a in [0.001, 0.999), delta = 1
    with odds 0.3 else in [0, 0.999), s in 1 .. 49, t - s - 1 in 0 .. 1999."""
    while True:
        a = _uniform(rng, 1e-3, 0.999)
        delta = np.where(rng.random(DRAW_BLOCK) < 0.3, 1.0, _uniform(rng, 0.0, 0.999))
        s = _integers(rng, 1, 50)
        t = s + 1 + _integers(rng, 0, 2000)
        yield from zip(a.tolist(), delta.tolist(), s.tolist(), t.tolist())


def _telescope_values(block: list[tuple]) -> Values:
    t, lam, beta0, mu, u = zip(*block)
    t, lam = np.array(t), np.array(lam)
    canonical = np.array([x is None for x in u])
    beta0, mu = np.array(beta0, dtype=float), np.array(mu, dtype=float)
    lhs, prod = np.empty(len(block)), np.empty(len(block))
    for idx, cols in _rows(t - 1):
        # beta(k) for k = 1 .. t-1, padded with zeros
        c = canonical[idx]
        beta = np.zeros((idx.size, cols.size))
        beta[c] = beta0[idx[c], None] / _power(cols + 1.0, mu[idx[c]])
        for row, i in zip(np.flatnonzero(~c).tolist(), idx[~c].tolist()):
            beta[row, : t[i] - 1] = u[i]
        beta[~c] = (0.0 + 2.0 * beta[~c]) / lam[idx[~c], None]
        f = 1.0 - lam[idx, None] * beta
        _pad_ones(f, t[idx] - 1)
        prod[idx] = f.prod(axis=1)
        # The term at s is beta(s) prod_{k > s} f(k); past the row's end
        # the suffix products are 1.0, so the last term is beta(t-1) itself.
        beta[:, :-1] *= _suffix_products(f)[:, 1:]
        lhs[idx] = _row_sums(beta, t[idx] - 1)
    rhs = (1.0 - prod) / lam
    value = np.abs(lhs - rhs)
    return value, np.zeros(len(block)), 1.0 / np.abs(lam), lambda i: dict(zip(("t", "lam"), block[i]))


@partial(Check, "step sum telescope", 75, 1e-10, evaluate=_telescope_values)
def check_step_sum_telescope(rng: np.random.Generator) -> Iterator[tuple]:
    """The weighted sum of survival products telescopes exactly:

        sum_{s=1}^{t-1} beta(s) prod_{k=s+1}^{t-1} (1 - lam beta(k))
            = (1/lam) (1 - prod_{k=1}^{t-1} (1 - lam beta(k)))

    for any real sequence beta and lam != 0, to 1e-10 * max(1, 1/|lam|).
    Drawn: t in 2 .. 199, |lam| = 10^x with x in [-2, 1), and with odds 1/2
    canonical steps with beta0 in [0.05, 1) and mu in [0.1, 0.95), else
    arbitrary ones from v uniform in [0, 1)^(t-1).
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
        # The steps are copied out of the block's buffer (about 100 KB): views
        # would keep it alive until the check is evaluated, which raised peak RSS.
        v = iter([x.copy() for x in _pieces(rng.random((t[~canonical] - 1).sum()), t[~canonical] - 1)])
        for row in zip(t.tolist(), lam.tolist(), beta0.tolist(), mu.tolist(), canonical.tolist()):
            yield row[:4] + (None,) if row[4] else row[:2] + (None, None, next(v))


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
        _pad_ones(f, t[idx] - 2)
        terms = _power(cols + 1.0, -sigma[idx])
        terms *= _suffix_products(f)
        out[idx] = _row_sums(terms, t[idx] - 1)
    return out


def _decaying_values(block: list[tuple]) -> Values:
    lhs = _decaying_sum(*(np.array(col) for col in zip(*block)))
    rhs = np.array([
        A_constant(a, sigma, delta) * t ** -(min(sigma - 1.0, a) if delta == 1.0 else sigma - delta)
        for a, sigma, delta, t in block
    ])
    return lhs, rhs, rhs, lambda i: dict(zip(("a", "sigma", "delta", "t"), block[i]))


@partial(Check, "decaying sum envelope", 76, 1e-9, evaluate=_decaying_values)
def check_decaying_sum_envelope(rng: np.random.Generator) -> Iterator[tuple]:
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
    for t in (4, 7, 20, 200):
        yield 2.0, 1.5, 1.0, t
    for t in (40, 200, 1000):
        yield 0.5, 1.0, 0.0, t

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
        yield from zip(a[keep].tolist(), sigma[keep].tolist(), delta[keep].tolist(), t.tolist())


def _curvature_sides(eigs, G, x_star, mode, step, scale):
    """Both sides, the scale, mu and L for G stacked instances of one d and
    one kind of step."""
    eigs = 0.0 + 3.0 * eigs
    eigs[~eigs.any(axis=1), 0] = 1.0  # the zero quadratic becomes rank one
    Q = np.linalg.qr(G)[0]
    H = (Q * eigs[:, None, :]) @ Q.transpose(0, 2, 1)
    if step.ndim == 1:
        # A scalar step along the eigenvector of the smallest (mode < 0.2)
        # or the largest eigenvalue.
        col = np.where(mode < 0.2, eigs.argmin(axis=1), eigs.argmax(axis=1))
        x = x_star + Q[np.arange(len(col)), :, col] * step[:, None]
    else:
        x = x_star + step * scale[:, None]
    v = x - x_star
    g = (H @ v[:, :, None])[:, :, 0]
    mu, L = eigs.min(axis=1), eigs.max(axis=1)
    lhs = _dot(v, g)
    rhs = _dot(g, g) / (mu + L) + (mu * L / (mu + L)) * _dot(v, v)
    return rhs, lhs, np.maximum(np.abs(lhs), np.abs(rhs)), mu, L


def _curvature_values(block: list[tuple]) -> Values:
    keys = [(eigs.size, mode < 0.4) for eigs, _, _, mode, *_ in block]
    value, bound, scale, mu, L = _stacked(_curvature_sides, keys, *zip(*block))
    return value, bound, scale, lambda i: {"d": keys[i][0], "mu": float(mu[i]), "L": float(L[i])}


@partial(Check, "curvature split", 77, 1e-9, evaluate=_curvature_values)
def check_curvature_split(rng: np.random.Generator) -> Iterator[tuple]:
    """For a quadratic with spectrum inside [mu, L] and minimizer x*:

        <x - x*, grad(x)> >= ||grad(x)||^2 / (mu + L)
                             + (mu L / (mu + L)) ||x - x*||^2,

    including the rank-deficient case mu == 0.  The quadratic is
    H = Q diag(eigs) Q' with Q from the QR factors of a Gaussian matrix.
    Drawn: d in 1 .. 6, eigs uniform in [0, 1)^d (the spectrum is 3 eigs)
    with one entry zeroed with odds 0.3, G (d, d) and x* standard normal, and
    mode in [0, 1): below 0.4 a standard normal step along an eigenvector,
    else a standard normal step in R^d times 10^k, k in -2 .. 2."""
    while True:
        d = _integers(rng, 1, 7)
        eigs = rng.random(d.sum())
        zero = rng.random(DRAW_BLOCK) < 0.3
        eigs[(np.cumsum(d) - d)[zero] + _integers(rng, 0, d[zero], d[zero].size)] = 0.0
        G, x_star = _pieces(rng.standard_normal((d * d).sum()), d, d), _pieces(rng.standard_normal(d.sum()), d)
        mode = rng.random(DRAW_BLOCK)
        line = mode < 0.4
        e = d[~line]
        step = iter(rng.standard_normal(np.count_nonzero(line)).tolist())
        vector = iter(zip(_pieces(rng.standard_normal(e.sum()), e), (10.0 ** _integers(rng, -2, 3, e.size)).tolist()))
        for row in zip(_pieces(eigs, d), G, x_star, mode.tolist(), line.tolist()):
            yield row[:4] + ((next(step), None) if row[4] else next(vector))


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
