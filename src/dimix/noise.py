"""Lossy sharing models: what agent i actually receives from its neighbors.

Each agent forms a neighbor estimate x_hat_i = sum_j W_ij * (corrupted x_j).
The corruption is conditionally unbiased with conditionally bounded second
moment, quantified by a scalar gamma: E[e_i | past] = 0 and
E[||e_i||^2 | past] <= gamma, where e_i = x_hat_i - sum_j W_ij x_j.

Three models:

* ``noiseless``          exact exchange, gamma = 0.
* ``gaussian_channel``   each link adds an isotropic Gaussian with total
                         variance sigma^2 split evenly across coordinates,
                         so gamma = sigma^2 (worst case over rows since
                         sum_j W_ij^2 <= 1).
* ``stochastic_quantizer`` each transmitted vector is compressed with an
                         unbiased s-level random quantizer; gamma scales
                         with the largest state norm seen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KINDS = ("noiseless", "gaussian_channel", "stochastic_quantizer")


@dataclass(frozen=True)
class NoiseModel:
    """Which corruption acts on shared states.

    ``sigma`` is the per-link noise scale of the Gaussian channel;
    ``levels`` is the quantizer resolution s (steps per unit norm).
    Irrelevant fields must be left at their defaults.
    """

    kind: str
    sigma: float = 0.0
    levels: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == "gaussian_channel":
            if not (self.sigma > 0.0 and np.isfinite(self.sigma)):
                raise ValueError("gaussian_channel needs sigma > 0")
            if self.levels:
                raise ValueError("levels is only meaningful for stochastic_quantizer")
        elif self.kind == "stochastic_quantizer":
            if self.levels < 1:
                raise ValueError("stochastic_quantizer needs levels >= 1")
            if self.sigma:
                raise ValueError("sigma is only meaningful for gaussian_channel")
        else:
            if self.sigma or self.levels:
                raise ValueError("noiseless takes no parameters")


def quantizer_workspace(R: int, n: int, q: int, d: int) -> tuple:
    """Scratch for ``stochastic_quantize`` on (R, n, d) batches sending q rows."""
    rows, msg, norms = np.zeros((3, R, n, d)), np.zeros((3, R, q, d)), np.zeros((R, n))
    return (rows, *rows, msg, *msg, norms, norms[..., None], np.zeros((R, q, d), dtype=bool))


def stochastic_quantize(x, s: int, u, src, work: tuple) -> np.ndarray:
    """Unbiased random quantization of the rows ``src`` of a batch x.

    Each coordinate of a row is mapped to sign(x_j) * ||x|| * (level / s)
    where the level is s|x_j|/||x|| rounded up where its uniform in ``u``
    falls below the fractional part, else down.  x has shape (R, n, d), u
    and the result (R, len(src), d): output row k reads u[:, k], so a row
    listed twice gets two independent roundings and a zero row comes out
    zero whatever its uniforms.  It draws nothing: ``dimix.dynamics`` takes
    u from each seed's stream by the draw rule it states.  Per-row terms are
    computed once per row of x and gathered in one take into ``work``, made
    by ``quantizer_workspace(R, n, len(src), d)``; the result is a view into
    it, valid until the next call with it.
    """
    rows, low, frac, mag, msg, m_low, m_frac, m_mag, norms, col, hit = work
    np.add.reduce(np.multiply(x, x, out=frac), axis=-1, out=norms)
    np.sqrt(norms, out=norms)
    # frac holds s min(|x_j| / ||x||, 1) first: |x_j| <= ||x|| up to rounding.
    # A zero row's norm is raised to the least double, so its terms stay 0.
    np.maximum(norms, 5e-324, out=norms)
    np.divide(np.abs(x, out=frac), col, out=frac)
    np.multiply(np.minimum(frac, 1.0, out=frac), s, out=frac)
    # low, frac and the signed magnitude of each row, gathered in one take
    np.floor(frac, out=low)
    np.subtract(frac, low, out=frac)
    np.multiply(np.sign(x, out=mag), col, out=mag)
    np.take(rows, src, axis=2, out=msg, mode="wrap")
    levels = np.add(m_low, np.less(u, m_frac, out=hit), out=m_low)
    np.divide(levels, s, out=levels)
    return np.multiply(m_mag, levels, out=levels)


def quantizer_variance_coeff(d: int, s: int) -> float:
    """min(sqrt(d)/s, d/s^2): the standard relative second-moment bound,
    E||Q(x) - x||^2 <= coeff * ||x||^2."""
    if d < 1 or s < 1:
        raise ValueError("dimension and level count must be >= 1")
    return float(min(np.sqrt(d) / s, d / s**2))


def noise_variance_bound(model: NoiseModel, d: int, state_norm_bound: float) -> float:
    """The gamma certified for one neighbor estimate in dimension d.

    The quantizer's bound is relative to the transmitted norm, so it reads
    ``state_norm_bound``, the largest state norm the runs measured; the
    other models ignore it.
    """
    if model.kind == "noiseless":
        return 0.0
    if model.kind == "gaussian_channel":
        return model.sigma**2
    if state_norm_bound < 0.0:
        raise ValueError("quantizer variance bound needs a nonnegative state norm bound")
    return quantizer_variance_coeff(d, model.levels) * state_norm_bound**2
