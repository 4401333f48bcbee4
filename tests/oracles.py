"""Reference implementations that tests compare the engine against.

They are written agent by agent (one neighbor estimate and one local
gradient at a time) and share no code with ``dimix.dynamics``.
"""

import numpy as np

from dimix.noise import stochastic_quantize


def zeta(tau, s: int, u) -> np.ndarray:
    """Randomized rounding of s*tau to a neighboring integer level.

    For tau in [0, 1], returns floor(s*tau) + 1 with probability
    s*tau - floor(s*tau) (decided by the uniform draw u) and floor(s*tau)
    otherwise, so E[zeta] = s*tau exactly.  tau slightly outside [0, 1] from
    floating-point division is clipped; genuinely out-of-range values raise.
    """
    tau = np.asarray(tau, dtype=float)
    u = np.asarray(u, dtype=float)
    if s < 1:
        raise ValueError("quantizer needs at least one level")
    if np.any(tau < -1e-9) or np.any(tau > 1.0 + 1e-9):
        raise ValueError("normalized magnitudes must lie in [0, 1]")
    tau = np.clip(tau, 0.0, 1.0)
    scaled = s * tau
    low = np.floor(scaled)
    return low + (u < scaled - low)


def quantize_formula(x, s: int, gens, src) -> np.ndarray:
    """The quantizer as one formula, mag * ((low + (u < frac)) / s), with
    every (R, n, d) row quantity gathered to the ``src`` rows separately and
    one uniform vector drawn per nonzero output row, in row order."""
    x = np.asarray(x, dtype=float)
    norms = np.sqrt((x * x).sum(-1))
    nrm = np.where(norms > 0.0, norms, 1.0)[..., None]
    scaled = s * np.minimum(np.abs(x) / nrm, 1.0)
    low = np.floor(scaled)
    u = np.zeros((x.shape[0], len(src), x.shape[2]))
    for k, g in enumerate(gens):
        for m, i in enumerate(src):
            if norms[k, i] > 0.0:
                u[k, m] = g.random(x.shape[2])
    mag = np.sign(x) * norms[..., None]
    return mag[:, src] * ((low[:, src] + (u < (scaled - low)[:, src])) / s)


def neighbor_estimate(states, w_row, model, rng) -> np.ndarray:
    """One agent's estimate of the W-weighted neighborhood average.

    ``states`` is the full (n, d) state matrix, ``w_row`` the agent's row of
    the mixing matrix.  Independent corruption is drawn for every positive
    entry of the row, including the agent's own (a node quantizes or
    transmits its own state through the same pipeline), in ascending neighbor
    order, the order the batched engine consumes the generator in.
    """
    states = np.asarray(states, dtype=float)
    w_row = np.asarray(w_row, dtype=float)
    if states.ndim != 2 or w_row.ndim != 1 or w_row.size != states.shape[0]:
        raise ValueError("states must be (n, d) and w_row length n")
    if np.any(w_row < 0.0) or abs(w_row.sum() - 1.0) > 1e-9:
        raise ValueError("mixing row must be nonnegative and sum to 1")

    support = np.flatnonzero(w_row > 0.0)
    if model.kind == "noiseless":
        return w_row[support] @ states[support]
    if model.kind == "gaussian_channel":
        d = states.shape[1]
        z = rng.normal(0.0, model.sigma / np.sqrt(d), size=(support.size, d))
        return w_row[support] @ (states[support] + z)
    q = stochastic_quantize(states[support], model.levels, rng)
    return w_row[support] @ q


def step_matrix(X, W, E, grads, alpha_t, beta_t):
    """The update in matrix form for an explicit perturbation E:

        X(t+1) = ((1 - beta) I + beta W) X + beta E - alpha beta grad.

    The engine's incremental form X + beta (Xhat - X) - alpha beta grad is
    the same map with E = Xhat - W X.
    """
    X = np.asarray(X, dtype=float)
    return (
        (1.0 - beta_t) * X
        + beta_t * (W @ X)
        + beta_t * np.asarray(E, dtype=float)
        - alpha_t * beta_t * np.asarray(grads, dtype=float)
    )


def step(X, t, cfg, rng):
    """Advance the full state one iteration, agent by agent: n sequential
    neighbor estimates, then the local gradient steps."""
    X = np.asarray(X, dtype=float)
    W = cfg.schedule.matrix_at(t)
    p = cfg.problem
    Xhat = np.stack([neighbor_estimate(X, W[i], cfg.noise, rng) for i in range(len(X))])
    G = np.stack([p.H[i] @ x - p.b[i] for i, x in enumerate(X)])
    a_t = float(cfg.steps.alpha(t))
    b_t = float(cfg.steps.beta(t))
    return X + b_t * (Xhat - X) - a_t * b_t * G
