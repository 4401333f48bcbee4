"""Reference implementations that tests compare the engine against.

They are written from the single-agent building blocks (``neighbor_estimate``
and ``LocalObjective.gradient``) and share no code with ``dimix.dynamics``.
"""

import numpy as np

from dimix.noise import neighbor_estimate


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
    Xhat = np.stack([neighbor_estimate(X, W[i], cfg.noise, rng) for i in range(len(X))])
    G = np.stack([f.gradient(x) for f, x in zip(cfg.agents, X)])
    a_t = float(cfg.steps.alpha(t))
    b_t = float(cfg.steps.beta(t))
    return X + b_t * (Xhat - X) - a_t * b_t * G
