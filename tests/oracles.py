"""Reference implementations that tests compare the engine against.

The engine references are written agent by agent (one neighbor estimate and
one local gradient at a time) and share no code with ``dimix.dynamics``; the
schedule validator's reference pools and walks every window start as edge
sets, sharing no connectivity code with ``dimix.topology``.
"""

import numpy as np

from dimix.noise import quantizer_workspace, stochastic_quantize
from dimix.topology import ValidationReport, entry_floor, gossip_pair


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


def quantize(x, s: int, rng) -> np.ndarray:
    """``stochastic_quantize`` of a vector or an (m, d) matrix of rows with
    one generator: d uniforms per row in row order, zero rows included."""
    x = np.asarray(x, dtype=float)
    rows = np.atleast_2d(x)
    m, d = rows.shape
    work = quantizer_workspace(1, m, m, d)
    return stochastic_quantize(rows[None], s, rng.random((1, m, d)), np.arange(m), work)[0].reshape(x.shape)


def quantize_formula(x, s: int, gens, src) -> np.ndarray:
    """The quantizer as one formula, mag * ((low + (u < frac)) / s), with
    every (R, n, d) row quantity gathered to the ``src`` rows separately and
    one uniform drawn per output coordinate, in row order."""
    x = np.asarray(x, dtype=float)
    norms = np.sqrt((x * x).sum(-1))
    nrm = np.where(norms > 0.0, norms, 1.0)[..., None]
    scaled = s * np.minimum(np.abs(x) / nrm, 1.0)
    low = np.floor(scaled)
    u = np.stack([g.random((len(src), x.shape[2])) for g in gens])
    mag = np.sign(x) * norms[..., None]
    return mag[:, src] * ((low[:, src] + (u < (scaled - low)[:, src])) / s)


def neighbor_estimate(states, w_row, model, rng) -> np.ndarray:
    """One agent's estimate of the W-weighted neighborhood average.

    ``states`` is the full (n, d) state matrix, ``w_row`` the agent's row of
    the mixing matrix.  Independent corruption is drawn for every positive
    entry of the row, including the agent's own (a node quantizes or
    transmits its own state through the same pipeline), in ascending neighbor
    order, the order the batched engine consumes the generator in.  While
    every state is zero the quantizer draws nothing, as the engine does at
    t = 1.
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
    if not states.any():
        return np.zeros(states.shape[1])
    return w_row[support] @ quantize(states[support], model.levels, rng)


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


def edge_set(W) -> set[tuple[int, int]]:
    """Directed edges (j, i) such that W[i, j] > 0 (j's state flows into i)."""
    rows, cols = np.nonzero(np.asarray(W) > 0.0)
    return {(int(j), int(i)) for i, j in zip(rows, cols)}


def strongly_connected_dfs(n: int, edges) -> bool:
    """Whether the digraph on n vertices with directed edges (u, v) is strongly
    connected: forward and reverse depth-first reachability from vertex 0."""
    if n <= 1:
        return True
    fwd: list[list[int]] = [[] for _ in range(n)]
    rev: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if u != v:
            fwd[u].append(v)
            rev[v].append(u)

    def reaches_all(adj: list[list[int]]) -> bool:
        seen = [False] * n
        seen[0] = True
        stack = [0]
        while stack:
            for v in adj[stack.pop()]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        return all(seen)

    return reaches_all(fwd) and reaches_all(rev)


def validate_windows(schedule, horizon: int, window: int | None = None) -> ValidationReport:
    """``validate_schedule`` one slot and one window start at a time.

    Stochasticity and the entry floor are measured per slot up to the
    horizon.  The links of a slot are gossip's declared activation pair, or
    else the matrix support, as edge sets; every start t in
    [1, horizon - window] pools the sets of iterations t+1 .. t+window and
    walks the union.
    """
    window = schedule.B if window is None else window
    r, n, period = schedule.r, schedule.n, schedule.B
    slots = [schedule.matrix_at(t) for t in range(1, min(period, horizon) + 1)]
    row_dev = max(float(np.max(np.abs(W.sum(axis=1) - 1.0))) for W in slots)
    stat_dev = max(float(np.max(np.abs(r @ W - r))) for W in slots)
    gossip = schedule.kind == "gossip"
    slot_edges = [
        {gossip_pair(n, t)} if gossip else edge_set(schedule.matrix_at(t))
        for t in range(1, period + 1)
    ]
    failures = []
    for start in range(1, horizon - window + 1):
        union: set[tuple[int, int]] = set()
        for k in range(start + 1, start + window + 1):
            union |= slot_edges[(k - 1) % period]
        if not strongly_connected_dfs(n, union):
            failures.append(start)
    return ValidationReport(
        kind=schedule.kind,
        n=n,
        horizon=horizon,
        window=window,
        max_row_sum_dev=row_dev,
        max_stationarity_dev=stat_dev,
        min_positive_entry=entry_floor(slots),
        windows_checked=max(horizon - window, 0),
        connectivity_failures=failures,
        edge_source="declared activation links" if gossip else "matrix support",
    )
