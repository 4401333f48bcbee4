"""The two-time-scale decentralized descent loop.

Each agent i keeps a state x_i(t), t >= 1, all starting at zero, and updates

    x_i(t+1) = x_i(t) + beta(t) * (xhat_i(t) - x_i(t))
               - alpha(t) * beta(t) * grad f_i(x_i(t)),

where xhat_i is the (noisy) estimate of its mixing-weighted neighborhood
average.  Mixing decays at beta(t) = beta0/t^mu and descent at
alpha(t)*beta(t); with nu < mu the consensus error contracts faster than the
optimization drifts, which is what the rate certificate exploits.

``run`` produces a trace of four scalar diagnostics at the iterations it is
asked to record (all of them by default): pooled-data loss at the weighted
mean state, the r-weighted sum of local losses at the agent states, the
consensus error, and the squared r-weighted distance to the weighted optimum
x*.  ``monte_carlo(cfg, runs, seed)`` runs seeds seed, seed+1, ... and
aggregates the columns and maxima of the runs that completed.

``run`` advances all of its seeds as one (R, n, d) state and works a chunk
of iterations at a time: when a chunk starts it draws the noise of all of
its iterations, and when it ends it evaluates the diagnostics of its stored
states.  A diverged seed's row is reset to zero and runs on, so the batch
keeps its shape.  ``run`` alone draws noise, each seed from its own Philox
stream in lockstep: d values per message at t = 1..T-1, zero rows included,
by iteration, then receiver, then sender, ascending, but none at t = 1 for
the quantizer, as X(1) = 0.  No value of a seed depends on its batch, chunk
or recorded iterations, so a trace is a pure function of (config, seed),
bit-identical for every batch size and ``--jobs`` value.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .analysis import StepSchedule, deviation_sq, dist_opt_sq, weighted_mean
from .noise import NoiseModel, noise_variance_bound, quantizer_workspace, stochastic_quantize
from .objective import Problem
from .rng import fill, philox
from .topology import STATIONARITY_TOL, MixingSchedule

# States beyond this magnitude mean the configuration diverged; the run is
# cut short and flagged rather than allowed to overflow into inf/nan.
DIVERGENCE_LIMIT = 1e12

# Bytes per batch of recorded states X(t) and products H_i x_i(t).
CHUNK_BYTES = 256 * 1024

TRACE_COLUMNS = ("loss_pooled", "loss_weighted", "deviation_sq", "dist_opt_sq")


@dataclass(frozen=True)
class RunConfig:
    """Everything a single trajectory depends on, apart from the seed."""

    problem: Problem
    schedule: MixingSchedule
    steps: StepSchedule
    T: int
    noise: NoiseModel = NoiseModel("noiseless")

    def __post_init__(self) -> None:
        if self.T < 1:
            raise ValueError("need a horizon T >= 1")
        if self.problem.n != self.schedule.n:
            raise ValueError(
                f"{self.problem.n} local objectives for {self.schedule.n} agents"
            )
        if np.shape(self.problem.x_star) != (self.problem.d,):
            raise ValueError("x_star dimension does not match the objectives")
        if not np.allclose(self.problem.r, self.schedule.r, atol=1e-12):
            raise ValueError("problem weights and schedule weights disagree")
        r, W = self.schedule.r, self.schedule.matrices
        dev = float(np.abs(r @ W - r).max())
        if not dev <= STATIONARITY_TOL:
            raise ValueError(
                f"schedule weights r are not left-stationary: max |r'W(s) - r| = {dev:.3g} "
                f"over the period (tol {STATIONARITY_TOL:.0e})"
            )


@dataclass
class RunTrace:
    """One trajectory's diagnostics: row k of ``values`` holds the
    TRACE_COLUMNS at the recorded iteration t[k].

    An aborted (diverged) trace is truncated at the last finite-magnitude
    iterate; ``abort_t`` is the iteration whose update blew past the limit.
    """

    seed: int
    t: np.ndarray
    values: np.ndarray
    final_state: np.ndarray
    max_grad_sq: float
    max_state_norm: float
    aborted: bool = False
    abort_t: int | None = None


def _slot_plan(schedule: MixingSchedule, t: int):
    """One period slot's mixing: W, the sender of every shared message
    (receivers in ascending order, each one's support ascending) and the
    (n, messages) matrix M that sums each receiver's weighted messages."""
    W = schedule.matrix_at(t)
    receiver, src = np.nonzero(W > 0.0)
    M = np.zeros((W.shape[0], src.size))
    M[receiver, np.arange(src.size)] = W[receiver, src]
    return W, src, M


def run(cfg: RunConfig, seeds, at=None) -> list[RunTrace]:
    """Trajectories from X(1) = 0 through X(T), one per seed, with trace rows
    at the iterations ``at`` (every t in [1, T] when omitted).

    The seeds advance together as one (R, n, d) state and draw by the
    module's rule.  Every per-seed quantity comes from elementwise ufuncs,
    reductions over a contiguous last axis, or matmuls with one product per
    batch item, so a seed's trace is bit-identical whichever seeds share its
    batch or iterations its chunk, and whichever iterations are recorded.
    The maxima behind ``max_grad_sq`` and ``max_state_norm`` cover every
    iterate of the trace.  A seed's first diverged update sets its
    ``abort_t`` and ``final_state`` and resets its row to zero, which runs
    and draws on unread: trace and maxima end at the last finite iterate.
    The run stops once every seed has aborted.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    problem, noise = cfg.problem, cfg.noise
    n, d, T, R = problem.n, problem.d, cfg.T, len(seeds)
    ts = np.arange(1, T + 1)
    at = ts if at is None else np.array(sorted({int(t) for t in at}), dtype=int)
    if at.size and not 1 <= at[0] <= at[-1] <= T:
        raise ValueError(f"recorded iterations must lie in [1, {T}]")
    row_of = np.full(T + 1, -1)  # trace row of each iteration, -1 if not recorded
    row_of[at] = np.arange(at.size)
    r, x_star = cfg.schedule.r, problem.x_star
    plans = [_slot_plan(cfg.schedule, t) for t in range(1, cfg.schedule.B + 1)]
    betas = cfg.steps.beta(ts)
    betas, alpha_betas = betas.tolist(), (cfg.steps.alpha(ts) * betas).tolist()
    # Slot j of the chunk holds X(t) and H_i x_i(t) until ``record`` reads it.
    chunk = int(max(1, min(T, CHUNK_BYTES // (16 * R * n * d))))
    if noise.kind != "noiseless":
        # d values per message at t = 1..T-1; the quantizer takes none at t = 1.
        sizes = np.array([src.size * d for _, src, _ in plans])[np.arange(T - 1) % len(plans)]
        if noise.kind == "gaussian_channel":
            sent = np.empty(R * sizes.max(initial=0))  # X[:, src] + Z of one iteration
            sends = [sent[: R * src.size * d].reshape(R, src.size, d) for _, src, _ in plans]
        else:
            sizes[:1] = 0
            works = {q: quantizer_workspace(R, n, q, d) for q in {src.size for _, src, _ in plans}}
            sends = [works[src.size] for _, src, _ in plans]  # bound per slot
        scale = noise.sigma / np.sqrt(d) if noise.kind == "gaussian_channel" else None
        gens = [philox(seed) for seed in seeds]
        # ends[t]: values a seed draws at iterations 1..t.  The chunk that starts
        # at t draws those of its iterations t .. min(t + chunk, T) - 1 at once.
        ends = np.concatenate([[0], np.cumsum(sizes)])
        starts = np.arange(1, T + 1, chunk)
        buf = np.empty((R, (ends[np.minimum(starts + chunk, T) - 1] - ends[starts - 1]).max()))
        ends = ends.tolist()

    values = np.empty((R, at.size, len(TRACE_COLUMNS)))
    final = np.empty((R, n, d))
    max_grad_sq, max_norm_sq = np.zeros(R), np.zeros(R)
    end = np.full(R, T + 1)  # first iteration past each seed's trace: abort_t, else T + 1
    stop = T  # the last iteration run: T, or the one after every seed aborted
    Xs, HXs = np.zeros((chunk, R, n, d)), np.empty((chunk, R, n, d))
    G, D = np.empty((R, n, d)), np.empty((R, n, d))
    b = np.ascontiguousarray(np.broadcast_to(problem.b, (R, n, d)))
    # Per chunk slot X, X[..., None], HX and HX[..., None]: the batch keeps
    # its shape, so an iteration only runs ufuncs and products on views.
    views = [(X, X[..., None], HX, HX[..., None]) for X, HX in zip(Xs, HXs)]

    def record(t, m):
        """Maxima over iterations t-m+1..t (slots 0..m-1) before each seed's
        abort_t, and the trace columns of every seed at those recorded."""
        Xk, HXk = Xs[:m], HXs[:m]
        grads = HXk - problem.b
        kept = np.arange(t - m + 1, t + 1)[:, None] < end  # (m, R): iterations in each trace
        np.maximum(max_grad_sq, np.where(kept, (grads * grads).sum(-1).max(-1), 0.0).max(0), out=max_grad_sq)
        np.maximum(max_norm_sq, np.where(kept, (Xk * Xk).sum(-1).max(-1), 0.0).max(0), out=max_norm_sq)
        rows = row_of[t - m + 1 : t + 1]
        slots = np.flatnonzero(rows >= 0)
        if not slots.size:
            return
        if slots.size < m:
            Xk, HXk = Xk[slots], HXk[slots]
        values[:, rows[slots[0]] : rows[slots[-1]] + 1] = np.stack(
            [
                problem.pooled_loss(weighted_mean(Xk, r)),
                (problem.local_values(Xk, HXk) * r).sum(-1),
                deviation_sq(Xk, r),
                dist_opt_sq(Xk, r, x_star),
            ],
            axis=-1,
        ).swapaxes(0, 1)

    j = 0
    for t in range(1, T + 1):
        X, Xcol, HX, HXcol = views[j]
        np.matmul(problem.H, Xcol, out=HXcol)
        if t == stop or j == chunk - 1:
            record(t, j + 1)
            if t == stop:
                break
        np.subtract(HX, b, out=G)
        k = (t - 1) % len(plans)
        W, src, M = plans[k]
        if j == 0 and noise.kind != "noiseless":  # a chunk starts: draw its noise
            base = ends[t - 1]
            fill(gens, buf[:, : ends[min(t + chunk, T) - 1] - base], scale)
        if noise.kind == "noiseless":
            np.matmul(W, X, out=D)
        elif ends[t] == ends[t - 1]:  # the quantizer's t = 1: X(1) = 0 quantizes to 0
            D[...] = 0.0
        else:
            Z = buf[:, ends[t - 1] - base : ends[t] - base].reshape(R, src.size, d)
            if noise.kind == "gaussian_channel":
                Y = np.add(X.take(src, axis=1, out=sends[k], mode="wrap"), Z, out=sends[k])
            else:
                Y = stochastic_quantize(X, noise.levels, Z, src, sends[k])
            np.matmul(M, Y, out=D)
        # X(t+1) = X + beta (Xhat - X) - alpha beta G, evaluated in that order.
        j = (j + 1) % chunk
        Xn = views[j][0]
        np.subtract(D, X, out=D)
        D *= betas[t - 1]
        np.add(X, D, out=Xn)
        G *= alpha_betas[t - 1]
        Xn -= G
        if not np.abs(Xn, out=D).max() <= DIVERGENCE_LIMIT:  # also true on inf/nan
            out = ~(D <= DIVERGENCE_LIMIT).all(axis=(1, 2))
            first = out & (end > T)
            final[first] = Xn[first]
            end[first] = t + 1
            Xn[out] = 0.0  # reset to stay finite; the row is never reported again
            if (end <= T).all():
                stop = t + 1
    final[end > T] = X[end > T]

    traces = []
    for k, seed in enumerate(seeds):
        rows = slice(0, int((at < end[k]).sum()))  # the iterations before abort_t
        traces.append(
            RunTrace(
                seed=seed,
                t=at[rows],
                values=values[k, rows],
                final_state=final[k],
                max_grad_sq=float(max_grad_sq[k]),
                max_state_norm=float(np.sqrt(max_norm_sq[k])),
                aborted=bool(end[k] <= T),
                abort_t=int(end[k]) if end[k] <= T else None,
            )
        )
    return traces


@dataclass
class MonteCarlo:
    """Aggregate of the runs ``monte_carlo`` made, one per seed.

    Aborted runs stay in ``traces`` and count in no statistic: ``values``
    stacks the completed runs' trace rows alone, (completed, len(t), 4) over
    the TRACE_COLUMNS at the recorded iterations ``t``, and ``mean``,
    ``stderr``, ``K``, ``state_norm_bound``, ``gamma`` and ``q0_estimate``
    are taken over those runs.  ``mean`` and ``stderr`` are (len(t), 4);
    ``K`` and ``state_norm_bound`` are the largest ``max_grad_sq`` and
    ``max_state_norm``, and ``gamma`` is the noise level that bound gives.
    """

    traces: list[RunTrace]
    t: np.ndarray
    values: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    completed: int
    aborted: int
    K: float
    state_norm_bound: float
    gamma: float

    def q0_estimate(self, T0: int) -> float:
        """Mean squared error of the weighted mean state at iteration T0,
        E||xbar(T0) - x*||^2, recovered from the recorded columns (the
        r-weighted distance splits exactly into consensus plus mean parts).
        """
        idx = np.flatnonzero(self.t == T0)
        if not idx.size:
            raise ValueError(f"T0 = {T0} is not a recorded iteration")
        idx = idx[0]
        dev, dist = TRACE_COLUMNS.index("deviation_sq"), TRACE_COLUMNS.index("dist_opt_sq")
        return max(float(np.mean(self.values[:, idx, dist] - self.values[:, idx, dev])), 0.0)


def monte_carlo(
    cfg: RunConfig, num_runs: int, seed: int, jobs: int = 1, at=None
) -> MonteCarlo:
    """Run ``num_runs`` seeded trajectories and aggregate their columns at
    the iterations ``at`` (all of them when omitted).

    The seeds split into contiguous chunks of equal size, at most ``jobs``
    and at most one per CPU this process may run on.  A single chunk runs in
    this process as one batch; more run one per worker process.  The traces
    are identical either way, because each one is a pure function of its seed.
    """
    if num_runs < 1:
        raise ValueError("need at least one run")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    jobs = min(jobs, cpus)
    seeds = [seed + k for k in range(num_runs)]
    size = -(-num_runs // jobs)
    chunks = [seeds[i : i + size] for i in range(0, num_runs, size)]
    if len(chunks) > 1:
        # Loaded here: concurrent.futures pulls in multiprocessing, which
        # would otherwise add to every command's start-up.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            parts = pool.map(run, [cfg] * len(chunks), chunks, [at] * len(chunks))
            traces = [tr for part in parts for tr in part]
    else:
        traces = run(cfg, seeds, at)

    good = [tr for tr in traces if not tr.aborted]
    if not good:
        raise RuntimeError(
            f"all {num_runs} runs diverged (first abort at t = {min(tr.abort_t for tr in traces)})"
        )
    stacked = np.stack([tr.values for tr in good])
    if len(good) > 1:
        stderr = stacked.std(axis=0, ddof=1) / np.sqrt(len(good))
    else:
        stderr = np.zeros(stacked.shape[1:])
    norm_bound = max(tr.max_state_norm for tr in good)
    return MonteCarlo(
        traces=traces,
        t=good[0].t.copy(),
        values=stacked,
        mean=stacked.mean(axis=0),
        stderr=stderr,
        completed=len(good),
        aborted=len(traces) - len(good),
        K=max(tr.max_grad_sq for tr in good),
        state_norm_bound=norm_bound,
        gamma=noise_variance_bound(cfg.noise, cfg.problem.d, state_norm_bound=norm_bound),
    )

