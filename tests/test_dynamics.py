from dataclasses import replace

import numpy as np
import pytest

from dimix import dynamics
from dimix.analysis import StepSchedule, deviation_sq, dist_opt_sq, weighted_mean
from dimix.dynamics import (
    DIVERGENCE_LIMIT,
    MonteCarlo,
    RunConfig,
    RunTrace,
    monte_carlo,
    run,
)
from dimix.noise import noise_variance_bound
from dimix.objective import build_problem
from dimix.rng import fill, philox
from dimix.topology import fixed_cycle_schedule, gossip_schedule, matrix_list_schedule

from conftest import random_weights
from helpers import col, gaussian_channel, model, noiseless, stochastic_quantizer, with_weights
from oracles import neighbor_estimate, step, step_matrix

DEFAULT_STEPS = StepSchedule(alpha0=0.1, nu=0.25, beta0=0.7, mu=0.75)


def quadratic_model(n: int, d: int, seed: int, r, points: int = 30):
    """n independent well-conditioned local quadratics from synthetic data."""
    rng = philox(seed)
    Us, vs = [], []
    for _ in range(n):
        Us.append(rng.random((points, d)) + 0.2)
        vs.append(rng.random(points))
    return model(Us, vs, r)


def simple_config(n=3, d=4, T=30, noise=None, steps=DEFAULT_STEPS, seed=0):
    if n == 1:
        schedule = matrix_list_schedule([np.ones((1, 1))])
    else:
        schedule = fixed_cycle_schedule(random_weights(philox(seed + 1), n))
    return RunConfig(
        problem=quadratic_model(n, d, seed, schedule.r),
        schedule=schedule,
        steps=steps,
        T=T,
        noise=noise or noiseless(),
    )


class TestRunConfig:
    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            simple_config(T=0)

    def test_rejects_agent_count_mismatch(self):
        cfg = simple_config(n=3)
        with pytest.raises(ValueError, match="local objectives"):
            RunConfig(
                problem=quadratic_model(2, 4, 0, np.full(2, 0.5)),
                schedule=cfg.schedule,
                steps=cfg.steps,
                T=10,
            )

    def test_rejects_x_star_shape(self):
        cfg = simple_config(d=4)
        with pytest.raises(ValueError, match="x_star"):
            RunConfig(
                problem=replace(cfg.problem, x_star=np.zeros(5)),
                schedule=cfg.schedule,
                steps=cfg.steps,
                T=10,
            )

    def test_rejects_weight_disagreement(self, default_problem):
        other = gossip_schedule(random_weights(philox(99), 20))
        with pytest.raises(ValueError, match="weights"):
            RunConfig(problem=default_problem, schedule=other, steps=DEFAULT_STEPS, T=10)

    def test_weight_check_is_absolute(self):
        # r[0] off by 1e-9 is past atol = 1e-12; a relative tolerance of
        # 1e-5 would let it through.
        true = build_problem(n=4, d=5, N=40, seed=3)
        shifted = true.r.copy()
        shifted[0] += 1e-9
        problem = build_problem(n=4, d=5, N=40, seed=3, r=shifted)
        with pytest.raises(ValueError, match="weights disagree"):
            RunConfig(problem=problem, schedule=gossip_schedule(true.r), steps=DEFAULT_STEPS, T=10)
        RunConfig(problem=true, schedule=gossip_schedule(true.r), steps=DEFAULT_STEPS, T=10)

    def test_dimension(self):
        assert simple_config(d=7).problem.d == 7

    def test_rejects_weights_the_matrices_do_not_preserve(self):
        # The third slot moves weight from agent 1 to agent 2: r'W(3) - r
        # reaches 1/3 * 0.01 for uniform r.
        skewed = np.array([[0.99, 0.01, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        schedule = with_weights([CYCLE, np.eye(3), skewed], np.full(3, 1 / 3))
        problem = build_problem(n=3, d=4, N=12, seed=5, r=schedule.r)
        with pytest.raises(ValueError, match=r"not left-stationary: max \|r'W\(s\) - r\| = 0.00333"):
            RunConfig(problem=problem, schedule=schedule, steps=DEFAULT_STEPS, T=10)
        # The same r passes on the matrices it is stationary for.
        RunConfig(
            problem=problem,
            schedule=with_weights([CYCLE, np.eye(3)], np.full(3, 1 / 3)),
            steps=DEFAULT_STEPS,
            T=10,
        )


class TestSingleTrajectory:
    def test_starts_from_zero(self):
        cfg = simple_config(T=1)
        trace = run(cfg, [5])[0]
        assert trace.t.tolist() == [1]
        np.testing.assert_array_equal(trace.final_state, np.zeros((3, 4)))
        assert col(trace.values, "deviation_sq")[0] == 0.0
        assert col(trace.values, "dist_opt_sq")[0] == pytest.approx(
            float(np.sum(cfg.problem.x_star**2))
        )

    def test_no_seeds_rejected(self):
        with pytest.raises(ValueError, match="need at least one seed"):
            run(simple_config(T=5), [])

    def test_first_row_metrics_at_zero_state(self, default_problem):
        p = default_problem
        sched = fixed_cycle_schedule(p.r)
        cfg = RunConfig(problem=p, schedule=sched, steps=DEFAULT_STEPS, T=3)
        trace = run(cfg, [1])[0]
        assert col(trace.values, "loss_pooled")[0] == pytest.approx(p.pooled_loss(np.zeros(25)))
        at_zero = [np.mean(p.v[idx] ** 2) / 2 for idx in p.shards]  # f_i(0)
        assert col(trace.values, "loss_weighted")[0] == pytest.approx(
            float(np.dot(p.r, at_zero)), rel=1e-12
        )

    def test_final_row_matches_final_state(self):
        cfg = simple_config(T=40)
        trace = run(cfg, [2])[0]
        r = cfg.schedule.r
        assert col(trace.values, "dist_opt_sq")[-1] == pytest.approx(
            dist_opt_sq(trace.final_state, r, cfg.problem.x_star), rel=1e-12
        )
        assert col(trace.values, "deviation_sq")[-1] == pytest.approx(
            deviation_sq(trace.final_state, r), rel=1e-12
        )

    def test_trace_length_and_column_access(self):
        trace = run(simple_config(T=17), [3])[0]
        assert trace.t.size == 17
        assert col(trace.values, "loss_weighted").size == 17

    def test_noiseless_runs_identical_across_seeds(self):
        cfg = simple_config(T=25)
        a = run(cfg, [1])[0]
        b = run(cfg, [2])[0]
        np.testing.assert_array_equal(a.final_state, b.final_state)


class TestBatchedEstimates:
    """The production path computes all neighbor estimates in one shot; it
    must consume randomness and produce values like n sequential single-agent
    estimates."""

    @pytest.mark.parametrize("noise", [
        noiseless(),
        gaussian_channel(0.3),
        stochastic_quantizer(4),
    ], ids=["noiseless", "gaussian", "quantizer"])
    @pytest.mark.parametrize("n", [1, 3, 20])
    def test_matches_per_agent_loop(self, n, noise):
        d = 5
        if n == 1:
            schedule = matrix_list_schedule([np.ones((1, 1))])
        else:
            schedule = gossip_schedule(random_weights(philox(n), n))
        p = quadratic_model(n, d, n, schedule.r)
        cfg = RunConfig(problem=p, schedule=schedule, steps=DEFAULT_STEPS, T=12, noise=noise)

        fast = run(cfg, [31])[0]

        rng = philox(31)
        X = np.zeros((n, d))
        for t in range(1, 12):
            W = schedule.matrices[(t - 1) % schedule.B]
            Xhat = np.stack(
                [neighbor_estimate(X, W[i], noise, rng) for i in range(n)]
            )
            G = np.stack([p.H[i] @ X[i] - p.b[i] for i in range(n)])
            a_t = float(DEFAULT_STEPS.alpha(t))
            b_t = float(DEFAULT_STEPS.beta(t))
            X = X + b_t * (Xhat - X) - a_t * b_t * G
        np.testing.assert_allclose(fast.final_state, X, atol=1e-13)

    def test_zero_message_row_draws_like_the_oracle(self):
        # Agent 1 has zero labels, so b_1 = 0 and x_1(2) = alpha beta b_1 = 0:
        # at t = 2 it sends a zero row, which still takes its d uniforms.
        pick = philox(3)
        schedule = fixed_cycle_schedule(random_weights(philox(4), 3))
        Us = [pick.random((5, 4)) + 0.2 for _ in range(3)]
        vs = [pick.random(5), np.zeros(5), pick.random(5)]
        p = model(Us, vs, schedule.r)
        cfg = RunConfig(problem=p, schedule=schedule, steps=DEFAULT_STEPS, T=6, noise=stochastic_quantizer(3))
        trace = run(cfg, [8])[0]
        rng = philox(8)
        X = np.zeros((3, 4))
        dist = [dist_opt_sq(X, p.r, p.x_star)]
        for t in range(1, 6):
            X = step(X, t, cfg, rng)
            dist.append(dist_opt_sq(X, p.r, p.x_star))
            if t == 1:
                assert not X[1].any() and X[[0, 2]].all()
        np.testing.assert_allclose(trace.final_state, X, atol=5e-14)
        np.testing.assert_allclose(col(trace.values, "dist_opt_sq"), dist, rtol=1e-12)

    def test_step_agrees_with_run(self):
        cfg = simple_config(T=6, noise=stochastic_quantizer(3))
        full = run(cfg, [8])[0]
        rng = philox(8)
        X = np.zeros((3, 4))
        for t in range(1, 6):
            X = step(X, t, cfg, rng)
        np.testing.assert_allclose(full.final_state, X, atol=5e-14)


def small_instance_config(family, noise, T):
    p = build_problem(n=4, d=3, N=20, seed=5)
    schedule = gossip_schedule(p.r) if family == "gossip" else fixed_cycle_schedule(p.r)
    return RunConfig(problem=p, schedule=schedule, steps=DEFAULT_STEPS, T=T, noise=noise)


def divergent_config():
    # A huge transmission noise makes the very first update cross the
    # divergence limit for some seeds only.
    return simple_config(n=3, d=2, T=8, noise=gaussian_channel(2.0 * DIVERGENCE_LIMIT))


def divergent_quantizer_config():
    # A one-level quantizer and large gradient steps: seeds 7-26 abort at
    # t = 30 and 31, except seed 18, which survives.
    steps = StepSchedule(alpha0=12.0, nu=0.05, beta0=1.0, mu=0.5)
    return simple_config(n=3, d=2, T=31, noise=stochastic_quantizer(1), steps=steps)


def repeat_divergence_config():
    # A slowly decaying Gaussian channel near the divergence limit: seeds
    # 7-26 abort at t = 3 to 12 and seeds 8, 12 and 21 survive.  Eleven
    # reset rows cross the limit again before T (seed 20's at t = 5, two
    # after its abort), which must move neither abort_t nor the maxima.
    steps = StepSchedule(alpha0=0.1, nu=0.25, beta0=0.7, mu=0.1)
    return simple_config(n=3, d=2, T=12, noise=gaussian_channel(1.3 * DIVERGENCE_LIMIT), steps=steps)


def assert_same_trace(a, b):
    assert a.seed == b.seed
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.final_state, b.final_state)
    assert (a.max_grad_sq, a.max_state_norm, a.aborted, a.abort_t) == (
        b.max_grad_sq, b.max_state_norm, b.aborted, b.abort_t
    )


class TestBatchInvariance:
    """A trace is a pure function of (config, seed): bit-identical whichever
    seeds share its batch and however monte_carlo splits them over jobs."""

    @staticmethod
    def check(cfg):
        seeds = list(range(7, 27))
        whole = run(cfg, seeds)
        fives = [tr for k in range(0, 20, 5) for tr in run(cfg, seeds[k : k + 5])]
        ones = [run(cfg, [s])[0] for s in seeds]
        serial = monte_carlo(cfg, 20, seed=7, jobs=1).traces
        parallel = monte_carlo(cfg, 20, seed=7, jobs=2).traces
        for other in (fives, ones, serial, parallel):
            assert len(other) == len(whole)
            for a, b in zip(whole, other):
                assert_same_trace(a, b)

    @pytest.mark.parametrize("noise", [
        noiseless(),
        gaussian_channel(0.3),
        stochastic_quantizer(4),
    ], ids=["noiseless", "gaussian", "quantizer"])
    @pytest.mark.parametrize("family", ["fixed_cycle", "gossip"])
    def test_batch_sizes_and_jobs_agree(self, family, noise):
        self.check(small_instance_config(family, noise, 30))

    def test_partial_divergence_batches_agree(self):
        for cfg in (divergent_config(), divergent_quantizer_config(), repeat_divergence_config()):
            # Survivors are shown untouched only if a seed ahead of them aborts.
            aborted = [tr.aborted for tr in run(cfg, range(7, 27))]
            assert False in aborted[aborted.index(True) + 1 :]
            self.check(cfg)


def set_chunk(monkeypatch, cfg, R, rows):
    """Make ``run`` hold ``rows`` iterations per chunk at R seeds."""
    monkeypatch.setattr(dynamics, "CHUNK_BYTES", rows * 16 * R * cfg.problem.n * cfg.problem.d)


class TestChunkInvariance:
    """``run`` evaluates the diagnostics of recorded states, and draws the
    noise, a chunk at a time; the chunk length must not change a bit of any
    trace."""

    @staticmethod
    def check(monkeypatch, cfg, seeds=range(7, 27), chunks=(1, 3)):
        seeds = list(seeds)
        by_rows = {}
        for rows in (*chunks, cfg.T + 5):
            set_chunk(monkeypatch, cfg, len(seeds), rows)
            by_rows[rows] = run(cfg, seeds)
        whole = by_rows.pop(1)
        for other in by_rows.values():
            for a, b in zip(whole, other, strict=True):
                assert_same_trace(a, b)
        return whole

    @pytest.mark.parametrize("noise", [
        noiseless(),
        gaussian_channel(0.3),
        stochastic_quantizer(4),
    ], ids=["noiseless", "gaussian", "quantizer"])
    @pytest.mark.parametrize("family", ["fixed_cycle", "gossip"])
    def test_chunk_lengths_agree(self, monkeypatch, family, noise):
        self.check(monkeypatch, small_instance_config(family, noise, 11))

    def test_aborts_in_mid_chunk(self, monkeypatch):
        for cfg in (divergent_config(), divergent_quantizer_config(), repeat_divergence_config()):
            traces = self.check(monkeypatch, cfg)
            # Seeds abort at several iterations, survivors run to T.
            abort_ts = {tr.abort_t for tr in traces}
            assert None in abort_ts and len(abort_ts - {None, 2}) >= 2

    def test_single_iteration(self, monkeypatch):
        self.check(monkeypatch, small_instance_config("gossip", stochastic_quantizer(4), 1))

    def test_single_gaussian_iteration(self, monkeypatch):
        # T = 1 draws nothing, yet the channel's message buffers are built.
        traces = self.check(monkeypatch, small_instance_config("gossip", gaussian_channel(0.3), 1))
        assert [tr.t.tolist() for tr in traces] == [[1]] * 20

    def test_zero_state_quantizer_draws_in_lockstep(self, monkeypatch):
        # Zero data keeps every state at zero; the zero rows still draw.
        schedule = gossip_schedule(np.full(4, 0.25))
        cfg = TestConservationLaws().zero_gradient_config(schedule, T=9)
        cfg = replace(cfg, noise=stochastic_quantizer(4))
        gens = []

        def tracked_philox(seed):
            gens.append(philox(seed))
            return gens[-1]

        monkeypatch.setattr(dynamics, "philox", tracked_philox)
        for tr in self.check(monkeypatch, cfg, seeds=range(3)):
            assert not tr.values.any() and not tr.final_state.any()
        # One run per chunk length, each with seeds 0, 1, 2: every generator
        # drew d values per message at t = 2 .. T - 1, none at t = 1.
        (q,) = {int(k) for k in (schedule.matrices > 0.0).sum(axis=(1, 2))}  # messages per slot
        assert len(gens) == 9
        for k, g in enumerate(gens):
            fresh = philox(k % 3)
            fresh.random((cfg.T - 2) * q * cfg.problem.d)
            assert g.random() == fresh.random()


CYCLE = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])


def gaps_config(noise, T=13):
    """[cycle, I, I] on three agents: each seed takes 6 d values at a cycle
    slot and 3 d at an identity slot."""
    schedule = matrix_list_schedule([CYCLE, np.eye(3), np.eye(3)])
    p = build_problem(n=3, d=4, N=12, seed=5, r=schedule.r)
    return RunConfig(problem=p, schedule=schedule, steps=DEFAULT_STEPS, T=T, noise=noise)


BLOCK_CONFIGS = {
    **{
        f"{family}-{label}": (lambda family=family, noise=noise: small_instance_config(family, noise, 11))
        for family in ("fixed_cycle", "gossip")
        for label, noise in (("gaussian", gaussian_channel(0.3)), ("quantizer", stochastic_quantizer(4)))
    },
    "divergent": divergent_config,
    "divergent-quantizer": divergent_quantizer_config,
    "divergent-repeat": repeat_divergence_config,
    "gaps-gaussian": lambda: gaps_config(gaussian_channel(0.3)),
    "gaps-quantizer": lambda: gaps_config(stochastic_quantizer(4)),
}


def iteration_values(cfg):
    """Values one seed takes per iteration: d per message, zero rows
    included, and none at t = 1 for the quantizer, where X(1) = 0."""
    W = cfg.schedule.matrices
    per_slot = (W > 0.0).sum(axis=(1, 2)) * cfg.problem.d
    sizes = per_slot[np.arange(cfg.T - 1) % len(W)]
    if cfg.noise.kind == "stochastic_quantizer":
        sizes[:1] = 0
    return sizes


class TestDrawBlockInvariance:
    """Noise is drawn a chunk of iterations at a time; neither the chunk
    length nor the iterations recorded may change a bit of any trace."""

    SEEDS = list(range(7, 27))

    @pytest.mark.parametrize("name", BLOCK_CONFIGS)
    def test_block_lengths_agree(self, monkeypatch, name):
        TestChunkInvariance.check(monkeypatch, BLOCK_CONFIGS[name](), self.SEEDS, chunks=(1, 2, 3))

    @pytest.mark.parametrize("name", [n for n in BLOCK_CONFIGS if not n.startswith("divergent")])
    @pytest.mark.parametrize("block", ["one", "two", "default"])
    def test_draws_exactly_what_is_consumed(self, monkeypatch, name, block):
        cfg = BLOCK_CONFIGS[name]()
        if block != "default":
            set_chunk(monkeypatch, cfg, 3, 1 if block == "one" else 2)
        gens = []

        def tracked_philox(seed):
            gens.append(philox(seed))
            return gens[-1]

        monkeypatch.setattr(dynamics, "philox", tracked_philox)
        traces = run(cfg, range(3))
        assert not any(tr.aborted for tr in traces) and len(gens) == 3
        total = int(iteration_values(cfg).sum())
        for seed, g in enumerate(gens):
            fresh = philox(seed)
            if cfg.noise.kind == "gaussian_channel":
                fresh.standard_normal(total)
            else:
                fresh.random(total)
            assert g.random(4).tolist() == fresh.random(4).tolist()

    @pytest.mark.parametrize("name", BLOCK_CONFIGS)
    def test_recorded_rows_match_full_run(self, monkeypatch, name):
        cfg = BLOCK_CONFIGS[name]()
        pick = philox(61)
        subsets = [[cfg.T], [1], list(range(1, cfg.T + 1, 3)), []]
        subsets += [pick.choice(np.arange(1, cfg.T + 1), size=k, replace=False) for k in (2, 5)]
        for rows in (1, 3, cfg.T + 5):
            set_chunk(monkeypatch, cfg, len(self.SEEDS), rows)
            full = run(cfg, self.SEEDS)
            for at in subsets:
                for a, b in zip(full, run(cfg, self.SEEDS, at), strict=True):
                    keep = np.isin(a.t, at)
                    assert b.t.tolist() == a.t[keep].tolist()
                    assert b.values.tobytes() == a.values[keep].tobytes()
                    np.testing.assert_array_equal(a.final_state, b.final_state)
                    assert (a.max_grad_sq, a.max_state_norm, a.aborted, a.abort_t) == (
                        b.max_grad_sq, b.max_state_norm, b.aborted, b.abort_t
                    )

    def test_rejects_iterations_outside_horizon(self):
        cfg = simple_config(T=5)
        for at in ([0, 3], [6]):
            with pytest.raises(ValueError, match="recorded iterations"):
                run(cfg, [0], at)


class TestFill:
    """``fill`` gives each seed the values of one call per slice, however
    the draws are split."""

    @pytest.mark.parametrize("trial", range(6))
    def test_matches_one_call_per_take(self, trial):
        pick = philox(70, trial)
        R, steps = int(pick.integers(1, 5)), int(pick.integers(1, 30))
        sizes = pick.integers(0, 12, size=steps)
        scale = [None, 0.7][trial % 2]
        gens, refs = [philox(trial, k) for k in range(R)], [philox(trial, k) for k in range(R)]
        buf = np.empty((R, 2 * int(sizes.max()) + 1))
        for m in sizes:
            lo = int(pick.integers(0, buf.shape[1] - m + 1))  # a slice of a wider row
            fill(gens, buf[:, lo : lo + m], scale)
            for g, vals in zip(refs, buf[:, lo : lo + m], strict=True):
                want = g.random(m) if scale is None else g.normal(0.0, scale, m)
                assert vals.tobytes() == want.tobytes()
        # Every seed drew the sum of the sizes, no more.
        for g, ref in zip(gens, refs, strict=True):
            assert g.random() == ref.random()

    def test_normals_are_loc_plus_scaled_values(self):
        # Generator.normal returns loc + scale * z: at loc 0 a z of -0.0
        # gives +0.0, not the -0.0 of scale * z alone.
        class Fixed:
            def standard_normal(self, out):
                out[:] = [-0.0, 1.5, -2.0]
                return out

        vals = np.empty((1, 3))
        fill([Fixed()], vals, scale=0.25)
        assert vals[0].tobytes() == np.array([0.0, 0.375, -0.5]).tobytes()


class TestExactExpectation:
    """The update is affine in X and every noise model is conditionally
    unbiased, so E[X(T)] equals the noiseless trajectory's X(T) exactly."""

    @pytest.mark.parametrize("noise", [gaussian_channel(0.5), stochastic_quantizer(2)],
                             ids=["gaussian", "quantizer"])
    @pytest.mark.parametrize("family", ["fixed_cycle", "gossip"])
    def test_mean_final_state_is_noiseless_state(self, family, noise):
        T = 12
        exact = run(small_instance_config(family, noiseless(), T), [0])[0].final_state
        traces = run(small_instance_config(family, noise, T), range(400))
        assert not any(tr.aborted for tr in traces)
        finals = np.stack([tr.final_state for tr in traces])
        se = finals.std(axis=0, ddof=1) / np.sqrt(len(traces))
        assert np.all(se > 0.0)
        assert np.all(np.abs(finals.mean(axis=0) - exact) <= 4.0 * se)


class TestStepMatrix:
    def test_incremental_form_equivalence(self):
        # The driver applies X + beta (Xhat - X) - alpha beta G; replaying the
        # same step through the explicit matrix form with E = Xhat - W X must
        # land on the same state.
        cfg = simple_config(n=4, d=3, noise=gaussian_channel(0.2))
        rng = philox(21)
        X = philox(22).normal(size=(4, 3))
        t = 5
        W = cfg.schedule.matrices[(t - 1) % cfg.schedule.B]
        Xhat = np.stack(
            [neighbor_estimate(X, W[i], cfg.noise, rng) for i in range(4)]
        )
        p = cfg.problem
        G = np.stack([p.H[i] @ X[i] - p.b[i] for i in range(4)])
        a_t, b_t = float(cfg.steps.alpha(t)), float(cfg.steps.beta(t))
        incremental = X + b_t * (Xhat - X) - a_t * b_t * G
        explicit = step_matrix(X, W, Xhat - W @ X, G, a_t, b_t)
        np.testing.assert_allclose(explicit, incremental, atol=1e-13)

    def test_zero_perturbation_zero_gradient_is_mixing(self):
        X = philox(23).normal(size=(3, 2))
        W = fixed_cycle_schedule(np.full(3, 1 / 3)).matrices[0]
        out = step_matrix(X, W, np.zeros_like(X), np.zeros_like(X), 0.1, 0.5)
        np.testing.assert_allclose(out, 0.5 * X + 0.5 * (W @ X))


class TestConservationLaws:
    def zero_gradient_config(self, schedule, T, d=4):
        n = schedule.n
        # Zero data rows give H = 0 and b = 0: the dynamics reduce to mixing.
        problem = model(
            [np.zeros((2, d))] * n, [np.zeros(2)] * n, schedule.r, x_star=np.zeros(d)
        )
        return RunConfig(
            problem=problem,
            schedule=schedule,
            steps=StepSchedule(alpha0=0.1, nu=0.25, beta0=1.0, mu=0.01),
            T=T,
        )

    def test_weighted_mean_invariant_without_gradients_or_noise(self):
        rng = philox(41)
        for schedule in (
            fixed_cycle_schedule(random_weights(rng, 6)),
            gossip_schedule(random_weights(rng, 5)),
        ):
            cfg = self.zero_gradient_config(schedule, T=60)
            X = philox(42).normal(size=(schedule.n, 4))
            mean0 = weighted_mean(X, schedule.r)
            for t in range(1, 50):
                X = step(X, t, cfg, philox(0))
                drift = np.max(np.abs(weighted_mean(X, schedule.r) - mean0))
                assert drift <= 1e-12

    @pytest.mark.parametrize("n", [3, 5])
    def test_consensus_under_pure_gossip(self, n):
        schedule = gossip_schedule(random_weights(philox(43), n))
        cfg = self.zero_gradient_config(schedule, T=200 * n)
        X = philox(44).normal(size=(n, 4))
        xbar1 = weighted_mean(X, schedule.r)
        sq = lambda Y: dist_opt_sq(Y, schedule.r, xbar1)
        initial = sq(X)
        prev = initial
        for t in range(1, 200 * n):
            X = step(X, t, cfg, philox(0))
            now = sq(X)
            assert now <= prev * (1 + 1e-12) + 1e-15
            prev = now
        assert prev <= 1e-8 * initial


class TestDivergenceHandling:
    def unstable_config(self, T=20):
        return simple_config(
            n=3, d=4, T=T,
            steps=StepSchedule(alpha0=1e8, nu=0.25, beta0=1.0, mu=0.75),
        )

    def test_abort_flags_and_truncation(self):
        trace = run(self.unstable_config(), [1])[0]
        assert trace.aborted
        assert trace.abort_t is not None and trace.abort_t <= 20
        # Recording stops at the last finite iterate.
        assert trace.t.size == trace.abort_t - 1
        assert np.all(np.isfinite(col(trace.values, "dist_opt_sq")))
        assert trace.t.size < 20

    def test_all_diverged_raises(self):
        cfg = self.unstable_config()
        traces = run(cfg, range(3))
        first = min(tr.abort_t for tr in traces)
        message = rf"^all 3 runs diverged \(first abort at t = {first}\)$"
        with pytest.raises(RuntimeError, match=message):
            monte_carlo(cfg, 3, seed=0)
        with pytest.raises(RuntimeError, match=message):
            MonteCarlo(cfg, traces)

    def test_partial_divergence_excluded_from_stats(self):
        # Some seeds abort at the very first update; the survivors carry
        # the statistics.
        mc = monte_carlo(divergent_config(), 12, seed=7)
        assert 0 < mc.aborted < 12
        assert mc.completed == 12 - mc.aborted
        assert len(mc.traces) == 12
        for name in ("loss_weighted", "dist_opt_sq"):
            assert col(mc.mean, name).size == 8
            assert np.all(np.isfinite(col(mc.mean, name)))
        good = [tr for tr in mc.traces if not tr.aborted]
        manual = np.mean([col(tr.values, "dist_opt_sq") for tr in good], axis=0)
        np.testing.assert_allclose(col(mc.mean, "dist_opt_sq"), manual, rtol=1e-12)

    def test_diverged_rows_are_reset_before_they_are_quantized(self, monkeypatch):
        # Seeds 7-26 abort at t = 30 and 31 while seed 18 runs on: an
        # aborted row that kept its state would reach the quantizer past the
        # limit.
        quantize, largest = dynamics.stochastic_quantize, []

        def watched(x, *args):
            largest.append(np.abs(x).max())
            return quantize(x, *args)

        monkeypatch.setattr(dynamics, "stochastic_quantize", watched)
        run(divergent_quantizer_config(), range(7, 27))
        assert largest and max(largest) <= DIVERGENCE_LIMIT


class TestMonteCarlo:
    def test_seeds_are_base_plus_offset(self):
        mc = monte_carlo(simple_config(T=5), 3, seed=100)
        assert [tr.seed for tr in mc.traces] == [100, 101, 102]

    def test_parallel_equals_serial(self):
        cfg = simple_config(T=20, noise=stochastic_quantizer(4))
        serial = monte_carlo(cfg, 4, seed=11, jobs=1)
        parallel = monte_carlo(cfg, 4, seed=11, jobs=2)
        for a, b in zip(serial.traces, parallel.traces):
            assert a.seed == b.seed
            np.testing.assert_array_equal(a.final_state, b.final_state)
            np.testing.assert_array_equal(
                col(a.values, "dist_opt_sq"), col(b.values, "dist_opt_sq")
            )
        np.testing.assert_array_equal(
            col(serial.mean, "loss_weighted"), col(parallel.mean, "loss_weighted")
        )

    def test_one_chunk_runs_without_a_pool(self, monkeypatch):
        # One run makes one chunk whatever the jobs: no worker is started.
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started for one chunk")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        cfg = simple_config(T=20, noise=stochastic_quantizer(4))
        pooled, serial = monte_carlo(cfg, 1, seed=3, jobs=2), monte_carlo(cfg, 1, seed=3, jobs=1)
        assert_same_trace(pooled.traces[0], serial.traces[0])
        np.testing.assert_array_equal(pooled.mean, serial.mean)

    def test_jobs_are_capped_at_the_usable_cpus(self, monkeypatch):
        # Two usable CPUs: jobs = 8 over 8 runs makes 2 chunks and 2
        # workers, not 8.  The fake pool maps in this process.
        import concurrent.futures

        started = []

        class InProcessPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(dynamics.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg = simple_config(T=20, noise=stochastic_quantizer(4))
        capped, serial = monte_carlo(cfg, 8, seed=5, jobs=8), monte_carlo(cfg, 8, seed=5, jobs=1)
        assert started == [2]
        for a, b in zip(capped.traces, serial.traces, strict=True):
            assert_same_trace(a, b)
        np.testing.assert_array_equal(capped.mean, serial.mean)

    def test_stderr_zero_for_single_or_identical_runs(self):
        cfg = simple_config(T=10)
        one = monte_carlo(cfg, 1, seed=0)
        assert np.all(col(one.stderr, "dist_opt_sq") == 0.0)
        several = monte_carlo(cfg, 3, seed=0)  # noiseless: identical
        scale = np.max(col(several.mean, "dist_opt_sq"))
        assert np.all(col(several.stderr, "dist_opt_sq") <= 1e-15 * scale)

    def test_noisy_stderr_positive(self):
        cfg = simple_config(T=10, noise=stochastic_quantizer(2))
        mc = monte_carlo(cfg, 5, seed=3)
        assert np.any(col(mc.stderr, "dist_opt_sq")[1:] > 0.0)

    def test_q0_estimate_recovers_mean_error(self):
        cfg = simple_config(T=30, noise=stochastic_quantizer(4))
        mc = monte_carlo(cfg, 6, seed=19)
        manual = np.mean(
            [
                col(tr.values, "dist_opt_sq")[14] - col(tr.values, "deviation_sq")[14]
                for tr in mc.traces
            ]
        )
        assert mc.q0_estimate(15) == pytest.approx(max(manual, 0.0), rel=1e-12)
        with pytest.raises(ValueError):
            mc.q0_estimate(31)
        with pytest.raises(ValueError):
            mc.q0_estimate(0)

    def test_q0_estimate_reads_recorded_iterations_only(self):
        cfg = simple_config(T=30, noise=stochastic_quantizer(4))
        full = monte_carlo(cfg, 4, seed=19)
        mc = monte_carlo(cfg, 4, seed=19, at=[10, 15, 30])
        assert mc.t.tolist() == [10, 15, 30]
        assert mc.q0_estimate(15) == full.q0_estimate(15)
        np.testing.assert_array_equal(mc.mean, full.mean[[9, 14, 29]])
        for T0 in (14, 16, 1):
            with pytest.raises(ValueError, match="not a recorded iteration"):
                mc.q0_estimate(T0)

    def test_q0_estimate_clamps_cancellation_noise(self):
        trace = RunTrace(
            seed=0, t=np.array([1]),
            values=np.array([[0.0, 0.0, 1.0, 1.0 - 1e-18]]),
            final_state=np.zeros((1, 1)), max_grad_sq=0.0, max_state_norm=0.0,
        )
        mc = MonteCarlo(simple_config(T=1), [trace])
        assert mc.q0_estimate(1) == 0.0

    def test_rejects_empty_request(self):
        with pytest.raises(ValueError):
            monte_carlo(simple_config(T=5), 0, seed=0)

    def test_statistics_read_the_completed_runs(self):
        # Seeds 90-113: 9 runs complete and 15 abort, truncated traces and all.
        cfg = divergent_config()
        mc = monte_carlo(cfg, 24, seed=90)
        # The statistics are a function of the traces alone.
        built = MonteCarlo(cfg, run(cfg, range(90, 114)))
        for name in ("t", "values", "mean", "stderr", "completed", "aborted", "K", "state_norm_bound", "gamma"):
            assert np.asarray(getattr(built, name)).tobytes() == np.asarray(getattr(mc, name)).tobytes(), name
        good = [tr for tr in mc.traces if not tr.aborted]
        assert (mc.completed, mc.aborted, len(good)) == (9, 15, 9)
        stacked = np.stack([tr.values for tr in good])
        assert mc.values.shape == (9, 8, 4) and mc.values.tobytes() == stacked.tobytes()
        for k, T0 in enumerate(mc.t):
            errors = [col(tr.values, "dist_opt_sq")[k] - col(tr.values, "deviation_sq")[k] for tr in good]
            assert mc.q0_estimate(T0) == max(float(np.mean(errors)), 0.0)

    def test_gamma_is_the_noise_level_of_the_state_norm_bound(self):
        cfg = simple_config(T=20, noise=stochastic_quantizer(4))
        mc = monte_carlo(cfg, 3, seed=5)
        assert mc.gamma == noise_variance_bound(cfg.noise, cfg.problem.d, mc.state_norm_bound) > 0

    def test_maxima_cover_completed_runs_only(self):
        # Seeds 30-49: 17 of 20 runs abort, and an aborted run's maxima
        # reach past every completed run's, so it must not feed K or the bound.
        mc = monte_carlo(divergent_config(), 20, seed=30)
        assert (mc.completed, mc.aborted) == (3, 17)
        good = [tr for tr in mc.traces if not tr.aborted]
        assert mc.K == max(tr.max_grad_sq for tr in good) > 0
        assert mc.state_norm_bound == max(tr.max_state_norm for tr in good) > 0
        assert mc.K < max(tr.max_grad_sq for tr in mc.traces)
        assert mc.state_norm_bound < max(tr.max_state_norm for tr in mc.traces)


class TestGradientDescentReduction:
    def test_single_agent_noiseless_is_plain_gd(self):
        """With one agent and exact sharing the network update collapses to
        x <- x - alpha(t) beta(t) grad f(x); an independently coded loop must
        agree to near machine precision."""
        cfg = simple_config(n=1, d=6, T=2000)
        trace = run(cfg, [0])[0]

        H, b = cfg.problem.H[0], cfg.problem.b[0]
        x = np.zeros(6)
        steps = cfg.steps
        for t in range(1, 2000):
            x = x - steps.alpha(t) * steps.beta(t) * (H @ x - b)
        np.testing.assert_allclose(trace.final_state[0], x, atol=1e-12)

    def test_single_agent_converges_on_identity_hessian(self):
        d = 6
        target = philox(51).normal(size=d)
        schedule = matrix_list_schedule([np.ones((1, 1))])
        cfg = RunConfig(
            problem=model([np.eye(d)], [target], schedule.r, x_star=target),
            schedule=schedule,
            steps=StepSchedule(alpha0=1.0, nu=0.25, beta0=1.0, mu=0.01),
            T=2000,
        )
        trace = run(cfg, [0])[0]
        assert not trace.aborted
        dist = col(trace.values, "dist_opt_sq")
        assert dist[-1] <= 1e-12 * dist[0]
