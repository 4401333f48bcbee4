"""End-to-end acceptance checks for the whole package.

Every test prints one `criterion N: PASS/FAIL` line (bypassing capture, so
the verdicts always reach the terminal) and then asserts.  The two rate
checks (criteria 6 and 7) state the target windows literally; if the
measured slopes fall outside them the tests fail and say by how much.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from dimix.analysis import StepSchedule, fit_rate, theorem_bound, xi_constants
from dimix.cli import certificate
from dimix.dynamics import MonteCarlo, RunConfig, monte_carlo, run
from dimix.lemmas import run_suite
from dimix.objective import build_problem
from dimix.rng import philox
from dimix.topology import (
    fixed_cycle_schedule,
    gossip_schedule,
    matrix_list_schedule,
    validate_schedule,
)

from helpers import col, model, noiseless, stochastic_quantizer
from oracles import quantize

GRID = (500, 1000, 2000, 4000, 5000)
SECTION3_STEPS = StepSchedule(alpha0=0.1, nu=0.25, beta0=0.7, mu=0.75)


@pytest.fixture()
def verdict(capsys):
    def emit(num: int, ok: bool, detail: str) -> bool:
        with capsys.disabled():
            print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
        return ok

    return emit


@dataclass
class TimedMC:
    mc: MonteCarlo
    seconds: float


def _benchmark_mc(problem, family: str) -> TimedMC:
    schedule = (
        fixed_cycle_schedule(problem.r)
        if family == "fixed_cycle"
        else gossip_schedule(problem.r)
    )
    cfg = RunConfig(
        problem=problem, schedule=schedule, steps=SECTION3_STEPS, T=5000,
        noise=stochastic_quantizer(4),
    )
    t0 = time.monotonic()
    # Two workers: TestBatchInvariance shows the traces equal those of jobs=1.
    mc = monte_carlo(cfg, 20, seed=100, jobs=2)
    return TimedMC(mc, time.monotonic() - t0)


@pytest.fixture(scope="module")
def mc_fixed(default_problem):
    return _benchmark_mc(default_problem, "fixed_cycle")


@pytest.fixture(scope="module")
def mc_gossip(default_problem):
    return _benchmark_mc(default_problem, "gossip")


def test_criterion_1_stochasticity_invariants(default_problem, verdict):
    t0 = time.monotonic()
    worst_row = worst_stat = 0.0
    for family in (fixed_cycle_schedule, gossip_schedule):
        report = validate_schedule(family(default_problem.r), horizon=5000, window=None)
        worst_row = max(worst_row, report.max_row_sum_dev)
        worst_stat = max(worst_stat, report.max_stationarity_dev)
    elapsed = time.monotonic() - t0
    ok = worst_row <= 1e-12 and worst_stat <= 1e-12 and elapsed < 5.0
    assert verdict(
        1,
        ok,
        f"row-sum dev {worst_row:.2e}, stationarity dev {worst_stat:.2e}, "
        f"{elapsed:.2f} s over both families, t in [1, 5000]",
    )


def test_criterion_2_gossip_connectivity(default_problem, verdict):
    t0 = time.monotonic()
    schedule = gossip_schedule(default_problem.r)
    full = validate_schedule(schedule, horizon=200, window=20)
    short = validate_schedule(schedule, horizon=200, window=19)
    elapsed = time.monotonic() - t0
    ok = (
        full.passed
        and not full.connectivity_failures
        and len(short.connectivity_failures) >= 1
        and elapsed < 5.0
    )
    assert verdict(
        2,
        ok,
        f"window 20: all {full.windows_checked} windows connected; "
        f"window 19: {len(short.connectivity_failures)} of {short.windows_checked} fail; "
        f"{elapsed:.2f} s",
    )


def test_criterion_3_quantizer_moments(verdict):
    d, s, draws = 25, 4, 100_000
    coeff = min(np.sqrt(d) / s, d / s**2)
    rng = philox(11)
    t0 = time.monotonic()
    worst_mean_z = worst_moment_z = -np.inf
    for _ in range(10):
        x = rng.normal(size=d) * 10.0 ** rng.uniform(-1.0, 1.0)
        tiled = np.tile(x, (draws, 1))
        err = quantize(tiled, s, rng) - x

        se_mean = err.std(axis=0, ddof=1) / np.sqrt(draws)
        mean_z = np.abs(err.mean(axis=0)) - 4.0 * se_mean
        worst_mean_z = max(worst_mean_z, float(mean_z.max()))

        sq = np.sum(err**2, axis=1)
        se_sq = sq.std(ddof=1) / np.sqrt(draws)
        bound = coeff * float(np.dot(x, x))
        worst_moment_z = max(worst_moment_z, float(sq.mean() - bound - 3.0 * se_sq))
    elapsed = time.monotonic() - t0
    ok = worst_mean_z <= 0.0 and worst_moment_z <= 0.0 and elapsed < 30.0
    assert verdict(
        3,
        ok,
        f"worst (|mean err| - 4 SE) = {worst_mean_z:.2e}, "
        f"worst (2nd moment - bound - 3 SE) = {worst_moment_z:.2e}, "
        f"{elapsed:.1f} s for 10 states x 1e5 draws",
    )


def test_criterion_4_lemma_suite(verdict):
    t0 = time.monotonic()
    suite = run_suite(seed=0)
    elapsed = time.monotonic() - t0
    ok = (
        suite.passed
        and all(rep.instances >= 1000 for rep in suite.reports)
        and elapsed < 120.0
    )
    violations = sum(rep.violations for rep in suite.reports)
    assert verdict(
        4,
        ok,
        f"{violations} violations over {suite.total_instances} instances "
        f"({len(suite.reports)} checks), {elapsed:.1f} s",
    )


def test_criterion_5_gradient_descent_reduction(verdict):
    d, T = 4, 10_000
    target = philox(5).normal(size=d)
    schedule = matrix_list_schedule([np.ones((1, 1))], r=np.array([1.0]))
    problem = model([2.0 * np.eye(d)], [target], schedule.r)
    H, b, x_star = problem.H[0], problem.b[0], problem.x_star
    steps = StepSchedule(alpha0=1.75, nu=0.25, beta0=1.0, mu=0.75)
    cfg = RunConfig(problem=problem, schedule=schedule, steps=steps, T=T, noise=noiseless())
    t0 = time.monotonic()
    trace = run(cfg, [0])[0]
    x = np.zeros(d)
    for t in range(1, T):
        x = x - steps.alpha(t) * steps.beta(t) * (H @ x - b)
    elapsed = time.monotonic() - t0
    gap = float(np.max(np.abs(trace.final_state[0] - x)))
    ratio = float(np.linalg.norm(x - x_star) / np.linalg.norm(x_star))
    ok = gap <= 1e-12 and ratio <= 1e-6 and elapsed < 10.0
    assert verdict(
        5,
        ok,
        f"max entry gap vs independent GD {gap:.2e}, "
        f"final distance ratio {ratio:.2e} at T=1e4, {elapsed:.1f} s",
    )


def test_criterion_6_optimality_rate(mc_fixed, verdict):
    t0 = time.monotonic()
    finals = np.array([col(mc_fixed.mc.mean, "dist_opt_sq")[T - 1] for T in GRID])
    fit = fit_rate(np.array(GRID, dtype=float), finals)
    elapsed = mc_fixed.seconds + (time.monotonic() - t0)
    in_window = -0.85 <= fit.slope <= -0.35
    ok = in_window and elapsed < 180.0
    assert verdict(
        6,
        ok,
        f"mean dist_opt_sq log-log slope {fit.slope:.3f} "
        f"(+/- {fit.stderr:.3f}) over T_grid, target [-0.85, -0.35]; "
        f"{elapsed:.0f} s incl. 20 runs",
    )


def test_criterion_7_consensus_decay(mc_fixed, mc_gossip, verdict):
    ts = np.arange(500, 5001, dtype=float)
    slopes = {}
    for name, timed in (("fixed_cycle", mc_fixed), ("gossip", mc_gossip)):
        ys = col(timed.mc.mean, "deviation_sq")[499:5000]
        slopes[name] = fit_rate(ts, ys).slope
    ok = all(s <= -0.35 for s in slopes.values())
    assert verdict(
        7,
        ok,
        "mean deviation_sq slope over t in [500, 5000]: "
        + ", ".join(f"{k} {v:.3f}" for k, v in slopes.items())
        + ", target <= -0.35",
    )


def test_criterion_8_theorem_bound_dominance(verdict):
    t0 = time.monotonic()
    n, d, s = 4, 25, 4
    r = np.full(n, 1.0 / n)
    problem = build_problem(n=n, d=d, N=100, seed=42, r=r)
    schedule = gossip_schedule(problem.r)
    steps = StepSchedule(alpha0=0.25, nu=0.05, beta0=0.8, mu=0.1)
    noise = stochastic_quantizer(s)
    cfg = RunConfig(problem=problem, schedule=schedule, steps=steps, T=5000, noise=noise)
    mc = monte_carlo(cfg, 50, seed=100)

    c = certificate(cfg)
    th = c.th
    q0 = mc.q0_estimate(th.T0)
    tc = xi_constants(steps, c.lam, c.kappa, problem.strong_convexity, problem.smoothness, mc.gamma, mc.K, q0)

    report_ts = sorted({th.T_min, 2500, 5000})
    rows = []
    dominated = True
    for T in report_ts:
        bound = float(theorem_bound(tc, T))
        emp = float(col(mc.mean, "dist_opt_sq")[T - 1])
        dominated &= bound >= emp
        rows.append(f"T={T}: bound/empirical = {bound / emp:.1e}")
    elapsed = time.monotonic() - t0
    covered = not any(c.not_covered(T) for T in report_ts)
    ok = dominated and covered and th.T0 == max(th.T1, th.T2, th.T3) and elapsed < 120.0
    assert verdict(
        8,
        ok,
        f"n=4 gossip quantizer, 50 runs, T0={th.T0}; "
        + "; ".join(rows)
        + f" (slack reported, not bounded); {elapsed:.0f} s",
    )


def test_criterion_9_mixing_family_loss_comparison(mc_fixed, mc_gossip, verdict):
    loss_fixed = col(mc_fixed.mc.mean, "loss_pooled")
    loss_gossip = col(mc_gossip.mc.mean, "loss_pooled")
    at_or_below = loss_fixed[4999] <= loss_gossip[4999]

    checkpoints = np.unique(np.geomspace(100, 5000, 25).astype(int))
    trending = True
    for curve in (loss_fixed, loss_gossip):
        vals = curve[checkpoints - 1]
        trending &= bool(np.all(vals[1:] <= vals[:-1] * 1.05))
        trending &= bool(vals[-1] < vals[0])
    ok = at_or_below and trending
    assert verdict(
        9,
        ok,
        f"loss at T=5000: fixed_cycle {loss_fixed[4999]:.4f} vs "
        f"gossip {loss_gossip[4999]:.4f}; downward trend after t=100 "
        f"{'holds' if trending else 'violated'} for both",
    )
