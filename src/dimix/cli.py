"""Command-line driver.

Subcommands:

* ``run``       Monte Carlo trajectories; writes per-run CSV traces, the
                per-iteration mean/stderr table, a manifest, optional plots.
* ``validate``  check a mixing schedule against the stochasticity and
                window-connectivity assumptions; report its entry floor.
* ``theory``    evaluate the explicit rate constants and compare the
                certified bound against the measured error; a schedule
                that fails the mixing assumptions is flagged, not certified.
* ``lemmas``    run the randomized inequality suite (nonzero exit on any
                violation).
* ``sweep``     final-iterate statistics across a horizon grid plus a
                log-log rate fit.

The output directory is resolved in order: ``--out``, the config's
``output_dir``, the ``DIMIX_OUT`` environment variable, ``./dimix-out``.
Only ``run``, ``theory`` and ``sweep`` take ``--jobs`` (worker processes).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .analysis import (
    StepSchedule,
    TheoryConstants,
    Thresholds,
    contraction_factor,
    fit_rate,
    kappa_factor,
    theorem_bound,
    theorem_log10_bound,
    thresholds,
    xi_constants,
)
from .dynamics import TRACE_COLUMNS, MonteCarlo, RunConfig, monte_carlo
from .noise import NoiseModel
from .objective import build_problem
from .reporting import VERSION, Config, fmt, parse_config, svg_loglog, write_csv, write_manifest
from .topology import (
    fixed_cycle_schedule,
    gossip_schedule,
    matrix_list_schedule,
    parse_matrix_file,
    validate_schedule,
)


def build_experiment(
    cfg: Config, seed_override: int | None = None, T_override: int | None = None
) -> tuple[dict, RunConfig]:
    """The config values, with any command-line override (echoed in the
    manifest), and the fully resolved run setup they describe."""
    values = dict(cfg.values)
    if seed_override is not None:
        values["seed"] = int(seed_override)
    if T_override is not None:
        values["T"] = int(T_override)
    seed = values["seed"]

    family = values["family"]
    schedule = None
    if family == "matrix_file":
        if not values["matrix_file"]:
            raise ValueError("family = matrix_file needs the matrix_file key")
        schedule = matrix_list_schedule(parse_matrix_file(values["matrix_file"]))
        if cfg.was_set("n") and values["n"] != schedule.n:
            raise ValueError(
                f"config says n = {values['n']} but the matrix file has {schedule.n} agents"
            )
        values["n"] = schedule.n
    problem = build_problem(
        n=values["n"],
        d=values["d"],
        N=values["N"],
        seed=seed,
        p_low=values["p_low"],
        p_high=values["p_high"],
        r=None if schedule is None else schedule.r,
    )
    if schedule is None:
        schedule = (
            gossip_schedule(problem.r) if family == "gossip" else fixed_cycle_schedule(problem.r)
        )

    noise = NoiseModel(
        values["noise"], sigma=values["sigma"], levels=values["quantizer_levels"]
    )
    steps = StepSchedule(
        alpha0=values["alpha0"], nu=values["nu"], beta0=values["beta0"], mu=values["mu"]
    )
    return values, RunConfig(problem=problem, schedule=schedule, steps=steps, T=values["T"], noise=noise)


def resolve_out_dir(arg_out: str | None, values: dict) -> Path:
    target = arg_out or values.get("output_dir") or os.environ.get("DIMIX_OUT") or "dimix-out"
    out = Path(target)
    out.mkdir(parents=True, exist_ok=True)
    return out


# mean.csv and sweep.csv columns: each trace column's mean, then its stderr.
_STAT_COLUMNS = tuple(f"{name}_{stat}" for name in TRACE_COLUMNS for stat in ("mean", "stderr"))
_DIST = TRACE_COLUMNS.index("dist_opt_sq")


def _stats(mc: MonteCarlo) -> np.ndarray:
    """(len(t), 8) rows of mean and stderr in _STAT_COLUMNS order."""
    return np.stack([mc.mean, mc.stderr], axis=-1).reshape(mc.t.size, -1)


class Certificate(NamedTuple):
    """What the schedule, the problem and the steps fix of the certificate.
    ``note`` says why the steps admit no thresholds (``th`` is None) or which
    config-only precondition of the constants fails; ``mixing_failed`` names
    the mixing checks the schedule fails at its window B.  ``certify`` adds
    the runs ``mc`` and the ``constants`` at their gamma, K and q0."""

    lam: float
    kappa: float
    th: Thresholds | None
    note: str
    mixing_failed: tuple[str, ...]
    side_condition_ok: bool
    mc: MonteCarlo | None = None
    constants: TheoryConstants | None = None

    def not_covered(self, T: int) -> list[str]:
        """Why horizon T is not covered, empty when it is: the one verdict.
        Each reason says "not covered", which perfbench's theory check reads."""
        reasons = ["mixing assumptions fail, not covered"] * bool(self.mixing_failed)
        if self.note:
            return reasons + [f"{self.note}, not covered"]
        reasons += ["mu + nu = 1 side condition fails, not covered"] * (not self.side_condition_ok)
        return reasons + ["below burn-in, not covered"] * (T < self.th.T_min)

    def row(self, T: int) -> tuple[float, float | None, list[str]]:
        """Horizon T's certified bound, the runs' mean dist_opt_sq at T (None
        where they did not record T: past the horizon) and why T is not covered."""
        k = np.flatnonzero(self.mc.t == T)
        emp = float(self.mc.mean[k[0], _DIST]) if k.size else None
        return theorem_bound(self.constants, T), emp, self.not_covered(T)


def certificate(cfg: RunConfig) -> Certificate:
    """lambda, kappa, the burn-in thresholds and the coverage verdict of a run
    setup, decided here alone for ``theory``, the manifests and the acceptance
    checks, with the constants' config-only preconditions at zero inputs.
    The thresholds are computed once, here; every constant reuses them."""
    sched, steps, mu_f, L_f = cfg.schedule, cfg.steps, cfg.problem.strong_convexity, cfg.problem.smoothness
    lam = contraction_factor(sched.eta, float(sched.r.min()), sched.B, sched.n)
    kappa = kappa_factor(lam, steps.beta0, sched.B)
    th, note, side_ok = None, "", True
    try:
        th = thresholds(steps, lam, mu_f, L_f)
        side_ok = xi_constants(steps, th, lam, kappa, mu_f, L_f, 0.0, 0.0, 0.0).side_condition_ok
    except ValueError as exc:
        note = str(exc)
    # Starts a period apart pool the same slots: one period of them decides all.
    report = validate_schedule(sched, 2 * sched.B)
    failed = ("stochasticity",) * (not report.stochasticity_ok) + ("connectivity",) * (not report.connectivity_ok)
    return Certificate(lam, kappa, th, note, failed, side_ok)


def certify(rc: RunConfig, runs: int, seed: int, jobs: int, T_grid, assume_q0: float | None = None) -> Certificate:
    """The setup's certificate with its runs and measured constants, for
    ``theory`` and the acceptance checks; a note is raised before simulating.
    The runs record only the in-horizon ``T_grid`` and T0.  q0 is measured at
    T0 when T0 lies in the horizon, else ``assume_q0`` is taken."""
    c = certificate(rc)
    if c.note:  # no thresholds, or a config-only precondition fails: before simulating
        raise ValueError(c.note)
    T0, T_sim = c.th.T0, rc.T
    if T0 > T_sim and assume_q0 is None:
        raise ValueError(
            f"burn-in T0 = {T0} lies beyond the simulated horizon T = {T_sim}; "
            "raise T or supply --assume-q0"
        )
    at = [T for T in T_grid if T <= T_sim] + [T0] * (T0 <= T_sim)
    mc = monte_carlo(rc, runs, seed=seed, jobs=jobs, at=at)
    q0 = mc.q0_estimate(T0) if T0 <= T_sim else assume_q0
    mu_f, L_f = rc.problem.strong_convexity, rc.problem.smoothness
    tc = xi_constants(rc.steps, c.th, c.lam, c.kappa, mu_f, L_f, mc.gamma, mc.K, q0)
    return c._replace(mc=mc, constants=tc)


def _horizon_grid(cfg: Config) -> list[int]:
    """The config's T_grid ascending, each horizon once, checked first."""
    grid = sorted(set(cfg["T_grid"]))
    if grid[0] < 1:
        raise ValueError("T_grid entries must be >= 1")
    return grid


def _derived_facts(mc: MonteCarlo) -> dict:
    rc = mc.cfg
    sched, problem = rc.schedule, rc.problem
    c = certificate(rc)
    facts = {
        "version": VERSION,
        "r": sched.r,
        "eta": sched.eta,
        "B": sched.B,
        "lambda": c.lam,
        "kappa": c.kappa,
        "mu_f": problem.strong_convexity,
        "L_f": problem.smoothness,
        "K": mc.K,
        "state_norm_bound": mc.state_norm_bound,
        "gamma": mc.gamma,
        "run_seeds": [tr.seed for tr in mc.traces],
        "completed": mc.completed,
        "aborted": mc.aborted,
    }
    if c.th is not None:
        th = c.th
        facts.update(T1=th.T1, T2=th.T2, T3=th.T3, T4="none" if th.T4 is None else th.T4, T0=th.T0)
    if reasons := c.not_covered(rc.T):
        facts["theory_note"] = "; ".join(reasons)
    return facts


def cmd_run(args) -> int:
    cfg = parse_config(args.config)
    values, rc = build_experiment(cfg, seed_override=args.seed)
    out = resolve_out_dir(args.out, values)
    mc = monte_carlo(rc, values["runs"], seed=values["seed"], jobs=args.jobs)
    for k, trace in enumerate(mc.traces):
        write_csv(out / f"run_{k:02d}.csv", ("t", *TRACE_COLUMNS), trace.t, trace.values)
    write_csv(out / "mean.csv", ("t", *_STAT_COLUMNS), mc.t, _stats(mc))
    write_manifest(out / "manifest.txt", values, _derived_facts(mc))
    n = rc.problem.n
    if args.plots:
        mean = dict(zip(TRACE_COLUMNS, mc.mean.T))
        svg_loglog(
            out / "loss.svg",
            {
                "loss_pooled": (mc.t, mean["loss_pooled"]),
                "loss_weighted": (mc.t, mean["loss_weighted"]),
            },
            title=f"{values['family']}, n={n}, mean over {mc.completed} runs",
            ylabel="mean loss",
        )
        if (mean["deviation_sq"] > 0).any():
            svg_loglog(
                out / "deviation.svg",
                {"deviation_sq": (mc.t, mean["deviation_sq"])},
                title="consensus error",
                ylabel="mean deviation_sq",
            )
        else:  # one agent: there is no consensus error to plot on a log axis
            print("note: deviation_sq is 0 at every iteration; no deviation.svg")
    final = mc.mean[-1, _DIST]
    print(
        f"{values['family']}: n={n} T={values['T']} "
        f"runs={mc.completed} completed, {mc.aborted} aborted"
    )
    if mc.aborted:
        print("warning: aborted runs are excluded from mean.csv")
    print(f"final mean dist_opt_sq = {fmt(final)}")
    print(f"wrote {out}/run_*.csv, {out}/mean.csv, {out}/manifest.txt")
    return 0


def cmd_validate(args) -> int:
    cfg = parse_config(args.config)
    values, rc = build_experiment(cfg, seed_override=args.seed)
    horizon = values["horizon"] or values["T"]
    window = values["window"] or None
    report = validate_schedule(rc.schedule, horizon, window)
    print(report.summary())
    return 0 if report.passed else 1


def cmd_theory(args) -> int:
    """The certificate's constants and bound per T_grid horizon, as
    ``certify`` gives them.  Its note is an error, its failed side
    condition and mixing checks are warnings, its reasons are row notes."""
    cfg = parse_config(args.config)
    T_grid = _horizon_grid(cfg)
    if args.assume_q0 is not None and not 0.0 <= args.assume_q0 < np.inf:  # also true on nan
        raise ValueError(f"gamma, K, q0 must be finite and nonnegative, got --assume-q0 {args.assume_q0}")
    values, rc = build_experiment(cfg, seed_override=args.seed)
    c = certify(rc, values["runs"], values["seed"], args.jobs, T_grid, args.assume_q0)
    sched, steps, mc, tc, th = rc.schedule, rc.steps, c.mc, c.constants, c.th
    q0_source = f"measured over {mc.completed} runs" if th.T0 <= rc.T else "assumed (--assume-q0)"
    print(f"schedule {values['family']}: n={sched.n} B={sched.B} eta={fmt(sched.eta)}")
    print(f"lambda = {fmt(c.lam)}   kappa = {fmt(c.kappa)}")
    mu_f, L_f = rc.problem.strong_convexity, rc.problem.smoothness
    print(f"mu_f = {fmt(mu_f)}   L_f = {fmt(L_f)}   c1 = {fmt(tc.c1)}   c2 = {fmt(tc.c2)}")
    print(f"gamma = {fmt(mc.gamma)}   K = {fmt(mc.K)}   q0 = {fmt(tc.q0)} ({q0_source})")
    t4 = "-" if th.T4 is None else str(th.T4)
    print(f"T1 = {th.T1}   T2 = {th.T2}   T3 = {th.T3}   T4 = {t4}   T0 = {th.T0}")
    for name in ("eps1", "eps2", "eps3", "eps4", "eps5", "xi1", "xi2", "xi3", "xi4", "xi5"):
        val = getattr(tc, name)
        if val is not None:
            print(f"{name} = {fmt(val)}")
    print(f"regime: mu + nu {'<' if tc.regime == 1 else '=='} 1")
    if not c.side_condition_ok:
        print(
            f"WARNING: alpha0*beta0 = {fmt(steps.alpha0 * steps.beta0)} is below "
            f"the certification threshold {fmt(tc.side_threshold)}; the bound below is reported "
            "but not certified for these steps"
        )
    if c.mixing_failed:
        print(
            f"WARNING: the schedule fails the mixing assumptions ({', '.join(c.mixing_failed)}) at "
            f"window B = {sched.B}; no bound below is certified (see dimix validate)"
        )
    print()
    print("T, certified bound, empirical mean dist_opt_sq, bound/empirical")
    for T in T_grid:
        bound, emp, notes = c.row(T)
        notes += [f"log10 bound = {fmt(theorem_log10_bound(tc, T))}"] * (not np.isfinite(bound))
        note = f"  ({'; '.join(notes)})" if notes else ""
        if emp is None:
            print(f"{T}, {fmt(bound)}, -, -{note}")
        else:
            ratio = bound / emp if emp > 0 else float("inf")
            print(f"{T}, {fmt(bound)}, {fmt(emp)}, {fmt(ratio)}{note}")
    return 0


def run_suite(seed: int):
    """The lemma suite.  dimix.lemmas is the largest module and only this
    command runs it, so it is loaded on the first call, not at start-up."""
    from .lemmas import run_suite as suite

    return suite(seed=seed)


def cmd_lemmas(args) -> int:
    if args.seed is not None:
        seed = args.seed
    elif args.config:
        seed = parse_config(args.config)["seed"]
    else:
        seed = 0
    suite = run_suite(seed=seed)
    print(suite.summary())
    return 0 if suite.passed else 1


def cmd_sweep(args) -> int:
    cfg = parse_config(args.config)
    grid = _horizon_grid(cfg)
    values, rc = build_experiment(cfg, seed_override=args.seed, T_override=max(grid))
    out = resolve_out_dir(args.out, values)
    mc = monte_carlo(rc, values["runs"], seed=values["seed"], jobs=args.jobs, at=grid)
    write_csv(out / "sweep.csv", ("T", *_STAT_COLUMNS), grid, _stats(mc))
    write_manifest(out / "manifest.txt", values, _derived_facts(mc))
    finals = mc.mean[:, _DIST]
    print(f"horizon grid: {', '.join(str(T) for T in grid)}")
    print(f"final mean dist_opt_sq: {', '.join(fmt(v) for v in finals)}")
    if len(grid) >= 2 and np.all(finals > 0):
        fit = fit_rate(np.array(grid, dtype=float), finals)
        print(f"log-log rate: slope = {fit.slope:.4f} +/- {fit.stderr:.4f}")
    if args.plots:
        svg_loglog(
            out / "sweep.svg",
            {"dist_opt_sq(T)": (np.array(grid, dtype=float), finals)},
            title=f"final error vs horizon ({values['family']}, n={rc.problem.n})",
            xlabel="T",
            ylabel="mean dist_opt_sq",
        )
    print(f"wrote {out}/sweep.csv, {out}/manifest.txt")
    return 0


def _command(sub, name: str, func, help: str, config_required: bool = True, jobs: bool = False):
    """Add subcommand ``name``, run by ``func``, with the options all commands share."""
    sp = sub.add_parser(name, help=help)
    sp.set_defaults(func=func)
    sp.add_argument("--config", required=config_required, help="flat key = value config file")
    sp.add_argument("--seed", type=int, default=None, help="override the config seed")
    sp.add_argument("--out", default=None, help="output directory")
    if jobs:
        sp.add_argument("--jobs", type=int, default=1, help="worker processes, at most the usable CPUs")
    return sp


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dimix",
        description="Two-time-scale decentralized descent: simulate, validate, certify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sp = _command(sub, "run", cmd_run, "Monte Carlo trajectories with CSV traces", jobs=True)
    sp.add_argument("--plots", action="store_true", help="also write SVG plots")
    _command(sub, "validate", cmd_validate, "check the mixing assumptions")
    sp = _command(sub, "theory", cmd_theory, "explicit constants and certified bound", jobs=True)
    sp.add_argument(
        "--assume-q0",
        type=float,
        default=None,
        dest="assume_q0",
        help="take E||xbar(T0) - x*||^2 as given when T0 exceeds the horizon",
    )
    _command(sub, "lemmas", cmd_lemmas, "randomized inequality suite", config_required=False)
    sp = _command(sub, "sweep", cmd_sweep, "final error across a horizon grid", jobs=True)
    sp.add_argument("--plots", action="store_true", help="also write SVG plots")

    args = parser.parse_args(argv)
    try:
        if "jobs" in args and args.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
        return args.func(args)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
