"""The benchmark's three workloads and the checks on their outputs.

Each workload is a config file written from the workload seed plus the CLI
commands run on it.  Why each one exists is recorded in BENCHMARK.json and
README.md next to this file.

The checks read only what a user of the CLI sees: exit codes, stdout and the
files in the output directory.  An operation is one seed trajectory (a
missing or truncated trace, i.e. an aborted seed, is a failure) or one
command's output check.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

COLUMNS = ("loss_pooled", "loss_weighted", "deviation_sq", "dist_opt_sq")

# dist_opt_sq - deviation_sq = ||xbar - x*||^2 >= 0 exactly; the allowance
# only absorbs rounding in the two separately computed sums.
DECOMPOSITION_RTOL = 1e-12
# mean.csv is the column average of the run_*.csv values it was computed
# from; %.17g round-trips doubles, so only summation order can differ.  Its
# rounding is bounded by the magnitude of the values summed, so the allowance
# is relative to the row's largest |value|, not to the statistic: a stderr of
# identical values reads 0 in one summation order and ~1e-17 in another.
MEAN_RTOL = 1e-12
# Final statistics are means of squared errors over a few seeds: rounding
# from reassociated reductions moves them by ~1e-15 relative, a changed
# random stream by ~1e-2.
REFERENCE_RTOL = 1e-9


@dataclass(frozen=True)
class Size:
    runs: int
    T: int
    T_grid: tuple[int, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    n: int
    d: int
    N: int
    settings: str
    commands: tuple[tuple[str, ...], ...]
    size: Size
    tiny: Size  # for the benchmark's own smoke tests

    @property
    def shared_rows(self) -> int:
        """Neighbor messages per iteration: self + 2 cycle neighbors per
        agent on fixed_cycle; one active pair on top of n self-messages on
        gossip."""
        return 3 * self.n if self.family == "fixed_cycle" else self.n + 2

    def config_text(self, seed: int, size: Size) -> str:
        grid = ", ".join(str(T) for T in size.T_grid)
        return (
            f"family = {self.family}\nn = {self.n}\nd = {self.d}\nN = {self.N}\n"
            f"{self.settings.strip()}\n"
            f"seed = {seed}\nruns = {size.runs}\nT = {size.T}\nT_grid = {grid}\n"
        )


SECTION3_STEPS = "alpha0 = 0.1\nnu = 0.25\nbeta0 = 0.7\nmu = 0.75"

WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="run_quant_cycle",
            family="fixed_cycle",
            n=20,
            d=25,
            N=100,
            settings=f"noise = stochastic_quantizer\nquantizer_levels = 4\n{SECTION3_STEPS}",
            commands=(("run", "--jobs", "1"),),
            size=Size(runs=4, T=1500, T_grid=(1500,)),
            tiny=Size(runs=2, T=60, T_grid=(60,)),
        ),
        Workload(
            name="certify_gossip_n4",
            family="gossip",
            n=4,
            d=25,
            N=100,
            # uniform r; T must stay >= the burn-in T0 = 1025 or theory raises
            settings=(
                "noise = stochastic_quantizer\nquantizer_levels = 4\n"
                "alpha0 = 0.25\nnu = 0.05\nbeta0 = 0.8\nmu = 0.1\n"
                "p_low = 0.05\np_high = 0.05"
            ),
            commands=(("validate",), ("lemmas",), ("theory", "--jobs", "1")),
            size=Size(runs=4, T=1200, T_grid=(300, 600, 1025, 1200)),
            tiny=Size(runs=2, T=1030, T_grid=(500, 1030)),
        ),
        Workload(
            name="sweep_gauss_gossip",
            family="gossip",
            n=20,
            d=25,
            N=100,
            settings=f"noise = gaussian_channel\nsigma = 0.5\n{SECTION3_STEPS}",
            commands=(("sweep", "--jobs", "2"),),
            size=Size(runs=4, T=2000, T_grid=(250, 500, 1000, 2000)),
            tiny=Size(runs=2, T=80, T_grid=(20, 40, 80)),
        ),
    )
}


@dataclass
class Outcome:
    """Operations attempted and failed, what failed, and the final
    statistics that the reference comparison looks at."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    finals: list[float] = field(default_factory=list)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)
        self.finals.extend(other.finals)


def read_csv(path: Path) -> dict[str, np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()
    names = lines[0].split(",")
    data = np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]], ndmin=2)
    if data.shape[1] != len(names):
        raise ValueError(f"{path.name}: {data.shape[1]} cells per row, {len(names)} names")
    return {name: data[:, j] for j, name in enumerate(names)}


def _decomposition_problems(label: str, dist: np.ndarray, dev: np.ndarray) -> list[str]:
    bad = np.flatnonzero(dist < dev - DECOMPOSITION_RTOL * np.abs(dist))
    if bad.size:
        return [f"{label}: dist_opt_sq < deviation_sq on {bad.size} rows (first row {bad[0] + 1})"]
    return []


def _manifest_counts(out: Path) -> tuple[int, int]:
    """(completed, aborted) seeds as the run's manifest reports them."""
    facts = {}
    for line in (out / "manifest.txt").read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("=")
        facts[key.strip()] = value.strip()
    return int(facts["derived.completed"]), int(facts["derived.aborted"])


def check_run(out: Path, stdout: str, size: Size) -> Outcome:
    problems: list[str] = []
    traces = []
    for k in range(size.runs):
        path = out / f"run_{k:02d}.csv"
        trace = read_csv(path) if path.is_file() else None
        if trace is None or len(trace["t"]) != size.T:
            problems.append(f"{path.name}: missing or truncated (aborted seed)")
        else:
            problems += _decomposition_problems(path.name, trace["dist_opt_sq"], trace["deviation_sq"])
            traces.append(trace)
    seeds_failed = size.runs - len(traces)
    counts = _manifest_counts(out)
    if counts != (len(traces), seeds_failed):
        problems.append(f"manifest reports (completed, aborted) = {counts}")

    finals: list[float] = []
    mean = read_csv(out / "mean.csv")
    if len(mean["t"]) != size.T:
        problems.append(f"mean.csv has {len(mean['t'])} rows, expected {size.T}")
    else:
        problems += _decomposition_problems(
            "mean.csv", mean["dist_opt_sq_mean"], mean["deviation_sq_mean"]
        )
        finals = [float(mean[f"{c}_{stat}"][-1]) for c in COLUMNS for stat in ("mean", "stderr")]
        if not seeds_failed:
            problems += _mean_problems(mean, traces)
    # Each lost seed added exactly one problem; anything beyond those fails
    # the command's own check.
    return Outcome(
        attempted=size.runs + 1,
        failed=seeds_failed + int(len(problems) > seeds_failed),
        problems=problems,
        finals=finals,
    )


def _mean_problems(mean: dict[str, np.ndarray], traces: list[dict[str, np.ndarray]]) -> list[str]:
    """mean.csv must be the average (and standard error) of the traces."""
    problems = []
    for c in COLUMNS:
        stacked = np.stack([tr[c] for tr in traces])
        allowance = MEAN_RTOL * np.abs(stacked).max(axis=0)
        want_mean = stacked.mean(axis=0)
        want_se = (
            stacked.std(axis=0, ddof=1) / np.sqrt(len(traces))
            if len(traces) > 1
            else np.zeros_like(want_mean)
        )
        for stat, want in (("mean", want_mean), ("stderr", want_se)):
            got = mean[f"{c}_{stat}"]
            bad = np.flatnonzero(~(np.abs(got - want) <= allowance))
            if bad.size:
                problems.append(
                    f"mean.csv {c}_{stat} differs from the run_*.csv average on {bad.size} rows "
                    f"(first t={bad[0] + 1}: {got[bad[0]]!r} vs {want[bad[0]]!r})"
                )
    return problems


def check_sweep(out: Path, stdout: str, size: Size) -> Outcome:
    problems: list[str] = []
    completed, aborted = _manifest_counts(out)
    if (completed, aborted) != (size.runs, 0):
        problems.append(f"{aborted} aborted, {completed}/{size.runs} completed")
    sweep = read_csv(out / "sweep.csv")
    grid = sorted(set(size.T_grid))
    if sweep["T"].tolist() != grid:
        problems.append(f"sweep.csv horizons {sweep['T'].tolist()} != {grid}")
    problems += _decomposition_problems(
        "sweep.csv", sweep["dist_opt_sq_mean"], sweep["deviation_sq_mean"]
    )
    return Outcome(
        attempted=size.runs + 1,
        failed=size.runs - min(completed, size.runs) + int(bool(problems)),
        problems=problems,
        finals=[float(v) for c in COLUMNS for v in sweep[f"{c}_mean"]],
    )


_THEORY_ROW = re.compile(r"^(\d+), (\S+), (\S+), (\S+)(.*)$")
_THEORY_RUNS = re.compile(r"measured over (\d+) runs")


def check_theory(out: Path, stdout: str, size: Size) -> Outcome:
    """Certified bound >= empirical mean on every table row at or past the
    burn-in; only the table rows are parsed."""
    problems: list[str] = []
    m = _THEORY_RUNS.search(stdout)
    completed = int(m.group(1)) if m else 0
    if completed != size.runs:
        problems.append(f"q0 measured over {completed} of {size.runs} runs (aborted seeds)")
    finals: list[float] = []
    covered = 0
    for line in stdout.splitlines():
        row = _THEORY_ROW.match(line)
        if not row or row.group(3) == "-":
            continue
        T, bound, emp = int(row.group(1)), float(row.group(2)), float(row.group(3))
        finals += [bound, emp]
        if "not covered" in row.group(5):
            continue
        covered += 1
        if not bound >= emp:
            problems.append(f"theory T={T}: certified bound {bound!r} < empirical {emp!r}")
    if covered == 0:
        problems.append("theory printed no covered table row with an empirical value")
    return Outcome(
        attempted=size.runs + 1,
        failed=size.runs - min(completed, size.runs) + int(bool(problems)),
        problems=problems,
        finals=finals,
    )


def _check_text(pattern: str):
    def check(out: Path, stdout: str, size: Size) -> Outcome:
        ok = re.search(pattern, stdout) is not None
        return Outcome(1, int(not ok), [] if ok else [f"stdout lacks {pattern!r}"])

    return check


CHECKS = {
    "run": check_run,
    "sweep": check_sweep,
    "theory": check_theory,
    "validate": _check_text(r"overall\s+PASS"),
    "lemmas": _check_text(r"all checks passed"),
}

# Seeds a command simulates; all of them count as failed if it crashes.
_SEEDED = ("run", "sweep", "theory")


def check_command(command: str, code, out: Path, stdout: str, size: Size) -> Outcome:
    """Check one command's outputs; a nonzero exit or a crash fails the
    command's check and every seed it was to simulate."""
    seeds = size.runs if command in _SEEDED else 0
    if code != 0:
        return Outcome(seeds + 1, seeds + 1, [f"{command}: exit code {code}"])
    try:
        outcome = CHECKS[command](out, stdout, size)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return Outcome(seeds + 1, seeds + 1, [f"{command}: unreadable output ({exc})"])
    outcome.problems = [f"{command}: {p}" for p in outcome.problems]
    return outcome


def compare_reference(finals: list[float], reference: dict, size: Size) -> list[str]:
    """Final statistics must match the stored ones within REFERENCE_RTOL:
    loose enough for reassociated floating-point reductions, far too tight
    for a changed random stream, which moves them at the percent level."""
    if (reference["runs"], reference["T"]) != (size.runs, size.T):
        return [f"reference recorded for runs={reference['runs']} T={reference['T']}"]
    want = reference["finals"]
    if len(finals) != len(want):
        return [f"reference: {len(finals)} final statistics, {len(want)} stored"]
    bad = [i for i, (g, w) in enumerate(zip(finals, want)) if abs(g - w) > REFERENCE_RTOL * abs(w)]
    if bad:
        i = bad[0]
        return [f"reference: {len(bad)} final statistics differ (first {finals[i]!r} vs {want[i]!r})"]
    return []
