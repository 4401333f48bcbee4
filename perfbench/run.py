"""dimix benchmark: drive one workload through the CLI, check its outputs,
and print every metric by name with its unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
``src`` directory.  BLAS and OpenMP are pinned to one thread before numpy
loads, so a change cannot look faster by using more cores through BLAS.

Each invocation first runs the workload once at the recorded reference seed
(warming caches and comparing final statistics with reference.json), then
repeats the workload at ``--seed`` for ``--seconds`` seconds.

``--trace 0`` reports the end-to-end metrics, medians over the repetitions:
``wall_s`` and ``cpu_s`` (own plus children's user+sys) of the CLI commands
run in process, ``setup_s`` (a fresh interpreter importing dimix.cli, parsing
the config and building the experiment; median of SETUP_SAMPLES) and
``peak_rss_mb`` (the larger of this process's and its largest child's peak
resident set).  The three times are scaled to a reference machine speed by a
calibration kernel run between measurements (see ``Speed``).  The lines
before the result give the median and quartiles of each time both unscaled
(``raw``, as measured) and scaled, and of the scale factors.

``--trace 1`` alternates untraced and traced repetitions, both with
``--jobs 1`` so every span stays in process, and reports the per-layer
metrics (see tracing.py and README.md) plus the tracing overhead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are for people.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome, Size, Workload, check_command, compare_reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
REFERENCE = HERE / "reference.json"

SETUP_SAMPLES = 9
MIN_REPS = 3
# Seconds the calibration kernel takes on an uncontended 2-vCPU Xeon VM
# (2.0 GHz, Python 3.11.7, numpy 2.4.6).  Reported times are scaled to it.
CAL_REF_S = 0.075
SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
import dimix.cli
dimix.cli.build_experiment(dimix.cli.parse_config(sys.argv[1]))
print(repr(time.perf_counter() - t0))
"""


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def measure_setup(config: Path) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET, str(config)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def calibration_kernel() -> float:
    """Seconds for fixed interpreter + small-array numpy work shaped like an
    engine iteration (no dimix code, so no change to the package moves it)."""
    rng = np.random.default_rng(0)
    H, X, r = rng.random((20, 25, 25)), rng.random((20, 25)), np.full(20, 0.05)
    t0 = time.perf_counter()
    for t in range(1, 3000):
        G = np.einsum("nij,nj->ni", H, X)
        D = X - r @ X
        float(r @ np.einsum("ij,ij->i", D, D))
        X = X + 1e-3 * (np.floor(4 * rng.random((20, 25))) - G) / t**0.5
    return time.perf_counter() - t0


class Speed:
    """Machine speed, from the calibration kernel run between measurements.

    On a shared host the same work takes from 1x to 2x as long from one
    minute to the next, and the slow phases last tens of seconds.  Scaling
    each measurement by CAL_REF_S over the kernel time around it removes
    that drift: over fifteen 20 s windows the median raw wall time of
    run_quant_cycle spread by 21% (quartile distance over median), the
    scaled one by 7%.
    """

    def __init__(self) -> None:
        self.last = calibration_kernel()

    def factor(self) -> float:
        """Call right after a measurement: CAL_REF_S over the mean of the
        kernel times just before and just after it."""
        now = calibration_kernel()
        factor = CAL_REF_S / ((self.last + now) / 2)
        self.last = now
        return factor


class Bench:
    """One workload at one size, writing under a private work directory."""

    def __init__(self, wl: Workload, size: Size, work: Path) -> None:
        import dimix.cli

        self.main = dimix.cli.main
        self.wl, self.size, self.work = wl, size, work
        self.reps = 0

    def config(self, seed: int) -> Path:
        path = self.work / f"seed{seed}.cfg"
        if not path.exists():
            path.write_text(self.wl.config_text(seed, self.size), encoding="utf-8")
        return path

    def rep(self, seed: int, jobs: int | None = None, tracer: Tracer | None = None):
        """Run the workload's commands once; return (wall s, cpu s, Outcome)."""
        config = self.config(seed)
        out = self.work / f"rep{self.reps}"
        self.reps += 1
        runs = []
        gc.collect()
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        for head in self.wl.commands:
            argv = list(head)
            if jobs is not None and "--jobs" in argv:
                argv[argv.index("--jobs") + 1] = str(jobs)
            argv += ["--config", str(config), "--out", str(out)]
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    main = tracer.wrap("cli.main", self.main, {}) if tracer else self.main
                    code = main(argv)
            except Exception:  # a crash is a failed operation, not the end of the run
                traceback.print_exc()
                code = None
            runs.append((head[0], code, buf.getvalue()))
        wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0

        outcome = Outcome()
        for command, code, stdout in runs:
            outcome.add(check_command(command, code, out, stdout, self.size))
        shutil.rmtree(out, ignore_errors=True)
        return wall, cpu, outcome

    def reference_rep(self, reference: dict) -> Outcome:
        """The warm-up repetition, at the recorded seed, compared with the
        stored final statistics."""
        _, _, outcome = self.rep(reference["seed"])
        problems = compare_reference(outcome.finals, reference, self.size)
        outcome.attempted += 1
        outcome.failed += int(bool(problems))
        outcome.problems += problems
        return outcome


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(bench: Bench, seed: int, seconds: float, tally: Outcome) -> dict:
    speed = Speed()
    names = ("wall_s", "cpu_s", "setup_s")
    raw: dict[str, list[float]] = {name: [] for name in names}  # as measured
    scaled: dict[str, list[float]] = {name: [] for name in names}
    factors: dict[str, list[float]] = {"setup": [], "reps": []}

    def record(name: str, value: float, factor: float) -> None:
        raw[name].append(value)
        scaled[name].append(value * factor)

    for _ in range(SETUP_SAMPLES):
        setup = measure_setup(bench.config(seed))
        factors["setup"].append(speed.factor())
        record("setup_s", setup, factors["setup"][-1])
    start = time.perf_counter()
    while len(raw["wall_s"]) < MIN_REPS or time.perf_counter() - start < seconds:
        wall, cpu, outcome = bench.rep(seed)
        factors["reps"].append(speed.factor())
        record("wall_s", wall, factors["reps"][-1])
        record("cpu_s", cpu, factors["reps"][-1])
        tally.add(outcome)
    rows = [(f"raw {n}", raw[n]) for n in names] + [(f"scaled {n}", scaled[n]) for n in names]
    rows += [(f"factor {k}", v) for k, v in factors.items()]
    for label, values in rows:
        q1, q2, q3 = quartiles(values)
        print(f"  {label:<14} median {q2:.4f}  quartiles {q1:.4f} .. {q3:.4f}  (n={len(values)})")
    metrics = {name: {"value": statistics.median(scaled[name]), "unit": "s"} for name in names}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
    return metrics


def computed_work(wl: Workload) -> tuple[float, float]:
    """Model of (flops, bytes moved) per seed-iteration from n, d, N and
    the shared rows q; computed, not measured.  See README.md."""
    n, d, N, q = wl.n, wl.d, wl.N, wl.shared_rows
    flops = 2 * n * d * d + 27 * n * d + 2 * N * d + 3 * N
    nbytes = 8 * (n * d * d + N * d + N + 12 * n * d)
    if "stochastic_quantizer" in wl.settings:
        flops += 12 * q * d
        nbytes += 8 * 4 * q * d
    else:  # gaussian channel: W @ X plus weighted, reduced draws
        flops += 2 * n * n * d + 3 * q * d
        nbytes += 8 * (n * n + 3 * q * d)
    return float(flops), float(nbytes)


def layer_metrics(bench: Bench, tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced repetition."""
    spans = tracer.summary()
    counts = tracer.counts
    iters = bench.size.runs * bench.size.T  # every seed runs to T (checked)

    def total(name, scale):
        return spans.get(name, {}).get("total_ns", 0) / scale

    def own(name, scale):
        return spans.get(name, {}).get("self_ns", 0) / scale

    rows = counts.get("noise.quantize.rows", 0)
    flops, nbytes = computed_work(bench.wl)
    return {
        "noise.quantize.us_per_iter": total("noise.quantize", 1e3) / iters,
        "noise.quantize.us_per_row": total("noise.quantize", 1e3) / rows if rows else 0.0,
        "noise.quantize.calls": spans.get("noise.quantize", {}).get("calls", 0),
        "noise.quantize.rows_per_iter": rows / iters,
        "rng.draws_per_iter": counts.get("rng.draws", 0) / iters,
        "rng.draw_us_per_iter": total("rng.draw", 1e3) / iters,
        "dynamics.run.self_us_per_iter": own("dynamics.run", 1e3) / iters,
        "dynamics.seed_iters": counts.get("dynamics.seed_iters", 0),
        "dynamics.monte_carlo.aggregate_ms": own("dynamics.monte_carlo", 1e6),
        "dynamics.pool.bytes_returned": counts.get("dynamics.pool.bytes_returned", 0),
        "dynamics.flops_per_iter": flops,
        "dynamics.bytes_per_iter": nbytes,
        "analysis.diag.us_per_iter": total("analysis.diag", 1e3) / iters,
        "analysis.steps.us_per_iter": total("analysis.steps", 1e3) / iters,
        "objective.pooled_loss.us_per_iter": total("objective.pooled_loss", 1e3) / iters,
        "analysis.certificate_ms": total("analysis.certificate", 1e6),
        "topology.validate_ms": total("topology.validate", 1e6),
        "lemmas.suite_ms": total("lemmas.suite", 1e6),
        "lemmas.instances": counts.get("lemmas.instances", 0),
        "reporting.write_ms": total("reporting.write", 1e6),
        "reporting.bytes_written": counts.get("reporting.bytes_written", 0),
        "cli.build_experiment_ms": total("cli.build_experiment", 1e6),
        "objective.build_problem_ms": total("objective.build_problem", 1e6),
        "topology.schedule_build_ms": total("topology.schedule_build", 1e6),
        "cli.self_ms": own("cli.main", 1e6),
    }


def per_layer(bench: Bench, seed: int, seconds: float, tally: Outcome, units: dict) -> dict:
    tracer, speed = Tracer(), Speed()
    plain, traced, samples = [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_REPS or time.perf_counter() - start < seconds:
        wall, _, outcome = bench.rep(seed, jobs=1)
        plain.append(wall * speed.factor())
        tally.add(outcome)
        tracer.install()
        try:
            wall, _, outcome = bench.rep(seed, jobs=1, tracer=tracer)
        finally:
            tracer.uninstall()
        factor = speed.factor()
        traced.append(wall * factor)
        tally.add(outcome)
        sample = layer_metrics(bench, tracer)
        samples.append({k: v * factor if units[k] in ("us", "ms") else v for k, v in sample.items()})
        tracer.reset()
    values = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    values["trace.absent_wraps"] = len(tracer.absent)
    if tracer.absent:
        print(f"  absent (reported as 0): {', '.join(tracer.absent)}")
    for name, value in values.items():
        print(f"  {name:<36} {value:.6g} {units[name]}")
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def measure(name: str, seed: int, seconds: float, trace: bool, size: Size | None = None,
            reference: dict | None = None) -> dict:
    """Run one workload and return the result object printed as JSON.

    ``size`` defaults to the workload's benchmark size; ``reference`` to the
    stored reference for it (pass ``{}`` to skip the comparison, as the
    smoke tests do at tiny sizes)."""
    wl = WORKLOADS[name]
    size = size or wl.size
    if reference is None:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"][name]
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{name}-{os.getpid()}"
    work.mkdir()
    try:
        bench = Bench(wl, size, work)
        tally = bench.reference_rep(reference) if reference else Outcome()
        print(f"workload {name} seed {seed}: runs={size.runs} T={size.T} commands="
              + "; ".join(" ".join(c) for c in wl.commands))
        print(f"env {json.dumps(environment())}")
        if trace:
            metrics = per_layer(bench, seed, seconds, tally, units)
        else:
            metrics = end_to_end(bench, seed, seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    for problem in tally.problems:
        print(f"  FAILED {problem}")
    print(f"  failed_frac  {tally.failed / tally.attempted:.6g} ratio ({tally.failed}/{tally.attempted})")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dimix" / "cli.py").is_file():
        print(f"error: no dimix sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
