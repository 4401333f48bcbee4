"""Time the pinned Monte Carlo setups, each in a fresh interpreter.

    PYTHONPATH=<tree>/src python3 tools/pinned_mc.py

runs ``monte_carlo`` on three setups with whichever dimix the PYTHONPATH
gives: the n=20 fixed cycle and the n=20 gossip schedule (20 runs x T=5000,
quantizer s=4, Section-3 steps, instance seed 42, run seeds from 100), and
the criterion-8 setup (gossip n=4, uniform weights, 50 runs x T=5000, s=4,
alpha0=0.25, nu=0.05, beta0=0.8, mu=0.1).  Each setup runs REPEATS times,
every time in a new process so that no heap history carries over, and only
the ``monte_carlo`` call is timed.  BLAS and OpenMP are pinned to one
thread.  The result is one JSON line: the median seconds per setup, the
samples, nproc and the Python and numpy versions.  A child that fails
(say, on an ImportError when PYTHONPATH misses the tree) has its stderr
passed through, and the script exits 1.
"""

import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

REPEATS = 3

SETUP = """
import time
import numpy as np
from dimix.analysis import StepSchedule
from dimix.dynamics import RunConfig, monte_carlo
from dimix.noise import NoiseModel
from dimix.objective import build_problem
from dimix.topology import fixed_cycle_schedule, gossip_schedule
"""

CASES = {
    "fixed_cycle": (
        "p = build_problem(seed=42)\n"
        "cfg = RunConfig(problem=p, schedule=fixed_cycle_schedule(p.r),\n"
        "    steps=StepSchedule(0.1, 0.25, 0.7, 0.75), T=5000, noise=NoiseModel('stochastic_quantizer', levels=4))\n"
        "runs = 20\n"
    ),
    "gossip": (
        "p = build_problem(seed=42)\n"
        "cfg = RunConfig(problem=p, schedule=gossip_schedule(p.r),\n"
        "    steps=StepSchedule(0.1, 0.25, 0.7, 0.75), T=5000, noise=NoiseModel('stochastic_quantizer', levels=4))\n"
        "runs = 20\n"
    ),
    "criterion_8": (
        "p = build_problem(n=4, d=25, N=100, seed=42, r=np.full(4, 0.25))\n"
        "cfg = RunConfig(problem=p, schedule=gossip_schedule(p.r),\n"
        "    steps=StepSchedule(0.25, 0.05, 0.8, 0.1), T=5000, noise=NoiseModel('stochastic_quantizer', levels=4))\n"
        "runs = 50\n"
    ),
}

TIMED = "t0 = time.perf_counter()\nmonte_carlo(cfg, runs, seed=100)\nprint(time.perf_counter() - t0)\n"


def main() -> int:
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    samples = {name: [] for name in CASES}
    for _ in range(REPEATS):
        for name, body in CASES.items():
            out = subprocess.run(
                [sys.executable, "-c", SETUP + body + TIMED],
                env=env,
                capture_output=True,
                text=True,
            )
            if out.returncode:
                sys.stderr.write(out.stderr)
                print(f"{name}: the child exited {out.returncode}", file=sys.stderr)
                return 1
            samples[name].append(round(float(out.stdout.split()[-1]), 3))
    result = {
        "median_s": {name: statistics.median(v) for name, v in samples.items()},
        "samples_s": samples,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
