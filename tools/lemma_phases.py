"""Time the lemma suite's two phases, check by check.

    PYTHONPATH=<tree>/src python3 tools/lemma_phases.py

runs each check of ``dimix.lemmas`` as ``dimix lemmas`` does at seed 0 (its
default 1000 instances) REPEATS times, with whichever dimix the PYTHONPATH
gives, and times the draw phase (pulling the instances off the check's
generator, which reads its stream a block of ``lemmas.DRAW_BLOCK``
instances at a time, one Generator call per field per block) apart from
the evaluate phase (one ``check.evaluate`` call on all of them).  It prints
one line per check with the median milliseconds of each phase, then the
totals, nproc and the Python and numpy versions.  BLAS and OpenMP are
pinned to one thread.
"""

import os

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import platform  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from itertools import islice  # noqa: E402

import numpy as np  # noqa: E402

from dimix import lemmas  # noqa: E402
from dimix.rng import philox  # noqa: E402

REPEATS = 9
SEED = 0
INSTANCES = 1000


def phases(check) -> tuple[float, float]:
    """Seconds spent drawing and evaluating one run of ``check``."""
    start = time.perf_counter()
    block = list(islice(check.draw(philox(SEED, check.stream)), INSTANCES))
    mid = time.perf_counter()
    check.evaluate(block)
    return mid - start, time.perf_counter() - mid


def main() -> None:
    totals = [0.0, 0.0]
    print(f"{'check':<28} {'draw_ms':>8} {'evaluate_ms':>12}")
    for check in lemmas.ALL_CHECKS:
        phases(check)  # warm caches and lazy imports
        runs = [phases(check) for _ in range(REPEATS)]
        draw = statistics.median(r[0] for r in runs) * 1e3
        evaluate = statistics.median(r[1] for r in runs) * 1e3
        totals[0] += draw
        totals[1] += evaluate
        print(f"{check.name:<28} {draw:8.2f} {evaluate:12.2f}")
    print(f"{'total':<28} {totals[0]:8.2f} {totals[1]:12.2f}")
    print(
        f"seed {SEED}, {INSTANCES} instances per check, median of {REPEATS}; "
        f"nproc {os.cpu_count()}, Python {platform.python_version()}, numpy {np.__version__}"
    )


if __name__ == "__main__":
    main()
