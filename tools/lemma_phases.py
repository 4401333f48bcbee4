"""Time the lemma suite's two phases, check by check.

    PYTHONPATH=<tree>/src python3 tools/lemma_phases.py

runs each check of ``dimix.lemmas`` as ``dimix lemmas`` does at seed 0 (its
default 1000 instances) REPEATS times, with whichever dimix the PYTHONPATH
gives, and times the draw phase apart from the evaluate phase.  The draw
phase is ``check.columns``: it pulls blocks of ``lemmas.DRAW_BLOCK``
instances off the check's generator (one Generator call per field per
block) until they hold the budget, then concatenates them field by field and
cuts the last.  The evaluate phase is one ``check.evaluate`` call on those
columns.  It prints one line per check with the instances drawn and the
median milliseconds of each phase, then the totals, nproc and the Python and
numpy versions.  BLAS and OpenMP are pinned to one thread.
"""

import os

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import platform  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from dimix import lemmas  # noqa: E402

REPEATS = 9
SEED = 0
INSTANCES = 1000


def phases(check) -> tuple[float, float, int]:
    """Seconds spent drawing and evaluating one run of ``check``, and the
    instances drawn."""
    start = time.perf_counter()
    columns = check.columns(SEED, INSTANCES)
    mid = time.perf_counter()
    value = check.evaluate(columns)[0]
    return mid - start, time.perf_counter() - mid, value.size


def main() -> None:
    totals = [0.0, 0.0, 0]
    print(f"{'check':<28} {'instances':>9} {'draw_ms':>8} {'evaluate_ms':>12}")
    for check in lemmas.ALL_CHECKS:
        phases(check)  # warm caches and lazy imports
        runs = [phases(check) for _ in range(REPEATS)]
        draw = statistics.median(r[0] for r in runs) * 1e3
        evaluate = statistics.median(r[1] for r in runs) * 1e3
        count = runs[0][2]
        totals[0] += draw
        totals[1] += evaluate
        totals[2] += count
        print(f"{check.name:<28} {count:9d} {draw:8.2f} {evaluate:12.2f}")
    print(f"{'total':<28} {totals[2]:9d} {totals[0]:8.2f} {totals[1]:12.2f}")
    print(
        f"seed {SEED}, {INSTANCES} instances per check, median of {REPEATS}; "
        f"nproc {os.cpu_count()}, Python {platform.python_version()}, numpy {np.__version__}"
    )


if __name__ == "__main__":
    main()
