"""Regenerate reference.json: each workload's final statistics at its
benchmark size and recorded seed.

    python3 perfbench/record_reference.py

Run it only when a workload's definition changes on purpose (settings, sizes,
commands).  A program change that moves these numbers is what the stored
reference exists to catch; re-recording to make it pass defeats the check.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from workloads import WORKLOADS

SEED = 0


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    stored = {}
    for name, wl in WORKLOADS.items():
        work = run.WORK / f"record-{name}"
        work.mkdir()
        try:
            _, _, outcome = run.Bench(wl, wl.size, work).rep(SEED)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if outcome.failed:
            print(f"{name}: output checks failed, nothing recorded: {outcome.problems}")
            return 1
        stored[name] = {
            "seed": SEED,
            "runs": wl.size.runs,
            "T": wl.size.T,
            "finals": outcome.finals,
        }
        print(f"{name}: {len(outcome.finals)} final statistics")
    run.WORK.rmdir()
    run.REFERENCE.write_text(json.dumps({"workloads": stored}, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
