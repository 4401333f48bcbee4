"""Model, trace and validation-report helpers shared by the test modules."""

import heapq
import importlib.util
import sys
from itertools import islice
from pathlib import Path

import numpy as np

from dimix.dynamics import TRACE_COLUMNS
from dimix.noise import NoiseModel
from dimix.objective import Problem
from dimix.topology import MixingSchedule


def model(Us, vs, r) -> Problem:
    """A Problem whose agent i holds exactly the points (Us[i], vs[i]); the
    pool is their concatenation, and its x_star is solved as always."""
    U, v, r = np.concatenate(Us), np.concatenate(vs), np.asarray(r, dtype=float)
    ends = np.cumsum([len(u) for u in Us])
    shards = tuple(np.arange(end - len(u), end) for u, end in zip(Us, ends))
    return Problem(U, v, r, shards)


def with_weights(matrices, r) -> MixingSchedule:
    """A matrix-list schedule that carries the given weights r, built
    directly: ``matrix_list_schedule`` always solves the matrices for r, so
    this is how a test gets weights the matrices do not preserve, or keeps
    an exact r that the solver would round."""
    return MixingSchedule(kind="matrix_list", r=np.asarray(r, dtype=float), matrices=np.array(matrices, dtype=float))


def col(values, name):
    """One named column of a (T, 4) trace or Monte Carlo array."""
    return values[..., TRACE_COLUMNS.index(name)]


def noiseless() -> NoiseModel:
    return NoiseModel("noiseless")


def gaussian_channel(sigma: float) -> NoiseModel:
    return NoiseModel("gaussian_channel", sigma=float(sigma))


def stochastic_quantizer(levels: int) -> NoiseModel:
    return NoiseModel("stochastic_quantizer", levels=int(levels))


def failing_starts(report, limit=None) -> tuple[list[int], int]:
    """A validation report's failing window starts, expanded from its
    (failing_residues, period, windows_checked): the starts ascending (the
    first ``limit`` of them when given) and how many there are in all."""
    ranges = [range(s, report.windows_checked + 1, report.period) for s in report.failing_residues]
    return list(islice(heapq.merge(*ranges), limit)), sum(map(len, ranges))


def repo_script(folder: str, name: str):
    """<folder>/<name>.py of the repository, loaded by its path as a script
    there is run."""
    path = Path(__file__).resolve().parents[1] / folder / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"{folder}_{name}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module
