"""Span tracing of dimix's layers, installed from outside the package.

``Tracer.install`` rebinds public names in dimix's modules (for example
``dimix.dynamics.stochastic_quantize`` or ``dimix.cli.monte_carlo``) to timing
wrappers and ``Tracer.uninstall`` puts the originals back; no file of the
package is edited.  The names are the ones each call site looks up at run
time, so the wrapped call is the one the engine makes.  A target that no
longer exists (renamed or removed by a later change) is recorded in
``Tracer.absent`` instead of raising.

Spans are kept in memory as ``[name, start_ns, end_ns, parent index]`` and
folded by ``Tracer.summary`` into per-name totals and self times (duration
minus the time covered by direct child spans).  Work counts (rows quantized,
values drawn, bytes written, ...) are summed in ``Tracer.counts`` at the same
boundaries.
"""

from __future__ import annotations

import importlib
import os
import pickle
import time

import numpy as np

_clock = time.perf_counter_ns


def _rows(result, args, kwargs) -> int:
    return int(np.shape(result)[0]) if np.ndim(result) == 2 else 1


def _size(result, args, kwargs) -> int:
    return int(np.size(result))


def _suite_instances(result, args, kwargs) -> int:
    return int(result.total_instances)


def _seed_iters(result, args, kwargs) -> int:
    return sum(len(tr.t) for tr in result.traces)


def _pickled_traces(result, args, kwargs) -> int:
    # What a process pool would ship back: the pickled list of traces.
    return len(pickle.dumps(result.traces, protocol=pickle.HIGHEST_PROTOCOL))


def _file_bytes(result, args, kwargs) -> int:
    return os.path.getsize(args[0])


# (module, attribute path, span name, {count name: count function}).
# Spans that share a name are summed: the "analysis.diag" span is the
# per-step diagnostics, "analysis.certificate" the certificate constants.
TARGETS = (
    ("dimix.cli", "build_experiment", "cli.build_experiment", {}),
    ("dimix.cli", "build_problem", "objective.build_problem", {}),
    ("dimix.cli", "fixed_cycle_schedule", "topology.schedule_build", {}),
    ("dimix.cli", "gossip_schedule", "topology.schedule_build", {}),
    ("dimix.cli", "validate_schedule", "topology.validate", {}),
    ("dimix.cli", "run_suite", "lemmas.suite", {"lemmas.instances": _suite_instances}),
    ("dimix.cli", "thresholds", "analysis.certificate", {}),
    ("dimix.cli", "xi_constants", "analysis.certificate", {}),
    ("dimix.cli", "theorem_bound", "analysis.certificate", {}),
    (
        "dimix.cli",
        "monte_carlo",
        "dynamics.monte_carlo",
        {"dynamics.seed_iters": _seed_iters, "dynamics.pool.bytes_returned": _pickled_traces},
    ),
    ("dimix.dynamics", "run", "dynamics.run", {}),
    ("dimix.dynamics", "stochastic_quantize", "noise.quantize", {"noise.quantize.rows": _rows}),
    ("dimix.dynamics", "weighted_mean", "analysis.diag", {}),
    ("dimix.dynamics", "deviation_sq", "analysis.diag", {}),
    ("dimix.dynamics", "dist_opt_sq", "analysis.diag", {}),
    ("dimix.analysis", "StepSchedule.alpha", "analysis.steps", {}),
    ("dimix.analysis", "StepSchedule.beta", "analysis.steps", {}),
    ("dimix.objective", "Problem.pooled_loss", "objective.pooled_loss", {}),
)

# Spans recorded only inside an open span of another name.  StepSchedule is
# also called by the lemma suite, the certificate and pi_factor; those calls
# are left untraced, so their time stays in the caller's self time and
# analysis.steps.us_per_iter holds only the engine's per-iteration calls.
WITHIN = {"analysis.steps": "dynamics.run"}

# Every CSV/manifest writer the CLI calls is found by prefix, so a merged or
# renamed writer is still timed.
_WRITER_PREFIX = "write_"


class CountingGenerator:
    """Delegating proxy around a numpy Generator: every method call is a
    ``rng.draw`` span whose count is the number of values returned."""

    def __init__(self, gen: np.random.Generator, tracer: "Tracer") -> None:
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, attr: str):
        value = getattr(self._gen, attr)
        if not callable(value):
            return value
        wrapped = self._tracer.wrap("rng.draw", value, {"rng.draws": _size})
        setattr(self, attr, wrapped)  # later lookups skip __getattr__
        return wrapped


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, counters: dict, within: str | None = None):
        """Return ``fn`` timed as span ``name``; with ``within``, only calls
        made inside an open span of that name are recorded."""
        spans, stack, counts = self.spans, self._stack, self.counts
        absent = self.absent

        def traced(*args, **kwargs):
            if within is not None and all(spans[i][0] != within for i in stack):
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, _clock(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = _clock()
                stack.pop()
            for key, count in counters.items():
                try:
                    counts[key] = counts.get(key, 0) + count(result, args, kwargs)
                except (AttributeError, TypeError):
                    if key not in absent:
                        absent.append(key)
            return result

        return traced

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    # -- installing --------------------------------------------------------

    def _rebind(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        self.absent.clear()
        for module_name, path, span, counters in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                fn = owner.__dict__[attr]
            except (AttributeError, KeyError):
                self.absent.append(f"{module_name}.{path}")
                continue
            self._rebind(owner, attr, self.wrap(span, fn, counters, WITHIN.get(span)))

        cli = importlib.import_module("dimix.cli")
        for attr, fn in list(vars(cli).items()):
            if (
                attr.startswith(_WRITER_PREFIX)
                and callable(fn)
                and getattr(fn, "__module__", "") == "dimix.reporting"
            ):
                self._rebind(
                    cli, attr, self.wrap("reporting.write", fn, {"reporting.bytes_written": _file_bytes})
                )

        dynamics = importlib.import_module("dimix.dynamics")
        philox = dynamics.__dict__.get("philox")
        if philox is None:
            self.absent.append("dimix.dynamics.philox")
        else:
            self._rebind(
                dynamics, "philox", lambda *a, **k: CountingGenerator(philox(*a, **k), self)
            )

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_ns`` and ``self_ns``."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), kids in zip(self.spans, child_ns):
            agg = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            agg["calls"] += 1
            agg["total_ns"] += end - start
            agg["self_ns"] += end - start - kids
        return out
