"""Deterministic random streams.

Every stochastic piece of the package draws from a Philox generator keyed by
(seed, stream path), so independent components never share a stream and any
single run can be reproduced from its seed alone.  ``fill`` draws from a
batch of such generators in lockstep: Philox values concatenate exactly
across calls, so how a caller splits its draws never changes a value.
"""

from __future__ import annotations

import numpy as np


def philox(seed: int, *stream: int) -> np.random.Generator:
    """Generator for the given seed and stream path.

    Distinct paths (e.g. ``philox(s, 0)`` vs ``philox(s, 1)``) yield
    statistically independent streams for the same seed.  A negative seed
    raises ValueError.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in stream))
    return np.random.Generator(np.random.Philox(ss))


def fill(gens, out: np.ndarray, scale=None) -> None:
    """Fill row k of the (R, m) ``out`` with generator k's next m values:
    uniforms on [0, 1), or with ``scale`` set, ``0.0 + scale * z`` for
    standard normals z, value for value what ``Generator.normal(0.0, scale)``
    returns."""
    for g, row in zip(gens, out):
        if scale is None:
            g.random(out=row)
        else:
            g.standard_normal(out=row)
            row *= scale
            row += 0.0
