"""Deterministic random streams.

Every stochastic piece of the package draws from a Philox generator keyed by
(seed, stream path), so independent components never share a stream and any
single run can be reproduced from its seed alone.  ``DrawStream`` reads a
batch of such generators in lockstep, a block at a time: Philox values
concatenate exactly across calls, so the block length never changes a value.
"""

from __future__ import annotations

import numpy as np

# Bytes of values drawn ahead, per batch and per seed.  Past a few thousand
# values a Philox call costs no more per value, so a larger row would only
# cost memory.
DRAW_BYTES = 1024 * 1024
ROW_BYTES = 48 * 1024


def philox(seed: int, *stream: int) -> np.random.Generator:
    """Generator for the given seed and stream path.

    Distinct paths (e.g. ``philox(s, 0)`` vs ``philox(s, 1)``) yield
    statistically independent streams for the same seed.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in stream))
    return np.random.Generator(np.random.Philox(ss))


class DrawStream:
    """Values of one distribution from R generators that move in lockstep.

    Generator k fills row k of an (R, width) buffer with uniforms on [0, 1),
    or with ``scale`` set, with ``0.0 + scale * z`` for standard normals z:
    value for value what ``Generator.normal(0.0, scale)`` returns.  Each seed,
    aborted or not, draws ``total`` values in all.  ``take(m)`` gives every
    seed its next m values, the (R, m) slice at the common cursor, and
    takes at most ``widest``: the buffer is that wide at least, else as wide
    as DRAW_BYTES per batch and ROW_BYTES per seed allow.  A refill moves
    the unread tail to the front of each row and fills the rest of the row.
    """

    def __init__(self, gens, total: int, widest: int, scale=None) -> None:
        self.gens = list(gens)
        self.left = int(total)  # values each seed has yet to draw
        self.scale = scale
        width = max(min(ROW_BYTES, DRAW_BYTES // max(len(self.gens), 1)) // 8, int(widest))
        self.buf = np.empty((len(self.gens), min(width, self.left)))
        self.cur = self.end = 0

    def take(self, m: int) -> np.ndarray:
        if self.cur + m > self.end:
            self._refill()
        self.cur += m
        return self.buf[:, self.cur - m : self.cur]

    def _refill(self) -> None:
        tail = self.end - self.cur
        self.buf[:, :tail] = self.buf[:, self.cur : self.end]
        fresh = min(self.buf.shape[1] - tail, self.left)
        for g, row in zip(self.gens, self.buf):
            out = row[tail : tail + fresh]
            if self.scale is None:
                g.random(out=out)
            else:
                g.standard_normal(out=out)
                out *= self.scale
                out += 0.0
        self.left -= fresh
        self.cur, self.end = 0, tail + fresh
