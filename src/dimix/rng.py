"""Deterministic random streams.

Every stochastic piece of the package draws from a Philox generator keyed by
(seed, stream path), so independent components never share a stream and any
single run can be reproduced from its seed alone.  ``DrawStream`` reads a
batch of such generators a block at a time: Philox values concatenate
exactly across calls, so the block length never changes a seed's values.
"""

from __future__ import annotations

import numpy as np

# Bytes of values drawn ahead, per batch and per seed; a block holds whole
# steps.  Past a few thousand values a Philox call costs no more per value,
# so a larger row would only cost memory.
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
    """Values of one distribution from R generators, drawn a block at a time.

    Generator k fills row k of an (R, width) buffer with uniforms on [0, 1),
    or with ``scale`` set, with ``0.0 + scale * z`` for standard normals z:
    value for value what ``Generator.normal(0.0, scale)`` returns.
    ``sizes[i]`` is how many values each seed takes at step i when it skips
    nothing.  A refill at step i draws the whole steps i, i+1, ... that fit
    in DRAW_BYTES per batch and ROW_BYTES per seed (step i at least), and no
    seed ever draws more than its ``need`` (default: the sum of ``sizes``).

    ``take(m)`` gives every seed its next m values.  While the seeds move in
    step that is the (R, m) slice of the buffer at their common cursor.
    ``take_each(counts)`` gives seed k its next counts[k] values; a seed that
    takes fewer keeps its own cursor, and the next refill moves each seed's
    remainder to the front of its row, so the rows align again.
    """

    def __init__(self, gens, sizes, scale=None, need=None) -> None:
        self.gens = list(gens)
        R = len(self.gens)
        self._bounds = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
        total = int(self._bounds[-1])
        # Per-seed counts are Python lists: a refill reads them once per seed.
        self.left = [total] * R if need is None else [int(v) for v in need]
        self.scale = scale
        self._block = max(min(ROW_BYTES, DRAW_BYTES // max(R, 1)) // 8, int(np.max(sizes, initial=0)))
        self.buf = np.empty((R, min(self._block, max(self.left, default=0))))
        self.end = [0] * R
        self.cur = [0] * R  # read only while the seeds are out of step
        self.step = 0
        self._even, self._c, self._lo = True, 0, 0  # in step, common cursor, min end

    def take(self, m: int) -> np.ndarray:
        if not self._even or self._c + m > self._lo:
            self._refill()
        c = self._c
        self._c, self.step = c + m, self.step + 1
        return self.buf[:, c : c + m]

    def take_each(self, counts):
        counts = [int(m) for m in counts]
        cur = [self._c] * len(counts) if self._even else self.cur
        if any(a + m > b for a, m, b in zip(cur, counts, self.end)):
            self._refill()
            cur = [0] * len(counts)
        self.cur = [a + m for a, m in zip(cur, counts)]
        self._even, self.step = False, self.step + 1
        return [self.buf[k, a : a + m] for k, (a, m) in enumerate(zip(cur, counts))]

    def keep(self, ok) -> None:
        """Drop the seeds whose ``ok`` entry is False."""
        self.gens, self.end, self.left, self.cur = (
            [v for v, keep in zip(seq, ok) if keep] for seq in (self.gens, self.end, self.left, self.cur)
        )
        self.buf = self.buf[ok]
        self._lo = min(self.end)

    def _refill(self) -> None:
        start = self._bounds[self.step]
        stop = self._bounds.searchsorted(start + self._block, side="right") - 1
        block = int(self._bounds[max(stop, self.step + 1)] - start)
        cur = [self._c] * len(self.gens) if self._even else self.cur
        end, left = self.end, self.left
        for k, (g, row, a) in enumerate(zip(self.gens, self.buf, cur)):
            rem = end[k] - a
            if a and rem:
                row[:rem] = row[a : end[k]]
            fresh = min(block - rem, left[k])
            if fresh > 0:
                out = row[rem : rem + fresh]
                if self.scale is None:
                    g.random(out=out)
                else:
                    g.standard_normal(out=out)
                    out *= self.scale
                    out += 0.0
                left[k] -= fresh
                rem += fresh
            end[k] = rem
        self._even, self._c, self._lo = True, 0, min(end, default=block)
