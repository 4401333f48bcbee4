"""Row-stochastic mixing schedules on a weighted cycle.

Agents share state through a sequence of row-stochastic matrices W(1), W(2), ...
that all preserve a common positive weight vector r from the left (r' W = r').
Two built-in families live on the n-cycle:

* ``fixed_cycle_schedule``: every iteration uses the same matrix, built by a
  detailed-balance rule on the undirected cycle, so each agent always talks to
  both cyclic neighbors.
* ``gossip_schedule``: iteration t activates the single cycle edge joining
  agents ``t mod n`` and ``(t+1) mod n`` (0-based); everyone else keeps their
  own state.  The schedule has period n.

Arbitrary user-supplied periodic schedules are wrapped by
``matrix_list_schedule``.  ``validate_schedule`` checks the assumptions the
convergence analysis needs (exact row sums, left-stationarity of r, strong
connectivity of every length-B window) and measures the entry floor eta.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

# Absolute tolerance for "sums to one" checks on weight vectors and matrix rows.
STOCHASTICITY_TOL = 1e-12
# Largest max |r'W - r| accepted when weights must be left-stationary for a
# schedule's matrices, found or given.
STATIONARITY_TOL = 1e-9


def make_weight_vector(p) -> np.ndarray:
    """Normalize positive scores p into a weight vector r with sum(r) == 1.

    Raises ValueError for empty input, nonfinite entries, entries <= 0, or a
    sum beyond the float range; a finite sum leaves |sum(r) - 1| a few ulps.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("weight scores must be a nonempty 1-D array")
    if not np.all(np.isfinite(p)):
        raise ValueError("weight scores must be finite")
    if np.any(p <= 0.0):
        bad = int(np.argmax(p <= 0.0))
        raise ValueError(
            f"weight scores must be strictly positive; index {bad} is {p[bad]}"
        )
    with np.errstate(over="ignore"):
        total = p.sum()
    if not np.isfinite(total):
        raise ValueError("the sum of the weight scores is beyond the float range")
    return p / total


def _check_weights(r) -> np.ndarray:
    """r as a float array whose rows along the last axis are weight vectors,
    checked to be positive and to sum to 1: one vector (n,) or a stack."""
    r = np.asarray(r, dtype=float)
    if (r <= 0.0).any() or np.abs(r.sum(-1) - 1.0).max() > STOCHASTICITY_TOL:
        raise ValueError("weight vector must be positive and sum to 1")
    return r


def _fixed_cycle_matrix(r: np.ndarray) -> np.ndarray:
    """Static-cycle matrix for weights r (n,), or one per row of r (..., n):
    ``W[i, j] = r[j] / (2 (r[i] + r[j]))`` for the cycle neighbors j of i and
    the rest on the diagonal.  Detailed balance (r[i] W[i, j] == r[j] W[j, i])
    keeps r left-stationary, and each row sums to 1/2 + 1/2."""
    n = r.shape[-1]
    i = np.arange(n)
    up = (i + 1) % n
    dn = i - 1  # index -1 is agent n - 1
    to_up = 2.0 * (r + r[..., up])
    to_dn = 2.0 * (r + r[..., dn])
    W = np.zeros(r.shape + (n,))
    W[..., i, up] = r[..., up] / to_up
    W[..., i, dn] = r[..., dn] / to_dn
    W[..., i, i] = r / to_up + r / to_dn
    return W


def gossip_pair(n: int, t: int) -> tuple[int, int]:
    """0-based agent pair activated by the gossip schedule at iteration t >= 1."""
    return t % n, (t + 1) % n


def _gossip_matrices(r: np.ndarray) -> np.ndarray:
    """One period of gossip matrices (slot t - 1 is iteration t), stacked
    (n, n, n) for weights r (n,), or (..., n, n, n) for a stack of them.  The
    active pair (a, b) puts weight ``r[j] / (r[a] + r[b])`` on column j, which
    keeps r left-stationary; every other row is an identity row."""
    n = r.shape[-1]
    k = np.arange(n)
    a, b = gossip_pair(n, k + 1)
    s = r[..., a] + r[..., b]
    W = np.zeros(r.shape[:-1] + (n, n, n))
    W[..., k, k] = 1.0
    W[..., k, a, a] = r[..., a] / s
    W[..., k, a, b] = r[..., b] / s
    W[..., k, b, a] = r[..., a] / s
    W[..., k, b, b] = r[..., b] / s
    return W


def strongly_connected(links: np.ndarray):
    """Whether the digraph with adjacency ``links`` (n, n), ``links[i, j]``
    meaning an edge from j to i, is strongly connected; one verdict per item
    of a stack (..., n, n).  ceil(log2 n) boolean squarings of ``links | I``
    give the reachability closure, which must be all true.
    """
    n = links.shape[-1]
    reach = links | np.eye(n, dtype=bool)
    for _ in range((n - 1).bit_length()):
        reach = reach @ reach
    return reach.all(axis=(-2, -1))


@dataclass
class MixingSchedule:
    """A periodic sequence of mixing matrices plus the metadata the analysis
    needs: the common stationary weights r and, measured from the matrices,
    n, the entry floor eta and the connectivity window B (the period).

    ``matrices`` holds one period, stacked (period, n, n); ``matrix_at(t)``
    cycles it for t >= 1.  ``links`` (period, n, n) holds the communication
    links the connectivity check pools: ``links[s, i, j]`` means agent j's
    state reaches agent i in slot s.  Gossip declares its activation pair;
    every other schedule uses the matrix support.
    """

    kind: str
    r: np.ndarray
    matrices: np.ndarray
    links: np.ndarray
    n: int = field(init=False)
    B: int = field(init=False)
    eta: float = field(init=False)

    def __post_init__(self) -> None:
        self.n, self.B, self.eta = self.matrices.shape[-1], len(self.matrices), entry_floor(self.matrices)

    def matrix_at(self, t: int) -> np.ndarray:
        if t < 1:
            raise ValueError("iterations are numbered from 1")
        return self.matrices[(t - 1) % self.B]


def entry_floor(matrices):
    """The entry floor eta: the smallest positive entry of one period of
    mixing matrices (period, n, n), or one per item of a batch
    (G, period, n, n)."""
    W = np.asarray(matrices)
    positive = W > 0.0
    if not positive.any(axis=(-3, -2, -1)).all():
        raise ValueError("schedule has no positive entries")
    floors = W.min(axis=(-3, -2, -1), where=positive, initial=np.inf)
    return floors if floors.ndim else float(floors)


def family_window(kind: str, n: int) -> int:
    """Connectivity window B of the built-in family ``kind`` on n agents:
    every fixed-cycle matrix connects the whole cycle, and n consecutive
    gossip links (one period) cover it.  This is the one check of a family:
    it rejects an unknown ``kind`` and fewer than 3 agents."""
    if kind not in ("fixed_cycle", "gossip"):
        raise ValueError(f"unknown schedule family {kind!r}")
    if n < 3:
        raise ValueError(f"the {kind} family needs n >= 3 agents, got n = {n}")
    return 1 if kind == "fixed_cycle" else n


def family_matrices(kind: str, r) -> np.ndarray:
    """One period of the built-in family's mixing matrices for weights r
    (n,), stacked (period, n, n), or for a stack (..., n) of weight vectors,
    stacked (..., period, n, n).  Item g of a stack is what the family's
    schedule constructor builds from row g."""
    r = _check_weights(r)
    family_window(kind, r.shape[-1])
    if kind == "fixed_cycle":
        return _fixed_cycle_matrix(r)[..., None, :, :]
    return _gossip_matrices(r)


def _family_schedule(kind: str, r) -> MixingSchedule:
    r = np.asarray(r, dtype=float)
    if r.ndim != 1:
        raise ValueError(f"a {kind} schedule takes one 1-D weight vector, got shape {r.shape}")
    n = r.size
    W = family_matrices(kind, r)
    links = W > 0.0
    if kind == "gossip":
        a, b = gossip_pair(n, np.arange(1, n + 1))
        links = np.zeros_like(links)
        links[np.arange(n), b, a] = True
    return MixingSchedule(kind=kind, r=r, matrices=W, links=links)


def fixed_cycle_schedule(r) -> MixingSchedule:
    """Static cycle schedule; every window of length B = 1 is the whole cycle."""
    return _family_schedule("fixed_cycle", r)


def gossip_schedule(r) -> MixingSchedule:
    """Single-edge gossip schedule with period n and window length B = n.

    The declared link at iteration t is the ordered activation pair
    ``(t mod n, (t+1) mod n)``, one edge of the directed cycle, so the declared
    links are B-connected exactly at B = n.  The realized exchange is
    bidirectional, so any window they accept is connected in it too.
    """
    return _family_schedule("gossip", r)


def stationary_weights(matrices) -> np.ndarray:
    """Common positive left-fixed vector of a matrix family (period, n, n),
    normalized to sum 1: the projection of the uniform vector onto the
    solution space N of r'(W_b - I) = 0, found by SVD.  x'W = x' implies
    |x|'W = |x|' for stochastic W, so N is spanned by nonnegative vectors
    with disjoint supports, and the projection is positive exactly when some
    vector of N is.  Raises ValueError when N is empty, when the projection
    is not positive, or when its residual exceeds STATIONARITY_TOL.
    """
    W = np.asarray(matrices, dtype=float)
    n = W.shape[-1]
    stacked = (W.transpose(0, 2, 1) - np.eye(n)).reshape(-1, n)
    _, svals, vt = np.linalg.svd(stacked, full_matrices=False)
    basis = vt[svals <= STATIONARITY_TOL * max(1.0, svals[0])]
    if basis.size == 0:
        raise ValueError("matrix family has no common stationary vector")
    candidate = basis.T @ (basis @ np.full(n, 1.0 / n))
    if np.any(candidate <= STATIONARITY_TOL / n):
        raise ValueError(
            "no strictly positive common stationary vector found; "
            "supply the weight vector explicitly"
        )
    r = candidate / candidate.sum()
    worst = float(np.abs(r @ W - r).max())
    if worst > STATIONARITY_TOL:
        raise ValueError(f"candidate stationary vector has residual {worst:.2e} (tol {STATIONARITY_TOL:.0e})")
    return r


def matrix_list_schedule(matrices, r=None) -> MixingSchedule:
    """Wrap an explicit periodic list of mixing matrices.

    ``r`` is solved for when omitted; the connectivity window B is the
    period.  Rows must be stochastic to 1e-9 here (the strict 1e-12
    measurement is ``validate_schedule``'s job).
    """
    shapes = {np.shape(M) for M in matrices}
    if not shapes:
        raise ValueError("need at least one matrix")
    shape = shapes.pop()
    if shapes or len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError("all matrices must be square with equal size")
    W = np.array(matrices, dtype=float)
    if not np.isfinite(W).all() or (W < 0.0).any():
        raise ValueError("matrix entries must be finite and nonnegative")
    if np.abs(W.sum(axis=2) - 1.0).max() > 1e-9:
        raise ValueError("matrix rows must sum to 1")
    n = W.shape[1]
    if r is not None and np.shape(r) != (n,):
        raise ValueError(f"weight vector shape {np.shape(r)} does not match the matrices ({n},)")
    r = stationary_weights(W) if r is None else _check_weights(r)
    return MixingSchedule(kind="matrix_list", r=r, matrices=W, links=W > 0.0)


def parse_matrix_file(path) -> list[np.ndarray]:
    """Read a periodic matrix schedule from text: comma-separated rows, one
    blank-line-separated block per iteration slot."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    slots: list[list[list[float]]] = [[]]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            if slots[-1]:
                slots.append([])
            continue
        try:
            row = [float(tok) for tok in line.split(",")]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad matrix row: {raw!r}") from exc
        block = slots[-1]
        if block and len(row) != len(block[0]):
            raise ValueError(f"{path}:{lineno}: row has {len(row)} entries, block has {len(block[0])}")
        block.append(row)
    blocks = [np.array(rows, dtype=float) for rows in slots if rows]
    if not blocks:
        raise ValueError(f"{path}: no matrix blocks found")
    for b, W in enumerate(blocks):
        if W.shape[0] != W.shape[1]:
            raise ValueError(f"{path}: block {b + 1} is not square")
        if W.shape != blocks[0].shape:
            raise ValueError(f"{path}: block {b + 1} size differs from block 1")
    return blocks


class WindowStarts(Sequence):
    """The window starts s + k * period in [1, last], ascending, for the
    ascending residues s in [1, period], which are all it keeps.  Read-only;
    equal to any sequence that lists the same starts."""

    def __init__(self, residues, period: int, last: int) -> None:
        self.residues, self.period = [int(s) for s in residues], period
        self.length = sum((last - s) // period + 1 for s in self.residues)

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self.length))]
        k, j = divmod(range(self.length)[i], len(self.residues))  # range raises IndexError
        return self.residues[j] + k * self.period

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)


@dataclass
class ValidationReport:
    """Measured compliance of a schedule with the mixing assumptions.  The
    entry floor is only reported: it is never below eta, the period's floor."""

    kind: str
    n: int
    horizon: int
    window: int
    max_row_sum_dev: float
    max_stationarity_dev: float
    min_positive_entry: float
    windows_checked: int
    connectivity_failures: Sequence[int]
    edge_source: str

    @property
    def stochasticity_ok(self) -> bool:
        return self.max_row_sum_dev <= STOCHASTICITY_TOL and self.max_stationarity_dev <= STOCHASTICITY_TOL

    @property
    def connectivity_ok(self) -> bool:
        return not self.connectivity_failures

    @property
    def passed(self) -> bool:
        return self.stochasticity_ok and self.connectivity_ok

    def summary(self) -> str:
        lines = [
            f"schedule {self.kind}: n={self.n} horizon={self.horizon} window={self.window}",
            f"  row sums        max dev {self.max_row_sum_dev:.3e}"
            f"  ({'ok' if self.max_row_sum_dev <= STOCHASTICITY_TOL else 'FAIL'})",
            f"  r-stationarity  max dev {self.max_stationarity_dev:.3e}"
            f"  ({'ok' if self.max_stationarity_dev <= STOCHASTICITY_TOL else 'FAIL'})",
            f"  entry floor     min positive {self.min_positive_entry:.6g}",
        ]
        if self.windows_checked:
            if self.connectivity_ok:
                lines.append(
                    f"  connectivity    all {self.windows_checked} windows strongly"
                    f" connected ({self.edge_source})"
                )
            else:
                failures = self.connectivity_failures
                shown = ", ".join(str(t) for t in failures[:5])
                more = f" (+{len(failures) - 5} more)" if len(failures) > 5 else ""
                lines.append(
                    f"  connectivity    FAIL at window starts {shown}{more}"
                    f" of {self.windows_checked} ({self.edge_source})"
                )
        else:
            lines.append("  connectivity    no complete window inside horizon")
        lines.append(f"  overall         {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def validate_schedule(
    schedule: MixingSchedule, horizon: int, window: int | None = None
) -> ValidationReport:
    """Measure a schedule against the mixing assumptions over t in [1, horizon].

    Stochasticity is checked, and the entry floor measured, on the period
    slots that occur by the horizon (the matrices repeat exactly, so this
    covers every t).  Connectivity is checked for every window start t in
    [1, horizon - window]: the links of iterations t+1 .. t+window are pooled
    and the pooled digraph must be strongly connected.  Starts one period
    apart pool the same slots, so one closure per residue mod the period
    decides them all, and the report keeps the failing ones (WindowStarts).
    ``window`` defaults to the schedule's B, its period.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    window = schedule.B if window is None else int(window)
    if window < 1:
        raise ValueError("window must be >= 1")

    r, period, W = schedule.r, schedule.B, schedule.matrices[:horizon]
    count = max(horizon - window, 0)
    first = np.arange(1, min(count, period) + 1)
    # Start s pools slots s .. s+window-1 (mod period), which is every slot
    # once the window outgrows the period.
    slots = (first[:, None] + np.arange(min(window, period))) % period
    pooled = np.zeros((len(slots), schedule.n, schedule.n), dtype=bool)
    for column in slots.T:
        pooled |= schedule.links[column]

    return ValidationReport(
        kind=schedule.kind, n=schedule.n, horizon=horizon, window=window,
        max_row_sum_dev=float(np.abs(W.sum(axis=2) - 1.0).max()),
        max_stationarity_dev=float(np.abs(r @ W - r).max()),
        min_positive_entry=entry_floor(W), windows_checked=count,
        connectivity_failures=WindowStarts(first[~strongly_connected(pooled)], period, count),
        edge_source="declared activation links" if schedule.kind == "gossip" else "matrix support",
    )
