"""Flat config files, CSV traces, manifests, and minimal SVG plots.

Configs are plain ``key = value`` lines with ``#`` comments.  The manifest a
run writes echoes the resolved config and appends ``derived.*`` lines for
every quantity computed from it (weights, contraction constants, measured
bounds, seeds).  The parser skips the ``derived.`` namespace, so a manifest
is itself a valid config that reproduces the run byte for byte.

Numbers in CSV output are printed with %.17g (enough digits to round-trip a
double) and LF line endings regardless of platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__ as VERSION
from .noise import KINDS as _NOISE_KINDS
from .topology import FAMILIES


def _cast_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _cast_int_list(raw: str) -> tuple[int, ...]:
    items = tuple(int(tok) for tok in raw.split(",") if tok.strip())
    if not items:
        raise ValueError("empty list")
    return items


def _cast_choice(*choices: str):
    def cast(raw: str) -> str:
        if raw not in choices:
            raise ValueError(f"must be one of {choices}")
        return raw

    return cast


# key -> (caster, default).  This is the full config surface; anything else
# (outside the derived. namespace) is rejected.
SCHEMA: dict[str, tuple] = {
    "family": (_cast_choice(*FAMILIES, "matrix_file"), "fixed_cycle"),
    "matrix_file": (str, ""),
    "n": (int, 20),
    "d": (int, 25),
    "N": (int, 100),
    "seed": (int, 0),
    "noise": (_cast_choice(*_NOISE_KINDS), "noiseless"),
    "sigma": (_cast_float, 0.0),
    "quantizer_levels": (int, 0),
    "alpha0": (_cast_float, 0.1),
    "nu": (_cast_float, 0.25),
    "beta0": (_cast_float, 0.7),
    "mu": (_cast_float, 0.75),
    "T": (int, 5000),
    "runs": (int, 20),
    "T_grid": (_cast_int_list, (500, 1000, 2000, 4000, 5000)),
    "p_low": (_cast_float, 0.01),
    "p_high": (_cast_float, 0.09),
    "horizon": (int, 0),
    "window": (int, 0),
    "output_dir": (str, ""),
}


@dataclass(frozen=True)
class Config:
    """Resolved config values plus the set of keys the file actually set
    (so builders can tell an explicit value from a default)."""

    values: dict
    provided: frozenset

    def __getitem__(self, key: str):
        return self.values[key]

    def was_set(self, key: str) -> bool:
        return key in self.provided


def parse_config_text(text: str, source: str = "<config>") -> Config:
    values = {key: default for key, (_, default) in SCHEMA.items()}
    provided: dict[str, int] = {}  # key -> the line that set it
    unknown: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        if key.startswith("derived."):
            continue
        if key not in SCHEMA:
            unknown.append(f"{key} (line {lineno})")
            continue
        if key in provided:
            raise ValueError(f"{source}:{lineno}: {key} is set twice, on lines {provided[key]} and {lineno}")
        caster, _ = SCHEMA[key]
        try:
            values[key] = caster(rhs)
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: bad value for {key}: {exc}") from exc
        provided[key] = lineno
    if unknown:
        raise ValueError(f"{source}: unknown config keys: {', '.join(unknown)}")
    return Config(values=values, provided=frozenset(provided))


def parse_config(path) -> Config:
    path = Path(path)
    return parse_config_text(path.read_text(encoding="utf-8"), source=str(path))


def fmt(value) -> str:
    """One config/CSV token: floats with 17 significant digits, lists
    comma-joined, everything else via str()."""
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    if isinstance(value, (tuple, list, np.ndarray)):
        return ",".join(fmt(v) for v in value)
    return str(value)


def format_config(values: dict) -> str:
    lines = [f"{key} = {fmt(values[key])}" for key in SCHEMA]
    return "\n".join(lines) + "\n"


def write_manifest(path, values: dict, derived: dict) -> None:
    """Config echo plus derived.* facts; the result parses as a config."""
    parts = [format_config(values)]
    for key, val in derived.items():
        parts.append(f"derived.{key} = {fmt(val)}\n")
    Path(path).write_text("".join(parts), encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# CSV output


def write_csv(path, names, index, data) -> None:
    """A CSV table: header ``names``, then one row per entry of ``index``
    (printed as an integer) followed by that row of the 2-D ``data``."""
    template = "%d" + ",%.17g" * data.shape[1]  # the tokens fmt gives
    rows = [",".join(names)]
    rows += [template % (i, *row) for i, row in zip(np.asarray(index).tolist(), data.tolist())]
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# minimal SVG log-log plots

_PALETTE = ("#1f6fb2", "#d1495b", "#3a8f5f", "#8a5fb0", "#b07d2b", "#4a4a4a")


def _log_axis(arrays, lo_px: float, hi_px: float):
    """A log axis over the values of ``arrays`` (all positive), drawn from
    pixel lo_px (smallest value) to hi_px: its map of a value to a pixel,
    and its decade ticks inside the range as (exponent, pixel).  A range
    that is one value widens to half and twice it."""
    lo = min(float(a.min()) for a in arrays)
    hi = max(float(a.max()) for a in arrays)
    if lo == hi:
        lo, hi = lo / 2, hi * 2
    log_lo, log_hi = math.log10(lo), math.log10(hi)

    def to_px(v: float) -> float:
        return lo_px + (math.log10(v) - log_lo) / (log_hi - log_lo) * (hi_px - lo_px)

    decades = range(math.floor(log_lo), math.ceil(log_hi) + 1)
    return to_px, [(k, to_px(10.0**k)) for k in decades if lo <= 10.0**k <= hi]


def svg_loglog(path, series: dict, title: str, ylabel: str, xlabel: str = "t") -> None:
    """Write a small self-contained log-log SVG line plot.

    ``series`` maps a legend label to a pair of arrays (x, y); points with
    nonpositive coordinates are dropped (they have no place on a log axis).
    """
    W, H = 640, 440
    ml, mr, mt, mb = 70, 20, 40, 50
    cleaned: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for label, (xs, ys) in series.items():
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keep = (xs > 0) & (ys > 0)
        if np.any(keep):
            cleaned[label] = (xs[keep], ys[keep])
    if not cleaned:
        raise ValueError("nothing positive to plot")
    px, x_ticks = _log_axis([x for x, _ in cleaned.values()], ml, W - mr)
    py, y_ticks = _log_axis([y for _, y in cleaned.values()], H - mb, mt)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W / 2}" y="22" text-anchor="middle" font-size="15">{title}</text>',
        f'<line x1="{ml}" y1="{H - mb}" x2="{W - mr}" y2="{H - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{H - mb}" stroke="black"/>',
        f'<text x="{(ml + W - mr) / 2}" y="{H - 12}" text-anchor="middle">{xlabel}</text>',
        f'<text x="16" y="{(mt + H - mb) / 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {(mt + H - mb) / 2})">{ylabel}</text>',
    ]
    for k, x in x_ticks:
        out.append(f'<line x1="{x:.1f}" y1="{H - mb}" x2="{x:.1f}" y2="{H - mb + 5}" stroke="black"/>')
        out.append(f'<text x="{x:.1f}" y="{H - mb + 18}" text-anchor="middle">1e{k}</text>')
    for k, y in y_ticks:
        out.append(f'<line x1="{ml - 5}" y1="{y:.1f}" x2="{ml}" y2="{y:.1f}" stroke="black"/>')
        out.append(f'<text x="{ml - 8}" y="{y:.1f}" text-anchor="end" dominant-baseline="middle">1e{k}</text>')
    for idx, (label, (xs, ys)) in enumerate(cleaned.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{px(float(x)):.1f},{py(float(y)):.1f}" for x, y in zip(xs, ys))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        out.append(
            f'<text x="{W - mr - 6}" y="{mt + 16 * idx + 12}" text-anchor="end" '
            f'fill="{color}">{label}</text>'
        )
    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8", newline="\n")
