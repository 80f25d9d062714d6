"""Temporal shift patterns: canonical grids, tiling, metrics, and text I/O.

A pattern is a small integer grid of frame offsets.  Tiled over the patch
grid it tells every spatial site which neighboring frame its patch is
borrowed from before attention runs.  Offsets wrap modulo the temporal
extent, so every pattern is exactly invertible.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, ShapeError

__all__ = [
    "ShiftPattern",
    "PatternMetrics",
    "build_pattern",
    "resolve_pattern",
    "builtin_names",
    "tile_offsets",
    "pattern_metrics",
    "parse_pattern_text",
    "format_pattern_text",
    "pattern_hash",
]

MAX_OFFSET = 63


@dataclass(frozen=True)
class ShiftPattern:
    """A named grid of per-site frame offsets."""

    name: str
    offsets: np.ndarray

    def __post_init__(self):
        arr = np.array(self.offsets, dtype=np.int64)
        if arr.ndim != 2 or arr.size == 0:
            raise ShapeError(f"pattern grid must be 2-d and non-empty, got shape {arr.shape}")
        if np.abs(arr).max() > MAX_OFFSET:
            raise ContractError(f"pattern offsets must satisfy |offset| <= {MAX_OFFSET}")
        arr.flags.writeable = False
        object.__setattr__(self, "offsets", arr)

    @property
    def height(self) -> int:
        return self.offsets.shape[0]

    @property
    def width(self) -> int:
        return self.offsets.shape[1]


@dataclass(frozen=True)
class PatternMetrics:
    receptive_field: int
    shift_pct: float
    evenness: float


def _bayer_a() -> np.ndarray:
    # 1/4 of sites from t-1, 1/2 from t, 1/4 from t+1, Bayer-filter layout.
    return np.array([[0, -1], [1, 0]])


def _b4() -> np.ndarray:
    # Bayer layout tiled to 4x4, with two of its eight zero sites promoted
    # to +2 at maximal toroidal separation (2*sqrt(2)).
    grid = np.tile(_bayer_a(), (2, 2))
    grid[0, 0] = 2
    grid[2, 2] = 2
    return grid


_BUILTIN: dict[str, callable] = {
    "none": lambda: np.zeros((1, 1), dtype=np.int64),
    "center_one": lambda: np.array([[0, 0, 0], [0, 1, 0], [0, 0, 0]]),
    "even2": lambda: np.array([[0, 1], [1, 0]]),
    "uneven_half": lambda: np.array([[1, 0], [1, 0]]),
    "bayerA": _bayer_a,
    "B4": _b4,
    "C9": lambda: np.arange(-4, 5).reshape(3, 3),
    "D16": lambda: np.arange(-7, 9).reshape(4, 4),
}


def builtin_names() -> tuple[str, ...]:
    return tuple(_BUILTIN)


def build_pattern(kind: str, grid=None) -> ShiftPattern:
    """Construct a built-in pattern by name, or a custom one from a grid."""
    if kind == "custom":
        if grid is None:
            raise ContractError("custom pattern needs an offset grid")
        return ShiftPattern("custom", np.array(grid))
    factory = _BUILTIN.get(kind)
    if factory is None:
        known = ", ".join(builtin_names())
        raise ContractError(f"unknown pattern {kind!r} (known: {known}, custom)")
    if grid is not None:
        raise ContractError("offset grid is only accepted for kind 'custom'")
    return ShiftPattern(kind, factory())


def resolve_pattern(spec: str) -> ShiftPattern:
    """A built-in pattern by name, or the pattern in the text file at path spec."""
    if spec in builtin_names():
        return build_pattern(spec)
    path = Path(spec)
    if path.is_file():
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ContractError(f"cannot read pattern file {spec}: {exc}") from None
        return parse_pattern_text(text, name=path.stem)
    raise ContractError(f"pattern {spec!r} is neither a built-in name nor a pattern file")


def tile_offsets(pattern: ShiftPattern, grid_h: int, grid_w: int) -> np.ndarray:
    """Repeat the pattern over a grid_h x grid_w patch grid (wrapping at edges)."""
    if grid_h <= 0 or grid_w <= 0:
        raise ShapeError(f"grid extents must be positive, got {grid_h}x{grid_w}")
    rows = np.arange(grid_h) % pattern.height
    cols = np.arange(grid_w) % pattern.width
    return pattern.offsets[np.ix_(rows, cols)]


def _evenness(off: np.ndarray) -> float:
    """Spread irregularity of same-offset sites under periodic tiling.

    For each site, take the distances to its 4 nearest same-offset
    neighbors over the periodically tiled plane, normalized by the ideal
    lattice spacing sqrt(h*w/count) for that offset's density.  The value
    is the coefficient of variation of the pooled distances: 0 means every
    offset's sites sit on a perfectly even lattice.
    """
    h, w = off.shape
    shifts = np.array(
        [(dr * h, dc * w) for dr in range(-2, 3) for dc in range(-2, 3)]
    )
    pooled: list[float] = []
    for v in np.unique(off):
        cells = np.argwhere(off == v)
        ideal = math.sqrt(h * w / len(cells))
        # every periodic image of every same-offset site
        images = (cells[:, None, :] + shifts[None, :, :]).reshape(-1, 2)
        for r, c in cells:
            d = np.hypot(images[:, 0] - r, images[:, 1] - c)
            d = np.sort(d[d > 0])
            pooled.extend(d[:4] / ideal)
    arr = np.asarray(pooled)
    return float(arr.std() / arr.mean())


def pattern_metrics(pattern: ShiftPattern) -> PatternMetrics:
    """Temporal receptive field, shifted fraction, and spatial evenness."""
    off = pattern.offsets
    return PatternMetrics(
        receptive_field=int(off.max() - off.min() + 1),
        shift_pct=float(np.count_nonzero(off) / off.size),
        evenness=_evenness(off),
    )


# ---------------------------------------------------------------------------
# text format: first line "h w", then h rows of w signed integers


def format_pattern_text(pattern: ShiftPattern) -> str:
    lines = [f"{pattern.height} {pattern.width}"]
    lines += [" ".join(str(v) for v in row) for row in pattern.offsets]
    return "\n".join(lines) + "\n"


def parse_pattern_text(text: str, name: str = "custom") -> ShiftPattern:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ContractError("empty pattern text")
    try:
        head = lines[0].split()
        h, w = int(head[0]), int(head[1])
        if len(head) != 2:
            raise ValueError
        rows = []
        for ln in lines[1 : 1 + h]:
            row = [int(tok) for tok in ln.split()]
            if len(row) != w:
                raise ValueError
            rows.append(row)
        if len(rows) != h or len(lines) != 1 + h:
            raise ValueError
    except (ValueError, IndexError) as exc:
        raise ContractError(f"malformed pattern text: {exc}") from exc
    return ShiftPattern(name, np.array(rows))


def pattern_hash(pattern: ShiftPattern) -> str:
    """Content hash of the canonical text encoding (git blob style)."""
    body = format_pattern_text(pattern).encode()
    return hashlib.sha1(b"blob %d\x00" % len(body) + body).hexdigest()
