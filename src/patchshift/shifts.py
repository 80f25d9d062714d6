"""Temporal shift operators over token tensors.

A token tensor has shape (..., T, H, W, D): optional clip axes, then
frames, patch rows, patch cols, channels.  Every shift here moves values
along the frame axis of each clip only, with cyclic wrap, so each one is a
bijection on elements; the forward and inverse directions restore each
other bit-exactly, and the gradient of a shift is the shift in the opposite
direction.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import ContractError, ShapeError
from .tensor import Tape, Tensor, gather

__all__ = [
    "ShiftDirection",
    "patch_shift",
    "channel_shift",
    "generic_shift",
    "source_frames",
    "channel_offsets",
    "patch_selection",
    "channel_selection",
    "shifted_channels",
]


class ShiftDirection(enum.Enum):
    FORWARD = "forward"
    INVERSE = "inverse"


def _check_tokens(z: Tensor) -> tuple[int, int, int, int]:
    """(T, H, W, D) of a (..., T, H, W, D) token tensor."""
    if z.ndim < 4:
        raise ShapeError(f"token tensor must be (..., T, H, W, D), got {z.shape}")
    return z.shape[-4:]


def _clip_offsets(z: Tensor) -> np.ndarray:
    """Flat offset of each clip of a (..., T, H, W, D) tensor, as a column.

    Adding it to a per-clip flat index (one row) gives the index over every
    clip, in clip order.
    """
    per_clip = int(np.prod(z.shape[-4:]))
    return np.arange(z.size // per_clip)[:, None] * per_clip


def _source_index(t_src: np.ndarray) -> np.ndarray:
    """Per-clip flat index of z[t_src[t, r, c, d], r, c, d], shaped (T, H, W, D)."""
    t, h, w, d = t_src.shape
    return t_src * (h * w * d) + np.arange(h * w * d).reshape(h, w, d)


def _shift_by(tape: Tape | None, z: Tensor, offsets: np.ndarray) -> Tensor:
    """out[..., t, r, c, d] = z[..., (t + offsets[r, c, d]) mod T, r, c, d]."""
    t, h, w, d = z.shape[-4:]
    t_src = source_frames(np.broadcast_to(offsets, (h, w, d)), t)
    return gather(tape, z, _clip_offsets(z) + _source_index(t_src).reshape(1, -1), z.shape)


def source_frames(offsets: np.ndarray, t: int) -> np.ndarray:
    """Source frame (t + o) mod T of every frame t and every entry o of a per-site
    (H, W) or per-element (H, W, D) offset array, shaped (T, *offsets.shape)."""
    offsets = np.asarray(offsets, dtype=np.int64)
    return (np.arange(t).reshape(-1, *[1] * offsets.ndim) + offsets) % t


def patch_shift(
    tape: Tape | None,
    z: Tensor,
    grid: np.ndarray,
    direction: ShiftDirection = ShiftDirection.FORWARD,
) -> Tensor:
    """Replace each site's patch with the same site's patch from frame t + g(site).

    grid holds one signed frame offset per spatial site (already tiled to
    the token grid).  The inverse direction negates the offsets, which
    restores the forward shift exactly.
    """
    t, h, w, d = _check_tokens(z)
    grid = np.asarray(grid, dtype=np.int64)
    if grid.shape != (h, w):
        raise ShapeError(f"offset grid {grid.shape} does not match patch grid {(h, w)}")
    sign = 1 if direction is ShiftDirection.FORWARD else -1
    return _shift_by(tape, z, sign * grid[..., None])


def shifted_channels(dim: int, ratio: float) -> int:
    """Per-direction channel count for a channel shift; validates divisibility."""
    if not 0.0 <= ratio <= 1.0:
        raise ContractError(f"channel shift ratio must lie in [0, 1], got {ratio}")
    exact = dim * ratio / 2.0
    m = int(round(exact))
    if abs(exact - m) > 1e-9:
        raise ContractError(
            f"ratio*D/2 must be an integer: D={dim}, ratio={ratio} gives {exact}"
        )
    return m


def channel_offsets(dim: int, ratio: float) -> np.ndarray:
    """Per-channel frame offset of a channel shift: -1 on the first ratio/2
    of the channels, +1 on the next ratio/2, 0 on the rest."""
    m = shifted_channels(dim, ratio)
    return np.repeat(np.array([-1, 1, 0], dtype=np.int64), [m, m, dim - 2 * m])


def channel_shift(
    tape: Tape | None,
    z: Tensor,
    ratio: float,
    direction: ShiftDirection = ShiftDirection.FORWARD,
) -> Tensor:
    """Shift a fixed slice of channels across neighboring frames, everywhere.

    The first ratio/2 of channels come from frame t-1, the next ratio/2
    from t+1, the rest stay.  Wrap is cyclic at both temporal ends, same
    as patch_shift, so the inverse direction is an exact undo.
    """
    d = _check_tokens(z)[-1]
    sign = 1 if direction is ShiftDirection.FORWARD else -1
    return _shift_by(tape, z, sign * channel_offsets(d, ratio))


def generic_shift(tape: Tape | None, z: Tensor, mask: np.ndarray, src: np.ndarray) -> Tensor:
    """The general selection form both shift flavors specialize.

    out[..., t, r, c, d] = z[..., (t + src[r, c]) % T, r, c, d] where
    mask[r, c, d] is set, and the untouched value otherwise.
    """
    t, h, w, d = _check_tokens(z)
    mask = np.asarray(mask)
    src = np.asarray(src, dtype=np.int64)
    if mask.shape != (h, w, d):
        raise ShapeError(f"selection mask {mask.shape} must be {(h, w, d)}")
    if src.shape != (h, w):
        raise ShapeError(f"source offsets {src.shape} must be {(h, w)}")
    if not np.isin(mask, (0, 1)).all():
        raise ContractError("selection mask entries must be 0 or 1")
    return _shift_by(tape, z, mask * src[:, :, None])


def patch_selection(grid: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Selection (mask, src) that makes generic_shift reproduce patch_shift.

    Every site's mask is all-zero or all-one across channels: whole patches
    move, never parts of them.
    """
    grid = np.asarray(grid, dtype=np.int64)
    mask = np.repeat((grid != 0).astype(np.int64)[:, :, None], dim, axis=2)
    return mask, grid


def channel_selection(
    grid_h: int, grid_w: int, dim: int, ratio: float
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Selections that compose to a channel shift: one per direction.

    Each selection's mask is identical across sites and marks ratio/2 of
    the channels; the two masked slices are disjoint, so applying the two
    generic shifts in sequence equals one channel_shift.
    """
    m = shifted_channels(dim, ratio)
    past = np.zeros((grid_h, grid_w, dim), dtype=np.int64)
    past[:, :, :m] = 1
    future = np.zeros((grid_h, grid_w, dim), dtype=np.int64)
    future[:, :, m : 2 * m] = 1
    minus = np.full((grid_h, grid_w), -1, dtype=np.int64)
    plus = np.ones((grid_h, grid_w), dtype=np.int64)
    return [(past, minus), (future, plus)]
