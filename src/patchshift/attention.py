"""Windowed multi-head self-attention with patch shift and 3D position bias.

Attention always runs inside non-overlapping spatial windows of a single
frame; temporal mixing comes entirely from shifting patches or channels
across frames before the windows are cut.  Each token keeps its patch's
source-frame coordinate, and the relative position bias is looked up with
(dt, dr, dc) displacements between those coordinates, so the bias follows
shifted patches around.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError
from .patterns import ShiftPattern, tile_offsets
from .shifts import _check_tokens, _clip_offsets, _source_index, channel_offsets, source_frames
from .tensor import Tape, Tensor, add, gather, matmul, reshape, scale, softmax, transpose

__all__ = [
    "WindowLayout",
    "AttentionParams",
    "relpos_index",
    "window_mhsa",
    "patch_shift_attention",
]


@dataclass(frozen=True)
class WindowLayout:
    """Spatial window extents; windows tile the patch grid exactly."""

    height: int
    width: int

    def __post_init__(self):
        if self.height <= 0 or self.width <= 0:
            raise ShapeError(f"window extents must be positive, got {self.height}x{self.width}")

    @property
    def tokens(self) -> int:
        return self.height * self.width

    def check_divides(self, grid_h: int, grid_w: int, pattern: ShiftPattern | None = None) -> None:
        """Windows tile the patch grid and, if given, the pattern tiles a window."""
        if grid_h % self.height or grid_w % self.width:
            raise ShapeError(
                f"window {self.height}x{self.width} does not tile patch grid {grid_h}x{grid_w}"
            )
        if pattern is not None and (self.height % pattern.height or self.width % pattern.width):
            raise ShapeError(
                f"pattern {pattern.height}x{pattern.width} does not tile window "
                f"{self.height}x{self.width}"
            )


@dataclass
class AttentionParams:
    """Projection weights and the per-head (dt, dr, dc) bias table.

    Projection weights are stored (in, out) and applied as x @ w.  The bias
    table covers displacements dt in [-(t_max-1), t_max-1], dr in
    [-(wh-1), wh-1], dc in [-(ww-1), ww-1], one table per head.
    """

    heads: int
    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_out: Tensor
    bias_table: Tensor

    def __post_init__(self):
        d = self.w_q.shape[-1]
        for name in ("w_q", "w_k", "w_v", "w_out"):
            w = getattr(self, name)
            if w.shape != (d, d):
                raise ShapeError(f"{name} must be square (D, D), got {w.shape}")
        if self.heads <= 0 or d % self.heads:
            raise ShapeError(f"heads {self.heads} must divide model dim {d}")
        bt = self.bias_table.shape
        if len(bt) != 4 or bt[0] != self.heads:
            raise ShapeError(
                f"bias table must be (heads, 2T-1, 2wh-1, 2ww-1), got {bt}"
            )
        if any(extent % 2 == 0 for extent in bt[1:]):
            raise ShapeError(f"bias table displacement extents must be odd, got {bt}")

    @property
    def dim(self) -> int:
        return self.w_q.shape[0]

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads

    @property
    def t_max(self) -> int:
        return (self.bias_table.shape[1] + 1) // 2


def relpos_index(layout: WindowLayout, src_frames: np.ndarray, t_max: int) -> np.ndarray:
    """Flat bias-table indices for every (query, key) pair of stacked windows.

    src_frames is (..., wh, ww) and the result (..., n, n).  Tokens are
    ordered row-major within the window; the temporal coordinate of each
    token is its source frame, which is what makes the bias follow shifted
    patches.
    """
    wh, ww = layout.height, layout.width
    src = np.asarray(src_frames, dtype=np.int64)
    if src.shape[-2:] != (wh, ww):
        raise ShapeError(f"source frames {src.shape} do not end in a {wh}x{ww} window")
    if src.size and (src.min() < 0 or src.max() >= t_max):
        raise ContractError(f"source frames must lie in [0, {t_max})")
    src = src.reshape(*src.shape[:-2], layout.tokens)
    rows = np.arange(layout.tokens) // ww
    cols = np.arange(layout.tokens) % ww
    dt = src[..., None, :] - src[..., :, None]
    dr = rows[None, :] - rows[:, None]
    dc = cols[None, :] - cols[:, None]
    return ((dt + t_max - 1) * (2 * wh - 1) + (dr + wh - 1)) * (2 * ww - 1) + (dc + ww - 1)


def _heads_axes(ndim: int, keys: bool = False) -> tuple[int, ...]:
    # (..., n, heads, hd) -> (..., heads, n, hd), its own inverse; with keys,
    # (..., heads, hd, n) instead, K already transposed for the score product.
    lead, n, h, c = range(ndim - 3), ndim - 3, ndim - 2, ndim - 1
    return (*lead, h, c, n) if keys else (*lead, h, n, c)


def _split_heads(tape: Tape | None, x: Tensor, params: AttentionParams) -> tuple[Tensor, Tensor, Tensor]:
    """Q, K^T, V of tokens (..., n, D): Q and V as (..., heads, n, hd), K^T as
    (..., heads, hd, n), with hd = D/heads.

    Every token goes through each projection in one (m, D) product, and
    each result takes its head layout in one transpose.
    """
    d = params.dim
    rows = reshape(tape, x, (x.size // d, d))
    split = (*x.shape[:-1], params.heads, params.head_dim)
    return tuple(
        transpose(tape, reshape(tape, matmul(tape, rows, w, label="proj"), split),
                  _heads_axes(len(split), keys))
        for w, keys in ((params.w_q, False), (params.w_k, True), (params.w_v, False))
    )


def _merge_heads(tape: Tape | None, ctx: Tensor, params: AttentionParams, shape: tuple[int, ...]) -> Tensor:
    """Inverse of _split_heads for the context (..., heads, n, D/heads), then W_out."""
    d = params.dim
    merged = reshape(tape, transpose(tape, ctx, _heads_axes(ctx.ndim)), (ctx.size // d, d))
    return reshape(tape, matmul(tape, merged, params.w_out, label="proj"), shape)


def window_mhsa(tape: Tape | None, x: Tensor, params: AttentionParams, index: np.ndarray) -> Tensor:
    """Multi-head self-attention inside each of a stack of n-token windows.

    x is (..., n, D) and index broadcasts to (..., n, n).  Per window,
    scores = (x W_q)(x W_k)^T / sqrt(d) + bias[index]; the softmax rows are
    convex weights over that window's values.
    """
    if x.ndim < 2:
        raise ShapeError(f"window tokens must be (..., n, D), got {x.shape}")
    *lead, n, d = x.shape
    if d != params.dim:
        raise ShapeError(f"token dim {d} != params dim {params.dim}")
    index = np.asarray(index, dtype=np.int64)
    try:
        index = np.broadcast_to(index, (*lead, n, n))
    except ValueError:
        raise ShapeError(
            f"bias index map {index.shape} does not broadcast to {(*lead, n, n)}"
        ) from None
    heads, hd = params.heads, params.head_dim
    table_size = params.bias_table.size // heads
    if index.size and (index.min() < 0 or index.max() >= table_size):
        raise ContractError("bias index outside table")

    q, k_t, v = _split_heads(tape, x, params)
    scores = scale(tape, matmul(tape, q, k_t, label="score"), 1.0 / math.sqrt(hd))
    flat_idx = np.arange(heads)[:, None, None] * table_size + index[..., None, :, :]
    bias = gather(tape, params.bias_table, flat_idx, scores.shape)
    weights = softmax(tape, add(tape, scores, bias), axis=-1)
    ctx = matmul(tape, weights, v, label="agg")
    return _merge_heads(tape, ctx, params, x.shape)


@functools.lru_cache(maxsize=32)
def _plan(
    grid_bytes: bytes,
    grid_shape: tuple[int, int],
    layout: WindowLayout,
    geometry: tuple[int, int, int, int],
    channel_ratio: float,
    t_max: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only per-clip index moves of patch_shift_attention for one geometry.

    Returns the partition index (T, nW, n, D), the merge index (T*H*W*D,)
    that inverts it, and the relpos index (T, 1, n, n).  The key holds the
    pattern's offsets, not its name, so two grids that share a name never
    share a plan.
    """
    offsets = np.frombuffer(grid_bytes, dtype=np.int64).reshape(grid_shape)
    wh, ww = layout.height, layout.width
    t_len, grid_h, grid_w, d = geometry
    grid = tile_offsets(ShiftPattern("", offsets), grid_h, grid_w)
    t_src = source_frames(grid[..., None] + channel_offsets(d, channel_ratio), t_len)
    blocks = _source_index(t_src).reshape(t_len, grid_h // wh, wh, grid_w // ww, ww, d)
    partition = blocks.transpose(0, 1, 3, 2, 4, 5).reshape(t_len, -1, layout.tokens, d)
    merge = np.empty(partition.size, dtype=np.int64)
    merge[partition.ravel()] = np.arange(partition.size)
    # Every window at a given t has the same patch frames because the
    # pattern tiles the window, so the first window's stand for the frame's.
    src = source_frames(grid[:wh, :ww], t_len)
    index = relpos_index(layout, src[:, None], t_max)
    for arr in (partition, merge, index):
        arr.flags.writeable = False
    return partition, merge, index


def patch_shift_attention(
    tape: Tape | None,
    z: Tensor,
    pattern: ShiftPattern,
    layout: WindowLayout,
    params: AttentionParams,
    channel_ratio: float = 0.0,
) -> Tensor:
    """Shift patches and channels, attend inside spatial windows, shift back.

    z is (..., T, H, W, D): optional leading clip axes, then one clip's
    tokens.  Shifted element (t, r, c, d) comes from frame (t + g[r, c] +
    ch[d]) mod T, with g the pattern tiled over the grid and ch the
    shifts.channel_offsets of channel_ratio.  That shift composed with the
    window partition is one gather, every window of every frame of every
    clip is one batched window_mhsa call, and the merge composed with the
    inverse shift is the inverse gather.  The position bias is keyed on
    each patch's frame (t + g[r, c]) mod T, so channels keep their host
    frame's bias.  The pattern must tile the window so every window sees
    the same offset layout; the caller owns the residual connection.  The
    index moves of one clip are built once per geometry (_plan); a call
    only offsets them to each clip.
    """
    t_len, grid_h, grid_w, d = _check_tokens(z)
    layout.check_divides(grid_h, grid_w, pattern)
    if d != params.dim:
        raise ShapeError(f"token dim {d} != params dim {params.dim}")
    if params.t_max < t_len:
        raise ContractError(
            f"bias table covers {params.t_max} frames, tokens have {t_len}"
        )

    partition, merge, index = _plan(
        pattern.offsets.tobytes(), pattern.offsets.shape, layout,
        (t_len, grid_h, grid_w, d), channel_ratio, params.t_max,
    )
    offsets = _clip_offsets(z)
    windows = gather(tape, z, offsets + partition.reshape(1, -1), (*z.shape[:-4], *partition.shape))
    out = window_mhsa(tape, windows, params, index)
    return gather(tape, out, offsets + merge, z.shape)
