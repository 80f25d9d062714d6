"""Windowed multi-head self-attention with patch shift and 3D position bias.

Attention always runs inside non-overlapping spatial windows of a single
frame; temporal mixing comes entirely from shifting patches across frames
before the windows are cut.  Each token keeps its source-frame coordinate,
and the relative position bias is looked up with (dt, dr, dc) displacements
between source coordinates, so the bias follows shifted patches around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError
from .patterns import ShiftPattern, tile_offsets
from .shifts import _check_tokens, _clip_offsets, source_frames
from .tensor import (
    Tape,
    Tensor,
    add,
    gather,
    matmul,
    reshape,
    scale,
    softmax,
    swap_last,
    transpose,
)

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

    def check_divides(self, grid_h: int, grid_w: int) -> None:
        if grid_h % self.height or grid_w % self.width:
            raise ShapeError(
                f"window {self.height}x{self.width} does not tile patch grid {grid_h}x{grid_w}"
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


def _heads_axes(ndim: int) -> tuple[int, ...]:
    # (..., a, b, hd) <-> (..., b, a, hd): tokens and heads trade places.
    return (*range(ndim - 3), ndim - 2, ndim - 3, ndim - 1)


def _split_heads(tape: Tape | None, x: Tensor, params: AttentionParams) -> tuple[Tensor, Tensor, Tensor]:
    """Q, K, V of tokens (..., n, D), each as (..., heads, n, D/heads).

    Every token goes through each projection in one (m, D) product.
    """
    d = params.dim
    rows = reshape(tape, x, (x.size // d, d))
    split = (*x.shape[:-1], params.heads, params.head_dim)
    axes = _heads_axes(len(split))
    return tuple(
        transpose(tape, reshape(tape, matmul(tape, rows, w, label="proj"), split), axes)
        for w in (params.w_q, params.w_k, params.w_v)
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

    q, k, v = _split_heads(tape, x, params)
    scores = scale(tape, matmul(tape, q, swap_last(tape, k), label="score"), 1.0 / math.sqrt(hd))
    flat_idx = np.arange(heads)[:, None, None] * table_size + index[..., None, :, :]
    bias = gather(tape, params.bias_table, flat_idx, scores.shape)
    weights = softmax(tape, add(tape, scores, bias), axis=-1)
    ctx = matmul(tape, weights, v, label="agg")
    return _merge_heads(tape, ctx, params, x.shape)


def patch_shift_attention(
    tape: Tape | None,
    z: Tensor,
    pattern: ShiftPattern,
    layout: WindowLayout,
    params: AttentionParams,
) -> Tensor:
    """Shift patches, attend inside spatial windows, shift back.

    z is (..., T, H, W, D): optional leading clip axes, then one clip's
    tokens.  The shift composed with the window partition is one gather,
    every window of every frame of every clip is one batched window_mhsa
    call, and the merge composed with the inverse shift is the inverse
    gather.  The pattern must tile the window so every window sees the same
    offset layout; the caller owns the residual connection.
    """
    t_len, grid_h, grid_w, d = _check_tokens(z)
    layout.check_divides(grid_h, grid_w)
    wh, ww = layout.height, layout.width
    if wh % pattern.height or ww % pattern.width:
        raise ShapeError(
            f"pattern {pattern.height}x{pattern.width} does not tile window {wh}x{ww}"
        )
    if d != params.dim:
        raise ShapeError(f"token dim {d} != params dim {params.dim}")
    if params.t_max < t_len:
        raise ContractError(
            f"bias table covers {params.t_max} frames, tokens have {t_len}"
        )

    # src[t, r, c]: the frame whose (r, c) patch sits at (t, r, c) once shifted.
    src = source_frames(tile_offsets(pattern, grid_h, grid_w), t_len)
    site = (src * grid_h + np.arange(grid_h)[:, None]) * grid_w + np.arange(grid_w)
    n_windows = (grid_h // wh) * (grid_w // ww)
    site = site.reshape(t_len, grid_h // wh, wh, grid_w // ww, ww).transpose(0, 1, 3, 2, 4)
    partition = (site.reshape(t_len, n_windows, layout.tokens, 1) * d + np.arange(d)).ravel()
    merge = np.empty_like(partition)
    merge[partition] = np.arange(partition.size)
    offsets = _clip_offsets(z)
    lead = z.shape[:-4]
    windows = gather(
        tape, z, offsets + partition, (*lead, t_len, n_windows, layout.tokens, d)
    )

    # Every window at a given t has the same source frames because the
    # pattern tiles the window, so the first window's stand for the frame's.
    index = relpos_index(layout, src[:, None, :wh, :ww], params.t_max)
    out = window_mhsa(tape, windows, params, index)
    return gather(tape, out, offsets + merge, z.shape)
