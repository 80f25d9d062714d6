"""Brute-force attention reference and the complexity/memory model.

The oracle never calls the shift or window machinery: it enumerates, per
frame and window, the source coordinates named by the tiled pattern,
recomputes attention with explicit per-pair loops and hand-indexed bias
lookups, and scatters the rows back to their source coordinates.  Matching
it is the equivalence bar for the fast pipeline.

The complexity side counts multiply-accumulates (MACs) for the score and
aggregation products, reports projection MACs separately, and tracks how
many attention-score buffer elements one forward pass materializes.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from .attention import AttentionParams, WindowLayout, _merge_heads, _split_heads
from .errors import ContractError, ShapeError
from .patterns import ShiftPattern, tile_offsets
from .tensor import Tape, Tensor, matmul, reshape, softmax

__all__ = [
    "gather_sets",
    "oracle_attention",
    "joint_attention",
    "ComplexityReport",
    "complexity_estimate",
    "COMPLEXITY_KINDS",
    "count_macs",
    "mac_profile",
]


def gather_sets(
    pattern: ShiftPattern, layout: WindowLayout, t_len: int, grid_h: int, grid_w: int
) -> list[list[tuple[int, int, int]]]:
    """Source coordinates (frame, row, col) of every attention set.

    One list per (host frame, window), in host-frame-major, window-row-major
    order; within a window, tokens are row-major.  Every token coordinate
    appears in exactly one set.
    """
    layout.check_divides(grid_h, grid_w)
    grid = tile_offsets(pattern, grid_h, grid_w)
    sets = []
    for t in range(t_len):
        for r0 in range(0, grid_h, layout.height):
            for c0 in range(0, grid_w, layout.width):
                cells = []
                for r in range(r0, r0 + layout.height):
                    for c in range(c0, c0 + layout.width):
                        cells.append(((t + int(grid[r, c])) % t_len, r, c))
                sets.append(cells)
    return sets


def oracle_attention(
    z: Tensor, pattern: ShiftPattern, layout: WindowLayout, params: AttentionParams
) -> np.ndarray:
    """Reference output of patch_shift_attention, computed the slow way."""
    t_len, grid_h, grid_w, d = z.shape
    heads, hd = params.heads, params.head_dim
    t_max = params.t_max
    zd = z.data
    wq, wk, wv, wo = (p.data for p in (params.w_q, params.w_k, params.w_v, params.w_out))
    table = params.bias_table.data

    out = np.zeros_like(zd)
    for cells in gather_sets(pattern, layout, t_len, grid_h, grid_w):
        n = len(cells)
        tokens = [zd[ft, r, c] for ft, r, c in cells]
        q = [(x @ wq).reshape(heads, hd) for x in tokens]
        k = [(x @ wk).reshape(heads, hd) for x in tokens]
        v = [(x @ wv).reshape(heads, hd) for x in tokens]
        ctx = [np.zeros((heads, hd)) for _ in range(n)]
        for h in range(heads):
            for a in range(n):
                row = np.empty(n)
                for b in range(n):
                    dt = cells[b][0] - cells[a][0]
                    dr = cells[b][1] - cells[a][1]
                    dc = cells[b][2] - cells[a][2]
                    bias = table[h, dt + t_max - 1, dr + layout.height - 1, dc + layout.width - 1]
                    row[b] = float(np.dot(q[a][h], k[b][h])) / math.sqrt(hd) + bias
                e = np.exp(row - row.max())
                p = e / e.sum()
                assert abs(p.sum() - 1.0) < 1e-12
                for b in range(n):
                    ctx[a][h] += p[b] * v[b][h]
        for a, (ft, r, c) in enumerate(cells):
            out[ft, r, c] = ctx[a].reshape(d) @ wo
    return out


def joint_attention(tape: Tape | None, z: Tensor, params: AttentionParams) -> Tensor:
    """Full spatiotemporal attention: every token attends to every token.

    No bias term; this is the quadratic-in-T cost reference the profiler
    compares against, not a semantic twin of the shifted pipeline.
    """
    t_len, grid_h, grid_w, d = z.shape
    if d != params.dim:
        raise ShapeError(f"token dim {d} != params dim {params.dim}")
    tokens = reshape(tape, z, (t_len * grid_h * grid_w, d))
    q, k_t, v = _split_heads(tape, tokens, params)
    scores = matmul(tape, q, k_t, label="score")
    weights = softmax(tape, scores, axis=-1)  # scale folded out: cost reference only
    ctx = matmul(tape, weights, v, label="agg")
    return _merge_heads(tape, ctx, params, z.shape)


COMPLEXITY_KINDS = ("joint", "divide", "sparse_local", "patchshift")

_CLASSES = {
    "joint": "O(N^2 T^2)",
    "divide": "O(N^2 T + T^2 N)",
    "sparse_local": "O(alpha N^2 T^2)",
    "patchshift": "O(N^2 T)",
}


@dataclass(frozen=True)
class ComplexityReport:
    """Exact attention cost of one forward pass under a given strategy."""

    kind: str
    complexity_class: str
    n_patches: int
    t_frames: int
    dim: int
    heads: int
    window: tuple[int, int] | None
    alpha: float | None
    score_macs: int | float
    aggregate_macs: int | float
    sa_macs: int | float
    projection_macs: int
    buffer_elements: int | float

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def complexity_estimate(
    kind: str,
    n_patches: int,
    t_frames: int,
    dim: int,
    heads: int = 1,
    window: tuple[int, int] | None = None,
    alpha: float = 0.5,
) -> ComplexityReport:
    """Closed-form MAC and score-buffer counts for one attention strategy.

    Score and aggregation MACs exclude the Q/K/V/out projections, which are
    identical across strategies and reported separately.  buffer_elements
    counts every attention-score entry materialized in one forward pass.
    """
    if kind not in COMPLEXITY_KINDS:
        raise ContractError(f"unknown complexity kind {kind!r} (known: {COMPLEXITY_KINDS})")
    n, t, d = int(n_patches), int(t_frames), int(dim)
    if n <= 0 or t <= 0 or d <= 0 or heads <= 0:
        raise ContractError("extents must be positive")
    if d % heads:
        raise ShapeError(f"heads {heads} must divide dim {d}")

    win = None
    a = None
    if kind == "patchshift":
        if window is None:
            nw = n  # one window spanning the whole patch grid
        else:
            win = (int(window[0]), int(window[1]))
            nw = win[0] * win[1]
            if nw <= 0 or n % nw:
                raise ShapeError(f"window {win} ({nw} tokens) does not tile {n} patches")
        score = (n // nw) * t * nw * nw * d
        agg = score
        buffer = (n // nw) * nw * nw * t
    elif kind == "joint":
        score = (n * t) ** 2 * d
        agg = score
        buffer = (n * t) ** 2
    elif kind == "divide":
        score = t * n * n * d + n * t * t * d
        agg = score
        buffer = t * n * n + n * t * t
    else:  # sparse_local
        if not 0.0 < alpha <= 1.0:
            raise ContractError(f"alpha must lie in (0, 1], got {alpha}")
        a = float(alpha)
        score = a * (n * t) ** 2 * d
        agg = score
        buffer = a * (n * t) ** 2
        if float(score).is_integer():
            score = int(score)
            agg = int(agg)
        if float(buffer).is_integer():
            buffer = int(buffer)

    return ComplexityReport(
        kind=kind,
        complexity_class=_CLASSES[kind],
        n_patches=n,
        t_frames=t,
        dim=d,
        heads=heads,
        window=win,
        alpha=a,
        score_macs=score,
        aggregate_macs=agg,
        sa_macs=score + agg,
        projection_macs=4 * n * t * d * d,
        buffer_elements=buffer,
    )


def mac_profile(run: Callable[[Tape], object]) -> Counter:
    """Run a forward pass on a counting-only tape; MAC tally per label."""
    tape = Tape(record=False)
    run(tape)
    return Counter(tape.macs)


def count_macs(run: Callable[[Tape], object]) -> int:
    """Total multiply-accumulates of all matrix products in one forward run."""
    return sum(mac_profile(run).values())
