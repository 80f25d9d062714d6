"""Video transformer assembled from the shift and attention pieces.

Tubelet embedding folds s frames x k x k pixels x 3 channels into one token;
encoder blocks are pre-norm attention + feed-forward with residuals.  The
four variants differ only in which temporal shift (patch, channel, both
alternating, or none) wraps the attention of even-indexed blocks; parameter
shapes never change, so parameter counts and attention MACs are identical
across variants by construction.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .attention import AttentionParams, WindowLayout, patch_shift_attention
from .errors import ContractError, ShapeError
from .patterns import ShiftPattern, build_pattern, pattern_hash, resolve_pattern
from .shifts import ShiftDirection, channel_shift, shifted_channels
from .tensor import (
    Tape,
    Tensor,
    add,
    affine,
    cross_entropy,
    gather,
    gelu,
    layer_norm,
    mean,
    reshape,
)

__all__ = [
    "VARIANTS",
    "ModelConfig",
    "Model",
    "tubelet_embed",
    "encoder_block",
    "train_step",
    "evaluate",
    "pack_params",
    "unpack_params",
    "save_checkpoint",
    "load_checkpoint",
]

VARIANTS = ("avgpool", "patch_only", "channel_only", "combined")

FFN_RATIO = 4
INIT_STD = 0.02
CHECKPOINT_FORMAT = "patchshift-checkpoint-v1"


@dataclass(frozen=True)
class ModelConfig:
    """Everything that determines parameter shapes and the forward pass."""

    depth: int = 2
    dim: int = 16
    heads: int = 2
    window: tuple[int, int] = (2, 2)
    pattern: str = "bayerA"
    variant: str = "combined"
    channel_ratio: float = 0.25
    classes: int = 2
    frames: int = 8
    height: int = 16
    width: int = 16
    tubelet_t: int = 2
    tubelet_s: int = 4

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ContractError(f"unknown variant {self.variant!r} (known: {VARIANTS})")
        if self.depth <= 0 or self.dim <= 0 or self.classes <= 0:
            raise ContractError("depth, dim and classes must be positive")
        if self.dim % self.heads:
            raise ShapeError(f"heads {self.heads} must divide dim {self.dim}")
        object.__setattr__(self, "window", tuple(int(w) for w in self.window))

    def token_extents(self) -> tuple[int, int, int]:
        """(T, grid_h, grid_w) after tubelet embedding; extents must divide."""
        s, k = self.tubelet_t, self.tubelet_s
        if s <= 0 or k <= 0:
            raise ShapeError(f"tubelet extents must be positive, got {s}x{k}")
        if self.frames % s or self.height % k or self.width % k:
            raise ShapeError(
                f"tubelet {s}x{k}x{k} does not tile video "
                f"{self.frames}x{self.height}x{self.width}"
            )
        return self.frames // s, self.height // k, self.width // k

    def token_dim_in(self) -> int:
        return 3 * self.tubelet_t * self.tubelet_s**2

    def layout(self) -> WindowLayout:
        return WindowLayout(*self.window)

    def block_modes(self) -> tuple[str, ...]:
        """Per-block shift mode; shifts sit on even blocks starting at 0.

        The combined variant alternates patch and channel shift across its
        shift-carrying blocks.
        """
        modes = []
        shift_slot = 0
        for i in range(self.depth):
            if self.variant == "avgpool" or i % 2:
                modes.append("none")
                continue
            if self.variant == "patch_only":
                modes.append("tps")
            elif self.variant == "channel_only":
                modes.append("tcs")
            else:
                modes.append("tps" if shift_slot % 2 == 0 else "tcs")
            shift_slot += 1
        return tuple(modes)


def _trunc_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    """Normal(0, std) resampled until everything lies within 2 std."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2 * std
    return out


class Model:
    """Config + named parameter tensors + the resolved shift pattern."""

    def __init__(self, config: ModelConfig, params: dict[str, Tensor], pattern: ShiftPattern):
        self.config = config
        self.params = params
        self.pattern = pattern

    @classmethod
    def init(cls, config: ModelConfig, seed: int) -> "Model":
        pattern = resolve_pattern(config.pattern)
        t_len, grid_h, grid_w = config.token_extents()
        wh, ww = config.window
        WindowLayout(wh, ww).check_divides(grid_h, grid_w)
        if wh % pattern.height or ww % pattern.width:
            raise ShapeError(
                f"pattern {pattern.height}x{pattern.width} does not tile window {wh}x{ww}"
            )
        shifted_channels(config.dim, config.channel_ratio)  # validate early

        rng = np.random.default_rng(seed)
        d = config.dim
        p: dict[str, Tensor] = {}

        def weight(name, shape):
            p[name] = Tensor(_trunc_normal(rng, shape, INIT_STD))

        def zeros(name, shape):
            p[name] = Tensor(np.zeros(shape))

        weight("embed.w", (d, config.token_dim_in()))
        zeros("embed.b", (d,))
        # Positional table is spatial-only and broadcast over frames: the
        # no-shift baseline must treat frames identically, so temporal order
        # can only enter through the shift operators.
        weight("embed.pos", (grid_h, grid_w, d))
        for i in range(config.depth):
            p[f"block{i}.ln1.g"] = Tensor(np.ones(d))
            zeros(f"block{i}.ln1.b", (d,))
            for w in ("wq", "wk", "wv", "wo"):
                weight(f"block{i}.attn.{w}", (d, d))
            zeros(f"block{i}.attn.bias", (config.heads, 2 * t_len - 1, 2 * wh - 1, 2 * ww - 1))
            p[f"block{i}.ln2.g"] = Tensor(np.ones(d))
            zeros(f"block{i}.ln2.b", (d,))
            weight(f"block{i}.ffn.w1", (FFN_RATIO * d, d))
            zeros(f"block{i}.ffn.b1", (FFN_RATIO * d,))
            weight(f"block{i}.ffn.w2", (d, FFN_RATIO * d))
            zeros(f"block{i}.ffn.b2", (d,))
        # Classifier head starts at zero, so an untrained model emits all-zero
        # logits and the initial loss is exactly log(classes).
        zeros("head.w", (config.classes, d))
        zeros("head.b", (config.classes,))
        return cls(config, p, pattern)

    def param_count(self) -> int:
        return sum(t.size for t in self.params.values())

    def attention_params(self, block: int) -> AttentionParams:
        p = self.params
        return AttentionParams(
            heads=self.config.heads,
            w_q=p[f"block{block}.attn.wq"],
            w_k=p[f"block{block}.attn.wk"],
            w_v=p[f"block{block}.attn.wv"],
            w_out=p[f"block{block}.attn.wo"],
            bias_table=p[f"block{block}.attn.bias"],
        )

    def logits(self, tape: Tape | None, video: Tensor) -> Tensor:
        """video (F, H, W, 3) -> class logits (classes,)."""
        z = tubelet_embed(tape, self.config, self.params, video)
        for i, mode in enumerate(self.config.block_modes()):
            z = encoder_block(tape, self, i, z, mode)
        pooled = mean(tape, z, (0, 1, 2))
        return affine(tape, pooled, self.params["head.w"], self.params["head.b"])


_NONE_PATTERN = build_pattern("none")


def tubelet_embed(
    tape: Tape | None, config: ModelConfig, params: dict[str, Tensor], video: Tensor
) -> Tensor:
    """Fold non-overlapping s x k x k x 3 blocks into tokens, project, add positions."""
    expected = (config.frames, config.height, config.width, 3)
    if video.shape != expected:
        raise ShapeError(f"video shape {video.shape} != config {expected}")
    t_len, grid_h, grid_w = config.token_extents()
    s, k = config.tubelet_t, config.tubelet_s

    f_i, r_i, c_i, fs, rs, cs, ch = np.meshgrid(
        np.arange(t_len), np.arange(grid_h), np.arange(grid_w),
        np.arange(s), np.arange(k), np.arange(k), np.arange(3),
        indexing="ij",
    )
    flat = (((f_i * s + fs) * config.height + (r_i * k + rs)) * config.width
            + (c_i * k + cs)) * 3 + ch
    folded = gather(
        tape, video, flat, (t_len, grid_h, grid_w, config.token_dim_in())
    )
    tokens = affine(tape, folded, params["embed.w"], params["embed.b"])

    pos = params["embed.pos"]
    rep = np.tile(np.arange(pos.size), t_len)
    pos_all = gather(tape, pos, rep, (t_len, grid_h, grid_w, config.dim))
    return add(tape, tokens, pos_all)


def encoder_block(
    tape: Tape | None,
    model: Model,
    block: int,
    z: Tensor,
    mode: str,
) -> Tensor:
    """Pre-norm block: z + Shifted-SA(LN(z)), then h + FFN(LN(h))."""
    config = model.config
    p = model.params
    layout = config.layout()
    ap = model.attention_params(block)

    x = layer_norm(tape, z, p[f"block{block}.ln1.g"], p[f"block{block}.ln1.b"])
    if mode == "tps":
        att = patch_shift_attention(tape, x, model.pattern, layout, ap)
    elif mode == "tcs":
        xs = channel_shift(tape, x, config.channel_ratio, ShiftDirection.FORWARD)
        att = patch_shift_attention(tape, xs, _NONE_PATTERN, layout, ap)
        att = channel_shift(tape, att, config.channel_ratio, ShiftDirection.INVERSE)
    elif mode == "none":
        att = patch_shift_attention(tape, x, _NONE_PATTERN, layout, ap)
    else:
        raise ContractError(f"unknown block mode {mode!r}")
    h = add(tape, z, att)

    y = layer_norm(tape, h, p[f"block{block}.ln2.g"], p[f"block{block}.ln2.b"])
    f = affine(tape, y, p[f"block{block}.ffn.w1"], p[f"block{block}.ffn.b1"])
    f = gelu(tape, f)
    f = affine(tape, f, p[f"block{block}.ffn.w2"], p[f"block{block}.ffn.b2"])
    return add(tape, h, f)


def train_step(
    model: Model,
    batch,
    lr: float,
    momentum: float = 0.0,
    velocity: dict[str, np.ndarray] | None = None,
) -> float:
    """One SGD step on a batch of (video, label) pairs; returns mean loss.

    Gradients are averaged over the batch in a fixed order; with lr 0 the
    parameters are reproduced bit-exactly.
    """
    if not batch:
        raise ContractError("empty batch")
    sums = {name: np.zeros(t.shape) for name, t in model.params.items()}
    losses = []
    for video, label in batch:
        tape = Tape()
        logits = model.logits(tape, video if isinstance(video, Tensor) else Tensor(video))
        loss = cross_entropy(tape, reshape(tape, logits, (1, logits.size)), [label])
        grads = tape.backward(loss)
        for name, t in model.params.items():
            sums[name] += grads[t]
        losses.append(loss.item())

    inv = 1.0 / len(batch)
    for name, t in model.params.items():
        g = sums[name] * inv
        if velocity is not None:
            v = velocity.get(name)
            g = g if v is None else momentum * v + g
            velocity[name] = g
        model.params[name] = Tensor(t.data - lr * g)
    return float(np.mean(losses))


def evaluate(model: Model, samples) -> float:
    """Top-1 accuracy of argmax predictions over (video, label) pairs."""
    if not samples:
        raise ContractError("no samples to evaluate")
    classes = model.config.classes
    if any(not 0 <= label < classes for _, label in samples):
        raise ContractError(f"label out of range [0, {classes})")
    hits = 0
    for video, label in samples:
        logits = model.logits(None, video if isinstance(video, Tensor) else Tensor(video))
        hits += int(np.argmax(logits.data) == label)
    return hits / len(samples)


# ---------------------------------------------------------------------------
# parameter packing (gradient verification wants a single flat input)


def pack_params(params: dict[str, Tensor]) -> tuple[Tensor, list[tuple[str, tuple[int, ...], int]]]:
    """Concatenate all parameters into one vector plus an unpacking layout."""
    layout = []
    chunks = []
    offset = 0
    for name, t in params.items():
        layout.append((name, t.shape, offset))
        chunks.append(t.data.ravel())
        offset += t.size
    return Tensor(np.concatenate(chunks)), layout


def unpack_params(tape: Tape | None, vector: Tensor, layout) -> dict[str, Tensor]:
    """Differentiable inverse of pack_params (slices are gathers on the tape)."""
    params = {}
    for name, shape, offset in layout:
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        idx = np.arange(offset, offset + size)
        params[name] = gather(tape, vector, idx, shape)
    return params


# ---------------------------------------------------------------------------
# checkpoint format: one JSON header line, then raw little-endian float64


def save_checkpoint(path, model: Model) -> None:
    path = Path(path)
    tensors = []
    offset = 0
    for name, t in model.params.items():
        tensors.append({"name": name, "shape": list(t.shape), "offset": offset})
        offset += t.size * 8
    header = {
        "format": CHECKPOINT_FORMAT,
        "config": asdict(model.config),
        "pattern": {
            "name": model.pattern.name,
            "grid": model.pattern.offsets.tolist(),
            "hash": pattern_hash(model.pattern),
        },
        "tensors": tensors,
    }
    with path.open("wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        for t in model.params.values():
            fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def load_checkpoint(path) -> Model:
    path = Path(path)
    with path.open("rb") as fh:
        header = json.loads(fh.readline().decode())
        blob = fh.read()
    if header.get("format") != CHECKPOINT_FORMAT:
        raise ContractError(f"not a checkpoint file: {path}")
    cfg_dict = dict(header["config"])
    cfg_dict["window"] = tuple(cfg_dict["window"])
    config = ModelConfig(**cfg_dict)
    pattern = ShiftPattern(header["pattern"]["name"], np.array(header["pattern"]["grid"]))
    params = {}
    end = 0
    for entry in header["tensors"]:
        shape = tuple(entry["shape"])
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        start = entry["offset"]
        end = max(end, start + 8 * size)
        if start < 0 or end > len(blob):
            raise ContractError(
                f"checkpoint blob holds {len(blob)} bytes, tensor {entry['name']!r} "
                f"needs bytes {start} to {start + 8 * size}"
            )
        arr = np.frombuffer(blob, dtype="<f8", count=size, offset=start).reshape(shape)
        params[entry["name"]] = Tensor(arr)
    if end != len(blob):
        raise ContractError(f"checkpoint blob holds {len(blob)} bytes, tensor directory covers {end}")
    return Model(config, params, pattern)
