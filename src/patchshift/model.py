"""Video transformer assembled from the shift and attention pieces.

Tubelet embedding folds s frames x k x k pixels x 3 channels into one token;
encoder blocks are pre-norm attention + feed-forward with residuals.  The
four variants differ only in which temporal shift (patch, channel, both
alternating, or none) the attention of even-indexed blocks folds into its
partition and merge gathers; every block makes the same single
patch_shift_attention call.  Parameter shapes never change, so parameter
counts and attention MACs are identical across variants by construction.
"""

from __future__ import annotations

import json
import math
import numbers
import zlib
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .attention import AttentionParams, WindowLayout, patch_shift_attention
from .errors import ContractError, ShapeError, check_crc32, check_format, check_keys
from .patterns import ShiftPattern, build_pattern, pattern_hash, resolve_pattern
from .shifts import shifted_channels
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
    transpose,
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
# Token sites (clips x T x grid_h x grid_w) one chunk holds at most, which
# batches small clips while bounding memory.  A training chunk keeps its
# whole tape alive until the backward; a tape-free forward of evaluate frees
# each activation once the next layer has read it and holds about a fifth of
# a training chunk's memory per site, so its bound is larger.
TAPE_SITES = 128
FORWARD_SITES = 256
CHECKPOINT_FORMAT = "patchshift-checkpoint-v2"


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
        if self.depth <= 0 or self.dim <= 0 or self.heads <= 0 or self.classes <= 0:
            raise ContractError("depth, dim, heads and classes must be positive")
        if self.dim % self.heads:
            raise ShapeError(f"heads {self.heads} must divide dim {self.dim}")
        window = self.window
        if not (
            isinstance(window, (tuple, list)) and len(window) == 2
            and all(isinstance(w, numbers.Integral) and not isinstance(w, bool) and w > 0
                    for w in window)
        ):
            raise ShapeError(f"window must be two positive ints, got {window!r}")
        object.__setattr__(self, "window", (int(window[0]), int(window[1])))

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
        kinds = {"avgpool": ("none", "none"), "patch_only": ("tps", "tps"),
                 "channel_only": ("tcs", "tcs"), "combined": ("tps", "tcs")}[self.variant]
        return tuple("none" if i % 2 else kinds[i // 2 % 2] for i in range(self.depth))


def _trunc_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    """Normal(0, std) resampled until everything lies within 2 std."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2 * std
    return out


def _check_geometry(config: ModelConfig, pattern: ShiftPattern) -> None:
    """Windows tile the token grid, the pattern tiles a window, the channel split is whole."""
    _, grid_h, grid_w = config.token_extents()
    config.layout().check_divides(grid_h, grid_w, pattern)
    shifted_channels(config.dim, config.channel_ratio)


def _param_layout(config: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """(name, shape, fill) of every parameter, in init and checkpoint order.

    fill is "normal" (truncated normal, drawn in this order), "zeros" or
    "ones".
    """
    t_len, grid_h, grid_w = config.token_extents()
    wh, ww = config.window
    d, hidden = config.dim, FFN_RATIO * config.dim
    bias = (config.heads, 2 * t_len - 1, 2 * wh - 1, 2 * ww - 1)
    # Positional table is spatial-only and broadcast over frames: the
    # no-shift baseline must treat frames identically, so temporal order
    # can only enter through the shift operators.
    out = [
        ("embed.w", (d, config.token_dim_in()), "normal"),
        ("embed.b", (d,), "zeros"),
        ("embed.pos", (grid_h, grid_w, d), "normal"),
    ]
    for i in range(config.depth):
        out += [(f"block{i}.ln1.g", (d,), "ones"), (f"block{i}.ln1.b", (d,), "zeros")]
        out += [(f"block{i}.attn.{w}", (d, d), "normal") for w in ("wq", "wk", "wv", "wo")]
        out += [
            (f"block{i}.attn.bias", bias, "zeros"),
            (f"block{i}.ln2.g", (d,), "ones"),
            (f"block{i}.ln2.b", (d,), "zeros"),
            (f"block{i}.ffn.w1", (hidden, d), "normal"),
            (f"block{i}.ffn.b1", (hidden,), "zeros"),
            (f"block{i}.ffn.w2", (d, hidden), "normal"),
            (f"block{i}.ffn.b2", (d,), "zeros"),
        ]
    # Classifier head starts at zero, so an untrained model emits all-zero
    # logits and the initial loss is exactly log(classes).
    out += [("head.w", (config.classes, d), "zeros"), ("head.b", (config.classes,), "zeros")]
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
        _check_geometry(config, pattern)
        rng = np.random.default_rng(seed)
        p: dict[str, Tensor] = {}
        for name, shape, fill in _param_layout(config):
            if fill == "normal":
                p[name] = Tensor(_trunc_normal(rng, shape, INIT_STD))
            else:
                p[name] = Tensor(np.full(shape, 1.0 if fill == "ones" else 0.0))
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
        """video (..., F, H, W, 3) -> class logits (..., classes).

        Leading axes index clips; (F, H, W, 3) gives (classes,) and
        (B, F, H, W, 3) gives (B, classes).
        """
        z = tubelet_embed(tape, self.config, self.params, video)
        for i, mode in enumerate(self.config.block_modes()):
            z = encoder_block(tape, self, i, z, mode)
        pooled = mean(tape, z, (-4, -3, -2))
        return affine(tape, pooled, self.params["head.w"], self.params["head.b"])


_NONE_PATTERN = build_pattern("none")


def tubelet_embed(
    tape: Tape | None, config: ModelConfig, params: dict[str, Tensor], video: Tensor
) -> Tensor:
    """Fold non-overlapping s x k x k x 3 blocks into tokens, project, add positions.

    video is (..., F, H, W, 3) and the tokens (..., T, grid_h, grid_w, D).
    """
    expected = (config.frames, config.height, config.width, 3)
    if video.shape[-4:] != expected:
        raise ShapeError(f"video shape {video.shape} does not end in config {expected}")
    lead = video.shape[:-4]
    t_len, grid_h, grid_w = config.token_extents()
    s, k = config.tubelet_t, config.tubelet_s

    blocks = reshape(tape, video, (*lead, t_len, s, grid_h, k, grid_w, k, 3))
    n = len(lead)
    # (t, s, r, k, c, k, 3) -> (t, r, c, s, k, k, 3) behind the clip axes
    axes = (*range(n), *(n + a for a in (0, 2, 4, 1, 3, 5, 6)))
    folded = transpose(tape, blocks, axes)
    folded = reshape(tape, folded, (*lead, t_len, grid_h, grid_w, config.token_dim_in()))
    tokens = affine(tape, folded, params["embed.w"], params["embed.b"])

    pos = params["embed.pos"]
    rep = np.tile(np.arange(pos.size), tokens.size // pos.size)
    pos_all = gather(tape, pos, rep, tokens.shape)
    return add(tape, tokens, pos_all)


def encoder_block(
    tape: Tape | None,
    model: Model,
    block: int,
    z: Tensor,
    mode: str,
) -> Tensor:
    """Pre-norm block: z + Shifted-SA(LN(z)), then h + FFN(LN(h)).

    mode "tps" shifts patches by the model's pattern, "tcs" shifts
    channel_ratio of the channels, "none" shifts nothing.
    """
    if mode not in ("tps", "tcs", "none"):
        raise ContractError(f"unknown block mode {mode!r}")
    config = model.config
    p = model.params
    pattern = model.pattern if mode == "tps" else _NONE_PATTERN
    ratio = config.channel_ratio if mode == "tcs" else 0.0

    x = layer_norm(tape, z, p[f"block{block}.ln1.g"], p[f"block{block}.ln1.b"])
    att = patch_shift_attention(
        tape, x, pattern, config.layout(), model.attention_params(block), ratio
    )
    h = add(tape, z, att)

    y = layer_norm(tape, h, p[f"block{block}.ln2.g"], p[f"block{block}.ln2.b"])
    f = affine(tape, y, p[f"block{block}.ffn.w1"], p[f"block{block}.ffn.b1"])
    f = gelu(tape, f)
    f = affine(tape, f, p[f"block{block}.ffn.w2"], p[f"block{block}.ffn.b2"])
    return add(tape, h, f)


def _clip_chunks(model: Model, samples, sites: int):
    """(videos, labels) chunks of (video, label) pairs, stacked on a clip axis.

    A chunk holds at most `sites` token sites (at least one clip), so many
    small clips run as one forward while the caller bounds what a chunk
    holds: TAPE_SITES for a training tape, FORWARD_SITES for a tape-free
    forward.
    """
    cfg = model.config
    t_len, grid_h, grid_w = cfg.token_extents()
    size = max(1, sites // (t_len * grid_h * grid_w))
    expected = (cfg.frames, cfg.height, cfg.width, 3)
    for lo in range(0, len(samples), size):
        part = samples[lo : lo + size]
        videos = [v.data if isinstance(v, Tensor) else np.asarray(v) for v, _ in part]
        for v in videos:
            if v.shape != expected:
                raise ShapeError(f"video shape {v.shape} != config {expected}")
        yield Tensor(np.stack(videos)), np.array([label for _, label in part])


def _add_chunk_gradient(model: Model, videos: Tensor, labels, share: float, sums) -> float:
    """sums += share * gradient of the chunk's mean loss; returns that loss.

    The tape and its gradients die on return, so the next chunk runs
    without them.  The first chunk's weighted gradients become the sums
    while its tape is still alive: these long-lived arrays then sit above
    the tape's memory, and the allocator hands that memory to the next
    chunk instead of returning it to the OS and faulting it back in.
    """
    tape = Tape()
    loss = cross_entropy(tape, model.logits(tape, videos), labels)
    grads = tape.backward(loss)
    for name, t in model.params.items():
        g = share * grads[t]
        acc = sums.get(name)
        if acc is None:
            sums[name] = g
        else:
            acc += g
    return loss.item()


def train_step(
    model: Model,
    batch,
    lr: float,
    momentum: float = 0.0,
    velocity: dict[str, np.ndarray] | None = None,
) -> float:
    """One SGD step on a batch of (video, label) pairs; returns mean loss.

    Clips run in chunks of at most TAPE_SITES token sites (see
    _clip_chunks), one tape each; the chunk gradients, weighted by their
    share of the batch, are summed in a fixed order.  With lr 0 the
    parameters are reproduced bit-exactly.
    """
    if not batch:
        raise ContractError("empty batch")
    sums: dict[str, np.ndarray] = {}
    loss = 0.0
    for videos, labels in _clip_chunks(model, batch, TAPE_SITES):
        share = len(labels) / len(batch)
        loss += share * _add_chunk_gradient(model, videos, labels, share, sums)

    for name, t in model.params.items():
        g = sums[name]
        if velocity is not None:
            v = velocity.get(name)
            if v is not None:
                g += momentum * v  # in place: the sums become the velocity
            velocity[name] = g
        model.params[name] = Tensor(t.data - lr * g)
    return loss


def evaluate(model: Model, samples) -> float:
    """Top-1 accuracy of argmax predictions over (video, label) pairs.

    Clips run as tape-free forwards in chunks of at most FORWARD_SITES
    token sites (see _clip_chunks).
    """
    if not samples:
        raise ContractError("no samples to evaluate")
    classes = model.config.classes
    if any(not 0 <= label < classes for _, label in samples):
        raise ContractError(f"label out of range [0, {classes})")
    hits = 0
    for videos, labels in _clip_chunks(model, samples, FORWARD_SITES):
        logits = model.logits(None, videos)
        hits += int((np.argmax(logits.data, axis=-1) == labels).sum())
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
# checkpoint format: one JSON header line (with the blob's crc32), then raw
# little-endian float64


def save_checkpoint(path, model: Model) -> None:
    path = Path(path)
    tensors = []
    offset = 0
    for name, t in model.params.items():
        tensors.append({"name": name, "shape": list(t.shape), "offset": offset})
        offset += t.size * 8
    blob = b"".join(np.ascontiguousarray(t.data, dtype="<f8").tobytes()
                    for t in model.params.values())
    header = {
        "format": CHECKPOINT_FORMAT,
        "blob_crc32": zlib.crc32(blob),
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
        fh.write(blob)


def _checkpoint_config(raw) -> ModelConfig:
    """The ModelConfig of a checkpoint header; exactly its fields, nothing else."""
    if not isinstance(raw, dict):
        raise ContractError("checkpoint config must be a JSON object")
    check_keys("checkpoint config", raw, [f.name for f in fields(ModelConfig)])
    cfg = dict(raw)
    try:
        return ModelConfig(**cfg)
    except (TypeError, ValueError) as exc:
        raise ContractError(f"bad checkpoint config: {exc}") from None


def _checkpoint_pattern(raw) -> ShiftPattern:
    """The shift pattern of a checkpoint header, checked against its stored hash."""
    if not isinstance(raw, dict) or set(raw) != {"name", "grid", "hash"}:
        raise ContractError("checkpoint pattern must hold exactly name, grid and hash")
    try:
        pattern = ShiftPattern(str(raw["name"]), np.array(raw["grid"], dtype=np.int64))
    except (TypeError, ValueError) as exc:
        raise ContractError(f"bad checkpoint pattern grid: {exc}") from None
    if pattern_hash(pattern) != raw["hash"]:
        raise ContractError(
            f"checkpoint pattern {pattern.name!r} grid does not match its stored hash"
        )
    return pattern


def load_checkpoint(path) -> Model:
    """Read a checkpoint and check it against the model its config describes.

    The header must hold exactly the config fields, a pattern grid that
    matches its hash, and a tensor directory naming every parameter of
    Model.init(config) with its shape, laid out over the whole blob, and
    the blob must match its stored crc32.  Any mismatch raises
    ContractError.
    """
    path = Path(path)
    with path.open("rb") as fh:
        line = fh.readline()
        blob = fh.read()
    try:
        header = json.loads(line.decode())
    except (UnicodeDecodeError, json.JSONDecodeError):
        header = None
    fmt = header.get("format") if isinstance(header, dict) else None
    check_format("checkpoint file", path, fmt, CHECKPOINT_FORMAT)
    config = _checkpoint_config(header.get("config"))
    pattern = _checkpoint_pattern(header.get("pattern"))
    try:
        _check_geometry(config, pattern)
    except ShapeError as exc:
        raise ContractError(f"checkpoint config does not fit its pattern: {exc}") from None

    entries = header.get("tensors")
    if not isinstance(entries, list) or not all(
        isinstance(e, dict) and isinstance(e.get("name"), str)
        and isinstance(e.get("shape"), list) and isinstance(e.get("offset"), int)
        for e in entries
    ):
        raise ContractError("checkpoint tensor directory needs name, shape and offset entries")
    directory = {e["name"]: e for e in entries}
    if len(directory) != len(entries):
        raise ContractError("checkpoint tensor directory names a tensor twice")
    layout = _param_layout(config)
    check_keys("checkpoint tensor directory", directory, [name for name, _, _ in layout], "tensors")
    params = {}
    end = 0
    for name, shape, _ in layout:
        entry = directory[name]
        if tuple(entry["shape"]) != shape:
            raise ContractError(
                f"checkpoint tensor {name!r} has shape {tuple(entry['shape'])}, "
                f"its config needs {shape}"
            )
        size = math.prod(shape)
        start = entry["offset"]
        end = max(end, start + 8 * size)
        if start < 0 or end > len(blob):
            raise ContractError(
                f"checkpoint blob holds {len(blob)} bytes, tensor {name!r} "
                f"needs bytes {start} to {start + 8 * size}"
            )
        params[name] = np.frombuffer(blob, dtype="<f8", count=size, offset=start).reshape(shape)
    if end != len(blob):
        raise ContractError(f"checkpoint blob holds {len(blob)} bytes, tensor directory covers {end}")
    check_crc32("checkpoint blob", blob, header.get("blob_crc32"))
    return Model(config, {name: Tensor(arr) for name, arr in params.items()}, pattern)
