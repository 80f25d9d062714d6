"""Synthetic video tasks that only temporal modeling can solve.

direction4: a bright dot glides one way (up/down/left/right); the label is
the direction.  Frame pixels alone reveal the motion axis but never the
sign, so beating 50% needs temporal order.

reversal2: class 0 is a dot accelerating along a random compass direction,
class 1 is the exact frame reversal of such a clip.  Both classes share the
same per-frame content distribution and identical frame multisets within a
pair, so any model that pools frames order-invariantly is provably stuck at
chance; only the step-size profile over time separates the classes.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ContractError, ShapeError, check_keys

__all__ = [
    "TASKS",
    "TaskSpec",
    "SyntheticSample",
    "gen_dataset",
    "split_dataset",
    "save_dataset",
    "load_dataset",
]

TASKS = ("direction4", "reversal2")

DATASET_FORMAT = "patchshift-dataset-v1"

DOT = 2  # dot side length in pixels

_DIRS = {0: (-1, 0), 1: (1, 0), 2: (0, -1), 3: (0, 1)}  # up, down, left, right


@dataclass(frozen=True)
class TaskSpec:
    """Shape and size of one synthetic dataset."""

    task: str = "reversal2"
    frames: int = 8
    height: int = 16
    width: int = 16
    noise: float = 0.02
    train_count: int = 128
    val_count: int = 64

    def __post_init__(self):
        if self.task not in TASKS:
            raise ContractError(f"unknown task {self.task!r} (known: {TASKS})")
        if self.frames < 4:
            raise ContractError(f"need at least 4 frames, got {self.frames}")
        if self.noise < 0:
            raise ContractError(f"noise must be non-negative, got {self.noise}")
        per_class = 4 if self.task == "direction4" else 2
        for name, count in (("train_count", self.train_count), ("val_count", self.val_count)):
            if count <= 0 or count % per_class:
                raise ContractError(
                    f"{name} must be a positive multiple of {per_class}, got {count}"
                )

    @property
    def classes(self) -> int:
        return 4 if self.task == "direction4" else 2

    def video_shape(self) -> tuple[int, int, int, int]:
        return (self.frames, self.height, self.width, 3)


@dataclass(frozen=True)
class SyntheticSample:
    video: np.ndarray
    label: int
    seed: int


def _render(spec: TaskSpec, rng: np.random.Generator, steps: np.ndarray) -> np.ndarray:
    """One clip: dot at positions cumsum(steps) along a random direction."""
    f, h, w = spec.frames, spec.height, spec.width
    direction = int(rng.integers(4))
    dr, dc = _DIRS[direction]
    travel = int(steps.sum())
    span_r, span_c = abs(dr) * travel, abs(dc) * travel
    if h - DOT - span_r < 0 or w - DOT - span_c < 0:
        raise ShapeError(
            f"video {h}x{w} too small for travel {travel} with dot {DOT}"
        )
    r0 = int(rng.integers(0, h - DOT - span_r + 1)) + (span_r if dr < 0 else 0)
    c0 = int(rng.integers(0, w - DOT - span_c + 1)) + (span_c if dc < 0 else 0)

    video = rng.normal(0.0, spec.noise, size=spec.video_shape())
    pos = np.concatenate([[0], np.cumsum(steps)])
    for t in range(f):
        r = r0 + dr * int(pos[t])
        c = c0 + dc * int(pos[t])
        video[t, r : r + DOT, c : c + DOT, :] = 1.0
    return np.clip(video, 0.0, 1.0)


def _accel_steps(spec: TaskSpec) -> np.ndarray:
    """Monotone step sizes; reversing the clip makes them decrease.

    A 1/3-slope staircase: the step grows by one every third frame, so the
    speed change is visible inside any span of three consecutive frames —
    plateaus are never long enough to hide the acceleration locally.
    """
    j = np.arange(spec.frames - 1)
    return ((j + 2) // 3).astype(np.int64)


def _render_direction4(spec: TaskSpec, seed: int, label: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    f, h, w = spec.frames, spec.height, spec.width
    dr, dc = _DIRS[label]
    travel = f - 1
    span_r, span_c = abs(dr) * travel, abs(dc) * travel
    if h - DOT - span_r < 0 or w - DOT - span_c < 0:
        raise ShapeError(f"video {h}x{w} too small for {f} frames of unit motion")
    r0 = int(rng.integers(0, h - DOT - span_r + 1)) + (span_r if dr < 0 else 0)
    c0 = int(rng.integers(0, w - DOT - span_c + 1)) + (span_c if dc < 0 else 0)
    video = rng.normal(0.0, spec.noise, size=spec.video_shape())
    for t in range(f):
        r, c = r0 + dr * t, c0 + dc * t
        video[t, r : r + DOT, c : c + DOT, :] = 1.0
    return np.clip(video, 0.0, 1.0)


def _gen_samples(spec: TaskSpec, seed: int, count: int) -> list[SyntheticSample]:
    root = np.random.default_rng(seed)
    sample_seeds = [int(s) for s in root.integers(0, 2**62, size=count)]
    samples: list[SyntheticSample] = []
    if spec.task == "direction4":
        for i, s in enumerate(sample_seeds):
            label = i % 4
            samples.append(SyntheticSample(_render_direction4(spec, s, label), label, s))
        return samples
    # reversal2: emit exact (forward, reversed) pairs sharing one render
    steps = _accel_steps(spec)
    for i in range(0, count, 2):
        s = sample_seeds[i]
        clip = _render(spec, np.random.default_rng(s), steps)
        samples.append(SyntheticSample(clip, 0, s))
        samples.append(SyntheticSample(np.ascontiguousarray(clip[::-1]), 1, s))
    return samples


def gen_dataset(spec: TaskSpec, seed: int) -> list[SyntheticSample]:
    """Train samples followed by val samples; regeneration is bit-identical."""
    train = _gen_samples(spec, seed, spec.train_count)
    val = _gen_samples(spec, seed + 1, spec.val_count)
    return train + val


def split_dataset(spec: TaskSpec, samples) -> tuple[list, list]:
    if len(samples) != spec.train_count + spec.val_count:
        raise ShapeError(
            f"{len(samples)} samples for spec {spec.train_count}+{spec.val_count}"
        )
    return list(samples[: spec.train_count]), list(samples[spec.train_count :])


# ---------------------------------------------------------------------------
# on-disk form: <stem>.json sidecar + <stem>.bin raw little-endian float64


def save_dataset(stem, spec: TaskSpec, seed: int, samples) -> tuple[Path, Path]:
    stem = Path(stem)
    stem.parent.mkdir(parents=True, exist_ok=True)
    sidecar = stem.with_suffix(".json")
    blob = stem.with_suffix(".bin")
    meta = {
        "format": DATASET_FORMAT,
        "spec": asdict(spec),
        "seed": seed,
        "count": len(samples),
        "video_shape": list(spec.video_shape()),
        "labels": [s.label for s in samples],
        "sample_seeds": [s.seed for s in samples],
    }
    sidecar.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    with blob.open("wb") as fh:
        for s in samples:
            fh.write(np.ascontiguousarray(s.video, dtype="<f8").tobytes())
    return sidecar, blob


_SIDECAR_KEYS = {"format", "spec", "seed", "count", "video_shape", "labels", "sample_seeds"}


def load_dataset(stem) -> tuple[TaskSpec, int, list[SyntheticSample]]:
    """Read a dataset written by save_dataset and check the sidecar against the blob.

    The sidecar must hold exactly the keys save_dataset writes and a spec of
    exactly the TaskSpec fields (else ContractError).  The clip count must
    be the spec's train + val count, with one label and one sample seed per
    clip, the video shape must be the spec's, and the blob must hold exactly
    that many float64 clips (else ShapeError).
    """
    stem = Path(stem)
    sidecar = stem.with_suffix(".json")
    blob = stem.with_suffix(".bin")
    meta = json.loads(sidecar.read_text())
    if not isinstance(meta, dict) or meta.get("format") != DATASET_FORMAT:
        raise ContractError(f"not a dataset sidecar: {sidecar}")
    check_keys("dataset sidecar", meta, _SIDECAR_KEYS)
    if not isinstance(meta["spec"], dict):
        raise ContractError("dataset spec must be a JSON object")
    check_keys("dataset spec", meta["spec"], [f.name for f in fields(TaskSpec)])
    try:
        spec = TaskSpec(**meta["spec"])
    except (TypeError, ValueError) as exc:
        raise ContractError(f"bad dataset spec: {exc}") from None
    count = spec.train_count + spec.val_count
    if meta["count"] != count:
        raise ShapeError(f"sidecar count {meta['count']} != spec train + val {count}")
    for key in ("labels", "sample_seeds"):
        entries = meta[key]
        if not isinstance(entries, list) or len(entries) != count or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in entries
        ):
            raise ShapeError(f"sidecar {key} must list one integer for each of {count} clips")
    shape = spec.video_shape()
    if meta["video_shape"] != list(shape):
        raise ShapeError(f"sidecar video shape {meta['video_shape']} != spec {list(shape)}")
    data = blob.read_bytes()
    if len(data) % 8:
        raise ShapeError(f"blob holds {len(data)} bytes, not a whole number of floats")
    raw = np.frombuffer(data, dtype="<f8")
    per = math.prod(shape)
    if raw.size != per * count:
        raise ShapeError(f"blob holds {raw.size} floats, sidecar promises {per * count}")
    samples = [
        SyntheticSample(raw[i * per : (i + 1) * per].reshape(shape).copy(), label, s)
        for i, (label, s) in enumerate(zip(meta["labels"], meta["sample_seeds"]))
    ]
    return spec, meta["seed"], samples
