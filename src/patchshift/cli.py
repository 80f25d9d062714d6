"""Command-line front end: pattern inspection, data generation, training runs,
checkpoint evaluation, and complexity reports.

Exit codes: 0 success, 2 usage/config problems, 3 data/shape mismatches.
Run configs are JSON; any leaf can be overridden with dotted flags, e.g.
``patchshift run cfg.json --model.pattern C9 --train.lr 0.1``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .data import TaskSpec, gen_dataset, load_dataset, save_dataset, split_dataset
from .errors import ContractError, NonFiniteError, ShapeError
from .model import (
    Model,
    ModelConfig,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train_step,
)
from .oracle import COMPLEXITY_KINDS, complexity_estimate, mac_profile
from .patterns import (
    build_pattern,
    pattern_hash,
    pattern_metrics,
    resolve_pattern,
    tile_offsets,
)
from .tensor import Tensor

USAGE_ERROR = 2
DATA_ERROR = 3

OUT_DIR_ENV = "PATCHSHIFT_OUT_DIR"

DEFAULT_TRAIN = {"epochs": 8, "batch": 8, "lr": 0.1, "momentum": 0.9}


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _parse_hw(text: str) -> tuple[int, int]:
    try:
        h, w = text.lower().split("x")
        return int(h), int(w)
    except ValueError as exc:
        raise ContractError(f"expected HxW, got {text!r}") from exc


def _write_pgm(path: Path, grid: np.ndarray) -> None:
    """Grayscale render: the smallest offset maps to black, the largest to white."""
    lo, hi = int(grid.min()), int(grid.max())
    span = max(hi - lo, 1)
    pixels = ((grid - lo) * 255) // span
    lines = ["P2", f"{grid.shape[1]} {grid.shape[0]}", "255"]
    lines += [" ".join(str(int(v)) for v in row) for row in pixels]
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# pattern


def cmd_pattern(args) -> int:
    try:
        pattern = resolve_pattern(args.name)
        grid = pattern.offsets
        if args.grid:
            gh, gw = _parse_hw(args.grid)
            grid = tile_offsets(pattern, gh, gw)
        metrics = pattern_metrics(pattern)
    except (ContractError, ShapeError) as exc:
        return _fail(str(exc), USAGE_ERROR)

    print(f"pattern {pattern.name} ({pattern.height}x{pattern.width})"
          f" hash {pattern_hash(pattern)}")
    width = max(len(str(int(v))) for v in grid.ravel())
    for row in grid:
        print("  " + " ".join(f"{int(v):>{width}}" for v in row))
    print(f"receptive_field: {metrics.receptive_field}")
    print(f"shift_pct: {metrics.shift_pct:.6g}")
    print(f"evenness: {metrics.evenness:.6g}")
    if args.render:
        out = Path(args.render)
        _write_pgm(out, grid)
        print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# gen-data


def cmd_gen_data(args) -> int:
    try:
        spec = TaskSpec(
            task=args.task,
            frames=args.frames,
            height=args.size,
            width=args.size,
            noise=args.noise,
            train_count=args.train,
            val_count=args.val,
        )
    except ContractError as exc:
        return _fail(str(exc), USAGE_ERROR)
    try:
        samples = gen_dataset(spec, args.seed)
        sidecar, blob = save_dataset(args.out, spec, args.seed, samples)
    except (ContractError, ShapeError) as exc:
        return _fail(str(exc), DATA_ERROR)
    print(f"wrote {sidecar} and {blob} ({len(samples)} samples)")
    return 0


# ---------------------------------------------------------------------------
# run


def _apply_overrides(config: dict, pairs: list[str]) -> dict:
    """Apply --a.b.c value pairs onto a nested dict; values parse as JSON."""
    i = 0
    while i < len(pairs):
        tok = pairs[i]
        if not tok.startswith("--"):
            raise ContractError(f"expected --dotted.key, got {tok!r}")
        if "=" in tok:
            key, raw = tok[2:].split("=", 1)
            i += 1
        else:
            key = tok[2:]
            if i + 1 >= len(pairs):
                raise ContractError(f"flag {tok} is missing a value")
            raw = pairs[i + 1]
            i += 2
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = config
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ContractError(f"override {key!r} walks through a leaf")
        node[parts[-1]] = value
    return config


def _load_run_config(path: str, overrides: list[str]) -> dict:
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ContractError("run config must be a JSON object")
    return _apply_overrides(raw, overrides)


def _check_int(name: str, value, low: int) -> int:
    """value itself if it is an integer >= low; ContractError otherwise."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ContractError(f"{name} must be an integer >= {low}, got {value!r}")
    return value


def _build_run(config: dict):
    """Split a raw config dict into (ModelConfig, TaskSpec, train dict, seed, out_dir)."""
    known = {"model", "task", "train", "seed", "out_dir"}
    unknown = set(config) - known
    if unknown:
        raise ContractError(f"unknown config sections: {sorted(unknown)}")
    model_dict = dict(config.get("model", {}))
    task_dict = dict(config.get("task", {}))
    train = dict(DEFAULT_TRAIN)
    train.update(config.get("train", {}))
    seed = _check_int("seed", config.get("seed", 0), 0)
    out_dir = config.get("out_dir") or os.environ.get(OUT_DIR_ENV) or "runs/latest"

    task = TaskSpec(**task_dict)
    if "pattern" in model_dict:
        resolve_pattern(str(model_dict["pattern"]))  # unknown name = config error
    model_dict.setdefault("classes", task.classes)
    model_dict.setdefault("frames", task.frames)
    model_dict.setdefault("height", task.height)
    model_dict.setdefault("width", task.width)
    model = ModelConfig(**model_dict)
    if (model.classes, model.frames, model.height, model.width) != (
        task.classes, task.frames, task.height, task.width,
    ):
        raise ShapeError(
            f"model expects classes/frames/size "
            f"{(model.classes, model.frames, model.height, model.width)}, task provides "
            f"{(task.classes, task.frames, task.height, task.width)}"
        )
    extra = set(train) - set(DEFAULT_TRAIN)
    if extra:
        raise ContractError(f"unknown train keys: {sorted(extra)}")
    for key in ("epochs", "batch"):
        _check_int(f"train.{key}", train[key], 1)
    for key in ("lr", "momentum"):
        value = train[key]
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            raise ContractError(f"train.{key} must be a finite number, got {value!r}")
    return model, task, train, seed, out_dir


def _format_float(x: float) -> str:
    return repr(float(x))


@contextlib.contextmanager
def _diverges_at(where: str):
    """Silence numpy's overflow warnings; name where a tensor went non-finite."""
    try:
        with np.errstate(all="ignore"):
            yield
    except NonFiniteError as exc:
        raise NonFiniteError(f"training diverged at {where}: {exc}") from None


def run_training(model_cfg: ModelConfig, task: TaskSpec, train: dict, seed: int, out_dir: Path):
    """Full deterministic run; returns (model, rows) and writes nothing."""
    samples = gen_dataset(task, seed)
    train_set, val_set = split_dataset(task, samples)
    model = Model.init(model_cfg, seed)
    rng = np.random.default_rng(seed + 2)
    velocity: dict[str, np.ndarray] = {}
    batch = train["batch"]
    rows = []
    for epoch in range(train["epochs"]):
        order = rng.permutation(len(train_set))
        losses = []
        for step, lo in enumerate(range(0, len(order), batch)):
            pairs = [(train_set[i].video, train_set[i].label) for i in order[lo : lo + batch]]
            with _diverges_at(f"epoch {epoch}, step {step}"):
                losses.append(train_step(model, pairs, train["lr"], train["momentum"], velocity))
        with _diverges_at(f"epoch {epoch}, validation"):
            top1 = evaluate(model, [(s.video, s.label) for s in val_set])
        rows.append((epoch, float(np.mean(losses)), top1))
    return model, rows


def _write_metrics(path: Path, model_cfg, task, train, seed, pattern, rows) -> None:
    run_config = {
        "model": asdict(model_cfg),
        "task": asdict(task),
        "train": train,
        "seed": seed,
    }
    lines = [
        "# config: " + json.dumps(run_config, sort_keys=True),
        "# pattern_hash: " + pattern_hash(pattern),
        "epoch,train_loss,val_top1",
    ]
    lines += [
        f"{epoch},{_format_float(loss)},{_format_float(top1)}"
        for epoch, loss, top1 in rows
    ]
    path.write_text("\n".join(lines) + "\n")


def cmd_run(args) -> int:
    try:
        config = _load_run_config(args.config, args.overrides)
    except (OSError, json.JSONDecodeError, ContractError) as exc:
        return _fail(f"bad run config: {exc}", USAGE_ERROR)
    try:
        model_cfg, task, train, seed, out_dir = _build_run(config)
    except (TypeError, ContractError) as exc:
        return _fail(f"bad run config: {exc}", USAGE_ERROR)
    except ShapeError as exc:
        return _fail(str(exc), DATA_ERROR)
    try:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        model, rows = run_training(model_cfg, task, train, seed, out)
    except (ContractError, ShapeError) as exc:
        return _fail(str(exc), DATA_ERROR)

    _write_metrics(out / "metrics.csv", model_cfg, task, train, seed, model.pattern, rows)
    save_checkpoint(out / "model.ckpt", model)
    final = rows[-1]
    print(f"run complete: {len(rows)} epochs, final val_top1 {_format_float(final[2])}")
    print(f"wrote {out / 'metrics.csv'} and {out / 'model.ckpt'}")
    return 0


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    try:
        model = load_checkpoint(args.checkpoint)
    except (OSError, ContractError) as exc:
        return _fail(f"bad checkpoint: {exc}", USAGE_ERROR)
    try:
        spec, _, samples = load_dataset(args.data)
        cfg = model.config
        if (spec.frames, spec.height, spec.width) != (cfg.frames, cfg.height, cfg.width):
            raise ShapeError(
                f"dataset clips are {spec.frames}x{spec.height}x{spec.width}, model wants "
                f"{cfg.frames}x{cfg.height}x{cfg.width}"
            )
        split = {"train": slice(0, spec.train_count), "val": slice(spec.train_count, None)}
        chosen = samples[split[args.split]]
        top1 = evaluate(model, [(s.video, s.label) for s in chosen])
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        return _fail(f"bad dataset: {exc}", USAGE_ERROR)
    except (ContractError, ShapeError) as exc:
        return _fail(str(exc), DATA_ERROR)
    print(json.dumps({"split": args.split, "count": len(chosen), "top1": top1}))
    return 0


# ---------------------------------------------------------------------------
# complexity


def _measure_patchshift(n, t, d, heads, window):
    """Measured MAC profile of the real pipeline at matching extents."""
    from .attention import AttentionParams, WindowLayout, patch_shift_attention

    gh = gw = int(np.sqrt(n))
    if gh * gw != n:
        raise ShapeError(f"--measure needs a square patch count, got N={n}")
    layout = WindowLayout(*window)
    rng = np.random.default_rng(0)

    def make(shape):
        return Tensor(rng.normal(size=shape))

    params = AttentionParams(
        heads=heads,
        w_q=make((d, d)),
        w_k=make((d, d)),
        w_v=make((d, d)),
        w_out=make((d, d)),
        bias_table=Tensor(np.zeros((heads, 2 * t - 1, 2 * layout.height - 1, 2 * layout.width - 1))),
    )
    z = make((t, gh, gw, d))
    pattern = build_pattern("bayerA") if layout.height % 2 == 0 and layout.width % 2 == 0 else build_pattern("none")
    ps = mac_profile(lambda tape: patch_shift_attention(tape, z, pattern, layout, params))

    from .oracle import joint_attention

    joint = mac_profile(lambda tape: joint_attention(tape, z, params))
    return ps, joint


def cmd_complexity(args) -> int:
    try:
        window = _parse_hw(args.window) if args.window else None
        reports = [
            complexity_estimate(
                kind, args.N, args.T, args.D, heads=args.heads,
                window=window if kind == "patchshift" else None,
                alpha=args.alpha,
            )
            for kind in COMPLEXITY_KINDS
        ]
    except (ContractError, ShapeError) as exc:
        return _fail(str(exc), USAGE_ERROR)

    if args.json:
        print(json.dumps([json.loads(r.to_json()) for r in reports], indent=2))
    else:
        head = f"{'kind':<14} {'class':<18} {'sa_macs':>14} {'proj_macs':>12} {'buffer':>12}"
        print(head)
        for r in reports:
            print(
                f"{r.kind:<14} {r.complexity_class:<18} {r.sa_macs:>14} "
                f"{r.projection_macs:>12} {r.buffer_elements:>12}"
            )

    if args.measure:
        try:
            ps, joint = _measure_patchshift(
                args.N, args.T, args.D, args.heads, window or (int(np.sqrt(args.N)),) * 2
            )
        except (ContractError, ShapeError) as exc:
            return _fail(str(exc), DATA_ERROR)
        est_ps = next(r for r in reports if r.kind == "patchshift")
        est_joint = next(r for r in reports if r.kind == "joint")
        measured_ps = ps["score"] + ps["agg"]
        measured_joint = joint["score"] + joint["agg"]
        print(f"measured patchshift sa_macs: {measured_ps} (estimate {est_ps.sa_macs})")
        print(f"measured joint sa_macs:      {measured_joint} (estimate {est_joint.sa_macs})")
        if measured_ps != est_ps.sa_macs or measured_joint != est_joint.sa_macs:
            return _fail("measured MACs disagree with estimates", DATA_ERROR)
        print("measured == estimate for patchshift and joint")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patchshift",
        description="Temporal patch-shift attention: patterns, data, training, profiling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pattern", help="print a shift pattern, its metrics, optional PGM render")
    p.add_argument("name", help="built-in pattern name or pattern text file")
    p.add_argument("--grid", help="tile to HxW before printing/rendering")
    p.add_argument("--render", help="write a grayscale PGM to this path")
    p.set_defaults(func=cmd_pattern)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset (sidecar + blob)")
    p.add_argument("--task", default="reversal2")
    p.add_argument("--out", required=True, help="output stem; writes stem.json and stem.bin")
    p.add_argument("--frames", type=int, default=8)
    p.add_argument("--size", type=int, default=16, help="square frame side in pixels")
    p.add_argument("--noise", type=float, default=0.02)
    p.add_argument("--train", type=int, default=128)
    p.add_argument("--val", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("run", help="train on a synthetic task from a JSON config")
    p.add_argument("config", help="JSON run config")
    p.add_argument(
        "overrides",
        nargs=argparse.REMAINDER,
        help="dotted-key overrides, e.g. --model.pattern C9 --train.lr 0.1",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a stored dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="dataset stem (stem.json + stem.bin)")
    p.add_argument("--split", choices=("train", "val"), default="val")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("complexity", help="attention cost table across strategies")
    p.add_argument("--N", type=int, required=True, help="patches per frame")
    p.add_argument("--T", type=int, required=True, help="frames")
    p.add_argument("--D", type=int, required=True, help="model dim")
    p.add_argument("--heads", type=int, default=1)
    p.add_argument("--window", help="window HxW for the patchshift row")
    p.add_argument("--alpha", type=float, default=0.5, help="sparse/local keep fraction")
    p.add_argument("--measure", action="store_true", help="cross-check against a counted forward")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_complexity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
