"""One benchmark run: set-up, checks, warm-up, then timed rounds.

A round is one timed block of training (one ``train_step``) followed by one
timed block of inference (one ``evaluate`` call on the next slice of the
inference split), so both phases see the same machine conditions.  Each
throughput is the median over the blocks of the run.  One operation is one
train step or one evaluated clip; it fails if it raises or yields a
non-finite loss.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from patchshift import data, oracle, shifts
from patchshift import model as pm
from patchshift.tensor import Tensor

from . import checks as ck
from .trace import Tracer, layer_metrics
from .workloads import WORKLOADS

MIN_ROUNDS = 3
HEAD_STD = 1.0


class _Ops:
    """Operation counters and the two timed operations of a workload."""

    def __init__(self, workload, net, infer_net, train, infer):
        self.w = workload
        self.net = net
        self.infer_net = infer_net
        self.batches = _chunks(train, workload.batch)
        self.slices = _chunks(infer, workload.eval_clips)
        self.infer = infer
        self.velocity: dict[str, np.ndarray] = {}
        self.step = 0
        self.evals = 0
        self.accuracies: dict[int, set] = {}  # slice -> accuracies seen
        self.attempted = 0
        self.failed = 0

    def train(self) -> float | None:
        self.step += 1
        batch = self.batches[(self.step - 1) % len(self.batches)]
        self.attempted += 1
        try:
            loss = pm.train_step(self.net, batch, self.w.lr, self.w.momentum,
                                 self.velocity)
        except Exception:  # a failed operation is counted, and the run goes on
            traceback.print_exc()
            loss = math.nan
        if not math.isfinite(loss):
            self.failed += 1
            return None
        return loss

    def evaluate(self, samples) -> float | None:
        self.attempted += len(samples)
        try:
            return pm.evaluate(self.infer_net, samples)
        except Exception:  # a failed operation is counted, and the run goes on
            traceback.print_exc()
            self.failed += len(samples)
            return None

    def train_block(self) -> float:
        """One train step; clips per second."""
        start = perf_counter()
        self.train()
        return self.w.batch / (perf_counter() - start)

    def infer_block(self) -> float:
        """One evaluate call on the next slice of the inference split; clips per second."""
        i = self.evals % len(self.slices)
        self.evals += 1
        start = perf_counter()
        accuracy = self.evaluate(self.slices[i])
        rate = len(self.slices[i]) / (perf_counter() - start)
        self.accuracies.setdefault(i, set()).add(accuracy)
        return rate


def _chunks(items: list, size: int) -> list[list]:
    return [items[i : i + size] for i in range(0, len(items), size)]


def _setup(w, seed: int, out_dir: Path):
    samples = data.gen_dataset(w.task, seed)
    train_s, infer_s = data.split_dataset(w.task, samples)
    train = [(s.video, s.label) for s in train_s]
    infer = [(s.video, s.label) for s in infer_s]
    net = pm.Model.init(w.config, seed)
    # The inference model gets a non-zero head, so its logits and top-1 mean
    # something; it is used as loaded back from its checkpoint.
    rng = np.random.default_rng((seed, 1))
    params = dict(net.params)
    params["head.w"] = Tensor(rng.normal(0.0, HEAD_STD, params["head.w"].shape))
    params["head.b"] = Tensor(rng.normal(0.0, 0.1 * HEAD_STD, params["head.b"].shape))
    saved = pm.Model(w.config, params, net.pattern)
    path = out_dir / f"ckpt-{os.getpid()}.bin"
    try:
        pm.save_checkpoint(path, saved)
        loaded = pm.load_checkpoint(path)
    finally:
        path.unlink(missing_ok=True)
    return net, saved, loaded, train, infer


def _run_checks(w, seed: int, ops: _Ops, saved) -> list[ck.Check]:
    rng = np.random.default_rng((seed, 2))
    net, infer_net, cfg = ops.net, ops.infer_net, w.config
    before = dict(net.params)
    loss = ops.train()
    out = [ck.first_loss(math.nan if loss is None else loss, cfg.classes)]
    direction = {n: rng.normal(size=t.shape) for n, t in before.items()}
    out.append(ck.update_direction(net, before, net.params, w.lr, ops.batches[0], direction))

    picked = ops.infer[: w.check_clips]
    videos = [v for v, _ in picked]
    logits = [infer_net.logits(None, Tensor(v)).data for v in videos]
    check, refs = ck.reference_forward(infer_net, videos, logits)
    out.append(check)
    accuracy = ops.evaluate(picked)
    hits = -1 if accuracy is None else round(accuracy * len(picked))
    out.append(ck.hit_count(refs, [y for _, y in picked], hits))
    out.append(ck.checkpoint_roundtrip([saved.logits(None, Tensor(v)).data for v in videos], logits))

    t_len, gh, gw = cfg.token_extents()
    tokens = Tensor(rng.normal(size=(t_len, gh, gw, cfg.dim)))
    grid = ck.shift_grid(net)
    fwd = shifts.ShiftDirection.FORWARD
    out.append(ck.patch_shift_roundtrip(tokens, shifts.patch_shift(None, tokens, grid, fwd), grid))
    out.append(ck.channel_shift_roundtrip(
        tokens, shifts.channel_shift(None, tokens, cfg.channel_ratio, fwd), cfg.channel_ratio))
    profile = oracle.mac_profile(lambda tape: infer_net.logits(tape, Tensor(videos[0])))
    out.append(ck.macs(cfg, profile))
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, t0: float, out_dir: Path) -> dict:
    """Run one workload; t0 is the process's start on the perf_counter clock."""
    w = WORKLOADS[workload]
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        net, saved, loaded, train, infer = _setup(w, seed, out_dir)
        setup_s = perf_counter() - t0
        phases = {"setup": tracer.take()} if tracer else {}

        ops = _Ops(w, net, loaded, train, infer)
        results = _run_checks(w, seed, ops, saved)
        if tracer:
            phases["check"] = tracer.take()

        ops.train_block()  # warm-up, outside the timed rounds
        for _ in ops.slices:
            ops.infer_block()
        if tracer:
            phases["warmup"] = tracer.take()

        train_rates, infer_rates = [], []
        start = perf_counter()
        while True:
            round_start = perf_counter()
            train_rates.append(ops.train_block())
            infer_rates.append(ops.infer_block())
            now = perf_counter()
            if len(train_rates) >= MIN_ROUNDS and now - start + (now - round_start) > seconds:
                break
        rounds = len(train_rates)
        seen = list(ops.accuracies.values())
        results.append(ck.Check("evaluate_repeatable", all(len(a) == 1 and None not in a for a in seen),
                                f"one accuracy per inference slice over {ops.evals} calls: {seen}"))

        train_clips = rounds * w.batch
        fwd_clips = train_clips + rounds * w.eval_clips
        if tracer:
            phases["timed"] = tracer.take()
            metrics = layer_metrics(phases["setup"], phases["check"], phases["timed"],
                                    fwd_clips, train_clips)
            results.append(ck.score_elements(w.config, metrics["attention.score_elements_per_clip"][0]))
        else:
            metrics = {
                "setup_s": (setup_s, "s"),
                "train_clips_per_s": (statistics.median(train_rates), "clips/s"),
                "infer_clips_per_s": (statistics.median(infer_rates), "clips/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
    finally:
        if tracer:
            tracer.uninstall()

    for c in results:
        print(f"{'ok  ' if c.ok else 'FAIL'} {c.name}: {c.detail}", file=sys.stderr)
    out = {
        "correct": all(c.ok for c in results),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = out_dir / f"{workload}-seed{seed}-trace{int(trace)}"
    detail = dict(out, workload=workload, seed=seed, seconds=seconds, rounds=rounds,
                  train_blocks_clips_per_s=train_rates, infer_blocks_clips_per_s=infer_rates,
                  checks=[c._asdict() for c in results])
    stem.with_suffix(".result.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer:
        tracer.dump(stem.with_suffix(".trace.json"), dict(
            workload=workload, seed=seed, fwd_clips=fwd_clips, train_clips=train_clips,
            traced_train_clips_per_s=statistics.median(train_rates),
            traced_infer_clips_per_s=statistics.median(infer_rates),
            phases=phases))
    return out
