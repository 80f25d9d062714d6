"""Each benchmark check passes on the program's outputs and fails on a perturbed copy.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from dataclasses import replace

import numpy as np
import pytest

from patchshift import data, oracle, shifts
from patchshift import model as pm
from patchshift.tensor import Tensor

from perfbench import checks as ck
from perfbench.reference import block_mode, reference_logits
from perfbench.trace import Tracer

CONFIG = pm.ModelConfig(depth=3, dim=8, heads=2, window=(2, 2), pattern="bayerA",
                        variant="combined", classes=2, frames=4, height=8, width=8,
                        tubelet_t=1, tubelet_s=4)
TASK = data.TaskSpec(task="reversal2", frames=4, height=8, width=8, train_count=4, val_count=4)


def _perturbed(model, name, delta=1e-3):
    """A copy of the model with one entry of one parameter moved by delta."""
    params = dict(model.params)
    moved = params[name].data.copy()
    moved.flat[0] += delta
    params[name] = Tensor(moved)
    return pm.Model(model.config, params, model.pattern)


@pytest.fixture(scope="module")
def samples():
    train, val = data.split_dataset(TASK, data.gen_dataset(TASK, 3))
    return [(s.video, s.label) for s in train], [(s.video, s.label) for s in val]


def _scored(config):
    """A model with non-zero head and bias tables, so every term shows in the logits."""
    net = pm.Model.init(config, 5)
    rng = np.random.default_rng(7)
    params = dict(net.params)
    for name in params:
        if name.startswith("head.") or name.endswith("attn.bias"):
            params[name] = Tensor(rng.normal(0.0, 1.0, params[name].shape))
    return pm.Model(config, params, net.pattern)


@pytest.fixture(scope="module")
def scored():
    return _scored(CONFIG)


def test_first_loss(samples):
    train, _ = samples
    net = pm.Model.init(CONFIG, 1)
    assert ck.first_loss(pm.train_step(net, train, 0.1), CONFIG.classes).ok
    bad = _perturbed(pm.Model.init(CONFIG, 1), "head.w")
    assert not ck.first_loss(pm.train_step(bad, train, 0.1), CONFIG.classes).ok


def test_update_direction(scored, samples):
    train, _ = samples
    net = pm.Model(CONFIG, dict(scored.params), scored.pattern)
    before = dict(net.params)
    pm.train_step(net, train, 0.5, momentum=0.9, velocity={})
    rng = np.random.default_rng(0)
    direction = {n: rng.normal(size=t.shape) for n, t in before.items()}
    assert ck.update_direction(net, before, net.params, 0.5, train, direction).ok
    # One tensor's update 1 % too large, as a slightly wrong gradient would make it.
    name = "block2.ffn.w1"
    bad = dict(net.params)
    bad[name] = Tensor(bad[name].data - 0.01 * (before[name].data - bad[name].data))
    assert not ck.update_direction(net, before, bad, 0.5, train, direction).ok


@pytest.mark.parametrize("variant", pm.VARIANTS)
def test_reference_forward(samples, variant):
    _, val = samples
    net = _scored(replace(CONFIG, variant=variant))
    videos = [v for v, _ in val[:2]]
    logits = [net.logits(None, Tensor(v)).data for v in videos]
    assert ck.reference_forward(net, videos, logits)[0].ok
    bad = _perturbed(net, "block0.attn.wq")
    assert not ck.reference_forward(bad, videos, logits)[0].ok


def test_hit_count(scored, samples):
    _, val = samples
    picked = [(v, y) for v, y in val if y == 0]
    refs = [reference_logits(scored, v) for v, _ in picked]
    labels = [0] * len(picked)
    hits = round(pm.evaluate(scored, picked) * len(picked))
    assert ck.hit_count(refs, labels, hits).ok
    # A head bias that forces one class moves the reference count off hits.
    forced = 1 if hits == len(picked) else 0
    params = dict(scored.params)
    params["head.b"] = Tensor(np.where(np.arange(CONFIG.classes) == forced, 100.0, -100.0))
    bad = pm.Model(CONFIG, params, scored.pattern)
    assert not ck.hit_count([reference_logits(bad, v) for v, _ in picked], labels, hits).ok


def test_patch_shift_roundtrip(scored):
    tokens = Tensor(np.random.default_rng(1).normal(size=(4, 2, 2, CONFIG.dim)))
    grid = ck.shift_grid(scored)
    shifted = shifts.patch_shift(None, tokens, grid, shifts.ShiftDirection.FORWARD)
    assert ck.patch_shift_roundtrip(tokens, shifted, grid).ok
    bad = grid.copy()
    bad[0, 1] += 1
    assert not ck.patch_shift_roundtrip(tokens, shifted, bad).ok


def test_channel_shift_roundtrip():
    tokens = Tensor(np.random.default_rng(1).normal(size=(4, 2, 2, CONFIG.dim)))
    shifted = shifts.channel_shift(None, tokens, 0.25, shifts.ShiftDirection.FORWARD)
    assert ck.channel_shift_roundtrip(tokens, shifted, 0.25).ok
    assert not ck.channel_shift_roundtrip(tokens, shifted, 0.5).ok


def test_checkpoint_roundtrip(scored, samples, tmp_path):
    _, val = samples
    pm.save_checkpoint(tmp_path / "m.ckpt", scored)
    loaded = pm.load_checkpoint(tmp_path / "m.ckpt")
    videos = [v for v, _ in val]
    before = [scored.logits(None, Tensor(v)).data for v in videos]
    assert ck.checkpoint_roundtrip(before, [loaded.logits(None, Tensor(v)).data for v in videos]).ok
    bad = _perturbed(loaded, "block1.ffn.b2", 1e-12)
    assert not ck.checkpoint_roundtrip(before, [bad.logits(None, Tensor(v)).data for v in videos]).ok


def test_macs(scored, samples):
    _, val = samples
    profile = oracle.mac_profile(lambda tape: scored.logits(tape, Tensor(val[0][0])))
    assert ck.macs(CONFIG, profile).ok
    assert not ck.macs(replace(CONFIG, dim=16, heads=2), profile).ok


def test_score_elements_and_trace(scored, samples):
    _, val = samples
    tracer = Tracer()
    tracer.install()
    try:
        pm.evaluate(scored, val[:1])
    finally:
        tracer.uninstall()
    phase = tracer.take()
    per_clip = phase["counts"]["attention.score_elements"]
    assert ck.score_elements(CONFIG, per_clip).ok
    assert not ck.score_elements(replace(CONFIG, depth=2), per_clip).ok
    totals = phase["totals"]
    root = totals["model.evaluate"]
    assert root[0] == 1
    # Self times of all spans add up to the root span's duration.
    assert sum(t[1] for t in totals.values()) == pytest.approx(root[2], rel=1e-9)
    assert totals["model.encoder_block.tps"][0] == 1
    assert totals["model.encoder_block.tcs"][0] == 1
    assert totals["attention.window_mhsa"][0] == CONFIG.depth * 4  # 4 frames x 1 window


def test_tracer_uninstall_restores_originals():
    from patchshift import attention, tensor

    originals = (tensor.gather, attention.gather, tensor.Tape.emit, pm.patch_shift_attention)
    tracer = Tracer()
    tracer.install()
    assert attention.gather is not originals[1] and shifts.gather is attention.gather
    tracer.uninstall()
    assert (tensor.gather, attention.gather, tensor.Tape.emit, pm.patch_shift_attention) == originals


def test_block_modes_derived_independently():
    for variant in pm.VARIANTS:
        cfg = replace(CONFIG, variant=variant, depth=6)
        assert tuple(block_mode(variant, i) for i in range(6)) == cfg.block_modes()


def test_run_prints_the_metrics_benchmark_json_names():
    import json
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    spec = json.loads((root / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "crit6", "--seed", "0",
             "--seconds", "1", "--trace", str(trace)],
            cwd=root, capture_output=True, text=True, timeout=170, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert {m["name"]: m["unit"] for m in spec[key]} == {
            name: m["unit"] for name, m in result["metrics"].items()}


def test_run_lists_every_workload():
    from perfbench.run import WORKLOAD_NAMES
    from perfbench.workloads import WORKLOADS

    assert WORKLOAD_NAMES == tuple(WORKLOADS)
