"""Model assembly: config, init, variant structure, training step, checkpoints."""

import math

import numpy as np
import pytest

from patchshift.errors import ContractError, ShapeError
from patchshift.model import (
    CHECKPOINT_FORMAT,
    INIT_STD,
    TAPE_SITES,
    VARIANTS,
    Model,
    ModelConfig,
    encoder_block,
    evaluate,
    load_checkpoint,
    pack_params,
    save_checkpoint,
    train_step,
    tubelet_embed,
    unpack_params,
)
from patchshift.tensor import Tape, Tensor, cross_entropy, reshape

TINY = dict(depth=2, dim=16, heads=2, window=(2, 2), pattern="bayerA",
            classes=2, frames=4, height=8, width=8, tubelet_t=1, tubelet_s=4)


def tiny_config(**overrides):
    kw = dict(TINY)
    kw.update(overrides)
    return ModelConfig(**kw)


def random_video(rng, config):
    return Tensor(rng.random((config.frames, config.height, config.width, 3)))


class TestModelConfig:
    def test_token_extents(self):
        cfg = ModelConfig(frames=8, height=16, width=16, tubelet_t=2, tubelet_s=4)
        assert cfg.token_extents() == (4, 4, 4)
        assert cfg.token_dim_in() == 3 * 2 * 16

    def test_tubelet_must_tile_video(self):
        with pytest.raises(ShapeError):
            ModelConfig(frames=8, tubelet_t=3).token_extents()
        with pytest.raises(ShapeError):
            ModelConfig(height=10, tubelet_s=4).token_extents()

    def test_variant_and_heads_validation(self):
        with pytest.raises(ContractError):
            ModelConfig(variant="dense")
        with pytest.raises(ShapeError):
            ModelConfig(dim=16, heads=3)
        for heads in (0, -2):
            with pytest.raises(ContractError, match="must be positive"):
                ModelConfig(dim=16, heads=heads)

    @pytest.mark.parametrize("window", [
        (2,), (2, 2, 2), (0, 2), (2, -1), (2.0, 2), (True, 2), 2, "22",
    ])
    def test_window_must_be_two_positive_ints(self, window):
        with pytest.raises(ShapeError, match="window must be two positive ints"):
            tiny_config(window=window)

    def test_window_list_becomes_tuple(self):
        assert tiny_config(window=[2, np.int64(2)]).window == (2, 2)

    @pytest.mark.parametrize("variant,depth,expected", [
        ("avgpool", 2, ("none", "none")),
        ("avgpool", 4, ("none", "none", "none", "none")),
        ("patch_only", 2, ("tps", "none")),
        ("channel_only", 2, ("tcs", "none")),
        ("combined", 2, ("tps", "none")),
        ("combined", 4, ("tps", "none", "tcs", "none")),
        ("combined", 8, ("tps", "none", "tcs", "none", "tps", "none", "tcs", "none")),
        ("patch_only", 5, ("tps", "none", "tps", "none", "tps")),
    ])
    def test_block_modes(self, variant, depth, expected):
        cfg = tiny_config(variant=variant, depth=depth)
        assert cfg.block_modes() == expected


class TestInit:
    def test_window_must_divide_token_grid(self):
        with pytest.raises(ShapeError):
            Model.init(tiny_config(window=(3, 3), pattern="C9"), seed=0)

    def test_pattern_must_tile_window(self):
        with pytest.raises(ShapeError):
            Model.init(tiny_config(pattern="C9"), seed=0)

    def test_unknown_pattern(self):
        with pytest.raises(ContractError):
            Model.init(tiny_config(pattern="no-such-pattern"), seed=0)

    def test_parameter_shapes(self):
        cfg = tiny_config()
        m = Model.init(cfg, seed=0)
        d = cfg.dim
        assert m.params["embed.w"].shape == (d, cfg.token_dim_in())
        assert m.params["embed.pos"].shape == (2, 2, d)
        assert m.params["block0.attn.wq"].shape == (d, d)
        # 4 frames at tubelet_t=1 and a 2x2 window
        assert m.params["block0.attn.bias"].shape == (2, 7, 3, 3)
        assert m.params["block0.ffn.w1"].shape == (4 * d, d)
        assert m.params["head.w"].shape == (cfg.classes, d)

    def test_weights_truncated_and_zeros_zero(self):
        m = Model.init(tiny_config(), seed=3)
        assert np.abs(m.params["embed.w"].data).max() <= 2 * INIT_STD
        assert np.abs(m.params["block1.ffn.w1"].data).max() <= 2 * INIT_STD
        assert not m.params["block0.attn.bias"].data.any()
        assert not m.params["embed.b"].data.any()
        assert (m.params["block0.ln1.g"].data == 1.0).all()

    def test_seed_determinism(self):
        a = Model.init(tiny_config(), seed=5)
        b = Model.init(tiny_config(), seed=5)
        c = Model.init(tiny_config(), seed=6)
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)
        assert not np.array_equal(a.params["embed.w"].data, c.params["embed.w"].data)

    def test_param_count_identical_across_variants(self):
        counts = {v: Model.init(tiny_config(variant=v), seed=0).param_count()
                  for v in VARIANTS}
        assert len(set(counts.values())) == 1


class TestZeroHead:
    def test_untrained_logits_are_zero(self):
        rng = np.random.default_rng(0)
        cfg = tiny_config()
        m = Model.init(cfg, seed=1)
        logits = m.logits(None, random_video(rng, cfg))
        assert np.array_equal(logits.data, np.zeros(cfg.classes))

    @pytest.mark.parametrize("classes", [2, 4])
    def test_initial_loss_is_log_classes(self, classes):
        rng = np.random.default_rng(1)
        cfg = tiny_config(classes=classes)
        m = Model.init(cfg, seed=1)
        video = random_video(rng, cfg)
        loss = train_step(m, [(video, 0)], lr=0.0)
        np.testing.assert_allclose(loss, math.log(classes), atol=1e-12)

    def test_first_step_moves_only_the_head(self):
        rng = np.random.default_rng(2)
        cfg = tiny_config()
        m = Model.init(cfg, seed=1)
        before = {k: t.data.copy() for k, t in m.params.items()}
        train_step(m, [(random_video(rng, cfg), 1)], lr=0.1)
        assert not np.array_equal(m.params["head.w"].data, before["head.w"])
        # With a zero head, nothing upstream receives gradient on step one.
        assert np.array_equal(m.params["embed.w"].data, before["embed.w"])
        assert np.array_equal(m.params["block0.attn.wq"].data, before["block0.attn.wq"])


class TestForwardStructure:
    def test_avgpool_invariant_to_frame_permutation(self):
        rng = np.random.default_rng(3)
        cfg = tiny_config(variant="avgpool")
        m = Model.init(cfg, seed=2)
        m.params["head.w"] = Tensor(rng.normal(size=(cfg.classes, cfg.dim)))
        video = rng.random((cfg.frames, cfg.height, cfg.width, 3))
        base = m.logits(None, Tensor(video)).data
        for perm in ([3, 2, 1, 0], [1, 0, 3, 2], [2, 3, 0, 1]):
            out = m.logits(None, Tensor(video[perm])).data
            np.testing.assert_allclose(out, base, atol=1e-12)

    def test_patch_shift_variant_sees_frame_order(self):
        rng = np.random.default_rng(4)
        cfg = tiny_config(variant="patch_only")
        m = Model.init(cfg, seed=2)
        m.params["head.w"] = Tensor(rng.normal(size=(cfg.classes, cfg.dim)))
        video = rng.random((cfg.frames, cfg.height, cfg.width, 3))
        fwd = m.logits(None, Tensor(video)).data
        rev = m.logits(None, Tensor(video[::-1].copy())).data
        assert np.abs(fwd - rev).max() > 1e-9

    def test_combined_equals_patch_only_at_depth_two(self):
        rng = np.random.default_rng(5)
        video = Tensor(rng.random((4, 8, 8, 3)))
        a = Model.init(tiny_config(variant="combined"), seed=7)
        b = Model.init(tiny_config(variant="patch_only"), seed=7)
        assert np.array_equal(a.logits(None, video).data, b.logits(None, video).data)

    def test_none_pattern_collapses_variants(self):
        rng = np.random.default_rng(6)
        video = Tensor(rng.random((4, 8, 8, 3)))
        a = Model.init(tiny_config(variant="patch_only", pattern="none"), seed=8)
        b = Model.init(tiny_config(variant="avgpool", pattern="none"), seed=8)
        assert np.array_equal(a.logits(None, video).data, b.logits(None, video).data)

    def test_zero_weight_block_is_identity(self):
        rng = np.random.default_rng(7)
        cfg = tiny_config()
        m = Model.init(cfg, seed=3)
        for w in ("attn.wq", "attn.wk", "attn.wv", "attn.wo", "ffn.w1", "ffn.w2"):
            m.params[f"block1.{w}"] = Tensor(np.zeros(m.params[f"block1.{w}"].shape))
        z = Tensor(rng.normal(size=(4, 2, 2, cfg.dim)))
        out = encoder_block(None, m, 1, z, "none")
        np.testing.assert_allclose(out.data, z.data, atol=0)

    def test_channel_shift_block_differs_from_plain(self):
        rng = np.random.default_rng(8)
        cfg = tiny_config(variant="channel_only")
        m = Model.init(cfg, seed=4)
        z = Tensor(rng.normal(size=(4, 2, 2, cfg.dim)))
        tcs = encoder_block(None, m, 0, z, "tcs")
        plain = encoder_block(None, m, 0, z, "none")
        assert np.abs(tcs.data - plain.data).max() > 1e-9

    def test_unknown_block_mode(self):
        m = Model.init(tiny_config(), seed=0)
        z = Tensor(np.zeros((4, 2, 2, 16)))
        with pytest.raises(ContractError):
            encoder_block(None, m, 0, z, "flip")

    def test_embedding_rejects_wrong_video_shape(self):
        cfg = tiny_config()
        m = Model.init(cfg, seed=0)
        with pytest.raises(ShapeError):
            tubelet_embed(None, cfg, m.params, Tensor(np.zeros((4, 8, 8, 1))))

    def test_tubelet_embedding_folds_pixels(self):
        # With identity-like embed weights the token must collect exactly the
        # pixels of its own tubelet.
        cfg = tiny_config(dim=48, heads=2, tubelet_s=4)
        m = Model.init(cfg, seed=0)
        m.params["embed.w"] = Tensor(np.eye(48))
        m.params["embed.pos"] = Tensor(np.zeros((2, 2, 48)))
        rng = np.random.default_rng(9)
        video = rng.random((4, 8, 8, 3))
        z = tubelet_embed(None, cfg, m.params, Tensor(video))
        expect = video[1, 0:4, 4:8, :].reshape(48)
        np.testing.assert_allclose(z.data[1, 0, 1], expect, atol=0)


class TestTraining:
    def test_zero_lr_keeps_params_bit_exact(self):
        rng = np.random.default_rng(10)
        cfg = tiny_config()
        m = Model.init(cfg, seed=5)
        before = {k: t.data.copy() for k, t in m.params.items()}
        train_step(m, [(random_video(rng, cfg), 0)], lr=0.0)
        for name, arr in before.items():
            assert np.array_equal(m.params[name].data, arr), name

    def test_loss_decreases_from_uniform(self):
        rng = np.random.default_rng(11)
        cfg = tiny_config()
        m = Model.init(cfg, seed=5)
        batch = [(random_video(rng, cfg), 0), (random_video(rng, cfg), 0)]
        first = train_step(m, batch, lr=0.2)
        np.testing.assert_allclose(first, math.log(2), atol=1e-12)
        second = train_step(m, batch, lr=0.2)
        assert second < first - 1e-3

    def test_single_sample_overfits(self):
        rng = np.random.default_rng(12)
        cfg = tiny_config(variant="patch_only")
        m = Model.init(cfg, seed=6)
        sample = (random_video(rng, cfg), 1)
        loss = math.inf
        velocity = {}
        for _ in range(500):
            loss = train_step(m, [sample], lr=0.2, momentum=0.9, velocity=velocity)
            if loss < 0.01:
                break
        assert loss < 0.01
        assert evaluate(m, [sample]) == 1.0

    def test_momentum_velocity_is_accumulated(self):
        rng = np.random.default_rng(13)
        cfg = tiny_config()
        m = Model.init(cfg, seed=7)
        velocity = {}
        train_step(m, [(random_video(rng, cfg), 0)], lr=0.1, momentum=0.9,
                   velocity=velocity)
        assert set(velocity) == set(m.params)
        head_v = velocity["head.w"].copy()
        train_step(m, [(random_video(rng, cfg), 1)], lr=0.1, momentum=0.9,
                   velocity=velocity)
        assert not np.array_equal(velocity["head.w"], head_v)

    def test_empty_batch_rejected(self):
        m = Model.init(tiny_config(), seed=0)
        with pytest.raises(ContractError):
            train_step(m, [], lr=0.1)
        with pytest.raises(ContractError):
            evaluate(m, [])

    def test_evaluate_is_chance_at_init_on_balanced_pairs(self):
        rng = np.random.default_rng(14)
        cfg = tiny_config()
        m = Model.init(cfg, seed=8)
        pairs = [(random_video(rng, cfg), 0), (random_video(rng, cfg), 1)]
        assert evaluate(m, pairs) == 0.5

    @pytest.mark.parametrize("label", [-1, 2, 7])
    def test_evaluate_rejects_out_of_range_label(self, label):
        rng = np.random.default_rng(14)
        cfg = tiny_config()
        m = Model.init(cfg, seed=8)
        with pytest.raises(ContractError, match="label out of range"):
            evaluate(m, [(random_video(rng, cfg), 0), (random_video(rng, cfg), label)])


class TestPackUnpack:
    def test_round_trip(self):
        m = Model.init(tiny_config(), seed=9)
        vec, layout = pack_params(m.params)
        assert vec.shape == (m.param_count(),)
        restored = unpack_params(None, vec, layout)
        assert list(restored) == list(m.params)
        for name in m.params:
            assert np.array_equal(restored[name].data, m.params[name].data), name

    def test_unpack_is_differentiable(self):
        m = Model.init(tiny_config(), seed=9)
        vec, layout = pack_params(m.params)
        tape = Tape()
        restored = unpack_params(tape, vec, layout)
        from patchshift.tensor import mean
        total = restored["embed.w"]
        loss = mean(tape, total, tuple(range(total.ndim)))
        grads = tape.backward(loss)
        g = grads[vec]
        _, shape, offset = next(e for e in layout if e[0] == "embed.w")
        size = int(np.prod(shape))
        assert np.allclose(g[offset:offset + size], 1.0 / size)
        assert np.allclose(np.delete(g, np.arange(offset, offset + size)), 0.0)


class TestCheckpoint:
    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        cfg = tiny_config(variant="channel_only")
        m = Model.init(cfg, seed=10)
        video = random_video(rng, cfg)
        train_step(m, [(video, 1)], lr=0.1)

        path = tmp_path / "model.ckpt"
        save_checkpoint(path, m)
        loaded = load_checkpoint(path)

        assert loaded.config == cfg
        assert isinstance(loaded.config.window, tuple)
        assert loaded.pattern.name == m.pattern.name
        assert np.array_equal(loaded.pattern.offsets, m.pattern.offsets)
        for name in m.params:
            assert np.array_equal(loaded.params[name].data, m.params[name].data), name
        assert np.array_equal(loaded.logits(None, video).data,
                              m.logits(None, video).data)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b'{"format": "something-else"}\n')
        with pytest.raises(ContractError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_header_names_format(self, tmp_path):
        m = Model.init(tiny_config(), seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, m)
        import json
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        assert header["format"] == CHECKPOINT_FORMAT
        assert header["pattern"]["name"] == "bayerA"

    @pytest.mark.parametrize("cut", [1, 8, 200])
    def test_rejects_truncated_blob(self, tmp_path, cut):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, Model.init(tiny_config(), seed=0))
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ContractError, match="blob holds"):
            load_checkpoint(path)

    def test_rejects_trailing_bytes(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, Model.init(tiny_config(), seed=0))
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(ContractError, match="tensor directory covers"):
            load_checkpoint(path)

    def _corrupt(self, tmp_path, edit):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, Model.init(tiny_config(), seed=0))
        line, blob = path.read_bytes().split(b"\n", 1)
        import json
        header = json.loads(line)
        edit(header)
        path.write_bytes(json.dumps(header).encode() + b"\n" + blob)
        return path

    def test_rejects_unknown_config_key(self, tmp_path):
        path = self._corrupt(tmp_path, lambda h: h["config"].update(dropout=0.1))
        with pytest.raises(ContractError, match="unknown keys \\['dropout'\\]"):
            load_checkpoint(path)

    def test_rejects_missing_config_key(self, tmp_path):
        path = self._corrupt(tmp_path, lambda h: h["config"].pop("heads"))
        with pytest.raises(ContractError, match="missing keys \\['heads'\\]"):
            load_checkpoint(path)

    @pytest.mark.parametrize("window", [[2], 2, [2, 0]])
    def test_rejects_bad_window(self, tmp_path, window):
        path = self._corrupt(tmp_path, lambda h: h["config"].update(window=window))
        with pytest.raises(ContractError, match="window must be two positive ints"):
            load_checkpoint(path)

    def test_rejects_renamed_tensor(self, tmp_path):
        path = self._corrupt(tmp_path, lambda h: h["tensors"][0].update(name="embed.weight"))
        with pytest.raises(ContractError, match="embed.weight"):
            load_checkpoint(path)

    def test_rejects_reshaped_tensor(self, tmp_path):
        # Same element count, different shape: the blob still lines up.
        def edit(h):
            entry = next(e for e in h["tensors"] if e["name"] == "block0.attn.wq")
            entry["shape"] = [8, 32]
        path = self._corrupt(tmp_path, edit)
        with pytest.raises(ContractError, match="'block0.attn.wq' has shape"):
            load_checkpoint(path)

    def test_rejects_edited_pattern_grid(self, tmp_path):
        path = self._corrupt(tmp_path, lambda h: h["pattern"].update(grid=[[0, 1], [1, 0]]))
        with pytest.raises(ContractError, match="does not match its stored hash"):
            load_checkpoint(path)

    def test_params_follow_init_order(self, tmp_path):
        m = Model.init(tiny_config(), seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, m)
        assert list(load_checkpoint(path).params) == list(m.params)


def trained_like(cfg, seed):
    """A model whose every parameter gets a gradient: non-zero head and biases."""
    m = Model.init(cfg, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for name in ("head.w", "head.b") + tuple(
        f"block{i}.attn.bias" for i in range(cfg.depth)
    ):
        m.params[name] = Tensor(rng.normal(size=m.params[name].shape))
    return m


class TestClipBatch:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_stacked_logits_match_per_clip(self, variant):
        rng = np.random.default_rng(20)
        cfg = tiny_config(variant=variant, classes=3)
        m = trained_like(cfg, seed=11)
        videos = rng.random((5, cfg.frames, cfg.height, cfg.width, 3))
        stacked = m.logits(None, Tensor(videos)).data
        assert stacked.shape == (5, cfg.classes)
        for i, video in enumerate(videos):
            one = m.logits(None, Tensor(video)).data
            assert one.shape == (cfg.classes,)
            assert np.abs(stacked[i] - one).max() <= 1e-12 * np.abs(one).max()

    def test_two_clip_axes(self):
        rng = np.random.default_rng(21)
        cfg = tiny_config()
        m = trained_like(cfg, seed=12)
        videos = rng.random((2, 3, cfg.frames, cfg.height, cfg.width, 3))
        got = m.logits(None, Tensor(videos)).data
        flat = m.logits(None, Tensor(videos.reshape(6, *videos.shape[2:]))).data
        np.testing.assert_array_equal(got.reshape(6, -1), flat)

    def test_tubelet_embed_stacks_clips(self):
        rng = np.random.default_rng(22)
        cfg = tiny_config(tubelet_t=2)
        m = Model.init(cfg, seed=0)
        videos = rng.random((3, cfg.frames, cfg.height, cfg.width, 3))
        z = tubelet_embed(None, cfg, m.params, Tensor(videos))
        for i in range(3):
            one = tubelet_embed(None, cfg, m.params, Tensor(videos[i]))
            np.testing.assert_array_equal(z.data[i], one.data)

    def test_chunked_gradient_is_mean_of_per_clip_gradients(self):
        # 16 token sites per clip, so a chunk holds 4 clips and a batch of 7
        # runs as chunks of 4 and 3.
        cfg = tiny_config(variant="combined", depth=3, classes=3)
        t_len, gh, gw = cfg.token_extents()
        assert TAPE_SITES // (t_len * gh * gw) == 4
        rng = np.random.default_rng(23)
        m = trained_like(cfg, seed=13)
        batch = [(rng.random((cfg.frames, cfg.height, cfg.width, 3)), i % 3) for i in range(7)]

        expected = {name: np.zeros(t.shape) for name, t in m.params.items()}
        losses = []
        for video, label in batch:
            tape = Tape()
            logits = m.logits(tape, Tensor(video))
            loss = cross_entropy(tape, reshape(tape, logits, (1, cfg.classes)), [label])
            grads = tape.backward(loss)
            for name, t in m.params.items():
                expected[name] += grads[t] / len(batch)
            losses.append(loss.item())

        velocity = {}  # after one step it holds the step's mean gradient
        loss = train_step(m, batch, lr=0.0, velocity=velocity)
        assert abs(loss - np.mean(losses)) <= 1e-12 * abs(np.mean(losses))
        for name, g in expected.items():
            assert np.abs(g).max() > 0, name
            assert np.abs(velocity[name] - g).max() <= 1e-12 * np.abs(g).max(), name

    def test_evaluate_matches_per_clip_argmax(self):
        rng = np.random.default_rng(24)
        cfg = tiny_config(classes=3)
        m = trained_like(cfg, seed=14)
        samples = [(rng.random((cfg.frames, cfg.height, cfg.width, 3)), i % 3) for i in range(9)]
        hits = sum(int(np.argmax(m.logits(None, Tensor(v)).data) == y) for v, y in samples)
        assert evaluate(m, samples) == hits / len(samples)

    def test_mismatched_clip_shape_is_shape_error(self):
        rng = np.random.default_rng(25)
        cfg = tiny_config()
        m = Model.init(cfg, seed=0)
        batch = [(random_video(rng, cfg), 0), (Tensor(np.zeros((4, 8, 4, 3))), 1)]
        with pytest.raises(ShapeError):
            train_step(m, batch, lr=0.1)
        with pytest.raises(ShapeError):
            evaluate(m, batch)
