"""Windowed attention: bias indexing, naive-loop equality, shift integration."""

import math

import numpy as np
import pytest

from patchshift import attention
from patchshift.attention import (
    AttentionParams,
    WindowLayout,
    patch_shift_attention,
    relpos_index,
    window_mhsa,
)
from patchshift.errors import ContractError, ShapeError
from patchshift.model import Model, ModelConfig, encoder_block
from patchshift.oracle import oracle_attention
from patchshift.patterns import ShiftPattern, build_pattern
from patchshift.shifts import ShiftDirection, channel_shift, shifted_channels
from patchshift.tensor import Tape, Tensor, gelu, mean


def make_params(rng, dim, heads, t_max, layout, bias_scale=0.5):
    def w():
        return Tensor(rng.normal(scale=0.3, size=(dim, dim)))

    table = rng.normal(
        scale=bias_scale,
        size=(heads, 2 * t_max - 1, 2 * layout.height - 1, 2 * layout.width - 1),
    )
    return AttentionParams(heads=heads, w_q=w(), w_k=w(), w_v=w(), w_out=w(),
                           bias_table=Tensor(table))


class TestWindowLayout:
    def test_tokens(self):
        assert WindowLayout(2, 3).tokens == 6

    def test_divides(self):
        WindowLayout(2, 2).check_divides(4, 6)
        with pytest.raises(ShapeError):
            WindowLayout(2, 2).check_divides(5, 4)

    def test_positive_extents(self):
        with pytest.raises(ShapeError):
            WindowLayout(0, 2)


class TestAttentionParams:
    def test_validation(self):
        rng = np.random.default_rng(0)
        p = make_params(rng, 8, 2, 4, WindowLayout(2, 2))
        assert p.dim == 8 and p.head_dim == 4 and p.t_max == 4
        with pytest.raises(ShapeError):
            AttentionParams(heads=3, w_q=p.w_q, w_k=p.w_k, w_v=p.w_v,
                            w_out=p.w_out, bias_table=p.bias_table)
        with pytest.raises(ShapeError):
            AttentionParams(heads=2, w_q=Tensor(np.zeros((8, 4))), w_k=p.w_k,
                            w_v=p.w_v, w_out=p.w_out, bias_table=p.bias_table)

    def test_bias_table_extents_must_be_odd(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ShapeError):
            AttentionParams(
                heads=1,
                w_q=Tensor(np.eye(4)), w_k=Tensor(np.eye(4)),
                w_v=Tensor(np.eye(4)), w_out=Tensor(np.eye(4)),
                bias_table=Tensor(rng.normal(size=(1, 4, 3, 3))),
            )


class TestRelposIndex:
    def test_spatial_only_window(self):
        # 1x2 window, both tokens from frame 0, t_max=1: table is (1,1,3);
        # indices reduce to dc + 1.
        layout = WindowLayout(1, 2)
        idx = relpos_index(layout, np.zeros((1, 2), dtype=int), t_max=1)
        np.testing.assert_array_equal(idx, [[1, 2], [0, 1]])

    def test_bayer_window_hand_enumeration(self):
        # 2x2 window, sources from bayerA at host t=1 with T=4:
        # tokens row-major = [(1,0,0), (0,0,1), (2,1,0), (1,1,1)].
        layout = WindowLayout(2, 2)
        src = np.array([[1, 0], [2, 1]])
        t_max = 4
        idx = relpos_index(layout, src, t_max)
        coords = [(1, 0, 0), (0, 0, 1), (2, 1, 0), (1, 1, 1)]

        def flat(dt, dr, dc):
            return ((dt + 3) * 3 + (dr + 1)) * 3 + (dc + 1)

        for a in range(4):
            for b in range(4):
                dt = coords[b][0] - coords[a][0]
                dr = coords[b][1] - coords[a][1]
                dc = coords[b][2] - coords[a][2]
                assert idx[a, b] == flat(dt, dr, dc), (a, b)

    def test_diagonal_is_zero_displacement(self):
        layout = WindowLayout(2, 2)
        idx = relpos_index(layout, np.zeros((2, 2), dtype=int), t_max=3)
        center = ((0 + 2) * 3 + 1) * 3 + 1
        np.testing.assert_array_equal(np.diag(idx), np.full(4, center))

    def test_source_frames_out_of_range(self):
        layout = WindowLayout(1, 2)
        with pytest.raises(ContractError):
            relpos_index(layout, np.array([[0, 5]]), t_max=3)

    def test_wrong_count(self):
        with pytest.raises(ShapeError):
            relpos_index(WindowLayout(2, 2), np.zeros((1, 2), dtype=int), t_max=2)
        with pytest.raises(ShapeError):  # stacked, but the window is 2x1
            relpos_index(WindowLayout(2, 2), np.zeros((3, 2, 2, 1), dtype=int), t_max=2)

    def test_stacked_windows_match_single_calls(self):
        layout = WindowLayout(2, 3)
        src = np.random.default_rng(12).integers(0, 4, size=(3, 2, 2, 3))
        idx = relpos_index(layout, src, t_max=4)
        assert idx.shape == (3, 2, 6, 6)
        for t in range(3):
            for w in range(2):
                np.testing.assert_array_equal(idx[t, w], relpos_index(layout, src[t, w], 4))
        with pytest.raises(ContractError):
            relpos_index(layout, src + 1, t_max=4)


class TestWindowMHSA:
    def test_single_token_window(self):
        # Softmax over one key is exactly 1: output = x Wv Wo for any bias.
        rng = np.random.default_rng(2)
        layout = WindowLayout(1, 1)
        p = make_params(rng, 6, 2, 3, layout)
        x = Tensor(rng.normal(size=(1, 6)))
        idx = relpos_index(layout, np.array([[1]]), 3)
        out = window_mhsa(None, x, p, idx)
        expected = x.data @ p.w_v.data @ p.w_out.data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_matches_naive_loop(self, heads):
        rng = np.random.default_rng(3)
        layout = WindowLayout(2, 2)
        dim = 8
        p = make_params(rng, dim, heads, 4, layout)
        x = Tensor(rng.normal(size=(4, dim)))
        src = np.array([[0, 3], [1, 0]])
        idx = relpos_index(layout, src, 4)
        got = window_mhsa(None, x, p, idx)

        hd = dim // heads
        table = p.bias_table.data.reshape(heads, -1)
        q = x.data @ p.w_q.data
        k = x.data @ p.w_k.data
        v = x.data @ p.w_v.data
        out = np.zeros((4, dim))
        for h in range(heads):
            sl = slice(h * hd, (h + 1) * hd)
            for a in range(4):
                scores = np.array([
                    q[a, sl] @ k[b, sl] / math.sqrt(hd) + table[h, idx[a, b]]
                    for b in range(4)
                ])
                e = np.exp(scores - scores.max())
                w = e / e.sum()
                out[a, sl] = sum(w[b] * v[b, sl] for b in range(4))
        expected = out @ p.w_out.data
        np.testing.assert_allclose(got.data, expected, atol=1e-12)

    def test_stacked_windows_match_single_calls(self):
        # (T, nW, n, D) tokens with one index map per frame, broadcast over
        # that frame's windows.
        rng = np.random.default_rng(13)
        layout = WindowLayout(2, 2)
        p = make_params(rng, 8, 2, 3, layout)
        x = Tensor(rng.normal(size=(3, 2, 4, 8)))
        src = rng.integers(0, 3, size=(3, 1, 2, 2))
        idx = relpos_index(layout, src, 3)
        got = window_mhsa(None, x, p, idx)
        assert got.shape == x.shape
        for t in range(3):
            for w in range(2):
                one = window_mhsa(None, Tensor(x.data[t, w]), p, idx[t, 0])
                np.testing.assert_allclose(got.data[t, w], one.data, atol=1e-12)

    def test_bias_reweights_attention(self):
        rng = np.random.default_rng(4)
        layout = WindowLayout(2, 1)
        zero = make_params(rng, 4, 1, 2, layout, bias_scale=0.0)
        x = Tensor(rng.normal(size=(2, 4)))
        idx = relpos_index(layout, np.array([[0], [1]]), 2)
        base = window_mhsa(None, x, zero, idx)
        biased = AttentionParams(
            heads=1, w_q=zero.w_q, w_k=zero.w_k, w_v=zero.w_v, w_out=zero.w_out,
            bias_table=Tensor(rng.normal(scale=2.0, size=zero.bias_table.shape)),
        )
        shifted = window_mhsa(None, x, biased, idx)
        assert np.abs(base.data - shifted.data).max() > 1e-6

    def test_rejects_bad_shapes(self):
        rng = np.random.default_rng(5)
        layout = WindowLayout(2, 2)
        p = make_params(rng, 8, 2, 2, layout)
        idx = relpos_index(layout, np.zeros((2, 2), dtype=int), 2)
        with pytest.raises(ShapeError):
            window_mhsa(None, Tensor(np.zeros((4, 6))), p, idx)
        with pytest.raises(ShapeError):
            window_mhsa(None, Tensor(np.zeros((3, 8))), p, idx)
        with pytest.raises(ContractError):
            window_mhsa(None, Tensor(np.zeros((4, 8))), p, np.full((4, 4), 10**6))
        with pytest.raises(ShapeError):  # one index map per window, but 3 vs 2 windows
            window_mhsa(None, Tensor(np.zeros((2, 4, 8))), p, np.stack([idx] * 3))
        with pytest.raises(ShapeError):
            window_mhsa(None, Tensor(np.zeros(8)), p, idx)


class TestPatchShiftAttention:
    def test_none_pattern_equals_per_frame_attention(self):
        rng = np.random.default_rng(6)
        layout = WindowLayout(2, 2)
        p = make_params(rng, 8, 2, 4, layout)
        z = Tensor(rng.normal(size=(3, 2, 2, 8)))
        out = patch_shift_attention(None, z, build_pattern("none"), layout, p)
        idx = relpos_index(layout, np.zeros((2, 2), dtype=int), p.t_max)
        for t in range(3):
            frame = window_mhsa(None, Tensor(z.data[t].reshape(4, 8)), p, idx)
            np.testing.assert_allclose(
                out.data[t], frame.data.reshape(2, 2, 8), atol=1e-12
            )

    def test_shifting_changes_output(self):
        rng = np.random.default_rng(7)
        layout = WindowLayout(2, 2)
        p = make_params(rng, 8, 2, 4, layout)
        z = Tensor(rng.normal(size=(4, 4, 4, 8)))
        a = patch_shift_attention(None, z, build_pattern("none"), layout, p)
        b = patch_shift_attention(None, z, build_pattern("bayerA"), layout, p)
        assert np.abs(a.data - b.data).max() > 1e-6

    def test_frame_roll_equivariance_with_zero_bias(self):
        # With a zero bias table the computation is cyclic in t, so rolling
        # input frames rolls the output frames bit-exactly.  (A nonzero
        # table breaks this at the wrap boundary: displacements are taken
        # between source-frame coordinates, which wrap modulo T.)
        rng = np.random.default_rng(8)
        layout = WindowLayout(2, 2)
        p = make_params(rng, 8, 2, 4, layout, bias_scale=0.0)
        z = rng.normal(size=(4, 4, 4, 8))
        out = patch_shift_attention(None, Tensor(z), build_pattern("bayerA"), layout, p)
        assert out.shape == (4, 4, 4, 8)
        rolled = patch_shift_attention(
            None, Tensor(np.roll(z, 1, axis=0)), build_pattern("bayerA"), layout, p
        )
        assert np.array_equal(rolled.data, np.roll(out.data, 1, axis=0))

    def test_gradient_flows_through_pipeline(self):
        from patchshift.tensor import grad_check, mean

        rng = np.random.default_rng(9)
        layout = WindowLayout(2, 2)
        p = make_params(rng, 6, 2, 3, layout)
        z = Tensor(rng.normal(size=(3, 2, 2, 6)))

        def f(tape, x):
            y = patch_shift_attention(tape, x, build_pattern("bayerA"), layout, p)
            return mean(tape, y, (0, 1, 2, 3))

        assert grad_check(f, z) < 1e-7

    def test_validation_errors(self):
        rng = np.random.default_rng(10)
        layout = WindowLayout(2, 2)
        p = make_params(rng, 8, 2, 4, layout)
        with pytest.raises(ShapeError):  # window does not tile grid
            patch_shift_attention(
                None, Tensor(np.zeros((2, 3, 4, 8))), build_pattern("none"), layout, p
            )
        with pytest.raises(ShapeError):  # pattern does not tile window
            patch_shift_attention(
                None, Tensor(np.zeros((2, 4, 4, 8))), build_pattern("C9"), layout, p
            )
        with pytest.raises(ContractError):  # bias table too small for T
            patch_shift_attention(
                None, Tensor(np.zeros((8, 4, 4, 8))), build_pattern("bayerA"), layout, p
            )
        with pytest.raises(ShapeError):  # dim mismatch
            patch_shift_attention(
                None, Tensor(np.zeros((2, 4, 4, 6))), build_pattern("bayerA"), layout, p
            )

    def test_replay_matches_on_full_pipeline(self):
        rng = np.random.default_rng(11)
        layout = WindowLayout(2, 2)
        p = make_params(rng, 8, 2, 4, layout)
        z = Tensor(rng.normal(size=(3, 4, 4, 8)))
        tape = Tape()
        patch_shift_attention(tape, z, build_pattern("bayerA"), layout, p)
        assert tape.replay_matches()

    def test_tape_length_does_not_grow_with_windows(self):
        # All windows of all frames run as one batch: a 4x4 grid cut into
        # 2x2 windows records as many primitives as one 4x4 window.
        rng = np.random.default_rng(12)
        z = Tensor(rng.normal(size=(3, 4, 4, 8)))
        lengths = []
        for layout in (WindowLayout(4, 4), WindowLayout(2, 2)):
            p = make_params(rng, 8, 2, 3, layout)
            tape = Tape()
            patch_shift_attention(tape, z, build_pattern("bayerA"), layout, p)
            lengths.append(len(tape.records))
        assert lengths[0] == lengths[1]


class TestChannelShiftFold:
    """A channel ratio folds the channel shift into the partition and merge gathers."""

    @staticmethod
    def _value_and_grads(run, z, p):
        tape = Tape()
        out = run(tape, z)
        loss = mean(tape, gelu(tape, out), tuple(range(out.ndim)))
        grads = tape.backward(loss)
        return out.data, [grads[t] for t in (z, p.w_q, p.w_k, p.w_v, p.w_out, p.bias_table)]

    @pytest.mark.parametrize("ratio", [0.25, 0.5])
    def test_equals_channel_shift_around_attention(self, ratio):
        rng = np.random.default_rng(14)
        layout = WindowLayout(2, 2)
        p = make_params(rng, 8, 2, 4, layout)
        z = Tensor(rng.normal(size=(2, 4, 4, 4, 8)))
        none = build_pattern("none")

        def fused(tape, x):
            return patch_shift_attention(tape, x, none, layout, p, ratio)

        def composed(tape, x):
            xs = channel_shift(tape, x, ratio, ShiftDirection.FORWARD)
            att = patch_shift_attention(tape, xs, none, layout, p)
            return channel_shift(tape, att, ratio, ShiftDirection.INVERSE)

        got, got_grads = self._value_and_grads(fused, z, p)
        want, want_grads = self._value_and_grads(composed, z, p)
        assert np.array_equal(got, want)
        for g, w in zip(got_grads, want_grads):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("ratio", [0.25, 0.5])
    def test_matches_oracle_on_channel_rolled_tokens(self, ratio):
        rng = np.random.default_rng(15)
        layout = WindowLayout(2, 2)
        p = make_params(rng, 8, 2, 4, layout)
        z = rng.normal(size=(2, 3, 4, 4, 8))
        m = shifted_channels(8, ratio)
        none = build_pattern("none")

        def roll(x, sign):
            # channels [0, m) come from frame t - sign, [m, 2m) from t + sign
            out = x.copy()
            out[..., :m] = np.roll(x[..., :m], sign, axis=0)
            out[..., m : 2 * m] = np.roll(x[..., m : 2 * m], -sign, axis=0)
            return out

        got = patch_shift_attention(None, Tensor(z), none, layout, p, ratio)
        for clip in range(2):
            att = oracle_attention(Tensor(roll(z[clip], 1)), none, layout, p)
            assert np.abs(got.data[clip] - roll(att, -1)).max() <= 1e-9

    def test_encoder_block_records_alike_for_every_mode(self):
        config = ModelConfig(depth=1, dim=8, heads=2, window=(2, 2), pattern="bayerA",
                             frames=4, height=8, width=8, tubelet_t=1, tubelet_s=2)
        model = Model.init(config, seed=0)
        z = Tensor(np.random.default_rng(16).normal(size=(2, 4, 4, 4, 8)))
        lengths = set()
        for mode in ("tps", "tcs", "none"):
            tape = Tape()
            encoder_block(tape, model, 0, z, mode)
            lengths.add(len(tape.records))
        assert len(lengths) == 1


class TestPlanCache:
    """patch_shift_attention builds its index moves once per geometry."""

    @staticmethod
    def _plan(pattern, layout, z_shape, p, ratio=0.0):
        return attention._plan(pattern.offsets.tobytes(), pattern.offsets.shape, layout,
                               tuple(z_shape[-4:]), ratio, p.t_max)

    def test_second_call_builds_no_index(self, monkeypatch):
        built = []
        real = attention.relpos_index
        monkeypatch.setattr(attention, "relpos_index",
                            lambda *args: built.append(args) or real(*args))
        rng = np.random.default_rng(20)
        layout = WindowLayout(2, 2)
        p = make_params(rng, 8, 2, 4, layout)
        attention._plan.cache_clear()
        for shape in ((3, 4, 4, 8), (2, 3, 4, 4, 8)):
            patch_shift_attention(None, Tensor(rng.normal(size=shape)),
                                  build_pattern("bayerA"), layout, p)
        assert len(built) == 1
        info = attention._plan.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_plan_arrays_are_read_only(self):
        rng = np.random.default_rng(21)
        layout = WindowLayout(2, 2)
        p = make_params(rng, 8, 2, 4, layout)
        for arr in self._plan(build_pattern("bayerA"), layout, (3, 4, 4, 8), p, 0.25):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = 0

    def test_same_name_grids_get_distinct_plans(self):
        rng = np.random.default_rng(22)
        layout = WindowLayout(2, 2)
        p = make_params(rng, 8, 2, 4, layout)
        z = Tensor(rng.normal(size=(4, 4, 4, 8)))
        grids = ([[0, 1], [-1, 0]], [[1, 0], [0, -1]])
        for grid in grids:
            pattern = ShiftPattern("custom", np.array(grid))
            got = patch_shift_attention(None, z, pattern, layout, p)
            assert np.abs(got.data - oracle_attention(z, pattern, layout, p)).max() <= 1e-9
        a, b = (self._plan(ShiftPattern("custom", np.array(g)), layout, z.shape, p)[0]
                for g in grids)
        assert not np.array_equal(a, b)

    def test_channel_ratios_get_distinct_plans(self):
        rng = np.random.default_rng(23)
        layout = WindowLayout(2, 2)
        p = make_params(rng, 8, 2, 4, layout)
        none = build_pattern("none")
        plans = [self._plan(none, layout, (4, 4, 4, 8), p, ratio) for ratio in (0.0, 0.25, 0.5)]
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert not np.array_equal(plans[i][0], plans[j][0])

    def test_one_clip_then_three_clips_match_oracle(self):
        rng = np.random.default_rng(24)
        layout = WindowLayout(2, 2)
        p = make_params(rng, 8, 2, 4, layout)
        pattern = build_pattern("bayerA")
        one = rng.normal(size=(4, 4, 4, 8))
        three = rng.normal(size=(3, 4, 4, 4, 8))
        got = patch_shift_attention(None, Tensor(one), pattern, layout, p)
        assert np.abs(got.data - oracle_attention(Tensor(one), pattern, layout, p)).max() <= 1e-9
        got = patch_shift_attention(None, Tensor(three), pattern, layout, p)
        for clip in range(3):
            want = oracle_attention(Tensor(three[clip]), pattern, layout, p)
            assert np.abs(got.data[clip] - want).max() <= 1e-9


def test_model_logits_calls_window_mhsa_once_per_block(monkeypatch):
    # The benchmark's tracer counts attention scores inside window_mhsa's
    # span, so every block must reach the module-level window_mhsa, once.
    calls = []
    real = attention.window_mhsa

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(attention, "window_mhsa", counting)
    config = ModelConfig(depth=3, dim=8, heads=2, window=(2, 2), pattern="bayerA",
                         variant="combined", frames=4, height=8, width=8,
                         tubelet_t=1, tubelet_s=2)
    model = Model.init(config, seed=0)
    video = Tensor(np.random.default_rng(25).normal(size=(2, 4, 8, 8, 3)))
    model.logits(Tape(), video)
    assert len(calls) == config.depth
