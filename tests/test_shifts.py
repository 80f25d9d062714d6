"""Shift semantics: sources, invertibility, channel groups, selections, adjoints."""

import numpy as np
import pytest

from patchshift.errors import ContractError, ShapeError
from patchshift.patterns import build_pattern, builtin_names, tile_offsets
from patchshift.shifts import (
    ShiftDirection,
    channel_selection,
    channel_shift,
    generic_shift,
    patch_selection,
    patch_shift,
    shifted_channels,
    source_frames,
)
from patchshift.tensor import Tape, Tensor, mean


def distinct_tokens(rng, t, h, w, d):
    """Every element unique, so any misrouted value is detectable."""
    return Tensor(np.arange(t * h * w * d, dtype=np.float64).reshape(t, h, w, d)
                  + rng.uniform(0.0, 0.5))


class TestSourceFrames:
    def test_wraps_modulo_t(self):
        grid = np.array([[1, -1]])
        src = source_frames(grid, 3)
        np.testing.assert_array_equal(src[:, 0, 0], [1, 2, 0])   # +1 mod 3
        np.testing.assert_array_equal(src[:, 0, 1], [2, 0, 1])   # -1 mod 3

    def test_zero_grid_is_identity_map(self):
        src = source_frames(np.zeros((2, 2), dtype=int), 4)
        for t in range(4):
            np.testing.assert_array_equal(src[t], np.full((2, 2), t))


class TestPatchShift:
    def test_none_pattern_is_identity(self):
        rng = np.random.default_rng(0)
        z = distinct_tokens(rng, 4, 4, 4, 3)
        grid = tile_offsets(build_pattern("none"), 4, 4)
        out = patch_shift(None, z, grid)
        np.testing.assert_array_equal(out.data, z.data)

    def test_moves_exactly_the_nonzero_sites(self):
        rng = np.random.default_rng(1)
        pattern = build_pattern("bayerA")
        z = distinct_tokens(rng, 4, 6, 6, 2)
        grid = tile_offsets(pattern, 6, 6)
        out = patch_shift(None, z, grid)
        changed = (out.data != z.data).any(axis=(0, 3))
        np.testing.assert_array_equal(changed, grid != 0)

    def test_hand_case(self):
        # T=3, 2x2 grid, one channel; bayerA: site (0,1) pulls from t-1,
        # site (1,0) pulls from t+1, diagonal stays.
        z = Tensor(np.arange(12.0).reshape(3, 2, 2, 1))
        grid = build_pattern("bayerA").offsets
        out = patch_shift(None, z, grid).data
        assert out[1, 0, 0, 0] == z.data[1, 0, 0, 0]
        assert out[1, 0, 1, 0] == z.data[0, 0, 1, 0]
        assert out[1, 1, 0, 0] == z.data[2, 1, 0, 0]
        assert out[0, 0, 1, 0] == z.data[2, 0, 1, 0]  # wrap at the front

    @pytest.mark.parametrize("name", sorted(builtin_names()))
    @pytest.mark.parametrize("t", [2, 3, 8])
    def test_inverse_restores_bit_exactly(self, name, t):
        rng = np.random.default_rng(2)
        pattern = build_pattern(name)
        h = 2 * pattern.height
        w = 2 * pattern.width
        z = Tensor(rng.normal(size=(t, h, w, 5)))
        grid = tile_offsets(pattern, h, w)
        fwd = patch_shift(None, z, grid, ShiftDirection.FORWARD)
        back = patch_shift(None, fwd, grid, ShiftDirection.INVERSE)
        assert np.array_equal(back.data, z.data)

    def test_conserves_content_multiset(self):
        rng = np.random.default_rng(3)
        z = distinct_tokens(rng, 5, 4, 4, 2)
        grid = tile_offsets(build_pattern("C9"), 4, 4)
        out = patch_shift(None, z, grid)
        np.testing.assert_array_equal(
            np.sort(out.data.ravel()), np.sort(z.data.ravel())
        )

    def test_grid_shape_must_match(self):
        z = Tensor(np.zeros((2, 4, 4, 3)))
        with pytest.raises(ShapeError):
            patch_shift(None, z, np.zeros((2, 2), dtype=int))

    def test_rejects_non_4d(self):
        with pytest.raises(ShapeError):
            patch_shift(None, Tensor(np.zeros((4, 4, 3))), np.zeros((4, 4), dtype=int))

    def test_adjoint_is_inverse_shift(self):
        # Gradient of mean(shift(z)) equals the inverse shift of the
        # uniform gradient field, bit-exactly: the op is a permutation.
        rng = np.random.default_rng(4)
        z = Tensor(rng.normal(size=(4, 4, 4, 3)))
        grid = tile_offsets(build_pattern("B4"), 4, 4)
        tape = Tape()
        s = mean(tape, patch_shift(tape, z, grid), (0, 1, 2, 3))
        g = tape.backward(s)[z]
        uniform = Tensor(np.full(z.shape, 1.0 / z.size))
        expected = patch_shift(None, uniform, grid, ShiftDirection.INVERSE)
        assert np.array_equal(g, expected.data)


class TestChannelShift:
    def test_group_counts(self):
        assert shifted_channels(16, 0.5) == 4
        assert shifted_channels(16, 0.25) == 2
        assert shifted_channels(8, 0.25) == 1
        assert shifted_channels(4, 0.0) == 0

    def test_non_integral_group_raises_with_context(self):
        with pytest.raises(ContractError, match=r"D=6.*0.25"):
            shifted_channels(6, 0.25)
        with pytest.raises(ContractError):
            shifted_channels(8, 1.5)

    def test_channel_groups_at_d16_ratio_half(self):
        # Channels 0-3 come from t-1, channels 4-7 from t+1, 8-15 stay.
        t, h, w, d = 4, 2, 2, 16
        z = Tensor(np.broadcast_to(
            np.arange(t, dtype=np.float64)[:, None, None, None], (t, h, w, d)
        ).copy())
        out = channel_shift(None, z, 0.5).data
        np.testing.assert_array_equal(out[2, 0, 0, :4], np.full(4, 1.0))
        np.testing.assert_array_equal(out[2, 0, 0, 4:8], np.full(4, 3.0))
        np.testing.assert_array_equal(out[2, 0, 0, 8:], np.full(8, 2.0))

    def test_wraps_cyclically(self):
        t, d = 3, 8
        z = Tensor(np.broadcast_to(
            np.arange(t, dtype=np.float64)[:, None, None, None], (t, 1, 1, d)
        ).copy())
        out = channel_shift(None, z, 0.5).data
        assert out[0, 0, 0, 0] == 2.0   # t-1 wraps to last frame
        assert out[2, 0, 0, 2] == 0.0   # t+1 wraps to first frame

    def test_inverse_restores_bit_exactly(self):
        rng = np.random.default_rng(5)
        z = Tensor(rng.normal(size=(6, 3, 5, 8)))
        fwd = channel_shift(None, z, 0.25)
        back = channel_shift(None, fwd, 0.25, ShiftDirection.INVERSE)
        assert np.array_equal(back.data, z.data)

    def test_ratio_zero_is_identity(self):
        rng = np.random.default_rng(6)
        z = Tensor(rng.normal(size=(3, 2, 2, 4)))
        assert np.array_equal(channel_shift(None, z, 0.0).data, z.data)


class TestGenericShift:
    def test_patch_selection_reproduces_patch_shift(self):
        rng = np.random.default_rng(7)
        for name in ("bayerA", "C9", "uneven_half"):
            pattern = build_pattern(name)
            h, w = 2 * pattern.height, 2 * pattern.width
            z = Tensor(rng.normal(size=(5, h, w, 6)))
            grid = tile_offsets(pattern, h, w)
            mask, src = patch_selection(grid, 6)
            a = generic_shift(None, z, mask, src)
            b = patch_shift(None, z, grid)
            assert np.array_equal(a.data, b.data), name

    def test_channel_selection_composes_to_channel_shift(self):
        rng = np.random.default_rng(8)
        z = Tensor(rng.normal(size=(4, 3, 3, 8)))
        out = z
        for mask, src in channel_selection(3, 3, 8, 0.5):
            out = generic_shift(None, out, mask, src)
        direct = channel_shift(None, z, 0.5)
        assert np.array_equal(out.data, direct.data)

    def test_channel_selection_masks_are_disjoint(self):
        (m1, _), (m2, _) = channel_selection(2, 2, 8, 0.5)
        assert not np.logical_and(m1, m2).any()

    def test_mask_must_be_binary(self):
        z = Tensor(np.zeros((2, 2, 2, 3)))
        bad = np.full((2, 2, 3), 2)
        with pytest.raises(ContractError):
            generic_shift(None, z, bad, np.zeros((2, 2), dtype=int))

    def test_shape_validation(self):
        z = Tensor(np.zeros((2, 2, 2, 3)))
        with pytest.raises(ShapeError):
            generic_shift(None, z, np.zeros((2, 2, 4)), np.zeros((2, 2), dtype=int))
        with pytest.raises(ShapeError):
            generic_shift(None, z, np.zeros((2, 2, 3)), np.zeros((3, 2), dtype=int))

    def test_unmasked_sites_keep_values(self):
        rng = np.random.default_rng(9)
        z = distinct_tokens(rng, 3, 2, 2, 4)
        mask = np.zeros((2, 2, 4), dtype=int)
        mask[0, 0, :] = 1
        src = np.ones((2, 2), dtype=int)
        out = generic_shift(None, z, mask, src).data
        np.testing.assert_array_equal(out[:, 1:, :, :], z.data[:, 1:, :, :])
        np.testing.assert_array_equal(out[:, 0, 1, :], z.data[:, 0, 1, :])
        np.testing.assert_array_equal(out[0, 0, 0, :], z.data[1, 0, 0, :])


class TestClipAxes:
    """Leading clip axes: each clip shifts exactly as it would alone."""

    @pytest.mark.parametrize("lead", [(3,), (2, 2)])
    def test_stacked_clips_shift_independently(self, lead):
        rng = np.random.default_rng(30)
        t, h, w, d = 3, 2, 4, 4
        z = Tensor(rng.normal(size=(*lead, t, h, w, d)))
        grid = tile_offsets(build_pattern("bayerA"), h, w)
        mask, src = patch_selection(grid, d)
        ops = [
            lambda x: patch_shift(None, x, grid),
            lambda x: patch_shift(None, x, grid, ShiftDirection.INVERSE),
            lambda x: channel_shift(None, x, 0.5),
            lambda x: generic_shift(None, x, mask, src),
        ]
        clips = z.data.reshape(-1, t, h, w, d)
        for op in ops:
            out = op(z).data.reshape(-1, t, h, w, d)
            for i, clip in enumerate(clips):
                assert np.array_equal(out[i], op(Tensor(clip)).data)
