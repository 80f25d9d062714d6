"""Brute-force attention reference and the MAC/buffer complexity model."""

import json
import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from patchshift.attention import (
    AttentionParams,
    WindowLayout,
    patch_shift_attention,
    window_mhsa,
    relpos_index,
)
from patchshift.errors import ContractError, ShapeError
from patchshift.oracle import (
    COMPLEXITY_KINDS,
    ComplexityReport,
    complexity_estimate,
    count_macs,
    gather_sets,
    joint_attention,
    mac_profile,
    oracle_attention,
)
from patchshift.patterns import build_pattern, builtin_names
from patchshift.tensor import Tape, Tensor, matmul


def make_params(rng, dim, heads, t_max, layout, bias_scale=0.5):
    def w():
        return Tensor(rng.normal(scale=0.3, size=(dim, dim)))

    table = rng.normal(
        scale=bias_scale,
        size=(heads, 2 * t_max - 1, 2 * layout.height - 1, 2 * layout.width - 1),
    )
    return AttentionParams(heads=heads, w_q=w(), w_k=w(), w_v=w(), w_out=w(),
                           bias_table=Tensor(table))


class TestGatherSets:
    def test_partition_of_all_coordinates(self):
        pattern = build_pattern("C9")
        layout = WindowLayout(3, 3)
        sets = gather_sets(pattern, layout, t_len=4, grid_h=6, grid_w=3)
        assert len(sets) == 4 * (6 // 3) * (3 // 3)
        seen = [cell for cells in sets for cell in cells]
        assert len(seen) == 4 * 6 * 3
        assert len(set(seen)) == len(seen)
        assert set(seen) == {(t, r, c) for t in range(4) for r in range(6) for c in range(3)}

    def test_none_pattern_stays_in_host_frame(self):
        sets = gather_sets(build_pattern("none"), WindowLayout(2, 2), 3, 2, 2)
        for i, cells in enumerate(sets):
            host = i  # one window per frame at this grid size
            assert [ft for ft, _, _ in cells] == [host] * 4

    def test_bayer_window_hand_case(self):
        # bayerA on a 2x2 grid: offsets [[0, -1], [1, 0]].  Host frame 0 of 3
        # pulls (0,1) from frame (0-1) % 3 = 2 and (1,0) from frame 1.
        sets = gather_sets(build_pattern("bayerA"), WindowLayout(2, 2), 3, 2, 2)
        assert sets[0] == [(0, 0, 0), (2, 0, 1), (1, 1, 0), (0, 1, 1)]
        assert sets[1] == [(1, 0, 0), (0, 0, 1), (2, 1, 0), (1, 1, 1)]

    def test_window_order_is_host_major_row_major(self):
        sets = gather_sets(build_pattern("none"), WindowLayout(2, 2), 2, 4, 4)
        # 4 windows per frame, frame-major then window row-major.
        assert sets[0][0] == (0, 0, 0)
        assert sets[1][0] == (0, 0, 2)
        assert sets[2][0] == (0, 2, 0)
        assert sets[4][0] == (1, 0, 0)

    def test_grid_must_tile(self):
        with pytest.raises(ShapeError):
            gather_sets(build_pattern("none"), WindowLayout(2, 2), 2, 3, 4)


class TestOracleAttention:
    @pytest.mark.parametrize("kind,t_len,grid,window,dim,heads", [
        ("bayerA", 4, (4, 4), (2, 2), 8, 2),
        ("even2", 3, (2, 4), (2, 2), 6, 1),
        ("C9", 5, (3, 3), (3, 3), 12, 4),
        ("none", 2, (2, 2), (2, 2), 4, 2),
        ("center_one", 3, (6, 3), (3, 3), 6, 2),
        ("uneven_half", 3, (4, 4), (2, 2), 4, 1),
        ("B4", 4, (4, 8), (4, 4), 8, 2),
        ("D16", 5, (4, 4), (4, 4), 4, 1),
    ])
    def test_matches_fast_pipeline(self, kind, t_len, grid, window, dim, heads):
        rng = np.random.default_rng(zlib.crc32(f"{kind}/{t_len}".encode()))
        pattern = build_pattern(kind)
        layout = WindowLayout(*window)
        params = make_params(rng, dim, heads, t_max=t_len, layout=layout)
        z = Tensor(rng.normal(size=(t_len, *grid, dim)))
        fast = patch_shift_attention(None, z, pattern, layout, params)
        slow = oracle_attention(z, pattern, layout, params)
        np.testing.assert_allclose(fast.data, slow, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(builtin_names()),
        reps=st.tuples(*[st.integers(1, 2)] * 4),
        t_len=st.integers(1, 4),
        heads=st.integers(1, 2),
        head_dim=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_matches_oracle(self, kind, reps, t_len, heads, head_dim, seed):
        # The window repeats the pattern, the grid repeats the window; the
        # oracle's per-pair loops bound windows to 16 tokens.
        pattern = build_pattern(kind)
        layout = WindowLayout(pattern.height * reps[0], pattern.width * reps[1])
        assume(layout.tokens <= 16)
        grid = (layout.height * reps[2], layout.width * reps[3])
        rng = np.random.default_rng(seed)
        dim = heads * head_dim
        params = make_params(rng, dim, heads, t_max=t_len, layout=layout)
        z = Tensor(rng.normal(size=(t_len, *grid, dim)))
        fast = patch_shift_attention(None, z, pattern, layout, params)
        slow = oracle_attention(z, pattern, layout, params)
        assert np.abs(fast.data - slow).max() <= 1e-9

    @settings(max_examples=20, deadline=None)
    @given(
        kind=st.sampled_from(builtin_names()),
        clips=st.integers(1, 3),
        reps=st.tuples(*[st.integers(1, 2)] * 2),
        t_len=st.integers(1, 3),
        heads=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_stacked_clips_match_oracle(self, kind, clips, reps, t_len, heads, seed):
        # (B, T, H, W, D) tokens: every clip matches the oracle run on it alone.
        pattern = build_pattern(kind)
        layout = WindowLayout(pattern.height, pattern.width)
        grid = (layout.height * reps[0], layout.width * reps[1])
        rng = np.random.default_rng(seed)
        dim = 2 * heads
        params = make_params(rng, dim, heads, t_max=t_len, layout=layout)
        z = rng.normal(size=(clips, t_len, *grid, dim))
        fast = patch_shift_attention(None, Tensor(z), pattern, layout, params)
        assert fast.shape == z.shape
        for b in range(clips):
            slow = oracle_attention(Tensor(z[b]), pattern, layout, params)
            assert np.abs(fast.data[b] - slow).max() <= 1e-9

    def test_zero_offsets_match_per_frame_windows(self):
        rng = np.random.default_rng(7)
        layout = WindowLayout(2, 2)
        params = make_params(rng, 8, 2, t_max=3, layout=layout)
        z = rng.normal(size=(3, 2, 2, 8))
        got = oracle_attention(Tensor(z), build_pattern("none"), layout, params)
        index = relpos_index(layout, np.full((2, 2), 0, dtype=int), params.t_max)
        for t in range(3):
            frame = window_mhsa(None, Tensor(z[t].reshape(4, 8)), params, index)
            np.testing.assert_allclose(got[t].reshape(4, 8), frame.data, atol=1e-12)


class TestJointAttention:
    def test_shape_and_finite(self):
        rng = np.random.default_rng(3)
        layout = WindowLayout(2, 2)
        params = make_params(rng, 8, 2, t_max=4, layout=layout)
        z = Tensor(rng.normal(size=(4, 2, 2, 8)))
        out = joint_attention(None, z, params)
        assert out.shape == z.shape

    def test_matches_dense_numpy(self):
        rng = np.random.default_rng(4)
        layout = WindowLayout(2, 2)
        params = make_params(rng, 6, 2, t_max=2, layout=layout)
        z = rng.normal(size=(2, 2, 2, 6))
        out = joint_attention(None, Tensor(z), params)

        tokens = z.reshape(8, 6)
        q = (tokens @ params.w_q.data).reshape(8, 2, 3).transpose(1, 0, 2)
        k = (tokens @ params.w_k.data).reshape(8, 2, 3).transpose(1, 0, 2)
        v = (tokens @ params.w_v.data).reshape(8, 2, 3).transpose(1, 0, 2)
        scores = q @ k.transpose(0, 2, 1)  # unscaled by design: cost reference
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        w = e / e.sum(axis=-1, keepdims=True)
        ctx = (w @ v).transpose(1, 0, 2).reshape(8, 6)
        expect = (ctx @ params.w_out.data).reshape(2, 2, 2, 6)
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_dim_mismatch(self):
        rng = np.random.default_rng(5)
        params = make_params(rng, 8, 2, t_max=2, layout=WindowLayout(2, 2))
        with pytest.raises(ShapeError):
            joint_attention(None, Tensor(np.zeros((2, 2, 2, 6))), params)


class TestComplexityEstimate:
    def test_joint_formula(self):
        r = complexity_estimate("joint", n_patches=16, t_frames=4, dim=8)
        assert r.score_macs == (16 * 4) ** 2 * 8
        assert r.aggregate_macs == r.score_macs
        assert r.sa_macs == 2 * r.score_macs
        assert r.buffer_elements == (16 * 4) ** 2 == 4096
        assert r.projection_macs == 4 * 16 * 4 * 8 * 8

    def test_patchshift_full_grid_window(self):
        r = complexity_estimate("patchshift", n_patches=16, t_frames=4, dim=8)
        assert r.window is None
        assert r.score_macs == 4 * 16 * 16 * 8
        assert r.buffer_elements == 16 * 16 * 4 == 1024

    def test_joint_buffer_is_t_times_patchshift_buffer(self):
        for n, t in [(16, 4), (64, 8), (49, 3)]:
            joint = complexity_estimate("joint", n, t, 8)
            ps = complexity_estimate("patchshift", n, t, 8)
            assert joint.buffer_elements == ps.buffer_elements * t

    def test_patchshift_windowed(self):
        r = complexity_estimate("patchshift", n_patches=16, t_frames=4, dim=8,
                                window=(2, 2))
        assert r.window == (2, 2)
        assert r.score_macs == (16 // 4) * 4 * 4 * 4 * 8
        assert r.buffer_elements == (16 // 4) * 4 * 4 * 4

    def test_divide_formula(self):
        n, t, d = 9, 5, 4
        r = complexity_estimate("divide", n, t, d)
        assert r.score_macs == t * n * n * d + n * t * t * d
        assert r.buffer_elements == t * n * n + n * t * t

    def test_sparse_local_scales_joint(self):
        full = complexity_estimate("joint", 8, 4, 8)
        half = complexity_estimate("sparse_local", 8, 4, 8, alpha=0.5)
        assert half.score_macs == full.score_macs // 2
        assert half.buffer_elements == full.buffer_elements // 2
        assert isinstance(half.score_macs, int)
        same = complexity_estimate("sparse_local", 8, 4, 8, alpha=1.0)
        assert same.score_macs == full.score_macs

    def test_sparse_alpha_bounds(self):
        with pytest.raises(ContractError):
            complexity_estimate("sparse_local", 8, 4, 8, alpha=0.0)
        with pytest.raises(ContractError):
            complexity_estimate("sparse_local", 8, 4, 8, alpha=1.5)

    def test_unknown_kind(self):
        with pytest.raises(ContractError, match="unknown complexity kind"):
            complexity_estimate("dense", 8, 4, 8)

    def test_bad_extents(self):
        with pytest.raises(ContractError):
            complexity_estimate("joint", 0, 4, 8)
        with pytest.raises(ShapeError):
            complexity_estimate("joint", 8, 4, 8, heads=3)
        with pytest.raises(ShapeError):
            complexity_estimate("patchshift", 16, 4, 8, window=(3, 2))

    def test_every_kind_reports_a_complexity_class(self):
        for kind in COMPLEXITY_KINDS:
            r = complexity_estimate(kind, 16, 4, 8, window=(2, 2))
            assert r.kind == kind
            assert r.complexity_class.startswith("O(")

    def test_to_json_round_trip(self):
        r = complexity_estimate("patchshift", 16, 4, 8, heads=2, window=(2, 2))
        data = json.loads(r.to_json())
        assert data["kind"] == "patchshift"
        assert data["score_macs"] == r.score_macs
        assert data["buffer_elements"] == r.buffer_elements
        assert data["window"] == [2, 2]


class TestMeasuredMacs:
    def test_mac_profile_splits_by_label(self):
        rng = np.random.default_rng(6)
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(4, 5)))

        def run(tape):
            return matmul(tape, a, b, label="score")

        profile = mac_profile(run)
        assert profile == {"score": 3 * 4 * 5}

    def test_joint_measured_equals_estimate(self):
        rng = np.random.default_rng(8)
        layout = WindowLayout(2, 2)
        params = make_params(rng, 8, 2, t_max=4, layout=layout)
        z = Tensor(rng.normal(size=(4, 2, 2, 8)))
        report = complexity_estimate("joint", n_patches=4, t_frames=4, dim=8, heads=2)
        profile = mac_profile(lambda tape: joint_attention(tape, z, params))
        assert profile["score"] == report.score_macs
        assert profile["agg"] == report.aggregate_macs
        assert profile["proj"] == report.projection_macs
        assert count_macs(lambda tape: joint_attention(tape, z, params)) == (
            report.sa_macs + report.projection_macs
        )

    def test_patchshift_measured_equals_estimate(self):
        rng = np.random.default_rng(9)
        pattern = build_pattern("bayerA")
        layout = WindowLayout(2, 2)
        params = make_params(rng, 8, 2, t_max=4, layout=layout)
        z = Tensor(rng.normal(size=(4, 4, 4, 8)))
        report = complexity_estimate("patchshift", n_patches=16, t_frames=4,
                                     dim=8, heads=2, window=(2, 2))
        profile = mac_profile(
            lambda tape: patch_shift_attention(tape, z, pattern, layout, params)
        )
        assert profile["score"] == report.score_macs
        assert profile["agg"] == report.aggregate_macs
        assert profile["proj"] == report.projection_macs
