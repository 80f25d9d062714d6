"""Synthetic video tasks: pairing, balance, determinism, motion, disk format."""

import numpy as np
import pytest

from patchshift.data import (
    DOT,
    TASKS,
    SyntheticSample,
    TaskSpec,
    gen_dataset,
    load_dataset,
    save_dataset,
    split_dataset,
)
from patchshift.errors import ContractError, ShapeError

REV_SPEC = TaskSpec(task="reversal2", frames=8, height=16, width=16, noise=0.0,
                    train_count=8, val_count=4)
DIR_SPEC = TaskSpec(task="direction4", frames=8, height=16, width=16, noise=0.0,
                    train_count=8, val_count=4)

# Step sizes of the accelerating dot for an 8-frame clip.
ACCEL_STEPS_8 = [0, 1, 1, 1, 2, 2, 2]


def dot_centroid(frame):
    """Row/col centre of the bright square in a noise-free frame."""
    rows, cols = np.nonzero(frame[:, :, 0] == 1.0)
    assert rows.size == DOT * DOT
    return rows.mean(), cols.mean()


class TestTaskSpec:
    def test_unknown_task(self):
        with pytest.raises(ContractError, match="unknown task"):
            TaskSpec(task="jitter")

    def test_minimum_frames(self):
        with pytest.raises(ContractError):
            TaskSpec(frames=3)

    def test_negative_noise(self):
        with pytest.raises(ContractError):
            TaskSpec(noise=-0.1)

    @pytest.mark.parametrize("task,bad_count", [
        ("reversal2", 7),
        ("direction4", 6),
        ("reversal2", 0),
    ])
    def test_counts_must_fill_classes(self, task, bad_count):
        with pytest.raises(ContractError):
            TaskSpec(task=task, train_count=bad_count)

    def test_classes_and_shape(self):
        assert TaskSpec(task="reversal2").classes == 2
        assert TaskSpec(task="direction4").classes == 4
        assert REV_SPEC.video_shape() == (8, 16, 16, 3)
        assert set(TASKS) == {"direction4", "reversal2"}


class TestReversal2:
    def test_adjacent_samples_are_exact_reversals(self):
        samples = gen_dataset(REV_SPEC, seed=3)
        for a, b in zip(samples[0::2], samples[1::2]):
            assert (a.label, b.label) == (0, 1)
            assert a.seed == b.seed
            assert np.array_equal(b.video, a.video[::-1])

    def test_labels_balanced(self):
        samples = gen_dataset(REV_SPEC, seed=3)
        labels = [s.label for s in samples]
        assert labels.count(0) == labels.count(1) == len(samples) // 2

    def test_regeneration_is_bit_identical(self):
        a = gen_dataset(REV_SPEC, seed=5)
        b = gen_dataset(REV_SPEC, seed=5)
        assert len(a) == len(b) == 12
        for x, y in zip(a, b):
            assert x.label == y.label and x.seed == y.seed
            assert np.array_equal(x.video, y.video)

    def test_seed_changes_content(self):
        a = gen_dataset(REV_SPEC, seed=5)
        b = gen_dataset(REV_SPEC, seed=6)
        assert not all(np.array_equal(x.video, y.video) for x, y in zip(a, b))

    def test_noise_free_frames_hold_one_dot(self):
        samples = gen_dataset(REV_SPEC, seed=7)
        video = samples[0].video
        for frame in video:
            assert np.count_nonzero(frame == 1.0) == DOT * DOT * 3
            assert np.count_nonzero(frame) == DOT * DOT * 3

    def test_forward_clip_accelerates(self):
        samples = gen_dataset(REV_SPEC, seed=9)
        for fwd in samples[0::2]:
            pos = np.array([dot_centroid(f) for f in fwd.video])
            step = np.linalg.norm(np.diff(pos, axis=0), axis=1)
            np.testing.assert_allclose(step, ACCEL_STEPS_8, atol=0)
            # one compass direction only
            moving = np.abs(np.diff(pos, axis=0)).sum(axis=0)
            assert np.count_nonzero(moving) == 1

    def test_reversed_clip_decelerates(self):
        samples = gen_dataset(REV_SPEC, seed=9)
        rev = samples[1]
        pos = np.array([dot_centroid(f) for f in rev.video])
        step = np.linalg.norm(np.diff(pos, axis=0), axis=1)
        np.testing.assert_allclose(step, ACCEL_STEPS_8[::-1], atol=0)

    def test_pair_shares_frame_multiset(self):
        samples = gen_dataset(REV_SPEC, seed=11)
        fwd, rev = samples[0].video, samples[1].video
        fwd_frames = sorted(f.tobytes() for f in fwd)
        rev_frames = sorted(f.tobytes() for f in rev)
        assert fwd_frames == rev_frames

    def test_video_too_small_for_travel(self):
        spec = TaskSpec(task="reversal2", frames=8, height=8, width=8,
                        train_count=2, val_count=2)
        with pytest.raises(ShapeError, match="too small"):
            gen_dataset(spec, seed=0)

    def test_noise_stays_clipped(self):
        spec = TaskSpec(task="reversal2", frames=8, height=16, width=16,
                        noise=0.5, train_count=4, val_count=2)
        for s in gen_dataset(spec, seed=1):
            assert s.video.min() >= 0.0 and s.video.max() <= 1.0


class TestDirection4:
    def test_labels_cycle_and_balance(self):
        samples = gen_dataset(DIR_SPEC, seed=2)
        assert [s.label for s in samples[:8]] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_motion_matches_label(self):
        # up, down, left, right as unit steps per frame
        deltas = {0: (-1.0, 0.0), 1: (1.0, 0.0), 2: (0.0, -1.0), 3: (0.0, 1.0)}
        for s in gen_dataset(DIR_SPEC, seed=4):
            pos = np.array([dot_centroid(f) for f in s.video])
            step = np.diff(pos, axis=0)
            np.testing.assert_allclose(step, [deltas[s.label]] * 7, atol=0)

    def test_determinism(self):
        a = gen_dataset(DIR_SPEC, seed=8)
        b = gen_dataset(DIR_SPEC, seed=8)
        assert all(np.array_equal(x.video, y.video) for x, y in zip(a, b))

    def test_video_too_small_for_unit_motion(self):
        spec = TaskSpec(task="direction4", frames=18, height=16, width=16,
                        train_count=4, val_count=4)
        with pytest.raises(ShapeError):
            gen_dataset(spec, seed=0)


class TestSplit:
    def test_split_sizes(self):
        samples = gen_dataset(REV_SPEC, seed=3)
        train, val = split_dataset(REV_SPEC, samples)
        assert len(train) == REV_SPEC.train_count
        assert len(val) == REV_SPEC.val_count

    def test_split_rejects_wrong_count(self):
        samples = gen_dataset(REV_SPEC, seed=3)
        with pytest.raises(ShapeError):
            split_dataset(REV_SPEC, samples[:-1])


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        samples = gen_dataset(REV_SPEC, seed=13)
        save_dataset(tmp_path / "clips", REV_SPEC, 13, samples)
        spec, seed, loaded = load_dataset(tmp_path / "clips")
        assert spec == REV_SPEC and seed == 13
        assert len(loaded) == len(samples)
        for a, b in zip(samples, loaded):
            assert a.label == b.label and a.seed == b.seed
            assert np.array_equal(a.video, b.video)

    def test_writes_sidecar_and_blob(self, tmp_path):
        samples = gen_dataset(REV_SPEC, seed=13)
        sidecar, blob = save_dataset(tmp_path / "clips", REV_SPEC, 13, samples)
        assert sidecar.name == "clips.json" and blob.name == "clips.bin"
        assert blob.stat().st_size == len(samples) * 8 * np.prod(REV_SPEC.video_shape())

    def test_rejects_foreign_sidecar(self, tmp_path):
        (tmp_path / "junk.json").write_text('{"format": "other"}')
        (tmp_path / "junk.bin").write_bytes(b"")
        with pytest.raises(ContractError, match="not a dataset"):
            load_dataset(tmp_path / "junk")

    def test_rejects_truncated_blob(self, tmp_path):
        samples = gen_dataset(REV_SPEC, seed=13)
        sidecar, blob = save_dataset(tmp_path / "clips", REV_SPEC, 13, samples)
        blob.write_bytes(blob.read_bytes()[:-16])
        with pytest.raises(ShapeError, match="floats"):
            load_dataset(tmp_path / "clips")

    @pytest.fixture()
    def saved(self, tmp_path):
        samples = gen_dataset(REV_SPEC, seed=13)
        sidecar, blob = save_dataset(tmp_path / "clips", REV_SPEC, 13, samples)
        return tmp_path / "clips", sidecar, blob

    @staticmethod
    def _edit(sidecar, edit):
        import json
        meta = json.loads(sidecar.read_text())
        edit(meta)
        sidecar.write_text(json.dumps(meta))

    @pytest.mark.parametrize("extra", [1, 7, 9])
    def test_rejects_blob_of_partial_floats(self, saved, extra):
        stem, _, blob = saved
        blob.write_bytes(blob.read_bytes()[:-8] + bytes(extra))
        with pytest.raises(ShapeError, match="not a whole number of floats"):
            load_dataset(stem)

    def test_rejects_unknown_spec_key(self, saved):
        stem, sidecar, _ = saved
        self._edit(sidecar, lambda m: m["spec"].update(fps=30))
        with pytest.raises(ContractError, match="dataset spec has unknown keys \\['fps'\\]"):
            load_dataset(stem)

    def test_rejects_unknown_sidecar_key(self, saved):
        stem, sidecar, _ = saved
        self._edit(sidecar, lambda m: m.update(author="x"))
        with pytest.raises(ContractError, match="unknown keys \\['author'\\]"):
            load_dataset(stem)

    @pytest.mark.parametrize("key", ["labels", "sample_seeds"])
    def test_rejects_short_per_clip_lists(self, saved, key):
        stem, sidecar, _ = saved
        self._edit(sidecar, lambda m: m[key].pop())
        with pytest.raises(ShapeError, match=f"sidecar {key} must list"):
            load_dataset(stem)

    def test_rejects_count_other_than_spec(self, saved):
        stem, sidecar, _ = saved
        self._edit(sidecar, lambda m: m.update(count=m["count"] - 2))
        with pytest.raises(ShapeError, match="sidecar count"):
            load_dataset(stem)
