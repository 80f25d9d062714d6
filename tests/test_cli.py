"""Command-line interface: all five subcommands, exit codes, artifacts."""

import json
import warnings

import numpy as np
import pytest

from patchshift.cli import DATA_ERROR, OUT_DIR_ENV, USAGE_ERROR, main
from patchshift.data import load_dataset
from patchshift.model import load_checkpoint
from patchshift.oracle import COMPLEXITY_KINDS


def run_config(tmp_path, **extra):
    """A tiny but complete run config; trains in well under a second."""
    config = {
        "task": {"task": "reversal2", "frames": 4, "height": 8, "width": 8,
                 "train_count": 4, "val_count": 2},
        "model": {"depth": 2, "dim": 8, "heads": 2, "window": [2, 2],
                  "pattern": "bayerA", "variant": "patch_only",
                  "tubelet_t": 1, "tubelet_s": 4},
        "train": {"epochs": 2, "batch": 2, "lr": 0.05, "momentum": 0.9},
        "seed": 3,
        "out_dir": str(tmp_path / "out"),
    }
    config.update(extra)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    return path


class TestPattern:
    def test_prints_grid_and_metrics(self, capsys):
        assert main(["pattern", "bayerA"]) == 0
        out = capsys.readouterr().out
        assert "pattern bayerA (2x2)" in out
        assert "hash" in out
        assert "receptive_field: 3" in out
        assert "shift_pct: 0.5" in out
        assert "evenness: 0" in out

    def test_tiled_grid(self, capsys):
        assert main(["pattern", "bayerA", "--grid", "4x4"]) == 0
        rows = [l for l in capsys.readouterr().out.splitlines()
                if l.startswith("  ")]
        assert len(rows) == 4
        assert rows[0].split() == ["0", "-1", "0", "-1"]

    def test_pattern_file(self, capsys, tmp_path):
        src = tmp_path / "mine.txt"
        src.write_text("2 2\n0 -1\n1 0\n")
        assert main(["pattern", str(src)]) == 0
        assert "pattern mine (2x2)" in capsys.readouterr().out

    def test_unknown_pattern_is_usage_error(self, capsys):
        assert main(["pattern", "nosuch"]) == USAGE_ERROR
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_pattern_file_is_usage_error(self, capsys, tmp_path):
        src = tmp_path / "bad.txt"
        src.write_bytes(b"\xff\xfe 1 1\n0\n")
        assert main(["pattern", str(src)]) == USAGE_ERROR
        err = capsys.readouterr().err
        assert f"cannot read pattern file {src}" in err and err.count("\n") == 1

    def test_bad_grid_is_usage_error(self, capsys):
        assert main(["pattern", "bayerA", "--grid", "4by4"]) == USAGE_ERROR

    def test_render_pgm(self, capsys, tmp_path):
        out = tmp_path / "grid.pgm"
        assert main(["pattern", "bayerA", "--render", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "2 2"
        assert lines[2] == "255"
        # offsets -1..1 map linearly onto 0..255
        assert lines[3].split() == ["127", "0"]
        assert lines[4].split() == ["255", "127"]


class TestGenData:
    def test_writes_sidecar_and_blob(self, capsys, tmp_path):
        stem = tmp_path / "clips"
        code = main(["gen-data", "--task", "reversal2", "--out", str(stem),
                     "--frames", "4", "--size", "8", "--train", "4", "--val", "2",
                     "--seed", "5"])
        assert code == 0
        assert "6 samples" in capsys.readouterr().out
        spec, seed, samples = load_dataset(stem)
        assert seed == 5 and len(samples) == 6
        assert spec.frames == 4 and spec.height == 8

    def test_same_seed_same_bytes(self, tmp_path):
        args = ["gen-data", "--out", None, "--frames", "4", "--size", "8",
                "--train", "4", "--val", "2", "--seed", "9"]
        blobs = []
        for stem in (tmp_path / "a", tmp_path / "b"):
            args[2] = str(stem)
            assert main(args) == 0
            blobs.append(stem.with_suffix(".bin").read_bytes())
        assert blobs[0] == blobs[1]

    def test_bad_count_is_usage_error(self, capsys, tmp_path):
        code = main(["gen-data", "--out", str(tmp_path / "x"), "--train", "7"])
        assert code == USAGE_ERROR

    def test_impossible_geometry_is_data_error(self, capsys, tmp_path):
        code = main(["gen-data", "--out", str(tmp_path / "x"), "--frames", "8",
                     "--size", "8", "--train", "4", "--val", "2"])
        assert code == DATA_ERROR
        assert "too small" in capsys.readouterr().err


class TestRun:
    def test_trains_and_writes_artifacts(self, capsys, tmp_path):
        cfg = run_config(tmp_path)
        assert main(["run", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "run complete: 2 epochs" in out

        csv = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
        assert csv[0].startswith("# config:")
        assert csv[1].startswith("# pattern_hash:")
        assert csv[2] == "epoch,train_loss,val_top1"
        assert len(csv) == 3 + 2  # two epoch rows

        model = load_checkpoint(tmp_path / "out" / "model.ckpt")
        assert model.config.dim == 8

    def test_same_seed_same_csv_bytes(self, tmp_path):
        a = run_config(tmp_path, out_dir=str(tmp_path / "o1"))
        assert main(["run", str(a)]) == 0
        b = run_config(tmp_path, out_dir=str(tmp_path / "o2"))
        assert main(["run", str(b)]) == 0
        assert (tmp_path / "o1" / "metrics.csv").read_bytes() == \
               (tmp_path / "o2" / "metrics.csv").read_bytes()

    def test_dotted_overrides(self, capsys, tmp_path):
        cfg = run_config(tmp_path)
        assert main(["run", str(cfg), "--train.epochs", "3",
                     "--model.pattern=none"]) == 0
        assert "3 epochs" in capsys.readouterr().out
        csv = (tmp_path / "out" / "metrics.csv").read_text()
        assert '"pattern": "none"' in csv.splitlines()[0]

    def test_out_dir_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "envout"))
        cfg = run_config(tmp_path, out_dir=None)
        assert main(["run", str(cfg)]) == 0
        assert (tmp_path / "envout" / "metrics.csv").exists()

    def test_unknown_section_is_usage_error(self, capsys, tmp_path):
        cfg = run_config(tmp_path, optimizer={"name": "sgd"})
        assert main(["run", str(cfg)]) == USAGE_ERROR
        assert "unknown config sections" in capsys.readouterr().err

    def test_unknown_train_key_is_usage_error(self, capsys, tmp_path):
        cfg = run_config(tmp_path, train={"epochs": 1, "weight_decay": 0.1})
        assert main(["run", str(cfg)]) == USAGE_ERROR

    def test_model_task_mismatch_is_data_error(self, capsys, tmp_path):
        cfg = run_config(tmp_path)
        assert main(["run", str(cfg), "--model.frames", "8"]) == DATA_ERROR

    @pytest.mark.parametrize("flags", [
        ["--train.epochs", "0"],
        ["--train.batch", "0"],
        ["--train.lr", "fast"],
        ["--train.momentum", "[0.9]"],
        ["--seed", "x"],
        ["--seed", "1.5"],
    ], ids=["zero_epochs", "zero_batch", "text_lr", "list_momentum", "text_seed",
            "float_seed"])
    def test_bad_train_value_is_usage_error(self, capsys, tmp_path, flags):
        cfg = run_config(tmp_path)
        assert main(["run", str(cfg), *flags]) == USAGE_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: bad run config:") and err.count("\n") == 1

    def test_bad_window_is_one_line_error(self, capsys, tmp_path):
        cfg = run_config(tmp_path)
        assert main(["run", str(cfg), "--model.window", "[2]"]) == DATA_ERROR
        err = capsys.readouterr().err
        assert "window must be two positive ints" in err and err.count("\n") == 1

    def test_non_utf8_pattern_file_is_usage_error(self, capsys, tmp_path):
        src = tmp_path / "bad.txt"
        src.write_bytes(b"\xff\xfe 1 1\n0\n")
        cfg = run_config(tmp_path)
        assert main(["run", str(cfg), "--model.pattern", str(src)]) == USAGE_ERROR
        err = capsys.readouterr().err
        assert f"cannot read pattern file {src}" in err and err.count("\n") == 1

    def test_divergence_names_epoch_and_step(self, capsys, tmp_path):
        cfg = run_config(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(cfg), "--train.lr", "1e308"]) == DATA_ERROR
        assert caught == []  # numpy's overflow warnings stay silent
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged at epoch 0, step ")
        assert err.endswith(" non-finite values\n") and err.count("\n") == 1

    def test_missing_config_is_usage_error(self, capsys, tmp_path):
        assert main(["run", str(tmp_path / "absent.json")]) == USAGE_ERROR

    def test_bad_override_is_usage_error(self, capsys, tmp_path):
        cfg = run_config(tmp_path)
        assert main(["run", str(cfg), "train.lr", "0.1"]) == USAGE_ERROR


class TestEval:
    @pytest.fixture()
    def artifacts(self, tmp_path):
        cfg = run_config(tmp_path)
        assert main(["run", str(cfg)]) == 0
        stem = tmp_path / "clips"
        assert main(["gen-data", "--task", "reversal2", "--out", str(stem),
                     "--frames", "4", "--size", "8", "--train", "4", "--val", "2",
                     "--seed", "3"]) == 0
        return tmp_path / "out" / "model.ckpt", stem

    def test_reports_top1_json(self, capsys, artifacts):
        ckpt, stem = artifacts
        capsys.readouterr()  # drop fixture output
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(stem)]) == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert report["split"] == "val" and report["count"] == 2
        assert 0.0 <= report["top1"] <= 1.0

    def test_train_split(self, capsys, artifacts):
        ckpt, stem = artifacts
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(stem),
                     "--split", "train"]) == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert report["count"] == 4

    def test_missing_checkpoint_is_usage_error(self, capsys, tmp_path):
        assert main(["eval", "--checkpoint", str(tmp_path / "no.ckpt"),
                     "--data", str(tmp_path / "no")]) == USAGE_ERROR

    def test_truncated_checkpoint_is_usage_error(self, capsys, artifacts, tmp_path):
        ckpt, stem = artifacts
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(ckpt.read_bytes()[:-100])
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(cut), "--data", str(stem)]) == USAGE_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: bad checkpoint:") and err.count("\n") == 1

    def test_out_of_range_label_is_data_error(self, capsys, artifacts):
        ckpt, stem = artifacts
        sidecar = stem.with_suffix(".json")
        meta = json.loads(sidecar.read_text())
        meta["labels"][-1] = 7
        sidecar.write_text(json.dumps(meta))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(stem)]) == DATA_ERROR
        assert "label out of range" in capsys.readouterr().err

    def test_shape_mismatch_is_data_error(self, capsys, artifacts, tmp_path):
        ckpt, _ = artifacts
        other = tmp_path / "big"
        assert main(["gen-data", "--out", str(other), "--frames", "8",
                     "--size", "16", "--train", "4", "--val", "2"]) == 0
        assert main(["eval", "--checkpoint", str(ckpt),
                     "--data", str(other)]) == DATA_ERROR


    @staticmethod
    def _edit_header(ckpt, tmp_path, edit):
        line, blob = ckpt.read_bytes().split(b"\n", 1)
        header = json.loads(line)
        edit(header)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(json.dumps(header).encode() + b"\n" + blob)
        return bad

    @pytest.mark.parametrize("edit", [
        lambda h: h["config"].update(dropout=0.1),
        lambda h: h["tensors"][0].update(name="embed.weight"),
        lambda h: next(e for e in h["tensors"] if e["name"] == "head.w").update(shape=[2, 4]),
        lambda h: h["pattern"].update(grid=[[0, 1], [1, 0]]),
    ], ids=["unknown_config_key", "renamed_tensor", "reshaped_tensor", "edited_grid"])
    def test_corrupt_checkpoint_is_usage_error(self, capsys, artifacts, tmp_path, edit):
        ckpt, stem = artifacts
        bad = self._edit_header(ckpt, tmp_path, edit)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(bad), "--data", str(stem)]) == USAGE_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: bad checkpoint:") and err.count("\n") == 1

    @pytest.mark.parametrize("corrupt", [
        lambda sidecar, blob: blob.write_bytes(blob.read_bytes() + bytes(3)),
        lambda sidecar, blob: sidecar.write_text(sidecar.read_text().replace(
            '"noise"', '"fps": 30, "noise"')),
        lambda sidecar, blob: sidecar.write_text(json.dumps(dict(
            json.loads(sidecar.read_text()), labels=[0, 1, 0]))),
    ], ids=["partial_float_blob", "unknown_spec_key", "short_labels"])
    def test_corrupt_dataset_is_data_error(self, capsys, artifacts, corrupt):
        ckpt, stem = artifacts
        corrupt(stem.with_suffix(".json"), stem.with_suffix(".bin"))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(stem)]) == DATA_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestComplexity:
    def test_table_lists_all_kinds(self, capsys):
        assert main(["complexity", "--N", "16", "--T", "4", "--D", "8"]) == 0
        out = capsys.readouterr().out
        for kind in COMPLEXITY_KINDS:
            assert kind in out

    def test_json_output(self, capsys):
        assert main(["complexity", "--N", "16", "--T", "4", "--D", "8",
                     "--window", "2x2", "--json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert [r["kind"] for r in reports] == list(COMPLEXITY_KINDS)
        ps = next(r for r in reports if r["kind"] == "patchshift")
        assert ps["window"] == [2, 2]
        joint = next(r for r in reports if r["kind"] == "joint")
        assert joint["buffer_elements"] == ps["buffer_elements"] * 4 * 4

    def test_measure_agrees_with_estimate(self, capsys):
        assert main(["complexity", "--N", "4", "--T", "2", "--D", "8",
                     "--heads", "2", "--window", "2x2", "--measure"]) == 0
        assert "measured == estimate" in capsys.readouterr().out

    def test_measure_needs_square_grid(self, capsys):
        assert main(["complexity", "--N", "6", "--T", "2", "--D", "8",
                     "--measure"]) == DATA_ERROR

    def test_bad_window_is_usage_error(self, capsys):
        assert main(["complexity", "--N", "16", "--T", "4", "--D", "8",
                     "--window", "two"]) == USAGE_ERROR

    def test_bad_alpha_is_usage_error(self, capsys):
        assert main(["complexity", "--N", "16", "--T", "4", "--D", "8",
                     "--alpha", "0"]) == USAGE_ERROR
