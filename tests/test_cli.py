import argparse
import builtins
import hashlib
import inspect
import json
import struct
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import dualmem.cli
import dualmem.corpus
from dualmem.cli import build_parser, main
from dualmem.config import Config, save_config
from dualmem.corpus import (
    BINARY_HEADER, ID_FIELD_BYTES, convert_corpus, load_corpus, write_corpus_binary, write_corpus_jsonl,
)
from dualmem.evaluation import write_gt
from dualmem.records import BoundingBox
from dualmem.reporting import read_assignments, read_key_values, write_key_values
from dualmem.stats import BackgroundStats
from dualmem.synth import SynthSpec, save_spec

from conftest import GtBox, gt_table_of, make_region


@pytest.fixture()
def spec_file(tmp_path):
    spec = SynthSpec(
        d=8, n_known=2, n_unknown=3, images=40, n_background_per_image=1,
        classes_per_image=2, regions_per_class_per_image=1, separation=8.0, std=1.0, seed=5,
    )
    path = tmp_path / "spec.txt"
    save_spec(spec, path)
    return path


@pytest.fixture()
def generated(tmp_path, spec_file):
    out = tmp_path / "data"
    assert main(["gen", "--spec", str(spec_file), "--out", str(out)]) == 0
    return out


@pytest.fixture()
def full_run(tmp_path, generated):
    config = Config(d=8, min_images_per_slot=3, rounds=2, rng_seed=3)
    config_path = tmp_path / "config.txt"
    save_config(config, config_path)
    bg_dir = tmp_path / "bg"
    assert main(["background", "--corpus", str(generated / "corpus.jsonl"), "--out", str(bg_dir)]) == 0
    run_dir = tmp_path / "run"
    assert (
        main(
            [
                "discover",
                "--corpus", str(generated / "corpus.jsonl"),
                "--bg", str(bg_dir / "bg.bin"),
                "--config", str(config_path),
                "--priors", str(generated / "priors.jsonl"),
                "--out", str(run_dir),
            ]
        )
        == 0
    )
    return generated, bg_dir, run_dir, config_path


class TestGen:
    def test_writes_three_files_and_manifest(self, generated):
        for name in ("corpus.jsonl", "gt.jsonl", "priors.jsonl", "manifest.json"):
            assert (generated / name).exists()
        manifest = json.loads((generated / "manifest.json").read_text())
        assert manifest["subcommand"] == "gen"
        assert manifest["tool"] == "dualmem"

    def test_missing_spec_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--out", str(tmp_path / "x")])
        assert exc.value.code != 0

    def test_rerun_identical_bytes(self, tmp_path, spec_file):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["gen", "--spec", str(spec_file), "--out", str(out_a)]) == 0
        assert main(["gen", "--spec", str(spec_file), "--out", str(out_b)]) == 0
        for name in ("corpus.jsonl", "gt.jsonl", "priors.jsonl"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_refuses_nonempty_dir_without_force(self, tmp_path, spec_file, capsys):
        out = tmp_path / "busy"
        out.mkdir()
        (out / "junk.txt").write_text("hello")
        assert main(["gen", "--spec", str(spec_file), "--out", str(out)]) == 1
        assert "--force" in capsys.readouterr().err
        assert main(["gen", "--spec", str(spec_file), "--out", str(out), "--force"]) == 0


class TestBackground:
    def test_toy_corpus_identity_covariance(self, tmp_path, capsys):
        records = [
            make_region(f"r{i}", f"img{i}", f)
            for i, f in enumerate([(0, 0), (2, 0), (0, 2), (2, 2)])
        ]
        corpus = tmp_path / "corpus.jsonl"
        write_corpus_jsonl(corpus, 2, records)
        out = tmp_path / "bg"
        assert main(["background", "--corpus", str(corpus), "--out", str(out)]) == 0
        bg = BackgroundStats.load(out / "bg.bin")
        np.testing.assert_allclose(bg.covariance, np.eye(2) * (1 + 1e-3), atol=1e-12)

    def test_empty_corpus_fails(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        write_corpus_jsonl(corpus, 2, [])
        assert main(["background", "--corpus", str(corpus), "--out", str(tmp_path / "bg")]) == 1
        assert "2 samples" in capsys.readouterr().err

    def test_thread_schedules_agree(self, tmp_path, generated):
        for threads, name in ((1, "bg1"), (4, "bg4")):
            assert (
                main(
                    ["background", "--corpus", str(generated / "corpus.jsonl"),
                     "--out", str(tmp_path / name), "--threads", str(threads)]
                )
                == 0
            )
        a = BackgroundStats.load(tmp_path / "bg1" / "bg.bin")
        b = BackgroundStats.load(tmp_path / "bg4" / "bg.bin")
        assert np.linalg.norm(a.mean - b.mean) < 1e-9
        assert np.linalg.norm(a.covariance - b.covariance) < 1e-9

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_fail_before_any_output(self, tmp_path, generated, threads, capsys):
        out = tmp_path / "bg"
        argv = ["background", "--corpus", str(generated / "corpus.jsonl"), "--threads", threads, "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "--threads" in err, err
        assert not out.exists()


class TestDiscover:
    def test_run_directory_layout(self, full_run):
        _, _, run_dir, _ = full_run
        for name in ("manifest.json", "config.txt", "bg.bin", "assignments.tsv", "stats.txt"):
            assert (run_dir / name).exists()
        assert (run_dir / "round_1" / "checkpoint.bin").exists()
        assert (run_dir / "round_1" / "consolidation.log").exists()
        assert (run_dir / "round_2" / "consolidation.log").exists()

    def test_consolidation_log_is_json(self, full_run):
        _, _, run_dir, _ = full_run
        record = json.loads((run_dir / "round_1" / "consolidation.log").read_text())
        assert record["round_index"] == 1
        assert "slots_transferred" in record

    def test_stats_keys(self, full_run):
        _, _, run_dir, _ = full_run
        stats = read_key_values(run_dir / "stats.txt")
        for key in ("rounds", "known_match", "new_slot", "rejected", "clusters_final"):
            assert key in stats

    def test_seed_determinism(self, tmp_path, full_run):
        generated, bg_dir, run_dir, config_path = full_run
        rerun = tmp_path / "rerun"
        assert (
            main(
                [
                    "discover",
                    "--corpus", str(generated / "corpus.jsonl"),
                    "--bg", str(bg_dir / "bg.bin"),
                    "--config", str(config_path),
                    "--priors", str(generated / "priors.jsonl"),
                    "--out", str(rerun),
                ]
            )
            == 0
        )
        for name in ("assignments.tsv", "stats.txt"):
            assert (run_dir / name).read_bytes() == (rerun / name).read_bytes()

    def test_gt_overlap_mode(self, tmp_path, full_run):
        generated, bg_dir, _, _ = full_run
        config = Config(d=8, min_images_per_slot=3, rounds=2, rng_seed=3, init_mode="gt_overlap")
        config_path = tmp_path / "gt_config.txt"
        save_config(config, config_path)
        out = tmp_path / "gt_run"
        assert (
            main(
                [
                    "discover",
                    "--corpus", str(generated / "corpus.jsonl"),
                    "--bg", str(bg_dir / "bg.bin"),
                    "--config", str(config_path),
                    "--gt", str(generated / "gt.jsonl"),
                    "--out", str(out),
                ]
            )
            == 0
        )
        assignments = read_assignments(out / "assignments.tsv")
        labels = {v for v in assignments.values() if v != "unassigned"}
        assert any(lab.startswith("known_") for lab in labels)

    def test_gt_overlap_without_gt_fails(self, tmp_path, full_run, capsys):
        generated, bg_dir, _, _ = full_run
        config = Config(d=8, rounds=2, rng_seed=3, init_mode="gt_overlap")
        config_path = tmp_path / "gt_config.txt"
        save_config(config, config_path)
        assert (
            main(
                [
                    "discover",
                    "--corpus", str(generated / "corpus.jsonl"),
                    "--bg", str(bg_dir / "bg.bin"),
                    "--config", str(config_path),
                    "--out", str(tmp_path / "gt_run2"),
                ]
            )
            == 1
        )
        assert "--gt" in capsys.readouterr().err

    def test_det_scores_without_priors_fails(self, tmp_path, full_run, capsys):
        generated, bg_dir, _, config_path = full_run
        assert (
            main(
                [
                    "discover",
                    "--corpus", str(generated / "corpus.jsonl"),
                    "--bg", str(bg_dir / "bg.bin"),
                    "--config", str(config_path),
                    "--out", str(tmp_path / "nope"),
                ]
            )
            == 1
        )
        assert "--priors" in capsys.readouterr().err


    def test_truncated_background_fails_cleanly_at_every_offset(self, tmp_path, full_run, capsys):
        generated, bg_dir, _, config_path = full_run
        data = (bg_dir / "bg.bin").read_bytes()
        cut = tmp_path / "cut.bin"
        out = tmp_path / "cut_run"
        capsys.readouterr()
        for size in range(len(data)):
            cut.unlink(missing_ok=True)  # a new file: truncating one in place makes ext4 flush it
            cut.write_bytes(data[:size])
            argv = [
                "discover", "--corpus", str(generated / "corpus.jsonl"), "--bg", str(cut),
                "--config", str(config_path), "--priors", str(generated / "priors.jsonl"),
                "--out", str(out),
            ]
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert "truncated at byte" in captured.err
            assert not (out / "manifest.json").exists()


class TestEvalAndBaseline:
    def test_eval_outputs(self, tmp_path, full_run):
        generated, _, run_dir, _ = full_run
        out = tmp_path / "eval"
        assert (
            main(
                [
                    "eval",
                    "--corpus", str(generated / "corpus.jsonl"),
                    "--assignments", str(run_dir / "assignments.tsv"),
                    "--gt", str(generated / "gt.jsonl"),
                    "--out", str(out),
                ]
            )
            == 0
        )
        metrics = read_key_values(out / "metrics.txt")
        for key in ("auc_0.5", "auc_0.2", "corloc", "corret", "detrate_0.5", "n_discovered"):
            assert key in metrics
        assert (out / "curve_0.5.csv").exists()
        assert (out / "curve_0.2.csv").exists()
        header = (out / "curve_0.5.csv").read_text().splitlines()[0]
        assert header == "coverage,cumulative_purity"

    def test_baseline_with_explicit_k(self, tmp_path, generated):
        out = tmp_path / "km"
        assert (
            main(["baseline", "--corpus", str(generated / "corpus.jsonl"),
                  "--k", "5", "--seed", "0", "--out", str(out)])
            == 0
        )
        assignments = read_assignments(out / "assignments.tsv")
        assert len(set(assignments.values())) == 5

    def test_baseline_k_from_stats(self, tmp_path, full_run):
        generated, _, run_dir, _ = full_run
        stats = read_key_values(run_dir / "stats.txt")
        out = tmp_path / "km2"
        assert (
            main(["baseline", "--corpus", str(generated / "corpus.jsonl"),
                  "--stats", str(run_dir / "stats.txt"), "--out", str(out)])
            == 0
        )
        assignments = read_assignments(out / "assignments.tsv")
        assert len(set(assignments.values())) == int(stats["clusters_final"])

    def test_baseline_requires_k_or_stats(self, tmp_path, generated, capsys):
        assert (
            main(["baseline", "--corpus", str(generated / "corpus.jsonl"),
                  "--out", str(tmp_path / "km3")])
            == 1
        )
        assert "--k" in capsys.readouterr().err


class TestTruncatedCorpus:
    @pytest.mark.parametrize("suffix", [".dmrf", ".jsonl"])
    def test_every_reader_names_the_file_before_any_manifest(self, tmp_path, full_run, suffix, capsys):
        generated, _, run_dir, _ = full_run
        whole = generated / "corpus.jsonl"
        if suffix == ".dmrf":
            whole = tmp_path / "corpus.dmrf"
            convert_corpus(generated / "corpus.jsonl", whole)
        cut = tmp_path / f"cut{suffix}"
        cut.write_bytes(whole.read_bytes()[:-100])
        argv = {
            "background": ["background", "--corpus", str(cut)],
            "eval": ["eval", "--corpus", str(cut), "--assignments", str(run_dir / "assignments.tsv"),
                     "--gt", str(generated / "gt.jsonl")],
            "baseline": ["baseline", "--corpus", str(cut), "--k", "3"],
        }
        expected = "truncated" if suffix == ".dmrf" else "invalid JSON"
        capsys.readouterr()
        for name, args in argv.items():
            out = tmp_path / f"out_{name}{suffix}"
            assert main(args + ["--out", str(out)]) == 1, name
            err = capsys.readouterr().err
            assert err.startswith(f"error: {cut}: ") and err.count("\n") == 1, err
            assert expected in err
            assert not (out / "manifest.json").exists()


class TestCorpusNotUtf8:
    def test_background_and_eval_name_the_line_before_any_manifest(self, tmp_path, full_run, capsys):
        generated, _, run_dir, _ = full_run
        corpus = tmp_path / "bad.jsonl"
        lines = (generated / "corpus.jsonl").read_bytes().split(b"\n")
        bad = bytearray(lines[100])
        bad[7] = 0xFF
        lines[100] = bytes(bad)
        corpus.write_bytes(b"\n".join(lines))
        argv = {
            "background": ["background", "--corpus", str(corpus)],
            "eval": [
                "eval", "--corpus", str(corpus), "--assignments", str(run_dir / "assignments.tsv"),
                "--gt", str(generated / "gt.jsonl"),
            ],
        }
        capsys.readouterr()
        for name, args in argv.items():
            out = tmp_path / f"out_{name}"
            assert main(args + ["--out", str(out)]) == 1, name
            err = capsys.readouterr().err
            assert err == f"error: {corpus}: line 101: 'utf-8' codec can't decode byte 0xff in position 7: invalid start byte\n"
            assert not (out / "manifest.json").exists()


class TestCorruptLengths:
    """A corrupt length field is a one-line error naming the file, checked before anything is read."""

    def expect_error(self, argv, path, expected, out, capsys):
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
        assert expected in err
        assert not (out / "manifest.json").exists()

    def test_background_file_declaring_a_huge_dimension(self, tmp_path, full_run, capsys):
        generated, _, _, config_path = full_run
        d = 2**20
        bg = tmp_path / "bg.bin"
        bg.write_bytes(struct.pack("<4sI", b"DMBG", d) + bytes(8 * d))  # the whole mean, no covariance
        argv = [
            "discover", "--corpus", str(generated / "corpus.jsonl"), "--bg", str(bg),
            "--config", str(config_path), "--priors", str(generated / "priors.jsonl"),
        ]
        expected = f"truncated at byte {8 + 8 * d}: covariance needs {8 * d * d} bytes, got 0"
        self.expect_error(argv, bg, expected, tmp_path / "huge_run", capsys)

    def test_binary_corpus_declaring_a_huge_dimension(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.dmrf"
        corpus.write_bytes(struct.pack("<4sIII", b"DMRF", 1, 2**32 - 1, 1) + bytes(1000))
        argv = ["background", "--corpus", str(corpus)]
        self.expect_error(argv, corpus, "record 0 at offset 16: truncated", tmp_path / "bg", capsys)

    def test_binary_corpus_with_a_bad_byte_in_an_id(self, tmp_path, generated, capsys):
        corpus = tmp_path / "corpus.dmrf"
        convert_corpus(generated / "corpus.jsonl", corpus)
        data = bytearray(corpus.read_bytes())
        data[16] = 0xFF  # the first byte of record 0's region id
        corpus.write_bytes(bytes(data))
        argv = ["background", "--corpus", str(corpus)]
        self.expect_error(argv, corpus, "record 0: 'utf-8' codec can't decode byte 0xff", tmp_path / "bg", capsys)


def expect_one_line_error(argv, out, expected, capsys):
    """The subcommand exits 1 with exactly ``error: <expected>`` and writes no manifest."""
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert not (out / "manifest.json").exists()


def rewrite_line(src, dst, lineno, change):
    """Copy a JSON-lines file, with ``change`` applied to the object on line ``lineno``."""
    lines = src.read_text().split("\n")
    obj = json.loads(lines[lineno - 1])
    change(obj)
    lines[lineno - 1] = json.dumps(obj)
    dst.write_text("\n".join(lines))


HUGE = 10**400  # an integer literal no float64 can hold


class TestIntegerTooLargeForAFloat:
    @pytest.mark.parametrize("field", ["score", "box", "feature"])
    def test_corpus_value(self, tmp_path, generated, field, capsys):
        corpus = tmp_path / "corpus.jsonl"

        def change(obj):
            if field == "score":
                obj["score"] = HUGE
            else:
                obj[field][2] = HUGE

        rewrite_line(generated / "corpus.jsonl", corpus, 3, change)
        argv = ["background", "--corpus", str(corpus)]
        expected = f"{corpus}: line 3: int too large to convert to float"
        expect_one_line_error(argv, tmp_path / "bg", expected, capsys)

    def test_priors_score(self, tmp_path, full_run, capsys):
        generated, bg_dir, _, config_path = full_run
        priors = tmp_path / "priors.jsonl"
        rewrite_line(generated / "priors.jsonl", priors, 2, lambda obj: obj.update(score=HUGE))
        argv = [
            "discover", "--corpus", str(generated / "corpus.jsonl"), "--bg", str(bg_dir / "bg.bin"),
            "--config", str(config_path), "--priors", str(priors),
        ]
        expected = f"{priors}: line 2: int too large to convert to float"
        expect_one_line_error(argv, tmp_path / "run2", expected, capsys)

    def test_ground_truth_box(self, tmp_path, full_run, capsys):
        generated, _, run_dir, _ = full_run
        gt = tmp_path / "gt.jsonl"
        rewrite_line(generated / "gt.jsonl", gt, 4, lambda obj: obj["box"].__setitem__(0, HUGE))
        argv = [
            "eval", "--corpus", str(generated / "corpus.jsonl"),
            "--assignments", str(run_dir / "assignments.tsv"), "--gt", str(gt),
        ]
        expected = f"{gt}:4: bad ground-truth record: int too large to convert to float"
        expect_one_line_error(argv, tmp_path / "eval", expected, capsys)


def with_bad_byte(src, dst, lineno):
    """Copy a text file with byte 0xFF at position 1 of line ``lineno``."""
    lines = src.read_bytes().split(b"\n")
    lines[lineno - 1] = lines[lineno - 1][:1] + b"\xff" + lines[lineno - 1][2:]
    dst.write_bytes(b"\n".join(lines))
    return f"{dst}: line {lineno}: 'utf-8' codec can't decode byte 0xff in position 1: invalid start byte"


class TestTextInputNotUtf8:
    """Every text reader names the file and the line of a byte that is not UTF-8."""

    def test_ground_truth(self, tmp_path, full_run, capsys):
        generated, _, run_dir, _ = full_run
        expected = with_bad_byte(generated / "gt.jsonl", tmp_path / "gt.jsonl", 5)
        argv = [
            "eval", "--corpus", str(generated / "corpus.jsonl"),
            "--assignments", str(run_dir / "assignments.tsv"), "--gt", str(tmp_path / "gt.jsonl"),
        ]
        expect_one_line_error(argv, tmp_path / "eval", expected, capsys)

    def test_assignments(self, tmp_path, full_run, capsys):
        generated, _, run_dir, _ = full_run
        expected = with_bad_byte(run_dir / "assignments.tsv", tmp_path / "assignments.tsv", 7)
        argv = [
            "eval", "--corpus", str(generated / "corpus.jsonl"),
            "--assignments", str(tmp_path / "assignments.tsv"), "--gt", str(generated / "gt.jsonl"),
        ]
        expect_one_line_error(argv, tmp_path / "eval", expected, capsys)

    def test_config(self, tmp_path, full_run, capsys):
        generated, _, _, config_path = full_run
        expected = with_bad_byte(config_path, tmp_path / "config.txt", 2)
        argv = ["background", "--corpus", str(generated / "corpus.jsonl"), "--config", str(tmp_path / "config.txt")]
        expect_one_line_error(argv, tmp_path / "bg2", expected, capsys)

    def test_spec(self, tmp_path, spec_file, capsys):
        expected = with_bad_byte(spec_file, tmp_path / "bad_spec.txt", 3)
        argv = ["gen", "--spec", str(tmp_path / "bad_spec.txt")]
        expect_one_line_error(argv, tmp_path / "data2", expected, capsys)

    def test_stats(self, tmp_path, full_run, capsys):
        generated, _, run_dir, _ = full_run
        expected = with_bad_byte(run_dir / "stats.txt", tmp_path / "stats.txt", 4)
        argv = ["baseline", "--corpus", str(generated / "corpus.jsonl"), "--stats", str(tmp_path / "stats.txt")]
        expect_one_line_error(argv, tmp_path / "km", expected, capsys)


# Separators that str.splitlines breaks a line at, and "\n" does not.
SEPARATORS = ["\u2028", "\x85", "\r", "\u2029", "\x1c"]


@pytest.mark.parametrize("binary", [False, True])
def test_region_ids_with_line_separators_round_trip(tmp_path, binary, capsys):
    """``discover`` writes the ids it read, and ``eval`` and ``read_assignments`` read them back."""
    rng = np.random.default_rng(3)
    records, boxes = [], []
    for i in range(8):
        image = f"img{SEPARATORS[i % len(SEPARATORS)]}{i}"
        boxes.append(GtBox(image, BoundingBox(0.0, 0.0, 1.0, 1.0), f"c{i % 2}", False))
        for j in range(3):
            feature = rng.standard_normal(2) + (6.0 if i % 2 else -6.0)
            region_id = f"r{SEPARATORS[(i + j) % len(SEPARATORS)]}{i}_{j}"
            records.append(make_region(region_id, image, feature.astype(np.float32), box=BoundingBox(0.0, 0.0, 1.0, 1.0)))
    corpus = tmp_path / ("corpus.dmrf" if binary else "corpus.jsonl")
    (write_corpus_binary if binary else write_corpus_jsonl)(corpus, 2, records)
    write_gt(tmp_path / "gt.jsonl", gt_table_of(boxes))
    config = tmp_path / "config.txt"
    save_config(Config(d=2, init_mode="null", min_images_per_slot=1, rounds=1, tau_working=0.5), config)
    assert main(["background", "--corpus", str(corpus), "--out", str(tmp_path / "bg")]) == 0
    argv = [
        "discover", "--corpus", str(corpus), "--bg", str(tmp_path / "bg" / "bg.bin"),
        "--config", str(config), "--out", str(tmp_path / "run"),
    ]
    assert main(argv) == 0
    assignments = read_assignments(tmp_path / "run" / "assignments.tsv")
    assert sorted(assignments) == sorted(r.region_id for r in records)
    assert set(assignments.values()) != {"unassigned"}
    argv = [
        "eval", "--corpus", str(corpus), "--assignments", str(tmp_path / "run" / "assignments.tsv"),
        "--gt", str(tmp_path / "gt.jsonl"), "--min-images", "1", "--out", str(tmp_path / "eval"),
    ]
    assert main(argv) == 0


def test_key_values_with_line_separators_round_trip(tmp_path):
    values = {f"key{i}": f"a{separator}b" for i, separator in enumerate(SEPARATORS)}
    write_key_values(tmp_path / "values.txt", values)
    assert read_key_values(tmp_path / "values.txt") == values


@pytest.mark.parametrize("binary", [False, True])
@pytest.mark.parametrize("field, value", [("region_id", "r\t5"), ("gt_label", "c\n5")])
def test_ids_with_a_tab_or_newline_fail_before_any_manifest(tmp_path, binary, field, value, capsys):
    """``assignments.tsv`` cannot hold a region id or a (prior) label with a tab or a newline."""
    rng = np.random.default_rng(4)
    records = [
        make_region(f"r{i}", f"img{i // 3}", rng.standard_normal(2).astype(np.float32), score=0.95, gt_label="c")
        for i in range(12)
    ]
    suffix = ".dmrf" if binary else ".jsonl"
    write = write_corpus_binary if binary else write_corpus_jsonl
    write(tmp_path / f"corpus{suffix}", 2, records)
    assert main(["background", "--corpus", str(tmp_path / f"corpus{suffix}"), "--out", str(tmp_path / "bg")]) == 0
    bad = make_region(value if field == "region_id" else "r5", "img1", records[5].feature, score=0.95,
                      gt_label=value if field == "gt_label" else "c")
    target = tmp_path / f"{'corpus' if field == 'region_id' else 'priors'}_bad{suffix}"
    write(target, 2, records[:5] + [bad] + records[6:])
    corpus = target if field == "region_id" else tmp_path / f"corpus{suffix}"
    config = tmp_path / "config.txt"
    save_config(Config(d=2, min_images_per_slot=1, rounds=1), config)
    argv = [
        "discover", "--corpus", str(corpus), "--bg", str(tmp_path / "bg" / "bg.bin"),
        "--config", str(config), "--priors", str(target if field == "gt_label" else tmp_path / f"corpus{suffix}"),
    ]
    where = "record 5" if binary else "line 7"
    expected = f"{target}: {where}: {field} {value!r} contains a tab or a newline"
    expect_one_line_error(argv, tmp_path / "run", expected, capsys)


def box_text(box):
    return f"[{', '.join(str(float(v)) for v in box)}]"


@pytest.mark.parametrize("target", ["corpus.jsonl", "corpus.dmrf", "gt.jsonl"])
def test_box_coordinate_that_is_not_finite_fails_before_any_manifest(tmp_path, full_run, target, capsys):
    """json.loads reads Infinity and DMRF holds it; the IoU of such a box would be NaN."""
    generated, _, run_dir, _ = full_run
    bad = tmp_path / target
    source = generated / ("gt.jsonl" if target == "gt.jsonl" else "corpus.jsonl")
    box = json.loads(source.read_text().split("\n")[3])["box"]
    box[2] = float("inf")
    if target == "corpus.dmrf":
        convert_corpus(source, bad)
        data = bytearray(bad.read_bytes())
        record_size = 3 * ID_FIELD_BYTES + 4 * (5 + 8)
        struct.pack_into("<f", data, BINARY_HEADER.size + 2 * record_size + 2 * ID_FIELD_BYTES + 8, np.inf)
        bad.write_bytes(bytes(data))
    else:
        rewrite_line(source, bad, 4, lambda obj: obj["box"].__setitem__(2, float("inf")))
    fault = f"box {box_text(box)} must have finite coordinates with x2 > x1 and y2 > y1"
    if target == "gt.jsonl":
        argv = [
            "eval", "--corpus", str(generated / "corpus.jsonl"),
            "--assignments", str(run_dir / "assignments.tsv"), "--gt", str(bad),
        ]
        expect_one_line_error(argv, tmp_path / "eval", f"{bad}:4: bad ground-truth record: {fault}", capsys)
    else:
        where = "record 2" if target == "corpus.dmrf" else "line 4"
        argv = ["background", "--corpus", str(bad)]
        expect_one_line_error(argv, tmp_path / "bg2", f"{bad}: {where}: {fault}", capsys)


class TestComputedChecksComeBeforeAnyManifest:
    """A check that needs the inputs read or computed still fails before the manifest is written."""

    def test_background_of_fewer_than_two_regions(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        write_corpus_jsonl(corpus, 2, [make_region("r0", "i0", [0.0, 1.0])])
        argv = ["background", "--corpus", str(corpus)]
        expect_one_line_error(argv, tmp_path / "bg", "background estimation needs >= 2 samples, got 1", capsys)

    def discover(self, tmp_path, full_run, corpus=None, **config):
        generated, bg_dir, _, _ = full_run
        save_config(Config(d=8, **config), tmp_path / "config2.txt")
        return [
            "discover", "--corpus", str(corpus or generated / "corpus.jsonl"), "--bg", str(bg_dir / "bg.bin"),
            "--config", str(tmp_path / "config2.txt"), "--priors", str(generated / "priors.jsonl"),
        ]

    def test_discover_on_an_empty_corpus(self, tmp_path, full_run, capsys):
        write_corpus_jsonl(tmp_path / "empty.jsonl", 8, [])
        argv = self.discover(tmp_path, full_run, corpus=tmp_path / "empty.jsonl")
        expect_one_line_error(argv, tmp_path / "run2", "cannot split an empty image-id list", capsys)

    def test_discover_with_more_prior_classes_than_the_slot_cap(self, tmp_path, full_run, capsys):
        argv = self.discover(tmp_path, full_run, slot_cap=1)
        expect_one_line_error(argv, tmp_path / "run2", "2 prior classes exceed the slot cap 1", capsys)

    @pytest.mark.parametrize("k", [0, 10**6])
    def test_baseline_k_out_of_range(self, tmp_path, generated, k, capsys):
        corpus = generated / "corpus.jsonl"
        expected = f"k={k} exceeds the number of records ({len(load_corpus(corpus))})" if k else "k must be >= 1"
        expect_one_line_error(["baseline", "--corpus", str(corpus), "--k", str(k)], tmp_path / "km", expected, capsys)


class TestValueErrorsNameTheFile:
    @pytest.mark.parametrize("text, message", [
        ("d = 8\nrounds = two\n", ":2: key 'rounds': invalid literal for int() with base 10: 'two'"),
        ("d = 8\nrounds = 0\n", ": rounds must be >= 1"),
        ("d = 8\nl2_normalize = yes\n", ":2: key 'l2_normalize': expected true/false, got 'yes'"),
        ("rounds = 1\n", ": Config file must define 'd'"),
    ], ids=["not_an_int", "out_of_range", "not_a_bool", "missing_key"])
    def test_config(self, tmp_path, generated, text, message, capsys):
        config = tmp_path / "config.txt"
        config.write_text(text)
        argv = ["background", "--corpus", str(generated / "corpus.jsonl"), "--config", str(config)]
        expect_one_line_error(argv, tmp_path / "bg", f"{config}{message}", capsys)

    def test_config_of_another_dimension(self, tmp_path, generated, capsys):
        """``ingest_corpus`` refuses it, naming the corpus."""
        config, corpus = tmp_path / "config.txt", generated / "corpus.jsonl"
        save_config(Config(d=4), config)
        argv = ["background", "--corpus", str(corpus), "--config", str(config)]
        expect_one_line_error(argv, tmp_path / "bg", f"{corpus}: corpus dimension 8 != configured dimension 4", capsys)

    def test_priors_of_another_dimension(self, tmp_path, full_run, capsys):
        """The priors' header is checked as ``ingest_corpus`` checks the corpus's; ``whiten`` named no file."""
        generated, bg_dir, _, config_path = full_run
        priors = tmp_path / "priors_d4.jsonl"
        write_corpus_jsonl(priors, 4, [make_region("p0", "img0", [0.0, 0.0, 0.0, 1.0], score=0.99, gt_label="c0")])
        argv = [
            "discover", "--corpus", str(generated / "corpus.jsonl"), "--bg", str(bg_dir / "bg.bin"),
            "--config", str(config_path), "--priors", str(priors),
        ]
        expected = f"{priors}: corpus dimension 4 != configured dimension 8"
        expect_one_line_error(argv, tmp_path / "run2", expected, capsys)

    @pytest.mark.parametrize("text, message", [
        ("images = two\n", ":4: key 'images': invalid literal for int() with base 10: 'two'"),
        ("images = 0\n", ": images must be >= 1"),
        ("", ": SynthSpec file must define 'images'"),
    ], ids=["not_an_int", "out_of_range", "missing_key"])
    def test_spec(self, tmp_path, text, message, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text("d = 4\nn_known = 1\nn_unknown = 1\n" + text)
        expect_one_line_error(["gen", "--spec", str(spec)], tmp_path / "data", f"{spec}{message}", capsys)

    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize("subcommand", [["background"], ["baseline", "--k", "2"]])
    def test_corpus_declaring_no_dimension(self, tmp_path, generated, binary, subcommand, capsys):
        """A header with d = 0 once reached ``Config(d=0)``, whose error names no file."""
        corpus = tmp_path / ("corpus.dmrf" if binary else "corpus.jsonl")
        if binary:
            convert_corpus(generated / "corpus.jsonl", corpus)
            data = bytearray(corpus.read_bytes())
            struct.pack_into("<I", data, 8, 0)
            corpus.write_bytes(bytes(data))
            expected = f"{corpus}: dimension 0 is not positive"
        else:
            lines = (generated / "corpus.jsonl").read_text().split("\n")
            corpus.write_text("\n".join(['{"d": 0, "version": 1}'] + lines[1:]))
            expected = f"{corpus}: line 1: dimension 0 is not positive"
        expect_one_line_error(subcommand + ["--corpus", str(corpus)], tmp_path / "out", expected, capsys)

    def test_stats(self, tmp_path, generated, capsys):
        stats = tmp_path / "stats.txt"
        stats.write_text("clusters_final = 2.5\n")
        argv = ["baseline", "--corpus", str(generated / "corpus.jsonl"), "--stats", str(stats)]
        expected = f"{stats}: clusters_final: invalid literal for int() with base 10: '2.5'"
        expect_one_line_error(argv, tmp_path / "km", expected, capsys)


class TestCarriageReturns:
    """``assignments.tsv`` reads back what the program wrote, and no label can end a line in "\\r"."""

    def test_a_crlf_assignments_file_scores_as_the_original(self, tmp_path, full_run):
        generated, _, run_dir, _ = full_run
        assert "\tunassigned\n" in (run_dir / "assignments.tsv").read_text()
        crlf = tmp_path / "assignments.tsv"
        crlf.write_bytes((run_dir / "assignments.tsv").read_bytes().replace(b"\n", b"\r\n"))
        for name, assignments in (("lf", run_dir / "assignments.tsv"), ("crlf", crlf)):
            argv = [
                "eval", "--corpus", str(generated / "corpus.jsonl"), "--assignments", str(assignments),
                "--gt", str(generated / "gt.jsonl"), "--out", str(tmp_path / name),
            ]
            assert main(argv) == 0
        assert (tmp_path / "crlf" / "metrics.txt").read_bytes() == (tmp_path / "lf" / "metrics.txt").read_bytes()

    def test_gt_overlap_with_a_tab_in_a_class_name_fails_before_any_manifest(self, tmp_path, full_run, capsys):
        """The class name would become a prior label that ``assignments.tsv`` cannot hold."""
        generated, bg_dir, _, _ = full_run
        lines = (generated / "gt.jsonl").read_text().split("\n")
        lineno = next(i for i, line in enumerate(lines, 1) if '"known_flag":true' in line)
        gt = tmp_path / "gt.jsonl"
        rewrite_line(generated / "gt.jsonl", gt, lineno, lambda obj: obj.update(class_name="known\t00"))
        config = tmp_path / "gt_config.txt"
        save_config(Config(d=8, min_images_per_slot=3, rounds=2, rng_seed=3, init_mode="gt_overlap"), config)
        argv = [
            "discover", "--corpus", str(generated / "corpus.jsonl"), "--bg", str(bg_dir / "bg.bin"),
            "--config", str(config), "--gt", str(gt),
        ]
        expected = (
            f"{gt}:{lineno}: bad ground-truth record: class_name 'known\\t00' "
            "contains a tab, a newline or a carriage return"
        )
        expect_one_line_error(argv, tmp_path / "bad_run", expected, capsys)

    def test_a_prior_label_with_a_carriage_return_fails_before_any_manifest(self, tmp_path, full_run, capsys):
        generated, bg_dir, _, config_path = full_run
        priors = tmp_path / "priors.jsonl"
        rewrite_line(generated / "priors.jsonl", priors, 3, lambda obj: obj.update(gt_label="known_00\r"))
        argv = [
            "discover", "--corpus", str(generated / "corpus.jsonl"), "--bg", str(bg_dir / "bg.bin"),
            "--config", str(config_path), "--priors", str(priors),
        ]
        expected = f"{priors}: line 3: gt_label 'known_00\\r' contains a carriage return"
        expect_one_line_error(argv, tmp_path / "bad_run", expected, capsys)


class TestEveryOptionChangesTheRun:
    def test_every_option_is_read_by_its_handler(self):
        """An option whose value no handler reads would be accepted and do nothing."""
        parser = build_parser()
        subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
        unread = {}
        for name, sub in subcommands.items():
            source = inspect.getsource(sub.get_default("handler"))
            unread[name] = [a.dest for a in sub._actions if a.dest != "help" and f"args.{a.dest}" not in source]
        assert unread == {name: [] for name in subcommands}

    VALID = {
        "background": ["background", "--corpus", "corpus.jsonl"],
        "discover": ["discover", "--corpus", "corpus.jsonl", "--bg", "bg.bin", "--config", "config.txt"],
        "eval": ["eval", "--corpus", "corpus.jsonl", "--assignments", "assignments.tsv", "--gt", "gt.jsonl"],
        "baseline": ["baseline", "--corpus", "corpus.jsonl", "--k", "3"],
    }

    @pytest.mark.parametrize("subcommand, option", [
        ("background", ["--seed", "5"]),
        ("eval", ["--seed", "7"]),
        ("eval", ["--config", "config.txt"]),
        ("baseline", ["--config", "config.txt"]),
        ("discover", ["--seed", "3"]),
    ], ids=["background-seed", "eval-seed", "eval-config", "baseline-config", "discover-seed"])
    def test_a_removed_option_is_a_usage_error(self, tmp_path, subcommand, option, capsys):
        out = tmp_path / "out"
        argv = self.VALID[subcommand] + ["--out", str(out)]
        build_parser().parse_args(argv)  # the same command line without the option parses
        with pytest.raises(SystemExit) as exc:
            main(argv + option)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
        assert not out.exists()


class TestDiscoverRefusesAnInputItsModeIgnores:
    """An input the init mode would not read is refused before the manifest, not listed in it."""

    @pytest.mark.parametrize("mode", ["gt_overlap", "null"])
    def test_priors_outside_det_scores(self, tmp_path, full_run, mode, capsys):
        generated, bg_dir, _, _ = full_run
        config = tmp_path / "config2.txt"
        save_config(Config(d=8, rounds=2, rng_seed=3, init_mode=mode), config)
        argv = [
            "discover", "--corpus", str(generated / "corpus.jsonl"), "--bg", str(bg_dir / "bg.bin"),
            "--config", str(config), "--priors", str(generated / "priors.jsonl"),
        ] + (["--gt", str(generated / "gt.jsonl")] if mode == "gt_overlap" else [])
        expected = f"--priors is read only in init_mode=det_scores, not init_mode={mode}"
        expect_one_line_error(argv, tmp_path / "run2", expected, capsys)
        assert not (tmp_path / "run2").exists()

    @pytest.mark.parametrize("mode", ["det_scores", "null"])
    def test_gt_outside_gt_overlap(self, tmp_path, full_run, mode, capsys):
        generated, bg_dir, _, _ = full_run
        config = tmp_path / "config2.txt"
        save_config(Config(d=8, rounds=2, rng_seed=3, init_mode=mode), config)
        argv = [
            "discover", "--corpus", str(generated / "corpus.jsonl"), "--bg", str(bg_dir / "bg.bin"),
            "--config", str(config), "--gt", str(generated / "gt.jsonl"),
        ] + (["--priors", str(generated / "priors.jsonl")] if mode == "det_scores" else [])
        expected = f"--gt is read only in init_mode=gt_overlap, not init_mode={mode}"
        expect_one_line_error(argv, tmp_path / "run2", expected, capsys)
        assert not (tmp_path / "run2").exists()


class TestEvalThresholds:
    @pytest.mark.parametrize("thresholds, bad", [
        ("0", "0.0"), ("-1", "-1.0"), ("nan", "nan"), ("1.5", "1.5"), ("inf", "inf"), ("0.5,0", "0.0"),
    ])
    def test_a_threshold_outside_zero_to_one_fails_before_any_output(self, tmp_path, full_run, thresholds, bad,
                                                                    capsys):
        """At t <= 0 a region with IoU 0 would count as a hit; NaN would score nothing."""
        generated, _, run_dir, _ = full_run
        argv = [
            "eval", "--corpus", str(generated / "corpus.jsonl"), "--assignments", str(run_dir / "assignments.tsv"),
            "--gt", str(generated / "gt.jsonl"), "--thresholds", thresholds,
        ]
        expect_one_line_error(argv, tmp_path / "eval", f"--thresholds must lie in (0, 1], got {bad}", capsys)
        assert not (tmp_path / "eval").exists()

    def test_a_threshold_of_one_is_scored(self, tmp_path, full_run):
        generated, _, run_dir, _ = full_run
        argv = [
            "eval", "--corpus", str(generated / "corpus.jsonl"), "--assignments", str(run_dir / "assignments.tsv"),
            "--gt", str(generated / "gt.jsonl"), "--thresholds", "1", "--out", str(tmp_path / "eval"),
        ]
        assert main(argv) == 0
        assert "auc_1.0" in read_key_values(tmp_path / "eval" / "metrics.txt")


class TestEvalFloors:
    """``--purity-floor`` must be a fraction and ``--min-images`` a count of at least one image."""

    def argv(self, full_run, *options):
        generated, _, run_dir, _ = full_run
        return [
            "eval", "--corpus", str(generated / "corpus.jsonl"), "--assignments", str(run_dir / "assignments.tsv"),
            "--gt", str(generated / "gt.jsonl"), *options,
        ]

    @pytest.mark.parametrize("value", ["nan", "-0.1", "1.5", "inf"])
    def test_a_purity_floor_outside_zero_to_one_fails_before_any_output(self, tmp_path, full_run, value, capsys):
        """No purity compares >= NaN, so a NaN floor would report no class discovered."""
        expected = f"--purity-floor must lie in [0, 1], got {float(value)}"
        expect_one_line_error(self.argv(full_run, "--purity-floor", value), tmp_path / "eval", expected, capsys)
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_min_images_below_one_fails_before_any_output(self, tmp_path, full_run, value, capsys):
        expected = f"--min-images must be at least 1, got {value}"
        expect_one_line_error(self.argv(full_run, "--min-images", value), tmp_path / "eval", expected, capsys)
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("floor, min_images", [("0", "1"), ("1", "1")])
    def test_the_boundaries_are_scored(self, tmp_path, full_run, floor, min_images):
        out = tmp_path / "eval"
        assert main(self.argv(full_run, "--purity-floor", floor, "--min-images", min_images, "--out", str(out))) == 0
        assert "n_discovered" in read_key_values(out / "metrics.txt")
        params = json.loads((out / "manifest.json").read_text())["params"]
        assert (params["purity_floor"], params["min_images"]) == (float(floor), int(min_images))


class TestBaselineClusterCount:
    def test_stats_with_k_is_refused(self, tmp_path, full_run, capsys):
        """With --k given the stats file would not be read, so it is refused rather than listed."""
        generated, _, run_dir, _ = full_run
        argv = [
            "baseline", "--corpus", str(generated / "corpus.jsonl"), "--k", "5", "--stats", str(run_dir / "stats.txt"),
        ]
        expect_one_line_error(argv, tmp_path / "km", "--stats is read only without --k", capsys)
        assert not (tmp_path / "km").exists()

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_a_clusters_final_below_one_names_the_stats_file(self, tmp_path, generated, value, capsys):
        """A run that keeps no semantic slot writes clusters_final = 0."""
        stats = tmp_path / "stats.txt"
        stats.write_text(f"clusters_final = {value}\n")
        argv = ["baseline", "--corpus", str(generated / "corpus.jsonl"), "--stats", str(stats)]
        expected = f"{stats}: clusters_final must be at least 1, got {value}"
        expect_one_line_error(argv, tmp_path / "km", expected, capsys)


def test_a_bad_gen_seed_is_blamed_on_the_option(tmp_path, spec_file, capsys):
    expected = "--seed -1: seed must be non-negative"
    expect_one_line_error(["gen", "--spec", str(spec_file), "--seed", "-1"], tmp_path / "data", expected, capsys)


def sha256_of(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestManifestInputs:
    """``inputs`` names exactly the files the subcommand read, each with its sha256; ``params`` the rest."""

    def run(self, monkeypatch, argv, out):
        """The manifest, and the files opened for reading before the output directory was prepared."""
        read, prepared = set(), []
        real_open, real_prepare = builtins.open, dualmem.cli._prepare_out_dir

        def spy_open(file, mode="r", *args, **kwargs):
            if not prepared and not any(flag in mode for flag in "wax+"):
                read.add(Path(file).resolve())
            return real_open(file, mode, *args, **kwargs)

        def spy_prepare(*args):
            prepared.append(True)
            return real_prepare(*args)

        with monkeypatch.context() as patch:
            patch.setattr(builtins, "open", spy_open)
            patch.setattr(dualmem.cli, "_prepare_out_dir", spy_prepare)
            assert main(argv + ["--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for entry in manifest["inputs"].values():
            assert entry["sha256"] == sha256_of(entry["path"])
        assert {Path(entry["path"]).resolve() for entry in manifest["inputs"].values()} == read
        return manifest

    def test_every_subcommand(self, tmp_path, spec_file, full_run, monkeypatch):
        generated, bg_dir, run_dir, config_path = full_run
        corpus, gt = generated / "corpus.jsonl", generated / "gt.jsonl"
        gt_config = tmp_path / "gt_config.txt"
        save_config(Config(d=8, min_images_per_slot=3, rounds=2, rng_seed=3, init_mode="gt_overlap"), gt_config)
        discover = ["discover", "--corpus", str(corpus), "--bg", str(bg_dir / "bg.bin")]
        runs = {
            "gen": (["gen", "--spec", str(spec_file), "--seed", "6"], {"spec": spec_file}, {"seed": 6}),
            "background": (["background", "--corpus", str(corpus)], {"corpus": corpus}, {"threads": 1}),
            "background --config": (
                ["background", "--corpus", str(corpus), "--config", str(config_path), "--threads", "2"],
                {"corpus": corpus, "config": config_path}, {"threads": 2},
            ),
            "discover gt_overlap": (
                discover + ["--config", str(gt_config), "--gt", str(gt)],
                {"corpus": corpus, "bg": bg_dir / "bg.bin", "config": gt_config, "gt": gt}, {},
            ),
            "eval": (
                ["eval", "--corpus", str(corpus), "--assignments", str(run_dir / "assignments.tsv"), "--gt", str(gt)],
                {"corpus": corpus, "assignments": run_dir / "assignments.tsv", "gt": gt},
                {"thresholds": [0.5, 0.2], "purity_floor": 0.5, "min_images": 5},
            ),
            "baseline --k": (["baseline", "--corpus", str(corpus), "--k", "4"], {"corpus": corpus}, {"k": 4, "seed": 0}),
            "baseline --stats": (
                ["baseline", "--corpus", str(corpus), "--stats", str(run_dir / "stats.txt"), "--seed", "2"],
                {"corpus": corpus, "stats": run_dir / "stats.txt"},
                {"k": int(read_key_values(run_dir / "stats.txt")["clusters_final"]), "seed": 2},
            ),
        }
        for index, (name, (argv, inputs, params)) in enumerate(runs.items()):
            manifest = self.run(monkeypatch, argv, tmp_path / f"out{index}")
            assert manifest["subcommand"] == argv[0], name
            assert {key: entry["path"] for key, entry in manifest["inputs"].items()} == {
                key: str(path) for key, path in inputs.items()
            }, name
            assert manifest["params"] == params, name

    def test_discover_hashes_the_priors_it_read(self, tmp_path, full_run, monkeypatch):
        """Two priors files that differ give different manifests, as they give different runs."""
        generated, bg_dir, _, config_path = full_run
        other = tmp_path / "priors.jsonl"
        rewrite_line(generated / "priors.jsonl", other, 2, lambda obj: obj.update(score=0.5))
        hashes = []
        for index, priors in enumerate((generated / "priors.jsonl", other)):
            argv = [
                "discover", "--corpus", str(generated / "corpus.jsonl"), "--bg", str(bg_dir / "bg.bin"),
                "--config", str(config_path), "--priors", str(priors),
            ]
            manifest = self.run(monkeypatch, argv, tmp_path / f"run{index}")
            assert sorted(manifest["inputs"]) == ["bg", "config", "corpus", "priors"]
            hashes.append(manifest["inputs"]["priors"]["sha256"])
        assert hashes[0] != hashes[1]


class TestOneHeaderParsePerRead:
    """Each corpus or priors file a subcommand reads has its header parsed once (``background`` without
    ``--config`` twice: once for the dimension its config takes, once to read the records)."""

    @pytest.mark.parametrize("binary", [False, True])
    def test_header_parses(self, tmp_path, full_run, monkeypatch, binary):
        generated, bg_dir, run_dir, config_path = full_run
        corpus = generated / "corpus.jsonl"
        if binary:
            corpus = tmp_path / "corpus.dmrf"
            convert_corpus(generated / "corpus.jsonl", corpus)
        priors = generated / "priors.jsonl"
        parses = Counter()
        for name in ("_jsonl_header", "_binary_header"):
            def counted(source, path, header=getattr(dualmem.corpus, name)):
                parses[Path(path)] += 1
                return header(source, path)

            monkeypatch.setattr(dualmem.corpus, name, counted)
        runs = [
            (["discover", "--corpus", str(corpus), "--bg", str(bg_dir / "bg.bin"), "--config", str(config_path),
              "--priors", str(priors)], {corpus: 1, priors: 1}),
            (["eval", "--corpus", str(corpus), "--assignments", str(run_dir / "assignments.tsv"),
              "--gt", str(generated / "gt.jsonl")], {corpus: 1}),
            (["baseline", "--corpus", str(corpus), "--stats", str(run_dir / "stats.txt")], {corpus: 1}),
            (["baseline", "--corpus", str(corpus), "--k", "3"], {corpus: 1}),
            (["background", "--corpus", str(corpus)], {corpus: 2}),
            (["background", "--corpus", str(corpus), "--config", str(config_path)], {corpus: 1}),
        ]
        for index, (argv, expected) in enumerate(runs):
            parses.clear()
            assert main(argv + ["--out", str(tmp_path / f"out{index}")]) == 0, argv[0]
            assert parses == Counter(expected), argv
