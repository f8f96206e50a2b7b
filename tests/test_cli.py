import argparse
import ast
import builtins
import hashlib
import inspect
import json
import os
import struct
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import dualmem.cli
import dualmem.corpus
from dualmem.cli import build_parser, main
from dualmem.config import Config, load_config, save_config
from dualmem.corpus import (
    BINARY_HEADER, ID_FIELD_BYTES, convert_corpus, ingest_corpus, ingest_features, load_corpus, write_corpus_binary,
    write_corpus_jsonl,
)
from dualmem.evaluation import write_gt
from dualmem.pipeline import build_priors, run_rounds, start_discovery
from dualmem.records import BoundingBox
from dualmem.reporting import read_assignments, read_key_values, write_key_values
from dualmem.stats import BackgroundStats
from dualmem.synth import SynthSpec, save_spec

from conftest import GtBox, gt_table_of, make_region

SUBCOMMANDS = ("gen", "background", "discover", "eval", "baseline")


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

    def test_refuses_nonempty_dir_without_force(self, tmp_path, spec_file):
        out = tmp_path / "busy"
        out.mkdir()
        (out / "junk.txt").write_text("hello")
        assert main(["gen", "--spec", str(spec_file), "--out", str(out)]) == 1


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_every_subcommand_refuses_a_nonempty_directory_before_any_output(tmp_path, spec_file, full_run, subcommand,
                                                                          capsys):
    generated, bg_dir, run_dir, config_path = full_run
    corpus = str(generated / "corpus.jsonl")
    argv = {
        "gen": ["gen", "--spec", str(spec_file)],
        "background": ["background", "--corpus", corpus],
        "discover": ["discover", "--corpus", corpus, "--bg", str(bg_dir / "bg.bin"), "--config", str(config_path),
                     "--priors", str(generated / "priors.jsonl")],
        "eval": ["eval", "--corpus", corpus, "--assignments", str(run_dir / "assignments.tsv"),
                 "--gt", str(generated / "gt.jsonl")],
        "baseline": ["baseline", "--corpus", corpus, "--stats", str(run_dir / "stats.txt")],
    }[subcommand]
    out = tmp_path / "busy"
    out.mkdir()
    (out / "junk.txt").write_text("hello")
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: output directory '{out}' is not empty\n"
    assert [path.name for path in out.iterdir()] == ["junk.txt"]
    assert main(argv + ["--out", str(tmp_path / "fresh")]) == 0  # the same command line into a new directory


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
        assignments = read_assignments(out / "assignments.tsv", load_corpus(generated / "corpus.jsonl").region_ids)
        labels = {v for v in assignments if v != "unassigned"}
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
        assignments = read_assignments(out / "assignments.tsv", load_corpus(generated / "corpus.jsonl").region_ids)
        assert len(set(assignments)) == 5

    def test_baseline_k_from_stats(self, tmp_path, full_run):
        generated, _, run_dir, _ = full_run
        stats = read_key_values(run_dir / "stats.txt")
        out = tmp_path / "km2"
        assert (
            main(["baseline", "--corpus", str(generated / "corpus.jsonl"),
                  "--stats", str(run_dir / "stats.txt"), "--out", str(out)])
            == 0
        )
        assignments = read_assignments(out / "assignments.tsv", load_corpus(generated / "corpus.jsonl").region_ids)
        assert len(set(assignments)) == int(stats["clusters_final"])

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


DEEP = "[" * 5000 + "]" * 5000  # nested past the recursion limit
RECURSION = "maximum recursion depth exceeded while decoding a JSON array from a unicode string"


def with_deep_line(src, dst, lineno, change=lambda line: DEEP):
    """Copy a JSON-lines file with line ``lineno`` replaced by ``change(line)``."""
    lines = src.read_text().split("\n")
    lines[lineno - 1] = change(lines[lineno - 1])
    dst.write_text("\n".join(lines))


class TestDeepNesting:
    """A line nested past the recursion limit is a one-line error naming the line, with no output directory."""

    def expect(self, argv, out, expected, capsys):
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert not out.exists()

    def test_corpus_header(self, tmp_path, generated, capsys):
        corpus = tmp_path / "corpus.jsonl"
        with_deep_line(generated / "corpus.jsonl", corpus, 1)
        expected = f"{corpus}: line 1: bad header record: {RECURSION}"
        self.expect(["background", "--corpus", str(corpus)], tmp_path / "bg", expected, capsys)

    def test_corpus_record(self, tmp_path, full_run, capsys):
        generated, _, run_dir, _ = full_run
        corpus = tmp_path / "corpus.jsonl"

        def nested(line):  # an extra key holds the nesting, so the line is otherwise a good record
            return line.replace('"image_id"', f'"x":{DEEP},"image_id"', 1)

        with_deep_line(generated / "corpus.jsonl", corpus, 4, nested)
        argv = ["eval", "--corpus", str(corpus), "--assignments", str(run_dir / "assignments.tsv"),
                "--gt", str(generated / "gt.jsonl")]
        self.expect(argv, tmp_path / "eval", f"{corpus}: line 4: {RECURSION}", capsys)

    def test_priors(self, tmp_path, full_run, capsys):
        generated, bg_dir, _, config_path = full_run
        priors = tmp_path / "priors.jsonl"
        with_deep_line(generated / "priors.jsonl", priors, 3)
        argv = [
            "discover", "--corpus", str(generated / "corpus.jsonl"), "--bg", str(bg_dir / "bg.bin"),
            "--config", str(config_path), "--priors", str(priors),
        ]
        self.expect(argv, tmp_path / "run2", f"{priors}: line 3: {RECURSION}", capsys)

    def test_ground_truth(self, tmp_path, full_run, capsys):
        generated, _, run_dir, _ = full_run
        gt = tmp_path / "gt.jsonl"
        with_deep_line(generated / "gt.jsonl", gt, 2)
        argv = ["eval", "--corpus", str(generated / "corpus.jsonl"), "--assignments", str(run_dir / "assignments.tsv"),
                "--gt", str(gt)]
        self.expect(argv, tmp_path / "eval", f"{gt}:2: bad ground-truth record: {RECURSION}", capsys)


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
    # The reader refuses an id the corpus lacks or a repeat, so one line per region lists every id.
    assignments = read_assignments(tmp_path / "run" / "assignments.tsv", [r.region_id for r in records])
    assert (tmp_path / "run" / "assignments.tsv").read_bytes().count(b"\n") == len(records)
    assert set(assignments) != {"unassigned"}
    argv = [
        "eval", "--corpus", str(corpus), "--assignments", str(tmp_path / "run" / "assignments.tsv"),
        "--gt", str(tmp_path / "gt.jsonl"), "--min-images", "1", "--out", str(tmp_path / "eval"),
    ]
    assert main(argv) == 0


def test_eval_metrics_do_not_depend_on_the_order_of_the_assignments_lines(tmp_path):
    """Image means sum in corpus row order: 1e16 - 1e16 + 1 is 1, but 1 - 1e16 + 1e16 is 0.

    So image i0's mean points toward the class-a images in row order, and would point
    toward the class-b images if the lines, read in reverse, set the order of the sum.
    """
    unit = BoundingBox(0.0, 0.0, 1.0, 1.0)
    features = [[1e16, 0.0], [-1e16, 0.0], [1.0, 0.1]]
    records = [make_region(f"i0_r{j}", "i0", feature, box=unit) for j, feature in enumerate(features)]
    boxes = [GtBox("i0", unit, "a", False)]
    for i in range(11):
        for name, feature in (("a", [1.0, 0.01 * i]), ("b", [0.01 * i, 1.0])):
            records.append(make_region(f"{name}{i}_r0", f"{name}{i}", feature, box=unit))
            boxes.append(GtBox(f"{name}{i}", unit, name, False))
    corpus = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(corpus, 2, records)
    write_gt(tmp_path / "gt.jsonl", gt_table_of(boxes))
    lines = [f"{r.region_id}\tc0\n" for r in records]
    (tmp_path / "rows.tsv").write_text("".join(lines))
    (tmp_path / "reversed.tsv").write_text("".join(reversed(lines)))
    for name in ("rows", "reversed"):
        argv = [
            "eval", "--corpus", str(corpus), "--assignments", str(tmp_path / f"{name}.tsv"),
            "--gt", str(tmp_path / "gt.jsonl"), "--out", str(tmp_path / name),
        ]
        assert main(argv) == 0
    assert (tmp_path / "reversed" / "metrics.txt").read_bytes() == (tmp_path / "rows" / "metrics.txt").read_bytes()


def test_only_discover_loads_scipy(tmp_path, spec_file):
    """scipy serves only ``discover`` (whitening), so no other subcommand pays for importing it; merge labels its
    components without ``scipy.sparse``."""
    script = (
        "import json, sys\n"
        "from dualmem.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(name for name in sys.modules if name.split('.')[0] == 'scipy')]))\n"
    )
    src = str(Path(dualmem.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def scipy_modules(*argv):
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        code, loaded = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0, proc.stderr
        return loaded

    save_config(Config(d=8, min_images_per_slot=3, rounds=1, rng_seed=3), tmp_path / "config.txt")
    assert scipy_modules("gen", "--spec", str(spec_file), "--out", "data") == []
    assert scipy_modules("background", "--corpus", "data/corpus.jsonl", "--out", "bg") == []
    discover = scipy_modules(
        "discover", "--corpus", "data/corpus.jsonl", "--bg", "bg/bg.bin", "--config", "config.txt",
        "--priors", "data/priors.jsonl", "--out", "run",
    )
    assert "scipy.linalg" in discover and not [name for name in discover if name.startswith("scipy.sparse")]
    eval_argv = ["--corpus", "data/corpus.jsonl", "--assignments", "run/assignments.tsv", "--gt", "data/gt.jsonl"]
    assert scipy_modules("eval", *eval_argv, "--out", "eval") == []
    assert scipy_modules("baseline", "--corpus", "data/corpus.jsonl", "--stats", "run/stats.txt", "--out", "km") == []


NUMPY_BLAS = "numpy._core._multiarray_umath" if int(np.__version__.split(".")[0]) >= 2 else "numpy.core._multiarray_umath"
SCIPY_BLAS = "scipy.linalg._fblas"


def openblas_threads(module):
    """The thread-count getter and setter of the OpenBLAS that the extension ``module`` links, or None. It imports
    what it needs itself, so that its source also runs alone in a child process."""
    import ctypes
    import importlib

    lib = ctypes.CDLL(importlib.import_module(module).__file__)
    for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", "")):
        if hasattr(lib, f"{prefix}get_num_threads{suffix}"):
            return getattr(lib, f"{prefix}get_num_threads{suffix}"), getattr(lib, f"{prefix}set_num_threads{suffix}")
    return None


@pytest.fixture()
def two_blas_threads():
    """numpy's and scipy's OpenBLAS set to two threads, as a caller might, and given their counts back after the
    test; yields the two getters."""
    pools = [openblas_threads(module) for module in (NUMPY_BLAS, SCIPY_BLAS)]
    if None in pools:
        pytest.skip("no OpenBLAS thread-count getter resolves in this numpy or scipy")
    saved = [get() for get, _ in pools]
    for _, set_threads in pools:
        set_threads(2)
    assert [get() for get, _ in pools] == [2, 2]
    yield tuple(get for get, _ in pools)
    for (_, set_threads), count in zip(pools, saved):
        set_threads(count)


def observe_blas_threads(monkeypatch, getters, *names):
    """Wrap each named function in ``dualmem.cli`` so that it records (numpy's, scipy's) thread count when called."""
    seen = {}

    def wrap(name, fn):
        def observed(*args, **kwargs):
            seen[name] = tuple(get() for get in getters)
            return fn(*args, **kwargs)
        return observed

    for name in names:
        monkeypatch.setattr(dualmem.cli, name, wrap(name, getattr(dualmem.cli, name)))
    return seen


def test_every_step_but_baseline_runs_on_one_blas_thread(tmp_path, spec_file, two_blas_threads, monkeypatch):
    """The CLI runs gen, background, discover and eval with each OpenBLAS on one thread and baseline, whose K-means
    product gains from threads, at the caller's count; after each step the caller's count is back."""
    seen = observe_blas_threads(
        monkeypatch, two_blas_threads, "generate", "estimate_background", "run_rounds", "evaluate_run", "kmeans_baseline",
    )
    save_config(Config(d=8, min_images_per_slot=3, rounds=1, rng_seed=3), tmp_path / "config.txt")
    data = tmp_path / "data"
    corpus = str(data / "corpus.jsonl")
    for argv in (
        ["gen", "--spec", str(spec_file)],
        ["background", "--corpus", corpus],
        ["discover", "--corpus", corpus, "--bg", str(tmp_path / "background" / "bg.bin"),
         "--config", str(tmp_path / "config.txt"), "--priors", str(data / "priors.jsonl")],
        ["eval", "--corpus", corpus, "--assignments", str(tmp_path / "discover" / "assignments.tsv"),
         "--gt", str(data / "gt.jsonl")],
        ["baseline", "--corpus", corpus, "--k", "3"],
    ):
        assert main([*argv, "--out", str(data if argv[0] == "gen" else tmp_path / argv[0])]) == 0
        assert tuple(get() for get in two_blas_threads) == (2, 2)
    assert seen == {
        "generate": (1, 1), "estimate_background": (1, 1), "run_rounds": (1, 1), "evaluate_run": (1, 1),
        "kmeans_baseline": (2, 2),
    }


def test_an_error_inside_the_pinned_step_gives_the_caller_its_blas_threads_back(
    tmp_path, full_run, two_blas_threads, monkeypatch, capsys,
):
    generated, bg_dir, _, config_path = full_run
    seen = observe_blas_threads(monkeypatch, two_blas_threads, "start_discovery")

    def fail(state, out_dir):
        raise ValueError("no rounds")

    monkeypatch.setattr(dualmem.cli, "run_rounds", fail)
    argv = [
        "discover", "--corpus", str(generated / "corpus.jsonl"), "--bg", str(bg_dir / "bg.bin"),
        "--config", str(config_path), "--priors", str(generated / "priors.jsonl"), "--out", str(tmp_path / "failed"),
    ]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: no rounds\n"
    assert seen == {"start_discovery": (1, 1)}
    assert tuple(get() for get in two_blas_threads) == (2, 2)


def test_discover_pins_the_scipy_it_loads_before_its_first_solve(tmp_path, full_run):
    """In a fresh process scipy is not loaded when ``main`` pins the BLAS; ``discover`` loads it after reading its
    inputs and pins its OpenBLAS before whitening, so rounds run with scipy's pool on one thread too."""
    generated, bg_dir, _, config_path = full_run
    script = inspect.getsource(openblas_threads) + (
        "import json, sys\n"
        "import dualmem.cli\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        "seen, run_rounds = [], dualmem.cli.run_rounds\n"
        "def observed(*args):\n"
        "    seen.extend(pool[0]() if pool else None for pool in map(openblas_threads, sys.argv[1:3]))\n"
        "    return run_rounds(*args)\n"
        "dualmem.cli.run_rounds = observed\n"
        "code = dualmem.cli.main(sys.argv[3:])\n"
        "print(json.dumps([code, seen]))\n"
    )
    src = str(Path(dualmem.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [
        "discover", "--corpus", str(generated / "corpus.jsonl"), "--bg", str(bg_dir / "bg.bin"),
        "--config", str(config_path), "--priors", str(generated / "priors.jsonl"), "--out", str(tmp_path / "fresh"),
    ]
    proc = subprocess.run(
        [sys.executable, "-c", script, NUMPY_BLAS, SCIPY_BLAS, *argv], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    code, seen = json.loads(proc.stdout.splitlines()[-1])
    if None in seen:
        pytest.skip("no OpenBLAS thread-count getter resolves in this numpy or scipy")
    assert code == 0 and seen == [1, 1]


@pytest.mark.parametrize("name, value", [
    ("_OPENBLAS_NAMES", (("no_such_openblas_", ""),)),  # no getter or setter resolves
    ("_BLAS_MODULES", ("json", "no.such.module")),  # a module that is not a shared object, and one not loaded
])
def test_the_blas_pin_leaves_a_blas_it_cannot_reach_as_it_is(tmp_path, generated, two_blas_threads, monkeypatch,
                                                             name, value):
    monkeypatch.setattr(dualmem.cli, name, value)
    seen = observe_blas_threads(monkeypatch, two_blas_threads, "estimate_background")
    assert main(["background", "--corpus", str(generated / "corpus.jsonl"), "--out", str(tmp_path / "bg")]) == 0
    assert seen == {"estimate_background": (2, 2)}
    assert tuple(get() for get in two_blas_threads) == (2, 2)


LIBRARY_RUN = """
import json, sys
from pathlib import Path
import scipy.linalg
from dualmem.config import load_config
from dualmem.corpus import ingest_corpus, ingest_features, load_corpus
from dualmem.evaluation import evaluate_run, load_gt
from dualmem.pipeline import build_priors, run_rounds, start_discovery
from dualmem.reporting import read_assignments, write_curve_csv, write_key_values
from dualmem.stats import BackgroundStats

config = load_config("config.txt")
corpus = ingest_corpus("data/corpus.jsonl", config)
priors = build_priors(config, detections=ingest_features("data/priors.jsonl", config), corpus=corpus)
run_rounds(start_discovery(corpus, BackgroundStats.load("bg/bg.bin"), config, priors), "lib_run")
regions = load_corpus("data/corpus.jsonl")
report = evaluate_run(read_assignments("lib_run/assignments.tsv", regions.region_ids), regions, load_gt("data/gt.jsonl"))
Path("lib_eval").mkdir()
write_key_values("lib_eval/metrics.txt", report.metrics)
for threshold, (points, total) in report.curves.items():
    write_curve_csv(f"lib_eval/curve_{threshold}.csv", points, total)
print(json.dumps([None if pool is None else pool[0]() for pool in map(openblas_threads, sys.argv[1:])]))
"""


def test_discover_is_byte_identical_across_blas_thread_counts(tmp_path, capsys):
    """OpenBLAS splits a matrix-vector product over its threads once the matrix is large enough, a few hundred
    slots at d = 32. 400 images under a 400-slot cap fill working memory past that size. The CLI's ``discover`` and
    ``eval`` run on one BLAS thread; the same run made through the library on two threads must write the same
    bytes."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS runs at most one thread per available CPU")
    spec = SynthSpec(
        d=32, n_known=5, n_unknown=10, images=400, n_background_per_image=3, classes_per_image=3,
        regions_per_class_per_image=2, separation=8.0, seed=20,
    )
    save_spec(spec, tmp_path / "spec.txt")
    save_config(Config(d=32, rounds=2, slot_cap=400, rng_seed=9), tmp_path / "config.txt")
    data = tmp_path / "data"
    assert main(["gen", "--spec", str(tmp_path / "spec.txt"), "--out", str(data)]) == 0
    assert main(["background", "--corpus", str(data / "corpus.jsonl"), "--out", str(tmp_path / "bg")]) == 0
    assert main([
        "discover", "--corpus", str(data / "corpus.jsonl"), "--bg", str(tmp_path / "bg" / "bg.bin"),
        "--config", str(tmp_path / "config.txt"), "--priors", str(data / "priors.jsonl"), "--out", str(tmp_path / "run"),
    ]) == 0
    assert main([
        "eval", "--corpus", str(data / "corpus.jsonl"), "--assignments", str(tmp_path / "run" / "assignments.tsv"),
        "--gt", str(data / "gt.jsonl"), "--out", str(tmp_path / "eval"),
    ]) == 0
    capsys.readouterr()
    src = str(Path(dualmem.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", inspect.getsource(openblas_threads) + LIBRARY_RUN, NUMPY_BLAS, SCIPY_BLAS],
        cwd=tmp_path, env=dict(env, OPENBLAS_NUM_THREADS="2"), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    threads = json.loads(proc.stdout.splitlines()[-1])
    if None in threads:
        pytest.skip("no OpenBLAS thread-count getter resolves in this numpy or scipy")
    assert threads == [2, 2]

    def files(out):
        return {
            path.relative_to(out).as_posix(): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file() and path.name != "manifest.json"
        }

    assert "round_2/checkpoint.bin" in files(tmp_path / "run") and files(tmp_path / "run") == files(tmp_path / "lib_run")
    assert "curve_0.5.csv" in files(tmp_path / "eval") and files(tmp_path / "eval") == files(tmp_path / "lib_eval")
    assert int(read_key_values(tmp_path / "run" / "stats.txt")["round_1_rejected"]) > 0  # the cap binds


def test_an_output_path_that_is_a_file_is_refused(tmp_path, spec_file, capsys):
    out = tmp_path / "taken"
    out.write_text("kept\n")
    assert main(["gen", "--spec", str(spec_file), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: output path '{out}' exists and is not a directory\n"
    assert out.read_text() == "kept\n"


def test_blank_lines_in_assignments_are_skipped(tmp_path, full_run):
    generated, _, run_dir, _ = full_run
    region_ids = load_corpus(generated / "corpus.jsonl").region_ids
    padded = tmp_path / "assignments.tsv"
    padded.write_text("\n" + (run_dir / "assignments.tsv").read_text().replace("\n", "\n\r\n"))
    labels = read_assignments(run_dir / "assignments.tsv", region_ids)
    assert read_assignments(padded, region_ids) == labels and set(labels) != {"unassigned"}


def test_blank_and_comment_lines_in_a_config_are_skipped(tmp_path):
    config = tmp_path / "config.txt"
    config.write_text("# a run config\n\nd = 8\n   \n  # rounds = 5\nrounds = 3\n")
    assert load_config(config) == Config(d=8, rounds=3)


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


SPEC_HEAD = "d = 4\nn_known = 1\nn_unknown = 1\n"


class TestValueErrorsNameTheFile:
    @pytest.mark.parametrize("text, message", [
        ("d = 8\nrounds = two\n", ":2: key 'rounds': invalid literal for int() with base 10: 'two'"),
        ("d = 8\nrounds = 0\n", ": rounds must be >= 1"),
        ("d = 8\nl2_normalize = yes\n", ":2: key 'l2_normalize': expected true/false, got 'yes'"),
        ("rounds = 1\n", ": Config file must define 'd'"),
        ("d = 8\ntau_semantic = nan\n", ": tau_semantic must be finite"),
        ("d = 8\ntau_semantic = -inf\n", ": tau_semantic must be finite"),
        ("d = 8\nmerge_edge_threshold = nan\n", ": merge_edge_threshold must be finite"),
        ("d = 8\nmerge_edge_threshold = inf\n", ": merge_edge_threshold must be finite"),
        ("d = 8\nridge_lambda = nan\n", ": ridge_lambda must be finite and > 0"),
        ("d = 8\nridge_lambda = inf\n", ": ridge_lambda must be finite and > 0"),
        ("d = 8\nrounds = 2\nrounds = 1\n", ":3: key 'rounds' already set on line 2"),
        ("d = 0\n", ": d must be >= 1"),
        ("d = 8\nn_proposals_per_image = 0\n", ": n_proposals_per_image must be >= 1"),
        ("d = 8\nmin_images_per_slot = 0\n", ": min_images_per_slot must be >= 1"),
        ("d = 8\nrng_seed = -1\n", ": rng_seed must be an unsigned 64-bit integer"),
        ("d = 8\nrng_seed = 18446744073709551616\n", ": rng_seed must be an unsigned 64-bit integer"),
    ], ids=[
        "not_an_int", "out_of_range", "not_a_bool", "missing_key", "tau_semantic_nan", "tau_semantic_inf",
        "merge_edge_threshold_nan", "merge_edge_threshold_inf", "ridge_lambda_nan", "ridge_lambda_inf",
        "repeated_key", "d_zero", "n_proposals_per_image_zero", "min_images_per_slot_zero", "rng_seed_negative",
        "rng_seed_past_u64",
    ])
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
        (SPEC_HEAD + "images = two\n", ":4: key 'images': invalid literal for int() with base 10: 'two'"),
        (SPEC_HEAD + "images = 0\n", ": images must be >= 1"),
        (SPEC_HEAD, ": SynthSpec file must define 'images'"),
        (SPEC_HEAD + "images = 2\nseparation = nan\n", ": separation and std must be positive and finite"),
        (SPEC_HEAD + "images = 2\nseparation = inf\n", ": separation and std must be positive and finite"),
        (SPEC_HEAD + "images = 2\nstd = nan\n", ": separation and std must be positive and finite"),
        (SPEC_HEAD + "images = 2\nanisotropy = nan\n", ": anisotropy must be positive and finite"),
        (SPEC_HEAD + "images = 2\nanisotropy = inf\n", ": anisotropy must be positive and finite"),
        (SPEC_HEAD + "images = 2\nanisotropy = 0\n", ": anisotropy must be positive and finite"),
        (SPEC_HEAD + "images = 2\nanisotropy = -1\n", ": anisotropy must be positive and finite"),
        (SPEC_HEAD + "images = 2\nd = 5\n", ":5: key 'd' already set on line 1"),
        # With no class, d = 0 once wrote a corpus that ``background`` refuses.
        ("d = 0\nn_known = 0\nn_unknown = 0\nimages = 2\n", ": d must be >= 1"),
        ("d = -2\nn_known = 0\nn_unknown = 0\nimages = 2\n", ": d must be >= 1"),
        (SPEC_HEAD + "images = 2\nn_background_per_image = -1\n", ": class and background counts must be non-negative"),
        (SPEC_HEAD + "images = 2\nclasses_per_image = 3\n", ": classes_per_image must be in [1, n_known + n_unknown]"),
        (SPEC_HEAD + "images = 2\nclasses_per_image = 0\n", ": classes_per_image must be in [1, n_known + n_unknown]"),
        (SPEC_HEAD + "images = 2\nclasses_per_image = 1\nregions_per_class_per_image = 0\n",
         ": regions_per_class_per_image must be >= 1"),
    ], ids=[
        "not_an_int", "out_of_range", "missing_key", "separation_nan", "separation_inf", "std_nan",
        "anisotropy_nan", "anisotropy_inf", "anisotropy_zero", "anisotropy_negative", "repeated_key",
        "d_zero", "d_negative", "background_negative", "classes_per_image_above_classes", "classes_per_image_zero",
        "regions_per_class_zero",
    ])
    def test_spec(self, tmp_path, text, message, capsys):
        """``gen`` refuses the spec before it makes the output directory."""
        spec = tmp_path / "spec.txt"
        spec.write_text(text)
        expect_one_line_error(["gen", "--spec", str(spec)], tmp_path / "data", f"{spec}{message}", capsys)
        assert not (tmp_path / "data").exists()

    def test_assignments_listing_a_region_twice(self, tmp_path, full_run, capsys):
        """The later label once replaced the earlier one silently; the program never writes a repeat."""
        generated, _, run_dir, _ = full_run
        lines = (run_dir / "assignments.tsv").read_text().split("\n")
        region_id = lines[2].split("\t")[0]
        assignments = tmp_path / "assignments.tsv"
        assignments.write_text("\n".join(lines[:6] + [f"{region_id}\tother"] + lines[6:]))
        argv = [
            "eval", "--corpus", str(generated / "corpus.jsonl"), "--assignments", str(assignments),
            "--gt", str(generated / "gt.jsonl"),
        ]
        expected = f"{assignments}:7: region id {region_id!r} already listed on line 3"
        expect_one_line_error(argv, tmp_path / "eval", expected, capsys)

    def test_assignments_listing_a_region_the_corpus_lacks(self, tmp_path, full_run, capsys):
        """Ids from another corpus once scored as a run that discovered nothing, and exited 0."""
        generated, _, run_dir, _ = full_run
        lines = (run_dir / "assignments.tsv").read_text().split("\n")
        lines[4] = "elsewhere_r1\t" + lines[4].split("\t")[1]
        assignments = tmp_path / "assignments.tsv"
        assignments.write_text("\n".join(lines))
        corpus = generated / "corpus.jsonl"
        argv = ["eval", "--corpus", str(corpus), "--assignments", str(assignments), "--gt", str(generated / "gt.jsonl")]
        expected = f"{assignments}:5: region id 'elsewhere_r1' is not in the corpus"
        expect_one_line_error(argv, tmp_path / "eval", expected, capsys)

    def test_assignments_naming_a_stray_id_before_a_repeated_one(self, tmp_path, full_run, capsys):
        """The first bad line in file order is the one reported, as in every other reader."""
        generated, _, run_dir, _ = full_run
        lines = (run_dir / "assignments.tsv").read_text().split("\n")
        lines[3] = "elsewhere_r1\t" + lines[3].split("\t")[1]
        lines.insert(6, lines[1])
        assignments = tmp_path / "assignments.tsv"
        assignments.write_text("\n".join(lines))
        argv = [
            "eval", "--corpus", str(generated / "corpus.jsonl"), "--assignments", str(assignments),
            "--gt", str(generated / "gt.jsonl"),
        ]
        expected = f"{assignments}:4: region id 'elsewhere_r1' is not in the corpus"
        expect_one_line_error(argv, tmp_path / "eval", expected, capsys)

    def test_assignments_line_that_is_not_an_id_and_a_label(self, tmp_path, full_run, capsys):
        generated, _, run_dir, _ = full_run
        lines = (run_dir / "assignments.tsv").read_text().split("\n")
        lines[2] = lines[2].replace("\t", " ")
        assignments = tmp_path / "assignments.tsv"
        assignments.write_text("\n".join(lines))
        argv = [
            "eval", "--corpus", str(generated / "corpus.jsonl"), "--assignments", str(assignments),
            "--gt", str(generated / "gt.jsonl"),
        ]
        expect_one_line_error(argv, tmp_path / "eval", f"{assignments}:3: expected 'region_id<TAB>label'", capsys)

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

    def test_stats_without_clusters_final(self, tmp_path, generated, capsys):
        stats = tmp_path / "stats.txt"
        stats.write_text("rounds = 2\n")
        argv = ["baseline", "--corpus", str(generated / "corpus.jsonl"), "--stats", str(stats)]
        expect_one_line_error(argv, tmp_path / "km", f"'{stats}' has no clusters_final entry", capsys)

    def test_stats(self, tmp_path, generated, capsys):
        stats = tmp_path / "stats.txt"
        stats.write_text("clusters_final = 2.5\n")
        argv = ["baseline", "--corpus", str(generated / "corpus.jsonl"), "--stats", str(stats)]
        expected = f"{stats}: clusters_final: invalid literal for int() with base 10: '2.5'"
        expect_one_line_error(argv, tmp_path / "km", expected, capsys)

    @pytest.mark.parametrize("text, message", [
        ("clusters_final = 2\nclusters_final = 3\n", ":2: key 'clusters_final' already set on line 1"),
        ("clusters_final = 2\nrounds\n", ":2: expected 'key = value', got 'rounds'"),
    ], ids=["repeated_key", "no_equals_sign"])
    def test_stats_line(self, tmp_path, generated, text, message, capsys):
        """``stats.txt`` goes through the config's parser; a bare line once read as a key with an empty value."""
        stats = tmp_path / "stats.txt"
        stats.write_text(text)
        argv = ["baseline", "--corpus", str(generated / "corpus.jsonl"), "--stats", str(stats)]
        expect_one_line_error(argv, tmp_path / "km", f"{stats}{message}", capsys)


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


class TestReservedPriorLabels:
    """A known class may not take a label the run writes for its own rows: its rows would read back as
    unassigned, or share a cluster with a discovered slot."""

    def discover(self, tmp_path, full_run, mode, priors=None, gt=None):
        generated, bg_dir, _, _ = full_run
        config = tmp_path / "config2.txt"
        save_config(Config(d=8, min_images_per_slot=3, rounds=2, rng_seed=3, init_mode=mode), config)
        inputs = ["--priors", str(priors)] if mode == "det_scores" else ["--gt", str(gt)]
        return [
            "discover", "--corpus", str(generated / "corpus.jsonl"), "--bg", str(bg_dir / "bg.bin"),
            "--config", str(config), *inputs,
        ]

    @pytest.mark.parametrize("label", ["unassigned", "disc_1_0"])
    def test_det_scores(self, tmp_path, full_run, label, capsys):
        generated = full_run[0]
        priors = tmp_path / "priors.jsonl"
        priors.write_text((generated / "priors.jsonl").read_text().replace('"known_00"', json.dumps(label)))
        argv = self.discover(tmp_path, full_run, "det_scores", priors=priors)
        expected = f"prior class '{label}' takes a label reserved for unassigned and discovered rows"
        expect_one_line_error(argv, tmp_path / "run2", expected, capsys)
        assert not (tmp_path / "run2").exists()

    @pytest.mark.parametrize("label", ["unassigned", "disc_2_13"])
    def test_gt_overlap(self, tmp_path, full_run, label, capsys):
        generated = full_run[0]
        gt = tmp_path / "gt.jsonl"
        gt.write_text((generated / "gt.jsonl").read_text().replace('"known_01"', json.dumps(label)))
        argv = self.discover(tmp_path, full_run, "gt_overlap", gt=gt)
        expected = f"prior class '{label}' takes a label reserved for unassigned and discovered rows"
        expect_one_line_error(argv, tmp_path / "run2", expected, capsys)
        assert not (tmp_path / "run2").exists()


def test_l2_normalize_puts_det_scores_priors_in_the_corpus_feature_space(tmp_path, generated):
    """``discover`` reads the priors as the library does, normalized like the corpus, and known classes match."""
    config = Config(d=8, min_images_per_slot=3, rounds=2, rng_seed=3, l2_normalize=True)
    save_config(config, tmp_path / "config.txt")
    corpus, priors = generated / "corpus.jsonl", generated / "priors.jsonl"
    base = ["--corpus", str(corpus), "--config", str(tmp_path / "config.txt")]
    assert main(["background", *base, "--out", str(tmp_path / "bg")]) == 0
    argv = ["discover", *base, "--bg", str(tmp_path / "bg" / "bg.bin"), "--priors", str(priors)]
    assert main(argv + ["--out", str(tmp_path / "run")]) == 0
    stats = read_key_values(tmp_path / "run" / "stats.txt")
    assert int(stats["round_1_known_match"]) > 0 and int(stats["round_2_known_match"]) > 0

    table = ingest_corpus(corpus, config)
    detections = ingest_features(priors, config)
    assert np.allclose(np.linalg.norm(detections.features, axis=1), 1.0, rtol=0, atol=1e-12)
    state = start_discovery(table, BackgroundStats.load(tmp_path / "bg" / "bg.bin"), config,
                            build_priors(config, detections=detections))
    run = run_rounds(state, tmp_path / "library")
    assert (tmp_path / "library" / "stats.txt").read_bytes() == (tmp_path / "run" / "stats.txt").read_bytes()
    assert run.stats["known_match"] == int(stats["known_match"])


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
        "gen": ["gen", "--spec", "spec.txt"],
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
        *[(subcommand, ["--force"]) for subcommand in SUBCOMMANDS],
    ], ids=["background-seed", "eval-seed", "eval-config", "baseline-config", "discover-seed",
            *[f"{subcommand}-force" for subcommand in SUBCOMMANDS]])
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

    @pytest.mark.parametrize("thresholds, repeated", [("0.5,0.50,0.5", "0.5"), ("0.2,0.5,.2", "0.2"), ("1,1.0", "1.0")])
    def test_a_repeated_threshold_fails_before_any_output(self, tmp_path, full_run, thresholds, repeated, capsys):
        """Thresholds are compared as floats; a repeat would write one curve but be listed twice in the manifest."""
        generated, _, run_dir, _ = full_run
        argv = [
            "eval", "--corpus", str(generated / "corpus.jsonl"), "--assignments", str(run_dir / "assignments.tsv"),
            "--gt", str(generated / "gt.jsonl"), "--thresholds", thresholds,
        ]
        expect_one_line_error(argv, tmp_path / "eval", f"--thresholds lists {repeated} more than once", capsys)
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("thresholds", ["", ",", ",,"])
    def test_no_threshold_fails_before_any_output(self, tmp_path, full_run, thresholds, capsys):
        generated, _, run_dir, _ = full_run
        argv = [
            "eval", "--corpus", str(generated / "corpus.jsonl"), "--assignments", str(run_dir / "assignments.tsv"),
            "--gt", str(generated / "gt.jsonl"), "--thresholds", thresholds,
        ]
        expect_one_line_error(argv, tmp_path / "eval", "--thresholds must list at least one IoU threshold", capsys)
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


def test_the_package_namespace_binds_only_the_version():
    """Each name has one import route, its module; ``cli`` reads ``__version__`` from the package."""
    tree = ast.parse(Path(dualmem.cli.__file__).with_name("__init__.py").read_text(encoding="utf-8"))
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):  # the docstring
            bound += [name.id for name in ast.walk(node) if isinstance(name, ast.Name)]
    assert bound == ["__version__"]
