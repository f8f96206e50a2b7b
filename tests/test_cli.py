import json
import struct

import numpy as np
import pytest

from dualmem.cli import main
from dualmem.config import Config, save_config
from dualmem.corpus import convert_corpus, write_corpus_jsonl
from dualmem.reporting import read_assignments, read_key_values
from dualmem.stats import BackgroundStats
from dualmem.synth import SynthSpec, save_spec

from conftest import make_region


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
