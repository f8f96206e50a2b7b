"""What the read paths build and how the binary readers fail.

The subcommands read a corpus into one region table and ground truth into one
box table, ``gen`` writes its files from such tables, and none builds a
``RegionRecord`` or ``BoundingBox`` per region or box; ground truth has no record type.
Every binary reader rejects a corrupt or overlong file with a ValueError that
starts with the file name, and the CLI turns that into one ``error:`` line
before it writes a manifest.
"""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dualmem import records
from dualmem.cli import main
from dualmem.config import Config, save_config
from dualmem.consolidation import consolidate
from dualmem.corpus import BINARY_HEADER, ID_FIELD_BYTES, convert_corpus, open_corpus
from dualmem.memory import DualMemory
from dualmem.records import BoundingBox, RegionRecord
from dualmem.stats import BackgroundStats
from dualmem.synth import SynthSpec, generate, save_spec

from conftest import identity_bg, make_region, table_of


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A small generated corpus in both formats, its background, a config and a checkpoint."""
    root = tmp_path_factory.mktemp("inputs")
    spec = SynthSpec(
        d=4, n_known=1, n_unknown=2, images=24, n_background_per_image=1,
        classes_per_image=2, regions_per_class_per_image=1, separation=8.0, std=1.0, seed=2,
    )
    paths = generate(spec, root / "data")
    paths["dmrf"] = root / "data" / "corpus.dmrf"
    convert_corpus(paths["corpus"], paths["dmrf"])
    config = Config(d=4, rounds=1, min_images_per_slot=1, rng_seed=1)
    paths["config"] = root / "config.txt"
    save_config(config, paths["config"])
    assert main(["background", "--corpus", str(paths["corpus"]), "--out", str(root / "bg")]) == 0
    paths["bg"] = root / "bg" / "bg.bin"
    paths["assignments"] = root / "assignments.tsv"
    paths["assignments"].write_text("")

    mem = DualMemory.initialize(
        identity_bg(4), config, {"cat": table_of([make_region("p0", "ip", [8.0, 0, 0, 0])])}
    )
    rng = np.random.default_rng(0)
    mem.attach(table_of([make_region(f"r{i}", f"i{i}", rng.standard_normal(4) * 3) for i in range(6)]))
    mem.process_image(range(6))
    consolidate(mem)
    paths["checkpoint"] = root / "checkpoint.bin"
    mem.save_checkpoint(paths["checkpoint"])
    return paths, config


# ---------------------------------------------------------------------------
# No per-region objects on the read path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("corpus_key", ["corpus", "dmrf"])
def test_subcommands_build_no_region_records_or_boxes(tmp_path, inputs, corpus_key, monkeypatch):
    paths, config = inputs
    corpus = str(paths[corpus_key])
    gt_overlap = tmp_path / "gt_overlap.txt"
    save_config(dataclasses.replace(config, init_mode="gt_overlap"), gt_overlap)
    built = []

    def refuse(self):
        raise AssertionError("a RegionRecord was built on the read path")

    assert not hasattr(records, "GroundTruthBox")
    monkeypatch.setattr(RegionRecord, "__post_init__", refuse)
    monkeypatch.setattr(BoundingBox, "__post_init__", lambda self: built.append(self))
    run = tmp_path / "run"
    spec = tmp_path / "spec.txt"
    save_spec(SynthSpec(d=4, n_known=1, n_unknown=2, images=6, classes_per_image=2, seed=2), spec)
    steps = {
        "gen": ["gen", "--spec", str(spec), "--out", str(tmp_path / "gen")],
        "background": ["background", "--corpus", corpus, "--threads", "2", "--out", str(tmp_path / "bg")],
        "discover": [
            "discover", "--corpus", corpus, "--bg", str(paths["bg"]), "--config", str(paths["config"]),
            "--priors", str(paths["priors"]), "--out", str(run),
        ],
        "discover gt_overlap": [
            "discover", "--corpus", corpus, "--bg", str(paths["bg"]), "--config", str(gt_overlap),
            "--gt", str(paths["gt"]), "--out", str(tmp_path / "run_gt"),
        ],
        "baseline": ["baseline", "--corpus", corpus, "--k", "3", "--out", str(tmp_path / "km")],
        "eval": [
            "eval", "--corpus", corpus, "--assignments", str(run / "assignments.tsv"),
            "--gt", str(paths["gt"]), "--out", str(tmp_path / "eval"),
        ],
    }
    for name, argv in steps.items():
        assert main(argv) == 0, name
        assert built == [], name


# ---------------------------------------------------------------------------
# Trailing bytes and named errors
# ---------------------------------------------------------------------------

def expect_cli_error(argv, path, out, capsys, expected=""):
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
    assert expected in err
    assert not (out / "manifest.json").exists()


def test_background_file_with_trailing_bytes(tmp_path, inputs, capsys):
    paths, _ = inputs
    bg = tmp_path / "bg.bin"
    data = paths["bg"].read_bytes()
    bg.write_bytes(data + bytes(16))
    with pytest.raises(ValueError, match=f"^{bg}: 16 trailing bytes: expected {len(data)} bytes, got {len(data) + 16}$"):
        BackgroundStats.load(bg)
    argv = [
        "discover", "--corpus", str(paths["corpus"]), "--bg", str(bg), "--config", str(paths["config"]),
        "--priors", str(paths["priors"]),
    ]
    expect_cli_error(argv, bg, tmp_path / "run", capsys, "trailing bytes")


def test_binary_corpus_with_trailing_bytes(tmp_path, inputs, capsys):
    paths, _ = inputs
    corpus = tmp_path / "corpus.dmrf"
    data = paths["dmrf"].read_bytes()
    corpus.write_bytes(data + bytes(200))
    expected = f"200 trailing bytes: 72 records of d=4 take {len(data)} bytes, the file has {len(data) + 200}"
    with pytest.raises(ValueError, match=f"^{corpus}: {expected}$"):
        open_corpus(corpus)
    expect_cli_error(["background", "--corpus", str(corpus)], corpus, tmp_path / "bg", capsys, expected)


def test_checkpoint_with_trailing_bytes(tmp_path, inputs):
    paths, config = inputs
    checkpoint = tmp_path / "checkpoint.bin"
    data = paths["checkpoint"].read_bytes()
    checkpoint.write_bytes(data + bytes(70))
    with pytest.raises(ValueError, match=f"^{checkpoint}: 70 trailing bytes: expected {len(data)} bytes, got {len(data) + 70}$"):
        DualMemory.load_checkpoint(checkpoint, config)


def test_bad_magic_names_the_file(tmp_path, inputs, capsys):
    paths, config = inputs
    bg = tmp_path / "bg.bin"
    bg.write_bytes(b"XXXX" + paths["bg"].read_bytes()[4:])
    argv = [
        "discover", "--corpus", str(paths["corpus"]), "--bg", str(bg), "--config", str(paths["config"]),
        "--priors", str(paths["priors"]),
    ]
    expect_cli_error(argv, bg, tmp_path / "run", capsys, "bad magic b'XXXX' in background stats file")
    checkpoint = tmp_path / "checkpoint.bin"
    checkpoint.write_bytes(b"XXXX" + paths["checkpoint"].read_bytes()[4:])
    with pytest.raises(ValueError, match=f"^{checkpoint}: bad magic"):
        DualMemory.load_checkpoint(checkpoint, config)


@pytest.mark.parametrize(
    "field, value, message",
    [
        (4, 3, "unsupported checkpoint version 3"),
        (8, 5, "checkpoint dimension 5 != configured dimension 4"),
    ],
)
def test_checkpoint_header_errors_name_the_file(tmp_path, inputs, field, value, message):
    paths, config = inputs
    data = bytearray(paths["checkpoint"].read_bytes())
    data[field: field + 4] = struct.pack("<I", value)
    checkpoint = tmp_path / "checkpoint.bin"
    checkpoint.write_bytes(bytes(data))
    with pytest.raises(ValueError, match=f"^{checkpoint}: {message}$"):
        DualMemory.load_checkpoint(checkpoint, config)
    with pytest.raises(ValueError, match=f"^{paths['checkpoint']}: checkpoint was written under a different configuration$"):
        DualMemory.load_checkpoint(paths["checkpoint"], Config(d=4, rounds=2))


def test_checkpoint_string_that_is_not_utf8_names_file_and_offset(tmp_path, inputs):
    paths, config = inputs
    data = bytearray(paths["checkpoint"].read_bytes())
    d = 4
    first_label = 12 + 32 + 16 + 8 * d + 8 * d * d + 8 + 4 + 8  # header .. slot count, slot id
    assert data[first_label: first_label + 4] == struct.pack("<I", 3)  # the prior slot's label, "cat"
    data[first_label + 4] = 0xFF
    checkpoint = tmp_path / "checkpoint.bin"
    checkpoint.write_bytes(bytes(data))
    with pytest.raises(ValueError, match=f"^{checkpoint}: string at byte {first_label + 4}: 'utf-8' codec"):
        DualMemory.load_checkpoint(checkpoint, config)


@pytest.mark.parametrize("value", [1e200, np.inf, np.nan])
def test_checkpoint_slot_mean_that_cannot_score_names_the_slot(tmp_path, inputs, value):
    paths, config = inputs
    data = bytearray(paths["checkpoint"].read_bytes())
    d = 4
    first_white = 12 + 32 + 16 + 8 * d + 8 * d * d + 8 + 4 + 8 + 4 + 3  # header .. slot id, "cat"
    data[first_white: first_white + 8] = struct.pack("<d", value)
    checkpoint = tmp_path / "checkpoint.bin"
    checkpoint.write_bytes(bytes(data))
    with pytest.raises(ValueError, match=f"^{checkpoint}: semantic slot 0 has a mean that cannot be scored$"):
        DualMemory.load_checkpoint(checkpoint, config)


def test_checkpoint_slot_mean_holding_a_signalling_nan_names_the_slot(tmp_path, inputs):
    """A signalling NaN makes |m|^2 warn "invalid", which must not escape as a RuntimeWarning."""
    paths, config = inputs
    data = bytearray(paths["checkpoint"].read_bytes())
    d = 4
    first_white = 12 + 32 + 16 + 8 * d + 8 * d * d + 8 + 4 + 8 + 4 + 3  # header .. slot id, "cat"
    data[first_white: first_white + 8] = struct.pack("<Q", 0x7FF0_0000_0000_0001)
    checkpoint = tmp_path / "checkpoint.bin"
    checkpoint.write_bytes(bytes(data))
    with pytest.raises(ValueError, match=f"^{checkpoint}: semantic slot 0 has a mean that cannot be scored$"):
        DualMemory.load_checkpoint(checkpoint, config)


@pytest.mark.parametrize("patch", ["next_slot_id", "repeated slot id"])
def test_checkpoint_slot_ids_out_of_order_name_the_slot(tmp_path, inputs, patch):
    """Slot ids must increase and stay below next_slot_id, or new slots would reuse them."""
    paths, config = inputs
    data = bytearray(paths["checkpoint"].read_bytes())
    d = 4
    slot_count = 12 + 32 + 16 + 8 * d + 8 * d * d + 8  # header, config hash, counters, background
    first_id = slot_count + 4
    second_id = first_id + 8 + 4 + 3 + 8 * d + 4 + 4 + 2  # .. "cat", its whitened mean, ["p0"]
    (next_slot_id,) = struct.unpack_from("<Q", data, 12 + 32)
    assert struct.unpack_from("<I", data, slot_count)[0] >= 2 and struct.unpack_from("<Q", data, first_id) == (0,)
    (slot,) = struct.unpack_from("<Q", data, second_id)
    if patch == "next_slot_id":
        struct.pack_into("<Q", data, 12 + 32, slot)
        expected = f"slot id {slot} must exceed 0 and be below {slot}"
    else:
        struct.pack_into("<Q", data, second_id, 0)
        expected = f"slot id 0 must exceed 0 and be below {next_slot_id}"
    checkpoint = tmp_path / "checkpoint.bin"
    checkpoint.write_bytes(bytes(data))
    with pytest.raises(ValueError) as caught:
        DualMemory.load_checkpoint(checkpoint, config)
    assert str(caught.value) == f"{checkpoint}: {expected}"


def test_binary_corpus_signalling_nan_names_the_record(tmp_path, inputs):
    paths, _ = inputs
    data = bytearray(paths["dmrf"].read_bytes())
    first_feature = BINARY_HEADER.size + 3 * ID_FIELD_BYTES + 4 * 5
    data[first_feature: first_feature + 4] = struct.pack("<I", 0x7F800001)  # float32 signalling NaN
    corpus = tmp_path / "corpus.dmrf"
    corpus.write_bytes(bytes(data))
    with pytest.raises(ValueError, match=f"^{corpus}: record 0: region '.*': feature contains non-finite values$"):
        open_corpus(corpus)


# ---------------------------------------------------------------------------
# Byte fuzz: bit flips and appended bytes
# ---------------------------------------------------------------------------

MUTATIONS = st.tuples(
    st.lists(st.tuples(st.integers(0, 10**9), st.integers(0, 7)), max_size=3),
    st.binary(max_size=24),
)


def mutate(original, flips, tail):
    data = bytearray(original)
    for offset, bit in flips:
        data[offset % len(data)] ^= 1 << bit
    return bytes(data) + tail


def read_or_error(read, path):
    """The reader's ValueError text, or None if it accepted the file; anything else fails the test."""
    try:
        read(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: "), str(exc)
        return str(exc)
    return None


FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@given(mutation=MUTATIONS)
@FUZZ
def test_fuzzed_binary_corpus(tmp_path_factory, inputs, mutation, capsys):
    paths, _ = inputs
    root = tmp_path_factory.mktemp("fuzz")
    corpus = root / "corpus.dmrf"
    corpus.write_bytes(mutate(paths["dmrf"].read_bytes(), *mutation))
    if read_or_error(open_corpus, corpus) is None:
        return
    expect_cli_error(["background", "--corpus", str(corpus)], corpus, root / "bg", capsys)
    argv = ["eval", "--corpus", str(corpus), "--assignments", str(paths["assignments"]), "--gt", str(paths["gt"])]
    expect_cli_error(argv, corpus, root / "eval", capsys)


@given(mutation=MUTATIONS)
@FUZZ
def test_fuzzed_background_file(tmp_path_factory, inputs, mutation, capsys):
    paths, _ = inputs
    root = tmp_path_factory.mktemp("fuzz")
    bg = root / "bg.bin"
    bg.write_bytes(mutate(paths["bg"].read_bytes(), *mutation))
    if read_or_error(BackgroundStats.load, bg) is None:
        return
    argv = [
        "discover", "--corpus", str(paths["corpus"]), "--bg", str(bg), "--config", str(paths["config"]),
        "--priors", str(paths["priors"]),
    ]
    expect_cli_error(argv, bg, root / "run", capsys)


@given(mutation=MUTATIONS)
@settings(max_examples=400, deadline=None)
def test_fuzzed_checkpoint(tmp_path_factory, inputs, mutation):
    paths, config = inputs
    checkpoint = tmp_path_factory.mktemp("fuzz") / "checkpoint.bin"
    checkpoint.write_bytes(mutate(paths["checkpoint"].read_bytes(), *mutation))
    read_or_error(lambda path: DualMemory.load_checkpoint(path, config), checkpoint)
