import gc
import json
import struct
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualmem.config import Config, config_hash, load_config, save_config
from dualmem.corpus import (
    BINARY_HEADER,
    ID_FIELD_BYTES,
    convert_corpus,
    ingest_corpus,
    load_corpus,
    open_corpus,
    read_corpus_dim,
    split_dataset,
    write_corpus_binary,
    write_corpus_jsonl,
)
from dualmem.records import BoundingBox, CorpusFormatError, RegionRecord

from conftest import batches_of, make_region, records_of


def f32(values):
    return np.asarray(values, dtype=np.float32).astype(np.float64)


def sample_records(n_images=3, per_image=4, d=3, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n_images):
        for j in range(per_image):
            records.append(
                RegionRecord(
                    region_id=f"img{i}_r{j}",
                    image_id=f"img{i}",
                    box=BoundingBox(float(j), 0.0, float(j) + 1.0, 1.0),
                    score=float(np.float32(rng.uniform(0.1, 0.9))),
                    feature=f32(rng.standard_normal(d)),
                    gt_label="cat" if j == 0 else None,
                )
            )
    return records


class TestFormats:
    def test_jsonl_roundtrip(self, tmp_path):
        records = sample_records()
        path = tmp_path / "corpus.jsonl"
        write_corpus_jsonl(path, 3, records)
        table = open_corpus(path)
        d, loaded = table.d, records_of(table)
        assert d == 3
        assert [r.region_id for r in loaded] == [r.region_id for r in records]
        for a, b in zip(loaded, records):
            np.testing.assert_array_equal(a.feature, b.feature)
            assert a.gt_label == b.gt_label
            assert a.score == b.score

    @pytest.mark.parametrize("write", [write_corpus_jsonl, write_corpus_binary])
    def test_read_corpus_dim_closes_its_file(self, tmp_path, monkeypatch, write):
        path = tmp_path / "corpus"
        write(path, 3, sample_records())
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            assert read_corpus_dim(path) == 3
            gc.collect()
        assert unraisable == []

    def test_binary_roundtrip(self, tmp_path):
        records = sample_records()
        path = tmp_path / "corpus.bin"
        write_corpus_binary(path, 3, records)
        table = open_corpus(path)
        d, loaded = table.d, records_of(table)
        assert d == 3
        for a, b in zip(loaded, records):
            assert a.region_id == b.region_id
            assert a.image_id == b.image_id
            np.testing.assert_array_equal(a.feature, b.feature)
            assert a.box.as_list() == b.box.as_list()

    def test_converter_roundtrips_losslessly(self, tmp_path):
        records = sample_records()
        jsonl = tmp_path / "a.jsonl"
        binary = tmp_path / "a.bin"
        back = tmp_path / "b.jsonl"
        write_corpus_jsonl(jsonl, 3, records)
        convert_corpus(jsonl, binary)
        convert_corpus(binary, back)
        assert jsonl.read_bytes() == back.read_bytes()
        binary2 = tmp_path / "b.bin"
        convert_corpus(back, binary2)
        assert binary.read_bytes() == binary2.read_bytes()

    def test_converter_rejects_non_float32_values(self, tmp_path):
        record = make_region("r0", "img0", [0.1234567890123456789, 0.0])
        src = tmp_path / "x.jsonl"
        write_corpus_jsonl(src, 2, [record])
        with pytest.raises(CorpusFormatError, match="float32"):
            convert_corpus(src, tmp_path / "x.bin")

    def test_binary_rejects_values_float32_cannot_hold(self, tmp_path):
        with pytest.raises(CorpusFormatError, match="r_big"):
            write_corpus_binary(tmp_path / "x.bin", 2, [make_region("r_big", "img0", [1e300, 0.0])])

    def test_binary_rejects_long_ids(self, tmp_path):
        record = make_region("r" * 65, "img0", [0.0, 1.0])
        with pytest.raises(CorpusFormatError, match="64-byte"):
            write_corpus_binary(tmp_path / "x.bin", 2, [record])

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"d": 2, "version": 1}\n{"region_id": "r0" oops\n')
        with pytest.raises(CorpusFormatError, match="line 2"):
            open_corpus(path)

    @pytest.mark.parametrize("box", ["0129", [0, 0, "1", 1], [0, 0, False, 1]])
    def test_box_of_another_json_type_is_refused(self, tmp_path, box):
        path = tmp_path / "bad.jsonl"
        record = {"region_id": "r0", "image_id": "i0", "box": box, "score": 0.5, "feature": [0.0, 1.0]}
        path.write_text('{"d": 2, "version": 1}\n' + json.dumps(record) + "\n")
        with pytest.raises(CorpusFormatError) as caught:
            open_corpus(path)
        assert str(caught.value) == f"{path}: line 2: box must be a JSON array of four numbers, got {box!r}"

    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_box_coordinate_that_is_not_finite_is_refused(self, tmp_path, binary, value):
        """json.loads reads Infinity and NaN, and DMRF holds them; IoU would then be NaN."""
        record = {"region_id": "r0", "image_id": "i0", "box": [0, 0, value, 1], "score": 0.5, "feature": [0.0, 1.0]}
        if binary:
            path = tmp_path / "bad.dmrf"
            write_corpus_binary(path, 2, [make_region("r0", "i0", [0.0, 1.0])])
            data = bytearray(path.read_bytes())
            struct.pack_into("<f", data, BINARY_HEADER.size + 2 * ID_FIELD_BYTES + 8, value)  # x2
            path.write_bytes(bytes(data))
        else:
            path = tmp_path / "bad.jsonl"
            path.write_text('{"d": 2, "version": 1}\n' + json.dumps(record) + "\n")
        with pytest.raises(CorpusFormatError) as caught:
            open_corpus(path)
        where = "record 0" if binary else "line 2"
        fault = f"box [0.0, 0.0, {value}, 1.0] must have finite coordinates with x2 > x1 and y2 > y1"
        assert str(caught.value) == f"{path}: {where}: {fault}"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"version": 1}\n')
        with pytest.raises(CorpusFormatError, match="line 1"):
            open_corpus(path)


def _with_bad_byte(path, line, position):
    """Replace one byte of a (1-based) line of ``path`` with 0xFF, which UTF-8 never holds."""
    lines = path.read_bytes().split(b"\n")
    bad = bytearray(lines[line - 1])
    bad[position] = 0xFF
    lines[line - 1] = bytes(bad)
    path.write_bytes(b"\n".join(lines))


class TestNotUtf8:
    """A JSONL corpus with bytes that are not UTF-8 fails naming the file and the line that holds them."""

    def corpus(self, tmp_path, n_images=40):
        path = tmp_path / "corpus.jsonl"
        write_corpus_jsonl(path, 3, sample_records(n_images=n_images))
        return path

    @pytest.mark.parametrize("line", [2, 3, 101, 160])
    def test_every_reader_names_the_line(self, tmp_path, line):
        path = self.corpus(tmp_path)  # 161 lines, well past the reader's first buffer
        _with_bad_byte(path, line, 5)
        expected = f"{path}: line {line}: 'utf-8' codec can't decode byte 0xff in position 5: invalid start byte"
        assert read_corpus_dim(path) == 3  # the header alone is read, and it decodes
        for read in (open_corpus, lambda p: ingest_corpus(p, Config(d=3)), load_corpus):
            with pytest.raises(CorpusFormatError) as info:
                read(path)
            assert str(info.value) == expected

    def test_a_header_that_is_not_utf8_is_a_line_1_error(self, tmp_path):
        path = self.corpus(tmp_path, n_images=2)
        _with_bad_byte(path, 1, 0)
        for read in (open_corpus, read_corpus_dim, lambda p: ingest_corpus(p, Config(d=3))):
            with pytest.raises(CorpusFormatError, match=rf"^{path}: line 1: 'utf-8' codec can't decode byte 0xff"):
                read(path)

    def test_an_earlier_bad_record_is_reported_first(self, tmp_path):
        path = self.corpus(tmp_path, n_images=2)
        lines = path.read_bytes().split(b"\n")
        lines[2] = lines[2][:10]  # line 3: cut JSON, in the same buffer as the bad byte on line 5
        path.write_bytes(b"\n".join(lines))
        _with_bad_byte(path, 5, 5)
        with pytest.raises(CorpusFormatError, match=rf"^{path}: line 3: invalid JSON"):
            open_corpus(path)


class TestIngest:
    def write(self, tmp_path, records, d=3):
        path = tmp_path / "corpus.jsonl"
        write_corpus_jsonl(path, d, records)
        return path

    def test_truncates_to_top_n_by_score(self, tmp_path):
        records = [
            make_region(f"r{i:03d}", "img0", [float(i), 0.0, 0.0], score=i / 200.0)
            for i in range(200)
        ]
        path = self.write(tmp_path, records)
        config = Config(d=3, n_proposals_per_image=150)
        (batch,) = batches_of(ingest_corpus(path, config))
        assert len(batch) == 150
        scores = [r.score for r in batch]
        assert scores == sorted(scores, reverse=True)
        assert min(scores) == 50 / 200.0

    def test_small_image_passes_through(self, tmp_path):
        records = [make_region(f"r{i}", "img0", [0.0, 0.0, 1.0]) for i in range(3)]
        path = self.write(tmp_path, records)
        (batch,) = batches_of(ingest_corpus(path, Config(d=3)))
        assert len(batch) == 3

    def test_equal_scores_tie_break_on_region_id(self, tmp_path):
        records = [
            make_region("r_b", "img0", [0.0, 0.0, 0.0], score=0.5),
            make_region("r_a", "img0", [1.0, 0.0, 0.0], score=0.5),
        ]
        path = self.write(tmp_path, records)
        (batch,) = batches_of(ingest_corpus(path, Config(d=3)))
        assert [r.region_id for r in batch] == ["r_a", "r_b"]

    def test_repeated_runs_identical(self, tmp_path):
        path = self.write(tmp_path, sample_records())
        config = Config(d=3)
        first = [[r.region_id for r in b] for b in batches_of(ingest_corpus(path, config))]
        second = [[r.region_id for r in b] for b in batches_of(ingest_corpus(path, config))]
        assert first == second

    def test_dimension_mismatch_names_record(self, tmp_path):
        path = self.write(tmp_path, [make_region("r_bad", "img0", [1.0, 2.0])], d=3)
        with pytest.raises(CorpusFormatError, match="r_bad"):
            ingest_corpus(path, Config(d=3))

    @pytest.mark.parametrize("binary", [False, True])
    def test_another_declared_dimension_wins_over_a_bad_record(self, tmp_path, binary):
        """The header's dimension is checked before any record is read."""
        records = [make_region("r0", "img0", [0.0, 0.0, 0.0]), make_region("r0", "img0", [1.0, 0.0, 0.0])]
        path = tmp_path / ("c.dmrf" if binary else "c.jsonl")
        (write_corpus_binary if binary else write_corpus_jsonl)(path, 3, records)
        with open(path, "ab") as fh:  # a duplicate id, then a cut record or a line that is not JSON
            fh.write(b"\x00" * 7 if binary else b"{not json\n")
        for read in (lambda p: open_corpus(p, 4), lambda p: ingest_corpus(p, Config(d=4))):
            with pytest.raises(CorpusFormatError) as err:
                read(path)
            assert str(err.value) == f"{path}: corpus dimension 3 != configured dimension 4"
        with pytest.raises(CorpusFormatError, match="trailing bytes" if binary else "duplicate region_id"):
            open_corpus(path, 3)

    def test_duplicate_region_id(self, tmp_path):
        records = [
            make_region("r0", "img0", [0.0, 0.0, 0.0]),
            make_region("r0", "img0", [1.0, 0.0, 0.0]),
        ]
        path = self.write(tmp_path, records)
        with pytest.raises(CorpusFormatError, match="duplicate region_id"):
            ingest_corpus(path, Config(d=3))

    def test_non_contiguous_image_block(self, tmp_path):
        records = [
            make_region("r0", "imgA", [0.0, 0.0, 0.0]),
            make_region("r1", "imgB", [0.0, 0.0, 0.0]),
            make_region("r2", "imgA", [0.0, 0.0, 0.0]),
        ]
        path = self.write(tmp_path, records)
        with pytest.raises(CorpusFormatError, match="more than one block"):
            ingest_corpus(path, Config(d=3))

    def test_batches_respect_cap_and_order_invariant(self, tmp_path):
        path = self.write(tmp_path, sample_records(n_images=4, per_image=6))
        config = Config(d=3, n_proposals_per_image=4)
        for batch in batches_of(ingest_corpus(path, config)):
            assert len(batch) <= 4
            scores = [r.score for r in batch]
            assert scores == sorted(scores, reverse=True)

    def test_l2_normalize_flag(self, tmp_path):
        path = self.write(tmp_path, [make_region("r0", "img0", [3.0, 4.0, 0.0])])
        (batch,) = batches_of(ingest_corpus(path, Config(d=3, l2_normalize=True)))
        assert np.linalg.norm(batch[0].feature) == pytest.approx(1.0, abs=1e-12)

    def test_load_corpus_preserves_file_order(self, tmp_path):
        path = self.write(tmp_path, sample_records(n_images=5))
        corpus = load_corpus(path)
        assert corpus.image_ids == [f"img{i}" for i in range(5)]

    def test_binary_and_jsonl_ingest_identically(self, tmp_path):
        jsonl = self.write(tmp_path, sample_records(n_images=4, per_image=6))
        binary = tmp_path / "corpus.bin"
        convert_corpus(jsonl, binary)
        config = Config(d=3, n_proposals_per_image=4)
        from_jsonl = [
            [(r.region_id, tuple(r.feature)) for r in b] for b in batches_of(ingest_corpus(jsonl, config))
        ]
        from_binary = [
            [(r.region_id, tuple(r.feature)) for r in b] for b in batches_of(ingest_corpus(binary, config))
        ]
        assert from_jsonl == from_binary


class TestSplit:
    def test_four_ids_partition(self):
        split = split_dataset(["a", "b", "c", "d"], seed=7)
        assert len(split.d1) == 2 and len(split.d2) == 2
        assert set(split.d1) | set(split.d2) == {"a", "b", "c", "d"}
        assert set(split.d1) & set(split.d2) == set()

    def test_odd_size_favors_d1(self):
        split = split_dataset(list("abcde"), seed=0)
        assert len(split.d1) == 3 and len(split.d2) == 2

    def test_same_seed_same_split(self):
        ids = [f"img{i}" for i in range(31)]
        a = split_dataset(ids, seed=123)
        b = split_dataset(ids, seed=123)
        assert a.d1 == b.d1 and a.d2 == b.d2

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty"):
            split_dataset([], seed=0)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicates"):
            split_dataset(["a", "a"], seed=0)

    @given(st.integers(1, 60), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_partition_property(self, n, seed):
        ids = [f"id{i}" for i in range(n)]
        split = split_dataset(ids, seed)
        assert sorted(split.d1 + split.d2) == sorted(ids)
        assert len(split.d1) == (n + 1) // 2


class TestConfig:
    def test_roundtrip(self, tmp_path):
        config = Config(d=8, tau_working=0.65, rounds=3, consolidation_mode="merge")
        save_config(config, tmp_path / "c.txt")
        loaded = load_config(tmp_path / "c.txt")
        assert loaded == config
        assert config_hash(loaded) == config_hash(config)

    def test_hash_changes_with_any_field(self):
        base = Config(d=8)
        assert config_hash(base) != config_hash(Config(d=8, tau_working=0.71))
        assert config_hash(base) != config_hash(Config(d=8, rng_seed=1))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("d = 4\nbogus = 1\n")
        with pytest.raises(ValueError, match="bogus"):
            load_config(path)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"slot_cap": 0},
            {"semantic_prior_score": 0.0},
            {"tau_working": 1.5},
            {"ridge_lambda": 0.0},
            {"rounds": 0},
            {"consolidation_mode": "bogus"},
            {"init_mode": "bogus"},
        ],
    )
    def test_invariants_enforced(self, kwargs):
        with pytest.raises(ValueError):
            Config(d=4, **kwargs)
