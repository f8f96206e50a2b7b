"""The table readers against the record-at-a-time reader they replaced.

``reference_ingest`` keeps the earlier algorithm: parse one record object at a
time (``RegionRecord`` and ``BoundingBox`` check each), check its dimension,
its id and label for a tab or a newline and its label for a carriage return,
and its id against the earlier ones, and finish an image when the next one
starts. Both must give the same rows, bit for bit, and fail with the same
message on the same corpus.
"""

import json
import math
import os
import reprlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualmem.config import Config
from dualmem.corpus import ingest_corpus, write_corpus_binary, write_corpus_jsonl
from dualmem.records import BoundingBox, CorpusFormatError, RegionRecord

ID_BYTES = 64


def _box(coordinates):
    """A box of four finite coordinates (json.loads reads Infinity and NaN, DMRF holds them)."""
    if not all(math.isfinite(v) for v in coordinates):
        text = ", ".join(map(str, coordinates))
        raise ValueError(f"box [{text}] must have finite coordinates with x2 > x1 and y2 > y1")
    return BoundingBox(*coordinates)


def _parse_json_record(obj, where):
    try:
        box = obj["box"]
        if not (isinstance(box, list) and len(box) == 4 and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in box
        )):
            raise ValueError(f"box must be a JSON array of four numbers, got {reprlib.repr(box)}")
        box = _box([float(v) for v in box])
        label = obj.get("gt_label")
        return RegionRecord(
            region_id=str(obj["region_id"]),
            image_id=str(obj["image_id"]),
            box=box,
            score=float(obj["score"]),
            feature=np.asarray(obj["feature"], dtype=np.float64),
            gt_label=str(label) if label else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CorpusFormatError(f"{where}: {exc}") from exc


def _check_text(record, where):
    """A region id or label with a tab or a newline, or a label with a carriage return,
    cannot be read back from assignments.tsv."""
    for what, value in (("region_id", record.region_id), ("gt_label", record.gt_label)):
        if value and ("\t" in value or "\n" in value):
            raise CorpusFormatError(f"{where}: {what} {value!r} contains a tab or a newline")
    if record.gt_label and "\r" in record.gt_label:
        raise CorpusFormatError(f"{where}: gt_label {record.gt_label!r} contains a carriage return")


def _iter_jsonl(path):
    # Lines split at "\n" only, and each is parsed without its terminator.
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        try:
            header = json.loads(fh.readline().removesuffix("\n"))
            d = int(header["d"])
            version = int(header["version"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise CorpusFormatError(f"{path}: line 1: bad header record: {exc}") from exc
        if version != 1:
            raise CorpusFormatError(f"{path}: line 1: unsupported version {version}")
        yield d
        for lineno, line in enumerate(fh, 2):
            if not line.strip():
                continue
            try:
                obj = json.loads(line.removesuffix("\n"))
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"{path}: line {lineno}: invalid JSON at column {exc.colno}") from exc
            except ValueError as exc:  # an integer literal longer than int() converts
                raise CorpusFormatError(f"{path}: line {lineno}: {exc}") from exc
            yield _parse_json_record(obj, f"{path}: line {lineno}"), f"{path}: line {lineno}"


def _iter_binary(path):
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16:
            raise CorpusFormatError(f"{path}: binary header truncated (expected 16 bytes)")
        magic, version, d, count = struct.unpack("<4sIII", header)
        if magic != b"DMRF":
            raise CorpusFormatError(f"{path}: bad magic {magic!r}, expected {b'DMRF'!r}")
        if version != 1:
            raise CorpusFormatError(f"{path}: unsupported binary version {version}")
        yield d
        record_struct = struct.Struct(f"<{ID_BYTES}s{ID_BYTES}s5f{ID_BYTES}s{d}f")
        whole = (os.fstat(fh.fileno()).st_size - 16) // record_struct.size
        for index in range(min(count, whole)):
            fields = record_struct.unpack(fh.read(record_struct.size))
            x1, y1, x2, y2, score = fields[2:7]
            try:
                label = fields[7].rstrip(b"\x00").decode("utf-8")
                record = RegionRecord(
                    region_id=fields[0].rstrip(b"\x00").decode("utf-8"),
                    image_id=fields[1].rstrip(b"\x00").decode("utf-8"),
                    box=_box([x1, y1, x2, y2]),
                    score=float(score),
                    feature=np.asarray(fields[8:], dtype=np.float64),
                    gt_label=label or None,
                )
            except ValueError as exc:
                raise CorpusFormatError(f"{path}: record {index}: {exc}") from exc
            yield record, f"{path}: record {index}"
        if count > whole:
            raise CorpusFormatError(f"{path}: record {whole} at offset {16 + whole * record_struct.size}: truncated")


def reference_ingest(path, config):
    """Per-image batches of records, as the record-at-a-time reader produced them."""
    with open(path, "rb") as fh:
        binary = fh.read(4) == b"DMRF"
    records = _iter_binary(path) if binary else _iter_jsonl(path)
    d = next(records)
    if d != config.d:
        raise CorpusFormatError(f"{path}: corpus dimension {d} != configured dimension {config.d}")
    seen, finished, batches = set(), set(), []
    current, batch = None, []

    def finish(image_id, regions):
        if image_id in finished:
            raise CorpusFormatError(f"{path}: image '{image_id}' appears in more than one block")
        finished.add(image_id)
        regions.sort(key=lambda r: (-r.score, r.region_id))
        return regions[: config.n_proposals_per_image]

    for record, where in records:
        if record.feature.shape[0] != d:
            raise CorpusFormatError(
                f"{path}: region '{record.region_id}': feature dimension {record.feature.shape[0]} != {d}"
            )
        _check_text(record, where)
        if record.region_id in seen:
            raise CorpusFormatError(f"{path}: duplicate region_id '{record.region_id}'")
        seen.add(record.region_id)
        if config.l2_normalize:
            norm = float(np.linalg.norm(record.feature))
            if norm > 0.0:
                record.feature = record.feature / norm
        if record.image_id != current:
            if current is not None:
                batches.append(finish(current, batch))
            current, batch = record.image_id, []
        batch.append(record)
    if current is not None:
        batches.append(finish(current, batch))
    return batches


def outcome(read, path, config):
    """The rows a reader gives as comparable tuples (features as bytes), or its error text."""
    try:
        result = read(path, config)
    except CorpusFormatError as exc:
        return str(exc)
    if isinstance(result, list):
        return [
            (r.region_id, r.image_id, r.gt_label, tuple(r.box.as_list()), r.score, r.feature.tobytes())
            for batch in result for r in batch
        ]
    images = result.image_of()
    assert result.features.flags["C_CONTIGUOUS"] and result.features.dtype == np.float64
    return [
        (region_id, image_id, label, tuple(box), score, feature.tobytes())
        for region_id, image_id, label, box, score, feature in zip(
            result.region_ids, images, result.gt_labels, result.boxes.tolist(),
            result.scores.tolist(), result.features,
        )
    ]


# Ids mix ASCII, accented, CJK and astral characters; a unique suffix keeps them distinct.
ID_TEXT = st.text(st.sampled_from("ab_-é漢字😀"), max_size=4)
# Equal scores are common, so the region-id tie-break decides many orders.
SCORES = [0.0, 0.25, 0.5, 0.5, 0.75, 1.0, float(np.float32(0.95))]


@st.composite
def corpora(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    d = draw(st.integers(1, 40))
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=6))
    prefixes = draw(st.lists(ID_TEXT, min_size=sum(sizes), max_size=sum(sizes)))
    labels = draw(st.lists(st.one_of(st.none(), ID_TEXT), min_size=sum(sizes), max_size=sum(sizes)))
    records = []
    for image, size in enumerate(sizes):
        image_id = draw(ID_TEXT) + f"#{image}"
        for _ in range(size):
            k = len(records)
            feature = np.zeros(d) if rng.random() < 0.2 else rng.standard_normal(d) * 10.0 ** rng.integers(-3, 4)
            x, y, w, h = rng.integers(0, 50, 4) / 4.0
            records.append(RegionRecord(
                f"{prefixes[k]}@{k}", image_id, BoundingBox(x, y, x + w + 0.25, y + h + 0.25),
                SCORES[rng.integers(len(SCORES))], feature.astype(np.float32).astype(np.float64),
                labels[k] or None,
            ))
    config = Config(
        d=d, n_proposals_per_image=draw(st.integers(1, 6)), l2_normalize=draw(st.booleans()),
    )
    return records, config


@given(corpus=corpora(), binary=st.booleans())
@settings(max_examples=150, deadline=None)
def test_table_ingest_equals_the_record_path(tmp_path_factory, corpus, binary):
    records, config = corpus
    path = tmp_path_factory.mktemp("corpus") / ("corpus.dmrf" if binary else "corpus.jsonl")
    (write_corpus_binary if binary else write_corpus_jsonl)(path, config.d, records)
    expected = outcome(reference_ingest, path, config)
    assert isinstance(expected, list) and len(expected) <= len(records)
    assert outcome(ingest_corpus, path, config) == expected


# Two integers that differ but round to one float: a box valid as integers, degenerate as floats.
ABOVE_2_53 = [2**53, 2**53 + 1]
# An integer literal longer than int() converts (4,300 digits by default).
LONG_INTEGER = "9" * 5000
# Edits of a record's text, not of its object: each leaves the line's value alone or makes it invalid JSON.
LINE_EDITS = [
    lambda line: f"  {line} ",  # padded with spaces
    lambda line: line + "\r",  # a CRLF line
    lambda line: "\ufeff" + line,  # a BOM
    lambda line: line + " {}",  # data after the object
    lambda line: line + "x",
]


def _jsonl_faults(lines, faults):
    """Break record lines in ways the reader must name; a fault is (kind, record, other record).

    Kinds 13 and up reach the edges of the reader's fast path: a line that is not
    exactly one JSON value, fields that are not in the type the writer gives them,
    a box fault next to a missing later key, and an integer too long to convert.
    """
    originals = [json.loads(line) for line in lines[1:]]
    for kind, k, j in faults:
        k = 1 + k % len(originals)
        try:
            obj = json.loads(lines[k])
        except ValueError:  # invalid JSON, or an integer literal too long to convert
            continue
        if not isinstance(obj, dict):
            continue
        other = originals[j % len(originals)]
        try:
            if kind == 0:
                obj["box"][2] = [obj["box"][0], float("inf")][j % 2]
            elif kind == 1:
                obj["score"] = 1.5
            elif kind == 2:
                obj["feature"][0] = float("nan")
            elif kind == 3:
                obj["feature"] = obj["feature"] + [1.0]
            elif kind == 4:
                obj["feature"] = [obj["feature"]]
            elif kind == 5:
                del obj[["region_id", "image_id", "box", "score", "feature"][j % 5]]
            elif kind == 6:
                obj["box"] = obj["box"][:3]
            elif kind == 7:
                obj["region_id"] = other["region_id"]
            elif kind == 8:
                obj["image_id"] = other["image_id"]
                if k + 1 < len(lines) and j % 2:  # and the next record's: a block of two
                    lines[k + 1] = lines[k + 1].replace(json.dumps(originals[k]["image_id"]), json.dumps(other["image_id"]))
            elif kind == 9:
                obj["score"] = "high"
            elif kind == 10:
                lines[k] = lines[k][: 1 + j % (len(lines[k]) - 1)]
                continue
            elif kind == 11:
                key = ["region_id", "gt_label"][j % 2]
                obj[key] = (obj[key] or "") + ["\t", "\n", "\r"][j // 2 % 3]
            elif kind == 12:
                obj = [obj["region_id"]]
            elif kind == 13:
                lines[k] = LINE_EDITS[j % len(LINE_EDITS)](lines[k])
                continue
            elif kind == 14:  # an int, bool or str where the writer puts a str id or a float score
                key = ["region_id", "image_id", "score", "gt_label"][j % 4]
                obj[key] = [j % 2, j % 3 == 0, str(obj[key]), "0.5", 1, True][j % 6]
            elif kind == 15:  # integer coordinates: small ones make a box, the two above 2**53 do not
                obj["box"] = [[0, 0, 1 + j % 3, 2], [ABOVE_2_53[0], 0, ABOVE_2_53[1], 1],
                              [0, ABOVE_2_53[0], 1.5, ABOVE_2_53[1]], [0.0, 0, 2.5, 1]][j % 4]
            elif kind == 16:  # a short feature, or an element that is itself a list
                feature = obj["feature"]
                obj["feature"] = [feature[:-1], [feature[:1]] + feature[1:], [[v] for v in feature]][j % 3]
            elif kind == 17:  # a bad box, and a key that the reader reads after the box is missing
                obj["box"][2] = obj["box"][0]
                del obj[["region_id", "image_id", "score", "feature"][j % 4]]
            elif kind == 18:
                obj["score"] = "LONG"
                lines[k] = json.dumps(obj).replace('"LONG"', LONG_INTEGER)
                continue
        except (KeyError, IndexError, TypeError):
            continue  # an earlier fault removed what this one edits
        lines[k] = json.dumps(obj)
    return lines


def _binary_faults(data, d, faults):
    """Break records of a DMRF file in place, adding no bytes; a fault is (kind, record, other record)."""
    size = 3 * ID_BYTES + 20 + 4 * d
    count = (len(data) - 16) // size
    ids, box, score, label = 0, 2 * ID_BYTES, 2 * ID_BYTES + 16, 2 * ID_BYTES + 20
    for kind, k, j in faults:
        at, other = 16 + k % count * size, 16 + j % count * size
        if kind == 0:
            data[at + [0, ID_BYTES, label][j % 3]] = 0xFF
        elif kind == 1:
            data[at + box + 8: at + box + 12] = data[at + box: at + box + 4]
        elif kind == 2:
            data[at + score: at + score + 4] = struct.pack("<f", [1.5, -0.5, np.nan][j % 3])
        elif kind == 3:
            data[at + size - 4 * (1 + j % d): at + size - 4 * (j % d)] = struct.pack("<f", np.inf)
        elif kind == 4:
            data[at + ids: at + ID_BYTES] = data[other: other + ID_BYTES]
        elif kind == 5:
            for start in (at, at + size)[: 1 + j % 2]:  # one record's image, or two in a row
                if start + size <= len(data):
                    data[start + ID_BYTES: start + 2 * ID_BYTES] = data[other + ID_BYTES: other + 2 * ID_BYTES]
        elif kind == 6:
            del data[16 + (k * size + j) % (len(data) - 16):]
            return data
        elif kind == 7:
            data[at + [ids, label][j % 2] + 1] = [0x09, 0x0A, 0x0D][j // 2 % 3]
        else:
            coordinate = at + box + 4 * (j % 4)
            data[coordinate: coordinate + 4] = struct.pack("<f", [np.nan, np.inf, -np.inf][j % 3])
    return data


# Faults land on the first records, so several meet in one record or one image, where their order shows.
FAULTS = st.lists(
    st.tuples(st.integers(0, 18), st.integers(0, 3), st.integers(0, 12)), min_size=1, max_size=4
)


@given(corpus=corpora(), binary=st.booleans(), faults=FAULTS)
@settings(max_examples=1000, deadline=None)
def test_table_ingest_names_the_same_first_fault(tmp_path_factory, corpus, binary, faults):
    """Corrupted records, duplicate ids, split images and cut files: the same error text, or the same rows."""
    records, config = corpus
    path = tmp_path_factory.mktemp("corpus") / ("corpus.dmrf" if binary else "corpus.jsonl")
    (write_corpus_binary if binary else write_corpus_jsonl)(path, config.d, records)
    if binary:
        path.write_bytes(bytes(_binary_faults(bytearray(path.read_bytes()), config.d, [
            (kind % 9, k, j) for kind, k, j in faults
        ])))
    else:
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(_jsonl_faults(lines, faults)) + "\n", encoding="utf-8")
    assert outcome(ingest_corpus, path, config) == outcome(reference_ingest, path, config)


def _put(data, size, row, offset, value):
    """Overwrite bytes of record ``row`` at ``offset`` within it."""
    at = 16 + row * size + offset
    data[at: at + len(value)] = value


def _field(data, size, row, offset, length):
    at = 16 + row * size + offset
    return bytes(data[at: at + length])


IMAGE, SCORE = ID_BYTES, 2 * ID_BYTES + 16
ORDER_CASES = {
    # Image A returns for rows 4-5; row 5's bad feature comes before the block ends.
    "fault inside a returning block": lambda data, size: (
        _put(data, size, 4, IMAGE, _field(data, size, 0, IMAGE, ID_BYTES)),
        _put(data, size, 5, IMAGE, _field(data, size, 0, IMAGE, ID_BYTES)),
        _put(data, size, 5, size - 4, struct.pack("<f", np.nan)),
    ),
    # Row 5 starts image C after A's second block and repeats r0's id: the duplicate is found first.
    "duplicate where a returning block ends": lambda data, size: (
        _put(data, size, 4, IMAGE, _field(data, size, 0, IMAGE, ID_BYTES)),
        _put(data, size, 5, 0, _field(data, size, 0, 0, ID_BYTES)),
    ),
    # The last image repeats A, then the file ends inside a record it declares: the cut is found first.
    "cut after a returning block": lambda data, size: (
        _put(data, size, 6, IMAGE, _field(data, size, 0, IMAGE, ID_BYTES)),
        data.__setitem__(slice(12, 16), struct.pack("<I", 8)),
        data.extend(bytes(100)),
    ),
    # Row 3 repeats r0's id and has a bad score: the record's own fields are checked first.
    "bad field of a duplicate": lambda data, size: (
        _put(data, size, 3, 0, _field(data, size, 0, 0, ID_BYTES)),
        _put(data, size, 3, SCORE, struct.pack("<f", 2.0)),
    ),
}


@pytest.mark.parametrize("case", sorted(ORDER_CASES))
def test_fault_order_matches_the_record_path(tmp_path, case):
    """Two faults where the streamed order decides which one is reported."""
    records = [
        RegionRecord(f"r{i}", image, BoundingBox(0.0, 0.0, 1.0, 1.0), 0.5, np.full(2, float(i)))
        for i, image in enumerate("AABBCCD")
    ]
    path = tmp_path / "corpus.dmrf"
    write_corpus_binary(path, 2, records)
    data = bytearray(path.read_bytes())
    ORDER_CASES[case](data, 3 * ID_BYTES + 20 + 8)
    path.write_bytes(bytes(data))
    config = Config(d=2)
    expected = outcome(reference_ingest, path, config)
    assert isinstance(expected, str)
    assert outcome(ingest_corpus, path, config) == expected
