"""Corpus file formats, ingestion into one region table, and the two-way dataset split.

Two on-disk representations carry the same regions: line-delimited JSON with a
header line, read through ``reporting.read_lines`` like every text input (split at
"\\n" only, each line decoded when reached) and parsed by
``reporting.parse_json_line`` (``json.loads``' value or error), and a packed binary
variant for bulk corpora. Both readers build a ``RegionTable`` and check it as a
stream would, so an error names the first bad record; the writers take a table or
records, and a converter maps between the formats.
"""

from __future__ import annotations

import json
import logging
import os
import random
import struct
import sys
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .config import Config
from .records import CorpusFormatError, RegionRecord, RegionTable, box_fault, parse_box, region_fault, text_fault
from .reporting import parse_json_line, read_lines

logger = logging.getLogger(__name__)

JSONL_VERSION = 1
BINARY_MAGIC = b"DMRF"
BINARY_VERSION = 1
BINARY_HEADER = struct.Struct("<4sIII")  # magic, version, d, record count
# Fixed-width string fields in the binary record; longer ids/labels cannot be packed.
ID_FIELD_BYTES = 64


def _table_of(d: int, records: Iterable[RegionRecord] | RegionTable) -> RegionTable:
    return records if isinstance(records, RegionTable) else RegionTable.from_records(records, d)


# ---------------------------------------------------------------------------
# JSON lines format
# ---------------------------------------------------------------------------

# Built once: json.dumps with separators builds a new encoder on every call.
_JSON = json.JSONEncoder(separators=(",", ":"))


def _jsonl_lines(d: int, table: RegionTable) -> Iterator[str]:
    """The header line, then one line per row, each ending in "\\n".

    Box and feature rows become Python floats one row at a time, so no more
    than a row of them is held.
    """
    yield _JSON.encode({"d": d, "version": JSONL_VERSION}) + "\n"
    rows = zip(table.region_ids, table.image_of(), table.boxes, table.scores.tolist(), table.features, table.gt_labels)
    for region_id, image_id, box, score, feature, label in rows:
        yield _JSON.encode({
            "region_id": region_id, "image_id": image_id, "box": box.tolist(),
            "score": score, "feature": feature.tolist(), "gt_label": label,
        }) + "\n"


def write_corpus_jsonl(path: str | Path, d: int, records: Iterable[RegionRecord] | RegionTable) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_jsonl_lines(d, _table_of(d, records)))


def _jsonl_header(lines: Iterator[tuple[int, str]], path: Path) -> int:
    """The dimension that the first of ``lines``, the header record, declares."""
    try:
        _, line = next(lines, (1, ""))
    except ValueError as exc:  # the header is not UTF-8
        raise CorpusFormatError(str(exc)) from exc
    try:
        header = parse_json_line(line)
        d = int(header["d"])
        version = int(header["version"])
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise CorpusFormatError(f"{path}: line 1: bad header record: {exc}") from exc
    if version != JSONL_VERSION:
        raise CorpusFormatError(f"{path}: line 1: unsupported version {version}")
    if d < 1:
        raise CorpusFormatError(f"{path}: line 1: dimension {d} is not positive")
    return d


def _declared(path: Path, d: int, configured: int | None) -> int:
    """The header's dimension ``d``, unless another, ``configured``, was asked for."""
    if configured is not None and d != configured:
        raise CorpusFormatError(f"{path}: corpus dimension {d} != configured dimension {configured}")
    return d


def _read_jsonl(path: Path, configured: int | None) -> RegionTable:
    """Every record as a table row; errors name the file and line.

    String ids and a float score are taken as they are; any other value goes
    through ``str`` or ``float``, so a bad record gets the same message.
    """
    # One list per column, not a tuple per record: a tuple or box list per record
    # would be an object for the garbage collector to track and promote.
    ids, images, coords, scores, features, labels, lines = [], [], [], [], [], [], []
    stop = None  # the error of the line that ended the read early, if any
    with closing(read_lines(path)) as text:
        d = _declared(path, _jsonl_header(text, path), configured)
        shape = (d,)
        while True:
            try:
                lineno, line = next(text)
            except StopIteration:
                break
            except ValueError as exc:  # not UTF-8: the line ends the read as a bad record would
                stop = str(exc)
                break
            if not line or line.isspace():
                continue
            try:
                obj = parse_json_line(line)
            except json.JSONDecodeError as exc:
                stop = f"{path}: line {lineno}: invalid JSON at column {exc.colno}"
                break
            except (ValueError, RecursionError) as exc:  # a too-long integer literal, or nesting too deep
                stop = f"{path}: line {lineno}: {exc}"
                break
            try:
                box = parse_box(obj["box"])
                label = obj.get("gt_label")
                region_id = obj["region_id"]
                if type(region_id) is not str:
                    region_id = str(region_id)
                image_id = obj["image_id"]
                if type(image_id) is not str:
                    image_id = str(image_id)
                score = obj["score"]
                if type(score) is not float:
                    score = float(score)
                feature = np.asarray(obj["feature"], dtype=np.float64)
            except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
                stop = f"{path}: line {lineno}: {exc}"
                break
            if feature.shape != shape:  # the score and the values are checked in _checked_table
                fault = region_fault(region_id, score, feature)
                stop = f"{path}: line {lineno}: {fault}" if fault else (
                    f"{path}: region '{region_id}': feature dimension {feature.shape[0]} != {d}"
                )
                break
            ids.append(region_id)
            images.append(image_id)
            coords += box
            scores.append(score)
            features.append(feature)
            labels.append((label if type(label) is str else str(label)) if label else None)
            lines.append(lineno)
    return _checked_table(
        path, lambda i: f"{path}: line {lines[i]}", ids, images,
        np.array(coords, dtype=np.float64).reshape(-1, 4), np.array(scores, dtype=np.float64),
        np.array(features, dtype=np.float64).reshape(len(ids), d), labels, stop,
    )


# ---------------------------------------------------------------------------
# Binary format
# ---------------------------------------------------------------------------

def _record_dtype(d: int) -> np.dtype:
    """One packed record: three fixed-width UTF-8 fields, the box and score, the float32 feature."""
    text = f"S{ID_FIELD_BYTES}"
    return np.dtype([
        ("region_id", text), ("image_id", text), ("box", "<f4", (4,)), ("score", "<f4"),
        ("gt_label", text), ("feature", "<f4", (d,)),
    ])


def _pack_ids(values: Iterable[str], what: str) -> list[bytes]:
    packed = [value.encode("utf-8") for value in values]
    for value, raw in zip(values, packed):
        if len(raw) > ID_FIELD_BYTES:
            raise CorpusFormatError(
                f"{what} '{value}' exceeds the {ID_FIELD_BYTES}-byte binary field limit"
            )
    return packed


def write_corpus_binary(path: str | Path, d: int, records: Iterable[RegionRecord] | RegionTable) -> None:
    table = _table_of(d, records)
    packed = np.zeros(len(table), dtype=_record_dtype(d))
    packed["region_id"] = _pack_ids(table.region_ids, "region_id")
    packed["image_id"] = _pack_ids(table.image_of(), "image_id")
    packed["gt_label"] = _pack_ids([label or "" for label in table.gt_labels], "gt_label")
    with np.errstate(over="ignore"):
        packed["box"], packed["score"], packed["feature"] = table.boxes, table.scores, table.features
    unpackable = ~(np.isfinite(packed["box"]).all(axis=1) & np.isfinite(packed["score"]))
    unpackable |= ~np.isfinite(packed["feature"]).all(axis=1)
    if unpackable.any():
        region_id = table.region_ids[int(np.argmax(unpackable))]
        raise CorpusFormatError(f"region '{region_id}': values outside the float32 range cannot be packed")
    with open(path, "wb") as fh:
        fh.write(BINARY_HEADER.pack(BINARY_MAGIC, BINARY_VERSION, d, len(table)))
        fh.write(packed.tobytes())


def _binary_header(fh, path: Path) -> tuple[int, int]:
    """The dimension and record count of a file that ``_is_binary`` found to start with the magic."""
    header = fh.read(BINARY_HEADER.size)
    if len(header) != BINARY_HEADER.size:
        raise CorpusFormatError(f"{path}: binary header truncated (expected 16 bytes)")
    _, version, d, count = BINARY_HEADER.unpack(header)
    if version != BINARY_VERSION:
        raise CorpusFormatError(f"{path}: unsupported binary version {version}")
    if d < 1:
        raise CorpusFormatError(f"{path}: dimension {d} is not positive")
    return d, count


def _decode_ids(path: Path, columns: list[list[bytes]]) -> tuple[list[list[str]], str | None]:
    """The columns decoded, up to the first record with a field that is not UTF-8, and its error."""
    try:
        return [[value.decode("utf-8") for value in column] for column in columns], None
    except UnicodeDecodeError:
        for index, fields in enumerate(zip(*columns)):
            try:
                [value.decode("utf-8") for value in fields]
            except UnicodeDecodeError as exc:
                decoded, _ = _decode_ids(path, [column[:index] for column in columns])
                return decoded, f"{path}: record {index}: {exc}"


def _read_binary(path: Path, configured: int | None) -> RegionTable:
    """Every record as a table row; errors name the file and the record (and its offset)."""
    with open(path, "rb") as fh:
        d, count = _binary_header(fh, path)
        _declared(path, d, configured)
        record_size = 3 * ID_FIELD_BYTES + 4 * (5 + d)
        size = os.fstat(fh.fileno()).st_size
        expected = BINARY_HEADER.size + count * record_size
        if size > expected:
            raise CorpusFormatError(
                f"{path}: {size - expected} trailing bytes: {count} records of d={d} "
                f"take {expected} bytes, the file has {size}"
            )
        # Counted before reading: a corrupt d must not request more than the file holds.
        whole = min(count, (size - BINARY_HEADER.size) // record_size)
        records = np.fromfile(fh, dtype=_record_dtype(d if whole else 0), count=whole)
    stop = None
    if whole < count:
        stop = f"{path}: record {whole} at offset {BINARY_HEADER.size + whole * record_size}: truncated"
    names = ("gt_label", "region_id", "image_id")  # the order each record's fields are checked in
    (labels, ids, images), bad_text = _decode_ids(path, [records[name].tolist() for name in names])
    records = records[: len(ids)]
    with np.errstate(invalid="ignore"):  # a signalling NaN; _checked_table names its record
        boxes, scores = records["box"].astype(np.float64), records["score"].astype(np.float64)
        features = np.ascontiguousarray(records["feature"], dtype=np.float64).reshape(len(ids), d)
    return _checked_table(
        path, lambda i: f"{path}: record {i}", ids, images, boxes, scores, features,
        [label or None for label in labels], bad_text or stop,
    )


def _checked_table(path, where, ids, images, boxes, scores, features, labels, stop) -> RegionTable:
    """The table of the records read, or the error of the first bad record.

    The records are checked as a stream would check them: each record's box,
    score and feature, then its region id and label (no tab or newline, nor a
    carriage return in a label, which ``assignments.tsv`` cannot hold), then its
    id against the earlier ones, then the image that ended with it. ``stop`` is
    the error of the record after the last one given, which ended the read, if any.
    """
    n = len(ids)
    errors = [(n, 0, stop)] if stop else []
    bad = ~(
        np.isfinite(boxes).all(axis=1) & (boxes[:, 2] > boxes[:, 0]) & (boxes[:, 3] > boxes[:, 1])
        & (scores >= 0.0) & (scores <= 1.0) & np.isfinite(features).all(axis=1)
    )
    text = "".join(ids) + "".join(label for label in labels if label)
    if "\t" in text or "\n" in text or "\r" in text:
        bad |= np.array([text_fault(region_id, label) is not None for region_id, label in zip(ids, labels)])
    if bad.any():
        i = int(np.argmax(bad))
        fault = (
            box_fault(*boxes[i].tolist()) or region_fault(ids[i], float(scores[i]), features[i])
            or text_fault(ids[i], labels[i])
        )
        errors.append((i, 1, f"{where(i)}: {fault}"))
    seen: set[str] = set()
    if len(set(ids)) < n:
        j = next(j for j, region_id in enumerate(ids) if region_id in seen or seen.add(region_id))
        errors.append((j, 2, f"{path}: duplicate region_id '{ids[j]}'"))
    heads = [i for i in range(n) if i == 0 or images[i] != images[i - 1]]
    image_ids = [images[i] for i in heads]
    seen.clear()
    if len(set(image_ids)) < len(image_ids):
        r = next(r for r, image_id in enumerate(image_ids) if image_id in seen or seen.add(image_id))
        ended = heads[r + 1] if r + 1 < len(heads) else n
        errors.append((ended, 3, f"{path}: image '{image_ids[r]}' appears in more than one block"))
    if errors:
        raise CorpusFormatError(min(errors)[2])
    return RegionTable(ids, image_ids, np.array(heads + [n], dtype=np.intp), boxes, scores, features, labels)


def _is_binary(path: Path) -> bool:
    with open(path, "rb") as fh:
        return fh.read(4) == BINARY_MAGIC


def open_corpus(path: str | Path, d: int | None = None) -> RegionTable:
    """Every record of either corpus format, checked, in file order.

    With ``d`` given, a header that declares another dimension is refused before any record is read.
    """
    path = Path(path)
    return _read_binary(path, d) if _is_binary(path) else _read_jsonl(path, d)


def read_corpus_dim(path: str | Path) -> int:
    """The dimension a corpus file's header declares; nothing else is read."""
    path = Path(path)
    if _is_binary(path):
        with open(path, "rb") as fh:
            return _binary_header(fh, path)[0]
    with closing(read_lines(path)) as lines:
        return _jsonl_header(lines, path)


def convert_corpus(src: str | Path, dst: str | Path) -> None:
    """Convert between the JSON-lines and binary corpus formats.

    The target format is inferred from what the source is not. Binary floats are
    32-bit, so converting JSON to binary insists on float32-exact values rather
    than silently rounding.
    """
    src, dst = Path(src), Path(dst)
    table = open_corpus(src)
    if _is_binary(src):
        write_corpus_jsonl(dst, table.d, table)
        return
    values = np.hstack([table.features, table.boxes, table.scores[:, None]])
    inexact = np.flatnonzero((values.astype(np.float32).astype(np.float64) != values).any(axis=1))
    if inexact.size:
        raise CorpusFormatError(
            f"region '{table.region_ids[inexact[0]]}': values are not float32-exact; "
            "binary conversion would lose precision"
        )
    write_corpus_binary(dst, table.d, table)


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

def _ingest_order(table: RegionTable, per_image: int = sys.maxsize) -> RegionTable:
    """The table's rows in file order across images, score-descending within.

    Each image keeps its top ``per_image`` regions; score ties break on
    region_id ascending so ingestion is a pure function of the file bytes.
    """
    id_rank = np.empty(len(table), dtype=np.intp)
    id_rank[np.argsort(np.array(table.region_ids, dtype=object), kind="stable")] = np.arange(len(table))
    order = np.lexsort((id_rank, -table.scores, table.row_image))
    # Sorting keeps each image's block in place, so a row's rank in its image is its offset in the block.
    rank = np.arange(len(table)) - table.image_starts[table.row_image]
    return table.take(order[rank < per_image])


def ingest_features(path: str | Path, config: Config) -> RegionTable:
    """Every record of a corpus or priors file, in file order and ``config.d`` wide, with features as discovery
    reads them: each scaled to unit L2 norm if ``config.l2_normalize``. ``det_scores`` priors are read this way.
    """
    table = open_corpus(path, config.d)
    if config.l2_normalize:
        # One np.linalg.norm per row: a norm along axis 1 sums in another order and may round differently.
        norms = np.array([np.linalg.norm(row) for row in table.features])
        for row in np.flatnonzero(norms == 0.0).tolist():
            logger.warning("region '%s': zero feature cannot be L2-normalized", table.region_ids[row])
        table.features[norms > 0.0] /= norms[norms > 0.0, None]
    return table


def ingest_corpus(path: str | Path, config: Config) -> RegionTable:
    """The corpus as discovery reads it: ``ingest_features``, each image's top ``config.n_proposals_per_image``."""
    return _ingest_order(ingest_features(path, config), config.n_proposals_per_image)


def load_corpus(path: str | Path) -> RegionTable:
    """Every region in ingest order at the declared dimension: what ``eval`` and ``baseline`` read."""
    return _ingest_order(open_corpus(path))


# ---------------------------------------------------------------------------
# Dataset split
# ---------------------------------------------------------------------------

@dataclass
class DatasetSplit:
    """Two disjoint lists of image positions covering the corpus; the halves alternate roles."""

    d1: list[int]
    d2: list[int]


def split_dataset(image_ids: list[str], seed: int) -> DatasetSplit:
    """Deterministic 50/50 split of the positions of ``image_ids``; d1 takes the extra one when the count is odd.

    ``random.shuffle`` draws by length only, so these are the positions of the ids' own shuffle.
    """
    if not image_ids:
        raise ValueError("cannot split an empty image-id list")
    if len(set(image_ids)) != len(image_ids):
        raise ValueError("image_ids contain duplicates")
    shuffled = list(range(len(image_ids)))
    random.Random(seed).shuffle(shuffled)
    half = (len(shuffled) + 1) // 2
    return DatasetSplit(d1=shuffled[:half], d2=shuffled[half:])
