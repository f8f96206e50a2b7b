"""Corpus file formats, streaming ingestion, and the two-way dataset split.

Two on-disk representations carry the same records: line-delimited JSON with a
header line, and a packed binary variant for bulk corpora. Both are produced
and consumed here, and a converter maps between them.
"""

from __future__ import annotations

import json
import logging
import random
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .config import Config
from .records import BoundingBox, CorpusFormatError, RegionRecord

logger = logging.getLogger(__name__)

JSONL_VERSION = 1
BINARY_MAGIC = b"DMRF"
BINARY_VERSION = 1
# Fixed-width string fields in the binary record; longer ids/labels cannot be packed.
ID_FIELD_BYTES = 64


# ---------------------------------------------------------------------------
# JSON lines format
# ---------------------------------------------------------------------------

def _record_to_json(record: RegionRecord) -> str:
    payload = {
        "region_id": record.region_id,
        "image_id": record.image_id,
        "box": record.box.as_list(),
        "score": record.score,
        "feature": [float(v) for v in record.feature],
        "gt_label": record.gt_label,
    }
    return json.dumps(payload, separators=(",", ":"))


def write_corpus_jsonl(path: str | Path, d: int, records: Iterable[RegionRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"d": d, "version": JSONL_VERSION}, separators=(",", ":")) + "\n")
        for record in records:
            fh.write(_record_to_json(record) + "\n")


def _parse_json_record(obj: dict, lineno: int) -> RegionRecord:
    try:
        box = BoundingBox(*(float(v) for v in obj["box"]))
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
        raise CorpusFormatError(f"line {lineno}: {exc}") from exc


def _iter_jsonl(path: Path) -> Iterator[int | RegionRecord]:
    """Yield the header's dimension, then the records."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            header = json.loads(fh.readline())
            d = int(header["d"])
            version = int(header["version"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise CorpusFormatError(f"line 1: bad header record: {exc}") from exc
        if version != JSONL_VERSION:
            raise CorpusFormatError(f"line 1: unsupported version {version}")
        yield d
        for lineno, line in enumerate(fh, 2):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"line {lineno}: invalid JSON at column {exc.colno}") from exc
            yield _parse_json_record(obj, lineno)


# ---------------------------------------------------------------------------
# Binary format
# ---------------------------------------------------------------------------

def _pack_id(value: str, what: str) -> bytes:
    raw = value.encode("utf-8")
    if len(raw) > ID_FIELD_BYTES:
        raise CorpusFormatError(
            f"{what} '{value}' exceeds the {ID_FIELD_BYTES}-byte binary field limit"
        )
    return raw.ljust(ID_FIELD_BYTES, b"\x00")


def write_corpus_binary(path: str | Path, d: int, records: Iterable[RegionRecord]) -> None:
    materialized = list(records)
    record_struct = struct.Struct(f"<{ID_FIELD_BYTES}s{ID_FIELD_BYTES}s5f{ID_FIELD_BYTES}s{d}f")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIII", BINARY_MAGIC, BINARY_VERSION, d, len(materialized)))
        for record in materialized:
            label = record.gt_label or ""
            fh.write(
                record_struct.pack(
                    _pack_id(record.region_id, "region_id"),
                    _pack_id(record.image_id, "image_id"),
                    record.box.x1,
                    record.box.y1,
                    record.box.x2,
                    record.box.y2,
                    record.score,
                    _pack_id(label, "gt_label"),
                    *(float(v) for v in record.feature),
                )
            )


def _iter_binary(path: Path) -> Iterator[int | RegionRecord]:
    """Yield the header's dimension, then the records."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16:
            raise CorpusFormatError("binary header truncated (expected 16 bytes)")
        magic, version, d, count = struct.unpack("<4sIII", header)
        if magic != BINARY_MAGIC:
            raise CorpusFormatError(f"bad magic {magic!r}, expected {BINARY_MAGIC!r}")
        if version != BINARY_VERSION:
            raise CorpusFormatError(f"unsupported binary version {version}")
        yield d
        record_struct = struct.Struct(f"<{ID_FIELD_BYTES}s{ID_FIELD_BYTES}s5f{ID_FIELD_BYTES}s{d}f")
        for index in range(count):
            blob = fh.read(record_struct.size)
            if len(blob) != record_struct.size:
                raise CorpusFormatError(
                    f"record {index} at offset {16 + index * record_struct.size}: truncated"
                )
            fields = record_struct.unpack(blob)
            region_id = fields[0].rstrip(b"\x00").decode("utf-8")
            image_id = fields[1].rstrip(b"\x00").decode("utf-8")
            x1, y1, x2, y2, score = fields[2:7]
            label = fields[7].rstrip(b"\x00").decode("utf-8")
            feature = np.asarray(fields[8:], dtype=np.float64)
            try:
                yield RegionRecord(
                    region_id=region_id,
                    image_id=image_id,
                    box=BoundingBox(x1, y1, x2, y2),
                    score=float(score),
                    feature=feature,
                    gt_label=label or None,
                )
            except ValueError as exc:
                raise CorpusFormatError(f"record {index}: {exc}") from exc


def _is_binary(path: Path) -> bool:
    with open(path, "rb") as fh:
        return fh.read(4) == BINARY_MAGIC


def open_corpus(path: str | Path) -> tuple[int, Iterator[RegionRecord]]:
    """Open either corpus format, returning the declared dimension and a record stream.

    The header is read and checked before this returns. The stream owns the
    open file and closes it when exhausted, closed, or garbage-collected.
    """
    path = Path(path)
    stream = _iter_binary(path) if _is_binary(path) else _iter_jsonl(path)
    d = next(stream)
    return d, stream  # type: ignore[return-value]


def read_corpus_dim(path: str | Path) -> int:
    d, stream = open_corpus(path)
    stream.close()
    return d


def convert_corpus(src: str | Path, dst: str | Path) -> None:
    """Convert between the JSON-lines and binary corpus formats.

    The target format is inferred from what the source is not. Binary floats are
    32-bit, so converting JSON to binary insists on float32-exact values rather
    than silently rounding.
    """
    src, dst = Path(src), Path(dst)
    d, records = open_corpus(src)
    if _is_binary(src):
        write_corpus_jsonl(dst, d, records)
        return
    checked = _require_float32_exact(records)
    write_corpus_binary(dst, d, checked)


def _require_float32_exact(records: Iterable[RegionRecord]) -> Iterator[RegionRecord]:
    for record in records:
        values = np.concatenate([record.feature, record.box.as_list(), [record.score]])
        if not np.all(values.astype(np.float32).astype(np.float64) == values):
            raise CorpusFormatError(
                f"region '{record.region_id}': values are not float32-exact; "
                "binary conversion would lose precision"
            )
        yield record


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

def ingest_corpus(path: str | Path, config: Config) -> Iterator[list[RegionRecord]]:
    """Stream per-image batches: file order across images, score-descending within.

    Each batch is truncated to ``config.n_proposals_per_image``; score ties break
    on region_id ascending so ingestion is a pure function of the file bytes.
    """
    d, records = open_corpus(path)
    if d != config.d:
        raise CorpusFormatError(f"corpus dimension {d} != configured dimension {config.d}")

    seen_regions: set[str] = set()
    finished_images: set[str] = set()
    current_image: str | None = None
    batch: list[RegionRecord] = []

    def finish(image_id: str, regions: list[RegionRecord]) -> list[RegionRecord]:
        if image_id in finished_images:
            raise CorpusFormatError(f"image '{image_id}' appears in more than one block")
        finished_images.add(image_id)
        regions.sort(key=lambda r: (-r.score, r.region_id))
        return regions[: config.n_proposals_per_image]

    for record in records:
        if record.feature.shape[0] != d:
            raise CorpusFormatError(
                f"region '{record.region_id}': feature dimension "
                f"{record.feature.shape[0]} != {d}"
            )
        if record.region_id in seen_regions:
            raise CorpusFormatError(f"duplicate region_id '{record.region_id}'")
        seen_regions.add(record.region_id)
        if config.l2_normalize:
            norm = float(np.linalg.norm(record.feature))
            if norm > 0.0:
                record.feature = record.feature / norm
            else:
                logger.warning("region '%s': zero feature cannot be L2-normalized", record.region_id)
        if record.image_id != current_image:
            if current_image is not None:
                yield finish(current_image, batch)
            current_image = record.image_id
            batch = []
        batch.append(record)
    if current_image is not None:
        yield finish(current_image, batch)


def load_corpus(path: str | Path, config: Config) -> dict[str, list[RegionRecord]]:
    """Materialize the ingested stream as an ordered image_id -> batch mapping."""
    return {batch[0].image_id: batch for batch in ingest_corpus(path, config)}


# ---------------------------------------------------------------------------
# Dataset split
# ---------------------------------------------------------------------------

@dataclass
class DatasetSplit:
    """Two disjoint image-id lists covering the corpus; the halves alternate roles."""

    d1: list[str]
    d2: list[str]


def split_dataset(image_ids: list[str], seed: int) -> DatasetSplit:
    """Deterministic 50/50 split; d1 takes the extra element when the count is odd."""
    if not image_ids:
        raise ValueError("cannot split an empty image-id list")
    if len(set(image_ids)) != len(image_ids):
        raise ValueError("image_ids contain duplicates")
    shuffled = list(image_ids)
    random.Random(seed).shuffle(shuffled)
    half = (len(shuffled) + 1) // 2
    return DatasetSplit(d1=shuffled[:half], d2=shuffled[half:])
