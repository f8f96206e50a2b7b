"""Regions and ground-truth boxes as columnar tables, the region records the corpus writers accept, and their checks."""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np


class CorpusFormatError(ValueError):
    """A corpus file violates the record format (bad header, bad line, bad field)."""


def box_fault(x1: float, y1: float, x2: float, y2: float) -> str | None:
    """Why a box is invalid, or None: its coordinates must be finite, with x2 > x1 and y2 > y1."""
    if not (-math.inf < x1 < x2 < math.inf and -math.inf < y1 < y2 < math.inf):
        return f"box [{x1}, {y1}, {x2}, {y2}] must have finite coordinates with x2 > x1 and y2 > y1"
    return None


def parse_box(value: object) -> list[float]:
    """A JSON box's coordinates; ValueError unless it is four numbers (no bool or string) making a valid box."""
    if type(value) is not list or len(value) != 4 or not {int, float}.issuperset(map(type, value)):
        raise ValueError(f"box must be a JSON array of four numbers, got {reprlib.repr(value)}")
    box = [float(v) for v in value]
    fault = box_fault(*box)
    if fault:
        raise ValueError(fault)
    return box


def text_fault(region_id: str, label: str | None) -> str | None:
    """Why a region id or label cannot be an ``assignments.tsv`` field, or None.

    Neither may hold a tab or a newline. A label, the last field of a line, may
    hold no carriage return either: the reader drops one before the newline.
    """
    for what, value in (("region_id", region_id), ("gt_label", label)):
        if value and ("\t" in value or "\n" in value):
            return f"{what} {value!r} contains a tab or a newline"
    if label and "\r" in label:
        return f"gt_label {label!r} contains a carriage return"
    return None


def region_fault(region_id: str, score: float, feature: np.ndarray) -> str | None:
    """Why a region's score or float64 feature is invalid, or None; the checks run in this order."""
    if not (0.0 <= score <= 1.0):
        return f"region '{region_id}': score {score} outside [0, 1]"
    if feature.ndim != 1:
        return f"region '{region_id}': feature must be a flat vector"
    if not np.all(np.isfinite(feature)):
        return f"region '{region_id}': feature contains non-finite values"
    return None


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in pixel coordinates, origin top-left."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        fault = box_fault(self.x1, self.y1, self.x2, self.y2)
        if fault:
            raise ValueError(fault)

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    def as_list(self) -> list[float]:
        return [self.x1, self.y1, self.x2, self.y2]


@dataclass(eq=False)
class RegionRecord:
    """One proposal: where it is, how confident the proposer was, and its feature.

    The generator builds these and the corpus writers accept them; everything
    that reads a corpus reads a ``RegionTable``.
    """

    region_id: str
    image_id: str
    box: BoundingBox
    score: float
    feature: np.ndarray
    gt_label: str | None = field(default=None)

    def __post_init__(self) -> None:
        self.feature = np.asarray(self.feature, dtype=np.float64)
        fault = region_fault(self.region_id, self.score, self.feature)
        if fault:
            raise ValueError(fault)


@dataclass(eq=False)
class RegionTable:
    """Regions as columns, one row per region; each image's rows are contiguous.

    Rows ``image_starts[i]:image_starts[i + 1]`` belong to image ``image_ids[i]``;
    ``image_starts`` ends with the row count. ``gt_labels`` is evaluation-side
    metadata, which discovery reads only to collect priors.
    """

    region_ids: list[str]
    image_ids: list[str]
    image_starts: np.ndarray
    boxes: np.ndarray  # (n, 4) float64: x1, y1, x2, y2
    scores: np.ndarray  # (n,) float64
    features: np.ndarray  # (n, d) float64, C-contiguous
    gt_labels: list[str | None]

    def __len__(self) -> int:
        return len(self.region_ids)

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @cached_property
    def row_image(self) -> np.ndarray:
        """The index in ``image_ids`` of each row's image."""
        return np.repeat(np.arange(len(self.image_ids)), np.diff(self.image_starts))

    def image_of(self, rows: Sequence[int] | np.ndarray | slice = slice(None)) -> list[str]:
        """The image id of each of ``rows`` (default: every row)."""
        return [self.image_ids[i] for i in self.row_image[rows].tolist()]

    def take(self, rows: Sequence[int] | np.ndarray) -> "RegionTable":
        """The table of ``rows`` in the given order; an image's rows should stay adjacent."""
        rows = np.asarray(rows, dtype=np.intp)
        images = self.row_image[rows]
        heads = np.flatnonzero(np.diff(images, prepend=-1))
        return RegionTable(
            region_ids=[self.region_ids[r] for r in rows.tolist()],
            image_ids=[self.image_ids[i] for i in images[heads].tolist()],
            image_starts=np.append(heads, len(rows)),
            boxes=self.boxes[rows],
            scores=self.scores[rows],
            features=self.features[rows],
            gt_labels=[self.gt_labels[r] for r in rows.tolist()],
        )

    @classmethod
    def from_records(cls, records: Iterable[RegionRecord], d: int = 0) -> "RegionTable":
        """The records' table in their order; ``d`` is the dimension of an empty table."""
        records = list(records)
        features = np.array([r.feature for r in records], dtype=np.float64)
        images = [r.image_id for r in records]
        heads = [i for i, image in enumerate(images) if i == 0 or image != images[i - 1]]
        return cls(
            region_ids=[r.region_id for r in records],
            image_ids=[images[i] for i in heads],
            image_starts=np.array(heads + [len(records)], dtype=np.intp),
            boxes=np.array([r.box.as_list() for r in records], dtype=np.float64).reshape(-1, 4),
            scores=np.array([r.score for r in records], dtype=np.float64),
            features=features.reshape(len(records), -1) if records else np.empty((0, d)),
            gt_labels=[r.gt_label for r in records],
        )


def _encode(values: list[str]) -> tuple[dict[str, int], np.ndarray]:
    """Each distinct value's index in sorted order (a dict in that order), and each value's index."""
    index = {value: i for i, value in enumerate(sorted(set(values)))}
    return index, np.array([index[value] for value in values], dtype=np.intp)


@dataclass(eq=False)
class GroundTruthTable:
    """Ground-truth boxes as columns, one row per box, in file order.

    ``image_index`` maps each distinct image id to its index in sorted order, and
    ``classes`` lists the distinct class names in sorted order; ``image_code`` and
    ``class_code`` give each box's index.
    """

    image_ids: list[str]
    boxes: np.ndarray  # (m, 4) float64: x1, y1, x2, y2
    class_names: list[str]
    known: np.ndarray  # (m,) bool: the box's class is known to discovery
    image_index: dict[str, int] = field(init=False)
    image_code: np.ndarray = field(init=False)
    classes: list[str] = field(init=False)
    class_code: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.image_index, self.image_code = _encode(self.image_ids)
        class_index, self.class_code = _encode(self.class_names)
        self.classes = list(class_index)

    def __len__(self) -> int:
        return len(self.image_ids)

    def take(self, rows: Sequence[int] | np.ndarray) -> "GroundTruthTable":
        """The table of ``rows`` in the given order."""
        rows = np.asarray(rows, dtype=np.intp)
        return GroundTruthTable(
            image_ids=[self.image_ids[r] for r in rows.tolist()],
            boxes=self.boxes[rows],
            class_names=[self.class_names[r] for r in rows.tolist()],
            known=self.known[rows],
        )
