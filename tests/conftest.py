from typing import NamedTuple

import numpy as np
import pytest

from dualmem.records import BoundingBox, GroundTruthTable, RegionRecord, RegionTable
from dualmem.stats import BackgroundStats


def rel_err(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.linalg.norm(a - b) / (1.0 + np.linalg.norm(b)))


def make_region(region_id, image_id, feature, score=0.5, box=None, gt_label=None):
    return RegionRecord(
        region_id=region_id,
        image_id=image_id,
        box=box or BoundingBox(0.0, 0.0, 1.0, 1.0),
        score=score,
        feature=np.asarray(feature, dtype=np.float64),
        gt_label=gt_label,
    )


def table_of(records, d=0):
    return RegionTable.from_records(records, d)


def records_of(table):
    """Each row of a table as a RegionRecord, for assertions written against records."""
    rows = zip(
        table.region_ids, table.image_of(), table.boxes.tolist(), table.scores.tolist(),
        table.features, table.gt_labels,
    )
    return [
        RegionRecord(region_id, image_id, BoundingBox(*box), score, feature, label)
        for region_id, image_id, box, score, feature, label in rows
    ]


class GtBox(NamedTuple):
    """One ground-truth row as the tests write it: a tuple, with the box as a BoundingBox."""

    image_id: str
    box: BoundingBox
    class_name: str
    known_flag: bool = False


def gt_table_of(boxes):
    """The ground-truth table of (image_id, box, class_name, known_flag) tuples, in their order."""
    rows = [GtBox(*row) for row in boxes]
    return GroundTruthTable(
        image_ids=[row.image_id for row in rows],
        boxes=np.array([row.box.as_list() for row in rows], dtype=np.float64).reshape(-1, 4),
        class_names=[row.class_name for row in rows],
        known=np.array([row.known_flag for row in rows], dtype=bool),
    )


def boxes_of(gt):
    """Each row of a ground-truth table as a GtBox, for assertions written against boxes."""
    rows = zip(gt.image_ids, gt.boxes.tolist(), gt.class_names, gt.known.tolist())
    return [GtBox(image_id, BoundingBox(*box), name, known) for image_id, box, name, known in rows]


def batches_of(table):
    """The records of each image, in row order."""
    records = records_of(table)
    starts = table.image_starts.tolist()
    return [records[start:end] for start, end in zip(starts, starts[1:])]


def identity_bg(d, count=1000, mean=None):
    """Background with identity covariance: classifier weights equal the mean gap."""
    mu = np.zeros(d) if mean is None else np.asarray(mean, dtype=np.float64)
    return BackgroundStats.from_moments(mu, np.eye(d), count)


def random_bg(rng, d):
    """Background with a random mean, a well-conditioned random covariance and a random count."""
    a = rng.standard_normal((d, d))
    return BackgroundStats.from_moments(
        rng.standard_normal(d), a @ a.T / d + 0.05 * np.eye(d), int(rng.integers(2, 10**6))
    )


@pytest.fixture
def bg2():
    return identity_bg(2)
