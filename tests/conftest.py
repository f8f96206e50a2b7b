import numpy as np
import pytest

from dualmem.records import BoundingBox, GroundTruthBox, GroundTruthTable, RegionRecord, RegionTable
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


def gt_table_of(boxes):
    return GroundTruthTable.from_boxes(boxes)


def boxes_of(gt):
    """Each row of a ground-truth table as a GroundTruthBox, for assertions written against boxes."""
    rows = zip(gt.image_ids, gt.boxes.tolist(), gt.class_names, gt.known.tolist())
    return [GroundTruthBox(image_id, BoundingBox(*box), name, known) for image_id, box, name, known in rows]


def batches_of(table):
    """The records of each image, in row order."""
    records = records_of(table)
    starts = table.image_starts.tolist()
    return [records[start:end] for start, end in zip(starts, starts[1:])]


def identity_bg(d, count=1000, mean=None):
    """Background with identity covariance: classifier weights equal the mean gap."""
    mu = np.zeros(d) if mean is None else np.asarray(mean, dtype=np.float64)
    return BackgroundStats.from_moments(mu, np.eye(d), count)


@pytest.fixture
def bg2():
    return identity_bg(2)
