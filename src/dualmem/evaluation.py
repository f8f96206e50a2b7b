"""Clustering and localization metrics over discovered assignments.

All metrics are pure functions of the assignments, the region table, and the
ground-truth table: ``load_gt`` reads ``gt.jsonl`` into one ``GroundTruthTable``
(image ids, an (m, 4) box array, class names, known flags) and builds no object
per box. Cluster purity and coverage feed a cumulative-purity curve whose area
(percent scale) is the headline discovery number; CorLoc, CorRet, and DetRate
cover the localization-style protocols.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .records import BoundingBox, GroundTruthBox, GroundTruthTable, RegionTable, parse_box
from .reporting import UNASSIGNED, read_lines

BACKGROUND = "background"


@dataclass
class ClusterReport:
    label: str
    rows: list[int]
    purity: float
    majority_class: str
    size: int
    image_span: int


@dataclass
class DiscoveryReport:
    """Everything cmd-eval emits: per-cluster reads, curve points, scalar metrics."""

    clusters: list[ClusterReport]
    curves: dict[float, list[tuple[float, float]]]
    metrics: dict[str, float | int]


# ---------------------------------------------------------------------------
# Ground-truth file
# ---------------------------------------------------------------------------

def write_gt(path: str | Path, boxes: Iterable[GroundTruthBox]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for gt in boxes:
            fh.write(
                json.dumps(
                    {
                        "image_id": gt.image_id,
                        "box": gt.box.as_list(),
                        "class_name": gt.class_name,
                        "known_flag": gt.known_flag,
                    },
                    separators=(",", ":"),
                )
                + "\n"
            )


def load_gt(path: str | Path) -> GroundTruthTable:
    """Every record of a ground-truth file as a table row, in file order.

    Fields are checked in record order (image id, box, class name, known flag);
    the box must be an array of four numbers and the flag a JSON boolean. The
    first bad line raises ValueError naming the file and the line.
    """
    image_ids: list[str] = []
    coords: list[float] = []
    class_names: list[str] = []
    known: list[bool] = []
    for lineno, line in read_lines(path):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            image_ids.append(str(obj["image_id"]))
            coords += parse_box(obj["box"])
            class_names.append(str(obj["class_name"]))
            known_flag = obj["known_flag"]
            if type(known_flag) is not bool:
                raise ValueError(f"known_flag must be a JSON boolean, got {reprlib.repr(known_flag)}")
            known.append(known_flag)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}:{lineno}: bad ground-truth record: {exc}") from exc
    boxes = np.array(coords, dtype=np.float64).reshape(-1, 4)
    return GroundTruthTable(image_ids, boxes, class_names, np.array(known, dtype=bool))


def unknown_classes(gt: GroundTruthTable) -> set[str]:
    return {gt.classes[c] for c in np.unique(gt.class_code[~gt.known]).tolist()}


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------

def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes, in [0, 1]."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    intersection = ix * iy
    return intersection / (a.area + b.area - intersection)


def label_region(
    regions: RegionTable,
    row: int,
    gt: GroundTruthTable,
    iou_threshold: float,
) -> str | None:
    """Class of the first max-IoU box if it overlaps the region and clears the threshold."""
    table = IouTable(regions, [row], gt)
    best = int(table.best[0]) if table.best_iou[0] >= iou_threshold else -1
    return gt.class_names[best] if best >= 0 else None


class IouTable:
    """The IoU of every (region, ground-truth box) pair on one image.

    Region ``r`` of the table is row ``rows[r]`` of ``regions``. Pairs run region
    by region, and over an image's boxes in ground-truth order.
    The IoU takes the float operations of ``iou`` in its order, so the values are
    bit-identical. ``best`` is the ``gt`` index of each region's first max-IoU
    box, or -1 when no box overlaps the region: the ``label_region`` rule.
    """

    def __init__(self, regions: RegionTable, rows: Sequence[int], gt: GroundTruthTable):
        self.gt = gt
        self.rows = rows = np.asarray(rows, dtype=np.intp)
        self.gt_image = gt.image_code
        self.n_gt_images = len(gt.image_index)
        # Region r pairs with the count[c] boxes of its image c, which start at start[c] in
        # image order; c is -1 for an image without boxes, and count[-1] is 0.
        image_code = np.array([gt.image_index.get(image_id, -1) for image_id in regions.image_ids], dtype=int)
        region_image = image_code[regions.row_image[rows]]
        count = np.bincount(self.gt_image, minlength=self.n_gt_images + 1)
        start = np.cumsum(count) - count
        n_pairs = count[region_image]
        self.region = np.repeat(np.arange(len(rows)), n_pairs)
        offset = np.arange(len(self.region)) - np.repeat(np.cumsum(n_pairs) - n_pairs, n_pairs)
        in_image_order = np.repeat(start[region_image], n_pairs) + offset
        self.box = np.argsort(self.gt_image, kind="stable")[in_image_order]

        a = regions.boxes[rows][self.region].T
        b = gt.boxes[self.box].T
        ix = np.minimum(a[2], b[2]) - np.maximum(a[0], b[0])
        iy = np.minimum(a[3], b[3]) - np.maximum(a[1], b[1])
        intersection = ix * iy
        union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - intersection
        overlap = (ix > 0.0) & (iy > 0.0)
        self.iou = np.divide(intersection, union, out=np.zeros_like(union), where=overlap)

        self.best_iou = np.zeros(len(self.rows))
        np.maximum.at(self.best_iou, self.region, self.iou)
        is_best = overlap & (self.iou == self.best_iou[self.region])
        rows, first_best = np.unique(self.region[is_best], return_index=True)
        self.best = np.full(len(self.rows), -1)
        self.best[rows] = self.box[is_best][first_best]


class _ClusterTable(IouTable):
    """The IoU table over clustered regions, read by every box-based metric.

    A cluster is a list of rows of ``regions``. Clusters are numbered in label
    order. Each threshold's purities are counted once and shared by the curve,
    the reports and the discovery count.
    """

    def __init__(
        self, clusters: Mapping[str, Sequence[int]], regions: RegionTable, gt: GroundTruthTable
    ):
        self.labels = sorted(clusters)
        self.members = [list(clusters[label]) for label in self.labels]
        super().__init__(regions, [r for members in self.members for r in members], gt)
        self.images = regions.image_of(self.rows)
        self.sizes = [len(members) for members in self.members]
        self.cluster = np.repeat(np.arange(len(self.labels)), self.sizes)
        self._purities: dict[float, list[tuple[float, str]]] = {}

    def purities(self, t: float) -> list[tuple[float, str]]:
        """(purity, majority class) of each cluster at IoU threshold ``t``; see ``purity``."""
        if t not in self._purities:
            if 0 in self.sizes:
                raise ValueError("purity of an empty cluster is undefined")
            label = np.where(self.best_iou >= t, self.best, -1)
            hit = label >= 0
            n_classes = max(1, len(self.gt.classes))
            pairs = self.cluster[hit] * n_classes + self.gt.class_code[label[hit]]
            counts = np.bincount(pairs, minlength=len(self.labels) * n_classes).reshape(-1, n_classes)
            # argmax takes the first of equal counts: the smallest class name.
            top = zip(counts.max(axis=1, initial=0).tolist(), counts.argmax(axis=1).tolist())
            self._purities[t] = [
                (n / size, self.gt.classes[c]) if n else (0.0, BACKGROUND)
                for (n, c), size in zip(top, self.sizes)
            ]
        return self._purities[t]

    def _relevant_pairs(self, t: float, classes: set[str] | None) -> tuple[np.ndarray, int]:
        """Pairs hitting a box of ``classes`` (default: unknown), and that box count."""
        classes = unknown_classes(self.gt) if classes is None else classes
        relevant = np.array([name in classes for name in self.gt.classes], dtype=bool)[self.gt.class_code]
        return (self.iou >= t) & relevant[self.box], int(np.count_nonzero(relevant))

    def curve(self, t: float, classes: set[str] | None = None) -> list[tuple[float, float]]:
        purities = [p for p, _ in self.purities(t)]
        ranked = sorted(range(len(self.labels)), key=lambda c: (-purities[c], self.labels[c]))
        rank = np.argsort(ranked)  # cluster -> its place in the ranking
        # A box counts from the rank of the first cluster that hits it.
        hits, n_relevant = self._relevant_pairs(t, classes)
        first = np.full(len(self.gt), len(ranked), dtype=np.intp)
        np.minimum.at(first, self.box[hits], rank[self.cluster[self.region[hits]]])
        covered = np.cumsum(np.bincount(first, minlength=len(ranked) + 1)[:-1]).tolist()
        purity_sums = accumulate(purities[c] for c in ranked)
        return [
            (covered[k - 1] / n_relevant if n_relevant else 0.0, purity_sum / k)
            for k, purity_sum in enumerate(purity_sums, 1)
        ]

    def coverage(self, t: float, classes: set[str] | None = None) -> float:
        hits, n_relevant = self._relevant_pairs(t, classes)
        return np.unique(self.box[hits]).size / n_relevant if n_relevant else 0.0

    def corloc(self, t: float) -> float:
        hit = np.unique(self.gt_image[self.box[self.iou > t]]).size
        return 100.0 * hit / self.n_gt_images if self.n_gt_images else 0.0

    def detrate(self, t: float) -> float:
        recalled = np.unique(self.box[self.iou >= t]).size
        return 100.0 * recalled / len(self.gt) if len(self.gt) else 0.0

    def reports(self, t: float) -> list[ClusterReport]:
        ends = np.cumsum(self.sizes).tolist()
        spans = [len(set(self.images[end - size:end])) for size, end in zip(self.sizes, ends)]
        return [
            ClusterReport(label, members, p, majority, len(members), span)
            for label, members, (p, majority), span in zip(self.labels, self.members, self.purities(t), spans)
        ]

    def discovered(self, t: float, purity_floor: float, min_images: int) -> int:
        unknown = unknown_classes(self.gt)
        return len({
            r.majority_class for r in self.reports(t)
            if r.majority_class in unknown and r.purity >= purity_floor and r.image_span >= min_images
        })


# ---------------------------------------------------------------------------
# Cluster construction
# ---------------------------------------------------------------------------

def clusters_from_assignments(assignments: Mapping[str, str], regions: RegionTable) -> dict[str, list[int]]:
    """Group the rows of assigned regions by cluster label, in corpus order within."""
    clusters: dict[str, list[int]] = {}
    for row, region_id in enumerate(regions.region_ids):
        label = assignments.get(region_id, UNASSIGNED)
        if label != UNASSIGNED:
            clusters.setdefault(label, []).append(row)
    return clusters


# ---------------------------------------------------------------------------
# Clustering metrics
# ---------------------------------------------------------------------------

def purity(
    members: Sequence[int],
    regions: RegionTable,
    gt: GroundTruthTable,
    iou_threshold: float,
) -> tuple[float, str]:
    """Majority-class fraction over all members; background members only dilute.

    Returns (purity, majority class); an all-background cluster has purity 0 and
    majority ``background``. Ties break to the lexicographically smallest class.
    """
    return _ClusterTable({"": members}, regions, gt).purities(iou_threshold)[0]


def coverage(
    clusters: Mapping[str, Sequence[int]],
    regions: RegionTable,
    gt: GroundTruthTable,
    iou_threshold: float,
    classes: set[str] | None = None,
) -> float:
    """Fraction of ground-truth boxes hit by at least one clustered region.

    ``classes`` restricts which ground-truth boxes count; the default is the
    unknown classes, the set the discovery benchmark reports on.
    """
    return _ClusterTable(clusters, regions, gt).coverage(iou_threshold, classes)


def cumulative_purity_curve(
    clusters: Mapping[str, Sequence[int]],
    regions: RegionTable,
    gt: GroundTruthTable,
    iou_threshold: float,
    classes: set[str] | None = None,
) -> list[tuple[float, float]]:
    """Points (coverage of top-k clusters, mean purity of top-k), purity-descending.

    Equal purities order by cluster label so the x-axis is deterministic. Point
    k equals ``coverage`` of the top k clusters.
    """
    return _ClusterTable(clusters, regions, gt).curve(iou_threshold, classes)


def auc(curve: Sequence[tuple[float, float]]) -> float:
    """Trapezoidal area under the curve over the coverage axis, in percent.

    The curve is anchored at zero coverage with the first purity value; segment
    widths are scaled to percent before multiplying so count-derived fixtures
    evaluate exactly.
    """
    if not curve:
        return 0.0
    total = 0.0
    prev_x = 0.0
    prev_y = curve[0][1]
    for x, y in curve:
        total += (100.0 * (x - prev_x)) * ((prev_y + y) / 2.0)
        prev_x, prev_y = x, y
    return total


# ---------------------------------------------------------------------------
# Localization metrics
# ---------------------------------------------------------------------------

def corloc(
    assignments: Mapping[str, str],
    regions: RegionTable,
    gt: GroundTruthTable,
    iou_threshold: float = 0.5,
) -> float:
    """Percent of ground-truth-bearing images with one assigned region localized
    strictly above the IoU threshold."""
    clusters = clusters_from_assignments(assignments, regions)
    return _ClusterTable(clusters, regions, gt).corloc(iou_threshold)


def detrate(
    assignments: Mapping[str, str],
    regions: RegionTable,
    gt: GroundTruthTable,
    iou_threshold: float,
) -> float:
    """Recall of ground-truth boxes by assigned regions, in percent."""
    clusters = clusters_from_assignments(assignments, regions)
    return _ClusterTable(clusters, regions, gt).detrate(iou_threshold)


def corret(
    assignments: Mapping[str, str],
    regions: RegionTable,
    gt: GroundTruthTable,
    k: int = 10,
    by_slot: bool = False,
) -> float:
    """Mean percent of an image's k nearest neighbors sharing its majority class.

    The image representation is the mean of its assigned-region features, or a
    cluster-assignment histogram with ``by_slot``. Images with no assignments or
    no ground truth are not scored; k clamps to the eligible population. Equal
    similarities rank by image id.
    """
    row_of = {region_id: row for row, region_id in enumerate(regions.region_ids)}
    assigned = [rid for rid, label in assignments.items() if label != UNASSIGNED and rid in row_of]
    rows = np.array([row_of[rid] for rid in assigned], dtype=np.intp)
    image_of = regions.image_of(rows)
    eligible = sorted(set(image_of).intersection(gt.image_index))
    if len(eligible) < 2:
        return 0.0
    index_of = {image_id: index for index, image_id in enumerate(eligible)}
    images = np.array([index_of.get(image_id, -1) for image_id in image_of], dtype=np.intp)
    keep = images >= 0
    if by_slot:
        _, slots = np.unique([assignments[rid] for rid in assigned], return_inverse=True)
        reps = np.zeros((len(eligible), slots.max() + 1))
        np.add.at(reps, (images[keep], slots[keep]), 1.0)
    else:
        # ufunc.at adds in assignment order: the sequential sums of np.mean(axis=0).
        reps = np.zeros((len(eligible), regions.d))
        np.add.at(reps, images[keep], regions.features[rows[keep]])
        reps /= np.bincount(images[keep], minlength=len(eligible))[:, None]
    norms = np.linalg.norm(reps, axis=1)
    unit = reps / np.where(norms > 0.0, norms, 1.0)[:, None]
    sims = unit @ unit.T

    # Each image's majority class as an index into the sorted class names, from one
    # count per (image, class): argmax takes the first of equal counts, the smallest name.
    n_classes = len(gt.classes)
    counts = np.bincount(gt.image_code * n_classes + gt.class_code, minlength=len(gt.image_index) * n_classes)
    image_counts = counts.reshape(-1, n_classes)[[gt.image_index[image_id] for image_id in eligible]]
    classes = image_counts.argmax(axis=1)

    # A row's neighbors: the images strictly closer than its k_eff-th nearest,
    # then the lowest-numbered of those tied with it (a stable sort's order).
    k_eff = min(k, len(eligible) - 1)
    same = np.empty(len(eligible), dtype=np.intp)
    for lo in range(0, len(eligible), 16):  # 16 rows at a time keep the temporaries small
        block = np.arange(lo, min(lo + 16, len(eligible)))
        distance = -sims[block]
        distance[np.arange(len(block)), block] = np.inf
        kth = np.partition(distance, k_eff - 1, axis=1)[:, k_eff - 1, None].copy()
        closer = distance < kth
        tied = distance == kth
        room = k_eff - np.count_nonzero(closer, axis=1)
        cut = np.count_nonzero(tied, axis=1) > room
        tied[cut] &= np.cumsum(tied[cut], axis=1) <= room[cut, None]
        same[block] = np.count_nonzero((closer | tied) & (classes == classes[block, None]), axis=1)
    return 100.0 * float(np.mean(same / k_eff))


# ---------------------------------------------------------------------------
# Oracle labeling and discovery counting
# ---------------------------------------------------------------------------

def oracle_label_clusters(
    clusters: Mapping[str, Sequence[int]],
    regions: RegionTable,
    gt: GroundTruthTable,
    iou_threshold: float,
) -> dict[str, str]:
    """Majority-vote class per cluster; all-background clusters map to ``background``."""
    table = _ClusterTable(clusters, regions, gt)
    majority = {label: m for label, (_, m) in zip(table.labels, table.purities(iou_threshold))}
    return {label: majority[label] for label in clusters}


def report_clusters(
    clusters: Mapping[str, Sequence[int]],
    regions: RegionTable,
    gt: GroundTruthTable,
    iou_threshold: float,
) -> list[ClusterReport]:
    return _ClusterTable(clusters, regions, gt).reports(iou_threshold)


def count_discovered(
    clusters: Mapping[str, Sequence[int]],
    regions: RegionTable,
    gt: GroundTruthTable,
    iou_threshold: float,
    purity_floor: float = 0.5,
    min_images: int = 5,
) -> int:
    """Distinct unknown classes owning at least one pure-enough, wide-enough cluster."""
    return _ClusterTable(clusters, regions, gt).discovered(iou_threshold, purity_floor, min_images)


# ---------------------------------------------------------------------------
# Full report
# ---------------------------------------------------------------------------

def evaluate_run(
    assignments: Mapping[str, str],
    regions: RegionTable,
    gt: GroundTruthTable,
    iou_thresholds: Sequence[float] = (0.5, 0.2),
    purity_floor: float = 0.5,
    min_images: int = 5,
    corret_k: int = 10,
) -> DiscoveryReport:
    """Assemble the metric suite the CLI writes out, from one IoU table."""
    # CorRet runs first, so its similarity matrix and the table are never held together.
    corret_score = corret(assignments, regions, gt, k=corret_k)
    table = _ClusterTable(clusters_from_assignments(assignments, regions), regions, gt)
    curves = {t: table.curve(t) for t in iou_thresholds}
    primary = iou_thresholds[0]
    metrics: dict[str, float | int] = {f"auc_{t}": auc(curves[t]) for t in iou_thresholds}
    metrics["corloc"] = table.corloc(0.5)
    metrics["corret"] = corret_score
    metrics[f"detrate_{primary}"] = table.detrate(primary)
    metrics["n_discovered"] = table.discovered(primary, purity_floor, min_images)
    metrics["corret_skipped_images"] = len(set(regions.image_ids) - set(table.images))
    return DiscoveryReport(clusters=table.reports(primary), curves=curves, metrics=metrics)
