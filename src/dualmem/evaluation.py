"""Clustering and localization metrics over discovered assignments.

All metrics are pure functions of the assignments, the region geometry, and
ground-truth boxes. Cluster purity and coverage feed a cumulative-purity curve
whose area (percent scale) is the headline discovery number; CorLoc, CorRet,
and DetRate cover the localization-style protocols.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .records import BoundingBox, RegionRecord
from .reporting import UNASSIGNED

BACKGROUND = "background"


@dataclass(frozen=True)
class GroundTruthBox:
    image_id: str
    box: BoundingBox
    class_name: str
    known_flag: bool


@dataclass
class ClusterReport:
    label: str
    members: list[RegionRecord]
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


def load_gt(path: str | Path) -> list[GroundTruthBox]:
    boxes = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            boxes.append(
                GroundTruthBox(
                    image_id=str(obj["image_id"]),
                    box=BoundingBox(*(float(v) for v in obj["box"])),
                    class_name=str(obj["class_name"]),
                    known_flag=bool(obj["known_flag"]),
                )
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: bad ground-truth record: {exc}") from exc
    return boxes


def unknown_classes(gt: Sequence[GroundTruthBox]) -> set[str]:
    return {g.class_name for g in gt if not g.known_flag}


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


def _gt_by_image(gt: Sequence[GroundTruthBox]) -> dict[str, list[GroundTruthBox]]:
    grouped: dict[str, list[GroundTruthBox]] = {}
    for g in gt:
        grouped.setdefault(g.image_id, []).append(g)
    return grouped


def label_region(
    region: RegionRecord,
    gt_for_image: Sequence[GroundTruthBox],
    iou_threshold: float,
) -> str | None:
    """Class of the max-IoU ground-truth box if it clears the threshold, else None."""
    best_iou = 0.0
    best_class: str | None = None
    for g in gt_for_image:
        value = iou(region.box, g.box)
        if value > best_iou:
            best_iou = value
            best_class = g.class_name
    if best_class is not None and best_iou >= iou_threshold:
        return best_class
    return None


# ---------------------------------------------------------------------------
# Cluster construction
# ---------------------------------------------------------------------------

def clusters_from_assignments(
    assignments: Mapping[str, str], regions: Mapping[str, RegionRecord]
) -> dict[str, list[RegionRecord]]:
    """Group assigned regions by cluster label, preserving corpus order within."""
    clusters: dict[str, list[RegionRecord]] = {}
    for region_id, region in regions.items():
        label = assignments.get(region_id, UNASSIGNED)
        if label == UNASSIGNED:
            continue
        clusters.setdefault(label, []).append(region)
    return clusters


# ---------------------------------------------------------------------------
# Clustering metrics
# ---------------------------------------------------------------------------

def purity(
    members: Sequence[RegionRecord],
    gt: Sequence[GroundTruthBox],
    iou_threshold: float,
) -> tuple[float, str]:
    """Majority-class fraction over all members; background members only dilute.

    Returns (purity, majority class); an all-background cluster has purity 0 and
    majority ``background``. Ties break to the lexicographically smallest class.
    """
    if not members:
        raise ValueError("purity of an empty cluster is undefined")
    by_image = _gt_by_image(gt)
    counts: dict[str, int] = {}
    for region in members:
        cls = label_region(region, by_image.get(region.image_id, ()), iou_threshold)
        if cls is not None:
            counts[cls] = counts.get(cls, 0) + 1
    if not counts:
        return 0.0, BACKGROUND
    majority = min(counts, key=lambda c: (-counts[c], c))
    return counts[majority] / len(members), majority


def _relevant_by_image(
    gt: Sequence[GroundTruthBox], classes: set[str] | None
) -> tuple[int, dict[str, list[tuple[int, GroundTruthBox]]]]:
    """Number the ground-truth boxes of ``classes`` and group them by image.

    ``classes`` defaults to the unknown classes.
    """
    if classes is None:
        classes = unknown_classes(gt)
    relevant = [g for g in gt if g.class_name in classes]
    grouped: dict[str, list[tuple[int, GroundTruthBox]]] = {}
    for index, g in enumerate(relevant):
        grouped.setdefault(g.image_id, []).append((index, g))
    return len(relevant), grouped


def _hits(
    members: Sequence[RegionRecord],
    relevant_by_image: Mapping[str, Sequence[tuple[int, GroundTruthBox]]],
    iou_threshold: float,
) -> set[int]:
    """Numbers of the relevant ground-truth boxes that some member hits."""
    return {
        index
        for region in members
        for index, g in relevant_by_image.get(region.image_id, ())
        if iou(region.box, g.box) >= iou_threshold
    }


def coverage(
    clusters: Mapping[str, Sequence[RegionRecord]],
    gt: Sequence[GroundTruthBox],
    iou_threshold: float,
    classes: set[str] | None = None,
) -> float:
    """Fraction of ground-truth boxes hit by at least one clustered region.

    ``classes`` restricts which ground-truth boxes count; the default is the
    unknown classes, the set the discovery benchmark reports on.
    """
    n_relevant, relevant_by_image = _relevant_by_image(gt, classes)
    if not n_relevant:
        return 0.0
    covered: set[int] = set()
    for members in clusters.values():
        covered |= _hits(members, relevant_by_image, iou_threshold)
    return len(covered) / n_relevant


def cumulative_purity_curve(
    clusters: Mapping[str, Sequence[RegionRecord]],
    gt: Sequence[GroundTruthBox],
    iou_threshold: float,
    classes: set[str] | None = None,
) -> list[tuple[float, float]]:
    """Points (coverage of top-k clusters, mean purity of top-k), purity-descending.

    Equal purities order by cluster label so the x-axis is deterministic. The
    covered boxes accumulate cluster by cluster, so point k equals ``coverage``
    of the top k clusters.
    """
    if not clusters:
        return []
    scored = []
    for label in clusters:
        p, _ = purity(clusters[label], gt, iou_threshold)
        scored.append((label, p))
    scored.sort(key=lambda item: (-item[1], item[0]))
    n_relevant, relevant_by_image = _relevant_by_image(gt, classes)
    points = []
    purity_sum = 0.0
    covered: set[int] = set()
    for k, (label, p) in enumerate(scored, 1):
        purity_sum += p
        covered |= _hits(clusters[label], relevant_by_image, iou_threshold)
        points.append((len(covered) / n_relevant if n_relevant else 0.0, purity_sum / k))
    return points


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

def _assigned_by_image(
    assignments: Mapping[str, str], regions: Mapping[str, RegionRecord]
) -> dict[str, list[RegionRecord]]:
    """Assigned corpus regions grouped by image, in assignment order."""
    grouped: dict[str, list[RegionRecord]] = {}
    for region_id, label in assignments.items():
        if label == UNASSIGNED or region_id not in regions:
            continue
        region = regions[region_id]
        grouped.setdefault(region.image_id, []).append(region)
    return grouped


def corloc(
    assignments: Mapping[str, str],
    regions: Mapping[str, RegionRecord],
    gt: Sequence[GroundTruthBox],
    iou_threshold: float = 0.5,
) -> float:
    """Percent of ground-truth-bearing images with one assigned region localized
    strictly above the IoU threshold."""
    by_image = _gt_by_image(gt)
    if not by_image:
        return 0.0
    assigned_by_image = _assigned_by_image(assignments, regions)
    hit = 0
    for image_id, boxes in by_image.items():
        candidates = assigned_by_image.get(image_id, ())
        if any(iou(r.box, g.box) > iou_threshold for r in candidates for g in boxes):
            hit += 1
    return 100.0 * hit / len(by_image)


def detrate(
    assignments: Mapping[str, str],
    regions: Mapping[str, RegionRecord],
    gt: Sequence[GroundTruthBox],
    iou_threshold: float,
) -> float:
    """Recall of ground-truth boxes by assigned regions, in percent."""
    if not gt:
        return 0.0
    assigned_by_image = _assigned_by_image(assignments, regions)
    recalled = sum(
        1
        for g in gt
        if any(iou(r.box, g.box) >= iou_threshold for r in assigned_by_image.get(g.image_id, ()))
    )
    return 100.0 * recalled / len(gt)


def _image_majority_class(boxes: Sequence[GroundTruthBox]) -> str:
    counts: dict[str, int] = {}
    for g in boxes:
        counts[g.class_name] = counts.get(g.class_name, 0) + 1
    return min(counts, key=lambda c: (-counts[c], c))


def corret(
    assignments: Mapping[str, str],
    regions: Mapping[str, RegionRecord],
    gt: Sequence[GroundTruthBox],
    k: int = 10,
    by_slot: bool = False,
) -> float:
    """Mean percent of an image's k nearest neighbors sharing its majority class.

    The image representation is the mean of its assigned-region features, or a
    cluster-assignment histogram with ``by_slot``. Images with no assignments or
    no ground truth are not scored; k clamps to the eligible population.
    """
    by_image = _gt_by_image(gt)
    assigned_by_image = _assigned_by_image(assignments, regions)
    eligible = sorted(set(assigned_by_image) & set(by_image))
    if len(eligible) < 2:
        return 0.0
    if by_slot:
        all_labels = sorted(
            {assignments[r.region_id] for rs in assigned_by_image.values() for r in rs}
        )
        index = {lab: i for i, lab in enumerate(all_labels)}
        reps = np.zeros((len(eligible), len(all_labels)))
        for row, image_id in enumerate(eligible):
            for region in assigned_by_image[image_id]:
                reps[row, index[assignments[region.region_id]]] += 1.0
    else:
        reps = np.stack(
            [np.mean([r.feature for r in assigned_by_image[i]], axis=0) for i in eligible]
        )
    norms = np.linalg.norm(reps, axis=1)
    safe = np.where(norms > 0.0, norms, 1.0)
    unit = reps / safe[:, None]
    sims = unit @ unit.T
    classes = np.array([_image_majority_class(by_image[i]) for i in eligible])
    k_eff = min(k, len(eligible) - 1)
    fractions = []
    for row in range(len(eligible)):
        order = np.argsort(-sims[row], kind="stable")
        neighbors = order[order != row][:k_eff]
        same = int(np.count_nonzero(classes[neighbors] == classes[row]))
        fractions.append(same / k_eff)
    return 100.0 * float(np.mean(fractions))


# ---------------------------------------------------------------------------
# Oracle labeling and discovery counting
# ---------------------------------------------------------------------------

def oracle_label_clusters(
    clusters: Mapping[str, Sequence[RegionRecord]],
    gt: Sequence[GroundTruthBox],
    iou_threshold: float,
) -> dict[str, str]:
    """Majority-vote class per cluster; all-background clusters map to ``background``."""
    return {
        label: purity(members, gt, iou_threshold)[1]
        for label, members in clusters.items()
    }


def report_clusters(
    clusters: Mapping[str, Sequence[RegionRecord]],
    gt: Sequence[GroundTruthBox],
    iou_threshold: float,
) -> list[ClusterReport]:
    reports = []
    for label in sorted(clusters):
        members = list(clusters[label])
        p, majority = purity(members, gt, iou_threshold)
        reports.append(
            ClusterReport(
                label=label,
                members=members,
                purity=p,
                majority_class=majority,
                size=len(members),
                image_span=len({r.image_id for r in members}),
            )
        )
    return reports


def count_discovered(
    clusters: Mapping[str, Sequence[RegionRecord]],
    gt: Sequence[GroundTruthBox],
    iou_threshold: float,
    purity_floor: float = 0.5,
    min_images: int = 5,
) -> int:
    """Distinct unknown classes owning at least one pure-enough, wide-enough cluster."""
    unknown = unknown_classes(gt)
    discovered: set[str] = set()
    for report in report_clusters(clusters, gt, iou_threshold):
        if (
            report.majority_class in unknown
            and report.purity >= purity_floor
            and report.image_span >= min_images
        ):
            discovered.add(report.majority_class)
    return len(discovered)


# ---------------------------------------------------------------------------
# Full report
# ---------------------------------------------------------------------------

def evaluate_run(
    assignments: Mapping[str, str],
    regions: Mapping[str, RegionRecord],
    gt: Sequence[GroundTruthBox],
    iou_thresholds: Sequence[float] = (0.5, 0.2),
    purity_floor: float = 0.5,
    min_images: int = 5,
    corret_k: int = 10,
) -> DiscoveryReport:
    """Assemble the metric suite the CLI writes out."""
    clusters = clusters_from_assignments(assignments, regions)
    curves = {
        t: cumulative_purity_curve(clusters, gt, t) for t in iou_thresholds
    }
    primary = iou_thresholds[0]
    metrics: dict[str, float | int] = {}
    for t in iou_thresholds:
        metrics[f"auc_{t}"] = auc(curves[t])
    metrics["corloc"] = corloc(assignments, regions, gt)
    metrics["corret"] = corret(assignments, regions, gt, k=corret_k)
    metrics[f"detrate_{primary}"] = detrate(assignments, regions, gt, primary)
    metrics["n_discovered"] = count_discovered(
        clusters, gt, primary, purity_floor=purity_floor, min_images=min_images
    )
    eligible_images = {r.image_id for r in regions.values()}
    scored_images = set(_assigned_by_image(assignments, regions))
    metrics["corret_skipped_images"] = len(eligible_images - scored_images)
    return DiscoveryReport(
        clusters=report_clusters(clusters, gt, primary),
        curves=curves,
        metrics=metrics,
    )
