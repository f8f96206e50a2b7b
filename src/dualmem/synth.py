"""Deterministic synthetic corpus generator and the K-means comparison baseline.

Classes are isotropic Gaussians whose means sit on scaled orthogonal axes, so
pairwise mean distance is separation * sqrt(2) * std and the shared-covariance
assumption behind the slot classifiers holds exactly. Geometry is fake but
IoU-meaningful: every class region sits exactly on its image's ground-truth
box, and background regions sit on their own disjoint cells.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import load_fields
from .records import BoundingBox, GroundTruthBox, RegionTable
from .evaluation import write_gt
from .corpus import write_corpus_jsonl
from .reporting import write_key_values

KNOWN_PRIOR_SCORE = float(np.float32(0.95))  # float32-exact, so the DMRF format holds it
DEFAULT_SCORE = 0.5


@dataclass
class SynthSpec:
    """Everything the generator needs; generation is a pure function of this."""

    d: int
    n_known: int
    n_unknown: int
    images: int
    n_background_per_image: int = 1
    classes_per_image: int = 3
    regions_per_class_per_image: int = 1
    separation: float = 8.0
    std: float = 1.0
    seed: int = 0
    anisotropy: float = 1.0

    def __post_init__(self) -> None:
        if self.separation <= 0.0 or self.std <= 0.0:
            raise ValueError("separation and std must be positive")
        if min(self.n_known, self.n_unknown, self.n_background_per_image) < 0:
            raise ValueError("class and background counts must be non-negative")
        if self.images < 1:
            raise ValueError("images must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        n_classes = self.n_known + self.n_unknown
        if n_classes > self.d:
            raise ValueError(
                f"cannot separate {n_classes} class means at {self.separation} std "
                f"in {self.d} dimensions; raise d or drop classes"
            )
        if n_classes > 0 and not (1 <= self.classes_per_image <= n_classes):
            raise ValueError("classes_per_image must be in [1, n_known + n_unknown]")
        if self.regions_per_class_per_image < 1:
            raise ValueError("regions_per_class_per_image must be >= 1")


def save_spec(spec: SynthSpec, path: str | Path) -> None:
    write_key_values(path, dataclasses.asdict(spec))


def load_spec(path: str | Path, **overrides: object) -> SynthSpec:
    return load_fields(SynthSpec, path, **overrides)


def class_names(spec: SynthSpec) -> list[str]:
    return [f"known_{i:02d}" for i in range(spec.n_known)] + [
        f"unknown_{i:02d}" for i in range(spec.n_unknown)
    ]


def class_means(spec: SynthSpec) -> np.ndarray:
    """One mean per class on scaled axes; the background mean stays at the origin."""
    n = spec.n_known + spec.n_unknown
    means = np.zeros((n, spec.d))
    for i in range(n):
        means[i, i] = spec.separation * spec.std
    return means


def _noise_scale(spec: SynthSpec) -> np.ndarray:
    if spec.d == 1:
        return np.array([spec.std * spec.anisotropy])
    ramp = np.linspace(1.0, spec.anisotropy, spec.d)
    return spec.std * ramp


def _cell_box(index: int) -> BoundingBox:
    return BoundingBox(2.0 * index, 0.0, 2.0 * index + 1.0, 1.0)


def _f32(values: np.ndarray) -> np.ndarray:
    return values.astype(np.float32).astype(np.float64)


def generate(spec: SynthSpec, out_dir: str | Path) -> dict[str, Path]:
    """Write corpus, ground-truth, and prior files; byte-identical per spec.

    Every image draws from its own seed (spec seed xor image index), so any
    parallel generation schedule produces the same bytes.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = class_names(spec)
    means = class_means(spec)
    scale = _noise_scale(spec)
    n_classes = len(names)

    ids: list[str] = []
    image_ids: list[str] = []
    starts: list[int] = []
    boxes: list[list[float]] = []
    scores: list[float] = []
    features: list[np.ndarray] = []
    labels: list[str | None] = []
    gt_boxes: list[GroundTruthBox] = []
    prior_rows: list[int] = []

    def add(image_id: str, box: BoundingBox, score: float, feature: np.ndarray, label: str | None) -> None:
        ids.append(f"{image_id}_r{len(ids) - starts[-1]:03d}")
        boxes.append(box.as_list())
        scores.append(score)
        features.append(feature)
        labels.append(label)

    for t in range(spec.images):
        rng = np.random.default_rng(spec.seed ^ t)
        image_id = f"img_{t:06d}"
        image_ids.append(image_id)
        starts.append(len(ids))
        present = (
            [(t * spec.classes_per_image + j) % n_classes for j in range(spec.classes_per_image)]
            if n_classes
            else []
        )
        for cell, c in enumerate(present):
            box = _cell_box(cell)
            known = c < spec.n_known
            gt_boxes.append(
                GroundTruthBox(image_id=image_id, box=box, class_name=names[c], known_flag=known)
            )
            for _ in range(spec.regions_per_class_per_image):
                if known:
                    prior_rows.append(len(ids))
                feature = _f32(means[c] + rng.standard_normal(spec.d) * scale)
                add(image_id, box, KNOWN_PRIOR_SCORE if known else DEFAULT_SCORE, feature, names[c])
        for cell in range(len(present), len(present) + spec.n_background_per_image):
            add(image_id, _cell_box(cell), DEFAULT_SCORE, _f32(rng.standard_normal(spec.d) * scale), None)

    corpus = RegionTable(
        ids, image_ids, np.array(starts + [len(ids)]), np.array(boxes).reshape(-1, 4),
        np.array(scores), np.reshape(features, (len(ids), spec.d)), labels,
    )
    paths = {
        "corpus": out / "corpus.jsonl",
        "gt": out / "gt.jsonl",
        "priors": out / "priors.jsonl",
    }
    write_corpus_jsonl(paths["corpus"], spec.d, corpus)
    write_gt(paths["gt"], gt_boxes)
    write_corpus_jsonl(paths["priors"], spec.d, corpus.take(prior_rows))
    return paths


# ---------------------------------------------------------------------------
# K-means baseline
# ---------------------------------------------------------------------------

def kmeans_baseline(
    regions: RegionTable, k: int, seed: int, max_iter: int = 100, tol: float = 1e-6
) -> tuple[dict[str, str], np.ndarray, list[float]]:
    """Lloyd iterations with seeded k-means++ initialization.

    Returns assignments in the pipeline's label format (``km_<j>``), the final
    centroids, and the per-iteration inertia history (never increasing).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(regions):
        raise ValueError(f"k={k} exceeds the number of records ({len(regions)})")
    X = regions.features
    n = X.shape[0]
    rng = np.random.default_rng(seed)

    centers = np.empty((k, X.shape[1]))
    centers[0] = X[int(rng.integers(n))]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total == 0.0:
            centers[j] = X[int(rng.integers(n))]
            continue
        centers[j] = X[int(rng.choice(n, p=d2 / total))]
        d2 = np.minimum(d2, np.sum((X - centers[j]) ** 2, axis=1))

    x_sq = (X**2).sum(axis=1)
    history: list[float] = []
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(max_iter):
        distances = np.maximum(
            x_sq[:, None] - 2.0 * (X @ centers.T) + (centers**2).sum(axis=1)[None, :], 0.0
        )
        labels = np.argmin(distances, axis=1)
        inertia = float(distances[np.arange(n), labels].sum())
        history.append(inertia)
        new_centers = centers.copy()
        for j in range(k):
            mask = labels == j
            if mask.any():
                new_centers[j] = X[mask].mean(axis=0)
            else:
                # Deterministic revival: relocate to the point farthest from its center.
                farthest = int(np.argmax(distances[np.arange(n), labels]))
                new_centers[j] = X[farthest]
        if len(history) > 1 and history[-2] - history[-1] < tol * max(history[-2], 1e-12):
            centers = new_centers
            break
        centers = new_centers

    assignments = {region_id: f"km_{label}" for region_id, label in zip(regions.region_ids, labels.tolist())}
    return assignments, centers, history
