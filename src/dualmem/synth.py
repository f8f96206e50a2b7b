"""Deterministic synthetic corpus generator and the K-means comparison baseline.

Classes are isotropic Gaussians whose means sit on scaled orthogonal axes, so
pairwise mean distance is separation * sqrt(2) * std and the shared-covariance
assumption behind the slot classifiers holds exactly. Geometry is fake but
IoU-meaningful: every class region sits exactly on its image's ground-truth
box, and background regions sit on their own disjoint cells. Each image's
features come from one draw seeded by the spec seed xor the image index.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import load_fields
from .records import GroundTruthTable, RegionTable
from .evaluation import write_gt
from .corpus import _jsonl_lines
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


def load_spec(path: str | Path) -> SynthSpec:
    return load_fields(SynthSpec, path)


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


def _f32(values: np.ndarray) -> np.ndarray:
    return values.astype(np.float32).astype(np.float64)


def generate(spec: SynthSpec, out_dir: str | Path) -> dict[str, Path]:
    """Write corpus, ground-truth, and prior files; byte-identical per spec.

    Every image draws all its features with one ``standard_normal((rows, d))``
    from its own seed (spec seed xor image index), so any parallel generation
    schedule produces the same bytes. Rows are the image's class regions, cell by
    cell, then its background regions; a class row adds its class mean to the
    scaled draw, a background row adds nothing (no zero mean: 0.0 + -0.0 is 0.0).
    Each corpus line is encoded once, and ``priors.jsonl`` copies the header and
    every known-class line.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = class_names(spec)
    per_image = spec.classes_per_image if names else 0
    # present[t, j]: the class on cell j of image t; cells per_image and up hold background.
    present = (np.arange(spec.images)[:, None] * per_image + np.arange(per_image)) % max(len(names), 1)
    row_class = np.repeat(present, spec.regions_per_class_per_image, axis=1)
    cells = np.arange(per_image + spec.n_background_per_image)
    cell_boxes = np.column_stack([2.0 * cells, np.zeros(len(cells)), 2.0 * cells + 1.0, np.ones(len(cells))])
    row_cells = np.append(np.repeat(cells[:per_image], spec.regions_per_class_per_image), cells[per_image:])
    rows, class_rows = len(row_cells), row_class.shape[1]

    features = np.empty((spec.images * rows, spec.d))
    for t in range(spec.images):
        np.random.default_rng(spec.seed ^ t).standard_normal(out=features[t * rows:(t + 1) * rows])
    features *= _noise_scale(spec)
    by_image = features.reshape(spec.images, rows, spec.d)
    by_image[:, :class_rows] += class_means(spec)[row_class]
    known = np.zeros((spec.images, rows), dtype=bool)
    known[:, :class_rows] = row_class < spec.n_known
    labels = np.full((spec.images, rows), None, dtype=object)
    labels[:, :class_rows] = np.array(names, dtype=object)[row_class]

    image_ids = [f"img_{t:06d}" for t in range(spec.images)]
    corpus = RegionTable(
        [f"{image_id}_r{k:03d}" for image_id in image_ids for k in range(rows)], image_ids,
        np.arange(spec.images + 1) * rows, np.tile(cell_boxes[row_cells], (spec.images, 1)),
        np.where(known, KNOWN_PRIOR_SCORE, DEFAULT_SCORE).ravel(), _f32(features), labels.ravel().tolist(),
    )
    gt = GroundTruthTable(
        [image_id for image_id in image_ids for _ in range(per_image)],
        np.tile(cell_boxes[:per_image], (spec.images, 1)),
        [names[c] for c in present.ravel().tolist()], (present < spec.n_known).ravel(),
    )
    paths = {
        "corpus": out / "corpus.jsonl",
        "gt": out / "gt.jsonl",
        "priors": out / "priors.jsonl",
    }
    with open(paths["corpus"], "w", encoding="utf-8") as fh, open(paths["priors"], "w", encoding="utf-8") as priors:
        for line, prior in zip(_jsonl_lines(spec.d, corpus), [True] + known.ravel().tolist()):
            fh.write(line)
            if prior:
                priors.write(line)
    write_gt(paths["gt"], gt)
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
