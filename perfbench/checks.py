"""Output checks for one benchmark pass, computed apart from the program.

Files are parsed here with json, struct and numpy rather than through dualmem's
readers, and every expected value comes from an oracle or from a property the
method must have, never from a stored copy of earlier output. Each check raises
``CheckError`` naming what disagreed.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

UNASSIGNED = "unassigned"
BG_RTOL = 1e-9
METRIC_ATOL = 1e-9
# Lloyd's inertia cannot rise in exact arithmetic; this allows rounding in the
# distance expansion at convergence and nothing more.
INERTIA_RTOL = 1e-12


class CheckError(Exception):
    """A benchmark output disagrees with its oracle or property."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


@dataclass
class Corpus:
    """A region corpus as plain arrays, in file order."""

    region_ids: list[str]
    image_ids: list[str]
    boxes: np.ndarray  # (n, 4) float64
    scores: np.ndarray  # (n,) float64
    features: np.ndarray  # (n, d) float64
    labels: list[str | None]


def read_corpus(path: Path) -> Corpus:
    """Parse either corpus format: a JSON-lines file or a packed DMRF file."""
    raw = Path(path).read_bytes()
    if raw[:4] == b"DMRF":
        _, _, d, count = struct.unpack_from("<4sIII", raw, 0)
        record = np.dtype([
            ("rid", "S64"), ("iid", "S64"), ("box", "<f4", (4,)), ("score", "<f4"),
            ("label", "S64"), ("feature", "<f4", (d,)),
        ])
        require(len(raw) == 16 + count * record.itemsize, f"{path}: DMRF size does not match its header")
        rows = np.frombuffer(raw, dtype=record, count=count, offset=16)
        return Corpus(
            region_ids=[v.decode() for v in rows["rid"]],
            image_ids=[v.decode() for v in rows["iid"]],
            boxes=rows["box"].astype(np.float64),
            scores=rows["score"].astype(np.float64),
            features=rows["feature"].astype(np.float64).reshape(count, d),
            labels=[v.decode() or None for v in rows["label"]],
        )
    lines = raw.decode("utf-8").splitlines()
    d = json.loads(lines[0])["d"]
    objs = [json.loads(line) for line in lines[1:] if line.strip()]
    return Corpus(
        region_ids=[o["region_id"] for o in objs],
        image_ids=[o["image_id"] for o in objs],
        boxes=np.array([o["box"] for o in objs], dtype=np.float64).reshape(-1, 4),
        scores=np.array([o["score"] for o in objs], dtype=np.float64),
        features=np.array([o["feature"] for o in objs], dtype=np.float64).reshape(-1, d),
        labels=[o.get("gt_label") or None for o in objs],
    )


def read_gt(path: Path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines() if line.strip()]


def read_key_values(path: Path) -> dict[str, str]:
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(" = ")
        require(bool(sep), f"{path}: malformed line '{line}'")
        out[key] = value
    return out


def read_assignments(path: Path) -> list[tuple[str, str]]:
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        region_id, sep, label = line.partition("\t")
        require(bool(sep) and "\t" not in label, f"{path}: malformed line '{line}'")
        rows.append((region_id, label))
    return rows


# -- background moments --------------------------------------------------------

def check_background(bg_path: Path, corpus: Corpus, ridge: float, top_n: int) -> None:
    """bg.bin against a two-pass mean and population covariance plus the ridge."""
    raw = Path(bg_path).read_bytes()
    d = corpus.features.shape[1]
    require(len(raw) == 8 + 8 * d + 8 * d * d + 8, f"{bg_path}: size {len(raw)} is wrong for d={d}")
    magic, file_d = struct.unpack_from("<4sI", raw, 0)
    require(magic == b"DMBG" and file_d == d, f"{bg_path}: bad header")
    mean = np.frombuffer(raw, "<f8", d, 8)
    cov = np.frombuffer(raw, "<f8", d * d, 8 + 8 * d).reshape(d, d)
    (count,) = struct.unpack_from("<Q", raw, 8 + 8 * d + 8 * d * d)

    # Ingestion keeps the top_n highest-scoring regions of each image.
    by_image: dict[str, list[int]] = {}
    for i, image_id in enumerate(corpus.image_ids):
        by_image.setdefault(image_id, []).append(i)
    kept = []
    for rows in by_image.values():
        rows.sort(key=lambda i: (-corpus.scores[i], corpus.region_ids[i]))
        kept.extend(rows[:top_n])
    X = corpus.features[np.sort(np.array(kept))]
    oracle_mean = X.mean(axis=0)
    centered = X - oracle_mean
    oracle_cov = centered.T @ centered / X.shape[0] + ridge * np.eye(d)

    require(count == X.shape[0], f"bg.bin count {count} != {X.shape[0]} ingested regions")
    mean_err = np.max(np.abs(mean - oracle_mean)) / np.max(np.abs(oracle_mean))
    cov_err = np.max(np.abs(cov - oracle_cov)) / np.max(np.abs(oracle_cov))
    require(mean_err <= BG_RTOL, f"bg.bin mean off the two-pass oracle by {mean_err:.3g} relative")
    require(cov_err <= BG_RTOL, f"bg.bin covariance off the two-pass oracle by {cov_err:.3g} relative")


# -- assignments and clustering metrics ----------------------------------------

def check_assignments(path: Path, corpus: Corpus) -> dict[str, str]:
    """Every corpus region appears exactly once; returns region id -> label."""
    rows = read_assignments(path)
    ids = [r for r, _ in rows]
    require(len(ids) == len(set(ids)), f"{path}: a region appears more than once")
    require(set(ids) == set(corpus.region_ids), f"{path}: regions differ from the corpus")
    return dict(rows)


def check_geometry(corpus: Corpus, gt: list[dict]) -> None:
    """The premise that lets labels replace IoU: class regions sit exactly on
    their ground-truth box, background regions overlap no ground-truth box."""
    boxes = {(g["image_id"], g["class_name"]): g["box"] for g in gt}
    by_image: dict[str, list[list[float]]] = {}
    for g in gt:
        by_image.setdefault(g["image_id"], []).append(g["box"])
    for i, label in enumerate(corpus.labels):
        box = corpus.boxes[i]
        if label is not None:
            require(
                list(box) == boxes.get((corpus.image_ids[i], label)),
                f"region {corpus.region_ids[i]} is not on its ground-truth box",
            )
            continue
        for g in by_image.get(corpus.image_ids[i], ()):
            overlap = min(box[2], g[2]) > max(box[0], g[0]) and min(box[3], g[3]) > max(box[1], g[1])
            require(not overlap, f"background region {corpus.region_ids[i]} overlaps ground truth")


def clustering_oracle(
    assignments: dict[str, str], corpus: Corpus, gt: list[dict],
    purity_floor: float = 0.5, min_images: int = 5,
) -> tuple[float, int]:
    """auc_0.5 and n_discovered from gt_label alone.

    Clusters are ranked by purity (ties by label); each prefix's coverage is the
    share of unknown-class ground-truth boxes whose image holds a clustered
    region of that class.
    """
    unknown = {g["class_name"] for g in gt if not g["known_flag"]}
    n_unknown_boxes = sum(1 for g in gt if not g["known_flag"])
    members: dict[str, list[int]] = {}
    for i, region_id in enumerate(corpus.region_ids):
        label = assignments[region_id]
        if label != UNASSIGNED:
            members.setdefault(label, []).append(i)
    ranked = []
    discovered = set()
    for label, rows in members.items():
        counts: dict[str, int] = {}
        for i in rows:
            if corpus.labels[i] is not None:
                counts[corpus.labels[i]] = counts.get(corpus.labels[i], 0) + 1
        majority = min(counts, key=lambda c: (-counts[c], c)) if counts else None
        purity = counts[majority] / len(rows) if counts else 0.0
        ranked.append((-purity, label))
        span = len({corpus.image_ids[i] for i in rows})
        if majority in unknown and purity >= purity_floor and span >= min_images:
            discovered.add(majority)
    ranked.sort()

    covered: set[tuple[str, str]] = set()
    area, prev_x, prev_y, purity_sum = 0.0, 0.0, None, 0.0
    for k, (neg_purity, label) in enumerate(ranked, 1):
        for i in members[label]:
            if corpus.labels[i] in unknown:
                covered.add((corpus.image_ids[i], corpus.labels[i]))
        purity_sum += -neg_purity
        x = len(covered) / n_unknown_boxes if n_unknown_boxes else 0.0
        y = purity_sum / k
        if prev_y is None:
            prev_y = y
        area += (100.0 * (x - prev_x)) * ((prev_y + y) / 2.0)
        prev_x, prev_y = x, y
    return area, len(discovered)


def check_metrics(metrics_path: Path, assignments: dict[str, str], corpus: Corpus, gt: list[dict]) -> dict[str, float]:
    """metrics.txt auc_0.5 and n_discovered against the label oracle."""
    values = read_key_values(metrics_path)
    reported_auc = float(values["auc_0.5"])
    reported_n = int(values["n_discovered"])
    oracle_auc, oracle_n = clustering_oracle(assignments, corpus, gt)
    require(
        abs(reported_auc - oracle_auc) <= METRIC_ATOL,
        f"{metrics_path}: auc_0.5 {reported_auc!r} != oracle {oracle_auc!r}",
    )
    require(reported_n == oracle_n, f"{metrics_path}: n_discovered {reported_n} != oracle {oracle_n}")
    return {"auc_0.5": reported_auc, "n_discovered": reported_n}


# -- discovery counters and K-means --------------------------------------------

def check_stats(stats_path: Path, slot_cap: int) -> dict[str, str]:
    """Each round's decisions sum to its streamed regions; mining and slots stay in bounds."""
    stats = read_key_values(stats_path)
    rounds = int(stats["rounds"])
    for r in range(1, rounds + 1):
        decisions = sum(int(stats[f"round_{r}_{k}"]) for k in ("known_match", "working_match", "new_slot", "rejected"))
        regions = int(stats[f"round_{r}_regions"])
        require(decisions == regions, f"round {r}: {decisions} decisions for {regions} streamed regions")
        mined, candidates = int(stats[f"round_{r}_mined"]), int(stats[f"round_{r}_mined_candidates"])
        require(mined <= candidates, f"round {r}: mined {mined} > {candidates} candidates")
    require(int(stats["slots_semantic_final"]) <= slot_cap, f"semantic slots exceed slot_cap {slot_cap}")
    return stats


def check_kmeans(assignments: dict[str, str], k: int) -> None:
    labels = set(assignments.values())
    require(len(labels) <= k, f"K-means used {len(labels)} labels for k={k}")
    require(all(lab.startswith("km_") and 0 <= int(lab[3:]) < k for lab in labels), "K-means label out of range")


def check_inertia(history: list[float]) -> None:
    require(len(history) >= 1, "K-means recorded no iterations")
    for before, after in zip(history, history[1:]):
        require(after <= before * (1.0 + INERTIA_RTOL), f"K-means inertia rose from {before!r} to {after!r}")


# -- workload premises ---------------------------------------------------------

def check_premise(workload: str, engine: dict, stats: dict[str, str]) -> None:
    """What each workload is chosen to exercise must actually happen."""
    # The paper's ordering, engine auc_0.5 >= K-means auc_0.5, is not checked:
    # on frozen corpora both sit near 100 and K-means wins on some seeds
    # (spec seed 7: 99.975 against 99.999), so it would fail runs at random.
    if workload == "frozen":
        require(engine["n_discovered"] >= 8, f"only {engine['n_discovered']} classes discovered")
    elif workload == "semantic":
        require(int(stats["rejected"]) == 0, f"{stats['rejected']} regions rejected")


def check_binary_readback(jsonl: Corpus, binary: Corpus) -> None:
    """The DMRF corpus equals its JSONL source: ids, labels, boxes and features
    exactly; scores after float32 rounding."""
    require(binary.region_ids == jsonl.region_ids, "DMRF region ids differ")
    require(binary.image_ids == jsonl.image_ids, "DMRF image ids differ")
    require(binary.labels == jsonl.labels, "DMRF labels differ")
    require(np.array_equal(binary.boxes, jsonl.boxes), "DMRF boxes differ")
    require(np.array_equal(binary.features, jsonl.features), "DMRF features differ")
    rounded = jsonl.scores.astype(np.float32).astype(np.float64)
    require(np.array_equal(binary.scores, rounded), "DMRF scores differ after float32 rounding")


def compare_bytes(a: Path, b: Path, relpaths: list[str]) -> None:
    for rel in relpaths:
        require((a / rel).read_bytes() == (b / rel).read_bytes(), f"{rel} differs between {a} and {b}")
