"""Never-ending discovery rounds: stream one split, consolidate, mine the other, swap.

Also owns background estimation over a corpus, semantic-prior collection for
the three initialization modes, and the run-directory layout.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .config import Config, save_config
from .consolidation import ConsolidationRecord, consolidate
from .corpus import DatasetSplit, split_dataset
from .evaluation import IouTable
from .memory import DecisionKind, DualMemory
from .records import GroundTruthTable, RegionTable
from .reporting import UNASSIGNED, write_assignments, write_key_values
from .stats import BackgroundStats, MomentAccumulator, finalize_background, whiten

PRIOR_GT_IOU = 0.5


@dataclass
class RoundCounts:
    """What one round streamed and mined; ``stats.txt`` writes each field as ``round_<r>_<field>``.

    The four decision counts are named after the ``DecisionKind`` values.
    """

    active: str
    regions: int
    known_match: int
    working_match: int
    new_slot: int
    rejected: int
    mined: int
    mined_candidates: int


@dataclass
class RoundState:
    """Mutable cursor of the never-ending loop, with the counts of every finished round by index."""

    round_index: int
    active: str  # "d1" or "d2"
    mem: DualMemory
    rounds: dict[int, RoundCounts] = field(default_factory=dict)


@dataclass
class DiscoveryRun:
    """Final memory plus everything needed to write reports."""

    mem: DualMemory
    assignments: dict[str, str]
    stats: dict[str, object]
    consolidations: list[ConsolidationRecord]


# ---------------------------------------------------------------------------
# Background estimation
# ---------------------------------------------------------------------------

def estimate_background(corpus: RegionTable, config: Config, workers: int = 1) -> BackgroundStats:
    """Moments of every region feature, as ``workers`` batches merged in order.

    The images are dealt round-robin to ``workers`` parts; each part's rows
    enter the accumulator as one batch, in row order, so the schedule (and its
    floating-point footprint) is deterministic for a given worker count. All of
    it runs on the calling thread.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    part = corpus.row_image % workers
    acc = MomentAccumulator(config.d)
    for p in range(workers):
        acc.add_batch(corpus.features[part == p])
    return finalize_background(acc, config.ridge_lambda)


# ---------------------------------------------------------------------------
# Semantic priors
# ---------------------------------------------------------------------------

def build_priors(
    config: Config,
    detections: RegionTable | None = None,
    corpus: RegionTable | None = None,
    gt: GroundTruthTable | None = None,
) -> dict[str, RegionTable]:
    """Collect per-class prior regions for the configured initialization mode.

    det_scores keeps labeled detections above the prior score threshold from a
    detections file; gt_overlap matches corpus regions against known-class
    ground truth at IoU > 0.5; null starts from nothing.
    """
    mode = config.init_mode
    if mode == "null":
        return {}
    rows: dict[str, list[int]] = {}
    if mode == "det_scores":
        if detections is None:
            raise ValueError("init_mode=det_scores requires a prior detections file")
        for row in np.flatnonzero(detections.scores > config.semantic_prior_score).tolist():
            if detections.gt_labels[row]:
                rows.setdefault(detections.gt_labels[row], []).append(row)
        return {label: detections.take(members) for label, members in rows.items()}
    if mode == "gt_overlap":
        if corpus is None or gt is None:
            raise ValueError("init_mode=gt_overlap requires the corpus and ground truth")
        known = gt.take(np.flatnonzero(gt.known))
        table = IouTable(corpus, range(len(corpus)), known)
        for row in np.flatnonzero(table.best_iou > PRIOR_GT_IOU).tolist():
            rows.setdefault(known.class_names[table.best[row]], []).append(row)
        return {label: corpus.take(members) for label, members in rows.items()}
    raise ValueError(f"unknown init_mode '{mode}'")


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

def run_discovery_round(
    state: RoundState,
    corpus: RegionTable,
    split: DatasetSplit,
    white: np.ndarray | None = None,
) -> ConsolidationRecord:
    """One round: stream the active split, consolidate, mine the inactive split, swap.

    ``white`` is ``whiten(corpus.features, bg)``, computed here if not given.
    """
    mem = state.mem
    mem.attach(corpus, white)
    active_ids = split.d1 if state.active == "d1" else split.d2
    inactive_ids = split.d2 if state.active == "d1" else split.d1
    image_index = {image_id: i for i, image_id in enumerate(corpus.image_ids)}
    starts = corpus.image_starts.tolist()

    def rows_of(image_ids: list[str]):
        for image_id in image_ids:
            i = image_index.get(image_id)
            if i is not None:
                yield range(starts[i], starts[i + 1])

    kinds: list[DecisionKind] = []
    for rows in rows_of(active_ids):
        kinds += [decision.kind for decision in mem.process_image(rows)]

    record = consolidate(mem, round_index=state.round_index)

    mined = 0
    mined_seen = 0
    mine_region = mem.mine_region
    for rows in rows_of(inactive_ids):
        mined_seen += len(rows)
        for row in rows:
            mined += mine_region(row)

    state.rounds[state.round_index] = RoundCounts(
        state.active, len(kinds), **{kind.value: kinds.count(kind) for kind in DecisionKind},
        mined=mined, mined_candidates=mined_seen,
    )
    state.round_index += 1
    state.active = "d2" if state.active == "d1" else "d1"
    return record


def final_assignments(mem: DualMemory, corpus: RegionTable) -> dict[str, str]:
    """Label every corpus region from the final semantic member registries.

    A region claimed by several slots keeps the oldest (lowest slot_id) one;
    everything else is unassigned.
    """
    claimed: dict[str, str] = {}
    for slot in mem.semantic:
        for region_id in slot.members:
            claimed.setdefault(region_id, slot.label)
    return {region_id: claimed.get(region_id, UNASSIGNED) for region_id in corpus.region_ids}


def run_discovery(
    corpus: RegionTable,
    bg: BackgroundStats,
    config: Config,
    priors: Mapping[str, RegionTable] | None = None,
    out_dir: str | Path | None = None,
) -> DiscoveryRun:
    """Run the configured number of rounds and assemble the run artifacts."""
    split = split_dataset(list(corpus.image_ids), config.rng_seed)
    mem = DualMemory.initialize(bg, config, priors)
    state = RoundState(round_index=1, active="d1", mem=mem)
    white = whiten(corpus.features, bg)

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        save_config(config, out_path / "config.txt")
        bg.save(out_path / "bg.bin")

    records = []
    for _ in range(config.rounds):
        round_index = state.round_index
        record = run_discovery_round(state, corpus, split, white)
        records.append(record)
        if out_path is not None:
            round_dir = out_path / f"round_{round_index}"
            round_dir.mkdir(exist_ok=True)
            mem.save_checkpoint(round_dir / "checkpoint.bin")
            with open(round_dir / "consolidation.log", "w", encoding="utf-8") as fh:
                fh.write(json.dumps(record.as_dict(), sort_keys=True) + "\n")

    assignments = final_assignments(mem, corpus)
    assigned_labels = sorted({v for v in assignments.values() if v != UNASSIGNED})
    totals = {
        "rounds": config.rounds,
        "images_total": len(corpus.image_ids),
        "regions_total": len(corpus),
        "known_match": sum(c.known_match for c in state.rounds.values()),
        "working_match": sum(c.working_match for c in state.rounds.values()),
        "new_slot": sum(c.new_slot for c in state.rounds.values()),
        "rejected": mem.rejected_count,
        "mined": sum(c.mined for c in state.rounds.values()),
        "slots_semantic_final": len(mem.semantic),
        "slots_working_final": len(mem.working),
        "clusters_final": len(assigned_labels),
    }
    stats: dict[str, object] = dict(totals)
    for r, counts in state.rounds.items():
        stats.update({f"round_{r}_{key}": value for key, value in asdict(counts).items()})

    if out_path is not None:
        write_assignments(out_path / "assignments.tsv", assignments.items())
        write_key_values(out_path / "stats.txt", stats)

    return DiscoveryRun(mem=mem, assignments=assignments, stats=stats, consolidations=records)
