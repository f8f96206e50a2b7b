"""Never-ending discovery rounds: stream one split, consolidate, mine the other, swap.

Also owns background estimation over a corpus, semantic-prior collection for
the three initialization modes, and the run-directory layout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .config import Config, save_config
from .consolidation import ConsolidationRecord, consolidate
from .corpus import DatasetSplit, split_dataset
from .evaluation import GroundTruthBox, iou
from .memory import DecisionKind, DualMemory
from .records import RegionRecord
from .reporting import UNASSIGNED, write_assignments, write_key_values
from .stats import BackgroundStats, MomentAccumulator, finalize_background

PRIOR_GT_IOU = 0.5


@dataclass
class RoundState:
    """Mutable cursor of the never-ending loop."""

    round_index: int
    active: str  # "d1" or "d2"
    mem: DualMemory
    counters: dict[str, object] = field(default_factory=dict)


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

def estimate_background(
    batches: Sequence[Sequence[RegionRecord]] | Mapping[str, Sequence[RegionRecord]],
    config: Config,
    workers: int = 1,
) -> BackgroundStats:
    """Moments of every region feature, as ``workers`` batches merged in order.

    The images are dealt round-robin to ``workers`` parts; each part's features
    enter the accumulator as one batch, in index order, so the schedule (and its
    floating-point footprint) is deterministic for a given worker count. All of
    it runs on the calling thread.
    """
    if isinstance(batches, Mapping):
        batches = list(batches.values())
    workers = max(1, workers)
    parts: list[list[np.ndarray]] = [[] for _ in range(workers)]
    for index, batch in enumerate(batches):
        parts[index % workers].extend(region.feature for region in batch)
    acc = MomentAccumulator(config.d)
    for features in parts:
        acc.add_batch(np.reshape(features, (-1, config.d)))
    return finalize_background(acc, config.ridge_lambda)


# ---------------------------------------------------------------------------
# Semantic priors
# ---------------------------------------------------------------------------

def build_priors(
    config: Config,
    prior_records: Sequence[RegionRecord] | None = None,
    corpus: Mapping[str, Sequence[RegionRecord]] | None = None,
    gt: Sequence[GroundTruthBox] | None = None,
) -> dict[str, list[RegionRecord]]:
    """Collect per-class prior regions for the configured initialization mode.

    det_scores keeps labeled detections above the prior score threshold from a
    detections file; gt_overlap matches corpus regions against known-class
    ground truth at IoU > 0.5; null starts from nothing.
    """
    mode = config.init_mode
    if mode == "null":
        return {}
    priors: dict[str, list[RegionRecord]] = {}
    if mode == "det_scores":
        if prior_records is None:
            raise ValueError("init_mode=det_scores requires a prior detections file")
        for record in prior_records:
            if record.gt_label and record.score > config.semantic_prior_score:
                priors.setdefault(record.gt_label, []).append(record)
        return priors
    if mode == "gt_overlap":
        if corpus is None or gt is None:
            raise ValueError("init_mode=gt_overlap requires the corpus and ground truth")
        known_by_image: dict[str, list[GroundTruthBox]] = {}
        for g in gt:
            if g.known_flag:
                known_by_image.setdefault(g.image_id, []).append(g)
        for batch in corpus.values():
            for region in batch:
                best_iou, best_class = 0.0, None
                for g in known_by_image.get(region.image_id, ()):
                    value = iou(region.box, g.box)
                    if value > best_iou:
                        best_iou, best_class = value, g.class_name
                if best_class is not None and best_iou > PRIOR_GT_IOU:
                    priors.setdefault(best_class, []).append(region)
        return priors
    raise ValueError(f"unknown init_mode '{mode}'")


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

def run_discovery_round(
    state: RoundState,
    corpus: Mapping[str, Sequence[RegionRecord]],
    split: DatasetSplit,
) -> ConsolidationRecord:
    """One round: stream the active split, consolidate, mine the inactive split, swap."""
    mem = state.mem
    active_ids = split.d1 if state.active == "d1" else split.d2
    inactive_ids = split.d2 if state.active == "d1" else split.d1

    counts = {kind: 0 for kind in DecisionKind}
    regions_seen = 0
    for image_id in active_ids:
        batch = corpus.get(image_id, ())
        regions_seen += len(batch)
        for decision in mem.process_image(batch):
            counts[decision.kind] += 1

    record = consolidate(mem, round_index=state.round_index)

    mined = 0
    mined_seen = 0
    for image_id in inactive_ids:
        for region in corpus.get(image_id, ()):
            mined_seen += 1
            if mem.mine_region(region):
                mined += 1

    r = state.round_index
    state.counters.update(
        {
            f"round_{r}_active": state.active,
            f"round_{r}_regions": regions_seen,
            f"round_{r}_known_match": counts[DecisionKind.KNOWN_MATCH],
            f"round_{r}_working_match": counts[DecisionKind.WORKING_MATCH],
            f"round_{r}_new_slot": counts[DecisionKind.NEW_SLOT],
            f"round_{r}_rejected": counts[DecisionKind.REJECTED],
            f"round_{r}_mined": mined,
            f"round_{r}_mined_candidates": mined_seen,
        }
    )
    state.round_index += 1
    state.active = "d2" if state.active == "d1" else "d1"
    return record


def final_assignments(
    mem: DualMemory, corpus: Mapping[str, Sequence[RegionRecord]]
) -> dict[str, str]:
    """Label every corpus region from the final semantic member registries.

    A region claimed by several slots keeps the oldest (lowest slot_id) one;
    everything else is unassigned.
    """
    claimed: dict[str, str] = {}
    for slot in mem.semantic:
        for region_id in slot.members:
            claimed.setdefault(region_id, slot.label)
    out: dict[str, str] = {}
    for batch in corpus.values():
        for region in batch:
            out[region.region_id] = claimed.get(region.region_id, UNASSIGNED)
    return out


def run_discovery(
    corpus: Mapping[str, Sequence[RegionRecord]],
    bg: BackgroundStats,
    config: Config,
    priors: dict[str, list[RegionRecord]] | None = None,
    out_dir: str | Path | None = None,
) -> DiscoveryRun:
    """Run the configured number of rounds and assemble the run artifacts."""
    split = split_dataset(list(corpus.keys()), config.rng_seed)
    mem = DualMemory.initialize(bg, config, priors)
    state = RoundState(round_index=1, active="d1", mem=mem)

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        save_config(config, out_path / "config.txt")
        bg.save(out_path / "bg.bin")

    records = []
    for _ in range(config.rounds):
        round_index = state.round_index
        record = run_discovery_round(state, corpus, split)
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
        "images_total": len(corpus),
        "regions_total": sum(len(b) for b in corpus.values()),
        "known_match": sum(state.counters.get(f"round_{r}_known_match", 0) for r in range(1, config.rounds + 1)),
        "working_match": sum(state.counters.get(f"round_{r}_working_match", 0) for r in range(1, config.rounds + 1)),
        "new_slot": sum(state.counters.get(f"round_{r}_new_slot", 0) for r in range(1, config.rounds + 1)),
        "rejected": mem.rejected_count,
        "mined": sum(state.counters.get(f"round_{r}_mined", 0) for r in range(1, config.rounds + 1)),
        "slots_semantic_final": len(mem.semantic),
        "slots_working_final": len(mem.working),
        "clusters_final": len(assigned_labels),
    }
    stats: dict[str, object] = dict(totals)
    stats.update(state.counters)

    if out_path is not None:
        write_assignments(out_path / "assignments.tsv", assignments.items())
        write_key_values(out_path / "stats.txt", stats)

    return DiscoveryRun(mem=mem, assignments=assignments, stats=stats, consolidations=records)
