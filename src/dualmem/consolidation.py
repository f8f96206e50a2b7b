"""Promote working-memory candidates into semantic memory.

The full procedure trains a classifier per working slot, merges slots whose
classifiers fire on each other (connected components over a thresholded
affinity graph), drops samples a merged slot's own classifier rejects, and
transfers the survivors as new semantic categories. Working memory is reset
afterwards in every mode.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components

from .memory import DualMemory, SemanticSlot, WorkingSlot
from .stats import LinearClassifier, train_lda


@dataclass
class AffinityGraph:
    """Undirected cross-firing graph over working slots; no self-edges."""

    nodes: list[int]
    edges: list[tuple[int, int, float]]


@dataclass
class ConsolidationRecord:
    """One log line per consolidation event."""

    round_index: int
    mode: str
    slots_before: int
    slots_after_merge: int
    samples_dropped_by_refine: int
    slots_transferred: int
    slots_dropped_min_images: int

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def train_slot_classifiers(mem: DualMemory) -> dict[int, LinearClassifier]:
    """Closed-form classifier per working slot, trained at its centroid.

    The member mean equals the centroid, so training on the centroid and on
    the member set coincide.
    """
    return {
        slot.slot_id: train_lda(slot.centroid, slot.count, mem.bg)
        for slot in mem.working
    }


def build_affinity_graph(
    mem: DualMemory, classifiers: dict[int, LinearClassifier]
) -> AffinityGraph:
    """Symmetric cross-firing affinities; an edge exists above the configured threshold.

    By default slot i's classifier is evaluated at slot j's centroid; with
    ``affinity_per_sample`` it is averaged over slot j's member features.
    """
    slots = mem.working
    nodes = [s.slot_id for s in slots]
    k = len(slots)
    if k < 2:
        return AffinityGraph(nodes=nodes, edges=[])
    weights = np.stack([classifiers[s.slot_id].weights for s in slots])
    biases = np.array([classifiers[s.slot_id].bias for s in slots])
    if mem.config.affinity_per_sample:
        fired = np.empty((k, k))
        for j, slot in enumerate(slots):
            feats = np.stack([mem.sample_store[r] for r in slot.members])
            fired[:, j] = (weights @ feats.T).mean(axis=1) + biases
    else:
        centroids = np.stack([s.centroid for s in slots])
        fired = weights @ centroids.T + biases[:, None]
    affinity = 0.5 * (fired + fired.T)
    threshold = mem.config.merge_edge_threshold
    rows, cols = np.nonzero(np.triu(affinity > threshold, 1))
    edges = [
        (nodes[i], nodes[j], weight)
        for i, j, weight in zip(rows.tolist(), cols.tolist(), affinity[rows, cols].tolist())
    ]
    return AffinityGraph(nodes=nodes, edges=edges)


def merge_components(mem: DualMemory, graph: AffinityGraph) -> int:
    """Collapse each connected component into one slot keeping the smallest slot_id.

    Pooled membership is the union in slot_id order; the centroid and count are
    recomputed from the member features, conserving the sample multiset.
    Singleton components are left untouched.
    """
    by_id = {s.slot_id: s for s in mem.working}
    index = {slot_id: i for i, slot_id in enumerate(graph.nodes)}
    rows = [index[i] for i, _, _ in graph.edges]
    cols = [index[j] for _, j, _ in graph.edges]
    n = len(index)
    adjacency = coo_array((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    _, labels = connected_components(adjacency, directed=False)
    components: dict[int, list[int]] = {}
    for slot_id, label in sorted(zip(graph.nodes, labels.tolist())):
        components.setdefault(label, []).append(slot_id)
    merged: list[WorkingSlot] = []
    for component in components.values():
        if len(component) == 1:
            merged.append(by_id[component[0]])
            continue
        members: list[str] = []
        for slot_id in component:
            members.extend(by_id[slot_id].members)
        feats = np.stack([mem.sample_store[r] for r in members])
        merged.append(
            WorkingSlot(
                slot_id=component[0],
                centroid=feats.mean(axis=0),
                count=len(members),
                members=members,
            )
        )
    merged.sort(key=lambda s: s.slot_id)
    mem.working = merged
    mem.rebuild_caches()
    return len(merged)


def refine_slots(mem: DualMemory, classifiers: dict[int, LinearClassifier]) -> int:
    """Drop every member a slot's own classifier scores below zero.

    Runs one pass: centroids and counts are recomputed from the retained
    members, and slots emptied entirely are deleted. Returns the number of
    samples dropped.
    """
    retained_slots: list[WorkingSlot] = []
    dropped = 0
    for slot in mem.working:
        clf = classifiers[slot.slot_id]
        feats = np.stack([mem.sample_store[r] for r in slot.members])
        keep = clf.score_batch(feats) >= 0.0
        n_keep = int(keep.sum())
        dropped += len(slot.members) - n_keep
        if n_keep == len(slot.members):
            retained_slots.append(slot)
        elif n_keep > 0:
            members = [r for r, ok in zip(slot.members, keep) if ok]
            retained_slots.append(
                WorkingSlot(
                    slot_id=slot.slot_id,
                    centroid=feats[keep].mean(axis=0),
                    count=n_keep,
                    members=members,
                )
            )
    mem.working = retained_slots
    mem.rebuild_caches()
    return dropped


def consolidate(mem: DualMemory, round_index: int = 1) -> ConsolidationRecord:
    """Run the configured consolidation mode and reset working memory.

    Slots whose members span fewer than ``min_images_per_slot`` distinct images
    are discarded rather than transferred.
    """
    mode = mem.config.consolidation_mode
    slots_before = len(mem.working)
    slots_after_merge = slots_before
    samples_dropped = 0

    if mode in ("merge", "merge_refine") and mem.working:
        classifiers = train_slot_classifiers(mem)
        graph = build_affinity_graph(mem, classifiers)
        slots_after_merge = merge_components(mem, graph)
    if mode == "merge_refine" and mem.working:
        samples_dropped = refine_slots(mem, train_slot_classifiers(mem))

    transferred = 0
    dropped_small = 0
    sequence = 0
    for slot in mem.working:
        image_span = len({mem.image_of[r] for r in slot.members})
        if image_span < mem.config.min_images_per_slot:
            dropped_small += 1
            continue
        label = f"disc_{round_index}_{sequence}"
        sequence += 1
        mem.semantic.append(
            SemanticSlot(
                slot_id=slot.slot_id,
                label=label,
                mean=slot.centroid.copy(),
                count=slot.count,
                classifier=train_lda(slot.centroid, slot.count, mem.bg),
                members=list(slot.members),
            )
        )
        transferred += 1
    mem.semantic.sort(key=lambda s: s.slot_id)
    mem.working = []
    mem.rebuild_caches()
    return ConsolidationRecord(
        round_index=round_index,
        mode=mode,
        slots_before=slots_before,
        slots_after_merge=slots_after_merge,
        samples_dropped_by_refine=samples_dropped,
        slots_transferred=transferred,
        slots_dropped_min_images=dropped_small,
    )
