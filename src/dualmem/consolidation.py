"""Promote working-memory candidates into semantic memory.

The full procedure trains a classifier per working slot (one solve for all of
them), merges slots whose classifiers fire on each other (connected components
over a thresholded affinity graph), drops samples a merged slot's own
classifier rejects, and transfers the survivors as new semantic categories.
Merge and refine recompute centroids from the features of each working slot's
member rows in the memory's corpus; a transferred slot keeps its members'
region ids. Working memory is reset afterwards in every mode.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components

from .memory import DualMemory, SemanticSlot, WorkingSlot
from .stats import LinearClassifier, train_lda_batch, whiten


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
    the member set coincide. All slots are solved in one call, and each
    classifier equals ``train_lda(centroid, count, bg)`` bit for bit.
    """
    slots = mem.working
    classifiers = train_lda_batch([s.centroid for s in slots], [s.count for s in slots], mem.bg)
    return {slot.slot_id: clf for slot, clf in zip(slots, classifiers)}


def build_affinity_graph(
    mem: DualMemory, classifiers: dict[int, LinearClassifier]
) -> AffinityGraph:
    """Symmetric cross-firing affinities; an edge exists above the configured threshold.

    Slot i's classifier is evaluated at slot j's centroid, which is its score
    averaged over slot j's members: the classifier is linear.
    """
    slots = mem.working
    nodes = [s.slot_id for s in slots]
    k = len(slots)
    if k < 2:
        return AffinityGraph(nodes=nodes, edges=[])
    weights = np.stack([classifiers[s.slot_id].weights for s in slots])
    biases = np.array([classifiers[s.slot_id].bias for s in slots])
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

    Pooled membership is the union in slot_id order; the centroid is recomputed
    from the member features, conserving the sample multiset.
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
        rows = [row for slot_id in component for row in by_id[slot_id].rows]
        merged.append(WorkingSlot(component[0], mem.corpus.features[rows].mean(axis=0), rows))
    mem.working = merged  # components run in order of their smallest slot_id
    mem.rebuild_caches()
    return len(merged)


def refine_slots(mem: DualMemory, classifiers: dict[int, LinearClassifier]) -> int:
    """Drop every member a slot's own classifier scores below zero.

    Runs one pass: centroids are recomputed from the retained members, and
    slots emptied entirely are deleted. Returns the number of samples dropped.
    """
    retained_slots: list[WorkingSlot] = []
    dropped = 0
    for slot in mem.working:
        clf = classifiers[slot.slot_id]
        feats = mem.corpus.features[slot.rows]
        keep = clf.score_batch(feats) >= 0.0
        n_keep = int(keep.sum())
        dropped += slot.count - n_keep
        if n_keep == slot.count:
            retained_slots.append(slot)
        elif n_keep > 0:
            rows = [row for row, ok in zip(slot.rows, keep.tolist()) if ok]
            retained_slots.append(WorkingSlot(slot.slot_id, feats[keep].mean(axis=0), rows))
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

    corpus = mem.corpus
    kept = [
        slot for slot in mem.working
        if len(set(corpus.image_of(slot.rows))) >= mem.config.min_images_per_slot
    ]
    dropped_small = len(mem.working) - len(kept)
    whites = whiten(np.stack([slot.centroid for slot in kept]), mem.bg) if kept else []
    for sequence, (slot, white) in enumerate(zip(kept, whites)):
        label = f"disc_{round_index}_{sequence}"
        members = [corpus.region_ids[row] for row in slot.rows]
        mem.semantic.append(SemanticSlot(slot.slot_id, label, slot.centroid.copy(), white, mem.bg, members))
    mem.semantic.sort(key=lambda s: s.slot_id)
    mem.working = []
    mem.rebuild_caches()
    return ConsolidationRecord(
        round_index=round_index,
        mode=mode,
        slots_before=slots_before,
        slots_after_merge=slots_after_merge,
        samples_dropped_by_refine=samples_dropped,
        slots_transferred=len(kept),
        slots_dropped_min_images=dropped_small,
    )
