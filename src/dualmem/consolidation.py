"""Promote working-memory candidates into semantic memory.

The full procedure merges slots whose discriminants fire on each other
(connected components over a thresholded affinity matrix), drops samples a
merged slot's own discriminant rejects, and transfers the survivors as new
semantic categories. Both steps score in whitened space, as semantic memory
does (see ``stats``), so no classifier is trained; the classifier path is kept
as the tests' oracle. Merge and refine recompute centroids from the features of
each slot's member rows in the memory's corpus; a transferred slot keeps its
members' region ids. Working memory is reset afterwards in every mode.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from .memory import DualMemory, SemanticSlot, WorkingSlot
from .stats import LinearClassifier, train_lda, whiten


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


def slot_scores(mem: DualMemory) -> tuple[np.ndarray, np.ndarray]:
    """Each working slot's whitened centroid m and offset o = log(n / N) - |m|^2 / 2.

    Slot i's discriminant scores a whitened row z as ``m_i . z + o_i``, the
    formula semantic slots score with. Rows follow ``mem.working``.
    """
    white = whiten(np.reshape([s.centroid for s in mem.working], (-1, mem.bg.d)), mem.bg)
    counts = np.array([s.count for s in mem.working], dtype=np.float64)
    return white, np.log(counts / mem.bg.count) - 0.5 * np.einsum("ij,ij->i", white, white)


def slot_affinity(mem: DualMemory) -> np.ndarray:
    """The (k, k) symmetrised cross-firing of the working slots, in ``mem.working`` order.

    Slot i's discriminant at slot j's centroid, ``m_i . m_j + o_i``, is its
    score averaged over slot j's members: the discriminant is linear.
    """
    white, offset = slot_scores(mem)
    fired = white @ white.T + offset[:, None]
    return 0.5 * (fired + fired.T)


def train_slot_classifiers(mem: DualMemory) -> dict[int, LinearClassifier]:
    """The closed-form classifier of each working slot, trained at its centroid (the member mean).

    With ``build_affinity_graph`` it is the classifier path that the whitened
    scores replace, kept as their oracle.
    """
    return {s.slot_id: train_lda(s.centroid, s.count, mem.bg) for s in mem.working}


def build_affinity_graph(mem: DualMemory, classifiers: dict[int, LinearClassifier]) -> AffinityGraph:
    """Edges where the classifiers' symmetrised cross-firing exceeds the configured threshold.

    Slot i's classifier is evaluated at slot j's centroid, one pair at a time.
    """
    nodes = [s.slot_id for s in mem.working]
    fired = np.reshape([[classifiers[i].score(s.centroid) for s in mem.working] for i in nodes], (len(nodes),) * 2)
    affinity = 0.5 * (fired + fired.T)
    rows, cols = np.nonzero(np.triu(affinity > mem.config.merge_edge_threshold, 1))
    return AffinityGraph(nodes, [(nodes[i], nodes[j], float(affinity[i, j])) for i, j in zip(rows, cols)])


def merge_components(mem: DualMemory, linked: np.ndarray) -> int:
    """Collapse each connected component into one slot keeping the smallest slot_id.

    ``linked`` is a boolean (k, k) adjacency over ``mem.working`` in its order;
    the diagonal is ignored. Pooled membership is the union in slot_id order;
    the centroid is recomputed from the member features, conserving the sample
    multiset. Singleton components are left untouched.
    """
    _, labels = connected_components(csr_array(linked), directed=False)  # a dense graph is validated slowly
    components: dict[int, list[WorkingSlot]] = {}
    for slot, label in zip(mem.working, labels.tolist()):  # working memory is sorted by slot_id
        components.setdefault(label, []).append(slot)
    merged: list[WorkingSlot] = []
    for component in components.values():
        if len(component) == 1:
            merged.append(component[0])
            continue
        rows = [row for slot in component for row in slot.rows]
        merged.append(WorkingSlot(component[0].slot_id, mem.corpus.features[rows].mean(axis=0), rows))
    mem.working = merged  # components run in order of their smallest slot_id
    mem.rebuild_caches()
    return len(merged)


def refine_slots(mem: DualMemory) -> int:
    """Drop every member its slot's own discriminant scores below zero.

    Members are scored on their rows of the memory's whitened matrix. Runs one
    pass: centroids are recomputed from the retained members, and slots emptied
    entirely are deleted. Returns the number of samples dropped.
    """
    retained_slots: list[WorkingSlot] = []
    dropped = 0
    for slot, white, offset in zip(mem.working, *slot_scores(mem)):
        keep = mem.white[slot.rows] @ white + offset >= 0.0
        n_keep = int(keep.sum())
        dropped += slot.count - n_keep
        if n_keep == slot.count:
            retained_slots.append(slot)
        elif n_keep > 0:
            rows = [row for row, ok in zip(slot.rows, keep.tolist()) if ok]
            retained_slots.append(WorkingSlot(slot.slot_id, mem.corpus.features[rows].mean(axis=0), rows))
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
        linked = slot_affinity(mem) > mem.config.merge_edge_threshold
        slots_after_merge = merge_components(mem, linked)
    if mode == "merge_refine" and mem.working:
        samples_dropped = refine_slots(mem)

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
