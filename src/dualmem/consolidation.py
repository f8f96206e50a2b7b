"""Promote working-memory candidates into semantic memory.

The full procedure merges slots whose discriminants fire on each other
(connected components over ``slot_links``, the pairs whose affinity exceeds the
threshold, decided from row blocks of the product), drops samples a merged
slot's own discriminant rejects, and transfers the survivors as new semantic
categories. Both steps score in whitened space, as semantic memory does (see
``stats``), so no classifier is trained; the classifier path is kept as the
tests' oracle. Merge and refine recompute centroids from the features of each
slot's member rows in the memory's corpus; a transferred slot keeps those rows.
Working memory is reset afterwards in every mode."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .memory import DualMemory, SemanticSlot, WorkingSlot
from .stats import LinearClassifier, train_lda, whiten

# Rows of the affinity's upper triangle that ``slot_links`` forms at a time.
LINK_BLOCK = 64
_U = np.finfo(np.float64).eps / 2  # unit roundoff
_TINY = np.finfo(np.float64).tiny  # smallest normal float64


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


def slot_scores(mem: DualMemory) -> tuple[np.ndarray, np.ndarray]:
    """Each working slot's whitened centroid m and offset o = log(n / N) - |m|^2 / 2.

    Slot i's discriminant scores a whitened row z as ``m_i . z + o_i``, the
    formula semantic slots score with. Rows follow ``mem.working``.
    """
    white = whiten(np.reshape([s.centroid for s in mem.working], (-1, mem.bg.d)), mem.bg)
    counts = np.array([s.count for s in mem.working], dtype=np.float64)
    return white, np.log(counts / mem.bg.count) - 0.5 * np.einsum("ij,ij->i", white, white)


def slot_links(mem: DualMemory) -> np.ndarray:
    """The linked pairs of working slots, affinity ``> merge_edge_threshold``: an (m, 2) array of rows (i, j), i < j.

    Slot i's discriminant at slot j's centroid, ``m_i . m_j + o_i``, is its
    score averaged over slot j's members: the discriminant is linear. A pair's
    affinity is the mean of its two directions, as ``whole_links`` forms it
    from the one symmetric product ``white @ white.T``. Here the upper triangle
    is formed ``LINK_BLOCK`` rows at a time as ``white[lo:hi] @ white[lo:].T``,
    which rounds differently, so a pair is decided from its block only when its
    value lies farther from the threshold than both roundings can move it (see
    ``_link_margin``). If any pair lies within, the call returns
    ``whole_links``, whose decisions define the links. Pairs are in row-major
    order; rows follow ``mem.working``.
    """
    white, offset = slot_scores(mem)
    threshold = mem.config.merge_edge_threshold
    margin = _link_margin(white, offset)
    half = 0.5 * offset
    k = len(white)
    pairs = [np.empty((0, 2), dtype=np.intp)]
    for lo in range(0, k, LINK_BLOCK):
        hi = min(lo + LINK_BLOCK, k)
        gap = white[lo:hi] @ white[lo:].T
        gap += half[lo:hi, None]
        gap += half[lo:]
        gap -= threshold
        gap[np.tril_indices(hi - lo, 0, k - lo)] = -np.inf  # pairs j <= i
        bound = margin[lo:hi, None]
        linked = gap > bound
        if not (np.abs(gap, out=gap) > bound).all():
            return whole_links(white, offset, threshold)
        pairs.append(np.argwhere(linked) + lo)
    return np.concatenate(pairs)


def _link_margin(white: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Per row i, a bound on how far rounding can move a pair (i, j)'s affinity between two products.

    A d-term dot product summed in any order is within γ_d |m_i| |m_j| of the
    exact value, γ_d = d u / (1 - d u) (Higham, *Accuracy and Stability of
    Numerical Algorithms*, §3.1), so two products differ by at most
    2 γ_d |m_i| |m_j|. Adding the offsets, halving and subtracting the
    threshold add a few u (|m_i| |m_j| + |o_i| + |o_j|), and the norms are
    rounded too. The bound is over twice their sum, with |m_j| and |o_j| at
    their maxima, plus d times the smallest normal float for underflow. A row
    whose terms overflow gets inf, which no block value exceeds.
    """
    d = white.shape[1]
    gamma = d * _U / (1 - d * _U)
    norms = np.sqrt(np.einsum("ij,ij->i", white, white))
    size = np.abs(offset)
    scale = 2 * (norms * norms.max(initial=0.0) + size + size.max(initial=0.0))
    return 2 * (gamma + 3 * _U) * scale + d * _TINY


def whole_links(white: np.ndarray, offset: np.ndarray, threshold: float) -> np.ndarray:
    """``slot_links`` from the whole (k, k) product: the definition its blocks are screened against.

    Offsets are added in place to the one symmetric BLAS call
    ``white @ white.T``, and each pair's affinity is formed and thresholded
    ``LINK_BLOCK`` rows at a time; only the product is held whole.
    """
    fired = white @ white.T
    fired += offset[:, None]
    linked = np.empty(fired.shape, dtype=bool)
    for lo in range(0, len(fired), LINK_BLOCK):
        rows = slice(lo, lo + LINK_BLOCK)
        affinity = fired[rows] + fired[:, rows].T
        affinity *= 0.5
        np.greater(affinity, threshold, out=linked[rows])
    return np.argwhere(np.triu(linked, 1))


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


def merge_components(mem: DualMemory, pairs: np.ndarray) -> int:
    """Collapse each connected component into one slot keeping the smallest slot_id.

    ``pairs`` is an (m, 2) array of linked rows of ``mem.working``, as
    ``slot_links`` returns. Pooled membership is the union in slot_id order;
    the centroid is recomputed from the member features, conserving the sample
    multiset. Singleton components are left untouched, and with no linked pair
    working memory is left as it is.
    """
    k = len(mem.working)
    if not len(pairs):
        return k
    # Each row takes the smallest row it reaches: propagate the minimum over the pairs, then jump to the
    # label's label, until nothing moves. Labels only fall and stay in their component, so each ends at the
    # component's smallest row.
    labels = np.arange(k)
    while True:
        low = np.minimum(labels[pairs[:, 0]], labels[pairs[:, 1]])
        moved = labels.copy()
        np.minimum.at(moved, pairs[:, 0], low)
        np.minimum.at(moved, pairs[:, 1], low)
        moved = moved[moved]
        if (moved == labels).all():
            break
        labels = moved
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
        keep = mem.white[slot.rows].dot(white) + offset >= 0.0
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
        slots_after_merge = merge_components(mem, slot_links(mem))
    if mode == "merge_refine" and mem.working:
        samples_dropped = refine_slots(mem)

    row_image = mem.corpus.row_image
    kept = [slot for slot in mem.working if len(set(row_image[slot.rows].tolist())) >= mem.config.min_images_per_slot]
    dropped_small = len(mem.working) - len(kept)
    whites = whiten(np.reshape([slot.centroid for slot in kept], (-1, mem.bg.d)), mem.bg)
    for sequence, (slot, white) in enumerate(zip(kept, whites)):
        mem.semantic.append(SemanticSlot(slot.slot_id, f"disc_{round_index}_{sequence}", white, mem.bg, slot.rows))
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
