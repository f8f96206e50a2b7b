"""The per-region path of DualMemory against the code it replaced, bit for bit.

``ReferenceHotPath`` keeps the earlier ``retrieve``, ``_update_semantic_slot``,
``apply_decision``, ``process_image`` and ``mine_region`` verbatim. The current
path issues fewer numpy calls per region but the same float operations on the
same operands in the same order, so every decision, score and stored float
must be identical, not merely close.
"""

import logging

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dualmem.config import Config
from dualmem.consolidation import consolidate
from dualmem.memory import (
    DecisionKind,
    DualMemory,
    RetrievalDecision,
    StaleDecisionError,
    WorkingSlot,
)
from dualmem.stats import BackgroundStats, whiten

from conftest import make_region, table_of

logger = logging.getLogger("dualmem.memory")


class ReferenceHotPath(DualMemory):
    """DualMemory with the per-region methods as they were written before the dispatch-lean path."""

    def retrieve(self, feature, white=None):
        f = np.asarray(feature, dtype=np.float64)
        if white is None:
            if f.ndim != 1:
                raise ValueError(f"feature has shape {f.shape}, expected ({self.config.d},)")
            white = whiten(f, self.bg)
        cfg = self.config
        if self.semantic:
            scores = self._sem_white @ white + self._sem_offset
            best = int(np.argmax(scores))
            if scores[best] >= cfg.tau_semantic:
                return RetrievalDecision(
                    DecisionKind.KNOWN_MATCH, self.semantic[best].slot_id, float(scores[best])
                )
        best_cos = -1.0
        n = len(self.working)
        if n:
            f_norm = float(np.linalg.norm(f))
            denom = self._work_norm[:n] * f_norm
            raw = self._work_mu[:n] @ f
            if np.any(denom == 0.0):
                logger.warning("degenerate zero-norm centroid or feature during retrieval")
            sims = np.where(denom > 0.0, raw / np.where(denom > 0.0, denom, 1.0), 0.0)
            sims = np.clip(sims, -1.0, 1.0)
            best = int(np.argmax(sims))
            best_cos = float(sims[best])
            if best_cos >= cfg.tau_working:
                return RetrievalDecision(
                    DecisionKind.WORKING_MATCH, self.working[best].slot_id, best_cos
                )
        if self.total_slots >= cfg.slot_cap:
            return RetrievalDecision(DecisionKind.REJECTED, None, best_cos)
        return RetrievalDecision(DecisionKind.NEW_SLOT, None, best_cos)

    def _update_semantic_slot(self, slot_id, row):
        index = self._sem_rows.get(slot_id)
        if index is None:
            raise StaleDecisionError(f"semantic slot {slot_id} no longer exists")
        slot = self.semantic[index]
        slot.mean = slot.mean + (self.corpus.features[row] - slot.mean) / (slot.count + 1)
        slot.white = slot.white + (self.white[row] - slot.white) / (slot.count + 1)
        slot.members.append(self.corpus.region_ids[row])
        self._sem_white[index] = slot.white
        self._sem_offset[index] = slot.offset

    def apply_decision(self, decision, row):
        if decision.kind is DecisionKind.REJECTED:
            self.rejected_count += 1
            return
        if decision.kind is DecisionKind.KNOWN_MATCH:
            self._update_semantic_slot(decision.slot_id, row)
            return
        feature = self.corpus.features[row]
        if decision.kind is DecisionKind.WORKING_MATCH:
            index = self._work_rows.get(decision.slot_id)
            if index is None:
                raise StaleDecisionError(f"working slot {decision.slot_id} no longer exists")
            slot = self.working[index]
            slot.centroid = slot.centroid + (feature - slot.centroid) / (slot.count + 1)
            slot.rows.append(row)
        else:
            slot = WorkingSlot(self.next_slot_id, feature.copy(), [row])
            self.next_slot_id += 1
            index = len(self.working)
            self.working.append(slot)
            self._work_rows[slot.slot_id] = index
            if index == len(self._work_mu):
                self.rebuild_caches()
        self._work_mu[index] = slot.centroid
        self._work_norm[index] = np.linalg.norm(slot.centroid)

    def process_image(self, rows):
        decisions = []
        for row in rows:
            decision = self.retrieve(self.corpus.features[row], self.white[row])
            self.apply_decision(decision, row)
            decisions.append(decision)
        return decisions

    def mine_region(self, row):
        if not self.semantic:
            return False
        scores = self._sem_white @ self.white[row] + self._sem_offset
        best = int(np.argmax(scores))
        if scores[best] < self.config.tau_semantic:
            return False
        self._update_semantic_slot(self.semantic[best].slot_id, row)
        return True


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def decision_bits(decision):
    return decision.kind, decision.slot_id, bits(decision.score)


def state_bits(mem):
    """Every float and id the per-region path writes, as bytes."""
    return (
        [(s.slot_id, s.label, bits(s.mean), bits(s.white), list(s.members)) for s in mem.semantic],
        bits(mem._sem_white), bits(mem._sem_offset),
        [(s.slot_id, bits(s.centroid), list(s.rows)) for s in mem.working],
        bits(mem._work_mu), bits(mem._work_norm),
        mem.rejected_count, mem.next_slot_id,
    )


def twins(bg, config, priors):
    """The current memory and the reference, initialized alike."""
    tables = {label: table_of(regions) for label, regions in priors.items()}
    return DualMemory.initialize(bg, config, tables), ReferenceHotPath.initialize(bg, config, tables)


ROW_KINDS = ["random", "duplicate", "zero", "near_semantic", "near_working", "class"]


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 6),
    n_classes=st.integers(0, 4),
    twin_class=st.booleans(),
    kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=60),
    image_size=st.integers(1, 5),
    slot_cap=st.integers(4, 12),
    tau_working=st.floats(0.3, 0.95),
    nudge=st.sampled_from([0.0, 1e-15, -1e-15, 1e-9, -1e-9]),
)
@settings(max_examples=150, deadline=None)
def test_hot_path_is_bit_identical_to_the_reference(
    seed, d, n_classes, twin_class, kinds, image_size, slot_cap, tau_working, nudge
):
    """Same decisions, scores and stored floats while streaming, after consolidation and after mining.

    Rows are random, exact duplicates of earlier rows, zero, placed where a
    prior slot's score crosses tau_semantic = 0, placed at cosine tau_working
    from an earlier row, or drawn around a class. A twin class with the same
    priors as another ties every semantic score exactly.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    bg = BackgroundStats.from_moments(
        rng.standard_normal(d), a @ a.T / d + 0.1 * np.eye(d), int(rng.integers(20, 5000))
    )
    centers = bg.mean + 3.0 * rng.standard_normal((n_classes, d))
    priors = {
        f"c{k}": [
            make_region(f"p{k}_{j}", f"pi{k}", centers[k] + 0.3 * rng.standard_normal(d))
            for j in range(int(rng.integers(1, 8)))
        ]
        for k in range(n_classes)
    }
    if twin_class and n_classes:
        priors["c_twin"] = [
            make_region(f"t_{r.region_id}", r.image_id, r.feature.copy()) for r in priors["c0"]
        ]
    config = Config(
        d=d, slot_cap=max(slot_cap, len(priors)), tau_working=tau_working,
        consolidation_mode="naive", min_images_per_slot=1,
    )
    mem, ref = twins(bg, config, priors)
    crossings = [
        (slot.classifier.score(bg.mean), slot.classifier.score(center))
        for slot, center in zip(mem.semantic, centers)
    ]

    feats = []
    for kind in kinds:
        if kind == "duplicate" and feats:
            f = feats[int(rng.integers(len(feats)))].copy()
        elif kind == "zero":
            f = np.zeros(d)
        elif kind == "near_semantic" and crossings:
            k = int(rng.integers(len(crossings)))
            at_bg, at_center = crossings[k]
            u = at_bg / (at_bg - at_center) + nudge
            f = bg.mean + u * (centers[k] - bg.mean)
        elif kind == "near_working" and feats and np.any(feats[-1]):
            prev = feats[-1] / np.linalg.norm(feats[-1])
            orth = rng.standard_normal(d)
            orth -= (orth @ prev) * prev
            orth /= np.linalg.norm(orth)
            cos = min(1.0, tau_working + nudge)
            f = float(rng.uniform(0.5, 5.0)) * (cos * prev + np.sqrt(1.0 - cos * cos) * orth)
        elif kind == "class" and n_classes:
            f = centers[int(rng.integers(n_classes))] + 0.3 * rng.standard_normal(d)
        else:
            f = 3.0 * rng.standard_normal(d)
        feats.append(f)
    regions = [
        make_region(f"r{i}", f"i{i // image_size}", f) for i, f in enumerate(feats)
    ]
    table = table_of(regions, d)
    white = whiten(table.features, bg)
    mem.attach(table, white)
    ref.attach(table, white)
    starts = table.image_starts.tolist()
    images = [range(start, end) for start, end in zip(starts, starts[1:])]
    stream, mine = images[: (len(images) + 1) // 2], images[(len(images) + 1) // 2:]

    for rows in stream:
        got, expected = mem.process_image(rows), ref.process_image(rows)
        assert [decision_bits(x) for x in got] == [decision_bits(x) for x in expected]
        assert state_bits(mem) == state_bits(ref)

    consolidate(mem, round_index=1)
    consolidate(ref, round_index=1)
    assert state_bits(mem) == state_bits(ref)
    for rows in mine:
        for row in rows:
            assert mem.mine_region(row) == ref.mine_region(row)
        assert state_bits(mem) == state_bits(ref)


class TestZeroNorm:
    """The degenerate branch of retrieve: a zero centroid or a zero feature scores cosine 0.0."""

    WARNING = "degenerate zero-norm centroid or feature during retrieval"

    def stream(self, first, second, caplog):
        """Stream ``first`` into empty working memory, then retrieve ``second`` on both memories."""
        d = len(first)
        mem, ref = twins(BackgroundStats.from_moments(np.zeros(d), np.eye(d), 1000), Config(d=d), {})
        table = table_of([make_region("r0", "i0", first), make_region("r1", "i1", second)], d)
        mem.attach(table)
        ref.attach(table, mem.white)
        opened = mem.process_image([0])
        assert [decision_bits(x) for x in opened] == [decision_bits(x) for x in ref.process_image([0])]
        assert opened[0].kind is DecisionKind.NEW_SLOT
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="dualmem.memory"):
            decision = mem.retrieve(table.features[1], mem.white[1])
        assert caplog.messages == [self.WARNING]
        assert decision_bits(decision) == decision_bits(ref.retrieve(table.features[1], ref.white[1]))
        return mem, decision

    def test_a_zero_feature_opens_a_zero_centroid_that_scores_zero(self, caplog):
        mem, decision = self.stream(np.zeros(3), np.array([1.0, -2.0, 0.5]), caplog)
        assert mem.working[0].centroid.tobytes() == np.zeros(3).tobytes()
        assert mem._work_norm[0] == 0.0
        assert (decision.kind, decision.score) == (DecisionKind.NEW_SLOT, 0.0)

    def test_a_zero_feature_scores_zero_against_a_centroid_that_is_not_zero(self, caplog):
        mem, decision = self.stream(np.array([1.0, -2.0, 0.5]), np.zeros(3), caplog)
        assert mem._work_norm[0] > 0.0
        assert (decision.kind, decision.score) == (DecisionKind.NEW_SLOT, 0.0)

    def test_a_zero_similarity_can_match(self, caplog):
        """At tau_working = 0 the degenerate slot's 0.0 is a match, on both memories alike."""
        d = 3
        config = Config(d=d, tau_working=0.0)
        mem, ref = twins(BackgroundStats.from_moments(np.zeros(d), np.eye(d), 1000), config, {})
        table = table_of([make_region("r0", "i0", np.zeros(d)), make_region("r1", "i0", [1.0, 2.0, 3.0])], d)
        mem.attach(table)
        ref.attach(table, mem.white)
        with caplog.at_level(logging.WARNING, logger="dualmem.memory"):
            got, expected = mem.process_image(range(2)), ref.process_image(range(2))
        assert [decision_bits(x) for x in got] == [decision_bits(x) for x in expected]
        assert got[1].kind is DecisionKind.WORKING_MATCH and got[1].score == 0.0
        assert caplog.messages == [self.WARNING] * 2
        assert state_bits(mem) == state_bits(ref)
