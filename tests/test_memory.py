import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dualmem.memory
from dualmem.config import Config, config_hash
from dualmem.consolidation import consolidate, train_slot_classifiers
from dualmem.memory import CHECKPOINT_MAGIC, CHECKPOINT_VERSION, DecisionKind, DualMemory, StaleDecisionError
from dualmem.stats import BackgroundStats, train_lda

from conftest import identity_bg, make_region, table_of


def make_memory(d=4, priors=None, bg_count=1000, batches=(), **config_kwargs):
    """A memory on one table of every batch's regions, in order, followed by the prior regions."""
    config = Config(d=d, init_mode="det_scores" if priors else "null", **config_kwargs)
    tables = {label: table_of(regions) for label, regions in (priors or {}).items()}
    regions = [r for batch in batches for r in batch] + [r for group in (priors or {}).values() for r in group]
    return DualMemory.initialize(identity_bg(d, count=bg_count), config, table_of(regions, d), tables)


def batch_rows(*batches):
    """Each batch's rows in a memory that ``make_memory`` built on these batches."""
    ends = np.cumsum([len(batch) for batch in batches]).tolist()
    return [range(end - len(batch), end) for batch, end in zip(batches, ends)]


def process(batch, **memory_kwargs):
    """A memory built on the batch's regions, and the decisions of streaming them."""
    mem = make_memory(batches=[batch], **memory_kwargs)
    return mem, mem.process_image(*batch_rows(batch))


def region_ids(mem, rows):
    return [mem.corpus.region_ids[row] for row in rows]


def two_class_priors(d=4, scale=10.0, count=4):
    """Two well-separated prior classes along the first two axes."""
    priors = {}
    for idx, label in enumerate(["car", "human"]):
        feats = []
        for j in range(count):
            f = np.zeros(d)
            f[idx] = scale
            f[(idx + 2) % d] = 0.1 * (j - count / 2)
            feats.append(make_region(f"prior_{label}_{j}", f"prior_img_{j}", f, score=0.95))
        priors[label] = feats
    return priors


class TestInit:
    def test_null_mode_empty(self):
        mem = make_memory()
        assert mem.semantic == [] and mem.working == []

    def test_one_slot_per_class(self):
        mem = make_memory(priors=two_class_priors())
        assert len(mem.semantic) == 2
        assert [s.label for s in mem.semantic] == ["car", "human"]
        assert len(mem.working) == 0

    def test_prior_mean_by_hand(self):
        priors = {
            "cat": [
                make_region("p0", "i0", [2.0, 0.0, 0.0, 0.0]),
                make_region("p1", "i1", [0.0, 2.0, 0.0, 0.0]),
            ]
        }
        mem = make_memory(priors=priors)
        slot = mem.semantic[0]
        np.testing.assert_array_equal(slot.mean, [1.0, 1.0, 0.0, 0.0])
        assert slot.count == 2
        assert region_ids(mem, slot.rows) == ["p0", "p1"]

    def test_empty_class_skipped_with_warning(self, caplog):
        priors = {"cat": [], "dog": [make_region("p0", "i0", [1.0, 0, 0, 0])]}
        with caplog.at_level("WARNING"):
            mem = make_memory(priors=priors)
        assert [s.label for s in mem.semantic] == ["dog"]
        assert any("cat" in r.message for r in caplog.records)

    def test_the_slot_cap_counts_only_the_classes_that_get_a_slot(self):
        priors = {"cat": [], "dog": [make_region("p0", "i0", [1.0, 0, 0, 0])]}
        mem = make_memory(priors=priors, slot_cap=1)
        assert [s.label for s in mem.semantic] == ["dog"]
        with pytest.raises(ValueError, match="^2 prior classes exceed the slot cap 1$"):
            make_memory(priors=dict(priors, cat=[make_region("p1", "i1", [0, 1.0, 0, 0])]), slot_cap=1)

    @pytest.mark.parametrize("label", ["unassigned", "disc_1_0", "disc_0_0", "disc_12_345", "disc_01_7"])
    def test_a_label_the_run_writes_for_its_own_rows_is_refused(self, label):
        priors = {"cat": [make_region("p0", "i0", [1.0, 0, 0, 0])], label: [make_region("p1", "i1", [0, 1.0, 0, 0])]}
        with pytest.raises(ValueError) as caught:
            make_memory(priors=priors)
        assert str(caught.value) == f"prior class '{label}' takes a label reserved for unassigned and discovered rows"

    @pytest.mark.parametrize("label", ["Unassigned", "unassigned_1", "disc_1", "disc_1_0_2", "disc_a_0", "disc_1_0 ",
                                       "disc_-1_0", "disc_١_0"])
    def test_a_label_that_only_resembles_a_reserved_one_gets_a_slot(self, label):
        mem = make_memory(priors={label: [make_region("p0", "i0", [1.0, 0, 0, 0])]})
        assert [s.label for s in mem.semantic] == [label]

    def test_a_background_of_another_dimension_is_refused(self):
        with pytest.raises(ValueError, match="^background dimension 3 != configured dimension 4$"):
            DualMemory(identity_bg(3), Config(d=4), table_of([], 4))

    def test_priors_with_the_wrong_dimension_fail(self):
        with pytest.raises(ValueError, match="shape"):
            make_memory(priors={"cat": [make_region("p0", "i0", [1.0, 0.0, 0.0])]})
        with pytest.raises(ValueError):
            mixed = [make_region("p0", "i0", [1.0, 0.0, 0.0]), make_region("p1", "i0", [1.0] * 4)]
            make_memory(priors={"cat": mixed})

    def test_classifier_matches_closed_form(self):
        mem = make_memory(priors=two_class_priors())
        for slot in mem.semantic:
            expected = train_lda(slot.mean, slot.count, mem.bg)
            np.testing.assert_array_equal(slot.classifier.weights, expected.weights)
            assert slot.classifier.bias == expected.bias


class TestRetrieve:
    def test_empty_memory_new_slot(self):
        mem = make_memory()
        decision = mem.retrieve(np.array([1.0, 0, 0, 0]))
        assert decision.kind is DecisionKind.NEW_SLOT
        assert decision.slot_id is None

    def test_known_match_at_class_mean(self):
        mem = make_memory(priors=two_class_priors())
        slot = mem.semantic[0]
        decision = mem.retrieve(slot.mean)
        assert decision.kind is DecisionKind.KNOWN_MATCH
        assert decision.slot_id == slot.slot_id
        # Score at the positive mean: half squared Mahalanobis gap plus log prior ratio.
        gap = slot.mean - mem.bg.mean
        expected = 0.5 * gap @ np.linalg.solve(mem.bg.covariance, gap) + np.log(
            slot.count / mem.bg.count
        )
        assert decision.score == pytest.approx(expected, rel=1e-10)

    def test_working_match_on_close_cosine(self):
        mem, _ = process([make_region("r0", "i0", [0.0, 0.0, 5.0, 0.0])])
        decision = mem.retrieve(np.array([0.0, 0.0, 5.0, 0.4]))
        assert decision.kind is DecisionKind.WORKING_MATCH
        assert decision.score > 0.99

    def test_below_threshold_creates_slot(self):
        mem, _ = process([make_region("r0", "i0", [0.0, 0.0, 5.0, 0.0])])
        decision = mem.retrieve(np.array([0.0, 0.0, 0.0, 5.0]))
        assert decision.kind is DecisionKind.NEW_SLOT

    @pytest.mark.parametrize("feature", [[1.0, 0.0, 0.0], [[1.0, 0.0, 0.0, 0.0]], [1.0, np.nan, 0.0, 0.0]])
    def test_checks_a_feature_from_outside(self, feature):
        for mem in (make_memory(), make_memory(priors=two_class_priors())):
            with pytest.raises(ValueError, match="shape|non-finite"):
                mem.retrieve(np.array(feature))

    def test_is_pure(self):
        mem = make_memory(priors=two_class_priors())
        f = np.array([0.0, 0.0, 3.0, 0.0])
        before = (len(mem.semantic), len(mem.working))
        first = mem.retrieve(f)
        second = mem.retrieve(f)
        assert first == second
        assert (len(mem.semantic), len(mem.working)) == before

    def test_semantic_precedes_working(self):
        target = make_memory(priors=two_class_priors()).semantic[0].mean
        mem, _ = process([make_region("r0", "i0", target * 1.01)], priors=two_class_priors())
        decision = mem.retrieve(target)
        assert decision.kind is DecisionKind.KNOWN_MATCH

    def test_cap_returns_rejected(self):
        mem, _ = process(
            [
                make_region("r0", "i0", [5.0, 0, 0, 0]),
                make_region("r1", "i0", [0, 5.0, 0, 0]),
            ],
            slot_cap=2,
        )
        decision = mem.retrieve(np.array([0, 0, 5.0, 0]))
        assert decision.kind is DecisionKind.REJECTED

    def test_argmax_tie_goes_to_lowest_slot_id(self):
        priors = {
            "a": [make_region("pa", "i0", [6.0, 0, 0, 0])],
            "b": [make_region("pb", "i1", [6.0, 0, 0, 0])],
        }
        mem = make_memory(priors=priors)
        decision = mem.retrieve(np.array([6.0, 0, 0, 0]))
        assert decision.kind is DecisionKind.KNOWN_MATCH
        assert decision.slot_id == mem.semantic[0].slot_id == 0

    def test_a_score_equal_to_tau_semantic_matches(self):
        """A semantic slot matches at score >= tau_semantic: on the threshold it matches, one ulp below it not."""
        mem = make_memory(priors=two_class_priors(), tau_semantic=-1e9)
        f = np.array([3.0, 1.0, 0.5, -0.25])
        score = mem.retrieve(f).score
        mem.config.tau_semantic = score
        assert mem.retrieve(f).kind is DecisionKind.KNOWN_MATCH
        mem.config.tau_semantic = float(np.nextafter(score, np.inf))
        assert mem.retrieve(f).kind is DecisionKind.NEW_SLOT

    def test_a_cosine_equal_to_tau_working_matches(self):
        """A working slot matches at cosine >= tau_working: on the threshold it matches, one ulp below it not."""
        mem, _ = process([make_region("r0", "i0", [4.0, 0.5, 0, 0])], tau_working=-1.0)
        f = np.array([3.0, 1.0, 0.5, 0.0])
        cosine = mem.retrieve(f).score
        mem.config.tau_working = cosine
        assert mem.retrieve(f).kind is DecisionKind.WORKING_MATCH
        mem.config.tau_working = float(np.nextafter(cosine, np.inf))
        assert mem.retrieve(f).kind is DecisionKind.NEW_SLOT

    def test_a_cosine_rounded_below_minus_one_is_clipped_before_the_argmax(self):
        """Clipped, a cosine that rounds to just below -1 ties with an exact -1, and the tie goes to the older slot."""
        f = np.array([1.0, 5.0])
        regions = [make_region("r0", "i0", -f), make_region("r1", "i1", -3.0 * f)]
        mem = make_memory(d=2, tau_working=-1.0, batches=[regions])
        new_slot = mem.retrieve(regions[0].feature)
        mem.apply_decision(new_slot, 0)
        mem.apply_decision(new_slot, 1)
        sims = mem._work_mu[:2].dot(f) / (mem._work_norm[:2] * np.sqrt(f.dot(f)))
        assert sims[0] < sims[1] == -1.0
        decision = mem.retrieve(f)
        assert (decision.kind, decision.slot_id, decision.score) == (DecisionKind.WORKING_MATCH, 0, -1.0)

    def test_working_argmax_scale_invariant(self):
        mem, _ = process(
            [
                make_region("r0", "i0", [4.0, 0.5, 0, 0]),
                make_region("r1", "i0", [0, 0.5, 4.0, 0]),
            ],
            tau_working=0.9,
        )
        f = np.array([4.1, 0.4, 0, 0])
        base = mem.retrieve(f)
        scaled = mem.retrieve(7.3 * f)
        assert base.kind is DecisionKind.WORKING_MATCH
        assert scaled.slot_id == base.slot_id


class TestApply:
    def test_working_two_point_mean(self):
        batch = [make_region("r0", "i0", [0.0, 0.0, 0.0, 0.0001]), make_region("r1", "i0", [2.0, 2.0, 0, 0])]
        mem = make_memory(batches=[batch])
        (r0, r1) = batch_rows(batch)[0]
        mem.process_image([r0])
        slot = mem.working[0]
        # Force a working match against the sole slot regardless of cosine.
        mem.config.tau_working = -1.0
        decision = mem.retrieve(np.array([2.0, 2.0, 0, 0]))
        assert decision.kind is DecisionKind.WORKING_MATCH
        mem.apply_decision(decision, r1)
        np.testing.assert_allclose(slot.centroid, [1.0, 1.0, 0, 0.00005], rtol=0, atol=1e-12)
        assert slot.count == 2
        assert region_ids(mem, slot.rows) == ["r0", "r1"]

    def test_new_slot_seeds_centroid(self):
        mem, _ = process([make_region("r0", "i0", [3.0, 4.0, 0, 0])])
        slot = mem.working[0]
        np.testing.assert_array_equal(slot.centroid, [3.0, 4.0, 0, 0])
        assert slot.count == 1 and region_ids(mem, slot.rows) == ["r0"]

    def test_semantic_update_with_recompute_oracle(self):
        priors = {"cat": [make_region(f"p{j}", f"i{j}", [1.0, 0, 0, 0]) for j in range(3)]}
        batch = [make_region("r0", "i9", [5.0, 0, 0, 0])]
        mem = make_memory(priors=priors, bg_count=10, batches=[batch])
        slot = mem.semantic[0]
        decision = mem.retrieve(np.array([5.0, 0, 0, 0]))
        assert decision.kind is DecisionKind.KNOWN_MATCH
        (row,) = batch_rows(batch)[0]
        mem.apply_decision(decision, row)
        np.testing.assert_allclose(slot.mean, [2.0, 0, 0, 0], rtol=0, atol=1e-12)
        assert slot.count == 4
        expected = train_lda(slot.mean, slot.count, mem.bg)
        np.testing.assert_array_equal(slot.classifier.weights, expected.weights)
        assert slot.classifier.bias == expected.bias

    def test_new_slot_past_the_preallocated_rows(self):
        """A NEW_SLOT decision applied twice at the cap grows the rows; retrieval reads both slots."""
        regions = [make_region("r0", "i0", [5.0, 0, 0, 0]), make_region("r1", "i0", [0, 5.0, 0, 0])]
        mem = make_memory(slot_cap=1, batches=[regions])
        decision = mem.retrieve(np.array([5.0, 0, 0, 0]))
        (r0, r1) = batch_rows(regions)[0]
        mem.apply_decision(decision, r0)
        mem.apply_decision(decision, r1)
        assert [s.centroid.tolist() for s in mem.working] == [[5.0, 0, 0, 0], [0, 5.0, 0, 0]]
        match = mem.retrieve(np.array([0, 4.0, 0.1, 0]))
        assert match.kind is DecisionKind.WORKING_MATCH and match.slot_id == mem.working[1].slot_id

    def test_rejected_counts(self):
        mem, _ = process(
            [
                make_region("r0", "i0", [5.0, 0, 0, 0]),
                make_region("r1", "i0", [0, 5.0, 0, 0]),
                make_region("r2", "i0", [0, 0, 5.0, 0]),
            ],
            slot_cap=1,
        )
        assert len(mem.working) == 1
        assert mem.rejected_count == 2

    def test_stale_decision_raises(self):
        regions = [make_region("r0", "i0", [5.0, 0, 0, 0]), make_region("r1", "i0", [5.0, 0, 0, 0])]
        mem = make_memory(batches=[regions])
        (r0, r1) = batch_rows(regions)[0]
        mem.process_image([r0])
        decision = mem.retrieve(np.array([5.0, 0, 0, 0]))
        mem.working = []
        mem.rebuild_caches()
        with pytest.raises(StaleDecisionError):
            mem.apply_decision(decision, r1)

    def test_stale_known_match_raises(self):
        mem = make_memory(priors=two_class_priors(), batches=[[make_region("r0", "i0", [10.0, 0, 0, 0])]])
        decision = mem.retrieve(mem.corpus.features[0], mem.white[0])
        assert decision.kind is DecisionKind.KNOWN_MATCH
        mem.semantic = [s for s in mem.semantic if s.slot_id != decision.slot_id]
        mem.rebuild_caches()
        with pytest.raises(StaleDecisionError, match=f"^semantic slot {decision.slot_id} no longer exists$"):
            mem.apply_decision(decision, 0)


class TestProcessImage:
    def test_known_and_novel_regions_route_correctly(self):
        """Two known classes; an image with two humans, one car, four novelties."""
        car, human = (slot.mean for slot in make_memory(priors=two_class_priors(scale=10.0)).semantic)
        novel = [
            [0, 0, 8.0, 0],
            [0, 0, -8.0, 0],
            [0, 0, 0, 8.0],
            [0, 0, 0, -8.0],
        ]
        batch = [
            make_region("h1", "img", human + 0.01),
            make_region("c1", "img", car + 0.01),
            make_region("h2", "img", human - 0.01),
            *(make_region(f"n{i}", "img", f) for i, f in enumerate(novel)),
        ]
        mem, decisions = process(batch, priors=two_class_priors(scale=10.0))
        kinds = [d.kind for d in decisions]
        assert kinds.count(DecisionKind.KNOWN_MATCH) == 3
        assert kinds.count(DecisionKind.NEW_SLOT) == 4
        assert len(mem.working) == 4

    def test_second_image_reuses_and_extends_working_slots(self):
        """Continuation: one human and two cars match semantic memory, two regions
        rejoin existing working slots, two open fresh ones."""
        car, human = (slot.mean for slot in make_memory(d=6, priors=two_class_priors(d=6, scale=10.0)).semantic)
        novel_a = np.array([0, 0, 8.0, 0, 0, 0])
        novel_b = np.array([0, 0, 0, 8.0, 0, 0])
        first = [
            make_region("h1", "img1", human + 0.01),
            make_region("n1", "img1", novel_a),
            make_region("n2", "img1", novel_b),
        ]
        second = [
            make_region("h2", "img2", human - 0.01),
            make_region("c1", "img2", car + 0.01),
            make_region("c2", "img2", car - 0.01),
            make_region("n3", "img2", novel_a + 0.01),
            make_region("n4", "img2", novel_b - 0.01),
            make_region("n5", "img2", np.array([0, 0, 0, 0, 8.0, 0])),
            make_region("n6", "img2", np.array([0, 0, 0, 0, 0, 8.0])),
        ]
        mem = make_memory(d=6, priors=two_class_priors(d=6, scale=10.0), batches=[first, second])
        first_rows, second_rows = batch_rows(first, second)
        mem.process_image(first_rows)
        assert len(mem.working) == 2
        kinds = [d.kind for d in mem.process_image(second_rows)]
        assert kinds.count(DecisionKind.KNOWN_MATCH) == 3
        assert kinds.count(DecisionKind.WORKING_MATCH) == 2
        assert kinds.count(DecisionKind.NEW_SLOT) == 2
        assert len(mem.working) == 4

    def test_empty_batch_no_change(self):
        mem = make_memory(priors=two_class_priors())
        before = (len(mem.semantic), len(mem.working))
        assert mem.process_image([]) == []
        assert (len(mem.semantic), len(mem.working)) == before

    def test_intra_image_updates_visible(self):
        f = [0.0, 0.0, 6.0, 0.0]
        mem, decisions = process([make_region("r0", "i0", f), make_region("r1", "i0", f)])
        assert decisions[0].kind is DecisionKind.NEW_SLOT
        assert decisions[1].kind is DecisionKind.WORKING_MATCH
        assert decisions[1].score == pytest.approx(1.0, abs=1e-12)
        assert len(mem.working) == 1


class TestMine:
    def test_no_semantic_slot_mines_nothing(self):
        """Under init_mode = null, before any slot is transferred, mining accepts no row and changes nothing."""
        mem = make_memory(tau_semantic=-1e9, batches=[[make_region("r0", "i0", [3.0, 1.0, 0.5, -0.25])]])
        assert mem.config.init_mode == "null"
        assert not mem.mine_region(0)
        assert mem.semantic == [] and mem.working == [] and mem.rejected_count == 0

    def test_a_score_equal_to_tau_semantic_is_accepted(self):
        """Mining accepts a row whose best score is >= tau_semantic: on the threshold it joins, one ulp below it not."""
        batch = [make_region("r0", "i0", [3.0, 1.0, 0.5, -0.25])]
        mem = make_memory(priors=two_class_priors(), tau_semantic=-1e9, batches=[batch])
        (row,) = batch_rows(batch)[0]
        decision = mem.retrieve(mem.corpus.features[row], mem.white[row])
        assert decision.kind is DecisionKind.KNOWN_MATCH
        slot = mem.semantic[decision.slot_id]
        mem.config.tau_semantic = float(np.nextafter(decision.score, np.inf))
        assert not mem.mine_region(row) and slot.count == 4
        mem.config.tau_semantic = decision.score
        assert mem.mine_region(row) and slot.count == 5


class TestInvariants:
    def test_centroids_equal_member_means_after_stream(self):
        rng = np.random.default_rng(0)
        batches = []
        for i in range(80):
            feats = rng.standard_normal((3, 6)) * 2
            batches.append([make_region(f"r{i}_{j}", f"i{i}", feats[j]) for j in range(3)])
        mem = make_memory(d=6, batches=batches)
        for rows in batch_rows(*batches):
            mem.process_image(rows)
        assert mem.working
        for slot in mem.working:
            member_mean = np.mean([mem.corpus.features[row] for row in slot.rows], axis=0)
            assert np.linalg.norm(slot.centroid - member_mean) <= 1e-7 * (
                1 + np.linalg.norm(member_mean)
            )
            assert slot.count == len(slot.rows)

    def test_final_centroid_independent_of_arrival_order(self):
        feats = [np.array([5.0, 0.1 * j, 0, 0]) for j in range(6)]
        mems = []
        for order in (feats, feats[::-1]):
            mem, _ = process([make_region(f"r{j}", "i0", f) for j, f in enumerate(order)], tau_working=0.5)
            assert len(mem.working) == 1
            mems.append(mem.working[0].centroid)
        np.testing.assert_allclose(mems[0], mems[1], rtol=0, atol=1e-12)

    def test_slot_total_never_exceeds_cap(self):
        rng = np.random.default_rng(1)
        new_slots = 0
        batches = [[make_region(f"r{i}", f"i{i}", rng.standard_normal(6) * 3)] for i in range(40)]
        mem = make_memory(d=6, slot_cap=5, tau_working=0.999, batches=batches)
        for rows in batch_rows(*batches):
            decisions = mem.process_image(rows)
            new_slots += sum(1 for d in decisions if d.kind is DecisionKind.NEW_SLOT)
            assert len(mem.semantic) + len(mem.working) <= 5
        assert mem.rejected_count == 40 - new_slots


class TestCheckpoint:
    def test_reload_reproduces_decisions(self, tmp_path):
        rng = np.random.default_rng(3)
        batches = [[make_region(f"r{i}", f"i{i}", rng.standard_normal(6) * 3)] for i in range(20)]
        probe_batches = [
            [make_region(f"q{i}", f"qi{i}", rng.standard_normal(6) * 3)] for i in range(10)
        ]
        mem = make_memory(d=6, min_images_per_slot=2, batches=batches + probe_batches, priors={
            "cat": [make_region("p0", "ip", np.array([8.0, 0, 0, 0, 0, 0]))],
        })
        stream_rows = batch_rows(*batches, *probe_batches)
        for rows in stream_rows[:len(batches)]:
            mem.process_image(rows)
        consolidate(mem)
        assert len(mem.semantic) > 1
        path = tmp_path / "checkpoint.bin"
        mem.save_checkpoint(path)
        mem.bg.save(tmp_path / "bg.bin")
        twin = DualMemory.load_checkpoint(path, BackgroundStats.load(tmp_path / "bg.bin"), mem.config, mem.corpus)

        assert [(s.slot_id, s.label, s.rows, s.external) for s in twin.semantic] == [
            (s.slot_id, s.label, s.rows, s.external) for s in mem.semantic
        ]
        assert (twin.next_slot_id, twin.rejected_count) == (mem.next_slot_id, mem.rejected_count)
        for rows in stream_rows[len(batches):]:
            assert mem.process_image(rows) == twin.process_image(rows)
        for a, b in zip(mem.semantic, twin.semantic):
            np.testing.assert_array_equal(a.mean, b.mean)
            np.testing.assert_array_equal(a.white, b.white)
        assert mem.working
        for a, b in zip(mem.working, twin.working):
            np.testing.assert_array_equal(a.centroid, b.centroid)
            assert a.rows == b.rows

    def test_refuses_working_slots_and_writes_nothing(self, tmp_path):
        mem, _ = process([make_region("r0", "i0", [0.0, 0.0, 6.0, 0.0])])
        path = tmp_path / "checkpoint.bin"
        with pytest.raises(ValueError, match="1 working slots"):
            mem.save_checkpoint(path)
        assert not path.exists()

    def test_reload_rejects_wrong_config(self, tmp_path):
        mem = make_memory(d=4)
        path = tmp_path / "checkpoint.bin"
        mem.save_checkpoint(path)
        other = Config(d=4, tau_working=0.71, init_mode="null")
        with pytest.raises(ValueError, match="different configuration"):
            DualMemory.load_checkpoint(path, mem.bg, other, mem.corpus)

    def test_the_corpus_is_hashed_once_per_memory(self, tmp_path, monkeypatch):
        mem = make_memory(d=4, batches=[[make_region("r0", "i0", [1.0, 0.0, 0.0, 0.0])]])
        digest, hashed = dualmem.memory._corpus_digest, []
        monkeypatch.setattr(dualmem.memory, "_corpus_digest", lambda corpus: hashed.append(corpus) or digest(corpus))
        for name in ("a.bin", "b.bin", "c.bin"):
            mem.save_checkpoint(tmp_path / name)
        assert len(hashed) == 1 and hashed[0] is mem.corpus
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "c.bin").read_bytes()
        assert DualMemory.load_checkpoint(tmp_path / "c.bin", mem.bg, mem.config, mem.corpus).semantic == []

    def test_the_background_is_hashed_once(self, tmp_path, monkeypatch):
        mem = make_memory(d=4)
        encode, encoded = BackgroundStats.to_bytes, []
        monkeypatch.setattr(BackgroundStats, "to_bytes", lambda bg: encoded.append(bg) or encode(bg))
        for name in ("a.bin", "b.bin", "c.bin"):
            mem.save_checkpoint(tmp_path / name)
        DualMemory.load_checkpoint(tmp_path / "c.bin", mem.bg, mem.config, mem.corpus)
        assert len(encoded) == 1 and encoded[0] is mem.bg

    def test_reload_refuses_another_background_before_reading_a_slot(self, tmp_path):
        """A checkpoint holds the sha256 of its background's ``bg.bin`` after the corpus digest, and no moment."""
        mem = make_memory(d=4, priors={"cat": [make_region("p0", "ip", [8.0, 0, 0, 0])]})
        path, cut = tmp_path / "checkpoint.bin", tmp_path / "cut.bin"
        mem.save_checkpoint(path)
        mem.bg.save(tmp_path / "bg.bin")
        data = path.read_bytes()
        assert data[76:108] == hashlib.sha256((tmp_path / "bg.bin").read_bytes()).digest()
        cut.write_bytes(data[:108])  # no counters and no slot after the digest
        for checkpoint in (path, cut):
            with pytest.raises(ValueError) as caught:
                DualMemory.load_checkpoint(checkpoint, identity_bg(4, count=1001), mem.config, mem.corpus)
            assert str(caught.value) == f"{checkpoint}: checkpoint was written with a different background"
        truncated = r"cut\.bin: truncated at byte 108: counters and slot count needs 20 bytes, got 0$"
        with pytest.raises(ValueError, match=truncated):
            DualMemory.load_checkpoint(cut, mem.bg, mem.config, mem.corpus)
        assert len(DualMemory.load_checkpoint(path, identity_bg(4), mem.config, mem.corpus).semantic) == 1

    def test_truncated_checkpoint_is_a_value_error_at_every_offset(self, tmp_path):
        rng = np.random.default_rng(5)
        batches = [[make_region(f"r{i}", f"i{i}", rng.standard_normal(3) * 3)] for i in range(6)]
        mem = make_memory(
            d=3, min_images_per_slot=1, priors={"cat": [make_region("p0", "ip", np.array([8.0, 0, 0]))]}, batches=batches
        )
        for rows in batch_rows(*batches):
            mem.process_image(rows)
        consolidate(mem)
        assert len(mem.semantic) > 1
        path = tmp_path / "checkpoint.bin"
        mem.save_checkpoint(path)
        data = path.read_bytes()
        cut = tmp_path / "cut.bin"
        for size in range(len(data)):
            cut.unlink(missing_ok=True)  # a new file: truncating one in place makes ext4 flush it
            cut.write_bytes(data[:size])
            with pytest.raises(ValueError, match=r"cut\.bin: truncated at byte \d+"):
                DualMemory.load_checkpoint(cut, mem.bg, mem.config, mem.corpus)


def reference_save_checkpoint(mem, path):
    """``DualMemory.save_checkpoint`` as written before the slot section was joined: one write per field."""

    def write_str(fh, value):
        raw = value.encode("utf-8")
        fh.write(struct.pack("<I", len(raw)))
        fh.write(raw)

    corpus_digest = hashlib.sha256()
    for region_id in mem.corpus.region_ids:
        raw = region_id.encode("utf-8")
        corpus_digest.update(struct.pack("<I", len(raw)))
        corpus_digest.update(raw)
    bg_digest = hashlib.sha256(struct.pack("<4sI", b"DMBG", mem.bg.d))  # bg.bin's bytes, field by field
    bg_digest.update(mem.bg.mean.astype("<f8").tobytes())
    bg_digest.update(mem.bg.covariance.astype("<f8").tobytes())
    bg_digest.update(struct.pack("<Q", mem.bg.count))

    if mem.working:
        raise ValueError(f"cannot checkpoint with {len(mem.working)} working slots; consolidate first")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sII", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, mem.config.d))
        fh.write(bytes.fromhex(config_hash(mem.config)))
        fh.write(corpus_digest.digest())
        fh.write(bg_digest.digest())
        fh.write(struct.pack("<QQ", mem.next_slot_id, mem.rejected_count))
        fh.write(struct.pack("<I", len(mem.semantic)))
        for slot in mem.semantic:
            fh.write(struct.pack("<Q", slot.slot_id))
            write_str(fh, slot.label)
            fh.write(slot.white.astype("<f8").tobytes())
            fh.write(struct.pack("<I", slot.external))
            fh.write(struct.pack("<I", len(slot.rows)))
            for row in slot.rows:
                fh.write(struct.pack("<I", row))


# Ids and labels of one to three code points, from 1-byte to 4-byte UTF-8; no tab, newline or surrogate.
TEXT = st.text(st.sampled_from("a_7é\u00ffΩ\u0800猫\uffff🦉\U0010ffff"), min_size=1, max_size=3)


@given(
    seed=st.integers(0, 2**32 - 1),
    labels=st.lists(TEXT, unique=True, max_size=4),
    ids=st.lists(TEXT, unique=True, max_size=12),
    mined=st.integers(0, 6),
)
@settings(max_examples=100, deadline=None)
def test_checkpoint_bytes_equal_the_per_field_writer(tmp_path_factory, seed, labels, ids, mined):
    """Slot labels and member ids in multi-byte UTF-8, slots with one member or many, or no slot at all."""
    rng = np.random.default_rng(seed)
    d = 3
    priors = {label: [] for label in labels}
    for i, region_id in enumerate(ids):
        if labels:
            priors[labels[i % len(labels)]].append(make_region(region_id, f"图{i}", rng.standard_normal(d)))
    mem, _ = process([make_region(f"ré{i}🦉", f"𝔦{i}", rng.standard_normal(d)) for i in range(mined)],
                     d=d, priors=priors, tau_semantic=-1e9, bg_count=int(rng.integers(1, 2**40)))
    mem.rejected_count = int(rng.integers(0, 2**40))
    consolidate(mem)
    folder = tmp_path_factory.mktemp("checkpoint")
    mem.save_checkpoint(folder / "joined.bin")
    reference_save_checkpoint(mem, folder / "fields.bin")
    assert (folder / "joined.bin").read_bytes() == (folder / "fields.bin").read_bytes()
    twin = DualMemory.load_checkpoint(folder / "joined.bin", mem.bg, mem.config, mem.corpus)
    assert [(s.slot_id, s.label, s.rows, s.external) for s in twin.semantic] == [
        (s.slot_id, s.label, s.rows, s.external) for s in mem.semantic
    ]


class ReferenceMemory:
    """The engine before whitening: every score is ``train_lda(mean, count, bg)`` at the raw feature.

    Semantic and working slots are ``[slot_id, mean, count, members]`` lists;
    retrieval, the cap, naive consolidation and mining follow DualMemory's rules.
    """

    def __init__(self, bg, config, priors):
        self.bg, self.config = bg, config
        self.semantic = []
        self.working = []
        self.image_of = {}
        for label in sorted(priors):
            feats = np.stack([r.feature for r in priors[label]])
            members = [r.region_id for r in priors[label]]
            self.semantic.append([len(self.semantic), feats.mean(axis=0), len(feats), members])
        self.next_slot_id = len(self.semantic)

    def best_semantic(self, f):
        scores = [train_lda(mean, count, self.bg).score(f) for _, mean, count, _ in self.semantic]
        best = int(np.argmax(scores))
        return best, scores[best]

    @staticmethod
    def absorb(slot, region):
        slot[1] = slot[1] + (region.feature - slot[1]) / (slot[2] + 1)
        slot[2] += 1
        slot[3].append(region.region_id)

    def step(self, region):
        f, cfg = region.feature, self.config
        self.image_of[region.region_id] = region.image_id
        if self.semantic:
            best, score = self.best_semantic(f)
            if score >= cfg.tau_semantic:
                self.absorb(self.semantic[best], region)
                return DecisionKind.KNOWN_MATCH, self.semantic[best][0], score
        best_cos = -1.0
        if self.working:
            sims = [
                float(mean @ f) / (np.linalg.norm(mean) * np.linalg.norm(f)) for _, mean, _, _ in self.working
            ]
            best = int(np.argmax(sims))
            best_cos = sims[best]
            if best_cos >= cfg.tau_working:
                self.absorb(self.working[best], region)
                return DecisionKind.WORKING_MATCH, self.working[best][0], best_cos
        if len(self.semantic) + len(self.working) >= cfg.slot_cap:
            return DecisionKind.REJECTED, None, best_cos
        self.working.append([self.next_slot_id, f.copy(), 1, [region.region_id]])
        self.next_slot_id += 1
        return DecisionKind.NEW_SLOT, None, best_cos

    def consolidate_naive(self):
        spans = {s[0]: len({self.image_of[r] for r in s[3]}) for s in self.working}
        kept = [s for s in self.working if spans[s[0]] >= self.config.min_images_per_slot]
        self.semantic = sorted(self.semantic + kept, key=lambda s: s[0])
        self.working = []

    def mine(self, region):
        if not self.semantic:
            return False
        best, score = self.best_semantic(region.feature)
        if score < self.config.tau_semantic:
            return False
        self.absorb(self.semantic[best], region)
        return True


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 6),
    n_classes=st.integers(1, 4),
    n_images=st.integers(4, 24),
    slot_cap=st.integers(4, 30),
    tau_working=st.floats(0.3, 0.95),
)
@settings(max_examples=120, deadline=None)
def test_whitened_engine_matches_the_lda_reference(seed, d, n_classes, n_images, slot_cap, tau_working):
    """Streaming, naive consolidation and mining: same decisions and slots as explicit LDA scoring.

    Most regions lie where a prior slot's score crosses zero, so many semantic
    scores fall near tau_semantic = 0.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    bg_count = int(rng.integers(20, 5000))
    bg = BackgroundStats.from_moments(rng.standard_normal(d), a @ a.T / d + 0.1 * np.eye(d), bg_count)
    centers = bg.mean + 3.0 * rng.standard_normal((n_classes, d))
    priors = {
        f"c{k}": [
            make_region(f"p{k}_{j}", f"pi{k}", centers[k] + 0.3 * rng.standard_normal(d))
            for j in range(int(rng.integers(4, 16)))
        ]
        for k in range(n_classes)
    }
    config = Config(
        d=d, slot_cap=max(slot_cap, n_classes), tau_working=tau_working,
        consolidation_mode="naive", min_images_per_slot=2,
    )
    tables = {label: table_of(regions) for label, regions in priors.items()}
    prior_regions = [region for regions in priors.values() for region in regions]
    # Where each prior slot's score crosses zero on the segment from the background mean to its class; the
    # prior slots do not depend on the corpus, so a memory on the prior regions alone places the crossings.
    mem = DualMemory.initialize(bg, config, table_of(prior_regions), tables)
    crossings = []
    for slot, center in zip(mem.semantic, centers):
        at_bg, at_center = slot.classifier.score(bg.mean), slot.classifier.score(center)
        crossings.append((at_bg / (at_bg - at_center), 1.0 / (at_center - at_bg)))
    corpus = {}
    for i in range(n_images):
        feats = []
        for _ in range(int(rng.integers(1, 5))):
            k = int(rng.integers(n_classes))
            at_zero, per_unit_score = crossings[k]
            u = at_zero + 0.3 * per_unit_score * rng.standard_normal()
            near = bg.mean + u * (centers[k] - bg.mean) + 0.001 * rng.standard_normal(d)
            feats.append(near if rng.random() < 0.7 else 3.0 * rng.standard_normal(d))
        corpus[f"i{i}"] = [make_region(f"r{i}_{j}", f"i{i}", f) for j, f in enumerate(feats)]
    ref = ReferenceMemory(bg, config, priors)
    table = table_of([region for batch in corpus.values() for region in batch] + prior_regions)
    mem = DualMemory.initialize(bg, config, table, tables)
    starts = table.image_starts.tolist()
    rows = {image_id: range(start, end) for image_id, start, end in zip(table.image_ids, starts, starts[1:])}
    stream, mine = list(corpus)[: n_images // 2], list(corpus)[n_images // 2:]

    def same_score(got, expected):
        return abs(got - expected) <= 1e-9 * (1.0 + abs(expected))

    for image_id in stream:
        decisions = mem.process_image(rows[image_id])
        for decision, region in zip(decisions, corpus[image_id]):
            kind, slot_id, score = ref.step(region)
            assert (decision.kind, decision.slot_id) == (kind, slot_id)
            assert same_score(decision.score, score)
    for slot_id, clf in train_slot_classifiers(mem).items():
        slot = next(s for s in mem.working if s.slot_id == slot_id)
        expected = train_lda(slot.centroid, slot.count, bg)
        assert np.array_equal(clf.weights, expected.weights) and clf.bias == expected.bias

    consolidate(mem)
    ref.consolidate_naive()
    for image_id in mine:
        for region, row in zip(corpus[image_id], rows[image_id]):
            assert mem.mine_region(row) == ref.mine(region)
    assert [(s.slot_id, s.count, region_ids(mem, s.rows)) for s in mem.semantic] == [
        (s[0], s[2], s[3]) for s in ref.semantic
    ]
    for slot, (_, mean, _, _) in zip(mem.semantic, ref.semantic):
        assert np.all(np.abs(slot.mean - mean) <= 1e-9 * (1.0 + np.abs(mean)))  # derived from the whitened mean
