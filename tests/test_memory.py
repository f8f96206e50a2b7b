import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualmem.config import Config
from dualmem.consolidation import consolidate, train_slot_classifiers
from dualmem.memory import DecisionKind, DualMemory, StaleDecisionError
from dualmem.stats import BackgroundStats, train_lda, whiten

from conftest import identity_bg, make_region, table_of


def make_memory(d=4, priors=None, bg_count=1000, **config_kwargs):
    config = Config(d=d, init_mode="det_scores" if priors else "null", **config_kwargs)
    tables = {label: table_of(regions) for label, regions in (priors or {}).items()}
    return DualMemory.initialize(identity_bg(d, count=bg_count), config, tables)


def attach(mem, *batches):
    """Attach one table of every batch's regions, in order; returns each batch's rows."""
    mem.attach(table_of([r for batch in batches for r in batch], mem.config.d))
    ends = np.cumsum([len(batch) for batch in batches]).tolist()
    return [range(end - len(batch), end) for batch, end in zip(batches, ends)]


def process(mem, batch):
    """Attach the batch's regions and stream them."""
    return mem.process_image(*attach(mem, batch))


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
        assert slot.members == ["p0", "p1"]

    def test_empty_class_skipped_with_warning(self, caplog):
        priors = {"cat": [], "dog": [make_region("p0", "i0", [1.0, 0, 0, 0])]}
        with caplog.at_level("WARNING"):
            mem = make_memory(priors=priors)
        assert [s.label for s in mem.semantic] == ["dog"]
        assert any("cat" in r.message for r in caplog.records)

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
        mem = make_memory()
        process(mem, [make_region("r0", "i0", [0.0, 0.0, 5.0, 0.0])])
        decision = mem.retrieve(np.array([0.0, 0.0, 5.0, 0.4]))
        assert decision.kind is DecisionKind.WORKING_MATCH
        assert decision.score > 0.99

    def test_below_threshold_creates_slot(self):
        mem = make_memory()
        process(mem, [make_region("r0", "i0", [0.0, 0.0, 5.0, 0.0])])
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
        mem = make_memory(priors=two_class_priors())
        target = mem.semantic[0].mean
        process(mem, [make_region("r0", "i0", target * 1.01)])
        decision = mem.retrieve(target)
        assert decision.kind is DecisionKind.KNOWN_MATCH

    def test_cap_returns_rejected(self):
        mem = make_memory(slot_cap=2)
        process(
            mem,
            [
                make_region("r0", "i0", [5.0, 0, 0, 0]),
                make_region("r1", "i0", [0, 5.0, 0, 0]),
            ]
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

    def test_working_argmax_scale_invariant(self):
        mem = make_memory(tau_working=0.9)
        process(
            mem,
            [
                make_region("r0", "i0", [4.0, 0.5, 0, 0]),
                make_region("r1", "i0", [0, 0.5, 4.0, 0]),
            ]
        )
        f = np.array([4.1, 0.4, 0, 0])
        base = mem.retrieve(f)
        scaled = mem.retrieve(7.3 * f)
        assert base.kind is DecisionKind.WORKING_MATCH
        assert scaled.slot_id == base.slot_id


class TestApply:
    def test_working_two_point_mean(self):
        mem = make_memory()
        (r0, r1) = attach(
            mem, [make_region("r0", "i0", [0.0, 0.0, 0.0, 0.0001]), make_region("r1", "i0", [2.0, 2.0, 0, 0])]
        )[0]
        mem.process_image([r0])
        slot = mem.working[0]
        # Force a working match against the sole slot regardless of cosine.
        mem.config.tau_working = -1.0
        decision = mem.retrieve(np.array([2.0, 2.0, 0, 0]))
        assert decision.kind is DecisionKind.WORKING_MATCH
        mem.apply_decision(decision, r1)
        np.testing.assert_allclose(slot.centroid, [1.0, 1.0, 0, 0.00005], rtol=0, atol=1e-12)
        assert slot.count == 2
        assert [mem.corpus.region_ids[row] for row in slot.rows] == ["r0", "r1"]

    def test_new_slot_seeds_centroid(self):
        mem = make_memory()
        process(mem, [make_region("r0", "i0", [3.0, 4.0, 0, 0])])
        slot = mem.working[0]
        np.testing.assert_array_equal(slot.centroid, [3.0, 4.0, 0, 0])
        assert slot.count == 1 and [mem.corpus.region_ids[row] for row in slot.rows] == ["r0"]

    def test_semantic_update_with_recompute_oracle(self):
        priors = {"cat": [make_region(f"p{j}", f"i{j}", [1.0, 0, 0, 0]) for j in range(3)]}
        mem = make_memory(priors=priors, bg_count=10)
        slot = mem.semantic[0]
        decision = mem.retrieve(np.array([5.0, 0, 0, 0]))
        assert decision.kind is DecisionKind.KNOWN_MATCH
        (row,) = attach(mem, [make_region("r0", "i9", [5.0, 0, 0, 0])])[0]
        mem.apply_decision(decision, row)
        np.testing.assert_allclose(slot.mean, [2.0, 0, 0, 0], rtol=0, atol=1e-12)
        assert slot.count == 4
        expected = train_lda(slot.mean, slot.count, mem.bg)
        np.testing.assert_array_equal(slot.classifier.weights, expected.weights)
        assert slot.classifier.bias == expected.bias

    def test_new_slot_past_the_preallocated_rows(self):
        """A NEW_SLOT decision applied twice at the cap grows the rows; retrieval reads both slots."""
        mem = make_memory(slot_cap=1)
        decision = mem.retrieve(np.array([5.0, 0, 0, 0]))
        regions = [make_region("r0", "i0", [5.0, 0, 0, 0]), make_region("r1", "i0", [0, 5.0, 0, 0])]
        (r0, r1) = attach(mem, regions)[0]
        mem.apply_decision(decision, r0)
        mem.apply_decision(decision, r1)
        assert [s.centroid.tolist() for s in mem.working] == [[5.0, 0, 0, 0], [0, 5.0, 0, 0]]
        match = mem.retrieve(np.array([0, 4.0, 0.1, 0]))
        assert match.kind is DecisionKind.WORKING_MATCH and match.slot_id == mem.working[1].slot_id

    def test_rejected_counts(self):
        mem = make_memory(slot_cap=1)
        process(
            mem,
            [
                make_region("r0", "i0", [5.0, 0, 0, 0]),
                make_region("r1", "i0", [0, 5.0, 0, 0]),
                make_region("r2", "i0", [0, 0, 5.0, 0]),
            ]
        )
        assert len(mem.working) == 1
        assert mem.rejected_count == 2

    def test_stale_decision_raises(self):
        mem = make_memory()
        regions = [make_region("r0", "i0", [5.0, 0, 0, 0]), make_region("r1", "i0", [5.0, 0, 0, 0])]
        (r0, r1) = attach(mem, regions)[0]
        mem.process_image([r0])
        decision = mem.retrieve(np.array([5.0, 0, 0, 0]))
        mem.working = []
        mem.rebuild_caches()
        with pytest.raises(StaleDecisionError):
            mem.apply_decision(decision, r1)


class TestProcessImage:
    def test_known_and_novel_regions_route_correctly(self):
        """Two known classes; an image with two humans, one car, four novelties."""
        mem = make_memory(priors=two_class_priors(scale=10.0))
        human = mem.semantic[1].mean
        car = mem.semantic[0].mean
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
        decisions = process(mem, batch)
        kinds = [d.kind for d in decisions]
        assert kinds.count(DecisionKind.KNOWN_MATCH) == 3
        assert kinds.count(DecisionKind.NEW_SLOT) == 4
        assert len(mem.working) == 4

    def test_second_image_reuses_and_extends_working_slots(self):
        """Continuation: one human and two cars match semantic memory, two regions
        rejoin existing working slots, two open fresh ones."""
        mem = make_memory(d=6, priors=two_class_priors(d=6, scale=10.0))
        human = mem.semantic[1].mean
        car = mem.semantic[0].mean
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
        first_rows, second_rows = attach(mem, first, second)
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
        assert process(mem, []) == []
        assert (len(mem.semantic), len(mem.working)) == before

    def test_intra_image_updates_visible(self):
        mem = make_memory()
        f = [0.0, 0.0, 6.0, 0.0]
        decisions = process(
            mem, [make_region("r0", "i0", f), make_region("r1", "i0", f)]
        )
        assert decisions[0].kind is DecisionKind.NEW_SLOT
        assert decisions[1].kind is DecisionKind.WORKING_MATCH
        assert decisions[1].score == pytest.approx(1.0, abs=1e-12)
        assert len(mem.working) == 1


class TestInvariants:
    def test_centroids_equal_member_means_after_stream(self):
        rng = np.random.default_rng(0)
        mem = make_memory(d=6)
        batches = []
        for i in range(80):
            feats = rng.standard_normal((3, 6)) * 2
            batches.append([make_region(f"r{i}_{j}", f"i{i}", feats[j]) for j in range(3)])
        for rows in attach(mem, *batches):
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
            mem = make_memory(tau_working=0.5)
            process(
                mem, [make_region(f"r{j}", "i0", f) for j, f in enumerate(order)]
            )
            assert len(mem.working) == 1
            mems.append(mem.working[0].centroid)
        np.testing.assert_allclose(mems[0], mems[1], rtol=0, atol=1e-12)

    def test_slot_total_never_exceeds_cap(self):
        rng = np.random.default_rng(1)
        mem = make_memory(d=6, slot_cap=5, tau_working=0.999)
        new_slots = 0
        batches = [[make_region(f"r{i}", f"i{i}", rng.standard_normal(6) * 3)] for i in range(40)]
        for rows in attach(mem, *batches):
            decisions = mem.process_image(rows)
            new_slots += sum(1 for d in decisions if d.kind is DecisionKind.NEW_SLOT)
            assert mem.total_slots <= 5
        assert mem.rejected_count == 40 - new_slots


class TestCheckpoint:
    def test_reload_reproduces_decisions(self, tmp_path):
        rng = np.random.default_rng(3)
        mem = make_memory(d=6, min_images_per_slot=2, priors={
            "cat": [make_region("p0", "ip", np.array([8.0, 0, 0, 0, 0, 0]))],
        })
        batches = [[make_region(f"r{i}", f"i{i}", rng.standard_normal(6) * 3)] for i in range(20)]
        for rows in attach(mem, *batches):
            mem.process_image(rows)
        consolidate(mem)
        assert len(mem.semantic) > 1
        path = tmp_path / "checkpoint.bin"
        mem.save_checkpoint(path)
        twin = DualMemory.load_checkpoint(path, mem.config)

        assert [(s.slot_id, s.label, s.members) for s in twin.semantic] == [
            (s.slot_id, s.label, s.members) for s in mem.semantic
        ]
        assert (twin.next_slot_id, twin.rejected_count) == (mem.next_slot_id, mem.rejected_count)
        probe_batches = [
            [make_region(f"q{i}", f"qi{i}", rng.standard_normal(6) * 3)] for i in range(10)
        ]
        probe_rows = attach(mem, *probe_batches)
        twin.attach(mem.corpus)
        for rows in probe_rows:
            assert mem.process_image(rows) == twin.process_image(rows)
        for a, b in zip(mem.semantic, twin.semantic):
            np.testing.assert_array_equal(a.mean, b.mean)
            np.testing.assert_array_equal(a.white, b.white)
        assert mem.working
        for a, b in zip(mem.working, twin.working):
            np.testing.assert_array_equal(a.centroid, b.centroid)
            assert a.rows == b.rows

    def test_refuses_working_slots_and_writes_nothing(self, tmp_path):
        mem = make_memory(d=4)
        process(mem, [make_region("r0", "i0", [0.0, 0.0, 6.0, 0.0])])
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
            DualMemory.load_checkpoint(path, other)

    def test_truncated_checkpoint_is_a_value_error_at_every_offset(self, tmp_path):
        rng = np.random.default_rng(5)
        mem = make_memory(d=3, min_images_per_slot=1, priors={"cat": [make_region("p0", "ip", np.array([8.0, 0, 0]))]})
        batches = [[make_region(f"r{i}", f"i{i}", rng.standard_normal(3) * 3)] for i in range(6)]
        for rows in attach(mem, *batches):
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
                DualMemory.load_checkpoint(cut, mem.config)


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
    mem = DualMemory.initialize(bg, config, {label: table_of(regions) for label, regions in priors.items()})
    # Where each prior slot's score crosses zero on the segment from the background mean to its class.
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
    table = table_of([region for batch in corpus.values() for region in batch])
    mem.attach(table, whiten(table.features, bg))
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
    assert [(s.slot_id, s.count, s.members) for s in mem.semantic] == [
        (s[0], s[2], s[3]) for s in ref.semantic
    ]
    for slot, (_, mean, _, _) in zip(mem.semantic, ref.semantic):
        np.testing.assert_array_equal(slot.mean, mean)
