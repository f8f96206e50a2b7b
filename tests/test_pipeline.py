import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dualmem.pipeline
from dualmem.config import Config
from dualmem.corpus import DatasetSplit, ingest_corpus, ingest_features, open_corpus, split_dataset
from dualmem.evaluation import iou, load_gt
from dualmem.memory import DecisionKind, DualMemory, RetrievalDecision
from dualmem.pipeline import (
    RoundState,
    build_priors,
    estimate_background,
    final_assignments,
    run_discovery,
    run_discovery_round,
)
from dualmem.records import BoundingBox
from dualmem.reporting import UNASSIGNED
from dualmem.stats import BackgroundStats, MomentAccumulator, whiten
from dualmem.synth import KNOWN_PRIOR_SCORE, SynthSpec, generate

from conftest import GtBox, batches_of, gt_table_of, identity_bg, make_region, records_of, table_of


@pytest.fixture(scope="module")
def synth_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    spec = SynthSpec(
        d=8, n_known=2, n_unknown=3, images=60, n_background_per_image=1,
        classes_per_image=2, regions_per_class_per_image=1, separation=8.0, std=1.0, seed=3,
    )
    paths = generate(spec, out)
    config = Config(d=8, min_images_per_slot=3, rounds=2, rng_seed=11)
    corpus = ingest_corpus(paths["corpus"], config)
    bg = estimate_background(corpus, config)
    return spec, paths, config, corpus, bg


def toy_corpus(d=4):
    """Ten images, one novel concept repeated in the first three.

    Background regions dominate so the novel direction's variance stays small
    and its slot classifier clears the log-prior penalty.
    """
    rng = np.random.default_rng(0)
    novel = np.array([0.0, 0.0, 9.0, 0.0])
    regions = []
    for i in range(10):
        regions += [
            make_region(f"bg{i}_{j}", f"img{i}", rng.standard_normal(d) * 0.5)
            for j in range(2)
        ]
        if i < 3:
            regions.append(make_region(f"nv{i}", f"img{i}", novel + 0.01 * i))
    return table_of(regions)


def toy_split():
    """Novel images 0 and 1 stream in phase A; novel image 2 waits for mining.

    Image ``img<i>`` sits at position i of ``toy_corpus``.
    """
    return DatasetSplit(d1=[0, 1, 3, 4, 5], d2=[2, 6, 7, 8, 9])


class TestBackgroundEstimation:
    def test_matches_batch_oracle(self):
        corpus = toy_corpus()
        config = Config(d=4)
        bg = estimate_background(corpus, config)
        X = np.stack([r.feature for batch in batches_of(corpus) for r in batch])
        np.testing.assert_allclose(bg.mean, X.mean(axis=0), atol=1e-12)
        centered = X - X.mean(axis=0)
        expected = centered.T @ centered / len(X) + config.ridge_lambda * np.eye(4)
        np.testing.assert_allclose(bg.covariance, expected, atol=1e-10)

    def test_worker_schedules_agree(self):
        corpus = toy_corpus()
        config = Config(d=4)
        serial = estimate_background(corpus, config, workers=1)
        chunked = estimate_background(corpus, config, workers=3)
        assert np.linalg.norm(serial.mean - chunked.mean) < 1e-9
        assert np.linalg.norm(serial.covariance - chunked.covariance) < 1e-9

    def test_fewer_than_one_worker_is_refused(self):
        with pytest.raises(ValueError, match="^workers must be >= 1, got 0$"):
            estimate_background(toy_corpus(), Config(d=4), workers=0)

    def test_parts_beyond_the_image_count_are_not_visited(self, monkeypatch):
        """A part past the last image is empty; skipping it leaves every byte of the moments as they were."""
        corpus = toy_corpus()
        config = Config(d=4)
        one_part_each = estimate_background(corpus, config, workers=len(corpus.image_ids))
        batches = []
        add_batch = MomentAccumulator.add_batch
        monkeypatch.setattr(MomentAccumulator, "add_batch", lambda acc, xs: batches.append(len(xs)) or add_batch(acc, xs))
        many = estimate_background(corpus, config, workers=10**5)
        assert len(batches) == len(corpus.image_ids) and 0 not in batches
        assert many.mean.tobytes() == one_part_each.mean.tobytes()
        assert many.covariance.tobytes() == one_part_each.covariance.tobytes()
        assert many.count == one_part_each.count


class TestPriors:
    def test_null_mode(self):
        assert build_priors(Config(d=4, init_mode="null")) == {}

    def test_det_scores_filters_by_score_and_label(self):
        config = Config(d=4, init_mode="det_scores")
        records = [
            make_region("p0", "i0", [1.0, 0, 0, 0], score=0.95, gt_label="cat"),
            make_region("p1", "i0", [1.0, 0, 0, 0], score=0.5, gt_label="cat"),
            make_region("p2", "i0", [1.0, 0, 0, 0], score=0.95, gt_label=None),
        ]
        priors = build_priors(config, detections=table_of(records))
        assert list(priors) == ["cat"]
        assert [r.region_id for r in records_of(priors["cat"])] == ["p0"]

    def test_det_scores_excludes_a_score_equal_to_the_threshold(self):
        """A detection is a prior only when its score exceeds semantic_prior_score, not when it equals it."""
        detections = table_of([make_region("p0", "i0", [1.0, 0, 0, 0], score=KNOWN_PRIOR_SCORE, gt_label="cat")])
        at, below = KNOWN_PRIOR_SCORE, float(np.nextafter(KNOWN_PRIOR_SCORE, 0.0))
        assert build_priors(Config(d=4, init_mode="det_scores", semantic_prior_score=at), detections=detections) == {}
        priors = build_priors(Config(d=4, init_mode="det_scores", semantic_prior_score=below), detections=detections)
        assert list(priors) == ["cat"]

    def test_det_scores_requires_file(self):
        with pytest.raises(ValueError, match="prior detections"):
            build_priors(Config(d=4, init_mode="det_scores"))

    def test_gt_overlap_requires_the_corpus_and_ground_truth(self, synth_run):
        _, paths, _, corpus, _ = synth_run
        config = Config(d=8, init_mode="gt_overlap")
        for inputs in ({"corpus": corpus}, {"gt": load_gt(paths["gt"])}):
            with pytest.raises(ValueError, match="^init_mode=gt_overlap requires the corpus and ground truth$"):
                build_priors(config, **inputs)

    def test_an_init_mode_assigned_after_construction_is_refused(self):
        """``Config`` refuses an unknown mode when built; a mode assigned later reaches ``build_priors`` unchecked."""
        config = Config(d=4)
        config.init_mode = "oracle"
        with pytest.raises(ValueError, match="^unknown init_mode 'oracle'$"):
            build_priors(config)

    def test_det_scores_priors_are_normalized_like_the_corpus(self, synth_run):
        """Under l2_normalize a prior slot's whitened mean is ``whiten`` of the mean of its normalized features."""
        _, paths, _, _, _ = synth_run
        config = Config(d=8, min_images_per_slot=3, rounds=2, rng_seed=11, l2_normalize=True)
        corpus = ingest_corpus(paths["corpus"], config)
        assert np.allclose(np.linalg.norm(corpus.features, axis=1), 1.0, rtol=0, atol=1e-12)
        bg = estimate_background(corpus, config)
        detections = ingest_features(paths["priors"], config)
        mem = DualMemory.initialize(bg, config, corpus, build_priors(config, detections=detections))
        raw = open_corpus(paths["priors"])
        labels = ["known_00", "known_01"]
        assert [s.label for s in mem.semantic] == labels
        means, raw_means = [], []
        for label in labels:
            feats = raw.features[[label == name for name in raw.gt_labels] & (raw.scores > config.semantic_prior_score)]
            means.append((feats / np.array([np.linalg.norm(f) for f in feats])[:, None]).mean(axis=0))
            raw_means.append(feats.mean(axis=0))
        np.testing.assert_array_equal(np.stack([s.white for s in mem.semantic]), whiten(np.stack(means), bg))
        assert not np.allclose(np.stack([s.white for s in mem.semantic]), whiten(np.stack(raw_means), bg))

    def test_gt_overlap_matches_known_boxes(self, synth_run):
        spec, paths, config, corpus, bg = synth_run
        gt = load_gt(paths["gt"])
        priors = build_priors(
            Config(d=8, init_mode="gt_overlap"), corpus=corpus, gt=gt
        )
        assert set(priors) == {"known_00", "known_01"}
        for label, regions in priors.items():
            assert all(r.gt_label == label for r in records_of(regions))


    def test_gt_overlap_matches_a_scalar_loop_on_random_boxes(self):
        rng = np.random.default_rng(4)

        def random_box():
            x, y = rng.integers(0, 3, 2) * 0.5
            w, h = rng.integers(2, 5, 2) * 0.5
            return BoundingBox(float(x), float(y), float(x + w), float(y + h))

        images = [f"i{i}" for i in range(30)]
        gt = [
            GtBox(str(rng.choice(images)), random_box(), str(rng.choice(["a", "b", "c"])),
                           bool(rng.random() < 0.7))
            for _ in range(90)
        ]
        corpus = {
            image: [make_region(f"{image}_r{j}", image, [0.0], box=random_box()) for j in range(6)]
            for image in images + ["no_gt"]
        }
        expected: dict[str, list[str]] = {}
        for batch in corpus.values():
            for region in batch:
                best_iou, best_class = 0.0, None
                for g in gt:
                    if g.known_flag and g.image_id == region.image_id:
                        value = iou(region.box, g.box)
                        if value > best_iou:
                            best_iou, best_class = value, g.class_name
                if best_class is not None and best_iou > 0.5:
                    expected.setdefault(best_class, []).append(region.region_id)
        table = table_of([region for batch in corpus.values() for region in batch])
        priors = build_priors(Config(d=1, init_mode="gt_overlap"), corpus=table, gt=gt_table_of(gt))
        assert sum(len(v) for v in expected.values()) > 20
        assert {c: [r.region_id for r in records_of(rs)] for c, rs in priors.items()} == expected
        assert list(priors) == list(expected)


class TestRound:
    def test_empty_corpus_round(self):
        config = Config(d=4, init_mode="null", min_images_per_slot=1)
        mem = DualMemory.initialize(identity_bg(4), config, table_of([], 4), None)
        state = RoundState(round_index=1, mem=mem, split=DatasetSplit(d1=[], d2=[]))
        record = run_discovery_round(state)
        assert state.round_index == 2
        assert state.active == "d2"
        assert record.slots_transferred == 0

    def test_phase_c_mines_into_new_slot(self):
        corpus = toy_corpus()
        config = Config(d=4, init_mode="null", min_images_per_slot=2, rng_seed=5)
        bg = estimate_background(corpus, config)
        mem = DualMemory.initialize(bg, config, corpus, None)
        state = RoundState(round_index=1, mem=mem, split=toy_split())
        record = run_discovery_round(state)
        assert record.slots_transferred >= 1
        members = {s.slot_id: [corpus.region_ids[row] for row in s.rows] for s in mem.semantic}
        novel_slots = [s for s in mem.semantic if any(r.startswith("nv") for r in members[s.slot_id])]
        assert novel_slots and novel_slots[0].label.startswith("disc_1_")
        slot = novel_slots[0]
        assert "nv2" in members[slot.slot_id], "phase C should mine the held-out novel instance"
        assert state.rounds[1].mined >= 1
        assert slot.count == len(slot.rows)

    def test_phase_c_never_touches_working_memory(self):
        corpus = toy_corpus()
        config = Config(d=4, init_mode="null", min_images_per_slot=2, rng_seed=5)
        bg = estimate_background(corpus, config)
        mem = DualMemory.initialize(bg, config, corpus, None)
        state = RoundState(round_index=1, mem=mem, split=toy_split())
        run_discovery_round(state)
        assert mem.working == []

    def test_counters_consistent(self):
        corpus = toy_corpus()
        config = Config(d=4, init_mode="null", min_images_per_slot=2, rng_seed=5)
        bg = estimate_background(corpus, config)
        mem = DualMemory.initialize(bg, config, corpus, None)
        state = RoundState(round_index=1, mem=mem, split=toy_split())
        run_discovery_round(state)
        c = state.rounds[1]
        accepted = c.known_match + c.working_match + c.new_slot
        assert accepted + c.rejected == c.regions


class TestExternalPriors:
    """A prior whose region id the corpus lacks is an external member: it counts, and it labels no region."""

    @staticmethod
    def memory():
        corpus = table_of([make_region("r0", "i0", [0, 0, 3.0, 0]), make_region("p0", "i1", [2.0, 0, 0, 0])])
        priors = {"cat": table_of([make_region("p0", "ip", [2.0, 0, 0, 0]), make_region("gone", "ip", [0, 2.0, 0, 0])])}
        return DualMemory.initialize(identity_bg(4, count=10), Config(d=4, init_mode="det_scores"), corpus, priors)

    def test_an_external_prior_counts_in_the_count_and_the_offset(self):
        mem = self.memory()
        slot = mem.semantic[0]
        assert (slot.rows, slot.external, slot.count) == ([1], 1, 2)
        np.testing.assert_array_equal(slot.mean, [1.0, 1.0, 0, 0])
        assert slot.offset == float(np.log(2 / 10) - 0.5 * (slot.white @ slot.white))
        mem.apply_decision(RetrievalDecision(DecisionKind.KNOWN_MATCH, slot.slot_id, 0.0), 0)
        assert (slot.rows, slot.external, slot.count) == ([1, 0], 1, 3)
        np.testing.assert_allclose(slot.mean, [2 / 3, 2 / 3, 1.0, 0], rtol=0, atol=1e-15)

    def test_an_external_prior_labels_no_region(self):
        assert final_assignments(self.memory()) == [UNASSIGNED, "cat"]

    def test_an_external_prior_survives_a_checkpoint_round_trip(self, tmp_path):
        mem = self.memory()
        mem.save_checkpoint(tmp_path / "checkpoint.bin")
        twin = DualMemory.load_checkpoint(tmp_path / "checkpoint.bin", mem.bg, mem.config, mem.corpus)
        assert [(s.label, s.rows, s.external, s.white.tobytes(), s.offset) for s in twin.semantic] == [
            (s.label, s.rows, s.external, s.white.tobytes(), s.offset) for s in mem.semantic
        ]


class TestRunDiscovery:
    def test_round_count_and_alternation(self, synth_run, tmp_path):
        spec, paths, config, corpus, bg = synth_run
        priors = build_priors(config, detections=_prior_records(paths))
        run = run_discovery(corpus, bg, config, priors, out_dir=tmp_path / "run")
        assert len(run.consolidations) == config.rounds == 2
        assert run.stats["round_1_active"] == "d1"
        assert run.stats["round_2_active"] == "d2"
        assert (tmp_path / "run" / "round_1" / "consolidation.log").exists()
        assert (tmp_path / "run" / "round_2" / "checkpoint.bin").exists()
        assert (tmp_path / "run" / "assignments.tsv").exists()
        assert (tmp_path / "run" / "stats.txt").exists()

    def test_single_round_single_consolidation(self, synth_run, tmp_path):
        spec, paths, config, corpus, bg = synth_run
        one_round = Config(d=8, min_images_per_slot=3, rounds=1, rng_seed=11)
        priors = build_priors(one_round, detections=_prior_records(paths))
        run = run_discovery(corpus, bg, one_round, priors, out_dir=tmp_path / "run")
        assert len(run.consolidations) == 1
        assert (tmp_path / "run" / "round_1" / "consolidation.log").exists()
        assert not (tmp_path / "run" / "round_2").exists()

    def test_assignments_cover_every_region(self, synth_run):
        spec, paths, config, corpus, bg = synth_run
        priors = build_priors(config, detections=_prior_records(paths))
        run = run_discovery(corpus, bg, config, priors)
        all_regions = {r.region_id for batch in batches_of(corpus) for r in batch}
        by_id = dict(zip(corpus.region_ids, run.assignments, strict=True))
        assert set(by_id) == all_regions
        labels = {s.label for s in run.mem.semantic}
        for value in by_id.values():
            assert value == "unassigned" or value in labels

    def test_unknown_classes_get_discovered(self, synth_run):
        spec, paths, config, corpus, bg = synth_run
        priors = build_priors(config, detections=_prior_records(paths))
        run = run_discovery(corpus, bg, config, priors)
        discovered = [s for s in run.mem.semantic if s.label.startswith("disc_")]
        assert discovered
        gt = load_gt(paths["gt"])
        from dualmem.evaluation import clusters_from_assignments, count_discovered

        clusters = clusters_from_assignments(run.assignments)
        n = count_discovered(clusters, corpus, gt, 0.5, min_images=config.min_images_per_slot)
        assert n >= 2

    def test_byte_identical_reruns(self, synth_run, tmp_path):
        spec, paths, config, corpus, bg = synth_run
        priors = build_priors(config, detections=_prior_records(paths))
        run_discovery(corpus, bg, config, priors, out_dir=tmp_path / "r1")
        run_discovery(corpus, bg, config, priors, out_dir=tmp_path / "r2")
        for name in ("assignments.tsv", "stats.txt", "config.txt"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()

    def test_a_second_run_into_the_same_directory_fails_loudly(self, synth_run, tmp_path):
        """Two runs never share a directory: the second run stops before it writes anything."""
        spec, paths, config, corpus, bg = synth_run
        priors = build_priors(config, detections=_prior_records(paths))
        run_discovery(corpus, bg, config, priors, out_dir=tmp_path / "run")
        first = {name: (tmp_path / "run" / name).read_bytes() for name in ("config.txt", "bg.bin")}
        three_rounds = Config(d=8, min_images_per_slot=3, rounds=3, rng_seed=11)
        with pytest.raises(FileExistsError):
            run_discovery(corpus, identity_bg(8), three_rounds, priors, out_dir=tmp_path / "run")
        assert sorted(path.name for path in (tmp_path / "run").glob("round_*")) == ["round_1", "round_2"]
        assert {name: (tmp_path / "run" / name).read_bytes() for name in first} == first

    def test_checkpoint_reload_continues_identically(self, synth_run, tmp_path):
        """Round 1's checkpoint, resumed for the remaining rounds, ends where the straight run ends."""
        spec, paths, config, corpus, bg = synth_run
        priors = build_priors(config, detections=_prior_records(paths))
        run = tmp_path / "run"
        straight = run_discovery(corpus, bg, config, priors, out_dir=run)
        saved_bg = BackgroundStats.load(run / "bg.bin")
        reloaded = DualMemory.load_checkpoint(run / "round_1" / "checkpoint.bin", saved_bg, config, corpus)
        state = RoundState(2, reloaded, split_dataset(list(corpus.image_ids), config.rng_seed))
        while state.round_index <= config.rounds:
            run_discovery_round(state)
        assert final_assignments(reloaded) == straight.assignments
        assert reloaded.rejected_count == straight.mem.rejected_count
        assert [(s.slot_id, s.label, s.rows, s.external) for s in reloaded.semantic] == [
            (s.slot_id, s.label, s.rows, s.external) for s in straight.mem.semantic
        ]
        assert any(s.label.startswith("disc_2_") for s in reloaded.semantic)
        for a, b in zip(reloaded.semantic, straight.mem.semantic):
            assert a.mean.tobytes() == b.mean.tobytes()


def _prior_records(paths):
    from dualmem.corpus import open_corpus

    return open_corpus(paths["priors"])


def record_semantic_ids(patch):
    """The semantic slot ids after each consolidation the pipeline runs, one list per round, until ``patch`` undoes."""
    seen = []
    consolidate = dualmem.pipeline.consolidate

    def recording(mem, round_index=1):
        record = consolidate(mem, round_index=round_index)
        seen.append([slot.slot_id for slot in mem.semantic])
        return record

    patch.setattr(dualmem.pipeline, "consolidate", recording)
    return seen


def strictly_ascend(ids):
    return all(a < b for a, b in zip(ids, ids[1:]))


@pytest.mark.parametrize("case", ["frozen", "gt_overlap", "semantic"])
def test_semantic_ids_ascend_after_every_round_of_the_golden_walkthroughs(case, monkeypatch, tmp_path):
    """Consolidation appends slots in slot_id order, each id above every semantic one, so nothing re-sorts them."""
    from test_golden import CASES, walkthrough

    semantic_ids = record_semantic_ids(monkeypatch)
    walkthrough(tmp_path, *CASES[case])
    assert len(semantic_ids) == CASES[case][1].rounds
    assert all(strictly_ascend(ids) for ids in semantic_ids), semantic_ids


@given(
    seed=st.integers(0, 2**16), images=st.integers(4, 40), background=st.integers(0, 3),
    rounds=st.integers(1, 3), slot_cap=st.integers(2, 60), min_images=st.integers(1, 3),
    mode=st.sampled_from(["naive", "merge", "merge_refine"]), init_mode=st.sampled_from(["null", "det_scores"]),
    tau_working=st.sampled_from([0.0, 0.5, 0.9]),
)
@settings(max_examples=25, deadline=None)
def test_semantic_ids_ascend_after_every_round_of_a_drawn_run(
    seed, images, background, rounds, slot_cap, min_images, mode, init_mode, tau_working,
):
    spec = SynthSpec(
        d=6, n_known=2, n_unknown=3, images=images, n_background_per_image=background, classes_per_image=2,
        separation=6.0, seed=seed,
    )
    config = Config(
        d=6, rounds=rounds, slot_cap=slot_cap, min_images_per_slot=min_images, consolidation_mode=mode,
        init_mode=init_mode, tau_working=tau_working, rng_seed=seed,
    )
    with tempfile.TemporaryDirectory() as out, pytest.MonkeyPatch.context() as patch:
        paths = generate(spec, out)
        corpus = ingest_corpus(paths["corpus"], config)
        priors = build_priors(config, detections=ingest_features(paths["priors"], config)) if init_mode != "null" else {}
        seen = record_semantic_ids(patch)
        run = run_discovery(corpus, estimate_background(corpus, config), config, priors)
    assert len(seen) == rounds and seen[-1] == [slot.slot_id for slot in run.mem.semantic]
    assert all(strictly_ascend(ids) for ids in seen), seen
