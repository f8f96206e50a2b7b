import numpy as np
import pytest

from dualmem.config import Config
from dualmem.corpus import ingest_corpus, split_dataset
from dualmem.evaluation import iou, load_gt
from dualmem.memory import DualMemory
from dualmem.pipeline import (
    RoundState,
    build_priors,
    estimate_background,
    final_assignments,
    run_discovery,
    run_discovery_round,
)
from dualmem.records import BoundingBox
from dualmem.synth import SynthSpec, generate

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
    """Novel images 0 and 1 stream in phase A; novel image 2 waits for mining."""
    from dualmem.corpus import DatasetSplit

    return DatasetSplit(
        d1=["img0", "img1", "img3", "img4", "img5"],
        d2=["img2", "img6", "img7", "img8", "img9"],
    )


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

    def test_det_scores_requires_file(self):
        with pytest.raises(ValueError, match="prior detections"):
            build_priors(Config(d=4, init_mode="det_scores"))

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
        mem = DualMemory.initialize(identity_bg(4), config, None)
        state = RoundState(round_index=1, active="d1", mem=mem)
        split = split_dataset(["img0", "img1"], seed=0)
        record = run_discovery_round(state, table_of([], 4), split)
        assert state.round_index == 2
        assert state.active == "d2"
        assert record.slots_transferred == 0

    def test_phase_c_mines_into_new_slot(self):
        corpus = toy_corpus()
        config = Config(d=4, init_mode="null", min_images_per_slot=2, rng_seed=5)
        bg = estimate_background(corpus, config)
        mem = DualMemory.initialize(bg, config, None)
        split = toy_split()
        state = RoundState(round_index=1, active="d1", mem=mem)
        record = run_discovery_round(state, corpus, split)
        assert record.slots_transferred >= 1
        novel_slots = [s for s in mem.semantic if any(r.startswith("nv") for r in s.members)]
        assert novel_slots and novel_slots[0].label.startswith("disc_1_")
        slot = novel_slots[0]
        assert "nv2" in slot.members, "phase C should mine the held-out novel instance"
        assert state.rounds[1].mined >= 1
        assert slot.count == len(slot.members)

    def test_phase_c_never_touches_working_memory(self):
        corpus = toy_corpus()
        config = Config(d=4, init_mode="null", min_images_per_slot=2, rng_seed=5)
        bg = estimate_background(corpus, config)
        mem = DualMemory.initialize(bg, config, None)
        state = RoundState(round_index=1, active="d1", mem=mem)
        run_discovery_round(state, corpus, toy_split())
        assert mem.working == []

    def test_counters_consistent(self):
        corpus = toy_corpus()
        config = Config(d=4, init_mode="null", min_images_per_slot=2, rng_seed=5)
        bg = estimate_background(corpus, config)
        mem = DualMemory.initialize(bg, config, None)
        state = RoundState(round_index=1, active="d1", mem=mem)
        run_discovery_round(state, corpus, toy_split())
        c = state.rounds[1]
        accepted = c.known_match + c.working_match + c.new_slot
        assert accepted + c.rejected == c.regions


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
        assert set(run.assignments) == all_regions
        labels = {s.label for s in run.mem.semantic}
        for value in run.assignments.values():
            assert value == "unassigned" or value in labels

    def test_unknown_classes_get_discovered(self, synth_run):
        spec, paths, config, corpus, bg = synth_run
        priors = build_priors(config, detections=_prior_records(paths))
        run = run_discovery(corpus, bg, config, priors)
        discovered = [s for s in run.mem.semantic if s.label.startswith("disc_")]
        assert discovered
        gt = load_gt(paths["gt"])
        from dualmem.evaluation import clusters_from_assignments, count_discovered

        clusters = clusters_from_assignments(run.assignments, corpus)
        n = count_discovered(clusters, corpus, gt, 0.5, min_images=config.min_images_per_slot)
        assert n >= 2

    def test_byte_identical_reruns(self, synth_run, tmp_path):
        spec, paths, config, corpus, bg = synth_run
        priors = build_priors(config, detections=_prior_records(paths))
        run_discovery(corpus, bg, config, priors, out_dir=tmp_path / "r1")
        run_discovery(corpus, bg, config, priors, out_dir=tmp_path / "r2")
        for name in ("assignments.tsv", "stats.txt", "config.txt"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()

    def test_checkpoint_reload_continues_identically(self, synth_run, tmp_path):
        """Round 1's checkpoint, resumed for the remaining rounds, ends where the straight run ends."""
        spec, paths, config, corpus, bg = synth_run
        priors = build_priors(config, detections=_prior_records(paths))
        straight = run_discovery(corpus, bg, config, priors, out_dir=tmp_path / "run")
        reloaded = DualMemory.load_checkpoint(tmp_path / "run" / "round_1" / "checkpoint.bin", config)
        state = RoundState(2, "d2", reloaded)
        split = split_dataset(list(corpus.image_ids), config.rng_seed)
        while state.round_index <= config.rounds:
            run_discovery_round(state, corpus, split)
        assert final_assignments(reloaded, corpus) == straight.assignments
        assert reloaded.rejected_count == straight.mem.rejected_count
        assert [(s.slot_id, s.label, s.members) for s in reloaded.semantic] == [
            (s.slot_id, s.label, s.members) for s in straight.mem.semantic
        ]
        assert any(s.label.startswith("disc_2_") for s in reloaded.semantic)
        for a, b in zip(reloaded.semantic, straight.mem.semantic):
            assert a.mean.tobytes() == b.mean.tobytes()


def _prior_records(paths):
    from dualmem.corpus import open_corpus

    return open_corpus(paths["priors"])
