import hashlib
import json
from pathlib import Path
from typing import Iterable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualmem.cli import main
from dualmem.config import Config
from dualmem.corpus import JSONL_VERSION, convert_corpus, ingest_corpus, open_corpus
from dualmem.evaluation import load_gt
from dualmem.records import BoundingBox, RegionTable
from dualmem.synth import (
    DEFAULT_SCORE, KNOWN_PRIOR_SCORE, SynthSpec, _noise_scale, class_means, class_names, generate, kmeans_baseline,
    load_spec, save_spec,
)

from conftest import GtBox, batches_of, boxes_of, make_region, records_of, table_of


def small_spec(**kwargs):
    base = dict(
        d=8,
        n_known=2,
        n_unknown=3,
        images=20,
        n_background_per_image=1,
        classes_per_image=2,
        regions_per_class_per_image=1,
        separation=8.0,
        std=1.0,
        seed=7,
    )
    base.update(kwargs)
    return SynthSpec(**base)


class TestSpec:
    def test_roundtrip(self, tmp_path):
        spec = small_spec(separation=9.5)
        save_spec(spec, tmp_path / "spec.txt")
        assert load_spec(tmp_path / "spec.txt") == spec

    def test_override(self, tmp_path):
        """``gen --seed`` replaces the spec file's seed."""
        save_spec(small_spec(), tmp_path / "spec.txt")
        assert main(["gen", "--spec", str(tmp_path / "spec.txt"), "--seed", "99", "--out", str(tmp_path / "gen")]) == 0
        assert json.loads((tmp_path / "gen" / "manifest.json").read_text())["params"]["seed"] == 99
        for path in generate(small_spec(seed=99), tmp_path / "seed99").values():
            assert (tmp_path / "gen" / path.name).read_bytes() == path.read_bytes()

    def test_infeasible_separation(self):
        with pytest.raises(ValueError, match="cannot separate"):
            small_spec(d=4, n_known=3, n_unknown=3)

    def test_unknown_key(self, tmp_path):
        (tmp_path / "spec.txt").write_text("d = 4\nwat = 1\n")
        with pytest.raises(ValueError, match="wat"):
            load_spec(tmp_path / "spec.txt")


class TestGenerate:
    def test_deterministic_bytes(self, tmp_path):
        spec = small_spec()
        paths_a = generate(spec, tmp_path / "a")
        paths_b = generate(spec, tmp_path / "b")
        for key in paths_a:
            assert paths_a[key].read_bytes() == paths_b[key].read_bytes()

    def test_all_records_pass_ingestion(self, tmp_path):
        spec = small_spec()
        paths = generate(spec, tmp_path)
        batches = batches_of(ingest_corpus(paths["corpus"], Config(d=spec.d)))
        assert len(batches) == spec.images
        total = sum(len(b) for b in batches)
        expected = spec.images * (
            spec.classes_per_image * spec.regions_per_class_per_image
            + spec.n_background_per_image
        )
        assert total == expected

    def test_no_unknowns_means_known_labels_only(self, tmp_path):
        spec = small_spec(n_unknown=0, classes_per_image=2)
        paths = generate(spec, tmp_path)
        for record in records_of(open_corpus(paths["corpus"])):
            assert record.gt_label is None or record.gt_label.startswith("known_")

    def test_prior_records_are_high_score_known(self, tmp_path):
        spec = small_spec()
        paths = generate(spec, tmp_path)
        priors = records_of(open_corpus(paths["priors"]))
        assert priors
        assert all(r.score == KNOWN_PRIOR_SCORE and r.gt_label.startswith("known_") for r in priors)
        corpus_scores = {r.region_id: r.score for r in records_of(open_corpus(paths["corpus"]))}
        assert all(corpus_scores[r.region_id] == KNOWN_PRIOR_SCORE for r in priors)

    def test_generated_corpus_converts_to_binary_and_back(self, tmp_path):
        paths = generate(small_spec(), tmp_path)
        convert_corpus(paths["corpus"], tmp_path / "corpus.dmrf")
        convert_corpus(tmp_path / "corpus.dmrf", tmp_path / "back.jsonl")
        assert (tmp_path / "back.jsonl").read_bytes() == paths["corpus"].read_bytes()

    def test_class_regions_sit_on_their_gt_box(self, tmp_path):
        spec = small_spec()
        paths = generate(spec, tmp_path)
        gt = load_gt(paths["gt"])
        gt_index = {(g.image_id, g.class_name): g.box for g in boxes_of(gt)}
        for record in records_of(open_corpus(paths["corpus"])):
            if record.gt_label is not None:
                assert record.box == gt_index[(record.image_id, record.gt_label)]

    def test_background_boxes_disjoint_from_gt(self, tmp_path):
        from dualmem.evaluation import iou

        spec = small_spec()
        paths = generate(spec, tmp_path)
        gt = load_gt(paths["gt"])
        by_image = {}
        for g in boxes_of(gt):
            by_image.setdefault(g.image_id, []).append(g.box)
        for record in records_of(open_corpus(paths["corpus"])):
            if record.gt_label is None:
                assert all(iou(record.box, b) == 0.0 for b in by_image[record.image_id])

    def test_class_balance_is_exact(self, tmp_path):
        spec = small_spec(images=30, classes_per_image=1)
        paths = generate(spec, tmp_path)
        counts = {}
        for record in records_of(open_corpus(paths["corpus"])):
            if record.gt_label:
                counts[record.gt_label] = counts.get(record.gt_label, 0) + 1
        # 30 images round-robin over 5 classes: exactly 6 appearances each.
        assert set(counts.values()) == {6}

    def test_nearest_mean_oracle_accuracy(self, tmp_path):
        spec = small_spec(
            d=16, n_known=4, n_unknown=4, images=2500, classes_per_image=4,
            regions_per_class_per_image=10, n_background_per_image=0, separation=8.0,
        )
        paths = generate(spec, tmp_path)
        means = class_means(spec)
        names = [f"known_{i:02d}" for i in range(4)] + [f"unknown_{i:02d}" for i in range(4)]
        index = {name: i for i, name in enumerate(names)}
        table = open_corpus(paths["corpus"])
        X = table.features
        labels = [index[label] for label in table.gt_labels]
        assert len(X) == 100_000
        d2 = ((X[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        predicted = d2.argmin(axis=1)
        accuracy = float(np.mean(predicted == np.asarray(labels)))
        assert accuracy >= 0.999


# ---------------------------------------------------------------------------
# The generator against the record-at-a-time generator it replaced
# ---------------------------------------------------------------------------

def _cell_box(index: int) -> BoundingBox:
    return BoundingBox(2.0 * index, 0.0, 2.0 * index + 1.0, 1.0)


def _f32(values: np.ndarray) -> np.ndarray:
    return values.astype(np.float32).astype(np.float64)


def reference_write_corpus_jsonl(path: str | Path, d: int, table: RegionTable) -> None:
    """One ``json.dumps`` per record, as the corpus writer encoded lines before it kept one encoder."""
    rows = zip(
        table.region_ids, table.image_of(), table.boxes.tolist(), table.scores.tolist(),
        table.features.tolist(), table.gt_labels,
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"d": d, "version": JSONL_VERSION}, separators=(",", ":")) + "\n")
        for region_id, image_id, box, score, feature, label in rows:
            payload = {
                "region_id": region_id, "image_id": image_id, "box": box,
                "score": score, "feature": feature, "gt_label": label,
            }
            fh.write(json.dumps(payload, separators=(",", ":")) + "\n")


def reference_write_gt(path: str | Path, boxes: Iterable[GtBox]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for gt in boxes:
            fh.write(
                json.dumps(
                    {
                        "image_id": gt.image_id,
                        "box": gt.box.as_list(),
                        "class_name": gt.class_name,
                        "known_flag": gt.known_flag,
                    },
                    separators=(",", ":"),
                )
                + "\n"
            )


def reference_generate(spec: SynthSpec, out_dir: str | Path) -> dict[str, Path]:
    """Write corpus, ground-truth, and prior files; byte-identical per spec.

    Every image draws from its own seed (spec seed xor image index), so any
    parallel generation schedule produces the same bytes.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = class_names(spec)
    means = class_means(spec)
    scale = _noise_scale(spec)
    n_classes = len(names)

    ids: list[str] = []
    image_ids: list[str] = []
    starts: list[int] = []
    boxes: list[list[float]] = []
    scores: list[float] = []
    features: list[np.ndarray] = []
    labels: list[str | None] = []
    gt_boxes: list[GtBox] = []
    prior_rows: list[int] = []

    def add(image_id: str, box: BoundingBox, score: float, feature: np.ndarray, label: str | None) -> None:
        ids.append(f"{image_id}_r{len(ids) - starts[-1]:03d}")
        boxes.append(box.as_list())
        scores.append(score)
        features.append(feature)
        labels.append(label)

    for t in range(spec.images):
        rng = np.random.default_rng(spec.seed ^ t)
        image_id = f"img_{t:06d}"
        image_ids.append(image_id)
        starts.append(len(ids))
        present = (
            [(t * spec.classes_per_image + j) % n_classes for j in range(spec.classes_per_image)]
            if n_classes
            else []
        )
        for cell, c in enumerate(present):
            box = _cell_box(cell)
            known = c < spec.n_known
            gt_boxes.append(
                GtBox(image_id=image_id, box=box, class_name=names[c], known_flag=known)
            )
            for _ in range(spec.regions_per_class_per_image):
                if known:
                    prior_rows.append(len(ids))
                feature = _f32(means[c] + rng.standard_normal(spec.d) * scale)
                add(image_id, box, KNOWN_PRIOR_SCORE if known else DEFAULT_SCORE, feature, names[c])
        for cell in range(len(present), len(present) + spec.n_background_per_image):
            add(image_id, _cell_box(cell), DEFAULT_SCORE, _f32(rng.standard_normal(spec.d) * scale), None)

    corpus = RegionTable(
        ids, image_ids, np.array(starts + [len(ids)]), np.array(boxes).reshape(-1, 4),
        np.array(scores), np.reshape(features, (len(ids), spec.d)), labels,
    )
    paths = {
        "corpus": out / "corpus.jsonl",
        "gt": out / "gt.jsonl",
        "priors": out / "priors.jsonl",
    }
    reference_write_corpus_jsonl(paths["corpus"], spec.d, corpus)
    reference_write_gt(paths["gt"], gt_boxes)
    reference_write_corpus_jsonl(paths["priors"], spec.d, corpus.take(prior_rows))
    return paths


@st.composite
def small_specs(draw):
    d = draw(st.integers(1, 8))
    n_known = draw(st.integers(0, d))
    n_unknown = draw(st.integers(0, d - n_known))
    n_classes = n_known + n_unknown
    return SynthSpec(
        d=d, n_known=n_known, n_unknown=n_unknown, images=draw(st.integers(1, 6)),
        n_background_per_image=draw(st.integers(0, 3)),
        # Unchecked, and unused, when there are no classes.
        classes_per_image=draw(st.integers(1, n_classes if n_classes else 3)),
        regions_per_class_per_image=draw(st.integers(1, 3)),
        separation=draw(st.sampled_from([0.5, 8.0, 12.0])), std=draw(st.sampled_from([0.3, 1.0, 2.5])),
        seed=draw(st.integers(0, 2**20)), anisotropy=draw(st.sampled_from([1.0, 0.25, 3.0])),
    )


@given(spec=small_specs())
@settings(max_examples=150, deadline=None)
def test_generate_writes_the_bytes_of_the_record_generator(tmp_path_factory, spec):
    root = tmp_path_factory.mktemp("gen")
    paths = generate(spec, root / "new")
    reference = reference_generate(spec, root / "reference")
    assert sorted(paths) == sorted(reference) == ["corpus", "gt", "priors"]
    for key in paths:
        assert paths[key].read_bytes() == reference[key].read_bytes(), key


def test_frozen_spec_files_keep_their_bytes(tmp_path):
    """The benchmark's ``frozen`` corpus at seed 20; every downstream reference hash starts here."""
    spec = SynthSpec(
        d=32, n_known=5, n_unknown=10, images=1000, n_background_per_image=3, classes_per_image=3,
        regions_per_class_per_image=2, separation=8.0, std=1.0, seed=20,
    )
    paths = generate(spec, tmp_path)
    assert {key: hashlib.sha256(path.read_bytes()).hexdigest() for key, path in paths.items()} == {
        "corpus": "c5a6d1808e5d22064583e3b4c09fbe8ebbef1e8f104a718dd4aac919a22cf332",
        "gt": "8f2168db45e960930cc6177839eff2ad1e565e54c159fe51e32b5cf579462660",
        "priors": "0a4c72677b2a74d92f753c138707befe945b99f5952295f400fba8b5a5c38d6b",
    }


class TestKmeans:
    def blob_regions(self, n_per=20, seed=0):
        rng = np.random.default_rng(seed)
        regions = []
        for c, center in enumerate([np.array([10.0, 0.0]), np.array([-10.0, 0.0])]):
            for i in range(n_per):
                regions.append(
                    make_region(f"r{c}_{i}", f"i{c}_{i}", center + rng.standard_normal(2) * 0.5)
                )
        return regions

    def test_two_blobs_recovered(self):
        regions = self.blob_regions()
        assignments, _, _ = kmeans_baseline(table_of(regions), k=2, seed=3)
        blob0 = {assignments[f"r0_{i}"] for i in range(20)}
        blob1 = {assignments[f"r1_{i}"] for i in range(20)}
        assert len(blob0) == 1 and len(blob1) == 1 and blob0 != blob1

    def test_k1_centroid_is_global_mean(self):
        regions = self.blob_regions()
        _, centers, _ = kmeans_baseline(table_of(regions), k=1, seed=0)
        X = np.stack([r.feature for r in regions])
        np.testing.assert_allclose(centers[0], X.mean(axis=0), atol=1e-12)

    def test_k_equals_n_distinct_points(self):
        regions = [make_region(f"r{i}", f"i{i}", [float(i), 0.0]) for i in range(6)]
        assignments, _, history = kmeans_baseline(table_of(regions), k=6, seed=1)
        assert len(set(assignments.values())) == 6
        assert history[-1] == pytest.approx(0.0, abs=1e-9)

    def test_inertia_never_increases(self):
        regions = self.blob_regions(n_per=40, seed=5)
        _, _, history = kmeans_baseline(table_of(regions), k=5, seed=9)
        assert all(history[i] >= history[i + 1] - 1e-9 for i in range(len(history) - 1))

    def test_k_exceeding_records_rejected(self):
        regions = self.blob_regions(n_per=2)
        with pytest.raises(ValueError, match="exceeds"):
            kmeans_baseline(table_of(regions), k=10, seed=0)

    def test_deterministic_for_seed(self):
        regions = self.blob_regions(n_per=15, seed=2)
        a, _, _ = kmeans_baseline(table_of(regions), k=3, seed=4)
        b, _, _ = kmeans_baseline(table_of(regions), k=3, seed=4)
        assert a == b
