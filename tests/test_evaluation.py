import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualmem.evaluation import (
    GroundTruthBox,
    auc,
    corloc,
    corret,
    count_discovered,
    coverage,
    cumulative_purity_curve,
    detrate,
    evaluate_run,
    iou,
    label_region,
    load_gt,
    oracle_label_clusters,
    purity,
    write_gt,
)
from dualmem.records import BoundingBox

from conftest import make_region


def box(x1, y1=0.0, x2=None, y2=1.0):
    return BoundingBox(x1, y1, x2 if x2 is not None else x1 + 1.0, y2)


def gt_box(image_id, b, class_name, known=False):
    return GroundTruthBox(image_id=image_id, box=b, class_name=class_name, known_flag=known)


class TestIou:
    def test_identical_boxes(self):
        b = BoundingBox(0, 0, 10, 10)
        assert iou(b, b) == 1.0

    def test_disjoint_boxes(self):
        assert iou(BoundingBox(0, 0, 1, 1), BoundingBox(5, 5, 6, 6)) == 0.0

    def test_half_overlap_by_hand(self):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(5, 0, 15, 10)
        assert iou(a, b) == 50.0 / 150.0

    def test_touching_edges_do_not_overlap(self):
        assert iou(BoundingBox(0, 0, 1, 1), BoundingBox(1, 0, 2, 1)) == 0.0

    @given(st.floats(0, 50), st.floats(0, 50), st.floats(0.5, 20), st.floats(0.5, 20))
    @settings(max_examples=50, deadline=None)
    def test_bounds_and_symmetry(self, x, y, w, h):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(x, y, x + w, y + h)
        value = iou(a, b)
        assert 0.0 <= value <= 1.0
        assert value == iou(b, a)


class TestLabelRegion:
    def test_exact_hit(self):
        region = make_region("r0", "i0", [0.0], box=BoundingBox(0, 0, 2, 2))
        gt = [gt_box("i0", BoundingBox(0, 0, 2, 2), "bear")]
        assert label_region(region, gt, 0.5) == "bear"

    def test_no_overlap_is_background(self):
        region = make_region("r0", "i0", [0.0], box=BoundingBox(0, 0, 1, 1))
        gt = [gt_box("i0", BoundingBox(10, 10, 12, 12), "bear")]
        assert label_region(region, gt, 0.5) is None

    def test_max_iou_wins(self):
        region = make_region("r0", "i0", [0.0], box=BoundingBox(0, 0, 10, 10))
        gt = [
            gt_box("i0", BoundingBox(0, 0, 10, 4), "zebra"),   # IoU 0.4
            gt_box("i0", BoundingBox(0, 0, 10, 6), "bear"),    # IoU 0.6
        ]
        assert label_region(region, gt, 0.5) == "bear"


class TestPurity:
    def gt_for(self, classes):
        return [gt_box("i0", box(2.0 * i), c) for i, c in enumerate(classes)]

    def members_on(self, gt, picks):
        return [
            make_region(f"r{i}", "i0", [0.0], box=gt[p].box if p is not None else box(100.0 + 2 * i))
            for i, p in enumerate(picks)
        ]

    def test_two_thirds_majority(self):
        gt = self.gt_for(["a", "a", "b"])
        members = self.members_on(gt, [0, 1, 2])
        assert purity(members, gt, 0.5) == (2.0 / 3.0, "a")

    def test_singleton(self):
        gt = self.gt_for(["a"])
        members = self.members_on(gt, [0])
        assert purity(members, gt, 0.5) == (1.0, "a")

    def test_background_dilutes_denominator(self):
        gt = self.gt_for(["a"])
        members = self.members_on(gt, [0, None, None])
        assert purity(members, gt, 0.5) == (1.0 / 3.0, "a")

    def test_all_background(self):
        gt = self.gt_for(["a"])
        members = self.members_on(gt, [None, None])
        assert purity(members, gt, 0.5) == (0.0, "background")

    def test_tie_breaks_lexicographically(self):
        gt = self.gt_for(["b", "a"])
        members = self.members_on(gt, [0, 1])
        assert purity(members, gt, 0.5)[1] == "a"

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            purity([], [], 0.5)


class TestCoverage:
    def setup_method(self):
        self.gt = [gt_box("i0", box(0.0), "u1"), gt_box("i0", box(2.0), "u2"),
                   gt_box("i1", box(0.0), "u3"), gt_box("i1", box(2.0), "u4")]

    def cluster_on(self, indices):
        images = ["i0", "i0", "i1", "i1"]
        return {
            "c0": [
                make_region(f"r{i}", images[i], [0.0], box=self.gt[i].box)
                for i in indices
            ]
        }

    def test_full_coverage(self):
        assert coverage(self.cluster_on([0, 1, 2, 3]), self.gt, 0.5) == 1.0

    def test_no_clusters(self):
        assert coverage({}, self.gt, 0.5) == 0.0

    def test_three_of_four(self):
        assert coverage(self.cluster_on([0, 1, 2]), self.gt, 0.5) == 0.75

    def test_known_classes_excluded_by_default(self):
        gt = self.gt + [gt_box("i9", box(0.0), "k1", known=True)]
        assert coverage(self.cluster_on([0, 1, 2, 3]), gt, 0.5) == 1.0

    def test_explicit_class_set(self):
        assert coverage(self.cluster_on([0, 1]), self.gt, 0.5, classes={"u1"}) == 1.0


def curve_fixture():
    """Two clusters with purities {1.0, 0.5} and cumulative coverages {0.2, 0.6}.

    Ten unknown ground-truth boxes; cluster A covers 2 with 2 pure members,
    cluster B covers 4 more with 4 hits and 4 background members.
    """
    gt = []
    for i in range(2):
        gt.append(gt_box("i0", box(2.0 * i), "a"))
    for i in range(4):
        gt.append(gt_box("i1", box(2.0 * i), "b"))
    for i in range(4):
        gt.append(gt_box("i2", box(2.0 * i), "c"))
    cluster_a = [make_region(f"a{i}", "i0", [0.0], box=gt[i].box) for i in range(2)]
    cluster_b = [make_region(f"b{i}", "i1", [0.0], box=gt[2 + i].box) for i in range(4)]
    cluster_b += [make_region(f"bg{i}", "i1", [0.0], box=box(100.0 + 2 * i)) for i in range(4)]
    return {"A": cluster_a, "B": cluster_b}, gt


class TestCurveAndAuc:
    def test_single_cluster_point(self):
        clusters, gt = curve_fixture()
        curve = cumulative_purity_curve({"A": clusters["A"]}, gt, 0.5)
        assert curve == [(0.2, 1.0)]

    def test_running_mean_and_coverage(self):
        clusters, gt = curve_fixture()
        curve = cumulative_purity_curve(clusters, gt, 0.5)
        assert curve == [(0.2, 1.0), (0.6, 0.75)]

    def test_monotonic_axes(self):
        clusters, gt = curve_fixture()
        curve = cumulative_purity_curve(clusters, gt, 0.5)
        xs = [p[0] for p in curve]
        ys = [p[1] for p in curve]
        assert xs == sorted(xs)
        assert ys == sorted(ys, reverse=True)

    def test_equal_purities_sort_by_label(self):
        gt = [gt_box("i0", box(0.0), "a"), gt_box("i0", box(2.0), "b")]
        clusters = {
            "z": [make_region("r0", "i0", [0.0], box=gt[0].box)],
            "y": [make_region("r1", "i0", [0.0], box=gt[1].box)],
        }
        curve = cumulative_purity_curve(clusters, gt, 0.5)
        assert curve == [(0.5, 1.0), (1.0, 1.0)]

    def test_auc_single_point(self):
        assert auc([(0.5, 1.0)]) == 50.0

    def test_auc_empty(self):
        assert auc([]) == 0.0

    def test_auc_trapezoid_by_hand(self):
        assert auc([(0.2, 1.0), (0.6, 0.75)]) == 55.0

    def test_auc_from_fixture_exactly(self):
        clusters, gt = curve_fixture()
        assert auc(cumulative_purity_curve(clusters, gt, 0.5)) == 55.0

    def test_auc_bounded(self):
        clusters, gt = curve_fixture()
        value = auc(cumulative_purity_curve(clusters, gt, 0.5))
        assert 0.0 <= value <= 100.0

    def test_auc_monotone_under_pure_extension(self):
        base = [(0.2, 1.0)]
        extended = [(0.2, 1.0), (0.6, 1.0)]
        assert auc(extended) > auc(base)


def covered_fraction_reference(clusters, gt, iou_threshold, classes):
    """Coverage by brute force: every relevant box against every clustered region."""
    relevant = [g for g in gt if g.class_name in classes]
    if not relevant:
        return 0.0
    regions = [r for members in clusters.values() for r in members]
    hit = sum(
        1
        for g in relevant
        if any(r.image_id == g.image_id and iou(r.box, g.box) >= iou_threshold for r in regions)
    )
    return hit / len(relevant)


# A region sits on cell c of its image, shifted right by s box widths; against the
# unshifted box of the same cell its IoU is (1 - s) / (1 + s): 1, 0.6, 1/3 or 0.
CELLS = st.tuples(st.integers(0, 2), st.integers(0, 3))
SHIFTS = st.sampled_from([0.0, 0.25, 0.5, 1.0])


@given(
    gt_cells=st.lists(st.tuples(CELLS, st.sampled_from(["a", "b", "k"])), max_size=10),
    cluster_members=st.lists(
        st.lists(st.tuples(CELLS, SHIFTS), min_size=1, max_size=5), min_size=1, max_size=6
    ),
    iou_threshold=st.sampled_from([0.2, 0.5, 0.6]),
    classes=st.sampled_from([None, {"a"}, {"a", "k"}]),
)
@settings(max_examples=200, deadline=None)
def test_curve_points_are_top_k_coverage_and_mean_purity(
    gt_cells, cluster_members, iou_threshold, classes
):
    gt = [
        gt_box(f"i{image}", box(2.0 * cell), name, known=name == "k")
        for (image, cell), name in gt_cells
    ]
    clusters = {
        f"c{c}": [
            make_region(f"c{c}_r{m}", f"i{image}", [0.0], box=box(2.0 * cell + shift))
            for m, ((image, cell), shift) in enumerate(members)
        ]
        for c, members in enumerate(cluster_members)
    }
    curve = cumulative_purity_curve(clusters, gt, iou_threshold, classes)
    purities = {label: purity(members, gt, iou_threshold)[0] for label, members in clusters.items()}
    ranked = sorted(clusters, key=lambda label: (-purities[label], label))
    class_set = {g.class_name for g in gt if not g.known_flag} if classes is None else classes
    assert len(curve) == len(ranked)
    for k, (x, y) in enumerate(curve, 1):
        top = {label: clusters[label] for label in ranked[:k]}
        assert x == coverage(top, gt, iou_threshold, classes)
        assert x == covered_fraction_reference(top, gt, iou_threshold, class_set)
        assert y == sum(purities[label] for label in ranked[:k]) / k


class TestCorloc:
    def fixture(self):
        gt = [gt_box("i0", BoundingBox(0, 0, 4, 4), "a"), gt_box("i1", BoundingBox(0, 0, 4, 4), "b")]
        regions = {
            "r0": make_region("r0", "i0", [0.0], box=BoundingBox(0, 0, 4, 4)),
            "r1": make_region("r1", "i1", [0.0], box=BoundingBox(50, 0, 54, 4)),
        }
        return gt, regions

    def test_half_localized(self):
        gt, regions = self.fixture()
        assignments = {"r0": "c0", "r1": "c0"}
        assert corloc(assignments, regions, gt) == 50.0

    def test_all_localized(self):
        gt, regions = self.fixture()
        regions["r1"] = make_region("r1", "i1", [0.0], box=BoundingBox(0, 0, 4, 4))
        assert corloc({"r0": "c0", "r1": "c0"}, regions, gt) == 100.0

    def test_no_assignments(self):
        gt, regions = self.fixture()
        assert corloc({"r0": "unassigned", "r1": "unassigned"}, regions, gt) == 0.0

    def test_strictly_greater_than_threshold(self):
        gt = [gt_box("i0", BoundingBox(0, 0, 2, 1), "a")]
        regions = {"r0": make_region("r0", "i0", [0.0], box=BoundingBox(0, 0, 1, 1))}
        # IoU exactly 0.5 does not count for localization.
        assert corloc({"r0": "c0"}, regions, gt) == 0.0


class TestDetrate:
    def fixture(self):
        gt = [gt_box("i0", box(2.0 * i), f"u{i}") for i in range(4)]
        regions = {
            f"r{i}": make_region(f"r{i}", "i0", [0.0], box=gt[i].box) for i in range(3)
        }
        assignments = {f"r{i}": "c0" for i in range(3)}
        return gt, regions, assignments

    def test_three_of_four(self):
        gt, regions, assignments = self.fixture()
        assert detrate(assignments, regions, gt, 0.5) == 75.0

    def test_all_matched(self):
        gt, regions, assignments = self.fixture()
        regions["r3"] = make_region("r3", "i0", [0.0], box=gt[3].box)
        assignments["r3"] = "c0"
        assert detrate(assignments, regions, gt, 0.5) == 100.0

    def test_none_matched(self):
        gt, regions, _ = self.fixture()
        assert detrate({}, regions, gt, 0.5) == 0.0

    def test_equals_all_class_coverage(self):
        gt, regions, assignments = self.fixture()
        clusters = {"c0": [regions[r] for r in assignments]}
        all_classes = {g.class_name for g in gt}
        assert detrate(assignments, regions, gt, 0.5) == 100.0 * coverage(
            clusters, gt, 0.5, classes=all_classes
        )


class TestCorret:
    def balanced_fixture(self, per_class=6):
        regions = {}
        assignments = {}
        gt = []
        for c, axis in (("a", 0), ("b", 1)):
            for i in range(per_class):
                image = f"{c}{i}"
                feature = np.zeros(3)
                feature[axis] = 5.0
                feature[2] = 0.1 * i
                rid = f"r_{image}"
                regions[rid] = make_region(rid, image, feature, box=BoundingBox(0, 0, 2, 2))
                assignments[rid] = f"cluster_{c}"
                gt.append(gt_box(image, BoundingBox(0, 0, 2, 2), c))
        return assignments, regions, gt

    def test_single_class_is_perfect(self):
        assignments, regions, gt = self.balanced_fixture()
        only_a = {k: v for k, v in assignments.items() if v == "cluster_a"}
        assert corret(only_a, regions, gt, k=10) == 100.0

    def test_separated_classes_perfect_when_k_fits(self):
        assignments, regions, gt = self.balanced_fixture()
        assert corret(assignments, regions, gt, k=3) == 100.0

    def test_fifty_percent_when_k_spans_both(self):
        assignments, regions, gt = self.balanced_fixture(per_class=6)
        # k=10 over 11 neighbors: 5 same-class + 5 cross-class for every image.
        assert corret(assignments, regions, gt, k=10) == 50.0

    def test_images_without_assignments_skipped(self):
        assignments, regions, gt = self.balanced_fixture()
        del assignments["r_a0"]
        value = corret(assignments, regions, gt, k=3)
        assert 0.0 <= value <= 100.0

    def test_by_slot_representation(self):
        assignments, regions, gt = self.balanced_fixture()
        assert corret(assignments, regions, gt, k=3, by_slot=True) == 100.0


class TestOracleAndCounting:
    def test_pure_cluster_takes_its_class(self):
        clusters, gt = curve_fixture()
        labels = oracle_label_clusters(clusters, gt, 0.5)
        assert labels["A"] == "a"

    def test_unmatched_cluster_is_background(self):
        gt = [gt_box("i0", box(0.0), "a")]
        clusters = {"junk": [make_region("r0", "i0", [0.0], box=box(50.0))]}
        assert oracle_label_clusters(clusters, gt, 0.5) == {"junk": "background"}

    def test_majority_vote(self):
        gt = [gt_box("i0", box(2.0 * i), "bear") for i in range(3)]
        gt += [gt_box("i0", box(2.0 * (3 + i)), "zebra") for i in range(2)]
        members = [make_region(f"r{i}", "i0", [0.0], box=g.box) for i, g in enumerate(gt)]
        assert oracle_label_clusters({"c": members}, gt, 0.5) == {"c": "bear"}

    def test_count_discovered_counts_distinct_classes(self):
        gt = [gt_box(f"i{j}", box(0.0), "bear") for j in range(6)]
        cluster = lambda tag: [
            make_region(f"{tag}{j}", f"i{j}", [0.0], box=box(0.0)) for j in range(6)
        ]
        clusters = {"c0": cluster("x"), "c1": cluster("y")}
        assert count_discovered(clusters, gt, 0.5, min_images=5) == 1

    def test_count_discovered_empty(self):
        assert count_discovered({}, [gt_box("i0", box(0.0), "a")], 0.5) == 0

    def test_count_discovered_three_pure_clusters(self):
        gt, clusters = [], {}
        for c in ("u0", "u1", "u2"):
            for j in range(5):
                gt.append(gt_box(f"{c}_i{j}", box(0.0), c))
            clusters[f"cl_{c}"] = [
                make_region(f"{c}_r{j}", f"{c}_i{j}", [0.0], box=box(0.0)) for j in range(5)
            ]
        assert count_discovered(clusters, gt, 0.5, min_images=5) == 3

    def test_purity_floor_excludes_mixed_clusters(self):
        gt = [gt_box(f"i{j}", box(0.0), "bear") for j in range(5)]
        members = [make_region(f"r{j}", f"i{j}", [0.0], box=box(0.0)) for j in range(2)]
        members += [make_region(f"q{j}", f"i{j}", [0.0], box=box(50.0)) for j in range(3)]
        assert count_discovered({"c": members}, gt, 0.5, purity_floor=0.5, min_images=2) == 0


class TestGtFile:
    def test_roundtrip(self, tmp_path):
        boxes = [gt_box("i0", BoundingBox(0, 0, 2, 3), "bear"), gt_box("i1", box(5.0), "dog", known=True)]
        write_gt(tmp_path / "gt.jsonl", boxes)
        loaded = load_gt(tmp_path / "gt.jsonl")
        assert loaded == boxes

    def test_bad_record(self, tmp_path):
        (tmp_path / "gt.jsonl").write_text('{"image_id": "i0"}\n')
        with pytest.raises(ValueError, match="gt.jsonl:1"):
            load_gt(tmp_path / "gt.jsonl")


class TestEvaluateRun:
    def test_report_keys_and_determinism(self):
        clusters, gt = curve_fixture()
        regions = {r.region_id: r for ms in clusters.values() for r in ms}
        assignments = {r.region_id: label for label, ms in clusters.items() for r in ms}
        report = evaluate_run(assignments, regions, gt, iou_thresholds=(0.5, 0.2), min_images=1)
        assert report.metrics["auc_0.5"] == 55.0
        assert set(report.metrics) >= {"auc_0.5", "auc_0.2", "corloc", "corret", "detrate_0.5", "n_discovered"}
        again = evaluate_run(assignments, regions, gt, iou_thresholds=(0.5, 0.2), min_images=1)
        assert report.metrics == again.metrics

    def test_empty_assignments_all_zero(self):
        clusters, gt = curve_fixture()
        regions = {r.region_id: r for ms in clusters.values() for r in ms}
        assignments = {rid: "unassigned" for rid in regions}
        report = evaluate_run(assignments, regions, gt)
        assert report.metrics["auc_0.5"] == 0.0
        assert report.metrics["corloc"] == 0.0
        assert report.metrics["detrate_0.5"] == 0.0
        assert report.metrics["n_discovered"] == 0
