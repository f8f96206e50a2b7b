import json
import math
import re
import reprlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualmem.evaluation import (
    IouTable,
    auc,
    corloc,
    corret,
    count_discovered,
    coverage,
    cumulative_purity_curve,
    detrate,
    evaluate_run,
    iou,
    load_gt,
    purity,
    report_clusters,
    write_gt,
)
from dualmem.corpus import load_corpus
from dualmem.records import BoundingBox, GroundTruthTable
from dualmem.synth import SynthSpec, generate, kmeans_baseline

from conftest import GtBox, boxes_of, gt_table_of, make_region, table_of


def members_table(members):
    """A cluster of records as (its rows, their table)."""
    return range(len(members)), table_of(members)


def clustered(clusters):
    """Clusters of records as (clusters of rows, one table of every member)."""
    rows, start = {}, 0
    for label, members in clusters.items():
        rows[label] = list(range(start, start + len(members)))
        start += len(members)
    return rows, table_of([r for members in clusters.values() for r in members])


def box(x1, y1=0.0, x2=None, y2=1.0):
    return BoundingBox(x1, y1, x2 if x2 is not None else x1 + 1.0, y2)


def gt_box(image_id, b, class_name, known=False):
    return GtBox(image_id=image_id, box=b, class_name=class_name, known_flag=known)


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
    """A region's label: the class of its first max-IoU box, if that IoU clears the threshold."""

    @staticmethod
    def label(region, gt, iou_threshold):
        table = IouTable(table_of([region]), [0], gt_table_of(gt))
        best = int(table.best[0]) if table.best_iou[0] >= iou_threshold else -1
        return gt[best].class_name if best >= 0 else None

    def test_exact_hit(self):
        region = make_region("r0", "i0", [0.0], box=BoundingBox(0, 0, 2, 2))
        gt = [gt_box("i0", BoundingBox(0, 0, 2, 2), "bear")]
        assert self.label(region, gt, 0.5) == "bear"

    def test_no_overlap_is_background(self):
        region = make_region("r0", "i0", [0.0], box=BoundingBox(0, 0, 1, 1))
        gt = [gt_box("i0", BoundingBox(10, 10, 12, 12), "bear")]
        assert self.label(region, gt, 0.5) is None

    def test_max_iou_wins(self):
        region = make_region("r0", "i0", [0.0], box=BoundingBox(0, 0, 10, 10))
        gt = [
            gt_box("i0", BoundingBox(0, 0, 10, 4), "zebra"),   # IoU 0.4
            gt_box("i0", BoundingBox(0, 0, 10, 6), "bear"),    # IoU 0.6
        ]
        assert self.label(region, gt, 0.5) == "bear"


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
        assert purity(*members_table(members), gt_table_of(gt), 0.5) == (2.0 / 3.0, "a")

    def test_singleton(self):
        gt = self.gt_for(["a"])
        members = self.members_on(gt, [0])
        assert purity(*members_table(members), gt_table_of(gt), 0.5) == (1.0, "a")

    def test_background_dilutes_denominator(self):
        gt = self.gt_for(["a"])
        members = self.members_on(gt, [0, None, None])
        assert purity(*members_table(members), gt_table_of(gt), 0.5) == (1.0 / 3.0, "a")

    def test_all_background(self):
        gt = self.gt_for(["a"])
        members = self.members_on(gt, [None, None])
        assert purity(*members_table(members), gt_table_of(gt), 0.5) == (0.0, "background")

    def test_tie_breaks_lexicographically(self):
        gt = self.gt_for(["b", "a"])
        members = self.members_on(gt, [0, 1])
        assert purity(*members_table(members), gt_table_of(gt), 0.5)[1] == "a"

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            purity(*members_table([]), gt_table_of([]), 0.5)


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
        assert coverage(*clustered(self.cluster_on([0, 1, 2, 3])), gt_table_of(self.gt), 0.5) == 1.0

    def test_no_clusters(self):
        assert coverage(*clustered({}), gt_table_of(self.gt), 0.5) == 0.0

    def test_three_of_four(self):
        assert coverage(*clustered(self.cluster_on([0, 1, 2])), gt_table_of(self.gt), 0.5) == 0.75

    def test_known_classes_excluded_by_default(self):
        gt = self.gt + [gt_box("i9", box(0.0), "k1", known=True)]
        assert coverage(*clustered(self.cluster_on([0, 1, 2, 3])), gt_table_of(gt), 0.5) == 1.0

    def test_explicit_class_set(self):
        assert coverage(*clustered(self.cluster_on([0, 1])), gt_table_of(self.gt), 0.5, classes={"u1"}) == 1.0


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
        curve = cumulative_purity_curve(*clustered({"A": clusters["A"]}), gt_table_of(gt), 0.5)
        assert curve == [(0.2, 1.0)]

    def test_running_mean_and_coverage(self):
        clusters, gt = curve_fixture()
        curve = cumulative_purity_curve(*clustered(clusters), gt_table_of(gt), 0.5)
        assert curve == [(0.2, 1.0), (0.6, 0.75)]

    def test_monotonic_axes(self):
        clusters, gt = curve_fixture()
        curve = cumulative_purity_curve(*clustered(clusters), gt_table_of(gt), 0.5)
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
        curve = cumulative_purity_curve(*clustered(clusters), gt_table_of(gt), 0.5)
        assert curve == [(0.5, 1.0), (1.0, 1.0)]

    def test_auc_single_point(self):
        assert auc([(0.5, 1.0)]) == 50.0

    def test_auc_empty(self):
        assert auc([]) == 0.0

    def test_auc_trapezoid_by_hand(self):
        assert auc([(0.2, 1.0), (0.6, 0.75)]) == 55.0

    def test_auc_from_fixture_exactly(self):
        clusters, gt = curve_fixture()
        assert auc(cumulative_purity_curve(*clustered(clusters), gt_table_of(gt), 0.5)) == 55.0

    def test_auc_bounded(self):
        clusters, gt = curve_fixture()
        value = auc(cumulative_purity_curve(*clustered(clusters), gt_table_of(gt), 0.5))
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
    rows, table = clustered(clusters)
    curve = cumulative_purity_curve(rows, table, gt_table_of(gt), iou_threshold, classes)
    purities = {label: purity(rows[label], table, gt_table_of(gt), iou_threshold)[0] for label in clusters}
    ranked = sorted(clusters, key=lambda label: (-purities[label], label))
    class_set = {g.class_name for g in gt if not g.known_flag} if classes is None else classes
    assert len(curve) == len(ranked)
    for k, (x, y) in enumerate(curve, 1):
        top = {label: clusters[label] for label in ranked[:k]}
        assert x == coverage({label: rows[label] for label in top}, table, gt_table_of(gt), iou_threshold, classes)
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
        assert corloc(assignments, table_of(regions.values()), gt_table_of(gt)) == 50.0

    def test_all_localized(self):
        gt, regions = self.fixture()
        regions["r1"] = make_region("r1", "i1", [0.0], box=BoundingBox(0, 0, 4, 4))
        assert corloc({"r0": "c0", "r1": "c0"}, table_of(regions.values()), gt_table_of(gt)) == 100.0

    def test_no_assignments(self):
        gt, regions = self.fixture()
        assert corloc({"r0": "unassigned", "r1": "unassigned"}, table_of(regions.values()), gt_table_of(gt)) == 0.0

    def test_strictly_greater_than_threshold(self):
        gt = [gt_box("i0", BoundingBox(0, 0, 2, 1), "a")]
        regions = {"r0": make_region("r0", "i0", [0.0], box=BoundingBox(0, 0, 1, 1))}
        # IoU exactly 0.5 does not count for localization.
        assert corloc({"r0": "c0"}, table_of(regions.values()), gt_table_of(gt)) == 0.0


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
        assert detrate(assignments, table_of(regions.values()), gt_table_of(gt), 0.5) == 75.0

    def test_all_matched(self):
        gt, regions, assignments = self.fixture()
        regions["r3"] = make_region("r3", "i0", [0.0], box=gt[3].box)
        assignments["r3"] = "c0"
        assert detrate(assignments, table_of(regions.values()), gt_table_of(gt), 0.5) == 100.0

    def test_none_matched(self):
        gt, regions, _ = self.fixture()
        assert detrate({}, table_of(regions.values()), gt_table_of(gt), 0.5) == 0.0

    def test_equals_all_class_coverage(self):
        gt, regions, assignments = self.fixture()
        clusters = {"c0": [regions[r] for r in assignments]}
        all_classes = {g.class_name for g in gt}
        assert detrate(assignments, table_of(regions.values()), gt_table_of(gt), 0.5) == 100.0 * coverage(
            *clustered(clusters), gt_table_of(gt), 0.5, classes=all_classes
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
        assert corret(only_a, table_of(regions.values()), gt_table_of(gt), k=10) == 100.0

    def test_separated_classes_perfect_when_k_fits(self):
        assignments, regions, gt = self.balanced_fixture()
        assert corret(assignments, table_of(regions.values()), gt_table_of(gt), k=3) == 100.0

    def test_fifty_percent_when_k_spans_both(self):
        assignments, regions, gt = self.balanced_fixture(per_class=6)
        # k=10 over 11 neighbors: 5 same-class + 5 cross-class for every image.
        assert corret(assignments, table_of(regions.values()), gt_table_of(gt), k=10) == 50.0

    def test_images_without_assignments_skipped(self):
        assignments, regions, gt = self.balanced_fixture()
        del assignments["r_a0"]
        value = corret(assignments, table_of(regions.values()), gt_table_of(gt), k=3)
        assert 0.0 <= value <= 100.0

    def test_equal_similarities_rank_by_image_order(self):
        # Four identical representations: every image's nearest are the lowest-numbered others.
        regions, assignments, gt = {}, {}, []
        for i, c in enumerate("abbb"):
            regions[f"r{i}"] = make_region(f"r{i}", f"i{i}", [1.0, 0.0], box=BoundingBox(0, 0, 2, 2))
            assignments[f"r{i}"] = "c0"
            gt.append(gt_box(f"i{i}", BoundingBox(0, 0, 2, 2), c))
        assert corret(assignments, table_of(regions.values()), gt_table_of(gt), k=1) == 0.0
        assert corret(assignments, table_of(regions.values()), gt_table_of(gt), k=2) == 37.5

    def test_means_add_in_assignment_order(self):
        # Image i0's x-coordinates sum to 0 in assignment order (rc, ra, rb) but to 1 in
        # corpus order, which would turn its mean toward i2 (class b) and away from i1.
        features = {"ra": [1e16, 1.0], "rb": [-1e16, 1.0], "rc": [1.0, 1.0]}
        regions = {rid: make_region(rid, "i0", f, box=BoundingBox(0, 0, 2, 2)) for rid, f in features.items()}
        regions["r1"] = make_region("r1", "i1", [0.0, 1.0], box=BoundingBox(0, 0, 2, 2))
        regions["r2"] = make_region("r2", "i2", [1.0, 3.0], box=BoundingBox(0, 0, 2, 2))
        assignments = {rid: "c0" for rid in ("rc", "ra", "rb", "r1", "r2")}
        gt = [gt_box(image, BoundingBox(0, 0, 2, 2), c) for image, c in (("i0", "a"), ("i1", "a"), ("i2", "b"))]
        assert corret(assignments, table_of(regions.values()), gt_table_of(gt), k=1) == pytest.approx(200.0 / 3.0)


class TestOracleAndCounting:
    """A cluster's majority class, as ``report_clusters`` and ``purity`` give it."""

    @staticmethod
    def majorities(clusters, gt):
        return {r.label: r.majority_class for r in report_clusters(*clustered(clusters), gt_table_of(gt), 0.5)}

    def test_pure_cluster_takes_its_class(self):
        clusters, gt = curve_fixture()
        labels = self.majorities(clusters, gt)
        assert labels["A"] == "a"

    def test_unmatched_cluster_is_background(self):
        gt = [gt_box("i0", box(0.0), "a")]
        clusters = {"junk": [make_region("r0", "i0", [0.0], box=box(50.0))]}
        assert self.majorities(clusters, gt) == {"junk": "background"}

    def test_majority_vote(self):
        gt = [gt_box("i0", box(2.0 * i), "bear") for i in range(3)]
        gt += [gt_box("i0", box(2.0 * (3 + i)), "zebra") for i in range(2)]
        members = [make_region(f"r{i}", "i0", [0.0], box=g.box) for i, g in enumerate(gt)]
        assert self.majorities({"c": members}, gt) == {"c": "bear"}
        assert purity(*members_table(members), gt_table_of(gt), 0.5)[1] == "bear"

    def test_count_discovered_counts_distinct_classes(self):
        gt = [gt_box(f"i{j}", box(0.0), "bear") for j in range(6)]
        cluster = lambda tag: [
            make_region(f"{tag}{j}", f"i{j}", [0.0], box=box(0.0)) for j in range(6)
        ]
        clusters = {"c0": cluster("x"), "c1": cluster("y")}
        assert count_discovered(*clustered(clusters), gt_table_of(gt), 0.5, min_images=5) == 1

    def test_count_discovered_empty(self):
        assert count_discovered(*clustered({}), gt_table_of([gt_box("i0", box(0.0), "a")]), 0.5) == 0

    def test_count_discovered_three_pure_clusters(self):
        gt, clusters = [], {}
        for c in ("u0", "u1", "u2"):
            for j in range(5):
                gt.append(gt_box(f"{c}_i{j}", box(0.0), c))
            clusters[f"cl_{c}"] = [
                make_region(f"{c}_r{j}", f"{c}_i{j}", [0.0], box=box(0.0)) for j in range(5)
            ]
        assert count_discovered(*clustered(clusters), gt_table_of(gt), 0.5, min_images=5) == 3

    def test_purity_floor_excludes_mixed_clusters(self):
        gt = [gt_box(f"i{j}", box(0.0), "bear") for j in range(5)]
        members = [make_region(f"r{j}", f"i{j}", [0.0], box=box(0.0)) for j in range(2)]
        members += [make_region(f"q{j}", f"i{j}", [0.0], box=box(50.0)) for j in range(3)]
        assert count_discovered(*clustered({"c": members}), gt_table_of(gt), 0.5, purity_floor=0.5, min_images=2) == 0


class TestGtFile:
    def test_roundtrip(self, tmp_path):
        boxes = [gt_box("i0", BoundingBox(0, 0, 2, 3), "bear"), gt_box("i1", box(5.0), "dog", known=True)]
        write_gt(tmp_path / "gt.jsonl", gt_table_of(boxes))
        loaded = load_gt(tmp_path / "gt.jsonl")
        assert boxes_of(loaded) == boxes

    def test_bad_record(self, tmp_path):
        (tmp_path / "gt.jsonl").write_text('{"image_id": "i0"}\n')
        with pytest.raises(ValueError, match="gt.jsonl:1"):
            load_gt(tmp_path / "gt.jsonl")

    @pytest.mark.parametrize("field, value, message", [
        ("known_flag", "false", "known_flag must be a JSON boolean, got 'false'"),
        ("known_flag", 0, "known_flag must be a JSON boolean, got 0"),
        ("box", "0129", "box must be a JSON array of four numbers, got '0129'"),
        ("box", [0, 0, "1", 1], "box must be a JSON array of four numbers, got [0, 0, '1', 1]"),
        ("box", [0, 0, True, 1], "box must be a JSON array of four numbers, got [0, 0, True, 1]"),
        ("box", [0, 0, 1], "box must be a JSON array of four numbers, got [0, 0, 1]"),
    ])
    def test_values_of_another_json_type_are_refused(self, tmp_path, field, value, message):
        good = dict(image_id="i0", box=[0, 0, 1, 1], class_name="a", known_flag=False)
        path = tmp_path / "gt.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(dict(good, **{field: value})) + "\n")
        with pytest.raises(ValueError) as caught:
            load_gt(path)
        assert str(caught.value) == f"{path}:2: bad ground-truth record: {message}"

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_box_coordinate_that_is_not_finite_is_refused(self, tmp_path, value):
        """json.loads reads Infinity and NaN; such a box would give every region a NaN IoU."""
        good = dict(image_id="i0", box=[0, 0, 1, 1], class_name="a", known_flag=False)
        path = tmp_path / "gt.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(dict(good, box=[0, 0, value, 1])) + "\n")
        with pytest.raises(ValueError) as caught:
            load_gt(path)
        fault = f"box [0.0, 0.0, {value}, 1.0] must have finite coordinates with x2 > x1 and y2 > y1"
        assert str(caught.value) == f"{path}:2: bad ground-truth record: {fault}"

    def test_first_bad_line_comes_before_a_later_line_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        good = b'{"image_id":"i0","box":[0,0,1,1],"class_name":"a","known_flag":false}'
        path.write_bytes(good + b"\n{\n" + good.replace(b"i0", b"i\xff") + b"\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: bad ground-truth record: Expecting")):
            load_gt(path)
        path.write_bytes(good + b"\n" + good.replace(b"i0", b"i\xff") + b"\n{\n")
        with pytest.raises(ValueError) as caught:
            load_gt(path)
        assert str(caught.value) == (
            f"{path}: line 2: 'utf-8' codec can't decode byte 0xff in position 14: invalid start byte"
        )


def reference_load_gt(path):
    """The record-at-a-time reader: one row tuple, its box checked by BoundingBox, per line.

    A box must be a JSON array of four finite numbers, a class name may hold no
    tab, newline or carriage return, and a known flag must be a JSON boolean;
    nothing is coerced from another JSON type.
    """
    boxes = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").split("\n"), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            image_id = str(obj["image_id"])
            box = obj["box"]
            if not (isinstance(box, list) and len(box) == 4 and all(is_json_number(v) for v in box)):
                raise ValueError(f"box must be a JSON array of four numbers, got {reprlib.repr(box)}")
            box = [float(v) for v in box]
            if not all(math.isfinite(v) for v in box):  # json.loads reads Infinity and NaN
                coordinates = ", ".join(map(str, box))
                raise ValueError(f"box [{coordinates}] must have finite coordinates with x2 > x1 and y2 > y1")
            box = BoundingBox(*box)
            class_name = str(obj["class_name"])
            if "\t" in class_name or "\n" in class_name or "\r" in class_name:
                raise ValueError(f"class_name {class_name!r} contains a tab, a newline or a carriage return")
            if not isinstance(obj["known_flag"], bool):
                raise ValueError(f"known_flag must be a JSON boolean, got {reprlib.repr(obj['known_flag'])}")
            boxes.append(GtBox(image_id, box, class_name, obj["known_flag"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}:{lineno}: bad ground-truth record: {exc}") from exc
    return boxes


def is_json_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def gt_outcome(read, path):
    """The rows a reader gives, as (image id, box, class name, known flag) reprs, or its error text."""
    try:
        result = read(path)
    except ValueError as exc:
        return str(exc)
    if isinstance(result, GroundTruthTable):
        rows = zip(result.image_ids, result.boxes.tolist(), result.class_names, result.known.tolist())
    else:
        rows = ((g.image_id, g.box.as_list(), g.class_name, g.known_flag) for g in result)
    return [repr(row) for row in rows]


# JSON values a field may hold instead of the expected one: str() takes all of them, a box
# coordinate must be a number (not "1.5" or true), a known flag must be a boolean, and
# 10**400 overflows a float.
ODD_VALUES = st.one_of(
    st.integers(-2, 4), st.booleans(), st.none(), st.sampled_from(["1.5", "x", ""]), st.just(10**400),
    st.lists(st.integers(0, 3), max_size=2), st.dictionaries(st.sampled_from(["k"]), st.integers(0, 1)),
)
COORDINATES = st.one_of(
    st.integers(-1, 4), st.sampled_from([0.5, 2.5, -0.0, float("inf"), float("nan")]), ODD_VALUES
)
GOOD_BOX = st.tuples(st.floats(0, 3, width=16), st.floats(0, 3, width=16), st.floats(0.5, 2, width=16),
                     st.floats(0.5, 2, width=16)).map(lambda b: [b[0], b[1], b[0] + b[2], b[1] + b[3]])
GOOD_RECORD = st.fixed_dictionaries({
    "image_id": st.one_of(st.sampled_from(["i0", "i1", "i2"]), st.integers(0, 2)),
    "box": GOOD_BOX,
    "class_name": st.one_of(st.sampled_from(["a", "b", "k"]), st.integers(0, 1)),
    "known_flag": st.booleans(),
})


def _without_one_key(record):
    return st.sampled_from(sorted(record)).map(lambda key: {k: v for k, v in record.items() if k != key})


BAD_LINE = st.one_of(
    GOOD_RECORD.flatmap(_without_one_key).map(json.dumps),  # a missing key
    st.tuples(GOOD_RECORD, st.lists(COORDINATES, max_size=6)).map(  # any box: wrong length, degenerate, odd values
        lambda pair: json.dumps(dict(pair[0], box=pair[1]))
    ),
    st.tuples(GOOD_RECORD, ODD_VALUES, st.sampled_from(["image_id", "box", "class_name", "known_flag"])).map(
        lambda t: json.dumps(dict(t[0], **{t[2]: t[1]}))
    ),
    st.tuples(GOOD_RECORD, st.integers(0, 3)).map(  # a box coordinate no float can hold
        lambda pair: json.dumps(dict(pair[0], box=pair[0]["box"][: pair[1]] + [10**400] + pair[0]["box"][pair[1] + 1:]))
    ),
    st.tuples(GOOD_RECORD, st.sampled_from(["\t", "\n", "\r"]), st.sampled_from(["image_id", "class_name"])).map(
        lambda t: json.dumps(dict(t[0], **{t[2]: f"{t[0][t[2]]}{t[1]}x"}))  # a control character in a name
    ),
    st.tuples(GOOD_RECORD, st.integers(1, 20)).map(lambda pair: json.dumps(pair[0])[: -pair[1]]),  # bad JSON
    st.sampled_from(["[1, 2]", "3", '"s"', "null", "{", "}{", "{} {}"]),  # not one object
)


@given(
    records=st.lists(GOOD_RECORD, max_size=8),
    inserted=st.lists(
        st.tuples(st.integers(0, 10), st.one_of(BAD_LINE, st.sampled_from(["", "  ", "\t"]))), max_size=3
    ),
    trailing_newline=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_load_gt_table_matches_the_record_reader(tmp_path_factory, records, inserted, trailing_newline):
    lines = [json.dumps(record) for record in records]
    for position, line in inserted:
        lines.insert(position, line)
    path = tmp_path_factory.mktemp("gt") / "gt.jsonl"
    path.write_text("\n".join(lines) + ("\n" if trailing_newline else ""), encoding="utf-8")
    assert gt_outcome(load_gt, path) == gt_outcome(reference_load_gt, path)


def test_evaluate_run_on_the_loaded_table_equals_the_table_of_the_same_boxes(tmp_path):
    spec = SynthSpec(
        d=8, n_known=2, n_unknown=4, images=40, n_background_per_image=2,
        classes_per_image=3, regions_per_class_per_image=2, separation=3.0, std=1.0, seed=11,
    )
    paths = generate(spec, tmp_path)
    regions = load_corpus(paths["corpus"])
    assignments, _, _ = kmeans_baseline(regions, 8, 1)
    loaded = load_gt(paths["gt"])
    built = gt_table_of(reference_load_gt(paths["gt"]))
    reports = [
        evaluate_run(assignments, regions, gt, iou_thresholds=(0.5, 0.2), min_images=2) for gt in (loaded, built)
    ]
    assert reports[0].metrics["auc_0.5"] > 0.0
    assert repr(reports[0]) == repr(reports[1])


class TestEvaluateRun:
    def test_report_keys_and_determinism(self):
        clusters, gt = curve_fixture()
        regions = {r.region_id: r for ms in clusters.values() for r in ms}
        assignments = {r.region_id: label for label, ms in clusters.items() for r in ms}
        table = table_of(regions.values())
        report = evaluate_run(assignments, table, gt_table_of(gt), iou_thresholds=(0.5, 0.2), min_images=1)
        assert report.metrics["auc_0.5"] == 55.0
        assert set(report.metrics) >= {"auc_0.5", "auc_0.2", "corloc", "corret", "detrate_0.5", "n_discovered"}
        again = evaluate_run(assignments, table, gt_table_of(gt), iou_thresholds=(0.5, 0.2), min_images=1)
        assert report.metrics == again.metrics

    def test_empty_assignments_all_zero(self):
        clusters, gt = curve_fixture()
        regions = {r.region_id: r for ms in clusters.values() for r in ms}
        assignments = {rid: "unassigned" for rid in regions}
        report = evaluate_run(assignments, table_of(regions.values()), gt_table_of(gt))
        assert report.metrics["auc_0.5"] == 0.0
        assert report.metrics["corloc"] == 0.0
        assert report.metrics["detrate_0.5"] == 0.0
        assert report.metrics["n_discovered"] == 0


def test_iou_table_best_boxes_match_scalar_iou_bit_for_bit():
    rng = np.random.default_rng(8)

    def random_box():
        x, y = rng.uniform(0.0, 3.0, 2)
        w, h = rng.uniform(0.1, 3.0, 2)
        return BoundingBox(float(x), float(y), float(x + w), float(y + h))

    gt = [gt_box(f"i{rng.integers(4)}", random_box(), "a") for _ in range(20)]
    gt += [gt_box(g.image_id, g.box, "b") for g in gt[:5]]  # equal IoUs: the first box wins
    regions = [make_region(f"r{j}", f"i{rng.integers(5)}", [0.0], box=random_box()) for j in range(200)]
    table = IouTable(table_of(regions), range(len(regions)), gt_table_of(gt))
    pairs = list(zip(table.region.tolist(), table.box.tolist()))
    assert pairs == [
        (r, b) for r in range(len(regions)) for b in range(len(gt)) if gt[b].image_id == regions[r].image_id
    ]
    assert table.iou.tolist() == [iou(regions[r].box, gt[b].box) for r, b in pairs]
    for region, index, value in zip(regions, table.best.tolist(), table.best_iou.tolist()):
        values = [iou(region.box, g.box) if g.image_id == region.image_id else -1.0 for g in gt]
        top = max(values, default=-1.0)
        if top <= 0.0:
            assert (index, value) == (-1, 0.0)
        else:
            assert (index, value) == (values.index(top), top)


def reference_evaluate(assignments, regions, gt, thresholds, purity_floor, min_images, k):
    """The metric suite by scalar loops: the algorithm ``evaluate_run`` replaced."""
    by_image = {}
    for g in gt:
        by_image.setdefault(g.image_id, []).append(g)
    clusters = {}
    for region_id, region in regions.items():
        label = assignments.get(region_id, "unassigned")
        if label != "unassigned":
            clusters.setdefault(label, []).append(region)
    assigned = {}
    for region_id, label in assignments.items():
        if label != "unassigned" and region_id in regions:
            assigned.setdefault(regions[region_id].image_id, []).append(regions[region_id])

    def cluster_purity(members, t):
        counts = {}
        for region in members:
            best, cls = 0.0, None
            for g in by_image.get(region.image_id, ()):
                value = iou(region.box, g.box)
                if value > best:
                    best, cls = value, g.class_name
            if cls is not None and best >= t:
                counts[cls] = counts.get(cls, 0) + 1
        if not counts:
            return 0.0, "background"
        majority = min(counts, key=lambda c: (-counts[c], c))
        return counts[majority] / len(members), majority

    unknown = {g.class_name for g in gt if not g.known_flag}
    relevant = [g for g in gt if g.class_name in unknown]
    curves = {}
    for t in thresholds:
        scored = sorted(
            ((label, cluster_purity(ms, t)[0]) for label, ms in clusters.items()),
            key=lambda item: (-item[1], item[0]),
        )
        points, total, covered = [], 0.0, set()
        for n, (label, p) in enumerate(scored, 1):
            total += p
            covered |= {
                i
                for i, g in enumerate(relevant)
                for r in clusters[label]
                if r.image_id == g.image_id and iou(r.box, g.box) >= t
            }
            points.append((len(covered) / len(relevant) if relevant else 0.0, total / n))
        curves[t] = points
    primary = thresholds[0]
    metrics = {f"auc_{t}": auc(curves[t]) for t in thresholds}
    hit_images = sum(
        any(iou(r.box, g.box) > 0.5 for r in assigned.get(image, ()) for g in boxes)
        for image, boxes in by_image.items()
    )
    metrics["corloc"] = 100.0 * hit_images / len(by_image) if by_image else 0.0

    eligible = sorted(set(assigned) & set(by_image))
    if len(eligible) < 2:
        metrics["corret"] = 0.0
    else:
        reps = np.stack([np.mean([r.feature for r in assigned[i]], axis=0) for i in eligible])
        norms = np.linalg.norm(reps, axis=1)
        unit = reps / np.where(norms > 0.0, norms, 1.0)[:, None]
        sims = unit @ unit.T
        classes = []
        for image in eligible:
            counts = {}
            for g in by_image[image]:
                counts[g.class_name] = counts.get(g.class_name, 0) + 1
            classes.append(min(counts, key=lambda c: (-counts[c], c)))
        classes = np.array(classes)
        k_eff = min(k, len(eligible) - 1)
        fractions = []
        for row in range(len(eligible)):
            order = np.argsort(-sims[row], kind="stable")
            neighbors = order[order != row][:k_eff]
            fractions.append(int(np.count_nonzero(classes[neighbors] == classes[row])) / k_eff)
        metrics["corret"] = 100.0 * float(np.mean(fractions))

    recalled = sum(
        any(iou(r.box, g.box) >= primary for r in assigned.get(g.image_id, ())) for g in gt
    )
    metrics[f"detrate_{primary}"] = 100.0 * recalled / len(gt) if gt else 0.0
    reports = []
    for label in sorted(clusters):
        p, majority = cluster_purity(clusters[label], primary)
        span = len({r.image_id for r in clusters[label]})
        reports.append((label, p, majority, len(clusters[label]), span))
    metrics["n_discovered"] = len(
        {m for _, p, m, _, span in reports if m in unknown and p >= purity_floor and span >= min_images}
    )
    metrics["corret_skipped_images"] = len({r.image_id for r in regions.values()} - set(assigned))
    return metrics, curves, reports


# Ground truth sits on images 0-4, and two boxes may share a cell (equal IoUs).
GT_BOXES = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 2), st.sampled_from(["a", "b", "k"])), max_size=12
)
# A region: image (5 has no ground truth), cell, shift, lower-half height, feature.
# The lower half of a cell has IoU exactly 0.5 with it. Features come from a small
# set, so images share representations and similarities tie.
REGIONS = st.lists(
    st.tuples(
        st.integers(0, 5), st.integers(0, 2), SHIFTS, st.booleans(),
        st.sampled_from([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.0, 0.0), (0.1, 0.7), (0.3, -0.2)]),
    ),
    min_size=1, max_size=24,
)
LABELS = st.sampled_from(["c0", "c1", "c2", "unassigned"])


@given(
    gt_boxes=GT_BOXES,
    corpus_regions=REGIONS,
    labels=st.lists(st.one_of(st.none(), LABELS), min_size=24, max_size=24),
    ghosts=st.lists(LABELS, max_size=3),
    order_seed=st.integers(0, 2**16),
    thresholds=st.sampled_from([(0.5, 0.2), (0.2,), (0.6, 0.5)]),
    purity_floor=st.sampled_from([0.0, 0.5, 1.0]),
    min_images=st.sampled_from([1, 2]),
    corret_k=st.sampled_from([1, 2, 10]),
)
@settings(max_examples=300, deadline=None)
def test_evaluate_run_equals_scalar_reference(
    gt_boxes, corpus_regions, labels, ghosts, order_seed, thresholds, purity_floor, min_images,
    corret_k,
):
    gt = [gt_box(f"i{image}", box(2.0 * cell), name, known=name == "k") for image, cell, name in gt_boxes]
    regions = {
        f"r{j}": make_region(
            f"r{j}", f"i{image}", list(feature),
            box=BoundingBox(2.0 * cell + shift, 0.0, 2.0 * cell + shift + 1.0, 0.5 if half else 1.0),
        )
        for j, (image, cell, shift, half, feature) in enumerate(corpus_regions)
    }
    rows = [(f"r{j}", label) for j, label in enumerate(labels[: len(regions)]) if label is not None]
    rows += [(f"ghost{j}", label) for j, label in enumerate(ghosts)]  # not in the corpus
    order = np.random.default_rng(order_seed).permutation(len(rows))
    assignments = dict(rows[i] for i in order)

    report = evaluate_run(
        assignments, table_of(regions.values()), gt_table_of(gt), iou_thresholds=thresholds, purity_floor=purity_floor,
        min_images=min_images, corret_k=corret_k,
    )
    metrics, curves, reports = reference_evaluate(
        assignments, regions, gt, thresholds, purity_floor, min_images, corret_k
    )
    assert repr(report.metrics) == repr(metrics)
    assert repr(report.curves) == repr(curves)
    got = [(c.label, c.purity, c.majority_class, c.size, c.image_span) for c in report.clusters]
    assert repr(got) == repr(reports)
