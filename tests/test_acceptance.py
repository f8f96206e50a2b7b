"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The synthetic end-to-end thresholds were frozen after a calibration sweep
(several data/config seed pairs) cross-checked against the nearest-mean
oracle; the oracle check is kept inline so the frozen corpus stays honest.
"""

import time

import numpy as np
import pytest

from dualmem.cli import main as cli_main
from dualmem.config import Config, save_config
from dualmem.consolidation import build_affinity_graph, consolidate, merge_components, refine_slots, slot_affinity, train_slot_classifiers
from dualmem.corpus import ingest_corpus, open_corpus
from dualmem.evaluation import (
    auc,
    clusters_from_assignments,
    corloc,
    count_discovered,
    cumulative_purity_curve,
    detrate,
    iou,
    load_gt,
    report_clusters,
)
from dualmem.memory import DecisionKind, DualMemory
from dualmem.pipeline import build_priors, estimate_background, run_discovery
from dualmem.records import BoundingBox
from dualmem.stats import BackgroundStats, MomentAccumulator, train_lda
from dualmem.synth import SynthSpec, class_means, generate, kmeans_baseline

from conftest import GtBox, gt_table_of, make_region, table_of
from test_evaluation import clustered, curve_fixture

DATA_SEED = 20
CONFIG_SEED = 9


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def frozen_spec(separation: float = 8.0) -> SynthSpec:
    return SynthSpec(
        d=32,
        n_known=5,
        n_unknown=10,
        images=2000,
        n_background_per_image=3,
        classes_per_image=3,
        regions_per_class_per_image=2,
        separation=separation,
        std=1.0,
        seed=DATA_SEED,
    )


def frozen_config(**overrides) -> Config:
    base = dict(d=32, rounds=2, rng_seed=CONFIG_SEED)
    base.update(overrides)
    return Config(**base)


def discover_on(paths, config):
    corpus = ingest_corpus(paths["corpus"], config)
    bg = estimate_background(corpus, config)
    priors = None
    if config.init_mode == "det_scores":
        priors = build_priors(config, detections=open_corpus(paths["priors"]))
    run = run_discovery(corpus, bg, config, priors)
    return run, corpus


@pytest.fixture(scope="module")
def frozen_run(tmp_path_factory):
    """Criterion 6's timed pipeline; criterion 7 reuses the same corpus."""
    root = tmp_path_factory.mktemp("frozen")
    start = time.perf_counter()

    paths = generate(frozen_spec(), root / "data")
    gt = load_gt(paths["gt"])
    run, regions = discover_on(paths, frozen_config())
    clusters = clusters_from_assignments(run.assignments, regions)
    engine_auc = auc(cumulative_purity_curve(clusters, regions, gt, 0.5))
    n_discovered = count_discovered(clusters, regions, gt, 0.5, min_images=5)

    k = int(run.stats["clusters_final"])
    km_assignments, _, _ = kmeans_baseline(regions, k, seed=CONFIG_SEED)
    km_clusters = clusters_from_assignments(km_assignments, regions)
    km_auc = auc(cumulative_purity_curve(km_clusters, regions, gt, 0.5))

    paths12 = generate(frozen_spec(separation=12.0), root / "data12")
    gt12 = load_gt(paths12["gt"])
    run12, regions12 = discover_on(paths12, frozen_config())
    clusters12 = clusters_from_assignments(run12.assignments, regions12)
    transferred = [
        r for r in report_clusters(clusters12, regions12, gt12, 0.5) if r.label.startswith("disc_")
    ]

    elapsed = time.perf_counter() - start
    return {
        "paths": paths,
        "gt": gt,
        "engine_auc": engine_auc,
        "km_auc": km_auc,
        "k": k,
        "n_discovered": n_discovered,
        "transferred12": transferred,
        "elapsed": elapsed,
    }


# ---------------------------------------------------------------------------
# 1. Streaming-oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_1_streaming_oracle_equivalence():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((10_000, 64)) * 2.0 + rng.standard_normal(64)

    start = time.perf_counter()
    sequential = MomentAccumulator(64).add_batch(X)
    chunks = np.array_split(X, 8)
    parts = [MomentAccumulator(64).add_batch(chunk) for chunk in chunks]
    order = rng.permutation(8)
    merged = parts[order[0]]
    for idx in order[1:]:
        merged = merged.merge(parts[idx])
    elapsed = time.perf_counter() - start

    mean_oracle = X.mean(axis=0)
    centered = X - mean_oracle
    cov_oracle = centered.T @ centered / len(X)

    def rel(a, b):
        return np.linalg.norm(a - b) / (1.0 + np.linalg.norm(b))

    worst = max(
        rel(sequential.mean, mean_oracle),
        rel(sequential.m2 / sequential.count, cov_oracle),
        rel(merged.mean, mean_oracle),
        rel(merged.m2 / merged.count, cov_oracle),
    )
    report(
        "criterion 1 (streaming oracle)",
        worst < 1e-9 and elapsed < 5.0,
        f"max relative error {worst:.2e}, runtime {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. LDA closed form
# ---------------------------------------------------------------------------

def test_criterion_2_lda_closed_form():
    rng = np.random.default_rng(1)
    worst_solve = 0.0
    worst_mid = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 33))
        A = rng.standard_normal((d, d))
        sigma = A @ A.T / d + 0.05 * np.eye(d)
        mu_pos = rng.standard_normal(d) * 3
        mu_neg = rng.standard_normal(d)
        counts = (int(rng.integers(1, 500)), int(rng.integers(2, 500)))
        bg = BackgroundStats.from_moments(mu_neg, sigma, counts[1])
        clf = train_lda(mu_pos, counts[1], bg)  # equal priors for the midpoint check
        w_oracle = np.linalg.solve(sigma, mu_pos - mu_neg)
        worst_solve = max(
            worst_solve,
            float(np.abs(clf.weights - w_oracle).max() / (1.0 + np.abs(w_oracle).max())),
        )
        worst_mid = max(worst_mid, abs(clf.score((mu_pos + mu_neg) / 2.0)))
    report(
        "criterion 2 (LDA closed form)",
        worst_solve < 1e-8 and worst_mid < 1e-8,
        f"solve error {worst_solve:.2e}, midpoint score {worst_mid:.2e}",
    )


# ---------------------------------------------------------------------------
# 3. Engine invariants on a 1,000-image stream
# ---------------------------------------------------------------------------

def test_criterion_3_engine_invariants(tmp_path):
    spec = SynthSpec(
        d=16, n_known=2, n_unknown=5, images=1000, n_background_per_image=2,
        classes_per_image=2, regions_per_class_per_image=1, separation=8.0, std=1.0, seed=4,
    )
    paths = generate(spec, tmp_path / "data")
    config = Config(d=16, rng_seed=2)
    corpus = ingest_corpus(paths["corpus"], config)
    bg = estimate_background(corpus, config)
    priors = build_priors(config, detections=open_corpus(paths["priors"]))
    starts = corpus.image_starts.tolist()
    batches = [range(start, end) for start, end in zip(starts, starts[1:])]

    mem = DualMemory.initialize(bg, config, priors)
    mem.attach(corpus)
    for batch in batches:
        mem.process_image(batch)

    worst_centroid = 0.0
    for slot in mem.working:
        member_mean = np.mean([corpus.features[row] for row in slot.rows], axis=0)
        worst_centroid = max(
            worst_centroid,
            float(np.linalg.norm(slot.centroid - member_mean) / (1.0 + np.linalg.norm(member_mean))),
        )
    classifiers_exact = all(
        np.array_equal(s.classifier.weights, train_lda(s.mean, s.count, bg).weights)
        and s.classifier.bias == train_lda(s.mean, s.count, bg).bias
        for s in mem.semantic
    )

    capped = DualMemory.initialize(bg, Config(d=16, rng_seed=2, slot_cap=10), priors)
    capped.attach(corpus)
    rejected_decisions = 0
    cap_ok = True
    for i, batch in enumerate(batches):
        for decision in capped.process_image(batch):
            if decision.kind is DecisionKind.REJECTED:
                rejected_decisions += 1
        if i % 100 == 0:
            cap_ok = cap_ok and capped.total_slots <= 10
    cap_ok = cap_ok and capped.total_slots <= 10
    rejected_consistent = rejected_decisions == capped.rejected_count and rejected_decisions > 0

    report(
        "criterion 3 (engine invariants)",
        worst_centroid < 1e-7 and classifiers_exact and cap_ok and rejected_consistent,
        f"centroid drift {worst_centroid:.2e}, classifiers exact {classifiers_exact}, "
        f"cap held {cap_ok}, rejected {rejected_decisions}",
    )


# ---------------------------------------------------------------------------
# 4. Consolidation contracts
# ---------------------------------------------------------------------------

def test_criterion_4_consolidation_contracts():
    from test_consolidation import memory_with_slots

    groups = [
        [np.array([10.0, 0.0]) + np.array([0.0, 0.2 * j]) for j in range(4)],
        [np.array([9.5, 0.5]) + np.array([0.0, 0.2 * j]) for j in range(3)],
        [np.array([-10.0, 0.0]) + np.array([0.0, 0.2 * j]) for j in range(3)],
    ]
    mem = memory_with_slots(groups, min_images_per_slot=1)
    before = sorted(r for s in mem.working for r in s.rows)
    # The classifier path is the oracle of the whitened engine's edges and refine drops.
    graph = build_affinity_graph(mem, train_slot_classifiers(mem))
    linked = slot_affinity(mem) > mem.config.merge_edge_threshold
    ids = [s.slot_id for s in mem.working]
    edges_agree = {(ids[i], ids[j]) for i, j in zip(*np.nonzero(np.triu(linked, 1)))} == {
        (i, j) for i, j, _ in graph.edges
    }
    merge_components(mem, linked)
    conserved = sorted(r for s in mem.working for r in s.rows) == before

    classifiers = train_slot_classifiers(mem)
    members = {s.slot_id: list(s.rows) for s in mem.working}
    refine_slots(mem)
    retained = {s.slot_id: s.rows for s in mem.working}
    refine_ok = all(
        (classifiers[slot_id].score(mem.corpus.features[row]) >= 0.0) == (row in retained.get(slot_id, []))
        for slot_id, rows in members.items()
        for row in rows
    )

    def edgeless(mode):
        m = memory_with_slots(
            [
                [np.array([10.0, 0.0]) + np.array([0.0, 0.1 * j]) for j in range(4)],
                [np.array([-10.0, 0.0]) + np.array([0.0, 0.1 * j]) for j in range(4)],
            ],
            consolidation_mode=mode,
            min_images_per_slot=2,
        )
        consolidate(m, round_index=1)
        return [(s.label, s.mean.tobytes(), s.count, tuple(s.members)) for s in m.semantic]

    naive_equals_merge = edgeless("naive") == edgeless("merge")

    emptied = True
    for mode in ("naive", "merge", "merge_refine"):
        m = memory_with_slots(
            [[np.array([9.0, 0.0]) + np.array([0.0, 0.1 * j]) for j in range(5)]],
            consolidation_mode=mode,
        )
        consolidate(m)
        emptied = emptied and m.working == []

    report(
        "criterion 4 (consolidation contracts)",
        edges_agree and conserved and refine_ok and naive_equals_merge and emptied,
        f"edges match the classifiers {edges_agree}, conserved {conserved}, "
        f"refine matches the classifiers {refine_ok}, "
        f"naive==merge {naive_equals_merge}, emptied {emptied}",
    )


# ---------------------------------------------------------------------------
# 5. Metric hand-checks
# ---------------------------------------------------------------------------

def test_criterion_5_metric_hand_checks():
    clusters, gt = curve_fixture()
    curve = cumulative_purity_curve(*clustered(clusters), gt_table_of(gt), 0.5)
    curve_ok = curve == [(0.2, 1.0), (0.6, 0.75)]
    auc_ok = auc(curve) == 55.0

    iou_ok = iou(BoundingBox(0, 0, 10, 10), BoundingBox(5, 0, 15, 10)) == 50.0 / 150.0

    loc_gt = [
        GtBox(image_id="i0", box=BoundingBox(0, 0, 4, 4), class_name="a", known_flag=False),
        GtBox(image_id="i1", box=BoundingBox(0, 0, 4, 4), class_name="b", known_flag=False),
    ]
    loc_regions = {
        "r0": make_region("r0", "i0", [0.0], box=BoundingBox(0, 0, 4, 4)),
        "r1": make_region("r1", "i1", [0.0], box=BoundingBox(50, 0, 54, 4)),
    }
    corloc_ok = corloc({"r0": "c", "r1": "c"}, table_of(loc_regions.values()), gt_table_of(loc_gt)) == 50.0

    det_gt = [
        GtBox(image_id="i0", box=BoundingBox(2.0 * i, 0, 2.0 * i + 1, 1), class_name=f"u{i}", known_flag=False)
        for i in range(4)
    ]
    det_regions = {
        f"r{i}": make_region(f"r{i}", "i0", [0.0], box=det_gt[i].box) for i in range(3)
    }
    detrate_ok = detrate({f"r{i}": "c" for i in range(3)}, table_of(det_regions.values()), gt_table_of(det_gt), 0.5) == 75.0

    report(
        "criterion 5 (metric hand-checks)",
        curve_ok and auc_ok and iou_ok and corloc_ok and detrate_ok,
        f"curve {curve_ok}, auc55 {auc_ok}, iou1/3 {iou_ok}, corloc50 {corloc_ok}, detrate75 {detrate_ok}",
    )


# ---------------------------------------------------------------------------
# 6. Synthetic end-to-end ordering analogue
# ---------------------------------------------------------------------------

def test_criterion_6_end_to_end(frozen_run):
    fr = frozen_run

    # Nearest-mean oracle cross-check of the frozen corpus.
    spec = frozen_spec()
    means = class_means(spec)
    names = [f"known_{i:02d}" for i in range(5)] + [f"unknown_{i:02d}" for i in range(10)]
    index = {n: i for i, n in enumerate(names)}
    table = open_corpus(fr["paths"]["corpus"])
    feats, labels = [], []
    for feature, label in zip(table.features, table.gt_labels):
        if label:
            feats.append(feature)
            labels.append(index[label])
    X = np.stack(feats)
    d2 = ((X[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    oracle_acc = float((d2.argmin(axis=1) == np.asarray(labels)).mean())

    a_ok = fr["engine_auc"] >= fr["km_auc"]
    b_ok = fr["n_discovered"] >= 8
    c_ok = len(fr["transferred12"]) > 0 and all(r.purity == 1.0 for r in fr["transferred12"])
    time_ok = fr["elapsed"] < 60.0
    report(
        "criterion 6 (synthetic end-to-end)",
        a_ok and b_ok and c_ok and time_ok and oracle_acc >= 0.999,
        f"engine auc {fr['engine_auc']:.2f} >= kmeans {fr['km_auc']:.2f} (k={fr['k']}): {a_ok}; "
        f"discovered {fr['n_discovered']}/10: {b_ok}; 12-sigma purity 1.0: {c_ok}; "
        f"runtime {fr['elapsed']:.1f}s: {time_ok}; oracle acc {oracle_acc:.4f}",
    )


# ---------------------------------------------------------------------------
# 7. Ablation directions
# ---------------------------------------------------------------------------

def test_criterion_7_ablation_directions(frozen_run):
    fr = frozen_run
    gt = fr["gt"]

    run_null, regions_null = discover_on(fr["paths"], frozen_config(init_mode="null"))
    clusters_null = clusters_from_assignments(run_null.assignments, regions_null)
    null_discovered = count_discovered(clusters_null, regions_null, gt, 0.5, min_images=5)

    run_naive, regions_naive = discover_on(fr["paths"], frozen_config(consolidation_mode="naive"))
    clusters_naive = clusters_from_assignments(run_naive.assignments, regions_naive)
    naive_auc = auc(cumulative_purity_curve(clusters_naive, regions_naive, gt, 0.5))

    init_ok = fr["n_discovered"] >= null_discovered
    consolidation_ok = fr["engine_auc"] >= naive_auc
    report(
        "criterion 7 (ablation directions)",
        init_ok and consolidation_ok,
        f"det_scores {fr['n_discovered']} >= null {null_discovered}: {init_ok}; "
        f"merge_refine auc {fr['engine_auc']:.2f} >= naive {naive_auc:.2f}: {consolidation_ok}",
    )


# ---------------------------------------------------------------------------
# 8. Determinism
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    spec = SynthSpec(
        d=16, n_known=2, n_unknown=4, images=300, n_background_per_image=2,
        classes_per_image=2, regions_per_class_per_image=1, separation=8.0, std=1.0, seed=6,
    )
    from dualmem.synth import save_spec

    spec_path = tmp_path / "spec.txt"
    save_spec(spec, spec_path)
    assert cli_main(["gen", "--spec", str(spec_path), "--out", str(tmp_path / "data")]) == 0
    config = Config(d=16, min_images_per_slot=3, rounds=2, rng_seed=12)
    config_path = tmp_path / "config.txt"
    save_config(config, config_path)
    assert cli_main(["background", "--corpus", str(tmp_path / "data" / "corpus.jsonl"),
                     "--out", str(tmp_path / "bg")]) == 0

    outputs = []
    for name in ("run_a", "run_b"):
        run_dir = tmp_path / name
        assert cli_main([
            "discover",
            "--corpus", str(tmp_path / "data" / "corpus.jsonl"),
            "--bg", str(tmp_path / "bg" / "bg.bin"),
            "--config", str(config_path),
            "--priors", str(tmp_path / "data" / "priors.jsonl"),
            "--out", str(run_dir),
        ]) == 0
        eval_dir = tmp_path / f"{name}_eval"
        assert cli_main([
            "eval",
            "--corpus", str(tmp_path / "data" / "corpus.jsonl"),
            "--assignments", str(run_dir / "assignments.tsv"),
            "--gt", str(tmp_path / "data" / "gt.jsonl"),
            "--out", str(eval_dir),
        ]) == 0
        outputs.append((run_dir, eval_dir))

    (run_a, eval_a), (run_b, eval_b) = outputs
    identical = (
        (run_a / "assignments.tsv").read_bytes() == (run_b / "assignments.tsv").read_bytes()
        and (run_a / "stats.txt").read_bytes() == (run_b / "stats.txt").read_bytes()
        and (eval_a / "curve_0.5.csv").read_bytes() == (eval_b / "curve_0.5.csv").read_bytes()
        and (eval_a / "curve_0.2.csv").read_bytes() == (eval_b / "curve_0.2.csv").read_bytes()
    )
    report("criterion 8 (determinism)", identical, "assignments, stats, and curves byte-identical")
