import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

import dualmem.consolidation
import dualmem.memory
import dualmem.stats
from dualmem.config import Config
from dualmem.consolidation import (
    LINK_BLOCK,
    ConsolidationRecord,
    build_affinity_graph,
    consolidate,
    merge_components,
    refine_slots,
    slot_links,
    slot_scores,
    train_slot_classifiers,
    whole_links,
)
from dualmem.memory import DecisionKind, DualMemory, RetrievalDecision, SemanticSlot, WorkingSlot
from dualmem.stats import LinearClassifier, train_lda, whiten

from conftest import identity_bg, make_region, random_bg, table_of


def memory_with_slots(slot_features, d=2, bg_count=100, image_per_region=True, **config_kwargs):
    """Build working memory through the public path: one slot per feature group.

    ``slot_features`` is a list of lists of vectors; groups are fed in order with
    an exact-match threshold impossible to hit across groups (features differ),
    so membership is controlled by feeding each group consecutively under a
    permissive threshold after seeding.
    """
    config_kwargs.setdefault("init_mode", "null")
    config = Config(d=d, **config_kwargs)
    features = [f for group in slot_features for f in group]
    images = [f"img{rid}" if image_per_region else "img0" for rid in range(len(features))]
    corpus = table_of([make_region(f"r{rid}", images[rid], f) for rid, f in enumerate(features)], d)
    mem = DualMemory.initialize(identity_bg(d, count=bg_count), config, corpus, None)
    rid = 0
    for group in slot_features:
        mem.config.tau_working = 2.0  # unreachable: force a fresh slot for the seed
        mem.process_image([rid])
        slot = mem.working[-1]
        for row in range(rid + 1, rid + len(group)):
            # Deterministic direct update keeps the fixture in the intended slot.
            mem.apply_decision(RetrievalDecision(DecisionKind.WORKING_MATCH, slot.slot_id, 1.0), row)
        rid += len(group)
    mem.config.tau_working = 0.7
    return mem


def reference_affinity(mem):
    """The (k, k) symmetrised cross-firing of the working slots, built whole from ``slot_scores``."""
    white, offset = slot_scores(mem)
    fired = white @ white.T + offset[:, None]
    return 0.5 * (fired + fired.T)


def linked_pairs(adjacency):
    """The pairs (i, j), i < j, of a boolean (k, k) adjacency, in row-major order: what ``slot_links`` returns."""
    return np.argwhere(np.triu(adjacency, 1))


@contextlib.contextmanager
def counting_whole_links():
    """Counts the calls of ``whole_links``, the fallback ``slot_links`` takes when a pair is within its margin."""
    calls = []

    def spy(*args):
        calls.append(args)
        return whole_links(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dualmem.consolidation, "whole_links", spy)
        yield calls


class TestSlotClassifiers:
    def test_centroid_at_background_mean_gives_zero_weights(self):
        mem = memory_with_slots([[np.array([0.0, 0.0])]])
        classifiers = train_slot_classifiers(mem)
        clf = classifiers[mem.working[0].slot_id]
        np.testing.assert_array_equal(clf.weights, np.zeros(2))

    def test_identical_centroids_identical_classifiers(self):
        f = np.array([3.0, 1.0])
        mem = memory_with_slots([[f.copy()], [f.copy()]])
        classifiers = train_slot_classifiers(mem)
        a, b = (classifiers[s.slot_id] for s in mem.working)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_matches_closed_form_oracle(self):
        mem = memory_with_slots([[np.array([2.0, 0.0])]], bg_count=1)
        # bg_count 1 with slot count 1 zeroes the prior term: b = -0.5 w.(mu+ + mu-).
        clf = train_slot_classifiers(mem)[mem.working[0].slot_id]
        np.testing.assert_allclose(clf.weights, [2.0, 0.0], atol=1e-12)
        assert clf.bias == pytest.approx(-2.0, abs=1e-12)


class TestAffinityGraph:
    def test_opposite_slots_have_no_edge(self):
        mem = memory_with_slots([[np.array([10.0, 0.0])], [np.array([-10.0, 0.0])]])
        graph = build_affinity_graph(mem, train_slot_classifiers(mem))
        assert graph.edges == []
        assert len(graph.nodes) == 2

    def test_no_self_edges(self):
        mem = memory_with_slots([[np.array([10.0, 0.0])]])
        graph = build_affinity_graph(mem, train_slot_classifiers(mem))
        assert graph.edges == []

    def test_coincident_slots_fire_on_each_other(self):
        f = np.array([10.0, 0.0])
        mem = memory_with_slots([[f.copy()], [f.copy()]])
        classifiers = train_slot_classifiers(mem)
        graph = build_affinity_graph(mem, classifiers)
        assert len(graph.edges) == 1
        i, j, weight = graph.edges[0]
        self_score = classifiers[i].score(f)
        assert weight == pytest.approx(self_score, rel=1e-12)
        assert weight > 0

    def test_an_affinity_equal_to_the_threshold_is_no_edge(self):
        """The oracle, like merge, links a pair only when its affinity exceeds merge_edge_threshold."""
        mem = memory_with_slots([[np.array([10.0, 0.0])], [np.array([9.0, 1.0])]], merge_edge_threshold=-1e9)
        classifiers = train_slot_classifiers(mem)
        ((_, _, weight),) = build_affinity_graph(mem, classifiers).edges
        mem.config.merge_edge_threshold = weight
        assert build_affinity_graph(mem, classifiers).edges == []
        mem.config.merge_edge_threshold = float(np.nextafter(weight, -np.inf))
        assert len(build_affinity_graph(mem, classifiers).edges) == 1

    def test_weights_symmetric_by_construction(self):
        mem = memory_with_slots(
            [[np.array([8.0, 0.0])], [np.array([7.0, 2.0])], [np.array([6.0, -1.0])]],
            merge_edge_threshold=-1e9,
        )
        classifiers = train_slot_classifiers(mem)
        graph = build_affinity_graph(mem, classifiers)
        slots = {s.slot_id: s for s in mem.working}
        for i, j, weight in graph.edges:
            expected = 0.5 * (
                classifiers[i].score(slots[j].centroid)
                + classifiers[j].score(slots[i].centroid)
            )
            assert weight == pytest.approx(expected, rel=1e-12)


class TestMerge:
    def test_edgeless_graph_unchanged(self):
        mem = memory_with_slots([[np.array([10.0, 0.0])], [np.array([-10.0, 0.0])]])
        slots_before = [(s.slot_id, list(s.rows)) for s in mem.working]
        merge_components(mem, slot_links(mem))
        assert [(s.slot_id, list(s.rows)) for s in mem.working] == slots_before

    def test_mutually_firing_slots_pool(self):
        groups = [
            [np.array([10.0, 0.0]), np.array([10.5, 0.0])],
            [np.array([9.5, 0.5]), np.array([10.0, 0.5])],
        ]
        mem = memory_with_slots(groups)
        all_feats = np.vstack([np.stack(g) for g in groups])
        graph = build_affinity_graph(mem, train_slot_classifiers(mem))
        assert len(graph.edges) == 1
        merge_components(mem, slot_links(mem))
        assert len(mem.working) == 1
        slot = mem.working[0]
        assert slot.count == 4
        np.testing.assert_allclose(slot.centroid, all_feats.mean(axis=0), atol=1e-12)
        assert slot.slot_id == 0

    def test_an_affinity_equal_to_the_threshold_links_nothing(self):
        """Merge links a pair only when its affinity exceeds merge_edge_threshold, not when it equals it."""
        groups = [[np.array([10.0, 0.0])], [np.array([9.0, 1.0])]]
        edge = reference_affinity(memory_with_slots(groups))[0, 1]
        for threshold, slots_after in ((edge, 2), (np.nextafter(edge, -np.inf), 1)):
            mem = memory_with_slots(
                groups, consolidation_mode="merge", merge_edge_threshold=float(threshold), min_images_per_slot=1
            )
            assert consolidate(mem).slots_after_merge == slots_after

    def test_chain_merges_transitively(self):
        mem = memory_with_slots(
            [[np.array([9.0, 0.0])], [np.array([10.0, 0.0])], [np.array([11.0, 0.0])]]
        )
        merge_components(mem, slot_links(mem))
        assert len(mem.working) == 1
        assert mem.working[0].count == 3

    def test_conserves_sample_multiset(self):
        rng = np.random.default_rng(0)
        groups = [
            [rng.standard_normal(2) + np.array([8.0, 0.0]) for _ in range(3)],
            [rng.standard_normal(2) + np.array([8.5, 0.5]) for _ in range(4)],
            [rng.standard_normal(2) + np.array([-8.0, 0.0]) for _ in range(2)],
        ]
        mem = memory_with_slots(groups)
        before = sorted(r for s in mem.working for r in s.rows)
        merge_components(mem, slot_links(mem))
        after = sorted(r for s in mem.working for r in s.rows)
        assert before == after

    def test_random_graphs_match_union_find(self):
        def union_find(nodes, edges):
            parent = {n: n for n in nodes}

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for i, j, _ in edges:
                ri, rj = find(i), find(j)
                parent[max(ri, rj)] = min(ri, rj)
            groups = {}
            for n in sorted(nodes):
                groups.setdefault(find(n), []).append(n)
            return list(groups.values())

        rng = np.random.default_rng(12)
        for _ in range(30):
            k = int(rng.integers(1, 15))
            mem = memory_with_slots([[f] for f in rng.standard_normal((k, 2)) * 5.0])
            nodes = [s.slot_id for s in mem.working]
            p_edge = rng.uniform(0.0, 0.4)
            adjacency = np.zeros((k, k), dtype=bool)
            edges = []
            for i in range(k):
                for j in range(i + 1, k):
                    if rng.uniform() < p_edge:
                        adjacency[i, j] = True
                        edges.append((nodes[i], nodes[j], 1.0))
            members = {s.slot_id: list(s.rows) for s in mem.working}
            expected = [
                (component[0], [r for slot_id in component for r in members[slot_id]])
                for component in union_find(nodes, edges)
            ]
            assert merge_components(mem, linked_pairs(adjacency)) == len(expected)
            assert [(s.slot_id, s.rows) for s in mem.working] == expected


class TestRefine:
    def test_all_positive_slot_untouched(self):
        mem = memory_with_slots([[np.array([10.0, 0.0]), np.array([10.5, 0.0])]])
        centroid_before = mem.working[0].centroid.copy()
        dropped = refine_slots(mem)
        assert dropped == 0
        np.testing.assert_array_equal(mem.working[0].centroid, centroid_before)

    def test_sample_at_background_mean_removed(self):
        group = [np.array([10.0, 0.0]), np.array([10.0, 0.0]), np.array([0.0, 0.0])]
        mem = memory_with_slots([group])
        classifiers = train_slot_classifiers(mem)
        clf = classifiers[mem.working[0].slot_id]
        assert clf.score(np.zeros(2)) < 0
        dropped = refine_slots(mem)
        assert dropped == 1
        slot = mem.working[0]
        assert slot.count == 2
        np.testing.assert_allclose(slot.centroid, [10.0, 0.0], atol=1e-12)

    def test_retained_samples_all_score_nonnegative(self):
        rng = np.random.default_rng(1)
        groups = [
            [rng.standard_normal(2) * 3 + np.array([6.0, 0.0]) for _ in range(6)],
            [rng.standard_normal(2) * 3 for _ in range(5)],
        ]
        mem = memory_with_slots(groups)
        classifiers = train_slot_classifiers(mem)
        refine_slots(mem)
        for slot in mem.working:
            clf = classifiers[slot.slot_id]
            scores = [clf.score(mem.corpus.features[row]) for row in slot.rows]
            assert min(scores) >= 0.0

    def test_a_member_scoring_exactly_zero_is_kept(self, monkeypatch):
        """Refine keeps a member whose score is >= 0: offsets that cancel each member's product exactly."""
        white = np.array([[1.0, 1.0]])
        for offset, dropped, rows in ((-2.0, 0, [[0, 1]]), (np.nextafter(-2.0, -np.inf), 2, [])):
            mem = memory_with_slots([[np.array([2.0, 0.0]), np.array([0.0, 2.0])]])
            assert (mem.white[mem.working[0].rows] @ white[0]).tolist() == [2.0, 2.0]
            monkeypatch.setattr(dualmem.consolidation, "slot_scores", lambda mem, o=offset: (white, np.array([o])))
            assert refine_slots(mem) == dropped
            assert [s.rows for s in mem.working] == rows

    def test_fully_negative_slot_deleted(self):
        mem = memory_with_slots([[np.array([0.0, 0.01])]])
        # Classifier at a near-background centroid scores its own sample below zero.
        classifiers = train_slot_classifiers(mem)
        assert classifiers[mem.working[0].slot_id].score(np.array([0.0, 0.01])) < 0
        refine_slots(mem)
        assert mem.working == []


class TestConsolidate:
    def test_empty_working_memory_noop(self):
        mem = memory_with_slots([])
        record = consolidate(mem, round_index=1)
        assert record.slots_transferred == 0
        assert mem.working == [] and mem.semantic == []

    def test_transfers_and_resets(self):
        groups = [[np.array([10.0, 0.0]) + np.array([0.0, 0.1 * j]) for j in range(6)]]
        mem = memory_with_slots(groups, min_images_per_slot=5)
        record = consolidate(mem, round_index=2)
        assert mem.working == []
        assert record.slots_transferred == 1
        assert len(mem.semantic) == 1
        slot = mem.semantic[0]
        assert slot.label == "disc_2_0"
        expected = train_lda(slot.mean, slot.count, mem.bg)
        np.testing.assert_array_equal(slot.classifier.weights, expected.weights)

    def test_min_image_filter_drops_narrow_slots(self):
        groups = [[np.array([10.0, 0.0]) for _ in range(4)]]
        mem = memory_with_slots(groups, min_images_per_slot=5)
        record = consolidate(mem)
        assert record.slots_transferred == 0
        assert record.slots_dropped_min_images == 1
        assert mem.semantic == []

    def test_single_image_slot_dropped(self):
        groups = [[np.array([10.0, 0.0]) for _ in range(8)]]
        mem = memory_with_slots(groups, image_per_region=False, min_images_per_slot=5)
        record = consolidate(mem)
        assert record.slots_transferred == 0

    def test_naive_equals_merge_on_edgeless_fixture(self):
        def build(mode):
            groups = [
                [np.array([10.0, 0.0]) + np.array([0.0, 0.01 * j]) for j in range(5)],
                [np.array([-10.0, 0.0]) + np.array([0.0, 0.01 * j]) for j in range(5)],
            ]
            mem = memory_with_slots(groups, consolidation_mode=mode, min_images_per_slot=2)
            consolidate(mem, round_index=1)
            return mem

        naive, merged = build("naive"), build("merge")
        assert [s.label for s in naive.semantic] == [s.label for s in merged.semantic]
        for a, b in zip(naive.semantic, merged.semantic):
            np.testing.assert_array_equal(a.mean, b.mean)
            np.testing.assert_array_equal(a.classifier.weights, b.classifier.weights)
            assert a.classifier.bias == b.classifier.bias
            assert a.rows == b.rows

    def test_all_modes_empty_working_memory(self):
        for mode in ("naive", "merge", "merge_refine"):
            groups = [[np.array([9.0, 0.0]) + np.array([0.0, 0.1 * j]) for j in range(6)]]
            mem = memory_with_slots(groups, consolidation_mode=mode)
            consolidate(mem)
            assert mem.working == []

    def test_semantic_never_shrinks(self):
        groups = [[np.array([9.0, 0.0]) + np.array([0.0, 0.1 * j]) for j in range(6)]]
        mem = memory_with_slots(groups, consolidation_mode="merge_refine", min_images_per_slot=2)
        before = len(mem.semantic)
        consolidate(mem)
        assert len(mem.semantic) >= before

    def test_deterministic(self):
        def run():
            groups = [
                [np.array([10.0, 0.0]), np.array([10.2, 0.1])],
                [np.array([9.8, -0.1]), np.array([10.1, 0.0])],
            ]
            mem = memory_with_slots(groups, consolidation_mode="merge_refine", min_images_per_slot=1)
            consolidate(mem, round_index=1)
            return [(s.label, s.mean.tobytes(), tuple(s.rows)) for s in mem.semantic]

        assert run() == run()


def random_working_memory(seed, d, k, threshold):
    """``k`` working slots of 1-5 members over a random background, placed so that
    cross-firing affinities and member scores fall on both sides of their thresholds.

    Points are drawn in whitened space and mapped to features through the
    background's factor; some slots sit near an earlier one.
    """
    rng = np.random.default_rng(seed)
    bg = random_bg(rng, d)
    centers = []
    for i in range(k):
        if i and rng.random() < 0.4:
            center = centers[rng.integers(i)] + rng.standard_normal(d) * rng.uniform(0.0, 1.5)
        else:
            direction = rng.standard_normal(d)
            center = direction / np.linalg.norm(direction) * rng.uniform(0.0, 8.0)
        centers.append(center)
    points, sizes = [], rng.integers(1, 6, size=k)
    for center, size in zip(centers, sizes):
        points += [center + rng.standard_normal(d) * rng.uniform(0.0, 2.0) for _ in range(size)]
    features = bg.mean + np.array(points) @ bg.chol_lower.T
    config = Config(d=d, init_mode="null", min_images_per_slot=1)
    # Set after construction: a config file refuses the +-inf thresholds that pin "link no pair" and
    # "link every pair", but consolidation reads the field as it is.
    config.merge_edge_threshold = threshold
    mem = DualMemory(bg, config, table_of([make_region(f"r{i}", f"img{i}", f) for i, f in enumerate(features)], d))
    starts = np.concatenate([[0], np.cumsum(sizes)]).tolist()
    for slot_id, (start, end) in enumerate(zip(starts, starts[1:])):
        rows = list(range(start, end))
        mem.working.append(WorkingSlot(slot_id, mem.corpus.features[rows].mean(axis=0), rows))
    mem.next_slot_id = k
    mem.rebuild_caches()
    return mem


def _forbidden(*args, **kwargs):
    raise AssertionError("consolidation built a classifier")


@given(
    seed=st.integers(0, 2**32 - 1), d=st.integers(1, 40), k=st.integers(1, 12),
    threshold=st.sampled_from([0.0, 0.0, -3.0, 2.0]),
)
@settings(max_examples=200, deadline=None)
def test_whitened_consolidation_matches_the_classifier_oracle(seed, d, k, threshold):
    """The whitened affinities, member scores, edges and refine drops equal the per-slot classifiers'.

    Edges and keep decisions are compared wherever the oracle's value is more
    than 1e-9 from its threshold; the two paths round differently by about 1e-15.
    """
    mem = random_working_memory(seed, d, k, threshold)
    ids = [s.slot_id for s in mem.working]
    classifiers = train_slot_classifiers(mem)
    mem.config.merge_edge_threshold = -np.inf  # every pair becomes an oracle edge with its affinity
    pairs = build_affinity_graph(mem, classifiers).edges
    mem.config.merge_edge_threshold = threshold

    affinity = reference_affinity(mem)
    assert affinity.shape == (k, k)
    np.testing.assert_array_equal(affinity, affinity.T)
    np.testing.assert_array_equal(slot_links(mem), linked_pairs(affinity > threshold))
    oracle = np.array([weight for _, _, weight in pairs])
    whitened = np.array([affinity[ids.index(i), ids.index(j)] for i, j, _ in pairs])
    scale = max(1.0, float(np.abs(oracle).max(initial=0.0)))
    np.testing.assert_allclose(whitened, oracle, rtol=1e-12, atol=1e-12 * scale)
    clear = np.abs(oracle - threshold) > 1e-9
    assert ((whitened > threshold) == (oracle > threshold))[clear].all()

    members = {s.slot_id: list(s.rows) for s in mem.working}
    whites, offsets = slot_scores(mem)
    refine_slots(mem)
    retained = {s.slot_id: set(s.rows) for s in mem.working}
    for (slot_id, rows), white, offset in zip(members.items(), whites, offsets):
        scores = np.array([classifiers[slot_id].score(f) for f in mem.corpus.features[rows]])
        scale = max(1.0, float(np.abs(scores).max()))
        np.testing.assert_allclose(mem.white[rows] @ white + offset, scores, rtol=1e-12, atol=1e-12 * scale)
        kept = np.array([row in retained.get(slot_id, ()) for row in rows])
        clear = np.abs(scores) > 1e-9
        assert ((scores >= 0.0) == kept)[clear].all()

    mem = random_working_memory(seed, d, k, threshold)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LinearClassifier, "__init__", _forbidden)
        for module in (dualmem.stats, dualmem.memory, dualmem.consolidation):
            patch.setattr(module, "train_lda", _forbidden)
        record = consolidate(mem)
    assert record.slots_before == k and mem.working == []


@given(
    seed=st.integers(0, 2**32 - 1), d=st.integers(1, 12),
    k=st.sampled_from([1, 2, LINK_BLOCK - 1, LINK_BLOCK, LINK_BLOCK + 1, 2 * LINK_BLOCK + 3]),
    pair=st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)),
    below=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_slot_links_equal_the_thresholded_affinity_bit_for_bit(seed, d, k, pair, below):
    """Row blocks give the links of the whole symmetrised matrix, at any k and at the threshold.

    The threshold is an affinity that some pair achieves, or the float just
    below it, so that pair sits on the boundary and must not link, or must;
    a pair that close to the threshold is within the screen's margin, so the
    call falls back to the whole product. A pair (i, i) is never a link.
    """
    i, j = sorted((pair[0] % k, pair[1] % k))
    mem = random_working_memory(seed, d, k, 0.0)
    affinity = reference_affinity(mem)
    threshold = np.nextafter(affinity[i, j], -np.inf) if below else affinity[i, j]
    mem.config.merge_edge_threshold = float(threshold)
    with counting_whole_links() as fallbacks:
        links = slot_links(mem)
    assert links.dtype == np.intp and links.shape[1:] == (2,)
    np.testing.assert_array_equal(links, linked_pairs(affinity > threshold))
    assert ([i, j] in links.tolist()) == (below and i != j)
    if i != j:
        assert len(fallbacks) == 1


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 40), k=st.sampled_from([2, LINK_BLOCK + 1, 3 * LINK_BLOCK + 5]),
       threshold=st.sampled_from([-3.0, 0.0, 2.0]))
@settings(max_examples=60, deadline=None)
def test_screened_links_need_no_fallback_away_from_the_threshold(seed, d, k, threshold):
    """Random affinities lie far from the threshold for the margin, so the blocks decide every pair."""
    mem = random_working_memory(seed, d, k, threshold)
    with counting_whole_links() as fallbacks:
        links = slot_links(mem)
    np.testing.assert_array_equal(links, linked_pairs(reference_affinity(mem) > threshold))
    assert fallbacks == []


def test_consolidate_holds_one_affinity_product():
    """numpy reports its buffers to tracemalloc: the peak stays below half of one (k, k) float64 matrix."""
    k = 1_000
    mem = random_working_memory(1, 16, k, 0.0)
    tracemalloc.start()
    try:
        consolidate(mem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * k * k * 8


def test_consolidate_calls_merge_and_refine_by_their_module_names(monkeypatch):
    """The benchmark times merge and refine by replacing these module attributes, so ``consolidate`` must look
    them up there at each call."""
    calls = []
    for name in ("merge_components", "refine_slots"):
        original = getattr(dualmem.consolidation, name)
        monkeypatch.setattr(
            dualmem.consolidation, name, lambda *args, name=name, original=original: calls.append(name) or original(*args)
        )
    mem = random_working_memory(4, 6, 12, 0.0)
    mem.config.consolidation_mode = "merge_refine"
    consolidate(mem)
    assert calls == ["merge_components", "refine_slots"]


# -- bit-level oracle: merge, refine and transfer as written before the edge-list merge --


def reference_merge_components(mem, linked):
    _, labels = connected_components(csr_array(linked), directed=False)  # a dense graph is validated slowly
    components = {}
    for slot, label in zip(mem.working, labels.tolist()):  # working memory is sorted by slot_id
        components.setdefault(label, []).append(slot)
    merged = []
    for component in components.values():
        if len(component) == 1:
            merged.append(component[0])
            continue
        rows = [row for slot in component for row in slot.rows]
        merged.append(WorkingSlot(component[0].slot_id, mem.corpus.features[rows].mean(axis=0), rows))
    mem.working = merged  # components run in order of their smallest slot_id
    mem.rebuild_caches()
    return len(merged)


def reference_refine_slots(mem):
    retained_slots = []
    dropped = 0
    for slot, white, offset in zip(mem.working, *slot_scores(mem)):
        keep = mem.white[slot.rows] @ white + offset >= 0.0
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


def reference_consolidate(mem, round_index=1):
    mode = mem.config.consolidation_mode
    slots_before = len(mem.working)
    slots_after_merge = slots_before
    samples_dropped = 0

    if mode in ("merge", "merge_refine") and mem.working:
        linked = reference_affinity(mem) > mem.config.merge_edge_threshold
        slots_after_merge = reference_merge_components(mem, linked)
    if mode == "merge_refine" and mem.working:
        samples_dropped = reference_refine_slots(mem)

    corpus = mem.corpus
    kept = [
        slot for slot in mem.working
        if len(set(corpus.image_of(slot.rows))) >= mem.config.min_images_per_slot
    ]
    dropped_small = len(mem.working) - len(kept)
    whites = whiten(np.reshape([slot.centroid for slot in kept], (-1, mem.bg.d)), mem.bg)
    for sequence, (slot, white) in enumerate(zip(kept, whites)):
        label = f"disc_{round_index}_{sequence}"
        mem.semantic.append(SemanticSlot(slot.slot_id, label, white, mem.bg, slot.rows))
    mem.semantic.sort(key=lambda s: s.slot_id)
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


def working_bits(mem):
    """Each working slot's id, rows and centroid bytes, in memory order."""
    return [(s.slot_id, list(s.rows), s.centroid.tobytes()) for s in mem.working]


def semantic_bits(mem):
    """Each semantic slot's id, label, whitened-mean bytes and member rows, and the stacked score rows."""
    slots = [(s.slot_id, s.label, s.white.tobytes(), list(s.rows)) for s in mem.semantic]
    return slots, mem._sem_white.tobytes(), mem._sem_offset.tobytes()


@given(
    seed=st.integers(0, 2**32 - 1), d=st.integers(1, 12), k=st.integers(1, 12),
    threshold=st.sampled_from([1e9, np.inf, 0.0, -3.0, 2.0, -np.inf]),
    mode=st.sampled_from(["merge", "merge_refine"]),
    min_images=st.integers(1, 3),
)
@settings(max_examples=200, deadline=None)
def test_consolidation_is_bit_identical_to_the_reference(seed, d, k, threshold, mode, min_images):
    """Merge, refine and consolidate give the reference's slots, rows and float bytes.

    Thresholds of 1e9 and inf link no pair, so merge must leave working memory
    as it is; -inf links every pair; the others link some.
    """
    def twins():
        mems = [random_working_memory(seed, d, k, threshold) for _ in range(2)]
        for m in mems:
            m.config.consolidation_mode = mode
            m.config.min_images_per_slot = min_images
        return mems

    mem, ref = twins()
    pairs = slot_links(mem)
    adjacency = reference_affinity(ref) > threshold
    np.testing.assert_array_equal(pairs, linked_pairs(adjacency))
    assert merge_components(mem, pairs) == reference_merge_components(ref, adjacency)
    assert working_bits(mem) == working_bits(ref)
    if not len(pairs):
        assert len(mem.working) == k
    assert refine_slots(mem) == reference_refine_slots(ref)
    assert working_bits(mem) == working_bits(ref)

    mem, ref = twins()
    assert consolidate(mem, round_index=2) == reference_consolidate(ref, round_index=2)
    assert mem.working == ref.working == []
    assert semantic_bits(mem) == semantic_bits(ref)
