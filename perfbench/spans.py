"""Span tracing for the benchmark's traced pass, applied from outside the package.

``instrument`` wraps the listed public functions and methods of the dualmem
modules, in every dualmem module namespace that imported them, and restores the
originals on exit. Each call becomes one span (id, parent id, name, start, end,
run id) kept in memory. A generator's resumptions are spans of their own, so a
lazy reader's time lands in the layer that did the work. ``layer_metrics``
turns the spans and the counts the hooks record into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

# (module, attribute) pairs wrapped in the traced pass. Per-region and per-box
# helpers (evaluation.iou, evaluation.label_region, records, config parsing) are
# left out: wrapping calls that cost a microsecond would measure the wrapper;
# their time shows as their caller's self time.
TARGETS = {
    "corpus": [
        "open_corpus", "read_corpus_dim", "ingest_corpus", "load_corpus",
        "write_corpus_jsonl", "write_corpus_binary", "convert_corpus", "split_dataset",
    ],
    "stats": [
        "MomentAccumulator.add", "MomentAccumulator.add_batch", "MomentAccumulator.merge",
        "finalize_background", "BackgroundStats.from_moments", "BackgroundStats.save",
        "BackgroundStats.load", "train_lda",
    ],
    "memory": [
        "DualMemory.initialize", "DualMemory.rebuild_caches", "DualMemory.retrieve",
        "DualMemory.apply_decision", "DualMemory.process_image", "DualMemory.mine_region",
        "DualMemory.save_checkpoint",
    ],
    "consolidation": [
        "train_slot_classifiers", "build_affinity_graph", "merge_components",
        "refine_slots", "consolidate",
    ],
    "pipeline": [
        "estimate_background", "build_priors", "run_discovery_round",
        "final_assignments", "run_discovery",
    ],
    "evaluation": [
        "write_gt", "load_gt", "clusters_from_assignments", "purity", "coverage",
        "cumulative_purity_curve", "auc", "corloc", "detrate", "corret",
        "report_clusters", "count_discovered", "evaluate_run",
    ],
    "synth": ["load_spec", "generate", "kmeans_baseline"],
    "reporting": [
        "write_assignments", "read_assignments", "write_key_values",
        "read_key_values", "write_curve_csv",
    ],
}

CORPUS_READ = ["corpus.open_corpus", "corpus.read_corpus_dim", "corpus.ingest_corpus", "corpus.load_corpus"]


class Tracer:
    """In-memory span store for one benchmark process."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float, str]] = []
        self.counts: Counter[str] = Counter()
        self.kmeans_histories: list[list[float]] = []
        self.run_id = ""
        self._ids = itertools.count()
        self._stack = [-1]

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1]
        span_id = next(self._ids)
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end, self.run_id))

    def write(self, path: Path) -> None:
        """One JSON array per span: [id, parent, name, start, end, run_id]."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _traced_stream(tracer: Tracer, name: str, stream):
    """Re-yield ``stream``, recording every resumption as a span named ``name``."""
    try:
        while True:
            with tracer.span(name):
                try:
                    item = next(stream)
                except StopIteration:
                    return
            tracer.counts[name + ".items"] += 1
            yield item
    finally:
        stream.close()


def _wrap_result(tracer: Tracer, name: str, result):
    if inspect.isgenerator(result):
        return _traced_stream(tracer, name, result)
    if isinstance(result, tuple) and any(inspect.isgenerator(x) for x in result):
        return tuple(_traced_stream(tracer, name, x) if inspect.isgenerator(x) else x for x in result)
    return result


def _wrap(tracer: Tracer, name: str, fn, hook):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            return _traced_stream(tracer, name, fn(*args, **kwargs))
        return traced_gen

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        # Inlined tracer.span: this wrapper runs on every retrieve and train_lda call.
        stack = tracer._stack
        parent = stack[-1]
        span_id = next(tracer._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            tracer.spans.append((span_id, parent, name, start, end, tracer.run_id))
        if hook is not None:
            hook(tracer, args, result)
        return _wrap_result(tracer, name, result)
    return traced


# -- hooks: counts recorded where the work happens ----------------------------

def _on_retrieve(tracer, args, decision):
    tracer.counts["memory." + decision.kind.value] += 1


def _on_mine(tracer, args, accepted):
    tracer.counts["memory.mine_accepted"] += int(accepted)


def _on_checkpoint(tracer, args, _):
    tracer.counts["memory.checkpoint_bytes"] += os.path.getsize(args[1])


def _on_affinity(tracer, args, graph):
    tracer.counts["consolidation.edges"] += len(graph.edges)


def _on_consolidate(tracer, args, record):
    tracer.counts["consolidation.slots_before"] += record.slots_before
    tracer.counts["consolidation.slots_transferred"] += record.slots_transferred


def _on_clusters(tracer, args, clusters):
    tracer.counts["evaluation.clusters"] += len(clusters)


def _on_kmeans(tracer, args, result):
    history = list(result[2])
    tracer.kmeans_histories.append(history)
    tracer.counts["synth.kmeans_iterations"] += len(history)
    tracer.counts["synth.kmeans_k"] += args[1]


HOOKS = {
    "memory.DualMemory.retrieve": _on_retrieve,
    "memory.DualMemory.mine_region": _on_mine,
    "memory.DualMemory.save_checkpoint": _on_checkpoint,
    "consolidation.build_affinity_graph": _on_affinity,
    "consolidation.consolidate": _on_consolidate,
    "evaluation.clusters_from_assignments": _on_clusters,
    "synth.kmeans_baseline": _on_kmeans,
}


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every target for the duration of the block; restore the originals after."""
    restore: list[tuple[object, str, object]] = []
    try:
        for module_name, attrs in TARGETS.items():
            module = importlib.import_module(f"dualmem.{module_name}")
            for attr in attrs:
                name = f"{module_name}.{attr}"
                owner_name, _, member = attr.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    raw = owner.__dict__[member]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(_wrap(tracer, name, raw.__func__, HOOKS.get(name)))
                    else:
                        wrapped = _wrap(tracer, name, raw, HOOKS.get(name))
                    restore.append((owner, member, raw))
                    setattr(owner, member, wrapped)
                    continue
                original = getattr(module, member)
                wrapped = _wrap(tracer, name, original, HOOKS.get(name))
                # Rebind in every dualmem namespace that imported the function by name.
                for other in list(sys.modules.values()):
                    other_name = getattr(other, "__name__", "")
                    if other_name.split(".")[0] != "dualmem":
                        continue
                    for key, value in list(vars(other).items()):
                        if value is original:
                            restore.append((other, key, original))
                            setattr(other, key, wrapped)
        yield tracer
    finally:
        for owner, key, original in reversed(restore):
            setattr(owner, key, original)


# -- metrics derived from the spans -------------------------------------------

class SpanIndex:
    """Durations, self times and ancestry over one pass's spans."""

    def __init__(self, spans) -> None:
        self.parent = {s[0]: s[1] for s in spans}
        self.name = {s[0]: s[2] for s in spans}
        self.by_name: defaultdict[str, list] = defaultdict(list)
        child_time: defaultdict[int, float] = defaultdict(float)
        for span in spans:
            self.by_name[span[2]].append(span)
            child_time[span[1]] += span[4] - span[3]
        self.self_time = {s[0]: (s[4] - s[3]) - child_time[s[0]] for s in spans}

    def count(self, name: str) -> int:
        return len(self.by_name[name])

    def self_s(self, *names: str) -> float:
        """Time inside spans of these names not covered by any child span."""
        return sum(self.self_time[s[0]] for n in names for s in self.by_name[n])

    def covered_s(self, *names: str) -> float:
        """Wall time inside spans of these names, children included, counted once."""
        total = 0.0
        for span_id, parent, _, start, end, _ in (s for n in names for s in self.by_name[n]):
            while parent != -1 and self.name[parent] not in names:
                parent = self.parent[parent]
            if parent == -1:
                total += end - start
        return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see the README's table)."""
    ix = SpanIndex(spans)
    stats_background = [
        f"stats.{a}" for a in TARGETS["stats"] if a != "train_lda"
    ]
    retrieve_calls = ix.count("memory.DualMemory.retrieve")
    mine_calls = ix.count("memory.DualMemory.mine_region")
    cli_steps = sorted({s[2] for s in spans if s[2].startswith("cli.")})
    return {
        "corpus.ingest_s": ix.self_s(*CORPUS_READ),
        "corpus.regions_read": counts["corpus.open_corpus.items"],
        "stats.background_s": ix.self_s(*stats_background),
        "stats.train_lda_calls": ix.count("stats.train_lda"),
        "stats.train_lda_s": ix.covered_s("stats.train_lda"),
        "memory.retrieve_calls": retrieve_calls,
        "memory.retrieve_s": ix.self_s("memory.DualMemory.retrieve"),
        "memory.apply_s": ix.self_s("memory.DualMemory.apply_decision"),
        "memory.mine_calls": mine_calls,
        "memory.mine_s": ix.self_s("memory.DualMemory.mine_region"),
        "memory.mine_accepted": counts["memory.mine_accepted"],
        "memory.mine_accept_ratio": _ratio(counts["memory.mine_accepted"], mine_calls),
        "memory.known_match": counts["memory.known_match"],
        "memory.working_match": counts["memory.working_match"],
        "memory.new_slot": counts["memory.new_slot"],
        "memory.rejected": counts["memory.rejected"],
        "memory.rejected_ratio": _ratio(counts["memory.rejected"], retrieve_calls),
        "memory.checkpoint_s": ix.covered_s("memory.DualMemory.save_checkpoint"),
        "memory.checkpoint_bytes": counts["memory.checkpoint_bytes"],
        "consolidation.s": ix.covered_s("consolidation.consolidate"),
        "consolidation.train_s": ix.covered_s("consolidation.train_slot_classifiers"),
        "consolidation.affinity_s": ix.covered_s("consolidation.build_affinity_graph"),
        "consolidation.merge_s": ix.covered_s("consolidation.merge_components"),
        "consolidation.refine_s": ix.covered_s("consolidation.refine_slots"),
        "consolidation.transfer_s": ix.self_s("consolidation.consolidate"),
        "consolidation.slots_before": counts["consolidation.slots_before"],
        "consolidation.edges": counts["consolidation.edges"],
        "consolidation.slots_transferred": counts["consolidation.slots_transferred"],
        "consolidation.transfer_ratio": _ratio(
            counts["consolidation.slots_transferred"], counts["consolidation.slots_before"]
        ),
        "pipeline.round_s": ix.self_s("pipeline.run_discovery_round"),
        "pipeline.final_assignments_s": ix.covered_s("pipeline.final_assignments"),
        "evaluation.curve_s": ix.covered_s("evaluation.cumulative_purity_curve"),
        "evaluation.corret_s": ix.covered_s("evaluation.corret"),
        "evaluation.clusters_s": ix.covered_s("evaluation.report_clusters", "evaluation.count_discovered"),
        "evaluation.localization_s": ix.covered_s("evaluation.corloc", "evaluation.detrate"),
        "evaluation.clusters": counts["evaluation.clusters"],
        "synth.generate_s": ix.covered_s("synth.generate"),
        "synth.kmeans_s": ix.covered_s("synth.kmeans_baseline"),
        "synth.kmeans_iterations": counts["synth.kmeans_iterations"],
        "synth.kmeans_k": counts["synth.kmeans_k"],
        "reporting.write_s": ix.covered_s(
            "reporting.write_assignments", "reporting.write_key_values", "reporting.write_curve_csv"
        ),
        "cli.self_s": ix.self_s(*cli_steps),
        "trace.spans": len(spans),
    }
