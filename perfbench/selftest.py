"""Self-test of the benchmark's own checks, on a tiny corpus; takes seconds.

    python3 perfbench/selftest.py

Runs one untraced and one traced pass of a tiny binary-corpus workload, which
must pass every check, then feeds each check a corrupted output and requires
that it fail. Exits 1 if any check accepts a corruption or rejects a clean pass.
"""

from __future__ import annotations

import shutil
import struct
import sys
from pathlib import Path

import numpy as np

import checks
import run
import spans

TINY = run.Workload(
    "selftest",
    spec=dict(d=8, n_known=2, n_unknown=4, images=60, n_background_per_image=2,
              classes_per_image=2, regions_per_class_per_image=2, separation=10.0, std=1.0),
    config=dict(d=8, rounds=2, rng_seed=run.CONFIG_SEED),
    threads=2,
    binary=True,
)


def expect_failure(name: str, fn) -> bool:
    try:
        fn()
    except checks.CheckError as exc:
        print(f"PASS  {name}: rejected ({exc})")
        return True
    print(f"FAIL  {name}: the corruption was accepted")
    return False


def rewrite(path: Path, edit) -> None:
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")


def main() -> int:
    if not (run.SRC / "dualmem" / "__init__.py").is_file():
        print(f"error: no dualmem sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    from dualmem.synth import SynthSpec, generate

    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ok = True
    try:
        inputs = {"spec": work / "spec.txt", "config": work / "config.txt"}
        run.write_kv(inputs["spec"], TINY.spec)
        run.write_kv(inputs["config"], TINY.config)
        inputs["probe"] = generate(SynthSpec(**run.PROBE_SPEC), work / "probe")["corpus"]

        plain = run.run_pass(TINY, 3, work / "plain", inputs, None)
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            run.run_pass(TINY, 3, work / "traced", inputs, tracer)
        checks.compare_bytes(work / "plain", work / "traced", run.OUTPUT_FILES)
        layers = spans.layer_metrics(tracer.spans, tracer.counts)
        print(f"PASS  clean passes: {plain.attempted} operations, {plain.failed} failed as expected, "
              f"{len(tracer.spans)} spans, traced outputs byte-identical")
        if plain.failed != 1 or layers["stats.train_lda_calls"] == 0:
            print("FAIL  expected one failed conversion and traced train_lda calls")
            ok = False

        out = work / "plain"
        corpus = checks.read_corpus(out / "data" / "corpus.dmrf")
        jsonl = checks.read_corpus(out / "data" / "corpus.jsonl")
        gt = checks.read_gt(out / "data" / "gt.jsonl")
        run_assign = checks.check_assignments(out / "run" / "assignments.tsv", corpus)
        stats = checks.read_key_values(out / "run" / "stats.txt")
        k = int(stats["clusters_final"])

        # bg.bin: nudge one covariance entry by one part in a million.
        bg = out / "bg" / "bg.bin"
        raw = bytearray(bg.read_bytes())
        offset = 8 + 8 * 8 + 8 * 9
        (value,) = struct.unpack_from("<d", raw, offset)
        struct.pack_into("<d", raw, offset, value * (1 + 1e-6))
        bg.write_bytes(bytes(raw))
        ok &= expect_failure("perturbed bg.bin", lambda: checks.check_background(bg, corpus, 1e-3, 150))

        # Assignments: move one clustered region into the cluster of another
        # unknown class (known-class clusters add no coverage, so no area).
        unknown = {g["class_name"] for g in gt if not g["known_flag"]}
        by_label: dict[str, str] = {}
        for i, rid in enumerate(corpus.region_ids):
            if run_assign[rid] != checks.UNASSIGNED and corpus.labels[i] in unknown:
                by_label.setdefault(corpus.labels[i], rid)
        (_, rid_a), (_, rid_b) = list(by_label.items())[:2]
        flipped = dict(run_assign, **{rid_a: run_assign[rid_b]})
        ok &= expect_failure("flipped assignment label", lambda: checks.check_metrics(
            out / "eval" / "metrics.txt", flipped, corpus, gt))

        tsv = out / "run" / "assignments.tsv"
        first_line = tsv.read_text(encoding="utf-8").splitlines()[0]
        rewrite(tsv, lambda text: text + first_line + "\n")
        ok &= expect_failure("duplicated assignment row", lambda: checks.check_assignments(tsv, corpus))
        rewrite(tsv, lambda text: "\n".join(text.splitlines()[1:-1]) + "\n")
        ok &= expect_failure("missing assignment row", lambda: checks.check_assignments(tsv, corpus))

        metrics = out / "km_eval" / "metrics.txt"
        km_assign = checks.check_assignments(out / "km" / "assignments.tsv", corpus)
        rewrite(metrics, lambda text: text.replace("n_discovered = ", "n_discovered = 1"))
        ok &= expect_failure("edited n_discovered", lambda: checks.check_metrics(metrics, km_assign, corpus, gt))

        stats_path = out / "run" / "stats.txt"
        original = stats_path.read_text(encoding="utf-8")
        for label, old, new in [
            ("decisions that do not sum to the streamed regions", "round_1_rejected = ", "round_1_rejected = 1"),
            ("mined above its candidates", "round_2_mined = ", "round_2_mined = 9999"),
            ("semantic slots above the cap", "slots_semantic_final = ", "slots_semantic_final = 9999"),
        ]:
            stats_path.write_text(original.replace(old, new), encoding="utf-8")
            ok &= expect_failure(label, lambda: checks.check_stats(stats_path, 2000))

        ok &= expect_failure("K-means with too many labels", lambda: checks.check_kmeans(km_assign, k - 1))
        ok &= expect_failure("rising inertia", lambda: checks.check_inertia([10.0, 9.0, 9.5]))

        moved = checks.Corpus(corpus.region_ids, corpus.image_ids, corpus.boxes + 0.25,
                              corpus.scores, corpus.features, corpus.labels)
        ok &= expect_failure("region off its ground-truth box", lambda: checks.check_geometry(moved, gt))
        changed = checks.Corpus(corpus.region_ids, corpus.image_ids, corpus.boxes, corpus.scores,
                                corpus.features + np.float32(1e-3), corpus.labels)
        ok &= expect_failure("DMRF features differ", lambda: checks.check_binary_readback(jsonl, changed))

        engine = {"auc_0.5": 50.0, "n_discovered": 7}
        ok &= expect_failure("frozen: too few classes discovered", lambda: checks.check_premise(
            "frozen", engine, stats))
        ok &= expect_failure("semantic: rejections", lambda: checks.check_premise(
            "semantic", engine, {"rejected": "3"}))
        # stats.txt still holds the last corruption written above.
        ok &= expect_failure("traced output differs", lambda: checks.compare_bytes(
            work / "plain", work / "traced", ["run/stats.txt"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
