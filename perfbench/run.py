"""End-to-end benchmark of the dualmem CLI walkthrough.

    python3 perfbench/run.py --workload frozen --seed 20 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all

One run is one process and one workload. It repeats whole passes of the README
walkthrough (gen, background, discover, eval, baseline, eval) in-process through
``dualmem.cli.main``, each step starting when the previous one ends, until the
next pass would overrun ``--seconds``; an untraced run makes at least two.
Every pass is checked against oracles computed apart from the program (see
checks.py). The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics, the end-to-end ones with ``--trace 0`` and the per-layer ones with
``--trace 1``. A traced run pairs each untraced pass with a traced pass over
the same inputs and requires byte-identical outputs from the two.

``--workload all`` runs every workload, untraced and traced, each in a fresh
process, and prints a table.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

CONFIG_SEED = 9  # discovery split seed and K-means seed, as in the README walkthrough
# The two shortest steps (0.2-1.2 s each). On a noisy host two or three samples
# per run leave their medians unsteady, so every untraced pass runs them once
# more at its end, into fresh directories that must match the first outputs.
RERUN_STEPS = ("background", "baseline")
PASS_SEED_STRIDE = 4096  # > images per corpus, so passes draw disjoint per-image seeds
# An untraced run makes at least two passes, so each median has two samples even
# on a host where one pass takes half of --seconds; a traced pair takes most of it.
MIN_PASSES = 2
# Before timing, a run makes one unchecked, uncounted pass on a corpus of this many
# images with the workload's other spec fields. Without it the first timed pass
# pays for first calls (lazy imports, allocator growth): its K-means step took
# about 1.5x the later ones.
WARMUP_IMAGES = 200


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict  # SynthSpec fields; the seed comes from --seed
    config: dict  # discovery config file
    threads: int  # background --threads
    binary: bool = False  # feed the corpus as DMRF


WORKLOADS = {
    "frozen": Workload(
        "frozen",
        spec=dict(d=32, n_known=5, n_unknown=10, images=1000, n_background_per_image=3,
                  classes_per_image=3, regions_per_class_per_image=2, separation=8.0, std=1.0),
        config=dict(d=32, rounds=2, slot_cap=1000, rng_seed=CONFIG_SEED),
        threads=1,
    ),
    "semantic": Workload(
        "semantic",
        spec=dict(d=32, n_known=5, n_unknown=10, images=1000, n_background_per_image=0,
                  classes_per_image=3, regions_per_class_per_image=2, separation=12.0, std=1.0),
        config=dict(d=32, rounds=3, rng_seed=CONFIG_SEED),
        threads=2,
        binary=True,
    ),
}

# A fixed corpus for the conversion operation, independent of --seed. Known-class
# regions carry score 0.95, which float32 cannot hold, so convert_corpus refuses
# it, as it refuses every corpus `dualmem gen` writes.
PROBE_SPEC = dict(d=4, n_known=1, n_unknown=1, images=2, classes_per_image=2, seed=0)

END_TO_END = {
    "setup_s": "s", "background_s": "s", "discover_s": "s", "discover_regions_per_s": "regions/s",
    "eval_s": "s", "baseline_s": "s", "baseline_eval_s": "s", "pipeline_s": "s",
    "peak_rss_mb": "MB", "auc_0.5": "%", "n_discovered": "classes",
}
OUTPUT_FILES = ["bg/bg.bin", "run/assignments.tsv", "run/stats.txt", "km/assignments.tsv"] + [
    f"{d}/{f}" for d in ("eval", "km_eval") for f in ("metrics.txt", "curve_0.5.csv", "curve_0.2.csv")
]


class StepFailed(Exception):
    """A CLI step that should succeed returned a non-zero code."""


@dataclass
class PassResult:
    times: dict[str, float] = field(default_factory=dict)
    reruns: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    values: dict[str, float] = field(default_factory=dict)


def write_kv(path: Path, values: dict) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")


def run_pass(wl: Workload, data_seed: int, out: Path, inputs: dict, tracer: spans.Tracer | None,
             check: bool = True) -> PassResult:
    """One walkthrough pass into ``out``, timed step by step, then checked unless ``check`` is false."""
    # dualmem is importable only after main() has put this checkout's src/ on the path.
    from dualmem.cli import main as cli_main
    from dualmem.corpus import convert_corpus, write_corpus_binary
    from dualmem.records import BoundingBox, CorpusFormatError, RegionRecord

    res = PassResult()
    data = out / "data"

    def step(name: str, fn, layer: str = "bench") -> None:
        res.attempted += 1
        start = time.perf_counter()
        span = tracer.span(f"{layer}.{name}") if tracer else contextlib.nullcontext()
        with span, open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            rc = fn()
        res.times[name] = time.perf_counter() - start
        if rc != 0:
            raise StepFailed(f"{name} exited with {rc}")

    def cli(name: str, *argv) -> None:
        step(name, lambda: cli_main([str(a) for a in argv]), "cli")

    cli("gen", "gen", "--spec", inputs["spec"], "--seed", data_seed, "--out", data)
    corpus = data / "corpus.jsonl"
    jsonl = checks.read_corpus(corpus)
    if wl.binary:
        def write_dmrf() -> int:
            records = [
                RegionRecord(rid, iid, BoundingBox(*box), score, feat, label)
                for rid, iid, box, score, feat, label in zip(
                    jsonl.region_ids, jsonl.image_ids, jsonl.boxes.tolist(), jsonl.scores.tolist(),
                    jsonl.features, jsonl.labels)
            ]
            write_corpus_binary(data / "corpus.dmrf", wl.spec["d"], records)
            return 0

        def convert_probe() -> int:
            try:
                convert_corpus(inputs["probe"], out / "probe.dmrf")
            except CorpusFormatError:
                res.failed += 1
            return 0

        step("write_dmrf", write_dmrf)
        step("convert", convert_probe)
        corpus = data / "corpus.dmrf"

    background = ["--corpus", corpus, "--threads", wl.threads]
    cli("background", "background", *background, "--out", out / "bg")
    priors = ["--priors", data / "priors.jsonl"] if wl.config.get("init_mode", "det_scores") == "det_scores" else []
    cli("discover", "discover", "--corpus", corpus, "--bg", out / "bg" / "bg.bin",
        "--config", inputs["config"], *priors, "--out", out / "run")
    cli("eval", "eval", "--corpus", corpus, "--assignments", out / "run" / "assignments.tsv",
        "--gt", data / "gt.jsonl", "--out", out / "eval")
    baseline = ["--corpus", corpus, "--stats", out / "run" / "stats.txt", "--seed", CONFIG_SEED]
    cli("baseline", "baseline", *baseline, "--out", out / "km")
    cli("baseline_eval", "eval", "--corpus", corpus, "--assignments", out / "km" / "assignments.tsv",
        "--gt", data / "gt.jsonl", "--out", out / "km_eval")
    if tracer is None:
        for name, args, first, output in (("background", background, "bg", "bg.bin"),
                                          ("baseline", baseline, "km", "assignments.tsv")):
            cli(f"{name}_rerun", name, *args, "--out", out / f"{first}_rerun")
            res.reruns[name] = res.times.pop(f"{name}_rerun")
            checks.compare_bytes(out / first, out / f"{first}_rerun", [output])

    if not check:
        return res

    # -- checks (untimed) --
    used = checks.read_corpus(corpus) if wl.binary else jsonl
    if wl.binary:
        checks.check_binary_readback(jsonl, used)
    gt = checks.read_gt(data / "gt.jsonl")
    checks.check_geometry(used, gt)
    config = checks.read_key_values(out / "run" / "config.txt")
    checks.check_background(
        out / "bg" / "bg.bin", used, float(config["ridge_lambda"]), int(config["n_proposals_per_image"])
    )
    stats = checks.check_stats(out / "run" / "stats.txt", int(config["slot_cap"]))
    run_assign = checks.check_assignments(out / "run" / "assignments.tsv", used)
    engine = checks.check_metrics(out / "eval" / "metrics.txt", run_assign, used, gt)
    km_assign = checks.check_assignments(out / "km" / "assignments.tsv", used)
    checks.check_kmeans(km_assign, int(stats["clusters_final"]))
    checks.check_metrics(out / "km_eval" / "metrics.txt", km_assign, used, gt)
    if tracer:
        checks.check_inertia(tracer.kmeans_histories[-1])

    checks.check_premise(wl.name, engine, stats)

    t = res.times
    streamed = sum(
        int(stats[f"round_{r}_regions"]) + int(stats[f"round_{r}_mined_candidates"])
        for r in range(1, int(stats["rounds"]) + 1)
    )
    res.values = {
        "setup_s": t["gen"] + t.get("write_dmrf", 0.0),
        "background_s": t["background"],
        "discover_s": t["discover"],
        "discover_regions_per_s": streamed / t["discover"],
        "eval_s": t["eval"],
        "baseline_s": t["baseline"],
        "baseline_eval_s": t["baseline_eval"],
        "pipeline_s": sum(t.values()),
        "auc_0.5": engine["auc_0.5"],
        "n_discovered": engine["n_discovered"],
    }
    return res


def _median_of(results: list[dict]) -> dict[str, float]:
    return {key: statistics.median(r[key] for r in results) for key in results[0]}


def run_workload(wl: Workload, seed: int, seconds: int, trace: bool) -> dict:
    from dualmem.synth import SynthSpec, generate

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{wl.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    tracer = spans.Tracer() if trace else None
    attempted = failed = 0
    plain_values, layer_values = [], []
    rerun_samples: dict[str, list[float]] = {step: [] for step in RERUN_STEPS}
    try:
        inputs = {"spec": work / "spec.txt", "config": work / "config.txt"}
        write_kv(inputs["spec"], wl.spec)
        write_kv(inputs["config"], wl.config)
        if wl.binary:
            inputs["probe"] = generate(SynthSpec(**PROBE_SPEC), work / "probe")["corpus"]
        warm_inputs = dict(inputs, spec=work / "warmup_spec.txt")
        write_kv(warm_inputs["spec"], dict(wl.spec, images=WARMUP_IMAGES))
        run_pass(wl, seed, work / "warmup", warm_inputs, None, check=False)
        shutil.rmtree(work / "warmup")

        start = time.perf_counter()
        longest = 0.0
        index = 0
        while True:
            began = time.perf_counter()
            data_seed = seed + PASS_SEED_STRIDE * index
            gc.collect()
            plain = run_pass(wl, data_seed, work / f"p{index}", inputs, None)
            results = [plain]
            if tracer:
                tracer.run_id = f"{wl.name}-{seed}-p{index}"
                tracer.counts.clear()
                first_span = len(tracer.spans)
                gc.collect()
                with spans.instrument(tracer):
                    traced = run_pass(wl, data_seed, work / f"p{index}t", inputs, tracer)
                results.append(traced)
                checks.compare_bytes(work / f"p{index}", work / f"p{index}t", OUTPUT_FILES)
                layers = spans.layer_metrics(tracer.spans[first_span:], tracer.counts)
                layers["trace.overhead_s"] = traced.values["pipeline_s"] - plain.values["pipeline_s"]
                layers["trace.overhead_ratio"] = traced.values["pipeline_s"] / plain.values["pipeline_s"]
                layer_values.append(layers)
                shutil.rmtree(work / f"p{index}t")
            shutil.rmtree(work / f"p{index}")
            plain_values.append(plain.values)
            for step, seconds_taken in plain.reruns.items():
                rerun_samples[step].append(seconds_taken)
            print(f"pass {index}: auc_0.5 {plain.values['auc_0.5']:.2f} "
                  + " ".join(f"{k} {v:.3f}" for k, v in plain.times.items()), file=sys.stderr)
            for r in results:
                attempted += r.attempted
                failed += r.failed
            index += 1
            longest = max(longest, time.perf_counter() - began)
            if index >= (1 if trace else MIN_PASSES) and time.perf_counter() - start + longest > seconds:
                break
        if tracer:
            span_file = WORK / f"spans-{wl.name}.jsonl"
            tracer.write(span_file)
            print(f"{len(tracer.spans)} spans written to {span_file}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in _median_of(layer_values).items()}
    else:
        medians = _median_of(plain_values)
        for step in RERUN_STEPS:
            medians[f"{step}_s"] = statistics.median([v[f"{step}_s"] for v in plain_values] + rerun_samples[step])
        medians["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {name: {"value": medians[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(f"{wl.name}: {index} pass(es) in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}


def unit_of(name: str) -> str:
    if name.endswith("_s") or name == "consolidation.s":
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, each in a fresh process; print a table."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: failed with exit code {proc.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            status |= 0 if result["correct"] else 1
            print(f"\n{name} (trace={trace}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric:34s} {entry['value']:>16.6g} {entry['unit']}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=20)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "dualmem" / "__init__.py").is_file():
        print(f"error: no dualmem sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dualmem

    if Path(dualmem.__file__).resolve().parent != SRC / "dualmem":
        print(f"error: imported dualmem from {dualmem.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except checks.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        result = {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}
    except StepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
