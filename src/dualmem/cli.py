"""Command-line entry point: gen, background, discover, eval, baseline.

Every subcommand reads and checks its inputs, and computes what can still fail,
then writes a manifest into its output directory before any other artifact; it
refuses to reuse a non-empty directory unless forced.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .config import Config, load_config
from .corpus import ingest_corpus, load_corpus, open_corpus, read_corpus_dim
from .evaluation import evaluate_run, load_gt
from .pipeline import build_priors, estimate_background, run_rounds, start_discovery
from .records import CorpusFormatError
from .reporting import read_assignments, read_key_values, write_assignments, write_curve_csv, write_key_values
from .stats import BackgroundStats
from .synth import generate, kmeans_baseline, load_spec


class CliError(Exception):
    """Operator-facing failure: reported on stderr with exit code 1."""


def _prepare_out_dir(out: str, force: bool) -> Path:
    path = Path(out)
    if path.exists():
        if not path.is_dir():
            raise CliError(f"output path '{out}' exists and is not a directory")
        if any(path.iterdir()) and not force:
            raise CliError(f"output directory '{out}' is not empty; pass --force to reuse it")
    else:
        path.mkdir(parents=True)
    return path


def _write_manifest(out_dir: Path, subcommand: str, inputs: dict[str, str | None], params: dict) -> None:
    """Each file the handler read (an input given as None was not) with its sha256, and the other values it used."""
    manifest = {
        "tool": "dualmem",
        "version": __version__,
        "subcommand": subcommand,
        "inputs": {
            name: {"path": str(path), "sha256": _hash_file(path)}
            for name, path in inputs.items() if path is not None
        },
        "params": params,
        "out_dir": str(out_dir),
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _hash_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_gen(args: argparse.Namespace) -> int:
    spec = load_spec(args.spec)
    if args.seed is not None:
        try:
            spec = dataclasses.replace(spec, seed=args.seed)
        except ValueError as exc:
            raise CliError(f"--seed {args.seed}: {exc}") from exc
    out_dir = _prepare_out_dir(args.out, args.force)
    _write_manifest(out_dir, "gen", {"spec": args.spec}, {"seed": spec.seed})
    paths = generate(spec, out_dir)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def _cmd_background(args: argparse.Namespace) -> int:
    if args.threads < 1:
        raise CliError(f"--threads must be at least 1, got {args.threads}")
    # ingest_corpus refuses a configured d that is not the corpus's.
    config = load_config(args.config) if args.config is not None else Config(d=read_corpus_dim(args.corpus))
    corpus = ingest_corpus(args.corpus, config)
    bg = estimate_background(corpus, config, workers=args.threads)
    out_dir = _prepare_out_dir(args.out, args.force)
    _write_manifest(out_dir, "background", {"corpus": args.corpus, "config": args.config}, {"threads": args.threads})
    bg.save(out_dir / "bg.bin")
    print(f"background: {out_dir / 'bg.bin'} (d={bg.d}, samples={bg.count})")
    return 0


def _cmd_discover(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    # Each mode's input is required, and refused in every other mode rather than listed in the manifest.
    for option, path, mode in (("--priors", args.priors, "det_scores"), ("--gt", args.gt, "gt_overlap")):
        if path is None and config.init_mode == mode:
            raise CliError(f"init_mode={mode} requires {option}")
        if path is not None and config.init_mode != mode:
            raise CliError(f"{option} is read only in init_mode={mode}, not init_mode={config.init_mode}")
    # Every input is read and checked before the output directory is touched.
    bg = BackgroundStats.load(args.bg)
    corpus = ingest_corpus(args.corpus, config)
    detections = open_corpus(args.priors, config.d) if args.priors is not None else None
    gt = load_gt(args.gt) if args.gt is not None else None
    priors = build_priors(config, detections=detections, corpus=corpus, gt=gt)
    state, split = start_discovery(corpus, bg, config, priors)
    out_dir = _prepare_out_dir(args.out, args.force)
    inputs = {"corpus": args.corpus, "bg": args.bg, "config": args.config, "priors": args.priors, "gt": args.gt}
    _write_manifest(out_dir, "discover", inputs, {})
    run = run_rounds(state, corpus, split, out_dir)
    print(f"assignments: {out_dir / 'assignments.tsv'}")
    print(f"semantic slots: {len(run.mem.semantic)}, clusters: {run.stats['clusters_final']}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    thresholds = [float(t) for t in args.thresholds.split(",") if t]
    if not thresholds:
        raise CliError("--thresholds must list at least one IoU threshold")
    # At t <= 0 a pair with IoU 0 would count as a hit; NaN compares false with everything.
    bad = [t for t in thresholds if not 0.0 < t <= 1.0]
    if bad:
        raise CliError(f"--thresholds must lie in (0, 1], got {bad[0]}")
    if not 0.0 <= args.purity_floor <= 1.0:
        raise CliError(f"--purity-floor must lie in [0, 1], got {args.purity_floor}")
    if args.min_images < 1:
        raise CliError(f"--min-images must be at least 1, got {args.min_images}")
    regions = load_corpus(args.corpus)
    assignments = read_assignments(args.assignments)
    gt = load_gt(args.gt)
    out_dir = _prepare_out_dir(args.out, args.force)
    _write_manifest(
        out_dir, "eval", {"corpus": args.corpus, "assignments": args.assignments, "gt": args.gt},
        {"thresholds": thresholds, "purity_floor": args.purity_floor, "min_images": args.min_images},
    )
    report = evaluate_run(
        assignments, regions, gt,
        iou_thresholds=thresholds,
        purity_floor=args.purity_floor,
        min_images=args.min_images,
    )
    write_key_values(out_dir / "metrics.txt", report.metrics)
    for threshold, curve in report.curves.items():
        write_curve_csv(out_dir / f"curve_{threshold}.csv", curve)
    for key, value in report.metrics.items():
        print(f"{key} = {value}")
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    if args.k is None and args.stats is None:
        raise CliError("baseline needs --k or --stats (to reuse a run's cluster count)")
    if args.k is not None and args.stats is not None:
        raise CliError("--stats is read only without --k")
    k = args.k
    if k is None:
        values = read_key_values(args.stats)
        if "clusters_final" not in values:
            raise CliError(f"'{args.stats}' has no clusters_final entry")
        try:
            k = int(values["clusters_final"])
        except ValueError as exc:
            raise CliError(f"{args.stats}: clusters_final: {exc}") from exc
        if k < 1:  # a run that kept no semantic slot
            raise CliError(f"{args.stats}: clusters_final must be at least 1, got {k}")
    regions = load_corpus(args.corpus)
    assignments, _, history = kmeans_baseline(regions, k, args.seed)
    out_dir = _prepare_out_dir(args.out, args.force)
    _write_manifest(out_dir, "baseline", {"corpus": args.corpus, "stats": args.stats}, {"k": k, "seed": args.seed})
    write_assignments(out_dir / "assignments.tsv", assignments.items())
    print(f"assignments: {out_dir / 'assignments.tsv'} (k={k}, iterations={len(history)})")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualmem",
        description="Discover and group novel object categories in a region-feature corpus.",
    )
    parser.add_argument("--version", action="version", version=f"dualmem {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", required=True, help="Output directory.")
        p.add_argument("--force", action="store_true", help="Reuse a non-empty output directory.")

    g = sub.add_parser("gen", help="Generate a synthetic corpus, ground truth, and priors.")
    g.add_argument("--spec", required=True, help="Synthetic spec file (key = value).")
    g.add_argument("--seed", type=int, default=None, help="Override the spec's seed.")
    common(g)
    g.set_defaults(handler=_cmd_gen)

    b = sub.add_parser("background", help="Estimate background statistics over a corpus.")
    b.add_argument("--corpus", required=True)
    b.add_argument("--config", default=None, help="Optional config file (for ridge_lambda etc.).")
    b.add_argument(
        "--threads", type=int, default=1,
        help="Number of parts in the deterministic merge schedule; runs on one thread.",
    )
    common(b)
    b.set_defaults(handler=_cmd_background)

    d = sub.add_parser("discover", help="Run discovery rounds over a corpus.")
    d.add_argument("--corpus", required=True)
    d.add_argument("--bg", required=True, help="Background statistics file from 'background'.")
    d.add_argument("--config", required=True)
    d.add_argument("--priors", default=None, help="Prior detections file (det_scores mode).")
    d.add_argument("--gt", default=None, help="Ground-truth file (gt_overlap mode).")
    common(d)
    d.set_defaults(handler=_cmd_discover)

    e = sub.add_parser("eval", help="Score an assignment file against ground truth.")
    e.add_argument("--corpus", required=True)
    e.add_argument("--assignments", required=True)
    e.add_argument("--gt", required=True)
    e.add_argument("--thresholds", default="0.5,0.2", help="Comma-separated IoU thresholds.")
    e.add_argument("--purity-floor", type=float, default=0.5, dest="purity_floor")
    e.add_argument("--min-images", type=int, default=5, dest="min_images")
    common(e)
    e.set_defaults(handler=_cmd_eval)

    k = sub.add_parser("baseline", help="K-means baseline over the corpus features.")
    k.add_argument("--corpus", required=True)
    k.add_argument("--k", type=int, default=None)
    k.add_argument("--stats", default=None, help="stats.txt of a discovery run to match k.")
    k.add_argument("--seed", type=int, default=0, help="K-means seed.")
    common(k)
    k.set_defaults(handler=_cmd_baseline)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (CliError, CorpusFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
