"""Command-line entry point: gen, background, discover, eval, baseline.

Every subcommand writes a manifest into its output directory before any other
artifact and refuses to reuse a non-empty directory unless forced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .config import Config, config_hash, load_config
from .corpus import ingest_corpus, load_corpus, open_corpus, read_corpus_dim
from .evaluation import evaluate_run, load_gt
from .pipeline import build_priors, estimate_background, run_discovery
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


def _write_manifest(out_dir: Path, subcommand: str, args: argparse.Namespace, result_hash: str) -> None:
    inputs = {
        key: str(getattr(args, key))
        for key in ("corpus", "bg", "config", "spec", "assignments", "gt", "priors", "stats")
        if getattr(args, key, None) is not None
    }
    manifest = {
        "tool": "dualmem",
        "version": __version__,
        "subcommand": subcommand,
        "inputs": inputs,
        "out_dir": str(out_dir),
        "seed": getattr(args, "seed", None),
        "config_hash": result_hash,
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _hash_params(*parts: object) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


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
    overrides = {} if args.seed is None else {"seed": args.seed}
    spec = load_spec(args.spec, **overrides)
    out_dir = _prepare_out_dir(args.out, args.force)
    _write_manifest(out_dir, "gen", args, _hash_params(_hash_file(args.spec), spec))
    paths = generate(spec, out_dir)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def _cmd_background(args: argparse.Namespace) -> int:
    d = read_corpus_dim(args.corpus)
    if args.config is not None:
        config = load_config(args.config)
        if config.d != d:
            raise CliError(f"config d={config.d} does not match corpus d={d}")
    else:
        config = Config(d=d)
    out_dir = _prepare_out_dir(args.out, args.force)
    _write_manifest(
        out_dir, "background", args,
        _hash_params(_hash_file(args.corpus), config_hash(config), args.threads),
    )
    batches = list(ingest_corpus(args.corpus, config))
    bg = estimate_background(batches, config, workers=args.threads)
    bg.save(out_dir / "bg.bin")
    print(f"background: {out_dir / 'bg.bin'} (d={bg.d}, samples={bg.count})")
    return 0


def _cmd_discover(args: argparse.Namespace) -> int:
    overrides = {} if args.seed is None else {"rng_seed": args.seed}
    config = load_config(args.config, **overrides)
    out_dir = _prepare_out_dir(args.out, args.force)
    _write_manifest(
        out_dir, "discover", args,
        _hash_params(_hash_file(args.corpus), _hash_file(args.bg), config_hash(config)),
    )
    corpus = load_corpus(args.corpus, config)
    bg = BackgroundStats.load(args.bg)
    prior_records = None
    gt = None
    if config.init_mode == "det_scores":
        if args.priors is None:
            raise CliError("init_mode=det_scores requires --priors")
        _, stream = open_corpus(args.priors)
        prior_records = list(stream)
    if config.init_mode == "gt_overlap":
        if args.gt is None:
            raise CliError("init_mode=gt_overlap requires --gt")
        gt = load_gt(args.gt)
    priors = build_priors(config, prior_records=prior_records, corpus=corpus, gt=gt)
    run = run_discovery(corpus, bg, config, priors, out_dir=out_dir)
    print(f"assignments: {out_dir / 'assignments.tsv'}")
    print(f"semantic slots: {len(run.mem.semantic)}, clusters: {run.stats['clusters_final']}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    thresholds = [float(t) for t in args.thresholds.split(",") if t]
    if not thresholds:
        raise CliError("--thresholds must list at least one IoU threshold")
    min_images = args.min_images
    if min_images is None:
        min_images = load_config(args.config).min_images_per_slot if args.config else 5
    out_dir = _prepare_out_dir(args.out, args.force)
    _write_manifest(
        out_dir, "eval", args,
        _hash_params(
            _hash_file(args.corpus), _hash_file(args.assignments), _hash_file(args.gt),
            thresholds, args.purity_floor, min_images,
        ),
    )
    d = read_corpus_dim(args.corpus)
    config = Config(d=d, n_proposals_per_image=10**9)
    regions = {r.region_id: r for batch in ingest_corpus(args.corpus, config) for r in batch}
    assignments = read_assignments(args.assignments)
    gt = load_gt(args.gt)
    report = evaluate_run(
        assignments, regions, gt,
        iou_thresholds=thresholds,
        purity_floor=args.purity_floor,
        min_images=min_images,
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
    k = args.k
    if k is None:
        values = read_key_values(args.stats)
        if "clusters_final" not in values:
            raise CliError(f"'{args.stats}' has no clusters_final entry")
        k = int(values["clusters_final"])
    if args.seed is None:
        args.seed = load_config(args.config).rng_seed if args.config else 0
    out_dir = _prepare_out_dir(args.out, args.force)
    _write_manifest(out_dir, "baseline", args, _hash_params(_hash_file(args.corpus), k, args.seed))
    d = read_corpus_dim(args.corpus)
    config = Config(d=d, n_proposals_per_image=10**9)
    regions = [r for batch in ingest_corpus(args.corpus, config) for r in batch]
    assignments, _, history = kmeans_baseline(regions, k, args.seed)
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
        p.add_argument("--seed", type=int, default=None, help="Override the configured seed.")

    g = sub.add_parser("gen", help="Generate a synthetic corpus, ground truth, and priors.")
    g.add_argument("--spec", required=True, help="Synthetic spec file (key = value).")
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
    e.add_argument("--config", default=None, help="Optional config (supplies min-images).")
    e.add_argument("--thresholds", default="0.5,0.2", help="Comma-separated IoU thresholds.")
    e.add_argument("--purity-floor", type=float, default=0.5, dest="purity_floor")
    e.add_argument("--min-images", type=int, default=None, dest="min_images")
    common(e)
    e.set_defaults(handler=_cmd_eval)

    k = sub.add_parser("baseline", help="K-means baseline over the corpus features.")
    k.add_argument("--corpus", required=True)
    k.add_argument("--k", type=int, default=None)
    k.add_argument("--stats", default=None, help="stats.txt of a discovery run to match k.")
    k.add_argument("--config", default=None, help="Optional config (supplies the seed).")
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
