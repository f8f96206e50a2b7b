"""Run configuration and the typed reader for flat ``key = value`` files."""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TypeVar

from .reporting import format_value, key_value_lines, write_key_values

CONSOLIDATION_MODES = ("naive", "merge", "merge_refine")
INIT_MODES = ("null", "det_scores", "gt_overlap")
T = TypeVar("T")


@dataclass
class Config:
    """Everything that influences a discovery run.

    ``d`` is the corpus-wide feature dimension and has no sensible default;
    all other fields default to the standard operating point.
    """

    d: int
    n_proposals_per_image: int = 150
    slot_cap: int = 2000
    semantic_prior_score: float = 0.9
    tau_semantic: float = 0.0
    tau_working: float = 0.7
    ridge_lambda: float = 1e-3
    min_images_per_slot: int = 5
    merge_edge_threshold: float = 0.0
    rounds: int = 2
    rng_seed: int = 0
    consolidation_mode: str = "merge_refine"
    init_mode: str = "det_scores"
    l2_normalize: bool = False

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.n_proposals_per_image < 1:
            raise ValueError("n_proposals_per_image must be >= 1")
        if self.slot_cap < 1:
            raise ValueError("slot_cap must be >= 1")
        if not (0.0 < self.semantic_prior_score <= 1.0):
            raise ValueError("semantic_prior_score must be in (0, 1]")
        if not (-1.0 <= self.tau_working <= 1.0):
            raise ValueError("tau_working must be in [-1, 1]")
        # No score compares >= NaN, so a NaN threshold would silently match or merge nothing.
        if not math.isfinite(self.tau_semantic):
            raise ValueError("tau_semantic must be finite")
        if not math.isfinite(self.merge_edge_threshold):
            raise ValueError("merge_edge_threshold must be finite")
        if not (0.0 < self.ridge_lambda < math.inf):
            raise ValueError("ridge_lambda must be finite and > 0")
        if self.min_images_per_slot < 1:
            raise ValueError("min_images_per_slot must be >= 1")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not (0 <= self.rng_seed < 2**64):
            raise ValueError("rng_seed must be an unsigned 64-bit integer")
        if self.consolidation_mode not in CONSOLIDATION_MODES:
            raise ValueError(f"consolidation_mode must be one of {CONSOLIDATION_MODES}")
        if self.init_mode not in INIT_MODES:
            raise ValueError(f"init_mode must be one of {INIT_MODES}")


def _parse_value(field: dataclasses.Field, raw: str) -> object:
    if field.type in ("bool", bool):
        low = raw.lower()
        if low not in ("true", "false"):
            raise ValueError(f"expected true/false, got '{raw}'")
        return low == "true"
    if field.type in ("int", int):
        return int(raw)
    if field.type in ("float", float):
        return float(raw)
    return raw


def load_fields(cls: type[T], path: str | Path) -> T:
    """The dataclass ``cls`` from a ``key = value`` file; every error names the file."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    values: dict[str, object] = {}
    for lineno, key, raw in key_value_lines(path):
        if key not in fields:
            raise ValueError(f"{path}:{lineno}: unknown {cls.__name__} key '{key}'")
        try:
            values[key] = _parse_value(fields[key], raw)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: key '{key}': {exc}") from exc
    missing = [name for name, f in fields.items() if f.default is dataclasses.MISSING and name not in values]
    if missing:
        raise ValueError(f"{path}: {cls.__name__} file must define {', '.join(map(repr, missing))}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_config(config: Config, path: str | Path) -> None:
    """Write the config as one ``key = value`` line per field, in field order."""
    write_key_values(path, dataclasses.asdict(config))


def load_config(path: str | Path) -> Config:
    """Parse a ``key = value`` config file."""
    return load_fields(Config, path)


def config_hash(config: Config) -> str:
    """Stable hash over every field, so runs with different parameters never collide."""
    canonical = "\n".join(
        f"{f.name}={format_value(getattr(config, f.name))}"
        for f in dataclasses.fields(config)
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
