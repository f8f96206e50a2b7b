"""Small text outputs shared by the pipeline, baseline, and evaluation: tab-separated
assignments, key = value reports, and curve CSVs."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping

UNASSIGNED = "unassigned"


def format_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_assignments(path: str | Path, rows: Iterable[tuple[str, str]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for region_id, label in rows:
            fh.write(f"{region_id}\t{label}\n")


def read_assignments(path: str | Path) -> dict[str, str]:
    assignments: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'region_id<TAB>label'")
        assignments[parts[0]] = parts[1]
    return assignments


def write_key_values(path: str | Path, values: Mapping[str, object]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in values.items():
            fh.write(f"{key} = {format_value(value)}\n")


def read_key_values(path: str | Path) -> dict[str, str]:
    values: dict[str, str] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, _, raw = stripped.partition("=")
        values[key.strip()] = raw.strip()
    return values


def write_curve_csv(path: str | Path, points: Iterable[tuple[float, float]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("coverage,cumulative_purity\n")
        for x, y in points:
            fh.write(f"{format_value(x)},{format_value(y)}\n")
