"""Small text files shared by the pipeline, baseline, and evaluation: tab-separated
assignments, key = value files, curve CSVs, the line reader of every text input,
and the line decoder of the JSON-lines inputs (corpus, priors, ground truth)."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

UNASSIGNED = "unassigned"


def format_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, line without its "\\n") for each line of a UTF-8 text file, split at "\\n" only.

    ``str.splitlines`` and text-mode files would also split at "\\r", U+0085,
    U+2028 and other separators, which an id may contain. Each line is decoded
    when the reader reaches it, so a line that is not UTF-8 raises ValueError
    naming the file and the line only after every earlier line was read.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.rstrip(b"\n").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
            yield lineno, line


_raw_decode = json.JSONDecoder().raw_decode


def parse_json_line(line: str) -> object:
    """``json.loads(line)``: the same value, or the same exception with the same text.

    A line that is exactly one JSON value, as the writers write it, takes one
    ``raw_decode`` call, without the BOM test and whitespace matches of
    ``json.loads``; any other line goes to ``json.loads`` itself. How deep a
    value may nest depends on the caller's stack, so within a frame of the
    recursion limit the two may differ on whether to raise RecursionError.
    """
    try:
        value, end = _raw_decode(line)
    except (ValueError, RecursionError):
        return json.loads(line)
    return value if end == len(line) else json.loads(line)


def write_assignments(path: str | Path, region_ids: Sequence[str], labels: Sequence[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for region_id, label in zip(region_ids, labels, strict=True):
            fh.write(f"{region_id}\t{label}\n")


def read_assignments(path: str | Path, region_ids: Sequence[str]) -> list[str]:
    """The label of each row of a corpus with these region ids, unassigned where the file lists none.

    A "\\r" before a line's end is dropped, so a CRLF copy reads as the original. The first bad line
    raises ValueError naming the file and the line: not ``id<TAB>label``, an id listed twice, or one the corpus lacks.
    """
    row_of = {region_id: row for row, region_id in enumerate(region_ids)}
    labels = [UNASSIGNED] * len(region_ids)
    listed_on = [0] * len(region_ids)
    for lineno, line in read_lines(path):
        line = line.removesuffix("\r")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'region_id<TAB>label'")
        row = row_of.get(parts[0])
        if row is None:
            raise ValueError(f"{path}:{lineno}: region id {parts[0]!r} is not in the corpus")
        if listed_on[row]:
            raise ValueError(f"{path}:{lineno}: region id {parts[0]!r} already listed on line {listed_on[row]}")
        listed_on[row] = lineno
        labels[row] = parts[1]
    return labels


def write_key_values(path: str | Path, values: Mapping[str, object]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in values.items():
            fh.write(f"{key} = {format_value(value)}\n")


def key_value_lines(path: str | Path) -> Iterator[tuple[int, str, str]]:
    """(line number, key, value) for each line of a config, spec or stats.txt; blank and ``#`` lines are skipped.

    A line without "=" and a key listed twice raise ValueError naming the file and the line.
    """
    line_of: dict[str, int] = {}
    for lineno, line in read_lines(path):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got '{stripped}'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        first = line_of.setdefault(key, lineno)
        if first != lineno:
            raise ValueError(f"{path}:{lineno}: key '{key}' already set on line {first}")
        yield lineno, key, raw.strip()


def read_key_values(path: str | Path) -> dict[str, str]:
    return {key: value for _, key, value in key_value_lines(path)}


def write_curve_csv(path: str | Path, points: Iterable[tuple[int, float]], total: int) -> None:
    """A counted curve with each covered-box count written as its fraction of ``total``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("coverage,cumulative_purity\n")
        for covered, y in points:
            fh.write(f"{format_value(covered / total)},{format_value(y)}\n")
