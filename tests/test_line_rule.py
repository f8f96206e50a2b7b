"""Every text input is read by ``reporting.read_lines``: lines split at "\\n" only, each decoded strictly."""

import ast
from pathlib import Path

import numpy as np
import pytest

import dualmem
from dualmem.config import Config, load_config, save_config
from dualmem.corpus import open_corpus, write_corpus_jsonl
from dualmem.evaluation import load_gt, write_gt
from dualmem.records import BoundingBox, CorpusFormatError, GroundTruthBox

from conftest import make_region


def corpus_columns(table):
    return (
        table.region_ids, table.image_ids, table.image_starts.tolist(), table.boxes.tobytes(),
        table.scores.tobytes(), table.features.tobytes(), table.gt_labels,
    )


def gt_columns(gt):
    return gt.image_ids, gt.boxes.tobytes(), gt.class_names, gt.known.tolist()


def write_corpus(path):
    rng = np.random.default_rng(0)
    records = [
        make_region(f"r{i}", f"img{i // 2}", rng.standard_normal(3), score=0.25 * (i % 4), gt_label=["cat", None][i % 2])
        for i in range(6)
    ]
    write_corpus_jsonl(path, 3, records)


def write_ground_truth(path):
    write_gt(path, [
        GroundTruthBox("img0", BoundingBox(0.0, 0.0, 1.0, 2.0), "cat", True),
        GroundTruthBox("img1", BoundingBox(1.5, 0.5, 3.0, 4.0), "dog", False),
    ])


def write_config(path):
    save_config(Config(d=3, rounds=2, l2_normalize=False, init_mode="null"), path)


READERS = {
    "corpus": (write_corpus, lambda path: corpus_columns(open_corpus(path))),
    "gt": (write_ground_truth, lambda path: gt_columns(load_gt(path))),
    "config": (write_config, load_config),
}


@pytest.mark.parametrize("kind", sorted(READERS))
def test_a_crlf_copy_reads_as_the_original(tmp_path, kind):
    write, read = READERS[kind]
    write(tmp_path / "lf")
    (tmp_path / "crlf").write_bytes((tmp_path / "lf").read_bytes().replace(b"\n", b"\r\n"))
    assert read(tmp_path / "crlf") == read(tmp_path / "lf")


def test_a_lone_carriage_return_between_json_tokens_is_whitespace(tmp_path):
    """A text-mode reader would end the line at the "\\r" and fail on half a record."""
    write_corpus(tmp_path / "lf.jsonl")
    data = (tmp_path / "lf.jsonl").read_bytes()
    (tmp_path / "cr.jsonl").write_bytes(data.replace(b',"image_id"', b',\r"image_id"'))
    assert corpus_columns(open_corpus(tmp_path / "cr.jsonl")) == corpus_columns(open_corpus(tmp_path / "lf.jsonl"))


def test_a_record_cut_inside_a_string_names_the_column_where_the_string_starts(tmp_path):
    """The column is found on the line without its "\\n", which would otherwise be the fault."""
    path = tmp_path / "corpus.jsonl"
    write_corpus(path)
    lines = path.read_text().split("\n")
    lines[1] = lines[1][: lines[1].index('"cat"') + 3]  # ... "gt_label":"ca
    path.write_text("\n".join(lines))
    column = lines[1].rindex('"') + 1
    with pytest.raises(CorpusFormatError) as caught:
        open_corpus(path)
    assert str(caught.value) == f"{path}: line 2: invalid JSON at column {column}"


def text_reads(source):
    """(line, mode) of each call in ``source`` that opens a file to read it as text.

    A mode that is not a string literal counts, since the guard cannot tell what it reads.
    """
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "read_text":
            yield node.lineno, "read_text"
            continue
        if isinstance(func, ast.Name) and func.id == "open":
            positional = node.args[1:2]
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            positional = node.args[:1]  # Path.open(mode)
        else:
            continue
        mode = next((kw.value for kw in node.keywords if kw.arg == "mode"), None)
        mode = mode or (positional[0] if positional else ast.Constant("r"))
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
            yield node.lineno, ast.unparse(mode)
        elif "b" not in mode.value and ("r" in mode.value or "+" in mode.value):
            yield node.lineno, mode.value


@pytest.mark.parametrize("source, found", [
    ("open(p)", [(1, "r")]),
    ("open(p, 'r', encoding='utf-8')", [(1, "r")]),
    ("open(p, mode='w+')", [(1, "w+")]),
    ("open(p, mode)", [(1, "mode")]),
    ("p.open()", [(1, "r")]),
    ("p.read_text()", [(1, "read_text")]),
    ("open(p, 'rb'); open(p, 'w', encoding='utf-8'); p.open('wb'); p.read_bytes()", []),
])
def test_the_guard_finds_text_reads(source, found):
    assert list(text_reads(source)) == found


def test_read_lines_is_the_only_text_reader_in_the_package():
    """A second text-mode reader would bring back a second line rule ("\\r" as a line end)."""
    package = Path(dualmem.__file__).parent
    found = {
        path.name: reads for path in sorted(package.glob("*.py"))
        if (reads := list(text_reads(path.read_text(encoding="utf-8"))))
    }
    assert found == {}
