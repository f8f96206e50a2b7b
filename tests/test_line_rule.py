"""Every text input is read by ``reporting.read_lines``: lines split at "\\n" only, each decoded strictly."""

import ast
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dualmem
from dualmem.config import Config, load_config, save_config
from dualmem.corpus import open_corpus, write_corpus_jsonl
from dualmem.evaluation import load_gt, write_gt
from dualmem.records import BoundingBox, CorpusFormatError
from dualmem.reporting import UNASSIGNED, parse_json_line, read_assignments, write_assignments

from conftest import GtBox, gt_table_of, make_region


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
    write_gt(path, gt_table_of([
        GtBox("img0", BoundingBox(0.0, 0.0, 1.0, 2.0), "cat", True),
        GtBox("img1", BoundingBox(1.5, 0.5, 3.0, 4.0), "dog", False),
    ]))


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


JSON_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.floats(allow_nan=True, allow_infinity=True),
        st.text(max_size=6),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.dictionaries(st.text(max_size=4), children, max_size=4)
    ),
    max_leaves=12,
)
# Text put around a value: JSON whitespace, other separators, a BOM, more data, stray characters.
PADDING = st.text(
    st.sampled_from([" ", "\t", "\r", "\n", "\x0b", "\u2028", "\ufeff", "{", "}", "[", "]", "x", "1", '"']), max_size=3
)


@st.composite
def json_lines(draw):
    """One JSON value's text as the writers give it, with text around it, cut short, or spliced;
    and how many arrays were wrapped around it."""
    text = json.dumps(draw(JSON_VALUES), separators=draw(st.sampled_from([(",", ":"), (", ", ": ")])))
    edit = draw(st.sampled_from(["none", "pad", "cut", "splice", "long", "deep"]))
    depth = 0
    if edit == "pad":
        text = draw(PADDING) + text + draw(PADDING)
    elif edit == "cut":
        text = text[: draw(st.integers(0, len(text)))]
    elif edit == "splice":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(PADDING) + text[at:]
    elif edit == "long":  # an integer literal longer than int() converts
        text = f"[{text}, {'7' * draw(st.integers(4290, 4310))}]"
    elif edit == "deep":  # nesting below, around and past the recursion limit
        near_the_limit = st.integers(-20, 20).map(lambda k: sys.getrecursionlimit() + k)
        depth = draw(st.one_of(st.integers(1, 3000), near_the_limit))
        text = "[" * depth + text + "]" * depth
    return text, depth


def decoded(decode, line):
    """The value's repr (which tells 1 from 1.0 and True, and shows NaN), or the exception's type and text."""
    try:
        return repr(decode(line))
    except (ValueError, RecursionError) as exc:
        return type(exc), str(exc)


@given(drawn=json_lines())
@settings(max_examples=600, deadline=None)
def test_the_line_decoder_gives_what_json_loads_gives(drawn):
    """The same value, or the same exception with the same text.

    How deep a value may nest depends on the caller's stack. The decoder calls
    ``raw_decode`` one frame above, and ``json.loads`` one frame below, where a
    direct ``json.loads`` call parses, so within that frame of the limit one side
    may raise RecursionError where the other does not.
    """
    line, depth = drawn
    got, expected = decoded(parse_json_line, line), decoded(json.loads, line)
    at_the_limit = abs(depth - sys.getrecursionlimit()) <= 100 and RecursionError in (got[0], expected[0])
    assert got == expected or at_the_limit


def test_a_crlf_assignments_file_reads_as_the_original(tmp_path):
    """The tab-separated reader drops the "\\r" that a CRLF copy puts before each line end."""
    ids = ["r0", "r\r1"]
    write_assignments(tmp_path / "lf.tsv", ids, ["disc_1", "unassigned"])
    (tmp_path / "crlf.tsv").write_bytes((tmp_path / "lf.tsv").read_bytes().replace(b"\n", b"\r\n"))
    assert read_assignments(tmp_path / "crlf.tsv", ids) == read_assignments(tmp_path / "lf.tsv", ids) == [
        "disc_1", "unassigned",
    ]


def test_assignments_read_back_as_written_and_unlisted_rows_as_unassigned(tmp_path):
    ids = ["r0", "r\u20281", "r2", "r\x853"]
    labels = ["disc_1", "km_0", UNASSIGNED, "disc_1"]
    write_assignments(tmp_path / "all.tsv", ids, labels)
    assert read_assignments(tmp_path / "all.tsv", ids) == labels
    write_assignments(tmp_path / "some.tsv", ids[1::2], labels[1::2])
    assert (tmp_path / "some.tsv").read_text(encoding="utf-8") == "r\u20281\tkm_0\nr\x853\tdisc_1\n"
    assert read_assignments(tmp_path / "some.tsv", ids) == [UNASSIGNED, "km_0", UNASSIGNED, "disc_1"]
    with pytest.raises(ValueError):
        write_assignments(tmp_path / "short.tsv", ids, labels[:3])


def gt_line(class_name="cat", known_flag=True):
    return json.dumps({"image_id": "img0", "box": [0, 0, 1, 1], "class_name": class_name, "known_flag": known_flag})


@pytest.mark.parametrize("name", ["a\tb", "a\nb", "a\r", "\rb"])
def test_a_class_name_that_assignments_tsv_cannot_hold_is_refused(tmp_path, name):
    path = tmp_path / "gt.jsonl"
    path.write_text("\n".join([gt_line(), "", gt_line(name), gt_line()]) + "\n")
    with pytest.raises(ValueError) as caught:
        load_gt(path)
    assert str(caught.value) == (
        f"{path}:3: bad ground-truth record: class_name {name!r} contains a tab, a newline or a carriage return"
    )


@pytest.mark.parametrize("lines, lineno, fault", [
    ([gt_line("a\tb"), "{"], 1, "class_name 'a\\tb' contains"),  # a later bad line
    ([gt_line("a\tb", known_flag=1)], 1, "class_name 'a\\tb' contains"),  # a later field of the same record
    (["{", gt_line("a\tb")], 1, "Expecting property name"),  # an earlier bad line
    ([gt_line("a\tb"), b"\xff"], 1, "class_name 'a\\tb' contains"),  # a later line that is not UTF-8
])
def test_a_class_name_fault_is_reported_in_record_order(tmp_path, lines, lineno, fault):
    path = tmp_path / "gt.jsonl"
    path.write_bytes(b"\n".join(line if isinstance(line, bytes) else line.encode() for line in lines))
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:{lineno}: bad ground-truth record: {fault}')}"):
        load_gt(path)


def test_a_label_with_a_carriage_return_is_refused(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_corpus(path)
    path.write_bytes(path.read_bytes().replace(b'"cat"', b'"cat\\r"', 2))
    expected = f"{path}: line 2: gt_label 'cat\\r' contains a carriage return"
    with pytest.raises(CorpusFormatError, match=f"^{re.escape(expected)}$"):
        open_corpus(path)


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
