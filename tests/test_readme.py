"""README.md names every config key, every spec key and every command-line option.

A key or option added without a line in the README fails here, so the documented
surface cannot drift behind the code.
"""

import argparse
import dataclasses
import re
from pathlib import Path

import pytest

from dualmem.cli import build_parser
from dualmem.config import Config
from dualmem.synth import SynthSpec

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def long_options():
    """Every long option of every subcommand, ``--help`` and ``--version`` aside."""
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {o for sub in [parser, *subparsers.choices.values()] for a in sub._actions for o in a.option_strings}
    return sorted(o for o in options if o.startswith("--") and o not in ("--help", "--version"))


@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(Config)])
def test_every_config_key_is_documented(key):
    assert f"`{key}`" in README


@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(SynthSpec)])
def test_every_spec_key_is_documented(key):
    assert f"`{key}`" in README


def test_the_parser_defines_the_options_checked_below():
    assert {"--spec", "--threads", "--bg", "--priors", "--purity-floor", "--k"} <= set(long_options())


@pytest.mark.parametrize("option", long_options())
def test_every_long_option_is_documented(option):
    assert re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", README), option
