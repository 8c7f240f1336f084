"""README's examples keep working: the library quick start runs and gives
the results its comments state, and every ``mutopo`` line of its shell
blocks parses, so a renamed function, verb or flag fails here."""

import re
import shlex
from pathlib import Path

import pytest

from mutopo.cli import build_parser

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


def _cli_lines() -> list[str]:
    """Each ``mutopo`` line of the shell blocks, with its comment and pipe cut."""
    lines = (line.split("#")[0].split("|")[0].strip()
             for block in _blocks("sh") for line in block.splitlines())
    return [line for line in lines if line.startswith("mutopo ")]


def test_the_library_quick_start_runs_as_its_comments_say():
    (block,) = [block for block in _blocks("python") if "build_universe" in block]
    ns = {}
    exec(block, ns)
    assert ns["mutate"](ns["a3"], 2).b == ((0, -1, 1), (1, 0, -1), (-1, 1, 0))
    assert ns["restrict"](ns["a3"], [1, 3]).b == ((0, 0), (0, 0))
    assert (ns["enum"].status, ns["enum"].count) == ("CLOSED", 4)
    assert ns["ev"].verdict.value == "YES" and ns["ev"].witness.subset == (1, 2)
    assert len(ns["closure"](ns["u"], [ns["class_key"](ns["a3"]).hash])) == 4


def test_the_readme_shows_every_cli_line_this_test_parses():
    assert len(_cli_lines()) == 13


@pytest.mark.parametrize("line", _cli_lines())
def test_a_readme_cli_line_parses(line):
    argv = shlex.split(line)[1:]
    args = build_parser().parse_args(argv)
    assert args.command == argv[0] and callable(args.func)
