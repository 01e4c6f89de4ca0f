"""README.md is the package's contract: these tests keep it naming what the package offers."""

import argparse
import contextlib
import io
import json
import re
from pathlib import Path

import pytest

import fairrank as fr
import fairrank.cli
import fairrank.errors
from fairrank.cli import build_parser, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

ERRORS = [
    cls
    for cls in vars(fairrank.errors).values()
    if isinstance(cls, type) and issubclass(cls, fr.FairRankError)
]

# words that name how the code works; the module docstrings hold those facts
INTERNALS = ("memoryview", "sentinel", "cached_property", "lru_cache", "power-of-two",
             "attribute-major", "sterbenz", "ufunc", "memo")


def _code_words(text: str) -> set:
    """Identifiers and flags inside the fenced blocks and inline code spans of text."""
    fences = re.findall(r"```.*?```", text, flags=re.S)
    inline = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    return set(re.findall(r"--?[A-Za-z][\w-]*|\w+", " ".join(fences + inline)))


def _error_table() -> dict:
    """{error name: exit code cell} from the table of the README's Errors section."""
    section = README.split("\n## Errors\n", 1)[1].split("\n## ", 1)[0]
    return dict(re.findall(r"^\| `(\w+)` \| .* \| ([^|]+) \|$", section, flags=re.M))


def test_readme_names_every_public_name_error_and_flag():
    words = _code_words(README)
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {flag for p in sub.choices.values() for a in p._actions for flag in a.option_strings}
    assert set(fr.__all__) - words == set()
    assert {cls.__name__ for cls in ERRORS} - words == set()
    assert flags - words == set()


def test_readme_holds_no_timing_and_no_internals():
    assert re.findall(r"\d\s?(?:µs|μs|us|ms|s)\b", README) == []
    assert [w for w in INTERNALS if w in README.lower()] == []


def test_readme_error_table_gives_each_error_its_exit_code():
    def exit_code(cls):
        if issubclass(cls, fr.ValidationError):
            return "2"
        return "3" if issubclass(cls, fr.RankingError) else "2 or 3"

    assert _error_table() == {cls.__name__: exit_code(cls) for cls in ERRORS}


@pytest.mark.parametrize(
    "cls", [c for c in ERRORS if c is not fr.FairRankError], ids=lambda c: c.__name__
)
def test_cli_exits_as_the_error_table_says(cls, tmp_path, monkeypatch):
    def raise_it(obj):
        raise cls("raised by the test")

    monkeypatch.setattr(fairrank.cli, "task_from_dict", raise_it)
    (tmp_path / "task.json").write_text(json.dumps({}))
    argv = ["rerank", "--input", str(tmp_path / "task.json"), "--algorithm", "vanilla"]
    assert str(main(argv)) == _error_table()[cls.__name__]


def test_readme_quick_start_prints_what_its_comments_say():
    block = re.search(r"```python\n(.*?)```", README, flags=re.S).group(1)
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    expected = [line.split("  # ", 1)[1] for line in prints if "  # " in line]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert len(expected) == len(prints) >= 1
    assert out.getvalue().splitlines() == expected
