"""The README's examples: each ``$ permdeflate ...`` command prints what the
README shows, the JSON report example is what ``--json`` prints, and each
commented result of the library quick tour holds."""

from __future__ import annotations

import ast
import itertools
import json
import re
import shlex
from pathlib import Path

import pytest

from permdeflate.cli import _COMMANDS, run

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _section(title: str) -> str:
    """The text of the README section headed ``title``, up to the next
    heading of the same or a higher level outside a code block."""
    depth = title.index(" ")
    lines = README.splitlines(keepends=True)
    start = lines.index(title + "\n") + 1
    fenced = False
    for end in range(start, len(lines)):
        line = lines[end]
        fenced ^= line.startswith("```")
        if not fenced and line.startswith("#") and line.index(" ") <= depth:
            break
    else:
        end = len(lines)
    return "".join(lines[start:end])


def _blocks(text: str, lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)


def _command_examples() -> list[tuple[list[str], list[str]]]:
    """(argv, shown output lines) for each ``$ permdeflate`` example."""
    examples = []
    for block in _blocks(_section("## Command line"), "text"):
        for chunk in block.split("\n\n"):
            first, *shown = chunk.rstrip("\n").split("\n")
            if first.startswith("$ permdeflate "):
                examples.append((shlex.split(first)[2:], shown))
    return examples


_EXAMPLES = _command_examples()


def test_readme_usage_lists_the_command_table():
    # the usage block names each subcommand of the table once, in its order
    usage = _blocks(_section("## Command line"), "text")[0]
    names = [
        " ".join(itertools.takewhile(lambda word: word[0].isalpha(), line.split()[1:]))
        for line in usage.splitlines()
    ]
    assert names == [name for name, _, func, _ in _COMMANDS if func is not None]


def test_readme_shows_command_examples():
    assert [argv[0] for argv, _ in _EXAMPLES] == [
        "classify", "classify", "witness", "shade", "verify-paper"
    ]


@pytest.mark.parametrize("argv, shown", _EXAMPLES, ids=[" ".join(a) for a, _ in _EXAMPLES])
def test_readme_command_example(capsys, argv, shown):
    assert run(argv) == 0
    out = capsys.readouterr().out.splitlines()
    if "..." in shown:
        # an elided listing: the lines before and after the ellipsis
        cut = shown.index("...")
        assert out[:cut] == shown[:cut]
        assert out[len(out) - (len(shown) - cut - 1) :] == shown[cut + 1 :]
    else:
        assert out == shown


def test_readme_json_report_example(capsys):
    (block,) = _blocks(_section("### JSON reports"), "json")
    shown = json.loads(block.replace("\n", " "))
    inputs = shown["inputs"]
    assert run([shown["command"], inputs["pi"], "--json"]) == 0
    printed = json.loads(capsys.readouterr().out)
    for report in (shown, printed):
        del report["timing_ms"]
    assert printed == shown


def test_readme_library_quick_tour():
    (block,) = _blocks(_section("## Library quick tour"), "python")
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(block).body:
        code = ast.get_source_segment(block, stmt)
        _, hash_, comment = lines[stmt.end_lineno - 1].partition("  # ")
        if not hash_:
            exec(code, namespace)
            continue
        # the comment starts with the result's repr, maybe followed by ": why"
        result = repr(eval(code, namespace))
        assert comment == result or comment.startswith(result + ":"), (code, comment)
        checked += 1
    assert checked == 6
