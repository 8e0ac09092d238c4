"""The CLI's command and argument tables against the parser and the JSON
``inputs`` as they were first written by hand, one subcommand at a time."""

from __future__ import annotations

import argparse
import json

import pytest

from permdeflate.cli import _COMMANDS, _parse_basis, build_parser, run
from permdeflate.perm_core import parse_permutation


def _hand_written_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permdeflate",
        description="Deflatability analysis for principal permutation classes.",
        epilog=(
            "Permutations are whitespace-separated values (quote them) or compact "
            "digit strings for lengths <= 9; a basis is a comma-separated list. "
            "Exit codes: 0 success, 1 negative verdict, 2 usage/parse error, "
            "unreadable file or input too large to process."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report instead of text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("contains", parents=[common], help="search for a pattern inside a host")
    p.add_argument("pattern")
    p.add_argument("host")

    p = sub.add_parser("decompose", parents=[common], help="substitution decomposition tree")
    p.add_argument("perm")

    p = sub.add_parser("simples", parents=[common], help="simple members of a class")
    p.add_argument("--basis", required=True)
    p.add_argument("--max-len", type=int, required=True)

    p = sub.add_parser("enumerate", parents=[common], help="members of a class by length")
    p.add_argument("--basis", required=True)
    p.add_argument("--max-len", type=int, required=True)

    p = sub.add_parser("shade", parents=[common], help="ASCII shading grid of a member")
    p.add_argument("--perm", required=True)
    p.add_argument("--basis", required=True)

    p = sub.add_parser("classify", parents=[common], help="deflatability verdict for Av(pi)")
    p.add_argument("pi")

    w = sub.add_parser("witness", help="witness search / certificate check")
    wsub = w.add_subparsers(dest="witness_command", required=True)
    p = wsub.add_parser("search", parents=[common], help="scan a class for certified witnesses")
    p.add_argument("--basis", required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--limit", type=int, default=1)
    p = wsub.add_parser("check", parents=[common], help="bond-certificate check for one member")
    p.add_argument("--perm", required=True)
    p.add_argument("--basis", required=True)

    p = sub.add_parser("extend", parents=[common], help="extend a member to a simple member")
    p.add_argument("--perm", required=True)
    p.add_argument("--basis", required=True)
    p.add_argument("--max-len", type=int, required=True)

    p = sub.add_parser("family", parents=[common], help="inflation-family check for one block")
    p.add_argument("--theta", required=True)

    p = sub.add_parser("verify-paper", parents=[common], help="replay the bundled witness corpus")
    p.add_argument("--corpus", default=None)
    return parser


def _perm(text):
    return str(parse_permutation(text))


def _basis(text):
    return [str(b) for b in _parse_basis(text).basis]


#: Each subcommand's hand-written ``inputs``, from the hand-written parser's namespace.
_HAND_WRITTEN_INPUTS = {
    "contains": lambda a: {"pattern": _perm(a.pattern), "host": _perm(a.host)},
    "decompose": lambda a: {"perm": _perm(a.perm)},
    "simples": lambda a: {"basis": _basis(a.basis), "max_len": a.max_len},
    "enumerate": lambda a: {"basis": _basis(a.basis), "max_len": a.max_len},
    "shade": lambda a: {"perm": _perm(a.perm), "basis": _basis(a.basis)},
    "classify": lambda a: {"pi": _perm(a.pi)},
    "witness search": lambda a: {
        "basis": _basis(a.basis), "max_len": a.max_len, "limit": a.limit
    },
    "witness check": lambda a: {"perm": _perm(a.perm), "basis": _basis(a.basis)},
    "extend": lambda a: {"perm": _perm(a.perm), "basis": _basis(a.basis), "max_len": a.max_len},
    "family": lambda a: {"theta": _perm(a.theta)},
    "verify-paper": lambda a: {"corpus": a.corpus or "bundled"},
}


def _parsers(parser, path=()):
    """(subcommand path, parser) for the root and every subparser, in order."""
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _parsers(sub, (*path, name))


def _usage_error(capsys, parser, argv):
    with pytest.raises(SystemExit):
        parser.parse_args(argv)
    return capsys.readouterr().err


def test_every_help_text_and_usage_error_is_the_hand_written_one(capsys):
    built = dict(_parsers(build_parser()))
    hand = dict(_parsers(_hand_written_parser()))
    assert list(built) == list(hand) and len(built) == 13
    for path, parser in hand.items():
        assert built[path].format_help() == parser.format_help(), path
        # a usage error names the missing arguments by their dest
        argv = [*path, "--no-such-option"]
        expected = _usage_error(capsys, _hand_written_parser(), argv)
        assert _usage_error(capsys, build_parser(), argv) == expected, path


def _argument_sets(corpus):
    return [
        ["contains", "312", "2531647"],
        ["contains", "2 4 1 3", "3142"],
        ["decompose", "4371265"],
        ["decompose", "1"],
        ["simples", "--basis", "231", "--max-len", "6"],
        ["simples", "--max-len", "4", "--basis", "321, 2413,321"],
        ["enumerate", "--basis", "21", "--max-len", "3"],
        ["enumerate", "--basis", "1", "--max-len", "2"],
        ["shade", "--perm", "1", "--basis", "12"],
        ["shade", "--basis", "312,4321", "--perm", "2 1 3"],
        ["classify", "123456"],
        ["classify", "2413"],
        ["witness", "search", "--basis", "321", "--max-len", "5"],
        ["witness", "search", "--basis", "251364", "--max-len", "8", "--limit", "2"],
        ["witness", "check", "--perm", "25173486", "--basis", "251364"],
        ["witness", "check", "--perm", "123", "--basis", "321"],
        ["extend", "--perm", "12", "--basis", "321", "--max-len", "6"],
        ["extend", "--perm", "25173486", "--basis", "251364", "--max-len", "9"],
        ["family", "--theta", "12"],
        ["family", "--theta", "2 1"],
        ["verify-paper", "--corpus", corpus],
        ["verify-paper"],
    ]


def test_json_inputs_are_the_hand_written_ones(capsys, tmp_path):
    corpus = tmp_path / "rows.txt"
    corpus.write_text("2 5 1 3 6 4 | 2 5 1 7 3 4 8 6\n")
    seen = []
    for argv in _argument_sets(str(corpus)):
        args = _hand_written_parser().parse_args(argv)
        name = args.command if args.command != "witness" else f"witness {args.witness_command}"
        run([*argv, "--json"])
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == name, argv
        assert report["inputs"] == _HAND_WRITTEN_INPUTS[name](args), argv
        seen.append(name)
    leaves = [name for name, _, func, _ in _COMMANDS if func is not None]
    assert sorted(set(seen)) == sorted(leaves) == sorted(_HAND_WRITTEN_INPUTS)
    assert all(seen.count(name) >= 2 for name in leaves)


@pytest.mark.parametrize(
    "argv, bad",
    [(["shade", "--perm", "x", "--basis", "y"], "x"), (["contains", "12a", "3x"], "12a")],
)
def test_the_first_malformed_argument_is_reported(capsys, argv, bad):
    for extra in ([], ["--json"]):
        assert run([*argv, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: bad token '{bad}'\n"


def test_witness_reports_name_the_full_subcommand(capsys):
    for argv, name in (
        (["witness", "search", "--basis", "321", "--max-len", "4"], "witness search"),
        (["witness", "check", "--perm", "123", "--basis", "321"], "witness check"),
    ):
        run([*argv, "--json"])
        assert json.loads(capsys.readouterr().out)["command"] == name
