"""Command-line front end.

One table of subcommands (``_COMMANDS``) and one of arguments
(``_ARGUMENTS``) drive the parser, the argument reading and the JSON
``inputs``: ``run`` reads each argument once, in declaration order, passes
the values to the command and echoes them. Adding a command is adding one
row; a command parses nothing and returns its exit code, results and lines.

Every subcommand prints a short human summary by default and a structured
JSON report with ``--json``; the report shape is fixed: command, inputs,
results, timing_ms (integers and strings only, never floats).

Exit codes: 0 success, 1 negative verdict for predicate-style commands
(containment missing, no certificate, no extension, family unverified,
corpus row failed, empty witness search), 2 usage or input errors,
unreadable files, and inputs too large to process.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .perm_core import ParseError, Permutation, Slot, contains, parse_permutation
from .decomposition import DecompositionTree, _fold, _tree_parts, substitution_decompose
from .class_engine import (
    PermClass,
    ShadingGrid,
    enumerate_class,
    enumerate_simples,
    shading_grid,
)
from .deflate_analysis import classify_principal, extend_to_simple
from .witness import (
    bond_certificate,
    find_witnesses,
    inflation_family,
    verify_corpus,
)


def _parse_basis(text: str) -> PermClass:
    parts = [part for part in text.split(",") if part.strip()]
    if not parts:
        raise ParseError("empty basis")
    return PermClass(tuple(parse_permutation(part) for part in parts))


def _compact(p: Permutation) -> str:
    return str(p).replace(" ", "") if len(p) <= 9 else str(p)


class _JSONText(str):
    """A result already written as JSON text, which ``_encode`` splices in."""


_JSON_SLOT = "\0json\0"  # a string no report holds
_LEAF = '{"leaf": true}'


def _tree_views(tree: DecompositionTree) -> tuple[_JSONText, str]:
    """The ``--json`` tree, as JSON text, and the text display, in one fold.
    A node's value also holds its text as a child: its compact skeleton
    when its children are all leaves."""

    def join(skeleton, kids):
        if skeleton is None:
            return _LEAF, "1", "1"
        compact = _compact(skeleton)
        text = compact + "[" + ", ".join(kid[2] for kid in kids) + "]"
        shown = compact if all(kid[0] is _LEAF for kid in kids) else text
        children = ", ".join(kid[0] for kid in kids)
        return f'{{"skeleton": "{skeleton}", "children": [{children}]}}', text, shown

    node, text, _ = _fold(tree, _tree_parts, join)
    return _JSONText(node), text


def _encode(report: dict) -> str:
    """One ``json.dumps`` of a report, with a ``_JSONText`` result spliced in
    where ``_JSON_SLOT`` stood, so the encoder never walks a deep tree."""
    results = report["results"]
    raw = next((key for key, value in results.items() if isinstance(value, _JSONText)), None)
    if raw is None:
        return json.dumps(report)
    text = json.dumps({**report, "results": {**results, raw: _JSON_SLOT}})
    return text.replace(json.dumps(_JSON_SLOT), results[raw], 1)


def _slot_text(slot: Slot) -> str:
    return f"{slot.pos_slot} {slot.val_slot}"


def render_grid(grid: ShadingGrid) -> str:
    """ASCII shading grid: '#' blocked slot, '.' open slot, 'o' entry.
    Values increase upward (row 1 printed last), positions rightward."""
    host = grid.host.values
    n = len(host)
    blocked = grid.blocked
    lines = []
    for vs in range(n + 1, 0, -1):
        lines.append(" ".join("#" if Slot(ps, vs) in blocked else "." for ps in range(1, n + 2)))
        if vs > 1:
            row = [" "] * (2 * n + 1)
            row[2 * host.index(vs - 1) + 1] = "o"
            lines.append("".join(row).rstrip())
    return "\n".join(lines)


_Outcome = tuple[int, dict, list[str]]  # exit code, results, text lines


def _cmd_contains(pattern: Permutation, host: Permutation) -> _Outcome:
    occ = contains(pattern, host)
    if occ is None:
        return 1, {"contained": False, "occurrence": None}, [f"{pattern} does not occur in {host}"]
    text = " ".join(str(p) for p in occ.positions)
    return 0, {"contained": True, "occurrence": text}, [f"occurrence at positions {text}"]


def _cmd_decompose(perm: Permutation) -> _Outcome:
    node, text = _tree_views(substitution_decompose(perm))
    return 0, {"tree": node, "display": text}, [text]


def _cmd_simples(basis: PermClass, max_len: int) -> _Outcome:
    simples = [str(s) for s in enumerate_simples(basis, max_len)]
    return 0, {"count": len(simples), "simples": simples}, simples or ["(none)"]


def _cmd_enumerate(basis: PermClass, max_len: int) -> _Outcome:
    members = list(enumerate_class(basis, max_len))
    counts = [0] * max_len  # only once the walk has checked the bound
    for p in members:
        counts[len(p) - 1] += 1
    lines = [str(p) for p in members]
    results = {"counts": [[n, k] for n, k in enumerate(counts, start=1)], "members": lines}
    return 0, results, lines or ["(empty class)"]


def _cmd_shade(perm: Permutation, basis: PermClass) -> _Outcome:
    grid = shading_grid(perm, basis)
    blocked = sorted(grid.blocked)
    results = {"blocked": [_slot_text(s) for s in blocked], "blocked_count": len(blocked)}
    return 0, results, [render_grid(grid)]


def _cmd_classify(pi: Permutation) -> _Outcome:
    verdict = classify_principal(pi)
    results = {"status": verdict.status, "rule": verdict.rule,
               "symmetry_used": verdict.symmetry_used.value}
    return 0, results, [verdict.describe()]


def _cmd_witness_search(basis: PermClass, max_len: int, limit: int) -> _Outcome:
    reports = find_witnesses(basis, max_len, limit)
    rows = [
        {
            "witness": str(r.witness),
            "bond_position": r.certificate.bond.left_pos,
            "bond_kind": r.certificate.bond.kind,
            "cross_check_bound": r.cross_check_bound,
        }
        for r in reports
    ]
    lines = [
        f"witness {row['witness']} ({row['bond_kind']} bond at position {row['bond_position']})"
        for row in rows
    ] or [f"no certified witnesses in {basis} up to length {max_len}"]
    return (0 if rows else 1), {"witnesses": rows}, lines


def _cmd_witness_check(perm: Permutation, basis: PermClass) -> _Outcome:
    cert = bond_certificate(perm, basis)
    if cert is None:
        return 1, {"certified": False, "bond": None}, [f"no bond of {perm} certifies against {basis}"]
    results = {
        "certified": True,
        "bond": {
            "position": cert.bond.left_pos,
            "kind": cert.bond.kind,
            "low_value": cert.bond.low_value,
        },
        "checked_slots": [_slot_text(s) for s in sorted(cert.checked_slots)],
    }
    lines = [
        f"certified: {cert.bond.kind} bond at positions "
        f"({cert.bond.left_pos}, {cert.bond.left_pos + 1}), values "
        f"{{{cert.bond.low_value}, {cert.bond.low_value + 1}}}; "
        f"{len(cert.checked_slots)} strip slots all blocked"
    ]
    return 0, results, lines


def _cmd_extend(perm: Permutation, basis: PermClass, max_len: int) -> _Outcome:
    result = extend_to_simple(perm, basis, max_len)
    if result is None:
        return 1, {"found": False, "simple": None, "chain": []}, [
            f"no simple member of {basis} of length <= {max_len} contains {perm}"
        ]
    chain = [{"slot": _slot_text(r.slot), "extension": str(r.extension)} for r in result.chain]
    results = {"found": True, "simple": str(result.simple), "chain": chain}
    lines = [f"simple extension: {result.simple}"]
    lines.extend(f"  break at slot ({c_['slot']}) -> {c_['extension']}" for c_ in chain)
    return 0, results, lines


def _cmd_family(theta: Permutation) -> _Outcome:
    check = inflation_family(theta)
    results = {"pi_star": str(check.pi_star), "omega_star": str(check.omega_star),
               "verified": check.verified}
    lines = [
        f"pi* = {check.pi_star}",
        f"omega* = {check.omega_star}",
        f"verified: {'yes' if check.verified else 'NO'}",
    ]
    return (0 if check.verified else 1), results, lines


def _cmd_verify_paper(corpus: str | None) -> _Outcome:
    rows = verify_corpus(corpus)
    if not rows:
        # a replay that checked nothing must not pass
        raise ValueError(f"corpus {corpus} has no rows")
    out_rows = []
    lines = []
    for row in rows:
        cross = "skipped" if row.cross_check_bound is None else (
            "ok" if row.cross_check_passed else "FAILED"
        )
        out_rows.append(
            {
                "basis": str(row.basis),
                "witness": str(row.witness),
                "in_class": row.in_class,
                "certified": row.certified,
                "cross_check": cross,
                "passed": row.passed,
            }
        )
        status = "pass" if row.passed else "FAIL"
        lines.append(
            f"{status}  Av({str(row.basis).replace(' ', '')})  witness length {len(row.witness)}"
            f"  certificate={'yes' if row.certified else 'no'}  cross-check={cross}"
        )
    all_passed = all(row.passed for row in rows)
    lines.append(f"{sum(r.passed for r in rows)}/{len(rows)} rows passed")
    return (0 if all_passed else 1), {"rows": out_rows, "all_passed": all_passed}, lines


#: Every argument once: its argparse options and, for a permutation or a
#: basis, the reader ``run`` applies to what argparse gives.
_ARGUMENTS = {
    "pattern": ({}, parse_permutation),
    "host": ({}, parse_permutation),
    "perm": ({}, parse_permutation),
    "pi": ({}, parse_permutation),
    "--perm": ({"required": True}, parse_permutation),
    "--basis": ({"required": True}, _parse_basis),
    "--max-len": ({"type": int, "required": True}, None),
    "--limit": ({"type": int, "default": 1}, None),
    "--theta": ({"required": True}, parse_permutation),
    "--corpus": ({"default": None}, None),
}

#: Every subcommand once, in help order: (name, help, command, arguments).
#: A row without a command opens a group, whose rows are named "<group> <name>".
_COMMANDS = (
    ("contains", "search for a pattern inside a host", _cmd_contains, ("pattern", "host")),
    ("decompose", "substitution decomposition tree", _cmd_decompose, ("perm",)),
    ("simples", "simple members of a class", _cmd_simples, ("--basis", "--max-len")),
    ("enumerate", "members of a class by length", _cmd_enumerate, ("--basis", "--max-len")),
    ("shade", "ASCII shading grid of a member", _cmd_shade, ("--perm", "--basis")),
    ("classify", "deflatability verdict for Av(pi)", _cmd_classify, ("pi",)),
    ("witness", "witness search / certificate check", None, ()),
    ("witness search", "scan a class for certified witnesses", _cmd_witness_search,
     ("--basis", "--max-len", "--limit")),
    ("witness check", "bond-certificate check for one member", _cmd_witness_check,
     ("--perm", "--basis")),
    ("extend", "extend a member to a simple member", _cmd_extend, ("--perm", "--basis", "--max-len")),
    ("family", "inflation-family check for one block", _cmd_family, ("--theta",)),
    ("verify-paper", "replay the bundled witness corpus", _cmd_verify_paper, ("--corpus",)),
)


def build_parser() -> argparse.ArgumentParser:
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
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for name, help_text, func, arg_names in _COMMANDS:
        group, _, leaf = name.rpartition(" ")
        if func is None:
            p = groups[group].add_parser(leaf, help=help_text)
            groups[name] = p.add_subparsers(dest=f"{name}_command", required=True)
            continue
        p = groups[group].add_parser(leaf, parents=[common], help=help_text)
        for arg in arg_names:
            p.add_argument(arg, **_ARGUMENTS[arg][0])
        p.set_defaults(command_row=(name, func, arg_names))
    return parser


def _echo(value: object) -> object:
    """A value ``run`` read, as the report's ``inputs`` show it."""
    if isinstance(value, PermClass):
        return [str(b) for b in value.basis]
    if isinstance(value, Permutation):
        return str(value)
    return "bundled" if value is None else value  # only --corpus may be absent


def run(argv: list[str]) -> int:
    """Parse and execute one invocation; return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    name, func, arg_names = args.command_row
    t0 = time.monotonic()
    try:
        values = {}
        for arg in arg_names:  # in declaration order: the first bad one is reported
            dest = arg.lstrip("-").replace("-", "_")
            reader = _ARGUMENTS[arg][1]
            values[dest] = getattr(args, dest) if reader is None else reader(getattr(args, dest))
        code, results, lines = func(**values)
        if args.json:
            report = {
                "command": name,
                "inputs": {dest: _echo(value) for dest, value in values.items()},
                "results": results,
                "timing_ms": int((time.monotonic() - t0) * 1000),
            }
            lines = [_encode(report)]
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: input too large to process (MemoryError)", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
