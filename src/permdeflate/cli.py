"""Command-line front end.

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


def _cmd_contains(args) -> tuple[int, dict, dict, list[str]]:
    pattern = parse_permutation(args.pattern)
    host = parse_permutation(args.host)
    occ = contains(pattern, host)
    inputs = {"pattern": str(pattern), "host": str(host)}
    if occ is None:
        return 1, inputs, {"contained": False, "occurrence": None}, [
            f"{pattern} does not occur in {host}"
        ]
    text = " ".join(str(p) for p in occ.positions)
    return 0, inputs, {"contained": True, "occurrence": text}, [
        f"occurrence at positions {text}"
    ]


def _cmd_decompose(args) -> tuple[int, dict, dict, list[str]]:
    p = parse_permutation(args.perm)
    node, text = _tree_views(substitution_decompose(p))
    return 0, {"perm": str(p)}, {"tree": node, "display": text}, [text]


def _cmd_simples(args) -> tuple[int, dict, dict, list[str]]:
    c = _parse_basis(args.basis)
    simples = enumerate_simples(c, args.max_len)
    inputs = {"basis": [str(b) for b in c.basis], "max_len": args.max_len}
    results = {"count": len(simples), "simples": [str(s) for s in simples]}
    return 0, inputs, results, [str(s) for s in simples] or ["(none)"]


def _cmd_enumerate(args) -> tuple[int, dict, dict, list[str]]:
    c = _parse_basis(args.basis)
    members = list(enumerate_class(c, args.max_len))
    counts = [0] * args.max_len  # only once the walk has checked the bound
    for p in members:
        counts[len(p) - 1] += 1
    inputs = {"basis": [str(b) for b in c.basis], "max_len": args.max_len}
    lines = [str(p) for p in members]
    results = {"counts": [[n, k] for n, k in enumerate(counts, start=1)], "members": lines}
    return 0, inputs, results, lines or ["(empty class)"]


def _cmd_shade(args) -> tuple[int, dict, dict, list[str]]:
    p = parse_permutation(args.perm)
    c = _parse_basis(args.basis)
    grid = shading_grid(p, c)
    blocked = sorted(grid.blocked)
    inputs = {"perm": str(p), "basis": [str(b) for b in c.basis]}
    results = {"blocked": [_slot_text(s) for s in blocked], "blocked_count": len(blocked)}
    return 0, inputs, results, [render_grid(grid)]


def _cmd_classify(args) -> tuple[int, dict, dict, list[str]]:
    pi = parse_permutation(args.pi)
    verdict = classify_principal(pi)
    results = {
        "status": verdict.status,
        "rule": verdict.rule,
        "symmetry_used": verdict.symmetry_used.value,
    }
    return 0, {"pi": str(pi)}, results, [verdict.describe()]


def _cmd_witness_search(args) -> tuple[int, dict, dict, list[str]]:
    c = _parse_basis(args.basis)
    reports = find_witnesses(c, args.max_len, args.limit)
    rows = [
        {
            "witness": str(r.witness),
            "bond_position": r.certificate.bond.left_pos,
            "bond_kind": r.certificate.bond.kind,
            "cross_check_bound": r.cross_check_bound,
        }
        for r in reports
    ]
    inputs = {"basis": [str(b) for b in c.basis], "max_len": args.max_len, "limit": args.limit}
    lines = [
        f"witness {row['witness']} ({row['bond_kind']} bond at position {row['bond_position']})"
        for row in rows
    ] or [f"no certified witnesses in {c} up to length {args.max_len}"]
    return (0 if rows else 1), inputs, {"witnesses": rows}, lines


def _cmd_witness_check(args) -> tuple[int, dict, dict, list[str]]:
    p = parse_permutation(args.perm)
    c = _parse_basis(args.basis)
    cert = bond_certificate(p, c)
    inputs = {"perm": str(p), "basis": [str(b) for b in c.basis]}
    if cert is None:
        return 1, inputs, {"certified": False, "bond": None}, [
            f"no bond of {p} certifies against {c}"
        ]
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
    return 0, inputs, results, lines


def _cmd_extend(args) -> tuple[int, dict, dict, list[str]]:
    p = parse_permutation(args.perm)
    c = _parse_basis(args.basis)
    result = extend_to_simple(p, c, args.max_len)
    inputs = {"perm": str(p), "basis": [str(b) for b in c.basis], "max_len": args.max_len}
    if result is None:
        return 1, inputs, {"found": False, "simple": None, "chain": []}, [
            f"no simple member of {c} of length <= {args.max_len} contains {p}"
        ]
    chain = [
        {"slot": _slot_text(r.slot), "extension": str(r.extension)} for r in result.chain
    ]
    results = {"found": True, "simple": str(result.simple), "chain": chain}
    lines = [f"simple extension: {result.simple}"]
    lines.extend(f"  break at slot ({c_['slot']}) -> {c_['extension']}" for c_ in chain)
    return 0, inputs, results, lines


def _cmd_family(args) -> tuple[int, dict, dict, list[str]]:
    theta = parse_permutation(args.theta)
    check = inflation_family(theta)
    results = {
        "pi_star": str(check.pi_star),
        "omega_star": str(check.omega_star),
        "verified": check.verified,
    }
    lines = [
        f"pi* = {check.pi_star}",
        f"omega* = {check.omega_star}",
        f"verified: {'yes' if check.verified else 'NO'}",
    ]
    return (0 if check.verified else 1), {"theta": str(theta)}, results, lines


def _cmd_verify_paper(args) -> tuple[int, dict, dict, list[str]]:
    rows = verify_corpus(args.corpus)
    if not rows:
        # a replay that checked nothing must not pass
        raise ValueError(f"corpus {args.corpus} has no rows")
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
    results = {"rows": out_rows, "all_passed": all_passed}
    return (0 if all_passed else 1), {"corpus": args.corpus or "bundled"}, results, lines


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
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("contains", parents=[common], help="search for a pattern inside a host")
    p.add_argument("pattern")
    p.add_argument("host")
    p.set_defaults(func=_cmd_contains)

    p = sub.add_parser("decompose", parents=[common], help="substitution decomposition tree")
    p.add_argument("perm")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("simples", parents=[common], help="simple members of a class")
    p.add_argument("--basis", required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.set_defaults(func=_cmd_simples)

    p = sub.add_parser("enumerate", parents=[common], help="members of a class by length")
    p.add_argument("--basis", required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("shade", parents=[common], help="ASCII shading grid of a member")
    p.add_argument("--perm", required=True)
    p.add_argument("--basis", required=True)
    p.set_defaults(func=_cmd_shade)

    p = sub.add_parser("classify", parents=[common], help="deflatability verdict for Av(pi)")
    p.add_argument("pi")
    p.set_defaults(func=_cmd_classify)

    w = sub.add_parser("witness", help="witness search / certificate check")
    wsub = w.add_subparsers(dest="witness_command", required=True)
    p = wsub.add_parser("search", parents=[common], help="scan a class for certified witnesses")
    p.add_argument("--basis", required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--limit", type=int, default=1)
    p.set_defaults(func=_cmd_witness_search)
    p = wsub.add_parser("check", parents=[common], help="bond-certificate check for one member")
    p.add_argument("--perm", required=True)
    p.add_argument("--basis", required=True)
    p.set_defaults(func=_cmd_witness_check)

    p = sub.add_parser("extend", parents=[common], help="extend a member to a simple member")
    p.add_argument("--perm", required=True)
    p.add_argument("--basis", required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("family", parents=[common], help="inflation-family check for one block")
    p.add_argument("--theta", required=True)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("verify-paper", parents=[common], help="replay the bundled witness corpus")
    p.add_argument("--corpus", default=None)
    p.set_defaults(func=_cmd_verify_paper)

    return parser


def run(argv: list[str]) -> int:
    """Parse and execute one invocation; return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    t0 = time.monotonic()
    try:
        code, inputs, results, lines = args.func(args)
        if getattr(args, "json", False):
            command = args.command
            if command == "witness":
                command = f"witness {args.witness_command}"
            report = {
                "command": command,
                "inputs": inputs,
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
