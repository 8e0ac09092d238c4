"""Command-line behaviour: verdicts, exit codes, JSON reports."""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from permdeflate.cli import _compact, _tree_views, render_grid, run
from permdeflate.class_engine import PermClass, shading_grid
from permdeflate.decomposition import _fold, substitution_decompose
from permdeflate.perm_core import MAX_LENGTH, Permutation, Slot, inflate, parse_permutation
from permdeflate.witness import load_corpus


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_human(capsys):
    code, out, _ = invoke(capsys, "classify", "123456")
    assert code == 0
    assert out.strip() == "non_deflatable (T3.1 three-sum)"


def test_contains_exit_codes(capsys):
    code, out, _ = invoke(capsys, "contains", "312", "2531647")
    assert code == 0
    assert out.strip() == "occurrence at positions 2 3 6"
    code, out, _ = invoke(capsys, "contains", "2413", "3142")
    assert code == 1
    assert "does not occur" in out


def test_usage_errors_exit_2(capsys):
    assert invoke(capsys, "no-such-command")[0] == 2
    assert invoke(capsys, "contains", "312")[0] == 2
    assert invoke(capsys, "contains", "2 2 1", "123")[0] == 2
    assert invoke(capsys, "shade", "--perm", "2531647", "--basis", "312")[0] == 2


def test_non_decimal_digit_exits_2(capsys):
    for pattern, host in (("1²", "12"), ("\u0662\u0661", "1 3 2")):
        code, out, err = invoke(capsys, "contains", pattern, host)
        assert code == 2 and out == ""
        assert err.startswith("error: bad token")


def test_json_report_shape_and_round_trip(capsys):
    code, out, _ = invoke(capsys, "classify", "2413", "--json")
    assert code == 0
    report = json.loads(out)
    assert list(report.keys()) == ["command", "inputs", "results", "timing_ms"]
    assert report["command"] == "classify"
    assert report["results"]["status"] == "non_deflatable"
    assert report["results"]["rule"] == "P5.1"
    assert isinstance(report["timing_ms"], int)
    assert json.dumps(report) == out.strip()


def test_json_has_no_floats(capsys):
    for argv in (
        ["classify", "1432", "--json"],
        ["contains", "312", "2531647", "--json"],
        ["witness", "check", "--perm", "25173486", "--basis", "251364", "--json"],
        ["enumerate", "--basis", "231", "--max-len", "4", "--json"],
        ["family", "--theta", "12", "--json"],
    ):
        _, out, _ = invoke(capsys, *argv)
        def no_floats(node):
            if isinstance(node, float):
                return False
            if isinstance(node, dict):
                return all(no_floats(v) for v in node.values())
            if isinstance(node, list):
                return all(no_floats(v) for v in node)
            return True
        assert no_floats(json.loads(out))


def test_json_and_human_verdicts_agree(capsys):
    code_h, out_h, _ = invoke(capsys, "classify", "25314")
    code_j, out_j, _ = invoke(capsys, "classify", "25314", "--json")
    assert code_h == code_j == 0
    assert json.loads(out_j)["results"]["status"] in out_h

    code_h, out_h, _ = invoke(capsys, "witness", "check", "--perm", "25173486", "--basis", "251364")
    code_j, out_j, _ = invoke(capsys, "witness", "check", "--perm", "25173486", "--basis", "251364", "--json")
    assert code_h == code_j == 0
    assert json.loads(out_j)["results"]["certified"] is True
    assert "certified" in out_h

    code_h, out_h, _ = invoke(capsys, "family", "--theta", "21")
    code_j, out_j, _ = invoke(capsys, "family", "--theta", "21", "--json")
    assert code_h == code_j == 0
    report = json.loads(out_j)
    assert report["results"]["verified"] is True and "verified: yes" in out_h
    assert report["results"]["omega_star"] in out_h

    code_h, out_h, _ = invoke(capsys, "contains", "2413", "3142")
    code_j, out_j, _ = invoke(capsys, "contains", "2413", "3142", "--json")
    assert code_h == code_j == 1
    assert json.loads(out_j)["results"]["contained"] is False and "does not occur" in out_h

    code_h, out_h, _ = invoke(capsys, "extend", "--perm", "12", "--basis", "321", "--max-len", "6")
    code_j, out_j, _ = invoke(
        capsys, "extend", "--perm", "12", "--basis", "321", "--max-len", "6", "--json"
    )
    assert code_h == code_j == 0
    assert json.loads(out_j)["results"]["simple"] in out_h


def test_decompose_output(capsys):
    code, out, _ = invoke(capsys, "decompose", "4371265")
    assert code == 0
    assert out.strip() == "2413[21, 1, 12, 21]"
    _, out_j, _ = invoke(capsys, "decompose", "4371265", "--json")
    tree = json.loads(out_j)["results"]["tree"]
    assert tree["skeleton"] == "2 4 1 3"
    assert len(tree["children"]) == 4


def _reference_tree_text(tree):
    """The display as first written: re-inflate each child whose children
    are all leaves."""
    if tree.is_leaf:
        return "1"
    parts = [
        _compact(c.reinflate()) if c.is_leaf or all(g.is_leaf for g in c.children)
        else _reference_tree_text(c)
        for c in tree.children
    ]
    return _compact(tree.skeleton) + "[" + ", ".join(parts) + "]"


def _reference_tree_json(tree):
    """The ``--json`` tree as first written: a nested dict for ``json.dumps``."""
    if tree.is_leaf:
        return {"leaf": True}
    children = [_reference_tree_json(c) for c in tree.children]
    return {"skeleton": str(tree.skeleton), "children": children}


_SKELETONS = ((1, 2), (2, 1), (2, 4, 1, 3), (3, 1, 4, 2), (2, 4, 1, 5, 3), (3, 5, 2, 4, 1))


def _random_inflation(rng, n):
    """A permutation of length n with nested blocks under random skeletons."""
    if n <= 6:
        return Permutation(tuple(rng.sample(range(1, n + 1), n)))
    skeleton = rng.choice(_SKELETONS)
    cuts = sorted(rng.sample(range(1, n), len(skeleton) - 1))
    sizes = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
    return inflate(Permutation(skeleton), [_random_inflation(rng, k) for k in sizes])


def test_decompose_text_matches_reinflating_reference(capsys):
    for n in range(1, 8):
        for q in itertools.permutations(range(1, n + 1)):
            tree = substitution_decompose(Permutation(q))
            views = (json.dumps(_reference_tree_json(tree)), _reference_tree_text(tree))
            assert _tree_views(tree) == views, q
    rng = random.Random(300)
    for _ in range(200):
        p = _random_inflation(rng, rng.randint(20, 300))
        tree = substitution_decompose(p)
        text = _reference_tree_text(tree)
        code, out, _ = invoke(capsys, "decompose", str(p))
        assert code == 0 and out == text + "\n"
        _, out_j, _ = invoke(capsys, "decompose", str(p), "--json")
        results = {"tree": _reference_tree_json(tree), "display": text}
        assert f'"results": {json.dumps(results)}, "timing_ms": ' in out_j


def test_shade_grid_layout(capsys):
    code, out, _ = invoke(capsys, "shade", "--perm", "1", "--basis", "12")
    assert code == 0
    assert out.splitlines() == [". #", " o", "# ."]


def test_witness_check_negative_exit(capsys):
    code, out, _ = invoke(capsys, "witness", "check", "--perm", "123", "--basis", "321")
    assert code == 1
    assert "no bond" in out


def test_witness_search(capsys):
    code, out, _ = invoke(
        capsys, "witness", "search", "--basis", "251364", "--max-len", "8", "--limit", "1"
    )
    assert code == 0
    assert "2 5 1 7 3 4 8 6" in out
    code, _, _ = invoke(capsys, "witness", "search", "--basis", "321", "--max-len", "6")
    assert code == 1


def test_extend_exit_codes(capsys):
    code, out, _ = invoke(capsys, "extend", "--perm", "12", "--basis", "321", "--max-len", "6")
    assert code == 0 and "simple extension" in out
    code, out, _ = invoke(
        capsys, "extend", "--perm", "25173486", "--basis", "251364", "--max-len", "10"
    )
    assert code == 1 and "no simple member" in out


def test_enumerate_and_simples(capsys):
    code, out, _ = invoke(capsys, "enumerate", "--basis", "21", "--max-len", "3")
    assert code == 0
    assert out.splitlines() == ["1", "1 2", "1 2 3"]
    code, out, _ = invoke(capsys, "simples", "--basis", "231", "--max-len", "6")
    assert code == 0
    assert set(out.splitlines()) == {"1", "1 2", "2 1"}


def test_enumerate_counts_lengths_without_members(capsys):
    code, out, _ = invoke(capsys, "enumerate", "--basis", "1", "--max-len", "3", "--json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results == {"counts": [[1, 0], [2, 0], [3, 0]], "members": []}


def test_unreadable_corpus_exits_2(capsys, tmp_path):
    code, out, err = invoke(capsys, "verify-paper", "--corpus", str(tmp_path / "missing.txt"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def _comb_text(n):
    """The display of the identity of length n >= 3: a right comb of sums,
    whose last tooth 12[1, 1] shows as 12."""
    return "12[1, " * (n - 2) + "12" + "]" * (n - 2)


def _json_values(node):
    """The permutation a parsed ``--json`` tree stands for, re-inflated
    bottom-up with ``_fold``: a block's values are offset by the sizes of
    the blocks whose skeleton values are smaller."""

    def join(skeleton, kids):
        if skeleton is None:
            return (1,)
        skel = tuple(map(int, skeleton.split()))
        offset, base = 0, {}
        for i in sorted(range(len(skel)), key=skel.__getitem__):
            base[i], offset = offset, offset + len(kids[i])
        return tuple(v + base[i] for i, kid in enumerate(kids) for v in kid)

    return _fold(node, lambda d: (d.get("skeleton"), d.get("children", ())), join)


def _parse_deep(text):
    """``json.loads`` of a report with a deep tree: the decoder recurses along
    the tree, so the caller raises the limit, as ``perfbench`` does."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(max(saved, 20000))
    try:
        return json.loads(text)
    finally:
        sys.setrecursionlimit(saved)


def test_deep_decomposition_exits_0_in_text_and_json(capsys):
    # the identity decomposes into one nested sum per entry, deeper than the
    # interpreter's default recursion limit; the fold writes both the text
    # and the JSON tree with an explicit stack
    assert sys.getrecursionlimit() < 1200
    identity = " ".join(str(v) for v in range(1, 1201))
    code, out, err = invoke(capsys, "decompose", identity)
    assert code == 0 and err == ""
    assert out == _comb_text(1200) + "\n"
    code, out, err = invoke(capsys, "decompose", identity, "--json")
    assert code == 0 and err == ""
    results = _parse_deep(out)["results"]
    assert results["display"] == _comb_text(1200)
    assert _json_values(results["tree"]) == tuple(range(1, 1201))


def _run_module(*argv):
    """``python -m permdeflate`` from the source tree, as a user runs it:
    (exit code, stdout, stderr)."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "permdeflate", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_module_entry_point_in_a_subprocess():
    code, out, err = _run_module("classify", "2413", "--json")
    assert code == 0 and err == ""
    assert set(json.loads(out)) == {"command", "inputs", "results", "timing_ms"}
    too_long = " ".join(str(v) for v in range(1, MAX_LENGTH + 2))
    for argv in (["contains", "12a", "1"], ["decompose", too_long, "--json"]):
        code, out, err = _run_module(*argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_bounds_beyond_max_length_exit_2_at_once_in_a_subprocess():
    # no member is longer than MAX_LENGTH, so a larger bound is refused
    # before the tree walks any level, even for a finite class whose
    # levels are empty from some length on
    for argv in (
        ["simples", "--basis", "1", "--max-len", "20000000"],
        ["enumerate", "--basis", "12,21", "--max-len", "1000000000", "--json"],
        ["witness", "search", "--basis", "12,21", "--max-len", "2000000"],
    ):
        start = time.perf_counter()
        code, out, err = _run_module(*argv)
        assert time.perf_counter() - start < 5
        assert code == 2 and out == ""
        bound = argv[argv.index("--max-len") + 1]
        assert err == f"error: max_len {bound} exceeds the supported maximum {MAX_LENGTH}\n"


def test_extend_beyond_max_length_exits_2_at_once_in_a_subprocess():
    # the breadth-first search walks no tree, so extend checks the bound itself
    start = time.perf_counter()
    code, out, err = _run_module(
        "extend", "--perm", "25173486", "--basis", "251364", "--max-len", "20000000"
    )
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == f"error: max_len 20000000 exceeds the supported maximum {MAX_LENGTH}\n"


def _alternating(n):
    """The alternating sum of odd length n: p = 1 repeatedly becomes the
    direct sum of 1 and the skew sum of p and 1, a tree of depth n - 1
    whose skeletons alternate 12 and 21."""
    vals = (1,)
    while len(vals) < n:
        vals = (1, *(v + 2 for v in vals), 2)
    return vals


def test_deepest_decompositions_in_a_subprocess():
    # decompose, text and --json, decides every input the CLI accepts, at
    # the default recursion limit of a fresh interpreter
    pairs = (MAX_LENGTH - 2) // 2 - 1  # the alternating sum's 12-21 pairs above the last
    cases = (
        (range(1, MAX_LENGTH + 1), _comb_text(MAX_LENGTH)),
        (_alternating(MAX_LENGTH - 1), "12[1, 21[" * pairs + "12[1, 21]" + ", 1]]" * pairs),
    )
    for vals, display in cases:
        code, out, err = _run_module("decompose", " ".join(map(str, vals)))
        assert code == 0 and err == ""
        assert out == display + "\n"
        code, out, err = _run_module("decompose", " ".join(map(str, vals)), "--json")
        assert code == 0 and err == ""
        results = _parse_deep(out)["results"]
        assert results["display"] == display
        assert _json_values(results["tree"]) == tuple(vals)


def test_readme_long_row_extend_in_a_subprocess():
    # the README's command: the length-35 corpus row has no simple
    # extension to length 37
    row = "3 8 12 16 20 5 23 9 13 18 25 2 7 27 11 29 14 31 33 35 21 22 17 1 26 28 4 30 6 32 10 15 34 19 24"
    basis = "2 4 6 8 10 12 14 1 3 5 7 9 11 13"
    code, out, err = _run_module("extend", "--basis", basis, "--perm", row, "--max-len", "37", "--json")
    assert code == 1 and err == ""
    assert json.loads(out)["results"]["found"] is False


def test_witness_check_of_a_long_non_member_exits_2(capsys):
    # membership runs one search 1 200 pattern indices deep
    perm = " ".join(str(v) for v in range(1, 1202))
    basis = " ".join(str(v) for v in range(1, 1201))
    code, out, err = invoke(capsys, "witness", "check", "--perm", perm, "--basis", basis)
    assert code == 2 and out == ""
    assert "is not a member" in err


def test_verify_paper_subset(capsys, tmp_path):
    subset = tmp_path / "rows.txt"
    subset.write_text("2 5 1 3 6 4 | 2 5 1 7 3 4 8 6\n")
    code, out, _ = invoke(capsys, "verify-paper", "--corpus", str(subset))
    assert code == 0
    assert "1/1 rows passed" in out
    _, out_j, _ = invoke(capsys, "verify-paper", "--corpus", str(subset), "--json")
    report = json.loads(out_j)
    assert report["results"]["all_passed"] is True
    assert report["results"]["rows"][0]["cross_check"] == "ok"


@pytest.mark.parametrize("content", [None, "", "# comments only\n\n"])
def test_verify_paper_empty_corpus_exits_2(capsys, tmp_path, content):
    if content is None:
        corpus = "/dev/null"
    else:
        corpus = str(tmp_path / "rows.txt")
        (tmp_path / "rows.txt").write_text(content)
    for extra in ([], ["--json"]):
        code, out, err = invoke(capsys, "verify-paper", "--corpus", corpus, *extra)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert corpus in err


def _render_per_cell(grid):
    """Reference renderer that asks the grid for each cell on its own."""
    host = grid.host.values
    n = len(host)
    lines = []
    for vs in range(n + 1, 0, -1):
        cells = []
        for ps in range(1, n + 2):
            cells.append("#" if grid.is_blocked(Slot(ps, vs)) else ".")
            cells.append(" ")
        lines.append("".join(cells[:-1]))
        if vs > 1:
            row = [" "] * (2 * n + 1)
            row[2 * host.index(vs - 1) + 1] = "o"
            lines.append("".join(row).rstrip())
    return "\n".join(lines)


_ALTERNATION_8 = parse_permutation("2 4 6 8 1 3 5 7")


@pytest.mark.parametrize(
    "perm, basis",
    [
        (parse_permutation("25173486"), parse_permutation("251364")),
        (next(w for b, w in load_corpus() if b == _ALTERNATION_8), _ALTERNATION_8),
    ],
    ids=["25173486", "alternation-18"],
)
def test_render_grid_matches_per_cell_renderer(perm, basis):
    c = PermClass((basis,))
    assert render_grid(shading_grid(perm, c)) == _render_per_cell(shading_grid(perm, c))


@pytest.mark.parametrize(
    "row, message",
    [
        ("2 4 1 3 |", "empty input"),
        ("2 5 1 3 6 4 | 2 5 1 7 3 4 8 x", "bad token 'x'"),
        ("2 5 1 3 6 4 | 2 5 1 7 3 4 6 9 9", "repeated value 9"),
    ],
)
def test_verify_paper_bad_row_names_file_and_line(capsys, tmp_path, row, message):
    corpus = tmp_path / "rows.txt"
    corpus.write_text(f"2 5 1 3 6 4 | 2 5 1 7 3 4 8 6\n{row}\n")
    code, out, err = invoke(capsys, "verify-paper", "--corpus", str(corpus))
    assert code == 2 and out == ""
    assert err == f"error: {corpus}:2: {message}\n"
