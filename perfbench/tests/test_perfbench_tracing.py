"""Wrapper transparency: traced calls return what untraced calls return,
the originals come back afterwards, and counts repeat exactly."""

from __future__ import annotations

import io
import json
import sys
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from tracing import Tracer, boundaries, layer_metrics, patched  # noqa: E402

from permdeflate import (  # noqa: E402
    class_engine,
    cli,
    decomposition,
    deflate_analysis,
    perm_core,
    witness,
)
from permdeflate.class_engine import PermClass  # noqa: E402

PD = types.SimpleNamespace(
    perm_core=perm_core,
    decomposition=decomposition,
    class_engine=class_engine,
    deflate_analysis=deflate_analysis,
    witness=witness,
    cli=cli,
)


def test_patched_restores_on_error():
    ns = types.SimpleNamespace(f=len)
    with pytest.raises(KeyError):
        with patched([(ns, "f", abs)]):
            assert ns.f is abs
            raise KeyError("boom")
    assert ns.f is len


def test_wrap_passes_results_and_exceptions():
    t = Tracer()

    def div(a, b):
        return a // b

    traced = t.wrap("div", div)
    assert traced(7, 2) == 3
    with pytest.raises(ZeroDivisionError):
        traced(1, 0)
    assert t.calls("div") == 2
    assert t.hits("div") == 1
    assert t.stack == [["root", t.stack[0][1], None, {}]]


def test_self_time_excludes_children():
    t = Tracer()
    leaf = t.wrap_leaf("leaf", lambda n: sum(range(n)))
    outer = t.wrap("outer", lambda: [leaf(20000) for _ in range(5)])
    assert outer() == [sum(range(20000))] * 5
    assert t.calls("leaf", parent="outer") == 5
    total = t.totals[("root", "outer")][1]
    assert t.self_s("outer") == pytest.approx(total - t.self_s("leaf"), abs=1e-9)


def test_level_generator_wrapper_yields_the_same_levels():
    t = Tracer()
    levels = t.wrap_levels("tree", lambda n: ([0] * k for k in range(1, n + 1)))
    assert list(levels(4)) == [[0], [0, 0], [0, 0, 0], [0, 0, 0, 0]]
    assert (t.calls("tree"), t.hits("tree")) == (4, 10)
    # abandoning the generator early leaves the span stack balanced
    gen = levels(3)
    next(gen)
    gen.close()
    assert len(t.stack) == 1


def _sample_calls(tmp_path):
    """Small calls through every traced layer; outputs as comparable data."""
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("2 5 1 3 6 4 | 2 5 1 7 3 4 8 6\n")
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        codes = [
            cli.run(["classify", "2413", "--json"]),
            cli.run(["contains", "312", "2531647", "--json"]),
            cli.run(["decompose", "4 3 7 1 2 6 5", "--json"]),
            cli.run(["witness", "check", "--perm", "25173486", "--basis", "251364", "--json"]),
            cli.run(["family", "--theta", "12", "--json"]),
            cli.run(["verify-paper", "--corpus", str(corpus), "--json"]),
            cli.run(["contains", "12a", "1"]),
        ]
    reports = [json.loads(line) for line in out.getvalue().splitlines()]
    for r in reports:
        r.pop("timing_ms")
    report = deflate_analysis.empirical_deflatability(PermClass.of("2413"), 3, 6)
    found = witness.find_witnesses(PermClass.of("25314"), 6, 1)
    return codes, reports, (report.members_checked, report.covered), found


def _originals():
    return [(obj, attr, getattr(obj, attr)) for obj, attr, _ in boundaries(Tracer(), PD)]


def test_traced_outputs_equal_untraced_and_originals_return(tmp_path):
    originals = _originals()
    plain = _sample_calls(tmp_path)
    tracer = Tracer()
    with patched(boundaries(tracer, PD)):
        traced = _sample_calls(tmp_path)
    assert traced == plain
    for obj, attr, original in originals:
        assert getattr(obj, attr) is original, f"{attr} not restored"
    m = layer_metrics(tracer)
    assert m["cli.parse.calls"] == 7
    for name in (
        "class_engine.tree.levels",
        "class_engine.grid.cells",
        "perm_core.pinned.calls",
        "perm_core.dfs.calls",
        "decomposition.decompose.calls",
        "deflate_analysis.bfs.children",
        "deflate_analysis.cover_scan.calls",
        "deflate_analysis.classify.calls",
        "witness.certificate.calls",
        "witness.cross_check.calls",
        "witness.family.calls",
    ):
        assert m[name] > 0, name


def test_traced_counts_repeat_exactly(tmp_path):
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with patched(boundaries(tracer, PD)):
            _sample_calls(tmp_path)
        m = layer_metrics(tracer)
        counts.append({k: v for k, v in m.items() if not k.endswith("_s")})
    assert counts[0] == counts[1]
