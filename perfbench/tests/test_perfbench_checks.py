"""The benchmark's oracles and how the workloads count failed jobs."""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracles  # noqa: E402
from measure import Tally  # noqa: E402
from workloads import Queries, random_inflation  # noqa: E402


def test_least_occurrence_is_lexicographically_least():
    assert oracles.least_occurrence((3, 1, 2), (2, 5, 3, 1, 6, 4, 7)) == (2, 3, 6)
    assert oracles.least_occurrence((2, 4, 1, 3), (3, 1, 4, 2)) is None


def test_reinflate_round_trips_a_nested_tree():
    tree = {
        "skeleton": "2 4 1 3",
        "children": [
            {"leaf": True},
            {"skeleton": "1 2", "children": [{"leaf": True}, {"leaf": True}]},
            {"leaf": True},
            {"skeleton": "2 1", "children": [{"leaf": True}, {"leaf": True}]},
        ],
    }
    assert oracles.reinflate(tree) == (2, 5, 6, 1, 4, 3)
    rng = random.Random(3)
    for n in (7, 40, 200):
        p = random_inflation(rng, n)
        assert sorted(p) == list(range(1, n + 1))


def test_symmetries_and_open_classes():
    assert len(oracles.symmetries((2, 4, 1, 3))) == 2
    assert oracles.is_open_length_5((4, 1, 3, 5, 2))  # reverse of 25314
    assert not oracles.is_open_length_5((1, 2, 3, 4, 5))


def test_witness_check_accepts_a_witness_and_rejects_a_non_witness():
    basis = [(2, 5, 1, 3, 6, 4)]
    assert oracles.witness_holds((2, 5, 1, 7, 3, 4, 8, 6), basis, 9)
    assert not oracles.witness_holds((1, 3, 2), basis, 5)  # extends to 2 4 1 3
    assert not oracles.witness_holds((2, 5, 1, 3, 6, 4), basis, 9)  # not a member


def _output(code, results):
    return code, json.dumps({"command": "x", "inputs": {}, "results": results, "timing_ms": 1})


def test_every_kind_of_failure_counts():
    q = Queries()
    requests = [
        {"kind": "contains", "argv": ["contains"], "pattern": (2, 1), "host": (1, 3, 2)},
        {"kind": "contains", "argv": ["contains"], "pattern": (2, 1), "host": (1, 3, 2)},
        {"kind": "contains", "argv": ["contains"], "pattern": (2, 1), "host": (1, 2, 3)},
        {"kind": "decompose", "argv": ["decompose"], "perm": (2, 1)},
        {"kind": "malformed", "argv": ["classify", "0"]},
        {"kind": "malformed", "argv": ["classify", "0"]},
    ]
    outputs = [
        _output(0, {"contained": True, "occurrence": "2 3"}),  # right
        _output(0, {"contained": True, "occurrence": "1 3"}),  # wrong answer
        _output(0, {"contained": False, "occurrence": None}),  # wrong exit code
        RecursionError("maximum recursion depth exceeded"),  # raised
        (2, ""),  # right: refused with exit 2
        (1, ""),  # wrong exit code
    ]
    tally = Tally()
    q.check({"requests": requests}, outputs, tally)
    assert (tally.attempted, tally.failed) == (6, 4)
    assert tally.fail_ratio == 4 / 6


def test_benchmark_json_names_what_the_code_reports():
    import run
    from tracing import Tracer, layer_metrics

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert {w["name"] for w in spec["workloads"]} == {"corpus", "cover", "search", "queries"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    reported = set(layer_metrics(Tracer())) | {
        "decomposition.deep_decompose.failed",
        "setup.import_s",
        "trace.overhead_ratio",
    }
    assert {m["name"] for m in spec["per_layer"]} == reported
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
