"""``bench/run.py`` writes a record with the documented keys."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_run", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tiny_record_has_the_documented_keys(tmp_path):
    bench = _load()
    out = tmp_path / "BENCH_tiny.json"
    assert bench.main(["--tiny", "--repeat", "1", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert tuple(record) == bench.KEYS
    assert record["repeat"] == 1 and record["tiny"] is True
    assert set(record["machine"]) == {"python", "implementation", "platform", "machine", "cpus"}
    assert list(record["end_to_end_s"]) == [
        "verify_paper",
        "empirical_av2413",
        "extend_25173486_av251364",
        "grid_longest_witness",
        "classify_all_bases",
        "certificate_longest_witness",
        "find_witnesses_av146523",
        "find_witnesses_open5_l8",
    ]
    counts = record["counts"]
    assert list(counts) == ["verify_paper", "extend_25173486_av251364"]
    assert all(list(c) == ["bfs_slot_tests"] for c in counts.values())
    assert all(isinstance(c["bfs_slot_tests"], int) and c["bfs_slot_tests"] > 0 for c in counts.values())
    assert list(record["peak_kib"]) == ["empirical_av2413", "find_witnesses_av146523"]
    assert all(isinstance(kib, int) and kib > 0 for kib in record["peak_kib"].values())
    assert list(record["certificate_walk_s"]) == ["k8_n18", "k10_n24", "k12_n29", "k14_n35"]
    assert list(record["rigid_host_s"]) == ["runs3x4_cells2"]
    assert list(record["kernel_build_s"]) == [
        f"{mode}_k{k}" for k in (9, 4096) for mode in ("plain", "slot", "top")
    ]
    assert list(record["contains_s"]) == ["k5_n12_seed3", "k5_n12_seed9"]
    assert list(record["startup_s"]) == ["import_no_bytecode", "import_bytecode", "contains_cli"]
    assert list(record["reference_s"]) == ["before", "after"]
    times = [*record["end_to_end_s"].values(), *record["certificate_walk_s"].values()]
    times += [*record["rigid_host_s"].values(), *record["kernel_build_s"].values()]
    times += record["contains_s"].values()
    times += record["startup_s"].values()
    times += record["reference_s"].values()
    assert all(isinstance(t, float) and t > 0 for t in times)
    lines = record["src_lines"]
    assert set(lines) == {"total", "docstring", "code"}
    assert 0 < lines["docstring"] and 0 < lines["code"]
    assert lines["docstring"] + lines["code"] < lines["total"]


def test_src_lines_split_docstrings_code_and_the_rest(tmp_path):
    bench = _load()
    (tmp_path / "m.py").write_text(
        '"""Module doc,\n\non three lines."""\n'
        "\n"
        "# a comment\n"
        "def f():\n"
        '    """One line."""\n'
        "    return 1  # code with a comment\n"
    )
    assert bench.src_lines(tmp_path) == {"total": 8, "docstring": 4, "code": 2}
