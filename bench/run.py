"""Time permdeflate's fixed workloads and write one BENCH JSON record.

Usage::

    python3 bench/run.py --repeat 5 --out BENCH_1.json
    python3 bench/run.py --tiny --repeat 1          # a smoke run, seconds

Standard library only.  Each case is timed with ``time.perf_counter`` as
the best of ``--repeat`` runs in this process; the first run also warms
the kernel caches, so the best run is a warm one.  The package is imported
from the ``src`` directory next to this script, so the record describes
this checkout.  ``--tiny`` swaps the end-to-end inputs and the rigid host
for small ones, with the same keys, so that a test can check the record's
shape quickly; its times mean nothing.

The record holds:

* ``repeat``, ``tiny`` and ``machine`` (Python, platform, CPU count);
* ``end_to_end_s``: the five end-to-end cases of the roadmap's north star,
  the public ``bond_certificate`` of the longest corpus row (the
  ``witness check`` request) and ``find_witnesses(Av(146523), 9, 1)``, the
  unit of work of a census of the open classes;
* ``certificate_walk_s``: the bond certificate walk of each of the four
  parallel-alternation corpus rows, keyed by basis length and witness
  length;
* ``rigid_host_s``: the slot kernel of 1234567 at seeded cells of the
  host of six decreasing runs of 15 (its longest increasing subsequence
  is 6), the worst case of the k = 7 nest;
* ``src_lines``: the lines of ``src/permdeflate/*.py`` in total, in
  docstrings, and of code (not blank, not only a comment, not a
  docstring).
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import platform
import random
import sys
import time
from itertools import permutations
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from permdeflate import cli  # noqa: E402
from permdeflate.class_engine import PermClass, ShadingGrid, _slot_test  # noqa: E402
from permdeflate.deflate_analysis import (  # noqa: E402
    _locked_strips,
    classify_principal,
    empirical_deflatability,
    extend_to_simple,
    load_corpus,
)
from permdeflate.perm_core import Permutation, _slot_kernel, parse_permutation  # noqa: E402
from permdeflate.witness import bond_certificate, find_witnesses  # noqa: E402

#: The documented top-level keys of a record, in order.
KEYS = ("repeat", "tiny", "machine", "end_to_end_s", "certificate_walk_s", "rigid_host_s", "src_lines")


def best_of(repeat: int, fn) -> float:
    """The least wall time, in seconds, of ``repeat`` calls of ``fn``."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _quiet_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.run(argv) != 0:
            raise RuntimeError(f"permdeflate {' '.join(argv)} failed")


def end_to_end_cases(tiny: bool) -> dict:
    """name -> a call of each end-to-end case."""
    corpus = load_corpus()
    basis, longest = max(corpus, key=lambda row: len(row[1]))
    if tiny:
        basis, longest = min(corpus, key=lambda row: len(row[1]))
    grid_class = PermClass((basis,))
    length = 4 if tiny else 7
    bases = [Permutation(p) for p in permutations(range(1, length + 1))]
    cover = (6, 10) if not tiny else (4, 6)
    extend = 12 if not tiny else 9
    census = 9 if not tiny else 6
    return {
        "verify_paper": lambda: _quiet_cli(["verify-paper"]),
        "empirical_av2413": lambda: empirical_deflatability(PermClass.of("2413"), *cover),
        "extend_25173486_av251364": lambda: extend_to_simple(
            parse_permutation("25173486"), PermClass.of("251364"), extend
        ),
        "grid_longest_witness": lambda: ShadingGrid(longest, grid_class).blocked,
        "classify_all_bases": lambda: [classify_principal(b) for b in bases],
        "certificate_longest_witness": lambda: bond_certificate(longest, grid_class),
        "find_witnesses_av146523": lambda: find_witnesses(PermClass.of("146523"), census, 1),
    }


def certificate_walks() -> dict:
    """``k<basis length>_n<witness length>`` -> the certificate walk of each
    parallel-alternation row (basis length 8 and more)."""
    cases = {}
    for basis, w in load_corpus():
        if len(basis) >= 8:
            c = PermClass((basis,))
            cases[f"k{len(basis)}_n{len(w)}"] = lambda w=w, c=c: _locked_strips(
                w.values, _slot_test(c, len(w))
            )
    return cases


def rigid_host(tiny: bool) -> tuple[str, object]:
    """The slot kernel of 1234567 at seeded cells of a host of decreasing
    runs: 6 runs of 15 and 5 cells, or 3 runs of 4 and 2 cells."""
    runs, size, cells = (3, 4, 2) if tiny else (6, 15, 5)
    host = tuple(v for r in range(runs) for v in range(size * (r + 1), size * r, -1))
    rng = random.Random(7)
    n = len(host)
    slots = [(rng.randint(1, n + 1), rng.randint(1, n + 1)) for _ in range(cells)]
    kernel = _slot_kernel(tuple(range(1, 8)))
    return f"runs{runs}x{size}_cells{cells}", lambda: [kernel(host, ps, vs) for ps, vs in slots]


def src_lines(root: Path = SRC / "permdeflate") -> dict:
    """Lines of the package's modules: total, docstring and code."""
    total = docstring = code = 0
    for path in sorted(root.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        in_doc: set[int] = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                first = node.body[0] if node.body else None
                if (
                    isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)
                ):
                    in_doc.update(range(first.lineno, first.end_lineno + 1))
        total += len(lines)
        docstring += len(in_doc)
        code += sum(
            1
            for number, line in enumerate(lines, start=1)
            if number not in in_doc and line.strip() and not line.strip().startswith("#")
        )
    return {"total": total, "docstring": docstring, "code": code}


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def bench(repeat: int, tiny: bool = False) -> dict:
    """One record: every case timed as the best of ``repeat`` runs."""
    rigid_name, rigid = rigid_host(tiny)
    return {
        "repeat": repeat,
        "tiny": tiny,
        "machine": machine(),
        "end_to_end_s": {name: best_of(repeat, fn) for name, fn in end_to_end_cases(tiny).items()},
        "certificate_walk_s": {name: best_of(repeat, fn) for name, fn in certificate_walks().items()},
        "rigid_host_s": {rigid_name: best_of(repeat, rigid)},
        "src_lines": src_lines(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=5, help="runs per case; the best is kept")
    parser.add_argument("--tiny", action="store_true", help="small inputs, for a smoke test")
    parser.add_argument("--out", type=Path, help="write the record here (default: stdout)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    text = json.dumps(bench(args.repeat, args.tiny), indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
