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
  ``witness check`` request), ``find_witnesses(Av(146523), 9, 1)``, the
  unit of work of a census of the open classes, and ``find_witnesses`` on
  the four open length-5 classes to length 8, one after another;
* ``counts``: for ``verify_paper`` and ``extend_25173486_av251364``,
  ``bfs_slot_tests``, the slot tests the breadth-first search for a simple
  extension makes in one untimed run of the case: the calls of
  ``deflate_analysis._insertion_creates``, which the search asks through
  its module global, counted by a wrapper put there for the run;
* ``peak_kib``: for ``empirical_av2413`` and ``find_witnesses_av146523``,
  the ``tracemalloc`` peak, in KiB, of one untimed run of the case, the
  memory the case allocates past what the process already holds, mostly
  the generating tree's levels; ``tracemalloc`` slows what it traces
  several-fold, so it never wraps a timed run;
* ``certificate_walk_s``: the bond certificate walk of each of the four
  parallel-alternation corpus rows, keyed by basis length and witness
  length;
* ``rigid_host_s``: the slot kernel of 1234567 at seeded cells of the
  host of six decreasing runs of 15 (its longest increasing subsequence
  is 6), the worst case of the k = 7 nest;
* ``kernel_build_s``: one build of each mode's kernel (plain, slot, top),
  past the factories' caches, for a seeded pattern of length 9 and one
  of length 4 096, keyed ``<mode>_k<length>``;
* ``startup_s``: the start-up a fresh interpreter pays, as each command
  line call of the tool does: ``import_no_bytecode`` is ``python -B -c
  "import permdeflate.cli"`` with an empty ``PYTHONPYCACHEPREFIX``, so
  nothing, the standard library included, is read from bytecode;
  ``import_bytecode`` is the same import with bytecode, in a prefix one
  untimed run has filled; ``contains_cli`` is one full ``python -m
  permdeflate contains 132 4132 --json`` with that bytecode;
* ``reference_s``: a fixed standard-library loop, timed ``before`` and
  ``after`` the cases; the machine's speed drifts between runs, so
  compare two records by their times divided by these;
* ``src_lines``: the lines of ``src/permdeflate/*.py`` in total, in
  docstrings, and of code (not blank, not only a comment, not a
  docstring).

To compare two records, compare ``counts`` exactly and ``peak_kib`` to a
few KiB: they repeat from run
to run, so a change in them is a change in the work done.  Compare times
divided by ``reference_s``, and only between parent and change runs made
alternately on the same machine: a time alone cannot tell a 20% change
from noise.
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
import subprocess
import sys
import tempfile
import time
import tracemalloc
from functools import partial
from itertools import permutations
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from permdeflate import cli, deflate_analysis  # noqa: E402
from permdeflate.class_engine import PermClass, ShadingGrid, _slot_test  # noqa: E402
from permdeflate.deflate_analysis import (  # noqa: E402
    _locked_strips,
    classify_principal,
    empirical_deflatability,
    extend_to_simple,
    load_corpus,
)
from permdeflate.perm_core import (  # noqa: E402
    Permutation,
    _search_kernel,
    _slot_kernel,
    _top_kernel,
    parse_permutation,
)
from permdeflate.witness import bond_certificate, find_witnesses  # noqa: E402

#: The documented top-level keys of a record, in order.
KEYS = (
    "repeat",
    "tiny",
    "machine",
    "reference_s",
    "end_to_end_s",
    "counts",
    "peak_kib",
    "certificate_walk_s",
    "rigid_host_s",
    "kernel_build_s",
    "startup_s",
    "src_lines",
)


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
    open5 = [PermClass.of(b) for b in ("25314", "24153", "23514", "24513")]
    open5_len = 8 if not tiny else 5
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
        "find_witnesses_open5_l8": lambda: [find_witnesses(c, open5_len, 1) for c in open5],
    }


#: The end-to-end cases whose breadth-first search ``counts`` records.
COUNTED = ("verify_paper", "extend_25173486_av251364")


def bfs_slot_tests(fn) -> int:
    """The calls of ``deflate_analysis._insertion_creates`` in one call of
    ``fn``, counted by a wrapper that stands in for it meanwhile."""
    calls = 0
    original = deflate_analysis._insertion_creates

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    deflate_analysis._insertion_creates = counting
    try:
        fn()
    finally:
        deflate_analysis._insertion_creates = original
    return calls


#: The end-to-end cases whose memory ``peak_kib`` records.
TRACED = ("empirical_av2413", "find_witnesses_av146523")


def peak_kib(fn) -> int:
    """The ``tracemalloc`` peak, in KiB, of one call of ``fn``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] // 1024
    finally:
        tracemalloc.stop()


def certificate_walks() -> dict:
    """``k<basis length>_n<witness length>`` -> the certificate walk of each
    parallel-alternation row (basis length 8 and more)."""
    cases = {}
    for basis, w in load_corpus():
        if len(basis) >= 8:
            c = PermClass((basis,))
            cases[f"k{len(basis)}_n{len(w)}"] = lambda w=w, c=c: _locked_strips(
                w.values, _slot_test(c)
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


def kernel_builds() -> dict:
    """``<mode>_k<length>`` -> one build of that mode's kernel, through the
    factory's ``__wrapped__`` so that no cache answers, for a seeded
    pattern of length 9 and one of length 4 096."""
    rng = random.Random(9)
    factories = {"plain": _search_kernel, "slot": _slot_kernel, "top": _top_kernel}
    cases = {}
    for k in (9, 4096):
        pat = tuple(rng.sample(range(1, k + 1), k))
        for mode, factory in factories.items():
            cases[f"{mode}_k{k}"] = lambda factory=factory, pat=pat: factory.__wrapped__(pat)
    return cases


def startup_cases(cache: Path) -> dict:
    """name -> one fresh interpreter of each start-up case, importing the
    package from ``src``; ``cache`` holds two bytecode prefixes, the one under
    ``empty`` never written, the one under ``warm`` filled by a first run."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    cold = {**env, "PYTHONPYCACHEPREFIX": str(cache / "empty")}
    warm = {**env, "PYTHONPYCACHEPREFIX": str(cache / "warm")}
    python = sys.executable
    commands = {
        "import_no_bytecode": ([python, "-B", "-c", "import permdeflate.cli"], cold),
        "import_bytecode": ([python, "-c", "import permdeflate.cli"], warm),
        "contains_cli": ([python, "-m", "permdeflate", "contains", "132", "4132", "--json"], warm),
    }
    run = partial(subprocess.run, stdout=subprocess.DEVNULL, check=True)
    run(commands["import_bytecode"][0], env=warm)  # fills the warm prefix
    return {name: partial(run, argv, env=env) for name, (argv, env) in commands.items()}


def reference() -> int:
    """The fixed loop that ``reference_s`` times: a sum of squares."""
    return sum(i * i for i in range(200_000))


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
    cases = end_to_end_cases(tiny)
    before = best_of(repeat, reference)
    record = {
        "repeat": repeat,
        "tiny": tiny,
        "machine": machine(),
        "reference_s": {"before": before},
        "end_to_end_s": {name: best_of(repeat, fn) for name, fn in cases.items()},
        "counts": {name: {"bfs_slot_tests": bfs_slot_tests(cases[name])} for name in COUNTED},
        "peak_kib": {name: peak_kib(cases[name]) for name in TRACED},
        "certificate_walk_s": {name: best_of(repeat, fn) for name, fn in certificate_walks().items()},
        "rigid_host_s": {rigid_name: best_of(repeat, rigid)},
        "kernel_build_s": {name: best_of(repeat, fn) for name, fn in kernel_builds().items()},
    }
    with tempfile.TemporaryDirectory() as cache:
        cases = startup_cases(Path(cache))
        record["startup_s"] = {name: best_of(repeat, fn) for name, fn in cases.items()}
    record["src_lines"] = src_lines()
    record["reference_s"]["after"] = best_of(repeat, reference)
    return record


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
