"""Runtime spans around the program's layer boundaries.

The benchmark wraps module-level functions of permdeflate from outside,
in its own process, and restores them afterwards; no source file changes.
A module that imported a function by name holds its own binding, so each
boundary lists every module whose binding its callers look up.

Hot leaf calls (about a million pinned containment tests in one cover
batch) are aggregated per (parent span, name) instead of kept one by one.
Spans named in RECORDED are also kept individually, with their parent span
and request id, and written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


@contextmanager
def patched(targets):
    """Temporarily set attributes: ``targets`` is a list of
    (object, attribute, new value).  Originals come back on exit, last
    patched first, even when the body raises."""
    saved = []
    try:
        for obj, attr, value in targets:
            saved.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


def _nonzero(result) -> int:
    return 1 if result else 0


def _not_none(result) -> int:
    return 0 if result is None else 1


class Tracer:
    """A span stack with per-(parent, name) totals.

    ``totals[(parent, name)]`` is [calls, seconds, self seconds, hits];
    what counts as a hit is given per wrapped function.  Self time is a
    span's duration minus the durations of its direct child spans.
    """

    #: Span names kept one by one; all others are aggregated only.
    RECORDED = frozenset(
        {
            "bench.job",
            "cli.run",
            "witness.verify_corpus",
            "witness.find_witnesses",
            "witness.cross_check",
            "deflate_analysis.empirical",
            "deflate_analysis.greedy",
            "deflate_analysis.bfs",
            "class_engine.tree",
        }
    )

    def __init__(self):
        # frame: [name, child seconds, id of the nearest recorded span,
        #         {leaf name: totals row of leaf calls made from this frame}]
        self.stack = [["root", 0.0, None, {}]]
        self.totals: dict[tuple[str, str], list] = {}
        self.spans: list[dict] = []
        self.request_id = None
        self._epoch = time.perf_counter()

    def _enter(self, name):
        parent = self.stack[-1]
        span_id = len(self.spans) if name in self.RECORDED else parent[2]
        if name in self.RECORDED:
            self.spans.append(
                {"id": span_id, "parent": parent[2], "request": self.request_id, "name": name}
            )
        frame = [name, 0.0, span_id, {}]
        self.stack.append(frame)
        return frame, parent

    def _exit(self, frame, parent, start, end, hits):
        self.stack.pop()
        duration = end - start
        parent[1] += duration
        key = (parent[0], frame[0])
        row = self.totals.get(key)
        if row is None:
            row = self.totals[key] = [0, 0.0, 0.0, 0]
        row[0] += 1
        row[1] += duration
        row[2] += duration - frame[1]
        row[3] += hits
        self._merge_leaves(frame)
        if frame[0] in self.RECORDED and frame[2] is not None:
            span = self.spans[frame[2]]
            span["start"] = start - self._epoch
            span["end"] = end - self._epoch

    def _merge_leaves(self, frame):
        for leaf, counts in frame[3].items():
            row = self.totals.setdefault((frame[0], leaf), [0, 0.0, 0.0, 0])
            for i in range(4):
                row[i] += counts[i]
        frame[3].clear()

    def wrap(self, name, fn, hit=_nonzero):
        """``fn`` inside a span called ``name``; ``hit(result)`` adds to the
        span's hit count."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame, parent = self._enter(name)
            start = clock()
            hits = 0
            try:
                result = fn(*args, **kwargs)
                hits = hit(result)
                return result
            finally:
                self._exit(frame, parent, start, clock(), hits)

        return wrapper

    def wrap_leaf(self, name, fn):
        """A cheaper ``wrap`` for hot functions that call no traced
        function: no frame of its own, and a truthy result is a hit.  A call
        that raises passes its exception on and is not counted."""
        clock = time.perf_counter
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args):
            parent = stack[-1]
            start = clock()
            result = fn(*args)
            duration = clock() - start
            parent[1] += duration
            row = parent[3].get(name)
            if row is None:
                row = parent[3][name] = [0, 0.0, 0.0, 0]
            row[0] += 1
            row[1] += duration
            row[2] += duration
            if result:
                row[3] += 1
            return result

        return wrapper

    def wrap_levels(self, name, gen_fn):
        """A level generator inside one span per yielded level; the hit
        count is the level's size."""
        clock = time.perf_counter

        @functools.wraps(gen_fn)
        def wrapper(*args, **kwargs):
            inner = gen_fn(*args, **kwargs)
            try:
                while True:
                    frame, parent = self._enter(name)
                    start = clock()
                    try:
                        level = next(inner)
                    except StopIteration:
                        # the call that finds the generator exhausted does
                        # no level's work: it is not a span
                        self.stack.pop()
                        if name in self.RECORDED:
                            self.spans.pop()
                        return
                    except BaseException:
                        self._exit(frame, parent, start, clock(), 0)
                        raise
                    self._exit(frame, parent, start, clock(), len(level))
                    yield level
            finally:
                inner.close()

        return wrapper

    @contextmanager
    def job(self, request_id):
        """One benchmark job: a recorded ``bench.job`` span whose request id
        its descendants share."""
        self.request_id = request_id
        frame, parent = self._enter("bench.job")
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(frame, parent, start, time.perf_counter(), 0)
            self.request_id = None

    # -- queries over the totals ------------------------------------------

    def _rows(self, name, parent=None):
        self._merge_leaves(self.stack[0])
        return [
            row for (p, n), row in self.totals.items() if n == name and (parent is None or p == parent)
        ]

    def calls(self, name, parent=None) -> int:
        return sum(row[0] for row in self._rows(name, parent))

    def self_s(self, name, parent=None) -> float:
        return sum(row[2] for row in self._rows(name, parent))

    def hits(self, name, parent=None) -> int:
        return sum(row[3] for row in self._rows(name, parent))

    def ratio(self, name, parent=None) -> float:
        calls = self.calls(name, parent)
        return self.hits(name, parent) / calls if calls else 0.0

    def dump(self) -> dict:
        self._merge_leaves(self.stack[0])
        return {
            "spans": self.spans,
            "totals": [
                {"parent": p, "name": n, "calls": r[0], "total_s": r[1], "self_s": r[2], "hits": r[3]}
                for (p, n), r in sorted(self.totals.items())
            ],
        }


def boundaries(tracer, pd):
    """The (object, attribute, wrapper) list for every layer boundary.

    ``pd`` is a namespace holding the permdeflate modules: perm_core,
    decomposition, class_engine, deflate_analysis, witness and cli.
    """
    pc, dec, ce, da, wi, cli = (
        pd.perm_core, pd.decomposition, pd.class_engine, pd.deflate_analysis, pd.witness, pd.cli
    )
    w = tracer.wrap
    targets = []

    def at(name, modules, attr, hit=_nonzero, kind="span"):
        original = getattr(modules[0], attr)
        for module in modules:
            if getattr(module, attr) is not original:
                raise RuntimeError(f"{module.__name__}.{attr} is not the function being traced")
        if kind == "leaf":
            wrapper = tracer.wrap_leaf(name, original)
        elif kind == "levels":
            wrapper = tracer.wrap_levels(name, original)
        else:
            wrapper = w(name, original, hit)
        targets.extend((module, attr, wrapper) for module in modules)

    at("perm_core.pinned", [pc, ce], "_contains_pinned", kind="leaf")
    at("perm_core.mrv", [pc], "_contains_mrv", kind="leaf")
    at("perm_core.dfs", [pc], "_find_occurrence", kind="leaf")
    at("decomposition.is_simple", [dec, ce, da], "_is_simple", kind="leaf")
    at("decomposition.decompose", [cli], "substitution_decompose")
    at("class_engine.tree", [ce, da, wi], "_class_levels", kind="levels")
    at("class_engine.insertion", [ce, da], "_insertion_creates")
    at("deflate_analysis.greedy", [da], "_greedy_extension", hit=_not_none)
    at("deflate_analysis.bfs", [da], "_bfs_extension")
    at("deflate_analysis.contains_any", [da], "_contains_any")
    at("deflate_analysis.empirical", [da], "empirical_deflatability")
    at("deflate_analysis.classify", [cli], "classify_principal")
    at("witness.certificate", [wi, cli], "bond_certificate", hit=_not_none)
    at("witness.cross_check", [wi], "extend_to_simple")
    at("witness.family", [cli], "inflation_family")
    at("witness.find_witnesses", [wi], "find_witnesses")
    at("witness.verify_corpus", [cli], "verify_corpus")
    at("cli.run", [cli], "run")

    grid_original = ce.ShadingGrid.is_blocked
    targets.append((ce.ShadingGrid, "is_blocked", w("class_engine.grid", grid_original)))

    traced_build = w("cli.build_parser", cli.build_parser)

    def build_parser():
        parser = traced_build()
        parser.parse_args = w("cli.parse_args", parser.parse_args)
        return parser

    targets.append((cli, "build_parser", build_parser))
    return targets


def layer_metrics(t: Tracer) -> dict:
    """Per-layer figures from one traced batch; see README.md for which
    end-to-end metric each should move."""
    cells = t.calls("class_engine.insertion", parent="class_engine.grid")
    grid_calls = t.calls("class_engine.grid")
    bfs_children = t.calls("class_engine.insertion", parent="deflate_analysis.bfs")
    scan = ("deflate_analysis.contains_any", "deflate_analysis.empirical")
    return {
        "perm_core.pinned.calls": t.calls("perm_core.pinned"),
        "perm_core.pinned.self_s": t.self_s("perm_core.pinned"),
        "perm_core.pinned.hit_ratio": t.ratio("perm_core.pinned"),
        "perm_core.mrv.calls": t.calls("perm_core.mrv"),
        "perm_core.mrv.self_s": t.self_s("perm_core.mrv"),
        "perm_core.mrv.hit_ratio": t.ratio("perm_core.mrv"),
        "perm_core.dfs.calls": t.calls("perm_core.dfs"),
        "perm_core.dfs.self_s": t.self_s("perm_core.dfs"),
        "decomposition.is_simple.calls": t.calls("decomposition.is_simple"),
        "decomposition.is_simple.self_s": t.self_s("decomposition.is_simple"),
        "decomposition.is_simple.simple_ratio": t.ratio("decomposition.is_simple"),
        "decomposition.decompose.calls": t.calls("decomposition.decompose"),
        "decomposition.decompose.self_s": t.self_s("decomposition.decompose"),
        "class_engine.tree.levels": t.calls("class_engine.tree"),
        "class_engine.tree.nodes": t.hits("class_engine.tree"),
        "class_engine.tree.self_s": t.self_s("class_engine.tree"),
        "class_engine.grid.cells": cells,
        "class_engine.grid.cache_hit_ratio": 1 - cells / grid_calls if grid_calls else 0.0,
        "class_engine.grid.blocked_ratio": t.ratio("class_engine.grid"),
        "class_engine.grid.self_s": t.self_s("class_engine.grid"),
        "class_engine.insertion.calls": t.calls("class_engine.insertion"),
        "class_engine.insertion.self_s": t.self_s("class_engine.insertion"),
        "class_engine.insertion.blocked_ratio": t.ratio("class_engine.insertion"),
        "deflate_analysis.greedy.calls": t.calls("deflate_analysis.greedy"),
        "deflate_analysis.greedy.success_ratio": t.ratio("deflate_analysis.greedy"),
        "deflate_analysis.greedy.self_s": t.self_s("deflate_analysis.greedy"),
        "deflate_analysis.bfs.calls": t.calls("deflate_analysis.bfs"),
        "deflate_analysis.bfs.children": bfs_children,
        "deflate_analysis.bfs.admit_ratio": (
            1 - t.hits("class_engine.insertion", parent="deflate_analysis.bfs") / bfs_children
            if bfs_children
            else 0.0
        ),
        "deflate_analysis.bfs.self_s": t.self_s("deflate_analysis.bfs"),
        "deflate_analysis.cover_scan.calls": t.calls(*scan),
        "deflate_analysis.cover_scan.hit_ratio": t.ratio(*scan),
        "deflate_analysis.cover_scan.self_s": t.self_s(*scan),
        "deflate_analysis.classify.calls": t.calls("deflate_analysis.classify"),
        "deflate_analysis.classify.self_s": t.self_s("deflate_analysis.classify"),
        "witness.certificate.calls": t.calls("witness.certificate"),
        "witness.certificate.certified_ratio": t.ratio("witness.certificate"),
        "witness.certificate.self_s": t.self_s("witness.certificate"),
        "witness.cross_check.calls": t.calls("witness.cross_check"),
        "witness.cross_check.self_s": t.self_s("witness.cross_check"),
        "witness.family.calls": t.calls("witness.family"),
        "witness.family.self_s": t.self_s("witness.family"),
        "cli.parse.calls": t.calls("cli.parse_args"),
        "cli.parse.self_s": t.self_s("cli.build_parser") + t.self_s("cli.parse_args"),
        "cli.run.self_s": t.self_s("cli.run"),
    }
