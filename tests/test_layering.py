"""The package's modules import one another in one order, at module level.

perm_core -> decomposition -> class_engine -> deflate_analysis -> witness
-> cli: a module may import only modules earlier in the chain, and never
from inside a function or an ``if`` (or any other) block, where an import
can hide a cycle.  ``__init__`` and ``__main__`` re-export the chain and
are exempt from the order, not from the top-level rule.  Every name a
chain module imports from a sibling is used in that module, so a refactor
cannot leave a dead import behind.  No function calls itself, by its bare
name or as ``self.<name>`` in a method: a tree is walked with an explicit
stack, so its depth is never bounded by the recursion limit.
Every private top-level name of a module is read somewhere under
``src/``, so a refactor cannot leave a dead helper behind either.
Generated code has one emitter: the only ``exec`` call under ``src/`` is
the one in ``perm_core._emit_kernel``.  The containment engine split
(nest kernels for short patterns, forward checking for long ones) stays
inside ``perm_core``: no other module imports or reads the names in
``ENGINE_INTERNALS``.  The kernels are reached through ``perm_core`` and
``class_engine``: only those two import or read the names in
``KERNELS``, and the rest ask ``_contains_any``, ``_slot_test`` or
``_top_test``.  A level of the generating tree is kept two lengths down,
as its grandparents, their open-slot masks and those of its parents, and
only ``class_engine`` reads any of them (``LEVEL_PARENTS``,
``LEVEL_MASKS``).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import permdeflate
from permdeflate import perm_core

SOURCES = sorted(Path(permdeflate.__file__).parent.glob("*.py"))
CHAIN = ["perm_core", "decomposition", "class_engine", "deflate_analysis", "witness", "cli"]
EXEMPT = {"__init__", "__main__"}
#: ``perm_core`` names that only ``perm_core`` may import: other modules ask
#: ``_contains_any`` or a slot kernel (``class_engine`` through
#: ``_contains_pinned`` and ``_emit_kernel``), whose emitted code holds the
#: engine it runs.
ENGINE_INTERNALS = {"_contains_mrv", "_forward_check", "_value_masks"}
#: ``perm_core`` names that only ``perm_core`` and ``class_engine`` may
#: import: the other modules ask ``_contains_any``, or a class's
#: ``_slot_test`` or ``_top_test``.
KERNELS = {"_emit_kernel"}
#: The attributes of a ``class_engine._class_levels`` level that hold the
#: open-slot masks of its parents and of its grandparents: the other
#: modules iterate a level as its members.
LEVEL_MASKS = {"masks", "grandmasks"}
#: The attribute of a level that holds its grandparents, the members two
#: lengths before: the other modules iterate a level as its members.
LEVEL_PARENTS = "grandparents"


def _relative_imports(tree: ast.Module) -> list[tuple[ast.ImportFrom, bool, list[str]]]:
    """(node, at_top_level, target modules) for each relative import."""
    top = {id(node) for node in tree.body}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            targets = [node.module] if node.module else [a.name for a in node.names]
            found.append((node, id(node) in top, [t.split(".")[0] for t in targets]))
    return found


def _unused_sibling_imports(tree: ast.Module) -> list[str]:
    """Names bound by relative imports that no expression in ``tree`` reads."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        alias.asname or alias.name
        for node, _, _ in _relative_imports(tree)
        for alias in node.names
        if (alias.asname or alias.name) not in used
    ]


def test_chain_names_every_module():
    assert {path.stem for path in SOURCES} - EXEMPT == set(CHAIN)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_relative_imports_are_top_level_and_point_earlier(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node, top_level, targets in _relative_imports(tree):
        where = f"{path.name}:{node.lineno}"
        assert top_level, f"{where}: relative import inside a function or block"
        if path.stem in EXEMPT:
            continue
        for target in targets:
            assert CHAIN.index(target) < CHAIN.index(path.stem), (
                f"{where}: {path.stem} imports {target}, which comes later in the chain"
            )


def test_checker_finds_deferred_imports():
    source = (
        "from .class_engine import avoids\n"
        "if False:\n"
        "    from .witness import BondCertificate\n"
        "def f():\n"
        "    from .witness import known_deflatable_bases\n"
    )
    found = _relative_imports(ast.parse(source))
    assert [(top, targets) for _, top, targets in found] == [
        (True, ["class_engine"]),
        (False, ["witness"]),
        (False, ["witness"]),
    ]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.stem not in EXEMPT], ids=lambda p: p.name)
def test_sibling_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = _unused_sibling_imports(tree)
    assert not unused, f"{path.name} imports {unused} from a sibling and never uses them"


def _private_top_level_names(tree: ast.Module) -> list[str]:
    """The functions, classes and assigned names at the top level of
    ``tree`` whose names start with ``_`` but not ``__``."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [target.id for target in targets if isinstance(target, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _read_names(tree: ast.AST) -> set[str]:
    """Names that expressions in ``tree`` read, bare or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)) or isinstance(node, ast.Attribute)
    }


def test_private_top_level_names_are_read():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES}
    read = set().union(*map(_read_names, trees.values()))
    dead = [
        f"{name}.{n}" for name, tree in trees.items() for n in _private_top_level_names(tree) if n not in read
    ]
    assert not dead, f"private names nothing under src/ reads: {dead}"


def test_checker_finds_dead_private_names():
    source = (
        "_USED = 1\n"
        "_DEAD: int = 2\n"
        "__all__ = ['f']\n"
        "def _helper():\n"
        "    _local = _USED\n"
        "class _Gone:\n"
        "    pass\n"
        "def f(x):\n"
        "    return x._helper()\n"
    )
    tree = ast.parse(source)
    assert _private_top_level_names(tree) == ["_USED", "_DEAD", "_helper", "_Gone"]
    assert [n for n in _private_top_level_names(tree) if n not in _read_names(tree)] == ["_DEAD", "_Gone"]


def _reached_names(path: Path) -> set[str]:
    """Names ``path`` imports from a sibling, and attributes it reads
    (``perm_core.name``)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = {alias.name for node, _, _ in _relative_imports(tree) for alias in node.names}
    return names | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.stem != "perm_core"], ids=lambda p: p.name)
def test_engine_internals_stay_in_perm_core(path):
    names = _reached_names(path)
    assert not names & ENGINE_INTERNALS, f"{path.name} reaches {names & ENGINE_INTERNALS}"


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.stem not in {"perm_core", "class_engine"}], ids=lambda p: p.name
)
def test_slot_kernels_stay_behind_class_engine(path):
    names = _reached_names(path)
    assert not names & KERNELS, f"{path.name} reaches {names & KERNELS}"


def test_class_engine_reaches_the_slot_kernels():
    # the restriction above guards the names class_engine really uses
    assert KERNELS <= _reached_names(Path(permdeflate.__file__).parent / "class_engine.py")


@pytest.mark.parametrize("path", [p for p in SOURCES if p.stem != "class_engine"], ids=lambda p: p.name)
def test_level_masks_stay_behind_class_engine(path):
    reached = LEVEL_MASKS & _reached_names(path)
    assert not reached, f"{path.name} reads a level's {reached}"


def test_class_engine_reads_the_level_masks():
    # the restriction above guards the attributes class_engine really reads
    assert LEVEL_MASKS <= _reached_names(Path(permdeflate.__file__).parent / "class_engine.py")


@pytest.mark.parametrize("path", [p for p in SOURCES if p.stem != "class_engine"], ids=lambda p: p.name)
def test_level_parents_stay_behind_class_engine(path):
    assert LEVEL_PARENTS not in _reached_names(path), f"{path.name} reads a level's grandparents"


def test_class_engine_reads_the_level_parents():
    # the restriction above guards the attribute class_engine really reads
    assert LEVEL_PARENTS in _reached_names(Path(permdeflate.__file__).parent / "class_engine.py")


def test_checker_finds_unused_imports():
    source = (
        "from .perm_core import Slot, _emit_kernel as kernel, parse_permutation\n"
        "from . import decomposition\n"
        "def f(s: Slot) -> None:\n"
        "    decomposition.cut_slots(parse_permutation('1'))\n"
    )
    assert _unused_sibling_imports(ast.parse(source)) == ["kernel"]


def _exec_sites(tree: ast.Module) -> list[str]:
    """The innermost enclosing function of each ``exec`` call, or
    ``<module>``, in source order."""
    sites = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                if name == "exec":
                    sites.append((child.lineno, where))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                visit(child, where)

    visit(tree, "<module>")
    return [where for _, where in sorted(sites)]


def test_one_exec_call_site():
    sites = [
        f"{path.stem}.{where}"
        for path in SOURCES
        for where in _exec_sites(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    ]
    assert sites == ["perm_core._emit_kernel"]


def _loop_depth(node: ast.AST) -> int:
    """The deepest nesting of ``for`` loops under ``node``."""
    inner = max((_loop_depth(child) for child in ast.iter_child_nodes(node)), default=0)
    return inner + isinstance(node, ast.For)


def _called_names(tree: ast.AST) -> set[str]:
    """The bare names that calls under ``tree`` call."""
    return {n.func.id for n in ast.walk(tree) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}


def test_kernels_are_nests_within_six_free_loops(monkeypatch):
    """One loop budget for every kernel: the unpinned plain kernel is an
    emitted nest exactly for k <= 6, the slot kernel (one pin) for k <= 7
    and the second-pin kernel for 2 <= k <= 8, and no emitted nest runs
    more than six ``for`` loops deep.  Past the budget a kernel calls the
    forward check (``_forward_check``, or ``_contains_mrv`` with no pin),
    in no ``for`` loop, except that a slot kernel runs it in one loop over
    the pattern indices.  A second-pin kernel takes a mask:
    it walks the mask's slots in one ``while`` loop, and each ``for`` of
    its nest has an ``else`` closer, so the nest leaves on its first
    occurrence without a ``return``.  Every emitted kernel's code names
    itself ``<kernel PAT MODE>``; a compile hook keeps each source."""
    sources = {}

    def keeping_compile(source, filename, mode):
        sources[filename] = source
        return compile(source, filename, mode)

    monkeypatch.setattr(perm_core, "compile", keeping_compile, raising=False)
    nests = {"plain": lambda k: k <= 6, "slot": lambda k: k <= 7, "top": lambda k: 2 <= k <= 8}
    depths = []
    for k in range(1, 11):
        # the alternation 2 4 .. 1 3 .., a rigid pattern of length k
        pat = (*range(2, k + 1, 2), *range(1, k + 1, 2))
        name = " ".join(map(str, pat))
        for mode, nest in nests.items():
            # past the cache, so that every kernel is compiled here
            filename = perm_core._emit_kernel.__wrapped__(pat, mode).__code__.co_filename
            if mode == "top" and k == 1:
                assert filename not in sources  # the one kernel not emitted
                continue
            assert filename == f"<kernel {name} {mode}>", (k, mode, filename)
            tree = ast.parse(sources[filename])
            searches = _called_names(tree) & {"_forward_check", "_contains_mrv"}
            depth = _loop_depth(tree)
            if mode == "top":
                loops = [n for n in ast.walk(tree) if isinstance(n, (ast.For, ast.While))]
                assert sum(isinstance(n, ast.While) for n in loops) == 1, (k, sources[filename])
                assert all(n.orelse for n in loops if isinstance(n, ast.For)), (k, sources[filename])
                assert sum(isinstance(n, ast.Return) for n in ast.walk(tree)) == 1, (k, sources[filename])
            if nest(k):
                assert not searches, (k, mode, searches)
                depths.append(depth)
            elif mode == "slot":
                # one loop over the pattern indices, with none inside it
                fors = [n for n in ast.walk(tree) if isinstance(n, ast.For)]
                assert len(fors) == 1 and depth == 1, (k, sources[filename])
                assert searches == {"_forward_check"}, (k, searches)
            else:
                assert searches and depth == 0, (k, mode, searches, depth)
    assert max(depths) == 6


def test_checker_finds_exec_calls():
    source = (
        "import builtins\n"
        "exec('x = 1')\n"
        "def emit(text):\n"
        "    def inner():\n"
        "        builtins.exec(text, {})\n"
        "    namespace = {}\n"
        "    exec(text, namespace)\n"
        "    executor = 'exec'\n"
    )
    assert _exec_sites(ast.parse(source)) == ["<module>", "inner", "emit"]


def _self_calls(tree: ast.Module) -> list[str]:
    """The functions that call themselves, by bare name or, in a method, as
    ``self.<name>``, in source order.  Other attribute calls (``", ".join``
    in a function named ``join``) do not count."""
    found = []

    def visit(node: ast.AST, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for call in ast.walk(child):
                    func = getattr(call, "func", None) if isinstance(call, ast.Call) else None
                    # a bare name never reaches a method, only a function
                    by_name = not in_class and isinstance(func, ast.Name) and func.id == child.name
                    by_self = (
                        in_class
                        and isinstance(func, ast.Attribute)
                        and func.attr == child.name
                        and isinstance(func.value, ast.Name)
                        and func.value.id == "self"
                    )
                    if by_name or by_self:
                        found.append(child.name)
                        break
            visit(child, isinstance(child, ast.ClassDef))

    visit(tree, False)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_calls_itself(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert not _self_calls(tree), f"{path.name}: {_self_calls(tree)} call themselves"


def test_checker_finds_self_calls():
    source = (
        "def walk(node):\n"
        "    return [walk(child) for child in node.children]\n"
        "def outer():\n"
        "    def join(kids):\n"
        "        return ', '.join(kids)\n"
        "    return walk(join)\n"
        "class Tree:\n"
        "    def size(self):\n"
        "        return 1 + sum(child.size() for child in self.children)\n"
        "    def depth(self):\n"
        "        return 1 + max(self.depth() for _ in self.children)\n"
        "    def leaves(self):\n"
        "        def leaves(node):\n"
        "            return [leaves(c) for c in node.children]\n"
        "        return leaves(self)\n"
    )
    assert _self_calls(ast.parse(source)) == ["walk", "depth", "leaves"]
