"""The package's modules import one another in one order, at module level.

perm_core -> decomposition -> class_engine -> deflate_analysis -> witness
-> cli: a module may import only modules earlier in the chain, and never
from inside a function or an ``if`` (or any other) block, where an import
can hide a cycle.  ``__init__`` and ``__main__`` re-export the chain and
are exempt from the order, not from the top-level rule.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import permdeflate

SOURCES = sorted(Path(permdeflate.__file__).parent.glob("*.py"))
CHAIN = ["perm_core", "decomposition", "class_engine", "deflate_analysis", "witness", "cli"]
EXEMPT = {"__init__", "__main__"}


def _relative_imports(tree: ast.Module) -> list[tuple[ast.ImportFrom, bool, list[str]]]:
    """(node, at_top_level, target modules) for each relative import."""
    top = {id(node) for node in tree.body}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            targets = [node.module] if node.module else [a.name for a in node.names]
            found.append((node, id(node) in top, [t.split(".")[0] for t in targets]))
    return found


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
