"""The package imports nothing outside the standard library."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import permdeflate

SOURCES = sorted(Path(permdeflate.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_absolute_imports_are_stdlib(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    outside = sorted({n.split(".")[0] for n in names} - sys.stdlib_module_names)
    assert outside == [], f"{path.name} imports {outside}"


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    # a fresh process: this one may have imported them for pytest
    code = "import sys, permdeflate, permdeflate.cli\n"
    code += "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    src = str(Path(permdeflate.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]", out.stdout
