"""The examples in the package's docstrings run and give what they show."""

from __future__ import annotations

import doctest
import importlib
import pkgutil

import pytest

import permdeflate

#: Every module but ``__main__``, which runs the command line on import.
MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(permdeflate.__path__, prefix="permdeflate.")
    if info.name != "permdeflate.__main__"
)


@pytest.mark.parametrize("name", ["permdeflate", *MODULES])
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
