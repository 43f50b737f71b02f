"""Every public name a module lists exists, and the package re-exports
only listed names."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mulab

MODULES = [name for _, name, _ in pkgutil.iter_modules(mulab.__path__, "mulab.")]


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_exists(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_only_listed_names():
    tree = ast.parse(Path(mulab.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"mulab.{node.module}")
        unlisted = [a.name for a in node.names if a.name not in module.__all__]
        assert unlisted == [], node.module
