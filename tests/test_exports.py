"""Every public name a module lists exists, and the package re-exports
only listed names."""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mulab
import mulab.formulas

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
    # the names loaded on first use, through mulab.__getattr__
    assert mulab._FORMULA_NAMES
    assert sorted(mulab._FORMULA_NAMES - set(mulab.formulas.__all__)) == []


FORMULA_NAMES = ["alpha_equal", "extraction_obligation", "format_formula",
                 "is_internal", "NormalForm", "parse_formula",
                 "relativize_st", "replay", "RuleStep", "RuleTrace",
                 "to_normal_form"]

LAZY_NAMES = f"""
import sys
import mulab
print("mulab.formulas" in sys.modules)
got = {{name: getattr(mulab, name) for name in {FORMULA_NAMES!r}}}
print("mulab.formulas" in sys.modules)
from mulab import formulas, parse_formula
print(all(got[name] is getattr(formulas, name) for name in got),
      parse_formula is formulas.parse_formula)
try:
    mulab.no_such_name
except AttributeError as exc:
    print(exc)
"""


def test_formula_names_load_the_formula_layer_on_first_use():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_NAMES], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.stderr == ""
    assert proc.stdout.splitlines() == [
        "False", "True", "True True",
        "module 'mulab' has no attribute 'no_such_name'"]
