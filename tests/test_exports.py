"""Every public name a module lists exists, and the package re-exports
only listed names, each loaded on first use."""

from __future__ import annotations

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


# the names the package exports from every layer but the formula layer
EAGER_NAMES = [
    "BinaryExpansion", "BoundViolation", "BudgetExceeded", "cantor_pair",
    "cantor_unpair", "catalog_functional", "corpus_stats",
    "counterexample_pair", "DEFAULT_BUDGET", "dq_real", "dyadic_index",
    "dyadic_value", "e2_from_mu", "FastCauchyReal", "flag_corpus",
    "flag_epsilon", "flag_shifted", "FlagTree", "format_sequence",
    "format_tree", "FormulaScopeError", "Found",
    "from_rational", "FullTree", "greedy_path", "InputError",
    "ivt_counterexample", "MalformedWitness", "max_coded_length",
    "measure_positive", "MeasureZero", "mu_budgeted", "mu_exact", "mu_from",
    "mu_from_e2", "MulabError", "NoneBelowBudget", "NotInCbar",
    "NotNormalizable", "omega_fan", "OpaqueSequence", "OutOfRange",
    "parse_sequence", "parse_tree", "ParseError", "PathTree",
    "PresentedSequence", "PresentedTree", "PropertyError",
    "RationalWitness", "real_eq", "real_lt", "real_sign",
    "RepresentedContinuousFunction", "Route", "RouteReport", "scf_check",
    "string_code", "theta_special", "to_decimal",
    "TracedFunctional", "TracedView", "TracedSeqView", "trees_from_flag",
    "Truncation", "TwoBump", "ubin_extraction", "ubin_from_mu",
    "udq_extraction", "udq_from_mu", "uivt_extraction", "uivt_from_mu",
    "UnsupportedPresentation", "uwwkl_extraction", "uwwkl_from_mu",
    "weierstrass_counterexample", "xi_by_tracing"]


def test_package_imports_only_listed_names():
    # the package imports nothing itself: each name is looked up in the
    # one table, which pins the exported set
    assert sorted(mulab._EXPORTS) == sorted(EAGER_NAMES + FORMULA_NAMES)
    assert sorted(mulab.__all__) == sorted(mulab._EXPORTS)
    for name, module in mulab._EXPORTS.items():
        source = importlib.import_module(f"mulab.{module}")
        assert name in source.__all__, (name, module)
        assert getattr(mulab, name) is getattr(source, name), name
    from mulab import Truncation, parse_formula, real_sign
    assert Truncation is mulab.trees.Truncation
    assert parse_formula is mulab.formulas.parse_formula
    assert real_sign is mulab.reals.real_sign
    # every submodule is reachable as an attribute of the package
    assert mulab._SUBMODULES == {name.split(".")[1] for name in MODULES}
    with pytest.raises(AttributeError, match="no_such_name"):
        mulab.no_such_name
    with pytest.raises(ImportError):
        from mulab import no_such_name  # noqa: F401


FORMULA_NAMES = ["extraction_obligation", "format_formula",
                 "is_internal", "NormalForm", "parse_formula",
                 "relativize_st", "replay", "RuleStep", "RuleTrace",
                 "to_normal_form"]

LAZY_NAMES = f"""
import sys
import mulab
print(sorted(name for name in sys.modules if name.startswith("mulab")))
print(sorted((set(mulab.__all__) | mulab._SUBMODULES) - set(dir(mulab))))
got = {{name: getattr(mulab, name) for name in {FORMULA_NAMES!r}}}
print("mulab.formulas" in sys.modules)
from mulab import formulas, parse_formula
print(all(got[name] is getattr(formulas, name) for name in got),
      parse_formula is formulas.parse_formula)
try:
    mulab.no_such_name
except AttributeError as exc:
    print(exc)
from mulab import reals
print(mulab.trees.__name__, mulab.value.__name__,
      reals is sys.modules["mulab.reals"])
"""


def test_formula_names_load_the_formula_layer_on_first_use():
    # `import mulab` loads no submodule; a name or a submodule read from
    # it loads its module, and dir() lists them all beforehand
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_NAMES], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.stderr == ""
    assert proc.stdout.splitlines() == [
        "['mulab']", "[]", "True", "True True",
        "module 'mulab' has no attribute 'no_such_name'",
        "mulab.trees mulab.value True"]
