"""Search operators from discontinuity: presented sequences and reals,
counterexample pairs for classic existence theorems, query-traced
functionals with fan and extensionality bounds, and a normal form
engine for marked formulas.

The guiding fact: an exact least-zero search over infinite sequences is
equivalent to having any one of several innocuous-looking functionals
(binary expansion, tree paths, intermediate-value roots, rational
recognition), and the reduction in each direction is effective.  The
forward constructions live next to the extractors that invert them,
and every extracted search carries an explicit bound that the test
suite checks rather than trusts.
"""

from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

# Each public name -> the submodule that defines it.  Nothing is imported
# here: a name loads its module on first use (PEP 562), so a command
# compiles only the layers it runs.
_EXPORTS = {
    **dict.fromkeys((
        "cantor_pair", "cantor_unpair", "dyadic_index", "dyadic_value",
        "max_coded_length", "string_code"), "coding"),
    **dict.fromkeys(("corpus_stats", "flag_corpus"), "corpus"),
    **dict.fromkeys((
        "BoundViolation", "BudgetExceeded", "FormulaScopeError",
        "InputError", "MalformedWitness", "MeasureZero", "MulabError",
        "NotInCbar", "NotNormalizable", "OutOfRange", "ParseError",
        "PropertyError", "UnsupportedPresentation"), "errors"),
    **dict.fromkeys((
        "BinaryExpansion", "RationalWitness",
        "RepresentedContinuousFunction", "Route", "RouteReport", "TwoBump",
        "flag_epsilon", "ivt_counterexample", "mu_from",
        "trees_from_flag", "ubin_extraction", "ubin_from_mu",
        "udq_extraction", "udq_from_mu", "uivt_extraction", "uivt_from_mu",
        "uwwkl_extraction", "uwwkl_from_mu",
        "weierstrass_counterexample"), "extractors"),
    **dict.fromkeys((
        "extraction_obligation", "format_formula", "is_internal",
        "NormalForm", "parse_formula", "relativize_st", "replay", "RuleStep",
        "RuleTrace", "to_normal_form"), "formulas"),
    **dict.fromkeys((
        "TracedFunctional", "TracedSeqView", "TracedView",
        "catalog_functional", "e2_from_mu", "mu_from_e2", "omega_fan",
        "theta_special", "xi_by_tracing"), "functionals"),
    **dict.fromkeys((
        "FastCauchyReal", "counterexample_pair", "dq_real",
        "flag_shifted", "from_rational", "real_eq", "real_lt",
        "real_sign", "to_decimal"), "reals"),
    **dict.fromkeys((
        "DEFAULT_BUDGET", "Found", "NoneBelowBudget", "OpaqueSequence",
        "PresentedSequence", "format_sequence",
        "mu_budgeted", "mu_exact", "parse_sequence"), "sequences"),
    **dict.fromkeys((
        "FlagTree", "FullTree", "PathTree", "PresentedTree", "Truncation",
        "format_tree", "greedy_path", "measure_positive", "parse_tree",
        "scf_check"), "trees"),
}
_SUBMODULES = frozenset({*_EXPORTS.values(), "cli", "digits", "value"})

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is not None:
        return getattr(import_module(f"{__name__}.{module}"), name)
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
