"""Shared exception types.

Everything that can go wrong on a well-typed call is a subclass of
MulabError, so callers (the CLI in particular) can separate input
problems from genuine property violations.
"""

from __future__ import annotations

__all__ = [
    "MulabError",
    "ParseError",
    "UnsupportedPresentation",
    "BudgetExceeded",
    "BoundViolation",
    "OutOfRange",
    "NotInCbar",
    "MeasureZero",
    "MalformedWitness",
    "NotNormalizable",
    "FormulaScopeError",
]


class MulabError(Exception):
    """Base class for library errors."""


class ParseError(MulabError, ValueError):
    """A text form (sequence, tree, functional, formula) does not parse."""


class UnsupportedPresentation(MulabError):
    """A real lacks the symbolic presentation needed for an exact decision."""


class BudgetExceeded(MulabError):
    """An exploration or query budget ran out before an answer was reached.

    Not a proof of divergence; the budget is configurable.
    """


class BoundViolation(MulabError):
    """An extracted search bound failed to contain the promised witness."""


class OutOfRange(MulabError):
    """Input real lies outside the unit interval."""


class NotInCbar(MulabError):
    """Function does not satisfy the sign condition f(0) < 0 < f(1)."""


class MeasureZero(MulabError):
    """Tree has measure zero, so no path is promised."""


class MalformedWitness(MulabError):
    """A returned witness does not have the promised shape."""


class NotNormalizable(MulabError):
    """No rewrite rule applies to the remaining st-quantifier structure."""


class FormulaScopeError(ParseError):
    """A quantifier rebinds a name that is already bound in scope."""
