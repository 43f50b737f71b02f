"""Shared exception types.

Everything that can go wrong on a well-typed call is a subclass of
MulabError.  Two classes decide the command line's exit codes:
InputError (a ParseError among them) says an argument is unusable and
exits 2, and PropertyError (BoundViolation, MalformedWitness,
BudgetExceeded, MeasureZero, NotNormalizable) says a stated property
failed on this input and exits 1.  Anything else that reaches the
command line, a plain ValueError or any other MulabError, is a bug and
surfaces as a traceback.
"""

from __future__ import annotations

__all__ = [
    "MulabError",
    "InputError",
    "ParseError",
    "PropertyError",
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


class InputError(MulabError, ValueError):
    """An argument is unusable: it is read and refused before a run."""


class ParseError(InputError):
    """A text form (sequence, tree, functional, formula) does not parse."""


class PropertyError(MulabError):
    """A stated property fails on this input: the command line exits 1."""


class UnsupportedPresentation(MulabError):
    """A real lacks the symbolic presentation needed for an exact decision."""


class BudgetExceeded(PropertyError):
    """An exploration or query budget ran out before an answer was reached.

    Not a proof of divergence; the budget is configurable.
    """


class BoundViolation(PropertyError):
    """An extracted search bound failed to contain the promised witness."""


class OutOfRange(MulabError):
    """Input real lies outside the unit interval."""


class NotInCbar(MulabError):
    """Function does not satisfy the sign condition f(0) < 0 < f(1)."""


class MeasureZero(PropertyError):
    """Tree has measure zero, so no path is promised."""


class MalformedWitness(PropertyError):
    """A returned witness does not have the promised shape."""


class NotNormalizable(PropertyError):
    """No rewrite rule applies to the remaining st-quantifier structure."""


class FormulaScopeError(ParseError):
    """A quantifier rebinds a name that is already bound in scope."""
