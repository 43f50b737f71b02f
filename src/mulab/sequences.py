"""Eventually periodic natural-number sequences with decidable search.

A PresentedSequence is a finite prefix plus a repeating tail.  On this
class the search operator mu is exactly computable: scanning the prefix
and a single period settles whether the sequence ever hits zero.

Canonical form is minimal period first, then minimal prefix: the tail is
reduced to its shortest generating word, after which trailing prefix
elements that merely repeat the tail are absorbed into it.  Construction
canonicalizes, so extensional equality of sequences coincides with
structural equality of objects.

A sequence finds its first zero and its first nonzero once, in a C-level
pass over the prefix and one period, and keeps them.  The routes' own
side asks only bounded questions of it: ``zero_below(n)`` and
``nonzero_below(n)`` say where the first such index below n is, or that
there is none, as a scan of the values below n would.
"""

from __future__ import annotations

import re
from functools import cached_property
from operator import index
from typing import Iterable

from .errors import ParseError
from .value import Value

__all__ = [
    "PresentedSequence",
    "OpaqueSequence",
    "Found",
    "NoneBelowBudget",
    "mu_exact",
    "mu_budgeted",
    "parse_sequence",
    "format_sequence",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 2**20


def _minimal_period(word: tuple[int, ...]) -> tuple[int, ...]:
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d]
    return word


def _index(values: tuple, v: object) -> int | None:
    """The first index of v in values, or None."""
    try:
        return values.index(v)
    except ValueError:
        return None


class PresentedSequence(Value):
    """An infinite sequence given by prefix then tail repeated forever."""

    _fields = ("prefix", "tail")

    def __init__(self, prefix: Iterable[int], tail: Iterable[int]) -> None:
        self.__post_init__(prefix, tail)

    def __post_init__(self, prefix: Iterable[int], tail: Iterable[int]) -> None:
        # canonical form; a method of its own, so perfbench can count
        # the sequences built.  Entries are integers (bools count as 0
        # and 1): anything else is refused, not coerced
        prefix, tail = map(index, prefix), map(index, tail)
        try:
            prefix, tail = tuple(prefix), tuple(tail)
        except TypeError:
            raise ValueError("values must be natural numbers") from None
        if not tail:
            raise ValueError("tail must be nonempty")
        if min(prefix + tail) < 0:
            raise ValueError("values must be natural numbers")
        tail = _minimal_period(tail)
        # absorb the trailing prefix entries that already follow the
        # periodic pattern read backwards, then rotate the tail once
        n, p = len(prefix), len(tail)
        k = n
        while k and prefix[k - 1] == tail[(k - 1 - n) % p]:
            k -= 1
        r = (n - k) % p
        prefix, tail = prefix[:k], tail[p - r:] + tail[:p - r]
        super().__init__(prefix, tail)

    @property
    def horizon(self) -> int:
        """Indices below this determine the whole sequence."""
        return len(self.prefix) + len(self.tail)

    def value(self, n: int) -> int:
        if n < 0:
            raise ValueError("negative index")
        if n < len(self.prefix):
            return self.prefix[n]
        return self.tail[(n - len(self.prefix)) % len(self.tail)]

    def values(self, count: int) -> list[int]:
        return [self.value(n) for n in range(count)]

    @cached_property
    def first_zero(self) -> int | None:
        """Least n with value 0, or None: one scan of the prefix and one
        period, done once per sequence."""
        return _index(self.prefix + self.tail, 0)

    @cached_property
    def first_nonzero(self) -> int | None:
        """Least n with a nonzero value, or None; scanned like first_zero."""
        return _index(tuple(map(bool, self.prefix + self.tail)), True)

    def zero_below(self, n: int) -> int | None:
        """Least index below n with value 0, or None if there is none."""
        m = self.first_zero
        return m if m is not None and m < n else None

    def nonzero_below(self, n: int) -> int | None:
        """Least index below n with a nonzero value, or None."""
        m = self.first_nonzero
        return m if m is not None and m < n else None

    def __str__(self) -> str:
        return format_sequence(self)


class OpaqueSequence(Value):
    """A sequence known only through evaluation, no structure attached."""

    _fields = ("evaluator",)

    def value(self, n: int) -> int:
        return int(self.evaluator(n))


class Found(Value):
    """mu_budgeted found the least zero at .index."""

    _fields = ("index",)


class NoneBelowBudget(Value):
    """No zero below the budget.  Explicitly not a proof of nonexistence."""

    _fields = ("budget",)


def mu_exact(f: PresentedSequence) -> int | None:
    """Least n with f(n) = 0, or None if the sequence never hits zero.

    Exact: one period past the prefix decides the search, and f scans it
    once and keeps the answer (``PresentedSequence.first_zero``).
    """
    return f.first_zero


def mu_budgeted(f: OpaqueSequence | PresentedSequence,
                budget: int = DEFAULT_BUDGET) -> Found | NoneBelowBudget:
    """Bounded search by evaluation: scan indices below budget."""
    for n in range(budget):
        if f.value(n) == 0:
            return Found(n)
    return NoneBelowBudget(budget)


def _natural(text: str) -> int | None:
    """The number that text spells in ASCII digits, or None: for any other
    character, and for more digits than int() converts."""
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # past the interpreter's limit on digits
            pass
    return None


# blanks may stand around the words and the punctuation, not inside a number
_SEQ_RE = re.compile(r"\s*prefix\s*=\s*\[([0-9,\s]*)\]\s*;"
                     r"\s*tail\s*=\s*\[([0-9,\s]*)\]\s*")


def parse_sequence(text: str) -> PresentedSequence:
    """Parse 'prefix=[a,b,...];tail=[c,...]'.  Blanks around the words
    and the punctuation are ignored; a blank inside a number is refused."""
    m = _SEQ_RE.fullmatch(text)
    if not m:
        raise ParseError(f"bad sequence syntax: {text!r}")

    def ints(group: str) -> tuple[int, ...]:
        # the syntax admits only ASCII digits, commas and blanks, so int
        # refuses a stripped entry exactly when it is not one number:
        # empty, blank inside, or past the interpreter's limit on digits.
        # int strips fewer blanks than str.strip (not U+001C-U+001F)
        if not group.strip():
            return ()
        try:
            return tuple(map(int, map(str.strip, group.split(","))))
        except ValueError:
            raise ParseError(f"bad number list in {text!r}") from None

    prefix, tail = ints(m.group(1)), ints(m.group(2))
    if not tail:
        raise ParseError("tail must be nonempty")
    return PresentedSequence(prefix, tail)


def format_sequence(s: PresentedSequence) -> str:
    p = ",".join(map(str, s.prefix))
    t = ",".join(map(str, s.tail))
    return f"prefix=[{p}];tail=[{t}]"
