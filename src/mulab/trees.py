"""Presented binary trees with closed-form level counts and measure.

The closed family: the full tree, flag-gated trees (one root branch
always full, the other a single path, its first bit then ones, cut
once the flag sequence hits zero), a single eventually periodic path
with an optional full subtree grafted at a level, and truncations of
any of these.  Strings are handled as (length, value) with the first
bit in the most significant position.

Membership at a string is always a bounded decision; whether a branch
stays alive at every level can need the total flag search, so those
methods accept a mu operation and default to the exact one.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index
from typing import TYPE_CHECKING

from .coding import string_code
from .errors import InputError, MeasureZero, ParseError
from .functionals import DEFAULT_BUDGET, TracedFunctional, TracedView, _fan_replay
from .sequences import (PresentedSequence, _natural, format_sequence, mu_exact,
                        parse_sequence)
from .value import Value

if TYPE_CHECKING:  # the fan commands never load the reals
    from .reals import MuOp

__all__ = [
    "PresentedTree",
    "FullTree",
    "FlagTree",
    "PathTree",
    "Truncation",
    "TracedTreeView",
    "ScfReport",
    "measure_positive",
    "greedy_path",
    "scf_check",
    "parse_tree",
    "format_tree",
]


def _natural_field(v: object, message: str, top: int | None = None) -> int:
    """v as an int, a bool counting as 0 or 1; a non-integer, or a value
    outside 0 .. top, is refused with message."""
    try:
        v = index(v)
    except TypeError:
        raise ValueError(message) from None
    if v < 0 or top is not None and v > top:
        raise ValueError(message)
    return v


class PresentedTree:
    """Base class; subclasses are the closed family."""

    def member(self, length: int, value: int) -> bool:
        raise NotImplementedError

    def level_count(self, n: int) -> int:
        """Number of members at level n, in closed form."""
        raise NotImplementedError

    def alive(self, length: int, value: int, mu: MuOp = mu_exact) -> bool:
        """Does the subtree at this member have nodes at every level?"""
        raise NotImplementedError

    def measure_lower(self) -> Fraction:
        """Exact infimum of level_count(n) / 2^n."""
        raise NotImplementedError

    def __str__(self) -> str:
        return format_tree(self)


class FullTree(PresentedTree, Value):
    def member(self, length: int, value: int) -> bool:
        return 0 <= value < (1 << length)

    def level_count(self, n: int) -> int:
        return 1 << n

    def alive(self, length: int, value: int, mu: MuOp = mu_exact) -> bool:
        return self.member(length, value)

    def measure_lower(self) -> Fraction:
        return Fraction(1)


class FlagTree(PresentedTree, Value):
    """Strings starting with root_bit are always in.  The opposite branch
    is the single gated path (the gate bit, then all ones), alive at
    length n only while the flag has no zero at or below n.  The full
    half alone gives measure 1/2 whatever the flag does.
    """

    _fields = ("root_bit", "flag")

    def __init__(self, root_bit: int, flag: PresentedSequence) -> None:
        super().__init__(_natural_field(root_bit, "root_bit must be 0 or 1", 1),
                         flag)

    def _gate_open(self, n: int) -> bool:
        # the gated path has no strings of length >= max(first zero, 1)
        return self.flag.zero_below(n + 1) is None

    def member(self, length: int, value: int) -> bool:
        if not 0 <= value < (1 << length):
            return False
        if length == 0:
            return True
        if value >> (length - 1) == self.root_bit:
            return True
        ones = (1 << (length - 1)) - 1
        return value & ones == ones and self._gate_open(length)

    def level_count(self, n: int) -> int:
        if n == 0:
            return 1
        return (1 << (n - 1)) + int(self._gate_open(n))

    def alive(self, length: int, value: int, mu: MuOp = mu_exact) -> bool:
        if not self.member(length, value):
            return False
        if length == 0 or value >> (length - 1) == self.root_bit:
            return True
        return mu(self.flag) is None

    def measure_lower(self) -> Fraction:
        return Fraction(1, 2)


class PathTree(PresentedTree, Value):
    """A single path following `bits` cyclically.  With full_below = L the
    path runs to level L and carries the full tree under its endpoint;
    with full_below None it is just the path, which has measure zero.
    """

    _fields = ("bits", "full_below")
    full_below = None

    def __init__(self, bits: tuple[int, ...],
                 full_below: int | None = full_below) -> None:
        message = "bits must be a nonempty binary tuple"
        bits = tuple(_natural_field(b, message, 1) for b in bits or ())
        if not bits:
            raise ValueError(message)
        if full_below is not None:
            full_below = _natural_field(full_below,
                                        "graft level must be nonnegative")
        super().__init__(bits, full_below)

    def _path_bit(self, d: int) -> int:
        return self.bits[d % len(self.bits)]

    def member(self, length: int, value: int) -> bool:
        if not 0 <= value < (1 << length):
            return False
        limit = length if self.full_below is None else min(length, self.full_below)
        # the top `limit` bits of value against the path's first `limit`
        # bits, each read as one int: linear in length
        period = "".join(map(str, self.bits))
        path = (period * (limit // len(period) + 1))[:limit]
        return value >> (length - limit) == int(path or "0", 2)

    def level_count(self, n: int) -> int:
        if self.full_below is None or n <= self.full_below:
            return 1
        return 1 << (n - self.full_below)

    def alive(self, length: int, value: int, mu: MuOp = mu_exact) -> bool:
        return self.member(length, value)

    def measure_lower(self) -> Fraction:
        if self.full_below is None:
            return Fraction(0)
        return Fraction(1, 1 << self.full_below)


class Truncation(PresentedTree, Value):
    _fields = ("level", "inner")

    def __init__(self, level: int, inner: PresentedTree) -> None:
        super().__init__(
            _natural_field(level, "truncation level must be nonnegative"), inner)

    def member(self, length: int, value: int) -> bool:
        tree = self
        while isinstance(tree, Truncation) and length <= tree.level:
            tree = tree.inner
        return not isinstance(tree, Truncation) and tree.member(length, value)

    def level_count(self, n: int) -> int:
        tree = self
        while isinstance(tree, Truncation) and n <= tree.level:
            tree = tree.inner
        return 0 if isinstance(tree, Truncation) else tree.level_count(n)

    def alive(self, length: int, value: int, mu: MuOp = mu_exact) -> bool:
        return False

    def measure_lower(self) -> Fraction:
        return Fraction(0)


def measure_positive(tree: PresentedTree) -> bool:
    """Decide whether the tree has positive measure: some 1/k bounds
    level_count(n)/2^n below for every n."""
    return tree.measure_lower() > 0


def greedy_path(tree: PresentedTree, mu: MuOp = mu_exact) -> PresentedSequence:
    """The path that prefers the 1-branch wherever that branch has nodes
    at every level.  Requires positive measure; the result is eventually
    constant or periodic, hence presented.
    """
    if not measure_positive(tree):
        raise MeasureZero(f"no path promised for {format_tree(tree)}")
    if isinstance(tree, FullTree):
        return PresentedSequence((), (1,))
    if isinstance(tree, FlagTree):
        if tree.root_bit == 1 or mu(tree.flag) is None:
            return PresentedSequence((), (1,))
        return PresentedSequence((0,), (1,))
    if isinstance(tree, PathTree):
        # positive measure implies a graft level; follow the path there,
        # then the full subtree lets the 1-branch win forever
        level = tree.full_below
        assert level is not None
        anchor = tuple(tree._path_bit(d) for d in range(level))
        return PresentedSequence(anchor, (1,))
    raise MeasureZero(f"unsupported tree {tree!r}")


class TracedTreeView(TracedView):
    """Membership view tracing (length, value) descriptors; top() codes the
    largest, as length-lex code order is (length, value) order."""

    def query(self, length: int, value: int) -> bool:
        self._record((length, value))
        return self.subject.member(length, value)

    def top(self) -> int:
        return string_code(*max(self.trace)) if self.trace else -1


class ScfReport(Value):
    _fields = ("bound", "cover_size", "antecedent", "consequent", "fan_bound")

    @property
    def implication(self) -> bool:
        return (not self.antecedent) or self.consequent


def _meets(tree: PresentedTree, answers: dict[int, int], length: int) -> bool:
    """Has the tree a member of this length agreeing with answers below it?

    Decided per tree form from the answered indices alone, so linear in
    their number and never building a string of the cut's length.
    """
    while isinstance(tree, Truncation):
        if length > tree.level:
            return False
        tree = tree.inner
    if isinstance(tree, FullTree) or length == 0:
        return True
    if isinstance(tree, FlagTree):
        # the root_bit half is full; the other half is the gated path
        if answers.get(0, tree.root_bit) == tree.root_bit:
            return True
        return tree._gate_open(length) and all(
            bit == 1 for i, bit in answers.items() if 0 < i < length)
    if isinstance(tree, PathTree):
        limit = length if tree.full_below is None else min(length, tree.full_below)
        return all(bit == tree._path_bit(i)
                   for i, bit in answers.items() if 0 <= i < limit)
    raise ValueError(f"unknown tree {tree!r}")


# a cover of bound n has 2^n elements, and the fan command prints that
# count in full: 10^7 bits print 3 MB in about 0.5 s with a 30 MB process
# on a 2-core VM, 10^8 bits 30 MB in 4.6 s with 168 MB; a larger bound is
# refused before 2^n is built
_COVER_BOUND_CAP = 10_000_000


def scf_check(g: TracedFunctional, tree: PresentedTree,
              node_budget: int = DEFAULT_BUDGET) -> ScfReport:
    """Check the special-fan implication for g against a presented tree.

    Antecedent: every cover element, cut at its own g-value, misses the
    tree.  Consequent: the tree is empty at the bound level (equivalent,
    under prefix closure, to every branch leaving the tree by then).

    One replay decides both.  A cover element reaches a replay leaf
    exactly when the leaf answers 1 only below the bound, so the
    antecedent fails iff such a leaf meets the tree at its value.  A cut
    is a length, so a negative value of g is refused as input, and so is
    a value above ``_COVER_BOUND_CAP``.
    """
    bound = 0
    low = float("inf")  # the least largest 1-answer of a leaf meeting the tree
    for answers, value in _fan_replay(g, node_budget):
        if value < 0:
            raise InputError(f"the cover check needs natural values, "
                             f"but {g.name} gives {value}")
        if value > bound:
            if value > _COVER_BOUND_CAP:
                raise InputError(f"the cover check takes bounds up to "
                                 f"{_COVER_BOUND_CAP:,}, but {g.name} "
                                 f"gives a larger one")
            bound = value
        ones = answers.ones
        if not ones or ones[-1] < low:  # else the largest is not below low
            last_one = max(ones, default=-1)
            if last_one < low and _meets(tree, answers, value):
                low = last_one
    antecedent = low >= bound
    consequent = tree.level_count(bound) == 0
    return ScfReport(bound, 1 << bound, antecedent, consequent, answers.top + 1)


def parse_tree(text: str) -> PresentedTree:
    """Parse the tree syntax: full | flagtree:i:<sequence> |
    path:<bits>[+full@<level>] | truncate:<level>:<tree>."""
    text = text.strip()
    # the prefixes in one pass: `pos` is where the text still to read
    # starts, so each level costs its own characters only
    levels = []
    pos = 0
    while text.startswith("truncate:", pos):
        end = text.find(":", pos + len("truncate:"))
        level = _natural(text[pos + len("truncate:"):end]) if end >= 0 else None
        if level is None:
            raise ParseError(f"bad truncate syntax: {text[pos:]!r}")
        levels.append(level)
        pos = end + 1
        while pos < len(text) and text[pos].isspace():
            pos += 1
    text = text[pos:]
    if text == "full":
        tree = FullTree()
    elif text.startswith("flagtree:"):
        root, sep, seq = text[len("flagtree:"):].partition(":")
        if not sep or root not in ("0", "1"):
            raise ParseError(f"bad flagtree syntax: {text!r}")
        tree = FlagTree(int(root), parse_sequence(seq))
    elif text.startswith("path:"):
        bits_text, graft, level_text = text[len("path:"):].partition("+full@")
        level = _natural(level_text) if graft else None
        if graft and level is None:
            raise ParseError(f"bad graft level in {text!r}")
        if not bits_text or any(c not in "01" for c in bits_text):
            raise ParseError(f"bad path bits in {text!r}")
        tree = PathTree(tuple(int(c) for c in bits_text), level)
    else:
        raise ParseError(f"unknown tree syntax: {text!r}")
    for level in reversed(levels):
        tree = Truncation(level, tree)
    return tree


def format_tree(tree: PresentedTree) -> str:
    cuts = []
    while isinstance(tree, Truncation):
        cuts.append(f"truncate:{tree.level}:")
        tree = tree.inner
    if isinstance(tree, FullTree):
        text = "full"
    elif isinstance(tree, FlagTree):
        text = f"flagtree:{tree.root_bit}:{format_sequence(tree.flag)}"
    elif isinstance(tree, PathTree):
        graft = "" if tree.full_below is None else f"+full@{tree.full_below}"
        text = "path:" + "".join(str(b) for b in tree.bits) + graft
    else:
        raise ValueError(f"unknown tree {tree!r}")
    return "".join(cuts) + text
