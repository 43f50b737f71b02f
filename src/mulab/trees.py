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

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .coding import string_code, string_decode
from .errors import MeasureZero, ParseError
from .functionals import DEFAULT_BUDGET, TracedFunctional, TracedView, theta_special
from .reals import MuOp
from .sequences import PresentedSequence, format_sequence, mu_exact, parse_sequence

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

    def measure_lower(self, mu: MuOp = mu_exact) -> Fraction:
        """Exact infimum of level_count(n) / 2^n."""
        raise NotImplementedError

    def member_code(self, code: int) -> bool:
        length, value = string_decode(code)
        return self.member(length, value)

    def __str__(self) -> str:
        return format_tree(self)


def _bit_at(length: int, value: int, d: int) -> int:
    return (value >> (length - 1 - d)) & 1


@dataclass(frozen=True)
class FullTree(PresentedTree):
    def member(self, length: int, value: int) -> bool:
        return 0 <= value < (1 << length)

    def level_count(self, n: int) -> int:
        return 1 << n

    def alive(self, length: int, value: int, mu: MuOp = mu_exact) -> bool:
        return self.member(length, value)

    def measure_lower(self, mu: MuOp = mu_exact) -> Fraction:
        return Fraction(1)


@dataclass(frozen=True)
class FlagTree(PresentedTree):
    """Strings starting with root_bit are always in.  The opposite branch
    is the single gated path (the gate bit, then all ones), alive at
    length n only while the flag has no zero at or below n.  The full
    half alone gives measure 1/2 whatever the flag does.
    """

    root_bit: int
    flag: PresentedSequence

    def __post_init__(self) -> None:
        if self.root_bit not in (0, 1):
            raise ValueError("root_bit must be 0 or 1")

    def _gate_open(self, n: int) -> bool:
        # the gated path has no strings of length >= max(first zero, 1)
        m0 = mu_exact(self.flag)
        return m0 is None or m0 > n

    def member(self, length: int, value: int) -> bool:
        if not 0 <= value < (1 << length):
            return False
        if length == 0:
            return True
        if _bit_at(length, value, 0) == self.root_bit:
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
        if length == 0 or _bit_at(length, value, 0) == self.root_bit:
            return True
        return mu(self.flag) is None

    def measure_lower(self, mu: MuOp = mu_exact) -> Fraction:
        return Fraction(1, 2)


@dataclass(frozen=True)
class PathTree(PresentedTree):
    """A single path following `bits` cyclically.  With full_below = L the
    path runs to level L and carries the full tree under its endpoint;
    with full_below None it is just the path, which has measure zero.
    """

    bits: tuple[int, ...]
    full_below: int | None = None

    def __post_init__(self) -> None:
        if not self.bits or any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be a nonempty binary tuple")
        if self.full_below is not None and self.full_below < 0:
            raise ValueError("graft level must be nonnegative")

    def _path_bit(self, d: int) -> int:
        return self.bits[d % len(self.bits)]

    def member(self, length: int, value: int) -> bool:
        if not 0 <= value < (1 << length):
            return False
        limit = length if self.full_below is None else min(length, self.full_below)
        return all(_bit_at(length, value, d) == self._path_bit(d)
                   for d in range(limit))

    def level_count(self, n: int) -> int:
        if self.full_below is None or n <= self.full_below:
            return 1
        return 1 << (n - self.full_below)

    def alive(self, length: int, value: int, mu: MuOp = mu_exact) -> bool:
        return self.member(length, value)

    def measure_lower(self, mu: MuOp = mu_exact) -> Fraction:
        if self.full_below is None:
            return Fraction(0)
        return Fraction(1, 1 << self.full_below)


@dataclass(frozen=True)
class Truncation(PresentedTree):
    level: int
    inner: PresentedTree

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError("truncation level must be nonnegative")

    def member(self, length: int, value: int) -> bool:
        return length <= self.level and self.inner.member(length, value)

    def level_count(self, n: int) -> int:
        return self.inner.level_count(n) if n <= self.level else 0

    def alive(self, length: int, value: int, mu: MuOp = mu_exact) -> bool:
        return False

    def measure_lower(self, mu: MuOp = mu_exact) -> Fraction:
        return Fraction(0)


def measure_positive(tree: PresentedTree, mu: MuOp = mu_exact) -> bool:
    """Decide whether the tree has positive measure: some 1/k bounds
    level_count(n)/2^n below for every n."""
    return tree.measure_lower(mu) > 0


def greedy_path(tree: PresentedTree, mu: MuOp = mu_exact) -> PresentedSequence:
    """The path that prefers the 1-branch wherever that branch has nodes
    at every level.  Requires positive measure; the result is eventually
    constant or periodic, hence presented.
    """
    if not measure_positive(tree, mu):
        raise MeasureZero(f"no path promised for {format_tree(tree)}")
    if isinstance(tree, Truncation):
        raise MeasureZero("truncated trees have no infinite paths")
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
    """Membership view of a tree under the length-lex string coding."""

    def __init__(self, tree: PresentedTree, budget: int = DEFAULT_BUDGET):
        super().__init__(budget)
        self.tree = tree

    def query(self, i: int) -> int:
        self._record(i)
        return 1 if self.tree.member_code(i) else 0

    def member(self, length: int, value: int) -> bool:
        return self.query(string_code(length, value)) == 1


@dataclass(frozen=True)
class ScfReport:
    bound: int
    cover_size: int
    antecedent: bool
    consequent: bool

    @property
    def implication(self) -> bool:
        return (not self.antecedent) or self.consequent


def scf_check(g: TracedFunctional, tree: PresentedTree,
              node_budget: int = DEFAULT_BUDGET) -> ScfReport:
    """Check the special-fan implication for g against a presented tree.

    Antecedent: every cover element, cut at its own g-value, misses the
    tree.  Consequent: the tree is empty at the bound level (equivalent,
    under prefix closure, to every branch leaving the tree by then).
    """
    bound = theta_special(g, node_budget).bound
    antecedent = True
    for bits in product((0, 1), repeat=bound):
        def alpha(i: int, bits: tuple[int, ...] = bits) -> int:
            # the cover element: these bits, then zeros
            return bits[i] if i < bound else 0

        depth = g(alpha)
        prefix_value = 0
        for d in range(depth):
            prefix_value = (prefix_value << 1) | alpha(d)
        if tree.member(depth, prefix_value):
            antecedent = False
            break
    consequent = tree.level_count(bound) == 0
    return ScfReport(bound, 1 << bound, antecedent, consequent)


def parse_tree(text: str) -> PresentedTree:
    """Parse the tree syntax: full | flagtree:i:<sequence> |
    path:<bits>[+full@<level>] | truncate:<level>:<tree>."""
    text = text.strip()
    if text == "full":
        return FullTree()
    if text.startswith("flagtree:"):
        rest = text[len("flagtree:"):]
        root, sep, seq = rest.partition(":")
        if not sep or root not in ("0", "1"):
            raise ParseError(f"bad flagtree syntax: {text!r}")
        return FlagTree(int(root), parse_sequence(seq))
    if text.startswith("path:"):
        rest = text[len("path:"):]
        if "+full@" in rest:
            bits_text, _, level_text = rest.partition("+full@")
            if not level_text.isdigit():
                raise ParseError(f"bad graft level in {text!r}")
            level = int(level_text)
        else:
            bits_text, level = rest, None
        if not bits_text or any(c not in "01" for c in bits_text):
            raise ParseError(f"bad path bits in {text!r}")
        return PathTree(tuple(int(c) for c in bits_text), level)
    if text.startswith("truncate:"):
        rest = text[len("truncate:"):]
        level_text, sep, inner = rest.partition(":")
        if not sep or not level_text.isdigit():
            raise ParseError(f"bad truncate syntax: {text!r}")
        return Truncation(int(level_text), parse_tree(inner))
    raise ParseError(f"unknown tree syntax: {text!r}")


def format_tree(tree: PresentedTree) -> str:
    if isinstance(tree, FullTree):
        return "full"
    if isinstance(tree, FlagTree):
        return f"flagtree:{tree.root_bit}:{format_sequence(tree.flag)}"
    if isinstance(tree, PathTree):
        bits = "".join(str(b) for b in tree.bits)
        if tree.full_below is None:
            return f"path:{bits}"
        return f"path:{bits}+full@{tree.full_below}"
    if isinstance(tree, Truncation):
        return f"truncate:{tree.level}:{format_tree(tree.inner)}"
    raise ValueError(f"unknown tree {tree!r}")
