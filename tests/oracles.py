"""Independent recomputations backing the expected values in the tests.

Everything here works on plain lists and Fractions, deliberately
avoiding the library's own closed forms, so a test comparing against
these functions checks the implementation rather than echoing it.  The
reference normalizer at the end reuses only the rewrite rules, the
fresh-name supply and ``replace_at`` from the library; its walk, its
name scan and its search order are its own.
"""

from __future__ import annotations

from fractions import Fraction

from mulab.formulas import (
    And, App, Atom, ExIn, Implies, Not, Or, Quant, _Names, _RULES, replace_at,
)


def unroll(prefix, tail, count):
    """Literal expansion of prefix-then-repeated-tail."""
    out = []
    i = 0
    while len(out) < count:
        if i < len(prefix):
            out.append(prefix[i])
        else:
            out.append(tail[(i - len(prefix)) % len(tail)])
        i += 1
    return out


def scan_first_zero(values):
    for i, v in enumerate(values):
        if v == 0:
            return i
    return None


def scan_first_nonzero(values):
    for i, v in enumerate(values):
        if v != 0:
            return i
    return None


def delta_sum(values, terms=64):
    """Sum over n >= 1 of c_n 2^-n, c_n = 1 iff the list has a zero at or
    below n.  The list must decide its fate within `terms` entries."""
    first_zero = scan_first_zero(values[: terms + 1])
    total = Fraction(0)
    for n in range(1, terms + 1):
        if first_zero is not None and first_zero <= n:
            total += Fraction(1, 2 ** n)
    if first_zero is not None:
        total += Fraction(1, 2 ** terms)  # ones continue forever
    return total


def dq_sum(values, terms=64):
    """Sum over n >= 1 of h_n 2^-n, h_n = 1 iff every entry below n is
    zero."""
    first_nz = scan_first_nonzero(values[: terms + 1])
    total = Fraction(0)
    for n in range(1, terms + 1):
        if first_nz is None or first_nz >= n:
            total += Fraction(1, 2 ** n)
    if first_nz is None:
        total += Fraction(1, 2 ** terms)
    return total


def binary_digits(q: Fraction, k: int) -> list[int]:
    """Greedy binary digits by doubling, ties rounding up."""
    x = Fraction(q)
    digits = []
    for _ in range(k):
        x *= 2
        d = 1 if x >= 1 else 0
        x -= d
        digits.append(d)
    return digits


def level_set(tree, n: int) -> set[int]:
    """Brute enumeration of one tree level by membership queries."""
    return {v for v in range(1 << n) if tree.member(n, v)}


def reference_branch_alive(view, length: int, value: int) -> bool:
    """Whether the subtree at (length, value) reaches every level, with a
    negative answer certified by full-level enumeration: every string
    below the node is queried, level by level, until a level under it
    is empty."""
    if view.tree.alive(length, value):
        return True
    if not view.member(length, value):
        return False
    level = length + 1
    while True:
        width = level - length
        if not any(view.member(level, (value << width) | suffix)
                   for suffix in range(1 << width)):
            return False
        level += 1


def queried_death(tree, trace, length: int, value: int) -> bool:
    """Whether the queried codes alone force the subtree at (length,
    value) to end: some level where every string below the node has a
    prefix, no shorter than the node, that was queried and is off the
    tree.  By prefix closure that binds every tree agreeing on `trace`.
    Codes follow the length-lex string coding."""
    deepest = max(((c + 1).bit_length() - 1 for c in trace), default=-1)
    open_strings = [value]
    while length <= deepest:
        open_strings = [v for v in open_strings
                        if ((1 << length) - 1 + v) not in trace
                        or tree.member(length, v)]
        if not open_strings:
            return True
        length += 1
        open_strings = [c for v in open_strings for c in (v << 1, (v << 1) | 1)]
    return False


# ---------------------------------------------------------------------------
# normal forms

def _kids(f):
    if isinstance(f, Not):
        return (f.body,)
    if isinstance(f, (And, Or, Implies)):
        return (f.left, f.right)
    if isinstance(f, (Quant, ExIn)):
        return (f.body,)
    return ()


def _walk(f, path=(), pol=1):
    """Preorder positions with polarity, recursively."""
    yield path, f, pol
    for i, kid in enumerate(_kids(f)):
        flip = isinstance(f, Not) or (isinstance(f, Implies) and i == 0)
        yield from _walk(kid, path + (i,), -pol if flip else pol)


def _term_symbols(t):
    if isinstance(t, App):
        return {t.head}.union(*(_term_symbols(a) for a in t.args))
    return {t}


def _symbols(f):
    out = set()
    for _, node, _ in _walk(f):
        if isinstance(node, Atom):
            out |= {node.pred}.union(*(_term_symbols(a) for a in node.args))
        elif isinstance(node, Quant):
            out.add(node.var)
        elif isinstance(node, ExIn):
            out |= {node.var} | _term_symbols(node.bound)
    return out


def _marked(node):
    return isinstance(node, Quant) and node.st


def reference_normalize(f, max_steps=100_000):
    """Rule-major search: each step tries the rules in priority order and
    each rule at every position, outermost-leftmost, before the next
    rule.  Returns the (rule, tag, path, before, after) steps, and None
    when the result is a marked forall-exists prefix over an unmarked
    matrix, else what is left below that prefix.  A rule that refuses to
    fire raises NotNormalizable through here."""
    names = _Names(_symbols(f))
    steps = []
    while True:
        if len(steps) > max_steps:
            raise AssertionError("reference search did not terminate")
        for rule_name, rule in _RULES:
            hit = None
            for path, node, pol in _walk(f):
                hit = rule(node, pol, names)
                if hit is not None:
                    break
            if hit is not None:
                after, tag = hit
                steps.append((rule_name, tag, path, node, after))
                f = replace_at(f, path, after)
                break
        else:
            break
    for kind in ("all", "ex"):
        while _marked(f) and f.kind == kind:
            f = f.body
    if any(_marked(node) for _, node, _ in _walk(f)):
        return steps, f
    return steps, None


def marked_measure(f, unmarked_above=0):
    """(M, S): the number of marked quantifiers, and the sum over them of
    the unmarked nodes above each."""
    m, s = (1, unmarked_above) if _marked(f) else (0, 0)
    for kid in _kids(f):
        km, ks = marked_measure(kid, unmarked_above + (not _marked(f)))
        m, s = m + km, s + ks
    return m, s


def formula_depth(f):
    """Edges on the longest path from the root to a leaf."""
    return max(len(path) for path, _, _ in _walk(f))
