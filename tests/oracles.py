"""Independent recomputations backing the expected values in the tests.

Everything here works on plain lists and Fractions, deliberately
avoiding the library's own closed forms, so a test comparing against
these functions checks the implementation rather than echoing it.  The
reference normalizer at the end reuses only the rewrite rules (each a
node type, a guard and a builder), the fresh-name supply and
``_splice`` from the library; its walk, its name scan, its
internality test and its search order are its own.  Alpha equality,
which the tests use to compare normal forms, is kept here too.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, islice, product
from unittest import mock

import mulab.formulas as formulas
from mulab.formulas import (
    And, App, Atom, ExIn, Implies, Not, Or, Quant, _Names, _RULES, _parts,
    _splice, format_formula,
)
from mulab.coding import cantor_pair, dyadic_index, string_code
from mulab.errors import (BudgetExceeded, OutOfRange, ParseError,
                          UnsupportedPresentation)
from mulab.extractors import (
    RepresentedContinuousFunction, TwoBump, _check_cbar, _greedy_digits,
)
from mulab.functionals import DEFAULT_BUDGET, TracedView
from mulab.reals import FastCauchyReal, PRational, from_rational, real_sign
from mulab.sequences import _SEQ_RE, PresentedSequence, _natural
from mulab.trees import ScfReport
from mulab.value import setfield


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


def reference_canonical(prefix, tail):
    """Canonical (prefix, tail): the shortest word whose repeats give the
    tail, then trailing prefix entries absorbed one at a time, each step
    rotating the tail right by one."""
    prefix, tail = tuple(prefix), tuple(tail)
    tail = next(tail[:d] for d in range(1, len(tail) + 1)
                if len(tail) % d == 0 and tail[:d] * (len(tail) // d) == tail)
    while prefix and prefix[-1] == tail[-1]:
        prefix = prefix[:-1]
        tail = (tail[-1],) + tail[:-1]
    return prefix, tail


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


def reference_parse_sequence(text):
    """parse_sequence as it read a number list: entry by entry, each
    stripped and spelled out in ASCII digits, with the same messages."""
    m = _SEQ_RE.fullmatch(text)
    if not m:
        raise ParseError(f"bad sequence syntax: {text!r}")

    def ints(group):
        if not group.strip():
            return ()
        values = tuple(_natural(entry.strip()) for entry in group.split(","))
        if None in values:
            raise ParseError(f"bad number list in {text!r}")
        return values

    prefix, tail = ints(m.group(1)), ints(m.group(2))
    if not tail:
        raise ParseError("tail must be nonempty")
    return PresentedSequence(prefix, tail)


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


def flag_series_approx(values):
    """Approximation n of the flag series from values = f(0..n+1) alone:
    scan for the first zero m, which pins the sum at 2^(1 - max(m, 1))."""
    for m, v in enumerate(values):
        if v == 0:
            return Fraction(1, 2 ** (max(m, 1) - 1))
    return Fraction(0)


def dq_series_approx(values):
    """Approximation n of the dq series from values = f(0..n+1) alone:
    scan for the first nonzero m, which pins the sum at 1 - 2^-m; with
    none, the first len(values) terms are all in."""
    for m, v in enumerate(values):
        if v != 0:
            return 1 - Fraction(1, 2 ** m)
    return 1 - Fraction(1, 2 ** len(values))


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


def string_decode(code: int) -> tuple[int, int]:
    """The (length, value) descriptor of a length-lex code, the inverse
    of ``mulab.coding.string_code``."""
    if code < 0:
        raise ValueError("negative string code")
    length = (code + 1).bit_length() - 1
    return length, code - ((1 << length) - 1)


def level_set(tree, n: int) -> set[int]:
    """Brute enumeration of one tree level by membership queries."""
    return {v for v in range(1 << n) if tree.member(n, v)}


class _Unanswered(Exception):
    def __init__(self, index: int):
        self.index = index


def reference_path_member(bits, full_below, length: int, value: int) -> bool:
    """PathTree membership bit by bit: each of value's top bits, down to
    the graft level, against the path's bit at that depth."""
    if not 0 <= value < (1 << length):
        return False
    limit = length if full_below is None else min(length, full_below)
    return all((value >> (length - 1 - d)) & 1 == bits[d % len(bits)]
               for d in range(limit))


def reference_fan_replay(g, node_budget):
    """Leaves (answers, value, last_one) of g's complete binary decision
    tree by fork and rerun: every node reruns g from scratch, stops at
    the first unanswered query, and pushes both children with copied
    answers, 1 on top.  Nodes are counted as they are popped, so in
    preorder, 1-branches first."""
    def probe(i):
        if i < 0:
            raise ValueError("negative index queried")
        if i in answers:
            return answers[i]
        raise _Unanswered(i)

    jobs = [({}, -1)]
    nodes = 0
    while jobs:
        answers, last_one = jobs.pop()
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceeded(f"omega_fan: over {node_budget} replay nodes")
        try:
            value = int(g.body(probe))
        except _Unanswered as stop:
            jobs.append(({**answers, stop.index: 0}, last_one))
            jobs.append(({**answers, stop.index: 1}, max(last_one, stop.index)))
            continue
        yield dict(answers), value, last_one


def replay_outcome(replay, g, node_budget):
    """The leaves a replay yields, answers in key order, and the error
    it ends with, if any.  The reference yields each leaf's last_one; the
    real replay's is the largest of the open 1-branches it keeps."""
    leaves = []
    try:
        for answers, value, *rest in replay(g, node_budget):
            last_one = rest[0] if rest else max(answers.ones, default=-1)
            leaves.append((list(answers.items()), value, last_one))
    except (BudgetExceeded, ValueError) as error:
        return leaves, (type(error), str(error))
    return leaves, None


def reference_scf(g, tree) -> ScfReport:
    """The special-cover check by brute force: the bound is the largest
    g-value over the zero-padded prefixes of the fan modulus, and every
    zero-padded prefix of the bound's length is run through g and cut at
    its value.  The modulus is 1 + the largest index in any leaf of the
    fork-and-rerun replay."""
    modulus = 1 + max(max(answers, default=-1)
                      for answers, _, _ in reference_fan_replay(g, 1 << 20))

    def padded(bits):
        return lambda i: bits[i] if i < len(bits) else 0

    bound = max(0, *(g(padded(bits)) for bits in product((0, 1), repeat=modulus)))
    antecedent = True
    for bits in product((0, 1), repeat=bound):
        alpha = padded(bits)
        depth = g(alpha)
        prefix_value = 0
        for d in range(depth):
            prefix_value = (prefix_value << 1) | alpha(d)
        if tree.member(depth, prefix_value):
            antecedent = False
            break
    consequent = not level_set(tree, bound)
    return ScfReport(bound, 1 << bound, antecedent, consequent, modulus)


def reference_meets(tree, answers, length: int) -> bool:
    """Has the tree a member of this length agreeing with answers below it?

    Depth first by membership queries, pruned by prefix closure: each
    member of the closed family has a full subtree or lies on one path,
    so O(length) strings, each built bit by bit."""
    if tree.level_count(length) == 0:
        return False
    stack = [(0, 0)]
    while stack:
        depth, value = stack.pop()
        if depth == length:
            return True
        bit = answers.get(depth)
        for b in (0, 1) if bit is None else (bit,):
            child = (value << 1) | b
            if tree.member(depth + 1, child):
                stack.append((depth + 1, child))
    return False


def reference_branch_alive(view, length: int, value: int) -> bool:
    """Whether the subtree at (length, value) reaches every level, with a
    negative answer certified by full-level enumeration: every string
    below the node is queried, level by level, until a level under it
    is empty."""
    if view.subject.alive(length, value):
        return True
    if not view.query(length, value):
        return False
    level = length + 1
    while True:
        width = level - length
        if not any(view.query(level, (value << width) | suffix)
                   for suffix in range(1 << width)):
            return False
        level += 1


class CodeKeyedTreeView(TracedView):
    """Tree view keyed by length-lex codes: each query is coded, the code
    recorded, and membership answered by decoding it again.  Its top()
    is the largest code recorded."""

    def __init__(self, tree, budget: int = DEFAULT_BUDGET):
        super().__init__(tree, budget)

    def query(self, length: int, value: int) -> bool:
        code = string_code(length, value)
        self._record(code)
        return self.subject.member(*string_decode(code))


def reference_xi(phi, f_view, g_view, k: int) -> int:
    """1 + the largest entry in the union of both views' traces after k
    outputs of phi on each; 0 when nothing is queried."""
    f_view.reset()
    g_view.reset()
    phi(f_view, k)
    phi(g_view, k)
    return max(f_view.trace | g_view.trace, default=-1) + 1


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
# approximation columns decided on Fractions
#
# The library decides a column run by run on integers; these read it
# row by row, record each row's cell before reading it, and keep the
# comparisons as Fractions, with a fresh 2^-n per row.  The digit walk
# around them is the library's own; the bisection is reference_bisection
# below, which walks on Fractions as the library did before it carried
# its endpoints as integers.

def reference_piecewise_value(points, x):
    """Linear interpolation between the breakpoints around x."""
    x = Fraction(x)
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    raise ValueError(f"{x} past the last breakpoint")


def _unit_piecewise_value(points, q):
    """The interpolation on [0, 1], refusing q outside it as the
    library's functions do."""
    q = Fraction(q)
    if q < 0 or q > 1:
        raise OutOfRange(f"{q} outside [0,1]")
    return reference_piecewise_value(points, q)


def piecewise_function(points, name):
    """The function on [0, 1] through the breakpoints, which run from 0
    to 1, with a rational value at each rational."""
    return RepresentedContinuousFunction(
        lambda q: from_rational(_unit_piecewise_value(points, q)), name)


# -1 at 0, zero on the middle third, 1 at 1
IVT_BASE_POINTS = tuple((Fraction(x), Fraction(y)) for x, y in (
    (0, -1), ("1/3", 0), ("2/3", 0), (1, 1)))


def ivt_base():
    """The unshifted ivt base, interpolated from its breakpoints."""
    return piecewise_function(IVT_BASE_POINTS, "ivt-base")


def reference_ivt_base(q):
    """The ivt base at q in [0, 1] on Fractions: 3q - 1 below 1/3, 3q - 2
    above 2/3, zero between."""
    if q < 0 or q > 1:
        raise OutOfRange(f"{q} outside [0,1]")
    t = 3 * q
    if t < 1:
        return t - 1
    if t > 2:
        return t - 2
    return Fraction(0)


def reference_bisection(sign):
    """(left endpoint, root found) after stage 0, 1, ... of bisection on
    [0, 1], the probe of stage j being the left endpoint plus 2^-j, as a
    Fraction sum: it moves there unless the sign is positive, and a zero
    ends the probing."""
    left, root = Fraction(0), False
    for j in count(1):
        yield left, root
        if not root:
            probe = left + Fraction(1, 1 << j)
            s = sign(probe)
            if s <= 0:
                left, root = probe, s == 0


def reference_sign_certified(view, p):
    """Sign of a table view's function at dyadic p: 0 from the exact
    value, else from the first row n with |q_n| > 2^-n."""
    i = dyadic_index(p)
    x = view.subject.value_rule(p)
    if x.exact_value() == 0:
        return 0
    for n in count():
        view._record(cantor_pair(i, n))
        q = x.approx(n)
        eps = Fraction(1, 1 << n)
        if q > eps:
            return 1
        if q < -eps:
            return -1


def reference_reaches(view, value, t):
    """Whether a real viewed as its column, of exact value `value`,
    reaches t: an exact tie says yes, else the first row n with q_n at
    least t + 2^-n says yes and below t - 2^-n says no."""
    if value == t:
        return True
    for n in count():
        view._record(n)
        q = view.subject.approx(n)
        eps = Fraction(1, 1 << n)
        if q - eps >= t:
            return True
        if q + eps < t:
            return False


def reference_ubin_digits(view, k):
    """The first k greedy binary digits, each decided by reference_reaches."""
    value = view.subject.exact_value()
    return list(islice(_greedy_digits(lambda t: reference_reaches(view, value, t)), k))


def reference_ivt_endpoints(view, k):
    """The first k bisection endpoints, probed by reference_sign_certified."""
    stages = reference_bisection(lambda p: reference_sign_certified(view, p))
    return [left for left, _ in islice(stages, k)]


# ---------------------------------------------------------------------------
# a column given beside its value
#
# A real whose rows come from a rule of the test's choosing while another
# presentation decides its exact value: rows that stray from that value
# make a liar, and a rule that raises makes a column that refuses a row.

class PColumn(FastCauchyReal):
    """Rows from rule, one row per run; the exact value from exact."""

    _fields = ("exact", "rule")

    def run(self, n, stop):
        return self.rule(n), n + 1

    def _exact(self, mu):
        return self.exact._exact(mu)


class PRefused(FastCauchyReal):
    """No exact value: every exact decision is refused, naming the real,
    as a bisection root that has not landed refuses it."""

    _fields = ("label",)

    def _exact(self, mu):
        raise UnsupportedPresentation(
            f"no presentation for exact decision on {self.label}")


# ---------------------------------------------------------------------------
# the eager bisection root
#
# uivt_from_mu as it was before its stages ran on demand: phi runs
# _EAGER_DEPTH stages up front and decides the exact value there.  The
# lazy root must read the same through every door.

_EAGER_DEPTH = 24


def reference_uivt_phi(mu):
    """Bisection with midpoint probes.  The left endpoint after n stages
    is the n-th approximation; a probe that lands exactly on a zero ends
    the search at that rational.
    """

    def phi(fn):
        _check_cbar(fn, mu)
        stages = reference_bisection(lambda p: real_sign(fn.value_rule(p), mu))
        eager = list(islice(stages, _EAGER_DEPTH + 1))
        endpoints = [left for left, _ in eager]

        def rule(n):
            while len(endpoints) <= n:
                endpoints.append(next(stages)[0])
            return endpoints[n]

        left, root = eager[-1]
        exact = PRational(left) if root else PRefused(f"bisect({fn.descriptor})")
        return PColumn(exact, rule)

    return phi


# ---------------------------------------------------------------------------
# the counterexample objects as each route spelled them out
#
# Before one flag-shifted real built them all, every route wrote its own
# rational moved by +-delta(f) as a tree of a general sum-and-scale
# algebra of presentations.  That algebra is kept here as the reference;
# the shared constructions must give the same approximation rows and
# exact values.  Each of its presentations runs one row at a time.

class PCumFlagSeries(FastCauchyReal):
    """delta(f) = sum over n >= 1 of c_n 2^-n, c_n = 1 iff f hits 0 at or
    below n: 2^(1 - max(m0, 1)) for the first zero m0, else 0.  Row n is
    exact once the event is below n + 2, else 0."""

    _fields = ("flag",)

    def _closed_form(self, m0):
        return Fraction(0) if m0 is None else Fraction(1, 2 ** (max(m0, 1) - 1))

    def run(self, n, stop):
        m0 = self.flag.first_zero
        if m0 is not None and m0 < n + 2:
            return self._closed_form(m0), n + 1
        return Fraction(0), n + 1

    def _exact(self, mu):
        return self._closed_form(mu(self.flag))


class PSum(FastCauchyReal):
    """left + right; row n adds the children's rows n + 2."""

    _fields = ("left", "right")

    def run(self, n, stop):
        k = n + 2
        return self.left.run(k, k + 1)[0] + self.right.run(k, k + 1)[0], n + 1

    def _exact(self, mu):
        return self.left._exact(mu) + self.right._exact(mu)


class PScale(FastCauchyReal):
    """factor * arg; row n scales arg's row n + shift, where shift is the
    least k with |factor| <= 2^k and stays out of ==, hash and repr."""

    _fields = ("factor", "arg")

    def __init__(self, factor, arg):
        super().__init__(factor, arg)
        k = 0
        while abs(factor) > 2 ** k:
            k += 1
        setfield(self, "shift", k)

    def run(self, n, stop):
        k = n + self.shift
        return self.factor * self.arg.run(k, k + 1)[0], n + 1

    def _exact(self, mu):
        return self.factor * self.arg._exact(mu)


def reference_ubin_pair(f):
    """(1/2 - delta(f), 1/2 + delta(f))."""
    return tuple(PSum(PRational(Fraction(1, 2)),
                      PScale(Fraction(sign), PCumFlagSeries(f)))
                 for sign in (-1, 1))


def reference_ivt_counterexample(f, sign):
    """The ivt base moved by +-delta(f), for sign '+' or '-'."""
    s = 1 if sign == "+" else -1

    def rule(q):
        return PSum(PRational(_unit_piecewise_value(IVT_BASE_POINTS, q)),
                    PScale(Fraction(s), PCumFlagSeries(f)))

    return RepresentedContinuousFunction(rule, f"ivt-base{sign}delta")


def reference_two_bump(f, left_sign):
    """The two-bump heights 1 +- delta(f) at the peaks 1/4 and 3/4."""
    one = PRational(Fraction(1))
    delta = PCumFlagSeries(f)
    h_left = PSum(one, PScale(Fraction(left_sign), delta))
    h_right = PSum(one, PScale(Fraction(-left_sign), delta))
    return TwoBump(h_left, h_right)


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


def subformula_at(f, path: tuple[int, ...]):
    for i in path:
        kids = _kids(f)
        if i >= len(kids):
            raise ValueError(f"path {path} leaves {type(f).__name__}")
        f = kids[i]
    return f


def replace_at(f, path: tuple[int, ...], new):
    spine = []
    for i in path:
        spine.append((f, i))
        f = _kids(f)[i]
    for parent, i in reversed(spine):
        new = _splice(parent, i, new)
    return new


def _walk(f, path=(), pol=1):
    """Preorder positions with polarity, recursively."""
    yield path, f, pol
    for i, kid in enumerate(_kids(f)):
        flip = isinstance(f, Not) or (isinstance(f, Implies) and i == 0)
        yield from _walk(kid, path + (i,), -pol if flip else pol)


def preorder(f):
    """Every subformula and term of f, position by position, in preorder,
    from an explicit stack."""
    todo = [f]
    while todo:
        x = todo.pop()
        yield x
        if isinstance(x, (Atom, App)):
            todo += reversed(x.args)
        elif isinstance(x, ExIn):
            todo += (x.body, x.bound)
        else:
            todo += reversed(_kids(x))


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


def free_names(f):
    """The names free in f: each name in a term, an App head included,
    outside every binder of that name.  Predicates are not counted."""
    out = set()
    todo = [(f, frozenset())]
    while todo:
        x, bound = todo.pop()
        if isinstance(x, str):
            if x not in bound:
                out.add(x)
        elif isinstance(x, App):
            if x.head not in bound:
                out.add(x.head)
            todo += ((a, bound) for a in x.args)
        elif isinstance(x, Atom):
            todo += ((a, bound) for a in x.args)
        elif isinstance(x, Quant):
            todo.append((x.body, bound | {x.var}))
        elif isinstance(x, ExIn):
            todo += ((x.bound, bound), (x.body, bound | {x.var}))
        else:
            todo += ((k, bound) for k in _kids(x))
    return out


def _marked(node):
    return isinstance(node, Quant) and node.st


def _internal(f, _pol):
    """Whether f holds no marked quantifier, at either polarity."""
    return not any(_marked(node) for _, node, _ in _walk(f))


# the guards ask mulab.formulas._internal, which reads the summaries this
# search does not build; it answers with its own walk instead
@mock.patch.object(formulas, "_internal", _internal)
def reference_normalize(f, max_steps=100_000):
    """Rule-major search: each step tries the rules in priority order and
    each rule at every position, outermost-leftmost, before the next
    rule.  At a position of its node type a rule asks its guard, and
    builds only where the guard accepts.  Returns the (rule, tag, path,
    before, after) steps, and None when the result is a marked
    forall-exists prefix over an unmarked matrix, else what is left
    below that prefix.  A builder that refuses raises NotNormalizable
    through here."""
    names = _Names(_symbols(f))
    steps = []
    while True:
        if len(steps) > max_steps:
            raise AssertionError("reference search did not terminate")
        for rule_name, kind, guard, build in _RULES:
            hit = next(((path, node) for path, node, pol in _walk(f)
                        if isinstance(node, kind) and guard(node, pol)),
                       None)
            if hit is not None:
                path, node = hit
                after, tag = build(node, names)
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


# ---------------------------------------------------------------------------
# alpha equality

def _canonical(f):
    """f in preorder, one item a node, with each bound name replaced by
    the number of binders above its own and the monotone marker left out:
    alpha-equal formulas give equal sequences.  A binder's scope opens
    and closes by (var, level) pairs on the stack; level None unbinds."""
    env = {}
    todo = [(f, 0)]
    while todo:
        x, depth = todo.pop()
        t = type(x)
        if t is tuple:
            var, level = x
            if level is None:
                del env[var]
            else:
                env[var] = level
            continue
        if t is str:
            yield env.get(x, x)
        elif t is Atom:
            yield t, x.pred, len(x.args)
        elif t is App:
            yield t, env.get(x.head, x.head), len(x.args)
        elif t is Quant:
            # printed types are equal exactly when the types are
            yield t, x.kind, x.st, format_formula(x.vtype)
        else:
            yield t
        parts = _parts(x)
        if t is Quant or t is ExIn:
            todo += (((x.var, env.get(x.var)), 0), (x.body, depth + 1),
                     ((x.var, depth), 0))
            parts = parts[:-1]  # an entry bound lies outside the scope
        todo.extend((part, depth) for part in reversed(parts))


def alpha_equal(f, g):
    """Structural equality up to bound-variable names (the engine's
    monotone bookkeeping marker is ignored)."""
    return list(_canonical(f)) == list(_canonical(g))
