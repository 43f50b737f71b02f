"""Forward constructions and search-operator extractors.

Each route pairs a forward construction (given an exact search operator
mu, build a functional: binary expansions, tree paths, intermediate-value
roots, rational-value witnesses) with an extractor that recovers mu from
such a functional plus an extensionality bound Xi, by Grilliot's trick
(see Route).  The route side asks the flag only bounded questions,
answered in O(1) from the event the flag keeps.  The pairs made of reals
are all ``reals.flag_shifted``: 1/2 +- delta(f) for ubin, the ivt base's
values +- delta(f), and the two-bump heights 1 +- delta(f).  The two-bump
pair is only its two peak heights, since the argmax reads nothing else;
it has no Xi and is not a route.

The three pair-based routes are Route records, and calling one runs
that argument through a single shared loop.  The counterexample pairs
with a flag event at 0 or 1 fall outside the unit-interval and
sign-condition domains of the expansion and root functionals, so those
two routes settle indices 0 and 1 by direct inspection, the bounded
question ``zero_below(2)``, and consult the functional for everything
past that.  The dq route has neither pair nor Xi and keeps its own
extractor, which checks the index it decodes with one bounded question
as well, ``nonzero_below(m0 + 1)``.

Xi bounds move between index spaces through fixed codings: approximation
columns for reals, length-lex string codes for trees, Cantor pairs of
(dyadic index, precision) for function tables.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, count, islice
from typing import Callable, Iterator

from .coding import cantor_pair, dyadic_index, max_coded_length
from .errors import (BoundViolation, MalformedWitness, NotInCbar, OutOfRange,
                     UnsupportedPresentation)
from .functionals import TracedView, xi_by_tracing
from .reals import (
    _ZERO,
    FastCauchyReal,
    MuOp,
    counterexample_pair,
    dq_real,
    flag_shifted,
    real_sign,
)
from .sequences import PresentedSequence, mu_exact
from .trees import FlagTree, PresentedTree, TracedTreeView, greedy_path
from .value import Value

__all__ = [
    "BinaryExpansion",
    "ubin_from_mu",
    "ubin_repr_digits",
    "trees_from_flag",
    "uwwkl_from_mu",
    "uwwkl_repr_bits",
    "RepresentedContinuousFunction",
    "ivt_counterexample",
    "uivt_from_mu",
    "uivt_repr_endpoints",
    "TwoBump",
    "weierstrass_counterexample",
    "RationalWitness",
    "udq_from_mu",
    "flag_epsilon",
    "RouteReport",
    "Route",
    "mu_from",
    "ubin_extraction",
    "uwwkl_extraction",
    "uivt_extraction",
    "udq_extraction",
]


class RouteReport(Value, eq=False):
    _fields = ("route", "flag", "fired", "witness", "xi_bound",
               "search_bound", "details")


class Route(Value, eq=False):
    """One pair-based extraction route, Grilliot's trick on its own
    space; calling it runs the extraction.

    ``pair(f)`` is the two-sided witness handed to phi: ubin's reals 1/2
    -+ delta(f), ivt's functions base -+ delta(f) at every rational, or
    wwkl's FlagTree(0, f) and FlagTree(1, f), each of which agrees with
    its never-firing version below the event.  Indices below ``settled``
    are decided by direct inspection, ``f.zero_below(settled)``; past
    them ``observe(phi, a, b)`` says whether phi separates the pair,
    which it does exactly when f fires, plus the report details.  For a
    separated pair, Xi at ``precision`` bounds the inspected input and
    ``search_bound`` turns that into the bound of the final question
    ``f.zero_below(bound + 1)``: the least zero a scan of indices 0 ..
    bound would find.  Xi traces ``read``, phi computed through a
    ``view`` of each input: a plain TracedView of a real or a function,
    which read reads itself as ``view.subject``, or a TracedTreeView,
    which answers read's membership queries.
    """

    _fields = ("name", "settled", "pair", "observe", "make_phi", "view",
               "read", "precision", "search_bound")

    def xi(self, a, b, k: int) -> int:
        """1 + the largest input index read on a or b for k outputs."""
        return xi_by_tracing(self.read, self.view(a), self.view(b), k)

    def __call__(self, f: PresentedSequence, phi: Callable | None = None
                 ) -> RouteReport:
        phi = phi or self.make_phi(mu_exact)
        m = f.zero_below(self.settled)
        if m is not None:
            return RouteReport(self.name, f, True, m, None, None,
                               {"settled": "direct inspection"})
        a, b = self.pair(f)
        separated, details = self.observe(phi, a, b)
        if not separated:
            return RouteReport(self.name, f, False, None, None, None, details)
        n = self.xi(a, b, self.precision)
        bound = self.search_bound(n)
        m = f.zero_below(bound + 1)
        if m is None:
            raise BoundViolation(
                f"{self.name} pair separated but no zero of {f} below {bound}")
        return RouteReport(self.name, f, True, m, n, bound, details)


def mu_from(extraction: Callable[..., RouteReport], *args) -> MuOp:
    """The search an extraction recovers: f -> extraction(f, *args).witness.
    Through udq_extraction that is the first nonzero index."""

    def mu(f: PresentedSequence) -> int | None:
        return extraction(f, *args).witness

    return mu


def flag_epsilon(f: PresentedSequence, mu: MuOp = mu_exact) -> Fraction:
    """epsilon(f), the dyadic shift a flag induces: 0 if f never hits
    zero, else 2^(1 - max(m0, 1)) for the first zero m0.  That is
    delta(f), so it is the exact value of the flag shift 0 + delta(f)."""
    return flag_shifted(0, 1, f).exact_value(mu)


# ---------------------------------------------------------------------------
# binary expansion route

def _greedy_digits(reaches: Callable[[Fraction], bool]) -> Iterator[int]:
    """Greedy binary digits: digit j is 1 exactly when
    reaches(partial + 2^-j), and the partial sum then takes that step."""
    partial = Fraction(0)
    for j in count(1):
        t = partial + Fraction(1, 1 << j)
        if reaches(t):
            partial = t
            yield 1
        else:
            yield 0


class BinaryExpansion:
    """Greedy binary digits of a presented real in [0, 1], kept as its
    exact value alone.

    Digit n+1 is 1 exactly when the real reaches the partial sum plus
    2^-(n+1); ties therefore expand as 1 followed by zeros.  Each call
    works its digits out afresh.
    """

    def __init__(self, x: FastCauchyReal, mu: MuOp):
        value = x.exact_value(mu)
        if value < 0 or value > 1:
            raise OutOfRange(f"expansion needs [0,1], got {value}")
        self._value = value

    def digit(self, n: int) -> int:
        if n < 1:
            raise ValueError("digits are indexed from 1")
        return self.digits(n)[-1]

    def digits(self, k: int) -> list[int]:
        value = self._value
        return list(islice(_greedy_digits(lambda t: value >= t), max(k, 0)))


def ubin_from_mu(mu: MuOp) -> Callable[[FastCauchyReal], BinaryExpansion]:
    def phi(x: FastCauchyReal) -> BinaryExpansion:
        return BinaryExpansion(x, mu)
    return phi


def _first_row(a: int, b: int, n: int) -> int:
    """The least row k >= n with a << k > b, for a >= 1 and b >= 0: a
    << k has a's bit length plus k bits, so k is at most one past the
    gap between the two bit lengths."""
    k = max(n, b.bit_length() - a.bit_length())
    return k if a << k > b else k + 1


def _read_runs(x: FastCauchyReal, stop: int,
               record: Callable[[int, int], None],
               decide: Callable[[Fraction, int], tuple[int, object] | None]):
    """The verdict of the first row of x's column below stop that
    decides, or None, read a run of equal rows at a time, one call of
    x.run each.  decide(q, n) gives the first row k >= n at
    which a run of value q decides, and the verdict, or None if it never
    does; record(lo, hi) records rows lo..hi - 1.  The rows recorded are
    those a row-by-row loop records: every row up to the deciding one,
    and a row that x refuses, before its error goes on."""
    n = 0
    while n < stop:
        try:
            q, end = x.run(n, stop)
        except BaseException:
            record(n, n + 1)
            raise
        decided = decide(q, n)
        if decided is not None and decided[0] < end:
            k, verdict = decided
            record(n, k + 1)
            return verdict
        record(n, end)
        n = end
    return None


def _reaches(view: TracedView, value: Fraction, t: Fraction) -> bool:
    """Whether view.subject, a real of exact value ``value``, reaches t:
    the first row n with d = q_n - t at least 2^-n says yes, below -2^-n
    says no.  With q_n = a/b and t = tn/td, d·2^n compares with 1 as
    (a·td - tn·b)·2^n does with b·td, both denominators being positive,
    so the column is decided on integers without building d.  It is read
    by runs of equal rows: for a run of value a/b the first row that
    decides is worked out at once, and rows lo..hi - 1 up to it go to
    the trace as range(lo, hi) in one update.  A column within 2^-n of
    value decides by the row past the bit length of the gap's
    denominator, so one that has not by the limit below contradicts
    value."""
    if value == t:
        return True
    tn, td = t.numerator, t.denominator
    limit = 4 * (value.denominator.bit_length() + td.bit_length()) + 64

    def decide(q: Fraction, n: int) -> tuple[int, bool] | None:
        b = q.denominator
        gap, scale = q.numerator * td - tn * b, b * td
        if gap > 0:  # yes once gap << k >= scale
            return _first_row(gap, scale - 1, n), True
        if gap < 0:  # no once -gap << k > scale
            return _first_row(-gap, scale, n), False
        return None

    reached = _read_runs(
        view.subject, limit + 1,
        lambda lo, hi: view._record_cells(range(lo, hi), hi - lo), decide)
    if reached is None:
        raise BoundViolation(f"no row up to {limit} decides whether the real "
                             f"reaches {t}")
    return reached


def ubin_repr_digits(view: TracedView, k: int) -> list[int]:
    """Digits computed against the approximation column.

    Strict decisions are certified by queried values alone: q_n at least
    t + 2^-n pins the digit to 1 for any real sharing that column entry,
    q_n below t - 2^-n pins it to 0.  Exact ties are settled from the
    presentation without queries; that is the single point where the
    expansion is discontinuous in the representation.
    """
    value = view.subject.exact_value()
    return list(islice(_greedy_digits(lambda t: _reaches(view, value, t)), k))


def _ubin_observe(phi: Callable[[FastCauchyReal], BinaryExpansion],
                  x_minus: FastCauchyReal, x_plus: FastCauchyReal
                  ) -> tuple[bool, dict]:
    d_minus = phi(x_minus).digit(1)
    d_plus = phi(x_plus).digit(1)
    return d_minus != d_plus, {"digit_minus": d_minus, "digit_plus": d_plus}


# indices 0 and 1 are settled directly; past them the pair stays in [0,1]
ubin_extraction = Route("ubin", 2, counterexample_pair, _ubin_observe,
                        ubin_from_mu, TracedView, ubin_repr_digits, 1,
                        lambda n: n + 2)


# ---------------------------------------------------------------------------
# weak Koenig route

def trees_from_flag(f: PresentedSequence) -> tuple[FlagTree, FlagTree]:
    """(FlagTree(0, f), FlagTree(1, f)), wwkl's two-sided witness: T_b
    keeps its b branch full and the other a single path (its first bit,
    then ones) cut where the flag fires, so both agree with their
    never-firing versions below the event.  Both greedy paths are all
    ones unless the cut kills T0's 1-branch, so phi's first bits differ
    exactly when f fires; Xi bounds zero_below(bound + 1)."""
    return FlagTree(0, f), FlagTree(1, f)


def uwwkl_from_mu(mu: MuOp) -> Callable[[PresentedTree], PresentedSequence]:
    def phi(tree: PresentedTree) -> PresentedSequence:
        return greedy_path(tree, mu)
    return phi


def _branch_alive_certified(view: TracedTreeView, length: int, value: int) -> bool:
    """Decide whether the subtree at (length, value) reaches every level.

    A positive answer may come straight from the presentation.  A
    negative answer is always certified through the view: the node is
    queried, then the two children of every queried member, level by
    level until none is a member.  A queried non-member rules out its
    whole subtree by prefix closure, so the certificate binds every tree
    agreeing on the queried strings.  On a thin gated branch each level
    costs two queries.
    """
    if view.subject.alive(length, value):
        return True
    frontier = [value] if view.query(length, value) else []
    while frontier:
        length += 1
        frontier = [child for v in frontier for child in (v << 1, (v << 1) | 1)
                    if view.query(length, child)]
    return False


def uwwkl_repr_bits(view: TracedTreeView, k: int) -> list[int]:
    """First k bits of the 1-preferring path, queried through membership."""
    bits: list[int] = []
    length, value = 0, 0
    for _ in range(k):
        if _branch_alive_certified(view, length + 1, (value << 1) | 1):
            bits.append(1)
            value = (value << 1) | 1
        else:
            bits.append(0)
            value = value << 1
        length += 1
    return bits


def _wwkl_observe(phi: Callable[[PresentedTree], PresentedSequence],
                  t0: PresentedTree, t1: PresentedTree) -> tuple[bool, dict]:
    p0, p1 = phi(t0), phi(t1)
    return p0.value(0) != p1.value(0), {"path0": p0, "path1": p1}


# codes below n only reach strings of bounded length; each tree agrees
# with its never-firing version on strings shorter than the first flag
# index
uwwkl_extraction = Route("wwkl", 0, trees_from_flag, _wwkl_observe,
                         uwwkl_from_mu, TracedTreeView, uwwkl_repr_bits, 1,
                         lambda n: max_coded_length(n - 1) if n > 0 else 0)


# ---------------------------------------------------------------------------
# intermediate value route

class RepresentedContinuousFunction(Value, eq=False):
    """A continuous function on [0, 1] given by exact values at rationals."""

    _fields = ("value_rule", "descriptor")


def _ivt_base(q: Fraction) -> Fraction:
    """The ivt base at q in [0, 1]: a slope-3 ramp from -1 up to 0 at
    1/3, zero on the middle third, and a slope-3 ramp from 0 at 2/3 up
    to 1.  With q = a/b, 3q - 1 and 3q - 2 are (3a - b)/b and (3a -
    2b)/b, so the piece is decided on integers and one Fraction built."""
    a, b = q.numerator, q.denominator
    if a < 0 or a > b:
        raise OutOfRange(f"{q} outside [0,1]")
    t = 3 * a
    if t < b:
        return Fraction(t - b, b)
    if t > 2 * b:
        return Fraction(t - 2 * b, b)
    return _ZERO


def ivt_counterexample(f: PresentedSequence, sign: str) -> RepresentedContinuousFunction:
    """base + delta(f) or base - delta(f) at every rational: the "-" and
    "+" functions are ivt's two-sided witness, both the base when f
    never fires, and else with roots past either end of its zero set
    [1/3, 2/3], so phi's roots differ exactly when f fires; Xi bounds
    zero_below(bound + 1)."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    s = 1 if sign == "+" else -1
    return RepresentedContinuousFunction(
        lambda q: flag_shifted(_ivt_base(q), s, f), f"ivt-base{sign}delta")


def _check_cbar(fn: RepresentedContinuousFunction, mu: MuOp) -> None:
    if not (fn.value_rule(Fraction(0)).exact_value(mu) < 0
            < fn.value_rule(Fraction(1)).exact_value(mu)):
        raise NotInCbar(f"{fn.descriptor}: need f(0) < 0 < f(1)")


def _bisection(sign: Callable[[Fraction], int]
               ) -> Iterator[tuple[Fraction, bool]]:
    """(left endpoint, root found) after stage 0, 1, ... of bisection on
    [0, 1].  Stage j probes the left endpoint plus 2^-j and moves there
    unless the sign is positive; a probe that lands exactly on a zero
    ends the search, and every later stage repeats it without probing.
    The left endpoint after stage j - 1 is num / 2^(j-1), so stage j's
    probe is (2 num + 1) / 2^j, built once from integers.
    """
    left, num, root = _ZERO, 0, False
    for j in count(1):
        yield left, root
        if not root:
            num <<= 1
            probe = Fraction(num + 1, 1 << j)
            s = sign(probe)
            if s <= 0:
                left, num, root = probe, num + 1, s == 0


_EXACT_ROOT_DEPTH = 24


class _Bisection(FastCauchyReal, eq=False):
    """The root that uivt_from_mu's phi returns.
    ``stage(n)`` is (left endpoint, root found) after n bisection stages,
    and row n is that left endpoint.  The exact value is the left
    endpoint if the bisection has landed on a root by stage
    _EXACT_ROOT_DEPTH; otherwise there is none to decide with."""

    _fields = ("stage", "label")
    tag = "bisection"

    def run(self, n: int, stop: int) -> tuple[Fraction, int]:
        return self.stage(n)[0], n + 1

    def _exact(self, mu: MuOp) -> Fraction:
        left, root = self.stage(_EXACT_ROOT_DEPTH)
        if not root:
            raise UnsupportedPresentation(
                f"no presentation for exact decision on {self.label}")
        return left


def uivt_from_mu(mu: MuOp) -> Callable[[RepresentedContinuousFunction], FastCauchyReal]:
    """Bisection with midpoint probes.  The left endpoint after n stages
    is the n-th approximation; a probe that lands exactly on a zero ends
    the search at that rational.

    phi checks the sign condition at once, with two calls of mu, and
    raises NotInCbar there.  The stages run on demand: a read of
    approximation n runs the stages up to n that no earlier read ran,
    each a sign decided through mu, and keeps them.  An exact decision
    (exact_value, real_eq, ...) runs the stages up to _EXACT_ROOT_DEPTH
    and gives the rational the bisection has landed on by then, or
    raises UnsupportedPresentation if it has not; printing the root runs
    none.  An error from mu in a stage surfaces on the read that runs
    that stage, and ends the bisection: a later read that needs a
    further stage raises StopIteration.
    """

    def phi(fn: RepresentedContinuousFunction) -> FastCauchyReal:
        _check_cbar(fn, mu)
        stream = _bisection(lambda p: real_sign(fn.value_rule(p), mu))
        stages: list[tuple[Fraction, bool]] = []

        def stage(n: int) -> tuple[Fraction, bool]:
            while len(stages) <= n:
                stages.append(next(stream))
            return stages[n]

        return _Bisection(stage, f"bisect({fn.descriptor})")

    return phi


def _sign_certified(view: TracedView, p: Fraction) -> int:
    """Sign of the function view.subject at dyadic p, read from the real
    view.subject.value_rule(p), built on each call, with its cells
    coded at (i, n) for p's dyadic index i and row n: 0 from an exact
    zero value, without reads, else certified by the first row n of
    that column with |q_n| > 2^-n, decided on integers.  The column is
    read by runs of equal rows: for a run of value a/b the first row
    with |a| << n > b is worked out at once, and the cells up to it go
    to the trace in one update, their Cantor codes stepping by i + n + 2
    from row n to row n + 1.  A column within 2^-n of value certifies
    its sign by the row past the bit length of value's denominator; one
    that has not by the limit is wrong."""
    i = dyadic_index(p)
    x = view.subject.value_rule(p)
    value = x.exact_value()
    if value == 0:
        return 0
    limit = 4 * value.denominator.bit_length() + 64

    def decide(q: Fraction, n: int) -> tuple[int, int] | None:
        a = q.numerator
        if a == 0:
            return None
        return _first_row(abs(a), q.denominator, n), 1 if a > 0 else -1

    def record(lo: int, hi: int) -> None:
        cells = accumulate(range(i + lo + 2, i + hi + 1), initial=cantor_pair(i, lo))
        view._record_cells(cells, hi - lo)

    sign = _read_runs(x, limit + 1, record, decide)
    if sign is None:
        raise BoundViolation(f"no row up to {limit} certifies the sign at {p}")
    return sign


def uivt_repr_endpoints(view: TracedView, k: int) -> list[Fraction]:
    """First k bisection endpoints computed through the value table."""
    stages = _bisection(lambda p: _sign_certified(view, p))
    return [left for left, _ in islice(stages, k)]


_ROOT_PRECISION = 4  # approximations within 1/16, comfortably inside 1/12


def _ivt_observe(phi: Callable[[RepresentedContinuousFunction], FastCauchyReal],
                 f_minus: RepresentedContinuousFunction,
                 f_plus: RepresentedContinuousFunction) -> tuple[bool, dict]:
    r_plus = phi(f_plus)
    r_minus = phi(f_minus)
    a_plus = r_plus.approx(_ROOT_PRECISION)
    a_minus = r_minus.approx(_ROOT_PRECISION)
    return abs(a_plus - a_minus) > Fraction(1, 6), {
        "root_plus": a_plus, "root_minus": a_minus,
        "r_plus": r_plus, "r_minus": r_minus}


# flag events at 0 or 1 shift the family out of the sign condition.  A
# differing table cell at Cantor code c has precision row at most c, and
# the shifted values become visible two rows past the flag index.
uivt_extraction = Route(
    "ivt", 2,
    lambda f: (ivt_counterexample(f, "-"), ivt_counterexample(f, "+")),
    _ivt_observe, uivt_from_mu, TracedView, uivt_repr_endpoints,
    _ROOT_PRECISION, lambda n: n + 2)


# ---------------------------------------------------------------------------
# maximum-location pair

class TwoBump(Value, eq=False):
    """The two-bump function, piecewise linear with peaks at 1/4 and 3/4
    and zero at 0, 1/2 and 1, given by its two peak heights."""

    _fields = ("left_height", "right_height")

    def argmax(self, mu: MuOp = mu_exact) -> Fraction:
        left = self.left_height.exact_value(mu)
        right = self.right_height.exact_value(mu)
        return Fraction(1, 4) if left >= right else Fraction(3, 4)


def weierstrass_counterexample(f: PresentedSequence) -> tuple[TwoBump, TwoBump]:
    """(plus, minus): plus peaks at 1 + delta(f) on the left and 1 -
    delta(f) on the right, minus mirrors it.  Their argmax locations
    agree exactly when the flag never fires."""
    up, down = flag_shifted(1, 1, f), flag_shifted(1, -1, f)
    return TwoBump(up, down), TwoBump(down, up)


# ---------------------------------------------------------------------------
# rational dichotomy route

class RationalWitness(Value):
    _fields = ("value", "certificate")


def udq_from_mu(mu: MuOp) -> Callable[[FastCauchyReal], RationalWitness]:
    def phi(x: FastCauchyReal) -> RationalWitness:
        return RationalWitness(x.exact_value(mu), x.tag)
    return phi


def udq_extraction(f: PresentedSequence,
                   phi: Callable[[FastCauchyReal], RationalWitness] | None = None
                   ) -> RouteReport:
    phi = phi or udq_from_mu(mu_exact)
    answer = phi(dq_real(f))
    q = answer.value
    details = {"witness_value": q, "certificate": answer.certificate}
    if q == 1:
        return RouteReport("dq", f, False, None, None, None, details)
    remainder = 1 - q
    if remainder.numerator != 1 or remainder.denominator & (remainder.denominator - 1):
        raise MalformedWitness(f"{q} is not of the form 1 - 2^-m")
    m0 = remainder.denominator.bit_length() - 1
    if f.nonzero_below(m0 + 1) != m0:
        raise MalformedWitness(f"decoded index {m0} is not the first nonzero of {f}")
    return RouteReport("dq", f, True, m0, None, m0, details)
