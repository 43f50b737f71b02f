"""Forward constructions and search-operator extractors.

Each route pairs a forward construction (given an exact search operator
mu, build a functional: binary expansions, tree paths, intermediate-value
roots, rational-value witnesses) with an extractor that recovers mu from
such a functional plus an extensionality bound Xi.  The extractor feeds
the functional a pair of presented counterexample objects that it tells
apart exactly when the input flag sequence fires, each of which agrees
with its never-firing version below the first flag index, and reads that
index out of a bounded search whose bound comes from tracing the
functional's queries on both objects.

The three pair-based routes are Route records, and calling one runs
that argument through a single shared loop.  The counterexample pairs
with a flag event at 0 or 1 fall outside the unit-interval and
sign-condition domains of the expansion and root functionals, so those
two routes settle indices 0 and 1 by direct inspection (a bounded,
search-free step) and consult the functional for everything past that.
The dq route has neither pair nor Xi and keeps its own extractor.

Xi bounds move between index spaces through fixed codings: approximation
columns for reals, length-lex string codes for trees, Cantor pairs of
(dyadic index, precision) for function tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .coding import cantor_pair, cantor_unpair, dyadic_index, dyadic_value, \
    max_coded_length, rational_code
from .errors import BoundViolation, MalformedWitness, NotInCbar, OutOfRange
from .functionals import DEFAULT_BUDGET, TracedRealView, TracedView, xi_by_tracing
from .reals import (
    FastCauchyReal,
    MuOp,
    PCumFlagSeries,
    PRational,
    PScale,
    PSum,
    counterexample_pair,
    dq_real,
    from_rational,
    real_sign,
)
from .sequences import PresentedSequence, mu_exact
from .trees import FlagTree, PresentedTree, TracedTreeView, greedy_path

__all__ = [
    "BinaryExpansion",
    "ubin_from_mu",
    "make_ubin_xi",
    "ubin_repr_digits",
    "trees_from_flag",
    "uwwkl_from_mu",
    "make_uwwkl_xi",
    "uwwkl_repr_bits",
    "RepresentedContinuousFunction",
    "PiecewiseLinear",
    "ivt_base",
    "ivt_counterexample",
    "uivt_from_mu",
    "make_uivt_xi",
    "uivt_repr_endpoints",
    "TracedTableView",
    "TwoBump",
    "weierstrass_counterexample",
    "RationalWitness",
    "Irrational",
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


@dataclass(frozen=True, eq=False)
class RouteReport:
    route: str
    flag: PresentedSequence
    fired: bool
    witness: int | None
    xi_bound: int | None
    search_bound: int | None
    details: dict


@dataclass(frozen=True, eq=False)
class Route:
    """One pair-based extraction route; calling it runs the extraction.

    Indices in ``settled`` are decided by direct inspection.  Past them,
    ``pair(f)`` builds two objects that phi separates exactly when f
    fires, and ``observe(phi, a, b)`` says whether it does, plus the
    report details.  For a separated pair, Xi at ``precision``
    bounds the inspected input and ``search_bound`` turns that into the
    bound of a scan for the first zero.
    """

    name: str
    settled: tuple[int, ...]
    pair: Callable[[PresentedSequence], tuple]
    observe: Callable[..., tuple[bool, dict]]
    make_phi: Callable[[MuOp], Callable]
    make_xi: Callable[[], Callable]
    precision: int
    search_bound: Callable[[int], int]

    def __call__(self, f: PresentedSequence, phi: Callable | None = None,
                 xi: Callable | None = None) -> RouteReport:
        phi = phi or self.make_phi(mu_exact)
        xi = xi or self.make_xi()
        for m in self.settled:
            if f.value(m) == 0:
                return RouteReport(self.name, f, True, m, None, None,
                                   {"settled": "direct inspection"})
        a, b = self.pair(f)
        separated, details = self.observe(phi, a, b)
        if not separated:
            return RouteReport(self.name, f, False, None, None, None, details)
        n = xi(a, b, self.precision)
        bound = self.search_bound(n)
        for m in range(bound + 1):
            if f.value(m) == 0:
                return RouteReport(self.name, f, True, m, n, bound, details)
        raise BoundViolation(
            f"{self.name} pair separated but no zero of {f} below {bound}")


def mu_from(extraction: Callable[..., RouteReport], *args) -> MuOp:
    """The search an extraction recovers: f -> extraction(f, *args).witness.
    Through udq_extraction that is the first nonzero index."""

    def mu(f: PresentedSequence) -> int | None:
        return extraction(f, *args).witness

    return mu


def flag_epsilon(f: PresentedSequence, mu: MuOp = mu_exact) -> Fraction:
    """The dyadic shift a flag induces: 0 if f never hits zero, else
    2^(1 - max(m0, 1)) for the first zero m0."""
    return PCumFlagSeries(f).exact_value(mu)


# ---------------------------------------------------------------------------
# binary expansion route

class BinaryExpansion:
    """Greedy binary digits of a presented real in [0, 1].

    Digit n+1 is 1 exactly when the real reaches the partial sum plus
    2^-(n+1); ties therefore expand as 1 followed by zeros.
    """

    def __init__(self, x: FastCauchyReal, mu: MuOp):
        self.real = x
        self._value = x.exact_value(mu)
        if self._value < 0 or self._value > 1:
            raise OutOfRange(f"expansion needs [0,1], got {self._value}")
        self._digits: list[int] = []
        self._partial = Fraction(0)

    def digit(self, n: int) -> int:
        if n < 1:
            raise ValueError("digits are indexed from 1")
        while len(self._digits) < n:
            j = len(self._digits) + 1
            t = self._partial + Fraction(1, 1 << j)
            if self._value >= t:
                self._digits.append(1)
                self._partial = t
            else:
                self._digits.append(0)
        return self._digits[n - 1]

    def digits(self, k: int) -> list[int]:
        return [self.digit(n) for n in range(1, k + 1)]

    def partial_sum(self, k: int) -> Fraction:
        self.digit(max(k, 1))
        return sum((Fraction(d, 1 << i) for i, d in
                    enumerate(self._digits[:k], start=1)), Fraction(0))


def ubin_from_mu(mu: MuOp) -> Callable[[FastCauchyReal], BinaryExpansion]:
    def phi(x: FastCauchyReal) -> BinaryExpansion:
        return BinaryExpansion(x, mu)
    return phi


def ubin_repr_digits(view: TracedRealView, k: int) -> list[int]:
    """Digits computed against the approximation column.

    Strict decisions are certified by queried values alone: q_n at least
    t + 2^-n pins the digit to 1 for any real sharing that column entry,
    q_n below t - 2^-n pins it to 0.  Exact ties are settled from the
    presentation without queries; that is the single point where the
    expansion is discontinuous in the representation.
    """
    value = view.real.exact_value()
    digits: list[int] = []
    partial = Fraction(0)
    for j in range(1, k + 1):
        t = partial + Fraction(1, 1 << j)
        if value == t:
            b = 1
        else:
            n = 0
            while True:
                q = view.rational(n)
                eps = Fraction(1, 1 << n)
                if q - eps >= t:
                    b = 1
                    break
                if q + eps < t:
                    b = 0
                    break
                n += 1
        digits.append(b)
        if b:
            partial = t
    return digits


XiReal = Callable[[FastCauchyReal, FastCauchyReal, int], int]


def make_ubin_xi(budget: int = DEFAULT_BUDGET) -> XiReal:
    def xi(x: FastCauchyReal, y: FastCauchyReal, k: int) -> int:
        return xi_by_tracing(ubin_repr_digits,
                             TracedRealView(x, budget),
                             TracedRealView(y, budget), k)
    return xi


def _ubin_observe(phi: Callable[[FastCauchyReal], BinaryExpansion],
                  x_minus: FastCauchyReal, x_plus: FastCauchyReal
                  ) -> tuple[bool, dict]:
    d_minus = phi(x_minus).digit(1)
    d_plus = phi(x_plus).digit(1)
    return d_minus != d_plus, {"digit_minus": d_minus, "digit_plus": d_plus,
                               "x_minus": x_minus, "x_plus": x_plus}


# indices 0 and 1 are settled directly; past them the pair stays in [0,1]
ubin_extraction = Route("ubin", (0, 1), counterexample_pair, _ubin_observe,
                        ubin_from_mu, make_ubin_xi, 1, lambda n: n + 2)


# ---------------------------------------------------------------------------
# weak Koenig route

def trees_from_flag(f: PresentedSequence) -> tuple[FlagTree, FlagTree]:
    """(T0, T1): T_b keeps its b branch full and the other branch a
    single path (its first bit, then ones), cut where the flag fires.
    Both greedy paths are all ones unless the cut kills T0's 1-branch."""
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
    agreeing on the queried codes.  On a thin gated branch each level
    costs two queries.
    """
    if view.tree.alive(length, value):
        return True
    frontier = [value] if view.member(length, value) else []
    while frontier:
        length += 1
        frontier = [child for v in frontier for child in (v << 1, (v << 1) | 1)
                    if view.member(length, child)]
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


XiTree = Callable[[PresentedTree, PresentedTree, int], int]


def make_uwwkl_xi(budget: int = DEFAULT_BUDGET) -> XiTree:
    def xi(t: PresentedTree, s: PresentedTree, k: int) -> int:
        return xi_by_tracing(uwwkl_repr_bits,
                             TracedTreeView(t, budget),
                             TracedTreeView(s, budget), k)
    return xi


def _wwkl_observe(phi: Callable[[PresentedTree], PresentedSequence],
                  t0: PresentedTree, t1: PresentedTree) -> tuple[bool, dict]:
    p0, p1 = phi(t0), phi(t1)
    return p0.value(0) != p1.value(0), {"path0": p0, "path1": p1}


# codes below n only reach strings of bounded length; each tree agrees
# with its never-firing version on strings shorter than the first flag
# index
uwwkl_extraction = Route("wwkl", (), trees_from_flag, _wwkl_observe,
                         uwwkl_from_mu, make_uwwkl_xi, 1,
                         lambda n: max_coded_length(n - 1) if n > 0 else 0)


# ---------------------------------------------------------------------------
# intermediate value route

@dataclass(frozen=True)
class PiecewiseLinear:
    """Linear interpolation through rational breakpoints on [0, 1]."""

    points: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        xs = [p[0] for p in self.points]
        if len(xs) < 2 or xs[0] != 0 or xs[-1] != 1 or sorted(set(xs)) != xs:
            raise ValueError("breakpoints must strictly increase from 0 to 1")

    def value(self, x: Fraction) -> Fraction:
        x = Fraction(x)
        if x < 0 or x > 1:
            raise OutOfRange(f"{x} outside [0,1]")
        for (x0, y0), (x1, y1) in zip(self.points, self.points[1:]):
            if x <= x1:
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        raise AssertionError("unreachable")

    def slope_bound(self) -> Fraction:
        return max(abs((y1 - y0) / (x1 - x0))
                   for (x0, y0), (x1, y1) in zip(self.points, self.points[1:]))


@dataclass(frozen=True, eq=False)
class RepresentedContinuousFunction:
    """A continuous function on [0, 1] given by exact values at rationals."""

    value_rule: Callable[[Fraction], FastCauchyReal]
    descriptor: str

    def value_at(self, q: Fraction, mu: MuOp = mu_exact) -> Fraction:
        return self.value_rule(Fraction(q)).exact_value(mu)


def from_piecewise_linear(pl: PiecewiseLinear, descriptor: str,
                          shift: tuple[int, PresentedSequence] | None = None
                          ) -> RepresentedContinuousFunction:
    if shift is None:
        def rule(q: Fraction) -> FastCauchyReal:
            return from_rational(pl.value(q))
    else:
        sign, flag = shift

        def rule(q: Fraction) -> FastCauchyReal:
            pres = PSum(PRational(pl.value(q)),
                        PScale(Fraction(sign), PCumFlagSeries(flag)))
            return FastCauchyReal(pres)

    return RepresentedContinuousFunction(rule, descriptor)


_IVT_BASE = PiecewiseLinear((
    (Fraction(0), Fraction(-1)),
    (Fraction(1, 3), Fraction(0)),
    (Fraction(2, 3), Fraction(0)),
    (Fraction(1), Fraction(1)),
))


def ivt_base() -> RepresentedContinuousFunction:
    """Slope-3 ramp, zero plateau on the middle third, slope-3 ramp."""
    return from_piecewise_linear(_IVT_BASE, "ivt-base")


def ivt_counterexample(f: PresentedSequence, sign: str) -> RepresentedContinuousFunction:
    """The base function shifted by +epsilon(f) or -epsilon(f)."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    s = 1 if sign == "+" else -1
    return from_piecewise_linear(_IVT_BASE, f"ivt-base{sign}delta", (s, f))


def _check_cbar(fn: RepresentedContinuousFunction, mu: MuOp) -> None:
    if not (fn.value_at(Fraction(0), mu) < 0 < fn.value_at(Fraction(1), mu)):
        raise NotInCbar(f"{fn.descriptor}: need f(0) < 0 < f(1)")


_EAGER_DEPTH = 24


def uivt_from_mu(mu: MuOp) -> Callable[[RepresentedContinuousFunction], FastCauchyReal]:
    """Bisection with midpoint probes.  The left endpoint after n stages
    is the n-th approximation; a probe that lands exactly on a zero ends
    the search at that rational.
    """

    def phi(fn: RepresentedContinuousFunction) -> FastCauchyReal:
        _check_cbar(fn, mu)
        endpoints: list[Fraction] = [Fraction(0)]
        state = {"root": None}

        def extend_to(n: int) -> None:
            while len(endpoints) <= n:
                if state["root"] is not None:
                    endpoints.append(state["root"])
                    continue
                j = len(endpoints) - 1
                probe = endpoints[-1] + Fraction(1, 1 << (j + 1))
                s = real_sign(fn.value_rule(probe), mu)
                if s == 0:
                    state["root"] = probe
                    endpoints.append(probe)
                elif s < 0:
                    endpoints.append(probe)
                else:
                    endpoints.append(endpoints[-1])

        extend_to(_EAGER_DEPTH)

        def rule(n: int) -> Fraction:
            extend_to(n)
            return endpoints[n]

        pres = PRational(state["root"]) if state["root"] is not None else None
        return FastCauchyReal(pres, approx_override=rule,
                              label=f"bisect({fn.descriptor})")

    return phi


class TracedTableView(TracedView):
    """A function seen as its value table over the dyadic enumeration,
    one Cantor-paired index per (point, precision) cell."""

    def __init__(self, fn: RepresentedContinuousFunction,
                 budget: int = DEFAULT_BUDGET):
        super().__init__(budget)
        self.fn = fn

    def entry(self, i: int, n: int) -> Fraction:
        self._record(cantor_pair(i, n))
        return self.fn.value_rule(dyadic_value(i)).approx(n)

    def query(self, m: int) -> int:
        i, n = cantor_unpair(m)
        return rational_code(self.entry(i, n))


def _sign_certified(view: TracedTableView, p: Fraction) -> int:
    if view.fn.value_rule(p).exact_value() == 0:
        return 0
    i = dyadic_index(p)
    n = 0
    while True:
        q = view.entry(i, n)
        eps = Fraction(1, 1 << n)
        if q > eps:
            return 1
        if q < -eps:
            return -1
        n += 1


def uivt_repr_endpoints(view: TracedTableView, k: int) -> list[Fraction]:
    """First k bisection endpoints computed through the value table."""
    endpoints = [Fraction(0)]
    root: Fraction | None = None
    while len(endpoints) < max(k, 1):
        if root is not None:
            endpoints.append(root)
            continue
        j = len(endpoints) - 1
        probe = endpoints[-1] + Fraction(1, 1 << (j + 1))
        s = _sign_certified(view, probe)
        if s == 0:
            root = probe
            endpoints.append(probe)
        elif s < 0:
            endpoints.append(probe)
        else:
            endpoints.append(endpoints[-1])
    return endpoints[:k]


XiTable = Callable[[RepresentedContinuousFunction, RepresentedContinuousFunction, int], int]


def make_uivt_xi(budget: int = DEFAULT_BUDGET) -> XiTable:
    def xi(f: RepresentedContinuousFunction,
           g: RepresentedContinuousFunction, k: int) -> int:
        return xi_by_tracing(uivt_repr_endpoints,
                             TracedTableView(f, budget),
                             TracedTableView(g, budget), k)
    return xi


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
    "ivt", (0, 1),
    lambda f: (ivt_counterexample(f, "-"), ivt_counterexample(f, "+")),
    _ivt_observe, uivt_from_mu, make_uivt_xi, _ROOT_PRECISION, lambda n: n + 2)


# ---------------------------------------------------------------------------
# maximum-location route

@dataclass(frozen=True, eq=False)
class TwoBump:
    """Piecewise-linear two-bump function: peaks at 1/4 and 3/4 with
    flag-dependent heights, zero at 0, 1/2, and 1."""

    fn: RepresentedContinuousFunction
    left_height: FastCauchyReal
    right_height: FastCauchyReal

    def argmax(self, mu: MuOp = mu_exact) -> Fraction:
        left = self.left_height.exact_value(mu)
        right = self.right_height.exact_value(mu)
        return Fraction(1, 4) if left >= right else Fraction(3, 4)


def _bump_function(f: PresentedSequence, left_sign: int) -> TwoBump:
    one = PRational(Fraction(1))
    delta = PCumFlagSeries(f)
    h_left = PSum(one, PScale(Fraction(left_sign), delta))
    h_right = PSum(one, PScale(Fraction(-left_sign), delta))

    def rule(q: Fraction) -> FastCauchyReal:
        q = Fraction(q)
        if q < 0 or q > 1:
            raise OutOfRange(f"{q} outside [0,1]")
        if q <= Fraction(1, 2):
            # tent through (0,0), (1/4, h_left), (1/2, 0)
            weight = 4 * q if q <= Fraction(1, 4) else 4 * (Fraction(1, 2) - q)
            return FastCauchyReal(PScale(weight, h_left) if weight else
                                  PRational(Fraction(0)))
        weight = (4 * (q - Fraction(1, 2)) if q <= Fraction(3, 4)
                  else 4 * (1 - q))
        return FastCauchyReal(PScale(weight, h_right) if weight else
                              PRational(Fraction(0)))

    sign = "+" if left_sign > 0 else "-"
    fn = RepresentedContinuousFunction(rule, f"two-bump{sign}")
    return TwoBump(fn, FastCauchyReal(h_left), FastCauchyReal(h_right))


def weierstrass_counterexample(f: PresentedSequence) -> tuple[TwoBump, TwoBump]:
    """(plus, minus): plus peaks higher on the left, minus mirrors it.
    Their argmax locations agree exactly when the flag never fires."""
    return _bump_function(f, +1), _bump_function(f, -1)


# ---------------------------------------------------------------------------
# rational dichotomy route

@dataclass(frozen=True)
class RationalWitness:
    value: Fraction
    certificate: str


@dataclass(frozen=True)
class Irrational:
    """Marker for the branch this artifact can never take: presented
    reals always carry a rational witness."""


def _presentation_tag(x: FastCauchyReal) -> str:
    pres = x.presentation
    names = {"PRational": "rational", "PCumFlagSeries": "flag-series",
             "PDqSeries": "dq-series", "PSum": "sum", "PScale": "scale"}
    return names.get(type(pres).__name__, "unknown")


def udq_from_mu(mu: MuOp) -> Callable[[FastCauchyReal], RationalWitness | Irrational]:
    def phi(x: FastCauchyReal) -> RationalWitness | Irrational:
        return RationalWitness(x.exact_value(mu), _presentation_tag(x))
    return phi


def udq_extraction(f: PresentedSequence,
                   phi: Callable[[FastCauchyReal], RationalWitness | Irrational] | None = None
                   ) -> RouteReport:
    phi = phi or udq_from_mu(mu_exact)
    answer = phi(dq_real(f))
    if isinstance(answer, Irrational):
        raise MalformedWitness("dq reals are rational by construction")
    q = answer.value
    details = {"witness_value": q, "certificate": answer.certificate}
    if q == 1:
        return RouteReport("dq", f, False, None, None, None, details)
    remainder = 1 - q
    if remainder.numerator != 1 or remainder.denominator & (remainder.denominator - 1):
        raise MalformedWitness(f"{q} is not of the form 1 - 2^-m")
    m0 = remainder.denominator.bit_length() - 1
    if f.value(m0) == 0 or any(f.value(i) != 0 for i in range(m0)):
        raise MalformedWitness(f"decoded index {m0} is not the first nonzero of {f}")
    return RouteReport("dq", f, True, m0, None, m0, details)
