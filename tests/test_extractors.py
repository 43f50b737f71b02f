from __future__ import annotations

from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from mulab.coding import (cantor_pair, cantor_unpair, dyadic_index, dyadic_value,
                          string_code)
from mulab.corpus import flag_corpus
from mulab.errors import (
    BoundViolation,
    BudgetExceeded,
    MalformedWitness,
    MulabError,
    NotInCbar,
    OutOfRange,
    UnsupportedPresentation,
)
from mulab.extractors import (
    BinaryExpansion,
    RationalWitness,
    RepresentedContinuousFunction,
    Route,
    _EXACT_ROOT_DEPTH,
    _ROOT_PRECISION,
    _bisection,
    _branch_alive_certified,
    _ivt_base,
    _reaches,
    _sign_certified,
    flag_epsilon,
    ivt_counterexample,
    mu_from,
    trees_from_flag,
    ubin_extraction,
    ubin_from_mu,
    ubin_repr_digits,
    udq_extraction,
    udq_from_mu,
    uivt_extraction,
    uivt_from_mu,
    uivt_repr_endpoints,
    uwwkl_extraction,
    uwwkl_from_mu,
    uwwkl_repr_bits,
    weierstrass_counterexample,
)
from mulab.functionals import DEFAULT_BUDGET, TracedView, xi_by_tracing
from mulab.reals import (
    FastCauchyReal,
    PRational,
    counterexample_pair,
    dq_real,
    flag_shifted,
    from_rational,
    real_eq,
    real_lt,
    real_sign,
)
from mulab.sequences import PresentedSequence, mu_exact
from mulab.trees import (
    FlagTree,
    FullTree,
    PathTree,
    TracedTreeView,
    Truncation,
    format_tree,
)

from oracles import (
    CodeKeyedTreeView,
    PColumn,
    binary_digits,
    ivt_base,
    piecewise_function,
    queried_death,
    reference_bisection,
    reference_branch_alive,
    reference_ivt_base,
    reference_ivt_counterexample,
    reference_ivt_endpoints,
    reference_reaches,
    reference_sign_certified,
    reference_two_bump,
    reference_ubin_digits,
    reference_ubin_pair,
    reference_uivt_phi,
    reference_xi,
)

unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=64)
flags = st.tuples(
    st.lists(st.integers(min_value=0, max_value=3), max_size=6).map(tuple),
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4).map(tuple),
).map(lambda pt: PresentedSequence(pt[0], pt[1]))


def flag_with_event_at(m0: int) -> PresentedSequence:
    return PresentedSequence((1,) * m0, (0,))


NO_EVENT = PresentedSequence((), (1,))

# events 0-300 behind a nonzero fill, and quiet flags of the same lengths
_fill = st.integers(min_value=1, max_value=3)
_tail = st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3)
deep_flags = st.one_of(
    st.builds(lambda m, v, tail: PresentedSequence((v,) * m + (0,), tuple(tail)),
              st.integers(min_value=0, max_value=300), _fill, _tail),
    st.builds(lambda m, v, tail: PresentedSequence((v,) * m, tuple(tail)),
              st.integers(min_value=0, max_value=300), _fill,
              st.lists(_fill, min_size=1, max_size=3)),
)


def boundary_gaps(n: int) -> list[Fraction]:
    """Gaps around +-2^-n, at it, and at 0, for checking a row decision."""
    eps = Fraction(1, 1 << n)
    around = [eps / 3, eps - eps / 8, eps, eps + eps / 8, 2 * eps, Fraction(5, 7)]
    return [Fraction(0), *around, *(-g for g in around)]


def column(rows: dict[int, Fraction], rest: Fraction):
    """An approximation rule that reads rows[n] where given, else rest."""
    return lambda n: rows.get(n, rest)


def test_flag_epsilon_closed_form():
    assert flag_epsilon(NO_EVENT) == 0
    assert flag_epsilon(flag_with_event_at(0)) == 1
    assert flag_epsilon(flag_with_event_at(1)) == 1
    assert flag_epsilon(flag_with_event_at(3)) == Fraction(1, 4)


# ---------------------------------------------------------------------------
# binary expansions

@given(unit_fractions)
def test_expansion_matches_doubling_oracle(q):
    expansion = ubin_from_mu(mu_exact)(from_rational(q))
    assert expansion.digits(12) == binary_digits(q, 12)


def test_ties_expand_upward():
    half = ubin_from_mu(mu_exact)(from_rational(Fraction(1, 2)))
    assert half.digits(5) == [1, 0, 0, 0, 0]
    quarter = ubin_from_mu(mu_exact)(from_rational(Fraction(1, 4)))
    assert quarter.digits(4) == [0, 1, 0, 0]
    third = ubin_from_mu(mu_exact)(from_rational(Fraction(1, 3)))
    assert third.digits(6) == [0, 1, 0, 1, 0, 1]
    assert ubin_from_mu(mu_exact)(from_rational(1)).digits(3) == [1, 1, 1]
    assert ubin_from_mu(mu_exact)(from_rational(0)).digits(3) == [0, 0, 0]


@given(unit_fractions, st.integers(min_value=1, max_value=16))
def test_partial_sums_approach_from_below(q, k):
    expansion = BinaryExpansion(from_rational(q), mu_exact)
    partial = sum(Fraction(d, 1 << i)
                  for i, d in enumerate(expansion.digits(k), start=1))
    # the gap closes to exactly 2^-k on the all-ones tail of q = 1
    assert 0 <= q - partial <= Fraction(1, 1 << k)


def test_expansion_needs_the_unit_interval():
    with pytest.raises(OutOfRange):
        BinaryExpansion(from_rational(Fraction(-1, 2)), mu_exact)
    with pytest.raises(OutOfRange):
        BinaryExpansion(from_rational(Fraction(3, 2)), mu_exact)


def test_expansion_digits_index_from_one():
    with pytest.raises(ValueError):
        BinaryExpansion(from_rational(0), mu_exact).digit(0)


def test_expansion_of_a_flag_real():
    x = flag_shifted(Fraction(1, 2), 1, flag_with_event_at(3))  # 3/4
    assert BinaryExpansion(x, mu_exact).digits(4) == [1, 1, 0, 0]


def test_ubin_extraction_fires_with_tight_bounds():
    report = ubin_extraction(flag_with_event_at(3))
    assert report.route == "ubin" and report.fired
    assert report.witness == 3
    assert report.xi_bound == 4
    assert report.search_bound == 6
    assert report.details["digit_minus"] == 0
    assert report.details["digit_plus"] == 1


def test_ubin_extraction_without_event():
    report = ubin_extraction(NO_EVENT)
    assert not report.fired and report.witness is None
    assert report.details["digit_minus"] == report.details["digit_plus"]


@pytest.mark.parametrize("m0", [0, 1])
def test_ubin_settles_early_events_directly(m0):
    report = ubin_extraction(flag_with_event_at(m0))
    assert report.fired and report.witness == m0
    assert report.xi_bound is None


def test_ubin_repr_digits_certifies_through_the_column():
    x = flag_shifted(Fraction(1, 2), 1, flag_with_event_at(3))
    view = TracedView(x)
    assert ubin_repr_digits(view, 3) == [1, 1, 0]
    assert view.trace


def test_ubin_repr_digits_tie_needs_no_queries():
    # both present the same column of constant 1/2 approximations, and
    # the tie digit itself is settled without touching the column
    twins = [from_rational(Fraction(1, 2)),
             flag_shifted(Fraction(1, 2), 1, NO_EVENT)]
    outputs = []
    for x in twins:
        view = TracedView(x)
        assert ubin_repr_digits(view, 1) == [1]
        assert view.trace == set()
        view.reset()
        outputs.append(ubin_repr_digits(view, 6))
    assert outputs[0] == outputs[1] == [1, 0, 0, 0, 0, 0]


unit_reals = st.one_of(
    unit_fractions.map(from_rational),
    flags.filter(lambda f: mu_exact(f) not in (0, 1)).flatmap(
        lambda f: st.sampled_from([flag_shifted(Fraction(1, 2), 1, f),
                                   flag_shifted(Fraction(1, 2), -1, f)])),
    flags.map(dq_real),
)


@given(unit_reals, st.integers(min_value=0, max_value=12))
def test_ubin_repr_digits_match_the_library_expansion(x, k):
    assert (ubin_repr_digits(TracedView(x), k)
            == BinaryExpansion(x, mu_exact).digits(k))


def test_ubin_xi_is_a_nonnegative_bound():
    xi = ubin_extraction.xi
    lo, hi = from_rational(Fraction(1, 3)), from_rational(Fraction(2, 3))
    assert isinstance(xi(lo, hi, 4), int)
    assert xi(lo, hi, 4) >= 0


@settings(max_examples=40, deadline=None)
@given(deep_flags, st.integers(min_value=1, max_value=4))
def test_ubin_repr_digits_match_the_fraction_reference(f, k):
    for x in counterexample_pair(f):
        view, ref = TracedView(x), TracedView(x)
        assert ubin_repr_digits(view, k) == reference_ubin_digits(ref, k)
        assert view.trace == ref.trace


@pytest.mark.parametrize("n", [0, 1, 5])
def test_reaches_decides_each_row_like_the_fraction_form(n):
    # rows below n sit on t and decide nothing; row n sits at t + gap;
    # later rows sit on the exact value, across t from the gap
    t = Fraction(1, 3)
    for gap in boundary_gaps(n):
        value = t - 7 if gap >= 0 else t + 7
        rows = {j: t for j in range(n)} | {n: t + gap}
        x = PColumn(PRational(value), column(rows, value))
        view, ref = TracedView(x), TracedView(x)
        eps = Fraction(1, 1 << n)
        decided = gap >= eps or gap < -eps
        reached = _reaches(view, value, t)
        assert reached == reference_reaches(ref, value, t)
        assert reached == (gap >= 0 if decided else value > t)
        assert view.trace == ref.trace == set(range(n + 1 if decided else n + 2))


@settings(max_examples=300, deadline=None)
@given(st.fractions(), st.integers(min_value=0, max_value=40), st.data())
def test_reaches_decides_drawn_rows_on_integers_like_the_fraction_form(t, n, data):
    # q_n = t + gap for a drawn t and n, the gap drawn freely or at, just
    # inside or just outside +-2^-n; rows below n sit on t, later ones on
    # the exact value, across t from the gap
    gap = data.draw(st.one_of(st.fractions(), st.sampled_from(boundary_gaps(n))))
    value = t - 7 if gap >= 0 else t + 7
    rows = {j: t for j in range(n)} | {n: t + gap}
    x = PColumn(PRational(value), column(rows, value))
    view, ref = TracedView(x), TracedView(x)
    # row n decides as the Fraction form did, on d = q_n - t = gap
    scaled = gap.numerator << n
    decided = scaled >= gap.denominator or -scaled > gap.denominator
    reached = _reaches(view, value, t)
    assert reached == reference_reaches(ref, value, t)
    assert reached == (gap >= 0 if decided else value > t)
    assert view.trace == ref.trace == set(range(n + 1 if decided else n + 2))


def test_reaches_stops_on_a_column_that_contradicts_the_value():
    # every row sits on t = 1/2, so none decides; a column within 2^-n of
    # the exact value 1/4 would have by row 4, so the search stops at a
    # bound from the denominators, not at the view's query budget
    x = PColumn(PRational(Fraction(1, 4)), lambda n: Fraction(1, 2))
    view = TracedView(x)
    with pytest.raises(BoundViolation, match="no row up to 84 decides"):
        ubin_repr_digits(view, 1)
    assert view.trace == set(range(85))


# ---------------------------------------------------------------------------
# tree route

def test_trees_from_flag_roots():
    t0, t1 = trees_from_flag(flag_with_event_at(2))
    assert t0.root_bit == 0 and t1.root_bit == 1
    assert t0.flag == t1.flag == flag_with_event_at(2)


def test_uwwkl_paths_split_on_the_event():
    phi = uwwkl_from_mu(mu_exact)
    t0, t1 = trees_from_flag(flag_with_event_at(2))
    assert phi(t0) == PresentedSequence((0,), (1,))
    assert phi(t1) == PresentedSequence((), (1,))
    s0, s1 = trees_from_flag(NO_EVENT)
    assert phi(s0) == phi(s1) == PresentedSequence((), (1,))


def test_uwwkl_extraction_bound_is_tight_at_seven():
    report = uwwkl_extraction(flag_with_event_at(7))
    assert report.fired and report.witness == 7
    assert report.xi_bound == 255
    assert report.search_bound == 7


def test_uwwkl_extraction_handles_immediate_and_missing_events():
    early = uwwkl_extraction(flag_with_event_at(0))
    assert early.fired and early.witness == 0
    never = uwwkl_extraction(NO_EVENT)
    assert not never.fired and never.witness is None


def test_uwwkl_xi_counts_membership_queries():
    xi = uwwkl_extraction.xi
    t0, t1 = trees_from_flag(flag_with_event_at(4))
    assert xi(t0, t1, 1) >= 1


@pytest.mark.parametrize("m", [21, 64, 200])
def test_uwwkl_extraction_runs_past_the_old_budget_cliff(m):
    # the largest queried code is 2^(m+1) - 2, far past DEFAULT_BUDGET,
    # but the walk queries only two codes per level
    report = uwwkl_extraction(flag_with_event_at(m))
    assert report.fired and report.witness == m
    assert report.xi_bound == 2 ** (m + 1) - 1
    assert report.search_bound == m
    views = [TracedTreeView(t, DEFAULT_BUDGET)
             for t in trees_from_flag(flag_with_event_at(m))]
    assert xi_by_tracing(uwwkl_repr_bits, *views, 1) == report.xi_bound
    assert len(views[0].trace | views[1].trace) <= 4 * (m + 1)


WALK_TREES = [
    FullTree(),
    *[FlagTree(bit, flag) for bit in (0, 1)
      for flag in (NO_EVENT, *map(flag_with_event_at, (0, 1, 2, 5)))],
    PathTree((0, 1, 1)),
    PathTree((1, 0), full_below=3),
    Truncation(6, FullTree()),
    Truncation(5, PathTree((0, 1), full_below=2)),
]


def _decide_traced(decide, tree, length, value):
    """The decision and the length-lex codes of the strings it queried."""
    view = TracedTreeView(tree)
    return decide(view, length, value), {string_code(*d) for d in view.trace}


@pytest.mark.parametrize("tree", WALK_TREES, ids=format_tree)
def test_frontier_walk_matches_full_level_enumeration(tree):
    for length in range(9):
        for value in range(1 << length):
            alive, trace = _decide_traced(_branch_alive_certified, tree,
                                          length, value)
            ref_alive, ref_trace = _decide_traced(reference_branch_alive, tree,
                                                  length, value)
            assert alive == ref_alive
            top, ref_top = max(trace, default=-1), max(ref_trace, default=-1)
            assert top <= ref_top
            if isinstance(tree, FlagTree):
                assert top == ref_top
            if not alive:
                assert queried_death(tree, trace, length, value)


# binary string descriptors (length, value) up to length 10
descriptors = st.integers(min_value=0, max_value=10).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=(1 << n) - 1)))


def _outcome(call, *args):
    try:
        return call(*args)
    except BudgetExceeded:
        return BudgetExceeded


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(WALK_TREES), st.sampled_from(WALK_TREES),
       st.lists(descriptors, max_size=30), st.integers(min_value=1, max_value=30),
       st.integers(min_value=0, max_value=6))
def test_descriptor_view_matches_the_code_keyed_reference(t, s, queries, budget, k):
    # same answers, the same trace once coded, and the budget hit at the
    # same query
    view, ref = TracedTreeView(t, budget), CodeKeyedTreeView(t, budget)
    for length, value in queries:
        answer = _outcome(view.query, length, value)
        assert answer == _outcome(ref.query, length, value)
        assert {string_code(*d) for d in view.trace} == ref.trace
        if answer is BudgetExceeded:
            break

    # the same Xi, on the listed queries and on the frontier walk
    def phi(v, k):
        return [v.query(*d) for d in queries] + uwwkl_repr_bits(v, k)

    assert (_outcome(xi_by_tracing, phi, TracedTreeView(t, budget),
                     TracedTreeView(s, budget), k)
            == _outcome(reference_xi, phi, CodeKeyedTreeView(t, budget),
                        CodeKeyedTreeView(s, budget), k))


# ---------------------------------------------------------------------------
# intermediate value route

def test_ivt_base_shape():
    for q, value in (("0", "-1"), ("1/6", "-1/2"), ("1/3", "0"), ("1/2", "0"),
                     ("2/3", "0"), ("5/6", "1/2"), ("1", "1")):
        assert _ivt_base(Fraction(q)) == Fraction(value)
    for q in (Fraction(-1, 8), Fraction(9, 8)):
        with pytest.raises(OutOfRange, match=f"{q} outside"):
            _ivt_base(q)


def test_ivt_counterexample_shifts_by_epsilon():
    f = flag_with_event_at(3)
    plus = ivt_counterexample(f, "+")
    minus = ivt_counterexample(f, "-")
    assert plus.value_rule(Fraction(1, 2)).exact_value() == Fraction(1, 4)
    assert minus.value_rule(Fraction(1, 2)).exact_value() == Fraction(-1, 4)
    with pytest.raises(ValueError):
        ivt_counterexample(f, "?")


def test_bisection_finds_dyadic_roots_exactly():
    phi = uivt_from_mu(mu_exact)
    assert phi(ivt_base()).exact_value() == Fraction(1, 2)
    assert phi(ivt_counterexample(flag_with_event_at(3), "+")).exact_value() == Fraction(1, 4)
    assert phi(ivt_counterexample(flag_with_event_at(3), "-")).exact_value() == Fraction(3, 4)
    assert phi(ivt_counterexample(NO_EVENT, "+")).exact_value() == Fraction(1, 2)


@pytest.mark.parametrize("m0", [2, 4, 5])
@pytest.mark.parametrize("sign", ["+", "-"])
def test_bisection_tracks_closed_form_roots(m0, sign):
    phi = uivt_from_mu(mu_exact)
    root = phi(ivt_counterexample(flag_with_event_at(m0), sign))
    eps = Fraction(1, 1 << (m0 - 1))
    expected = (1 - eps) / 3 if sign == "+" else (2 + eps) / 3
    for n in range(4, 22):
        assert abs(root.approx(n) - expected) < Fraction(1, 1 << n)


def test_non_dyadic_roots_stay_approximate():
    phi = uivt_from_mu(mu_exact)
    root = phi(ivt_counterexample(flag_with_event_at(2), "+"))
    assert abs(root.approx(20) - Fraction(1, 6)) < Fraction(1, 1 << 20)
    with pytest.raises(UnsupportedPresentation):
        root.exact_value()


@pytest.mark.parametrize("m0", [0, 1])
@pytest.mark.parametrize("sign", ["+", "-"])
def test_shifted_families_leave_the_sign_condition(m0, sign):
    phi = uivt_from_mu(mu_exact)
    with pytest.raises(NotInCbar):
        phi(ivt_counterexample(flag_with_event_at(m0), sign))


def test_uivt_extraction_routes():
    fired = uivt_extraction(flag_with_event_at(3))
    assert fired.fired and fired.witness == 3
    assert fired.witness <= fired.search_bound
    assert abs(fired.details["root_plus"] - Fraction(1, 4)) <= Fraction(1, 16)
    assert abs(fired.details["root_minus"] - Fraction(3, 4)) <= Fraction(1, 16)
    calm = uivt_extraction(NO_EVENT)
    assert not calm.fired and calm.witness is None
    early = uivt_extraction(flag_with_event_at(1))
    assert early.fired and early.witness == 1 and early.xi_bound is None


def test_every_flag_shift_a_route_builds_moves_by_a_sign():
    # the reals ubin's pair, the two-bump heights and ivt's value rule
    # build, the last at each dyadic the ivt route probes through phi
    # and through Xi's table reads
    built = []

    def recording(fn):
        def rule(q):
            built.append(fn.value_rule(q))
            return built[-1]
        return RepresentedContinuousFunction(rule, fn.descriptor)

    fields = [getattr(uivt_extraction, name) for name in Route._fields]
    fields[Route._fields.index("pair")] = (
        lambda f: tuple(map(recording, uivt_extraction.pair(f))))
    ivt = Route(*fields)
    for f in (*map(flag_with_event_at, (2, 3, 7, 40)), NO_EVENT):
        before = len(built)
        assert ivt(f).witness == uivt_extraction(f).witness
        assert len(built) > before
        built += counterexample_pair(f)
        for bump in weierstrass_counterexample(f):
            built += [bump.left_height, bump.right_height]
    assert {type(x).__name__ for x in built} == {"PFlagShift"}
    assert {(type(x.sign), x.sign) for x in built} == {(int, 1), (int, -1)}


def test_table_view_codes_cells():
    # the base is 1 at dyadic point 1; row 0 reads 1, not above 2^0, and
    # row 1 certifies the sign
    view = TracedView(ivt_base())
    assert _sign_certified(view, dyadic_value(1)) == 1
    assert view.trace == {cantor_pair(1, 0), cantor_pair(1, 1)}


IVT_FUNCTIONS = {
    "base": ivt_base(),
    **{f"quiet{sign}": ivt_counterexample(NO_EVENT, sign) for sign in "+-"},
    **{f"event{m}{sign}": ivt_counterexample(flag_with_event_at(m), sign)
       for m in range(2, 8) for sign in "+-"},
}


@pytest.mark.parametrize("fn", list(IVT_FUNCTIONS.values()),
                         ids=list(IVT_FUNCTIONS))
def test_repr_endpoints_match_the_library_bisection(fn):
    table = uivt_repr_endpoints(TracedView(fn), 8)
    direct = uivt_from_mu(mu_exact)(fn)
    assert table == [direct.approx(n) for n in range(8)]


# the bisection on integers against the Fraction walk of tests/oracles.py:
# the same left endpoints and root flags stage by stage, the same probes,
# and the same ivt base at every probed point
_STAGES = _EXACT_ROOT_DEPTH + 8


def _walk(bisection, sign):
    probes = []

    def probing(p):
        probes.append(p)
        return sign(p)

    return list(islice(bisection(probing), _STAGES)), probes


def _same_walk(sign):
    stages, probes = _walk(_bisection, sign)
    assert (stages, probes) == _walk(reference_bisection, sign)
    for p in probes:
        assert _ivt_base(p) == reference_ivt_base(p)


_DEEP_COUNTEREXAMPLES = {
    f"event{m}{sign}": ivt_counterexample(flag_with_event_at(m), sign)
    for m in (20, 31, 100, 300) for sign in "+-"}


@pytest.mark.parametrize("fn", [*IVT_FUNCTIONS.values(),
                                *_DEEP_COUNTEREXAMPLES.values()],
                         ids=[*IVT_FUNCTIONS, *_DEEP_COUNTEREXAMPLES])
def test_bisection_on_integers_walks_as_on_fractions(fn):
    _same_walk(lambda p: real_sign(fn.value_rule(p)))


# dyadic points down to depth 30, which a probe lands on exactly, and
# other rationals, which none does
_dyadics = st.builds(lambda d, a: Fraction(a % ((1 << d) + 1), 1 << d),
                     st.integers(0, 30), st.integers(0, 1 << 30))
_points = st.one_of(_dyadics, unit_fractions)


@settings(max_examples=200, deadline=None)
@given(_points, _points)
def test_bisection_on_integers_walks_as_on_fractions_for_drawn_signs(a, b):
    # the sign is -1 below lo, 0 from lo to hi and 1 above hi
    lo, hi = min(a, b), max(a, b)
    _same_walk(lambda p: -1 if p < lo else 1 if p > hi else 0)



# the eager bisection root of tests/oracles.py against the lazy one.
# Functions: -a at 0, zero at one point or on a plateau, b at 1, with
# dyadic zeros at depths 1-30 (a probe lands on depth d at stage d, so
# past _EXACT_ROOT_DEPTH no presentation), non-dyadic zeros, the shifted
# route bases (a dyadic root at depth m - 1 for some events m), and
# functions outside the sign condition
def _bracketing(a, zeros, b):
    points = ((Fraction(0), a), *((z, Fraction(0)) for z in zeros),
              (Fraction(1), b))
    return piecewise_function(points, "pl")


_dyadic_zeros = st.integers(min_value=1, max_value=30).flatmap(
    lambda d: st.integers(min_value=0, max_value=(1 << (d - 1)) - 1).map(
        lambda k: Fraction(2 * k + 1, 1 << d)))
_other_zeros = st.fractions(min_value=0, max_value=1, max_denominator=60).filter(
    lambda z: z.denominator & (z.denominator - 1))
_zeros = st.one_of(_dyadic_zeros, _other_zeros)
_zero_sets = st.one_of(
    _zeros.map(lambda z: (z,)),
    st.sets(_zeros, min_size=2, max_size=2).map(lambda zs: tuple(sorted(zs))))
_ends = st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=16)
ivt_functions = st.one_of(
    st.builds(lambda a, zs, b: _bracketing(-a, zs, b), _ends, _zero_sets, _ends),
    st.builds(lambda m, sign: ivt_counterexample(flag_with_event_at(m), sign),
              st.integers(min_value=0, max_value=40), st.sampled_from("+-")),
    st.builds(ivt_counterexample, st.just(NO_EVENT), st.sampled_from("+-")),
    st.builds(_bracketing, _ends, _zero_sets, _ends),
)


def _read(call, *args):
    """What a call gives: its value, or its error's class and text."""
    try:
        return call(*args)
    except MulabError as e:
        return type(e), str(e)


def _depth(d):
    """A ramp whose zero 2^-d the bisection lands on at stage d."""
    return _bracketing(Fraction(-1), (Fraction(1, 1 << d),), Fraction(1))


@settings(max_examples=150, deadline=None)
@given(ivt_functions, st.permutations(range(41)), st.booleans(), unit_fractions)
@example(_depth(_EXACT_ROOT_DEPTH), list(range(41)), False, Fraction(0))
@example(_depth(_EXACT_ROOT_DEPTH + 1), list(range(41)), False, Fraction(0))
def test_lazy_roots_read_like_the_eager_reference(fn, order, decision_first, q):
    lazy = _read(uivt_from_mu(mu_exact), fn)
    eager = _read(reference_uivt_phi(mu_exact), fn)
    if not isinstance(eager, FastCauchyReal):
        assert lazy == eager  # NotInCbar, raised by phi itself
        return
    if decision_first:
        assert _read(lazy.exact_value) == _read(eager.exact_value)
    assert [lazy.approx(n) for n in order] == [eager.approx(n) for n in order]
    assert _read(lazy.exact_value) == _read(eager.exact_value)
    for y in (from_rational(q), from_rational(eager.approx(40))):
        assert _read(real_eq, lazy, y) == _read(real_eq, eager, y)
        assert _read(real_lt, lazy, y) == _read(real_lt, eager, y)
        assert _read(real_lt, y, lazy) == _read(real_lt, y, eager)


def counting(mu):
    """mu, and the list of the flags it is called on."""
    calls = []

    def counted(f):
        calls.append(f)
        return mu(f)

    return counted, calls


CALL_EVENTS = (2, 3, 5, 18, 27, 64, 250)


@pytest.mark.parametrize("f", [NO_EVENT, *map(flag_with_event_at, CALL_EVENTS)],
                         ids=["quiet", *(f"event{m}" for m in CALL_EVENTS)])
def test_an_ivt_call_runs_only_the_stages_it_reads(f):
    # each phi: two calls for the sign condition, one per stage up to
    # the precision the route reads (the eager phi ran 24 stages)
    mu, calls = counting(mu_exact)
    report = uivt_extraction(f, phi=uivt_from_mu(mu))
    assert report.witness == mu_exact(f)
    assert len(calls) <= 2 * (2 + _ROOT_PRECISION)
    # an exact decision runs the rest, once
    root, before = report.details["r_plus"], len(calls)
    decision = _read(root.exact_value)
    assert len(calls) - before <= _EXACT_ROOT_DEPTH - _ROOT_PRECISION
    before = len(calls)
    assert _read(root.exact_value) == decision
    assert len(calls) == before


def test_printing_a_root_calls_no_mu():
    # the root of event 18 has not landed by the stages the route reads
    mu, calls = counting(mu_exact)
    report = uivt_extraction(flag_with_event_at(18), phi=uivt_from_mu(mu))
    before = len(calls)
    text = repr(report.details["r_plus"])
    assert len(calls) == before
    assert text.startswith("_Bisection(stage=")


def test_ivt_over_the_corpus_counts_its_calls_of_mu():
    # 1,872 calls while phi ran 24 stages up front
    mu, calls = counting(mu_exact)
    for f in flag_corpus(seed=0):
        assert uivt_extraction(f, phi=uivt_from_mu(mu)).witness == mu_exact(f)
    assert len(calls) == 772


def test_ivt_composed_with_itself_recovers_the_search():
    # the outer phi is built from the search the inner route recovers;
    # 76,392 base calls while phi ran 24 stages up front
    mu, calls = counting(mu_exact)
    phi = uivt_from_mu(mu_from(uivt_extraction, uivt_from_mu(mu)))
    for f in flag_corpus(seed=0):
        assert uivt_extraction(f, phi=phi).witness == mu_exact(f)
    assert len(calls) == 7640

def test_table_view_builds_each_point_once():
    fn = ivt_counterexample(flag_with_event_at(5), "+")
    built = []

    def rule(q):
        built.append(q)
        return fn.value_rule(q)

    view = TracedView(RepresentedContinuousFunction(rule, fn.descriptor))
    uivt_repr_endpoints(view, 12)
    cells = [cantor_unpair(c) for c in view.trace]
    assert len(built) == len(set(built))
    assert {i for i, _ in cells} <= {dyadic_index(q) for q in built}
    assert len(cells) > len(built)  # several precision rows per point


def test_uivt_xi_agrees_for_identical_tables():
    xi = uivt_extraction.xi
    a = ivt_counterexample(PresentedSequence((), (1,)), "+")
    b = ivt_counterexample(PresentedSequence((), (2,)), "+")
    k = xi(a, b, 6)
    ea = uivt_repr_endpoints(TracedView(a), 6)
    eb = uivt_repr_endpoints(TracedView(b), 6)
    assert ea == eb
    assert k >= 0


@settings(max_examples=40, deadline=None)
@given(deep_flags, st.sampled_from("+-"), st.integers(min_value=1, max_value=6))
def test_repr_endpoints_match_the_fraction_reference(f, sign, k):
    fn = ivt_counterexample(f, sign)
    view, ref = TracedView(fn), TracedView(fn)
    assert uivt_repr_endpoints(view, k) == reference_ivt_endpoints(ref, k)
    assert view.trace == ref.trace


@pytest.mark.parametrize("n", [0, 1, 5])
def test_sign_certified_decides_each_row_like_the_fraction_form(n):
    # rows below n read 0 and decide nothing; row n reads q; later rows
    # read the exact value, of the opposite sign to q
    p = Fraction(1, 4)
    for q in boundary_gaps(n):
        exact = Fraction(-7) if q >= 0 else Fraction(7)
        rows = {j: Fraction(0) for j in range(n)} | {n: q}
        real = PColumn(PRational(exact), column(rows, exact))
        fn = RepresentedContinuousFunction(lambda _, real=real: real, "column")
        view, ref = TracedView(fn), TracedView(fn)
        eps = Fraction(1, 1 << n)
        decided = q > eps or q < -eps
        sign = _sign_certified(view, p)
        assert sign == reference_sign_certified(ref, p)
        assert sign == ((q > 0) - (q < 0) if decided else (exact > 0) - (exact < 0))
        assert view.trace == ref.trace
        assert len(view.trace) == (n + 1 if decided else n + 2)


def test_sign_certified_stops_on_a_column_that_contradicts_the_value():
    # every row reads 0, so none certifies the sign of the exact value 1/4
    real = PColumn(PRational(Fraction(1, 4)), lambda n: Fraction(0))
    fn = RepresentedContinuousFunction(lambda _: real, "column")
    view = TracedView(fn)
    with pytest.raises(BoundViolation, match="no row up to 76 certifies"):
        _sign_certified(view, Fraction(1, 2))
    assert len(view.trace) == 77


# ---------------------------------------------------------------------------
# maximum location route

def test_two_bump_heights_and_argmax():
    f = flag_with_event_at(3)
    plus, minus = weierstrass_counterexample(f)
    assert plus.left_height.exact_value() == Fraction(5, 4)
    assert plus.right_height.exact_value() == Fraction(3, 4)
    assert plus.argmax() == Fraction(1, 4)
    assert minus.argmax() == Fraction(3, 4)


def test_two_bump_argmax_ties_left_without_event():
    plus, minus = weierstrass_counterexample(NO_EVENT)
    assert plus.argmax() == minus.argmax() == Fraction(1, 4)
    assert plus.left_height.exact_value() == plus.right_height.exact_value() == 1


# the flag-shifted reals against the routes' own spellings of them in
# tests/oracles.py: the same rows and exact values for the two-bump
# heights, the ubin pair and the ivt values at breakpoints and between
# them, and the same error past [0, 1]
_BREAKPOINTS = [Fraction(q) for q in ("0", "1/4", "1/3", "1/2", "2/3", "3/4", "1")]
_outside = st.one_of(
    st.fractions(min_value=-4, max_value=0, max_denominator=64).filter(lambda q: q < 0),
    st.fractions(min_value=1, max_value=5, max_denominator=64).filter(lambda q: q > 1))


def _same_real(new, old):
    assert [new.approx(n) for n in range(31)] == [old.approx(n) for n in range(31)]
    assert new.exact_value() == old.exact_value()


@settings(max_examples=200, deadline=None)
@given(st.one_of(flags, deep_flags), st.sampled_from([1, -1]),
       st.one_of(st.sampled_from(_BREAKPOINTS), unit_fractions), _outside)
def test_flag_shifts_build_the_routes_old_objects(f, sign, q, outside):
    mode = "+" if sign > 0 else "-"
    bump = weierstrass_counterexample(f)[0 if sign > 0 else 1]
    old_bump = reference_two_bump(f, sign)
    _same_real(bump.left_height, old_bump.left_height)
    _same_real(bump.right_height, old_bump.right_height)
    new, old = ivt_counterexample(f, mode), reference_ivt_counterexample(f, mode)
    assert new.descriptor == old.descriptor
    _same_real(new.value_rule(q), old.value_rule(q))
    assert _read(new.value_rule, outside) == _read(old.value_rule, outside) == (
        OutOfRange, f"{outside} outside [0,1]")
    for new, old in zip(counterexample_pair(f), reference_ubin_pair(f)):
        _same_real(new, old)


# ---------------------------------------------------------------------------
# rational dichotomy route

def test_udq_witness_certificates():
    phi = udq_from_mu(mu_exact)
    answer = phi(dq_real(PresentedSequence((0, 0, 5), (1,))))
    assert answer == RationalWitness(Fraction(3, 4), "dq-series")
    assert phi(from_rational(Fraction(2, 7))).certificate == "rational"
    assert phi(flag_shifted(Fraction(1, 2), -1, NO_EVENT)).certificate == "sum"


def test_udq_extraction_decodes_the_first_nonzero():
    report = udq_extraction(PresentedSequence((0, 0, 5), (1,)))
    assert report.fired and report.witness == 2
    assert report.search_bound == 2
    assert report.details["witness_value"] == Fraction(3, 4)
    immediate = udq_extraction(PresentedSequence((7,), (1,)))
    assert immediate.fired and immediate.witness == 0
    silent = udq_extraction(PresentedSequence((), (0,)))
    assert not silent.fired and silent.details["witness_value"] == 1


def test_udq_rejects_malformed_witnesses():
    # dq reals lie in [0, 1]; a witness above 1 is not of the form 1 - 2^-m
    with pytest.raises(MalformedWitness):
        udq_extraction(NO_EVENT, phi=lambda x: RationalWitness(Fraction(3, 2), "fake"))
    with pytest.raises(MalformedWitness):
        udq_extraction(NO_EVENT, phi=lambda x: RationalWitness(Fraction(1, 3), "fake"))
    with pytest.raises(MalformedWitness):
        udq_extraction(PresentedSequence((0, 0, 5), (1,)),
                       phi=lambda x: RationalWitness(Fraction(1, 2), "fake"))
    # index 2 is nonzero, but index 0 is nonzero before it
    with pytest.raises(MalformedWitness, match="decoded index 2 is not"):
        udq_extraction(PresentedSequence((5, 0, 5), (1,)),
                       phi=lambda x: RationalWitness(Fraction(3, 4), "fake"))


# ---------------------------------------------------------------------------
# round trips through every route

@settings(max_examples=60, deadline=None)
@given(flags)
def test_all_routes_recover_the_exact_search(f):
    assert mu_from(ubin_extraction, ubin_from_mu(mu_exact))(f) == mu_exact(f)
    assert mu_from(uwwkl_extraction, uwwkl_from_mu(mu_exact))(f) == mu_exact(f)
    assert mu_from(uivt_extraction, uivt_from_mu(mu_exact))(f) == mu_exact(f)
    assert mu_from(udq_extraction, udq_from_mu(mu_exact))(f) == f.first_nonzero


@pytest.mark.parametrize("m", [400, 1000])
def test_routes_read_the_flag_linearly_in_the_event(monkeypatch, m):
    # the routes ask the flag only bounded questions and read none of its
    # values; the reads counted here are wwkl's two paths' first bits,
    # and the event itself is found once per flag, not once per
    # approximation
    value = PresentedSequence.value
    calls = [0]

    def counting_value(self, n):
        calls[0] += 1
        return value(self, n)

    monkeypatch.setattr(PresentedSequence, "value", counting_value)
    for route in (ubin_extraction, uwwkl_extraction, uivt_extraction):
        calls[0] = 0
        report = route(flag_with_event_at(m))
        assert report.witness == m
        assert calls[0] <= m + 3, route.name
    assert udq_extraction(PresentedSequence((0,) * m, (1,))).witness == m


@pytest.mark.parametrize("m", [400, 1000])
@pytest.mark.parametrize("route", [ubin_extraction, uwwkl_extraction,
                                   uivt_extraction], ids=["ubin", "wwkl", "ivt"])
def test_routes_read_at_most_three_flag_values(monkeypatch, route, m):
    # ubin and ivt settle indices 0 and 1 by asking for a zero below 2;
    # past them a route asks the flag where its first zero below the
    # search bound is, and its pairs ask where the first zero below a
    # row's horizon is, so no value of the flag is read however far the
    # event lies
    f = flag_with_event_at(m)
    value = PresentedSequence.value
    reads = []

    def counting_value(self, n):
        if self is f:
            reads.append(n)
        return value(self, n)

    monkeypatch.setattr(PresentedSequence, "value", counting_value)
    assert route(f).witness == m
    assert reads == [], reads


@pytest.mark.parametrize("route,m,records,cells,xi_bound,search_bound", [
    (uivt_extraction, 200, 812, 611, 21729, 21731),
    (uivt_extraction, 1000, 4012, 3011, 508529, 508531),
    (ubin_extraction, 200, 401, 201, 201, 203),
    (ubin_extraction, 1000, 2001, 1001, 1001, 1003),
    (uwwkl_extraction, 200, 399, 399, 2 ** 201 - 1, 200),
    (uwwkl_extraction, 1000, 1999, 1999, 2 ** 1001 - 1, 1000),
], ids=["ivt-200", "ivt-1000", "ubin-200", "ubin-1000", "wwkl-200", "wwkl-1000"])
def test_column_routes_read_pinned_cells(monkeypatch, route, m, records, cells,
                                         xi_bound, search_bound):
    # every precision row (for wwkl, every tree string) the algorithm
    # needs is read, and read as often as it ever was: a change that
    # skips or repeats reads moves these.  Cells are counted as they are
    # handed to a trace, repeats included: one per _record call (wwkl,
    # single reads) and size per _record_cells call (the column readers
    # of ivt and ubin, a run of rows at a time).  A run that crosses a
    # budget falls back to _record and would be counted twice, but no
    # route run here comes near its budget
    record, record_cells = TracedView._record, TracedView._record_cells
    calls, views = [0], []

    def seen(view, size):
        calls[0] += size
        if view not in views:
            views.append(view)

    def counting_record(self, i):
        seen(self, 1)
        record(self, i)

    def counting_record_cells(self, cells, size):
        seen(self, size)
        record_cells(self, cells, size)

    monkeypatch.setattr(TracedView, "_record", counting_record)
    monkeypatch.setattr(TracedView, "_record_cells", counting_record_cells)
    report = route(PresentedSequence((1,) * m + (0,), (1,)))
    assert report.witness == m
    assert calls[0] == records
    assert len(set().union(*(view.trace for view in views))) == cells
    assert (report.xi_bound, report.search_bound) == (xi_bound, search_bound)


def test_the_search_looks_no_further_than_its_bound():
    # ubin with a bound that falls short of the event: Xi is 51 at event
    # 50, so the search asks below 26 and finds no zero there
    fields = [getattr(ubin_extraction, name) for name in Route._fields]
    short = Route(*fields[:-1], lambda n: n // 2)
    with pytest.raises(BoundViolation, match="no zero of .* below 25$"):
        short(flag_with_event_at(50))


def test_bound_violation_surfaces_for_a_lying_oracle():
    # digits that differ while the flag never fires cannot be certified
    class FakeExpansion:
        def __init__(self, d):
            self._d = d

        def digit(self, n):
            return self._d

    calls = []

    def lying_phi(x):
        calls.append(x)
        return FakeExpansion(len(calls) % 2)

    with pytest.raises(BoundViolation):
        ubin_extraction(NO_EVENT, phi=lying_phi)
