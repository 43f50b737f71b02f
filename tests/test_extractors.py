from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mulab.coding import cantor_pair, rational_code
from mulab.errors import (
    BoundViolation,
    MalformedWitness,
    NotInCbar,
    OutOfRange,
    UnsupportedPresentation,
)
from mulab.extractors import (
    BinaryExpansion,
    Irrational,
    PiecewiseLinear,
    RationalWitness,
    TracedTableView,
    _branch_alive_certified,
    flag_epsilon,
    ivt_base,
    ivt_counterexample,
    make_ubin_xi,
    make_uivt_xi,
    make_uwwkl_xi,
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
from mulab.functionals import DEFAULT_BUDGET, TracedRealView, xi_by_tracing
from mulab.reals import dq_real, dyadic_flag_real, from_rational
from mulab.sequences import PresentedSequence, first_nonzero, mu_exact
from mulab.trees import (
    FlagTree,
    FullTree,
    PathTree,
    TracedTreeView,
    Truncation,
    format_tree,
)

from oracles import binary_digits, queried_death, reference_branch_alive

unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=64)
flags = st.tuples(
    st.lists(st.integers(min_value=0, max_value=3), max_size=6).map(tuple),
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4).map(tuple),
).map(lambda pt: PresentedSequence(pt[0], pt[1]))


def flag_with_event_at(m0: int) -> PresentedSequence:
    return PresentedSequence((1,) * m0, (0,))


NO_EVENT = PresentedSequence((), (1,))


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
    partial = expansion.partial_sum(k)
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
    x = dyadic_flag_real(flag_with_event_at(3), "+")  # 3/4
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
    x = dyadic_flag_real(flag_with_event_at(3), "+")
    view = TracedRealView(x)
    assert ubin_repr_digits(view, 3) == [1, 1, 0]
    assert view.trace


def test_ubin_repr_digits_tie_needs_no_queries():
    # both present the same column of constant 1/2 approximations, and
    # the tie digit itself is settled without touching the column
    twins = [from_rational(Fraction(1, 2)), dyadic_flag_real(NO_EVENT, "+")]
    outputs = []
    for x in twins:
        view = TracedRealView(x)
        assert ubin_repr_digits(view, 1) == [1]
        assert view.trace == set()
        view.reset()
        outputs.append(ubin_repr_digits(view, 6))
    assert outputs[0] == outputs[1] == [1, 0, 0, 0, 0, 0]


def test_ubin_xi_is_a_nonnegative_bound():
    xi = make_ubin_xi()
    lo, hi = from_rational(Fraction(1, 3)), from_rational(Fraction(2, 3))
    assert isinstance(xi(lo, hi, 4), int)
    assert xi(lo, hi, 4) >= 0


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
    xi = make_uwwkl_xi()
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
    view = TracedTreeView(tree)
    return decide(view, length, value), view.trace


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


# ---------------------------------------------------------------------------
# intermediate value route

def test_piecewise_linear_evaluation():
    pl = PiecewiseLinear(((Fraction(0), Fraction(-1)),
                          (Fraction(1, 2), Fraction(1)),
                          (Fraction(1), Fraction(0))))
    assert pl.value(Fraction(0)) == -1
    assert pl.value(Fraction(1, 4)) == 0
    assert pl.value(Fraction(3, 4)) == Fraction(1, 2)
    assert pl.slope_bound() == 4
    with pytest.raises(OutOfRange):
        pl.value(Fraction(9, 8))


@pytest.mark.parametrize("points", [
    ((Fraction(0), Fraction(0)),),
    ((Fraction(1, 4), Fraction(0)), (Fraction(1), Fraction(1))),
    ((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1))),
    ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))),
])
def test_piecewise_linear_rejects_bad_breakpoints(points):
    with pytest.raises(ValueError):
        PiecewiseLinear(points)


def test_ivt_base_shape():
    base = ivt_base()
    assert base.value_at(Fraction(0)) == -1
    assert base.value_at(Fraction(1, 3)) == 0
    assert base.value_at(Fraction(1, 2)) == 0
    assert base.value_at(Fraction(2, 3)) == 0
    assert base.value_at(Fraction(1)) == 1
    assert base.value_at(Fraction(1, 6)) == Fraction(-1, 2)


def test_ivt_counterexample_shifts_by_epsilon():
    f = flag_with_event_at(3)
    plus = ivt_counterexample(f, "+")
    minus = ivt_counterexample(f, "-")
    assert plus.value_at(Fraction(1, 2)) == Fraction(1, 4)
    assert minus.value_at(Fraction(1, 2)) == Fraction(-1, 4)
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


def test_table_view_codes_cells():
    view = TracedTableView(ivt_base())
    q = view.entry(1, 3)  # dyadic point index 1 at precision 3
    assert isinstance(q, Fraction)
    assert cantor_pair(1, 3) in view.trace
    assert view.query(cantor_pair(1, 3)) == rational_code(q)


def test_repr_endpoints_match_the_library_bisection():
    fn = ivt_counterexample(flag_with_event_at(3), "+")
    table = uivt_repr_endpoints(TracedTableView(fn), 8)
    direct = uivt_from_mu(mu_exact)(fn)
    assert table == [direct.approx(n) for n in range(8)]


def test_uivt_xi_agrees_for_identical_tables():
    xi = make_uivt_xi()
    a = ivt_counterexample(PresentedSequence((), (1,)), "+")
    b = ivt_counterexample(PresentedSequence((), (2,)), "+")
    k = xi(a, b, 6)
    ea = uivt_repr_endpoints(TracedTableView(a), 6)
    eb = uivt_repr_endpoints(TracedTableView(b), 6)
    assert ea == eb
    assert k >= 0


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


def test_two_bump_values():
    plus, _ = weierstrass_counterexample(flag_with_event_at(3))
    fn = plus.fn
    assert fn.value_at(Fraction(0)) == 0
    assert fn.value_at(Fraction(1, 2)) == 0
    assert fn.value_at(Fraction(1)) == 0
    assert fn.value_at(Fraction(1, 4)) == Fraction(5, 4)
    assert fn.value_at(Fraction(3, 4)) == Fraction(3, 4)
    assert fn.value_at(Fraction(1, 8)) == Fraction(5, 8)
    with pytest.raises(OutOfRange):
        fn.value_at(Fraction(-1, 8))


# ---------------------------------------------------------------------------
# rational dichotomy route

def test_udq_witness_certificates():
    phi = udq_from_mu(mu_exact)
    answer = phi(dq_real(PresentedSequence((0, 0, 5), (1,))))
    assert answer == RationalWitness(Fraction(3, 4), "dq-series")
    assert phi(from_rational(Fraction(2, 7))).certificate == "rational"


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
    with pytest.raises(MalformedWitness):
        udq_extraction(NO_EVENT, phi=lambda x: Irrational())
    with pytest.raises(MalformedWitness):
        udq_extraction(NO_EVENT, phi=lambda x: RationalWitness(Fraction(1, 3), "fake"))
    with pytest.raises(MalformedWitness):
        udq_extraction(PresentedSequence((0, 0, 5), (1,)),
                       phi=lambda x: RationalWitness(Fraction(1, 2), "fake"))


# ---------------------------------------------------------------------------
# round trips through every route

@settings(max_examples=60, deadline=None)
@given(flags)
def test_all_routes_recover_the_exact_search(f):
    assert mu_from(ubin_extraction, ubin_from_mu(mu_exact))(f) == mu_exact(f)
    assert mu_from(uwwkl_extraction, uwwkl_from_mu(mu_exact))(f) == mu_exact(f)
    assert mu_from(uivt_extraction, uivt_from_mu(mu_exact))(f) == mu_exact(f)
    assert mu_from(udq_extraction, udq_from_mu(mu_exact))(f) == first_nonzero(f)


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
        ubin_extraction(NO_EVENT, phi=lying_phi, xi=lambda x, y, k: 0)
