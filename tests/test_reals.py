from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mulab.errors import BoundViolation
from mulab.extractors import _Bisection
from mulab.reals import (
    FastCauchyReal,
    PDqSeries,
    PFlagShift,
    PRational,
    counterexample_pair,
    dq_real,
    flag_shifted,
    from_rational,
    real_eq,
    real_lt,
    real_sign,
    to_decimal,
)
from mulab.sequences import PresentedSequence, mu_exact

from oracles import (
    PColumn,
    PCumFlagSeries,
    PScale,
    PSum,
    delta_sum,
    dq_series_approx,
    dq_sum,
    flag_series_approx,
    scan_first_nonzero,
    scan_first_zero,
)
from test_extractors import counting, deep_flags

small_nat = st.integers(min_value=0, max_value=4)
flags = st.tuples(
    st.lists(small_nat, max_size=6).map(tuple),
    st.lists(small_nat, min_size=1, max_size=4).map(tuple),
).map(lambda pt: PresentedSequence(pt[0], pt[1]))

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=16)
signs = st.sampled_from([1, -1])

presented_reals = st.one_of(
    rationals.map(from_rational),
    st.builds(flag_shifted, rationals, signs, flags),
    flags.map(dq_real),
)


@settings(max_examples=200)
@given(presented_reals, st.integers(min_value=0, max_value=24),
       st.integers(min_value=0, max_value=24))
def test_fast_convergence_is_strict(x, n, i):
    assert abs(x.approx(n) - x.approx(n + i)) < Fraction(1, 1 << n)


@settings(max_examples=200)
@given(presented_reals, st.integers(min_value=0, max_value=24))
def test_approximations_settle_on_the_exact_value(x, n):
    assert abs(x.exact_value() - x.approx(n)) <= Fraction(1, 1 << (n + 1))


@given(flags)
def test_flag_shift_value_matches_term_by_term_sum(f):
    x = flag_shifted(Fraction(1, 2), 1, f)
    expected = Fraction(1, 2) + delta_sum(f.values(f.horizon + 2), terms=96)
    assert x.exact_value() == expected


@given(flags)
def test_dq_value_matches_term_by_term_sum(f):
    expected = dq_sum(f.values(f.horizon + 2), terms=96)
    assert dq_real(f).exact_value() == expected


@given(flags)
def test_cached_events_match_a_direct_scan(f):
    window = f.values(f.horizon + 2 * len(f.tail))
    assert f.first_zero == scan_first_zero(window)
    assert f.first_nonzero == scan_first_nonzero(window)


@settings(max_examples=200)
@given(flags, st.integers(min_value=0, max_value=12),
       st.lists(small_nat, max_size=4), st.lists(small_nat, min_size=1, max_size=3))
def test_series_approximations_read_only_two_indices_past_n(f, n, junk, tail):
    seen = f.values(n + 2)
    altered = PresentedSequence(tuple(seen + junk), tuple(tail))
    for g in (f, altered):
        assert PCumFlagSeries(g).run(n, n + 1)[0] == flag_series_approx(seen)
        assert PDqSeries(g).run(n, n + 1)[0] == dq_series_approx(seen)


@settings(max_examples=200)
@given(flags, st.integers(min_value=0, max_value=12), rationals, signs,
       st.lists(small_nat, max_size=4), st.lists(small_nat, min_size=1, max_size=3))
def test_flag_shift_rows_read_only_the_flag_below_n_plus_4(
        f, n, base, sign, junk, tail):
    x = PFlagShift(base, sign, f)
    seen = f.values(n + 4)
    altered = PresentedSequence(tuple(seen + junk), tuple(tail))
    expected = base + sign * flag_series_approx(seen)
    row = PFlagShift(base, sign, altered).run(n, n + 1)[0]
    assert x.run(n, n + 1)[0] == row == expected


def test_every_presentation_gives_its_rows_through_run_alone():
    # a real is its presentation, and a presentation gives its rows
    # through run alone: an approx of its own would be a second path,
    # and one that skipped the base's approx and exact_value would
    # skip the negative-row check and the tracer's counts
    kinds, stack = set(), [FastCauchyReal]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if cls.__module__.startswith("mulab."):
                kinds.add(cls)
    assert kinds == {PRational, PFlagShift, PDqSeries, _Bisection}
    for cls in kinds:
        assert {"run", "_exact", "tag"} <= vars(cls).keys(), cls.__name__
        assert not {"approx", "exact_value"} & vars(cls).keys(), cls.__name__
    assert {"approx", "exact_value"} <= vars(FastCauchyReal).keys()
    assert FastCauchyReal._fields == ()


@settings(max_examples=300, deadline=None)
@given(st.one_of(flags, deep_flags), rationals, signs)
def test_a_flag_shift_reads_like_the_reference_sum_and_scale(f, base, sign):
    new = PFlagShift(base, sign, f)
    scale = PScale(sign, PCumFlagSeries(f))
    old = PSum(PRational(base), scale)
    assert scale.shift == 0  # a scaling by +-1 reads its rows unshifted
    event = f.first_zero
    rows = range((f.horizon if event is None else event) + 9)
    assert ([new.run(n, n + 1)[0] for n in rows]
            == [old.run(n, n + 1)[0] for n in rows])
    mu_new, calls_new = counting(mu_exact)
    mu_old, calls_old = counting(mu_exact)
    assert new.exact_value(mu_new) == old.exact_value(mu_old)
    assert calls_new == calls_old == [f]
    assert flag_shifted(base, sign, f) == new


def test_counterexample_pair_for_an_event_at_three():
    f = PresentedSequence((1, 1, 1), (0,))
    lo, hi = counterexample_pair(f)
    assert lo.exact_value() == Fraction(1, 4)
    assert hi.exact_value() == Fraction(3, 4)
    assert hi.approx(20) == Fraction(3, 4)


def test_counterexample_pair_for_an_immediate_event():
    f = PresentedSequence((0,), (1,))
    lo, hi = counterexample_pair(f)
    assert lo.exact_value() == Fraction(-1, 2)
    assert hi.exact_value() == Fraction(3, 2)


def test_counterexample_pair_without_an_event_collapses():
    f = PresentedSequence((), (2,))
    lo, hi = counterexample_pair(f)
    assert lo.exact_value() == hi.exact_value() == Fraction(1, 2)
    assert real_eq(lo, hi)
    assert not real_lt(lo, hi)


def test_real_lt_rejects_approximations_that_never_show_the_gap():
    # the exact values say 0 < 1, but every approximation of x reads 5
    liar = PColumn(PRational(Fraction(0)), lambda n: Fraction(5))
    with pytest.raises(BoundViolation, match="gap witness search"):
        real_lt(liar, from_rational(1))


@pytest.mark.parametrize("n", [1, 2, 6])
def test_real_lt_decides_each_row_like_the_fraction_form(n):
    # x reads y's value on every row but n, where it reads y - gap: the
    # gap is a witness exactly when y_n > x_n + 2^-(n-1)
    eps = Fraction(1, 1 << (n - 1))
    for gap in (Fraction(0), eps / 3, eps, eps + eps / 8, 2 * eps, -eps, -2 * eps):
        x = PColumn(PRational(Fraction(0)),
                    lambda j, gap=gap: 1 - gap if j == n else 1)
        if x.approx(n) + eps < 1:
            assert real_lt(x, from_rational(1))
        else:
            with pytest.raises(BoundViolation, match="gap witness search"):
                real_lt(x, from_rational(1))


@given(flags)
def test_pair_is_strictly_ordered_exactly_when_the_event_fires(f):
    lo, hi = counterexample_pair(f)
    fired = 0 in f.values(f.horizon + 1)
    assert real_lt(lo, hi) is fired
    assert real_eq(lo, hi) is (not fired)
    assert not real_lt(hi, lo)


def test_dq_spot_values():
    assert dq_real(PresentedSequence((0, 0, 5), (1,))).exact_value() == Fraction(3, 4)
    assert dq_real(PresentedSequence((7,), (1,))).exact_value() == 0
    assert dq_real(PresentedSequence((), (0,))).exact_value() == 1


def test_sum_and_scale_are_exact():
    # base + sign * epsilon, with epsilon 1/2 for an event at 2
    f = PresentedSequence((1, 1), (0,))
    for sign in (1, -1):
        x = flag_shifted(Fraction(1, 3), sign, f)
        assert x.exact_value() == Fraction(1, 3) + sign * Fraction(1, 2)
        assert x.approx(0) == x.exact_value()
        y = flag_shifted(Fraction(1, 3), sign, PresentedSequence((), (1,)))
        assert y.exact_value() == y.approx(0) == Fraction(1, 3)


@pytest.mark.parametrize("sign", [0, 2, -3, Fraction(1, 2), "+"])
def test_flag_shifted_refuses_a_sign_other_than_plus_or_minus_one(sign):
    with pytest.raises(ValueError, match="sign must be 1 or -1"):
        flag_shifted(Fraction(1, 2), sign, PresentedSequence((1,), (0,)))


def test_flag_shifted_keeps_its_sign_as_an_int():
    f = PresentedSequence((1,), (0,))
    for sign in (1, -1, Fraction(-1), True):
        x = flag_shifted(0, sign, f)
        assert type(x.sign) is int and x.sign == sign
    assert PFlagShift._fields == ("base", "sign", "flag")
    assert "__init__" not in vars(PFlagShift)
    assert not hasattr(x, "shift")


def test_real_sign():
    assert real_sign(from_rational(0)) == 0
    assert real_sign(from_rational("-2/7")) == -1
    assert real_sign(dq_real(PresentedSequence((), (0,)))) == 1


def test_from_rational_accepts_int_and_str():
    assert from_rational(2).exact_value() == 2
    assert from_rational("5/8").exact_value() == Fraction(5, 8)


def test_to_decimal_spot_values():
    assert to_decimal(from_rational("3/4")) == "0.75000000"
    assert to_decimal(from_rational("1/3"), digits=5) == "0.33333"
    assert to_decimal(from_rational("2/3"), digits=5) == "0.66667"
    assert to_decimal(from_rational("-1/8"), digits=3) == "-0.125"
    assert to_decimal(from_rational(0), digits=2) == "0.00"
    # no digits: the rounded integer alone, with no point
    assert to_decimal(from_rational("3/2"), digits=0) == "2"
    assert to_decimal(from_rational("-1/4"), digits=0) == "0"


@pytest.mark.parametrize("digits", [-1, 2.5])
def test_to_decimal_refuses_a_digit_count_that_is_not_natural(digits):
    with pytest.raises(ValueError, match="digits must be a natural number"):
        to_decimal(from_rational("1/3"), digits)


def test_to_decimal_reads_a_bool_digit_count_as_its_int():
    assert to_decimal(from_rational("1/3"), True) == "0.3"
    assert to_decimal(from_rational("3/2"), False) == "2"


@given(rationals, st.integers(min_value=1, max_value=10))
def test_to_decimal_matches_round_half_up(q, digits):
    shown = to_decimal(from_rational(q), digits=digits)
    scaled = q * 10**digits
    whole = (scaled.numerator * 2 + scaled.denominator) // (2 * scaled.denominator)
    assert Fraction(shown) == Fraction(whole, 10**digits)


def test_negative_precision_rejected():
    with pytest.raises(ValueError):
        from_rational(1).approx(-1)


def test_every_kind_refuses_a_negative_row_in_approx():
    # approx is the one check: run leaves 0 <= n < stop to its callers
    for x in (from_rational(1),
              flag_shifted(Fraction(1, 2), -1, PresentedSequence((1, 0), (1,))),
              dq_real(PresentedSequence((0, 5), (1,))),
              _Bisection(lambda n: (Fraction(1, 2), True), "bisect(1/2)")):
        with pytest.raises(ValueError, match="negative precision index"):
            x.approx(-1)
