"""Approximation columns read by runs of equal rows.

``run(n, stop)`` gives row n and the end of the run of rows equal to it.
It is the only way a real gives its rows: ``FastCauchyReal.approx(n)``
is row n of ``run(n, n + 1)``, and the column readers of the ivt and
ubin routes (``_sign_certified`` and ``_reaches``) decide a whole run at
once.
These tests hold every row of a run, on every presentation kind and on
a column given by a rule beside its value (PColumn), to a column worked
out independently in tests/oracles.py,
and hold the run readers to the row-by-row references there: the same
answer, the same trace, and under a budget the same error at the same
cell.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mulab.coding import dyadic_value
from mulab.errors import BudgetExceeded
from mulab.extractors import (
    RepresentedContinuousFunction,
    _reaches,
    _sign_certified,
    ivt_counterexample,
    ubin_repr_digits,
    uivt_repr_endpoints,
)
from mulab.functionals import DEFAULT_BUDGET, TracedView
from mulab.reals import (
    FastCauchyReal,
    PDqSeries,
    PFlagShift,
    PRational,
    counterexample_pair,
)
from mulab.sequences import PresentedSequence, mu_exact

from oracles import (
    PColumn,
    PCumFlagSeries,
    PScale,
    PSum,
    dq_series_approx,
    reference_ivt_endpoints,
    reference_reaches,
    reference_sign_certified,
    reference_ubin_digits,
)
from test_extractors import deep_flags

small_nat = st.integers(min_value=0, max_value=3)
short_flags = st.builds(
    lambda prefix, tail: PresentedSequence(tuple(prefix), tuple(tail)),
    st.lists(small_nat, max_size=8), st.lists(small_nat, min_size=1, max_size=3))
flags = st.one_of(short_flags, deep_flags)

# dyadics hit the row ties |q_n| = 2^-n and q_n - t = 2^-n exactly
dyadics = st.builds(lambda a, k: Fraction(a, 1 << k),
                    st.integers(min_value=-8, max_value=8),
                    st.integers(min_value=0, max_value=12))
rationals = st.one_of(dyadics, st.fractions(min_value=-2, max_value=2,
                                            max_denominator=24))
signs = st.sampled_from([1, -1])

presentations = st.one_of(
    rationals.map(PRational),
    st.builds(PFlagShift, rationals, signs, flags),
    flags.map(PDqSeries),
)


def _wobble(pres):
    """Another column of the value pres presents: row n is off it by
    2^-(n+2), on alternating sides."""
    value = pres.exact_value(mu_exact)
    return lambda n: value + Fraction((-1) ** n, 1 << (n + 2))


# a presentation itself, whose runs may span many rows, the same column
# given row by row as a PColumn rule, and a different column of the
# same value given so
columns = st.one_of(
    presentations,
    presentations.map(lambda p: PColumn(p, lambda n: p.run(n, n + 1)[0])),
    presentations.map(lambda p: PColumn(p, _wobble(p))),
)


def _oracle_row(x, r):
    """Row r of x's column, worked out without run: a PColumn rule's own
    row, a rational's value, a flag shift's row in the reference
    sum-and-scale algebra, and a dq series' row from a scan of the flag
    below r + 2."""
    if isinstance(x, PColumn):
        return x.rule(r)
    if isinstance(x, PRational):
        return x.value
    if isinstance(x, PFlagShift):
        return PSum(PRational(x.base),
                    PScale(x.sign, PCumFlagSeries(x.flag))).run(r, r + 1)[0]
    return dq_series_approx(x.flag.values(r + 2))


def _check_run(x, n, stop):
    q, end = x.run(n, stop)
    assert q == x.run(n, n + 1)[0]
    assert n < end <= stop
    assert all(_oracle_row(x, r) == q for r in range(n, end))


@settings(max_examples=300, deadline=None)
@given(presentations, st.integers(min_value=0, max_value=320),
       st.integers(min_value=1, max_value=64))
def test_a_presentation_run_is_its_rows(pres, n, width):
    _check_run(pres, n, n + width)


@settings(max_examples=300, deadline=None)
@given(columns, st.integers(min_value=0, max_value=320),
       st.integers(min_value=1, max_value=64))
def test_a_real_run_is_its_rows(x, n, width):
    _check_run(x, n, n + width)
    if isinstance(x, PColumn):
        assert x.run(n, n + width)[1] == n + 1


def test_a_rational_and_a_quiet_flag_shift_run_to_the_stop():
    assert PRational(Fraction(1, 3)).run(5, 40) == (Fraction(1, 3), 40)
    quiet = PFlagShift(Fraction(1, 2), -1, PresentedSequence((1,), (2,)))
    assert quiet.run(0, 1000) == (Fraction(1, 2), 1000)
    # first nonzero at 4: exact from row 3 on, one row at a time before
    dq = PDqSeries(PresentedSequence((0, 0, 0, 0, 5), (1,)))
    assert dq.run(3, 40) == (Fraction(15, 16), 40)
    assert dq.run(0, 40) == (Fraction(3, 4), 1)


def test_a_flag_shift_run_ends_at_its_switch_row():
    # event 20: rows below 20 - 3 = 17 are base
    for sign in (1, -1):
        pres = PFlagShift(Fraction(1, 2), sign, PresentedSequence((1,) * 20, (0,)))
        assert pres.run(0, 100) == (Fraction(1, 2), 17)
        assert pres.run(3, 10) == (Fraction(1, 2), 10)
        assert pres.run(17, 100) == (Fraction(1, 2) + sign * Fraction(1, 1 << 19), 100)
        assert pres.run(16, 17)[0] == Fraction(1, 2) != pres.run(17, 18)[0]


@settings(max_examples=300, deadline=None)
@given(rationals, signs, flags, st.integers(min_value=0, max_value=320),
       st.integers(min_value=1, max_value=64), st.data())
def test_flags_that_agree_below_the_stop_give_the_same_run(base, sign, f, n,
                                                           width, data):
    stop = n + width
    pres = PFlagShift(base, sign, f)
    cut = stop + 3  # row stop - 1 reads f below stop + 3
    rest = data.draw(st.lists(small_nat, max_size=6), label="rest")
    tail = data.draw(st.lists(small_nat, min_size=1, max_size=3), label="tail")
    g = PresentedSequence(tuple(f.value(i) for i in range(cut)) + tuple(rest),
                          tuple(tail))
    assert PFlagShift(base, sign, g).run(n, stop) == pres.run(n, stop)


def _table(x, budget=DEFAULT_BUDGET):
    """A table view whose column at every dyadic point is x's."""
    return TracedView(RepresentedContinuousFunction(lambda q: x, "column"),
                           budget)


points = st.integers(min_value=0, max_value=40).map(dyadic_value)


@settings(max_examples=300, deadline=None)
@given(columns, points)
def test_the_run_sign_reader_matches_the_row_reference(x, p):
    view, ref = _table(x), _table(x)
    assert _sign_certified(view, p) == reference_sign_certified(ref, p)
    assert view.trace == ref.trace


def _thresholds(x):
    """Thresholds for x: its exact value (a tie settled without reads),
    a row value moved by exactly that row's 2^-k either way (a row tie),
    and any rational."""
    value = x.exact_value()
    return st.one_of(
        st.just(value),
        st.builds(lambda k, s: x.approx(k) + s * Fraction(1, 1 << k),
                  st.integers(min_value=0, max_value=12), st.sampled_from([1, -1])),
        rationals)


@settings(max_examples=300, deadline=None)
@given(columns, st.data())
def test_the_run_reach_reader_matches_the_row_reference(x, data):
    t = data.draw(_thresholds(x), label="t")
    value = x.exact_value()
    view, ref = TracedView(x), TracedView(x)
    assert _reaches(view, value, t) == reference_reaches(ref, value, t)
    assert view.trace == ref.trace


class _Asked(FastCauchyReal):
    """real's column, noting every (n, stop) its run is asked for."""

    _fields = ("real", "asked")

    def run(self, n, stop):
        self.asked.append((n, stop))
        return self.real.run(n, stop)

    def _exact(self, mu):
        return self.real._exact(mu)


@settings(max_examples=200, deadline=None)
@given(columns, points, st.data())
def test_the_run_readers_ask_rows_from_zero_and_below_the_stop(x, p, data):
    # run leaves 0 <= n < stop unchecked, so the readers must keep to it
    t = data.draw(_thresholds(x), label="t")
    value = x.exact_value()
    for read in (lambda y: _sign_certified(_table(y), p),
                 lambda y: _reaches(TracedView(y), value, t)):
        y = _Asked(x, [])
        read(y)
        assert not y.asked or y.asked[0][0] == 0
        assert all(0 <= n < stop for n, stop in y.asked)


def _runs_out_alike(make, read, reference, data):
    """With a budget below the cells reference reads, read and reference,
    each on its own view make(budget), raise BudgetExceeded with one
    message and leave one trace of budget + 1 cells."""
    full = make(DEFAULT_BUDGET)
    reference(full)
    if not full.trace:
        return
    budget = data.draw(st.integers(min_value=0, max_value=len(full.trace) - 1),
                       label="budget")
    view, ref = make(budget), make(budget)
    with pytest.raises(BudgetExceeded) as got:
        read(view)
    with pytest.raises(BudgetExceeded) as expected:
        reference(ref)
    assert str(got.value) == str(expected.value)
    assert view.trace == ref.trace
    assert len(view.trace) == budget + 1


@settings(max_examples=200, deadline=None)
@given(columns, points, st.data())
def test_the_run_sign_reader_runs_out_of_budget_at_the_same_cell(x, p, data):
    _runs_out_alike(lambda budget: _table(x, budget),
                    lambda view: _sign_certified(view, p),
                    lambda view: reference_sign_certified(view, p), data)


@settings(max_examples=200, deadline=None)
@given(columns, st.data())
def test_the_run_reach_reader_runs_out_of_budget_at_the_same_cell(x, data):
    t = data.draw(_thresholds(x), label="t")
    value = x.exact_value()
    _runs_out_alike(lambda budget: TracedView(x, budget),
                    lambda view: _reaches(view, value, t),
                    lambda view: reference_reaches(view, value, t), data)


@settings(max_examples=60, deadline=None)
@given(flags, st.sampled_from("+-"), st.integers(min_value=1, max_value=6), st.data())
def test_many_probes_on_one_view_run_out_of_budget_at_the_same_cell(f, sign, k, data):
    # later probes repeat cells of earlier ones, which do not count again
    fn = ivt_counterexample(f, sign)
    _runs_out_alike(lambda budget: TracedView(fn, budget),
                    lambda view: uivt_repr_endpoints(view, k),
                    lambda view: reference_ivt_endpoints(view, k), data)
    x = counterexample_pair(f)[sign == "+"]
    _runs_out_alike(lambda budget: TracedView(x, budget),
                    lambda view: ubin_repr_digits(view, k),
                    lambda view: reference_ubin_digits(view, k), data)


class Refused(Exception):
    pass


def _refusing(value, row):
    """A real of the given value whose rule refuses row `row` and every
    row past it."""
    def rule(n):
        if n >= row:
            raise Refused(n)
        return value
    return PColumn(PRational(value), rule)


@pytest.mark.parametrize("row", [0, 1, 5])
def test_a_refused_row_is_recorded_before_its_error(row):
    # the value needs row 20 to decide, so the column reaches the refusal
    x = _refusing(Fraction(1, 1 << 19), row)
    for read, reference, make in (
            (lambda v: _sign_certified(v, Fraction(1, 2)),
             lambda v: reference_sign_certified(v, Fraction(1, 2)), lambda: _table(x)),
            (lambda v: _reaches(v, x.exact_value(), Fraction(0)),
             lambda v: reference_reaches(v, x.exact_value(), Fraction(0)),
             lambda: TracedView(x))):
        view, ref = make(), make()
        with pytest.raises(Refused):
            read(view)
        with pytest.raises(Refused):
            reference(ref)
        assert view.trace == ref.trace
        assert len(view.trace) == row + 1
