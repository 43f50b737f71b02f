from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from mulab.errors import ParseError
from mulab.sequences import (
    DEFAULT_BUDGET,
    Found,
    NoneBelowBudget,
    OpaqueSequence,
    PresentedSequence,
    format_sequence,
    mu_budgeted,
    mu_exact,
    parse_sequence,
)

from oracles import (reference_canonical, reference_parse_sequence,
                     scan_first_nonzero, scan_first_zero, unroll)

small_nat = st.integers(min_value=0, max_value=6)
prefixes = st.lists(small_nat, max_size=8).map(tuple)
tails = st.lists(small_nat, min_size=1, max_size=6).map(tuple)


def test_values_match_literal_unrolling():
    s = PresentedSequence((5, 1, 2), (0, 4))
    assert s.values(9) == unroll((5, 1, 2), (0, 4), 9)


def test_tail_reduces_to_minimal_period():
    s = PresentedSequence((9,), (3, 3, 3))
    assert s.tail == (3,)
    t = PresentedSequence((), (1, 2, 1, 2))
    assert t.tail == (1, 2)


def test_prefix_absorbed_into_rotated_tail():
    s = PresentedSequence((1, 2, 3), (2, 3))
    assert s.prefix == (1,)
    assert s.tail == (2, 3)
    assert s.values(7) == unroll((1, 2, 3), (2, 3), 7)


@given(prefixes, tails)
def test_canonical_form_keeps_values(prefix, tail):
    s = PresentedSequence(prefix, tail)
    count = len(prefix) + 3 * len(tail) + 2
    assert s.values(count) == unroll(prefix, tail, count)


# values 0-2 so that prefix entries often repeat the tail
@given(st.lists(st.integers(0, 2), max_size=40),
       st.lists(st.integers(0, 2), min_size=1, max_size=6))
def test_canonical_form_matches_the_stepwise_reference(prefix, tail):
    s = PresentedSequence(prefix, tail)
    assert (s.prefix, s.tail) == reference_canonical(prefix, tail)


@given(prefixes, tails)
def test_canonical_form_is_minimal(prefix, tail):
    s = PresentedSequence(prefix, tail)
    # primitive tail: no proper divisor period generates it
    for d in range(1, len(s.tail)):
        if len(s.tail) % d == 0:
            assert s.tail != s.tail[:d] * (len(s.tail) // d)
    # no prefix entry can slide into the tail
    if s.prefix:
        assert s.prefix[-1] != s.tail[-1]


@given(prefixes, tails)
def test_canonical_form_is_a_fixed_point(prefix, tail):
    s = PresentedSequence(prefix, tail)
    again = PresentedSequence(s.prefix, s.tail)
    assert again == s


def test_rejects_empty_tail_and_negatives():
    with pytest.raises(ValueError):
        PresentedSequence((), ())
    with pytest.raises(ValueError):
        PresentedSequence((-1,), (1,))
    with pytest.raises(ValueError):
        PresentedSequence((0,), (2, -3))


@pytest.mark.parametrize("prefix, tail", [
    ((2.7,), (1,)), (("3",), (1,)), ((1,), (1.0,)), ((), (Fraction(1),)),
], ids=["float", "text", "integral-float", "fraction"])
def test_rejects_entries_that_are_not_integers(prefix, tail):
    with pytest.raises(ValueError, match="^values must be natural numbers$"):
        PresentedSequence(prefix, tail)


def test_bools_are_the_integers_0_and_1():
    s = PresentedSequence((True, False), (True,))
    assert s == PresentedSequence((1, 0), (1,))
    assert all(type(v) is int for v in s.prefix + s.tail)


def test_a_negative_index_has_no_value():
    with pytest.raises(ValueError, match="negative index"):
        PresentedSequence((1, 2), (3,)).value(-1)


@given(prefixes, tails)
def test_mu_exact_matches_brute_scan(prefix, tail):
    s = PresentedSequence(prefix, tail)
    window = s.horizon + 2 * len(s.tail)
    assert mu_exact(s) == scan_first_zero(s.values(window))


@given(prefixes, tails)
def test_first_nonzero_matches_brute_scan(prefix, tail):
    s = PresentedSequence(prefix, tail)
    window = s.horizon + 2 * len(s.tail)
    assert s.first_nonzero == scan_first_nonzero(s.values(window))


# values 0-2 so that the first zero and the first nonzero land in the
# prefix, in the tail or nowhere, and n runs past the horizon
@given(st.lists(st.integers(0, 2), max_size=8),
       st.lists(st.integers(0, 2), min_size=1, max_size=4),
       st.integers(0, 20))
@example((1, 0), (1,), 5)  # zero in the prefix
@example((1, 1), (2, 0), 9)  # zero in the tail only
@example((3,), (1, 2), 20)  # no zero
@example((0, 0), (0,), 20)  # no nonzero
@example((0, 0), (0, 4), 3)  # nonzero in the tail, past n
def test_bounded_questions_match_a_scan_below_n(prefix, tail, n):
    s = PresentedSequence(prefix, tail)
    below = [s.value(i) for i in range(n)]
    assert s.zero_below(n) == scan_first_zero(below)
    assert s.nonzero_below(n) == scan_first_nonzero(below)


def test_mu_budgeted_finds_and_reports_budget():
    s = PresentedSequence((1, 1, 0), (1,))
    assert mu_budgeted(s) == Found(2)
    never = OpaqueSequence(lambda n: 1)
    assert mu_budgeted(never, budget=50) == NoneBelowBudget(50)
    assert mu_budgeted(PresentedSequence((), (7,)), budget=10) == NoneBelowBudget(10)


def test_budget_default_is_large():
    assert DEFAULT_BUDGET == 2 ** 20


def test_parse_format_round_trip():
    for text in ["prefix=[];tail=[1]",
                 "prefix=[1,2,3];tail=[0,4]",
                 "prefix=[0];tail=[5,5,1]"]:
        s = parse_sequence(text)
        assert parse_sequence(format_sequence(s)) == s


def test_parse_accepts_whitespace():
    s = parse_sequence(" prefix=[1, 2] ; tail=[3] ")
    assert s == PresentedSequence((1, 2), (3,))


@pytest.mark.parametrize("bad", [
    "",
    "prefix=[1];tail=[]",
    "tail=[1];prefix=[]",
    "prefix=[1,];tail=[2]",
    "prefix=[a];tail=[1]",
    "prefix=[1];tail=[2];extra=[3]",
    # a blank inside a number is not a separator
    "prefix=[1 2];tail=[3]",
])
def test_parse_rejects_bad_syntax(bad):
    with pytest.raises(ParseError):
        parse_sequence(bad)


def _parsed(parse, text):
    try:
        return parse(text)
    except ParseError as error:
        return str(error)


# number lists from the pieces a flag's syntax admits (digits, commas,
# ASCII and other blanks) and some it refuses (signs, underscores, a
# non-ASCII digit)
NUMBER_LISTS = st.lists(st.sampled_from(
    ["0", "7", "12", "007", ",", ",", " ", "\t", "\u2003", "\x85", "\x1c",
     "+", "-", "_", "٣", "x"]), max_size=10).map("".join)
FLAG_TEXTS = (st.builds("prefix=[{}];tail=[{}]".format, NUMBER_LISTS, NUMBER_LISTS)
              | st.builds(" prefix = [{}] ; tail = [{}] ".format, NUMBER_LISTS,
                          NUMBER_LISTS)
              | st.text(max_size=30))


@given(FLAG_TEXTS)
@example("prefix=[" + "1" * 5000 + "];tail=[1]")
@example("prefix=[\u2003 12\x85, 0];tail=[ 7 ]")
@example("prefix=[1\x1f];tail=[0\x1c]")
def test_parse_matches_the_per_entry_reference(text):
    assert _parsed(parse_sequence, text) == _parsed(reference_parse_sequence, text)


def test_opaque_view_round_trip():
    s = PresentedSequence((2, 0), (9,))
    assert [OpaqueSequence(s.value).value(n) for n in range(5)] == s.values(5)
