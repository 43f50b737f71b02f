from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mulab.coding import (
    cantor_pair,
    cantor_unpair,
    dyadic_index,
    dyadic_value,
    max_coded_length,
    string_code,
)

from oracles import string_decode


def test_string_codes_enumerate_length_lex():
    ordered = [(0, 0),
               (1, 0), (1, 1),
               (2, 0), (2, 1), (2, 2), (2, 3),
               (3, 0)]
    assert [string_code(l, v) for l, v in ordered] == list(range(8))


@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0))
def test_string_code_round_trip(length, raw):
    value = raw % (1 << length)
    assert string_decode(string_code(length, value)) == (length, value)


@given(st.integers(min_value=0, max_value=5000))
def test_string_decode_round_trip(code):
    length, value = string_decode(code)
    assert string_code(length, value) == code


def test_string_code_rejects_bad_descriptors():
    with pytest.raises(ValueError):
        string_code(-1, 0)
    with pytest.raises(ValueError):
        string_code(2, 4)
    with pytest.raises(ValueError):
        string_decode(-1)


@given(st.integers(min_value=0, max_value=5000))
def test_max_coded_length_inverts_the_code_bound(code):
    n = max_coded_length(code)
    length, _ = string_decode(code)
    assert length <= n
    assert string_code(n, 0) <= code
    assert string_code(n + 1, 0) > code


@given(st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=300))
def test_cantor_pair_round_trip(a, b):
    assert cantor_unpair(cantor_pair(a, b)) == (a, b)


@given(st.integers(min_value=0, max_value=200000))
def test_cantor_unpair_round_trip(p):
    a, b = cantor_unpair(p)
    assert a >= 0 and b >= 0
    assert cantor_pair(a, b) == p


@pytest.mark.parametrize("bits", [600, 5000])
def test_cantor_pair_round_trip_past_float_range(bits):
    # codes here pass 2^1024, where a float square root overflows
    for a, b in ((6, (1 << bits) - 1), ((1 << (bits + 1)) + 1, (1 << bits) - 1)):
        assert cantor_unpair(cantor_pair(a, b)) == (a, b)


def test_cantor_pair_spot_values():
    assert cantor_pair(0, 0) == 0
    assert cantor_pair(1, 0) == 1
    assert cantor_pair(0, 1) == 2
    assert cantor_pair(2, 0) == 3


def test_dyadic_enumeration_prefix():
    expected = [Fraction(0), Fraction(1), Fraction(1, 2),
                Fraction(1, 4), Fraction(3, 4),
                Fraction(1, 8), Fraction(3, 8), Fraction(5, 8), Fraction(7, 8)]
    assert [dyadic_value(i) for i in range(9)] == expected


@given(st.integers(min_value=0, max_value=4096))
def test_dyadic_round_trip(i):
    assert dyadic_index(dyadic_value(i)) == i


def test_dyadic_index_rejects_non_dyadics():
    with pytest.raises(ValueError):
        dyadic_index(Fraction(1, 3))
    with pytest.raises(ValueError):
        dyadic_index(Fraction(3, 2))
    with pytest.raises(ValueError):
        dyadic_value(-1)
