"""Fixed codings used to move bounds between index spaces.

Binary strings are coded length-lexicographically: the empty string is 0
and a string of length n with bits b (MSB first, value v) gets code
2^n - 1 + v.  All strings of length <= n therefore occupy codes
< 2^(n+1) - 1, which is what lets a query bound on coded trees be
inverted to a bound on string length.

Pairs of naturals are Cantor-coded, and the dyadic rationals in [0, 1]
are enumerated level by level to address value tables.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

__all__ = [
    "string_code",
    "max_coded_length",
    "cantor_pair",
    "cantor_unpair",
    "dyadic_index",
    "dyadic_value",
]


def string_code(length: int, value: int) -> int:
    if length < 0 or value < 0 or value >> length:
        raise ValueError("not a binary string descriptor")
    return (1 << length) - 1 + value


def max_coded_length(code: int) -> int:
    """Length of the longest string whose code is <= code."""
    return (code + 1).bit_length() - 1


def cantor_pair(a: int, b: int) -> int:
    s = a + b
    return s * (s + 1) // 2 + b


def cantor_unpair(p: int) -> tuple[int, int]:
    # invert the triangular part exactly, then read off the diagonal
    # offset: s(s+1)/2 <= p iff 2s+1 <= isqrt(8p+1)
    s = (isqrt(8 * p + 1) - 1) // 2
    b = p - s * (s + 1) // 2
    return s - b, b


# Enumeration of the dyadic rationals in [0, 1]: 0, 1, then each level's
# odd numerators left to right.  Used to address value tables of
# represented continuous functions.

def dyadic_index(q: Fraction) -> int:
    if type(q) is not Fraction:
        q = Fraction(q)
    if q < 0 or q > 1:
        raise ValueError("dyadic enumeration covers [0, 1] only")
    den = q.denominator
    if den & (den - 1):
        raise ValueError(f"{q} is not dyadic")
    if den == 1:
        return int(q)  # 0 -> 0, 1 -> 1
    level = den.bit_length() - 1
    return 1 + (1 << (level - 1)) + (q.numerator - 1) // 2


def dyadic_value(i: int) -> Fraction:
    if i < 0:
        raise ValueError("negative index")
    if i < 2:
        return Fraction(i)
    # level L holds indices 2^(L-1) + 1 .. 2^L, the inverse of dyadic_index
    level = (i - 1).bit_length()
    return Fraction(2 * (i - 1 - (1 << (level - 1))) + 1, 1 << level)
