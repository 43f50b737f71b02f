"""Fixed codings used to move bounds between index spaces.

Binary strings are coded length-lexicographically: the empty string is 0
and a string of length n with bits b (MSB first, value v) gets code
2^n - 1 + v.  All strings of length <= n therefore occupy codes
< 2^(n+1) - 1, which is what lets a query bound on coded trees be
inverted to a bound on string length.

Rationals are coded by a zig-zag on the numerator and a Cantor pair with
the denominator; the coding is only used to keep type-1 views integer
valued, equality of codes is equality of rationals.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

__all__ = [
    "string_code",
    "string_decode",
    "max_coded_length",
    "cantor_pair",
    "cantor_unpair",
    "rational_code",
    "rational_decode",
    "dyadic_index",
    "dyadic_value",
]


def string_code(length: int, value: int) -> int:
    if length < 0 or value < 0 or value >> length:
        raise ValueError("not a binary string descriptor")
    return (1 << length) - 1 + value


def string_decode(code: int) -> tuple[int, int]:
    if code < 0:
        raise ValueError("negative string code")
    length = (code + 1).bit_length() - 1
    return length, code - ((1 << length) - 1)


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


def _zigzag(n: int) -> int:
    return 2 * n if n >= 0 else -2 * n - 1


def _unzigzag(z: int) -> int:
    return z // 2 if z % 2 == 0 else -(z + 1) // 2


def rational_code(q: Fraction) -> int:
    q = Fraction(q)
    return cantor_pair(_zigzag(q.numerator), q.denominator - 1)


def rational_decode(code: int) -> Fraction:
    zn, dm = cantor_unpair(code)
    return Fraction(_unzigzag(zn), dm + 1)


# Enumeration of the dyadic rationals in [0, 1]: 0, 1, then each level's
# odd numerators left to right.  Used to address value tables of
# represented continuous functions.

def dyadic_index(q: Fraction) -> int:
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
    i -= 2
    level = 1
    while i >= (1 << (level - 1)):
        i -= 1 << (level - 1)
        level += 1
    return Fraction(2 * i + 1, 1 << level)
