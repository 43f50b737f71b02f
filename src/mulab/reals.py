"""Fast-converging Cauchy reals with symbolic presentations.

A real here is its presentation: an instance of one of the two kinds
the routes build (a flag-shifted rational, the dq series), each a
subclass of FastCauchyReal that gives both the approximation rows
n -> q_n (exact rationals, with |q_n - q_{n+i}| < 2^-n) and the exact
value.  The tests keep a third, the rational constant PRational, in
tests/oracles.py.  Comparisons are decided exactly from presentations;
the flag-driven kinds reduce to one mu search on the presented flag
sequence, which is the whole point of the class.
The real-valued counterexample objects are all flag-shifted reals,
``flag_shifted(c, sign, f)`` = c + sign * delta(f) for sign 1 or -1:
row n reads f below n + 4, agrees with c until f's first event shows,
and after it splits from c by epsilon(f), up or down as sign says.

Flag convention, used artifact-wide except where a construction says
otherwise: a flag event at m means f(m) = 0, so flag searches line up
with mu.  The dq series is the documented exception (it fires on the
first nonzero value).
"""

from __future__ import annotations

from fractions import Fraction
from operator import not_
from typing import Callable

from .errors import BoundViolation
from .sequences import PresentedSequence, mu_exact
from .value import Value

__all__ = [
    "PFlagShift",
    "PDqSeries",
    "FastCauchyReal",
    "MuOp",
    "flag_shifted",
    "counterexample_pair",
    "dq_real",
    "real_eq",
    "real_lt",
    "real_sign",
    "to_decimal",
]

MuOp = Callable[[PresentedSequence], "int | None"]

_ZERO = Fraction(0)


def _first_nonzero_via(mu: MuOp, f: PresentedSequence) -> int | None:
    # the zero indicator of f is 0 exactly where f is nonzero
    return mu(PresentedSequence(map(not_, f.prefix), map(not_, f.tail)))


class FastCauchyReal(Value):
    """A real given by its presentation: each kind, a subclass, defines
    ``run`` and ``_exact`` and names itself in ``tag``, the certificate a
    dq witness carries.  Two kinds live here, PFlagShift and PDqSeries;
    extractors adds the ivt root, and the tests keep PRational, the
    rational constant.  == compares presentations, the kind and its
    fields; real_eq / real_lt compare values, as extensional equality of
    reals is not structural.
    """

    def approx(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("negative precision index")
        return self.run(n, n + 1)[0]

    def run(self, n: int, stop: int) -> tuple[Fraction, int]:
        """Row n and the end of the run of rows equal to it, for 0 <= n
        < stop, unchecked: row r is row n for every r in [n, end <= stop).
        approx refuses a negative n; the column readers start at row 0."""
        raise NotImplementedError

    def exact_value(self, mu: MuOp = mu_exact) -> Fraction:
        return self._exact(mu)

    def _exact(self, mu: MuOp) -> Fraction:
        raise NotImplementedError


class PFlagShift(FastCauchyReal):
    """base + sign * delta(f) for sign 1 or -1, where delta(f) = sum over
    n >= 1 of c_n 2^-n and c_n = 1 iff f hits 0 at or below n.

    Approximation n asks the flag where its first zero below n + 4 is:
    it is base until there is one, and exact from there on, so it
    depends only on f below n + 4.  flag_shifted checks the sign.
    """

    _fields = ("base", "sign", "flag")
    tag = "sum"  # base plus a flag term

    def _moved(self, m0: int | None) -> Fraction:
        """base + sign * epsilon(f) for f's first zero m0, on integers:
        with base = a/b and epsilon(f) = 2^-k, that is (a 2^k + sign b)
        / (b 2^k), one Fraction."""
        if m0 is None:
            return self.base
        k = max(m0, 1) - 1
        a, b = self.base.numerator, self.base.denominator
        return Fraction((a << k) + self.sign * b, b << k)

    def run(self, n: int, stop: int) -> tuple[Fraction, int]:
        """The rows below the switch row m0 - 3, the first that sees the
        event m0, are base; the rows from it on are exact.  A run of base
        rows ends at the switch row or at stop, whichever comes first, so
        the run depends only on f below stop + 3, as row stop - 1 does,
        and asks only below that."""
        m0 = self.flag.zero_below(stop + 3)
        if m0 is None:
            return self.base, stop
        switch = m0 - 3
        if n < switch:
            return self.base, min(switch, stop)
        return self._moved(m0), stop

    def _exact(self, mu: MuOp) -> Fraction:
        return self._moved(mu(self.flag))


class PDqSeries(FastCauchyReal):
    """sum over n >= 1 of h(n) 2^-n with h(n) = 1 iff f is zero below n.

    Equals 1 when f is never nonzero and 1 - 2^-m0 when the first nonzero
    sits at m0 (so a nonzero at position 0 gives exactly 0).  Approximation
    n asks the flag for its first nonzero below n + 2, so it depends only
    on f below n + 2.
    """

    _fields = ("flag",)
    tag = "dq-series"

    def _closed_form(self, m0: int | None) -> Fraction:
        if m0 is None:
            return Fraction(1)
        return 1 - Fraction(1, 1 << m0)

    def run(self, n: int, stop: int) -> tuple[Fraction, int]:
        """Once the first nonzero is below n + 2 every row is exact, so
        the run goes to stop; before that each row is its own run."""
        m0 = self.flag.nonzero_below(n + 2)
        if m0 is not None:
            return self._closed_form(m0), stop
        return 1 - Fraction(1, 1 << (n + 2)), n + 1

    def _exact(self, mu: MuOp) -> Fraction:
        return self._closed_form(_first_nonzero_via(mu, self.flag))


def flag_shifted(c: Fraction | int, sign: int,
                 f: PresentedSequence) -> FastCauchyReal:
    """c + sign * delta(f): c if f never hits zero, else c moved by
    epsilon(f), up for sign 1 and down for sign -1.  Every flag-shifted
    real is built here, and any other sign is refused."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be 1 or -1, got {sign!r}")
    return PFlagShift(c if type(c) is Fraction else Fraction(c), int(sign), f)


def counterexample_pair(f: PresentedSequence) -> tuple[FastCauchyReal, FastCauchyReal]:
    """(1/2 - delta(f), 1/2 + delta(f)), ubin's two-sided witness: equal
    iff f never hits zero, else either side of 1/2, so phi's first
    digits differ exactly when f fires; Xi bounds zero_below(bound + 1)."""
    half = Fraction(1, 2)
    return flag_shifted(half, -1, f), flag_shifted(half, 1, f)


def dq_real(f: PresentedSequence) -> FastCauchyReal:
    return PDqSeries(f)


def real_eq(x: FastCauchyReal, y: FastCauchyReal, mu: MuOp = mu_exact) -> bool:
    """Exact equality of the presented values."""
    return x.exact_value(mu) == y.exact_value(mu)


def real_lt(x: FastCauchyReal, y: FastCauchyReal, mu: MuOp = mu_exact) -> bool:
    """Exact strict order; when it holds, a strict-gap witness is located."""
    xv = x.exact_value(mu)
    yv = y.exact_value(mu)
    if xv >= yv:
        return False
    limit = 4 * (yv - xv).denominator.bit_length() + 64
    n = 1
    while True:
        # y_n - x_n > 2^-(n-1), decided on integers
        xn = x.approx(n)
        d = y.approx(n) - xn
        if d.numerator << (n - 1) > d.denominator:
            return True
        n += 1
        if n > limit:
            raise BoundViolation("gap witness search overran its bound")


def real_sign(x: FastCauchyReal, mu: MuOp = mu_exact) -> int:
    a = x.exact_value(mu).numerator
    return (a > 0) - (a < 0)


def to_decimal(x: FastCauchyReal, digits: int = 8) -> str:
    """Decimal rendering at the requested precision (round half up)."""
    if not isinstance(digits, int) or digits < 0:
        raise ValueError(f"digits must be a natural number, got {digits!r}")
    digits = int(digits)  # a bool counts as 0 or 1
    bits = int(digits * 3.33) + 4
    q = x.approx(bits)
    scaled = q * 10**digits
    whole = (scaled.numerator * 2 + scaled.denominator) // (2 * scaled.denominator)
    sign = "-" if whole < 0 else ""
    units, fraction = divmod(abs(whole), 10**digits)
    return f"{sign}{units}" + (f".{fraction:0{digits}d}" if digits else "")
