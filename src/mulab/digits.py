"""The decimal digits of an int of any size, in subquadratic time.

``str(int)`` refuses an int past the interpreter's limit on int-to-str
digits, and ``str(Decimal(n))`` takes time quadratic in the digits
(about 2 s for 2^1000000 on a 2-core VM).  int_text splits n in halves
by bits down to 256-bit pieces and puts them back together by exact
Decimal products, which libmpdec multiplies in subquadratic time (well
under 0.1 s for that int there).  Only the report printer loads this
module, and only for such an int.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, Decimal, Inexact, localcontext

__all__ = ["int_text"]

_PIECE_BITS = 256  # Decimal(n) is fast up to about this size


def int_text(n: int) -> str:
    """``str(n)`` without the digit limit."""
    powers: dict[int, Decimal] = {}  # 2**w, once per width w

    def power(w: int) -> Decimal:
        if w not in powers:
            powers[w] = (Decimal(2) ** w if w <= _PIECE_BITS
                         else power(w // 2) * power(w - w // 2))
        return powers[w]

    def join(n: int, w: int) -> Decimal:  # n >= 0 has at most w bits
        if w <= _PIECE_BITS:
            return Decimal(n)
        half = w // 2
        high = n >> half
        return join(high, w - half) * power(half) + join(n - (high << half), half)

    with localcontext() as ctx:
        ctx.prec, ctx.Emax = MAX_PREC, MAX_EMAX
        ctx.traps[Inexact] = True  # an inexact step raises, never misprints
        digits = str(join(abs(n), n.bit_length()))
    return "-" + digits if n < 0 else digits
