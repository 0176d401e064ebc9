"""Conservative interval arithmetic with exact rational endpoints."""

from __future__ import annotations

from fractions import Fraction


class RatInterval:
    """Closed interval [lo, hi] with Fraction endpoints, lo <= hi.

    Arithmetic is outward-exact: the true value of an expression evaluated
    over inputs inside the operand intervals always lies inside the result.
    Since endpoints are exact rationals there is no rounding at all.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        lo = Fraction(lo)
        hi = lo if hi is None else Fraction(hi)
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        self.lo = lo
        self.hi = hi

    def __repr__(self):
        return "RatInterval(%s, %s)" % (self.lo, self.hi)

    def width(self):
        return self.hi - self.lo

    def contains(self, x):
        x = Fraction(x)
        return self.lo <= x <= self.hi

    def contains_zero(self):
        return self.lo <= 0 <= self.hi

    def sign(self):
        """1, -1, or None when the interval straddles (or touches) zero."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        return None

    def _coerce(other):
        if isinstance(other, RatInterval):
            return other
        return RatInterval(other)

    def __add__(self, other):
        o = RatInterval._coerce(other)
        return RatInterval(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self):
        return RatInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-RatInterval._coerce(other))

    def __rsub__(self, other):
        return RatInterval._coerce(other) + (-self)

    def __mul__(self, other):
        o = RatInterval._coerce(other)
        cands = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo,
                 self.hi * o.hi)
        return RatInterval(min(cands), max(cands))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = RatInterval._coerce(other)
        if o.contains_zero():
            raise ZeroDivisionError("dividing by an interval containing 0")
        inv = RatInterval(1 / o.hi, 1 / o.lo)
        return self * inv

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = RatInterval(1)
        for _ in range(n):
            result = result * self
        if n >= 2 and n % 2 == 0 and self.contains_zero():
            # even powers are nonnegative; tighten the lower endpoint
            result = RatInterval(Fraction(0), result.hi)
        return result
