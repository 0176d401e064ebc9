"""Square classes, Hilbert symbols and quaternion invariants over Q_v.

Places of Q are the real place (the constant ``REAL``) and finite primes
(plain ints).  The local invariant of a quaternion class lands in
{0, 1/2} inside Q/Z and is represented by an exact Fraction.

The case formulas below are the classical ones; the test suite pins the
convention against a brute-force conic solver over Z/p^k.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import is_prime

REAL = "inf"

INV_ZERO = Fraction(0)
INV_HALF = Fraction(1, 2)

_REAL_ALIASES = {"inf", "oo", "real", "infty", "infinity"}


def normalize_place(v):
    """Canonical place: the string ``inf`` or a prime int."""
    if isinstance(v, str):
        if v.lower() in _REAL_ALIASES:
            return REAL
        if v.isdigit():
            v = int(v)
        else:
            raise ValueError("unrecognised place %r" % v)
    if isinstance(v, int):
        if not is_prime(v):
            raise ValueError("finite place %d is not prime" % v)
        return v
    raise ValueError("unrecognised place %r" % (v,))


def _as_nonzero_fraction(a):
    a = Fraction(a)
    if a == 0:
        raise ValueError("argument must be a nonzero rational")
    return a


def padic_val_unit(a, p):
    """(v, n, d) with a = p^v * n/d and n, d coprime to p."""
    a = _as_nonzero_fraction(a)
    n, d = a.numerator, a.denominator
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v, n, d


def legendre(u, p):
    """Legendre symbol of a p-unit u modulo the odd prime p (+1 or -1)."""
    r = pow(u % p, (p - 1) // 2, p)
    return 1 if r == 1 else -1


class SquareClass:
    """Canonical square-class data of a nonzero rational at a place."""

    __slots__ = ("place", "sign", "val_parity", "unit_class")

    def __init__(self, place, sign=None, val_parity=None, unit_class=None):
        self.place = place
        self.sign = sign                 # real place only
        self.val_parity = val_parity     # finite places: v_p(a) mod 2
        self.unit_class = unit_class     # odd p: Legendre; p=2: unit mod 8

    def is_square(self):
        if self.place == REAL:
            return self.sign > 0
        return self.val_parity == 0 and self.unit_class == 1

    def __eq__(self, other):
        return (self.place == other.place and self.sign == other.sign
                and self.val_parity == other.val_parity
                and self.unit_class == other.unit_class)

    def __repr__(self):
        if self.place == REAL:
            return "SquareClass(inf, sign=%+d)" % self.sign
        return "SquareClass(p=%s, parity=%d, unit=%s)" % (
            self.place, self.val_parity, self.unit_class)

    def as_json(self):
        if self.place == REAL:
            return {"place": "inf", "sign": self.sign,
                    "is_square": self.is_square()}
        return {"place": self.place, "val_parity": self.val_parity,
                "unit_class": self.unit_class, "is_square": self.is_square()}


def square_class(a, v):
    """Square class of a nonzero rational at the place v."""
    v = normalize_place(v)
    a = _as_nonzero_fraction(a)
    if v == REAL:
        return SquareClass(REAL, sign=1 if a > 0 else -1)
    val, n, d = padic_val_unit(a, v)
    if v == 2:
        # d is odd so d^-1 = d (mod 8)
        u8 = (n * d) % 8
        return SquareClass(2, val_parity=val % 2, unit_class=u8)
    leg = legendre(n * d, v)
    return SquareClass(v, val_parity=val % 2, unit_class=leg)


def is_square_at(a, v):
    return square_class(a, v).is_square()


def hilbert_symbol(a, b, v):
    """Hilbert symbol (a, b)_v in {+1, -1}.

    +1 exactly when z^2 = a x^2 + b y^2 has a nontrivial Q_v-point.
    """
    v = normalize_place(v)
    a = _as_nonzero_fraction(a)
    b = _as_nonzero_fraction(b)
    if v == REAL:
        return -1 if (a < 0 and b < 0) else 1
    p = v
    alpha, an, ad = padic_val_unit(a, p)
    beta, bn, bd = padic_val_unit(b, p)
    if p == 2:
        u = (an * ad) % 8
        w = (bn * bd) % 8
        eps_u = (u - 1) // 2 % 2
        eps_w = (w - 1) // 2 % 2
        omega_u = (u * u - 1) // 8 % 2
        omega_w = (w * w - 1) // 8 % 2
        e = eps_u * eps_w + alpha * omega_w + beta * omega_u
        return -1 if e % 2 else 1
    leg_u = legendre(an * ad, p)
    leg_w = legendre(bn * bd, p)
    eps_p = (p - 1) // 2 % 2
    result = 1
    if (alpha * beta * eps_p) % 2:
        result = -result
    if beta % 2 and leg_u < 0:
        result = -result
    if alpha % 2 and leg_w < 0:
        result = -result
    return result


def quaternion_invariant(a, b, v):
    """Local invariant of the quaternion class (a, b) at v: 0 or 1/2."""
    return INV_ZERO if hilbert_symbol(a, b, v) == 1 else INV_HALF
