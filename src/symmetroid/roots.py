"""Univariate real-root isolation via Sturm sequences.

Polynomials are coefficient lists in ascending degree order with integer
entries.  Sturm chains, gcds and squarefree parts are computed over Z as
primitive polynomial remainder sequences: pseudo-division, then the
content divided out (Collins, JACM 14, 1967; Knuth, TAOCP 2, 4.6.1), a
positive scaling of the rational sequence with its signs and primitive
parts.  A chain is built once per polynomial and handed to every count
and bisection; certified signs on an interval come from one
interval-Horner enclosure.

Every evaluation at a rational x = n/d (d > 0) is one homogenized Horner
loop, ``poly_eval_scaled``: it returns d^deg c(n/d), an integer for an
integer polynomial, with the sign of c(x), so Sturm counts, bisections
and root tests make no rational arithmetic (cf. Rouillier and
Zimmermann, "Efficient isolation of polynomial's real roots", JCAM 162,
2004), and at an integer it is c(x).  ``horner_sign`` runs its interval
Horner on endpoints over one common denominator.  Fractions are left only
for points: interval endpoints, midpoints and the root bound.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm


class RatInterval:
    """Closed interval [lo, hi] with Fraction endpoints, lo <= hi."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        self.lo = lo
        self.hi = hi

    def __repr__(self):
        return "RatInterval(%s, %s)" % (self.lo, self.hi)


def poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_degree(c):
    c = poly_trim(c)
    return len(c) - 1 if c else -1


def poly_eval_scaled(c, x):
    """d^deg * c(n/d) for an int or Fraction x = n/d in lowest terms, with
    deg = len(c) - 1: the same sign as c(x), since d > 0, and an integer
    when c has integer coefficients.  The zero list gives 0.

    Homogenized Horner: the partial sum after coefficient a_k is
    d^(deg-k) times the usual one, so each step is total * n + a_k d^(deg-k)
    and no rational is ever formed."""
    n, d = x.numerator, x.denominator
    total = 0
    dk = 1
    for a in reversed(c):
        total = total * n + a * dk
        dk *= d
    return total


def horner_sign(c, iv):
    """Certified sign of c on the RatInterval iv: 1 or -1 when c has that
    sign at every point of iv, None when the enclosure touches zero (always
    so for the zero polynomial).

    Horner's rule over intervals, outward-exact: each partial sum is
    enclosed by [lo, hi], and [lo, hi] * iv is spanned by the four endpoint
    products, which are exact, so nothing is rounded.  The endpoints are
    a/D and b/D over a common denominator D > 0, and the enclosure after
    coefficient c_k is kept times D^(deg-k), in integers for integer c:
    every endpoint product and min or max is the rational one times that
    positive power, so the signs at the end are the same."""
    D = lcm(iv.lo.denominator, iv.hi.denominator)
    a = iv.lo.numerator * (D // iv.lo.denominator)
    b = iv.hi.numerator * (D // iv.hi.denominator)
    lo = hi = 0
    dk = 1
    for coeff in reversed(poly_trim(c)):
        cands = (lo * a, lo * b, hi * a, hi * b)
        lo, hi = min(cands) + coeff * dk, max(cands) + coeff * dk
        dk *= D
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    return None


def poly_interpolate(values):
    """Integer coefficients, ascending and trimmed, of the polynomial of
    degree < len(values) taking ``values[s]`` at s = 0, 1, 2, ...

    Newton forward differences: f(s) = sum_j D^j f(0) * C(s, j), and f has
    integer coefficients exactly when every D^j f(0) is divisible by j!,
    so that the falling-factorial form sum_j (D^j f(0) / j!) * s(s-1)..
    (s-j+1) expands over Z.  Raises ValueError otherwise."""
    newton = []
    diffs = list(values)
    for j in range(len(diffs)):
        q, r = divmod(diffs[0], factorial(j))
        if r:
            raise ValueError("values are not those of an integer polynomial")
        newton.append(q)
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    coeffs = []
    for j in reversed(range(len(newton))):
        # coeffs <- coeffs * (s - j) + newton[j]
        coeffs = [a - j * b for a, b in zip([newton[j]] + coeffs,
                                             coeffs + [0])]
    return poly_trim(coeffs)


def poly_derivative(c):
    return [i * a for i, a in enumerate(c)][1:]


def poly_primitive(c, normalize_sign=True):
    """The trimmed integer polynomial c divided by its content (positive
    scaling; exact).

    With ``normalize_sign`` the leading coefficient is made positive, which
    changes signs and must NOT be used inside Sturm chains.
    """
    c = poly_trim(c)
    g = gcd(*c) or 1
    if normalize_sign and c and c[-1] < 0:
        g = -g
    return [a // g for a in c]


def _pseudo_divmod(f, g):
    """Quotient q and trimmed remainder r of c*f by g over Z, c*f = q*g
    + r with c = |lc g|^k > 0 after k steps, each of which multiplies the
    running remainder and quotient by |lc g|; ZeroDivisionError when g is
    zero.  So q and r are the rational ones times c > 0."""
    f, g = poly_trim(f), poly_trim(g)
    if not g:
        raise ZeroDivisionError
    scale, sign = abs(g[-1]), 1 if g[-1] > 0 else -1
    q = [0] * max(len(f) - len(g) + 1, 0)
    while len(f) >= len(g) and f:
        coef = sign * f[-1]
        shift = len(f) - len(g)
        q = [scale * a for a in q]
        q[shift] = coef
        f = [scale * a for a in f]
        for i, b in enumerate(g):
            f[i + shift] -= coef * b
        f = poly_trim(f)
    return q, f


def poly_gcd(f, g):
    """Primitive integer gcd, leading coefficient positive, of two integer
    polynomials: Euclid on primitive pseudo-remainders."""
    a, b = poly_trim(f), poly_trim(g)
    while b:
        a, b = b, poly_primitive(_pseudo_divmod(a, b)[1])
    return poly_primitive(a)


def squarefree_part(f):
    f = poly_primitive(f)
    if poly_degree(f) < 1:
        return f
    g = poly_gcd(f, poly_derivative(f))
    if poly_degree(g) < 1:
        return f
    return poly_primitive(_pseudo_divmod(f, g)[0])


def sturm_chain(f):
    """Sturm sequence of the squarefree part of f, which is ``chain[0]``.

    Every later element is rescaled to a primitive integer polynomial by a
    positive constant, which keeps coefficients small without touching the
    sign pattern Sturm's theorem depends on.
    """
    chain = [squarefree_part(f)]
    d = poly_derivative(chain[0])
    if poly_trim(d):
        chain.append(poly_primitive(d, normalize_sign=False))
    while poly_degree(chain[-1]) > 0:
        r = _pseudo_divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append(poly_primitive([-a for a in r], normalize_sign=False))
    return chain


def sturm_variations_at(chain, x):
    signs = [v > 0 for v in (poly_eval_scaled(c, x) for c in chain) if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_halfopen(chain, a, b):
    """Number of distinct real roots in (a, b] for the chain's polynomial."""
    return sturm_variations_at(chain, a) - sturm_variations_at(chain, b)


def root_bound(f):
    """Cauchy bound: all real roots lie in (-B, B]."""
    c = poly_primitive(f)
    lead = abs(c[-1])
    m = max(abs(a) for a in c[:-1]) if len(c) > 1 else 0
    return Fraction(m, lead) + 1


def isolate_real_roots(chain):
    """Disjoint rational intervals, one per distinct real root of the
    polynomial whose Sturm chain (``sturm_chain``) is given.

    The polynomial must be nonzero.  Point intervals [r, r] mark exact
    rational roots; all other intervals are half-open caches (lo, hi] with
    exactly one root certified by Sturm counts, returned as closed
    RatIntervals whose endpoints are themselves non-roots.
    """
    sf = chain[0]
    if not sf:
        raise ValueError("zero polynomial has no isolated roots")
    if poly_degree(sf) < 1:
        return []
    B = root_bound(sf)
    total = count_roots_halfopen(chain, -B, B)
    out = []

    def recurse(a, b, count, b_excluded=False):
        # count roots in (a, b], or in (a, b) when b is a root already out
        if count == 0:
            return
        if count == 1:
            out.append(_shrink_away_from_root(chain, a, b, b_excluded))
            return
        mid = (a + b) / 2
        left = count_roots_halfopen(chain, a, mid)
        if poly_eval_scaled(sf, mid) == 0:
            # mid itself is counted in (a, mid]
            recurse(a, mid, left - 1, True)
            out.append(RatInterval(mid, mid))
        else:
            recurse(a, mid, left)
        recurse(mid, b, count - left, b_excluded)

    recurse(-B, B, total)
    out.sort(key=lambda iv: iv.lo)
    return out


def _shrink_away_from_root(chain, a, b, b_excluded=False):
    """Interval (a, b] with one root of chain[0], or (a, b) when
    ``b_excluded`` (b is then a root outside the interval); return closed
    interval with non-root endpoints still containing exactly that root."""
    sf = chain[0]
    # pull an excluded b to the left of the root, onto a non-root
    while b_excluded:
        mid = (a + b) / 2
        if poly_eval_scaled(sf, mid) == 0:
            return RatInterval(mid, mid)
        if count_roots_halfopen(chain, a, mid) == 1:
            b, b_excluded = mid, False
        else:
            a = mid
    # b may be the root itself (rational); check
    if poly_eval_scaled(sf, b) == 0:
        return RatInterval(b, b)
    # a is not a root of the half-open interval by construction; if
    # sf(a) == 0, the root at `a` belongs to the neighbour, so nudge a to
    # the right while keeping the count at 1.
    if poly_eval_scaled(sf, a) == 0:
        lo, hi = a, b
        while True:
            mid = (lo + hi) / 2
            if poly_eval_scaled(sf, mid) == 0:
                return RatInterval(mid, mid)
            if count_roots_halfopen(chain, mid, b) == 1:
                return RatInterval(mid, b)
            hi = mid
    return RatInterval(a, b)


def refine_root(chain, interval):
    """One bisection of an isolating interval of a root of chain[0], never
    losing the root: the half holding it, or the point interval at the
    midpoint when that is the root.  A point interval stays as it is.

    The interval is one from ``isolate_real_roots`` or from an earlier
    bisection: its endpoints are not roots and it holds one root of the
    squarefree chain[0], which is simple, so chain[0] changes sign across
    it exactly once.  The root lies in (lo, mid) exactly when chain[0] has
    different signs at lo and mid; the rest of the chain is not needed."""
    lo, hi = interval.lo, interval.hi
    if lo == hi:
        return interval
    mid = (lo + hi) / 2
    at_mid = poly_eval_scaled(chain[0], mid)
    if at_mid == 0:
        return RatInterval(mid, mid)
    if (poly_eval_scaled(chain[0], lo) > 0) != (at_mid > 0):
        return RatInterval(lo, mid)
    return RatInterval(mid, hi)
