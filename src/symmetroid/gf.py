"""Small finite fields F_q (q = p^r) with table-based arithmetic.

Elements are ints in [0, q) encoding polynomial coefficients base p.  Only
desk-scale fields are needed (F_4, F_8 and F_9 besides the primes), so
full multiplication tables are precomputed.  The point table of
P^(n-1)(F_q), ``projective_points``, is shared by the S_p scans, the
census and the all-primes test's common-zero screen.
"""

from __future__ import annotations

import numpy as np

from .linalg import is_prime

# irreducible polynomials x^r + ... used to build F_{p^r}; coefficients of
# the reduction polynomial x^r = -(lower part), stored ascending
_REDUCTION = {
    (2, 2): [1, 1],        # x^2 = x + 1
    (2, 3): [1, 1, 0],     # x^3 = x + 1
    (3, 2): [2, 0],        # x^2 = 2  (x^2 + 1 irreducible mod 3)
}


class GF:
    """The field with q elements; q = p or one of the tabulated p^r."""

    def __init__(self, q):
        p, r = _factor_prime_power(q)
        self.q = q
        self.p = p
        self.r = r
        if r == 1:
            self._mul = None
        else:
            if (p, r) not in _REDUCTION:
                raise ValueError("F_%d not tabulated" % q)
            self._build_tables(p, r, _REDUCTION[(p, r)])

    def _build_tables(self, p, r, red):
        q = self.q

        def to_vec(a):
            return [(a // p**i) % p for i in range(r)]

        def from_vec(v):
            return sum((c % p) * p**i for i, c in enumerate(v))

        def polymul(u, v):
            prod = [0] * (2 * r - 1)
            for i, a in enumerate(u):
                for j, b in enumerate(v):
                    prod[i + j] = (prod[i + j] + a * b) % p
            # reduce powers >= r using x^r = red
            for k in range(2 * r - 2, r - 1, -1):
                c = prod[k]
                if c:
                    prod[k] = 0
                    for i, rc in enumerate(red):
                        prod[k - r + i] = (prod[k - r + i] + c * rc) % p
            return prod[:r]

        mul = np.zeros((q, q), dtype=np.int64)
        for a in range(q):
            va = to_vec(a)
            for b in range(a, q):
                c = from_vec(polymul(va, to_vec(b)))
                mul[a, b] = c
                mul[b, a] = c
        add = np.zeros((q, q), dtype=np.int64)
        for a in range(q):
            va = to_vec(a)
            for b in range(q):
                vb = to_vec(b)
                add[a, b] = from_vec([x + y for x, y in zip(va, vb)])
        self._mul = mul
        self._add = add
        self._neg = np.array([add[a].tolist().index(0) for a in range(q)],
                             dtype=np.int64)

    # -- scalar ops ----------------------------------------------------

    def add(self, a, b):
        if self.r == 1:
            return (a + b) % self.p
        return int(self._add[a, b])

    def mul(self, a, b):
        if self.r == 1:
            return (a * b) % self.p
        return int(self._mul[a, b])

    def neg(self, a):
        if self.r == 1:
            return (-a) % self.p
        return int(self._neg[a])

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError
        if self.r == 1:
            return pow(a, self.p - 2, self.p)
        return self.power(a, self.q - 2)

    def power(self, a, n):
        result = 1
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def is_square(self, a):
        """Squareness in F_q; every element is a square when p = 2."""
        if a == 0:
            return True
        if self.p == 2:
            return True
        return self.power(a, (self.q - 1) // 2) == 1


def _factor_prime_power(q):
    for p in (2, 3, 5, 7, 11, 13):
        if q % p == 0:
            r = 0
            m = q
            while m % p == 0:
                m //= p
                r += 1
            if m != 1:
                break
            return p, r
    if is_prime(q):
        return q, 1
    raise ValueError("%d is not a tabulated prime power" % q)


def _block_starts(q, n):
    """Table positions where the points of P^(n-1)(F_q) with first nonzero
    coordinate 0, 1, ..., n - 1 begin, followed by their number."""
    return np.cumsum([0] + [q ** (n - 1 - lead) for lead in range(n)])


def projective_points(q, n=5, start=0, stop=None, idx=None):
    """The points of P^(n-1)(F_q) at positions start..stop of the table
    order (all of them by default), or at the positions ``idx``, as int64
    rows whose first nonzero coordinate is 1 (elements encoded as in
    ``GF``).  Table order: by the position of that 1, then by the
    coordinates after it read as base-q digits, the first one lowest."""
    starts = _block_starts(q, n)
    if idx is None:
        idx = np.arange(start, starts[-1] if stop is None else stop)
    lead = np.searchsorted(starts, idx, side="right")[:, None] - 1
    digit = np.arange(n) - lead - 1         # coordinate c is digit c-lead-1
    r = (idx - starts[lead[:, 0]])[:, None]
    return np.where(digit >= 0, r // q ** np.maximum(digit, 0) % q,
                    digit == -1)
