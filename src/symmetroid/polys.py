"""Sparse multivariate polynomials with exact integer coefficients.

Monomials are exponent tuples; the canonical term order is graded
lexicographic with the first variable strongest (x0 > x1 > ... within a
degree, higher total degree first).  All arithmetic is exact; nothing here
ever touches floating point.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import comb
from operator import add

import numpy as np

from .linalg import laplace_minors


def grlex_key(expvec):
    """Sort key for graded-lex order (ascending); reverse for display."""
    return (sum(expvec), expvec)


class MultiPoly:
    """A polynomial in ``nvars`` variables over Z.

    ``terms`` maps exponent tuples to nonzero coefficients.  Instances are
    treated as immutable; every operation returns a fresh polynomial.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {tuple(e): c for e, c in (terms or {}).items() if c}

    def _with(self, terms):
        """A polynomial in the same variables whose ``terms``, nonzero
        coefficients only, are taken as they are."""
        out = MultiPoly.__new__(MultiPoly)
        out.nvars, out.terms = self.nvars, terms
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def monomial(cls, nvars, expvec, c=1):
        return cls(nvars, {tuple(expvec): c})

    # -- basic queries -------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- ring operations ----------------------------------------------

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("polynomial ring mismatch")

    def __add__(self, other):
        if isinstance(other, int):
            other = MultiPoly.constant(self.nvars, other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            v = terms.get(e, 0) + c
            if v:
                terms[e] = v
            else:
                del terms[e]
        return self._with(terms)

    __radd__ = __add__

    def __neg__(self):
        return self._with({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = MultiPoly.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return MultiPoly(self.nvars)
            return self._with({e: other * c for e, c in self.terms.items()})
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return self._with({e: v for e, v in terms.items() if v})

    def __rmul__(self, other):
        return self * other if isinstance(other, int) else NotImplemented

    def evaluate(self, values):
        """Evaluate at a point of ints or Fractions."""
        if len(values) != self.nvars:
            raise ValueError("wrong number of values")
        total = 0
        for e, c in self.terms.items():
            term = c
            for v, k in zip(values, e):
                for _ in range(k):
                    term = term * v
            total = total + term
        return total

    # -- canonical presentation -----------------------------------------

    def sorted_terms(self):
        """Terms in descending graded-lex order (the canonical order)."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]),
                      reverse=True)

    def to_string(self, names=None):
        if not self.terms:
            return "0"
        if names is None:
            names = ["x%d" % i for i in range(self.nvars)]
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(names[i])
                elif k > 1:
                    factors.append("%s^%d" % (names[i], k))
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += " %s %s" % (sign, body)
        return out

    def __repr__(self):
        return "MultiPoly(%s)" % self.to_string()


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]\d*)|(\^|\*\*)|(\*)|(\+)|(-)|(\())|(\))")


def parse_poly(s, names):
    """Parse an integer-coefficient polynomial in the given variables.

    Accepts forms like ``x0*x1 + 3*x2^2 - x3**2`` and juxtaposed products
    like ``4x0x1``.  No parentheses; signs only as term separators or a
    leading sign.
    """
    nvars = len(names)
    index = {n: i for i, n in enumerate(names)}
    # tokenize
    tokens = []
    pos = 0
    s = s.strip()
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError("cannot parse polynomial near %r" % s[pos:pos + 12])
        pos = m.end()
        if m.group(1):
            tokens.append(("int", int(m.group(1))))
        elif m.group(2):
            name = m.group(2)
            if name not in index:
                raise ValueError("unknown variable %r (expected one of %s)"
                                 % (name, ", ".join(names)))
            tokens.append(("var", index[name]))
        elif m.group(3):
            tokens.append(("pow", None))
        elif m.group(4):
            tokens.append(("mul", None))
        elif m.group(5):
            tokens.append(("plus", None))
        elif m.group(6):
            tokens.append(("minus", None))
        else:
            raise ValueError("parentheses not supported in quadric strings")
    # split into terms on +/- separators
    poly = MultiPoly(nvars)
    sign = 1
    term_coeff = None
    term_exp = [0] * nvars
    started = False

    def flush():
        nonlocal poly, term_coeff, term_exp, started, sign
        if not started:
            raise ValueError("empty term in polynomial string")
        c = sign * (1 if term_coeff is None else term_coeff)
        poly = poly + MultiPoly.monomial(nvars, term_exp, c)
        term_coeff = None
        term_exp = [0] * nvars
        started = False
        sign = 1

    i = 0
    expect_exp_for = None
    while i < len(tokens):
        kind, val = tokens[i]
        if kind == "pow":
            if expect_exp_for is None:
                raise ValueError("misplaced exponent")
            if i + 1 >= len(tokens) or tokens[i + 1][0] != "int":
                raise ValueError("exponent must be an integer")
            term_exp[expect_exp_for] += tokens[i + 1][1] - 1
            expect_exp_for = None
            i += 2
            continue
        expect_exp_for = None
        if kind == "int":
            if term_coeff is None:
                term_coeff = val
            else:
                term_coeff *= val
            started = True
        elif kind == "var":
            term_exp[val] += 1
            expect_exp_for = val
            started = True
        elif kind == "mul":
            pass
        elif kind in ("plus", "minus"):
            if started:
                flush()
            if kind == "minus":
                sign = -sign
        i += 1
    if started:
        flush()
    elif tokens:
        raise ValueError("trailing operator in polynomial string")
    return poly


def poly_matrix_det(rows):
    """Determinant of a square matrix of MultiPoly entries (Laplace)."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    return laplace_minors(rows, range(n))[tuple(range(n))]


def monomials_of_degree(nvars, d):
    """All exponent vectors of total degree d, descending graded-lex."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for k in range(remaining, -1, -1):
            rec(prefix + (k,), remaining - k, slots - 1)

    rec((), d, nvars)
    return out


def monomial_ranks(E):
    """Positions of the rows of E, exponent vectors of one total degree d
    in an (N, n) integer array, in ``monomials_of_degree(n, d)``.

    Combinatorial number system: in descending lex order the monomials
    before e are, for each position j = 1..n-1, the C(s_j + n-j-1, n-j)
    monomials that agree with e on positions 0..j-2 and are larger at
    position j-1, where s_j = e_j + ... + e_{n-1}."""
    E = np.asarray(E, dtype=np.int64)
    n = E.shape[1]
    tails = np.cumsum(E[:, ::-1], axis=1)[:, ::-1]
    table = _comb_table(int(tails[:, 0].max(initial=0)) + n, n)
    ranks = np.zeros(len(E), dtype=np.int64)
    for j in range(1, n):
        ranks += table[tails[:, j] + n - j - 1, n - j]
    return ranks


@lru_cache(maxsize=None)
def _comb_table(top, n):
    """C(a, b) for a <= top and b <= n, read-only: built once per (top, n)
    and shared by every call of ``monomial_ranks``."""
    table = np.array([[comb(a, b) for b in range(n + 1)]
                      for a in range(top + 1)], dtype=np.int64)
    table.flags.writeable = False
    return table
