"""Independent brute-force oracles the fast paths are validated against.

Everything here decides solvability by exhaustive search over residues,
never by the case formulas under test.
"""

from fractions import Fraction

import numpy as np


def squarefree_reduce(a):
    """A representative of the square class of a nonzero rational, as a
    squarefree integer."""
    a = Fraction(a)
    x = a.numerator * a.denominator
    s = 1 if x > 0 else -1
    x = abs(x)
    out = 1
    f = 2
    while f * f <= x:
        e = 0
        while x % f == 0:
            x //= f
            e += 1
        if e % 2:
            out *= f
        f += 1
    return s * out * x


_SQUARE_SETS = {}


def _square_table(pk):
    if pk not in _SQUARE_SETS:
        z = np.arange(pk, dtype=np.int64)
        table = np.zeros(pk, dtype=bool)
        table[(z * z) % pk] = True
        _SQUARE_SETS[pk] = table
    return _SQUARE_SETS[pk]


def conic_solvable_bruteforce(a, b, p):
    """Does z^2 = a x^2 + b y^2 have a nontrivial Q_p-point?

    After square-reduction of a and b (which cannot change the answer),
    a primitive solution mod p^k with k = 4 (odd p) or 6 (p = 2) lifts by
    Hensel's lemma, and any Q_p-solution scales to a primitive one; so the
    mod-p^k search below is an exact oracle.  Primitivity is enforced by
    normalising some coordinate to 1."""
    a = squarefree_reduce(a)
    b = squarefree_reduce(b)
    k = 6 if p == 2 else 4
    pk = p ** k
    squares = _square_table(pk)
    ys = np.arange(pk, dtype=np.int64)
    ysq = (ys * ys) % pk
    # x = 1: z^2 = a + b y^2 ; y = 1: z^2 = b + a x^2
    for (c0, c1) in ((a, b), (b, a)):
        vals = (c0 + c1 * ysq) % pk
        if squares[vals].any():
            return True
    # z = 1: 1 - a x^2 = b y^2
    bsq = np.zeros(pk, dtype=bool)
    bsq[(b * ysq) % pk] = True
    vals = (1 - a * ysq) % pk
    return bool(bsq[vals].any())


def conic_solvable_real(a, b):
    return a > 0 or b > 0


def diagonal_isotropic_bruteforce(d, p):
    """Is sum d_i x_i^2 = 0 solvable nontrivially over Q_p?  Exhaustive
    primitive search mod p^k (k = 3 odd, 6 even) after square-reduction."""
    d = [squarefree_reduce(x) for x in d]
    k = 6 if p == 2 else 3
    pk = p ** k
    r = len(d)
    sq = (np.arange(pk, dtype=np.int64) ** 2) % pk
    if r == 2:
        for lead in range(2):
            other = 1 - lead
            if ((d[lead] + d[other] * sq) % pk == 0).any():
                return True
        return False
    if r == 3:
        for lead in range(3):
            o = [i for i in range(3) if i != lead]
            A = (d[o[0]] * sq[:, None] + d[o[1]] * sq[None, :]
                 + d[lead]) % pk
            if (A == 0).any():
                return True
        return False
    if r == 4:
        for lead in range(4):
            o = [i for i in range(4) if i != lead]
            AB = (d[o[0]] * sq[:, None] + d[o[1]] * sq[None, :]).ravel() % pk
            targets = np.zeros(pk, dtype=bool)
            targets[(-d[lead] - d[o[2]] * sq) % pk] = True
            if targets[AB].any():
                return True
        return False
    raise ValueError("oracle supports ranks 2..4")


def albert_lemma_counterexamples(q):
    """Exhaustive check of the char-2 smooth-point criterion over F_q.

    Scans every tuple (a,...,g) of the normal form
    a x0^2 + b x1^2 + c x2^2 + d x3^2 + e x4^2 + f x0 x1 + g x2 x3 and
    returns (checked, counterexamples): tuples where some generator of
    (f^2 c, f^2 d, f^2 e, f^2 g, g^2 a, g^2 b, g^2 e, g^2 f) is nonzero
    but no smooth F_q-point exists.  Must come back with 0.
    """
    from symmetroid.gf import GF, projective_points

    gf = GF(q)
    assert gf.p == 2
    n = q ** 7
    digits = np.arange(n, dtype=np.int64)
    coeff = []
    r = digits
    for _ in range(7):
        coeff.append(r % q)
        r = r // q
    a, b, c, d, e, f, g = coeff
    mul = gf._mul if gf.r > 1 else None
    add = gf._add if gf.r > 1 else None

    def vmul(u, w):
        if mul is None:
            return (u * w) % 2
        return mul[u, w]

    def vadd(u, w):
        if add is None:
            return (u + w) % 2
        return add[u, w]

    smooth_exists = np.zeros(n, dtype=bool)
    for x in projective_points(gf):
        x0, x1, x2, x3, _ = x
        sq = [gf.mul(t, t) for t in x]
        val = vmul(a, sq[0])
        val = vadd(val, vmul(b, sq[1]))
        val = vadd(val, vmul(c, sq[2]))
        val = vadd(val, vmul(d, sq[3]))
        val = vadd(val, vmul(e, sq[4]))
        val = vadd(val, vmul(f, gf.mul(x0, x1)))
        val = vadd(val, vmul(g, gf.mul(x2, x3)))
        # char-2 gradient: (f x1, f x0, g x3, g x2, 0)
        grad_nonzero = np.zeros(n, dtype=bool)
        if x0 or x1:
            grad_nonzero |= f != 0
        if x2 or x3:
            grad_nonzero |= g != 0
        smooth_exists |= (val == 0) & grad_nonzero
    fsq = vmul(f, f)
    gsq = vmul(g, g)
    gens = [vmul(fsq, c), vmul(fsq, d), vmul(fsq, e), vmul(fsq, g),
            vmul(gsq, a), vmul(gsq, b), vmul(gsq, e), vmul(gsq, f)]
    some_gen_nonzero = np.zeros(n, dtype=bool)
    for col in gens:
        some_gen_nonzero |= col != 0
    bad = some_gen_nonzero & ~smooth_exists
    return n, int(bad.sum())


def pivot_rows_by_dicts(rows, p):
    """Indices of the rows, {column: coeff} dicts over Z, that are
    independent mod p of the rows before them (the row rank profile).

    Pure Python sparse elimination: each row is reduced against the basis
    kept so far, one leading column at a time; a row that survives joins
    the basis."""
    basis = {}  # leading column -> normalised row
    kept = []
    for idx, row in enumerate(rows):
        v = {c: x % p for c, x in row.items() if x % p}
        while v:
            lead = min(v)
            if lead not in basis:
                inv = pow(v[lead], p - 2, p)
                basis[lead] = {c: x * inv % p for c, x in v.items()}
                kept.append(idx)
                break
            f = v[lead]
            for c, x in basis[lead].items():
                nv = (v.get(c, 0) - f * x) % p
                if nv:
                    v[c] = nv
                else:
                    v.pop(c, None)
    return kept


def restrict_to_line(poly, u, w):
    """Ascending coefficients in s of poly(u + s*w), trimmed, by expanding
    every monomial of the MultiPoly ``poly`` over the linear forms
    u_i + s*w_i in one variable."""
    from symmetroid.polys import MultiPoly
    forms = [MultiPoly(1, {(0,): ui, (1,): wi}) for ui, wi in zip(u, w)]
    uni = MultiPoly.zero(1)
    for e, c in poly.terms.items():
        term = MultiPoly.constant(1, c)
        for f, k in zip(forms, e):
            term = term * f ** k
        uni = uni + term
    coeffs = [0] * (uni.total_degree() + 1)
    for (d,), c in uni.terms.items():
        coeffs[d] = c
    return coeffs


def cofactor_det(rows):
    """Determinant of a square matrix of MultiPoly entries by the textbook
    recursive cofactor expansion along the first row, one minor at a
    time, independent of the shared Laplace recursion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    det = 0
    for j in range(n):
        sub = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        term = rows[0][j] * cofactor_det(sub)
        det = det - term if j % 2 else det + term
    return det


def macaulay_rows_by_exponent_sums(terms, degrees, sizes, top):
    """The Macaulay rows of ``nullstellensatz._macaulay_rows`` (same
    arguments and row, entry and column order), built directly: every
    multiplier's exponent vector is added to every term of its generator,
    and the sums are ranked by ``monomial_ranks`` block by block, the
    first block the most significant digit.  Generators are taken one at
    a time and the pieces concatenated."""
    from itertools import product
    from math import comb

    from symmetroid.linalg import SparseRows
    from symmetroid.polys import monomial_ranks, monomials_of_degree

    cut = np.cumsum((0,) + tuple(sizes))
    indices = [np.zeros(0, dtype=np.int64)]
    data = [np.zeros(0, dtype=np.int64)]
    lengths = [np.zeros(0, dtype=np.int64)]
    for (e, c), deg in zip(terms, degrees):
        if not all(0 <= a <= d for a, d in zip(deg, top)):
            continue
        mults = np.array([sum(parts, ()) for parts in product(
            *(monomials_of_degree(s, d - a)
              for s, a, d in zip(sizes, deg, top)))], dtype=np.int64)
        sums = (mults[:, None, :] + e).reshape(-1, e.shape[1])
        cols = np.zeros(len(sums), dtype=np.int64)
        for b, (d, s) in enumerate(zip(top, sizes)):
            cols = (cols * comb(d + s - 1, s - 1)
                    + monomial_ranks(sums[:, cut[b]:cut[b + 1]]))
        indices.append(cols)
        data.append(np.tile(c, len(mults)))
        lengths.append(np.full(len(mults), len(c)))
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(lengths))])
    return SparseRows(indptr, np.concatenate(indices), np.concatenate(data))


def poly_eval_fraction(c, x):
    """Horner evaluation of the coefficient list c (ascending) at the
    rational x in Fraction arithmetic, one rational step per coefficient."""
    total = Fraction(0)
    x = Fraction(x)
    for a in reversed(c):
        total = total * x + a
    return total


def poly_divmod_fraction(f, g):
    """Quotient and trimmed remainder of f by g over Q by long division,
    as Fraction lists; ZeroDivisionError when g is zero."""
    f = [Fraction(a) for a in _trim(f)]
    g = [Fraction(a) for a in _trim(g)]
    if not g:
        raise ZeroDivisionError
    q = [Fraction(0)] * max(len(f) - len(g) + 1, 0)
    while len(f) >= len(g) and f:
        coef = f[-1] / g[-1]
        shift = len(f) - len(g)
        q[shift] = coef
        for i, b in enumerate(g):
            f[i + shift] -= coef * b
        f = _trim(f)
    return q, f


def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _primitive(c, normalize_sign=True):
    """The primitive integer polynomial on the ray of the rational c, with
    a positive leading coefficient when ``normalize_sign``."""
    from symmetroid.linalg import primitive_vector
    out = primitive_vector(_trim(c))
    if normalize_sign and out and out[-1] < 0:
        out = [-a for a in out]
    return out


def _derivative(c):
    return [i * a for i, a in enumerate(c)][1:]


def poly_gcd_fraction(f, g):
    """Primitive gcd of f and g, leading coefficient positive, by Euclid
    on the rational remainders of ``poly_divmod_fraction``."""
    a, b = _trim(f), _trim(g)
    while b:
        a, b = b, poly_divmod_fraction(a, b)[1]
    return _primitive(a)


def squarefree_part_fraction(f):
    """Primitive squarefree part of f: f over gcd(f, f') in Fraction
    arithmetic."""
    f = _primitive(f)
    if len(f) < 2:
        return f
    g = poly_gcd_fraction(f, _derivative(f))
    if len(g) < 2:
        return f
    return _primitive(poly_divmod_fraction(f, g)[0])


def sturm_chain_fraction(f):
    """Sturm sequence of the squarefree part of f from rational
    remainders, each element made primitive by a positive factor."""
    chain = [squarefree_part_fraction(f)]
    d = _derivative(chain[0])
    if _trim(d):
        chain.append(_primitive(d, normalize_sign=False))
    while len(chain[-1]) > 1:
        r = poly_divmod_fraction(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append(_primitive([-a for a in r], normalize_sign=False))
    return chain


def sturm_variations_fraction(chain, x):
    """Sign variations of the Sturm chain at the rational x, each member
    evaluated by ``poly_eval_fraction`` and zeros dropped."""
    signs = [1 if v > 0 else -1
             for v in (poly_eval_fraction(c, x) for c in chain) if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def first_common_zero_bruteforce(gens, nvars, q):
    """The first common zero mod q of the MultiPoly generators in
    P^{nvars-1}(F_q), or None, by evaluating every generator at every
    point with ``MultiPoly.evaluate``.  Points are normalised with first
    nonzero coordinate 1 and listed by the position of that 1, then in
    lexicographic order of the coordinates after it."""
    from itertools import product
    for lead in range(nvars):
        for tail in product(range(q), repeat=nvars - 1 - lead):
            point = (0,) * lead + (1,) + tail
            if all(g.evaluate(point) % q == 0 for g in gens):
                return point
    return None


def b_of_p_counting(p):
    """``density.b_of_p`` along the counting route: the 3-planes of P^13
    through each pointless quadric of ``pointless_quadric_count``, over
    all 4-planes of P^14."""
    from symmetroid.density import gaussian_count, pointless_quadric_count
    return Fraction(gaussian_count(3, 13, p) * pointless_quadric_count(p),
                    gaussian_count(4, 14, p))
