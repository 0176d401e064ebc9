"""Four-dimensional linear systems of quadrics in P^4.

A pencil (in the paper's wide sense: a 4-dimensional linear system) is
spanned by five independent quadrics Q0..Q4.  Attached to it are the
universal Gram matrix B(t) = sum t_i B_i over Z[t0..t4], the discriminant
quintic det B(t) cutting out the locus H of singular members, the leading
principal minors M1..M4 whose quotients give the quaternion representative
of the 2-torsion Brauer class, and the companion X-variety point
construction from singular members.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb, factorial

import numpy as np

from .linalg import (_laplace_tables, det_bareiss, is_prime,
                     kernel_rational, mat_mul, mat_vec, primitive_vector,
                     random_unimodular, rank_rational, transpose)
from .nullstellensatz import (HomIdealPresentation, Inconclusive,
                              _product_table, empty_bihomogeneous,
                              empty_over_fpbar)
from .polys import MultiPoly, monomials_of_degree
from .quadform import QuadricForm, parse_quadric_line, quadric_to_line
from .roots import poly_eval_scaled, poly_interpolate

T_NAMES = tuple("t%d" % i for i in range(5))


class Pencil:
    """Five independent quadrics and their universal Gram matrix."""

    def __init__(self, quadrics):
        quadrics = list(quadrics)
        if len(quadrics) != 5:
            raise ValueError("a pencil needs exactly five quadrics")
        coeff_rows = [list(Q.coeffs) for Q in quadrics]
        if rank_rational(coeff_rows) != 5:
            raise ValueError("the five quadrics are linearly dependent")
        self.quadrics = quadrics
        self.grams = [Q.gram() for Q in quadrics]

    # -- universal Gram -------------------------------------------------

    def _grams(self, T=None):
        """The Gram matrices B_i, or T^t B_i T after the x-basis change T."""
        if T is None:
            return self.grams
        Tt = transpose(T)
        return [mat_mul(mat_mul(Tt, B), T) for B in self.grams]

    def leading_minors(self, k_max, basis_change=None):
        """The leading principal minors M1..M_k_max of B(t) over Z, after
        the optional x-basis change T (every B_i replaced by T^t B_i T).

        One ``_linear_minors`` expansion of the Gram stack; M_k is the first
        column set of rows 0..k-1."""
        lin = np.array(self._grams(basis_change), dtype=object)
        tables = _linear_minors(lin.transpose(1, 2, 0), k_max)
        return [MultiPoly(5, dict(zip(monomials_of_degree(5, k),
                                      tables[tuple(range(k))][0].tolist())))
                for k in range(1, k_max + 1)]

    def line_minors(self, u, w, basis_change=None):
        """The leading principal minors M1..M4 and det B = M5 restricted to
        the line t = u + s*w, as ascending integer coefficient lists in s
        (trimmed), after the optional x-basis change T.

        The k x k minor of B(u) + s*B(w) has degree <= k in s, so its
        fraction-free determinants at s = 0..k fix it; ``poly_interpolate``
        recovers the coefficients exactly.  No polynomial in t is formed."""
        grams = self._grams(basis_change)
        Bu, Bw = (_combine(grams, t) for t in (u, w))
        out = []
        for k in range(1, 6):
            values = [det_bareiss([[Bu[i][j] + s * Bw[i][j]
                                    for j in range(k)] for i in range(k)])
                      for s in range(k + 1)]
            out.append(poly_interpolate(values))
        return out

    # -- members ---------------------------------------------------------

    def member(self, t):
        """The quadric at parameter t (rational tuple, cleared to ints)."""
        t = primitive_vector(t)
        coeffs = [sum(ti * Q.coeffs[k] for ti, Q in zip(t, self.quadrics))
                  for k in range(15)]
        return QuadricForm(coeffs)

    def gram_at(self, t):
        return _combine(self.grams, t)

    def det_at(self, t):
        return det_bareiss([[int(x) for x in row]
                            for row in self.gram_at(primitive_vector(t))])

    # -- serialization ----------------------------------------------------

    def to_lines(self):
        return [quadric_to_line(Q) for Q in self.quadrics]

    def as_json(self):
        return {"quadrics": [Q.to_string() for Q in self.quadrics],
                "coefficients": [list(Q.coeffs) for Q in self.quadrics]}

    def __repr__(self):
        return "Pencil([%s])" % ", ".join(Q.to_string()
                                          for Q in self.quadrics)


def _combine(grams, t):
    """sum_i t_i * grams[i], entry by entry."""
    t = list(t)
    return [[sum(ti * B[i][j] for ti, B in zip(t, grams))
             for j in range(5)] for i in range(5)]


# ---------------------------------------------------------------------------
# the quaternion representative


@dataclass
class AlphaSymbol:
    """Leading principal minors M1..M4 of B(t) and the formal symbol

        ( M2 / M1^2 , M3 / (M2 * M1) )

    as quotient pairs of polynomials.  ``basis_change`` records the
    unimodular x-substitution applied when the raw minors vanished on H.
    """
    minors: list                       # [M1, M2, M3, M4] MultiPoly
    basis_change: list | None          # 5x5 integer matrix or None
    witness_point: tuple | None        # H-point mod p with all minors != 0
    witness_prime: int | None

    @property
    def first(self):
        return (self.minors[1], self.minors[0] * self.minors[0])

    @property
    def second(self):
        return (self.minors[2], self.minors[1] * self.minors[0])

    def as_json(self):
        return {
            "minors": [m.to_string(T_NAMES) for m in self.minors],
            "symbol": {
                "a_num": self.first[0].to_string(T_NAMES),
                "a_den": self.first[1].to_string(T_NAMES),
                "b_num": self.second[0].to_string(T_NAMES),
                "b_den": self.second[1].to_string(T_NAMES),
            },
            "basis_change": self.basis_change,
            "witness_prime": self.witness_prime,
            "witness_point": list(self.witness_point)
            if self.witness_point else None,
        }


def alpha_symbol(P, seed=0, max_tries=100):
    """Quaternion representative of the Brauer class of Y_P.

    Requires the four leading principal minors of B(t) to be nonzero on H.
    Since deg M_k < deg det B(t), nonvanishing on H is equivalent to
    nonvanishing as a polynomial whenever H is reduced; a sampled H-point
    over a finite field where all four minors are nonzero is recorded as a
    positive certificate.  If the hypothesis fails for the given basis, a
    seeded random unimodular change of the x-basis is applied and recorded.
    """
    rng = random.Random(seed)
    basis_change = None
    for attempt in range(max_tries):
        minors = P.leading_minors(4, basis_change)
        if all(not m.is_zero() for m in minors):
            witness = _sample_h_point_with_minors(P, basis_change)
            if witness is not None:
                point, prime = witness
                return AlphaSymbol(minors=minors, basis_change=basis_change,
                                   witness_point=point, witness_prime=prime)
        basis_change = random_unimodular(5, rng, size=1)
    raise RuntimeError("no x-basis change made all minors nonzero on H "
                       "(%d attempts)" % max_tries)


# primes over which ``_sample_h_point_with_minors`` looks for an H-point
_SAMPLE_PRIMES = (10007, 10009, 10037)


def _sample_h_point_with_minors(P, basis_change):
    """Find t over F_p with det B(t) = 0 and the minors M1..M4 of B(t),
    after the x-basis change, all nonzero.

    On each of 60 seeded lines a + s*b through F_p^5 per prime, the line
    is restricted exactly (``Pencil.line_minors``; det B is unchanged by a
    unimodular change) and det B(a + s*b) is reduced mod p and evaluated
    at every s at once by Horner's rule in int64 (values stay below p^2).
    The first s with det = 0 and t != 0 is the candidate: it is returned
    when no minor vanishes there, and otherwise the next line is tried.
    """
    for p in _SAMPLE_PRIMES:
        rng = random.Random(p)
        s = np.arange(p, dtype=np.int64)
        for _ in range(60):
            a = [rng.randrange(p) for _ in range(5)]
            b = [rng.randrange(p) for _ in range(5)]
            line = P.line_minors(a, b, basis_change)
            det = np.zeros(p, dtype=np.int64)
            for c in reversed(line[4]):
                det = (det * s + c % p) % p
            t = (np.array(a)[:, None] + np.outer(b, s)) % p
            hits = np.flatnonzero((det == 0) & t.any(axis=0))
            if not len(hits):
                continue
            s0 = int(hits[0])
            if all(poly_eval_scaled(m, s0) % p for m in line[:4]):
                return tuple(int(x) for x in t[:, s0]), p
    return None


# ---------------------------------------------------------------------------
# X-variety points from singular members (Lemma 4.4 construction)


def x_point_from_singular_member(P, t_star, v=None):
    """A Q-point of X_P from a singular member of the pencil.

    ``t_star`` picks the member Q_{t*} (rank <= 4 required); ``v`` must be a
    rational kernel vector of its Gram matrix (found automatically when
    omitted).  Returns the unordered pair (v, w) with w^t B_i v = 0 for all
    generators, certified exactly.  A forced w parallel to v is flagged, as
    it contradicts diagonal avoidance for regular pencils.
    """
    t_star = primitive_vector(t_star)
    B = P.gram_at(t_star)
    if v is None:
        ker = kernel_rational(B)
        if not ker:
            raise ValueError("member has full rank; no kernel vector")
        v = ker[0]
    else:
        v = primitive_vector(v)
        if any(x != 0 for x in mat_vec(B, v)):
            raise ValueError("v is not in the kernel of the member's Gram")
    rows = [mat_vec(Bi, v) for Bi in P.grams]
    ker_w = kernel_rational(rows)
    if not ker_w:
        raise AssertionError("B_i v span a space of dimension 5; "
                             "contradicts the kernel relation")
    w = None
    for cand in ker_w:
        if not _parallel(cand, v):
            w = cand
            break
    degenerate = w is None
    if degenerate:
        w = ker_w[0]
    for Bi in P.grams:
        if sum(wi * x for wi, x in zip(w, mat_vec(Bi, v))) != 0:
            raise AssertionError("bilinear vanishing failed")
    return {"v": v, "w": w, "degenerate": degenerate, "t": t_star}


def _parallel(a, b):
    return all(a[i] * b[j] == a[j] * b[i]
               for i in range(5) for j in range(i + 1, 5))


# ---------------------------------------------------------------------------
# ideals attached to the pencil


@lru_cache(maxsize=None)
def _up_table(j):
    """up[k * M + a, b] = 1 where z_k times the a-th of the M monomials of
    degree j - 1 in z0..z4 is the b-th of degree j (``monomials_of_degree``
    order, read from ``_product_table``), else 0.  Read-only: built once
    per j and shared."""
    table = _product_table(5, 1, j - 1).ravel()
    up = np.zeros((len(table), comb(j + 4, 4)), dtype=np.int64)
    up[np.arange(len(table)), table] = 1
    up.flags.writeable = False
    return up


def _linear_minors(lin, k_max):
    """Coefficient tables over Z of the minors of L(z), a 5x5 matrix of
    linear forms in z0..z4, lin[i, j, v] the coefficient of z_v in
    L(z)[i][j]: minors[R][a] is det L(z)[R, S] over the monomials of degree
    |R| (``monomials_of_degree`` order), S the a-th column set of its size
    in ``combinations`` order, for each row set R of at most k_max rows.

    Expansion along the first row R[0] (column sets and signs from
    ``linalg._laplace_tables``) multiplies linear forms by coefficient
    vectors, one degree up through ``_up_table``.  Each coefficient and
    partial sum of a k x k minor is at most k! (5 c)^k, c = max |lin|:
    int64 while that is below 2^63 at k = k_max, else Python ints in
    object arrays."""
    lin = np.array(lin, dtype=object)
    top = int(abs(lin).max())
    dtype = (np.int64 if factorial(k_max) * (5 * top) ** k_max < 1 << 63
             else object)
    lin = lin.astype(dtype)
    minors = {(): np.ones((1, 1), dtype=dtype)}
    for j in range(1, k_max + 1):
        _, take, rest = _laplace_tables(5, j)
        for R in combinations(range(5), j):
            signed = np.concatenate([lin[R[0]], -lin[R[0]]])[take]
            term = signed[..., None] * minors[R[1:]][rest][..., None, :]
            minors[R] = term.sum(axis=1).reshape(len(take), -1) @ _up_table(j)
    return minors


def rank_le2_minor_ideal(P):
    """The 3x3 minors of B(t) restricted to the pencil, over Z.

    Their common zero locus inside the parameter space is the set of
    members whose Gram matrix has rank at most 2.  Minors are symmetric in
    (rows, cols), so only the 55 distinct ones are listed: rows I and
    columns J >= I, in ``combinations`` order, zero minors left out, read
    from the coefficient tables of ``_linear_minors`` (terms in
    ``monomials_of_degree`` order).
    """
    minors = _linear_minors(
        np.array(P.grams, dtype=object).transpose(1, 2, 0), 3)
    exps = np.array(monomials_of_degree(5, 3), dtype=np.int64)
    sets = list(combinations(range(5), 3))
    gens = [(exps[c != 0], c[c != 0]) for I in sets
            for J, c in zip(sets, minors[I]) if J >= I and c.any()]
    return HomIdealPresentation(5, gens)


def diagonal_avoidance_ideal(P):
    """The five quadrics as an ideal over Z in the x-variables; emptiness
    over F_pbar means the pencil is base-point free on the diagonal."""
    return HomIdealPresentation.from_polys(
        5, [Q.to_poly() for Q in P.quadrics])


def singular_locus_ideal(P):
    """Bihomogeneous ideal over Z of the singular locus of the
    (1,1)-divisor intersection in P^4 x P^4: the five bilinear forms
    x^t B_i y plus all 5x5 minors of their 5x10 Jacobian, in
    ``combinations`` order of the columns, zero minors left out.  One
    ideal serves every prime: ``empty_bihomogeneous`` reduces it mod p.

    The B_i are symmetric, so the Jacobian (columns d/dx_j, then d/dy_j)
    is J = [L(y) | L(x)] with L(z)[i][j] = (B_i z)_j.  A minor on the
    columns S of L(y) and T of L(x), k = |S|, expands along the two column
    blocks (Laplace; Muir, "A Treatise on the Theory of Determinants"):
    det = sum over k-sets R of rows, 0-based, of
    (-1)^(sum R + k(k-1)/2) det L(y)[R, S] det L(x)[R^c, T].  The minors
    of L(z) are formed once, over Z, as the coefficient tables of
    ``_linear_minors``; they serve both x and y.  Each term is the outer
    product of an x-vector and a y-vector, x-major, and the minor has
    bidegree (5 - k, k).  A cell of it sums C(5, k) products of a k-minor
    and a (5 - k)-minor coefficient, so it stays within 5! (5 c)^5, the
    bound by which ``_linear_minors`` picks int64 or Python ints at k = 5.
    The nonzero cells of each such table, and of each B_i, index a table
    of exponents: the generators' term arrays.
    """
    mons = [monomials_of_degree(5, j) for j in range(6)]

    def pairs(a, b):
        """The exponents of the products of the monomials of degree a in x
        and b in y, x-major, in int8: no exponent passes 5."""
        x, y = (np.array(mons[d], dtype=np.int8) for d in (a, b))
        return np.hstack([np.repeat(x, len(y), axis=0),
                          np.tile(y, (len(x), 1))])

    # minors[R][at[S]]: det L(z)[R, S], lin[i, j, k] = B_i[j][k]; the
    # 1 x 1 ones on row i, x-major, are the coefficients of x^t B_i y
    minors = _linear_minors(P.grams, 5)
    gens = [(pairs(1, 1)[c != 0], c[c != 0])
            for c in (minors[(i,)].ravel() for i in range(5))]
    bidegrees = [(1, 1)] * len(gens)
    sets = [list(combinations(range(5), j)) for j in range(6)]
    at = {S: i for j in range(6) for i, S in enumerate(sets[j])}
    # block[k][at[T], :, at[S], :]: the minor on (S, T), |S| = k, x-major
    block = []
    for k in range(6):
        acc = 0
        for R in sets[k]:
            Rc = tuple(i for i in range(5) if i not in R)
            term = np.multiply.outer(minors[Rc], minors[R])
            acc = (acc - term if (sum(R) + k * (k - 1) // 2) % 2
                   else acc + term)
        block.append(acc)
    keys = [pairs(5 - k, k) for k in range(6)]
    for cols in combinations(range(10), 5):
        S = tuple(c for c in cols if c < 5)
        T = tuple(c - 5 for c in cols if c >= 5)
        k = len(S)
        flat = block[k][at[T], :, at[S], :].ravel()
        nz = np.flatnonzero(flat)
        if nz.size:
            gens.append((keys[k][nz], flat[nz]))
            bidegrees.append((5 - k, k))
    return HomIdealPresentation(10, gens, bidegrees, 5, 5)


@dataclass
class RegularityCertificate:
    prime: int
    diagonal_avoidance: object        # EmptinessCertificate
    smoothness: object                # EmptinessCertificate (bihomogeneous)
    pencil_lines: list                # Pencil.to_lines() of the pencil proved

    @property
    def certified(self):
        return bool(self.diagonal_avoidance) and bool(self.smoothness)

    def as_json(self):
        return {
            "prime": self.prime,
            "certified": self.certified,
            "diagonal_avoidance": self.diagonal_avoidance.as_json(),
            "smoothness": self.smoothness.as_json(),
        }


def regularity_certificate(P, p, d_max_diag=8, d_max_bi=(4, 4)):
    """Certify regularity of the pencil by special-fiber smoothness at p.

    Both checks run over F_pbar: (a) the five quadrics have no common
    projective zero (so the (1,1)-divisors avoid the diagonal), and (b)
    the bihomogeneous singular locus of their intersection is empty.  The
    subschemes involved are proper over Z, so an empty fiber at any single
    prime forces the Q-fiber to be empty too: the pencil is regular.
    Either check exhausting its degree cap yields "inconclusive", never a
    false positive.
    """
    if not is_prime(p):
        raise ValueError("witness prime required")
    diag = empty_over_fpbar(diagonal_avoidance_ideal(P), d_max_diag, p)
    if isinstance(diag, Inconclusive):
        return RegularityCertificate(prime=p, diagonal_avoidance=diag,
                                     smoothness=Inconclusive(
                                         "skipped: diagonal check failed",
                                         d_max_bi),
                                     pencil_lines=P.to_lines())
    smooth = empty_bihomogeneous(singular_locus_ideal(P), d_max_bi, p)
    return RegularityCertificate(prime=p, diagonal_avoidance=diag,
                                 smoothness=smooth, pencil_lines=P.to_lines())


# ---------------------------------------------------------------------------
# pencil files


def parse_pencil_text(text):
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if len(lines) != 5:
        raise ValueError("a pencil file needs exactly 5 quadric lines "
                         "(got %d)" % len(lines))
    return Pencil([parse_quadric_line(ln) for ln in lines])


def parse_pencil_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_pencil_text(fh.read())
