"""Emptiness certificates for projective zero loci via Macaulay matrices.

A homogeneous ideal I cuts out the empty set in projective space over a
field k exactly when some power of the irrelevant ideal lies inside it,
i.e. when the degree-d piece of I is the full space of degree-d forms.
The engine tests this degree by degree: the Macaulay matrix of monomial
multiples of the generators must have full column rank.

Over Z the degree-d piece is an integer lattice L_d inside the monomial
lattice Z^N.  Its elementary divisors decide every prime at once: full
rank with all divisors 1 certifies emptiness of all geometric fibers of
Spec Z.  Saturation with respect to 2 is implemented by stripping the
2-parts of the divisors, which matches saturating the ideal at 2 degree by
degree.  Certificates are only ever issued on positive evidence; running
out of degree budget reports "inconclusive", never a verdict.

The subset determinants stop at the first prime they prove uncleared:
from the second one on, the small primes q of their gcd are ranked mod q,
smallest first, and a rank loss puts q in the lattice index and so in
every later determinant: q is the prime the full gcd would name first.

A degree whose index evidence names a prime q that the rank mod q
cannot clear ends the ladder early when the generators have a common zero
x in P^{n-1}(F_q): every Macaulay row g*m vanishes at x, so at every
degree d the vector of degree-d monomials at x is a nonzero kernel vector
mod q, q divides every later lattice index, and no degree can clear it.
The result is then "inconclusive" at once, with x and q as its witness.
Under 2-saturation q = 2 is never a bad prime, so it is never screened.

Over F_p the ladder of multidegrees does not start each rung afresh.  A
rung ranked on the blocked path of ``fp_rank_sparse_dense`` that falls
short of full rank hands back its span in right-reduced form, one basis
row per trailing column.  Multiplied by the monomials that lift it to a
later rung above it, each such row stays in that rung's span and ends at
the product column, so the derived rows lead the later rung's triangular
head (cf. the reuse of lower-degree reductions in F4: Faugere, "A new
efficient algorithm for computing Groebner bases (F4)", JPAA 139, 1999).
On the bidegree-(4, 3) block of the regularity proof that head covers
2405 of 2450 columns, against 1510 from the block's own rows.  The seed
is a small-kernel optimisation: ``fp_rank_sparse_dense`` hands back a
basis only for a kernel of at most ``_PANEL`` columns, so mod 2, where
the (4, 2), (3, 3) and (4, 3) rungs have kernels of 325 to 526 columns,
the ladder runs unseeded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, gcd, prod

import numpy as np

from .gf import projective_points
from .linalg import (SparseRows, _int_dtype, det_exact_crt, fp_pivot_rows,
                     fp_rank_sparse_dense, is_prime)
from .polys import monomial_ranks, monomials_of_degree


@dataclass
class HomIdealPresentation:
    """A homogeneous ideal over Z in ``nvars`` variables, bigraded in the
    first ``nx`` and last ``ny`` variables when ``bidegrees`` labels the
    generators.  Each generator is a pair of term arrays: the exponents, an
    (N, nvars) integer array (int64 from ``from_polys``), and the
    coefficients, integers, or Python ints in an object array where int64
    might not hold one.  A test over F_p reduces them where it builds its
    Macaulay rows (``_full_span_mod``).  The checks record each
    generator's multidegree."""
    nvars: int
    generators: list                    # (exponents, coefficients) pairs
    bidegrees: list | None = None       # per-generator (a, b) when bigraded
    nx: int = 5                         # bigraded: first block size
    ny: int = 5
    degrees: list = field(init=False)   # (d,), (-1,) if no terms; or (a, b)

    def __post_init__(self):
        bigraded = self.bidegrees is not None
        if bigraded and len(self.bidegrees) != len(self.generators):
            raise ValueError("one bidegree per generator")
        if bigraded and self.nx + self.ny != self.nvars:
            raise ValueError("nx + ny must be nvars")
        self.degrees = []
        for i, (e, c) in enumerate(self.generators):
            if e.shape != (len(c), self.nvars):
                raise ValueError("generator in wrong ring")
            total = e.sum(axis=1)
            if not bigraded:
                if (total != total[:1]).any():
                    raise ValueError("generators must be homogeneous")
                self.degrees.append((int(total[0]) if len(c) else -1,))
                continue
            # each term of bidegree (a, b) has degree a + b, a of it in the
            # first block; this also checks homogeneity
            a, b = self.bidegrees[i]
            if ((total != a + b).any()
                    or (e[:, :self.nx].sum(axis=1) != a).any()):
                raise ValueError("generator %d is not of bidegree (%d, %d)"
                                 % (i, a, b))
            self.degrees.append((a, b))

    @classmethod
    def from_polys(cls, nvars, polys, bidegrees=None, nx=5, ny=5):
        """The presentation of ``MultiPoly`` generators."""
        generators = []
        for g in polys:
            coeffs = list(g.terms.values())
            fits = all(-(1 << 63) <= c < 1 << 63 for c in coeffs)
            generators.append((
                np.array(list(g.terms), dtype=np.int64).reshape(-1, g.nvars),
                np.array(coeffs, dtype=np.int64 if fits else object)))
        return cls(nvars, generators, bidegrees, nx, ny)


@dataclass
class EmptinessCertificate:
    degree: object                      # int, or (d, d) pair for bigraded
    scope: str                          # "F_pbar" | "all_primes"
    prime: int | None = None
    full_rank: bool = True
    saturated_at_2: bool = False
    divisor_summary: dict = field(default_factory=dict)
    method: str = "macaulay"
    details: dict = field(default_factory=dict)

    def holds_at(self, p):
        """Does this certificate cover the prime p?"""
        if self.scope == "F_pbar":
            return p == self.prime
        if not self.full_rank:
            return False
        summary = self.divisor_summary
        if p in summary.get("bad_primes", []):
            return False
        if p == 2 and self.saturated_at_2:
            # stripped 2-parts say nothing about p = 2: it is covered only
            # when the block has full rank mod 2
            return summary.get("rank_mod_2") == self.details.get("columns")
        return True

    def as_json(self):
        return {
            "degree": list(self.degree) if isinstance(self.degree, tuple)
            else self.degree,
            "scope": self.scope,
            "prime": self.prime,
            "full_rank": self.full_rank,
            "saturated_at_2": self.saturated_at_2,
            "divisor_summary": self.divisor_summary,
            "method": self.method,
            "details": self.details,
        }


class Inconclusive:
    """Result value when the degree cap is exhausted without a certificate,
    or when a ``witness`` (a common zero mod a prime no degree can clear)
    shows that no degree can give one."""

    def __init__(self, reason, degree_cap, witness=None):
        self.reason = reason
        self.degree_cap = degree_cap
        self.witness = witness          # {"prime": q, "point": [...]}

    def __bool__(self):
        return False

    def as_json(self):
        out = {"inconclusive": True, "reason": self.reason,
               "degree_cap": list(self.degree_cap)
               if isinstance(self.degree_cap, tuple) else self.degree_cap}
        if self.witness is not None:
            out["witness"] = self.witness
        return out

    def __repr__(self):
        return "Inconclusive(%r)" % self.reason


# ---------------------------------------------------------------------------
# Macaulay rows


@lru_cache(maxsize=None)
def _product_table(nvars, dt, dm):
    """table[i, j]: the rank in ``monomials_of_degree(nvars, dt + dm)`` of
    the product of the monomials of ranks i (degree dt) and j (degree
    dm).  Read-only: built once per (nvars, dt, dm) and shared."""
    t = _exponents(monomials_of_degree(nvars, dt), nvars)
    m = _exponents(monomials_of_degree(nvars, dm), nvars)
    table = monomial_ranks((t[:, None, :] + m).reshape(-1, nvars)).reshape(
        len(t), len(m))
    table.flags.writeable = False
    return table


def _monomial_count(deg, sizes):
    """The number of monomials of multidegree ``deg`` in variable blocks of
    ``sizes``: 0 when a block degree is negative."""
    return prod(comb(d + s - 1, s - 1) if d >= 0 else 0
                for d, s in zip(deg, sizes))


def _row_count(degrees, sizes, top):
    """The number of Macaulay rows of multidegree ``top`` that
    ``_macaulay_rows`` builds for generators of multidegrees ``degrees``:
    one per multiplier of multidegree top - deg g."""
    return sum(_monomial_count([d - a for a, d in zip(deg, top)], sizes)
               for deg in degrees)


def _product_columns(ranks, deg, top, sizes):
    """cols[k, i]: the column of multidegree ``top`` of m_k * t_i, for the
    monomials t_i of multidegree ``deg`` whose rank in block b is
    ``ranks[b][i]``, and the multipliers m_k of multidegree top - deg in
    mixed-radix order of their ranks in the blocks (the first block most
    significant).  The columns are the monomials of multidegree ``top`` in
    the same order, and each block's product is read from its
    ``_product_table``."""
    cols = np.zeros((1, len(ranks[0])), dtype=np.int64)
    for r, a, d, s in zip(ranks, deg, top, sizes):
        cols = (cols[:, None, :] * comb(d + s - 1, s - 1)
                + _product_table(s, a, d - a)[r].T).reshape(-1, cols.shape[1])
    return cols


def _macaulay_rows(terms, degrees, sizes, top):
    """The Macaulay rows g*m of multidegree ``top`` as ``SparseRows``.

    The variables fall into blocks of ``sizes`` (one block: the usual
    grading; two: the bigrading); generator g has the multidegree
    ``degrees[g]`` and the term arrays ``terms[g]`` (exponents and
    coefficients, as in ``HomIdealPresentation``).  Generator by
    generator, there is one row for each multiplier m of multidegree
    top - deg g, in the order of ``_product_columns``, with entries in the
    generator's term order.  The columns are the monomials of multidegree
    ``top`` in the same order.

    Each generator's rows are written straight into arrays allocated
    once; ``indices`` take the narrowest type that holds every column
    (``_int_dtype``: int16 up to 2^15 columns), and ``data`` the widest
    type of the contributing generators' coefficients (int64 when there
    are none), an object array when one of them is.  The exponents keep
    the generators' type."""
    used = [(e, c, deg) for (e, c), deg in zip(terms, degrees)
            if all(0 <= a <= d for a, d in zip(deg, top))]
    cut = np.cumsum((0,) + tuple(sizes))
    e = np.concatenate([e for e, _, _ in used]
                       or [np.zeros((0, cut[-1]), dtype=np.int64)])
    # the rank of every term in each block, all generators at once
    ranks = [monomial_ranks(e[:, lo:hi]) for lo, hi in zip(cut, cut[1:])]
    length = np.array([len(c) for _, c, _ in used], dtype=np.int64)
    nrows = np.array([_row_count([deg], sizes, top) for _, _, deg in used],
                     dtype=np.int64)
    indptr = np.concatenate([[0], np.cumsum(np.repeat(length, nrows))])
    indices = np.empty(indptr[-1],
                       dtype=_int_dtype(_monomial_count(top, sizes) - 1))
    data = np.empty(indptr[-1], dtype=np.result_type(
        *[c.dtype for _, c, _ in used] or [np.int64]))
    lo = at = 0
    for (_, c, deg), n in zip(used, length):
        cols = _product_columns([r[lo:lo + n] for r in ranks], deg, top,
                                sizes)
        indices[at:at + cols.size].reshape(cols.shape)[...] = cols
        data[at:at + cols.size].reshape(cols.shape)[...] = c
        lo += n
        at += cols.size
    return SparseRows(indptr, indices, data)


def _derived_rows(failed, sizes, top):
    """Rows in the span mod p of the Macaulay rows of multidegree ``top``,
    from the failed rungs below it, or None when there are none.

    ``failed`` holds (prev, B) for rungs of multidegree prev whose rows
    mod p span less than every column, B the right-reduced basis of their
    span (``fp_rank_sparse_dense``), each row ending at its trailing
    column.  For prev <= top, each row u of B and each multiplier m of
    multidegree top - prev give the row m*u.  The column order is a
    monomial order (descending lex in each block, in mixed radix), so the
    trailing column of m*u is m times that of u, and one row is kept for
    each distinct such column.  Every u is an F_p combination of the rows
    g*m' of prev, so m*u is one of the rows g*(m*m') of top: the rows
    derived lie in the span of top's rows, and full rank with them is
    full rank of top's block."""
    parts = []
    for prev, basis in failed:
        if any(a > d for a, d in zip(prev, top)):
            continue
        ranks = np.unravel_index(
            np.arange(_monomial_count(prev, sizes)),
            [comb(d + s - 1, s - 1) for d, s in zip(prev, sizes)])
        image = _product_columns(ranks, prev, top, sizes).T
        tails = image[basis.indices[basis.indptr[1:] - 1]]
        parts.append((basis, image, tails))
    if not parts:
        return None
    _, first = np.unique(np.concatenate([t.ravel() for _, _, t in parts]),
                         return_index=True)
    index = _int_dtype(_monomial_count(top, sizes) - 1)
    out = []
    for basis, image, tails in parts:
        mine = first[first < tails.size]
        first = first[first >= tails.size] - tails.size
        row, k = np.divmod(mine, tails.shape[1])
        rows = basis.take(row)
        rows.indices = image[rows.indices, np.repeat(
            k, np.diff(rows.indptr))].astype(index)
        out.append(rows)
    return SparseRows.concat(out)


def _exponents(monomials, nvars):
    return np.array(monomials, dtype=np.int64).reshape(-1, nvars)


# ---------------------------------------------------------------------------
# single-prime tests


def _full_span_mod(ideal, p, sizes, ladder, exhausted):
    """The F_pbar certificate at the first multidegree of ``ladder`` where
    the Macaulay rows mod p have full column rank, else ``exhausted``.

    The variables fall into blocks of ``sizes``, and ``ideal.degrees``
    are the generators' multidegrees in them.  This is the one place where
    the prime enters: the coefficients over Z are reduced mod p once, the
    terms that vanish dropped and then the generators left with none;
    ``ladder`` gets the multidegrees of the rest.  The residues are kept in
    the narrowest type that holds them (``_int_dtype``: int8 for p < 128),
    which the Macaulay rows inherit.

    A rung with fewer rows than columns (``_row_count``) is skipped before
    its rows are built.  Each rung that falls short keeps the
    right-reduced basis of its span when ``fp_rank_sparse_dense`` gives
    one, and the rows that ``_derived_rows`` makes of the kept bases below
    a rung lead its triangular head.  They only speed the rank up: the
    certificate, and its count of Macaulay rows, are those of the block
    alone.  A rung's rows and seed are dropped before the next rung is
    built."""
    kept = []
    for (e, c), deg in zip(ideal.generators, ideal.degrees):
        c = c % p
        if not c.all():
            e, c = e[c != 0], c[c != 0]
        if len(c):
            kept.append(((e, c.astype(_int_dtype(p - 1))), deg))
    if not kept:
        return Inconclusive("all generators vanish mod %d" % p,
                            exhausted.degree_cap)
    terms, degrees = zip(*kept)
    failed = []
    for top in ladder(degrees):
        ncols = _monomial_count(top, sizes)
        if _row_count(degrees, sizes, top) < ncols:
            continue
        rows = _macaulay_rows(terms, degrees, sizes, top)
        seed = _derived_rows(failed, sizes, top)
        rank, basis = fp_rank_sparse_dense(rows, ncols, p, seed, True)
        nrows = len(rows)
        del rows, seed
        if basis is not None:
            failed.append((top, basis))
        if rank < ncols:
            continue
        return EmptinessCertificate(
            degree=top if len(top) > 1 else top[0], scope="F_pbar", prime=p,
            details={"columns": ncols, "rows": nrows})
    return exhausted


def empty_over_fpbar(ideal, d_max, p):
    """Certify V(I) = 0 in P^{n-1} over an algebraic closure of F_p."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    return _full_span_mod(
        ideal, p, (ideal.nvars,),
        lambda degrees: [(d,) for d in range(max(degrees)[0], d_max + 1)],
        Inconclusive("no full-span degree <= %d mod %d" % (d_max, p), d_max))


# ---------------------------------------------------------------------------
# all-primes test over Z


_SCREEN_PRIMES = (1000003, 999983, 1000033)
# once two subset determinants are in, the primes below this bound that
# divide their gcd are ranked at once, smallest first: a block rank mod a
# prime below 100 costs less than one more pivot search and determinant
_EARLY_PRIME_BOUND = 100


def empty_all_primes(ideal, saturate_at_2=True, d_max=12):
    """Certify that the generators have no common projective zero over any
    algebraic closure F_pbar, simultaneously for all primes p.

    Per degree d the row lattice L_d of the Macaulay matrix is analysed:
    full rank plus trivial elementary divisors (after stripping 2-parts
    when ``saturate_at_2``) certifies every fiber at once.  The lattice
    index divides the determinant of any maximal nonsingular row subset,
    so the gcd of several such determinants (odd parts, after
    2-stripping) bounds the bad primes, each of which is then cleared by a
    full-rank check mod that prime; a small prime that fails it ends the
    degree once two determinants are in.
    """
    nvars = ideal.nvars
    kept = [(t, deg) for t, deg in zip(ideal.generators, ideal.degrees)
            if len(t[1])]
    if not kept:
        return Inconclusive("zero ideal", d_max)
    terms, degrees = zip(*kept)
    last_reason = "no certificate found"
    screened = set()
    for d in range(max(degrees)[0], d_max + 1):
        ncols = _monomial_count((d,), (nvars,))
        if _row_count(degrees, (nvars,), (d,)) < ncols:
            last_reason = "not enough rows at degree %d" % d
            continue
        block = _macaulay_rows(terms, degrees, (nvars,), (d,))
        try:
            result = _lattice_is_full_after_stripping(
                block, ncols, saturate_at_2)
        except _FactoringGaveUp:
            last_reason = ("factoring the index evidence ran out of its "
                           "Pollard-rho budget at degree %d" % d)
            continue
        except _PrimeNotCleared as exc:
            q = exc.args[0]
            # at d_max there is no later degree left to skip
            if d < d_max and q not in screened:
                screened.add(q)
                x = _common_zero_mod(terms, nvars, q)
                if x is not None:
                    return Inconclusive(
                        "the prime %d is not cleared at degree %d and the "
                        "generators vanish at %s mod %d, so no degree "
                        "clears it" % (q, d, x, q), d_max,
                        witness={"prime": q, "point": list(x)})
            result = None
        if result is None:
            last_reason = "lattice not full (after stripping) at degree %d" % d
            continue
        summary, method = result
        return EmptinessCertificate(
            degree=d, scope="all_primes", saturated_at_2=saturate_at_2,
            divisor_summary=summary, method=method,
            details={"columns": ncols, "rows": len(block)})
    return Inconclusive(last_reason, d_max)


class _FactoringGaveUp(Exception):
    """The subset-determinant gcd could not be factored within the rho
    budget, so nothing is known about the lattice."""


class _PrimeNotCleared(Exception):
    """The prime q (the only argument) divides the index evidence and the
    block loses rank mod q, so the lattice is not full."""


# A bad prime q is screened for a common zero only when P^{n-1}(F_q) has at
# most this many points and q itself is at most this large (which the point
# count implies for n >= 2).  Every product of two residues in
# _common_zero_mod then stays below 10^10 < 2^63, so int64 is exact.
_POINT_CAP = 100_000
# term values at points that _common_zero_mod holds at once, 8 MB of int64
_GATHER_CELLS = 1 << 20


def _common_zero_mod(terms, nvars, q):
    """The first common zero mod q in P^{nvars-1}(F_q) of the generators
    with the term arrays ``terms`` (as in ``HomIdealPresentation``), as a
    tuple of residues, or None; None also when there are more than
    ``_POINT_CAP`` points.

    Points come in the table order of ``gf.projective_points``.  Each
    generator is evaluated only where all the earlier ones vanish, at
    those points at once (``_GATHER_CELLS`` term values at a time): the
    values of its terms there are one gather from the table of powers per
    variable, multiplied across the variables mod q."""
    if q > _POINT_CAP or (q ** nvars - 1) // (q - 1) > _POINT_CAP:
        return None
    pts = projective_points(q, nvars)
    # powers[e, r] = r^e mod q
    powers = np.ones((max(int(e.max()) for e, _ in terms) + 1, q),
                     dtype=np.int64)
    for e in range(1, len(powers)):
        powers[e] = powers[e - 1] * np.arange(q) % q
    for e, c in terms:
        c = (c % q).astype(np.int64)[:, None]
        step = max(1, _GATHER_CELLS // len(e))
        zero = np.empty(len(pts), dtype=bool)
        for i in range(0, len(pts), step):
            at = pts[i:i + step]
            # vals[k, m]: term k of the generator at the point at[m]
            vals = np.repeat(c, len(at), axis=1)
            for j in range(nvars):
                vals *= powers[e[:, j]][:, at[:, j]]
                vals %= q
            zero[i:i + step] = vals.sum(axis=0) % q == 0
        pts = pts[zero]
        if not len(pts):
            return None
    return tuple(int(x) for x in pts[0])


def _lattice_is_full_after_stripping(block, ncols, saturate_at_2):
    """None when the row lattice is provably/possibly not full; otherwise a
    (divisor_summary, method) pair constituting the certificate.  Raises
    _FactoringGaveUp when the evidence gcd cannot be factored, and
    _PrimeNotCleared when a prime of it cannot be cleared.

    The lattice index [Z^N : L] divides the determinant of every maximal
    nonsingular row subset, so full rank modulo a screening prime plus a
    subset determinant whose (2-stripped) odd part is cleared prime by
    prime certifies trivial stripped divisors.

    From the second determinant on, the primes q < ``_EARLY_PRIME_BOUND``
    (from 3 under ``saturate_at_2``) of their gcd g are ranked mod q,
    ascending, each once.  A rank loss raises _PrimeNotCleared(q) at once:
    q is in the index, so in the final gcd, whose smaller primes all
    divide g and were ranked full, so q is the first it would fail on.
    """
    pivots, rank = fp_pivot_rows(block, ncols, _SCREEN_PRIMES[0])
    if rank < ncols and fp_pivot_rows(block, ncols,
                                      _SCREEN_PRIMES[1])[1] < ncols:
        return None
    # the index divides det(subset) for every maximal nonsingular row
    # subset; shuffling the row order makes the screening prime pick
    # different subsets, and on a full lattice their (stripped) gcd drops
    # to 1 within a few.  Attempt 0 keeps the block's order and the first
    # screening prime: that is the screen above.
    rng = random.Random(0xD1E5)
    dets = []
    g = 0
    order = list(range(len(block)))
    ranked = set()      # primes at which the block has full rank
    for attempt in range(8):
        if attempt:
            rng.shuffle(order)
            pivots, rank = fp_pivot_rows(block.take(order), ncols,
                                         _SCREEN_PRIMES[attempt % 3])
        if rank < ncols:
            continue
        D = det_exact_crt(block.take([order[i] for i in pivots])
                          .toarray(ncols))
        if not D:
            continue
        dets.append(D)
        g = gcd(g, _strip2(D) if saturate_at_2 else abs(D))
        if g == 1:
            break
        for q in range(2 + saturate_at_2, _EARLY_PRIME_BOUND):
            if len(dets) < 2 or g % q or q in ranked or not is_prime(q):
                continue
            if fp_rank_sparse_dense(block, ncols, q) < ncols:
                raise _PrimeNotCleared(q)
            ranked.add(q)
    if not dets:
        return None
    rank2 = None
    if saturate_at_2:
        rank2 = fp_rank_sparse_dense(block, ncols, 2)
    summary = {
        "subset_determinant_count": len(dets),
        "determinant_two_valuations": [_val2(D) for D in dets],
        "rank_mod_2": rank2,
        "bad_primes": [],
    }
    if g == 1:
        summary["index_evidence_gcd"] = 1
        return (summary, "minor-gcd")
    factors = _factorize(g)
    if factors is None:
        raise _FactoringGaveUp
    cleared = []
    for q in factors:
        if saturate_at_2 and q == 2:
            continue
        if q not in ranked and fp_rank_sparse_dense(block, ncols, q) != ncols:
            raise _PrimeNotCleared(q)
        cleared.append(q)
    summary["index_evidence_gcd"] = g
    summary["cleared_primes"] = cleared
    return (summary, "minor-gcd")


def _val2(x):
    """The exponent of 2 in the integer x, 0 for x = 0."""
    return (x & -x).bit_length() - 1 if x else 0


def _strip2(x):
    return abs(x) >> _val2(x)


# Pollard-rho iterations allowed per split: enough for prime factors up to
# about 2^36, a second or so of work.  Past it, factoring gives up.
_RHO_STEPS = 1 << 20


def _factorize(n):
    """Prime factors of |n|: trial division, then Brent-Pollard rho.

    None when rho runs out of its step budget on a composite cofactor."""
    n = abs(n)
    out = set()
    f = 2
    while f * f <= n and f < 100000:
        if n % f == 0:
            out.add(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out.add(m)
            continue
        d = _pollard_rho(m)
        if d is None:
            return None
        stack.append(d)
        stack.append(m // d)
    return sorted(out)


def _pollard_rho(n):
    """A nontrivial factor of composite odd n (Brent's cycle variant), or
    None after ``_RHO_STEPS`` iterations without one."""
    if n % 2 == 0:
        return 2
    rng = random.Random(n)
    steps = 0
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        while g == 1:
            if steps >= _RHO_STEPS:
                return None
            steps += 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


# ---------------------------------------------------------------------------
# bihomogeneous test in P^4 x P^4


def empty_bihomogeneous(ideal, d_max, p):
    """Certify emptiness in P^{nx-1} x P^{ny-1} over F_pbar.

    A full bidegree-(a,b) span puts (x)^a (y)^b inside the ideal, which
    leaves no biprojective point for V(I): certificates from any bidegree
    are valid.  Bidegrees (a, b) with a <= d_max[0] and b <= d_max[1]
    are scanned cheapest first; since the ideals met here are symmetric
    under swapping the factors, only a >= b is tried.
    """
    if not is_prime(p):
        raise ValueError("bihomogeneous test needs a prime modulus")
    if ideal.bidegrees is None:
        raise ValueError("bihomogeneous test needs bidegrees")
    nx, ny = ideal.nx, ideal.ny
    ladder = sorted(
        ((a, b) for a in range(1, d_max[0] + 1)
         for b in range(1, min(a, d_max[1]) + 1)),
        key=lambda ab: _monomial_count(ab, (nx, ny)))
    return _full_span_mod(
        ideal, p, (nx, ny), lambda degrees: ladder,
        Inconclusive("no full bidegree span up to %s mod %d" % (d_max, p),
                     d_max))
