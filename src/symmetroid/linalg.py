"""Exact linear algebra over Z, Q and F_p.

Integer matrices are lists of lists of Python ints or, for the Smith form
and the CRT determinant, integer arrays too (object arrays of Python ints
past int64), so all arithmetic is exact.  Two loops serve every ring or
field they meet:

- ``laplace_minors``, the generalized Laplace expansion, gives all
  minors on a set of rows, one gather, multiply and sum per level.  It
  uses only *, + and - on numpy arrays: numpy batches of residue
  matrices (the S_p scans) as they are, and lists of integers or of
  ``MultiPoly`` (``polys.poly_matrix_det``, which the tests use as an
  oracle) as object arrays, so their arithmetic stays exact.
- ``nullspace``, Gauss-Jordan over a field given by its add, mul, neg
  and inv: Q (``_RATIONALS``, behind ``kernel_rational``) or a ``GF``
  table field (the char-2 vertex in ``quadform``).

numpy backs the F_p kernels:

- ``_echelon_mod_p``, the plain in-place echelon loop, one pivot at a
  time.  On int64 residues it forms each product there, exact for
  p < 2^31, and larger primes run it on a numpy object array of Python
  ints: ``fp_rank`` (the sieve's 5 x 15 blocks) and small or large-prime
  Macaulay blocks use it.  On float residues inside the window below it
  reduces only the pivot column and row of each step and the whole block
  when a tracked bound would pass it: the pivot searches of the blocked
  path run there, on the block's own floats.
- ``_dets_mod_primes``, the determinants of one stack of residue
  matrices, each modulo its own prime near 2^30, in one pivot loop over
  the whole stack (``det_exact_crt``'s residues).
- ``_rank_blocked``, a right-looking blocked elimination for Macaulay
  blocks of at least ``_BLOCKED_MIN`` rows and columns over small primes.
  Each step picks up to ``_PANEL`` pivots at once and forms the Schur
  complement of the rows below with float GEMMs; one more GEMM clears
  the new pivot columns in the pivot rows above, so the rows it returns
  are in Gauss-Jordan form.  It is exact while every partial sum is an
  integer the float type holds, k(p-1)^2 + 2p < 2^24 for float32 and
  2^53 for float64 with k the GEMM's inner dimension (``_float_dtype``,
  ``_limit``); reductions mod p are delayed until that bound would be
  passed, and a prime outside the window is refused (``_window``).
  Outside both windows the plain loop runs on integers.

``fp_rank_sparse_dense`` takes a ``SparseRows`` block and chooses between
them.  On the blocked path (``_rank_incremental``) it keeps the basis
found so far fully reduced, rows [I | W] over all its pivot columns, and
stores W alone: rank x (ncols - rank) entries, at most ncols^2 / 4.  It
starts from a triangular head: a Macaulay row is a monomial multiple of a
generator, so many rows have their own trailing column, the largest one
nonzero mod p.  The first row with each distinct trailing column joins the
head, the rows of a seed (rows known to lie in the span of the block)
ahead of the block's own; the other seed rows add nothing and are dropped.
The head is triangular on those columns and so independent with no pivot
search; blocked forward substitution, one panel of ``_PANEL`` head rows at
a time (``_eliminate`` against the panels before it, then ``_tri_inverse``
of its diagonal block), makes it [I | W] (Faugere and Lachartre, "Parallel
Gaussian elimination for Groebner bases computations in finite fields",
PASCO 2010, who also store only the non-pivot part of the reduced rows,
and keep only the rest of a block dense).  Each batch of
``_BATCH_BLOCKED`` rows, its head rows left out, is dense on the ncols - r
columns still free only; its part on the r pivot columns comes in chunks
of ``_BATCH_BLOCKED`` columns, all cut from one pass over its entries
(``SparseRows.dense``), and each chunk C_j leaves its product through a
GEMM, ``X -= C_j @ W_j`` (``_eliminate``, its inner dimension cut further
where the window needs it).  ``_rank_blocked`` then runs on X; W is rebuilt
in one copy that loses its part on the batch's new pivot columns the same
way and gains the batch's new rows.  So the dense footprint is W, one
batch on its free columns and one head chunk, ``_BATCH_BLOCKED`` square,
or one head panel of ``_PANEL`` rows over every column: for the 7000 x
2450 (4, 3) block of the regularity proof mod 7, 0.4 MB of W (2405 x 45),
0.1 MB of batch and 1 MB of chunk in float32.  A block short of full rank
can hand back its span in right-reduced form (``_right_reduced``), a basis
whose rows end at distinct columns: the Macaulay ladder derives the seed
of a later rung from it.  Every other block goes to ``fp_pivot_rows``,
which feeds the plain loop ``_BATCH`` rows at a time, under the rows kept
so far, on their transpose: its pivot columns are the row rank profile,
the rows that form a basis, each independent of the rows before it, and
their count is the rank.  Its residues are stored in ``_fp_dtype``: int64,
exact for p < 2^31, and Python ints above.  The sparse rows that are kept,
Macaulay rows and right-reduced bases, store residues and column indices
in the narrowest type that holds them (``_int_dtype``).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, isqrt, lcm
from types import SimpleNamespace

import numpy as np


# ---------------------------------------------------------------------------
# primality (deterministic Miller-Rabin, valid far beyond 64 bits of use here)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# basic integer matrix helpers


def mat_mul(A, B):
    n, m, k = len(A), len(B[0]), len(B)
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def mat_vec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def transpose(A):
    return [list(col) for col in zip(*A)]


def det_bareiss(M):
    """Fraction-free determinant of a square integer matrix."""
    n = len(M)
    if n == 0:
        return 1
    a = [row[:] for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@lru_cache(maxsize=None)
def _laplace_tables(n, k):
    """Level k of ``laplace_minors`` on n columns: the k-subsets of
    range(n) in ``combinations`` order, and for the i-th one and its
    pos-th column c, ``take[i, pos]`` is where the signed row of
    ``laplace_minors`` holds (-1)^pos M[r][c] and ``rest[i, pos]`` the
    position of the subset without c among the (k - 1)-subsets."""
    sets = list(combinations(range(n), k))
    index = {s: i for i, s in enumerate(combinations(range(n), k - 1))}
    take = (np.array(sets, dtype=np.intp).reshape(-1, k)
            + n * (np.arange(k) % 2))
    rest = np.array([[index[s[:pos] + s[pos + 1:]] for pos in range(k)]
                     for s in sets], dtype=np.intp).reshape(-1, k)
    take.flags.writeable = rest.flags.writeable = False
    return sets, take, rest


def laplace_minors(M, rows):
    """Minors of M on ``rows`` (a sequence, taken in its order) for every
    set of as many columns: {column tuple: minor}, the tuples in
    ``itertools.combinations`` order.

    Generalized Laplace expansion (Muir): a minor on the last k of the
    rows expands along its first row r into minors on the last k - 1,
    which are all built first and shared, so each of the sum_k k * C(n, k)
    products (n columns) is formed once.  Each level is one gather, one
    multiply and one sum over all its column sets, through index tables
    built once per (n, k) (``_laplace_tables``).  M is an ndarray whose
    ``M[r][c]`` is an entry or an array of entries (a batch, its axes
    last); anything else, such as lists of Python ints or of
    ``MultiPoly``, becomes an object array, so integer and polynomial
    arithmetic stays exact.  Nothing is reduced and no entry is skipped.
    On residues in [0, p) each of the k terms of a k x k minor is at most
    (p - 1) (k - 1)! (p - 1)^(k - 1) in size, so every partial sum of the
    one sum over them, in whatever order it adds them, stays within
    their total k! (p - 1)^k."""
    if not isinstance(M, np.ndarray):
        M = np.array(M, dtype=object)
    n = M.shape[1]
    sets, level = [()], np.ones((1,) + M.shape[2:], dtype=M.dtype)
    for k, r in enumerate(reversed(rows), 1):
        sets, take, rest = _laplace_tables(n, k)
        signed = np.concatenate([M[r], -M[r]])
        level = (signed[take] * level[rest]).sum(axis=1)
    return dict(zip(sets, level))


def primitive_vector(v):
    """The primitive integer vector on the ray of a rational vector.

    Denominators are cleared and the content divided out, scaling by a
    positive factor only, so every sign is kept; zero stays zero.
    """
    fr = [Fraction(x) for x in v]
    den = lcm(*(x.denominator for x in fr))
    out = [int(x * den) for x in fr]
    g = gcd(*out)
    return [x // g for x in out] if g > 1 else out


# Q with the field operations that ``nullspace`` and the congruence
# diagonalisation take from a ``GF``
_RATIONALS = SimpleNamespace(add=operator.add, mul=operator.mul,
                             neg=operator.neg, inv=lambda a: 1 / a)


def nullspace(A, F):
    """Basis of the right kernel of the matrix A over the field F, whose
    add, mul, neg and inv are used: ``_RATIONALS`` on Fraction entries or
    a ``GF`` on its elements.

    Gauss-Jordan elimination on a copy of A.  Each basis vector is 1 at
    one free column, 0 at the other free columns, and minus that column
    of the reduced rows at the pivot columns."""
    n = len(A[0])
    rows = [row[:] for row in A]
    pivots = []  # (row, col)
    for c in range(n):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = F.neg(rows[i][c])
                rows[i] = [F.add(x, F.mul(f, y))
                           for x, y in zip(rows[i], rows[r])]
        pivots.append((r, c))
    basis = []
    for fc in sorted(set(range(n)) - {c for _, c in pivots}):
        v = [0] * n
        v[fc] = 1
        for pr, pc in pivots:
            v[pc] = F.neg(rows[pr][fc])
        basis.append(v)
    return basis


def kernel_rational(M):
    """Basis of the right kernel of an integer (or Fraction) matrix over Q.

    Returns a list of integer vectors (cleared of denominators, content 1).
    """
    if not M:
        raise ValueError("empty matrix")
    return [primitive_vector(v) for v in nullspace(
        [[Fraction(x) for x in row] for row in M], _RATIONALS)]


def rank_rational(M):
    if not M:
        return 0
    n = len(M[0])
    return n - len(kernel_rational(M))


# ---------------------------------------------------------------------------
# Smith normal form


def smith_divisors(M):
    """The diagonal of the Smith normal form of the integer matrix M, an
    array or a list of rows: min(m, n) nonnegative entries, d1 | d2 | ...

    One loop on the trailing block S[k:, k:].  Its pivot p is an entry of
    least nonzero |value|, moved to (k, k).  Floor division by p reduces
    its row and column, leaving remainders smaller than |p|; while one is
    left, the loop repeats on a smaller pivot.  Once both are clear, a row
    holding an entry that p does not divide is added to row k, whose next
    reduction leaves such a remainder.  Otherwise p divides the whole
    block, and d_k = |p|.  So the least nonzero |value| in the block, a
    positive integer, falls at least every second pass until d_k is
    recorded, and the loop ends.  The diagonal is unique, so it does not
    depend on the choice of pivots.
    """
    S = np.array(M, dtype=object).tolist()    # rows of Python ints
    m = len(S)
    n = len(S[0]) if m else 0
    out = []
    k = 0
    while k < min(m, n):
        block = [(abs(v), i, j) for i in range(k, m)
                 for j, v in enumerate(S[i][k:], k) if v]
        if not block:
            break
        _, i, j = min(block)
        S[k], S[i] = S[i], S[k]
        for row in S:
            row[k], row[j] = row[j], row[k]
        p = S[k][k]
        for i in range(k + 1, m):
            q = S[i][k] // p
            if q:
                S[i] = [a - q * b for a, b in zip(S[i], S[k])]
        for j in range(k + 1, n):
            q = S[k][j] // p
            if q:
                for row in S:
                    row[j] -= q * row[k]
        if any(S[i][k] for i in range(k + 1, m)) or any(S[k][k + 1:]):
            continue
        bad = next((i for i in range(k + 1, m)
                    if any(v % p for v in S[i][k + 1:])), None)
        if bad is None:
            out.append(abs(p))
            k += 1
        else:
            S[k] = [a + b for a, b in zip(S[k], S[bad])]
    return out + [0] * (min(m, n) - k)


# ---------------------------------------------------------------------------
# F_p elimination: the plain in-place echelon loop


def _fp_dtype(p):
    """Storage for residues mod p in the elimination kernel.

    Residues are stored as int64 and every product of two residues is
    formed in place, exact for p < 2^31: a residue is at most 2^31 - 2 and
    r - a*b stays above -2^62.  Larger primes run the same loop on a numpy
    object array of Python ints."""
    return np.int64 if p < 1 << 31 else object


def _int_dtype(top):
    """The narrowest signed integer type that holds 0..top: int8 up to
    127, int16 up to 2^15 - 1, int32 up to 2^31 - 1, int64 up to 2^63 - 1,
    and Python ints in an object array past that.  Residues mod p are
    stored in ``_int_dtype(p - 1)`` and the column indices of a block of
    n columns in ``_int_dtype(n - 1)``."""
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if top <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(object)


def _echelon_mod_p(A, p, reduced=False, width=None):
    """Row-reduce ``A`` to row echelon form over F_p, in place.

    ``A`` holds residues in [0, p) with dtype ``_fp_dtype(p)``, or reduced
    residues (|a| < p) in a float type whose window holds p (``_window``).
    Returns ``pivot_cols``: row i of the result has its pivot (a 1) in
    column ``pivot_cols[i]``, and the rows past ``len(pivot_cols)`` are
    zero.  With ``reduced`` the pivot columns are cleared
    above the pivots too (reduced row echelon form).  With ``width``,
    pivots are sought in the first ``width`` columns only (the row
    operations still span every column), and the rows past the pivots are
    zero there.  Integer entries end in [0, p), float entries reduced.

    An integer array is reduced mod p in every row that a step changes.
    A float array is reduced with ``_reduce`` in the pivot column and the
    pivot row of each step, so a step adds at most (p-1)^2 to an entry;
    the whole block is reduced only when that would take the tracked bound
    on its entries past ``_limit``, and once at the end (delayed
    reduction: Dumas, Giorgi and Pernet, "Dense linear algebra over
    word-size prime fields: the FFLAS and FFPACK packages", ACM TOMS 35,
    2008).
    """
    m, n = A.shape
    floats = A.dtype.kind == "f"
    if floats:
        limit = _window(A.dtype, p)[1]
        bound = p - 1             # |entries| right of the pivot column
    pivot_cols = []
    r = 0
    for c in range(n if width is None else width):
        if r == m:
            break
        if floats:
            _reduce(A[:, c], p)
        nz = A[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            # every row from r down is zero left of column c
            A[[r, pr], c:] = A[[pr, r], c:]
        piv = int(A[r, c])
        if floats:
            # scaled first, the row stays exact while bound (p-1) does
            if bound * (p - 1) > limit:
                _reduce(A[r, c + 1:], p)
            if piv != 1:
                A[r, c:] *= pow(piv, -1, p)
            _reduce(A[r, c:], p)
            A[r, c] = 1
        elif piv != 1:
            A[r, c:] = A[r, c:] * pow(piv, -1, p) % p
        # the rows below r that reach column c; the swap moved a row that
        # is zero there
        hit = r + nz[1:]
        if reduced:
            hit = np.concatenate([A[:r, c].nonzero()[0], hit])
        if hit.size and floats:
            if bound + (p - 1) ** 2 > limit:
                _reduce(A[:, c + 1:], p)
                bound = p - 1
            bound += (p - 1) ** 2
            A[hit, c:] -= A[hit, c, None] * A[r, c:]
        elif hit.size:
            U = np.outer(A[hit, c], A[r, c:])
            np.subtract(A[hit, c:], U, out=U)
            U %= p
            A[hit, c:] = U
        pivot_cols.append(c)
        r += 1
    if floats:
        _reduce(A, p)
    return pivot_cols


def _int_array(M):
    """An integer matrix as an array: a 64-bit integer array as it is (a
    uint64 one is never wrapped), a narrower one widened to int64, and a
    list of rows (``np.asarray`` reads some past int64 as float64) or an
    object array as int64 where every entry fits, else as Python ints."""
    if isinstance(M, np.ndarray) and M.dtype.kind in "iu":
        return M if M.dtype.itemsize == 8 else M.astype(np.int64)
    A = np.array(M, dtype=object)
    try:
        return A.astype(np.int64)
    except OverflowError:
        return A


def fp_rank(M, p):
    """Rank over F_p of an integer matrix (list of rows or numpy array)."""
    if not is_prime(p):
        raise ValueError("p = %d is not prime" % p)
    if not len(M) or not len(M[0]):
        return 0
    A = _int_array(M)
    if p >= 1 << 63:
        A = A.astype(object)      # reduce as Python ints
    return len(_echelon_mod_p((A % p).astype(_fp_dtype(p), copy=False), p))


# ---------------------------------------------------------------------------
# F_p elimination: blocked, on float GEMMs, for wide blocks over small primes


_PANEL = 64           # pivots per Schur step: the inner dimension of its GEMMs
_BATCH = 2600         # rows written under the rows kept so far per pass
                      # of fp_pivot_rows
_BATCH_BLOCKED = 512  # rows reduced against the stored basis per pass of the
                      # blocked path, dense on the ncols - rank free columns,
                      # and the width of the chunks their part on the pivot
                      # columns comes in: 512 x 512 floats, 1 MB in float32,
                      # next to the basis's rank * (ncols - rank) floats
_BLOCKED_MIN = 64     # blocks with fewer rows or columns keep the plain loop
                      # (Macaulay ladders, one core of a 2-core Xeon: the
                      # diagonal-avoidance rungs 75x70, 175x126 and 350x210
                      # of prop_q3 mod 7 take 10.0 ms at a cutoff of 256,
                      # 3.0 ms at 64; the twelve such ladders of the three
                      # pencils at p = 7, 3, 11, 5 take 167, 109, 73, 70
                      # and 69 ms at 256, 128, 64, 32 and 16, and the
                      # 35-column blocks of the V3 lattice stay plain)
_MANTISSA = {np.dtype(np.float32): 24, np.dtype(np.float64): 53}


def _limit(dtype, p):
    """The largest |x| of an integer-valued entry that the float type
    ``dtype`` holds exactly and ``_reduce`` reduces exactly mod p.

    An integer x is exact while |x| + p <= 2^t (t = 24 for float32, 53
    for float64; the + p covers p * rint(x / p)), and the one-product
    quotient estimate of ``_reduce`` is off by less than 1/2 while
    |x| < p * 2^(t-2)."""
    t = _MANTISSA[np.dtype(dtype)]
    return min((1 << t) - p, (p << (t - 2)) - 1)


def _float_dtype(p, k=_PANEL):
    """The narrower float type in which one GEMM of inner dimension k over
    reduced residues (|r| <= p - 1) added to a reduced entry stays exact:
    k(p-1)^2 + (p-1) <= ``_limit``, i.e. k(p-1)^2 + 2p <= 2^24 for float32
    (when p > 3).  None when float64 is too narrow as well."""
    for dtype in (np.float32, np.float64):
        if k * (p - 1) ** 2 + p - 1 <= _limit(dtype, p):
            return dtype
    return None


def _reduce(X, p):
    """Reduce the integer-valued float array X mod p in place, to some
    representative r with |r| < p; multiples of p become exactly 0.

    ``X - p * rint(X / p)`` with the quotient estimated by one product:
    exact while |X| <= ``_limit``, and ~70x faster than ``np.fmod``."""
    q = X * X.dtype.type(1 / p)
    np.rint(q, out=q)
    q *= p
    X -= q


class SparseRows:
    """Integer rows in compressed sparse row form: row i has the entries
    ``data[indptr[i]:indptr[i+1]]`` at columns ``indices[...]``.

    ``dense`` writes a run of rows mod p into dense arrays, ``toarray``
    writes the rows as they are and ``take`` reorders them."""

    def __init__(self, indptr, indices, data):
        self.indptr = indptr
        self.indices = indices
        self.data = data

    def __len__(self):
        return len(self.indptr) - 1

    def take(self, order):
        """The rows at the indices ``order``, in that order."""
        counts = np.diff(self.indptr)[order]
        indptr = np.concatenate([[0], np.cumsum(counts)])
        src = (np.repeat(self.indptr[order] - indptr[:-1], counts)
               + np.arange(indptr[-1]))
        return SparseRows(indptr, self.indices[src], self.data[src])

    @staticmethod
    def concat(blocks):
        """The rows of the blocks one after another; each block's arrays
        hold its rows only, ``indptr`` running from 0 to their length."""
        counts = np.concatenate([np.diff(b.indptr) for b in blocks])
        return SparseRows(np.concatenate([[0], np.cumsum(counts)]),
                          np.concatenate([b.indices for b in blocks]),
                          np.concatenate([b.data for b in blocks]))

    def toarray(self, ncols):
        """The rows as a dense array of ``ncols`` columns, in the dtype of
        ``data``."""
        out = np.zeros((len(self), ncols), dtype=self.data.dtype)
        out[np.repeat(np.arange(len(self)), np.diff(self.indptr)),
            self.indices] = self.data
        return out

    def dense(self, start, stop, p, out, where, keep=None, chunk=None):
        """Write rows ``start:stop`` as residues in [0, p), the entry at
        column j to position ``where[j]`` of a row; ``out`` holds the last
        ``out.shape[1]`` positions, from cut = len(where) - out.shape[1]
        on.  With ``keep``, a boolean mask of those rows, only the rows it
        marks are written, one after another.

        Returns an iterator over the positions below cut, in chunks of the
        width h of ``chunk``, a buffer with the rows of ``out``: (lo, C),
        C a view of ``chunk`` that holds the rows on positions lo..lo+h-1,
        written as it is reached.  All of it comes from one pass over the
        rows' entries, which sorts the entries below cut by chunk."""
        lo, hi = self.indptr[start], self.indptr[stop]
        counts = np.diff(self.indptr[start:stop + 1])
        cols, data = self.indices[lo:hi], self.data[lo:hi]
        if keep is not None:
            on = np.repeat(keep, counts)
            counts, cols, data = counts[keep], cols[on], data[on]
        which = np.repeat(np.arange(len(counts), dtype=_int_dtype(
            len(counts) - 1)), counts)
        at = where[cols]
        if p >= 1 << 63:      # past int64: reduce as Python ints
            data = data.astype(object)
        data = data % p
        cut = len(where) - out.shape[1]
        out[...] = 0
        if not cut:
            out[which, at] = data
            return iter(())
        mine = at >= cut
        out[which[mine], at[mine] - cut] = data[mine]
        h = chunk.shape[1]
        held = np.flatnonzero(~mine)
        held = held[np.argsort(at[held] // h)]
        which, at, data = which[held], at[held], data[held]
        ends = np.searchsorted(at // h, np.arange(-(-cut // h) + 1))

        def chunks():
            for i, lo in enumerate(range(0, cut, h)):
                C = chunk[:, :min(h, cut - lo)]
                C[...] = 0
                part = slice(ends[i], ends[i + 1])
                C[which[part], at[part] - lo] = data[part]
                yield lo, C
        return chunks()


def _to_front(A, first, picks, perm):
    """Move the columns of ``A`` at the ascending indices ``picks`` (all
    inside one panel starting at ``first``) to positions first, first + 1,
    ..., keeping the order of the others, and record the move in the
    column order ``perm``."""
    width = min(A.shape[1] - first, _PANEL)
    rest = np.ones(width, dtype=bool)
    rest[picks - first] = False
    order = first + np.concatenate([picks - first, np.flatnonzero(rest)])
    A[:, first:first + width] = A[:, order]
    perm[first:first + width] = perm[order]


def _window(dtype, p):
    """``(step, limit)``: ``step`` = _PANEL * (p-1)^2 bounds what one GEMM
    of inner dimension at most ``_PANEL`` over reduced residues adds to an
    entry, and ``limit`` is ``_limit``.  Raises ValueError when one step on
    a reduced entry already passes the limit, p outside the float window
    of ``dtype``."""
    step = _PANEL * (p - 1) ** 2
    limit = _limit(dtype, p)
    if step + p - 1 > limit:
        raise ValueError("p = %d is outside the %s window"
                         % (p, np.dtype(dtype).name))
    return step, limit


def _rank_blocked(A, p, perm, panels):
    """Rank over F_p of the float array ``A`` of reduced residues
    (|a| < p).  Afterwards the first rank rows of ``A``, in the column
    order ``perm`` (permuted along with the columns), are a basis of its
    row space in Gauss-Jordan form: ``panels`` gains one (c, k) per step,
    the pivot columns of that step are c..c+k-1, and on the pivot columns
    of all steps the rows are the identity; every entry is reduced
    (|a| < p).  The rows below are left over.

    Right-looking blocked elimination.  Each step looks at the leftmost
    ``_PANEL`` live columns, retires those that are zero on every live row,
    and picks k pivot rows and columns inside the panel whose k x k block S
    is invertible: the candidates are one row per distinct leading column
    plus the first rows that reach the panel, and one reduced elimination
    of [candidates | I], pivoting in the panel only, gives the pivot rows,
    the pivot columns and inv(S).  Every other row, the live ones below and
    the pivot rows of earlier steps above, then loses its pivot-column part
    at once, ``A_rest -= C @ W``, ``W = inv(S) @ A_piv`` and
    ``C = A_rest[:, piv]``: two GEMMs of inner dimension k.  rank(A) is k
    plus the rank of the Schur complement below, whichever invertible S is
    chosen (cf. Jeannerod, Pernet and Storjohann, "Rank-profile revealing
    Gaussian elimination and the CUP matrix decomposition", JSC 56, 2013).

    Reduction is delayed: the GEMM operands (the panel and W) are reduced
    before use, while the rest of the block only grows by k(p-1)^2 per step
    and is reduced when the next step would pass ``_limit``.
    """
    step, limit = _window(A.dtype, p)
    m, n = A.shape
    bound = p - 1        # |entries| right of the panel
    r = c = 0
    while r < m and c < n:
        _reduce(A[:, c:c + _PANEL], p)
        panel = A[r:, c:c + _PANEL]
        nz = panel != 0
        live = nz.any(axis=0)
        if not live.all():
            dead = np.flatnonzero(~live)
            _to_front(A, c, c + dead, perm)
            c += dead.size
            continue
        hit = np.flatnonzero(nz.any(axis=1))
        _, first = np.unique(nz[hit].argmax(axis=1), return_index=True)
        # hit is ascending, so the mask keeps the candidates sorted and
        # unique (np.union1d would import numpy.ma on every call)
        mask = np.zeros(hit.size, dtype=bool)
        mask[first] = mask[:_PANEL] = True
        cand = hit[mask]
        w = panel.shape[1]
        G = np.zeros((cand.size, w + cand.size), dtype=A.dtype)
        G[:, :w] = panel[cand]
        G[:, w:] = np.eye(cand.size, dtype=A.dtype)
        # [P | I] reduces to [E | T] with T @ P = E, E = I on the ascending
        # pivot columns cols; each pivot row of T combines only the k
        # candidates that pivoted, so T[:k] there is inv(S) for the
        # ascending rows
        cols = np.array(_echelon_mod_p(G, p, reduced=True, width=w))
        k = cols.size
        picked = np.flatnonzero(G[:k, w:].any(axis=0))
        inv = G[:k, w + picked]
        # one gather: the picks (ascending, the i-th at row r + i or below)
        # go to rows r..r+k-1, and the rows they displace fill the slots
        # the picks left past r + k
        picks = r + cand[picked]
        freed = picks[picks >= r + k]
        if freed.size:
            top = np.arange(r, r + k)
            A[np.concatenate([top, freed])] = A[np.concatenate(
                [picks, np.setdiff1d(top, picks, assume_unique=True)])]
        _to_front(A, c, c + cols, perm)
        piv = A[r:r + k, c + k:]
        _reduce(piv, p)
        W = inv @ piv
        _reduce(W, p)
        # what is stored left of the panel is left over from earlier steps
        A[r:r + k, :c] = 0
        A[r:r + k, c:c + k] = np.eye(k, dtype=A.dtype)
        A[r:r + k, c + k:] = W
        if bound + step > limit:
            _reduce(A[:, c + k:], p)
            bound = p - 1
        for C, rest in ((A[r + k:, c:c + k], A[r + k:, c + k:]),
                        (A[:r, c:c + k], A[:r, c + k:])):
            if C.any():
                rest -= C @ W
        A[:r, c:c + k] = 0
        bound += step
        panels.append((c, k))
        r += k
        c += k
    _reduce(A[:r], p)
    return r


def _eliminate(T, C, W, p):
    """``T -= C @ W`` mod p in place, for float arrays of reduced residues
    (|x| < p); T ends reduced.

    The inner dimension is cut into chunks of h columns of C, the most for
    which a reduced entry plus one chunk's products, (p-1) + h(p-1)^2,
    stays within ``_limit``; T is reduced after each chunk.  The rows of T
    go ``_BATCH_BLOCKED`` at a time, so no product held at once is larger
    than ``_BATCH_BLOCKED`` rows of T.  Raises ValueError for p outside
    the float window of the dtype, as ``_window`` does."""
    _, limit = _window(T.dtype, p)
    h = (limit - (p - 1)) // (p - 1) ** 2
    for i in range(0, T.shape[0], _BATCH_BLOCKED):
        rows = T[i:i + _BATCH_BLOCKED]
        for j in range(0, C.shape[1], h):
            part = C[i:i + _BATCH_BLOCKED, j:j + h]
            if part.any():
                rows -= part @ W[j:j + h]
                _reduce(rows, p)


def _trailing_columns(rows, p):
    """The largest column of each row of the ``SparseRows`` block ``rows``
    whose entry is nonzero mod p, -1 for a row that is zero mod p; the
    entries are read ``_BATCH_BLOCKED`` rows at a time."""
    m = len(rows)
    out = np.empty(m, dtype=np.int64)
    for start in range(0, m, _BATCH_BLOCKED):
        stop = min(m, start + _BATCH_BLOCKED)
        lo, hi = rows.indptr[start], rows.indptr[stop]
        cols = np.where(rows.data[lo:hi] % p != 0, rows.indices[lo:hi], -1)
        # the -1 closes the segment of an empty last row
        out[start:stop] = np.maximum.reduceat(
            np.append(cols, -1), rows.indptr[start:stop] - lo)
    out[np.diff(rows.indptr) == 0] = -1
    return out


def _tri_inverse(L, p):
    """inv(L) mod p, reduced, for the float k x k lower triangular L of
    reduced residues with a diagonal nonzero mod p, k <= ``_PANEL``.

    L = D(I + N) with D its diagonal and N strictly lower, so N^k = 0 and
    inv(I + N) = (I - N)(I + N^2)(I + N^4)...(I + N^(k/2)): each step
    squares the last power of N and multiplies it in, and a power that is
    zero ends the product early.  Every product has inner dimension
    k <= ``_PANEL`` over reduced residues and adds to a reduced entry at
    most, so it stays inside ``_window`` and is reduced at once."""
    k = L.shape[0]
    _window(L.dtype, p)
    d = np.array([pow(int(x), -1, p) for x in np.diag(L)], dtype=L.dtype)
    N = L * d[:, None]            # |entries| <= (p-1)^2
    _reduce(N, p)
    np.fill_diagonal(N, 0)
    inv = np.eye(k, dtype=L.dtype) - N
    span = 2                      # inv holds the powers of N below span
    while span < k:
        N = N @ N
        _reduce(N, p)
        if not N.any():
            break
        inv += inv @ N
        _reduce(inv, p)
        span *= 2
    inv *= d                      # inv(L) = inv(I + N) inv(D)
    _reduce(inv, p)
    return inv


def _rank_incremental(rows, ncols, p, dtype, seed=None):
    """Rank over F_p of the ``SparseRows`` block ``rows`` of ``ncols``
    columns by the blocked path (module docstring), in floats of
    ``dtype``, whose window must hold p (``_window``), as (rank, W,
    perm): the rows [I | W] in the column order ``perm`` are the reduced
    basis of the row space, W rank x (ncols - rank) of reduced residues
    (W and perm are None when the head alone has full rank).  ``seed``,
    a ``SparseRows`` block of rows in the row space of ``rows`` mod p,
    leads the head."""
    m = len(rows)
    if seed is None:
        seed = rows.take([])
    s = len(seed)
    # the first row with each trailing column, seed rows first
    cols, head = np.unique(np.concatenate([_trailing_columns(seed, p),
                                           _trailing_columns(rows, p)]),
                           return_index=True)
    head, cols = head[cols >= 0], cols[cols >= 0]
    t = cols.size
    if t == ncols:
        return t, None, None
    # the column order of W: the head's columns, then the others
    perm = np.concatenate([cols, np.setdiff1d(np.arange(ncols), cols,
                                              assume_unique=True)])
    where = np.empty(ncols, dtype=_int_dtype(ncols - 1))     # its inverse
    where[perm] = np.arange(ncols)
    own = head >= s
    mine = head[own] - s
    is_head = np.zeros(m, dtype=bool)
    is_head[mine] = True
    # the block's head rows follow the seed, in the order of their columns
    head[own] = s + np.arange(mine.size)
    H = SparseRows.concat([seed, rows.take(mine)]).take(head)
    # the head panel being reduced, dense over every column
    buf = np.empty((min(t, _PANEL), ncols), dtype=dtype)
    W = np.empty((t, ncols - t), dtype=dtype)
    for b in range(0, t, _PANEL):
        e = min(t, b + _PANEL)
        X = buf[:e - b]
        H.dense(b, e, p, X, where)
        # the earlier head rows are [I | 0 | W[:b]] on their columns, the
        # head columns past theirs and the rest
        _eliminate(X[:, t:], X[:, :b], W[:b], p)
        # inner dimension <= _PANEL over reduced residues: inside _window
        W[b:e] = _tri_inverse(X[:, b:e], p) @ X[:, t:]
        _reduce(W[b:e], p)
    del buf, H
    rank = t                      # [I | W] on the columns perm, reduced
    # the batch being reduced, dense on the ncols - rank free columns, and
    # one chunk of its part on the rank pivot columns
    most = min(m, _BATCH_BLOCKED)
    buf = np.empty(most * (ncols - t), dtype=dtype)
    chunk = np.empty((most, min(ncols, _BATCH_BLOCKED)), dtype=dtype)
    for start in range(0, m, _BATCH_BLOCKED):
        if rank == ncols:
            break
        stop = min(m, start + _BATCH_BLOCKED)
        keep = ~is_head[start:stop]
        nb = np.count_nonzero(keep)
        X = buf[:nb * (ncols - rank)].reshape(nb, ncols - rank)
        for lo, C in rows.dense(start, stop, p, X, where, keep, chunk[:nb]):
            _eliminate(X, C, W[lo:lo + C.shape[1]], p)
        local = np.arange(ncols - rank)
        new = []
        k = _rank_blocked(X, p, local, new)
        if not k:                 # the batch is zero mod p on W's columns
            continue
        # the batch's pivot columns, in panel order, then the free ones
        free = np.ones(ncols - rank, dtype=bool)
        for c, w in new:
            free[c:c + w] = False
        order = np.concatenate([np.arange(c, c + w) for c, w in new]
                               + [np.flatnonzero(free)])
        # the new W in one copy: the old rows on the columns still free,
        # which lose their part on the new pivot columns, then the new
        # rows there (on the new pivot columns they are the identity)
        moved = local[order]
        grown = np.empty((rank + k, ncols - rank - k), dtype=dtype)
        np.take(W, moved[k:], axis=1, out=grown[:rank], mode="clip")
        grown[rank:] = X[:k, order[k:]]
        _eliminate(grown[:rank], W[:, moved[:k]], grown[rank:], p)
        W = grown
        perm[rank:] = perm[rank:][moved]
        where[perm] = np.arange(ncols)
        rank += k
    return rank, W, perm


def _right_reduced(W, perm, p):
    """The row space of the reduced basis [I | W] (float residues,
    |w| < p) in the column order ``perm``, as the ``SparseRows`` of its
    right-reduced basis: one row u_c for each column c outside a set Q of
    n - r columns, in ascending order of c, with an entry at each column
    of Q, in its order, and last a 1 at c, its trailing column.

    The kernel of the row space has the basis k_j = e_{perm[r+j]} -
    sum_i W[i, j] e_{perm[i]}.  Q is the leftmost column rank profile of
    the (n - r) x n matrix K^T of the k_j, and Z = inv(K^T_Q) K^T its
    reduced echelon form.  Then u_c = e_c - sum_j Z[j, c] e_{Q[j]} is
    orthogonal to every row of Z, so to the kernel: it lies in the row
    space, and the r of them are independent.  Z[j, c] is nonzero only
    where Q[j] < c, so c is u_c's trailing column.

    Q is found on the first w columns, w doubling from 2(n - r) until
    they hold all of it: [K^T_w | I], in the float type of W, reduces to
    [E | inv(K^T_Q)], and ``_eliminate`` forms the product with the other
    columns.  The basis stores residues and columns in ``_int_dtype``."""
    r, f = W.shape
    n = r + f
    K = np.zeros((f, n), dtype=W.dtype)
    K[:, perm[:r]] = -W.T
    K[np.arange(f), perm[r:]] = 1
    w = 0
    while True:
        w = min(n, max(2 * w, 2 * f))
        G = np.concatenate([K[:, :w], np.eye(f, dtype=W.dtype)], axis=1)
        q = np.array(_echelon_mod_p(G, p, reduced=True, width=w),
                     dtype=np.int64)
        if q.size == f:
            break
    free = np.setdiff1d(np.arange(n), q, assume_unique=True)
    # U[j, i]: the entry of u_{free[i]} at q[j], -Z[j, free[i]]
    U = np.zeros((f, r), dtype=W.dtype)
    _eliminate(U, G[:, w:], K[:, free], p)
    U = U.T.astype(np.int64) % p
    return SparseRows(np.arange(0, r * (f + 1) + 1, f + 1),
                      np.column_stack([np.broadcast_to(q, (r, f)), free])
                      .astype(_int_dtype(n - 1)).ravel(),
                      np.column_stack([U, np.ones(r, dtype=np.int64)])
                      .astype(_int_dtype(p - 1)).ravel())


def fp_rank_sparse_dense(rows, ncols, p, seed=None, basis=False):
    """Rank over F_p of ``rows``, a ``SparseRows`` block of integer rows
    over ``ncols`` columns.

    Blocks with at least ``_BLOCKED_MIN`` rows and columns over a prime
    for which ``_float_dtype`` finds a window take the blocked path
    (module docstring), exact there, from the head of ``seed``, rows
    known to lie in the row space of ``rows`` mod p, and the block.
    Other blocks take the rank that ``fp_pivot_rows`` finds, and ignore
    ``seed``.  The cutoff was measured on Macaulay ladders, whose
    triangular heads make the blocked path pay from blocks of about 70
    columns on; the 35-column blocks of the V3 lattice stay on the plain
    loop.

    With ``basis``, returns (rank, B): B is the right-reduced basis of the
    row space (``_right_reduced``) when the blocked path ran and the rank
    is below ncols by at most ``_PANEL``, else None.  Its echelon takes
    about (ncols - rank)^2 ncols steps: kernels of 45 to 56 columns were
    measured to pay off as seeds, kernels of 325 and more to cost more
    than they save, so a panel width that leaves that bracket needs a
    cutoff of its own.
    """
    dtype = _float_dtype(p)
    if dtype is None or min(len(rows), ncols) < _BLOCKED_MIN:
        rank = fp_pivot_rows(rows, ncols, p)[1]
        return (rank, None) if basis else rank
    rank, W, perm = _rank_incremental(rows, ncols, p, dtype, seed)
    if not basis:
        return rank
    if rank < ncols <= rank + _PANEL:
        return rank, _right_reduced(W, perm, p)
    return rank, None


def fp_pivot_rows(rows, ncols, p):
    """The row rank profile mod p of ``rows``, a ``SparseRows`` block of
    integer rows: the indices of the rows independent of the rows before
    them, a row basis.  Returns (pivot_row_indices, rank).

    The row rank profile of A is the column rank profile of its transpose,
    which the plain loop reveals.  The rows are fed ``_BATCH`` at a time,
    each batch written right under the rows kept so far; those are
    independent, so they pivot first in the transpose, and the pivot
    columns past them are the batch's new rows.  At most ncols + ``_BATCH``
    rows are ever dense, and the loop stops at rank ncols.  This is also
    the plain path of ``fp_rank_sparse_dense``.
    """
    m = len(rows)
    buf = np.empty((min(m, ncols + _BATCH), ncols), dtype=_fp_dtype(p))
    where = np.arange(ncols)
    kept = []
    for start in range(0, m, _BATCH):
        rank = len(kept)
        if rank == ncols:
            break
        stop = min(m, start + _BATCH)
        view = buf[:rank + stop - start]
        rows.dense(start, stop, p, view[rank:], where)
        new = np.array(_echelon_mod_p(view.T.copy(), p)[rank:],
                       dtype=np.int64)
        view[rank:rank + new.size] = view[new]
        kept += (start - rank + new).tolist()
    return kept, len(kept)


# the primes from 2^30 + 3 up in order, extended as far as needed and kept
_CRT_PRIMES = [(1 << 30) + 3]


def _primes_for_crt(bound):
    """The shortest prefix of ``_CRT_PRIMES`` whose product exceeds
    ``bound``."""
    prod, k = 1, 0
    while prod <= bound:
        if k == len(_CRT_PRIMES):
            q = _CRT_PRIMES[-1] + 2
            while not is_prime(q):
                q += 2
            _CRT_PRIMES.append(q)
        prod *= _CRT_PRIMES[k]
        k += 1
    return _CRT_PRIMES[:k]


# residue matrices eliminated at once by ``det_exact_crt``: at most this
# many entries, 16 MB of int64, or a single matrix when one is larger
_CRT_STACK_CELLS = 1 << 21


def _dets_mod_primes(R, primes):
    """Determinants of the square residue matrices of the int64 stack R,
    ``R[i]`` reduced mod ``primes[i]``; R is overwritten.

    One Gaussian elimination for the whole stack: at column c every prime
    takes its first row from c down that is nonzero there, swaps it into
    row c and clears the column below with one broadcast rank-1 update,
    then the stack is reduced mod its primes.  The update touches only
    the rows that some prime has nonzero in column c, as the plain loop
    would, since subset matrices of Macaulay blocks are sparse; it works
    on the trailing block in place when every row is hit.  A prime
    without a pivot finds the zero pivot in row c, so its det becomes 0
    and its column, already clear, is left as it is.  Exact in int64: a
    residue is < p < 2^31, so r - a*b stays above -2^62."""
    n = R.shape[1]
    mods = np.array(primes, dtype=np.int64)
    det = np.ones(len(primes), dtype=np.int64)
    for c in range(n):
        pr = c + (R[:, c:, c] != 0).argmax(axis=1)
        swap = np.flatnonzero(pr != c)
        if swap.size:
            top = R[swap, c].copy()
            R[swap, c] = R[swap, pr[swap]]
            R[swap, pr[swap]] = top
            det[swap] = mods[swap] - det[swap]
        piv = R[:, c, c]
        det = det * piv % mods
        inv = np.array([pow(a, -1, q) if a else 0
                        for a, q in zip(piv.tolist(), primes)],
                       dtype=np.int64)
        hit = np.flatnonzero(R[:, c + 1:, c].any(axis=0))
        dense = len(hit) == n - c - 1
        rows = slice(c + 1, n) if dense else c + 1 + hit
        f = R[:, rows, c] * inv[:, None] % mods[:, None]
        below = R[:, rows, c + 1:]      # a view when dense, else a copy
        below -= f[:, :, None] * R[:, c, None, c + 1:]
        below %= mods[:, None, None]
        if not dense:
            R[:, rows, c + 1:] = below
    return det.tolist()


def det_exact_crt(M):
    """Exact determinant of a square integer matrix by CRT: an integer
    array (an object array of Python ints past int64) or a list of rows.

    Determinants modulo primes near 2^30 (``_dets_mod_primes``, as many
    primes at once as ``_CRT_STACK_CELLS`` entries allow) are combined
    past the Hadamard bound, so the reconstruction is certified exact.
    Far faster than Bareiss on the large Macaulay submatrices.
    """
    n = len(M)
    if n == 0:
        return 1
    A = _int_array(M)
    # Hadamard: |det| <= prod of the row norms; the row sums of squares
    # in int64 while n * max|a|^2 < 2^63, else in Python ints
    top = max(int(A.max()), -int(A.min()))
    S = A if n * top * top < 1 << 63 else A.astype(object)
    bound = 2  # symmetric range needs |det| * 2 < product of moduli
    for s in (S * S).sum(axis=1).tolist():
        bound *= isqrt(s) + 1
    primes = _primes_for_crt(max(bound, 4))
    step = max(1, _CRT_STACK_CELLS // (n * n))
    residue = 0
    modulus = 1
    for g in range(0, len(primes), step):
        group = primes[g:g + step]
        mods = np.array(group, dtype=A.dtype)[:, None, None]
        R = (A[None] % mods).astype(np.int64, copy=False)
        for p, dp in zip(group, _dets_mod_primes(R, group)):
            # CRT combine
            inv = pow(modulus % p, p - 2, p)
            t = (dp - residue) % p * inv % p
            residue += modulus * t
            modulus *= p
    if residue * 2 > modulus:
        residue -= modulus
    return residue


# ---------------------------------------------------------------------------
# random unimodular matrices (for basis changes in tests and genericity fixes)


def random_unimodular(n, rng, size=2):
    """Random unimodular integer matrix from 3n elementary row operations."""
    A = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        f = rng.randint(-size, size)
        if f == 0:
            f = 1
        for k in range(n):
            A[i][k] += f * A[j][k]
    return A
