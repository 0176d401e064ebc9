"""Exact linear algebra over Z, Q and F_p.

Integer matrices are plain lists of lists of Python ints, so all arithmetic
is arbitrary precision.  Two loops serve every ring or field they meet:

- ``laplace_minors``, the generalized Laplace expansion, gives all
  minors on a set of rows.  It reads entries as ``M[r][c]`` and uses
  only *, + and -, so it runs on integers, on ``MultiPoly`` entries
  (leading minors of B(t), the rank <= 2 and singular-locus ideals) and
  on numpy batches of residue matrices (the S_p scans).
- ``nullspace``, Gauss-Jordan over a field given by its add, mul, neg
  and inv: Q (``_RATIONALS``, behind ``kernel_rational``) or a ``GF``
  table field (the char-2 vertex in ``quadform``).

numpy backs the F_p kernels:

- ``_echelon_mod_p``, the plain in-place echelon loop, one pivot at a
  time.  It stores residues as int64 and forms each product there,
  exact for p < 2^31; larger primes run the same loop on a numpy object
  array of Python ints.  ``fp_rank`` (the sieve's 5 x 15 blocks) and
  small or large-prime Macaulay blocks use it.
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
  Outside both windows the plain loop runs.

``fp_rank_sparse_dense`` takes a ``SparseRows`` block and chooses between
them.  On the blocked path it keeps the basis found so far fully reduced,
rows [I | W] over all its pivot columns.  It starts from a triangular
head: a Macaulay row is a monomial multiple of a generator, so many rows
have their own trailing column, the largest one nonzero mod p.  The
first row with each distinct trailing column joins the head, which is
triangular on those columns and so independent with no pivot search;
blocked forward substitution makes it [I | W] (Faugere and Lachartre,
"Parallel Gaussian elimination for Groebner bases computations in finite
fields", PASCO 2010).  Each batch of ``_BATCH_BLOCKED`` other rows then
loses its part on the pivot columns through one GEMM,
``X[:, r:] -= X[:, :r] @ W`` (``_eliminate``, its inner dimension cut
into chunks that fit the window), before ``_rank_blocked`` runs on the
columns still free; the old basis then loses its part on the batch's new
pivot columns the same way, so at most min(m, ncols) + ``_BATCH_BLOCKED``
rows are ever dense.  The plain loop is fed ``_BATCH`` rows at a time
under the basis found so far.  ``fp_pivot_rows`` feeds the same
``_BATCH`` batches to the plain loop on their transpose, whose pivot
columns are the row rank profile: the rows that form a basis, each
independent of the rows before it.  Its residues are stored in
``_fp_dtype``: int64, exact for p < 2^31, and Python ints above.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
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


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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


def laplace_minors(M, rows):
    """Minors of M on ``rows`` (a sequence, taken in its order) for every
    set of as many columns: {column tuple: minor}, the tuples in
    ``itertools.combinations`` order.

    Generalized Laplace expansion (Muir): a minor on the last k of the
    rows expands along its first row into minors on the last k - 1, which
    are all built first and shared, so each of the sum_k k * C(n, k)
    products (n columns) is formed once.  Entries are read as ``M[r][c]``
    and need only *, + and -: lists of ints or of ``MultiPoly``, and
    numpy batches whose ``M[r][c]`` is an array of entries, all work.
    Nothing is reduced and no entry is skipped."""
    n = len(M[0])
    out = {(): 1}
    for k, r in enumerate(reversed(rows), 1):
        prev, out = out, {}
        for cols in combinations(range(n), k):
            acc = 0
            for pos, c in enumerate(cols):
                term = M[r][c] * prev[cols[:pos] + cols[pos + 1:]]
                acc = acc - term if pos % 2 else acc + term
            out[cols] = acc
    return out


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


def smith_normal_form(M, transforms=True):
    """Smith normal form of an integer matrix.

    Returns ``(U, S, V)`` with ``U @ M @ V == S``, U and V unimodular, S
    diagonal with nonnegative entries satisfying d1 | d2 | ...  When
    ``transforms`` is false, U and V are returned as None (faster).

    Pivoting picks the entry of minimal nonzero absolute value, which keeps
    coefficient growth tolerable at the sizes this package meets.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    S = [row[:] for row in M]
    U = identity_matrix(m) if transforms else None
    V = identity_matrix(n) if transforms else None

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        if U is not None:
            U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in S:
            row[i], row[j] = row[j], row[i]
        if V is not None:
            for row in V:
                row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, f):
        S[dst] = [a + f * b for a, b in zip(S[dst], S[src])]
        if U is not None:
            U[dst] = [a + f * b for a, b in zip(U[dst], U[src])]

    def addmul_col(dst, src, f):
        for row in S:
            row[dst] += f * row[src]
        if V is not None:
            for row in V:
                row[dst] += f * row[src]

    def negate_row(i):
        S[i] = [-a for a in S[i]]
        if U is not None:
            U[i] = [-a for a in U[i]]

    def clear_pivot(k):
        """Euclidean clearing of row and column k (pivot already at k,k).

        One reduction pass leaves only remainders below the pivot; the
        smallest surviving remainder is then swapped into the pivot spot
        and the pass repeats.  The pivot magnitude strictly decreases per
        round, so the loop is short and the transforms stay small."""
        while True:
            for i in range(k + 1, m):
                if S[i][k]:
                    q = S[i][k] // S[k][k]
                    if q:
                        addmul_row(i, k, -q)
            for j in range(k + 1, n):
                if S[k][j]:
                    q = S[k][j] // S[k][k]
                    if q:
                        addmul_col(j, k, -q)
            best = None
            for i in range(k + 1, m):
                if S[i][k] and (best is None or abs(S[i][k]) < best[0]):
                    best = (abs(S[i][k]), "row", i)
            for j in range(k + 1, n):
                if S[k][j] and (best is None or abs(S[k][j]) < best[0]):
                    best = (abs(S[k][j]), "col", j)
            if best is None:
                return
            if best[1] == "row":
                swap_rows(k, best[2])
            else:
                swap_cols(k, best[2])

    # phase 1: diagonalise (no divisibility enforcement yet)
    k = 0
    while k < min(m, n):
        best = None
        for i in range(k, m):
            row = S[i]
            for j in range(k, n):
                v = row[j]
                if v:
                    a = abs(v)
                    if best is None or a < best[0]:
                        best = (a, i, j)
                        if a == 1:
                            break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        if bi != k:
            swap_rows(k, bi)
        if bj != k:
            swap_cols(k, bj)
        clear_pivot(k)
        k += 1
    rank = k
    # phase 2: enforce the divisibility chain on 2x2 diagonal blocks; the
    # entries involved never exceed the pair being fixed, so no blowup
    for i in range(rank):
        for j in range(i + 1, rank):
            if S[j][j] % S[i][i] == 0:
                continue
            addmul_col(i, j, 1)      # column i picks up S[j][j] in row j
            # euclid on the 2x2 block {i,j} x {i,j}
            while S[j][i]:
                q = S[i][i] // S[j][i]
                addmul_row(i, j, -q)
                swap_rows(i, j)
            # row i now holds the gcd at (i,i) with (i,j) possibly dirty
            while S[i][j]:
                q = S[i][j] // S[i][i]
                addmul_col(j, i, -q)
                if S[i][j]:
                    swap_cols(j, i)
            while S[j][i]:
                q = S[j][i] // S[i][i]
                addmul_row(j, i, -q)
                if S[j][i]:
                    swap_rows(j, i)
    for k in range(rank):
        if S[k][k] < 0:
            negate_row(k)
    return U, S, V


def smith_divisors(M):
    """The diagonal of the Smith form (nonnegative, divisibility chain)."""
    _, S, _ = smith_normal_form(M, transforms=False)
    return [S[i][i] for i in range(min(len(S), len(S[0]) if S else 0))]


# ---------------------------------------------------------------------------
# F_p elimination: the plain in-place echelon loop


def _fp_dtype(p):
    """Storage for residues mod p in the elimination kernel.

    Residues are stored as int64 and every product of two residues is
    formed in place, exact for p < 2^31: a residue is at most 2^31 - 2 and
    r - a*b stays above -2^62.  Larger primes run the same loop on a numpy
    object array of Python ints."""
    return np.int64 if p < 1 << 31 else object


def _echelon_mod_p(A, p, reduced=False, width=None):
    """Row-reduce ``A`` to row echelon form over F_p, in place.

    ``A`` holds residues in [0, p) with dtype ``_fp_dtype(p)``.
    Returns ``pivot_cols``: row i of the result has its pivot (a 1) in
    column ``pivot_cols[i]``, and the rows past ``len(pivot_cols)`` are
    zero.  With ``reduced`` the pivot columns are cleared
    above the pivots too (reduced row echelon form).  With ``width``,
    pivots are sought in the first ``width`` columns only (the row
    operations still span every column), and the rows past the pivots are
    zero there.
    """
    m, n = A.shape
    pivot_cols = []
    r = 0
    for c in range(n if width is None else width):
        if r == m:
            break
        nz = np.flatnonzero(A[r:, c])
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            # every row from r down is zero left of column c
            A[[r, pr], c:] = A[[pr, r], c:]
        piv = int(A[r, c])
        if piv != 1:
            A[r, c:] = A[r, c:] * pow(piv, -1, p) % p
        # the rows below r that reach column c; the swap moved a row that
        # is zero there
        hit = r + nz[1:]
        if reduced:
            hit = np.concatenate([np.flatnonzero(A[:r, c]), hit])
        if hit.size:
            U = np.outer(A[hit, c], A[r, c:])
            np.subtract(A[hit, c:], U, out=U)
            U %= p
            A[hit, c:] = U
        pivot_cols.append(c)
        r += 1
    return pivot_cols


def fp_rank(M, p):
    """Rank over F_p of an integer matrix (list of rows or numpy array)."""
    if not is_prime(p):
        raise ValueError("p = %d is not prime" % p)
    if not len(M) or not len(M[0]):
        return 0
    A = np.asarray(M)
    if A.dtype.kind not in "iu" or p >= 1 << 63:
        A = A.astype(object)      # reduce as Python ints
    return len(_echelon_mod_p((A % p).astype(_fp_dtype(p), copy=False), p))


# ---------------------------------------------------------------------------
# F_p elimination: blocked, on float GEMMs, for wide blocks over small primes


_PANEL = 64           # pivots per Schur step: the inner dimension of its GEMMs
_BATCH = 2600         # rows written under the basis found so far per pass
                      # of the plain loop
_BATCH_BLOCKED = 512  # rows reduced against the stored basis per pass of the
                      # blocked path, whose buffer holds at most
                      # (ncols + 512) * ncols floats: 29 MB in float32 for
                      # 2450 columns
_BLOCKED_MIN = 256    # blocks with fewer rows or columns keep the plain loop
                      # (dense mod 7, one core: 128^2 10 ms plain against
                      # 16 ms blocked, 256^2 56 ms against 34 ms)
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

    ``dense`` writes a run of rows mod p into a dense array, ``tolist``
    reads the rows as lists of Python ints and ``take`` reorders them."""

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

    def tolist(self, ncols):
        """The rows as dense lists of Python ints."""
        out = np.zeros((len(self), ncols), dtype=self.data.dtype)
        out[np.repeat(np.arange(len(self)), np.diff(self.indptr)),
            self.indices] = self.data
        return out.tolist()

    def dense(self, start, stop, p, out, where):
        """Write rows ``start:stop`` into ``out`` as residues in [0, p),
        column j to column ``where[j]`` of ``out``."""
        out[...] = 0
        lo, hi = self.indptr[start], self.indptr[stop]
        which = np.repeat(np.arange(stop - start),
                          np.diff(self.indptr[start:stop + 1]))
        cols = self.indices[lo:hi]
        data = self.data[lo:hi]
        if p >= 1 << 63:      # past int64: reduce as Python ints
            data = data.astype(object)
        out[which, where[cols]] = data % p


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
        cand = np.union1d(hit[first], hit[:_PANEL])
        w = panel.shape[1]
        G = np.zeros((cand.size, w + cand.size), dtype=np.int64)
        G[:, :w] = panel[cand].astype(np.int64) % p
        G[:, w:] = np.eye(cand.size, dtype=np.int64)
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
        W = inv.astype(A.dtype) @ piv
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


def _rank_incremental(rows, ncols, p, dtype):
    """Rank over F_p of the ``SparseRows`` block ``rows`` by the blocked
    path of ``fp_rank_sparse_dense``, in a float buffer of ``dtype``.

    The head start: the first row with each distinct trailing column
    (``_trailing_columns``) joins the head, t rows.  With those columns
    first, ascending, the head is [L | F], L lower triangular with a
    nonzero diagonal, so its rows are independent with no search.  Block
    by block of ``_PANEL`` rows, forward substitution makes it the reduced
    basis [I | inv(L) F]: each block loses its part on the earlier
    blocks' columns (``_eliminate``, where the earlier rows are zero on
    the head columns past theirs) and is multiplied by the inverse of its
    diagonal block (``_tri_inverse``).  The batches then start at rank t,
    each skipping the head rows in its range."""
    m = len(rows)
    head_cols, head = np.unique(_trailing_columns(rows, p),
                                return_index=True)
    head, head_cols = head[head_cols >= 0], head_cols[head_cols >= 0]
    t = head.size
    if t == ncols:
        return t
    # the column order of buf: the head's columns, then the others
    perm = np.concatenate([head_cols, np.setdiff1d(
        np.arange(ncols), head_cols, assume_unique=True)])
    where = np.empty(ncols, dtype=np.int64)       # its inverse
    where[perm] = np.arange(ncols)
    # rank <= min(m, ncols) rows, and the head rows inside a batch's range
    # are written before they are skipped
    buf = np.empty((min(m, ncols) + _BATCH_BLOCKED, ncols), dtype=dtype)
    rows.take(head).dense(0, t, p, buf[:t], where)
    for b in range(0, t, _PANEL):
        e = min(t, b + _PANEL)
        X = buf[b:e]
        _eliminate(X[:, t:], X[:, :b], buf[:b, t:], p)
        # inner dimension <= _PANEL over reduced residues: inside _window
        X[:, t:] = _tri_inverse(X[:, b:e], p) @ X[:, t:]
        _reduce(X[:, t:], p)
        X[:, :t] = 0
        X[:, b:e] = np.eye(e - b, dtype=dtype)
    is_head = np.zeros(m, dtype=bool)
    is_head[head] = True
    rank = t                      # buf[:rank] = [I | W], reduced
    for start in range(0, m, _BATCH_BLOCKED):
        if rank == ncols:
            break
        stop = min(m, start + _BATCH_BLOCKED)
        X = buf[rank:rank + stop - start]
        rows.dense(start, stop, p, X, where)
        keep = np.flatnonzero(~is_head[start:stop])
        X[:keep.size] = X[keep]
        X = X[:keep.size]
        _eliminate(X[:, rank:], X[:, :rank], buf[:rank, rank:], p)
        local = np.arange(ncols - rank)
        new = []
        k = _rank_blocked(X[:, rank:], p, local, new)
        # the batch's pivot columns, in panel order, then the free ones
        free = np.ones(ncols - rank, dtype=bool)
        for c, w in new:
            free[c:c + w] = False
        order = np.concatenate([np.arange(c, c + w) for c, w in new]
                               + [np.flatnonzero(free)])
        buf[:rank, rank:] = buf[:rank, rank:][:, local[order]]
        X[:k, rank:] = X[:k, rank:][:, order]
        X[:k, :rank] = 0
        # the old rows lose their part on the new pivot columns
        _eliminate(buf[:rank, rank + k:], buf[:rank, rank:rank + k],
                   X[:k, rank + k:], p)
        buf[:rank, rank:rank + k] = 0
        perm[rank:] = perm[rank:][local[order]]
        where[perm] = np.arange(ncols)
        rank += k
    return rank


def fp_rank_sparse_dense(rows, ncols, p):
    """Rank over F_p of ``rows``, a ``SparseRows`` block of integer rows.

    Blocks with at least ``_BLOCKED_MIN`` rows and columns over a prime
    inside the float window of ``_float_dtype`` take the blocked path
    (``_rank_incremental``).  It keeps the basis found so far as rows
    [I | W], fully reduced, on its pivot columns, which it keeps first,
    and starts it from the triangular head of the block: one row for each
    distinct trailing column, reduced by forward substitution.  Each batch
    of ``_BATCH_BLOCKED`` rows is written right under the basis, drops its
    head rows and loses its part on the pivot columns (``_eliminate``),
    and ``_rank_blocked`` eliminates it on the columns still free; one
    column permutation puts the batch's pivot columns after the old ones,
    and the old rows lose their part on them.  Other blocks are fed to
    ``_echelon_mod_p`` ``_BATCH`` rows at a time, each batch written under
    the basis found so far.  So at most min(m, ncols) + ``_BATCH_BLOCKED``
    or ncols + ``_BATCH`` rows are ever dense; both stop at rank ncols.
    """
    m = len(rows)
    dtype = _float_dtype(p)
    if dtype is not None and min(m, ncols) >= _BLOCKED_MIN:
        return _rank_incremental(rows, ncols, p, dtype)
    buf = np.empty((min(m, ncols + _BATCH), ncols), dtype=_fp_dtype(p))
    where = np.arange(ncols)
    rank = 0
    for start in range(0, m, _BATCH):
        if rank == ncols:
            break
        stop = min(m, start + _BATCH)
        view = buf[:rank + stop - start]
        rows.dense(start, stop, p, view[rank:], where)
        rank = len(_echelon_mod_p(view, p))
    return rank


def fp_pivot_rows(rows, ncols, p):
    """The row rank profile mod p of ``rows``, a ``SparseRows`` block of
    integer rows: the indices of the rows independent of the rows before
    them, a row basis.  Returns (pivot_row_indices, rank).

    The row rank profile of A is the column rank profile of its transpose,
    which the plain loop reveals.  The rows are fed ``_BATCH`` at a time,
    as to the plain loop of ``fp_rank_sparse_dense``, each batch written
    right under the rows kept so far; those are independent, so they pivot
    first in the transpose, and the pivot columns past them are the
    batch's new rows.  At most ncols + ``_BATCH`` rows are ever dense.
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
    then the stack is reduced mod its primes.  A prime without a pivot
    finds the zero pivot in row c, so its det becomes 0 and its column,
    already clear, is left as it is.  Exact in int64: a residue is
    < p < 2^31, so r - a*b stays above -2^62."""
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
        f = R[:, c + 1:, c] * inv[:, None] % mods[:, None]
        below = R[:, c + 1:, c + 1:]
        below -= f[:, :, None] * R[:, c, None, c + 1:]
        below %= mods[:, None, None]
    return det.tolist()


def det_exact_crt(M):
    """Exact determinant of a square integer matrix by CRT.

    Determinants modulo primes near 2^30 (``_dets_mod_primes``, as many
    primes at once as ``_CRT_STACK_CELLS`` entries allow) are combined
    past the Hadamard bound, so the reconstruction is certified exact.
    Far faster than Bareiss on the large Macaulay submatrices.
    """
    n = len(M)
    if n == 0:
        return 1
    from math import isqrt
    bound = 1
    for row in M:
        s = sum(x * x for x in row)
        bound *= isqrt(s) + 1
    bound *= 2  # symmetric range needs |det| * 2 < product of moduli
    if bound < 4:
        bound = 4
    primes = _primes_for_crt(bound)
    try:
        A = np.array(M, dtype=np.int64)
    except OverflowError:     # past int64: reduce as Python ints
        A = np.array(M, dtype=object)
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


def random_unimodular(n, rng, size=2, steps=None):
    """Random unimodular integer matrix built from elementary operations."""
    A = identity_matrix(n)
    if steps is None:
        steps = 3 * n
    for _ in range(steps):
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
