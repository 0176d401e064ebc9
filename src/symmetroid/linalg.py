"""Exact linear algebra over Z, Q and F_p.

Integer matrices are plain lists of lists of Python ints, so all arithmetic
is arbitrary precision.  numpy is used only by the F_p elimination kernel
(``_echelon_mod_p``), which backs ``fp_rank``, ``fp_rank_sparse_dense`` and
``det_exact_crt``.  Its fast path stores residues as int32 and forms each
product in int64, which is exact for p < 2^31; for larger p the same loop
runs on a numpy object array of Python ints.  ``fp_pivot_rows`` is a pure
Python sparse elimination that also reports which rows form a basis.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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


def kernel_rational(M, ncols=None):
    """Basis of the right kernel of an integer (or Fraction) matrix over Q.

    Returns a list of integer vectors (cleared of denominators, content 1).
    """
    if not M:
        raise ValueError("empty matrix")
    n = ncols if ncols is not None else len(M[0])
    rows = [[Fraction(x) for x in row] for row in M]
    pivots = []  # (row, col)
    r = 0
    for c in range(n):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append((r, c))
        r += 1
        if r == len(rows):
            break
    pivot_cols = {c for _, c in pivots}
    free_cols = [c for c in range(n) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for pr, pc in pivots:
            v[pc] = -rows[pr][fc]
        basis.append(primitive_vector(v))
    return basis


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
# F_p elimination: one in-place echelon kernel


def _fp_dtype(p):
    """Storage for residues mod p in the elimination kernel.

    Residues are stored as int32 and every product of two residues is
    formed in int64.  Both are exact for p < 2^31: a residue is at most
    2^31 - 2 and r - a*b stays above -2^62.  Larger primes run the same
    loop on a numpy object array of Python ints."""
    return np.int32 if p < 1 << 31 else object


def _echelon_mod_p(A, p):
    """Row-reduce ``A`` to row echelon form over F_p, in place.

    ``A`` holds residues in [0, p) with dtype ``_fp_dtype(p)``.  Returns
    ``(pivot_cols, det)``: row i of the result has its pivot (a 1) in
    column ``pivot_cols[i]``, the rows past ``len(pivot_cols)`` are zero,
    and ``det`` is the determinant of ``A`` mod p when ``A`` is square
    (0 otherwise).
    """
    wide = object if A.dtype == object else np.int64
    m, n = A.shape
    pivot_cols = []
    det = 1
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.flatnonzero(A[r:, c])
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            # every row from r down is zero left of column c
            A[[r, pr], c:] = A[[pr, r], c:]
            det = -det
        piv = int(A[r, c])
        det = det * piv % p
        if piv != 1:
            A[r, c:] = A[r, c:].astype(wide) * pow(piv, -1, p) % p
        hit = r + 1 + np.flatnonzero(A[r + 1:, c])
        if hit.size:
            U = np.outer(A[hit, c].astype(wide), A[r, c:])
            np.subtract(A[hit, c:], U, out=U)
            U %= p
            A[hit, c:] = U
        pivot_cols.append(c)
        r += 1
    return pivot_cols, (det if r == m == n else 0)


def fp_rank(M, p):
    """Rank over F_p of an integer matrix (list of rows or numpy array)."""
    if not is_prime(p):
        raise ValueError("p = %d is not prime" % p)
    if not len(M) or not len(M[0]):
        return 0
    A = (np.array(M, dtype=object) % p).astype(_fp_dtype(p))
    return len(_echelon_mod_p(A, p)[0])


def fp_rank_sparse_dense(rows_sparse, ncols, p):
    """Rank over F_p of sparse rows ({col: coeff} dicts over Z).

    Tuned for wide Macaulay blocks.  Rows with pairwise distinct leading
    columns go first, already close to echelon form; the others follow in
    batches.  Each batch is written into one preallocated buffer right
    under the echelon basis found so far, and the kernel row-reduces that
    view in place, leaving the grown basis on top.  Stops at rank ncols.
    """
    lead_of = [min((c for c, x in r.items() if x % p), default=None)
               for r in rows_sparse]
    seen = set()
    order = []
    rest = []
    for i, lead in enumerate(lead_of):
        if lead is None:
            continue
        if lead in seen:
            rest.append(i)
        else:
            seen.add(lead)
            order.append(i)
    order.sort(key=lead_of.__getitem__)
    batch = 2600
    buf = np.zeros((min(len(order) + len(rest), ncols + batch), ncols),
                   dtype=_fp_dtype(p))
    rank = 0
    for chunk in [order] + [rest[i:i + batch]
                            for i in range(0, len(rest), batch)]:
        if rank == ncols:
            break
        view = buf[:rank + len(chunk)]
        view[rank:] = 0
        for k, i in enumerate(chunk, rank):
            row = rows_sparse[i]
            view[k, list(row)] = [x % p for x in row.values()]
        rank = len(_echelon_mod_p(view, p)[0])
    return rank


def fp_pivot_rows(rows_sparse, ncols, p):
    """Indices of input rows forming a row basis mod p.

    ``rows_sparse`` is a list of {col: coeff} dicts over Z.  Elimination is
    incremental: each row is reduced against the current basis; rows that
    survive become pivots.  Returns (pivot_row_indices, rank).
    """
    basis = {}  # leading col -> (vector as dict, row index)
    order = []
    for idx, row in enumerate(rows_sparse):
        v = {c: x % p for c, x in row.items() if x % p}
        while v:
            lead = min(v)
            if lead not in basis:
                inv = pow(v[lead], p - 2, p)
                v = {c: (x * inv) % p for c, x in v.items()}
                basis[lead] = v
                order.append(idx)
                break
            w = basis[lead]
            f = v[lead]
            for c, x in w.items():
                nv = (v.get(c, 0) - f * x) % p
                if nv:
                    v[c] = nv
                else:
                    v.pop(c, None)
        # empty v: row dependent, skip
    return order, len(order)


def _primes_for_crt(bound):
    """Enough ~30-bit primes whose product exceeds ``bound``."""
    primes = []
    prod = 1
    q = (1 << 30) + 1
    while prod <= bound:
        while not is_prime(q):
            q += 2
        primes.append(q)
        prod *= q
        q += 2
    return primes


def det_exact_crt(M):
    """Exact determinant of a square integer matrix by CRT.

    Determinants modulo primes near 2^30 (the int32 kernel) are combined
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
    residue = 0
    modulus = 1
    for p in primes:
        Ap = np.array([[x % p for x in row] for row in M], dtype=_fp_dtype(p))
        dp = _echelon_mod_p(Ap, p)[1]
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
