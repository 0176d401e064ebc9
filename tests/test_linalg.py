import random
from itertools import combinations, product
from math import isqrt

import numpy as np
import pytest

from oracles import pivot_rows_by_dicts
from symmetroid import linalg
from symmetroid.linalg import (SparseRows, det_bareiss, det_exact_crt,
                               fp_pivot_rows, fp_rank, fp_rank_sparse_dense,
                               is_prime, kernel_rational, laplace_minors,
                               mat_mul, mat_vec, nullspace, random_unimodular,
                               smith_divisors, smith_normal_form)
from symmetroid.gf import GF
from symmetroid.polys import MultiPoly


def _sparse(M):
    """The integer matrix M as ``SparseRows``."""
    M = np.array(M, dtype=object if any(
        abs(x) >= 1 << 62 for row in M for x in row) else np.int64)
    nz = M != 0
    indptr = np.concatenate([[0], np.cumsum(nz.sum(axis=1))])
    rows, cols = np.nonzero(nz)
    return SparseRows(indptr, cols, M[rows, cols])


def test_smith_spec_examples():
    U, S, V = smith_normal_form([[2, 0], [0, 3]])
    assert [S[0][0], S[1][1]] == [1, 6]
    assert mat_mul(mat_mul(U, [[2, 0], [0, 3]]), V) == S

    U, S, V = smith_normal_form([[1, 0], [0, 1]])
    assert [S[0][0], S[1][1]] == [1, 1]

    M = [[0, 0], [0, 0]]
    U, S, V = smith_normal_form(M)
    assert S == [[0, 0], [0, 0]]
    assert U == [[1, 0], [0, 1]] and V == [[1, 0], [0, 1]]


def test_smith_random_500():
    rng = random.Random(17)
    for _ in range(500):
        m = rng.randrange(1, 6)
        n = rng.randrange(1, 6)
        M = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(m)]
        U, S, V = smith_normal_form(M)
        assert mat_mul(mat_mul(U, M), V) == S
        assert abs(det_bareiss(U)) == 1
        assert abs(det_bareiss(V)) == 1
        d = [S[i][i] for i in range(min(m, n))]
        for i in range(min(m, n)):
            for j in range(min(m, n)):
                if i != j:
                    assert S[i][j] == 0 if i < len(S) else True
        for x, y in zip(d, d[1:]):
            if x == 0:
                assert y == 0
            else:
                assert y % x == 0
        assert all(x >= 0 for x in d)


def test_fp_rank_spec_examples():
    eye5 = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    assert fp_rank(eye5, 7) == 5
    # Gram of x0*x1: B01 = B10 = 1
    B = [[0] * 5 for _ in range(5)]
    B[0][1] = B[1][0] = 1
    assert fp_rank(B, 5) == 2
    assert fp_rank([[0, 0], [0, 0]], 3) == 0
    with pytest.raises(ValueError):
        fp_rank(eye5, 6)


def _dicts(M):
    return [{j: x for j, x in enumerate(row) if x} for row in M]


def test_fp_rank_matches_rational_rank_generic():
    rng = random.Random(2)
    # both sides of the int32 kernel's bound p < 2^31, one prime past
    # int64 products (1099511627791 > 2^40) and one past int64 itself
    primes = (2, 3, 7, 32771, 1000003, 2 ** 31 - 1, 1099511627791,
              2 ** 64 + 13)
    for _ in range(60):
        m, n = rng.randrange(1, 7), rng.randrange(1, 7)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        divisors = [d for d in smith_divisors(M) if d]
        rank = len(divisors)
        assert fp_rank(M, 1000003) == rank
        rows = _sparse(M)
        assert fp_pivot_rows(rows, n, 1000003)[1] == rank
        for p in primes:
            want = pivot_rows_by_dicts(_dicts(M), p)
            assert len(want) <= rank
            assert fp_pivot_rows(rows, n, p) == (want, len(want)), p
            assert fp_rank(M, p) == len(want), p
            assert fp_rank(np.array(M), p) == len(want), p
            assert fp_rank_sparse_dense(rows, n, p) == len(want), p
    # residues near 2^40: products of two of them overflow int64
    q = 1099511627791
    r1, r2 = [1, q - 2, 5, q - 7], [q - 3, 11, q - 13, 17]
    M = [r1, r2, [7 * a + 3 * b for a, b in zip(r1, r2)]]
    assert fp_rank(M, q) == 2
    assert fp_rank_sparse_dense(_sparse(M), 4, q) == 2
    assert fp_pivot_rows(_sparse(M), 4, q) == ([0, 1], 2)


def test_pivot_rows_with_zero_duplicate_and_vanishing_rows(monkeypatch):
    # batches of 4 rows, so the rows kept from earlier batches must stay
    # first in the transposed search
    monkeypatch.setattr(linalg, "_BATCH", 4)
    rng = random.Random(5)
    for p in (2, 3, 7, 1000003, 2 ** 31 - 1, 2 ** 64 + 13):
        for _ in range(20):
            n = rng.randrange(1, 8)
            M = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)]
                 for _ in range(rng.randrange(1, 14))]
            M.insert(rng.randrange(len(M) + 1), [0] * n)
            M.insert(rng.randrange(len(M) + 1), list(rng.choice(M)))
            # nonzero over Z, zero mod p
            M.insert(rng.randrange(len(M) + 1),
                     [p * rng.randint(-3, 3) for _ in range(n)])
            want = pivot_rows_by_dicts(_dicts(M), p)
            assert fp_pivot_rows(_sparse(M), n, p) == (want, len(want)), \
                (p, M)
            assert fp_rank_sparse_dense(_sparse(M), n, p) == len(want)
        # no rows at all
        empty = SparseRows(np.zeros(1, dtype=np.int64),
                           np.zeros(0, dtype=np.int64),
                           np.zeros(0, dtype=np.int64))
        assert fp_pivot_rows(empty, 3, p) == ([], 0)


# the largest prime whose blocked ranks run in float32
P_F32 = max(p for p in range(2, 1000) if is_prime(p)
            and linalg._float_dtype(p) is np.float32)
KERNEL_PRIMES = (2, 3, 7, 13, P_F32)


def _test_matrix(rng, m, n, rank, p):
    """A seeded m x n integer matrix of rank <= ``rank`` mod p: a product
    of random factors, with two zero columns, a column planted as a
    combination of two others and a row planted likewise."""
    A = rng.integers(0, p, size=(m, rank)) @ rng.integers(0, p, size=(rank, n))
    A[:, [1, n // 2]] = 0
    A[:, -1] = 3 * A[:, 0] + A[:, 2]
    A[-1] = A[0] + 2 * A[1]
    return A % p


def _plain_rank(A, p):
    return len(linalg._echelon_mod_p(A.astype(linalg._fp_dtype(p)), p))


def _blocked_basis(A, B, p):
    """The rank ``_rank_blocked`` finds for B, A as floats, after checking
    that the first rank rows, in its column order, are in Gauss-Jordan
    form: the identity on the pivot columns of all steps, every entry
    reduced, and a basis of the rows of A."""
    perm = np.arange(A.shape[1])
    panels = []
    rank = linalg._rank_blocked(B, p, perm, panels)
    pivots = np.concatenate([np.arange(c, c + k) for c, k in panels])
    assert (B[:rank][:, pivots] == np.eye(rank)).all()
    assert (np.abs(B[:rank]) < p).all()
    basis = np.zeros((rank, A.shape[1]), dtype=np.int64)
    basis[:, perm] = B[:rank].astype(np.int64) % p
    assert _plain_rank(np.vstack([basis, A]), p) == _plain_rank(basis, p)
    return rank


def test_blocked_ranks_match_plain_loop(monkeypatch):
    rng = np.random.default_rng(6)
    # tall, wide, square, rank-deficient; the float kernel sees several
    # panels (_PANEL = 64 columns)
    shapes = ((700, 150, 150), (150, 300, 150), (200, 200, 200),
              (300, 180, 120), (140, 250, 90))
    # 1000003 runs the same kernel in float64
    for p in KERNEL_PRIMES + (1000003,):
        dtype = linalg._float_dtype(p)
        for m, n, rank in shapes:
            A = _test_matrix(rng, m, n, rank, p)
            want = _plain_rank(A, p)
            assert want < min(m, n)   # the planted dependencies hold
            B = A.astype(dtype)
            assert _blocked_basis(A, B, p) == want, (p, m, n)
    # planted full-rank and rank-deficient blocks on the incremental path
    # in batches of 80 rows: the stored basis soon holds more rows than a
    # batch, so its update runs in row chunks, and at P_F32 the GEMMs of
    # both updates (inner dimensions up to 260 and 80) run in chunks of 65
    monkeypatch.setattr(linalg, "_BATCH_BLOCKED", 80)
    assert linalg._limit(np.float32, P_F32) < 66 * (P_F32 - 1) ** 2
    for p in (2, 7, P_F32, 1000003):
        for m, n, rank in ((400, 260, 260), (400, 260, 170)):
            A = _test_matrix(rng, m, n, rank, p)
            if rank == n:
                A[:, [1, n // 2, -1]] = rng.integers(0, p, size=(m, 3))
            want = _plain_rank(A, p)
            assert (want == n) == (rank == n)
            assert fp_rank_sparse_dense(_sparse(A), n, p) == want, (p, rank)


def _window_filler(p, blocks):
    """Unit block triangular L (lower) and U (upper), blocks of _PANEL,
    whose off-diagonal blocks hold an odd h near p/2 (h - 1 in the first
    column of L's), U with a zero last diagonal block."""
    k = linalg._PANEL
    h = (p - 1) // 2
    h -= 1 - h % 2
    L = np.eye(blocks * k, dtype=np.int64)
    U = np.eye(blocks * k, dtype=np.int64)
    for i in range(blocks):
        for j in range(blocks):
            if i > j:
                L[i * k:(i + 1) * k, j * k:(j + 1) * k] = h
                L[i * k:(i + 1) * k, j * k] = h - 1
            elif i < j:
                U[i * k:(i + 1) * k, j * k:(j + 1) * k] = h
    U[-k:, -k:] = 0
    return L, U


def test_blocked_rank_stays_exact_as_the_window_fills():
    # A = L @ U (``_window_filler``).  Every Schur step then has S = I and
    # subtracts the same odd sum, near _PANEL * h^2, from each live entry;
    # at the largest prime whose one step fits float32, unreduced entries
    # pass 2^24 by the fifth step unless the live block is reduced in time,
    # and the last complement, which is zero mod p, is formed after six.
    k = linalg._PANEL
    p = P_F32
    blocks = 7
    L, U = _window_filler(p, blocks)
    A = L @ U % p
    assert _plain_rank(A, p) == (blocks - 1) * k
    assert _blocked_basis(A, A.astype(np.float32), p) == (blocks - 1) * k
    # U with the blocks between its first block row and its last block
    # column cleared: the pivot rows of each later step are the identity
    # and h on the last block, and the first block row, above them, keeps
    # h on their panel, so it loses the same sum _PANEL * h^2 on its last
    # block at every step, which passes 2^24 by the fifth unless the rows
    # above are reduced in time as well
    for i in range(1, blocks):
        U[i * k:(i + 1) * k, (i + 1) * k:-k] = 0
    assert _blocked_basis(U, U.astype(np.float32), p) == (blocks - 1) * k


def test_reduced_basis_update_stays_exact_as_the_window_fills(monkeypatch):
    # The first batch is U of ``_window_filler`` with the identity over its
    # first blocks, without its zero last block row: its own reduced basis
    # [I | H] of rank r = (blocks - 1) * _PANEL, every entry of H the odd
    # h.  The second is the last block row of L @ U, inside that row space,
    # whose first r columns hold L's h and h - 1.  Reducing it subtracts a
    # sum of r products, most of them the odd h^2, from each entry: at the
    # largest prime whose one step fits float32 it passes 2^24 unless the
    # inner dimension is cut into chunks and the entries are reduced after
    # each, and the rows, zero mod p, are finished after the last chunk.
    k = linalg._PANEL
    p = P_F32
    blocks = 7
    r = (blocks - 1) * k
    L, U = _window_filler(p, blocks)
    U[:r, :r] = np.eye(r)
    A = np.vstack([U[:r], (L @ U % p)[-k:]])
    assert r * (p - 1) ** 2 > 1 << 24
    monkeypatch.setattr(linalg, "_BATCH_BLOCKED", r)
    assert _plain_rank(A, p) == r
    assert fp_rank_sparse_dense(_sparse(A), blocks * k, p) == r


def _watch_dense(monkeypatch):
    """Record (stop, rows of the dense buffer) for every batch that
    ``SparseRows.dense`` writes."""
    seen = []
    dense = SparseRows.dense

    def run(self, start, stop, p, out, where):
        seen.append((stop, out.base.shape[0]))
        return dense(self, start, stop, p, out, where)

    monkeypatch.setattr(SparseRows, "dense", run)
    return seen


def test_blocked_path_matches_plain_loop_across_batches(monkeypatch):
    # batches of 96 rows, reduced against the panels stored from earlier
    # batches; 70 columns are zero in every row of the first batches and
    # live only later.  A full-rank block stops before its last batch, a
    # rank-deficient one reads every row.
    seen = _watch_dense(monkeypatch)
    monkeypatch.setattr(linalg, "_BATCH_BLOCKED", 96)
    rng = np.random.default_rng(9)
    for p in KERNEL_PRIMES + (1000003,):
        for m, n, rank in ((700, 300, 300), (700, 300, 230),
                           (400, 330, 260)):
            A = _test_matrix(rng, m, n, rank, p)
            if rank == n:
                A[:, [1, n // 2, -1]] = rng.integers(0, p, size=(m, 3))
            A[:300, 40:110] = 0
            want = _plain_rank(A, p)
            seen.clear()
            assert fp_rank_sparse_dense(_sparse(A), n, p) == want, \
                (p, m, n)
            assert max(rows for _, rows in seen) <= n + 96
            if rank == n:
                assert want == n and seen[-1][0] < m
            else:
                assert seen[-1][0] == m


def test_float_kernels_refuse_primes_outside_their_window():
    for dtype, p in ((np.float32, 521), (np.float64, (1 << 31) - 1)):
        A = np.zeros((4, 4), dtype=dtype)
        with pytest.raises(ValueError, match="outside"):
            linalg._rank_blocked(A, p, np.arange(4), [])
        with pytest.raises(ValueError, match="outside"):
            linalg._eliminate(A, A, A, p)


def test_fp_rank_sparse_dense_paths(monkeypatch):
    rng = np.random.default_rng(7)
    seen = _watch_dense(monkeypatch)
    # tall blocks, full rank and deficient, and a wide one, in batches of
    # 100 rows on either path: the rank is exact, no more than ncols + 100
    # rows are ever dense, and the passes stop at full rank
    monkeypatch.setattr(linalg, "_BATCH", 100)
    monkeypatch.setattr(linalg, "_BATCH_BLOCKED", 100)
    for p in (2, 7, P_F32, 1000003, (1 << 31) - 1):
        for m, n, rank in ((900, 300, 300), (900, 300, 260),
                           (300, 400, 250)):
            A = _test_matrix(rng, m, n, rank, p)
            if rank == n:
                A[:, [1, n // 2, -1]] = rng.integers(0, p, size=(m, 3))
            want = _plain_rank(A, p)
            seen.clear()
            assert fp_rank_sparse_dense(_sparse(A), n, p) == want, (p, m, n)
            assert max(rows for _, rows in seen) <= n + 100
            if rank == n:
                assert want == n and seen[-1][0] < m
    # the float windows: float32 up to P_F32, then float64, then the
    # exact integer loop, which must not reach the float kernel
    assert linalg._float_dtype(521) is np.float64      # the next prime
    assert linalg._float_dtype((1 << 31) - 1) is None

    def refuse(*args):
        raise AssertionError("float kernel used outside its window")

    monkeypatch.setattr(linalg, "_rank_blocked", refuse)
    q = (1 << 31) - 1
    B = rng.integers(0, q, size=(256, 260))
    B[-1] = (B[0] + 5 * B[1]) % q
    assert fp_rank_sparse_dense(_sparse(B), 260, q) == 255


def test_reduce_is_exact_at_the_window_edge():
    rng = np.random.default_rng(8)
    for p in KERNEL_PRIMES + (1000003,):
        for dtype in (np.float32, np.float64):
            lim = linalg._limit(dtype, p)
            x = np.concatenate([rng.integers(-lim, lim + 1, size=2000),
                                [lim, -lim, lim // p * p, -(lim // p) * p,
                                 0, p, -p, p - 1, 1 - p]])
            X = x.astype(dtype)
            assert (X == x).all()
            linalg._reduce(X, p)
            r = X.astype(np.int64)
            assert (X == r).all() and (np.abs(r) < p).all()
            assert ((r - x) % p == 0).all()
            assert ((r == 0) == (x % p == 0)).all()


# the largest prime whose blocked ranks run in float64: its _eliminate
# chunks every inner dimension past _PANEL, as P_F32's does in float32
P_F64 = next(p for p in range(isqrt((1 << 53) // linalg._PANEL) + 2, 0, -1)
             if linalg._float_dtype(p) is np.float64 and is_prime(p))


def _head_block(rng, m, n, tails, p):
    """An m x n integer matrix whose row i has the trailing column
    ``tails[i]`` mod p (a zero row mod p for -1): random entries, a third
    of them nonzero, left of it, and multiples of p right of it on the
    odd rows.  A row of -1 is a nonzero multiple of p when its index is a
    multiple of 4 and empty otherwise."""
    A = rng.integers(0, p, size=(m, n)) * (rng.random((m, n)) < 1 / 3)
    for i, c in enumerate(tails):
        A[i, c + 1:] = p * rng.integers(-2, 3, size=n - c - 1) * (i % 2)
        if c >= 0:
            A[i, c] = rng.integers(1, p)
        elif i % 4 == 0:
            A[i] = p * rng.integers(1, 3, size=n)
        else:
            A[i] = 0
    return A


def test_trailing_columns_skip_entries_zero_mod_p(monkeypatch):
    monkeypatch.setattr(linalg, "_BATCH_BLOCKED", 7)
    rng = np.random.default_rng(11)
    for p in (2, 7, P_F32):
        tails = rng.integers(-1, 30, size=50)
        tails[-3:] = -1           # empty rows close the last batch
        A = _head_block(rng, 50, 30, tails, p)
        nz = A % p != 0
        want = np.where(nz.any(axis=1), 29 - nz[:, ::-1].argmax(axis=1), -1)
        assert (want == tails).all()
        assert (linalg._trailing_columns(_sparse(A), p) == tails).all()


def test_head_start_matches_plain_loop(monkeypatch):
    # Seeded sparse blocks whose rows share trailing columns, with rows
    # zero mod p, empty or not, in batches of 96 rows: the head is some
    # t rows, t not a multiple of _PANEL, and the batches past it find
    # the rest of the rank.  At P_F32 and P_F64 the head's forward
    # substitution runs _eliminate in chunks; the large case adds
    # multiples of p * 2^64 to every entry, object coefficients.
    seen = _watch_dense(monkeypatch)
    monkeypatch.setattr(linalg, "_BATCH_BLOCKED", 96)
    k = linalg._PANEL
    for p in (P_F32, P_F64):
        h = (linalg._limit(linalg._float_dtype(p), p) - p + 1) // (p - 1) ** 2
        assert k <= h < 2 * k
    rng = np.random.default_rng(12)
    for p in (2, 7, P_F32, P_F64):
        for m, n, ntails in ((400, 300, 150), (500, 290, 260)):
            # the last 20 columns are zero mod p: rank < n
            heads = np.sort(rng.choice(n - 20, ntails, replace=False))
            tails = rng.choice(np.append(heads, -1), size=m)
            A = _head_block(rng, m, n, tails, p)
            t = np.unique(tails[tails >= 0]).size
            assert t % k and t > k
            want = _plain_rank(A % p, p)
            assert want < n
            big = A.astype(object) + (p << 64) * rng.integers(
                -1, 2, size=A.shape).astype(object)
            for M in (A, big):
                seen.clear()
                assert fp_rank_sparse_dense(_sparse(M), n, p) == want, (p, m)
                assert max(rows for _, rows in seen) <= min(m, n) + 96
                assert seen[0][0] == t and seen[-1][0] == m
        # a head of every column is full rank by itself: no batch runs
        tails = np.concatenate([rng.permutation(260), rng.integers(-1, 260,
                                                                  size=40)])
        A = _head_block(rng, 300, 260, rng.permutation(tails), p)
        seen.clear()
        assert fp_rank_sparse_dense(_sparse(A), 260, p) == 260
        assert seen == []


def test_triangular_inverse_at_the_window_edge():
    # 64 x 64 blocks at P_F32 with a non-unit diagonal and, below it,
    # every entry 1 or seeded residues: N, strictly lower, has N^32 != 0,
    # so every doubling step counts, and one product on unreduced entries
    # passes 2^24.  Only the seeded block needs D^-1 L reduced.
    p = P_F32
    k = linalg._PANEL
    rng = np.random.default_rng(13)
    for below in (np.ones((k, k)), rng.integers(1, p, size=(k, k))):
        L = np.tril(below, -1).astype(np.int64)
        L[np.diag_indices(k)] = np.arange(2, k + 2)
        G = np.hstack([L, np.eye(k, dtype=np.int64)])
        assert linalg._echelon_mod_p(G, p, reduced=True,
                                     width=k) == list(range(k))
        inv = linalg._tri_inverse(L.astype(np.float32), p)
        assert (np.abs(inv) < p).all()
        assert (inv.astype(np.int64) % p == G[:, k:]).all()


def test_kernel_rational():
    M = [[1, 2, 3], [2, 4, 6]]
    ker = kernel_rational(M)
    assert len(ker) == 2
    for v in ker:
        assert mat_vec(M, v) == [0, 0]
    # the same loop over the table fields F_4 and F_8: A v = 0 for every
    # basis vector, and dim = n - rank with the rank read off the size
    # q^rank of the row space, enumerated
    rng = random.Random(17)
    for q, n in ((4, 5), (8, 4)):
        F = GF(q)
        for _ in range(12):
            m = rng.randint(1, 3)
            A = [[rng.randrange(q) if rng.random() < 0.7 else 0
                  for _ in range(n)] for _ in range(m)]
            if rng.random() < 0.5:       # a row dependent on the others
                c = [rng.randrange(q) for _ in range(m)]
                A.append([_gf_dot(F, c, col) for col in zip(*A)])
            basis = nullspace(A, F)
            for v in basis:
                assert [_gf_dot(F, row, v) for row in A] == [0] * len(A)
            span = {tuple(_gf_dot(F, c, col) for col in zip(*A))
                    for c in product(range(q), repeat=len(A))}
            assert q ** (n - len(basis)) == len(span)


def _gf_dot(F, a, b):
    total = 0
    for x, y in zip(a, b):
        total = F.add(total, F.mul(x, y))
    return total


def test_laplace_minors_match_bareiss():
    rng = random.Random(41)
    # every square submatrix of r x n matrices, its rows shuffled
    for n in range(1, 7):
        for r in range(1, n + 1):
            M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(r)]
            for k in range(1, r + 1):
                for rows in combinations(range(r), k):
                    rows = rng.sample(rows, k)
                    minors = laplace_minors(M, rows)
                    assert list(minors) == list(combinations(range(n), k))
                    for cols, m in minors.items():
                        assert m == det_bareiss([[M[i][j] for j in cols]
                                                 for i in rows])
    # a batch of 5x5 residue matrices, entry (r, c) an array over the batch
    B = np.random.default_rng(41).integers(0, 31, size=(5, 5, 40))
    dets = laplace_minors(B, range(5))[tuple(range(5))]
    assert dets.tolist() == [det_bareiss(B[:, :, k].tolist())
                             for k in range(B.shape[2])]
    # polynomial entries, checked at points
    mat = [[MultiPoly(2, {(rng.randint(0, 2), rng.randint(0, 2)):
                          rng.randint(-5, 5) for _ in range(3)})
            for _ in range(5)] for _ in range(4)]
    rows = (3, 0, 2)
    minors = laplace_minors(mat, rows)
    for _ in range(5):
        pt = [rng.randint(-4, 4), rng.randint(-4, 4)]
        for cols, m in minors.items():
            assert m.evaluate(pt) == det_bareiss(
                [[mat[i][j].evaluate(pt) for j in cols] for i in rows])


def test_det_exact_crt_matches_bareiss():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randrange(1, 7)
        M = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(n)]
        assert det_exact_crt(M) == det_bareiss(M)
    # a big structured one: Hilbert-like integer matrix
    n = 12
    M = [[(i + 1) ** j % 97 for j in range(n)] for i in range(n)]
    assert det_exact_crt(M) == det_bareiss(M)


def _crt_primes(M):
    """The primes ``det_exact_crt`` takes for M, in order."""
    from math import isqrt
    bound = 2
    for row in M:
        bound *= isqrt(sum(x * x for x in row)) + 1
    return linalg._primes_for_crt(max(bound, 4))


def test_det_exact_crt_on_pivots_that_differ_by_prime():
    rng = random.Random(17)
    n = 7
    M = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
    p1 = _crt_primes(M)[0]
    # the first column vanishes mod the first prime only: that prime finds
    # no pivot at the first step while every other prime does
    zero_col = [[p1 * x if j == 0 else x for j, x in enumerate(row)]
                for row in M]
    assert _crt_primes(zero_col)[0] == p1
    # det divisible by p1 with no column zero mod p1: p1 runs out of
    # pivots at a later step
    D = [[1, 0, 0], [0, 1, 0], [0, 0, p1]]
    mixed = mat_mul(mat_mul(random_unimodular(3, rng), D),
                    random_unimodular(3, rng))
    assert all(any(x % p1 for x in col) for col in zip(*mixed))
    # the top-left entry is 0 mod p1 alone: p1 swaps a row in there,
    # the other primes keep row 0; and the next pivot likewise for p2
    swapped = [row[:] for row in M]
    p2 = _crt_primes(M)[1]
    swapped[0][0] = p1 * 3
    swapped[1][1] = p2 * 5
    for A in (zero_col, mixed, swapped):
        assert det_exact_crt(A) == det_bareiss(A)
    assert det_exact_crt(mixed) == p1
    assert det_exact_crt(zero_col) % p1 == 0


def test_det_exact_crt_edge_cases():
    assert det_exact_crt([[5]]) == 5
    assert det_exact_crt([[-7]]) == -7
    assert det_exact_crt([[0, 0], [0, 0]]) == 0
    assert det_exact_crt([[0] * 5 for _ in range(5)]) == 0
    singular = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    assert det_exact_crt(singular) == 0 == det_bareiss(singular)
    # entries past 2^63 are reduced as Python ints
    big = [[(1 << 70) + 3, 5, -(1 << 64)], [2, (1 << 63), 1], [7, -11, 13]]
    assert det_exact_crt(big) == det_bareiss(big)
    assert det_exact_crt([[-(1 << 80)]]) == -(1 << 80)


def test_det_exact_crt_in_several_prime_groups(monkeypatch):
    rng = random.Random(19)
    n = 12
    M = [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(n)] for _ in range(n)]
    M[3][4] = 0
    M[0][0] = _crt_primes(M)[2]
    want = det_bareiss(M)
    groups = []
    real = linalg._dets_mod_primes

    def spy(R, primes):
        assert R.size <= max(n * n, linalg._CRT_STACK_CELLS)
        groups.append(len(primes))
        return real(R, primes)
    monkeypatch.setattr(linalg, "_dets_mod_primes", spy)
    assert det_exact_crt(M) == want
    assert groups == [len(_crt_primes(M))]
    groups.clear()
    monkeypatch.setattr(linalg, "_CRT_STACK_CELLS", 2 * n * n)
    assert det_exact_crt(M) == want
    assert len(groups) > 2 and set(groups[:-1]) == {2}
    assert sum(groups) == len(_crt_primes(M))
    # one matrix past the cap still runs, one prime at a time
    groups.clear()
    monkeypatch.setattr(linalg, "_CRT_STACK_CELLS", 10)
    assert det_exact_crt(M) == want
    assert set(groups) == {1}


def test_smith_divisors_and_crt_determinants_match_sympy():
    # an independent implementation, where it is installed: no declared
    # dependency
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    rng = random.Random(29)
    for _ in range(40):
        m, n = rng.randrange(1, 6), rng.randrange(1, 6)
        M = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.3 and m > 1:     # a dependent row
            M[-1] = [2 * a - 3 * b for a, b in zip(M[0], M[1 % m])]
        want = [abs(int(x)) for x in invariant_factors(
            sympy.Matrix(M), domain=sympy.ZZ)]
        assert smith_divisors(M) == want, M
        if m == n:
            assert det_exact_crt(M) == int(sympy.Matrix(M).det()), M


def test_random_unimodular_is_unimodular():
    rng = random.Random(0)
    for _ in range(20):
        T = random_unimodular(5, rng)
        assert abs(det_bareiss(T)) == 1


def test_is_prime():
    assert [n for n in range(30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(1000003)
    assert not is_prime(1000001)  # 101 * 9901
