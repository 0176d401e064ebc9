import random

import numpy as np
import pytest

from symmetroid.linalg import (det_bareiss, det_exact_crt, fp_pivot_rows,
                               fp_rank, fp_rank_sparse_dense, is_prime,
                               kernel_rational, mat_mul, mat_vec,
                               random_unimodular, smith_divisors,
                               smith_normal_form)


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


def test_fp_rank_matches_rational_rank_generic():
    rng = random.Random(2)
    # both sides of the int32 kernel's bound p < 2^31, and one prime past
    # int64 products (1099511627791 > 2^40)
    primes = (2, 3, 7, 32771, 1000003, 2 ** 31 - 1, 1099511627791)
    for _ in range(60):
        m, n = rng.randrange(1, 7), rng.randrange(1, 7)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        divisors = [d for d in smith_divisors(M) if d]
        rank = len(divisors)
        assert fp_rank(M, 1000003) == rank
        rows = [{j: M[i][j] for j in range(n) if M[i][j]} for i in range(m)]
        _, rk = fp_pivot_rows(rows, n, 1000003)
        assert rk == rank
        for p in primes:
            _, rk_p = fp_pivot_rows(rows, n, p)
            assert rk_p <= rank
            assert fp_rank(M, p) == rk_p, p
            assert fp_rank_sparse_dense(rows, n, p) == rk_p, p
    # residues near 2^40: products of two of them overflow int64
    q = 1099511627791
    r1, r2 = [1, q - 2, 5, q - 7], [q - 3, 11, q - 13, 17]
    M = [r1, r2, [7 * a + 3 * b for a, b in zip(r1, r2)]]
    rows = [dict(enumerate(r)) for r in M]
    assert fp_rank(M, q) == 2
    assert fp_rank_sparse_dense(rows, 4, q) == 2
    assert fp_pivot_rows(rows, 4, q)[1] == 2


def test_kernel_rational():
    M = [[1, 2, 3], [2, 4, 6]]
    ker = kernel_rational(M)
    assert len(ker) == 2
    for v in ker:
        assert mat_vec(M, v) == [0, 0]


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
