import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import diagonal_isotropic_bruteforce, quadric_from_gram
from symmetroid.gf import GF
from symmetroid.linalg import mat_mul, random_unimodular, transpose
from symmetroid.localfields import REAL, is_square_at
from symmetroid.quadform import (COEFF_ORDER, QuadricForm,
                                 _diagonal_isotropic_qp,
                                 _smooth_point_enumerate, classify,
                                 has_smooth_point_fq, has_smooth_point_qp,
                                 has_smooth_point_real, parse_quadric_line,
                                 quadric_to_line, ruling_disc)

Q1_THM = QuadricForm.from_string(
    "x0^2 + x0*x1 + 3*x0*x2 + 2*x1^2 + x1*x2 + x1*x3 + 5*x2^2 + x2*x3 + x3^2")
Q0_THM = QuadricForm.from_string("x0*x1 + x2*x3")
Q0_310 = QuadricForm.from_string("6*x0^2 - 3*x1^2 + 2*x2^2 - x3^2")
SUMSQ = QuadricForm.from_string("x0^2 + x1^2 + x2^2 + x3^2")


def rand_form(rng, bound=6):
    return QuadricForm([rng.randint(-bound, bound) for _ in range(15)])


def test_gram_identity():
    rng = random.Random(1)
    for _ in range(40):
        Q = rand_form(rng)
        B = Q.gram()
        assert all(B[i][j] == B[j][i] for i in range(5) for j in range(5))
        assert all(B[i][i] % 2 == 0 for i in range(5))
        # B(x, x) = 2 Q(x) on basis vectors and sums
        for _ in range(10):
            x = [rng.randint(-4, 4) for _ in range(5)]
            bxx = sum(B[i][j] * x[i] * x[j]
                      for i in range(5) for j in range(5))
            qx = sum(c * x[i] * x[j]
                     for (i, j), c in zip(COEFF_ORDER, Q.coeffs))
            assert bxx == 2 * qx


def test_classify_paper_values():
    cls = classify(Q1_THM, "R")
    assert cls.signature == (4, 0, 1)
    cls0 = classify(Q0_THM, "Q")
    assert cls0.rank == 4
    assert cls0.kernel == [[0, 0, 0, 0, 1]]
    assert classify(QuadricForm([0] * 15), "Q").rank == 0


def test_classify_diagonalization_exact():
    rng = random.Random(6)
    for _ in range(60):
        Q = rand_form(rng)
        cls = classify(Q, "Q")
        B = Q.gram()
        T = cls.transform
        D = mat_mul(mat_mul(transpose(T), B), T)
        for i in range(5):
            for j in range(5):
                assert D[i][j] == (cls.diagonal[i] if i == j else 0)
        assert cls.rank == sum(1 for d in cls.diagonal if d != 0)
        assert len(cls.kernel) == 5 - cls.rank
        for v in cls.kernel:
            assert all(x == 0 for x in
                       [sum(B[i][j] * v[j] for j in range(5))
                        for i in range(5)])


def test_congruence_invariance():
    rng = random.Random(7)
    for _ in range(50):
        Q = rand_form(rng)
        T = random_unimodular(5, rng)
        B2 = mat_mul(mat_mul(transpose(T), Q.gram()), T)
        Q2 = quadric_from_gram(B2)
        c1, c2 = classify(Q, "R"), classify(Q2, "R")
        assert c1.rank == c2.rank
        assert c1.signature == c2.signature
        if c1.rank == 4:
            d1, d2 = ruling_disc(Q), ruling_disc(Q2)
            # same square class over Q
            prod = Fraction(d1) * Fraction(d2)
            n = prod.numerator * prod.denominator
            from math import isqrt
            assert n > 0 and isqrt(n) ** 2 == n


def test_smooth_point_paper_values():
    assert has_smooth_point_qp(Q0_310, 3) is False
    assert has_smooth_point_real(SUMSQ) is False
    for p in (2, 3, 5, 7):
        assert has_smooth_point_fq(QuadricForm.from_string("x0*x1"), p)
    assert has_smooth_point_qp(SUMSQ, 2) is False
    with pytest.raises(ValueError):
        has_smooth_point_real(QuadricForm([0] * 15))


def test_smooth_point_fq_vs_enumeration():
    # spec invariant: classification equals exhaustive search; 1000 forms
    # per field over q in {3, 5, 7}.  For even q ``has_smooth_point_fq``
    # is that enumeration, so at q = 2 it is checked against the sieve's
    # float32 scan instead.  The q = 4 leg has no second engine: it only
    # checks that a smooth F_2-point stays one over F_4
    from symmetroid.density import _no_smooth_point_mask
    rng = random.Random(13)
    for q in (2, 3, 4, 5, 7):
        gf = GF(q)
        forms = []
        for _ in range(1000):
            Q = QuadricForm([rng.randrange(q) for _ in range(15)])
            if any(c % gf.p for c in Q.coeffs):
                forms.append(Q)
        got = [has_smooth_point_fq(Q, q) for Q in forms]
        if q == 2:
            C = np.array([Q.coeffs for Q in forms], dtype=np.int64)
            assert got == (~_no_smooth_point_mask(C, 2)).tolist()
        elif q == 4:
            assert all(has_smooth_point_fq(Q, 2) <= smooth
                       for Q, smooth in zip(forms, got))
        else:
            assert got == [_smooth_point_enumerate(Q, gf) is not None
                           for Q in forms], q


def test_classify_f9_vs_enumeration():
    # F_9 is the one odd prime power that reaches the table-arithmetic
    # diagonalisation; exhaustive search over P^4(F_9) is the reference
    rng = random.Random(29)
    gf = GF(9)
    ranks = set()
    for k in range(50):
        B = [[0] * 5 for _ in range(5)]
        for _ in range(k % 5 + 1):
            L = [rng.randint(-2, 2) for _ in range(5)]
            a = rng.choice((-1, 1, 2))
            for i in range(5):
                for j in range(5):
                    B[i][j] += 2 * a * L[i] * L[j]
        Q = quadric_from_gram(B)
        cls = classify(Q, 9)
        if cls.rank == 0:
            continue
        ranks.add(min(cls.rank, 3))
        smooth = _smooth_point_enumerate(Q, gf) is not None
        if cls.rank >= 3:
            assert smooth, Q.coeffs
        elif cls.rank == 2:
            assert smooth == cls.split, Q.coeffs
        else:
            assert not smooth, Q.coeffs
    assert ranks == {1, 2, 3}


def test_smooth_point_qp_vs_bruteforce():
    rng = random.Random(19)
    checked = 0
    for p in (2, 3, 5):
        for _ in range(30):
            r = rng.choice([2, 3, 4])
            d = [rng.choice([1, 2, 3, 5, 6, 7, -1, -2, -3, -5, -6, -7])
                 * rng.choice([1, p]) for _ in range(r)]
            want = diagonal_isotropic_bruteforce(d, p)
            got = _diagonal_isotropic_qp([Fraction(x) for x in d], p)
            assert want == got, (p, d)
            checked += 1
    assert checked == 90


def test_hensel_consistency():
    # smooth F_p point + good-reduction rank (odd p) forces a Q_p point
    rng = random.Random(3)
    hits = 0
    for _ in range(300):
        Q = rand_form(rng, bound=4)
        p = rng.choice([3, 5, 7])
        if all(c % p == 0 for c in Q.coeffs):
            continue
        clsQ = classify(Q, "Q")
        clsp = classify(Q, p)
        if clsQ.rank != clsp.rank or clsQ.rank == 0:
            continue
        if has_smooth_point_fq(Q, p):
            assert has_smooth_point_qp(Q, p), (p, Q.coeffs)
            hits += 1
    assert hits > 100


def test_ruling_disc_examples_and_errors():
    assert ruling_disc(Q0_THM) == 1
    assert is_square_at(ruling_disc(Q0_THM), REAL)
    assert ruling_disc(Q0_310) == 576  # square class of 36
    # rank-4 in variables 0..3, disc in the square class of 6
    Q = QuadricForm.from_string("2*x0^2 + 3*x1^2 + x2^2 + x3^2")
    from oracles import squarefree_reduce
    assert squarefree_reduce(ruling_disc(Q)) == 6
    assert squarefree_reduce(ruling_disc(SUMSQ)) == 1
    with pytest.raises(ValueError):
        ruling_disc(QuadricForm.from_string(
            "x0^2 + x1^2 + x2^2 + x3^2 + x4^2"))  # rank 5
    with pytest.raises(ValueError):
        ruling_disc(QuadricForm.from_string("x0^2 + x1^2 + x2^2"))  # rank 3


def test_char2_rank_and_f4():
    gf4 = GF(4)
    assert gf4.mul(2, 2) == 3  # x * x = x + 1 in F_4
    assert gf4.mul(2, 3) == 1
    # double plane over F_2: x0^2 has no smooth point
    assert not has_smooth_point_fq(QuadricForm.from_string("x0^2"), 2)
    assert not has_smooth_point_fq(QuadricForm.from_string("x0^2"), 4)
    # split rank 2 has one over any F_q
    assert has_smooth_point_fq(QuadricForm.from_string("x0*x1"), 4)
    # nonsplit binary x0^2 + x0*x1 + x1^2 over F_2: pointless pair of
    # conjugate planes
    Q = QuadricForm.from_string("x0^2 + x0*x1 + x1^2")
    assert not has_smooth_point_fq(Q, 2)
    # ... but split over F_4 (the roots live there)
    assert has_smooth_point_fq(Q, 4)
    cls = classify(Q, 2)
    assert cls.rank == 2


def test_text_format_roundtrip():
    rng = random.Random(10)
    for _ in range(40):
        Q = rand_form(rng)
        assert parse_quadric_line(quadric_to_line(Q)) == Q
        assert parse_quadric_line(Q.to_string()) == Q
    with pytest.raises(ValueError):
        parse_quadric_line("x0^3")
    with pytest.raises(ValueError):
        parse_quadric_line("1 2 3")
