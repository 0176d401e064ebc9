import io
import random
from fractions import Fraction

import numpy as np
import pytest

from symmetroid.density import (b_of_p, b_of_p_counting,
                                certify_p2b_decreasing, census_bp,
                                gaussian_count, monte_carlo_density,
                                pointless_quadric_count, primes_below,
                                product_lower_bound, sp_member)
from symmetroid.pencil import Pencil
from symmetroid.quadform import QuadricForm


def test_gaussian_counts():
    assert gaussian_count(3, 4, 2) == 31
    assert gaussian_count(2, 4, 2) == 155
    for p in (2, 3, 5):
        for n in range(1, 5):
            assert gaussian_count(0, n, p) == (p ** (n + 1) - 1) // (p - 1)
    with pytest.raises(ValueError):
        gaussian_count(5, 4, 2)
    with pytest.raises(ValueError):
        gaussian_count(1, 3, 4)


def test_b_of_p_closed_form_vs_counting():
    assert b_of_p(2) == Fraction(372, 2114)
    for p in primes_below(1000):
        assert b_of_p(p) == b_of_p_counting(p), p


def test_p2_b_decreasing_and_above_half():
    assert certify_p2b_decreasing()
    prev = None
    for p in primes_below(10000):
        if p < 3:
            continue
        v = p * p * b_of_p(p)
        assert v > Fraction(1, 2), p
        if prev is not None:
            assert v < prev, p
        prev = v


def test_product_lower_bound_spec_values():
    rep = product_lower_bound(100)
    assert Fraction("0.737") <= rep.partial_product <= Fraction("0.740")
    assert rep.final_bound >= Fraction("0.73")
    assert rep.final_bound <= rep.partial_product
    with pytest.raises(ValueError):
        product_lower_bound(50)
    # single-factor sanity via the per-prime table
    assert rep.per_prime[0] == (2, Fraction(372, 2114))
    assert 1 - rep.per_prime[0][1] == Fraction(871, 1057)
    bigger = product_lower_bound(300)
    assert bigger.final_bound >= rep.final_bound


def test_census_p2():
    assert census_bp(2) == pointless_quadric_count(2) == 186
    # one progress line per lead block, with one worker or with two
    for workers in (1, 2):
        out = io.StringIO()
        assert census_bp(2, progress=out, workers=workers) == 186
        lines = out.getvalue().splitlines()
        assert len(lines) == 15, workers
        assert lines[-1] == ("census p=2: lead block 15/15 done "
                             "(running total 186)")
    assert census_bp(2) >= gaussian_count(3, 4, 2)  # at least double planes
    with pytest.raises(ValueError):
        census_bp(5)


def test_sp_member_cases(thm_pencil):
    for p in (2, 3, 5, 7, 11, 13):
        res = sp_member(thm_pencil, p)
        assert not res.member and not res.degenerate_frame
    # double plane member
    qs = ["x0^2", "x1^2 + x2*x3", "x0*x2 + x3^2", "x1*x3 + x4^2",
          "x2^2 + x0*x4"]
    P = Pencil([QuadricForm.from_string(s) for s in qs])
    for p in (2, 3, 5, 7):
        res = sp_member(P, p)
        assert res.member and res.witness == (1, 0, 0, 0, 0)
    # nonsplit rank-2 member at a chosen prime: x0^2 - 3 x1^2 mod 7
    qs = ["x0^2 - 3*x1^2", "x0*x2 + x3^2 + x1^2", "x1*x3 + x4^2",
          "x2^2 + x0*x4", "x2*x3 + x0^2 + x4^2"]
    Pn = Pencil([QuadricForm.from_string(s) for s in qs])
    assert sp_member(Pn, 7).member           # 3 is not a square mod 7
    assert not sp_member(Pn, 11).member      # 3 = 5^2 mod 11: split


def test_sp_member_degenerate_frame():
    # generators dependent mod 2 but independent over Q
    qs = ["x0^2 + x1^2", "x0^2 - x1^2", "x2^2 + x0*x1", "x3^2 + x0*x2",
          "x4^2 + x1*x2"]
    P = Pencil([QuadricForm.from_string(s) for s in qs])
    res = sp_member(P, 2)
    assert res.degenerate_frame and not res.member


def test_float32_window_refused_before_allocation(thm_pencil):
    # 179 is the first prime past the exact float32 window; the scan
    # matrices there would take tens of GB, so the refusal must come first
    from symmetroid import density
    with pytest.raises(ValueError, match="float32"):
        sp_member(thm_pencil, 179)
    with pytest.raises(ValueError, match="float32"):
        monte_carlo_density(10, 179, 1, seed=0)
    assert 179 not in density._REPS_CACHE


def test_rank_le2_screen_matches_fp_rank():
    # every member whose Gram matrix has F_p-rank <= 2, found one member at
    # a time, is exactly what the minor screen returns
    from symmetroid.density import _projective_reps_matrix, _rank_le2_indices
    from symmetroid.linalg import fp_rank
    rng = np.random.default_rng(11)
    frames = [rng.integers(-10, 11, size=(5, 15)) for _ in range(4)]
    # first generators: x0^2 (a double plane), x0^2 - 3 x1^2 (rank 2) and
    # x0^2 + x1^2 + x2^2 (rank 3, every non-principal minor zero)
    for F, e0 in zip(frames[1:], ({0: 1}, {0: 1, 5: -3},
                                  {0: 1, 5: 1, 9: 1})):
        F[0] = 0
        F[0, list(e0)] = list(e0.values())
    cases = [(F, p) for p in (3, 5, 7) for F in frames]
    cases += [(frames[1], 11), (frames[2], 13)]
    for F, p in cases:
        P = Pencil([QuadricForm(row) for row in F.tolist()])
        points = _projective_reps_matrix(p).astype(int).tolist()
        brute = [n for n, t in enumerate(points)
                 if fp_rank(P.gram_at(t), p) <= 2]
        assert _rank_le2_indices(np.mod(F, p), p).tolist() == brute, p
        # e_0 = (1, 0, 0, 0, 0) is row 0
        if F is frames[1] or F is frames[2]:
            assert brute[0] == 0
        elif F is frames[3]:
            assert 0 not in brute


def test_monte_carlo_determinism_and_edges():
    rep = monte_carlo_density(10, 20, 150, seed=7)
    rep2 = monte_carlo_density(10, 20, 150, seed=7)
    assert rep.as_json() == rep2.as_json()
    empty = monte_carlo_density(10, 20, 0, seed=7)
    assert empty.estimate is None and empty.passes == 0
    with pytest.raises(ValueError):
        monte_carlo_density(1, 20, 10, seed=0)


def test_monte_carlo_row_permutation_invariance():
    # permuting a frame's rows cannot change S_p membership of its span
    from symmetroid.density import _sp_member_rows
    rng = np.random.default_rng(3)
    perm_rng = random.Random(3)
    from symmetroid.linalg import fp_rank
    for _ in range(20):
        F = rng.integers(-10, 11, size=(5, 15))
        for p in (2, 3, 5):
            A = np.mod(F, p)
            if fp_rank(A.copy(), p) < 5:
                continue
            base = _sp_member_rows(A, p) is not None
            rows = list(range(5))
            perm_rng.shuffle(rows)
            assert (_sp_member_rows(A[rows], p) is not None) == base
