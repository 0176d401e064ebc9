import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symmetroid.intervals import RatInterval
from symmetroid.roots import (count_distinct_real_roots, isolate_real_roots,
                              poly_eval, poly_interpolate, poly_trim,
                              refine_root, squarefree_part, sturm_chain)


def test_isolation_spec_examples():
    two = isolate_real_roots([-2, 0, 1])           # x^2 - 2
    assert len(two) == 2
    assert two[0].hi < 0 < two[1].lo or two[0].contains(-1)
    assert isolate_real_roots([1, 0, 1]) == []      # x^2 + 1
    one = isolate_real_roots([0, 0, 0, 0, 0, 1])    # x^5
    assert len(one) == 1 and one[0].contains(0)
    with pytest.raises(ValueError):
        isolate_real_roots([])


def test_interpolation_recovers_integer_polynomials():
    rng = random.Random(8)
    for deg in range(7):
        for _ in range(20):
            c = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(deg + 1)]
            values = [poly_eval(c, s) for s in range(deg + 1)]
            assert poly_interpolate(values) == poly_trim(c)
    assert poly_interpolate([0, 0, 0]) == []
    # s(s - 1)/2 is integer-valued without integer coefficients
    with pytest.raises(ValueError):
        poly_interpolate([0, 0, 1])


def _sign_change_count_on_grid(c, lo, hi, steps=4000):
    """Independent oracle: count sign changes of f on a fine rational grid,
    plus exact roots hit by grid points."""
    roots = 0
    prev = None
    prev_x = None
    for k in range(steps + 1):
        x = lo + Fraction(k * (hi - lo), steps)
        v = poly_eval(c, x)
        if v == 0:
            roots += 1
            prev = None
            continue
        s = 1 if v > 0 else -1
        if prev is not None and s != prev:
            roots += 1
        prev = s
    return roots


def test_isolation_count_matches_grid_oracle():
    rng = random.Random(23)
    checked = 0
    for _ in range(120):
        deg = rng.randrange(1, 7)
        c = [rng.randint(-6, 6) for _ in range(deg + 1)]
        if not any(c):
            continue
        sf = squarefree_part(c)
        if len(sf) < 2:
            continue
        ivs = isolate_real_roots(c)
        # grid oracle over a bound enclosing all roots; a fine grid can
        # only undercount when two roots share a cell, so refine first
        ivs_fine = [refine_root(c, iv, max_width=Fraction(1, 1000))
                    for iv in ivs]
        lo = min((iv.lo for iv in ivs_fine), default=Fraction(-1)) - 1
        hi = max((iv.hi for iv in ivs_fine), default=Fraction(1)) + 1
        grid = _sign_change_count_on_grid(sf, lo, hi)
        assert grid <= len(ivs)
        assert count_distinct_real_roots(c) == len(ivs)
        checked += 1
    assert checked > 60


def test_refinement_never_loses_root():
    rng = random.Random(31)
    for _ in range(60):
        deg = rng.randrange(1, 7)
        c = [rng.randint(-8, 8) for _ in range(deg + 1)]
        if not any(c):
            continue
        for iv in isolate_real_roots(c):
            r = iv
            sf = squarefree_part(c)
            chain = sturm_chain(sf)
            from symmetroid.roots import count_roots_halfopen
            for _ in range(20):
                r = refine_root(c, r, rounds=1)
                if r.lo == r.hi:
                    assert poly_eval(sf, r.lo) == 0
                    break
                assert count_roots_halfopen(chain, r.lo, r.hi) == 1


def test_refine_to_width():
    iv = isolate_real_roots([-2, 0, 1])[1]
    r = refine_root([-2, 0, 1], iv, max_width=Fraction(1, 10**9))
    assert r.width() <= Fraction(1, 10**9)
    assert (r.lo * r.lo - 2) * (r.hi * r.hi - 2) <= 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_interval_arithmetic_soundness(seed):
    rng = random.Random(seed)
    lo1 = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
    w1 = Fraction(rng.randint(0, 6), rng.randint(1, 5))
    lo2 = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
    w2 = Fraction(rng.randint(0, 6), rng.randint(1, 5))
    A = RatInterval(lo1, lo1 + w1)
    B = RatInterval(lo2, lo2 + w2)
    ops = [("add", lambda x, y: x + y), ("sub", lambda x, y: x - y),
           ("mul", lambda x, y: x * y)]
    for _, op in ops:
        out = op(A, B)
        for _ in range(100):
            a = A.lo + (A.hi - A.lo) * Fraction(rng.randint(0, 64), 64)
            b = B.lo + (B.hi - B.lo) * Fraction(rng.randint(0, 64), 64)
            assert out.contains(op(RatInterval(a), RatInterval(b)).lo)


def test_interval_division_and_pow():
    A = RatInterval(1, 2)
    B = RatInterval(-3, -1)
    assert (A / B).contains(Fraction(-1, 1))
    with pytest.raises(ZeroDivisionError):
        A / RatInterval(-1, 1)
    sq = RatInterval(-2, 3) ** 2
    assert sq.lo == 0 and sq.hi == 9


def test_interval_polynomial_evaluation_sound():
    rng = random.Random(77)
    for _ in range(40):
        c = [rng.randint(-5, 5) for _ in range(5)]
        box = RatInterval(Fraction(rng.randint(-4, 2)),
                          Fraction(rng.randint(3, 8)))
        total = RatInterval(0)
        for coeff in reversed(c):
            total = total * box + RatInterval(coeff)
        got = poly_eval(c, box)
        assert (got.lo, got.hi) == (total.lo, total.hi)
        for _ in range(25):
            x = box.lo + (box.hi - box.lo) * Fraction(rng.randint(0, 32), 32)
            assert total.contains(poly_eval(c, x))
    # a minor restricted to a line can vanish identically: its value on an
    # interval must still be an interval, one with no certified sign
    zero = poly_eval([0, 0, 0], RatInterval(-1, 2))
    assert isinstance(zero, RatInterval) and zero.sign() is None
