import random
from fractions import Fraction

import pytest

from oracles import (poly_divmod_fraction, poly_eval_fraction,
                     poly_gcd_fraction, squarefree_part_fraction,
                     sturm_chain_fraction, sturm_variations_fraction)
from symmetroid.roots import (RatInterval, _pseudo_divmod,
                              count_roots_halfopen, horner_sign,
                              isolate_real_roots, poly_eval_scaled, poly_gcd,
                              poly_interpolate, poly_trim, refine_root,
                              root_bound, squarefree_part, sturm_chain,
                              sturm_variations_at)


def _refine_to_width(chain, iv, width):
    while iv.hi - iv.lo > width:
        iv = refine_root(chain, iv)
    return iv


def test_isolation_spec_examples():
    two = isolate_real_roots(sturm_chain([-2, 0, 1]))          # x^2 - 2
    assert len(two) == 2
    assert two[0].hi < 0 < two[1].lo or two[0].lo <= -1 <= two[0].hi
    assert isolate_real_roots(sturm_chain([1, 0, 1])) == []     # x^2 + 1
    one = isolate_real_roots(sturm_chain([0, 0, 0, 0, 0, 1]))   # x^5
    assert len(one) == 1 and one[0].lo <= 0 <= one[0].hi
    with pytest.raises(ValueError):
        isolate_real_roots(sturm_chain([]))


def test_interpolation_recovers_integer_polynomials():
    rng = random.Random(8)
    for deg in range(7):
        for _ in range(20):
            c = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(deg + 1)]
            values = [poly_eval_scaled(c, s) for s in range(deg + 1)]
            assert poly_interpolate(values) == poly_trim(c)
    assert poly_interpolate([0, 0, 0]) == []
    # s(s - 1)/2 is integer-valued without integer coefficients
    with pytest.raises(ValueError):
        poly_interpolate([0, 0, 1])


def _sign_change_count_on_grid(c, lo, hi, steps=4000):
    """Independent oracle: count sign changes of f on a fine rational grid,
    plus exact roots hit by grid points.  Only signs are read, so each
    point takes the scaled value of ``poly_eval_scaled``, checked against
    Fraction Horner in ``test_scaled_evaluation_matches_fraction_horner``."""
    roots = 0
    prev = None
    prev_x = None
    for k in range(steps + 1):
        x = lo + Fraction(k * (hi - lo), steps)
        v = poly_eval_scaled(c, x)
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
        chain = sturm_chain(c)
        ivs = isolate_real_roots(chain)
        # grid oracle over a bound enclosing all roots; a fine grid can
        # only undercount when two roots share a cell, so refine first
        ivs_fine = [_refine_to_width(chain, iv, Fraction(1, 1000))
                    for iv in ivs]
        lo = min((iv.lo for iv in ivs_fine), default=Fraction(-1)) - 1
        hi = max((iv.hi for iv in ivs_fine), default=Fraction(1)) + 1
        grid = _sign_change_count_on_grid(sf, lo, hi)
        assert grid <= len(ivs)
        B = root_bound(sf)
        assert count_roots_halfopen(chain, -B, B) == len(ivs)
        checked += 1
    assert checked > 60


def test_refinement_never_loses_root():
    rng = random.Random(31)
    for _ in range(60):
        deg = rng.randrange(1, 7)
        c = [rng.randint(-8, 8) for _ in range(deg + 1)]
        if not any(c):
            continue
        chain = sturm_chain(c)
        assert chain[0] == squarefree_part(c)
        for iv in isolate_real_roots(chain):
            r = iv
            for _ in range(20):
                r = refine_root(chain, r)
                if r.lo == r.hi:
                    assert poly_eval_fraction(chain[0], r.lo) == 0
                    break
                assert count_roots_halfopen(chain, r.lo, r.hi) == 1


def test_refine_to_width():
    chain = sturm_chain([-2, 0, 1])
    r = _refine_to_width(chain, isolate_real_roots(chain)[1],
                         Fraction(1, 10**9))
    assert r.hi - r.lo <= Fraction(1, 10**9)
    assert (r.lo * r.lo - 2) * (r.hi * r.hi - 2) <= 0


def test_refine_stops_on_exact_dyadic_root():
    # (4x - 1)^2 (x^2 - 2): the chain starts from the squarefree part, and
    # the second bisection of [0, 1] lands on the root 1/4 exactly
    f = [-2, 16, -31, -8, 16]
    chain = sturm_chain(f)
    assert chain[0] == squarefree_part(f) == [2, -8, -1, 4]
    r = refine_root(chain, RatInterval(0, 1))
    assert (r.lo, r.hi) == (0, Fraction(1, 2))
    r = refine_root(chain, r)
    assert r.lo == r.hi == Fraction(1, 4)
    assert poly_eval_fraction(f, r.lo) == 0
    again = refine_root(chain, r)
    assert (again.lo, again.hi) == (r.lo, r.hi)


def test_interval_polynomial_evaluation_sound():
    rng = random.Random(77)
    definite = 0
    for _ in range(200):
        c = [rng.randint(-5, 5) for _ in range(rng.randrange(1, 6))]
        lo = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        box = RatInterval(lo, lo + Fraction(rng.randint(0, 4),
                                            rng.randint(1, 8)))
        sign = horner_sign(c, box)
        # the reference enclosure: interval Horner spelled out endpoint by
        # endpoint, with the same outward-exact product rule
        elo = ehi = Fraction(0)
        for coeff in reversed(poly_trim(c)):
            prods = [a * b for a in (elo, ehi) for b in (box.lo, box.hi)]
            elo, ehi = min(prods) + coeff, max(prods) + coeff
        assert sign == (1 if elo > 0 else -1 if ehi < 0 else None)
        if sign is None:
            continue
        definite += 1
        for _ in range(25):
            x = box.lo + (box.hi - box.lo) * Fraction(rng.randint(0, 32), 32)
            v = poly_eval_fraction(c, x)
            assert elo <= v <= ehi and v * sign > 0
    assert definite > 50
    # a point interval gives the exact sign
    assert horner_sign([-2, 0, 1], RatInterval(3, 3)) == 1
    assert horner_sign([-4, 0, 1], RatInterval(2, 2)) is None
    # a minor restricted to a line can vanish identically: it has no
    # certified sign on any interval
    assert horner_sign([0, 0, 0], RatInterval(-1, 2)) is None
    assert horner_sign([], RatInterval(1, 1)) is None


def _sign(v):
    return (v > 0) - (v < 0)


def _rational_root_poly(rng):
    """An integer polynomial with a few rational roots n/d, each a factor
    d*x - n, times a random integer factor; with its rational roots."""
    c = [rng.randint(-9, 9) or 1 for _ in range(rng.randrange(1, 4))]
    roots = []
    for _ in range(rng.randrange(1, 4)):
        n, d = rng.randint(-12, 12), rng.randint(1, 7)
        roots.append(Fraction(n, d))
        c = [a - b for a, b in zip([0] + [d * x for x in c],
                                   [n * x for x in c] + [0])]
    return c, roots


def test_scaled_evaluation_matches_fraction_horner():
    rng = random.Random(41)
    for _ in range(300):
        c, roots = _rational_root_poly(rng)
        points = roots + [Fraction(rng.randint(-40, 40), rng.randint(1, 50))
                          for _ in range(6)] + [rng.randint(-5, 5)]
        for x in points:
            want = poly_eval_fraction(c, x)
            got = poly_eval_scaled(c, x)
            assert isinstance(got, int)
            assert got == want * Fraction(x).denominator ** (len(c) - 1)
            assert _sign(got) == _sign(want)
        for r in roots:
            assert poly_eval_scaled(c, r) == 0
    assert poly_eval_scaled([], Fraction(1, 3)) == 0 == poly_eval_scaled([], 2)
    # at an integer the scaled value is the value itself
    assert poly_eval_scaled([5, 0, -1], 3) == -4


def test_sturm_counts_and_bisection_match_fraction_oracle():
    rng = random.Random(43)
    for _ in range(80):
        c, roots = _rational_root_poly(rng)
        chain = sturm_chain(c)
        points = roots + [Fraction(rng.randint(-60, 60), rng.randint(1, 30))
                          for _ in range(5)] + [-root_bound(chain[0])]
        for x in points:
            assert (sturm_variations_at(chain, x)
                    == sturm_variations_fraction(chain, x))
        for iv in isolate_real_roots(chain):
            for _ in range(12):
                lo, hi = iv.lo, iv.hi
                iv = refine_root(chain, iv)
                # the bisection rule spelled out in Fraction arithmetic
                if lo == hi:
                    want = (lo, hi)
                else:
                    mid = (lo + hi) / 2
                    at_mid = poly_eval_fraction(chain[0], mid)
                    if at_mid == 0:
                        want = (mid, mid)
                    elif (_sign(poly_eval_fraction(chain[0], lo))
                          != _sign(at_mid)):
                        want = (lo, mid)
                    else:
                        want = (mid, hi)
                assert (iv.lo, iv.hi) == want
        # one interval per root, meeting at most in a non-root endpoint:
        # every rational root is found exactly or kept inside its interval
        ivs = isolate_real_roots(chain)
        assert all(a.hi <= b.lo for a, b in zip(ivs, ivs[1:]))
        for r in roots:
            assert any(iv.lo <= r <= iv.hi for iv in ivs)
    # a point interval stays as it is
    point = RatInterval(Fraction(1, 3), Fraction(1, 3))
    assert refine_root(sturm_chain([-1, 3]), point) is point


def test_isolation_keeps_a_root_left_of_an_exact_midpoint():
    # -5x(3x + 7)(x^2 + 3x - 7): the first bisection of (-52/3, 52/3]
    # lands on the root 0, and the one root left in (-13/3, 0) is -7/3,
    # not 0 again
    chain = sturm_chain([0, 245, 0, -80, -15])
    ivs = isolate_real_roots(chain)
    assert len(ivs) == 4
    assert all(a.hi <= b.lo for a, b in zip(ivs, ivs[1:]))
    assert [(iv.lo, iv.hi) for iv in ivs if iv.lo == iv.hi] == [(0, 0)]
    third = ivs[1]
    assert third.lo < Fraction(-7, 3) < third.hi
    assert count_roots_halfopen(chain, third.lo, third.hi) == 1


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _seeded_poly(rng):
    """An integer polynomial of degree 1 to 8 with repeated factors as
    often as not and a leading coefficient of either sign."""
    c = [rng.randint(-9, 9) for _ in range(rng.randrange(1, 3))] + [
        rng.choice([-1, 1]) * rng.randint(1, 5)]
    while True:
        factor = [rng.randint(-6, 6) for _ in range(rng.randrange(1, 3))]
        factor.append(rng.choice([-3, -2, -1, 1, 2]))
        k = rng.randrange(1, 4)
        if len(c) - 1 + k * (len(factor) - 1) > 8:
            return c
        for _ in range(k):
            c = _poly_mul(c, factor)


def test_integer_chains_match_fraction_reference():
    rng = random.Random(59)
    repeated = negative = 0
    for _ in range(150):
        f, g = _seeded_poly(rng), _seeded_poly(rng)
        sf = squarefree_part(f)
        assert sf == squarefree_part_fraction(f)
        assert sturm_chain(f) == sturm_chain_fraction(f)
        assert poly_gcd(f, g) == poly_gcd_fraction(f, g)
        # a common factor g, with multiplicity
        h, gg = _poly_mul(f, g), _poly_mul(g, g)
        assert poly_gcd(h, gg) == poly_gcd_fraction(h, gg)
        repeated += len(sf) < len(f)
        negative += f[-1] < 0
    assert repeated > 50 and negative > 50
    # the quartic (4x - 1)^2 (x^2 - 2) and a constant
    assert sturm_chain([-2, 16, -31, -8, 16]) == \
        sturm_chain_fraction([-2, 16, -31, -8, 16])
    assert sturm_chain([-6]) == sturm_chain_fraction([-6]) == [[1]]


def test_pseudo_division_identity():
    rng = random.Random(61)
    for _ in range(200):
        f, g = _seeded_poly(rng), _seeded_poly(rng)
        if rng.random() < 0.3:
            f, g = g, g[1:] or [rng.choice([-4, 3])]
        q, r = _pseudo_divmod(f, g)
        assert len(r) < len(g)
        qg = _poly_mul(q, g) if q else []
        lhs = poly_trim([a + b for a, b in
                         zip(qg + [0] * len(f), r + [0] * len(f))])
        # c * f = q * g + r with c a power of |lc g|, so c > 0
        c = Fraction(lhs[-1], f[-1])
        assert c.denominator == 1 and c > 0
        assert c in [abs(g[-1]) ** k for k in range(len(f) + 1)]
        assert lhs == [c * a for a in f]
        # the rational quotient and remainder, scaled by c
        qf, rf = poly_divmod_fraction(f, g)
        assert q == [c * a for a in qf] and r == [c * a for a in rf]
    with pytest.raises(ZeroDivisionError):
        _pseudo_divmod([1, 2], [0])
