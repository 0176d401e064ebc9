import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import coefficient
from symmetroid.polys import (MultiPoly, monomial_ranks, monomials_of_degree,
                              parse_poly, poly_matrix_det)

NAMES = ["t%d" % i for i in range(5)]


def rand_poly(rng, nvars=3, terms=4, deg=3):
    d = {}
    for _ in range(terms):
        e = tuple(rng.randrange(deg + 1) for _ in range(nvars))
        d[e] = rng.randint(-9, 9)
    return MultiPoly(nvars, d)


def test_parse_and_canonical_string():
    p = parse_poly("-t0^2 - 2*t0*t1 + 7*t1^2", NAMES)
    assert coefficient(p, (2, 0, 0, 0, 0)) == -1
    assert coefficient(p, (1, 1, 0, 0, 0)) == -2
    assert coefficient(p, (0, 2, 0, 0, 0)) == 7
    assert p.to_string(NAMES) == "-t0^2 - 2*t0*t1 + 7*t1^2"
    # juxtaposed products and ** exponents parse the same
    q = parse_poly("7t1**2 - t0t0 - 2t0t1", NAMES)
    assert p == q


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_poly("t0 + t9", NAMES)
    with pytest.raises(ValueError):
        parse_poly("t0 +", NAMES)
    with pytest.raises(ValueError):
        parse_poly("(t0)", NAMES)


def test_parse_roundtrip_random():
    rng = random.Random(5)
    for _ in range(100):
        p = rand_poly(rng, nvars=5)
        assert parse_poly(p.to_string(NAMES), NAMES) == p


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
def test_ring_laws(sa, sb, sc):
    rng = random.Random(sa ^ (sb << 1) ^ (sc << 2))
    a, b, c = (rand_poly(rng) for _ in range(3))
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a - a == MultiPoly(3)


def test_polynomials_are_over_z_only():
    # no modulus is accepted; an int factor scales, 0 gives the zero
    # polynomial
    with pytest.raises(TypeError):
        MultiPoly(5, {}, 7)
    with pytest.raises(TypeError):
        parse_poly("t0", NAMES, 7)
    a = parse_poly("2*t0 - 3*t1^2", NAMES)
    assert 3 * a == a * 3 == parse_poly("6*t0 - 9*t1^2", NAMES)
    assert (a * 0).is_zero() and -a == a * -1


def test_evaluation_and_substitution():
    rng = random.Random(9)
    for _ in range(50):
        p = rand_poly(rng, nvars=4)
        pt = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
              for _ in range(4)]
        direct = sum(c * pt[0]**e[0] * pt[1]**e[1] * pt[2]**e[2]
                     * pt[3]**e[3] for e, c in p.terms.items())
        assert p.evaluate(pt) == direct


def test_det_matches_numeric():
    rng = random.Random(3)
    from symmetroid.linalg import det_bareiss
    for _ in range(20):
        mat = [[rand_poly(rng, nvars=2, terms=2, deg=1) for _ in range(3)]
               for _ in range(3)]
        d = poly_matrix_det(mat)
        pt = [rng.randint(-4, 4), rng.randint(-4, 4)]
        nums = [[e.evaluate(pt) for e in row] for row in mat]
        assert d.evaluate(pt) == det_bareiss(nums)


def test_det_matches_sympy():
    # an independent implementation, where it is installed: no declared
    # dependency.  Entries become elements of sympy's ZZ[t0, t1, t2], dicts
    # {exponent tuple: coefficient} as MultiPoly terms are
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    ring = sympy.ZZ[sympy.symbols("t0:3")]
    rng = random.Random(31)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            mat = [[rand_poly(rng, nvars=3, terms=3, deg=2) for _ in range(n)]
                   for _ in range(n)]
            want = DomainMatrix([[ring.ring.from_dict(f.terms) for f in row]
                                 for row in mat], (n, n), ring).det()
            assert poly_matrix_det(mat).terms == {
                e: int(c) for e, c in want.items()}, n


def test_monomials_of_degree_count_and_order():
    ms = monomials_of_degree(3, 4)
    assert len(ms) == 15  # C(4+2, 2)
    assert ms[0] == (4, 0, 0)
    assert ms[-1] == (0, 0, 4)
    assert len(set(ms)) == len(ms)


def test_monomial_ranks_match_enumeration():
    for nvars in (1, 2, 3, 5, 10):
        for d in range(6):
            ms = monomials_of_degree(nvars, d)
            ranks = monomial_ranks([list(m) for m in ms])
            assert ranks.tolist() == list(range(len(ms)))
