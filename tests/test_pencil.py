import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import (cofactor_det, det_poly, gram_matrix_poly, polys_of,
                     reduce_mod, restrict_to_line)
from symmetroid.linalg import det_bareiss, mat_vec, random_unimodular
from symmetroid.pencil import (Pencil, alpha_symbol, parse_pencil_text,
                               rank_le2_minor_ideal, singular_locus_ideal,
                               x_point_from_singular_member)
from symmetroid.polys import MultiPoly, parse_poly, poly_matrix_det
from symmetroid.quadform import (COEFF_ORDER, QuadricForm,
                                 diagonalize_symmetric)

T_NAMES = ["t%d" % i for i in range(5)]

DIAG = [QuadricForm.from_string("x%d^2" % i) for i in range(5)]


def test_universal_gram_examples(thm_pencil):
    m1, = thm_pencil.leading_minors(1)
    assert m1 == parse_poly("2*t1 + 2*t2 + 8*t3 + 2*t4", T_NAMES)
    Pd = Pencil(DIAG)
    det = det_poly(Pd)
    assert det == parse_poly("32*t0*t1*t2*t3*t4", T_NAMES)
    with pytest.raises(ValueError):
        Pencil(DIAG[:4] + [DIAG[0]])
    # Q4 = Q0 + Q1 dependence
    dep = DIAG[:4] + [QuadricForm.from_string("x0^2 + x1^2")]
    with pytest.raises(ValueError):
        Pencil(dep)


def test_det_homogeneous_and_matches_matrix_det(thm_pencil):
    det = det_poly(thm_pencil)
    assert {sum(e) for e in det.terms} == {5}
    rng = random.Random(2)
    for _ in range(100):
        t = [rng.randint(-6, 6) for _ in range(5)]
        if all(x == 0 for x in t):
            continue
        assert det.evaluate(t) == det_bareiss(thm_pencil.gram_at(t))


def test_alpha_symbol_diagonal_pencil():
    Pd = Pencil(DIAG)
    sym = alpha_symbol(Pd)
    a_num, a_den = sym.first
    b_num, b_den = sym.second
    t = [1, 2, 3, 4, 5]
    # (M2/M1^2, M3/(M2 M1)) = (t1/t0, t2/t0) exactly on the diagonal pencil
    assert Fraction(a_num.evaluate(t), a_den.evaluate(t)) == Fraction(2, 1)
    assert Fraction(b_num.evaluate(t), b_den.evaluate(t)) == Fraction(3, 1)


def test_alpha_symbol_needs_basis_change():
    # no generator involves x0^2, so M1 = B00 = 0 identically
    qs = ["x0*x1 + x2*x3", "x0*x2 + x3*x4", "x0*x3 + x1*x4",
          "x0*x4 + x1*x2", "x1*x3 + x2*x4"]
    P = Pencil([QuadricForm.from_string(s) for s in qs])
    assert P.leading_minors(1)[0].is_zero()
    sym = alpha_symbol(P, seed=0)
    assert sym.basis_change is not None
    assert all(not m.is_zero() for m in sym.minors)
    assert sym.witness_point == (4034, 7977, 3598, 5728, 1921)
    assert sym.witness_prime == 10007


@pytest.mark.parametrize("name,point", [
    ("thm_pencil", (9779, 6657, 6235, 3315, 3405)),
    ("q3_pencil", (4627, 6846, 8435, 945, 9326)),
    ("cor_pencil", (4560, 837, 5095, 9807, 7202))])
def test_alpha_symbol_witness_points_pinned(name, point, request):
    sym = alpha_symbol(request.getfixturevalue(name))
    assert sym.basis_change is None
    assert (sym.witness_point, sym.witness_prime) == (point, 10007)


@pytest.mark.parametrize("name", ["thm_pencil", "q3_pencil", "cor_pencil"])
def test_line_minors_match_substituted_minors(name, request):
    # the Bareiss-value interpolation against expanding each minor
    # polynomial over u + s*w, on small and F_p-sized lines, with and
    # without an x-basis change
    P = request.getfixturevalue(name)
    rng = random.Random(name)
    changes = [None] + [random_unimodular(5, rng, size=1) for _ in range(2)]
    for T in changes:
        minors = P.leading_minors(5, T)
        for lo, hi in ((-3, 3), (0, 10006)):
            for _ in range(3):
                u = [rng.randint(lo, hi) for _ in range(5)]
                w = [rng.randint(lo, hi) for _ in range(5)]
                assert P.line_minors(u, w, T) == \
                    [restrict_to_line(m, u, w) for m in minors]


def test_gram_schmidt_minor_identity(thm_pencil):
    # at rational points with all minors nonzero, LDL diagonalisation gives
    # the diagonal (M1, M2/M1, M3/M2, M4/M3)
    rng = random.Random(14)
    minors = thm_pencil.leading_minors(4)
    done = 0
    while done < 50:
        t = [rng.randint(-9, 9) for _ in range(5)]
        vals = [Fraction(m.evaluate(t)) for m in minors]
        if any(v == 0 for v in vals):
            continue
        B = thm_pencil.gram_at(t)
        diag, _ = diagonalize_symmetric(B)
        expect = [vals[0], vals[1] / vals[0], vals[2] / vals[1],
                  vals[3] / vals[2]]
        assert diag[:4] == expect
        done += 1


def test_cramer_kernel_vector_on_H(thm_pencil):
    # (B_{4,0}, -B_{4,1}, B_{4,2}, -B_{4,3}, B_{4,4}) is killed by B(t*)
    # at H-points over F_p
    p = 211
    rng = random.Random(20)
    mat = gram_matrix_poly(thm_pencil)
    # 4x4 minors deleting row 4 and column j
    minors = []
    for j in range(5):
        sub = [[mat[r][c] for c in range(5) if c != j] for r in range(4)]
        minors.append(poly_matrix_det(sub))
    found = 0
    while found < 50:
        a = [rng.randrange(p) for _ in range(5)]
        b = [rng.randrange(p) for _ in range(5)]
        coeffs = [c % p for c in thm_pencil.line_minors(a, b)[4]]
        for s in range(p):
            val = 0
            for c in reversed(coeffs):
                val = (val * s + c) % p
            if val:
                continue
            t = [(ai + s * bi) % p for ai, bi in zip(a, b)]
            if all(x == 0 for x in t):
                continue
            v = [minors[j].evaluate(t) * (-1) ** j % p for j in range(5)]
            if all(x == 0 for x in v):
                break
            B = [[x % p for x in row] for row in thm_pencil.gram_at(t)]
            Bv = [sum(B[i][j] * v[j] for j in range(5)) % p
                  for i in range(5)]
            assert Bv == [0] * 5, t
            found += 1
            break


def test_x_point_construction(thm_pencil):
    xp = x_point_from_singular_member(thm_pencil, (1, 0, 0, 0, 0),
                                      v=(0, 0, 0, 0, 1))
    assert not xp["degenerate"]
    v, w = xp["v"], xp["w"]
    for B in thm_pencil.grams:
        assert sum(wi * x for wi, x in zip(w, mat_vec(B, v))) == 0
    # v not in the kernel is rejected
    with pytest.raises(ValueError):
        x_point_from_singular_member(thm_pencil, (1, 0, 0, 0, 0),
                                     v=(1, 0, 0, 0, 0))
    # automatic kernel vector discovery agrees
    xp2 = x_point_from_singular_member(thm_pencil, (1, 0, 0, 0, 0))
    assert xp2["v"] == [0, 0, 0, 0, 1]


def test_pencil_file_parsing(thm_pencil):
    text = "\n".join(thm_pencil.to_lines())
    P2 = parse_pencil_text(text)
    assert [q.coeffs for q in P2.quadrics] == \
        [q.coeffs for q in thm_pencil.quadrics]
    with pytest.raises(ValueError):
        parse_pencil_text("x0^2\nx1^2\nx2^2\nx3^2")  # four lines
    with pytest.raises(ValueError):
        parse_pencil_text("\n".join(["x0^2"] * 5))  # dependent


def test_leading_minors_match_polynomial_determinants(
        thm_pencil, q3_pencil, cor_pencil):
    # the coefficient tables against the MultiPoly Laplace determinant of
    # each leading block of T^t B(t) T, on the bundled pencils and on
    # seeded random ones, of height 3 (int64 tables) and 10^6 (Python
    # ints in object arrays), without and with a basis change
    rng = random.Random(30)
    pencils = [thm_pencil, q3_pencil, cor_pencil]
    pencils += [_random_pencil(rng, size) for size in (3, 3, 10 ** 6)]
    for P in pencils:
        changes = [None] + [random_unimodular(5, rng, size=1)
                            for _ in range(2)]
        for T in changes:
            mat = gram_matrix_poly(P, T)
            want = [poly_matrix_det([row[:k] for row in mat[:k]])
                    for k in range(1, 6)]
            got = P.leading_minors(5, T)
            assert got == want
            assert all(type(e[0]) is int and type(c) is int
                       for m in got for e, c in m.terms.items())


def test_minor_ideal_shape(thm_pencil):
    ideal = rank_le2_minor_ideal(thm_pencil)
    # the presentation's homogeneity check records each degree
    assert ideal.degrees == [(3,)] * 55


def _random_pencil(rng, size):
    while True:
        try:
            return Pencil([QuadricForm([rng.randint(-size, size)
                                        for _ in range(15)])
                           for _ in range(5)])
        except ValueError:      # dependent quadrics: draw again
            pass


def test_minor_ideal_matches_polynomial_laplace_minors(
        thm_pencil, q3_pencil, cor_pencil):
    # the minors read from coefficient tables are the MultiPoly Laplace
    # minors, generator for generator, on the bundled pencils, seeded
    # random ones and one whose entries take the object-array path
    # (6 (5 c)^3 >= 2^63 from c = max |B_i| = 230,822 on)
    from oracles import rank_le2_minors_by_laplace
    rng = random.Random(29)
    pencils = [thm_pencil, q3_pencil, cor_pencil]
    pencils += [_random_pencil(rng, size) for size in (1, 3, 9, 9, 40)]
    big = _random_pencil(rng, 10 ** 12)
    for P in pencils + [big]:
        ideal = rank_le2_minor_ideal(P)
        assert polys_of(ideal) == rank_le2_minors_by_laplace(P)
        assert {c.dtype for _, c in ideal.generators} == {
            np.dtype(object if P is big else np.int64)}


def test_linear_minors_are_exact_up_to_the_int64_bound():
    # 3! (5 c)^3 < 2^63 for c = max |lin| up to 230,821: the tables are
    # int64 there and Python ints one past it.  With entries +-c both
    # agree with the cofactor expansion of the MultiPoly linear forms
    from itertools import combinations

    from symmetroid.pencil import _linear_minors
    from symmetroid.polys import monomials_of_degree
    rng = np.random.default_rng(3)
    units = [tuple(int(v == w) for w in range(5)) for v in range(5)]
    for c, dtype in ((230821, np.int64), (230822, object)):
        lin = rng.choice([-c, c], size=(5, 5, 5)).astype(object)
        forms = [[MultiPoly(5, dict(zip(units, lin[i, j].tolist())))
                  for j in range(5)] for i in range(5)]
        tables = _linear_minors(lin, 3)
        for R, m in tables.items():
            assert m.dtype == dtype
            if not R:
                continue
            mons = monomials_of_degree(5, len(R))
            for S, row in zip(combinations(range(5), len(R)), m.tolist()):
                want = cofactor_det([[forms[i][j] for j in S] for i in R])
                assert row == [want.terms.get(e, 0) for e in mons], (R, S)
        assert np.abs(tables[(0, 1, 2)].astype(object)).max() > 1 << 56


def _partial(f, j):
    """d f / d v_j of a polynomial over Z."""
    terms = {}
    for e, c in f.terms.items():
        if e[j]:
            d = list(e)
            d[j] -= 1
            terms[tuple(d)] = c * e[j]
    return MultiPoly(f.nvars, terms)


@pytest.fixture
def vandermonde_pencil():
    # diagonal Gram matrices B_i = 2 diag((i+1)^j): a y-column and an
    # x-column of the Jacobian on the same j are parallel, so only the 32
    # minors on complementary column sets survive
    return Pencil([QuadricForm.from_string(" + ".join(
        "%d*x%d^2" % ((i + 1) ** j, j) for j in range(5)))
        for i in range(5)])


@pytest.fixture
def wide_pencil(thm_pencil):
    # thm_example with 1000 x0*x4 added to Q0: 5! (5 c)^5 < 2^63 holds up
    # to c = 476, so past that Gram entry the minors take Python ints
    coeffs = list(thm_pencil.quadrics[0].coeffs)
    coeffs[COEFF_ORDER.index((0, 4))] += 1000
    return Pencil([QuadricForm(coeffs)] + thm_pencil.quadrics[1:])


@pytest.mark.parametrize("name,p", [("thm_pencil", 7), ("q3_pencil", 7),
                                    ("cor_pencil", 11),
                                    ("vandermonde_pencil", 7),
                                    ("wide_pencil", 7)])
def test_singular_locus_minors_match_cofactor_expansion(name, p, request):
    # the block Laplace expansion gives the same generators over Z, in the
    # same order and bidegrees, as one cofactor expansion per minor of the
    # Jacobian of the five bilinear forms, zero minors left out; at the
    # prime p of the regularity proof none of them vanishes
    from itertools import combinations
    P = request.getfixturevalue(name)
    ideal = singular_locus_ideal(P)
    gens = polys_of(ideal)
    forms = gens[:5]
    jac = [[_partial(f, j) for j in range(10)] for f in forms]
    want, bidegrees = [], []
    for cols in combinations(range(10), 5):
        m = cofactor_det([[row[c] for c in cols] for row in jac])
        if not m.is_zero():
            want.append(m)
            k = sum(1 for c in cols if c < 5)
            bidegrees.append((5 - k, k))
    assert len(want) == (32 if name == "vandermonde_pencil" else 252)
    assert gens[5:] == want
    assert ideal.bidegrees == [(1, 1)] * 5 + bidegrees
    assert not any(reduce_mod(m, p).is_zero() for m in want)
    # Python ints past 476: vandermonde_pencil's 2 * 5^4 and wide_pencil
    big = max(abs(x) for B in P.grams for row in B for x in row) > 476
    assert big == (name in ("vandermonde_pencil", "wide_pencil"))
    assert {c.dtype for _, c in ideal.generators} == {
        np.dtype(object if big else np.int64)}


def _regularity_json(p):
    return {
        "prime": p,
        "certified": True,
        "diagonal_avoidance": {
            "degree": 6, "scope": "F_pbar", "prime": p, "full_rank": True,
            "saturated_at_2": False, "divisor_summary": {},
            "method": "macaulay",
            "details": {"columns": 210, "rows": 350}},
        "smoothness": {
            "degree": [4, 3], "scope": "F_pbar", "prime": p,
            "full_rank": True, "saturated_at_2": False,
            "divisor_summary": {}, "method": "macaulay",
            "details": {"columns": 2450, "rows": 7000}},
    }


def test_regularity_certificates_pinned(thm_regularity, q3_regularity,
                                        cor_regularity):
    # the regularity proofs of the three fixtures, field for field; the
    # compressed rank proof must never move a certificate
    assert thm_regularity.as_json() == _regularity_json(7)
    assert q3_regularity.as_json() == _regularity_json(7)
    assert cor_regularity.as_json() == _regularity_json(11)
