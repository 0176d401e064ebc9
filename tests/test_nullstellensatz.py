import itertools
import random
import time
from math import comb, prod

import numpy as np
import pytest

from oracles import polys_of, variable
from symmetroid.gf import GF, projective_points
from symmetroid.linalg import (_echelon_mod_p, _int_dtype, fp_pivot_rows,
                               fp_rank)
from symmetroid.nullstellensatz import (HomIdealPresentation, Inconclusive,
                                        empty_all_primes,
                                        empty_bihomogeneous,
                                        empty_over_fpbar)
from symmetroid.pencil import (Pencil, diagonal_avoidance_ideal,
                               rank_le2_minor_ideal, singular_locus_ideal)
from symmetroid.polys import MultiPoly, monomials_of_degree, parse_poly
from symmetroid.quadform import QuadricForm


def _ideal(strings, nvars=5):
    names = ["t%d" % i for i in range(nvars)]
    return HomIdealPresentation.from_polys(
        nvars, [parse_poly(s, names) for s in strings])


def test_irrelevant_ideal_certificates():
    I = _ideal(["t0", "t1", "t2", "t3", "t4"])
    cert = empty_all_primes(I, d_max=3)
    assert cert and cert.degree == 1
    assert cert.holds_at(2) and cert.holds_at(97)
    certp = empty_over_fpbar(I, 3, 5)
    assert certp and certp.degree == 1 and certp.prime == 5


def test_nonempty_loci_stay_inconclusive():
    I = _ideal(["t0*t1"])
    assert isinstance(empty_all_primes(I, d_max=6), Inconclusive)
    assert isinstance(empty_over_fpbar(I, 6, 7), Inconclusive)


def test_saturation_strips_only_two_content():
    I2 = _ideal(["2*t0"])
    assert isinstance(empty_all_primes(I2, saturate_at_2=True, d_max=4),
                      Inconclusive)
    # but the 2-content itself is forgiven: 2*(irrelevant ideal)
    Isat = _ideal(["2*t0", "2*t1", "2*t2", "2*t3", "2*t4"])
    cert = empty_all_primes(Isat, saturate_at_2=True, d_max=3)
    assert cert and cert.degree == 1
    # ... but only away from 2: the ideal is zero mod 2
    assert cert.method == "minor-gcd"
    assert cert.divisor_summary["determinant_two_valuations"] == [5]
    assert cert.divisor_summary["rank_mod_2"] == 0
    assert cert.holds_at(2) is False and cert.holds_at(3)
    # without saturation the prime 2 stays uncovered
    cert_no = empty_all_primes(Isat, saturate_at_2=False, d_max=3)
    assert isinstance(cert_no, Inconclusive) or not cert_no.holds_at(2)


def test_factoring_budget_ends_in_inconclusive(monkeypatch):
    # a product of two ~61-bit primes is beyond the rho step budget; the
    # degree ladder must give up instead of factoring forever, and spend
    # that budget once: rho is seeded by its argument, so a cofactor it
    # gave up on at one degree is not tried again at the next
    from symmetroid import nullstellensatz
    from symmetroid.linalg import is_prime
    from symmetroid.nullstellensatz import _factorize
    rho = []
    real = nullstellensatz._pollard_rho

    def spy(n):
        rho.append(n)
        return real(n)
    monkeypatch.setattr(nullstellensatz, "_pollard_rho", spy)
    q1 = (1 << 61) - 1
    q2 = (1 << 60) + 1
    while not is_prime(q2):
        q2 += 2
    t0 = time.perf_counter()
    gave_up = set()
    assert _factorize(q1 * q2, gave_up) is None and gave_up == {q1 * q2}
    assert _factorize(5 * q1 * q2, gave_up) is None and rho == [q1 * q2]
    assert _factorize(3 * 1000003 * 1000033, set()) == [3, 1000003, 1000033]
    I = _ideal(["t0", "t1", "t2", "t3", "%d*t4" % (q1 * q2)])
    rho.clear()
    res = empty_all_primes(I, d_max=3)
    assert rho == [q1 * q2]
    assert isinstance(res, Inconclusive)
    # at every degree the gcd of the subset determinants is N: the reason
    # must say factoring gave up, not that the lattice is not full
    assert res.reason == ("factoring the index evidence ran out of its "
                          "Pollard-rho budget at degree 3")
    assert time.perf_counter() - t0 < 60


def test_small_prime_of_unfactored_evidence_is_named():
    # 3 N with N the semiprime above, past the rho budget: the gcd of the
    # first two subset determinants at degree 1 is 3 N, the block loses
    # rank mod 3 and the ladder stops on the common zero (0:0:0:0:1)
    # mod 3 before N has to be factored (factoring 3 N would give up)
    from symmetroid.linalg import is_prime
    q2 = (1 << 60) + 1
    while not is_prime(q2):
        q2 += 2
    N = ((1 << 61) - 1) * q2
    res = empty_all_primes(_ideal(["t0", "t1", "t2", "t3",
                                   "%d*t4" % (3 * N)]), d_max=4)
    assert isinstance(res, Inconclusive)
    assert res.witness == {"prime": 3, "point": [0, 0, 0, 0, 1]}
    assert res.reason == ("the prime 3 is not cleared at degree 1 and the "
                          "generators vanish at (0, 0, 0, 0, 1) mod 3, so "
                          "no degree clears it")


def test_determinant_loop_stops_at_a_proven_uncleared_prime(
        q3_pencil, thm_pencil, monkeypatch):
    # prop_q3 at degree 3: 3 divides the gcd of the first two subset
    # determinants and the block loses rank mod 3, so the six others are
    # not taken; thm_example still takes its three
    from symmetroid import nullstellensatz
    real = nullstellensatz.det_exact_crt
    calls = []

    def spy(M):
        calls.append(len(M))
        return real(M)
    monkeypatch.setattr(nullstellensatz, "det_exact_crt", spy)
    rows, ncols = _degree_rows(rank_le2_minor_ideal(q3_pencil), 3)
    with pytest.raises(nullstellensatz._PrimeNotCleared) as exc:
        nullstellensatz._lattice_is_full_after_stripping(rows, ncols, True,
                                                         set())
    assert exc.value.args == (3,) and calls == [35, 35]
    calls.clear()
    cert = empty_all_primes(rank_le2_minor_ideal(thm_pencil), d_max=12)
    assert calls == [35] * 3
    assert cert.divisor_summary["subset_determinant_count"] == 3


def test_coefficients_past_int64_stay_exact():
    # N * t4 with N in [2^63, 2^64): as a float, 2^63 + 1 rounds to 2^63,
    # whose index the 2-saturation forgives; the exact N has the odd prime
    # factor 3, so only 2^63 itself may be certified, and the others end at
    # degree 1 on the common zero (0:0:0:0:1) mod 3
    for N in (2 ** 63 + 1, -(2 ** 63 + 1), 2 ** 64 - 1):
        res = empty_all_primes(_ideal(["t0", "t1", "t2", "t3",
                                       "%d*t4" % N]), d_max=3)
        assert isinstance(res, Inconclusive), N
        assert res.witness == {"prime": 3, "point": [0, 0, 0, 0, 1]}, N
        assert "not cleared at degree 1" in res.reason, N
    cert = empty_all_primes(_ideal(["t0", "t1", "t2", "t3",
                                    "%d*t4" % 2 ** 63]), d_max=3)
    assert cert.degree == 1 and cert.method == "minor-gcd"
    assert cert.divisor_summary["determinant_two_valuations"] == [63]
    assert cert.divisor_summary["rank_mod_2"] == 4
    assert cert.holds_at(3) and not cert.holds_at(2)


def _same_rows(got, want, ncols):
    # the column indices take the narrowest type that holds every column
    # of the block, and their values are the oracle's int64 ones
    assert got.indices.dtype == _int_dtype(ncols - 1)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.array_equal(a, b), name
        assert name == "indices" or a.dtype == b.dtype, name


def _degree_rows(ideal, d):
    """The degree-d Macaulay rows of the ideal's generators and their
    column count, the number of degree-d monomials."""
    from symmetroid.nullstellensatz import _macaulay_rows, _ranked_terms
    sizes = (ideal.nvars,)
    return (_macaulay_rows(_ranked_terms(ideal.generators, sizes),
                           ideal.degrees, sizes, (d,)),
            len(monomials_of_degree(ideal.nvars, d)))


def test_degree_blocks_match_exponent_sums():
    # seeded homogeneous generators in 3-6 variables plus a quadric with a
    # coefficient past int64: the rows read from product tables equal the
    # direct construction field for field, and the big coefficient stays
    # exact in an object array from the degree where that quadric has
    # multipliers
    from oracles import macaulay_rows_by_exponent_sums

    from symmetroid.nullstellensatz import _macaulay_rows, _ranked_terms
    rng = random.Random(23)
    big = 2 ** 64 + 3
    for nvars in range(3, 7):
        gens = []
        for _ in range(4):
            mons = monomials_of_degree(nvars, rng.randint(1, 3))
            gens.append(MultiPoly(nvars, {
                m: rng.choice((-2, -1, 1, 3)) * rng.randint(1, 9)
                for m in rng.sample(mons, min(len(mons), rng.randint(1, 6)))}))
        gens.append(MultiPoly(nvars, {(2,) + (0,) * (nvars - 1): big,
                                      (1,) + (0,) * (nvars - 2) + (1,): -5}))
        ideal = HomIdealPresentation.from_polys(nvars, gens)
        for d in range(1, 5):
            args = (ideal.degrees, (nvars,), (d,))
            rows = _macaulay_rows(_ranked_terms(ideal.generators, (nvars,)),
                                  *args)
            _same_rows(rows,
                       macaulay_rows_by_exponent_sums(ideal.generators, *args),
                       len(monomials_of_degree(nvars, d)))
            assert rows.data.dtype == (object if d >= 2 else np.int64)
            assert (big in rows.data.tolist()) == (d >= 2)


def test_bidegree_blocks_match_exponent_sums(q3_pencil):
    # every bidegree up to (4, 4) of the regularity ideal, whose rows take
    # an x-table and a y-table
    from oracles import macaulay_rows_by_exponent_sums

    from symmetroid.nullstellensatz import (_macaulay_rows, _monomial_count,
                                            _ranked_terms)
    ideal = singular_locus_ideal(q3_pencil)
    ranked = _ranked_terms(ideal.generators, (5, 5))
    for a in range(1, 5):
        for b in range(1, 5):
            args = (ideal.bidegrees, (5, 5), (a, b))
            _same_rows(_macaulay_rows(ranked, *args),
                       macaulay_rows_by_exponent_sums(ideal.generators, *args),
                       _monomial_count((a, b), (5, 5)))


def test_v3_certificate_on_fixture(thm_pencil):
    cert = empty_all_primes(rank_le2_minor_ideal(thm_pencil),
                            saturate_at_2=True, d_max=12)
    assert cert and cert.scope == "all_primes"
    # field for field: the row bases chosen at the screening primes fix
    # which subset determinants are taken
    assert cert.as_json() == {
        "degree": 3, "scope": "all_primes", "prime": None,
        "full_rank": True, "saturated_at_2": True,
        "divisor_summary": {"subset_determinant_count": 3,
                            "determinant_two_valuations": [18, 16, 19],
                            "rank_mod_2": 20, "bad_primes": [],
                            "index_evidence_gcd": 1},
        "method": "minor-gcd", "details": {"columns": 35, "rows": 55}}
    # monotonicity: the span stays full one degree higher
    from symmetroid.nullstellensatz import _lattice_is_full_after_stripping
    rows, ncols = _degree_rows(rank_le2_minor_ideal(thm_pencil), 4)
    assert _lattice_is_full_after_stripping(rows, ncols, True,
                                            set()) is not None


def test_v3_verdict_of_prop_q3_pinned(q3_pencil):
    # prop_q3 has F_3-points on V3, so no degree clears the prime 3: the
    # first degree that names 3 ends the ladder with the first such point
    out = empty_all_primes(rank_le2_minor_ideal(q3_pencil), d_max=5)
    assert isinstance(out, Inconclusive)
    assert out.reason == ("the prime 3 is not cleared at degree 3 and the "
                          "generators vanish at (1, 0, 0, 0, 0) mod 3, so "
                          "no degree clears it")
    assert out.witness == {"prime": 3, "point": [1, 0, 0, 0, 0]}
    assert out.as_json()["witness"] == out.witness


@pytest.mark.parametrize("fixture, point", [
    ("q3_pencil", [1, 0, 0, 0, 0]), ("cor_pencil", [1, 2, 1, 0, 1])])
def test_v3_screen_ends_the_ladder_at_default_dmax(fixture, point, request):
    ideal = rank_le2_minor_ideal(request.getfixturevalue(fixture))
    t0 = time.perf_counter()
    out = empty_all_primes(ideal, d_max=12)
    assert time.perf_counter() - t0 < 1
    assert isinstance(out, Inconclusive) and out.degree_cap == 12
    assert out.witness == {"prime": 3, "point": point}
    # the witness is a common zero, checked by plain polynomial evaluation
    assert all(g.evaluate(point) % 3 == 0 for g in polys_of(ideal))


def test_screen_needs_a_point_over_the_prime_field(monkeypatch):
    # the ideal is empty over Q from degree 6 on and 3 divides every
    # lattice index, but mod 3 the zeros need t0^2 = -t1^2, which has
    # solutions only over F_9: the screen at degree 6 finds nothing and
    # the ladder runs on to d_max
    from symmetroid import nullstellensatz
    real = nullstellensatz._common_zero_mod
    calls = []

    def spy(terms, nvars, q):
        calls.append(q)
        return real(terms, nvars, q)
    monkeypatch.setattr(nullstellensatz, "_common_zero_mod", spy)
    out = empty_all_primes(_ideal(["t0^2 + t1^2", "3*t0*t1", "t2^2",
                                   "t3^2", "t4^2"]), d_max=7)
    assert isinstance(out, Inconclusive) and out.witness is None
    assert out.reason == "lattice not full (after stripping) at degree 7"
    assert calls == [3]
    assert "witness" not in out.as_json()


def test_screen_skips_primes_past_the_point_cap():
    from symmetroid.nullstellensatz import _POINT_CAP, _common_zero_mod
    # (0:0:0:0:1) is a common zero mod q; P^4(F_7) has 2,801 points
    out = empty_all_primes(_ideal(["t0", "t1", "t2", "t3", "7*t4"]),
                           d_max=4)
    assert out.witness == {"prime": 7, "point": [0, 0, 0, 0, 1]}
    # P^4(F_1009) has ~10^12 points: not screened, the ladder runs on
    assert (1009 ** 5 - 1) // 1008 > _POINT_CAP
    ideal = _ideal(["t0", "t1", "t2", "t3", "1009*t4"])
    assert _common_zero_mod(ideal.generators, 5, 1009) is None
    out = empty_all_primes(ideal, d_max=4)
    assert out.witness is None
    assert out.reason == "lattice not full (after stripping) at degree 4"
    # P^1(F_q) just under the cap is screened
    q = 99991
    assert q + 1 <= _POINT_CAP
    assert _common_zero_mod(_ideal(["t0", "%d*t1" % q], 2).generators, 2,
                            q) == (0, 1)


@pytest.mark.parametrize("q", [3, 5])
def test_common_zero_matches_bruteforce_enumeration(q, monkeypatch):
    from oracles import first_common_zero_bruteforce
    from symmetroid import nullstellensatz
    rng = random.Random(q)
    ideals = [
        # no zero anywhere: the irrelevant ideal
        (["t0", "t1", "t2", "t3", "t4"], 5),
        # the only zero is the last point (0:0:0:0:1)
        (["t0", "t1", "t2", "t3", "%d*t4" % q], 5),
        # zeros where t0^2 = -t1^2: none over F_3, (1:2:0:0:0) over F_5
        (["t0^2 + t1^2", "t2", "t3", "t4"], 5),
        # cubics through (1:0:0:0:0), and conics through (1:1:1)
        (["t0*t1*t2 - t3^3", "t1^2*t4 + 2*t0*t3^2", "t2^3 - t4^3 + t0*t4^2"],
         5),
        (["t0^2 - t1*t2", "t1^2 - t0*t2"], 3),
    ]
    # dense random quadrics in P^3: one, two or three of them
    quad = ["t%d*t%d" % (i, j) for i in range(4) for j in range(i, 4)]
    for _ in range(8):
        ideals.append(([" + ".join("%d*%s" % (rng.randint(-4, 4), m)
                                   for m in quad)
                        for _ in range(rng.randrange(1, 4))], 4))
    for gens, nvars in ideals:
        ideal = _ideal(gens, nvars)
        terms = ideal.generators
        want = first_common_zero_bruteforce(polys_of(ideal), nvars, q)
        got = nullstellensatz._common_zero_mod(terms, nvars, q)
        assert got == want, (gens, q)
        # term values a few at a time give the same point
        monkeypatch.setattr(nullstellensatz, "_GATHER_CELLS", 7)
        assert nullstellensatz._common_zero_mod(terms, nvars, q) == want
        monkeypatch.undo()
    assert nullstellensatz._common_zero_mod(_ideal(
        ["t0", "t1", "t2", "t3", "t4"]).generators, 5, q) is None


def test_pivot_rows_of_macaulay_blocks_match_oracle(q3_pencil):
    # the row bases the all-primes test takes determinants of, against
    # the pure Python sparse elimination, at the screening primes and at
    # the prime 3 where the blocks lose rank
    from oracles import pivot_rows_by_dicts

    from symmetroid.linalg import fp_pivot_rows
    ideal = rank_le2_minor_ideal(q3_pencil)
    for d in (3, 4, 5):
        block, ncols = _degree_rows(ideal, d)
        bounds = block.indptr.tolist()
        dicts = [dict(zip(block.indices[lo:hi].tolist(),
                          block.data[lo:hi].tolist()))
                 for lo, hi in zip(bounds, bounds[1:])]
        for p in (1000003, 999983, 1000033, 3):
            want = pivot_rows_by_dicts(dicts, p)
            assert fp_pivot_rows(block, ncols, p) == (want, len(want))


def test_v3_inconclusive_with_rank2_member():
    qs = ["x0*x1", "x1^2 + x2^2", "x2*x3 + x4^2", "x3^2 + x0*x2",
          "x4*x0 + x1*x3"]
    P = Pencil([QuadricForm.from_string(s) for s in qs])
    out = empty_all_primes(rank_le2_minor_ideal(P), d_max=5)
    assert isinstance(out, Inconclusive)
    assert out.as_json()["inconclusive"]


def test_soundness_against_search():
    # certified F_pbar emptiness means no zeros over F_p or F_{p^2}
    qs = ["x0^2 + x1*x2", "x1^2 + x0*x3", "x2^2 + x3*x4", "x3^2 + x0*x4",
          "x4^2 + x1*x3"]
    P = Pencil([QuadricForm.from_string(s) for s in qs])
    for p, q2 in ((2, 4), (3, 9)):
        I = diagonal_avoidance_ideal(P)
        cert = empty_over_fpbar(I, 8, p)
        if not cert:
            continue
        for q in (p, q2):
            gf = GF(q)
            for x in projective_points(q).tolist():
                vals = [  # evaluate the integer quadrics via gf arithmetic
                    _eval_gf_poly(Q, x, gf) for Q in P.quadrics]
                assert any(v != 0 for v in vals), (q, x)


def _eval_gf_poly(Q, x, gf):
    total = 0
    from symmetroid.quadform import COEFF_ORDER
    for (i, j), c in zip(COEFF_ORDER, Q.coeffs):
        total = gf.add(total, gf.mul(c % gf.p, gf.mul(x[i], x[j])))
    return total


def test_z_vs_fp_compatibility_random():
    # all-primes certificate at degree d implies each F_pbar certificate
    rng = random.Random(42)
    names = ["t%d" % i for i in range(3)]
    agree = 0
    for _ in range(50):
        gens = []
        for _ in range(rng.randrange(3, 6)):
            terms = {}
            for _ in range(3):
                e = [0, 0, 0]
                for _ in range(2):
                    e[rng.randrange(3)] += 1
                terms[tuple(e)] = rng.randint(-4, 4)
            gens.append(MultiPoly(3, terms))
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        I = HomIdealPresentation.from_polys(3, gens)
        cert = empty_all_primes(I, saturate_at_2=True, d_max=6)
        if isinstance(cert, Inconclusive):
            continue
        for p in (3, 5, 7):
            certp = empty_over_fpbar(I, 8, p)
            assert certp, (p, [g.to_string() for g in gens])
        agree += 1
    assert agree >= 5


def test_bihomogeneous_trivial_cases(thm_pencil):
    # (x0..x4) in the x-block: empty at once
    gens = [variable(10, i) for i in range(5)]
    I = HomIdealPresentation.from_polys(10, gens, bidegrees=[(1, 0)] * 5,
                                        nx=5, ny=5)
    cert = empty_bihomogeneous(I, (2, 2), 5)
    assert cert
    # the five bilinear forms alone cut out a nonempty threefold
    full = singular_locus_ideal(thm_pencil)
    forms_only = HomIdealPresentation(
        10, full.generators[:5], full.bidegrees[:5], 5, 5)
    out = empty_bihomogeneous(forms_only, (2, 2), 5)
    assert isinstance(out, Inconclusive)


def test_bihomogeneous_keeps_to_both_caps():
    # every bidegree-(2, 2) monomial in (x0, x1; y0, y1): the first full
    # span is at (2, 2), which a cap of (2, 1) must not try
    mons = [(a, 2 - a, b, 2 - b) for a in range(3) for b in range(3)]
    I = HomIdealPresentation.from_polys(
        4, [MultiPoly.monomial(4, e) for e in mons],
        bidegrees=[(2, 2)] * len(mons), nx=2, ny=2)
    cert = empty_bihomogeneous(I, (2, 2), 5)
    assert cert and cert.degree == (2, 2)
    out = empty_bihomogeneous(I, (2, 1), 5)
    assert isinstance(out, Inconclusive)
    assert "up to (2, 1)" in out.reason


NAMES4 = ["x0", "x1", "x2", "x3"]


def test_bidegree_labels_are_checked():
    # over F_3 in P^1 x P^1, ((0:1), (1:0)) is a common zero of x0 and
    # x2*x3 + 2*x3^2; labelled (0, 1) and (0, 2) they once got a
    # certificate at (2, 2)
    gens = [parse_poly(s, NAMES4) for s in ("x0", "x2*x3 + 2*x3^2")]
    present = HomIdealPresentation.from_polys
    with pytest.raises(ValueError, match="not of bidegree"):
        present(4, gens, bidegrees=[(0, 1), (0, 2)], nx=2, ny=2)
    I = present(4, gens, bidegrees=[(1, 0), (0, 2)], nx=2, ny=2)
    assert isinstance(empty_bihomogeneous(I, (2, 2), 3), Inconclusive)
    with pytest.raises(ValueError, match="one bidegree per generator"):
        present(4, gens, bidegrees=[(1, 0)], nx=2, ny=2)
    with pytest.raises(ValueError, match="nx \\+ ny"):
        present(4, gens, bidegrees=[(1, 0), (0, 2)], nx=2, ny=3)
    with pytest.raises(ValueError, match="needs bidegrees"):
        empty_bihomogeneous(present(4, gens), (2, 2), 3)
    with pytest.raises(ValueError, match="must be homogeneous"):
        present(4, gens + [parse_poly("x0 + x1^2", NAMES4)])
    with pytest.raises(ValueError, match="wrong ring"):
        present(5, gens)
    # the first generator that fails decides the error
    x0 = (np.array([[1, 0, 0, 0]]), np.array([1]))
    inhom = (np.array([[1, 0, 0, 0], [0, 2, 0, 0]]), np.array([1, 1]))
    wrong = (np.zeros((1, 5), dtype=np.int64), np.array([1]))
    with pytest.raises(ValueError, match="must be homogeneous"):
        HomIdealPresentation(4, [x0, inhom, wrong])
    with pytest.raises(ValueError, match="wrong ring"):
        HomIdealPresentation(4, [x0, wrong, inhom])
    with pytest.raises(ValueError,
                       match=r"generator 1 is not of bidegree \(0, 1\)"):
        HomIdealPresentation(4, [x0, x0, inhom, wrong],
                             [(1, 0), (0, 1), (1, 0), (1, 0)], 2, 2)
    with pytest.raises(ValueError, match="wrong ring"):
        HomIdealPresentation(4, [x0, wrong, x0], [(1, 0), (1, 0), (0, 1)],
                             2, 2)


def test_regularity_diagonal_failure_detected():
    # a common zero of all five quadrics breaks diagonal avoidance
    qs = ["x0^2", "x0*x1", "x0*x2", "x0*x3 + x1^2", "x0*x4 + x2^2"]
    # all vanish at (0:0:0:0:1)
    P = Pencil([QuadricForm.from_string(s) for s in qs])
    from symmetroid.pencil import regularity_certificate
    cert = regularity_certificate(P, 7)
    assert not cert.certified
    assert isinstance(cert.diagonal_avoidance, Inconclusive)


# ---------------------------------------------------------------------------
# the ladder's seeds: rows derived from the failed rungs below


def _random_form(rng, blocks, p):
    """A random form over F_p whose monomials are the products of one
    monomial from each list of ``blocks``, about half of them present."""
    terms = {}
    for parts in itertools.product(*blocks):
        if rng.random() < 0.5:
            terms[sum(parts, ())] = rng.randrange(1, p)
    if not terms:
        terms[sum((b[0] for b in blocks), ())] = 1
    return MultiPoly(sum(len(b[0]) for b in blocks), terms)


def _seeded_ladders():
    """Seeded ideals over F_3, F_5 and F_7 with the call that runs their
    ladder: four or three forms in P^3, quadrics and at most one cubic (up
    to degree 6), and six or four forms of bidegree (1, 1), (2, 1) or
    (1, 2) in P^2 x P^2 (up to (4, 3)); the fewer forms have a common
    zero."""
    rng = random.Random(2024)
    out = []
    for p in (3, 5, 7):
        for k in range(4):
            degrees = ([2, 2, 2, 2], [2, 2, 2], [2, 2, 2, 3], [2, 2, 3])[k]
            gens = [_random_form(rng, [monomials_of_degree(4, d)], p)
                    for d in degrees]
            out.append((HomIdealPresentation.from_polys(4, gens), p,
                        lambda I, p: empty_over_fpbar(I, 6, p)))
        for k in range(4):
            bidegrees = [rng.choice(((1, 1), (2, 1), (1, 2)))
                         for _ in range(6 - 2 * (k % 2))]
            gens = [_random_form(rng, [monomials_of_degree(3, a),
                                       monomials_of_degree(3, b)], p)
                    for a, b in bidegrees]
            out.append((HomIdealPresentation.from_polys(
                6, gens, bidegrees=bidegrees, nx=3, ny=3), p,
                        lambda I, p: empty_bihomogeneous(I, (4, 3), p)))
    return out


def _reference_ladder(I, p):
    """The first rung of the ideal's ladder whose Macaulay block alone has
    full rank mod p by ``fp_pivot_rows``, as (multidegree, columns, rows),
    or None."""
    from symmetroid.nullstellensatz import _macaulay_rows, _ranked_terms
    if I.bidegrees is None:
        sizes = (I.nvars,)
        ladder = [(d,) for d in range(max(I.degrees)[0], 7)]
    else:
        sizes = (I.nx, I.ny)
        ladder = sorted(((a, b) for a in range(1, 5)
                         for b in range(1, min(a, 3) + 1)),
                        key=lambda ab: comb(I.nx + ab[0] - 1, ab[0])
                        * comb(I.ny + ab[1] - 1, ab[1]))
    ranked = _ranked_terms(I.generators, sizes)
    for top in ladder:
        rows = _macaulay_rows(ranked, I.degrees, sizes, top)
        ncols = prod(comb(d + s - 1, s - 1) for d, s in zip(top, sizes))
        if len(rows) >= ncols and fp_pivot_rows(rows, ncols, p)[1] == ncols:
            return top, ncols, len(rows)
    return None


def _spy_seeds(monkeypatch):
    """Put every rung on the blocked path and record (sizes, top, seed)
    for every seed the ladder derives."""
    from symmetroid import linalg, nullstellensatz
    monkeypatch.setattr(linalg, "_BLOCKED_MIN", 4)
    seen = []
    derive = nullstellensatz._derived_rows

    def spy(failed, sizes, top):
        seed = derive(failed, sizes, top)
        if seed is not None:
            seen.append((sizes, top, seed))
        return seed

    monkeypatch.setattr(nullstellensatz, "_derived_rows", spy)
    return seen


def test_seeded_ladder_matches_blockwise_ranks(monkeypatch):
    # the seeded ladder stops at the rung where the Macaulay block alone
    # has full rank, or gives up where it never does
    seen = _spy_seeds(monkeypatch)
    verdicts = set()
    for I, p, run in _seeded_ladders():
        seen.clear()
        got = run(I, p)
        want = _reference_ladder(I, p)
        if want is None:
            assert isinstance(got, Inconclusive), (p, got.as_json())
        else:
            top, ncols, nrows = want
            assert got.degree == (top if len(top) > 1 else top[0])
            assert got.details == {"columns": ncols, "rows": nrows}
        verdicts.add((want is None, len(seen) > 0))
    # certificates and failures both come after seeded rungs
    assert verdicts >= {(True, True), (False, True)}


def _dense_block(I, sizes, top, p):
    from symmetroid.nullstellensatz import _macaulay_rows, _ranked_terms
    rows = _macaulay_rows(_ranked_terms(I.generators, sizes), I.degrees,
                          sizes, top)
    ncols = prod(comb(d + s - 1, s - 1) for d, s in zip(top, sizes))
    return rows.toarray(ncols).astype(np.int64) % p


def _in_span(A, rows, p):
    return fp_rank(np.vstack([A, rows]), p) == fp_rank(A, p)


def test_derived_rows_lie_in_the_span_of_their_rung(monkeypatch):
    # every derived row leaves the rank of its rung's Macaulay block mod p
    # unchanged, and ends at the column it was derived for; changing one
    # residue of one derived row, at a column whose unit vector is outside
    # the span, is caught
    seen = _spy_seeds(monkeypatch)
    mutated = 0
    for I, p, run in _seeded_ladders():
        seen.clear()
        run(I, p)
        for sizes, top, seed in seen:
            A = _dense_block(I, sizes, top, p)
            ncols = A.shape[1]
            D = seed.toarray(ncols).astype(np.int64) % p
            tails = ncols - 1 - (D[:, ::-1] != 0).argmax(axis=1)
            assert (D.any(axis=1)).all()
            assert len(set(tails.tolist())) == len(D)
            assert _in_span(A, D, p)
            # a unit vector is outside the span where a kernel vector of
            # the block is nonzero: the free columns of its reduced form
            R = A.copy()
            pivots = _echelon_mod_p(R, p, reduced=True)
            free = np.setdiff1d(np.arange(ncols), pivots)
            if free.size:
                i = mutated % len(D)
                D[i, free[0]] = (D[i, free[0]] + 1) % p
                assert not _in_span(A, D, p)
                mutated += 1
    assert mutated >= 5
