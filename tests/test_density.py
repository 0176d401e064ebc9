import io
import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import b_of_p_counting
from symmetroid.density import (b_of_p, certify_p2b_decreasing, census_bp,
                                gaussian_count, monte_carlo_density,
                                pointless_quadric_count, primes_below,
                                product_lower_bound, sp_member)
from symmetroid.pencil import Pencil
from symmetroid.quadform import QuadricForm


def test_p2b_certificate_refuses_what_it_cannot_prove(monkeypatch):
    from symmetroid import density
    # an extra n^11 term makes f(n) ~ n/2 grow: D(m + 3) has a negative
    # coefficient, and the tail bound must refuse to run
    monkeypatch.setattr(density, "_F_NUM", density._F_NUM + [1])
    assert certify_p2b_decreasing() is False
    with pytest.raises(AssertionError, match="monotonicity"):
        product_lower_bound(100)
    # a doubled denominator keeps f decreasing but drops it to 1/4: E fails
    monkeypatch.undo()
    monkeypatch.setattr(density, "_F_DEN", [2 * c for c in density._F_DEN])
    assert certify_p2b_decreasing() is False


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


def test_prime_window_refused_before_allocation(thm_pencil, monkeypatch):
    # 1009 is the first prime past the scans' desk-scale cap; the refusal
    # must come before any point table or Gram stack is built
    from symmetroid import density

    def allocates(*args, **kwargs):
        raise AssertionError("allocated before refusing")

    monkeypatch.setattr(density, "_projective_points", allocates)
    monkeypatch.setattr(density, "_gram_stack", allocates)
    assert density._MAX_PRIME < 1009
    with pytest.raises(ValueError, match="largest prime"):
        sp_member(thm_pencil, 1009)
    with pytest.raises(ValueError, match="largest prime"):
        monte_carlo_density(10, 1009, 1, seed=0)


def _plane_kernel_dims(P, p):
    """dim ker M(x) mod p for every x in P(<e0, e1, e2>)(F_p), by brute
    force on the pencil's Gram matrices."""
    from symmetroid.density import _kernel_mod_p, _projective_points
    dims = []
    for x in _projective_points(p, 3).tolist():
        M = [[sum(B[r][c] * x[c] for c in range(3)) % p for B in P.grams]
             for r in range(5)]
        dims.append(len(_kernel_mod_p(np.array(M), p)))
    return dims


def test_rank_le2_screen_matches_fp_rank():
    # every member whose Gram matrix has F_p-rank <= 2, found one member at
    # a time, is exactly what the plane-kernel finder returns, in table order
    from symmetroid.density import (_projective_points, _rank_le2_members,
                                    _table_index)
    from symmetroid.linalg import fp_rank
    rng = np.random.default_rng(11)
    frames = [rng.integers(-10, 11, size=(5, 15)) for _ in range(6)]
    # first generators: x0^2 (a double plane), x0^2 - 3 x1^2 (rank 2) and
    # x0^2 + x1^2 + x2^2 (rank 3, every non-principal minor zero)
    for F, e0 in zip(frames[1:4], ({0: 1}, {0: 1, 5: -3},
                                   {0: 1, 5: 1, 9: 1})):
        F[0] = 0
        F[0, list(e0)] = list(e0.values())
    # all three at once: M(e1) and M(e2) have kernels of dimension >= 2
    frames[4][:3] = 0
    frames[4][0, 0] = frames[4][1, 0] = frames[4][2, [0, 5, 9]] = 1
    frames[4][1, 5] = -3
    # no generator involves x0: e0 is singular on every member, M(e0) = 0
    frames[5][:, :5] = 0
    cases = [(F, p) for p in (3, 5, 7) for F in frames]
    cases += [(frames[1], 11), (frames[2], 13)]
    for F, p in cases:
        P = Pencil([QuadricForm(row) for row in F.tolist()])
        points = _projective_points(p).tolist()
        brute = [n for n, t in enumerate(points)
                 if fp_rank(P.gram_at(t), p) <= 2]
        frame_ids, t = _rank_le2_members(np.mod(F, p)[None], p)
        assert _table_index(t, p).tolist() == brute, p
        assert set(frame_ids.tolist()) <= {0}
        assert t.tolist() == [points[n] for n in brute]
        # e_0 = (1, 0, 0, 0, 0) is row 0
        if F is frames[1] or F is frames[2]:
            assert brute[0] == 0
        elif F is frames[3]:
            assert 0 not in brute
        if F is frames[4]:
            dims = _plane_kernel_dims(P, p)
            assert max(dims) >= 2 and len(brute) >= p + 1
        elif F is frames[5]:
            assert _plane_kernel_dims(P, p)[0] == 5


def test_sp_member_at_173_is_desk_scale(thm_pencil):
    # the p^4 point table alone would take ~18 GB here; the plane scan
    # holds O(p^2) residues
    import time
    import tracemalloc
    tracemalloc.start()
    t0 = time.monotonic()
    try:
        res = sp_member(thm_pencil, 173)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.monotonic() - t0 < 20
    assert peak < 64 * 2 ** 20
    assert not res.member and not res.degenerate_frame


# S_p verdicts of the bundled pencils at every prime <= 31: members only
# at these primes, with these witnesses, and never a degenerate frame
_SP_MEMBERS = {"thm_example": {}, "prop_q3": {2: [1, 0, 0, 0, 0],
                                              3: [1, 0, 0, 0, 0]},
               "cor_easy": {2: [1, 0, 0, 0, 0]}}


def test_sp_member_pinned_on_bundled_pencils(thm_pencil, q3_pencil,
                                             cor_pencil):
    pencils = {"thm_example": thm_pencil, "prop_q3": q3_pencil,
               "cor_easy": cor_pencil}
    for name, P in pencils.items():
        for p in primes_below(32):
            witness = _SP_MEMBERS[name].get(p)
            assert sp_member(P, p).as_json() == {
                "member": witness is not None, "witness": witness,
                "degenerate_frame": False}, (name, p)


_MC_SEED7 = {
    "height": 10, "cutoff": 20, "samples": 150, "seed": 7, "passes": 107,
    "estimate": "107/150", "estimate_float": 0.7133333333333334,
    "std_radius": 0.0369223409233388, "ci95_radius": 0.07236778820974404,
    "reference_product": "5741576082454474365777458513686908310953650184430"
                         "5070955179669120/775610695517848981200820274352"
                         "94468162794844143515115535838076207",
    "reference_product_float": 0.740265202070353,
    "per_prime_failures": {"2": 25, "3": 13, "5": 3, "7": 1, "11": 0,
                           "13": 1, "17": 0, "19": 0}}


def test_monte_carlo_pinned_and_block_invariant(monkeypatch):
    from symmetroid import density
    assert monte_carlo_density(10, 20, 150, seed=7).as_json() == _MC_SEED7
    # a block of frames is the stream of single draws ...
    one, many = np.random.default_rng(7), np.random.default_rng(7)
    block = one.integers(-10, 11, size=(9, 5, 15))
    assert (block == [many.integers(-10, 11, size=(5, 15))
                      for _ in range(9)]).all()
    # ... so blocks of 7 frames, ending mid-sample, change nothing
    monkeypatch.setattr(density, "_BLOCK", 7)
    assert monte_carlo_density(10, 20, 150, seed=7).as_json() == _MC_SEED7


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
    from symmetroid.density import _bad_members
    rng = np.random.default_rng(3)
    perm_rng = random.Random(3)
    from symmetroid.linalg import fp_rank
    for _ in range(20):
        F = rng.integers(-10, 11, size=(5, 15))
        for p in (2, 3, 5):
            A = np.mod(F, p)
            if fp_rank(A.copy(), p) < 5:
                continue
            base = _bad_members(A[None], p)[0] is not None
            rows = list(range(5))
            perm_rng.shuffle(rows)
            assert (_bad_members(A[None, rows], p)[0] is not None) == base
