import io
import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import b_of_p_counting, first_smooth_point_bruteforce
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


def test_census_stays_within_its_memory_budget():
    # the scan holds one slice of float32 values (_EVAL_CELLS, 1 MB) and
    # one buffer of coefficient rows, not an int64 chunk and its copies
    import tracemalloc
    census_bp(2, workers=1)              # point tables built outside
    tracemalloc.start()
    try:
        assert census_bp(2, workers=1) == 186
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


# planted quadrics without a smooth point: cones whose points are all
# singular, double planes and char-2 squares
_POINTLESS = {2: ["x0^2 + x0*x1 + x1^2", "x0^2 + x1^2 + x2^2", "x3^2"],
              3: ["x0^2 + x1^2", "x0^2 + 2*x0*x2 + x2^2", "x4^2",
                  "x1^2 + x3^2"]}
# and with one: cones, and at p = 3 a quadric whose smooth points all come
# after the first 16 points (the last one)
_POINTED = {2: ["x0*x1 + x2^2", "x2*x3", "x1^2 + x1*x4 + x4^2 + x2^2",
                "x0*x1 + x2*x3 + x4^2"],
            3: ["x0^2 - x1^2", "x0*x1 + x2^2", "x2*x4 + x3^2",
                "x0^2 + x0*x4 + x2*x4"]}


def test_no_smooth_point_mask_matches_enumeration(monkeypatch):
    from symmetroid import density
    from symmetroid.gf import projective_points
    # a few rows per slice: both point tables run in several slices
    monkeypatch.setattr(density, "_EVAL_CELLS", 200)
    for p in (2, 3):
        rng = np.random.default_rng(p)
        C = rng.integers(0, p, size=(80, 15))
        C[40:] *= rng.random((40, 15)) < 0.25       # sparse ones too
        planted = _POINTLESS[p] + _POINTED[p]
        C = np.vstack([C] + [np.mod(QuadricForm.from_string(s).coeffs, p)
                             for s in planted])
        first = [first_smooth_point_bruteforce(QuadricForm(c), p) for c in C]
        want = [x is None for x in first]
        assert density._no_smooth_point_mask(C, p).tolist() == want, p
        assert want[-len(planted):] == ([True] * len(_POINTLESS[p])
                                        + [False] * len(_POINTED[p])), p
        if p == 3:          # the late one: no smooth point among the first 16
            assert projective_points(p).tolist().index(
                list(first[-1])) >= 16


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

    monkeypatch.setattr(density, "projective_points", allocates)
    monkeypatch.setattr(density, "_gram_stack", allocates)
    assert density._MAX_PRIME < 1009
    with pytest.raises(ValueError, match="largest prime"):
        sp_member(thm_pencil, 1009)
    with pytest.raises(ValueError, match="largest prime"):
        monte_carlo_density(10, 1009, 1, seed=0)


def _plane_kernel_dims(P, p):
    """dim ker M(x) mod p for every x in P(<e0, e1, e2>)(F_p), by brute
    force on the pencil's Gram matrices."""
    from symmetroid.gf import GF, projective_points
    from symmetroid.linalg import nullspace
    dims = []
    for x in projective_points(p, 3).tolist():
        M = [[sum(B[r][c] * x[c] for c in range(3)) % p for B in P.grams]
             for r in range(5)]
        dims.append(len(nullspace(M, GF(p))))
    return dims


def _stacked_ranks(B, p):
    """Ranks mod p of a stack of square integer matrices B (N x n x n), by
    one row-echelon loop over the whole stack: at column j each matrix
    takes its first nonzero entry on or below its rank row as the pivot,
    swaps that row up, scales it to 1 and clears the column below it."""
    B = np.array(B, dtype=np.int64) % p
    n = B.shape[-1]
    inv = np.array([0] + [pow(a, -1, p) for a in range(1, p)])
    ranks = np.zeros(len(B), dtype=np.int64)
    rows = np.arange(n)
    for j in range(n):
        live = (B[:, :, j] != 0) & (rows >= ranks[:, None])
        m = np.flatnonzero(live.any(axis=1))
        top, piv = ranks[m], np.argmax(live[m], axis=1)
        B[m, top], B[m, piv] = B[m, piv], B[m, top]
        pivot = B[m, top] * inv[B[m, top, j]][:, None] % p
        below = (rows > top[:, None]) * B[m, :, j]
        B[m] = (B[m] - below[:, :, None] * pivot[:, None, :]) % p
        ranks[m] += 1
    return ranks


def _member_grams(F, p):
    """Gram matrices of the members of the frame F (5 x 15 integers) at
    every point of P^4(F_p), in table order."""
    from symmetroid.gf import projective_points
    grams = np.array([QuadricForm(row).gram() for row in F.tolist()])
    return np.tensordot(projective_points(p), grams, 1)


def _brute_rank_le2(F, p):
    """Table positions of the members of the frame F whose Gram matrix has
    F_p-rank <= 2, all members at once."""
    return np.flatnonzero(_stacked_ranks(_member_grams(F, p), p) <= 2
                          ).tolist()


def test_rank_le2_screen_matches_fp_rank():
    # every member whose Gram matrix has F_p-rank <= 2, found by brute force
    # over P^4(F_p), is exactly what the plane-kernel finder returns, in
    # table order
    from symmetroid.density import _rank_le2_members, _table_index
    from symmetroid.gf import projective_points
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
        points = projective_points(p).tolist()
        brute = _brute_rank_le2(F, p)
        if p <= 5:
            # the stacked elimination against one fp_rank per member
            B = _member_grams(F, p)
            assert (_stacked_ranks(B, p).tolist()
                    == [fp_rank(b, p) for b in B]), p
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


def _frames_found(frames, p):
    """Table positions, frame by frame, of the rank <= 2 members that
    ``_rank_le2_members`` finds on the stack of frames."""
    from symmetroid.density import _rank_le2_members, _table_index
    f, t = _rank_le2_members(np.mod(np.array(frames), p), p)
    index = _table_index(t, p)
    return [index[f == k].tolist() for k in range(len(frames))]


def test_vandermonde_inverse_at_every_scanned_prime():
    # the closed form from Newton's differences inverts V[k, m] = a^i b^j
    # on the 21 interpolation points (1, a, b) mod every prime it serves
    from symmetroid.density import _QUINTIC, _vandermonde_inverse
    e = np.array(_QUINTIC)
    V = np.prod(e[:, None, :] ** e[None, :, :], axis=2)
    for p in primes_below(1000)[3:]:
        VI = _vandermonde_inverse(p)
        assert VI.dtype == np.float64 and 0 <= VI.min() <= VI.max() < p
        assert (V @ VI.astype(np.int64) % p == np.eye(21)).all(), p


def test_quintic_values_match_direct_determinants(monkeypatch):
    # det M(x) from the interpolated quintic equals the 5x5 determinant
    # formed at every plane point, for chunks that cut grid rows and the
    # grid's end; at p = 181 one frame's values pass _PAIRS
    from symmetroid import density
    from symmetroid.density import (_det_mod_p, _gram_stack, _plane_dets,
                                    _plane_matrices)
    from symmetroid.gf import projective_points
    from symmetroid.linalg import det_bareiss
    rng = np.random.default_rng(18)
    for p in (7, 11, 31, 181):
        F = rng.integers(-10, 11, size=(3, 5, 15))
        F[1, :, :5] = 0                  # no x0: M(e0) = 0
        F[2, :, :12] = 0                 # x3 and x4 only: M(x) = 0 on W
        G = _gram_stack(np.mod(F, p), p)
        n = p * p + p + 1
        direct = _det_mod_p(_plane_matrices(
            G, projective_points(p, 3), p), p).reshape(3, n)
        assert direct[0].any() and not direct[2].any()
        if p <= 11:
            grams = [[QuadricForm(q).gram() for q in f] for f in F.tolist()]
            for x, col in zip(projective_points(p, 3).tolist(), direct.T):
                assert [det_bareiss([[sum(B[r][c] * x[c] for c in range(3))
                                      for B in f] for r in range(5)]) % p
                        for f in grams] == col.tolist()
        dets = _plane_dets(G, p)
        assert (dets(0, n) == direct).all(), p
        for width in (p + 1, 5 * p - 1):   # p + 1 starts a chunk at e2
            chunks = [dets(s, min(n, s + width)) for s in range(0, n, width)]
            assert (np.concatenate(chunks, axis=1) == direct).all(), p
    assert p * p + p + 1 > density._PAIRS
    # with _PAIRS = 50, frame batches hold three frames at p = 3 and one
    # at p = 5 and 7, where the 57 points come in chunks of 50 and 7, and
    # candidate batches end mid-frame: the members found do not move, and
    # they are the brute-force ones, also where the quintic vanishes on
    # all of W or every member has rank <= 2
    frames = rng.integers(-10, 11, size=(4, 5, 15))
    frames[1, :, :5] = 0
    frames[2, :3, :12] = 0
    frames[3, :, :12] = 0
    for p in (3, 5, 7):
        found = _frames_found(frames, p)
        with monkeypatch.context() as m:
            m.setattr(density, "_PAIRS", 50)
            assert _frames_found(frames, p) == found, p
        assert found == [_brute_rank_le2(F, p) for F in frames], p
        assert len(found[3]) == (p ** 5 - 1) // (p - 1)


def test_rank_le2_prefilter_is_only_a_prefilter():
    # x1^2 + x2^2 + x3^2 has rank 3, e0 in its kernel and a zero
    # principal minor on rows and columns 0, 3, 4, so e0 passes the first
    # minor and must fail the full test; x1^2 + x3^2 has rank 2 and stays
    from symmetroid.density import _PREFILTER
    from symmetroid.linalg import det_bareiss, fp_rank
    rng = np.random.default_rng(5)
    rank3, rank2 = rng.integers(-10, 11, size=(2, 5, 15))
    rank3[0] = rank2[0] = 0
    rank3[0, [5, 9, 12]] = 1
    rank2[0, [5, 12]] = 1
    for p in (3, 7, 11):
        for F, rank in ((rank3, 3), (rank2, 2)):
            B = np.array(QuadricForm(F[0].tolist()).gram())    # B(e0)
            assert fp_rank(B, p) == rank
            assert det_bareiss(B[np.ix_(_PREFILTER, _PREFILTER)]) == 0
            assert (B[:, 0] == 0).all()
        found = _frames_found([rank3, rank2], p)
        assert 0 not in found[0] and 0 in found[1], p
        if p < 11:
            assert found == [_brute_rank_le2(rank3, p),
                             _brute_rank_le2(rank2, p)], p


def test_rank_le2_test_reads_the_block_off_the_lead():
    # B(t) x = 0 with x_l = 1 makes row and column l of B(t) combinations
    # of the others, so the rank test reads the 4 x 4 block off l.  Member
    # e0 of each frame is its planted first generator: (x0 + x3)(x1 + x4)
    # and (x0 + x3)(x1 - x2 + x4) have rank 2 and kernels meeting the plane
    # <e0, e1, e2> only at e2 and at e1 + e2; x0^2 + x1^2 + x3^2 and
    # x0^2 + x2^2 + x3^2 have rank 3, kernels meeting it only at e2 and at
    # e1, rank 2 off index 0 and a zero minor on the prefilter's block
    from symmetroid.density import _PREFILTER
    from symmetroid.gf import projective_points
    from symmetroid.linalg import det_bareiss, fp_rank
    from symmetroid.quadform import COEFF_ORDER
    planted = [({(0, 1): 1, (0, 4): 1, (1, 3): 1, (3, 4): 1}, 2, [0, 0, 1]),
               ({(0, 1): 1, (0, 2): -1, (0, 4): 1, (1, 3): 1, (2, 3): -1,
                 (3, 4): 1}, 2, [0, 1, 1]),
               ({(0, 0): 1, (1, 1): 1, (3, 3): 1}, 3, [0, 0, 1]),
               ({(0, 0): 1, (2, 2): 1, (3, 3): 1}, 3, [0, 1, 0])]
    frames = np.random.default_rng(24).integers(-10, 11,
                                                size=(len(planted), 5, 15))
    for F, (terms, _, _) in zip(frames, planted):
        F[0] = [terms.get(ij, 0) for ij in COEFF_ORDER]
    for p in (3, 5, 7, 11, 13):
        for F, (_, rank, x) in zip(frames, planted):
            B = np.array(QuadricForm(F[0].tolist()).gram())      # B(e0)
            assert fp_rank(B, p) == rank
            plane = projective_points(p, 3)
            assert plane[~(B[:, :3] @ plane.T % p).any(axis=0)
                         ].tolist() == [x]
            if rank == 3:
                assert fp_rank(B[1:, 1:], p) == 2
                assert det_bareiss(B[np.ix_(_PREFILTER, _PREFILTER)]) == 0
        found = _frames_found(frames, p)
        assert found == [_brute_rank_le2(F, p) for F in frames], p
        assert [0 in f for f in found] == [True, True, False, False], p


def test_sp_member_at_997_scans_in_chunks(thm_pencil):
    # one frame at the cap has ~10^6 quintic values, taken _PAIRS at a
    # time: seconds and a few MB, where a p^2 x 21 monomial table would
    # take hundreds of MB
    import time
    import tracemalloc
    tracemalloc.start()
    t0 = time.monotonic()
    try:
        res = sp_member(thm_pencil, 997)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.monotonic() - t0 < 5
    assert peak < 32 * 2 ** 20
    assert not res.member and not res.degenerate_frame


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
