"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with output enabled to see the lines:

    pytest tests/test_acceptance.py -v -s

Criterion 9 is expected to stay red: the published example point it pins is
inconsistent with the published pencil under exact arithmetic (see the
decisions ledger); the mathematical content of the construction (the five
bilinear vanishings) is asserted and passes.
"""

import random
import time
from fractions import Fraction

import pytest

from oracles import (albert_lemma_counterexamples, conic_solvable_bruteforce,
                     relevant_places)
from symmetroid.brauer_eval import (certify_wa_failure, evaluate_invariant,
                                    find_real_point_with_invariant,
                                    lift_to_y)
from symmetroid.density import (b_of_p, census_bp, monte_carlo_density,
                                pointless_quadric_count, primes_below,
                                product_lower_bound)
from symmetroid.localfields import INV_HALF, INV_ZERO, REAL, hilbert_symbol
from symmetroid.nullstellensatz import empty_all_primes
from symmetroid.pencil import (alpha_symbol, rank_le2_minor_ideal,
                               x_point_from_singular_member)
from symmetroid.polys import parse_poly
from symmetroid.quadform import classify

T = ["t%d" % i for i in range(5)]
HALF = Fraction(1, 2)


def report(num, ok, detail=""):
    line = "ACCEPTANCE %2d: %s%s" % (num, "PASS" if ok else "FAIL",
                                     "  [%s]" % detail if detail else "")
    print("\n" + line)
    return ok


# --- 1: bit-exact quaternion symbol ----------------------------------------

A1 = ("-t0^2 - 2*t0*t1 + 7*t1^2 + 8*t1*t2 + 48*t1*t3 + 16*t2*t3 + 64*t3^2"
      " + 8*t1*t4 + 16*t3*t4")
A2 = ("4*t1^2 + 8*t1*t2 + 4*t2^2 + 32*t1*t3 + 32*t2*t3 + 64*t3^2 + 8*t1*t4"
      " + 8*t2*t4 + 32*t3*t4 + 4*t4^2")
# b1 as printed, plus the restored -2*t2^3 lost at a line wrap in the
# extracted text (the other 27 coefficients match the display verbatim,
# and the Gram-Schmidt minor identity pins the minor independently; see
# the decisions ledger)
B1_PRINTED = (
    "-10*t0^2*t1 - 14*t0*t1^2 + 38*t1^3 + 10*t0*t1*t2 + 36*t1^2*t2"
    " + 4*t0*t2^2 - 18*t1*t2^2 - 6*t0^2*t3 - 12*t0*t1*t3 + 442*t1^2*t3"
    " + 96*t1*t2*t3 - 40*t2^2*t3 + 928*t1*t3^2 + 96*t2*t3^2 + 384*t3^3"
    " + 20*t0*t1*t4 + 62*t1^2*t4 + 14*t0*t2*t4 - 30*t1*t2*t4 - 14*t2^2*t4"
    " + 112*t1*t3*t4 - 80*t2*t3*t4 + 96*t3^2*t4 + 6*t0*t4^2 - 28*t1*t4^2"
    " - 30*t2*t4^2 - 80*t3*t4^2 - 18*t4^3")
B1_RESTORED_TERM = "-2*t2^3"
B2 = ("-2*t0^2*t1 - 4*t0*t1^2 + 14*t1^3 - 2*t0^2*t2 - 4*t0*t1*t2"
      " + 30*t1^2*t2 + 16*t1*t2^2 - 8*t0^2*t3 - 16*t0*t1*t3 + 152*t1^2*t3"
      " + 192*t1*t2*t3 + 32*t2^2*t3 + 512*t1*t3^2 + 256*t2*t3^2 + 512*t3^3"
      " - 2*t0^2*t4 - 4*t0*t1*t4 + 30*t1^2*t4 + 32*t1*t2*t4 + 192*t1*t3*t4"
      " + 64*t2*t3*t4 + 256*t3^2*t4 + 16*t1*t4^2 + 32*t3*t4^2")


def test_criterion_01_alpha_symbol_bit_exact(thm_pencil):
    t0 = time.monotonic()
    sym = alpha_symbol(thm_pencil)
    m1, m2, m3, _ = sym.minors
    a1 = parse_poly(A1, T)
    a2 = parse_poly(A2, T)
    b1 = parse_poly(B1_PRINTED, T) + parse_poly(B1_RESTORED_TERM, T)
    b2 = parse_poly(B2, T)
    elapsed = time.monotonic() - t0
    ok = (m2 == a1 and m1 * m1 == a2 and m3 == b1 and m2 * m1 == b2
          and sym.basis_change is None and elapsed < 10.0)
    # the difference against the printed b1 is the single restored term
    diff = m3 - parse_poly(B1_PRINTED, T)
    ok = ok and diff == parse_poly(B1_RESTORED_TERM, T)
    assert report(1, ok, "exact match, %.1fs" % elapsed)


# --- 2: V3 avoidance for all primes ----------------------------------------

def test_criterion_02_v3_all_primes(thm_pencil):
    t0 = time.monotonic()
    cert = empty_all_primes(rank_le2_minor_ideal(thm_pencil),
                            saturate_at_2=True, d_max=12)
    elapsed = time.monotonic() - t0
    ok = bool(cert) and cert.scope == "all_primes" and elapsed < 600
    assert report(2, ok, "degree %s, %.1fs"
                  % (getattr(cert, "degree", None), elapsed))


# --- 3: local invariants at p = 3 ------------------------------------------

def test_criterion_03_finite_place_obstruction(q3_pencil, q3_regularity):
    t0 = time.monotonic()
    y = lift_to_y(q3_pencil, (1, 0, 0, 0, 0), 3)[0]
    inv_half = evaluate_invariant(q3_pencil, y)
    y0 = lift_to_y(q3_pencil, (0, 1, 0, 0, 0), 3)[0]
    inv_zero = evaluate_invariant(q3_pencil, y0)
    cert = certify_wa_failure(q3_pencil, 3, regularity=q3_regularity)
    valid = cert.validate(q3_pencil)
    elapsed = time.monotonic() - t0
    ok = (inv_half == HALF and inv_zero == INV_ZERO and valid
          and elapsed < 60)
    assert report(3, ok, "inv(Q0)=1/2, inv(Q1)=0 at v=3, cert valid, %.1fs"
                  % elapsed)


# --- 4: real obstruction ----------------------------------------------------

def test_criterion_04_real_obstruction(thm_pencil, thm_regularity):
    t0 = time.monotonic()
    cls = classify(thm_pencil.member((0, 1, 0, 0, 0)), "R")
    sig_ok = cls.signature == (4, 0, 1)
    y_half = lift_to_y(thm_pencil, (0, 1, 0, 0, 0), REAL)[0]
    half_ok = evaluate_invariant(thm_pencil, y_half) == HALF
    y_zero = find_real_point_with_invariant(thm_pencil, 0, seed=0)
    npos, nneg = y_zero.signature if y_zero.signature else (None, None)
    zero_ok = (npos, nneg) == (2, 2) and \
        evaluate_invariant(thm_pencil, y_zero) == INV_ZERO
    cert = certify_wa_failure(thm_pencil, "real", regularity=thm_regularity)
    valid = cert.validate(thm_pencil)
    elapsed = time.monotonic() - t0
    ok = sig_ok and half_ok and zero_ok and valid and elapsed < 300
    assert report(4, ok, "signature (4,0;0), (2,2;0) root found, cert "
                  "valid, %.1fs" % elapsed)


# --- 5: density bound -------------------------------------------------------

def test_criterion_05_density_bound():
    t0 = time.monotonic()
    rep = product_lower_bound(100)
    elapsed = time.monotonic() - t0
    ok = (Fraction("0.737") <= rep.partial_product <= Fraction("0.740")
          and rep.final_bound >= Fraction("0.73") and elapsed < 30)
    assert report(5, ok, "partial %.6f, final %.6f, %.1fs"
                  % (float(rep.partial_product), float(rep.final_bound),
                     elapsed))


# --- 6: census oracle -------------------------------------------------------

def test_criterion_06_census():
    t0 = time.monotonic()
    n2 = census_bp(2)
    t2 = time.monotonic() - t0
    t0 = time.monotonic()
    n3 = census_bp(3)
    t3 = time.monotonic() - t0
    ok = (n2 == 186 == pointless_quadric_count(2)
          and n3 == pointless_quadric_count(3)
          and t2 < 120 and t3 < 1800)
    assert report(6, ok, "#B_2=%d (%.1fs), #B_3=%d (%.1fs)"
                  % (n2, t2, n3, t3))


# --- 7: Hilbert symbol suite ------------------------------------------------

def test_criterion_07_hilbert_suite():
    violations = 0
    rng = random.Random(1234)
    for _ in range(1000):
        a = Fraction(rng.randint(-40, 40), rng.randint(1, 24))
        b = Fraction(rng.randint(-40, 40), rng.randint(1, 24))
        if a == 0 or b == 0:
            continue
        prod = 1
        for v in relevant_places(a, b):
            prod *= hilbert_symbol(a, b, v)
        if prod != 1:
            violations += 1
    for p in (2, 3, 5, 7, 11, 13):
        for a in range(-30, 31):
            for b in range(-30, 31):
                if a == 0 or b == 0:
                    continue
                if (hilbert_symbol(a, b, p) == 1) != \
                        conic_solvable_bruteforce(a, b, p):
                    violations += 1
    ok = violations == 0
    assert report(7, ok, "product formula x1000 + brute force p<=13, "
                  "|a|,|b|<=30: %d violations" % violations)


# --- 8: regularity ----------------------------------------------------------

def test_criterion_08_regularity(thm_pencil, cor_pencil):
    from symmetroid.pencil import regularity_certificate
    t0 = time.monotonic()
    thm_cert = regularity_certificate(thm_pencil, 7)
    t_thm = time.monotonic() - t0
    t0 = time.monotonic()
    cor_cert = regularity_certificate(cor_pencil, 11)
    t_cor = time.monotonic() - t0
    ok = (thm_cert.certified and cor_cert.certified
          and thm_cert.prime <= 11 and cor_cert.prime <= 11
          and t_thm < 600 and t_cor < 600)
    assert report(8, ok, "thm at p=7 (%.0fs), cor at p=11 (%.0fs)"
                  % (t_thm, t_cor))


# --- 9: X-point -------------------------------------------------------------

def test_criterion_09_x_point(thm_pencil):
    t0 = time.monotonic()
    xp = x_point_from_singular_member(thm_pencil, (1, 0, 0, 0, 0),
                                      v=(0, 0, 0, 0, 1))
    elapsed = time.monotonic() - t0
    v, w = xp["v"], xp["w"]
    from symmetroid.linalg import mat_vec
    vanishings = all(
        sum(wi * x for wi, x in zip(w, mat_vec(B, v))) == 0
        for B in thm_pencil.grams)
    expected = (1, -3, 2, 4, 1)
    proportional = all(w[i] * expected[j] == w[j] * expected[i]
                       for i in range(5) for j in range(i + 1, 5))
    ok = vanishings and proportional and elapsed < 1.0
    report(9, ok, "vanishings %s; w=%s vs published (1,-3,2,4,1) "
           "proportional=%s -- published point fails the vanishings "
           "(see decisions ledger)" % (vanishings, w, proportional))
    assert vanishings and not xp["degenerate"] and elapsed < 1.0
    assert proportional, (
        "published example vector is not in the kernel of (B_i v): "
        "exact residuals against the printed pencil are (16, -2, -6); "
        "spec criterion 9 is unattainable as stated (decisions ledger)")


# --- 10: char-2 smooth-point semantics --------------------------------------

def test_criterion_10_albert_semantics():
    t0 = time.monotonic()
    n2, bad2 = albert_lemma_counterexamples(2)
    n4, bad4 = albert_lemma_counterexamples(4)
    elapsed = time.monotonic() - t0
    ok = (n2 == 128 and n4 == 4 ** 7 and bad2 == 0 and bad4 == 0
          and elapsed < 60)
    assert report(10, ok, "F_2: %d tuples, F_4: %d tuples, 0 "
                  "counterexamples, %.1fs" % (n2, n4, elapsed))


# --- 11: Monte Carlo sanity --------------------------------------------------

def test_criterion_11_monte_carlo():
    t0 = time.monotonic()
    rep = monte_carlo_density(10, 20, 10**4, seed=2024)
    elapsed = time.monotonic() - t0
    lower = float(rep.reference_product) - 3 * rep.std_radius
    ok = float(rep.estimate) >= lower and elapsed < 600
    assert report(11, ok, "pass fraction %.4f vs product %.4f - 3s = %.4f, "
                  "%.0fs" % (float(rep.estimate),
                             float(rep.reference_product), lower, elapsed))
