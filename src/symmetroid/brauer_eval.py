"""Local points of the double symmetroid Y and evaluation of its Brauer
class.

A point of Y over a local field is a singular member of the pencil (a
point of the discriminant quintic H) together with a choice of ruling of
2-planes.  Rank-3 members carry a unique ruling; rank-4 members lift
exactly when the base quadric surface has square discriminant, and then
they lift twice.

The local invariant of the Brauer class at such a point is 0 when the
member quadric has a smooth point over the local field and 1/2 otherwise;
that smooth-point criterion is the authoritative evaluation path, with
the quaternion-conic route kept as a cross-check (any disagreement is a
hard error, never silently resolved).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

from .linalg import det_bareiss, primitive_vector, random_unimodular
from .localfields import (INV_HALF, INV_ZERO, REAL, is_square_at,
                          normalize_place, padic_val_unit,
                          quaternion_invariant, square_class)
from .pencil import regularity_certificate
from .quadform import (COEFF_ORDER, QuadricForm, classify, has_smooth_point_qp,
                       has_smooth_point_real, principal_minors, ruling_disc)
from .roots import (RatInterval, horner_sign, isolate_real_roots,
                    refine_root, sturm_chain)

# bisections of a root's isolating interval before certification gives up
_REFINE_CAP = 80

# primes tried in turn for the regularity certificate of a WA certificate
_REGULARITY_PRIMES = (7, 3, 11, 5, 13)


@dataclass
class LocalYPoint:
    place: object                      # REAL or a prime
    kind: str                          # "rational" | "padic" | "real-algebraic"
    t: tuple | None = None             # projective integer coords (rational)
    padic: tuple | None = None         # (coords mod p^N, N)
    line: tuple | None = None          # (anchor u, direction w) for real roots
    interval: RatInterval | None = None
    rank: int | None = None
    ruling: str = "unique"             # "first" | "second" | "unique"
    disc_class: object = None          # SquareClass of the base disc at place
    signature: tuple | None = None     # (n+, n-) of the nondegenerate part
    minor_signs: tuple | None = None   # certified signs of M1..M4 (real pts)
    basis_change: list | None = None

    def as_json(self):
        out = {"place": "inf" if self.place == REAL else self.place,
               "kind": self.kind, "rank": self.rank, "ruling": self.ruling}
        if self.t is not None:
            out["t"] = [int(x) for x in self.t]
        if self.padic is not None:
            coords, N = self.padic
            out["padic"] = {"coords": [int(c) for c in coords],
                            "precision": N}
        if self.line is not None:
            out["line"] = {"anchor": list(self.line[0]),
                           "direction": list(self.line[1])}
        if self.interval is not None:
            out["interval"] = [str(self.interval.lo), str(self.interval.hi)]
        if self.disc_class is not None:
            out["disc_class"] = self.disc_class.as_json()
        if self.signature is not None:
            out["signature"] = list(self.signature)
        if self.minor_signs is not None:
            out["minor_signs"] = list(self.minor_signs)
        if self.basis_change is not None:
            out["basis_change"] = self.basis_change
        return out


class PrecisionError(ValueError):
    """p-adic input does not carry enough digits to certify the result."""


def lift_to_y(P, t_star, v, padic_precision=None):
    """Lift a point of H to points of Y over Q_v.

    Returns 0, 1 or 2 LocalYPoints.  Rank-3 members lift once (ramification
    locus); rank-4 members lift twice exactly when the ruling discriminant
    is a square in Q_v.  Exact rational points are decided exactly; p-adic
    approximations must satisfy the precision bound pinning the square
    class, otherwise PrecisionError is raised.
    """
    v = normalize_place(v)
    if padic_precision is not None:
        return _lift_padic(P, t_star, v, padic_precision)
    t = primitive_vector(t_star)
    if P.det_at(t) != 0:
        raise ValueError("t* is not on the discriminant quintic H")
    Q = P.member(t)
    cls = classify(Q, "Q")
    if cls.rank <= 2:
        raise ValueError("member has rank <= 2: pencil is not regular")
    if cls.rank == 5:
        raise ValueError("member is nonsingular (excluded by det = 0)")
    if cls.rank == 3:
        return [LocalYPoint(place=v, kind="rational", t=tuple(t), rank=3,
                            ruling="unique")]
    disc = ruling_disc(Q)
    sq = square_class(disc, v)
    if not sq.is_square():
        return []
    return [LocalYPoint(place=v, kind="rational", t=tuple(t), rank=4,
                        ruling=r, disc_class=sq)
            for r in ("first", "second")]


def _lift_padic(P, t_star, p, N):
    """Lift for approximate p-adic parameter coordinates mod p^N."""
    if p == REAL:
        raise ValueError("p-adic lift needs a finite place")
    pN = p ** N
    t = [x % pN for x in _integral(t_star)]
    if all(x % p == 0 for x in t):
        raise ValueError("coordinates must include a unit")
    B = P.gram_at(t)
    if det_bareiss(B) % pN != 0:
        raise ValueError("t* is not on H to the working precision")
    val, unit, _ = _certified_minor(B, p, N)
    if not is_square_at(p ** val * unit, p):
        return []
    return [LocalYPoint(place=p, kind="padic", padic=(tuple(t), N), rank=4,
                        ruling=r) for r in ("first", "second")]


def _integral(coords):
    """The coordinates as ints; any that is not an integer is refused."""
    t = [int(x) for x in coords]
    bad = [str(x) for x, y in zip(coords, t) if x != y]
    if bad:
        raise ValueError("p-adic coordinates must be integers, not %s"
                         % ", ".join(bad))
    return t


def _certified_minor(B, p, N):
    """``(v, unit, i)`` for the principal 4x4 minor of the Gram matrix B,
    known mod p^N, of least p-adic valuation v: the minor deleting row and
    column i is p^v * unit.  Raises PrecisionError unless N > 2v + guard
    (guard 3 at p = 2, else 1), the precision that pins the square class
    of the minor and, with it, the nondegenerate part of the member."""
    pN = p ** N
    guard = 3 if p == 2 else 1
    found = [padic_val_unit(m, p)[:2] + (i,) for i, m in
             enumerate(m % pN for m in principal_minors(B)) if m]
    if not found:
        raise PrecisionError("all principal 4x4 minors vanish mod p^N; "
                             "cannot certify rank 4 (raise the precision)")
    best = min(found, key=lambda f: f[0])
    val = best[0]
    if N <= 2 * val + guard:
        raise PrecisionError(
            "precision %d insufficient: needs N > 2*%d + %d to pin the "
            "disc square class" % (N, val, guard))
    return best


def _padic_invariant(P, coords, p, N):
    """inv_p at a p-adic point of H known mod p^N, decided on the
    nondegenerate part of its member.

    The true member has rank 4 and its Gram restricted to the coordinates
    other than i (the certified minor of ``_certified_minor``) is
    nondegenerate of determinant valuation v, so the member is that
    4-dimensional form plus a zero.  The integer representative's form on
    the same coordinates agrees with it mod p^N, and two nondegenerate
    forms that agree mod p^m with m >= v + 1 + guard are Z_p-equivalent;
    N > 2v + guard gives that m.  (The full representative is generically
    nonsingular, and every rank-5 form over Q_p is isotropic, so it
    cannot stand in for the member.)"""
    t = _integral(coords)
    _, _, i = _certified_minor(P.gram_at(t), p, N)
    Q = P.member(t)
    part = QuadricForm([0 if i in ij else c
                        for ij, c in zip(COEFF_ORDER, Q.coeffs)])
    return INV_ZERO if has_smooth_point_qp(part, p) else INV_HALF


def evaluate_invariant(P, y):
    """inv_v of the Brauer class at a local point of Y: 0 or 1/2.

    Authoritative path: 1/2 exactly when the member quadric has no smooth
    point over Q_v (the ruling tag never matters).  When the alpha-symbol
    minors are all nonzero at the point, the quaternion conic gives an
    independent evaluation; disagreement raises AssertionError.  A p-adic
    point is decided on the nondegenerate part of its member
    (``_padic_invariant``), or raises PrecisionError.
    """
    v = normalize_place(y.place)
    if y.kind == "real-algebraic":
        npos, nneg = y.signature
        primary = INV_ZERO if (npos >= 1 and nneg >= 1) else INV_HALF
        return primary
    if y.kind == "padic":
        coords, N = y.padic
        return _padic_invariant(P, coords, v, N)
    t = list(y.t)
    Q = P.member(t)
    if v == REAL:
        primary = INV_ZERO if has_smooth_point_real(Q) else INV_HALF
    else:
        primary = INV_ZERO if has_smooth_point_qp(Q, v) else INV_HALF
    other = _conic_invariant(P, t, v)
    if other is not None and other != primary:
        raise AssertionError(
            "smooth-point and conic evaluations disagree at t=%s, v=%s"
            % (t, v))
    return primary


def _conic_invariant(P, t, v):
    """Invariant via the conic <M1, M2/M1, M3/M2> at t, the minors taken
    as the leading 1x1, 2x2 and 3x3 determinants of B(t): the conic
    <d1, d2, d3> is isotropic exactly where (-d1 d3, -d2 d3) splits.

    Returns None when a minor vanishes at t (cross-check unavailable).
    Scaling t by c > 0 scales the pair by c^2, so t is made primitive.
    """
    B = P.gram_at(primitive_vector(t))
    m1, m2, m3 = (det_bareiss([row[:k] for row in B[:k]]) for k in (1, 2, 3))
    if 0 in (m1, m2, m3):
        return None
    d3 = Fraction(m3, m2)
    return quaternion_invariant(-m1 * d3, -Fraction(m2, m1) * d3, v)


# ---------------------------------------------------------------------------
# the real-point search


def find_real_point_with_invariant(P, target, seed=0, line_budget=200):
    """A point of Y(R) with the requested invariant (0 or 1/2).

    The coordinate members of the pencil (``Pencil.coordinate_members``)
    are tried first (exact rational points).  Then seeded rational lines
    in the parameter space are scanned: the restricted discriminant
    quintic has odd degree, so real roots abound; each isolated root is
    certified by interval-Horner enclosures of the leading principal
    minors (nonvanishing pins both the rank and, via Jacobi's sign rule,
    the signature).  Exhausting the budget raises LookupError: a search
    failure is never a nonexistence claim.
    """
    target = Fraction(target)
    if target not in (INV_ZERO, INV_HALF):
        raise ValueError("target invariant must be 0 or 1/2")
    for t, _, (npos, nneg), disc in P.coordinate_members:
        rank = npos + nneg
        if rank < 3 or rank == 4 and disc < 0:
            continue  # no real point of Y above this member
        # 1/2 exactly when the member is definite on its nondegenerate part
        inv = INV_HALF if rank in (npos, nneg) else INV_ZERO
        if inv == target:
            pt = lift_to_y(P, t, REAL)[0]
            pt.signature = (npos, nneg)
            return pt
    rng = random.Random(seed)
    for line_index in range(line_budget):
        u = [rng.randint(-3, 3) for _ in range(5)]
        w = [rng.randint(-3, 3) for _ in range(5)]
        if all(x == 0 for x in w) or all(x == 0 for x in u):
            continue
        pt = _scan_line(P, u, w, target, rng)
        if pt is not None:
            return pt
    raise LookupError("real-point search budget exhausted "
                      "(%d lines); not a nonexistence claim" % line_budget)


def _scan_line(P, u, w, target, rng):
    *minors, det = P.line_minors(u, w)
    if not any(det):
        return None
    chain = sturm_chain(det)
    for iv in isolate_real_roots(chain):
        got = _certify_root(P, chain, minors, u, w, iv, rng)
        if got is None:
            continue
        signature, interval, minor_signs, basis_change = got
        npos, nneg = signature
        inv = INV_HALF if (npos == 4 or nneg == 4) else INV_ZERO
        if inv != target:
            continue
        if npos == nneg == 2 or npos == 4 or nneg == 4:
            # base disc is automatically positive: the point lifts to Y(R)
            return LocalYPoint(place=REAL, kind="real-algebraic",
                               line=(tuple(u), tuple(w)), interval=interval,
                               rank=4, ruling="first", signature=signature,
                               minor_signs=minor_signs,
                               basis_change=basis_change)
    return None


def _certify_root(P, chain, minors, u, w, interval, rng):
    """Certify rank 4 and the signature at the root of det on the line.

    ``chain`` is the Sturm chain of det on the line, ``minors`` M1..M4 on
    it (restricted again after each basis change) and ``interval``
    isolates the root.  Returns (signature, refined_interval, minor_signs,
    basis_change) or None when certification fails within the refinement
    budget (e.g. the root is a rank-3 point, where every 4x4 minor
    vanishes).
    """
    # the bisection sequence depends on det and the root alone, so every
    # basis-change attempt walks the same one, built as far as needed
    ivs = [interval]
    minor_coeffs, basis_change = minors, None
    for attempt in range(6):
        if attempt:
            basis_change = random_unimodular(5, rng, size=1)
            minor_coeffs = P.line_minors(u, w, basis_change)[:4]
        for k in range(_REFINE_CAP + 1):
            if k == len(ivs):
                ivs.append(refine_root(chain, ivs[-1]))
            iv = ivs[k]
            exact = iv.lo == iv.hi
            # the bisection after the last enclosure in the budget counts
            # only when it lands on the root exactly
            if k == _REFINE_CAP and not exact:
                break
            # on a point interval (a rational root) the enclosure is exact
            signs = tuple(horner_sign(mc, iv) for mc in minor_coeffs)
            if None not in signs:
                # Jacobi: number of negative eigenvalues of the rank-4
                # part equals sign changes in 1, M1, M2, M3, M4
                seq = (1,) + signs
                nneg = sum(1 for a, b in zip(seq, seq[1:]) if a != b)
                return (4 - nneg, nneg), iv, signs, basis_change
            if exact:
                break
    return None


# ---------------------------------------------------------------------------
# weak-approximation failure certificates


@dataclass
class WACertificate:
    place: object
    point_zero: LocalYPoint
    point_half: LocalYPoint
    witnesses: list                    # local-solubility witnesses
    regularity: object                 # RegularityCertificate
    pencil_lines: list
    notes: dict = field(default_factory=dict)

    def as_json(self):
        return {
            "schema": "wa-certificate/1",
            "place": "inf" if self.place == REAL else self.place,
            "invariant_zero_point": self.point_zero.as_json(),
            "invariant_half_point": self.point_half.as_json(),
            "witnesses": self.witnesses,
            "regularity": self.regularity.as_json()
            if self.regularity is not None else None,
            "pencil": self.pencil_lines,
            "notes": self.notes,
        }

    def validate(self, P):
        """Re-evaluate both stored points; True when invariants differ as
        recorded (the self-validating property of the obstruction)."""
        inv0 = evaluate_invariant(P, self.point_zero)
        inv1 = evaluate_invariant(P, self.point_half)
        return inv0 == INV_ZERO and inv1 == INV_HALF


def _rational_y_point(P):
    """A rational point of Y among the coordinate members, if any: a
    rank-3 singular member, or a rank-4 one with square discriminant."""
    for t, _, (npos, nneg), disc in P.coordinate_members:
        if npos + nneg == 3:
            return t, 3, None
        if disc is not None and disc > 0 and isqrt(disc) ** 2 == disc:
            return t, 4, disc
    return None


def certify_wa_failure(P, strategy, regularity=None, seed=0):
    """Certify that the Brauer class obstructs weak approximation on Y_P.

    ``strategy`` is "real" or a finite prime p.  The certificate packages
    a regularity certificate, two local points at the chosen place whose
    invariants are 0 and 1/2, and local-solubility witnesses (a rational
    point of Y covers every place at once; otherwise per-place witnesses
    at the critical set would be required, and failing that the
    certificate is refused).
    """
    if regularity is None:
        for p in _REGULARITY_PRIMES:
            cert = regularity_certificate(P, p)
            if cert.certified:
                regularity = cert
                break
        else:
            raise RuntimeError("could not certify regularity at primes %s"
                               % (_REGULARITY_PRIMES,))
    if not regularity.certified:
        raise ValueError("regularity certificate is not valid")
    if regularity.pencil_lines != P.to_lines():
        raise ValueError("regularity certificate is for another pencil")

    if strategy == "real":
        place = REAL
        point_half = find_real_point_with_invariant(P, INV_HALF, seed=seed)
        point_zero = find_real_point_with_invariant(P, INV_ZERO, seed=seed)
    else:
        place = normalize_place(strategy)
        point_zero = point_half = None
        for t, *_ in P.coordinate_members:
            lifts = lift_to_y(P, t, place)
            if not lifts:
                continue
            inv = evaluate_invariant(P, lifts[0])
            if inv == INV_ZERO and point_zero is None:
                point_zero = lifts[0]
            elif inv == INV_HALF and point_half is None:
                point_half = lifts[0]
            if point_zero is not None and point_half is not None:
                break
        if point_zero is None or point_half is None:
            raise RuntimeError(
                "could not realize both invariants at p=%s among the "
                "distinguished members" % place)

    witnesses = []
    notes = {}
    rat = _rational_y_point(P)
    if rat is not None:
        t, rank, disc = rat
        witnesses.append({
            "type": "global-rational-point",
            "t": [int(x) for x in t],
            "rank": rank,
            "disc": None if disc is None else int(disc),
            "covers": "all places",
        })
        notes["local_solubility"] = (
            "Y has a rational point over the recorded singular member, so "
            "it is everywhere locally soluble")
    else:
        raise RuntimeError(
            "no rational Y-point among distinguished members; per-place "
            "witness assembly for general pencils is not attempted")

    cert = WACertificate(place=place, point_zero=point_zero,
                         point_half=point_half, witnesses=witnesses,
                         regularity=regularity,
                         pencil_lines=P.to_lines(), notes=notes)
    if not cert.validate(P):
        raise AssertionError("certificate failed self-validation")
    return cert
