"""Density of pencils with trivial Brauer evaluation at all finite primes.

Everything here is a piece of the sieve argument: Grassmannian point
counts over F_p, the per-prime failure bound b(p), the certified Euler
product lower bound, membership scans for the bad sets S_p, the exhaustive
census of pointless quadrics at p = 2, 3, and the Monte Carlo harness
sampling random integral frames.

All bound arithmetic is exact rational; numpy enters only for finite-field
scans where every intermediate value is a small integer held exactly.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .linalg import fp_rank, is_prime
from .quadform import (_COEFF_INDEX, COEFF_ORDER, QuadricForm,
                       has_smooth_point_fq)
from .roots import poly_eval


def primes_below(M):
    sieve = bytearray([1]) * M if M > 0 else bytearray()
    out = []
    for n in range(2, M):
        if sieve[n]:
            out.append(n)
            for m in range(n * n, M, n):
                sieve[m] = 0
    return out


def gaussian_count(k, n, p):
    """Number of F_p-points of the Grassmannian Gr(k, n) of projective
    k-planes in P^n (the Gaussian binomial [n+1 choose k+1]_p)."""
    if not (0 <= k <= n):
        raise ValueError("need 0 <= k <= n")
    if not is_prime(p):
        raise ValueError("p must be prime")
    num = den = 1
    for i in range(k + 1):
        num *= p ** (n + 1 - i) - 1
        den *= p ** (i + 1) - 1
    assert num % den == 0
    return num // den


def pointless_quadric_count(p):
    """#B_p: quadrics in P^14(F_p) with no smooth F_p-point, by the
    double-plane + conjugate-plane-pair decomposition."""
    return (gaussian_count(3, 4, p)
            + gaussian_count(2, 4, p) * (p * p - p) // 2)


def b_of_p(p):
    """Upper bound for the fraction of 4-planes mod p meeting the bad set:
    the closed form (p^8+p^6+2p^4+p^3+2p^2+p+2) / (2p^10+2p^5+2)."""
    num = p**8 + p**6 + 2 * p**4 + p**3 + 2 * p**2 + p + 2
    den = 2 * p**10 + 2 * p**5 + 2
    return Fraction(num, den)


def b_of_p_counting(p):
    """The same bound along the counting route; equality with the closed
    form is a test invariant."""
    return Fraction(gaussian_count(3, 13, p) * pointless_quadric_count(p),
                    gaussian_count(4, 14, p))


# p^2 b(p) as a rational function of p: numerator and denominator
_F_NUM = [0, 0, 2, 1, 2, 1, 2, 0, 1, 0, 1]   # p^2 * (closed-form numerator)
_F_DEN = [2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2]


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_shift(coeffs, h):
    """Coefficients of f(m + h) given those of f(n)."""
    out = [0] * len(coeffs)
    for c in reversed(coeffs):
        # multiply current out by (m + h) and add c
        new = [0] * len(out)
        for i, v in enumerate(out[:-1]):
            new[i + 1] += v
        for i, v in enumerate(out):
            new[i] += v * h
        new[0] += c
        out = new
    return out


def certify_p2b_decreasing():
    """Certify symbolically that f(n) = n^2 b(n) is strictly decreasing for
    real n >= 3 and bounded below by 1/2.

    Both claims reduce to integer polynomials being positive for n >= 3,
    which is certified by nonnegativity of every coefficient after the
    substitution n -> m + 3 (plus positivity at m = 0).
    """
    # D(n) = num(n) den(n+1) - num(n+1) den(n) must be > 0 for n >= 3
    num_shift = _poly_shift(_F_NUM, 1)
    den_shift = _poly_shift(_F_DEN, 1)
    D = [a - b for a, b in zip(_poly_mul(_F_NUM, den_shift),
                               _poly_mul(num_shift, _F_DEN))]
    D3 = _poly_shift(D, 3)
    if any(c < 0 for c in D3) or poly_eval(D, 3) <= 0:
        return False
    # E(n) = 2 num(n) - den(n) > 0 gives f(n) > 1/2
    E = [2 * a - b for a, b in zip(_F_NUM + [0] * len(_F_DEN), _F_DEN
                                   + [0] * len(_F_NUM))][:max(len(_F_NUM),
                                                              len(_F_DEN))]
    E3 = _poly_shift(E, 3)
    if any(c < 0 for c in E3) or poly_eval(E, 3) <= 0:
        return False
    return True


@dataclass
class DensityReport:
    cutoff: int
    partial_product: Fraction
    tail_bound: Fraction
    final_bound: Fraction
    per_prime: list                    # [(p, b(p))]
    monotonicity_certified: bool

    def as_json(self):
        return {
            "cutoff": self.cutoff,
            "partial_product": str(self.partial_product),
            "partial_product_float": float(self.partial_product),
            "tail_bound": str(self.tail_bound),
            "final_bound": str(self.final_bound),
            "final_bound_float": float(self.final_bound),
            "per_prime": [[p, str(b)] for p, b in self.per_prime],
            "monotonicity_certified": self.monotonicity_certified,
        }


def product_lower_bound(M):
    """Certified rational lower bound for prod_p (1 - b(p)).

    The partial product runs over primes below M exactly; the tail over
    p >= M is bounded using sum 1/n^2 < 1/(M-1) and the certified
    monotonicity of n^2 b(n), whose value at M therefore dominates every
    later p^2 b(p)."""
    if M < 100:
        raise ValueError("cutoff must be at least 100")
    mono = certify_p2b_decreasing()
    if not mono:
        raise AssertionError("monotonicity certificate failed; "
                             "tail bound would be unsound")
    per_prime = [(p, b_of_p(p)) for p in primes_below(M)]
    partial = Fraction(1)
    for _, b in per_prime:
        partial *= 1 - b
    c = M * M * b_of_p(M)  # f is decreasing, so this dominates the tail
    tail = 1 - c / (M - 1)
    if tail < 0:
        tail = Fraction(0)
    return DensityReport(cutoff=M, partial_product=partial, tail_bound=tail,
                         final_bound=partial * tail, per_prime=per_prime,
                         monotonicity_certified=mono)


# ---------------------------------------------------------------------------
# finite-field scan helpers (vectorized)


_REPS_CACHE = {}


def _projective_reps_matrix(p):
    """All points of P^4(F_p) as float32 rows, first nonzero coordinate 1.
    Entries are below p, so float32 holds them exactly.  The table is
    stored column by column, the layout in which a matvec against it is
    fastest."""
    if p not in _REPS_CACHE:
        blocks = []
        for lead in range(5):
            free = 4 - lead
            count = p ** free
            block = np.zeros((5, count), dtype=np.float32)
            block[lead] = 1
            r = np.arange(count)
            for k in range(free):
                block[lead + 1 + k] = r % p
                r = r // p
            blocks.append(block)
        _REPS_CACHE[p] = np.concatenate(blocks, axis=1).T
    return _REPS_CACHE[p]


def _point_eval_matrices(p):
    """Evaluation table over F_p for quadrics given by 15 coefficients.

    Returns (points, W) where W is a (15, 6*npts) int8 matrix: C @ W gives,
    per point, the quadric value followed by the five partials.  Entries
    stay below p, so int8/int16 accumulation over 15 terms is exact."""
    pts = _projective_reps_matrix(p)
    npts = pts.shape[0]
    W = np.zeros((15, 6 * npts), dtype=np.int8)
    for m, (i, j) in enumerate(COEFF_ORDER):
        W[m, 0::6] = pts[:, i] * pts[:, j] % p
        for k in range(5):
            if i == j:
                if k == i and p != 2:
                    W[m, k + 1::6] = 2 * pts[:, i] % p
                # char 2: the square terms drop out of every partial
            else:
                if k == i:
                    W[m, k + 1::6] = pts[:, j] % p
                elif k == j:
                    W[m, k + 1::6] = pts[:, i] % p
    return pts, W


_EVAL_CACHE = {}


def _cached_eval(p):
    if p not in _EVAL_CACHE:
        _EVAL_CACHE[p] = _point_eval_matrices(p)
    return _EVAL_CACHE[p]


def _no_smooth_point_mask(C, p):
    """Boolean mask over quadric coefficient rows C: True when the quadric
    has no smooth F_p-point.  Direct evaluation over all points of P^4."""
    pts, W = _cached_eval(p)
    npts = pts.shape[0]
    # int16 accumulators: products < p^2 <= 4, summed over 15 monomials
    vg = (C.astype(np.int16) @ W.astype(np.int16)) % p
    vg = vg.reshape(C.shape[0], npts, 6)
    smooth = (vg[:, :, 0] == 0) & (vg[:, :, 1:] != 0).any(axis=2)
    return ~smooth.any(axis=1)


# Largest prime the S_p scan accepts.  The rank <= 2 screen computes each
# Gram entry of B(t) as a float32 matvec of five products below p^2, exact
# while 5(p-1)^2 < 2^24.  Each 3x3 minor is three int32 terms a*(b*c - d*e)
# of entries in [0, p), so its size stays below 3(p-1)^3, exact while
# 3(p-1)^3 < 2^31.  Both hold up to p = 887; the cap is lower because the
# point table of P^4(F_p) takes 20 p^4 bytes, already about 18 GB at 173.
_F32_MAX_PRIME = 173


def _check_f32_window(p):
    if p > _F32_MAX_PRIME:
        raise ValueError("p = %d is above %d, the largest prime the float32 "
                         "scans accept" % (p, _F32_MAX_PRIME))


_TRIPLES = [(a, b, c) for a in range(5) for b in range(a + 1, 5)
            for c in range(b + 1, 5)]


def _rank_le2_indices(A, p):
    """Indices of member quadrics whose Gram matrix mod p has rank <= 2
    (odd p): the points of P^4(F_p) where every 3x3 minor of B(t)
    vanishes.

    The 55 minors are evaluated in turn on the members still alive.  A
    Gram entry is computed when a minor first needs it, as a float32
    matvec of the alive points against the generators' column reduced
    through int32, and is filtered with the alive points after each
    minor.  Exact for p <= _F32_MAX_PRIME."""
    T = _projective_reps_matrix(p)
    idx = np.arange(T.shape[0])
    gram = {}

    def B(i, j):
        key = (i, j) if i <= j else (j, i)
        if key not in gram:
            col = A[:, _COEFF_INDEX[key]] * (2 if i == j else 1) % p
            gram[key] = (T @ col.astype(np.float32)).astype(np.int32) % p
        return gram[key]

    for a, b, c in _TRIPLES:
        for d, e, f in _TRIPLES:
            if (d, e, f) < (a, b, c):
                continue
            m = (B(a, d) * (B(b, e) * B(c, f) - B(b, f) * B(c, e))
                 - B(a, e) * (B(b, d) * B(c, f) - B(b, f) * B(c, d))
                 + B(a, f) * (B(b, d) * B(c, e) - B(b, e) * B(c, d)))
            # fmod: divisibility ignores the sign, and it is cheaper than %
            keep = np.flatnonzero(np.fmod(m, p) == 0)
            idx, T = idx[keep], T[keep]
            gram = {key: v[keep] for key, v in gram.items()}
            if not idx.size:
                return idx
    return idx


@dataclass
class SpScanResult:
    member: bool
    witness: tuple | None = None
    degenerate_frame: bool = False

    def as_json(self):
        return {"member": self.member,
                "witness": None if self.witness is None
                else [int(x) for x in self.witness],
                "degenerate_frame": self.degenerate_frame}


def sp_member(P, p, coeff_rows=None):
    """Is the pencil's reduction mod p in S_p?

    S_p holds the planes containing a member quadric with no smooth
    F_p-point.  All (p^5-1)/(p-1) members are scanned.  A frame whose five
    generators become dependent mod p is reported as degenerate and, per
    the frame-space convention, counted outside S_p."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    _check_f32_window(p)
    if coeff_rows is None:
        coeff_rows = np.array([Q.coeffs for Q in P.quadrics], dtype=np.int64)
    A = np.mod(coeff_rows, p)
    if fp_rank(A, p) < 5:
        return SpScanResult(member=False, degenerate_frame=True)
    idx = _sp_member_rows(A, p)
    if idx is None:
        return SpScanResult(member=False)
    T = _projective_reps_matrix(p)
    return SpScanResult(member=True,
                        witness=tuple(int(x) for x in T[idx]))


# ---------------------------------------------------------------------------
# census of pointless quadrics over F_2 and F_3


def census_bp(p, progress=None, workers=None):
    """Count quadrics in P^14(F_p) with no smooth F_p-point by exhaustive
    enumeration (p in {2, 3}).  Must reproduce the #B_p formula."""
    if p not in (2, 3):
        raise ValueError("census is desk-scale only: p in {2, 3}")
    if workers is None:
        workers = default_workers()
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=workers)
    else:
        pool = nullcontext()
    total = 0
    with pool as ex:
        counts = (ex.map if ex else map)(
            _census_block, [(lead, p) for lead in range(15)])
        for done, count in enumerate(counts, 1):
            total += count
            if progress:
                progress.write("census p=%d: lead block %d/15 done "
                               "(running total %d)\n" % (p, done, total))
                progress.flush()
    return total


def _census_block(args):
    """Count pointless quadrics whose first nonzero coefficient sits at
    ``lead`` (canonical projective representatives, coefficient = 1)."""
    lead, p = args
    free = 14 - lead
    total = p ** free
    count = 0
    chunk = 1 << 16
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        n = stop - start
        C = np.zeros((n, 15), dtype=np.int64)
        C[:, lead] = 1
        r = np.arange(start, stop)
        for k in range(free):
            C[:, lead + 1 + k] = r % p
            r = r // p
        count += int(_no_smooth_point_mask(C, p).sum())
    return count


# ---------------------------------------------------------------------------
# Monte Carlo over integral frames


@dataclass
class MonteCarloReport:
    height: int
    cutoff: int
    samples: int
    seed: int
    passes: int
    estimate: Fraction | None
    std_radius: float | None            # one binomial standard deviation
    ci95_radius: float | None
    reference_product: Fraction
    per_prime_failures: dict = field(default_factory=dict)

    def as_json(self):
        return {
            "height": self.height, "cutoff": self.cutoff,
            "samples": self.samples, "seed": self.seed,
            "passes": self.passes,
            "estimate": None if self.estimate is None else str(self.estimate),
            "estimate_float": None if self.estimate is None
            else float(self.estimate),
            "std_radius": self.std_radius,
            "ci95_radius": self.ci95_radius,
            "reference_product": str(self.reference_product),
            "reference_product_float": float(self.reference_product),
            "per_prime_failures": {str(k): v for k, v
                                   in self.per_prime_failures.items()},
        }


def monte_carlo_density(height, cutoff, samples, seed=0):
    """Sample random 5x15 integer frames of the given height and measure
    how often no prime p <= cutoff puts the reduction inside pi^-1(S_p).

    b(p) only bounds the per-prime failure rate from above, so the
    estimate is compared one-sidedly against prod (1 - b(p)) by the
    caller.  Fixed seeds give bit-identical reports."""
    if height < 2 and samples:
        raise ValueError("height must be at least 2")
    ps = primes_below(cutoff + 1)
    if ps:
        _check_f32_window(ps[-1])
    reference = Fraction(1)
    for p in ps:
        reference *= 1 - b_of_p(p)
    rng = np.random.default_rng(seed)
    passes = 0
    per_prime = {p: 0 for p in ps}
    for _ in range(samples):
        F = rng.integers(-height, height + 1, size=(5, 15))
        ok = True
        for p in ps:
            A = np.mod(F, p)
            if fp_rank(A, p) < 5:
                continue  # degenerate frame: outside pi^-1(S_p)
            if _sp_member_rows(A, p) is not None:
                per_prime[p] += 1
                ok = False
                break
        if ok:
            passes += 1
    estimate = Fraction(passes, samples) if samples else None
    std = None
    ci = None
    if samples:
        ph = passes / samples
        std = (ph * (1 - ph) / samples) ** 0.5
        ci = 1.96 * std
    return MonteCarloReport(height=height, cutoff=cutoff, samples=samples,
                            seed=seed, passes=passes, estimate=estimate,
                            std_radius=std, ci95_radius=ci,
                            reference_product=reference,
                            per_prime_failures=per_prime)


def _sp_member_rows(A, p):
    """S_p scan core for a coefficient matrix reduced mod p with full rank.

    Returns the index of a bad member (no smooth F_p-point), or None.
    Odd p: the rank <= 2 screen leaves a handful of candidates that get
    the exact split/nonsplit classification.  p = 2: direct evaluation."""
    T = _projective_reps_matrix(p)
    if p == 2:
        C = np.mod(T @ A, 2)
        bad = _no_smooth_point_mask(C, 2)
        hits = np.nonzero(bad)[0]
        return int(hits[0]) if hits.size else None
    for i in _rank_le2_indices(A, p):
        coeffs = [int(x) % p for x in (T[int(i)] @ A)]
        Q = QuadricForm(coeffs)
        if Q.is_zero():
            continue  # cannot happen for nondegenerate frames
        if not has_smooth_point_fq(Q, p):
            return int(i)
    return None


def default_workers():
    try:
        return max(1, int(os.environ.get("SYMMETROID_WORKERS", "1")))
    except ValueError:
        return 1
