"""Density of pencils with trivial Brauer evaluation at all finite primes.

Everything here is a piece of the sieve argument: Grassmannian point
counts over F_p, the per-prime failure bound b(p), the certified Euler
product lower bound, membership scans for the bad sets S_p, the exhaustive
census of pointless quadrics at p = 2, 3, and the Monte Carlo harness
sampling random integral frames.

All bound arithmetic is exact rational; numpy enters only for finite-field
scans where every intermediate value is a small integer held exactly.
For odd p the S_p scan never tabulates P^4(F_p): a member without a
smooth point has Gram rank <= 2, and those members are read off the
kernels of p^2 + p + 1 small matrices, one per point of a fixed plane
(see "finite-field scans" below), so a frame costs O(p^2) and primes up
to _MAX_PRIME = 1000 are scanned.  The Monte Carlo harness runs that scan
prime by prime on every frame still alive, in batches.  Only p = 2 and
the census (p = 2, 3) evaluate quadrics at every point of P^4(F_p), with
a float32 GEMM.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .linalg import _echelon_mod_p, fp_rank, is_prime, laplace_minors
from .quadform import COEFF_ORDER, QuadricForm, has_smooth_point_fq
from .roots import poly_eval_scaled, poly_interpolate


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


# p^2 b(p) as a rational function of p: numerator and denominator
_F_NUM = [0, 0, 2, 1, 2, 1, 2, 0, 1, 0, 1]   # p^2 * (closed-form numerator)
_F_DEN = [2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2]


def certify_p2b_decreasing():
    """Certify symbolically that f(n) = n^2 b(n) is strictly decreasing for
    real n >= 3 and bounded below by 1/2.

    Both claims reduce to integer polynomials g being positive for n >= 3,
    which is certified by nonnegativity of every coefficient of g(m + 3)
    (plus positivity at m = 0).  Those coefficients are interpolated from
    the values g(3), g(4), ..., one more than the degree bound of g.
    """
    def num(n):
        return poly_eval_scaled(_F_NUM, n)

    def den(n):
        return poly_eval_scaled(_F_DEN, n)

    # D(n) = num(n) den(n+1) - num(n+1) den(n) > 0 makes f decreasing;
    # E(n) = 2 num(n) - den(n) > 0 gives f(n) > 1/2
    D = [num(n) * den(n + 1) - num(n + 1) * den(n)
         for n in range(3, 2 + len(_F_NUM) + len(_F_DEN))]
    E = [2 * num(n) - den(n)
         for n in range(3, 3 + max(len(_F_NUM), len(_F_DEN)))]
    return all(values[0] > 0 and min(poly_interpolate(values)) >= 0
               for values in (D, E))


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
# finite-field scans
#
# A member t of the pencil is the quadric sum t_i Q_i, with Gram matrix
# (Hessian) B(t) = sum t_i B_i.  Over odd p a member without a smooth
# F_p-point has rank <= 2, so its kernel has dimension >= 3 and meets the
# plane W = <e0, e1, e2>: B(t) x = 0 for some x in P(W)(F_p).  Since
# B(t) x = M(x) t with M(x) = [B_0 x | ... | B_4 x], every such t lies in
# the kernel of one of the p^2 + p + 1 matrices M(x), and the S_p scan
# looks for members there instead of over all of P^4(F_p).
#
# Residues are int64, and ``laplace_minors`` forms minors of residue
# matrices without reduction: for entries in [0, p) a k x k one stays
# below k! (p - 1)^k in size, and a plane matrix entry below 3 (p - 1)^2,
# so everything is exact while 5! (p - 1)^5 < 2^63, that is for
# p <= 2381.  The scans stop lower, at _MAX_PRIME, a desk-scale cap: one
# frame costs p^2 + p + 1 plane matrices, about a million at the cap and
# a second of work.

_MAX_PRIME = 1000
_PAIRS = 1 << 15          # (frame, plane point) pairs per batch of M(x)
_BLOCK = 4096             # Monte Carlo frames drawn at once


def _check_prime(p):
    if p > _MAX_PRIME:
        raise ValueError("p = %d is above %d, the largest prime the S_p "
                         "scans accept" % (p, _MAX_PRIME))


def _block_starts(p, n):
    """Table positions where the points of P^(n-1)(F_p) with first nonzero
    coordinate 0, 1, ..., n - 1 begin, followed by their number."""
    return np.cumsum([0] + [p ** (n - 1 - lead) for lead in range(n)])


def _projective_points(p, n=5, start=0, stop=None):
    """The points of P^(n-1)(F_p) at positions start..stop of the table
    order (all of them by default), as int64 rows whose first nonzero
    coordinate is 1.  Table order: by the position of that 1, then by the
    coordinates after it read as base-p digits, the first one lowest."""
    starts = _block_starts(p, n)
    idx = np.arange(start, starts[-1] if stop is None else stop)
    lead = np.searchsorted(starts, idx, side="right")[:, None] - 1
    digit = np.arange(n) - lead - 1         # coordinate c is digit c-lead-1
    r = (idx - starts[lead[:, 0]])[:, None]
    return np.where(digit >= 0, r // p ** np.maximum(digit, 0) % p,
                    digit == -1)


def _table_index(t, p):
    """Positions in the table order of P^4(F_p) of the rows of t, each
    with first nonzero coordinate 1."""
    lead = np.argmax(t != 0, axis=1)
    digit = np.arange(5) - lead[:, None] - 1
    weight = np.where(digit >= 0, p ** np.maximum(digit, 0), 0)
    return _block_starts(p, 5)[lead] + (t * weight).sum(axis=1)


def _normalize(t, p):
    """The rows of t (nonzero residues) scaled to first nonzero entry 1."""
    first = t[np.arange(len(t)), np.argmax(t != 0, axis=1)]
    vals, pos = np.unique(first, return_inverse=True)
    inv = np.array([pow(int(v), -1, p) for v in vals], dtype=np.int64)
    return t * inv[pos.reshape(-1)][:, None] % p


def _gram_stack(A, p):
    """Gram matrices mod p of the generators: G[..., i, :, :] is B_i of
    the frame A[...] (rows of 15 coefficients)."""
    G = np.empty(A.shape[:-1] + (5, 5), dtype=np.int64)
    for m, (i, j) in enumerate(COEFF_ORDER):
        G[..., i, j] = G[..., j, i] = A[..., m] * (2 if i == j else 1) % p
    return G


def _kernel_mod_p(M, p):
    """A basis (rows) of the right kernel of the residue matrix M."""
    R = M.astype(np.int64)
    pivots = _echelon_mod_p(R, p, reduced=True)
    free = [c for c in range(M.shape[1]) if c not in pivots]
    K = np.zeros((len(free), M.shape[1]), dtype=np.int64)
    for k, c in enumerate(free):
        K[k, c] = 1
        K[k, pivots] = -R[:len(pivots), c] % p
    return K


def _adjugate_column(minors, r):
    """Column r of the adjugate of a batch of 5x5 matrices, from their 4x4
    minors on the rows other than r."""
    return np.stack([(-1) ** (r + j) * minors[tuple(c for c in range(5)
                                                   if c != j)]
                     for j in range(5)])


def _rank_le2(B, p):
    """Mask of the matrices of the batch B (``B[r, c]`` the array of (r, c)
    entries, residues) of rank <= 2 mod p: every 3x3 minor vanishes."""
    keep = np.ones(B.shape[2], dtype=bool)
    for rows in combinations(range(5), 3):
        for m in laplace_minors(B, rows).values():
            keep &= m % p == 0
    return keep


def _rank_le2_members(A, p):
    """Members of Gram rank <= 2 mod p (odd p) of the frames A (frames x
    5 x 15 residues): (frames, t), sorted by frame and then by table
    order, t with first nonzero coordinate 1.

    M(x) is formed for a batch of (frame, point) pairs at a time, and its
    determinant from the cofactors along row 0.  When rank M(x) = 4 every
    nonzero column of its adjugate spans the kernel, and the first one is
    taken.  When rank M(x) <= 3 the adjugate vanishes; those M(x) get an
    echelon form, and each distinct kernel, of dimension k, is enumerated:
    (p^k - 1)/(p - 1) candidates.  Random frames rarely need this; k = 5
    means that every generator is singular at x, and then the scan costs
    p^4.  A candidate t is kept when B(t) has rank <= 2; candidates are
    tested a batch at a time."""
    G = _gram_stack(A, p)
    n = p * p + p + 1
    hits, pending, seen = [], [], set()
    held = 0

    def hold(f, t):
        nonlocal held
        pending.append((f, t))
        held += len(t)
        if held >= _PAIRS:
            check()

    def check():
        nonlocal held
        f = np.concatenate([f for f, _ in pending])
        t = np.concatenate([t for _, t in pending])
        pending.clear()
        held = 0
        keep = _rank_le2(np.einsum("ci,cirs->rsc", t, G[f]) % p, p)
        hits.append((f[keep], t[keep]))

    step = max(1, _PAIRS // n)
    for f0 in range(0, len(G), step):
        Gc = G[f0:f0 + step, :, :, :3].transpose(2, 1, 0, 3)  # r, i, f, c
        for x0 in range(0, n, _PAIRS):
            X = _projective_points(p, 3, x0, min(n, x0 + _PAIRS))
            M = (Gc @ X.T % p).reshape(5, 5, -1)   # M[r, i, (f, x)]
            K = _adjugate_column(laplace_minors(M, (1, 2, 3, 4)), 0)
            sing = np.flatnonzero((M[0] * K).sum(axis=0) % p == 0)
            K, M = K[:, sing] % p, M[:, :, sing]
            for r in range(1, 5):
                # where adjugate columns 0..r-1 vanish, try column r
                todo = np.flatnonzero(~K.any(axis=0))
                if not todo.size:
                    break
                rows = tuple(i for i in range(5) if i != r)
                K[:, todo] = _adjugate_column(
                    laplace_minors(M[:, :, todo], rows), r) % p
            f = f0 + sing // len(X)
            found = K.any(axis=0)
            hold(f[found], _normalize(K[:, found].T, p))
            for fr, Mx in zip(f[~found], M[:, :, ~found].transpose(2, 0, 1)):
                basis = _kernel_mod_p(Mx, p)
                if (fr, basis.tobytes()) in seen:
                    continue
                seen.add((fr, basis.tobytes()))
                total = _block_starts(p, len(basis))[-1]
                for s in range(0, total, _PAIRS):
                    c = _projective_points(p, len(basis), s,
                                           min(total, s + _PAIRS))
                    hold(np.full(len(c), fr), _normalize(c @ basis % p, p))
    if pending:
        check()
    f = np.concatenate([f for f, _ in hits])
    t = np.concatenate([t for _, t in hits])
    order = np.unique(np.stack([f, _table_index(t, p)], axis=1), axis=0,
                      return_index=True)[1]
    return f[order], t[order]


def _bad_members(A, p):
    """For each full-rank frame of A (frames x 5 x 15 residues mod p) the
    first member in table order with no smooth F_p-point, as a tuple, or
    None.  Odd p: the rank <= 2 members get the exact split/non-split
    classification.  p = 2: direct evaluation over P^4(F_2)."""
    out = [None] * len(A)
    if not out:
        return out
    if p == 2:
        T = _projective_points(2)
        bad = _no_smooth_point_mask((T @ A % 2).reshape(-1, 15), 2)
        bad = bad.reshape(len(A), len(T))
        for f in np.flatnonzero(bad.any(axis=1)):
            out[f] = tuple(T[np.argmax(bad[f])].tolist())
        return out
    for f, t in zip(*_rank_le2_members(A, p)):
        if out[f] is None and not has_smooth_point_fq(
                QuadricForm(t @ A[f] % p), p):
            out[f] = tuple(t.tolist())
    return out


def _full_rank(A, p):
    """Mask of the frames of A (residues mod p) whose five rows are
    independent.  A nonzero 5x5 minor on one of three column blocks proves
    it; fp_rank decides the frames where all three vanish."""
    M = A.transpose(1, 2, 0)
    full = np.zeros(len(A), dtype=bool)
    for c in (0, 5, 10):
        todo = np.flatnonzero(~full)
        det = laplace_minors(M[:, c:c + 5, todo],
                             range(5))[tuple(range(5))]
        full[todo[det % p != 0]] = True
    for f in np.flatnonzero(~full):
        full[f] = fp_rank(A[f], p) == 5
    return full


_EVAL_CACHE = {}


def _cached_eval(p):
    """Evaluation table over F_p for quadrics given by 15 coefficients:
    a (15, 6 * #P^4(F_p)) float32 matrix W such that C @ W gives, per
    point, the quadric value followed by the five partials."""
    if p not in _EVAL_CACHE:
        pts = _projective_points(p)
        W = np.zeros((15, len(pts), 6), dtype=np.float32)
        for m, (i, j) in enumerate(COEFF_ORDER):
            W[m, :, 0] = pts[:, i] * pts[:, j] % p
            if i != j:
                W[m, :, i + 1] = pts[:, j]
                W[m, :, j + 1] = pts[:, i]
            elif p != 2:
                W[m, :, i + 1] = 2 * pts[:, i] % p
            # char 2: the square terms drop out of every partial
        _EVAL_CACHE[p] = W.reshape(15, -1)
    return _EVAL_CACHE[p]


def _no_smooth_point_mask(C, p):
    """Boolean mask over quadric coefficient rows C (residues): True when
    the quadric has no smooth F_p-point.  Direct evaluation over all
    points of P^4 with a float32 GEMM, exact while every sum of 15
    products below p^2 is an integer float32 holds; the sums are reduced
    through an int32 cast, about 2^22 of them at a time.  Most quadrics
    show a smooth point among the first 16 points, so the other points
    are tried only on the rows left."""
    if 15 * (p - 1) ** 2 >= 1 << 24:
        raise ValueError("p = %d is past the float32 evaluation window" % p)
    W = _cached_eval(p)
    bad = np.ones(len(C), dtype=bool)
    for Wc in (W[:, :6 * 16], W[:, 6 * 16:]):
        rows = np.flatnonzero(bad)
        step = max(1, (1 << 22) // Wc.shape[1])
        for s in range(0, len(rows), step):
            r = rows[s:s + step]
            v = C[r].astype(np.float32) @ Wc
            zero = (v.astype(np.int32) % p == 0).reshape(len(r), -1, 6)
            smooth = zero[:, :, 0] & ~zero[:, :, 1:].all(axis=2)
            bad[r[smooth.any(axis=1)]] = False
    return bad


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


def sp_member(P, p):
    """Is the pencil's reduction mod p in S_p?

    S_p holds the planes containing a member quadric with no smooth
    F_p-point; the witness is the first such member in table order.  A
    frame whose five generators become dependent mod p is reported as
    degenerate and, per the frame-space convention, counted outside S_p."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    _check_prime(p)
    A = np.mod(np.array([Q.coeffs for Q in P.quadrics], dtype=np.int64), p)
    if fp_rank(A, p) < 5:
        return SpScanResult(member=False, degenerate_frame=True)
    witness = _bad_members(A[None], p)[0]
    return SpScanResult(member=witness is not None, witness=witness)


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
    caller.  Fixed seeds give bit-identical reports.  Frames are drawn
    _BLOCK at a time, the same stream as one draw per frame, and each
    prime is scanned on all frames still alive at once; a frame leaves at
    its first failing prime."""
    if height < 2 and samples:
        raise ValueError("height must be at least 2")
    ps = primes_below(cutoff + 1)
    if ps:
        _check_prime(ps[-1])
    reference = Fraction(1)
    for p in ps:
        reference *= 1 - b_of_p(p)
    rng = np.random.default_rng(seed)
    passes = 0
    per_prime = {p: 0 for p in ps}
    # one draw of a block gives the frames one draw per frame would give
    for start in range(0, samples, _BLOCK):
        F = rng.integers(-height, height + 1,
                         size=(min(_BLOCK, samples - start), 5, 15))
        for p in ps:
            A = np.mod(F, p)
            # a degenerate frame is outside pi^-1(S_p) and stays alive
            full = np.flatnonzero(_full_rank(A, p))
            bad = np.array([w is not None for w in _bad_members(A[full], p)],
                           dtype=bool)
            per_prime[p] += int(bad.sum())
            F = np.delete(F, full[bad], axis=0)
        passes += len(F)
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


def default_workers():
    try:
        return max(1, int(os.environ.get("SYMMETROID_WORKERS", "1")))
    except ValueError:
        return 1
