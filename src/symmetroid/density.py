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
kernels of the singular ones among p^2 + p + 1 small matrices M(x), one
per point x of a fixed plane.  det M(x) is a quintic in x, so for p >= 7
M(x) is formed at 21 points, where the quintic is interpolated, and at
its zeros only (see "finite-field scans" below).  A frame costs O(p^2)
small integer operations, and primes up to _MAX_PRIME = 1000 are
scanned.  The Monte Carlo harness runs that scan prime by prime on every
frame still alive, in batches.  Only p = 2 and the census (p = 2, 3)
evaluate quadrics at every point of P^4(F_p), with float32 GEMMs whose
slices are reduced in place, one bounded slice at a time.
The rare M(x) of rank <= 3 take their kernels from ``linalg.nullspace``
over GF(p).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, perm

import numpy as np

from .gf import GF, _block_starts, projective_points
from .linalg import (_limit, _reduce, fp_rank, is_prime, laplace_minors,
                     nullspace)
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
# looks for members there instead of over all of P^4(F_p).  Only the x
# with det M(x) = 0 matter, and det M(x) is a ternary quintic in x: for
# p >= 7 its 21 coefficients come from its values at 21 points, and M(x)
# is formed there and at its zeros only.  Each candidate t carries the
# leading index l of its x (x_l = 1).  Since B(t) x = 0 and B(t) is
# symmetric, row and column l of B(t) are combinations of the others, so
# B(t) has the rank of its 4 x 4 principal block off l, and the 16 3x3
# minors of that block decide rank <= 2.
#
# Residues are int64, and ``laplace_minors`` forms minors of residue
# matrices without reduction: for entries in [0, p) a k x k one and every
# partial sum of its terms stay below k! (p - 1)^k in size, so everything
# is exact while 5! (p - 1)^5 < 2^63, that is for p <= 2381.  The scans
# stop lower, at _MAX_PRIME, a desk-scale cap: one frame costs
# p^2 + p + 1 quintic values, about a million at the cap.

_MAX_PRIME = 1000
_PAIRS = 1 << 15          # (frame, plane point) pairs per batch
_BLOCK = 4096             # Monte Carlo frames drawn at once
_PREFILTER = (0, 3, 4)    # rows and columns of the first rank <= 2 minor

# the points (1, a, b) with a + b <= 5 where det M(x) is interpolated, and
# the monomials a^i b^j of the quintic on the chart x0 = 1, in that order
_QUINTIC = [(i, j) for i in range(6) for j in range(6 - i)]
# Newton's formula on them: N takes a quintic's values to its differences
# at (0, 0), S the falling factorials (x)_u (y)_v to the monomials
_FALLING = [poly_interpolate([perm(k, u) for k in range(6)]) + [0] * (5 - u)
            for u in range(6)]
_NEWTON_S = np.array([[_FALLING[u][i] * _FALLING[v][j] for u, v in _QUINTIC]
                      for i, j in _QUINTIC])
_NEWTON_N = np.array([[(-1) ** (u + v + s + t) * comb(u, s) * comb(v, t)
                       for s, t in _QUINTIC] for u, v in _QUINTIC])

# the quintic's float64 products take residues in [0, p) with inner
# dimension at most 21: every sum stays below 21 (p - 1)^2 < 2^53
assert 21 * (_MAX_PRIME - 1) ** 2 < 1 << 53
# and the int64 minors of residues stay below 5! (p - 1)^5 < 2^63
assert factorial(5) * (_MAX_PRIME - 1) ** 5 < 1 << 63


def _check_prime(p):
    if p > _MAX_PRIME:
        raise ValueError("p = %d is above %d, the largest prime the S_p "
                         "scans accept" % (p, _MAX_PRIME))


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


def _adjugate_column(minors, r):
    """Column r of the adjugate of a batch of 5x5 matrices, from their 4x4
    minors on the rows other than r."""
    return np.stack([(-1) ** (r + j) * minors[tuple(c for c in range(5)
                                                   if c != j)]
                     for j in range(5)])


def _rank_le2(B, lead, p):
    """Mask of the matrices of the batch B (``B[r, c]`` the array of (r, c)
    entries, residues) of rank <= 2 mod p.  Each B(t) of the batch has a
    kernel vector x with x_l = 1, l = ``lead`` of its column: then row
    and column l are combinations of the others, so B(t) has the rank of
    its 4 x 4 principal block off l, and its 16 3x3 minors decide."""
    i = np.arange(B.shape[2])
    off = np.arange(4)[:, None]
    off = off + (off >= lead)                   # the indices other than l
    B = B[off[:, None], off[None, :], i]
    keep = np.ones(len(i), dtype=bool)
    for rows in combinations(range(4), 3):
        if not keep.any():
            break
        for m in laplace_minors(B, rows).values():
            keep &= m % p == 0
    return keep


def _det_mod_p(M, p):
    """Determinants mod p of a batch of 5x5 residue matrices M[r, c]."""
    return laplace_minors(M, range(5))[tuple(range(5))] % p


def _plane_matrices(G, X, p):
    """M(x) = [B_0 x | ... | B_4 x] mod p for every frame of the Gram
    stack G and every row x of X (points of the plane, three
    coordinates): M[r, i, (f, x)], frame-major."""
    M = G[:, :, :, :3].transpose(2, 1, 0, 3) @ X.T % p   # r, i, f, x
    return M.reshape(5, 5, -1)


def _vandermonde_inverse(p):
    """The inverse mod p (float64), p >= 7, of V[k, m] = a^i b^j, (a, b)
    the k-th and (i, j) the m-th entry of _QUINTIC, which takes the values
    at the points (1, a, b) to the coefficients: S diag(1/(u! v!)) N."""
    w = [pow(factorial(u) * factorial(v), -1, p) for u, v in _QUINTIC]
    return (_NEWTON_S * w % p @ _NEWTON_N % p).astype(np.float64)


def _plane_dets(G, p):
    """det M(x) mod p for the frames of the Gram stack G at the plane
    points of table positions s..e, as the function (s, e) -> array
    (frames, e - s).

    For p < 7 (13 and 31 points) M(x) is formed at each point.  For
    p >= 7 the quintic is interpolated once from the 21 points (1, a, b),
    a + b <= 5, and evaluated by float64 products: on the chart x0 = 1
    the points form a p x p grid, x1 the fast coordinate, whose values
    are (powers of x2) @ (coefficients in x1 evaluated at every x1); the
    line x0 = 0 and the point e2 take the top-degree coefficients."""
    if p < 7:
        return lambda s, e: _det_mod_p(_plane_matrices(
            G, projective_points(p, 3, s, e), p), p).reshape(len(G), -1)
    i, j = np.array(_QUINTIC).T
    X = np.stack([np.ones_like(i), i, j], axis=1)
    D = _det_mod_p(_plane_matrices(G, X, p), p).reshape(len(G), -1)
    C = np.zeros((len(G), 6, 6))                # C[f, i, j]: of x1^i x2^j
    C[:, i, j] = D @ _vandermonde_inverse(p).T % p
    powers = (np.arange(p) ** np.arange(6)[:, None] % p).astype(np.float64)
    H = C.transpose(0, 2, 1) @ powers % p       # H[f, j, x1]
    top = np.arange(6)
    ends = np.concatenate([C[:, 5 - top, top] @ powers, C[:, 0, 5:]],
                          axis=1) % p           # at (0, 1, b), then e2

    def values(s, e):
        r0, r1 = s // p, min(p, -(-e // p))     # grid rows x2 = r0..r1-1
        parts = []
        if r0 < r1:
            grid = powers[:, r0:r1].T @ H % p   # [f, x2, x1]
            parts.append(grid.reshape(len(G), -1))
        if e > p * p:
            parts.append(ends)
        base = min(r0, p) * p
        return np.concatenate(parts, axis=1)[:, s - base:e - base]

    return values


def _rank_le2_members(A, p):
    """Members of Gram rank <= 2 mod p (odd p) of the frames A (frames x
    5 x 15 residues): (frames, t), sorted by frame and then by table
    order, t with first nonzero coordinate 1.

    det M(x) is taken at every plane point by ``_plane_dets``, a batch of
    at most _PAIRS (frame, point) pairs at a time, and M(x) is formed
    only where it vanishes.  When rank M(x) = 4 every nonzero column of
    its adjugate spans the kernel, and the first one is taken.  When
    rank M(x) <= 3 the adjugate vanishes; those M(x) get a GF(p) nullspace,
    and each distinct kernel, of dimension k, is enumerated:
    (p^k - 1)/(p - 1) candidates.  Random frames rarely need this; k = 5
    means that every generator is singular at x, and then the scan costs
    p^4.  A candidate t, which carries the leading index l of its x, is
    kept when B(t) has rank <= 2.  Candidates are tested a batch at a
    time, first on the principal minor on _PREFILTER: B(t) x = 0 with x
    in the plane, so columns 0, 1, 2 of B(t) are dependent and a minor on
    them cannot fail, while one on columns 3 and 4 can.  Only the
    candidates it keeps get B(t) and the 16 3x3 minors of its principal
    block off l (``_rank_le2``)."""
    G = _gram_stack(A, p)
    G_pre = G[:, :, _PREFILTER][:, :, :, _PREFILTER]
    field = GF(p)
    n = p * p + p + 1
    empty = np.zeros((0, 5), dtype=np.int64)
    hits, pending, seen = [(empty[:, 0], empty)], [], set()
    held = 0

    def hold(f, t, lead):
        nonlocal held
        pending.append((f, t, lead))
        held += len(t)
        if held >= _PAIRS:
            check()

    def check():
        nonlocal held
        f, t, lead = (np.concatenate(a) for a in zip(*pending))
        pending.clear()
        held = 0
        pre = np.einsum("ci,cirs->rsc", t, G_pre[f]) % p
        live = laplace_minors(pre, range(3))[(0, 1, 2)] % p == 0
        f, t, lead = f[live], t[live], lead[live]
        keep = _rank_le2(np.einsum("ci,cirs->rsc", t, G[f]) % p, lead, p)
        hits.append((f[keep], t[keep]))

    step = max(1, _PAIRS // n)
    for f0 in range(0, len(G), step):
        Gf = G[f0:f0 + step]
        dets = _plane_dets(Gf, p)
        width = max(1, _PAIRS // len(Gf))
        for s in range(0, n, width):
            e = min(n, s + width)
            z = np.flatnonzero(dets(s, e) == 0)    # (frame, point), flat
            if not z.size:
                continue
            f = z // (e - s)
            X = projective_points(p, 3, idx=s + z % (e - s))
            lead = np.argmax(X != 0, axis=1)
            M = np.einsum("zirc,zc->riz", Gf[f, :, :, :3], X) % p
            f += f0
            K = _adjugate_column(laplace_minors(M, (1, 2, 3, 4)), 0) % p
            for r in range(1, 5):
                # where adjugate columns 0..r-1 vanish, try column r
                todo = np.flatnonzero(~K.any(axis=0))
                if not todo.size:
                    break
                rows = tuple(i for i in range(5) if i != r)
                K[:, todo] = _adjugate_column(
                    laplace_minors(M[:, :, todo], rows), r) % p
            found = K.any(axis=0)
            hold(f[found], _normalize(K[:, found].T, p), lead[found])
            for fr, l, Mx in zip(f[~found], lead[~found],
                                 M[:, :, ~found].transpose(2, 0, 1)):
                basis = np.array(nullspace(Mx.tolist(), field),
                                 dtype=np.int64)
                if (fr, basis.tobytes()) in seen:
                    continue
                seen.add((fr, basis.tobytes()))
                total = _block_starts(p, len(basis))[-1]
                for c0 in range(0, total, _PAIRS):
                    c = projective_points(p, len(basis), c0,
                                          min(total, c0 + _PAIRS))
                    hold(np.full(len(c), fr), _normalize(c @ basis % p, p),
                         np.full(len(c), l))
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
        T = projective_points(2)
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
_EVAL_CELLS = 1 << 18    # float32 cells of one GEMM slice of the smooth-point
                         # scan (1 MB), reduced in place before the next


def _cached_eval(p):
    """Evaluation tables over F_p for quadrics given by 15 coefficients,
    one for the first 16 points of P^4(F_p) and one for the rest.  The
    table of a block of n points is a (6n, 15) float32 matrix W such that
    W @ c gives the quadric c's n values, then the n values of each of its
    five partials."""
    if p not in _EVAL_CACHE:
        pts = projective_points(p)
        W = np.zeros((6, len(pts), 15), dtype=np.float32)
        for m, (i, j) in enumerate(COEFF_ORDER):
            W[0, :, m] = pts[:, i] * pts[:, j] % p
            if i != j:
                W[i + 1, :, m] = pts[:, j]
                W[j + 1, :, m] = pts[:, i]
            elif p != 2:
                W[i + 1, :, m] = 2 * pts[:, i] % p
            # char 2: the square terms drop out of every partial
        _EVAL_CACHE[p] = [W[:, :16].reshape(-1, 15),
                          W[:, 16:].reshape(-1, 15)]
    return _EVAL_CACHE[p]


def _no_smooth_point_mask(C, p):
    """Boolean mask over quadric coefficient rows C (residues): True when
    the quadric has no smooth F_p-point.  Direct evaluation over all
    points of P^4 with float32 GEMMs, ``_EVAL_CELLS`` cells at a time,
    each slice reduced in place with ``_reduce``.  Exact while a sum of
    15 products of residues, below 15 (p - 1)^2, stays within ``_limit``
    for float32; a point is smooth where the value is 0 and the sum of
    the squared partial residues, below 5 (p - 1)^2, is not.  Most
    quadrics show a smooth point among the first 16 points, so the other
    points are tried only on the rows left."""
    if 15 * (p - 1) ** 2 > _limit(np.float32, p):
        raise ValueError("p = %d is past the float32 evaluation window" % p)
    bad = np.ones(len(C), dtype=bool)
    for W in _cached_eval(p):
        rows = np.flatnonzero(bad)
        step = max(1, _EVAL_CELLS // len(W))
        buf = np.empty(len(W) * min(step, len(rows)), dtype=np.float32)
        for s in range(0, len(rows), step):
            r = rows[s:s + step]
            # while every row is left, a slice of C and not a gather
            Cs = C[s:s + step] if len(rows) == len(C) else C[r]
            v = buf[:len(W) * len(r)].reshape(len(W), len(r))
            np.matmul(W, Cs.T.astype(np.float32, copy=False), out=v)
            _reduce(v, p)
            v = v.reshape(6, -1, len(r))    # (value or partial, point, row)
            v[1:] *= v[1:]
            for k in range(2, 6):
                v[1] += v[k]                # the sum of the squared partials
            smooth = (v[0] == 0) & (v[1] > 0)
            bad[r[smooth.any(axis=0)]] = False
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


def census_bp(p, progress=None, workers=1):
    """Count quadrics in P^14(F_p) with no smooth F_p-point by exhaustive
    enumeration (p in {2, 3}).  Must reproduce the #B_p formula."""
    if p not in (2, 3):
        raise ValueError("census is desk-scale only: p in {2, 3}")
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
    ``lead`` (canonical projective representatives, coefficient = 1).

    The rows are written straight into float32, their digits below p:
    one buffer holds every value of the first ``low`` free coefficients,
    about ``_EVAL_CELLS`` cells, and each pass sets the rest."""
    lead, p = args
    free = 14 - lead
    low = 0
    while low < free and 15 * p ** (low + 1) <= _EVAL_CELLS:
        low += 1
    C = np.zeros((p ** low, 15), dtype=np.float32)
    C[:, lead] = 1
    r = np.arange(p ** low)
    for k in range(low):
        C[:, lead + 1 + k] = r // p ** k % p
    count = 0
    for high in range(p ** (free - low)):
        C[:, lead + 1 + low:] = [high // p ** k % p
                                 for k in range(free - low)]
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

