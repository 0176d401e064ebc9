"""Checks of the workloads' outputs, computed apart from the program.

Nothing here imports the package under test: pencils are read from their
text files with this module's own parser, and every verdict is recomputed
by brute force or by exact arithmetic written here (Bareiss determinants,
rational diagonalization, elimination mod p, exhaustive scans over finite
fields and residue rings).  Each ``check_*`` function returns a list of
failure messages; an empty list means the outputs passed.
"""

import re
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, isqrt

import numpy as np

COEFF_ORDER = [(i, j) for i in range(5) for j in range(i, 5)]

# ---------------------------------------------------------------------------
# polynomials as {exponent tuple: int} dicts

_TERM = re.compile(r"([+-]?)\s*(\d*)\s*\*?\s*((?:[a-z]\d+(?:\^\d+)?\*?)*)")


def parse_poly(text, var="t", nvars=5):
    """Parse a sum of terms such as ``-10*t0^2*t1 + 4*t2``."""
    out = {}
    text = text.replace(" ", "")
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError("cannot parse %r at %d" % (text, pos))
        sign, num, mono = m.groups()
        coeff = int(num) if num else 1
        if sign == "-":
            coeff = -coeff
        exps = [0] * nvars
        for name, power in re.findall(r"%s(\d+)(?:\^(\d+))?" % var, mono):
            exps[int(name)] += int(power) if power else 1
        key = tuple(exps)
        out[key] = out.get(key, 0) + coeff
        pos = m.end()
    return {k: v for k, v in out.items() if v}


def poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def poly_eval(terms, point):
    total = 0
    for e, c in terms.items():
        term = c
        for x, k in zip(point, e):
            term *= x ** k
        total += term
    return total


def terms_from_json(pairs):
    return {tuple(e): c for e, c in pairs}


# ---------------------------------------------------------------------------
# pencils


def read_pencil(path):
    """The five quadrics of a pencil file as 15-coefficient lists."""
    quadrics = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) == 15 and all(re.fullmatch(r"[+-]?\d+", x)
                                        for x in parts):
                quadrics.append([int(x) for x in parts])
                continue
            terms = parse_poly(line, var="x")
            coeffs = [0] * 15
            for e, c in terms.items():
                idx = [i for i in range(5) for _ in range(e[i])]
                coeffs[COEFF_ORDER.index((idx[0], idx[1]))] = c
            quadrics.append(coeffs)
    if len(quadrics) != 5:
        raise ValueError("%s: expected five quadrics" % path)
    return quadrics


def hessian(coeffs):
    """Symmetric integer matrix H with Q(x) = x^T H x / 2."""
    H = [[0] * 5 for _ in range(5)]
    for (i, j), c in zip(COEFF_ORDER, coeffs):
        if i == j:
            H[i][i] = 2 * c
        else:
            H[i][j] = H[j][i] = c
    return H


def gram_at(quadrics, t):
    hs = [hessian(q) for q in quadrics]
    return [[sum(ti * h[i][j] for ti, h in zip(t, hs)) for j in range(5)]
            for i in range(5)]


# ---------------------------------------------------------------------------
# exact linear algebra


def bareiss_det(M):
    A = [list(r) for r in M]
    n = len(A)
    sign, prev = 1, 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for r in range(k + 1, n):
                if A[r][k]:
                    A[k], A[r] = A[r], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1] if n else 1


def rank_mod_p(M, p):
    """Rank over F_p by row reduction in int64 numpy (p below 2^31)."""
    A = np.array(M, dtype=np.int64) % p
    rows, cols = A.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        A[[r, k]] = A[[k, r]]
        A[r] = A[r] * pow(int(A[r, c]), -1, p) % p
        mask = A[:, c] != 0
        mask[r] = False
        A[mask] = (A[mask] - np.outer(A[mask, c], A[r])) % p
        r += 1
    return r


def diagonal_entries(H):
    """Nonzero diagonal of a rational congruence diagonalization of H."""
    A = [[Fraction(x) for x in row] for row in H]
    n = len(A)
    out = []
    for k in range(n):
        sub = range(k, n)
        piv = next((i for i in sub if A[i][i] != 0), None)
        if piv is None:
            pair = next(((i, j) for i in sub for j in sub if A[i][j] != 0),
                        None)
            if pair is None:
                break
            i, j = pair
            # x_i += x_j makes the (i, i) entry 2 A[i][j] != 0
            for r in range(n):
                A[r][i] += A[r][j]
            for c in range(n):
                A[i][c] += A[j][c]
            piv = i
        A[k], A[piv] = A[piv], A[k]
        for row in A:
            row[k], row[piv] = row[piv], row[k]
        d = A[k][k]
        for i in range(k + 1, n):
            f = A[i][k] / d
            if f:
                for j in range(k, n):
                    A[i][j] -= f * A[k][j]
                for j in range(k, n):
                    A[j][i] = A[i][j]
        out.append(d)
    return out


def signature(H):
    d = diagonal_entries(H)
    return sum(1 for x in d if x > 0), sum(1 for x in d if x < 0)


# ---------------------------------------------------------------------------
# local solubility by brute force


def squarefree_part(x):
    x = Fraction(x)
    n = x.numerator * x.denominator
    sign = -1 if n < 0 else 1
    n = abs(n)
    out, f = 1, 2
    while f * f <= n:
        while n % (f * f) == 0:
            n //= f * f
        if n % f == 0:
            out *= f
            n //= f
        f += 1
    return sign * out * n


def diagonal_isotropic_qp(diag, p):
    """Is sum d_i x_i^2 isotropic over Q_p (odd p)?  After squarefree
    reduction a primitive zero mod p^3 lifts by Hensel's lemma, and every
    Q_p-zero scales to a primitive one, so the scan below is exact."""
    if p == 2:
        raise ValueError("odd p only")
    pk = p ** 3
    d = [squarefree_part(x) % pk for x in diag]
    sq = np.arange(pk, dtype=np.int64) ** 2 % pk
    n = len(d)
    half = n // 2
    for lead in range(n):
        # primitive: x_lead = 1 and the earlier coordinates divisible by p
        rest = [i for i in range(n) if i != lead]
        ranges = {i: (sq[::p] if i < lead else sq) for i in rest}
        left, right = rest[:half], rest[half:]

        def sums(idx):
            acc = np.zeros(1, dtype=np.int64)
            for i in idx:
                acc = (acc[:, None] + d[i] * ranges[i][None, :]).ravel() % pk
            return acc

        a = sums(left)
        b = (-(sums(right) + d[lead])) % pk
        seen = np.zeros(pk, dtype=bool)
        seen[a] = True
        if seen[b].any():
            return True
    return False


def has_smooth_qp_point(H, p):
    """Does the quadric x^T H x = 0 have a smooth Q_p-point?  It does
    exactly when its nondegenerate part is isotropic over Q_p."""
    d = diagonal_entries(H)
    return len(d) >= 2 and diagonal_isotropic_qp(d, p)


# ---------------------------------------------------------------------------
# finite-field scans


def projective_points(p, n=5):
    pts = []
    for lead in range(n):
        for tail in product(range(p), repeat=n - lead - 1):
            pts.append((0,) * lead + (1,) + tail)
    return np.array(pts, dtype=np.int64)


def _monomial_tables(X):
    mono = np.stack([X[:, i] * X[:, j] for i, j in COEFF_ORDER], axis=1)
    grads = []
    for k in range(5):
        cols = []
        for i, j in COEFF_ORDER:
            if i == j == k:
                cols.append(2 * X[:, k])
            elif i == k:
                cols.append(X[:, j])
            elif j == k:
                cols.append(X[:, i])
            else:
                cols.append(np.zeros(len(X), dtype=np.int64))
        grads.append(np.stack(cols, axis=1))
    return mono.astype(np.float64), [g.astype(np.float64) for g in grads]


def pointless_members(C, p, block=512):
    """Mask over the rows of C (quadric coefficients mod p): True when the
    quadric has no smooth F_p-point, by evaluation at every point of
    P^4(F_p), block by block, dropping members once a smooth point shows.
    Float64 products are exact: |values| < 15 * 2 * p^3."""
    X = projective_points(p)
    C = np.asarray(C, dtype=np.float64)
    pending = np.arange(len(C))
    for s in range(0, len(X), block):
        if pending.size == 0:
            break
        mono, grads = _monomial_tables(X[s:s + block])
        Cs = C[pending]
        live = np.zeros((len(Cs), len(mono)), dtype=bool)
        for g in grads:
            live |= np.mod(Cs @ g.T, p) != 0
        smooth = ((np.mod(Cs @ mono.T, p) == 0) & live).any(axis=1)
        pending = pending[~smooth]
    out = np.zeros(len(C), dtype=bool)
    out[pending] = True
    return out


def sp_bruteforce(quadrics, p):
    """(degenerate, bad member parameters) for the pencil reduced mod p."""
    if rank_mod_p(quadrics, p) < 5:
        return True, []
    T = projective_points(p)
    C = np.mod(T @ np.array(quadrics, dtype=np.int64), p)
    bad = pointless_members(C, p)
    return False, [tuple(int(x) for x in T[i]) for i in np.nonzero(bad)[0]]


def rank_le2_points(quadrics, p):
    """Points t of P^4(F_p) whose member has Gram rank <= 2 mod p."""
    hs = np.array([hessian(q) for q in quadrics], dtype=np.int64)
    return [tuple(int(x) for x in t) for t in projective_points(p)
            if rank_mod_p(np.tensordot(t, hs, axes=1), p) <= 2]


def gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def pointless_quadric_count(p):
    """#B_p = [5 choose 4]_p + [5 choose 3]_p (p^2 - p) / 2: double planes
    plus pairs of conjugate planes."""
    return (gaussian_binomial(5, 4, p)
            + gaussian_binomial(5, 3, p) * (p * p - p) // 2)


def b_of_p(p):
    return Fraction(p**8 + p**6 + 2 * p**4 + p**3 + 2 * p**2 + p + 2,
                    2 * p**10 + 2 * p**5 + 2)


def primes_upto(n):
    return [q for q in range(2, n + 1)
            if all(q % d for d in range(2, isqrt(q) + 1))]


def macaulay_rank(quadrics, d, p):
    """(rows, cols, rank mod p) of the degree-d Macaulay block of the five
    quadrics in x0..x4."""
    cols = list(combinations_with_replacement(range(5), d))
    index = {m: i for i, m in enumerate(cols)}
    rows = []
    for q in quadrics:
        for mult in combinations_with_replacement(range(5), d - 2):
            row = [0] * len(cols)
            for (i, j), c in zip(COEFF_ORDER, q):
                if c:
                    row[index[tuple(sorted(mult + (i, j)))]] += c
            rows.append(row)
    return len(rows), len(cols), rank_mod_p(rows, p)


# ---------------------------------------------------------------------------
# the paper's printed quaternion symbol for thm_example

PRINTED_M2 = ("-t0^2 - 2*t0*t1 + 7*t1^2 + 8*t1*t2 + 48*t1*t3 + 16*t2*t3"
              " + 64*t3^2 + 8*t1*t4 + 16*t3*t4")
PRINTED_M1_SQ = ("4*t1^2 + 8*t1*t2 + 4*t2^2 + 32*t1*t3 + 32*t2*t3"
                 " + 64*t3^2 + 8*t1*t4 + 8*t2*t4 + 32*t3*t4 + 4*t4^2")
# the -2*t2^3 term is lost at a line wrap of the printed display
PRINTED_M3 = (
    "-10*t0^2*t1 - 14*t0*t1^2 + 38*t1^3 + 10*t0*t1*t2 + 36*t1^2*t2"
    " + 4*t0*t2^2 - 18*t1*t2^2 - 6*t0^2*t3 - 12*t0*t1*t3 + 442*t1^2*t3"
    " + 96*t1*t2*t3 - 40*t2^2*t3 + 928*t1*t3^2 + 96*t2*t3^2 + 384*t3^3"
    " + 20*t0*t1*t4 + 62*t1^2*t4 + 14*t0*t2*t4 - 30*t1*t2*t4 - 14*t2^2*t4"
    " + 112*t1*t3*t4 - 80*t2*t3*t4 + 96*t3^2*t4 + 6*t0*t4^2 - 28*t1*t4^2"
    " - 30*t2*t4^2 - 80*t3*t4^2 - 18*t4^3 - 2*t2^3")
PRINTED_M2_M1 = (
    "-2*t0^2*t1 - 4*t0*t1^2 + 14*t1^3 - 2*t0^2*t2 - 4*t0*t1*t2"
    " + 30*t1^2*t2 + 16*t1*t2^2 - 8*t0^2*t3 - 16*t0*t1*t3 + 152*t1^2*t3"
    " + 192*t1*t2*t3 + 32*t2^2*t3 + 512*t1*t3^2 + 256*t2*t3^2 + 512*t3^3"
    " - 2*t0^2*t4 - 4*t0*t1*t4 + 30*t1^2*t4 + 32*t1*t2*t4 + 192*t1*t3*t4"
    " + 64*t2*t3*t4 + 256*t3^2*t4 + 16*t1*t4^2 + 32*t3*t4^2")


# ---------------------------------------------------------------------------
# per-workload checks


def check_wa(ops, pencils):
    errs = []
    Q = pencils["prop_q3"]
    for op in ops:
        if op["group"] != "wa_finite" or not op["ok"]:
            continue
        cert = op["output"]
        if cert["place"] != 3:
            errs.append("wa: place %r, expected 3" % cert["place"])
        for key, want_smooth in (("invariant_zero_point", True),
                                 ("invariant_half_point", False)):
            t = cert[key]["t"]
            H = gram_at(Q, t)
            if bareiss_det(H) != 0:
                errs.append("wa: %s t=%s is not on H" % (key, t))
            if has_smooth_qp_point(H, 3) != want_smooth:
                errs.append("wa: %s t=%s has the wrong invariant at 3"
                            % (key, t))
        reg = cert["regularity"]
        diag, smooth = reg["diagonal_avoidance"], reg["smoothness"]
        if not reg["certified"]:
            errs.append("wa: regularity not certified")
        if smooth["degree"] != [4, 3] or smooth["details"]["columns"] != \
                comb(4 + 4, 4) * comb(3 + 4, 4):
            errs.append("wa: smoothness block %s %s, expected (4,3) with "
                        "2450 columns" % (smooth["degree"], smooth["details"]))
        if diag["degree"] != 6 or diag["details"] != {
                "columns": comb(6 + 4, 4), "rows": 5 * comb(4 + 4, 4)}:
            errs.append("wa: diagonal block %s %s, expected degree 6, "
                        "350 x 210" % (diag["degree"], diag["details"]))
        rows, cols, rank = macaulay_rank(Q, 6, reg["prime"])
        if rank != cols:
            errs.append("wa: diagonal block %dx%d has rank %d mod %d"
                        % (rows, cols, rank, reg["prime"]))
    return errs


def check_symbol_lattice(ops, pencils, points):
    errs = []
    for op in ops:
        if not op["ok"]:
            continue
        out = op["output"]
        if op["group"] == "alpha_symbol":
            errs += _check_alpha(out, pencils[out["pencil"]], points)
        elif op["group"] == "v3_verdict":
            errs += _check_v3(out, pencils[out["pencil"]])
        elif op["group"] == "real_point":
            errs += _check_real_point(out, pencils["cor_easy"])
    return errs


def _check_alpha(out, quadrics, points):
    errs = []
    name = out["pencil"]
    minors = [terms_from_json(m) for m in out["minors"]]
    T = out["basis_change"]
    if name == "thm_example":
        m1, m2, m3 = minors[:3]
        if T is not None or m2 != parse_poly(PRINTED_M2) \
                or poly_mul(m1, m1) != parse_poly(PRINTED_M1_SQ) \
                or m3 != parse_poly(PRINTED_M3) \
                or poly_mul(m2, m1) != parse_poly(PRINTED_M2_M1):
            errs.append("alpha: thm_example minors differ from the paper")

    def gram(t):
        B = gram_at(quadrics, t)
        if T is None:
            return B
        BT = [[sum(B[i][k] * T[k][j] for k in range(5)) for j in range(5)]
              for i in range(5)]
        return [[sum(T[k][i] * BT[k][j] for k in range(5)) for j in range(5)]
                for i in range(5)]

    for t in points:
        B = gram(t)
        for k, m in enumerate(minors, start=1):
            want = bareiss_det([row[:k] for row in B[:k]])
            if poly_eval(m, t) != want:
                errs.append("alpha: %s M%d(%s) = %d, Bareiss %d"
                            % (name, k, t, poly_eval(m, t), want))
    w, p = out["witness_point"], out["witness_prime"]
    if bareiss_det(gram_at(quadrics, w)) % p:
        errs.append("alpha: %s witness %s is off H mod %d" % (name, w, p))
    if any(poly_eval(m, w) % p == 0 for m in minors):
        errs.append("alpha: %s a minor vanishes at the witness" % name)
    return errs


def _check_v3(out, quadrics):
    name = out["pencil"]
    if name == "thm_example":
        # a degenerate member mod a small prime would refute any
        # all-primes certificate
        if out["inconclusive"] or out["result"]["scope"] != "all_primes":
            return ["v3: no all-primes certificate for thm_example"]
        for p in (3, 5, 7):
            pts = rank_le2_points(quadrics, p)
            if pts:
                return ["v3: thm_example has rank <= 2 members mod %d: %s"
                        % (p, pts[:3])]
        return []
    pts = rank_le2_points(quadrics, 3)
    if (1, 0, 0, 0, 0) not in pts:
        return ["v3: expected the rank <= 2 member (1,0,0,0,0) mod 3 "
                "of %s" % name]
    if not out["inconclusive"]:
        return ["v3: %s certified although V3 has an F_3-point" % name]
    return []


def _line_point(u, w, s):
    s = Fraction(s)
    den = s.denominator
    return [ui * den + wi * s.numerator for ui, wi in zip(u, w)]


def _check_real_point(out, quadrics):
    seed = out["seed"]
    if out["kind"] == "rational":
        H = gram_at(quadrics, out["t"])
        npos, nneg = signature(H)
        if bareiss_det(H) != 0 or npos == 0 or nneg == 0:
            return ["real point: seed %d, member %s is not an indefinite "
                    "singular member" % (seed, out["t"])]
        return []
    u, w = out["line"]["anchor"], out["line"]["direction"]
    lo, hi = (Fraction(x) for x in out["interval"])
    ends = [gram_at(quadrics, _line_point(u, w, s)) for s in (lo, hi)]
    dets = [bareiss_det(B) for B in ends]
    if lo == hi or 0 in dets:
        exact = ends[0] if dets[0] == 0 else ends[1]
        sig = signature(exact)
    else:
        if (dets[0] > 0) == (dets[1] > 0):
            return ["real point: seed %d, det keeps its sign on [%s, %s]"
                    % (seed, lo, hi)]
        # one eigenvalue crosses zero inside the isolating interval
        (p0, n0), (p1, n1) = signature(ends[0]), signature(ends[1])
        sig = (min(p0, p1), min(n0, n1))
    if list(sig) != [2, 2] or out["signature"] != [2, 2]:
        return ["real point: seed %d, signature %s (reported %s), "
                "expected (2, 2) for invariant 0"
                % (seed, sig, out["signature"])]
    return []


def check_sieve(ops, pencils, inputs, frame_results):
    errs = []
    frame_primes = inputs["frame_primes"]
    for op in ops:
        if not op["ok"]:
            continue
        out = op["output"]
        if op["group"] == "census":
            want = pointless_quadric_count(out["p"])
            if out["count"] != want:
                errs.append("census: #B_%d = %d, expected %d"
                            % (out["p"], out["count"], want))
        elif op["group"] == "monte_carlo":
            errs += _check_monte_carlo(out, inputs["monte_carlo"])
        elif op["group"] == "sp_scan" and out["p"] <= max(frame_primes):
            errs += _check_sp(out, pencils[out["pencil"]], out["p"],
                              out["pencil"])
    for k, (frame, res) in enumerate(zip(inputs["frames"], frame_results)):
        for p in frame_primes:
            errs += _check_sp(res[str(p)], frame, p, "frame %d" % k)
    return errs


def _check_monte_carlo(out, mc):
    errs = []
    n = mc["samples"]
    fails = {int(p): c for p, c in out["per_prime_failures"].items()}
    if out["passes"] + sum(fails.values()) != n:
        errs.append("monte carlo: passes + failures != %d" % n)
    if sorted(fails) != primes_upto(mc["cutoff"]):
        errs.append("monte carlo: primes %s" % sorted(fails))
    reference = Fraction(1)
    for p in primes_upto(mc["cutoff"]):
        reference *= 1 - b_of_p(p)
    est = out["passes"] / n
    sigma = (est * (1 - est) / n) ** 0.5
    if est < float(reference) - 3 * sigma:
        errs.append("monte carlo: estimate %.4f below %.4f - 3 sigma"
                    % (est, float(reference)))
    b2 = float(b_of_p(2))
    sigma2 = (b2 * (1 - b2) / n) ** 0.5
    if fails.get(2, 0) / n > b2 + 3 * sigma2:
        errs.append("monte carlo: p = 2 failure rate %.4f above b(2) + "
                    "3 sigma" % (fails.get(2, 0) / n))
    return errs


def _check_sp(res, quadrics, p, label):
    degenerate, bad = sp_bruteforce(quadrics, p)
    if res["degenerate_frame"] != degenerate or res["member"] != bool(bad):
        return ["sp: %s mod %d: member %s degenerate %s, brute force %s %s"
                % (label, p, res["member"], res["degenerate_frame"],
                   bool(bad), degenerate)]
    if res["member"] and tuple(res["witness"]) not in bad:
        return ["sp: %s mod %d: witness %s has a smooth point"
                % (label, p, res["witness"])]
    return []
