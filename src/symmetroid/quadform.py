"""Integral quadratic forms in five variables and their classification.

A form is stored as its 15 coefficients c_ij (i <= j) in the fixed order
(0,0),(0,1),(0,2),(0,3),(0,4),(1,1),...,(4,4).  The associated Gram matrix
B has B_ii = 2 c_ii and B_ij = B_ji = c_ij, so B(x,x) = 2 Q(x) identically
and B always has even diagonal.

Classification is exact: congruence diagonalisation over Q (or F_p, p odd),
signatures over R, split/nonsplit tags over F_p, and smooth-point existence
on the projective quadric over R, F_q and Q_p.  Characteristic 2 avoids the
bilinear rank (it misrepresents quadrics there) and works by enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .gf import GF, projective_points
from .linalg import (_RATIONALS, det_bareiss, is_prime, nullspace,
                     primitive_vector)
from .localfields import hilbert_symbol, is_square_at
from .polys import MultiPoly, parse_poly

COEFF_ORDER = tuple((i, j) for i in range(5) for j in range(i, 5))
_COEFF_INDEX = {ij: k for k, ij in enumerate(COEFF_ORDER)}
X_NAMES = tuple("x%d" % i for i in range(5))


class QuadricForm:
    """An integral quadratic form in x0..x4."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != 15:
            raise ValueError("a quadric needs exactly 15 coefficients")
        self.coeffs = coeffs

    @classmethod
    def from_string(cls, s):
        poly = parse_poly(s, list(X_NAMES))
        coeffs = [0] * 15
        for e, c in poly.terms.items():
            if sum(e) != 2:
                raise ValueError("not homogeneous of degree 2: %r" % s)
            support = [i for i, k in enumerate(e) if k]
            if len(support) == 1:
                ij = (support[0], support[0])
            else:
                ij = (support[0], support[1])
            coeffs[_COEFF_INDEX[ij]] = c
        return cls(coeffs)

    def gram(self):
        B = [[0] * 5 for _ in range(5)]
        for (i, j), c in zip(COEFF_ORDER, self.coeffs):
            if i == j:
                B[i][i] = 2 * c
            else:
                B[i][j] = B[j][i] = c
        return B

    def to_poly(self):
        terms = {}
        for (i, j), c in zip(COEFF_ORDER, self.coeffs):
            e = [0] * 5
            e[i] += 1
            e[j] += 1
            terms[tuple(e)] = c
        return MultiPoly(5, terms)

    def to_string(self):
        return self.to_poly().to_string(X_NAMES)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        return isinstance(other, QuadricForm) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "QuadricForm(%s)" % self.to_string()


@dataclass
class FormClassification:
    field: str                    # "Q", "R" or "F<q>"
    rank: int
    kernel: list                  # basis of the radical (integer vectors)
    signature: tuple | None = None  # (n_plus, n_minus, n_zero) over R
    diagonal: list | None = None    # diagonal after congruence (char != 2)
    transform: list | None = None   # T with T^t B T = diag(diagonal)
    split: bool | None = None       # rank-2 part split? (finite odd fields)

    def as_json(self):
        out = {"field": self.field, "rank": self.rank,
               "kernel": [[int(x) for x in v] for v in self.kernel]}
        if self.signature is not None:
            out["signature"] = list(self.signature)
        if self.diagonal is not None:
            out["diagonal"] = [str(d) for d in self.diagonal]
        if self.split is not None:
            out["split"] = self.split
        return out


def diagonalize_symmetric(B):
    """Congruence diagonalisation of a symmetric integer matrix over Q.

    Returns (diagonal, T), Fraction entries, with T invertible and T^t B T
    diagonal.
    """
    return _diagonalize([[Fraction(x) for x in row] for row in B],
                        _RATIONALS, Fraction(1))


def _diagonalize(A, F, one):
    """Diagonalise the symmetric matrix A, whose entries already lie in the
    field F (an odd-characteristic ``GF`` or ``_RATIONALS``), in place.

    ``one`` is F's unit; T starts as the identity built from it.  Returns
    (diagonal, T) with T^t A T diagonal.
    """
    n = len(A)
    T = [[one if i == j else one * 0 for j in range(n)] for i in range(n)]
    add, mul = F.add, F.mul

    def add_col(dst, src, f):
        # column operation plus the mirrored row operation keeps symmetry
        for i in range(n):
            A[i][dst] = add(A[i][dst], mul(f, A[i][src]))
        for j in range(n):
            A[dst][j] = add(A[dst][j], mul(f, A[src][j]))
        for i in range(n):
            T[i][dst] = add(T[i][dst], mul(f, T[i][src]))

    def swap(i, j):
        for r in range(n):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        A[i], A[j] = A[j], A[i]
        for r in range(n):
            T[r][i], T[r][j] = T[r][j], T[r][i]

    for k in range(n):
        if A[k][k] == 0:
            pivot = None
            for i in range(k + 1, n):
                if A[i][i] != 0:
                    pivot = i
                    break
            if pivot is not None:
                swap(k, pivot)
            else:
                off = None
                for i in range(k, n):
                    for j in range(i + 1, n):
                        if A[i][j] != 0:
                            off = (i, j)
                            break
                    if off:
                        break
                if off is None:
                    break  # trailing block is zero
                i, j = off
                add_col(i, j, one)  # A[i][i] becomes 2*A[i][j] != 0
                if i != k:
                    swap(k, i)
        piv = A[k][k]
        for i in range(k + 1, n):
            if A[k][i] != 0:
                add_col(i, k, F.neg(F.mul(A[k][i], F.inv(piv))))
    return [A[i][i] for i in range(n)], T


def classify(Q, field):
    """Classify a quadratic form over Q, R, or F_q.

    ``field`` is "Q", "R", or an int q (prime power).  Over F_2 (and other
    even q) only rank and kernel data are produced.
    """
    B = Q.gram()
    if field in ("Q", "R"):
        diag, T = diagonalize_symmetric(B)
        rank = sum(1 for d in diag if d != 0)
        kernel = _kernel_from_transform(diag, T)
        sig = None
        if field == "R":
            npos = sum(1 for d in diag if d > 0)
            nneg = sum(1 for d in diag if d < 0)
            sig = (npos, nneg, 5 - npos - nneg)
        return FormClassification(field=field, rank=rank, kernel=kernel,
                                  signature=sig, diagonal=diag, transform=T)
    q = int(field)
    gf = GF(q)
    if gf.p == 2:
        rank, kernel = _char2_rank(Q, gf)
        return FormClassification(field="F%d" % q, rank=rank, kernel=kernel)
    # integer entries embed into the prime field inside F_q
    diag, T = _diagonalize([[x % gf.p for x in row] for row in B], gf, 1)
    nonzero = [d for d in diag if d]
    rank = len(nonzero)
    kernel = _kernel_from_transform(diag, T)
    split = None
    if rank == 2:
        d1, d2 = nonzero
        split = gf.is_square(gf.mul(gf.neg(d1), d2))
    return FormClassification(field="F%d" % q, rank=rank, kernel=kernel,
                              diagonal=diag, transform=T, split=split)


def _kernel_from_transform(diag, T):
    """Columns of T at the zero diagonal entries; over Q (Fraction entries)
    each is made a primitive integer vector."""
    out = []
    for j, d in enumerate(diag):
        if d != 0:
            continue
        v = [row[j] for row in T]
        if isinstance(v[0], Fraction):
            v = primitive_vector(v)
        out.append(v)
    return out


def _char2_rank(Q, gf):
    """Rank and vertex of a quadric in char 2 (rank = 5 - dim vertex).

    The vertex is the subspace where both the polar form and Q vanish; the
    polar is the Gram matrix mod 2 (its diagonal dies).  Q restricted to
    the polar kernel is Frobenius-semilinear, so its zero set is a
    subspace, found here by direct enumeration of the (small) kernel.
    """
    q = gf.q
    B = Q.gram()
    # kernel of the polar form over F_q by elimination with table arithmetic
    basis = nullspace([[x % gf.p for x in row] for row in B], gf)
    # enumerate the kernel, collect vertex vectors
    vertex = []
    k = len(basis)
    seen_nonzero_Q = False
    for code in range(q ** k):
        coeffs = []
        c = code
        for _ in range(k):
            coeffs.append(c % q)
            c //= q
        x = [0] * 5
        for co, vec in zip(coeffs, basis):
            for i in range(5):
                x[i] = gf.add(x[i], gf.mul(co, vec[i]))
        val = _eval_gf(Q, x, gf)
        if val == 0:
            vertex.append(x)
        else:
            seen_nonzero_Q = True
    # vertex is a subspace; its F_q-dimension
    dim_vertex = k - 1 if seen_nonzero_Q else k
    basis_vertex = _gf_row_basis(vertex, gf)
    return 5 - dim_vertex, basis_vertex


def _eval_gf(Q, x, gf):
    total = 0
    for (i, j), c in zip(COEFF_ORDER, Q.coeffs):
        total = gf.add(total, gf.mul(c % gf.p, gf.mul(x[i], x[j])))
    return total


def _gf_row_basis(vectors, gf):
    basis = []
    echelon = []
    for v in vectors:
        w = v[:]
        for e in echelon:
            lead = next(i for i, x in enumerate(e) if x != 0)
            if w[lead] != 0:
                f = gf.mul(w[lead], gf.inv(e[lead]))
                w = [gf.sub(a, gf.mul(f, b)) for a, b in zip(w, e)]
        if any(w):
            echelon.append(w)
            basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# smooth points


def has_smooth_point_real(Q):
    cls = classify(Q, "R")
    if cls.rank == 0:
        raise ValueError("the zero form has no associated quadric")
    npos, nneg, _ = cls.signature
    return npos >= 1 and nneg >= 1


def has_smooth_point_fq(Q, q):
    """Smooth F_q-point existence.

    Even q: direct enumeration with the Jacobian criterion.  Odd q: a form
    of rank >= 3 always has one; rank 1 (double plane) never; rank 2 exactly
    when split.  Enumeration cross-checks this in the test suite.
    """
    gf = GF(q)
    if gf.p == 2 or q <= 9 and gf.r > 1:
        return _smooth_point_enumerate(Q, gf) is not None
    cls = classify(Q, q)
    if cls.rank == 0:
        raise ValueError("form vanishes identically over F_%d" % q)
    if cls.rank == 1:
        return False
    if cls.rank == 2:
        return bool(cls.split)
    return True


def _smooth_point_enumerate(Q, gf):
    B = Q.gram()
    for x in map(tuple, projective_points(gf.q).tolist()):
        if _eval_gf(Q, x, gf) != 0:
            continue
        # gradient: (B x)_i, with char-2 diagonal loss handled by tables
        for i in range(5):
            g = 0
            for j in range(5):
                g = gf.add(g, gf.mul(B[i][j] % gf.p, x[j]))
            if g != 0:
                return x
    return None


def has_smooth_point_qp(Q, p):
    """Smooth Q_p-point existence via classical diagonal isotropy criteria.

    The nondegenerate part <d1..dr> decides: a smooth point exists iff it
    is isotropic (r >= 2) or r >= 3 with an isotropic vector not in the
    cone vertex; ranks 0/1 never.  The rank-4 anisotropy convention
    (square discriminant and Hasse symbol equal to -(-1,-1)_p) is pinned by
    the brute-force validation corpus in the tests.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    cls = classify(Q, "Q")
    if cls.rank == 0:
        raise ValueError("the zero form has no associated quadric")
    d = [x for x in cls.diagonal if x != 0]
    return _diagonal_isotropic_qp(d, p)


def _diagonal_isotropic_qp(d, p):
    r = len(d)
    if r <= 1:
        return False
    if r == 2:
        return is_square_at(-d[0] * d[1], p)
    if r == 3:
        return hilbert_symbol(-d[0] * d[2], -d[1] * d[2], p) == 1
    if r == 4:
        disc = d[0] * d[1] * d[2] * d[3]
        if not is_square_at(disc, p):
            return True
        hasse = 1
        for i in range(4):
            for j in range(i + 1, 4):
                hasse *= hilbert_symbol(d[i], d[j], p)
        anisotropic_value = -hilbert_symbol(-1, -1, p)
        return hasse != anisotropic_value
    return True  # rank 5: every 5-variable form over Q_p is isotropic


def principal_minors(B):
    """The five principal 4x4 minors of the 5x5 matrix B, the i-th
    deleting row and column i."""
    return [det_bareiss([[B[r][c] for c in range(5) if c != i]
                         for r in range(5) if r != i]) for i in range(5)]


def ruling_disc(Q):
    """Discriminant (mod squares) of the base quadric surface of a rank-4
    cone: the first nonzero principal 4x4 minor of the Gram matrix."""
    cls = classify(Q, "Q")
    if cls.rank != 4:
        raise ValueError("ruling discriminant needs a rank-4 form "
                         "(got rank %d)" % cls.rank)
    # a symmetric matrix of rank 4 has a nonzero principal 4x4 minor
    return next(m for m in principal_minors(Q.gram()) if m)


# ---------------------------------------------------------------------------
# text format: 15 integers per line, or a polynomial string


def parse_quadric_line(line):
    line = line.strip()
    if not line:
        raise ValueError("empty quadric line")
    parts = line.split()
    if len(parts) == 15 and all(_is_int(t) for t in parts):
        return QuadricForm([int(t) for t in parts])
    return QuadricForm.from_string(line)


def _is_int(tok):
    if tok.startswith(("-", "+")):
        tok = tok[1:]
    return tok.isdigit()


def quadric_to_line(Q):
    return " ".join(str(c) for c in Q.coeffs)
