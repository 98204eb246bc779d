"""Exact integer/rational linear algebra: normal forms, lattice congruences,
rational kernels.

The integer algorithms (Hermite and Smith forms, Bareiss determinants) live
here; row reduction over Q (inverse, kernel, rank) is `fieldlin`'s.

Everything here is arbitrary-precision and deterministic; no floating point.
Conventions fixed for reproducibility:

* Hermite form is row-style: row echelon, positive pivots, entries above a
  pivot reduced into [0, pivot).
* Smith diagonal entries are nonnegative and satisfy d1 | d2 | ... .
* Solution sets on the torus R^r/Z^r list representatives inside [0,1)^r,
  sorted lexicographically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import fieldlin


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, row-major entries."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    @staticmethod
    def from_rows(rows):
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0])
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        return IntMatrix(n, m, tuple(int(x) for r in rows for x in r))

    @staticmethod
    def identity(n):
        return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @staticmethod
    def zero(rows, cols):
        return IntMatrix(rows, cols, (0,) * (rows * cols))

    def at(self, i, j):
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_lists(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self):
        return IntMatrix(self.cols, self.rows,
                         tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)))

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        a, b = self.to_lists(), other.to_lists()
        out = []
        for i in range(self.rows):
            ai = a[i]
            for j in range(other.cols):
                out.append(sum(ai[k] * b[k][j] for k in range(self.cols)))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def mul_vec(self, v):
        if self.cols != len(v):
            raise ValueError("shape mismatch")
        return tuple(sum(self.at(i, k) * v[k] for k in range(self.cols)) for i in range(self.rows))

    def add(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix(self.rows, self.cols,
                         tuple(x + y for x, y in zip(self.entries, other.entries)))

    def neg(self):
        return IntMatrix(self.rows, self.cols, tuple(-x for x in self.entries))

    def det(self):
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        m = self.to_lists()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def is_identity(self):
        return self.rows == self.cols and all(
            self.at(i, j) == (1 if i == j else 0)
            for i in range(self.rows) for j in range(self.cols))

    def to_rat(self):
        return RatMatrix(self.rows, self.cols, tuple(Fraction(x) for x in self.entries))


@dataclass(frozen=True)
class RatMatrix:
    """Dense rational matrix; entries are Fractions (always in lowest terms)."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    @staticmethod
    def from_rows(rows):
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0])
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        return RatMatrix(n, m, tuple(Fraction(x) for r in rows for x in r))

    @staticmethod
    def identity(n):
        one, zero = Fraction(1), Fraction(0)
        return RatMatrix(n, n, tuple(one if i == j else zero for i in range(n) for j in range(n)))

    def at(self, i, j):
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_lists(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self):
        return RatMatrix(self.cols, self.rows,
                         tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)))

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        a, b = self.to_lists(), other.to_lists()
        out = []
        for i in range(self.rows):
            ai = a[i]
            for j in range(other.cols):
                out.append(sum((ai[k] * b[k][j] for k in range(self.cols)), Fraction(0)))
        return RatMatrix(self.rows, other.cols, tuple(out))

    def mul_vec(self, v):
        if self.cols != len(v):
            raise ValueError("shape mismatch")
        return tuple(sum((self.at(i, k) * Fraction(v[k]) for k in range(self.cols)), Fraction(0))
                     for i in range(self.rows))

    def is_integral(self):
        return all(x.denominator == 1 for x in self.entries)

    def to_int(self):
        if not self.is_integral():
            raise ValueError("matrix has non-integer entries")
        return IntMatrix(self.rows, self.cols, tuple(int(x) for x in self.entries))

    def inverse(self):
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        try:
            return RatMatrix.from_rows(fieldlin.inverse(self.to_lists()))
        except ArithmeticError:
            raise ValueError("matrix is singular") from None


@dataclass(frozen=True)
class SmithDecomposition:
    """U * A * V = D with U, V unimodular and D diagonal, d1 | d2 | ..."""

    D: IntMatrix
    U: IntMatrix
    V: IntMatrix

    def diagonal(self):
        return tuple(self.D.at(i, i) for i in range(min(self.D.rows, self.D.cols)))


@dataclass(frozen=True)
class SolutionSet:
    """Solutions of A*v = b (mod Z^r) on the torus.

    kind is one of "empty", "finite", "family".  For "finite", points holds
    every representative.  For "family", points holds one representative per
    connected component and basis spans the continuous directions (primitive
    integer vectors).
    """

    kind: str
    points: tuple
    basis: tuple

    @property
    def dim(self):
        return len(self.basis)

    @property
    def cardinality(self):
        if self.kind != "finite":
            raise ValueError("cardinality only defined for finite solution sets")
        return len(self.points)

    def is_empty(self):
        return self.kind == "empty"


def _mod1(x):
    return Fraction(x) - (Fraction(x).numerator // Fraction(x).denominator)


def mod1_vec(v):
    """Reduce a rational vector into [0,1)^r."""
    return tuple(_mod1(x) for x in v)


def hnf(A: IntMatrix):
    """Row Hermite normal form.

    Returns (H, U) with U unimodular and U*A = H.  H is in row echelon form
    with positive pivots; entries above each pivot lie in [0, pivot).
    """
    n, m = A.rows, A.cols
    H = A.to_lists()
    U = IntMatrix.identity(n).to_lists()
    pr = 0
    for pc in range(m):
        if pr >= n:
            break
        while True:
            nz = [i for i in range(pr, n) if H[i][pc] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(H[i][pc]), i))
            if i0 != pr:
                H[pr], H[i0] = H[i0], H[pr]
                U[pr], U[i0] = U[i0], U[pr]
            if H[pr][pc] < 0:
                H[pr] = [-x for x in H[pr]]
                U[pr] = [-x for x in U[pr]]
            p = H[pr][pc]
            done = True
            for i in range(pr + 1, n):
                if H[i][pc] != 0:
                    q = H[i][pc] // p
                    H[i] = [a - q * b for a, b in zip(H[i], H[pr])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[pr])]
                    if H[i][pc] != 0:
                        done = False
            if done:
                break
        if H[pr][pc] != 0:
            p = H[pr][pc]
            for i in range(pr):
                q = H[i][pc] // p
                if q != 0:
                    H[i] = [a - q * b for a, b in zip(H[i], H[pr])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[pr])]
            pr += 1
    return IntMatrix.from_rows(H), IntMatrix.from_rows(U)


def snf(A: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transforms: U*A*V = D."""
    n, m = A.rows, A.cols
    M = A.to_lists()
    U = IntMatrix.identity(n).to_lists()
    V = IntMatrix.identity(m).to_lists()

    def swap_rows(i, j):
        M[i], M[j] = M[j], M[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in M:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def add_row(dst, src, q):
        M[dst] = [a + q * b for a, b in zip(M[dst], M[src])]
        U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    def add_col(dst, src, q):
        for r in M:
            r[dst] += q * r[src]
        for r in V:
            r[dst] += q * r[src]

    def negate_row(i):
        M[i] = [-x for x in M[i]]
        U[i] = [-x for x in U[i]]

    for s in range(min(n, m)):
        while True:
            pos = None
            best = None
            for i in range(s, n):
                for j in range(s, m):
                    if M[i][j] != 0 and (best is None or abs(M[i][j]) < best):
                        best = abs(M[i][j])
                        pos = (i, j)
            if pos is None:
                break
            if pos != (s, s):
                if pos[0] != s:
                    swap_rows(s, pos[0])
                if pos[1] != s:
                    swap_cols(s, pos[1])
            if M[s][s] < 0:
                negate_row(s)
            p = M[s][s]
            dirty = False
            for i in range(s + 1, n):
                if M[i][s] != 0:
                    add_row(i, s, -(M[i][s] // p))
                    if M[i][s] != 0:
                        dirty = True
            for j in range(s + 1, m):
                if M[s][j] != 0:
                    add_col(j, s, -(M[s][j] // p))
                    if M[s][j] != 0:
                        dirty = True
            if dirty:
                continue
            # row and column are clear; enforce divisibility of the rest
            p = M[s][s]
            bad = None
            for i in range(s + 1, n):
                for j in range(s + 1, m):
                    if M[i][j] % p != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(s, bad, 1)
    D = IntMatrix.from_rows(M)
    return SmithDecomposition(D, IntMatrix.from_rows(U), IntMatrix.from_rows(V))


def solve_mod_lattice(A, b) -> SolutionSet:
    """Describe {v in R^r/Z^r : A*v = b (mod Z^r)} for square integral A.

    A may be an IntMatrix or an integral RatMatrix; b is a rational vector.
    The result is empty, a finite sorted list of representatives, or a
    finite union of affine subtori (component base points plus a common
    basis of continuous directions).
    """
    if isinstance(A, RatMatrix):
        A = A.to_int()
    if not isinstance(A, IntMatrix):
        raise TypeError("A must be an IntMatrix or RatMatrix")
    if A.rows != A.cols:
        raise ValueError("A must be square (size = lattice rank)")
    r = A.rows
    if len(b) != r:
        raise ValueError("b has wrong length")
    b = tuple(Fraction(x) for x in b)

    dec = snf(A)
    c = dec.U.to_rat().mul_vec(b)
    d = dec.diagonal()

    free = []
    choices = []
    for i in range(r):
        if d[i] == 0:
            if c[i].denominator != 1:
                return SolutionSet("empty", (), ())
            free.append(i)
            choices.append((Fraction(0),))
        else:
            choices.append(tuple((c[i] + k) / d[i] for k in range(d[i])))

    Vmat = dec.V
    basis = tuple(tuple(Vmat.at(i, j) for i in range(r)) for j in free)

    points = []
    for combo in product(*choices):
        v = Vmat.to_rat().mul_vec(combo)
        points.append(mod1_vec(v))
    points = tuple(sorted(set(points)))

    kind = "family" if free else "finite"
    return SolutionSet(kind, points, basis)


def kernel_q(A: RatMatrix):
    """Basis of the rational kernel of A, as primitive integer vectors.

    Each basis vector is scaled to integer entries with positive leading
    coordinate and content 1; the list order follows the free columns of the
    reduced echelon form.
    """
    return [_primitive(v) for v in fieldlin.nullspace(A.to_lists())]


def _primitive(v):
    from math import gcd
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    w = [int(x * den) for x in v]
    g = 0
    for x in w:
        g = gcd(g, abs(x))
    if g > 1:
        w = [x // g for x in w]
    lead = next((x for x in w if x != 0), 0)
    if lead < 0:
        w = [-x for x in w]
    return tuple(Fraction(x) for x in w)


def solve_affine_congruence(M: IntMatrix, c):
    """One rational w with M*w = c (mod Z^rows), or None if none exists.

    M is an integer rows x cols matrix, c a rational vector of length rows.
    Used for removing vector-system coboundaries and for subtorus membership
    tests; the returned witness is a single representative, not the full set.
    """
    if len(c) != M.rows:
        raise ValueError("c has wrong length")
    c = tuple(Fraction(x) for x in c)
    dec = snf(M)
    cp = dec.U.to_rat().mul_vec(c)
    r = M.cols
    y = [Fraction(0)] * r
    diag = dec.diagonal()
    for i in range(M.rows):
        di = diag[i] if i < len(diag) else 0
        if di != 0:
            y[i] = cp[i] / di
        elif cp[i].denominator != 1:
            return None
    return dec.V.to_rat().mul_vec(y)


def rank_rat(A: RatMatrix):
    return fieldlin.rank(A.to_lists())
