"""Exact integer linear algebra for lattices: Hermite and Smith normal
forms, congruences modulo Z^r, saturated integer kernels.

Matrices here are integer (`IntMatrix`).  Everything over a field, such as
inverse, rank, determinant and the rational kernel, is `fieldlin`'s; a
rational matrix is a list of Fraction rows.  `kernel_q` reads the integer
kernel off `hnf` and its transform, with no elimination over Q.

Everything here is arbitrary-precision and deterministic; no floating point.
Conventions fixed for reproducibility:

* Hermite form is row-style: row echelon, positive pivots, entries above a
  pivot reduced into [0, pivot).
* Smith diagonal entries are nonnegative and satisfy d1 | d2 | ... .
* Solution sets on the torus R^r/Z^r list representatives inside [0,1)^r,
  sorted lexicographically.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product
from math import lcm, prod
from operator import mul

from . import fieldlin


def _integer(x):
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    raise ValueError(f"matrix entry {x!r} is not an integer")


class IntMatrix:
    """Dense integer matrix, row-major entries.  Its row and column tuples
    are cut on first use and kept; equality and hashing read the fields
    only."""

    def __init__(self, rows, cols, entries):
        if rows <= 0 or cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    def __eq__(self, other):
        return type(other) is IntMatrix and (self.cols, self.entries) == (
            other.cols, other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    @staticmethod
    def from_rows(rows):
        """Rows of ints or integral Fractions; any other entry is a
        ValueError, never truncated."""
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0])
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        return IntMatrix(n, m, tuple(_integer(x) for r in rows for x in r))

    @staticmethod
    def identity(n):
        return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def at(self, i, j):
        return self.entries[i * self.cols + j]

    @cached_property
    def row_tuples(self):
        """The rows as tuples, cut once per matrix."""
        c = self.cols
        return tuple(self.entries[i:i + c] for i in range(0, len(self.entries), c))

    @cached_property
    def col_tuples(self):
        """The columns as tuples, cut once per matrix."""
        return tuple(zip(*self.row_tuples))

    def to_lists(self):
        return [list(r) for r in self.row_tuples]

    def transpose(self):
        return IntMatrix(self.cols, self.rows, tuple(x for c in self.col_tuples for x in c))

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        cols = other.col_tuples
        return IntMatrix(self.rows, other.cols,
                         tuple(sum(map(mul, r, c)) for r in self.row_tuples for c in cols))

    def mul_vec(self, v):
        if self.cols != len(v):
            raise ValueError("shape mismatch")
        return tuple(sum(map(mul, r, v)) for r in self.row_tuples)

    def vec_mul(self, v):
        """The row vector v times the matrix."""
        if self.rows != len(v):
            raise ValueError("shape mismatch")
        return tuple([sum(map(mul, v, c)) for c in self.col_tuples])

    def add(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix(self.rows, self.cols,
                         tuple(x + y for x, y in zip(self.entries, other.entries)))

    def neg(self):
        return IntMatrix(self.rows, self.cols, tuple(-x for x in self.entries))


class SmithDecomposition:
    """U * A * V = D with U, V unimodular and D diagonal, d1 | d2 | ..."""

    def __init__(self, D, U, V):
        self.D = D
        self.U = U
        self.V = V

    def diagonal(self):
        return tuple(self.D.at(i, i) for i in range(min(self.D.rows, self.D.cols)))


class SolutionSet:
    """Solutions of A*v = b (mod Z^r) on the torus.

    kind is one of "empty", "finite", "family".  For "finite", the points
    are every representative.  For "family", they are one representative per
    connected component and basis spans the continuous directions (primitive
    integer vectors).  Points are listed on first use, as `numerators`;
    `count`, the product of the Smith choices, is known before.
    """

    def __init__(self, kind, basis, cosets=()):
        self.kind = kind
        self.basis = basis
        self.cosets = cosets    # (V, choices, den): the points are V*y/den mod 1

    @property
    def count(self):
        """The number of points (components of a family) `numerators` lists."""
        return prod(map(len, self.cosets[1])) if self.cosets else 0

    @cached_property
    def numerators(self):
        """(den, the points' numerators over den in [0, den), sorted)."""
        if not self.cosets:
            return 1, ()
        V, choices, den = self.cosets
        return den, tuple(sorted({tuple(x % den for x in V.mul_vec(y))
                                  for y in product(*choices)}))

    @property
    def dim(self):
        return len(self.basis)

    def is_empty(self):
        return self.kind == "empty"


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


def snf(A: IntMatrix, rhs=None) -> SmithDecomposition:
    """Smith normal form with transforms: U*A*V = D.  Given an integer
    right-hand side c, the row operations act on c in place of the identity,
    and U is the column U*c."""
    n, m = A.rows, A.cols
    M = A.to_lists()
    U = IntMatrix.identity(n).to_lists() if rhs is None else [[x] for x in rhs]
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


def solve_mod_lattice(A: IntMatrix, den, b) -> SolutionSet:
    """Describe {v in R^r/Z^r : A*v = b/den (mod Z^r)} for a square IntMatrix
    A and an integer vector b.  The result is empty, a finite sorted list of
    representatives, or a finite union of affine subtori (component base
    points plus a common basis of continuous directions).
    """
    r = A.rows
    solved = _smith_solve(A, den, b)
    if solved is None:
        return SolutionSet("empty", ())
    dec, d, c = solved
    free = [i for i in range(r) if d[i] == 0]
    # y_i = (c_i / den + k) / d_i for k < d_i, over one denominator den * step
    step = lcm(*(x for x in d if x))
    choices = [tuple((x + k * den) * (step // di) for k in range(di)) if di else (0,)
               for x, di in zip(c, d)]
    basis = tuple(tuple(dec.V.at(i, j) for i in range(r)) for j in free)
    return SolutionSet("family" if free else "finite", basis, (dec.V, choices, den * step))


def kernel_q(rows, cols):
    """The HNF basis of the saturated kernel {v in Z^cols : row . v = 0 for
    every row} of the integer `rows`, as a list of int tuples: the rows of
    the HNF transform of the transposed matrix past its rank, brought to
    Hermite form.  Those rows extend to a unimodular matrix, so every
    integer vector of the kernel is an integer combination of the basis."""
    if not rows:
        return [tuple(int(i == j) for j in range(cols)) for i in range(cols)]
    H, U = hnf(IntMatrix.from_rows(rows).transpose())
    rank = sum(map(any, H.row_tuples))
    if rank == cols:
        return []
    return list(hnf(IntMatrix.from_rows(U.row_tuples[rank:]))[0].row_tuples)


def solve_affine_congruence(M: IntMatrix, den, c):
    """One rational w with M*w = c/den (mod Z^rows), as (a multiple of den,
    w's integer numerators over it), or None if none exists.

    M is an integer rows x cols matrix, c an integer vector of length rows.
    Used for removing vector-system coboundaries; the returned witness is a
    single representative, not the full set.
    """
    solved = _smith_solve(M, den, c)
    if solved is None:
        return None
    dec, diag, cu = solved
    step = lcm(*(d for d in diag[:M.cols] if d))
    return den * step, dec.V.mul_vec([cu[i] * (step // diag[i]) if diag[i] else 0
                                      for i in range(M.cols)])


def _smith_solve(M: IntMatrix, den, c):
    """(U*M*V = D, diagonal of D zero-padded to max(rows, cols), U*c), or
    None when M*w = c/den (mod Z^rows) has no rational w: (U*c)_i not a
    multiple of den where d_i = 0.  The elimination carries the integer c
    in place of U, so the decomposition's U is the column U*c."""
    dec = snf(M, c)
    diag = dec.diagonal() + (0,) * abs(M.rows - M.cols)
    if any(d == 0 and x % den for d, x in zip(diag, dec.U.entries)):
        return None
    return dec, diag, dec.U.entries


def rank_rat(rows):
    return fieldlin.rank(rows)
