"""Exact integer linear algebra for lattices: Hermite and Smith normal
forms, congruences modulo Z^r, saturated integer kernels.

An integer matrix is a sequence of int rows, a group element a tuple of
int tuples.  Everything over a field, such as inverse, rank, determinant
and the rational kernel, is `fieldlin`'s; a rational matrix is a list of
Fraction rows.  `kernel_q` reads the integer kernel off one `hnf`, with no
elimination over Q.

Everything here is arbitrary-precision and deterministic; no floating point.
Conventions fixed for reproducibility:

* Hermite form is row-style: row echelon, positive pivots, entries above a
  pivot reduced into [0, pivot).
* Smith diagonal entries are nonnegative and satisfy d1 | d2 | ... .
* Solution sets on the torus R^r/Z^r list representatives inside [0,1)^r,
  sorted lexicographically.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from math import lcm, prod
from operator import mul

from . import fieldlin


def mul_vec(rows, v):
    """The integer matrix `rows` times the column v, as a tuple."""
    return tuple([sum(map(mul, r, v)) for r in rows])


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
        return den, tuple(sorted({tuple(x % den for x in mul_vec(V, y))
                                  for y in product(*choices)}))

    @property
    def dim(self):
        return len(self.basis)

    def is_empty(self):
        return self.kind == "empty"


def hnf(rows):
    """Row Hermite normal form of the integer `rows`, as a tuple of int
    tuples: row echelon with positive pivots, entries above each pivot in
    [0, pivot), zero rows last."""
    H = [list(r) for r in rows]
    n, m = len(H), len(H[0])
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
            if H[pr][pc] < 0:
                H[pr] = [-x for x in H[pr]]
            p = H[pr][pc]
            done = True
            for i in range(pr + 1, n):
                if H[i][pc] != 0:
                    q = H[i][pc] // p
                    H[i] = [a - q * b for a, b in zip(H[i], H[pr])]
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
            pr += 1
    return tuple(map(tuple, H))


def snf(rows, rhs=None):
    """Smith normal form with transforms U*A*V = D, as (the diagonal of D,
    U, V), U and V lists of int rows.  Given an integer right-hand side c,
    the row operations act on c in place of the identity, and U is the
    column U*c."""
    n, m = len(rows), len(rows[0])
    M = [list(r) for r in rows]
    U = [[int(i == j) for j in range(n)] for i in range(n)] if rhs is None else [[x] for x in rhs]
    V = [[int(i == j) for j in range(m)] for i in range(m)]

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
    return tuple(M[i][i] for i in range(min(n, m))), U, V


def solve_mod_lattice(A, den, b) -> SolutionSet:
    """Describe {v in R^r/Z^r : A*v = b/den (mod Z^r)} for a square integer
    matrix A and an integer vector b.  The result is empty, a finite sorted
    list of representatives, or a finite union of affine subtori (component
    base points plus a common basis of continuous directions).
    """
    r = len(A)
    solved = _smith_solve(A, den, b)
    if solved is None:
        return SolutionSet("empty", ())
    V, d, c = solved
    free = [i for i in range(r) if d[i] == 0]
    # y_i = (c_i / den + k) / d_i for k < d_i, over one denominator den * step
    step = lcm(*(x for x in d if x))
    choices = [tuple((x + k * den) * (step // di) for k in range(di)) if di else (0,)
               for x, di in zip(c, d)]
    basis = tuple(tuple(V[i][j] for i in range(r)) for j in free)
    return SolutionSet("family" if free else "finite", basis, (V, choices, den * step))


def kernel_q(rows, cols):
    """The HNF basis of the saturated kernel {v in Z^cols : row . v = 0 for
    every row} of the integer `rows`, as a list of int tuples: the right
    block of the rows of HNF(rows^T | I) whose left block is zero (H. Cohen,
    A Course in Computational Algebraic Number Theory, 1993, 2.4).  Those
    rows are the rows past the rank of a unimodular U with U rows^T in
    Hermite form, so every integer vector of the kernel is an integer
    combination of them, and they are in Hermite form themselves."""
    k = len(rows)
    if not k:
        return [tuple(int(i == j) for j in range(cols)) for i in range(cols)]
    H = hnf([[r[i] for r in rows] + [int(i == j) for j in range(cols)] for i in range(cols)])
    return [row[k:] for row in H if not any(row[:k])]


def solve_affine_congruence(M, den, c):
    """One rational w with M*w = c/den (mod Z^rows), as (a multiple of den,
    w's integer numerators over it), or None if none exists.

    M is an integer rows x cols matrix, c an integer vector of length rows.
    Used for removing vector-system coboundaries; the returned witness is a
    single representative, not the full set.
    """
    solved = _smith_solve(M, den, c)
    if solved is None:
        return None
    V, diag, cu = solved
    cols = len(M[0])
    step = lcm(*(d for d in diag[:cols] if d))
    return den * step, mul_vec(V, [cu[i] * (step // diag[i]) if diag[i] else 0
                                   for i in range(cols)])


def _smith_solve(M, den, c):
    """(V with U*M*V = D, the diagonal of D zero-padded to max(rows, cols),
    U*c), or None when M*w = c/den (mod Z^rows) has no rational w: (U*c)_i
    not a multiple of den where d_i = 0.  The elimination carries the
    integer c in place of U."""
    diag, Uc, V = snf(M, c)
    diag += (0,) * abs(len(M) - len(M[0]))
    cu = [x for x, in Uc]
    if any(d == 0 and x % den for d, x in zip(diag, cu)):
        return None
    return V, diag, cu


def rank_rat(rows):
    return fieldlin.rank(rows)
