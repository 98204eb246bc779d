"""Linear algebra over an exact field, for every matrix over Q, F_p or a
cyclotomic field: the one row-reduction kernel of the package.

Matrices are lists of lists whose entries support +, -, *, /, == and mix
with Python ints: Fraction (over Q) and Cyclo (over a cyclotomic field,
integer coordinates over one denominator).  Over F_p (for character tables)
the entries are plain ints and the routines take the prime as `p`: each
row operation reduces its row mod p, and a pivot is inverted by `pow`.
Elimination inverts each pivot once and scales its row by the inverse.
Besides elimination (rref, rank, nullspace, solve_columns, inverse) there is
`charpoly`, the characteristic polynomial by Hessenberg reduction, and `det`
is read off its constant term.  Nothing here is numeric."""

from __future__ import annotations

from fractions import Fraction
from operator import mul


def _zero_one(rows, p=None):
    """Zero and one of the entries' field; an int-led matrix is over Q
    unless the prime p is given."""
    if p is not None:
        return 0, 1
    e = rows[0][0]
    zero = e - e
    if type(zero) is int:
        zero = Fraction(0)
    return zero, zero + 1


def _entries(rows, p):
    """A copy of the rows, reduced into [0, p) when p is given."""
    return [list(r) for r in rows] if p is None else [[x % p for x in r] for r in rows]


def rref(rows, p=None):
    """Reduced row echelon form (in place on a copy); returns (rows, pivots).
    With p given the entries are ints mod p, returned in [0, p)."""
    rows = _entries(rows, p)
    n = len(rows)
    m = len(rows[0]) if n else 0
    pivots = []
    one = _zero_one(rows, p)[1] if m else None
    pr = 0
    for pc in range(m):
        piv = next((i for i in range(pr, n) if rows[i][pc] != 0), None)
        if piv is None:
            continue
        rows[pr], rows[piv] = rows[piv], rows[pr]
        prow = rows[pr]
        inv = one / prow[pc] if p is None else pow(prow[pc], -1, p)
        # rows pr.. are zero left of pc: only the nonzero entries of the
        # pivot row from pc on change the other rows
        prow[pc:] = [x * inv for x in prow[pc:]] if p is None else \
            [x * inv % p for x in prow[pc:]]
        support = [(j, prow[j]) for j in range(pc, m) if prow[j] != 0]
        for i, row in enumerate(rows):
            f = row[pc]
            if i != pr and f != 0:
                if p is None:
                    for j, y in support:
                        row[j] = row[j] - f * y
                else:
                    for j, y in support:
                        row[j] = (row[j] - f * y) % p
        pivots.append(pc)
        pr += 1
        if pr == n:
            break
    return rows, pivots


def rank(rows):
    return len(rref(rows)[1])


def nullspace(rows, p=None):
    """Basis of the right kernel, free variables set to one."""
    red, pivots = rref(rows, p)
    m = len(rows[0])
    zero, one = _zero_one(rows, p)
    basis = []
    for fc in range(m):
        if fc in pivots:
            continue
        v = [zero] * m
        v[fc] = one
        for k, pc in enumerate(pivots):
            v[pc] = zero - red[k][fc] if p is None else -red[k][fc] % p
        basis.append(v)
    return basis


def solve_columns(B, Y, p=None):
    """X with B X = Y for B of full column rank; raises on inconsistency."""
    w = len(B[0])
    red, pivots = rref([list(b) + list(y) for b, y in zip(B, Y)], p)
    # a pivot landing in the Y block signals inconsistency; fewer than w
    # pivots in the B block signals rank deficiency
    if any(c >= w for c in pivots):
        raise ArithmeticError("inconsistent system")
    if pivots != list(range(w)):
        raise ArithmeticError("matrix does not have full column rank")
    return [red[r][w:] for r in range(w)]


def inverse(rows, p=None):
    n = len(rows)
    zero, one = _zero_one(rows, p)
    return solve_columns(rows, [[one if i == j else zero for j in range(n)]
                                for i in range(n)], p)


def charpoly(rows, p=None):
    """Coefficients c_0, ..., c_n (c_n = 1) of det(x I - A), A square, n >= 1.

    Elimination similarities (row i -= f row m, column m += f column i) bring
    A to upper Hessenberg form H; the characteristic polynomials p_m of its
    leading blocks satisfy p_m = (x - h_mm) p_(m-1)
    - sum_(i<m) h_im h_(i+1,i) ... h_(m,m-1) p_(i-1).  O(n^3) operations.
    With p given, over F_p: every row, column and scalar is reduced mod p
    before it is tested against zero."""
    def mod(x):
        return x if p is None else x % p

    H = _entries(rows, p)
    n = len(H)
    zero, one = _zero_one(H, p)
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if H[i][m - 1] != 0), None)
        if piv is None:
            continue
        H[m], H[piv] = H[piv], H[m]
        for r in H:
            r[m], r[piv] = r[piv], r[m]
        inv = one / H[m][m - 1] if p is None else pow(H[m][m - 1], -1, p)
        for i in range(m + 1, n):
            f = mod(H[i][m - 1] * inv)
            if f != 0:
                H[i] = [mod(x - f * y) for x, y in zip(H[i], H[m])]
                for r in H:
                    r[m] = r[m] + f * r[i]
        for r in H:
            r[m] = mod(r[m])
    polys = [[one]]
    for m in range(n):
        h = H[m][m]
        poly = [a - h * b for a, b in zip([zero] + polys[m], polys[m] + [zero])]
        t = one
        for i in range(m - 1, -1, -1):
            t = mod(t * H[i + 1][i])
            c = mod(t * H[i][m])
            if c != 0:
                for k, q in enumerate(polys[i]):
                    poly[k] = poly[k] - c * q
        polys.append([mod(x) for x in poly])
    return polys[n]


def det(rows, p=None):
    """det A = (-1)^n c_0, c_0 the constant term of `charpoly` (H. Cohen, A
    Course in Computational Algebraic Number Theory, 1993, 2.2)."""
    c0 = charpoly(rows, p)[0]
    return c0 if len(rows) % 2 == 0 else (c0 - c0) - c0 if p is None else -c0 % p


def mat_mul(A, B):
    cols = [(c[0], c[1:]) for c in zip(*B)]
    out = []
    for row in A:
        first, rest = row[0], row[1:]
        out.append([sum(map(mul, rest, tail), first * head) for head, tail in cols])
    return out


def hstack(*mats):
    mats = [m for m in mats if m and m[0]]
    n = len(mats[0])
    return [sum((list(m[i]) for m in mats), []) for i in range(n)]


def columns(rows, idx):
    return [[r[j] for j in idx] for r in rows]
