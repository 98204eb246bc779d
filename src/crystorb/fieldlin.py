"""Gaussian elimination over an arbitrary exact field: the one row-reduction
kernel of the package.

Matrices are lists of lists whose entries support +, -, *, /, == and mix
with Python ints: Fraction (over Q), Cyclo (over a cyclotomic field) and GF
(over F_p, for character tables).  Besides elimination (rref, rank,
nullspace, solve_columns, inverse, det) there is `charpoly`, the
characteristic polynomial by Hessenberg reduction.  Nothing here is numeric."""

from __future__ import annotations


class GF:
    """The residue v (mod p) in the prime field F_p.  Python ints mix in and
    are read mod p; division by 0 raises ZeroDivisionError."""

    __slots__ = ("v", "p")
    __hash__ = None

    def __init__(self, v, p):
        self.v, self.p = v % p, p

    def __add__(self, other):
        return GF(self.v + (other.v if type(other) is GF else other), self.p)

    __radd__ = __add__

    def __sub__(self, other):
        return GF(self.v - (other.v if type(other) is GF else other), self.p)

    def __rsub__(self, other):
        return GF(other - self.v, self.p)

    def __mul__(self, other):
        return GF(self.v * (other.v if type(other) is GF else other), self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        d = (other.v if type(other) is GF else other) % self.p
        if d == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return GF(self.v * pow(d, -1, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, (GF, int)):
            return (self.v - (other.v if type(other) is GF else other)) % self.p == 0
        return NotImplemented

    def __repr__(self):
        return f"GF({self.v}, {self.p})"


def _zero_one(rows):
    e = rows[0][0]
    zero = e - e
    return zero, zero + 1


def rref(rows):
    """Reduced row echelon form (in place on a copy); returns (rows, pivots)."""
    rows = [list(r) for r in rows]
    n = len(rows)
    m = len(rows[0]) if n else 0
    pivots = []
    pr = 0
    for pc in range(m):
        piv = next((i for i in range(pr, n) if rows[i][pc] != 0), None)
        if piv is None:
            continue
        rows[pr], rows[piv] = rows[piv], rows[pr]
        prow = rows[pr]
        pv = prow[pc]
        # rows pr.. are zero left of pc: only the nonzero entries of the
        # pivot row from pc on change the other rows
        prow[pc:] = [x / pv for x in prow[pc:]]
        support = [(j, prow[j]) for j in range(pc, m) if prow[j] != 0]
        for i, row in enumerate(rows):
            f = row[pc]
            if i != pr and f != 0:
                for j, y in support:
                    row[j] = row[j] - f * y
        pivots.append(pc)
        pr += 1
        if pr == n:
            break
    return rows, pivots


def rank(rows):
    return len(rref(rows)[1])


def nullspace(rows):
    """Basis of the right kernel, free variables set to one."""
    red, pivots = rref(rows)
    m = len(rows[0])
    zero, one = _zero_one(rows)
    basis = []
    for fc in range(m):
        if fc in pivots:
            continue
        v = [zero] * m
        v[fc] = one
        for k, pc in enumerate(pivots):
            v[pc] = zero - red[k][fc]
        basis.append(v)
    return basis


def solve_columns(B, Y):
    """X with B X = Y for B of full column rank; raises on inconsistency."""
    w = len(B[0])
    red, pivots = rref([list(b) + list(y) for b, y in zip(B, Y)])
    # a pivot landing in the Y block signals inconsistency; fewer than w
    # pivots in the B block signals rank deficiency
    if any(p >= w for p in pivots):
        raise ArithmeticError("inconsistent system")
    if pivots != list(range(w)):
        raise ArithmeticError("matrix does not have full column rank")
    return [red[r][w:] for r in range(w)]


def inverse(rows):
    n = len(rows)
    zero, one = _zero_one(rows)
    return solve_columns(rows, [[one if i == j else zero for j in range(n)]
                                for i in range(n)])


def det(rows):
    rows = [list(r) for r in rows]
    n = len(rows)
    zero, one = _zero_one(rows)
    sign = one
    acc = one
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return zero
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = zero - sign
        acc = acc * rows[c][c]
        inv = one / rows[c][c]
        support = [(j, rows[c][j]) for j in range(c, n) if rows[c][j] != 0]
        for row in rows[c + 1:]:
            if row[c] != 0:
                f = row[c] * inv
                for j, y in support:
                    row[j] = row[j] - f * y
    return sign * acc


def charpoly(rows):
    """Coefficients c_0, ..., c_n (c_n = 1) of det(x I - A), A square, n >= 1.

    Elimination similarities (row i -= f row m, column m += f column i) bring
    A to upper Hessenberg form H; the characteristic polynomials p_m of its
    leading blocks satisfy p_m = (x - h_mm) p_(m-1)
    - sum_(i<m) h_im h_(i+1,i) ... h_(m,m-1) p_(i-1).  O(n^3) operations."""
    H = [list(r) for r in rows]
    n = len(H)
    zero, one = _zero_one(H)
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if H[i][m - 1] != 0), None)
        if piv is None:
            continue
        H[m], H[piv] = H[piv], H[m]
        for r in H:
            r[m], r[piv] = r[piv], r[m]
        inv = one / H[m][m - 1]
        for i in range(m + 1, n):
            f = H[i][m - 1] * inv
            if f != 0:
                H[i] = [x - f * y for x, y in zip(H[i], H[m])]
                for r in H:
                    r[m] = r[m] + f * r[i]
    polys = [[one]]
    for m in range(n):
        h = H[m][m]
        p = [a - h * b for a, b in zip([zero] + polys[m], polys[m] + [zero])]
        t = one
        for i in range(m - 1, -1, -1):
            t = t * H[i + 1][i]
            c = t * H[i][m]
            if c != 0:
                for k, q in enumerate(polys[i]):
                    p[k] = p[k] - c * q
        polys.append(p)
    return polys[n]


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    return [[sum((A[i][t] * B[t][j] for t in range(1, k)),
                 A[i][0] * B[0][j]) for j in range(m)] for i in range(n)]


def hstack(*mats):
    mats = [m for m in mats if m and m[0]]
    n = len(mats[0])
    return [sum((list(m[i]) for m in mats), []) for i in range(n)]


def columns(rows, idx):
    return [[r[j] for j in idx] for r in rows]
