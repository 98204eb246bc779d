"""The elimination kernel of `fieldlin` against the routines it replaced.

Row reduction over Q used to be written out in `exactla` (RatMatrix.inverse,
kernel_q, rank_rat) and over F_p in `groupcore` (nullspace, solve_columns,
det on ints mod p).  Those six loops are kept below as oracles and compared
with the `fieldlin` paths on seeded random matrices, including rank-deficient
and inconsistent systems.  So are the two determinants that `fieldlin.det`
replaced by the constant term of `charpoly`: Bareiss elimination on integer
matrices (`IntMatrix.det`) and the pivoting loop of the old `fieldlin.det`,
over Q, F_p and Q(zeta_12).  `fieldlin.charpoly` is checked against
det(x I - A), evaluated by that loop (over F_p, by the old F_p determinant),
over the same three fields.  Over F_p the `fieldlin` routines take plain
ints and the prime as `p`.  `kernel_q` now reads the integer kernel off
`hnf`: against the kernel of the rref oracle it must span the same space,
be in Hermite form and contain each primitive oracle vector over Z.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from conftest import integer_rows

from crystorb import fieldlin
from crystorb.cyclo import CycloField
from crystorb.exactla import kernel_q, rank_rat

PRIMES = (2, 3, 13, 73)


# ---------------------------------------------------------------------------
# oracles: the hand-written eliminations the package used to carry

def oracle_rat_inverse(A):
    n = len(A)
    aug = [list(A[i]) + [Fraction(1 if i == j else 0) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [r[n:] for r in aug]


def _oracle_rref_q(rows, n, m):
    pivots = []
    pr = 0
    for pc in range(m):
        piv = next((i for i in range(pr, n) if rows[i][pc] != 0), None)
        if piv is None:
            continue
        rows[pr], rows[piv] = rows[piv], rows[pr]
        pv = rows[pr][pc]
        rows[pr] = [x / pv for x in rows[pr]]
        for i in range(n):
            if i != pr and rows[i][pc] != 0:
                f = rows[i][pc]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == n:
            break
    return pivots


def oracle_primitive(v):
    """The rational vector v scaled to coprime ints, first nonzero entry > 0."""
    den = lcm(*(x.denominator for x in v))
    w = [int(x * den) for x in v]
    g = gcd(*w)
    if next(x for x in w if x) < 0:
        g = -g
    return tuple(x // g for x in w)


def oracle_kernel_q(A):
    rows = [list(r) for r in A]
    m = len(A[0])
    pivots = _oracle_rref_q(rows, len(A), m)
    basis = []
    for fc in [j for j in range(m) if j not in pivots]:
        v = [Fraction(0)] * m
        v[fc] = Fraction(1)
        for k, pc in enumerate(pivots):
            v[pc] = -rows[k][fc]
        basis.append(oracle_primitive(v))
    return basis


def assert_hnf_kernel(got, oracle):
    """`got` is in row Hermite form and spans what the oracle's basis spans,
    and each primitive oracle vector is an integer combination of its rows:
    the back-substitution along the pivots divides exactly and ends at 0."""
    assert len(got) == len(oracle)
    pivots = []
    for i, row in enumerate(got):
        p = next(j for j, x in enumerate(row) if x)
        assert row[p] > 0 and (not pivots or p > pivots[-1])
        assert all(0 <= got[k][p] < row[p] for k in range(i))
        pivots.append(p)
    for v in oracle:
        rest = list(v)
        for row, p in zip(got, pivots):
            q, r = divmod(rest[p], row[p])
            assert r == 0
            rest = [a - q * b for a, b in zip(rest, row)]
        assert not any(rest)


def oracle_rank_rat(A):
    return len(_oracle_rref_q([list(r) for r in A], len(A), len(A[0])))


def _oracle_rref_fp(rows, p):
    n = len(rows)
    m = len(rows[0]) if rows else 0
    pivots = []
    pr = 0
    for pc in range(m):
        piv = next((i for i in range(pr, n) if rows[i][pc] % p), None)
        if piv is None:
            continue
        rows[pr], rows[piv] = rows[piv], rows[pr]
        inv = pow(rows[pr][pc], p - 2, p)
        rows[pr] = [(x * inv) % p for x in rows[pr]]
        for i in range(n):
            if i != pr and rows[i][pc] % p:
                f = rows[i][pc]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == n:
            break
    return pivots


def oracle_fp_nullspace(mat, p):
    rows = [r[:] for r in mat]
    m = len(rows[0]) if rows else 0
    pivots = _oracle_rref_fp(rows, p)
    basis = []
    for fc in range(m):
        if fc in pivots:
            continue
        v = [0] * m
        v[fc] = 1
        for k, pc in enumerate(pivots):
            v[pc] = (-rows[k][fc]) % p
        basis.append(v)
    return basis


def oracle_fp_solve_columns(B, Y, p):
    k = len(B)
    w = len(B[0])
    ny = len(Y[0])
    aug = [B[i][:] + Y[i][:] for i in range(k)]
    pr = 0
    for pc in range(w):
        piv = next((i for i in range(pr, k) if aug[i][pc] % p), None)
        if piv is None:
            raise ArithmeticError("basis matrix not of full column rank")
        aug[pr], aug[piv] = aug[piv], aug[pr]
        inv = pow(aug[pr][pc], p - 2, p)
        aug[pr] = [(x * inv) % p for x in aug[pr]]
        for i in range(k):
            if i != pr and aug[i][pc] % p:
                f = aug[i][pc]
                aug[i] = [(x - f * y) % p for x, y in zip(aug[i], aug[pr])]
        pr += 1
    for i in range(pr, k):
        if any(x % p for x in aug[i][w:]):
            raise ArithmeticError("inconsistent restriction system")
    return [[aug[r][w + j] for j in range(ny)] for r in range(w)]


def oracle_fp_det(mat, p):
    rows = [r[:] for r in mat]
    n = len(rows)
    det = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] % p), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = (-det) % p
        det = (det * rows[c][c]) % p
        inv = pow(rows[c][c], p - 2, p)
        for i in range(c + 1, n):
            if rows[i][c] % p:
                f = (rows[i][c] * inv) % p
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[c])]
    return det % p


def oracle_bareiss(rows):
    """Determinant of an integer matrix by fraction-free (Bareiss)
    elimination: the former IntMatrix.det."""
    n = len(rows)
    m = [list(r) for r in rows]
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


def oracle_field_det(rows):
    """Determinant by pivoting elimination over any field: the former
    fieldlin.det."""
    rows = [list(r) for r in rows]
    n = len(rows)
    zero = rows[0][0] - rows[0][0]
    one = zero + 1
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
        for row in rows[c + 1:]:
            if row[c] != 0:
                f = row[c] * inv
                row[c:] = [x - f * y for x, y in zip(row[c:], rows[c][c:])]
    return sign * acc


# ---------------------------------------------------------------------------
# seeded inputs

def _mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def random_matrix(rng, n, m, rank=None, entry=lambda rng: rng.randint(-3, 3)):
    """An n x m matrix, of rank at most `rank` when given (a product n x r by
    r x m), with a sprinkling of zero entries."""
    def draw(a, b):
        return [[entry(rng) if rng.random() < 0.7 else 0 for _ in range(b)]
                for _ in range(a)]
    if rank is None:
        return draw(n, m)
    if rank == 0:
        return [[0] * m for _ in range(n)]
    return _mat_mul(draw(n, rank), draw(rank, m))


def rational_entry(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def rat_cases(count=60, seed=11):
    rng = random.Random(seed)
    for _ in range(count):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        rank = rng.choice([None, None, rng.randint(0, min(n, m))])
        yield random_matrix(rng, n, m, rank, rational_entry)


# ---------------------------------------------------------------------------
# over Q

def test_inverse_matches_oracle():
    rng = random.Random(5)
    singular = invertible = 0
    for _ in range(80):
        n = rng.randint(1, 6)
        rank = rng.choice([None, None, None, rng.randint(0, n - 1) if n > 1 else 0])
        A = [[Fraction(x) for x in r] for r in random_matrix(rng, n, n, rank, rational_entry)]
        try:
            want = oracle_rat_inverse(A)
        except ValueError:
            singular += 1
            with pytest.raises(ArithmeticError):
                fieldlin.inverse(A)
            continue
        invertible += 1
        got = fieldlin.inverse(A)
        assert got == want
        assert fieldlin.mat_mul(A, got) == [[int(i == j) for j in range(n)] for i in range(n)]
    assert singular >= 10 and invertible >= 30


def test_rref_matches_oracle():
    for A in rat_cases(seed=10):
        rows = [list(r) for r in A]
        pivots = _oracle_rref_q(rows, len(A), len(A[0]))
        assert fieldlin.rref(A) == (rows, pivots)


def test_kernel_q_matches_oracle():
    nontrivial = 0
    for A in rat_cases():
        got = kernel_q(integer_rows(A), len(A[0]))
        assert_hnf_kernel(got, oracle_kernel_q(A))
        nontrivial += bool(got)
        for v in got:
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in A)
    assert nontrivial >= 20


def test_rank_rat_matches_oracle():
    ranks = set()
    for A in rat_cases(seed=12):
        r = rank_rat(A)
        assert r == oracle_rank_rat(A)
        ranks.add(r)
    assert ranks >= {0, 1, 2, 3}


def test_det_matches_bareiss():
    rng = random.Random(6)
    zero = nonzero = 0
    for _ in range(60):
        n = rng.randint(1, 6)
        rank = rng.choice([None, None, rng.randint(0, n)])
        rows = random_matrix(rng, n, n, rank)
        want = oracle_bareiss(rows)
        got = fieldlin.det([[Fraction(x) for x in r] for r in rows])
        assert type(got) is Fraction and got == want
        zero += want == 0
        nonzero += want != 0
    assert zero and nonzero


def test_int_rows_are_eliminated_over_q():
    # a matrix of ints is a matrix over Q: no pivot is inverted in floats
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(1, 6)
        rows = random_matrix(rng, n, n, rng.choice([None, rng.randint(0, n)]))
        exact = [[Fraction(x) for x in r] for r in rows]
        d = fieldlin.det(rows)
        assert not isinstance(d, float) and d == oracle_bareiss(rows)
        assert_hnf_kernel(kernel_q(rows, n), oracle_kernel_q(exact))
        assert rank_rat(rows) == oracle_rank_rat(exact)
        assert fieldlin.rref(rows) == fieldlin.rref(exact)


def test_det_matches_elimination_over_q():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 7)
        rank = rng.choice([None, None, rng.randint(0, n)])
        A = [[Fraction(x) for x in r]
             for r in random_matrix(rng, n, n, rank, rational_entry)]
        assert fieldlin.det(A) == oracle_field_det(A)


def test_det_over_cyclotomic_field():
    field = CycloField(12)
    rng = random.Random(8)

    def entry(rng):
        return field.zeta(rng.randrange(12)) * rng.randint(-2, 2) + rng.randint(-1, 1)

    zero = nonzero = 0
    for _ in range(30):
        n = rng.randint(1, 5)
        rank = rng.choice([None, None, rng.randint(0, n)])
        A = [[field(x) for x in row] for row in random_matrix(rng, n, n, rank, entry)]
        want = oracle_field_det(A)
        got = fieldlin.det(A)
        assert got == want
        zero += want == 0
        nonzero += want != 0
    assert zero and nonzero


# ---------------------------------------------------------------------------
# over F_p

def fp_cases(p, count=40):
    rng = random.Random(1000 + p)
    entry = lambda rng: rng.randrange(p)
    for _ in range(count):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        rank = rng.choice([None, rng.randint(0, min(n, m))])
        yield [[x % p for x in row] for row in random_matrix(rng, n, m, rank, entry)]


@pytest.mark.parametrize("p", PRIMES)
def test_fp_rref_matches_oracle(p):
    for A in fp_cases(p):
        rows = [r[:] for r in A]
        pivots = _oracle_rref_fp(rows, p)
        assert fieldlin.rref(A, p) == (rows, pivots)


@pytest.mark.parametrize("p", PRIMES)
def test_fp_nullspace_matches_oracle(p):
    nontrivial = 0
    for A in fp_cases(p):
        got = fieldlin.nullspace(A, p)
        assert got == oracle_fp_nullspace(A, p)
        nontrivial += bool(got)
    assert nontrivial >= 10


@pytest.mark.parametrize("p", PRIMES)
def test_fp_det_matches_oracle(p):
    rng = random.Random(2000 + p)
    zero = nonzero = 0
    for _ in range(60):
        n = rng.randint(1, 7)
        rank = rng.choice([None, None, rng.randint(0, n)])
        A = [[x % p for x in row]
             for row in random_matrix(rng, n, n, rank, lambda rng: rng.randrange(p))]
        want = oracle_fp_det(A, p)
        got = fieldlin.det(A, p)
        assert type(got) is int and got == want
        zero += want == 0
        nonzero += want != 0
    assert zero and nonzero


@pytest.mark.parametrize("p", PRIMES)
def test_fp_solve_columns_matches_oracle(p):
    rng = random.Random(3000 + p)
    entry = lambda rng: rng.randrange(p)
    outcomes = {"solved": 0, "inconsistent": 0, "deficient": 0}
    for trial in range(90):
        k, w, ny = rng.randint(1, 7), rng.randint(1, 5), rng.randint(1, 4)
        kind = trial % 3
        if kind == 0:       # consistent: Y = B X
            B = [[x % p for x in r] for r in random_matrix(rng, k, w, None, entry)]
            Y = [[x % p for x in r]
                 for r in _mat_mul(B, random_matrix(rng, w, ny, None, entry))]
        elif kind == 1:     # Y outside the column space of B
            B = [[x % p for x in r] for r in random_matrix(rng, k, w, None, entry)]
            Y = [[x % p for x in r] for r in random_matrix(rng, k, ny, None, entry)]
        else:               # B rank deficient
            B = [[x % p for x in r]
                 for r in random_matrix(rng, k, w, rng.randint(0, w - 1), entry)]
            Y = [[x % p for x in r]
                 for r in _mat_mul(B, random_matrix(rng, w, ny, None, entry))]
        try:
            want = oracle_fp_solve_columns(B, Y, p)
        except ArithmeticError:
            want = None
        if want is None:
            with pytest.raises(ArithmeticError):
                fieldlin.solve_columns(B, Y, p)
            full_rank = len(fieldlin.rref(B, p)[1]) == w
            outcomes["inconsistent" if full_rank else "deficient"] += 1
        else:
            assert fieldlin.solve_columns(B, Y, p) == want
            outcomes["solved"] += 1
    assert all(outcomes.values()), outcomes


# ---------------------------------------------------------------------------
# characteristic polynomial

def _charpoly_at(coeffs, x):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def _det_shift(A, x, one):
    """det(x I - A) by the elimination oracle, so charpoly is not checked
    against itself."""
    n = len(A)
    return oracle_field_det([[(x if i == j else one - one) - A[i][j] for j in range(n)]
                             for i in range(n)])


def test_charpoly_over_q():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(1, 6)
        rank = rng.choice([None, rng.randint(0, n)])
        A = [[Fraction(x) for x in r]
             for r in random_matrix(rng, n, n, rank, rational_entry)]
        c = fieldlin.charpoly(A)
        assert len(c) == n + 1 and c[-1] == 1
        for x in (Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 2)):
            assert _charpoly_at(c, x) == _det_shift(A, x, Fraction(1))


@pytest.mark.parametrize("p", PRIMES)
def test_charpoly_over_fp(p):
    rng = random.Random(4000 + p)
    for _ in range(30):
        n = rng.randint(1, 7)
        A = random_matrix(rng, n, n, rng.choice([None, rng.randint(0, n)]),
                          lambda rng: rng.randrange(p))
        c = fieldlin.charpoly(A, p)
        assert len(c) == n + 1 and c[-1] == 1
        assert all(type(x) is int and 0 <= x < p for x in c)
        for lam in range(min(p, 13)):
            shifted = [[(lam if i == j else 0) - A[i][j] for j in range(n)] for i in range(n)]
            assert _charpoly_at(c, lam) % p == oracle_fp_det(shifted, p)


def test_charpoly_over_cyclotomic_field():
    field = CycloField(12)
    rng = random.Random(31)

    def entry(rng):
        return field.zeta(rng.randrange(12)) * rng.randint(-2, 2) + rng.randint(-1, 1)

    for _ in range(12):
        n = rng.randint(1, 4)
        A = [[field(x) for x in row] for row in random_matrix(rng, n, n, None, entry)]
        c = fieldlin.charpoly(A)
        assert len(c) == n + 1 and c[-1] == field(1)
        for x in (field(0), field(2), field.zeta(1), field.zeta(5) + 1):
            assert _charpoly_at(c, x) == _det_shift(A, x, field(1))
