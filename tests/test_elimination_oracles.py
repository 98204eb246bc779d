"""The elimination kernel of `fieldlin` against the routines it replaced.

Row reduction over Q used to be written out in `exactla` (RatMatrix.inverse,
kernel_q, rank_rat) and over F_p in `groupcore` (nullspace, solve_columns,
det on ints mod p).  Those six loops are kept below as oracles and compared
with the `fieldlin` paths on seeded random matrices, including rank-deficient
and inconsistent systems.  `fieldlin.charpoly` is checked against
det(x I - A) over Q, F_p and a cyclotomic field, and `fieldlin.GF` against
int arithmetic mod p.
"""

import random
from fractions import Fraction

import pytest

from crystorb import fieldlin
from crystorb.cyclo import CycloField
from crystorb.exactla import IntMatrix, RatMatrix, kernel_q, rank_rat
from crystorb.fieldlin import GF

PRIMES = (2, 3, 13, 73)


# ---------------------------------------------------------------------------
# oracles: the hand-written eliminations the package used to carry

def oracle_rat_inverse(A):
    n = A.rows
    aug = [list(A.row(i)) + [Fraction(1 if i == j else 0) for j in range(n)]
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
    return RatMatrix.from_rows([r[n:] for r in aug])


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


def oracle_kernel_q(A):
    from crystorb.exactla import _primitive
    rows = A.to_lists()
    pivots = _oracle_rref_q(rows, A.rows, A.cols)
    basis = []
    for fc in [j for j in range(A.cols) if j not in pivots]:
        v = [Fraction(0)] * A.cols
        v[fc] = Fraction(1)
        for k, pc in enumerate(pivots):
            v[pc] = -rows[k][fc]
        basis.append(_primitive(v))
    return basis


def oracle_rank_rat(A):
    return len(_oracle_rref_q(A.to_lists(), A.rows, A.cols))


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
        yield RatMatrix.from_rows(random_matrix(rng, n, m, rank, rational_entry))


def to_gf(rows, p):
    return [[GF(x, p) for x in row] for row in rows]


def from_gf(rows):
    return [[x.v for x in row] for row in rows]


# ---------------------------------------------------------------------------
# over Q

def test_inverse_matches_oracle():
    rng = random.Random(5)
    singular = invertible = 0
    for _ in range(80):
        n = rng.randint(1, 6)
        rank = rng.choice([None, None, None, rng.randint(0, n - 1) if n > 1 else 0])
        A = RatMatrix.from_rows(random_matrix(rng, n, n, rank, rational_entry))
        try:
            want = oracle_rat_inverse(A)
        except ValueError as exc:
            singular += 1
            with pytest.raises(ValueError, match=str(exc)):
                A.inverse()
            continue
        invertible += 1
        got = A.inverse()
        assert got == want
        assert A.mul(got) == RatMatrix.identity(n)
    assert singular >= 10 and invertible >= 30


def test_rref_matches_oracle():
    for A in rat_cases(seed=10):
        rows = A.to_lists()
        pivots = _oracle_rref_q(rows, A.rows, A.cols)
        assert fieldlin.rref(A.to_lists()) == (rows, pivots)


def test_kernel_q_matches_oracle():
    nontrivial = 0
    for A in rat_cases():
        got = kernel_q(A)
        assert got == oracle_kernel_q(A)
        nontrivial += bool(got)
        for v in got:
            assert all(x == 0 for x in A.mul_vec(v))
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
    for _ in range(60):
        n = rng.randint(1, 6)
        rank = rng.choice([None, None, rng.randint(0, n)])
        rows = random_matrix(rng, n, n, rank)
        assert fieldlin.det([[Fraction(x) for x in r] for r in rows]) == \
            IntMatrix.from_rows(rows).det()


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
        red, got_pivots = fieldlin.rref(to_gf(A, p))
        assert (from_gf(red), got_pivots) == (rows, pivots)


@pytest.mark.parametrize("p", PRIMES)
def test_fp_nullspace_matches_oracle(p):
    nontrivial = 0
    for A in fp_cases(p):
        got = fieldlin.nullspace(to_gf(A, p))
        assert from_gf(got) == oracle_fp_nullspace(A, p)
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
        got = fieldlin.det(to_gf(A, p))
        assert got.v == want
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
                fieldlin.solve_columns(to_gf(B, p), to_gf(Y, p))
            full_rank = fieldlin.rank(to_gf(B, p)) == w
            outcomes["inconsistent" if full_rank else "deficient"] += 1
        else:
            assert from_gf(fieldlin.solve_columns(to_gf(B, p), to_gf(Y, p))) == want
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
    n = len(A)
    return fieldlin.det([[(x if i == j else one - one) - A[i][j] for j in range(n)]
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
        A = to_gf(random_matrix(rng, n, n, rng.choice([None, rng.randint(0, n)]),
                                lambda rng: rng.randrange(p)), p)
        c = fieldlin.charpoly(A)
        assert len(c) == n + 1 and c[-1] == 1
        for lam in range(min(p, 13)):
            assert _charpoly_at(c, GF(lam, p)) == _det_shift(A, GF(lam, p), GF(1, p))


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


# ---------------------------------------------------------------------------
# the F_p element type

@pytest.mark.parametrize("p", PRIMES)
def test_gf_matches_int_arithmetic(p):
    rng = random.Random(p)
    values = list(range(p)) if p < 20 else [rng.randrange(-3 * p, 3 * p) for _ in range(25)]
    for a in values:
        x = GF(a, p)
        assert 0 <= x.v < p and x.v == a % p
        assert x == a and x == a + p and not (x != a - 7 * p)
        assert x != a + 1
        for b in values:
            y = GF(b, p)
            for got, want in ((x + y, a + b), (x - y, a - b), (x * y, a * b),
                              (x + b, a + b), (b + x, a + b), (x - b, a - b),
                              (b - x, b - a), (x * b, a * b), (b * x, a * b)):
                assert type(got) is GF and got.v == want % p
            assert (x == y) == ((a - b) % p == 0)
            if b % p:
                q = x / y
                assert (q * b).v == a % p and (x / b).v == q.v
            else:
                with pytest.raises(ZeroDivisionError):
                    x / y
                with pytest.raises(ZeroDivisionError):
                    x / b


def test_gf_is_unhashable_and_compares_only_to_ints():
    with pytest.raises(TypeError):
        hash(GF(1, 5))
    assert GF(1, 5) != Fraction(1)
    assert GF(1, 5) != "1"
