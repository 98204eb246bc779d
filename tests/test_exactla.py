import random
from fractions import Fraction
from itertools import product

from conftest import cardinality, congruence_rhs, integer_rows, mod1_vec, points

from crystorb import exactla, fieldlin
from crystorb.groupcore import closure
from crystorb.exactla import (
    hnf,
    kernel_q,
    rank_rat,
    snf,
    solve_affine_congruence,
    solve_mod_lattice,
)

F = Fraction


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def rat(A):
    return [[F(x) for x in row] for row in A]


def det(A):
    return fieldlin.det(rat(A))


def mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def mul_vec(rows, v):
    return tuple(sum(a * x for a, x in zip(row, v)) for row in rows)


def brute_force_torus_solutions(A, b):
    """Independent oracle: enumerate A^{-1}(b + Z^r)/Z^r for nonsingular A.

    Walks every integer vector k inside the bounding box of A*[0,1)^r - b and
    keeps v = A^{-1}(b + k) that lands in [0,1)^r.
    """
    r = len(A)
    Ainv = fieldlin.inverse(rat(A))
    b = [F(x) for x in b]
    los, his = [], []
    for i in range(r):
        neg = sum(min(x, 0) for x in A[i])
        pos = sum(max(x, 0) for x in A[i])
        los.append(neg - int(b[i]) - 2)
        his.append(pos - int(b[i]) + 2)
    sols = set()
    for k in product(*[range(lo, hi + 1) for lo, hi in zip(los, his)]):
        rhs = [b[i] + k[i] for i in range(r)]
        v = mul_vec(Ainv, rhs)
        if all(0 <= x < 1 for x in v):
            sols.add(tuple(v))
    return sorted(sols)


class TestProducts:
    """Integer matrix products: `fieldlin.mat_mul` on int rows, and
    `exactla.mul_vec`."""

    @staticmethod
    def shapes(rng):
        yield from ((1, 1, 1), (1, 5, 1), (5, 1, 5), (1, 4, 3), (4, 3, 1))
        for _ in range(40):
            yield rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)

    def test_mul_matches_naive_loops(self):
        rng = random.Random(17)
        for n, k, m in self.shapes(rng):
            A = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(n)]
            B = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(k)]
            want = [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)]
                    for i in range(n)]
            got = fieldlin.mat_mul(tuple(map(tuple, A)), tuple(map(tuple, B)))
            assert got == want and all(type(x) is int for row in got for x in row)

    def test_mul_vec_matches_naive_loops(self):
        rng = random.Random(18)
        for n, k, _ in self.shapes(rng):
            A = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(n)]
            v = [rng.randint(-9, 9) for _ in range(k)]
            assert exactla.mul_vec(A, v) == mul_vec(A, v)

    def test_cached_rows_keep_equality_and_hash(self):
        # an element is made of the rows of the unit-row orbit, shared
        # between elements; it equals and hashes as a fresh copy of its rows
        g = closure([[[0, -1], [1, 0]], [[1, 0], [0, -1]]])
        for m in g.elements:
            fresh = tuple(tuple(list(row)) for row in m)
            assert m == fresh and hash(m) == hash(fresh) and {m: 1}[fresh] == 1
        assert len(set(g.elements)) == g.order() == 8


class TestHnf:
    def test_identity(self):
        assert hnf(identity(2)) == identity(2)

    def test_example_2x2(self):
        # oracle: exhaustive integer row reduction by hand; |det H| = |det A| = 8
        A = ((2, 4), (6, 8))
        H = hnf(A)
        assert H == ((2, 0), (0, 4))
        assert abs(det(H)) == abs(det(A)) == 8

    def test_zero_matrix(self):
        assert hnf([[0, 0], [0, 0]]) == ((0, 0), (0, 0))

    def test_idempotent_and_transform(self):
        # H = U*A for a unimodular U: the rows of H span the lattice of A's
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(1, 4)
            m = rng.randint(1, 4)
            A = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
            H = hnf(A)
            assert all(type(x) is int for row in H for x in row)
            assert hnf(H) == H
            assert hnf(list(H) + A) == H + ((0,) * m,) * n

    def test_pivot_convention(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(2, 4)
            H = hnf([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
            pr = 0
            for pc in range(n):
                col = [H[i][pc] for i in range(n)]
                if any(col[pr:]):
                    # matrix of full column steps: pivot positive, reduced above
                    piv_row = next(i for i in range(pr, n) if col[i] != 0)
                    p = H[piv_row][pc]
                    assert p > 0
                    assert all(H[i][pc] == 0 for i in range(piv_row + 1, n))
                    assert all(0 <= H[i][pc] < p for i in range(piv_row))
                    pr = piv_row + 1


class TestSnf:
    def test_identity(self):
        assert snf(identity(3))[0] == (1, 1, 1)

    def test_example_2x2(self):
        # gcd of 1x1 minors is 2 and |det| = 8, hence diag(2, 4)
        assert snf([[2, 4], [6, 8]])[0] == (2, 4)

    def test_diag_6_4(self):
        # d1 = gcd(6,4) = 2, d1*d2 = 24
        assert snf([[6, 0], [0, 4]])[0] == (2, 12)

    def test_transform_identity_and_chain(self):
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(1, 4)
            m = rng.randint(1, 4)
            A = [[rng.randint(-8, 8) for _ in range(m)] for _ in range(n)]
            diag, U, V = snf(A)
            assert abs(det(U)) == 1
            assert abs(det(V)) == 1
            assert mat_mul(mat_mul(U, A), V) == [
                [diag[i] if i == j else 0 for j in range(m)] for i in range(n)]
            assert all(x >= 0 for x in diag)
            for a, b in zip(diag, diag[1:]):
                if b != 0:
                    assert a != 0 and b % a == 0
                # zeros only at the end
                if a == 0:
                    assert b == 0

    def test_det_product(self):
        rng = random.Random(5)
        count = 0
        while count < 30:
            n = rng.randint(1, 4)
            A = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            d = det(A)
            if d == 0:
                continue
            count += 1
            diag = snf(A)[0]
            prod = 1
            for x in diag:
                prod *= x
            assert prod == abs(d)


class TestSolveModLattice:
    def test_half_lattice_points(self):
        # oracle: enumerate all (a1..a4)/2 with ai in {0,1}
        A = [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]
        sol = solve_mod_lattice(A, *congruence_rhs([0, 0, 0, 0]))
        expected = sorted(tuple(F(a, 2) for a in bits) for bits in product((0, 1), repeat=4))
        assert sol.kind == "finite"
        assert list(points(sol)) == expected
        assert cardinality(sol) == 16 == abs(det(A))

    def test_invertible_over_z(self):
        sol = solve_mod_lattice(identity(2), *congruence_rhs([F(1, 3), 0]))
        assert sol.kind == "finite"
        assert points(sol) == ((F(1, 3), F(0)),)

    def test_empty(self):
        # first coordinate forces 0 = 1/2 (mod 1): no solution
        A = [[0, 0], [0, -2]]
        sol = solve_mod_lattice(A, *congruence_rhs([F(1, 2), 0]))
        assert sol.is_empty()

    def test_family_components(self):
        A = [[0, 0], [0, 2]]
        sol = solve_mod_lattice(A, *congruence_rhs([0, 0]))
        assert sol.kind == "family"
        assert sol.dim == 1
        assert len(points(sol)) == 2

    def test_cardinality_matches_brute_force(self):
        rng = random.Random(13)
        checked = 0
        while checked < 25:
            r = rng.randint(1, 3)
            A = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(r)]
            d = det(A)
            if d == 0 or abs(d) > 64:
                continue
            checked += 1
            b = [F(rng.randint(0, 3), rng.choice([1, 2, 3])) for _ in range(r)]
            sol = solve_mod_lattice(A, *congruence_rhs(b))
            oracle = brute_force_torus_solutions(A, b)
            assert sol.kind == "finite"
            assert list(points(sol)) == oracle
            assert cardinality(sol) == abs(d)

    def test_points_reduced_and_sorted(self):
        A = [[3, 1], [0, 2]]
        sol = solve_mod_lattice(A, *congruence_rhs([F(1, 2), F(1, 3)]))
        pts = list(points(sol))
        assert pts == sorted(pts)
        for p in pts:
            assert all(0 <= x < 1 for x in p)


class TestKernelQ:
    def test_identity_empty(self):
        assert kernel_q(identity(3), 3) == []

    def test_zero_full(self):
        assert kernel_q([[0, 0], [0, 0]], 2) == [(1, 0), (0, 1)]

    def test_no_rows_full(self):
        assert kernel_q([], 2) == [(1, 0), (0, 1)]

    def test_rank_one(self):
        # Gaussian elimination by hand: kernel spanned by (1, -1)
        assert kernel_q([[1, 1], [2, 2]], 2) == [(1, -1)]

    def test_kernel_property(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(1, 4)
            m = rng.randint(1, 4)
            A = [[F(rng.randint(-5, 5), rng.choice([1, 2, 3])) for _ in range(m)]
                 for _ in range(n)]
            basis = kernel_q(integer_rows(A), m)
            for v in basis:
                assert all(x == 0 for x in mul_vec(A, v))
            # maximality: rank + nullity = cols
            assert rank_rat(A) + len(basis) == m


def witness(M, c):
    """solve_affine_congruence's witness as Fractions, or None."""
    solved = solve_affine_congruence(M, *congruence_rhs(c))
    return solved and tuple(F(x, solved[0]) for x in solved[1])


class TestAffineCongruence:
    def test_basic_witness(self):
        M = [[0, 0], [0, -2]]
        w = witness(M, [0, F(1, 3)])
        assert w is not None
        img = mul_vec(M, w)
        assert mod1_vec([img[0] - 0, img[1] - F(1, 3)]) == (F(0), F(0))

    def test_no_witness(self):
        M = [[0, 0], [0, -2]]
        assert solve_affine_congruence(M, *congruence_rhs([F(1, 2), 0])) is None

    def test_tall_system(self):
        M = [[1, 0], [0, 1], [1, 1]]
        w = witness(M, [F(1, 4), F(1, 4), F(1, 2)])
        assert w is not None
        img = mul_vec(M, w)
        assert mod1_vec([img[0] - F(1, 4), img[1] - F(1, 4), img[2] - F(1, 2)]) == (0, 0, 0)
