import random
from fractions import Fraction
from itertools import product

import pytest
from conftest import cardinality, congruence_rhs, integer_rows, mod1_vec, points

from crystorb import fieldlin
from crystorb.exactla import (
    IntMatrix,
    hnf,
    kernel_q,
    rank_rat,
    snf,
    solve_affine_congruence,
    solve_mod_lattice,
)

F = Fraction


def rat(A: IntMatrix):
    return [[F(x) for x in row] for row in A.to_lists()]


def det(A: IntMatrix):
    return fieldlin.det(rat(A))


def mul_vec(rows, v):
    return tuple(sum(a * x for a, x in zip(row, v)) for row in rows)


def brute_force_torus_solutions(A: IntMatrix, b):
    """Independent oracle: enumerate A^{-1}(b + Z^r)/Z^r for nonsingular A.

    Walks every integer vector k inside the bounding box of A*[0,1)^r - b and
    keeps v = A^{-1}(b + k) that lands in [0,1)^r.
    """
    r = A.rows
    Ainv = fieldlin.inverse(rat(A))
    b = [F(x) for x in b]
    los, his = [], []
    for i in range(r):
        neg = sum(min(A.at(i, j), 0) for j in range(r))
        pos = sum(max(A.at(i, j), 0) for j in range(r))
        los.append(neg - int(b[i]) - 2)
        his.append(pos - int(b[i]) + 2)
    sols = set()
    for k in product(*[range(lo, hi + 1) for lo, hi in zip(los, his)]):
        rhs = [b[i] + k[i] for i in range(r)]
        v = mul_vec(Ainv, rhs)
        if all(0 <= x < 1 for x in v):
            sols.add(tuple(v))
    return sorted(sols)


class TestFromRows:
    def test_non_integers_are_rejected_not_truncated(self):
        # int() used to turn 1/2 into 0 and 1.7 into 1
        for bad in (F(1, 2), 1.7):
            with pytest.raises(ValueError, match="not an integer"):
                IntMatrix.from_rows([[bad, 0], [0, 1]])
        with pytest.raises(ValueError, match="not an integer"):
            IntMatrix.from_rows([[F(1, 2), 1.7], [0, 1]])

    def test_integral_fractions_are_accepted(self):
        # normalize_action hands over rebased generators as integral Fractions
        A = IntMatrix.from_rows([[F(2), F(-4, 2)], [0, 1]])
        assert A.entries == (2, -2, 0, 1)
        assert all(type(x) is int for x in A.entries)


class TestProducts:
    """mul and mul_vec read the cached row and column tuples."""

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
            got = IntMatrix.from_rows(A).mul(IntMatrix.from_rows(B))
            assert (got.rows, got.cols) == (n, m) and got.to_lists() == want

    def test_mul_vec_matches_naive_loops(self):
        rng = random.Random(18)
        for n, k, _ in self.shapes(rng):
            A = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(n)]
            v = [rng.randint(-9, 9) for _ in range(k)]
            assert IntMatrix.from_rows(A).mul_vec(v) == mul_vec(A, v)

    def test_shape_mismatch(self):
        A = IntMatrix(2, 3, tuple(range(6)))
        with pytest.raises(ValueError):
            A.mul(A)
        with pytest.raises(ValueError):
            A.mul_vec((1, 2))

    def test_cached_rows_keep_equality_and_hash(self):
        rng = random.Random(19)
        for n, k, _ in self.shapes(rng):
            entries = tuple(rng.randint(-9, 9) for _ in range(n * k))
            A, B = IntMatrix(n, k, entries), IntMatrix(n, k, entries)
            A.mul_vec((1,) * k)
            A.transpose()
            assert A == B and hash(A) == hash(B) and {A: 1}[B] == 1
            assert A.transpose() == B.transpose()
            assert A.transpose().to_lists() == [list(c) for c in zip(*B.to_lists())]


class TestHnf:
    def test_identity(self):
        A = IntMatrix.identity(2)
        H, U = hnf(A)
        assert H == A
        assert U == IntMatrix.identity(2)

    def test_example_2x2(self):
        # oracle: exhaustive integer row reduction by hand; |det H| = |det A| = 8
        A = IntMatrix.from_rows([[2, 4], [6, 8]])
        H, U = hnf(A)
        assert H.to_lists() == [[2, 0], [0, 4]]
        assert abs(det(U)) == 1
        assert U.mul(A) == H
        assert abs(det(H)) == abs(det(A)) == 8

    def test_zero_matrix(self):
        A = IntMatrix(2, 2, (0,) * 4)
        H, U = hnf(A)
        assert H == A
        assert abs(det(U)) == 1

    def test_idempotent_and_transform(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(1, 4)
            m = rng.randint(1, 4)
            A = IntMatrix(n, m, tuple(rng.randint(-9, 9) for _ in range(n * m)))
            H, U = hnf(A)
            assert abs(det(U)) == 1
            assert U.mul(A) == H
            H2, _ = hnf(H)
            assert H2 == H

    def test_pivot_convention(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(2, 4)
            A = IntMatrix(n, n, tuple(rng.randint(-6, 6) for _ in range(n * n)))
            H, _ = hnf(A)
            pr = 0
            for pc in range(n):
                col = [H.at(i, pc) for i in range(n)]
                if any(col[pr:]):
                    # matrix of full column steps: pivot positive, reduced above
                    piv_row = next(i for i in range(pr, n) if col[i] != 0)
                    p = H.at(piv_row, pc)
                    assert p > 0
                    assert all(H.at(i, pc) == 0 for i in range(piv_row + 1, n))
                    assert all(0 <= H.at(i, pc) < p for i in range(piv_row))
                    pr = piv_row + 1


class TestSnf:
    def test_identity(self):
        dec = snf(IntMatrix.identity(3))
        assert dec.D == IntMatrix.identity(3)

    def test_example_2x2(self):
        # gcd of 1x1 minors is 2 and |det| = 8, hence diag(2, 4)
        dec = snf(IntMatrix.from_rows([[2, 4], [6, 8]]))
        assert dec.diagonal() == (2, 4)

    def test_diag_6_4(self):
        # d1 = gcd(6,4) = 2, d1*d2 = 24
        dec = snf(IntMatrix.from_rows([[6, 0], [0, 4]]))
        assert dec.diagonal() == (2, 12)

    def test_transform_identity_and_chain(self):
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(1, 4)
            m = rng.randint(1, 4)
            A = IntMatrix(n, m, tuple(rng.randint(-8, 8) for _ in range(n * m)))
            dec = snf(A)
            assert abs(det(dec.U)) == 1
            assert abs(det(dec.V)) == 1
            assert dec.U.mul(A).mul(dec.V) == dec.D
            diag = dec.diagonal()
            assert all(x >= 0 for x in diag)
            for a, b in zip(diag, diag[1:]):
                if b != 0:
                    assert a != 0 and b % a == 0
                # zeros only at the end
                if a == 0:
                    assert b == 0
            for i in range(dec.D.rows):
                for j in range(dec.D.cols):
                    if i != j:
                        assert dec.D.at(i, j) == 0

    def test_det_product(self):
        rng = random.Random(5)
        count = 0
        while count < 30:
            n = rng.randint(1, 4)
            A = IntMatrix(n, n, tuple(rng.randint(-5, 5) for _ in range(n * n)))
            d = det(A)
            if d == 0:
                continue
            count += 1
            diag = snf(A).diagonal()
            prod = 1
            for x in diag:
                prod *= x
            assert prod == abs(d)


class TestSolveModLattice:
    def test_half_lattice_points(self):
        # oracle: enumerate all (a1..a4)/2 with ai in {0,1}
        A = IntMatrix.from_rows([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
        sol = solve_mod_lattice(A, *congruence_rhs([0, 0, 0, 0]))
        expected = sorted(tuple(F(a, 2) for a in bits) for bits in product((0, 1), repeat=4))
        assert sol.kind == "finite"
        assert list(points(sol)) == expected
        assert cardinality(sol) == 16 == abs(det(A))

    def test_invertible_over_z(self):
        sol = solve_mod_lattice(IntMatrix.identity(2), *congruence_rhs([F(1, 3), 0]))
        assert sol.kind == "finite"
        assert points(sol) == ((F(1, 3), F(0)),)

    def test_empty(self):
        # first coordinate forces 0 = 1/2 (mod 1): no solution
        A = IntMatrix.from_rows([[0, 0], [0, -2]])
        sol = solve_mod_lattice(A, *congruence_rhs([F(1, 2), 0]))
        assert sol.is_empty()

    def test_family_components(self):
        A = IntMatrix.from_rows([[0, 0], [0, 2]])
        sol = solve_mod_lattice(A, *congruence_rhs([0, 0]))
        assert sol.kind == "family"
        assert sol.dim == 1
        assert len(points(sol)) == 2

    def test_cardinality_matches_brute_force(self):
        rng = random.Random(13)
        checked = 0
        while checked < 25:
            r = rng.randint(1, 3)
            A = IntMatrix(r, r, tuple(rng.randint(-3, 3) for _ in range(r * r)))
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
        A = IntMatrix.from_rows([[3, 1], [0, 2]])
        sol = solve_mod_lattice(A, *congruence_rhs([F(1, 2), F(1, 3)]))
        pts = list(points(sol))
        assert pts == sorted(pts)
        for p in pts:
            assert all(0 <= x < 1 for x in p)


class TestKernelQ:
    def test_identity_empty(self):
        assert kernel_q(rat(IntMatrix.identity(3)), 3) == []

    def test_zero_full(self):
        basis = kernel_q([[F(0), F(0)], [F(0), F(0)]], 2)
        assert len(basis) == 2

    def test_no_rows_full(self):
        assert kernel_q([], 2) == [(1, 0), (0, 1)]

    def test_rank_one(self):
        # Gaussian elimination by hand: kernel spanned by (1, -1)
        basis = kernel_q([[F(1), F(1)], [F(2), F(2)]], 2)
        assert basis == [(F(1), F(-1))]

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
        M = IntMatrix.from_rows([[0, 0], [0, -2]])
        w = witness(M, [0, F(1, 3)])
        assert w is not None
        img = M.mul_vec(w)
        assert mod1_vec([img[0] - 0, img[1] - F(1, 3)]) == (F(0), F(0))

    def test_no_witness(self):
        M = IntMatrix.from_rows([[0, 0], [0, -2]])
        assert solve_affine_congruence(M, *congruence_rhs([F(1, 2), 0])) is None

    def test_tall_system(self):
        M = IntMatrix.from_rows([[1, 0], [0, 1], [1, 1]])
        w = witness(M, [F(1, 4), F(1, 4), F(1, 2)])
        assert w is not None
        img = M.mul_vec(w)
        assert mod1_vec([img[0] - F(1, 4), img[1] - F(1, 4), img[2] - F(1, 2)]) == (0, 0, 0)
