"""sympy's Smith and Hermite normal forms as an oracle for `exactla`.

sympy is a test-only dependency: the module is skipped without it.  The
Smith invariant factors must agree.  sympy's Hermite form is Cohen's column
form; transposed, W = hermite_normal_form(A^T)^T is a row form of A that is
lower triangular with positive pivots, each entry below a pivot reduced
modulo it, and without zero rows.  Reversing the order of rows and of columns turns that into
the row form of `exactla.hnf` (echelon, positive pivots, entries above a
pivot reduced) of A with its columns reversed.  The matrices are L(g) - I for
every element of the generated family, and seeded random integer matrices
of every rank.
"""

import random

import pytest
from conftest import crystal_group, family_documents, l_minus_i

from crystorb.exactla import hnf, snf

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import hermite_normal_form, invariant_factors  # noqa: E402


def family_matrices():
    out = []
    for name, doc in sorted(family_documents().items()):
        g = crystal_group(doc)
        out += [l_minus_i(g.linear(i)) for i in range(g.order())]
    return out


def random_matrices(count=200, seed=5):
    """Products of random n x r and r x m matrices: rank at most r, r = 0 too."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        r = rng.randint(0, min(n, m))
        L = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
        R = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(r)]
        out.append([[sum(L[i][k] * R[k][j] for k in range(r)) for j in range(m)]
                    for i in range(n)])
    return out


CASES = {"family": family_matrices(), "random": random_matrices()}


def nonzero_rows(rows):
    return [row for row in rows if any(row)]


@pytest.mark.parametrize("kind", sorted(CASES))
def test_snf_invariant_factors_match_sympy(kind):
    for A in CASES[kind]:
        ours = snf(A)[0]
        theirs = [abs(int(x)) for x in invariant_factors(sympy.Matrix(A), domain=sympy.ZZ)]
        assert [d for d in ours if d] == [d for d in theirs if d], A


@pytest.mark.parametrize("kind", sorted(CASES))
def test_hnf_matches_sympy_column_form(kind):
    for A in CASES[kind]:
        H = hnf([row[::-1] for row in A])
        W = hermite_normal_form(sympy.Matrix(A).T).T.tolist() if any(map(any, A)) else []
        assert nonzero_rows(H) == [tuple(row[::-1]) for row in W[::-1]], A
