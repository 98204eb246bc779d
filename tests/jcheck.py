"""Exact checks of an invariant complex structure, written without `hodge`.

A J is a matrix of Fractions (mode "exact") or of elements of one
cyclotomic field Q(zeta_N) (mode "algebraic").  Either way the checks are
exact: J is real, J^2 = -I, and J commutes with every element of the point
group, not only with its generators.
"""

from fractions import Fraction


def _mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def assert_invariant_j(J, group):
    """`group` is the point group (a MatrixGroup); J a square tuple of rows."""
    w = len(J)
    assert all(type(x) is Fraction or x == x.conjugate() for row in J for x in row)
    assert _mul(J, J) == [[-1 if i == j else 0 for j in range(w)] for i in range(w)]
    for m in group.elements:
        M = m.to_lists()
        assert _mul(J, M) == _mul(M, J)
