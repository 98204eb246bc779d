"""Group products by index lookup against products of matrices.

MatrixGroup multiplies by walking the second factor's word over the
generating set through a right-multiplication table.  The oracle forms the
matrix product and looks its index up; mul, inv and element_order must agree
with it on every pair, for groups from `closure`, from `subgroup()` and built
by hand, including a recorded generator list that does not generate.
"""

import pytest

from crystorb import cli
from crystorb.corpus import corpus_names, load_corpus
from crystorb.exactla import IntMatrix
from crystorb.groupcore import MatrixGroup, character_table, closure

ROT4 = [[0, -1], [1, 0]]
FLIP = [[1, 0], [0, -1]]
R6 = [[1, -1], [1, 0]]


def block(a, b):
    n, m = len(a), len(b)
    return [row + [0] * m for row in a] + [[0] * n + row for row in b]


IDENTITY2 = [[1, 0], [0, 1]]
C6C6_GENS = [block(R6, IDENTITY2), block(IDENTITY2, R6)]


def assert_matches_matrices(g):
    els = g.elements
    for i, a in enumerate(els):
        for j, b in enumerate(els):
            assert g.mul(i, j) == g.index_of(a.mul(b))
        assert a.mul(els[g.inv(i)]).is_identity()
        order, power = 1, a
        while not power.is_identity():
            power = power.mul(a)
            order += 1
        assert g.element_order(i) == order


def point_group(name):
    group, _ = cli._build_group(cli.parse_cryst_data(load_corpus(name)), 512)
    return group.group


@pytest.mark.parametrize("name", corpus_names())
def test_corpus_groups(name):
    g = point_group(name)
    assert g.generators == g.generator_indices
    assert_matches_matrices(g)


def test_subgroups():
    d4 = closure([ROT4, FLIP])
    r, f = d4.generator_indices
    rotations = [0, r, d4.mul(r, r), d4.mul(r, d4.mul(r, r))]
    for members in ([0], [0, f], rotations, range(d4.order())):
        sub = d4.subgroup(members)
        assert sub.generator_indices == ()
        assert sub.generators == tuple(range(sub.order()))
        assert_matches_matrices(sub)
    with pytest.raises(ValueError, match="not closed"):
        d4.subgroup([0, r])


def test_hand_built_groups():
    c4 = closure([ROT4])
    r = c4.generator_indices[0]
    sq = c4.mul(r, r)
    # the recorded list generates: it is the generating set
    listed = MatrixGroup(2, c4.elements, (r,))
    assert listed.generators == (r,)
    # no list, or a list that does not generate: all elements generate
    for recorded in ((), (sq,)):
        g = MatrixGroup(2, c4.elements, recorded)
        assert g.generators == tuple(range(4))
    # elements in an order closure would not give
    d4 = closure([ROT4, FLIP])
    shuffled = MatrixGroup(2, d4.elements[:1] + d4.elements[:0:-1], (3, 5))
    for g in (listed, MatrixGroup(2, c4.elements, ()), MatrixGroup(2, c4.elements, (sq,)),
              shuffled):
        assert_matches_matrices(g)


@pytest.fixture
def matrix_products(monkeypatch):
    calls = [0]
    mul = IntMatrix.mul

    def counting_mul(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(IntMatrix, "mul", counting_mul)
    return calls


def test_closure_forms_each_product_once(matrix_products):
    g = closure(C6C6_GENS)
    n, s = g.order(), len(C6C6_GENS)
    assert n == 36
    assert matrix_products[0] == n * s
    character_table(g)
    assert matrix_products[0] == n * s


def test_other_constructions_form_products_once(matrix_products):
    c6c6 = closure(C6C6_GENS)
    matrix_products[0] = 0
    MatrixGroup(4, c6c6.elements, c6c6.generator_indices)
    assert matrix_products[0] == 36 * 2
    matrix_products[0] = 0
    c6c6.subgroup(range(0, 36))
    assert matrix_products[0] == 0
