"""Group products by index lookup against products of matrices.

Every MatrixGroup comes from `closure` and multiplies by walking the second
factor's word over its generating set through a right-multiplication table.
The oracle forms the matrix product and looks its index up in its own
{entries: index} map; mul, inv and element_order must agree with it on
every pair, for the corpus groups and for closures of a redundant, an
exhaustive and a reordered generator list.
"""

import pytest

from crystorb import cli
from crystorb.corpus import corpus_names, load_corpus
from crystorb.exactla import IntMatrix
from crystorb.groupcore import character_table, closure

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
    index = {m.entries: i for i, m in enumerate(els)}
    identity = IntMatrix.identity(g.rank)
    for i, a in enumerate(els):
        for j, b in enumerate(els):
            assert g.mul(i, j) == index[a.mul(b).entries]
        assert a.mul(els[g.inv(i)]) == identity
        order, power = 1, a
        while power != identity:
            power = power.mul(a)
            order += 1
        assert g.element_order(i) == order


def generated(g, generators):
    """The entries of every element of the closure of `generators`."""
    return {m.entries for m in closure([g.elements[s] for s in generators]).elements}


def point_group(name):
    group, _ = cli._build_group(cli.parse_cryst_data(load_corpus(name)), 512)
    return group.group


@pytest.mark.parametrize("name", corpus_names())
def test_corpus_groups(name):
    g = point_group(name)
    # the generating set generates: the trivial groups by their identity
    assert g.generators and generated(g, g.generators) == {m.entries for m in g.elements}
    assert_matches_matrices(g)


def test_hand_built_groups():
    # closures of other generator lists: one with a redundant member, every
    # element, and every element of D4 in an order that closing its two
    # generators does not give
    c4 = closure([ROT4])
    r = c4.generators[0]
    sq = c4.mul(r, r)
    redundant = closure([c4.elements[r], c4.elements[sq]])
    assert [redundant.elements[s] for s in redundant.generators] == [c4.elements[r],
                                                                     c4.elements[sq]]
    every = closure(c4.elements)
    assert len(every.generators) == 4 and 0 in every.generators
    d4 = closure([ROT4, FLIP])
    reordered = closure(d4.elements[:1] + d4.elements[:0:-1])
    assert reordered.elements != d4.elements
    for g in (c4, redundant, every, d4, reordered):
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
