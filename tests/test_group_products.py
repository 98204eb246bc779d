"""Group products by index lookup against products of matrices.

Every MatrixGroup comes from `closure` and multiplies by walking the second
factor's word over its generating set through a right-multiplication table.
The oracle forms the matrix product and looks its index up in its own
{matrix: index} map; mul, inv and element_order must agree with it on
every pair, for the corpus groups and for closures of a redundant, an
exhaustive and a reordered generator list.

`closure` used to form every product w*s as a matrix; it now reads it off
the orbit of the unit rows.  The matrix-product closure is kept below as
the reference: both must give the same elements, words, generating set,
product table and Schreier tree on the corpus, the scaling family and the
cyclotomic groups (unseeded and at basis seeds 0-3) and on the hand-built
groups, and `images(v)` must equal every L(g)v formed as a product.

Every power question is read off the power map `power_classes`, one walk
per class representative; on the same inputs it must give each element's
order, inverse class and square class as a walk of that element's own
powers does, and the exponent as the lcm of all their orders.
"""

import random
from math import lcm

import family
import pytest
from conftest import (
    corpus_documents,
    cyclotomic_documents,
    family_documents,
    identity,
    mat_product,
)

from crystorb import cli
from crystorb.corpus import corpus_names, load_corpus
from crystorb.exactla import mul_vec
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
    index = {m: i for i, m in enumerate(els)}
    one = identity(g.rank)
    for i, a in enumerate(els):
        for j, b in enumerate(els):
            assert g.mul(i, j) == index[mat_product(a, b)]
        assert mat_product(a, els[g.inv(i)]) == one
        order, power = 1, a
        while power != one:
            power = mat_product(power, a)
            order += 1
        assert g.element_order(i) == order


def generated(g, generators):
    """Every element of the closure of `generators`."""
    return set(closure([g.elements[s] for s in generators]).elements)


def point_group(name):
    group, _ = cli._build_group(cli.parse_cryst_data(load_corpus(name)), 512)
    return group.group


@pytest.mark.parametrize("name", corpus_names())
def test_corpus_groups(name):
    g = point_group(name)
    # the generating set generates: the trivial groups by their identity
    assert g.generators and generated(g, g.generators) == set(g.elements)
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


# ---------------------------------------------------------------------------
# reference: the closure that formed every product w*s as a matrix

def reference_closure(generators):
    """(elements, words, generators, right) of the closure of `generators`:
    breadth first over words, each level sorted by entries, every w*s a
    matrix product."""
    gens = [tuple(map(tuple, g)) for g in generators]
    ident = identity(len(gens[0]))
    index = {ident: 0}
    ordered, words, right = [ident], [()], []
    start = 0
    while start < len(ordered):
        level = {}
        for w in range(start, len(ordered)):
            row = []
            for k, g in enumerate(gens):
                nxt = mat_product(ordered[w], g)
                if nxt not in index and nxt not in level:
                    level[nxt] = words[w] + (k,)
                row.append(nxt)
            right.append(row)
        start = len(ordered)
        for key in sorted(level):
            index[key] = len(ordered)
            ordered.append(key)
            words.append(level[key])
    right = [tuple(index[key] for key in row) for row in right]
    return ordered, words, tuple(index[g] for g in gens), right


def reference_tree(right):
    """The edges (x, w, k), x = w*S[k], reached first breadth first from 1."""
    seen, queue, edges = {0}, [0], []
    for w in queue:
        for k, x in enumerate(right[w]):
            if x not in seen:
                seen.add(x)
                queue.append(x)
                edges.append((x, w, k))
    return tuple(edges)


def linear_parts(doc):
    return [g for g, _ in cli.parse_cryst_data(doc).generators]


def _oracle_inputs():
    """name -> (rank, generator list): the corpus, and the scaling family
    and the cyclotomic groups unseeded and at basis seeds 0-3."""
    out = {f"{n}@none": d for n, d in corpus_documents().items()}
    for docs in (family_documents(), cyclotomic_documents()):
        out.update({f"{n}@none": d for n, d in docs.items()})
        for seed in range(4):
            out.update({f"{n}@{seed}": d
                        for n, d in family.seeded_documents(docs, seed).items()})
    out = {n: (d["rank"], linear_parts(d)) for n, d in out.items()}
    d4 = closure([ROT4, FLIP])
    out.update({
        "hand:c4": (2, [ROT4]),
        "hand:redundant": (2, [ROT4, [[-1, 0], [0, -1]]]),
        "hand:every_c4": (2, list(closure([ROT4]).elements)),
        "hand:d4": (2, [ROT4, FLIP]),
        "hand:d4_reordered": (2, list(d4.elements[:1] + d4.elements[:0:-1])),
        "hand:c6c6": (4, C6C6_GENS),
    })
    return out


ORACLE_INPUTS = _oracle_inputs()


@pytest.mark.parametrize("name", sorted(ORACLE_INPUTS))
def test_closure_matches_matrix_products(name):
    rank, gens = ORACLE_INPUTS[name]
    g = closure(gens, rank=rank)
    if gens:
        elements, words, generators, right = reference_closure(gens)
    else:       # the trivial corpus groups, generated by their identity
        elements, words, generators, right = [identity(rank)], [()], (0,), [(0,)]
    assert g.elements == tuple(elements)
    assert g._words == words
    assert g.generators == generators
    assert g.right == right
    assert g.tree == reference_tree(right)
    # the orbit is exactly the rows of the elements
    assert set(g.orbit) == {row for m in elements for row in m}
    assert len(g.orbit) <= g.rank * g.order()
    rng = random.Random(name)
    for _ in range(3):
        v = [rng.randint(-9, 9) for _ in range(g.rank)]
        assert g.images(v) == [mul_vec(m, v) for m in elements]


@pytest.mark.parametrize("gens, orbit", [
    (C6C6_GENS, 12),
    (linear_parts(family_documents()["c6c6_rank4"]), 12),
    (linear_parts(family_documents()["b4_rank4"]), 8),
    (linear_parts(family.seeded_documents(family_documents(), 1)["b4_rank4"]), 32),
], ids=["c6c6", "c6c6_rank4", "b4_rank4", "b4_rank4@1"])
def test_closure_multiplies_rows_not_matrices(products, gens, orbit):
    # one row product per orbit row past the r unit rows, whose images are
    # the generators' rows, and generator; no matrix product in the closure
    # or the character table
    g = closure(gens)
    assert len(g.orbit) == orbit
    assert products == {"mat_mul": 0, "mul_vec": (orbit - g.rank) * len(gens)}
    character_table(g)
    assert products == {"mat_mul": 0, "mul_vec": (orbit - g.rank) * len(gens)}


@pytest.mark.parametrize("name", sorted(ORACLE_INPUTS))
def test_power_map_matches_element_walks(name):
    rank, gens = ORACLE_INPUTS[name]
    g = closure(gens, rank=rank)
    class_of = g.class_index
    orders, squares = [], [0] * len(g.classes)
    for i in range(g.order()):
        powers = [0, i]
        while powers[-1]:
            powers.append(g.mul(powers[-1], i))
        orders.append(len(powers) - 1)
        entry = g.power_classes[class_of[i]]
        # conjugate elements have conjugate powers: i's own walk gives the
        # entry of its class, whose last member is the class of i^-1
        assert entry == tuple(class_of[x] for x in powers[:-1])
        assert g.element_order(i) == len(entry) == orders[-1]
        assert g.mul(i, g.inv(i)) == 0 and class_of[g.inv(i)] == entry[-1]
        squares[class_of[g.mul(i, i)]] += 1
    assert g.exponent() == lcm(*orders)
    by_class = [0] * len(g.classes)
    for c, entry in zip(g.classes, g.power_classes):
        by_class[entry[2 % len(entry)]] += c.size
    assert squares == by_class
