"""Seeded randomized cross-module invariants over generated groups."""

import random
from fractions import Fraction

from conftest import cardinality, congruence_rhs, translation
from jcheck import assert_invariant_j

from crystorb import fieldlin, hodge, quotient
from crystorb.crystal import (
    CrystData,
    KernelTooBig,
    is_torsion_free,
    normalize_action,
    verify_crystallographic,
)
from crystorb.exactla import IntMatrix, solve_affine_congruence
from crystorb.groupcore import ExceedsBound

F = Fraction

POOL2 = [[[0, -1], [1, 0]], [[1, 0], [0, -1]], [[0, 1], [1, 0]],
         [[-1, 0], [0, -1]], [[0, -1], [1, -1]], [[0, -1], [1, 1]]]
SHIFTS = [(0, 0), (F(1, 2), 0), (0, F(1, 2)), (F(1, 2), F(1, 2)), (F(1, 3), 0)]


def build(data, bound):
    try:
        return verify_crystallographic(data, bound=bound)
    except KernelTooBig:
        return normalize_action(data, bound=bound).group


def random_groups(seed, trials, rank):
    rng = random.Random(seed)
    out = []
    for _ in range(trials):
        k = rng.randint(1, 2)
        if rank == 2:
            gens = [(rng.choice(POOL2), rng.choice(SHIFTS)) for _ in range(k)]
        else:
            gens = []
            for _ in range(k):
                a, b = rng.choice(POOL2), rng.choice(POOL2)
                lin = [[0] * 4 for _ in range(4)]
                for i in range(2):
                    for j in range(2):
                        lin[i][j] = a[i][j]
                        lin[2 + i][2 + j] = b[i][j]
                tr = tuple(rng.choice([F(0), F(1, 2), F(1, 3)]) for _ in range(4))
                gens.append((lin, tr))
        try:
            out.append(build(CrystData.make(rank, gens), bound=128))
        except (ExceedsBound, KernelTooBig):
            continue
    return out


GROUPS = random_groups(2026, 60, 2) + random_groups(1931, 25, 4)


def test_torsion_matches_fixed_point_emptiness():
    # each element's own congruence (L(g) - I) v = -u_g (mod Z^r), solved
    # directly instead of once per conjugacy class
    for g in GROUPS:
        minus_identity = IntMatrix.identity(g.rank).neg()
        fixing = tuple(gi for gi in range(1, g.order()) if solve_affine_congruence(
            g.linear(gi).add(minus_identity),
            *congruence_rhs([-x for x in translation(g, gi)])) is not None)
        report = is_torsion_free(g)
        assert report.offenders == fixing and report.torsion_free == (not fixing)


def test_determinant_counts_fixed_points():
    for g in GROUPS:
        ident = IntMatrix.identity(g.rank)
        for gi in range(1, g.order()):
            A = IntMatrix(g.rank, g.rank,
                          tuple(a - b for a, b in
                                zip(g.linear(gi).entries, ident.entries)))
            d = fieldlin.det([[F(x) for x in row] for row in A.to_lists()])
            if d != 0:
                assert quotient.fixed_points(g, gi).real_dim == 0
                assert cardinality(g.solve_fixed(gi)) == abs(d)


def test_structure_exists_iff_even():
    for g in GROUPS:
        ev = hodge.is_even(g)
        try:
            structure = hodge.invariant_complex_structure(g, ev)
        except ValueError:
            structure = None
        assert (structure is not None) == ev.even
        if structure is not None:
            assert_invariant_j(structure.entries, g.group)


def test_tangent_oracle_on_random_types():
    for g in GROUPS:
        ev = hodge.is_even(g)
        if not ev.even:
            continue
        assert (quotient.orbifold_descriptor(g, ev).classification.kind == "free") == \
            is_torsion_free(g).torsion_free
        for t in hodge.hodge_types(ev):
            _, action = hodge.sample_subspace(g, t)
            assert hodge.tangent_dimension(action) == hodge.component_dimension(t)


def test_descriptor_flags_match_classification():
    for g in GROUPS:
        ev = hodge.is_even(g)
        if not ev.even:
            continue
        desc = quotient.orbifold_descriptor(g, ev)
        assert desc.classification.kind == \
            quotient.classify_action(quotient.all_fixed_loci(g)).kind
        assert all(c.multiplicity >= 2 for c in desc.divisor_classes)
