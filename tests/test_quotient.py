from fractions import Fraction

import pytest
from conftest import cardinality

from crystorb import fieldlin, hodge
from crystorb.crystal import CrystData, is_torsion_free, verify_crystallographic
from crystorb.exactla import IntMatrix
from crystorb.quotient import (
    classify_action,
    components,
    factorization_report,
    fixed_points,
    gpr_subgroup,
    orbifold_descriptor,
    pointwise_stabilizer,
    pseudoreflections,
    subtori_equal,
    _transform_subtorus,
    all_fixed_loci,
)

F = Fraction

D = lambda *xs: [[(xs[i] if i == j else 0) for j in range(len(xs))] for i in range(len(xs))]

KUMMER = CrystData.make(4, [(D(-1, -1, -1, -1), (0, 0, 0, 0))])
BDF = CrystData.make(4, [(D(1, 1, -1, -1), (F(1, 2), 0, 0, 0))])
PSEUDOREF = CrystData.make(4, [(D(1, 1, -1, -1), (0, 0, 0, 0))])
MIXED = CrystData.make(4, [(D(-1, -1, -1, -1), (0, 0, F(1, 2), 0)),
                           (D(1, 1, -1, -1), (0, 0, 0, 0))])
MINUS1_RANK2 = CrystData.make(2, [(D(-1, -1), (0, 0))])


def crys(data):
    return verify_crystallographic(data)


def descriptor(data):
    g = crys(data)
    return orbifold_descriptor(g, hodge.is_even(g))


def gpr_order(g):
    return len(gpr_subgroup(g.group, pseudoreflections(all_fixed_loci(g))))


class TestFixedPoints:
    def test_kummer_sixteen(self):
        # |det(-2 I_4)| = 16, cross-checked against half-lattice enumeration
        g = crys(KUMMER)
        locus = fixed_points(g, 1)
        assert cardinality(g.solve_fixed(1)) == 16
        assert locus.real_dim == 0
        assert locus.complex_codim == 2

    def test_bdf_empty(self):
        # first block forces 0 = 1/2 (mod 1)
        g = crys(BDF)
        assert fixed_points(g, 1).is_empty()

    def test_family_components(self):
        # v1, v2 free; v3, v4 half-lattice: four 2-real-dim components
        g = crys(PSEUDOREF)
        locus = fixed_points(g, 1)
        assert locus.real_dim == 2
        assert len(components(g.solve_fixed(1))) == 4
        assert locus.complex_codim == 1

    def test_determinant_oracle(self):
        for data in (KUMMER, BDF, PSEUDOREF, MIXED, MINUS1_RANK2):
            g = crys(data)
            ident = IntMatrix.identity(g.rank)
            for gi in range(1, g.order()):
                lin = g.linear(gi)
                A = IntMatrix(g.rank, g.rank,
                              tuple(a - b for a, b in zip(lin.entries, ident.entries)))
                d = fieldlin.det([[F(x) for x in row] for row in A.to_lists()])
                if d == 0:
                    continue
                assert fixed_points(g, gi).real_dim == 0
                assert cardinality(g.solve_fixed(gi)) == abs(d)

    def test_conjugation_equivariance(self):
        g = crys(MIXED)
        for h in range(g.order()):
            for gi in range(1, g.order()):
                conj = g.group.mul(g.group.mul(h, gi), g.group.inv(h))
                if conj == 0:
                    continue
                a = fixed_points(g, gi)
                b = fixed_points(g, conj)
                assert a.is_empty() == b.is_empty()
                if a.is_empty():
                    continue
                images = [_transform_subtorus(g, h, c) for c in components(g.solve_fixed(gi))]
                targets = list(components(g.solve_fixed(conj)))
                assert len(images) == len(targets)
                for img in images:
                    assert any(subtori_equal(img, t) for t in targets)


class TestClassification:
    def test_kummer_quasi_free(self):
        res = classify_action(all_fixed_loci(crys(KUMMER)))
        assert res.kind == "quasi_free"
        assert res.evidence == ((1, 2),)

    def test_bdf_free(self):
        assert classify_action(all_fixed_loci(crys(BDF))).kind == "free"

    def test_pseudoref_divisorial(self):
        res = classify_action(all_fixed_loci(crys(PSEUDOREF)))
        assert res.kind == "divisorial"

    def test_minus1_rank2_divisorial(self):
        # isolated points on an elliptic curve are branch divisors
        assert classify_action(all_fixed_loci(crys(MINUS1_RANK2))).kind == "divisorial"

    def test_agreement_with_torsion(self):
        for data in (KUMMER, BDF, PSEUDOREF, MIXED, MINUS1_RANK2):
            g = crys(data)
            tf = is_torsion_free(g).torsion_free
            assert (classify_action(all_fixed_loci(g)).kind == "free") == tf

    def test_odd_group_rejected(self):
        g = crys(CrystData.make(2, [(D(1, -1), (0, 0))]))
        with pytest.raises(ValueError):
            orbifold_descriptor(g, hodge.is_even(g))


class TestPseudoreflections:
    def test_product_reflection(self):
        # complex eigenvalues (1, -1): fixed hyperplane
        g = crys(PSEUDOREF)
        assert pseudoreflections(all_fixed_loci(g)) == (1,)

    def test_minus_identity_not_reflection_rank4(self):
        g = crys(KUMMER)
        assert pseudoreflections(all_fixed_loci(g)) == ()

    def test_mixed_group(self):
        g = crys(MIXED)
        refl = pseudoreflections(all_fixed_loci(g))
        assert len(refl) == 1
        lin = g.linear(refl[0])
        assert [lin.at(i, i) for i in range(4)] == [1, 1, -1, -1]


class TestGpr:
    def test_trivial_when_no_reflections(self):
        g = crys(KUMMER)
        assert gpr_order(g) == 1

    def test_whole_group(self):
        g = crys(PSEUDOREF)
        assert gpr_order(g) == g.order()

    def test_mixed_index_two(self):
        g = crys(MIXED)
        assert gpr_order(g) == 2
        loci = all_fixed_loci(g)
        rep = factorization_report(g.group, loci, pseudoreflections(loci))
        assert rep == orbifold_descriptor(g, hodge.is_even(g)).factorization
        assert rep.index == 2
        assert rep.quasi_etale
        assert rep.gpr_order != 1
        assert rep.index != 1
        # the elements outside G^pr with fixed points sit in codim >= 2
        assert rep.audit and all(c >= 2 for _, c in rep.audit)

    def test_kummer_factorization(self):
        rep = descriptor(KUMMER).factorization
        assert rep.gpr_order == 1
        assert rep.quasi_etale

    def test_gpr_equals_group_second_map_identity(self):
        rep = descriptor(PSEUDOREF).factorization
        assert rep.index == 1


class TestDescriptor:
    def test_free_descriptor(self):
        d = descriptor(BDF)
        assert d.classification.kind == "free"
        assert d.divisor_classes == ()
        assert d.stratum_summary == ()

    def test_pseudoref_divisors(self):
        # 4 divisor components (E x 2-torsion points), each its own orbit,
        # multiplicity 2
        d = descriptor(PSEUDOREF)
        assert d.classification.kind == "divisorial"
        assert sum(c.orbit_size for c in d.divisor_classes) == 4
        assert all(c.multiplicity == 2 for c in d.divisor_classes)
        assert d.stratum_summary == ()

    def test_kummer_descriptor(self):
        d = descriptor(KUMMER)
        assert d.classification.kind == "quasi_free"
        assert d.divisor_classes == ()
        assert d.stratum_summary == (((2, 2), 16),)

    def test_mixed_descriptor(self):
        d = descriptor(MIXED)
        assert d.classification.kind == "divisorial"
        assert all(c.multiplicity == 2 for c in d.divisor_classes)
        # the -I-with-shift element contributes 16 isolated codim-2 points
        assert (((2, 2), 16)) in d.stratum_summary

    def test_elliptic_involution_descriptor(self):
        # four 2-torsion branch points of multiplicity 2 on the quotient line
        d = descriptor(MINUS1_RANK2)
        assert d.classification.kind == "divisorial"
        assert sum(c.orbit_size for c in d.divisor_classes) == 4
        assert all(c.multiplicity == 2 for c in d.divisor_classes)

    def test_stabilizers_cyclic(self):
        for data in (PSEUDOREF, MIXED, MINUS1_RANK2):
            g = crys(data)
            d = orbifold_descriptor(g, hodge.is_even(g))
            for cls in d.divisor_classes:
                stab = pointwise_stabilizer(g, cls.representative)
                assert len(stab) == cls.multiplicity
                assert any(g.group.element_order(h) == len(stab) for h in stab)

    def test_union_of_loci_is_stable(self):
        g = crys(MIXED)
        comps = [c for gi in range(1, g.order()) for c in components(g.solve_fixed(gi))]
        for h in range(g.order()):
            for c in comps:
                img = _transform_subtorus(g, h, c)
                assert any(subtori_equal(img, other) for other in comps)
