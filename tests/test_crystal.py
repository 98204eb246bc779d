import random
from fractions import Fraction

import pytest
from conftest import mod1_vec, over_one_denominator, translation, translations

from crystorb.crystal import (
    CocycleViolation,
    CrystData,
    ExtensionCocycle,
    KernelTooBig,
    VectorSystem,
    affine_realization,
    cocycle_from_system,
    is_torsion_free,
    normalize_action,
    realizations_equivalent,
    verify_crystallographic,
)
from crystorb.exactla import IntMatrix
from crystorb.groupcore import ExceedsBound, closure

F = Fraction

KLEIN = CrystData.make(2, [([[1, 0], [0, -1]], (F(1, 2), 0))])
BDF = CrystData.make(4, [([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
                          (F(1, 2), 0, 0, 0))])
KUMMER = CrystData.make(4, [([[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
                             (0, 0, 0, 0))])


class TestVerify:
    def test_non_integer_linear_part_rejected(self):
        # a Fraction(3, 2) entry used to be truncated, building the identity
        with pytest.raises(ValueError, match="not an integer"):
            CrystData.make(2, [([[F(3, 2), 0], [0, 1]], (0, 0))])
        with pytest.raises(ValueError, match="not an integer"):
            CrystData.make(2, [([[F(1, 2), 1.7], [0, 1]], (0, 0))])

    def test_minus_identity(self):
        g = verify_crystallographic(CrystData.make(2, [([[-1, 0], [0, -1]], (0, 0))]))
        assert g.order() == 2
        assert g.rank == 2

    def test_klein_glide(self):
        # composing the generator with itself gives translation by (1,0) in Z^2
        g = verify_crystallographic(KLEIN)
        assert g.order() == 2
        i = g.group.elements.index(IntMatrix.from_rows([[1, 0], [0, -1]]))
        assert translation(g, i) == (F(1, 2), F(0))

    def test_pure_translation_rejected(self):
        data = CrystData.make(2, [([[1, 0], [0, 1]], (F(1, 2), 0))])
        with pytest.raises(KernelTooBig) as info:
            verify_crystallographic(data)
        assert (info.value.den, info.value.numerators) == (2, ((1, 0),))

    def test_infinite_group_rejected(self):
        data = CrystData.make(2, [([[1, 1], [0, 1]], (0, 0))])
        with pytest.raises(ExceedsBound):
            verify_crystallographic(data, bound=500)

    def test_trivial_group(self):
        g = verify_crystallographic(CrystData.make(2, []))
        assert g.order() == 1

    def test_cocycle_condition_holds(self):
        for data in (KLEIN, BDF, KUMMER):
            g = verify_crystallographic(data)
            assert g.is_consistent()

    def test_hidden_translation_detected(self):
        # two generators with equal linear part but different shifts
        data = CrystData.make(2, [([[-1, 0], [0, -1]], (0, 0)),
                                  ([[-1, 0], [0, -1]], (F(1, 3), 0))])
        with pytest.raises(KernelTooBig):
            verify_crystallographic(data)


class TestNormalize:
    def test_absorbs_half_translation(self):
        # HNF of the stacked generators: new lattice (1/2)Z x Z, index halves
        data = CrystData.make(2, [([[1, 0], [0, 1]], (F(1, 2), 0)),
                                  ([[-1, 0], [0, -1]], (0, 0))])
        res = normalize_action(data)
        assert res.changed
        assert res.group.order() == 2
        P = res.basis_change
        assert sorted(abs(x) for row in P for x in row) == \
            [F(0), F(0), F(1, 2), F(1)]

    def test_already_normalized(self):
        res = normalize_action(KLEIN)
        assert not res.changed
        assert res.basis_change == ((1, 0), (0, 1))
        assert res.group.order() == 2

    def test_no_pure_translations_outside_lattice(self):
        data = CrystData.make(2, [([[-1, 0], [0, -1]], (F(1, 2), F(1, 2)))])
        res = normalize_action(data)
        assert not res.changed
        assert translation(res.group, 1) == (F(1, 2), F(1, 2))

    def test_rebased_action_stays_crystallographic(self):
        data = CrystData.make(2, [([[1, 0], [0, 1]], (0, F(1, 3))),
                                  ([[0, 1], [1, 0]], (0, 0))])
        res = normalize_action(data)
        assert res.changed
        assert res.group.is_consistent()


def c2_cocycle(linear_gen, f_gg):
    group = closure([linear_gen])
    values = {(0, 0): (0, 0), (0, 1): (0, 0), (1, 0): (0, 0), (1, 1): tuple(f_gg)}
    return group, ExtensionCocycle(group, values)


class TestAffineRealization:
    def test_zero_cocycle_splits(self):
        group, f = c2_cocycle([[-1, 0], [0, -1]], (0, 0))
        vs = affine_realization(group, f)
        assert all(all(x == 0 for x in u) for u in translations(vs))

    def test_averaging_formula(self):
        # by hand: u_g = (1/2) f(g,g) = (1/2, 0)
        group, f = c2_cocycle([[1, 0], [0, -1]], (1, 0))
        vs = affine_realization(group, f)
        assert translation(vs, 1) == (F(1, 2), F(0))

    def test_removable_system_is_split(self):
        # u_g = (1/2,1/2) for -I is a coboundary: w = (1/4,1/4) removes it,
        # and the fixed point it produces is a torsion witness
        group = closure([[[-1, 0], [0, -1]]])
        vs = VectorSystem(group, *over_one_denominator(((F(0), F(0)), (F(1, 2), F(1, 2)))))
        assert vs.is_consistent()
        zero = VectorSystem(group, *over_one_denominator(((F(0), F(0)), (F(0), F(0)))))
        res = realizations_equivalent(vs, zero)
        assert res.equivalent
        data = CrystData.make(2, [([[-1, 0], [0, -1]], (F(1, 2), F(1, 2)))])
        assert not is_torsion_free(verify_crystallographic(data)).torsion_free

    def test_unrealizable_square_value_rejected(self):
        # gamma commutes with gamma^2, so f(g,g) must be fixed by L(g);
        # (1,1) is not fixed by -I and the cocycle identity fails
        group, f = c2_cocycle([[-1, 0], [0, -1]], (1, 1))
        with pytest.raises(CocycleViolation):
            affine_realization(group, f)

    def test_invalid_cocycle_rejected(self):
        group = closure([[[1, 0], [0, -1]]])
        bad = ExtensionCocycle(group, {(0, 0): (0, 0), (0, 1): (1, 0),
                                       (1, 0): (0, 0), (1, 1): (0, 0)})
        with pytest.raises(CocycleViolation):
            affine_realization(group, bad)

    def test_round_trip_through_cocycle(self):
        for data in (KLEIN, BDF):
            g = verify_crystallographic(data)
            f = cocycle_from_system(g)
            avg = affine_realization(g.group, f)
            assert avg.is_consistent()
            assert realizations_equivalent(g, avg).equivalent

    def test_composed_back_realization_is_crystallographic(self):
        # the affine maps v -> L(g)v + u_g of the averaged system generate a
        # group whose pure-translation subgroup is exactly Z^r: rebuilding
        # from them must verify without lattice enlargement
        for data in (KLEIN, BDF, KUMMER):
            g = verify_crystallographic(data)
            avg = affine_realization(g.group, cocycle_from_system(g))
            rebuilt_data = CrystData.make(
                g.rank,
                [(g.group.elements[i], translation(avg, i)) for i in range(g.order())])
            rebuilt = verify_crystallographic(rebuilt_data)
            assert rebuilt.order() == g.order()


class TestEquivalence:
    def test_reflexive(self):
        g = verify_crystallographic(KLEIN)
        res = realizations_equivalent(g, g)
        assert res.equivalent
        assert all(x == 0 for x in res.shift) or res.shift == ()

    def test_shift_witness(self):
        # (L-I)w = (0, -2*w2): u - u' = (0,-1/3) needs w2 = 1/6
        group = closure([[[1, 0], [0, -1]]])
        u = VectorSystem(group, *over_one_denominator(((F(0), F(0)), (F(1, 2), F(0)))))
        up = VectorSystem(group, *over_one_denominator(((F(0), F(0)), (F(1, 2), F(1, 3)))))
        res = realizations_equivalent(u, up)
        assert res.equivalent
        w = res.shift
        img = group.elements[1].mul_vec(w)
        diff = tuple(a - b for a, b in zip(translation(u, 1), translation(up, 1)))
        assert mod1_vec(tuple(d - (i - ww) for d, i, ww in zip(diff, img, w))) == (0, 0)

    def test_essential_translation(self):
        # first coordinate of (L-I)w is always 0: (1/2,0) cannot be removed
        group = closure([[[1, 0], [0, -1]]])
        u = VectorSystem(group, *over_one_denominator(((F(0), F(0)), (F(1, 2), F(0)))))
        zero = VectorSystem(group, *over_one_denominator(((F(0), F(0)), (F(0), F(0)))))
        res = realizations_equivalent(u, zero)
        assert not res.equivalent

    def test_equivalence_relation_properties(self):
        group = closure([[[1, 0], [0, -1]]])
        rng = random.Random(5)
        systems = []
        for _ in range(4):
            base = (F(1, 2), F(rng.randint(0, 5), 6))
            systems.append(VectorSystem(group, *over_one_denominator(((F(0), F(0)), base))))
        for a in systems:
            assert realizations_equivalent(a, a).equivalent
            for b in systems:
                ab = realizations_equivalent(a, b)
                ba = realizations_equivalent(b, a)
                assert ab.equivalent == ba.equivalent
                for c in systems:
                    bc = realizations_equivalent(b, c)
                    ac = realizations_equivalent(a, c)
                    if ab.equivalent and bc.equivalent:
                        assert ac.equivalent


class TestTorsion:
    def test_kummer_has_torsion(self):
        g = verify_crystallographic(KUMMER)
        rep = is_torsion_free(g)
        assert not rep.torsion_free
        assert rep.offenders == (1,)

    def test_bdf_is_torsion_free(self):
        # first block forces 0 = 1/2 (mod 1)
        g = verify_crystallographic(BDF)
        assert is_torsion_free(g).torsion_free

    def test_trivial_vacuous(self):
        g = verify_crystallographic(CrystData.make(2, []))
        assert is_torsion_free(g).torsion_free

    def test_klein_torsion_free(self):
        g = verify_crystallographic(KLEIN)
        assert is_torsion_free(g).torsion_free
