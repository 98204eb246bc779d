import json
import random
from fractions import Fraction

import pytest
from conftest import identity, inner_product, mat_product

from crystorb import cli, fieldlin
from crystorb.crystal import CrystData, verify_crystallographic
from crystorb.groupcore import (
    ExceedsBound,
    character_table,
    closure,
    conjugacy_classes,
    real_isotypic_dimensions,
)

F = Fraction


def fs_indicator(chi, table):
    """Frobenius-Schur indicator (1/|G|) sum over g of chi(g^2), summed
    element by element."""
    g = table.group
    total = table.field(0)
    for i in range(g.order()):
        total = total + chi.values[g.class_index[g.mul(i, i)]]
    return int((total * F(1, g.order())).rational_value())

MINUS_I2 = [[-1, 0], [0, -1]]
ROT4 = [[0, -1], [1, 0]]
DIAG_SIGN = [[1, 0], [0, -1]]
S3_GENS = [[[0, -1], [1, -1]], [[0, 1], [1, 0]]]
# left multiplication by i and j on the quaternion lattice Z<1,i,j,k>
Q8_GENS = [
    [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
    [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]],
]
D4_GENS = [ROT4, DIAG_SIGN]


def verify_exit(tmp_path, linear):
    """Exit code of `verify` on one generator with zero translation."""
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"rank": len(linear), "generators": [{"linear": linear}]}))
    return cli.main(["verify", "--input", str(path), "--format", "json"])


def powers_of(mat):
    """Oracle: explicit powers of a single matrix until identity."""
    m = tuple(map(tuple, mat))
    acc = m
    out = [identity(len(m))]
    while acc != out[0]:
        out.append(acc)
        acc = mat_product(acc, m)
    return out


class TestClosure:
    def test_order_two(self):
        g = closure([MINUS_I2])
        assert g.order() == 2

    def test_cyclic_four(self):
        g = closure([ROT4])
        assert g.order() == 4
        assert set(g.elements) == set(powers_of(ROT4))

    def test_unipotent_exceeds_bound(self):
        with pytest.raises(ExceedsBound):
            closure([[[1, 1], [0, 1]]], bound=1000)

    def test_trivial_group(self):
        g = closure([], rank=3)
        assert g.order() == 1
        assert g.rank == 3

    def test_singular_generator_with_finite_closure_rejected(self, tmp_path, capsys):
        # diag(1, 0) is idempotent: the closure {I, g} is finite, but no
        # w in it has w g = I
        with pytest.raises(ValueError, match="invertible"):
            closure([[[1, 0], [0, 0]]])
        assert verify_exit(tmp_path, [[1, 0], [0, 0]]) == 1
        assert "invertible" in capsys.readouterr().err

    def test_determinant_two_is_not_finite(self, tmp_path, capsys):
        with pytest.raises(ExceedsBound):
            verify_crystallographic(CrystData.make(2, [([[2, 0], [0, 1]], (0, 0))]))
        assert verify_exit(tmp_path, [[2, 0], [0, 1]]) == 1
        assert "not finite" in capsys.readouterr().err

    def test_closure_computes_no_determinant(self, monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("det", "charpoly"):
            monkeypatch.setattr(fieldlin, name, counted(name, getattr(fieldlin, name)))
        for gens in (S3_GENS, Q8_GENS, D4_GENS, [MINUS_I2]):
            closure(gens)
        assert calls == []

    def test_element_zero_is_identity(self):
        for gens in (S3_GENS, Q8_GENS, D4_GENS):
            g = closure(gens)
            assert g.elements[0] == identity(g.rank)

    def test_dets_unimodular(self):
        for gens in (S3_GENS, Q8_GENS, D4_GENS):
            g = closure(gens)
            assert all(fieldlin.det([[F(x) for x in row] for row in m]) in (1, -1)
                       for m in g.elements)

    def test_deterministic_order(self):
        a = closure(S3_GENS)
        b = closure(S3_GENS)
        assert a.elements == b.elements


class TestConjugacyClasses:
    def test_abelian_singletons(self):
        g = closure([ROT4])
        cc = conjugacy_classes(g)
        assert len(cc) == 4
        assert all(c.size == 1 for c in cc)

    def test_s3(self):
        g = closure(S3_GENS)
        assert g.order() == 6
        cc = conjugacy_classes(g)
        assert sorted(c.size for c in cc) == [1, 2, 3]

    def test_trivial(self):
        g = closure([], rank=2)
        assert len(conjugacy_classes(g)) == 1

    def test_q8(self):
        cc = conjugacy_classes(closure(Q8_GENS))
        assert sorted(c.size for c in cc) == [1, 1, 2, 2, 2]


class TestCharacterTable:
    def test_c2(self):
        t = character_table(closure([MINUS_I2]))
        assert len(t.characters) == 2
        one = t.field(1)
        values = sorted(tuple(v == one for v in chi.values) for chi in t.characters)
        assert values == [(True, False), (True, True)]

    def test_c4_values_are_fourth_roots(self):
        # oracle: explicit powers of zeta_4
        t = character_table(closure([ROT4]))
        assert sorted(chi.degree for chi in t.characters) == [1, 1, 1, 1]
        K = t.field
        i_val = K.zeta(K.order // 4)
        fourth_roots = {K(1), K(-1), i_val, -i_val}
        for chi in t.characters:
            assert set(chi.values) <= fourth_roots
        # some character is faithful: takes value +-i on a generator class
        faithful = [chi for chi in t.characters if i_val in chi.values or -i_val in chi.values]
        assert len(faithful) == 2

    def test_s3_degrees(self):
        t = character_table(closure(S3_GENS))
        assert sorted(chi.degree for chi in t.characters) == [1, 1, 2]
        assert sum(chi.degree ** 2 for chi in t.characters) == 6

    def test_d4_degrees(self):
        t = character_table(closure(D4_GENS))
        assert sorted(chi.degree for chi in t.characters) == [1, 1, 1, 1, 2]

    def test_q8_degrees(self):
        t = character_table(closure(Q8_GENS))
        assert sorted(chi.degree for chi in t.characters) == [1, 1, 1, 1, 2]

    def test_trivial_character_first(self):
        for gens in ([MINUS_I2], [ROT4], S3_GENS, D4_GENS, Q8_GENS):
            t = character_table(closure(gens))
            assert all(v == t.field(1) for v in t.characters[0].values)
            assert t.characters[0].label == "chi0"

    def test_orthogonality_exact(self):
        # the builder verifies internally; re-check rows here explicitly
        for gens in ([MINUS_I2], [ROT4], S3_GENS, D4_GENS, Q8_GENS):
            t = character_table(closure(gens))
            for a, chi_a in enumerate(t.characters):
                for b, chi_b in enumerate(t.characters):
                    ip = inner_product(t, chi_a, chi_b)
                    assert ip == t.field(1 if a == b else 0)

    def test_abelian_class_count(self):
        g = closure([ROT4])
        t = character_table(g)
        assert len(t.characters) == g.order()
        assert all(chi.degree == 1 for chi in t.characters)


class TestFsIndicator:
    def test_trivial_character(self):
        t = character_table(closure(S3_GENS))
        assert t.characters[0].fs_indicator == 1
        assert fs_indicator(t.characters[0], t) == 1

    def test_c4_faithful_is_complex(self):
        t = character_table(closure([ROT4]))
        K = t.field
        i_val = K.zeta(K.order // 4)
        faithful = next(chi for chi in t.characters if i_val in chi.values)
        assert fs_indicator(faithful, t) == 0

    def test_q8_two_dim_is_quaternionic(self):
        t = character_table(closure(Q8_GENS))
        two_dim = next(chi for chi in t.characters if chi.degree == 2)
        assert fs_indicator(two_dim, t) == -1
        assert two_dim.fs_indicator == -1

    def test_d4_all_real(self):
        t = character_table(closure(D4_GENS))
        assert all(chi.fs_indicator == 1 for chi in t.characters)


class TestRealIsotypic:
    def test_minus_identity(self):
        # trace computation: multiplicities (0, 2) over the two characters
        g = closure([MINUS_I2])
        rep = real_isotypic_dimensions(g, character_table(g))
        assert len(rep.classes) == 1
        cls = rep.classes[0]
        assert cls.fs_type == "real"
        assert cls.complex_dim == 2
        assert cls.admits_complex_structure

    def test_diag_sign(self):
        # eigenvalue multiplicities: one trivial line, one sign line
        g = closure([DIAG_SIGN])
        rep = real_isotypic_dimensions(g, character_table(g))
        assert len(rep.classes) == 2
        assert all(c.complex_dim == 1 for c in rep.classes)
        assert all(not c.admits_complex_structure for c in rep.classes)

    def test_rot4_complex_pair(self):
        # eigenvalues +-i, each multiplicity 1, merged into one real class
        g = closure([ROT4])
        rep = real_isotypic_dimensions(g, character_table(g))
        assert len(rep.classes) == 1
        cls = rep.classes[0]
        assert cls.fs_type == "complex"
        assert len(cls.labels) == 2
        assert cls.complex_dim == 2
        assert cls.admits_complex_structure

    def test_s3_standard_is_single_odd_class(self):
        # the standard 2-dim constituent appears once: real type, odd multiplicity
        g = closure(S3_GENS)
        rep = real_isotypic_dimensions(g, character_table(g))
        assert len(rep.classes) == 1
        cls = rep.classes[0]
        assert (cls.fs_type, cls.degree, cls.multiplicity) == ("real", 2, 1)
        assert cls.complex_dim == 2
        assert not cls.admits_complex_structure

    def test_q8_quaternionic(self):
        g = closure(Q8_GENS)
        rep = real_isotypic_dimensions(g, character_table(g))
        assert len(rep.classes) == 1
        cls = rep.classes[0]
        assert (cls.fs_type, cls.degree, cls.multiplicity) == ("quaternionic", 2, 2)
        assert cls.complex_dim == 4
        assert cls.admits_complex_structure

    def test_dimensions_sum_to_rank(self):
        for gens in ([MINUS_I2], [ROT4], S3_GENS, D4_GENS, Q8_GENS, [DIAG_SIGN]):
            g = closure(gens)
            rep = real_isotypic_dimensions(g, character_table(g))
            assert rep.total_dim == g.rank

    def test_generator_permutation_invariance(self):
        g1 = closure(S3_GENS)
        g2 = closure(list(reversed(S3_GENS)))
        r1 = real_isotypic_dimensions(g1, character_table(g1))
        r2 = real_isotypic_dimensions(g2, character_table(g2))
        key = lambda rep: sorted((c.complex_dim, c.admits_complex_structure) for c in rep.classes)
        assert key(r1) == key(r2)


class TestGroupBasics:
    def test_element_order(self):
        g = closure(S3_GENS)
        orders = sorted(g.element_order(i) for i in range(g.order()))
        assert orders == [1, 2, 2, 2, 3, 3]

    def test_exponent(self):
        assert closure(S3_GENS).exponent() == 6
        assert closure(Q8_GENS).exponent() == 4

    def test_inverse(self):
        g = closure(Q8_GENS)
        for i in range(g.order()):
            assert g.mul(i, g.inv(i)) == 0

    def test_random_small_groups_table_consistency(self):
        # property run: tables of random 2x2 sign/permutation groups verify
        rng = random.Random(23)
        pool = [MINUS_I2, DIAG_SIGN, [[0, 1], [1, 0]], [[-1, 0], [0, 1]]]
        for _ in range(6):
            gens = rng.sample(pool, rng.randint(1, 2))
            g = closure(gens)
            t = character_table(g)
            assert sum(chi.degree ** 2 for chi in t.characters) == g.order()
