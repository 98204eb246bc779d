import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import family
import pytest
from conftest import (corpus_documents, crystal_group, cyclotomic_documents,
                      extraspecial_documents, family_documents)
from jcheck import assert_invariant_j

from crystorb import cli, fieldlin, hodge
from crystorb.crystal import CrystData, verify_crystallographic
from crystorb.cyclo import CycloField, _pi_fixed, real_enclosure
from crystorb.exactla import IntMatrix

F = Fraction


def right_action(omega, g):
    """The parameter-space action of a point-group element.

    Implemented on column spans: the subspace moves by the inverse linear
    part, so acting by g then h equals acting by g*h (a right action) and
    the fixed points are exactly the invariant subspaces."""
    if g.rows != len(omega) or g.cols != len(omega):
        raise ValueError("group element has incompatible shape")
    try:
        inv = fieldlin.inverse([[F(x) for x in row] for row in g.to_lists()])
    except ArithmeticError:
        raise ValueError("matrix is singular") from None
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("matrix has non-integer entries")
    ginv = [[int(x) for x in row] for row in inv]
    rows = fieldlin.mat_mul(ginv, [list(r) for r in omega])
    return tuple(tuple(r) for r in rows)


def same_span(a, b):
    """True iff the column spans of two n-column period matrices agree."""
    return fieldlin.rank(fieldlin.hstack(a, b)) == len(a[0])


def gaussian(pairs):
    """The period matrix of Gaussian rationals re + im i, one row per row
    of (re, im) pairs."""
    i = hodge.GAUSS.zeta()
    return tuple(tuple(hodge.GAUSS(F(re)) + hodge.GAUSS(F(im)) * i for re, im in row)
                 for row in pairs)

D = lambda *xs: [[(xs[i] if i == j else 0) for j in range(len(xs))] for i in range(len(xs))]
ROT4 = [[0, -1], [1, 0]]
C3 = [[0, -1], [1, -1]]
C6 = [[0, -1], [1, 1]]


def blowup(m):
    n = len(m)
    out = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            out[i][j] = m[i][j]
            out[n + i][n + j] = m[i][j]
    return out


def crys(rank, *gens):
    return verify_crystallographic(
        CrystData.make(rank, [(g, (0,) * rank) for g in gens]))


def jstruct(g):
    return hodge.invariant_complex_structure(g, hodge.is_even(g))


def sample_omega(g, t):
    """The period matrix of the sample point of the Hodge type t."""
    B, _ = hodge.sample_subspace(g, t)
    return tuple(tuple(row) for row in B)


TRIV2 = crys(2)
ROT4G = crys(2, ROT4)
C3G = crys(2, C3)
DIAG = crys(2, D(1, -1))
KUMMER = crys(4, D(-1, -1, -1, -1))
S3R2 = crys(2, [[0, -1], [1, -1]], [[0, 1], [1, 0]])
S3R4 = crys(4, blowup([[0, -1], [1, -1]]), blowup([[0, 1], [1, 0]]))
Q8 = crys(4,
          [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
          [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])


class TestIsEven:
    def test_minus_identity_even(self):
        assert hodge.is_even(crys(2, D(-1, -1))).even

    def test_diag_not_even(self):
        ev = hodge.is_even(DIAG)
        assert not ev.even
        assert len(ev.odd_witness) == 2

    def test_odd_rank(self):
        g = crys(3, D(-1, -1, -1))
        ev = hodge.is_even(g)
        assert not ev.even
        assert "odd_rank" in ev.odd_witness

    def test_s3_rank2_not_even(self):
        # single real-type class of even complex dimension but odd
        # multiplicity: no commuting complex structure can exist
        ev = hodge.is_even(S3R2)
        assert not ev.even
        assert ev.report.classes[0].complex_dim == 2

    def test_s3_rank4_even(self):
        assert hodge.is_even(S3R4).even

    def test_q8_even(self):
        assert hodge.is_even(Q8).even


class TestInvariantComplexStructure:
    def test_trivial_standard(self):
        structure = jstruct(TRIV2)
        assert structure.mode == "exact"
        assert structure.entries == ((F(0), F(-1)), (F(1), F(0)))

    def test_rot4_is_its_own_structure(self):
        structure = jstruct(ROT4G)
        assert structure.mode == "exact"
        assert structure.entries == ((F(0), F(-1)), (F(1), F(0)))

    def test_diag_none_with_witness(self):
        ev = hodge.is_even(DIAG)
        with pytest.raises(ValueError):
            hodge.invariant_complex_structure(DIAG, ev)
        assert len(ev.odd_witness) == 2

    def test_exact_residuals_zero(self):
        for g in (TRIV2, ROT4G, KUMMER, S3R4, Q8):
            structure = jstruct(g)
            assert structure.mode == "exact"
            J = structure.entries
            JJ = fieldlin.mat_mul(J, J)
            w = len(J)
            assert all(JJ[i][j] == (F(-1) if i == j else 0)
                       for i in range(w) for j in range(w))
            for m in g.group.elements:
                mf = [[F(m.at(i, j)) for j in range(w)] for i in range(w)]
                assert fieldlin.mat_mul(J, mf) == fieldlin.mat_mul(mf, J)

    def test_hexagonal_j_is_algebraic(self):
        # the commutant is Q(zeta_3), which contains no square root of -1:
        # no rational J exists although the group is even.  J comes from the
        # sample point, exactly, with entries +-1/sqrt 3 and +-2/sqrt 3
        structure = jstruct(C3G)
        assert structure.mode == "algebraic"
        assert structure.field_order == 12
        assert_invariant_j(structure.entries, C3G.group)
        third = [[x * x for x in row] for row in structure.entries]
        assert third == [[F(1, 3), F(4, 3)], [F(4, 3), F(1, 3)]]

    def test_biconditional_on_sample(self):
        groups = [TRIV2, ROT4G, C3G, DIAG, KUMMER, S3R2, S3R4, Q8,
                  crys(2, C6), crys(2, D(-1, -1))]
        for g in groups:
            ev = hodge.is_even(g)
            try:
                structure = hodge.invariant_complex_structure(g, ev)
            except ValueError:
                structure = None
            assert (structure is not None) == ev.even

    def test_repeated_runs_give_one_j(self):
        # the sampler has no seed: J is a function of the group
        assert jstruct(C3G).entries == jstruct(C3G).entries


class TestOmega:
    def test_orientation_convention(self):
        # by hand: i * det[[1,1],[i,-i]] = 2 > 0; swapped rows give -2
        assert hodge.omega_in_T(gaussian([[(1, 0)], [(0, 1)]]))
        assert not hodge.omega_in_T(gaussian([[(0, 1)], [(1, 0)]]))

    def test_degenerate_rejected(self):
        om = gaussian([[(1, 0), (1, 0)], [(1, 0), (1, 0)],
                       [(0, 0), (0, 0)], [(0, 0), (0, 0)]])
        with pytest.raises(hodge.DegenerateOmega):
            hodge.omega_in_T(om)

    def test_block_diagonal_positivity(self):
        # det(Omega | conj Omega) factors over the blocks only after moving
        # conj Omega_1 past Omega_2, which costs the sign (-1)^(n1*n2): the
        # naive block of two positive 1-dim factors lands in the negative
        # component, and conjugating one factor flips it back
        naive = gaussian([[(1, 0), (0, 0)], [(0, 1), (0, 0)],
                          [(0, 0), (1, 0)], [(0, 0), (0, 1)]])
        assert not hodge.omega_in_T(naive)
        flipped = gaussian([[(1, 0), (0, 0)], [(0, 1), (0, 0)],
                            [(0, 0), (1, 0)], [(0, 0), (0, -1)]])
        assert hodge.omega_in_T(flipped)

    def test_torus_standard(self):
        J = hodge.torus_from_omega(gaussian([[(1, 0)], [(0, 1)]]))
        assert J.entries == ((F(0), F(1)), (F(-1), F(0)))

    def test_torus_generic_tau(self):
        # tau = x + iy: J = [[-x/y, 1/y], [-(x^2+y^2)/y, x/y]], J^2 = -I
        J = hodge.torus_from_omega(gaussian([[(1, 0)], [(1, 2)]]))
        assert J.entries == ((F(-1, 2), F(1, 2)), (F(-5, 2), F(1, 2)))

    def test_torus_over_a_cyclotomic_field(self):
        # tau = zeta_3 = -1/2 + i sqrt(3)/2 in Q(zeta_3), a field without i:
        # i det = sqrt 3 > 0, and J = [[1, 2], [-2, -1]] / sqrt 3 over Q(zeta_12)
        K = CycloField(3)
        om = ((K(1),), (K.zeta(),))
        assert hodge.omega_in_T(om)
        tj = hodge.torus_from_omega(om)
        assert tj.mode == "algebraic" and tj.field_order == 12
        J = tj.entries
        assert fieldlin.mat_mul(J, J) == [[-1, 0], [0, -1]]
        assert all(x == x.conjugate() for row in J for x in row)
        assert [[3 * x * x for x in row] for row in J] == [[1, 4], [4, 1]]
        # the conjugate line lies outside T and carries -J
        conj = ((K(1),), (K.zeta(2),))
        assert not hodge.omega_in_T(conj)
        minus = tuple(tuple(-x for x in row) for row in J)
        assert hodge.torus_from_omega(conj).entries == minus

    def test_degenerate_torus_rejected(self):
        om = gaussian([[(1, 0)], [(2, 0)]])
        with pytest.raises(hodge.DegenerateOmega):
            hodge.torus_from_omega(om)

    def test_sign_refines_past_the_first_precision(self):
        # sqrt 2 - 1.414213562373095048801688 is about 7e-25, below the first
        # enclosure at 2^-64; the sign of its negative is read off as well
        K = CycloField(8)
        root2 = K.zeta() + K.zeta(7)
        close = root2 - F(1414213562373095048801688, 10 ** 24)
        lo, hi = real_enclosure(close, 64)
        assert lo < 0 < hi
        assert real_enclosure(close, 128)[0] > 0
        assert real_enclosure(-close, 128)[1] < 0

    @pytest.mark.parametrize("p", [64, 128, 512])
    def test_pi_bounds(self, p):
        pi, err = _pi_fixed(p)
        lo, hi = F(pi - err, 2 ** p), F(pi + err, 2 ** p)
        digits = 314159265358979323846264338327950288419716939937510
        assert lo < F(digits + 1, 10 ** 50) and F(digits, 10 ** 50) < hi
        assert hi - lo < F(p * 16, 2 ** p)

    def test_right_action_identity_preserves_span(self):
        om = gaussian([[(1, 0)], [(0, 1)]])
        moved = right_action(om, IntMatrix.identity(2))
        assert same_span(om, moved)

    def test_right_action_fixes_eigenline(self):
        # the -i eigenline (1, i) of the rotation is span-fixed
        om = gaussian([[(1, 0)], [(0, 1)]])
        moved = right_action(om, IntMatrix.from_rows(ROT4))
        assert same_span(om, moved)

    def test_right_action_is_a_right_action(self):
        g = IntMatrix.from_rows([[1, 1], [0, 1]])
        h = IntMatrix.from_rows([[1, 0], [1, 1]])
        om = gaussian([[(1, 0)], [(0, 1)]])
        one = right_action(right_action(om, g), h)
        two = right_action(om, g.mul(h))
        assert one == two

    def test_right_action_needs_an_integer_inverse(self):
        om = gaussian([[(1, 0)], [(0, 1)]])
        for g, message in (([[2, 0], [0, 1]], "non-integer"), ([[1, 1], [1, 1]], "singular")):
            with pytest.raises(ValueError, match=message):
                right_action(om, IntMatrix.from_rows(g))

    def test_invariant_omega_gives_commuting_j(self):
        om = gaussian([[(1, 0)], [(0, 1)]])
        tj = hodge.torus_from_omega(om)
        assert tj.mode == "exact"
        J = tj.entries
        R = [[F(x) for x in row] for row in ROT4]
        assert fieldlin.mat_mul(J, R) == fieldlin.mat_mul(R, J)


class TestHodgeTypes:
    def test_trivial_counts(self):
        for n in (1, 2, 3):
            g = crys(2 * n)
            ts = hodge.hodge_types(hodge.is_even(g))
            assert len(ts) == 1
            assert hodge.component_dimension(ts[0]) == n * n

    def test_rot4_two_rigid_types(self):
        ts = hodge.hodge_types(hodge.is_even(ROT4G))
        assert len(ts) == 2
        assert [hodge.component_dimension(t) for t in ts] == [0, 0]

    def test_kummer_full_space(self):
        ts = hodge.hodge_types(hodge.is_even(KUMMER))
        assert len(ts) == 1
        assert hodge.component_dimension(ts[0]) == 4

    def test_non_even_rejected(self):
        with pytest.raises(ValueError):
            hodge.hodge_types(hodge.is_even(DIAG))

    def test_abelian_count_matches_split_enumeration(self):
        # for the doubled rotation the conjugate pair has multiplicity 2:
        # splits 0+2, 1+1, 2+0
        g = crys(4, blowup(ROT4))
        ts = hodge.hodge_types(hodge.is_even(g))
        assert len(ts) == 3
        assert sorted(hodge.component_dimension(t) for t in ts) == [0, 0, 2]

    def test_split_dims_sum_to_n(self):
        for g in (TRIV2, ROT4G, C3G, KUMMER, S3R4, Q8):
            for t in hodge.hodge_types(hodge.is_even(g)):
                assert t.holomorphic_dim == g.n


class TestSamplesAndTangent:
    @pytest.mark.parametrize("group,expected", [
        ("TRIV2", [1]), ("ROT4G", [0, 0]), ("C3G", [0, 0]),
        ("KUMMER", [4]), ("S3R4", [1]), ("Q8", [1]),
    ])
    def test_tangent_matches_formula(self, group, expected):
        g = globals()[group]
        ts = hodge.hodge_types(hodge.is_even(g))
        dims = []
        for t in ts:
            _, action = hodge.sample_subspace(g, t)
            oracle = hodge.tangent_dimension(action)
            formula = hodge.component_dimension(t)
            assert oracle == formula
            dims.append(formula)
        assert sorted(dims) == sorted(expected) or dims == expected

    def test_intermediate_split_tangent(self):
        g = crys(4, blowup(ROT4))
        for t in hodge.hodge_types(hodge.is_even(g)):
            _, action = hodge.sample_subspace(g, t)
            assert hodge.tangent_dimension(action) == hodge.component_dimension(t)

    def test_sample_omega_exact_for_gaussian(self):
        for t in hodge.hodge_types(hodge.is_even(ROT4G)):
            om = sample_omega(ROT4G, t)
            assert {z.field.order for row in om for z in row} == {4}
            J = hodge.torus_from_omega(om)
            assert J.mode == "exact"
            assert_invariant_j(J.entries, ROT4G.group)

    def test_sample_omega_hexagonal_gives_algebraic_j(self):
        for t in hodge.hodge_types(hodge.is_even(C3G)):
            om = sample_omega(C3G, t)
            assert {z.field.order for row in om for z in row} == {12}
            J = hodge.torus_from_omega(om)
            assert J.mode == "algebraic" and J.field_order == 12
            assert_invariant_j(J.entries, C3G.group)

    def test_sample_spans_are_invariant(self):
        for g in (KUMMER, C3G, S3R4):
            for t in hodge.hodge_types(hodge.is_even(g)):
                om = sample_omega(g, t)
                for gi in g.group.generators:
                    moved = right_action(om, g.linear(gi))
                    assert same_span(om, moved)

    def test_classification_constant_along_component(self):
        # three points of the (unique, 4-dimensional) Kummer component: the
        # induced complex structures differ, and the quotient classification
        # and descriptor, read off the fixed loci alone, are the same
        from crystorb import quotient

        omegas = [
            gaussian([[(1, 0), (0, 0)], [(0, 1), (0, 0)],
                      [(0, 0), (1, 0)], [(0, 0), (0, -1)]]),
            gaussian([[(1, 0), (0, 0)], [(1, 3), (0, 0)],
                      [(0, 0), (1, 0)], [(0, 0), (0, -2)]]),
            gaussian([[(1, 0), (0, 0)], [(2, 1), (0, 0)],
                      [(0, 0), (1, 1)], [(0, 0), (1, -1)]]),
        ]
        outcomes = set()
        for om in omegas:
            assert hodge.omega_in_T(om)
            hodge.torus_from_omega(om)
            cls = quotient.classify_action(quotient.all_fixed_loci(KUMMER))
            desc = quotient.orbifold_descriptor(KUMMER, hodge.is_even(KUMMER))
            outcomes.add((cls.kind, desc.classification.kind, desc.stratum_summary))
        assert outcomes == {("quasi_free", "quasi_free", (((2, 2), 16),))}


def _lattice_matrix(images, r):
    """The matrix on Z[zeta_(r+1)] = Z^r, basis 1, zeta, ..., zeta^(r-1),
    sending zeta^k to zeta^images[k], where zeta^r = -(1 + ... + zeta^(r-1))."""
    cols = [[-1] * r if k == r else [int(i == k) for i in range(r)] for k in images]
    return [[cols[j][i] for j in range(r)] for i in range(r)]


# D5 and C7 : C3 on two copies of the cyclotomic lattices Z[zeta_5] and Z[zeta_7]
D5_DOUBLE = crys(8, blowup(_lattice_matrix([1, 2, 3, 4], 4)),
                 blowup(_lattice_matrix([0, 4, 3, 2], 4)))
C7C3_DOUBLE = crys(12, blowup(_lattice_matrix([1, 2, 3, 4, 5, 6], 6)),
                   blowup(_lattice_matrix([0, 2, 4, 6, 1, 3], 6)))


class TestUnsupportedSamples:
    """The types the pairing search did not construct, which `teich` used to
    report as tangent_agrees: null: the joint eigenspaces sample them."""

    def test_real_class_with_irrational_character(self):
        # the two real characters of degree 2 take the values (-1 +- sqrt 5)/2
        ts = hodge.hodge_types(hodge.is_even(D5_DOUBLE))
        assert [s.fs_type for t in ts for s in t.splits] == ["real", "real"]
        _, action = hodge.sample_subspace(D5_DOUBLE, ts[0])
        assert hodge.tangent_dimension(action) == hodge.component_dimension(ts[0]) == 2

    def test_intermediate_split_of_degree_three_pair(self):
        (middle,) = [t for t in hodge.hodge_types(hodge.is_even(C7C3_DOUBLE)) if t.splits[0].a == 1]
        assert middle.splits[0].degree == 3
        _, action = hodge.sample_subspace(C7C3_DOUBLE, middle)
        assert hodge.tangent_dimension(action) == hodge.component_dimension(middle) == 2


@pytest.mark.parametrize("name", sorted(cyclotomic_documents()))
def test_cyclotomic_groups_have_exact_j_and_consistent_tangents(name, tmp_path, capsys):
    # real classes with irrational characters and complex pairs of degree 3:
    # J is exact and invariant, and every type has the tangent dimension of
    # the formula
    doc = cyclotomic_documents()[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    reports = {}
    for command in ("jstruct", "teich"):
        assert cli.main([command, "--input", str(path), "--format", "json"]) == 0
        reports[command] = json.loads(capsys.readouterr().out)["result"]
    assert reports["jstruct"]["mode"] == "exact"
    assert all(t["tangent_agrees"] is True for t in reports["teich"]["types"])
    g = crystal_group(doc)
    J = hodge.invariant_complex_structure(g, hodge.is_even(g))
    assert J.mode == "exact"
    assert_invariant_j(J.entries, g.group)


def test_half_span_skips_combinations_that_meet_their_conjugates():
    # y0 + i y1 = (1 + i)(1, 1) and y0 + y1 = (2, 0) span real lines, so the
    # first combination kept is y0 itself, whose line misses its conjugate
    K = CycloField(4)
    i = K.zeta()
    y0, y1 = [K(1), i], [K(1), -i]
    (row,) = hodge._half_span([((1, 0), (0, 1))], [y0, y1], i)
    assert fieldlin.rank([row, [z.conjugate() for z in row]]) == 2
    assert fieldlin.rank([row, y0]) == 1


def test_extraspecial_group_has_no_simple_eigenvalue():
    # every eigenvalue of every element has multiplicity 0, 2 or 4 on the
    # constituent of degree 4, so 0, 4 or 8 on the lattice: the sampler
    # needs the eigenspaces of two commuting elements
    g = crystal_group(extraspecial_documents()["extraspecial32_rank8"])
    (c,) = hodge.is_even(g).report.classes
    assert (g.order(), c.fs_type, c.degree, c.multiplicity) == (32, "real", 4, 2)
    K = CycloField(4)
    for m in g.group.elements:
        for lam in (K(1), K(-1), K.zeta(), K.zeta(3)):
            shifted = [[x - (lam if i == j else 0) for j, x in enumerate(row)]
                       for i, row in enumerate(m.to_lists())]
            assert len(fieldlin.nullspace(shifted)) in (0, 4, 8)


@pytest.mark.parametrize("basis_seed", [None, 0, 1, 2, 3])
def test_extraspecial_group_samples_and_builds_exact_j(basis_seed, tmp_path, capsys):
    docs = extraspecial_documents()
    if basis_seed is not None:
        docs = family.seeded_documents(docs, basis_seed)
    doc = docs["extraspecial32_rank8"]
    path = tmp_path / "extraspecial.json"
    path.write_text(json.dumps(doc))
    reports = {}
    for command in ("jstruct", "teich"):
        assert cli.main([command, "--input", str(path), "--format", "json"]) == 0
        reports[command] = json.loads(capsys.readouterr().out)["result"]
    assert [t["tangent_agrees"] for t in reports["teich"]["types"]] == [True]
    assert reports["jstruct"]["mode"] == "exact"
    J = tuple(tuple(F(x) for x in row) for row in reports["jstruct"]["matrix"])
    assert_invariant_j(J, crystal_group(doc).group)


# the groups whose J changed when the commutant basis became the HNF
# kernel, each document set seeded on its own: (set, name, basis seed)
REPICKED_J = [("corpus", "q8_rank4", s) for s in (0, 1, 3)] + \
    [("corpus", "s3_rank4", s) for s in range(4)] + \
    [("scaling", "s4double_rank8", s) for s in (0, 1, 3)] + \
    [("scaling", "b3diag_rank6", s) for s in (1, 2, 3)] + \
    [("cyclotomic", "cyc12_u5_7", s) for s in (1, 3)] + [("cyclotomic", "cyc8_u3_5", 2)]


@pytest.mark.parametrize("documents, name, basis_seed", REPICKED_J)
def test_repicked_j_is_invariant(documents, name, basis_seed):
    # each J is exact, real, squares to -I and commutes with every element.
    # s4double_rank8 at basis seed 0 reaches the sampler: its real class of
    # degree 3 is cut for the eigenvalue 1 of commuting elements, in
    # Fractions, so V is defined over Q(i).  The pairing's J was algebraic
    docs = {"corpus": corpus_documents, "scaling": family_documents,
            "cyclotomic": cyclotomic_documents}[documents]()
    g = crystal_group(family.seeded_documents(docs, basis_seed)[name])
    J = hodge.invariant_complex_structure(g, hodge.is_even(g))
    assert J.mode == "exact"
    assert_invariant_j(J.entries, g.group)


MISCOUNTED_TYPE = """
import sys
from crystorb import hodge
from crystorb.crystal import CrystData, verify_crystallographic

assert False, "assert statements must be off"
minus = [[-1 if i == j else 0 for j in range(4)] for i in range(4)]
g = verify_crystallographic(CrystData.make(4, [(minus, (0, 0, 0, 0))]))
# a Hodge type whose holomorphic dimension is miscounted must be refused
hodge.HodgeType.holomorphic_dim = property(lambda self: -1)
try:
    hodge.hodge_types(hodge.is_even(g))
except ArithmeticError as exc:
    print(exc)
    sys.exit(0)
sys.exit(1)
"""


def test_hodge_checks_survive_optimize():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    run = subprocess.run([sys.executable, "-O", "-c", MISCOUNTED_TYPE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "dimension" in run.stdout


def _child(code, *flags):
    """Run `code` in a child with src/, perfbench/ and tests/ importable."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *flags, "-c", code, str(root / "perfbench"),
                           str(root / "tests")], env=env, capture_output=True, text=True,
                          timeout=600)


# every even corpus and family input at basis seeds 0-3, each set seeded on its
# own as the benchmark seeds it, with mpmath unimportable:
# J, the Hodge types, their sample points and tangent dimensions are all exact.
# Prints the number of runs and which construction built each J.
EVEN_RUNS = """
import json, sys
sys.modules["mpmath"] = None
sys.path[:0] = sys.argv[1:3]
from collections import Counter
import family
from conftest import corpus_documents, crystal_group, family_documents
from jcheck import assert_invariant_j
from crystorb import hodge

torus = hodge.torus_from_omega
built = []

def recorded_torus(omega):
    built[-1] = "sample point"
    return torus(omega)

branches = Counter()
for seed in range(4):
    docs = {**family.seeded_documents(corpus_documents(), seed),
            **family.seeded_documents(family_documents(), seed)}
    for name, doc in sorted(docs.items()):
        g = crystal_group(doc)
        if not hodge.is_even(g).even:
            continue
        built.append("rational search")
        hodge.torus_from_omega = recorded_torus
        J = hodge.invariant_complex_structure(g, hodge.is_even(g))
        hodge.torus_from_omega = torus
        branches[built.pop()] += 1
        assert_invariant_j(J.entries, g.group)
        for t in hodge.hodge_types(hodge.is_even(g)):
            _, action = hodge.sample_subspace(g, t)
            assert hodge.tangent_dimension(action) == hodge.component_dimension(t), name
print(json.dumps({"runs": sum(branches.values()), "branches": branches}))
"""


def test_every_even_input_is_exact_without_mpmath():
    run = _child(EVEN_RUNS)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    print(report)
    assert report["runs"] == 80
    assert set(report["branches"]) <= {"rational search", "sample point"}
