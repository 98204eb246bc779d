import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from crystorb import fieldlin, hodge
from crystorb.crystal import CrystData, verify_crystallographic
from crystorb.exactla import IntMatrix

F = Fraction

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
        res = hodge.invariant_complex_structure(TRIV2)
        assert res.structure.mode == "exact"
        assert res.structure.entries == ((F(0), F(-1)), (F(1), F(0)))

    def test_rot4_is_its_own_structure(self):
        res = hodge.invariant_complex_structure(ROT4G)
        assert res.structure.mode == "exact"
        assert res.structure.entries == ((F(0), F(-1)), (F(1), F(0)))

    def test_diag_none_with_witness(self):
        res = hodge.invariant_complex_structure(DIAG)
        assert res.structure is None
        assert len(res.evenness.odd_witness) == 2

    def test_exact_residuals_zero(self):
        for g in (TRIV2, ROT4G, KUMMER, S3R4, Q8):
            res = hodge.invariant_complex_structure(g)
            assert res.structure.mode == "exact"
            J = res.structure.entries
            JJ = fieldlin.mat_mul(J, J)
            w = len(J)
            assert all(JJ[i][j] == (F(-1) if i == j else 0)
                       for i in range(w) for j in range(w))
            for m in g.group.elements:
                mf = [[F(m.at(i, j)) for j in range(w)] for i in range(w)]
                assert fieldlin.mat_mul(J, mf) == fieldlin.mat_mul(mf, J)

    def test_hexagonal_needs_approximation(self):
        # the commutant is Q(zeta_3), which contains no square root of -1:
        # no rational J exists although the group is even
        res = hodge.invariant_complex_structure(C3G)
        assert res.structure.mode == "approximate"
        tol = mpmath.mpf("1e-30")
        assert res.structure.j_squared_residual <= tol
        assert res.structure.commutator_residual <= tol
        assert res.structure.precision_bits == 128

    def test_biconditional_on_sample(self):
        groups = [TRIV2, ROT4G, C3G, DIAG, KUMMER, S3R2, S3R4, Q8,
                  crys(2, C6), crys(2, D(-1, -1))]
        for g in groups:
            res = hodge.invariant_complex_structure(g)
            assert (res.structure is not None) == hodge.is_even(g).even

    def test_seed_determinism(self):
        a = hodge.invariant_complex_structure(C3G, seed=5)
        b = hodge.invariant_complex_structure(C3G, seed=5)
        assert a.structure.entries == b.structure.entries


class TestOmega:
    def test_orientation_convention(self):
        # by hand: i * det[[1,1],[i,-i]] = 2 > 0; swapped rows give -2
        assert hodge.omega_in_T(hodge.OmegaMatrix.exact([[(1, 0)], [(0, 1)]]))
        assert not hodge.omega_in_T(hodge.OmegaMatrix.exact([[(0, 1)], [(1, 0)]]))

    def test_degenerate_rejected(self):
        om = hodge.OmegaMatrix.exact([[(1, 0), (1, 0)], [(1, 0), (1, 0)],
                                      [(0, 0), (0, 0)], [(0, 0), (0, 0)]])
        with pytest.raises(hodge.DegenerateOmega):
            hodge.omega_in_T(om)

    def test_block_diagonal_positivity(self):
        # det(Omega | conj Omega) factors over the blocks only after moving
        # conj Omega_1 past Omega_2, which costs the sign (-1)^(n1*n2): the
        # naive block of two positive 1-dim factors lands in the negative
        # component, and conjugating one factor flips it back
        naive = hodge.OmegaMatrix.exact([[(1, 0), (0, 0)], [(0, 1), (0, 0)],
                                         [(0, 0), (1, 0)], [(0, 0), (0, 1)]])
        assert not hodge.omega_in_T(naive)
        flipped = hodge.OmegaMatrix.exact([[(1, 0), (0, 0)], [(0, 1), (0, 0)],
                                           [(0, 0), (1, 0)], [(0, 0), (0, -1)]])
        assert hodge.omega_in_T(flipped)

    def test_torus_standard(self):
        tm = hodge.torus_from_omega(hodge.OmegaMatrix.exact([[(1, 0)], [(0, 1)]]))
        assert tm.J.entries == ((F(0), F(1)), (F(-1), F(0)))

    def test_torus_generic_tau(self):
        # tau = x + iy: J = [[-x/y, 1/y], [-(x^2+y^2)/y, x/y]], J^2 = -I
        tm = hodge.torus_from_omega(hodge.OmegaMatrix.exact([[(1, 0)], [(1, 2)]]))
        assert tm.J.entries == ((F(-1, 2), F(1, 2)), (F(-5, 2), F(1, 2)))

    def test_torus_approximate(self):
        om = hodge.OmegaMatrix.approximate([[1], [0.5 + 1.25j]])
        tm = hodge.torus_from_omega(om)
        assert tm.J.mode == "approximate"
        assert tm.J.j_squared_residual <= mpmath.mpf("1e-30")

    def test_right_action_identity_preserves_span(self):
        om = hodge.OmegaMatrix.exact([[(1, 0)], [(0, 1)]])
        moved = hodge.right_action(om, IntMatrix.identity(2))
        assert hodge.same_span(om, moved)

    def test_right_action_fixes_eigenline(self):
        # the -i eigenline (1, i) of the rotation is span-fixed
        om = hodge.OmegaMatrix.exact([[(1, 0)], [(0, 1)]])
        moved = hodge.right_action(om, IntMatrix.from_rows(ROT4))
        assert hodge.same_span(om, moved)

    def test_right_action_is_a_right_action(self):
        g = IntMatrix.from_rows([[1, 1], [0, 1]])
        h = IntMatrix.from_rows([[1, 0], [1, 1]])
        om = hodge.OmegaMatrix.exact([[(1, 0)], [(0, 1)]])
        one = hodge.right_action(hodge.right_action(om, g), h)
        two = hodge.right_action(om, g.mul(h))
        assert one.entries == two.entries

    def test_right_action_needs_an_integer_inverse(self):
        om = hodge.OmegaMatrix.exact([[(1, 0)], [(0, 1)]])
        for g, message in (([[2, 0], [0, 1]], "non-integer"), ([[1, 1], [1, 1]], "singular")):
            with pytest.raises(ValueError, match=message):
                hodge.right_action(om, IntMatrix.from_rows(g))

    def test_invariant_omega_gives_commuting_j(self):
        om = hodge.OmegaMatrix.exact([[(1, 0)], [(0, 1)]])
        tm = hodge.torus_from_omega(om)
        assert tm.J.mode == "exact"
        J = tm.J.entries
        R = [[F(x) for x in row] for row in ROT4]
        assert fieldlin.mat_mul(J, R) == fieldlin.mat_mul(R, J)


class TestHodgeTypes:
    def test_trivial_counts(self):
        for n in (1, 2, 3):
            g = crys(2 * n)
            ts = hodge.hodge_types(g)
            assert len(ts) == 1
            assert hodge.component_dimension(ts[0], g) == n * n

    def test_rot4_two_rigid_types(self):
        ts = hodge.hodge_types(ROT4G)
        assert len(ts) == 2
        assert [hodge.component_dimension(t, ROT4G) for t in ts] == [0, 0]

    def test_kummer_full_space(self):
        ts = hodge.hodge_types(KUMMER)
        assert len(ts) == 1
        assert hodge.component_dimension(ts[0], KUMMER) == 4

    def test_non_even_rejected(self):
        with pytest.raises(ValueError):
            hodge.hodge_types(DIAG)

    def test_abelian_count_matches_split_enumeration(self):
        # for the doubled rotation the conjugate pair has multiplicity 2:
        # splits 0+2, 1+1, 2+0
        g = crys(4, blowup(ROT4))
        ts = hodge.hodge_types(g)
        assert len(ts) == 3
        assert sorted(hodge.component_dimension(t, g) for t in ts) == [0, 0, 2]

    def test_split_dims_sum_to_n(self):
        for g in (TRIV2, ROT4G, C3G, KUMMER, S3R4, Q8):
            for t in hodge.hodge_types(g):
                assert t.holomorphic_dim == g.n


class TestSamplesAndTangent:
    @pytest.mark.parametrize("group,expected", [
        ("TRIV2", [1]), ("ROT4G", [0, 0]), ("C3G", [0, 0]),
        ("KUMMER", [4]), ("S3R4", [1]), ("Q8", [1]),
    ])
    def test_tangent_matches_formula(self, group, expected):
        g = globals()[group]
        ts = hodge.hodge_types(g)
        dims = []
        for t in ts:
            B = hodge.sample_subspace(g, t)
            oracle = hodge.tangent_dimension(g, B)
            formula = hodge.component_dimension(t, g)
            assert oracle == formula
            dims.append(formula)
        assert sorted(dims) == sorted(expected) or dims == expected

    def test_intermediate_split_tangent(self):
        g = crys(4, blowup(ROT4))
        for t in hodge.hodge_types(g):
            B = hodge.sample_subspace(g, t)
            assert hodge.tangent_dimension(g, B) == hodge.component_dimension(t, g)

    def test_sample_omega_exact_for_gaussian(self):
        ts = hodge.hodge_types(ROT4G)
        modes = {hodge.sample_omega(ROT4G, t).mode for t in ts}
        assert modes == {"exact"}

    def test_sample_omega_approximate_for_hexagonal(self):
        ts = hodge.hodge_types(C3G)
        om = hodge.sample_omega(C3G, ts[0])
        assert om.mode == "approximate"

    def test_sample_spans_are_invariant(self):
        for t in hodge.hodge_types(KUMMER):
            om = hodge.sample_omega(KUMMER, t)
            if om.mode == "exact":
                for gi in KUMMER.group.generator_indices:
                    moved = hodge.right_action(om, KUMMER.linear(gi))
                    assert hodge.same_span(om, moved)

    def test_classification_constant_along_component(self):
        # three points of the (unique, 4-dimensional) Kummer component: the
        # induced complex structures differ, and the quotient classification
        # and descriptor, read off the fixed loci alone, are the same
        from crystorb import quotient

        omegas = [
            hodge.OmegaMatrix.exact([[(1, 0), (0, 0)], [(0, 1), (0, 0)],
                                     [(0, 0), (1, 0)], [(0, 0), (0, -1)]]),
            hodge.OmegaMatrix.exact([[(1, 0), (0, 0)], [(1, 3), (0, 0)],
                                     [(0, 0), (1, 0)], [(0, 0), (0, -2)]]),
            hodge.OmegaMatrix.exact([[(1, 0), (0, 0)], [(2, 1), (0, 0)],
                                     [(0, 0), (1, 1)], [(0, 0), (1, -1)]]),
        ]
        outcomes = set()
        for om in omegas:
            assert hodge.omega_in_T(om)
            tm = hodge.torus_from_omega(om)
            cls = quotient.classify_action(KUMMER)
            desc = quotient.orbifold_descriptor(KUMMER)
            outcomes.add((cls.kind, desc.kind, desc.stratum_summary))
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
    """The types sample_subspace does not construct raise UnsupportedSample,
    which `teich` reports as tangent_agrees: null."""

    def test_real_class_with_irrational_character(self):
        # the two real characters of degree 2 take the values (-1 +- sqrt 5)/2
        ts = hodge.hodge_types(D5_DOUBLE)
        assert [s.fs_type for t in ts for s in t.splits] == ["real", "real"]
        with pytest.raises(hodge.UnsupportedSample, match="rational characters"):
            hodge.sample_subspace(D5_DOUBLE, ts[0])

    def test_intermediate_split_of_degree_three_pair(self):
        (middle,) = [t for t in hodge.hodge_types(C7C3_DOUBLE) if t.splits[0].a == 1]
        assert middle.splits[0].degree == 3
        with pytest.raises(hodge.UnsupportedSample, match="intermediate splits"):
            hodge.sample_subspace(C7C3_DOUBLE, middle)


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
    hodge.hodge_types(g)
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
