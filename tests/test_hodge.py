import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import family
import pytest
from conftest import corpus_documents, crystal_group, cyclotomic_documents, family_documents
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


def jstruct(g, seed=0):
    return hodge.invariant_complex_structure(g, hodge.is_even(g), seed)


def sample_omega(g, t, seed=0):
    """The period matrix of the sample point of the Hodge type t."""
    B, _ = hodge.sample_subspace(g, t, seed)
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

    def test_seed_determinism(self):
        a = jstruct(C3G, seed=5)
        b = jstruct(C3G, seed=5)
        assert a.entries == b.entries


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
    """The types sample_subspace does not construct raise UnsupportedSample,
    which `teich` reports as tangent_agrees: null."""

    def test_real_class_with_irrational_character(self):
        # the two real characters of degree 2 take the values (-1 +- sqrt 5)/2
        ts = hodge.hodge_types(hodge.is_even(D5_DOUBLE))
        assert [s.fs_type for t in ts for s in t.splits] == ["real", "real"]
        with pytest.raises(hodge.UnsupportedSample, match="rational characters"):
            hodge.sample_subspace(D5_DOUBLE, ts[0])

    def test_intermediate_split_of_degree_three_pair(self):
        (middle,) = [t for t in hodge.hodge_types(hodge.is_even(C7C3_DOUBLE)) if t.splits[0].a == 1]
        assert middle.splits[0].degree == 3
        with pytest.raises(hodge.UnsupportedSample, match="intermediate splits"):
            hodge.sample_subspace(C7C3_DOUBLE, middle)


@pytest.mark.parametrize("name", sorted(cyclotomic_documents()))
def test_cyclotomic_groups_have_exact_j_and_consistent_tangents(name, tmp_path, capsys):
    # real classes with irrational characters and complex pairs of degree 3:
    # J is exact and invariant, and every type the sampler constructs has
    # the tangent dimension of the formula (the others report null)
    doc = cyclotomic_documents()[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    reports = {}
    for command in ("jstruct", "teich"):
        assert cli.main([command, "--input", str(path), "--format", "json"]) == 0
        reports[command] = json.loads(capsys.readouterr().out)["result"]
    assert reports["jstruct"]["mode"] == "exact"
    assert all(t["tangent_agrees"] is not False for t in reports["teich"]["types"])
    g = crystal_group(doc)
    J = hodge.invariant_complex_structure(g, hodge.is_even(g))
    assert J.mode == "exact"
    assert_invariant_j(J.entries, g.group)


# the groups whose J changed when the commutant basis became the HNF
# kernel, each document set seeded on its own: (set, name, basis seed)
REPICKED_J = [("corpus", "q8_rank4", s) for s in (0, 1, 3)] + \
    [("corpus", "s3_rank4", s) for s in range(4)] + \
    [("scaling", "s4double_rank8", s) for s in (0, 1, 3)] + \
    [("scaling", "b3diag_rank6", s) for s in (1, 2, 3)] + \
    [("cyclotomic", "cyc12_u5_7", s) for s in (1, 3)] + [("cyclotomic", "cyc8_u3_5", 2)]


@pytest.mark.parametrize("documents, name, basis_seed", REPICKED_J)
def test_repicked_j_is_invariant(documents, name, basis_seed):
    # at sampler seeds 0 and 1 each J is real, squares to -I and commutes
    # with every element; only s4double_rank8 at basis seed 0 is algebraic
    docs = {"corpus": corpus_documents, "scaling": family_documents,
            "cyclotomic": cyclotomic_documents}[documents]()
    g = crystal_group(family.seeded_documents(docs, basis_seed)[name])
    ev = hodge.is_even(g)
    for seed in (0, 1):
        J = hodge.invariant_complex_structure(g, ev, seed)
        assert J.mode == ("algebraic" if (name, basis_seed) == ("s4double_rank8", 0) else "exact")
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

torus, root = hodge.torus_from_omega, hodge._sqrt_rational
built = []

def recorded_torus(omega):
    if built[-1] == "rational search":
        built[-1] = "sample point"
    return torus(omega)

def recorded_root(c):
    if c != 1:
        built[-1] = "sample point with sqrt c"
    return root(c)

branches = Counter()
for seed in range(4):
    docs = {**family.seeded_documents(corpus_documents(), seed),
            **family.seeded_documents(family_documents(), seed)}
    for name, doc in sorted(docs.items()):
        g = crystal_group(doc)
        if not hodge.is_even(g).even:
            continue
        built.append("rational search")
        hodge.torus_from_omega, hodge._sqrt_rational = recorded_torus, recorded_root
        J = hodge.invariant_complex_structure(g, hodge.is_even(g))
        hodge.torus_from_omega, hodge._sqrt_rational = torus, root
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
    assert set(report["branches"]) <= {"rational search", "sample point",
                                       "sample point with sqrt c"}


def _q8(basis_seed):
    q8 = corpus_documents()["q8_rank4"]
    return crystal_group(family.seeded_documents({"q8": q8}, basis_seed)["q8"])


@pytest.mark.parametrize("c, order", [(1, 1), (4, 1), (F(1, 4), 1), (2, 8), (3, 12),
                                      (F(3, 4), 12), (5, 20), (6, 24), (F(7, 12), 84),
                                      (12, 12), (F(49, 50), 8)])
def test_square_roots_of_rationals(c, order):
    root = hodge._sqrt_rational(F(c))
    assert root * root == c
    assert root.field.order == order


def test_pairing_with_irrational_square_root(monkeypatch):
    # with the rational searches off, the quaternionic block of Q8 in this
    # basis gets the pairing X with X^2 = -5 I: V is the i sqrt 5-eigenspace
    # of X, over Q(zeta_20), and J is exact there
    g = _q8(13)
    roots = []
    sqrt = hodge._sqrt_rational
    monkeypatch.setattr(hodge, "_rational_j", lambda candidates, gens: None)
    monkeypatch.setattr(hodge, "_sqrt_rational", lambda c: roots.append(c) or sqrt(c))
    J = jstruct(g)
    assert roots == [5]
    assert J.mode == "algebraic" and J.field_order == 20
    assert_invariant_j(J.entries, g.group)
    (t,) = hodge.hodge_types(hodge.is_even(g))
    _, action = hodge.sample_subspace(g, t)
    assert hodge.tangent_dimension(action) == hodge.component_dimension(t)


# q8_rank4 in a basis where, with the rational searches off, the sampler
# pairs the quaternionic block by X with X^2 = -2 I, so J needs sqrt 2.  A
# forged square root must be refused with assert statements off.
FORGED_ROOT = """
import sys
sys.path[:0] = sys.argv[1:3]
import test_hodge
from crystorb import hodge

assert False, "assert statements must be off"
g = test_hodge._q8(1)
root, asked = hodge._sqrt_rational, []

def forged(c):
    asked.append(c)
    return 2 * root(c)

hodge._rational_j = lambda candidates, gens: None
hodge._sqrt_rational = forged
try:
    hodge.invariant_complex_structure(g, hodge.is_even(g))
except ArithmeticError as exc:
    print(asked, exc)
    sys.exit(0 if asked == [2] else 3)
sys.exit(1)
"""


def test_forged_square_root_rejected_under_optimize():
    run = _child(FORGED_ROOT, "-O")
    assert run.returncode == 0, run.stdout + run.stderr
    assert "square root" in run.stdout
