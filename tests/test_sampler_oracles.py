"""The sampler's complex pairs and the tangent equations of `hodge` against
the code they replaced.

`hodge.sample_subspace` used to build a complex pair's share of V from two
isotypic bases, W_A of chi and W_B of conj chi: the first a d columns of
W_A, then the first set of (m - a) d columns of W_B, in a search with one
rank test per candidate, that is transversal to conj V_A.
`hodge.tangent_dimension` read the action on conj B off M^-1 L(g) conj B,
with the 2n x 2n matrix M = (B | conj B) inverted over the cyclotomic field.
Every L(g) is real, so conj W_chi = W_conj chi and L(g) conj B = conj B
conj(rho_g) when L(g) B = B rho_g: the sampler now conjugates the other
columns of W_A, and the tangent equations read conj(rho_g) directly.  Both
old routines are kept below as oracles.

On every Hodge type of the even corpus, family and cyclotomic inputs,
unseeded and at basis seeds 0-3, the new B must be invariant under G with
rank(B | conj B) = 2n, and its tangent dimension must equal the oracle's.
Where every split is complex, of degree 1 or with a = 0 or a = m, the old
search applies: its V has the same tangent dimension, and the new B spans
it whenever every split is a = 0 or a = m.  Real and quaternionic classes,
and intermediate splits of degree > 1, have no oracle here: the sampler
builds them from joint eigenspaces.  The sampler computes one isotypic
basis over the sample field per complex class or irrational character, and
the tangent equations invert nothing.

Both the oracle and `hodge.tangent_dimension` write their equations with
`hodge._sylvester_rows`, so that builder is checked on its own below:
applied to the entries of random X, its rows give those of X A - B X.
"""

import itertools
import random

import family
import pytest
from conftest import corpus_documents, crystal_group, cyclotomic_documents, family_documents

from crystorb import fieldlin, hodge
from crystorb.cyclo import CycloField
from crystorb.exactla import kernel_q

SEEDS = (None, 0, 1, 2, 3)


def _conj(cols):
    return [[z.conjugate() for z in row] for row in cols]


# ---------------------------------------------------------------------------
# oracles: the transversal search and the M^-1 tangent formula

def oracle_complex_columns(crys, table, chars, s, field):
    """The old share of V of one complex split: V_A from W_A, then the first
    columns of W_B transversal to conj V_A."""
    m, d, a = s.multiplicity, s.degree, s.a
    WA = hodge.isotypic_basis(crys.group, table, [chars[s.labels[0]]], field)
    WB = hodge.isotypic_basis(crys.group, table, [chars[s.labels[1]]], field)
    VA = fieldlin.columns(WA, range(a * d))
    conjVA = _conj(VA)
    target = m * d
    for combo in itertools.combinations(range(target), target - a * d):
        cand = fieldlin.columns(WB, combo)
        test = fieldlin.hstack(cand, conjVA) if a else cand
        if fieldlin.rank(test) == target:
            return ([VA] if a else []) + ([cand] if target - a * d else [])
    raise ArithmeticError("no transversal complement found")


def oracle_sample_subspace(crys, t):
    """The old V of a type whose splits are all complex, each of degree 1
    or with a = 0 or a = m."""
    table = hodge.point_group_table(crys)
    field = hodge._sample_field(table)
    chars = {c.label: c for c in table.characters}
    cols = []
    for s in t.splits:
        cols += oracle_complex_columns(crys, table, chars, s, field)
    return fieldlin.hstack(*cols)


def oracle_tangent_dimension(crys, B):
    """Psi rho_g = Q_g Psi, with Q_g the bottom block of M^-1 L(g) conj B."""
    n = crys.n
    C = _conj(B)
    Minv = fieldlin.inverse(fieldlin.hstack(B, C))
    rows = []
    gens = crys.group.generators
    for gi, rho in zip(gens, hodge._block_action(crys, B, gens)):
        Q = fieldlin.mat_mul(Minv, fieldlin.mat_mul(crys.linear(gi).to_lists(), C))[n:]
        rows += hodge._sylvester_rows(rho, Q)
    return len(fieldlin.nullspace(rows))


# ---------------------------------------------------------------------------

@pytest.fixture
def counted(monkeypatch):
    """Counts of isotypic bases over a sample field and of inverses."""
    counts = {"isotypic_basis": 0, "inverse": 0}
    basis, inverse = hodge.isotypic_basis, fieldlin.inverse

    def counted_basis(group, table, chars, field=None):
        counts["isotypic_basis"] += field is not None
        return basis(group, table, chars, field)

    def counted_inverse(A):
        counts["inverse"] += 1
        return inverse(A)

    monkeypatch.setattr(hodge, "isotypic_basis", counted_basis)
    monkeypatch.setattr(fieldlin, "inverse", counted_inverse)
    return counts


def _oracle_applies(s):
    return s.fs_type == "complex" and (s.degree == 1 or s.a in (0, s.multiplicity))


@pytest.mark.parametrize("seed", SEEDS)
def test_sample_points_and_tangents_match_the_oracles(seed, counted):
    docs = {**corpus_documents(), **family_documents()}
    cyclotomic = cyclotomic_documents()
    seeded = {**docs, **cyclotomic} if seed is None else \
        {**family.seeded_documents(docs, seed), **family.seeded_documents(cyclotomic, seed)}
    checked, compared, moved = 0, 0, 0
    for name, doc in sorted(seeded.items()):
        crys = crystal_group(doc)
        if not hodge.is_even(crys).even:
            continue
        n = crys.n
        chars = {c.label: c for c in crys.group.table.characters}
        for t in hodge.hodge_types(hodge.is_even(crys)):
            counted["isotypic_basis"] = 0
            B, action = hodge.sample_subspace(crys, t)
            over_k = [s for s in t.splits if s.fs_type == "complex"
                      or not all(v.is_rational() for v in chars[s.labels[0]].values)]
            assert counted["isotypic_basis"] == len(over_k), name
            counted["inverse"] = 0
            dim = hodge.tangent_dimension(action)
            assert counted["inverse"] == 0, name

            hodge._block_action(crys, B, range(crys.order()))   # raises unless invariant
            assert fieldlin.rank(fieldlin.hstack(B, _conj(B))) == 2 * n, name
            assert dim == oracle_tangent_dimension(crys, B), name
            assert dim == hodge.component_dimension(t), name
            checked += 1
            if not all(_oracle_applies(s) for s in t.splits):
                continue
            old = oracle_sample_subspace(crys, t)
            assert dim == oracle_tangent_dimension(crys, old), name
            if all(s.a in (0, s.multiplicity) for s in t.splits):
                assert fieldlin.rank(fieldlin.hstack(old, B)) == n, name
            else:
                moved += 1
            compared += 1
    # 48 types over the 30 even inputs, 25 of them with only complex splits
    # the old search builds; rot4_sum_rank4's type (1, 1) splits its complex
    # pair of multiplicity 2 between V and conj V
    assert (checked, compared, moved) == (48, 25, 1)


@pytest.mark.parametrize("name", ["trivial_rank2", "trivial_rank4", "trivial_rank6"])
def test_commutant_of_the_trivial_group_is_every_matrix(name):
    # a group recording no generators is generated by all of its elements,
    # so the equations on its generators are never an empty system: the
    # Sylvester rows of X m = m X have every matrix as their kernel
    crys = crystal_group(corpus_documents()[name])
    assert crys.group.generators == (0,)
    (_, R), = hodge.rational_isotypic_projectors(crys.group, crys.group.table)
    w = len(R[0])
    (act,) = hodge._block_action(crys, R, crys.group.generators)
    rows = [[int(x) for x in row] for row in hodge._sylvester_rows(act, act)]
    assert w == crys.rank and len(rows) == w * w and len(kernel_q(rows, w * w)) == w * w


@pytest.mark.parametrize("seed", range(40))
def test_sylvester_rows_apply_as_x_a_minus_b_x(seed):
    # integer matrices at even seeds, Q(zeta_12) ones at odd seeds; X is
    # p x q with p, q in 1-4, and about half the entries are zero
    rng = random.Random(seed)
    K = CycloField(12)

    def entry():
        if seed % 2 == 0:
            return rng.choice((0, rng.randint(-5, 5)))
        return sum((rng.choice((0, rng.randint(-3, 3))) * K.zeta(k) for k in range(4)), K(0))

    p, q = rng.randint(1, 4), rng.randint(1, 4)
    A = [[entry() for _ in range(q)] for _ in range(q)]
    B = [[entry() for _ in range(p)] for _ in range(p)]
    X = [[entry() for _ in range(q)] for _ in range(p)]
    rows = hodge._sylvester_rows(A, B)
    assert len(rows) == p * q and all(len(row) == p * q for row in rows)
    flat = [x for row in X for x in row]
    applied = [sum(c * x for c, x in zip(row, flat)) for row in rows]
    direct = [sum(X[i][k] * A[k][j] for k in range(q)) - sum(B[i][k] * X[k][j] for k in range(p))
              for i in range(p) for j in range(q)]
    assert applied == direct
