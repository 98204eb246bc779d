"""The one J search and the one matrix-equation builder of `hodge` against
the code they replaced.

`hodge` used to search for a rational complex structure J for the lattice
action and its rational isotypic blocks (`_exact_j_for_action`), testing
invariance against every element of G, and a loop nest wrote the commutant
equations X m = m X.  Those routines are kept below as oracles.  On every
corpus group and on four generated groups, the new code, which checks
invariance on the generators only, must give the same top-level J (the
first pairing pattern or group element the oracle accepts, else the J of
the first Hodge type's sample point), and `_sylvester_rows` on the
generators' block matrices must have the oracle's commutant basis over
every element as its integer kernel.  The candidates of `_rational_j` are
integer rows, and the search tests them in integer arithmetic; read
back as Fraction rows, the Fraction test it replaced (the square test and
the commutation test) must pick the same J from every candidate stream the
corpus and the scaling family produce.
"""

from fractions import Fraction as F
from math import isqrt, lcm

import pytest
from conftest import corpus_documents, crystal_group, family_documents

from crystorb import fieldlin, hodge
from crystorb.exactla import kernel_q

GENERATED = ("c6wr_rank4", "c3wr_rank6", "b3diag_rank6", "s4double_rank8")


# ---------------------------------------------------------------------------
# oracles: the search and the equation loops the package used to carry

def _frac_rows(mat):
    return [[F(x) for x in row] for row in mat]


def _is_minus_identity(A):
    w = len(A)
    return all(A[i][j] == (F(-1) if i == j else 0) for i in range(w) for j in range(w))


def _commutes_with_all(J, mats):
    return all(fieldlin.mat_mul(J, m) == fieldlin.mat_mul(m, J) for m in mats)


def _standard_pairings(w):
    n = w // 2
    block = [[F(0)] * w for _ in range(w)]
    for i in range(n):
        block[i][n + i] = F(-1)
        block[n + i][i] = F(1)
    inter = [[F(0)] * w for _ in range(w)]
    for i in range(0, w, 2):
        inter[i][i + 1] = F(-1)
        inter[i + 1][i] = F(1)
    return [block, inter]


def _scaled_root(X, w):
    X2 = fieldlin.mat_mul(X, X)
    c = -X2[0][0]
    if c <= 0:
        return None
    for i in range(w):
        for j in range(w):
            if X2[i][j] != (-c if i == j else 0):
                return None
    num, den = c.numerator, c.denominator
    sn, sd = isqrt(num), isqrt(den)
    if sn * sn != num or sd * sd != den:
        return None
    s = F(sn, sd)
    return [[x / s for x in row] for row in X]


def oracle_rational_j(candidates, gens):
    for X in candidates:
        J = _scaled_root(X, len(X))
        if J is not None and _commutes_with_all(J, gens):
            return J
    return None


def oracle_exact_j_for_action(mats):
    """The first pairing pattern, then element of `mats`, that squares to -I
    and commutes with every element; or None."""
    for cand in _standard_pairings(len(mats[0])) + mats:
        if _is_minus_identity(fieldlin.mat_mul(cand, cand)) and _commutes_with_all(cand, mats):
            return cand
    return None


def oracle_commutant_basis(acts, w):
    rows = []
    for m in acts:
        for i in range(w):
            for j in range(w):
                row = [F(0)] * (w * w)
                for a in range(w):
                    for b in range(w):
                        coeff = F(0)
                        if a == i:
                            coeff += m[b][j]
                        if b == j:
                            coeff -= m[i][a]
                        if coeff:
                            row[a * w + b] += coeff
                rows.append(row)
    basis = kernel_q(rows, w * w)
    return [[list(v[i * w:(i + 1) * w]) for i in range(w)] for v in basis]


def oracle_block_action(crys, basis, indices):
    acts = []
    for gi in indices:
        lb = fieldlin.mat_mul(_frac_rows(crys.linear(gi)), basis)
        acts.append(fieldlin.solve_columns(basis, lb))
    return acts


# ---------------------------------------------------------------------------

def _groups(every_member=False):
    docs = corpus_documents()
    scaling = family_documents()
    docs.update({name: scaling[name] for name in scaling
                 if every_member or name in GENERATED})
    return docs


@pytest.fixture(scope="module", params=sorted(_groups()))
def analysed(request):
    crys = crystal_group(_groups()[request.param])
    return crys, [_frac_rows(m) for m in crys.group.elements]


def _blocks(crys):
    """(all block matrices, generator block matrices) per rational block."""
    gens = crys.group.generators
    out = []
    for _, basis in hodge.rational_isotypic_projectors(crys.group, crys.group.table):
        acts = hodge._block_action(crys, basis, range(crys.order()))
        assert acts == oracle_block_action(crys, basis, range(crys.order()))
        out.append((acts, [acts[s] for s in gens]))
    return out


def test_skew_basis_and_top_level_j(analysed):
    crys, mats = analysed
    ev = hodge.is_even(crys)
    if not ev.even:
        with pytest.raises(ValueError, match="not even"):
            hodge.invariant_complex_structure(crys, ev)
        return
    J = oracle_exact_j_for_action(mats)
    if J is None:
        B, _ = hodge.sample_subspace(crys, hodge.hodge_types(ev)[0])
        J = hodge.torus_from_omega(B).entries
    assert hodge.invariant_complex_structure(crys, ev) == hodge.ComplexStructure.of(J)


def test_block_j_and_commutant(analysed):
    crys, _ = analysed
    if not hodge.is_even(crys).even:
        pytest.skip("no J to search for")
    for acts, gen_acts in _blocks(crys):
        k = len(acts[0])
        rows = []
        for m in gen_acts:   # X m = m X is X N = N X for the integer N = d m
            d = lcm(*(x.denominator for row in m for x in row))
            N = [[int(x * d) for x in row] for row in m]
            rows += hodge._sylvester_rows(N, N)
        got = kernel_q(rows, k * k)
        assert [[list(v[i * k:(i + 1) * k]) for i in range(k)] for v in got] == \
            oracle_commutant_basis(acts, k)


@pytest.mark.parametrize("name", sorted(_groups(every_member=True)))
def test_integer_candidate_test_matches_fractions(name, monkeypatch):
    crys = crystal_group(_groups(every_member=True)[name])
    if not hodge.is_even(crys).even:
        pytest.skip("no J to search for")
    streams = []
    search = hodge._rational_j

    def recorded(candidates, gens):
        candidates = list(candidates)
        streams.append((candidates, gens))
        return search(candidates, gens)

    monkeypatch.setattr(hodge, "_rational_j", recorded)
    hodge.invariant_complex_structure(crys, hodge.is_even(crys))
    assert streams
    for candidates, gens in streams:
        J = search(candidates, gens)
        rows = [_frac_rows(X) for X in candidates]
        assert J == oracle_rational_j(rows, [_frac_rows(m) for m in gens])
        assert J is None or all(type(x) is F for row in J for x in row)
