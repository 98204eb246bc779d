"""The one J search and the one matrix-equation builder of `hodge` against
the code they replaced.

`hodge` used to search for a rational complex structure J twice: once for
the lattice action and its rational isotypic blocks (`_exact_j_for_action`)
and once in the sampler's multiplicity spaces
(`_sqrt_minus_one_in_commutant`).  Both tested invariance against every
element of G, and two loop nests wrote the matrix equations: the commutant
(X m = m X) and the tangent equations (Psi rho = Q Psi).  Those routines are
kept below as oracles.  On every corpus group and on four generated groups,
the new code, which checks invariance on the generators only, must give the
same commutant bases, the same top-level J (the first pairing pattern or
group element the oracle accepts, else the J of the first Hodge type's
sample point), the same sampler pairing and the same tangent dimension.  The
commutant basis and the candidates of `_rational_j` are IntMatrix values,
and the search tests them in integer arithmetic; read back as Fraction rows,
the Fraction test it replaced (the square test and the commutation test)
must pick the same J from every candidate stream the corpus and the scaling
family produce.
"""

import random
from fractions import Fraction as F
from math import isqrt

import pytest
from conftest import corpus_documents, crystal_group, family_documents

from crystorb import fieldlin, hodge
from crystorb.exactla import kernel_q

GENERATED = ("c6wr_rank4", "c3wr_rank6", "b3diag_rank6", "s4double_rank8")


# ---------------------------------------------------------------------------
# oracles: the search and the equation loops the package used to carry

def _frac_rows(mat):
    return [[F(mat.at(i, j)) for j in range(mat.cols)] for i in range(mat.rows)]


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


def oracle_minus_square(X):
    """c when X^2 = -c I with c > 0, in Fraction arithmetic; else None."""
    w = len(X)
    X2 = fieldlin.mat_mul(X, X)
    c = -X2[0][0]
    if c <= 0:
        return None
    for i in range(w):
        for j in range(w):
            if X2[i][j] != (-c if i == j else 0):
                return None
    return F(c)


def oracle_rational_j(candidates, gens):
    for X in candidates:
        J = _scaled_root(X, len(X))
        if J is not None and _commutes_with_all(J, gens):
            return J
    return None


def _candidates(basis, w, seed, attempts, spread):
    out = list(basis)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            out.append([[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(basis[i], basis[j])])
            out.append([[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(basis[i], basis[j])])
    rng = random.Random(seed)
    for _ in range(attempts):
        coeffs = [F(rng.randint(-spread, spread)) for _ in basis]
        out.append([[sum((c * b[i][j] for c, b in zip(coeffs, basis)), F(0))
                     for j in range(w)] for i in range(w)])
    return out


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


def oracle_sqrt_minus_one_in_commutant(acts, w, seed, attempts=8):
    for cand in _standard_pairings(w):
        if _commutes_with_all(cand, acts) and \
                _is_minus_identity(fieldlin.mat_mul(cand, cand)):
            return cand
    for X in _candidates(oracle_commutant_basis(acts, w), w, seed, attempts, 3):
        J = _scaled_root(X, w)
        if J is not None:
            return J
    return None


def oracle_block_action(crys, basis, indices):
    acts = []
    for gi in indices:
        lb = fieldlin.mat_mul(_frac_rows(crys.linear(gi)), basis)
        acts.append(fieldlin.solve_columns(basis, lb))
    return acts


def oracle_tangent_dimension(crys, B):
    n = crys.n
    C = [[z.conjugate() for z in row] for row in B]
    M = fieldlin.hstack(B, C)
    Minv = fieldlin.inverse(M)
    gens = set(crys.group.generators) or {0}
    rows = []
    zero = B[0][0] - B[0][0]
    for gi in gens:
        L = [[B[0][0] - B[0][0] + crys.linear(gi).at(i, j)
              for j in range(2 * n)] for i in range(2 * n)]
        rho = fieldlin.solve_columns(B, fieldlin.mat_mul(L, B))
        LC = fieldlin.mat_mul(L, C)
        coords = fieldlin.mat_mul(Minv, LC)
        Q = coords[n:]
        for i in range(n):
            for j in range(n):
                row = [zero] * (n * n)
                for b in range(n):
                    row[i * n + b] = row[i * n + b] + rho[b][j]
                for a in range(n):
                    row[a * n + j] = row[a * n + j] - Q[i][a]
                rows.append(row)
    return len(fieldlin.nullspace(rows))


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
        got = hodge._commutant_basis(gen_acts, k)
        assert [N.to_lists() for N in got] == oracle_commutant_basis(acts, k)


def test_sampler_pairing_and_tangent(analysed, monkeypatch):
    crys, _ = analysed
    if not hodge.is_even(crys).even:
        pytest.skip("no Hodge types")
    pairings = []
    search = hodge._rational_j

    def recorded(candidates, gens):
        J = search(candidates, gens)
        pairings.append(J)
        return J

    monkeypatch.setattr(hodge, "_rational_j", recorded)
    table = crys.group.table
    chars = {c.label: c for c in table.characters}
    generators = set(crys.group.generators) | {0}
    for t in hodge.hodge_types(hodge.is_even(crys)):
        pairings.clear()
        want = []
        for s in t.splits:
            chi = chars[s.labels[0]]
            if s.fs_type == "complex" or not all(v.is_rational() for v in chi.values):
                continue
            R = hodge.isotypic_basis(crys.group, table, [chi])
            acts = oracle_block_action(crys, R, generators)
            want.append(oracle_sqrt_minus_one_in_commutant(acts, len(R[0]), 0))
        try:
            B, action = hodge.sample_subspace(crys, t)
        except hodge.UnsupportedSample:
            B = None
        assert pairings == want[:len(pairings)]
        if B is None:
            continue
        assert pairings == want
        assert hodge.tangent_dimension(action) == oracle_tangent_dimension(crys, B)


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
    for t in hodge.hodge_types(hodge.is_even(crys)):
        try:
            hodge.sample_subspace(crys, t)
        except hodge.UnsupportedSample:
            pass
    assert streams
    for candidates, gens in streams:
        J = search(candidates, gens)
        rows = [_frac_rows(X) for X in candidates]
        assert J == oracle_rational_j(rows, [_frac_rows(m) for m in gens])
        assert J is None or all(type(x) is F for row in J for x in row)
        for X, X_rows in zip(candidates, rows):
            assert hodge._minus_square(X) == oracle_minus_square(X_rows)
