"""The fixed-locus geometry against the routines it replaced.

`quotient` keys each subtorus canonically, finds orbits breadth first over
the generators, computes one stabilizer per orbit, and solves fixed sets
once per conjugacy class.  The oracles below are the earlier routines: the
SNF equality test of two subtori, pairwise dedupe, orbits by transforming
with all of G, the stabilizer scan in Fractions, and one fixed set per
element.  They must agree on the 19 corpus groups and the 7 members of the
benchmark's scaling family, unseeded and at basis seeds 1-3.
"""

from fractions import Fraction

import family
import pytest
from conftest import (
    congruence_rhs,
    corpus_documents,
    crystal_group,
    family_documents,
    mod1_vec,
    over_one_denominator,
    points,
    translation,
)

from crystorb import exactla, fieldlin, hodge, quotient
from crystorb.crystal import is_torsion_free
from crystorb.exactla import IntMatrix
from crystorb.quotient import Subtorus

F = Fraction
SEEDS = (None, 1, 2, 3)


# ---------------------------------------------------------------------------
# oracles

def make_subtorus(base, basis):
    """The Subtorus through the rational point base, integer directions."""
    den, (num,) = over_one_denominator([base])
    return Subtorus(num, den, tuple(tuple(int(x) for x in b) for b in basis))


def _span_key(sub):
    if not sub.basis:
        return ()
    red, pivots = fieldlin.rref([[F(x) for x in b] for b in sub.basis])
    return tuple(tuple(red[i]) for i in range(len(pivots)))


def oracle_subtori_equal(a, b):
    """Same span, and base points congruent modulo the span plus Z^r, by one
    SNF of the direction matrix."""
    return _span_key(a) == _span_key(b) and _congruent(a, b)


def _congruent(a, b):
    diff = tuple(x - y for x, y in zip(a.base, b.base))
    if not a.basis:
        return all(d.denominator == 1 for d in diff)
    M = IntMatrix.from_rows([[b_[i] for b_ in a.basis] for i in range(len(a.base))])
    return exactla.solve_affine_congruence(M, *congruence_rhs(diff)) is not None


def oracle_dedupe(comps):
    """First occurrences under oracle equality.  Only subtori with the same
    span can be equal, so each is compared within its span's bucket, and a
    repeat of the same base and directions is equal without a test."""
    unique, by_span, met = [], {}, set()
    for c in comps:
        if (c.base, c.basis) in met:
            continue
        met.add((c.base, c.basis))
        bucket = by_span.setdefault(_span_key(c), [])
        if not any(_congruent(c, u) for u in bucket):
            bucket.append(c)
            unique.append(c)
    return unique


def oracle_transform(crys, h, sub):
    lin = crys.linear(h)
    base = mod1_vec(a + b for a, b in zip(lin.mul_vec(sub.base), translation(crys, h)))
    return make_subtorus(base, [lin.mul_vec(b) for b in sub.basis])


def oracle_orbit(crys, rep):
    """The images of rep under every element of G, deduped."""
    return oracle_dedupe([oracle_transform(crys, h, rep) for h in range(crys.order())])


def _minus_identity(crys, h):
    return crys.linear(h).add(IntMatrix.identity(crys.rank).neg())


def oracle_stabilizer(crys, sub):
    out = []
    for h in range(crys.order()):
        A = _minus_identity(crys, h)
        if any(any(x != 0 for x in A.mul_vec(b)) for b in sub.basis):
            continue
        img = A.mul_vec(sub.base)
        if all((a + b).denominator == 1 for a, b in zip(img, translation(crys, h))):
            out.append(h)
    return tuple(out)


def oracle_fixed_sets(crys):
    """{g: fixed set of g} for every g != 1, each solved on its own."""
    return {i: exactla.solve_mod_lattice(_minus_identity(crys, i),
                                         *congruence_rhs([-x for x in translation(crys, i)]))
            for i in range(1, crys.order())}


def oracle_descriptor(crys, sets):
    """Divisor classes and stratum histogram as computed before: dedupe the
    components of every element, take orbits under all of G, and one
    stabilizer per deep component."""
    divisor, deep = [], []
    for i, sol in sets.items():
        if sol.is_empty():
            continue
        locus = quotient.fixed_points(crys, i)
        comps = [make_subtorus(p, sol.basis) for p in points(sol)]
        (divisor if locus.complex_codim == 1 else deep).extend(comps)
    classes, unassigned = [], oracle_dedupe(divisor)
    while unassigned:
        rep = unassigned[0]
        orbit = oracle_orbit(crys, rep)
        unassigned = [c for c in unassigned
                      if not any(oracle_subtori_equal(c, o) for o in orbit)]
        classes.append((rep.base, rep.basis, len(oracle_stabilizer(crys, rep)), len(orbit)))
    histogram = {}
    for comp in oracle_dedupe(deep):
        key = (crys.n - len(comp.basis) // 2, len(oracle_stabilizer(crys, comp)))
        histogram[key] = histogram.get(key, 0) + 1
    return classes, tuple(sorted(histogram.items()))


# ---------------------------------------------------------------------------
# the groups

def _documents():
    corpus = corpus_documents()
    scaling = family_documents()
    out = {}
    for seed in SEEDS:
        for docs in (corpus, scaling):
            seeded = docs if seed is None else family.seeded_documents(docs, seed)
            out.update({(name, seed): doc for name, doc in seeded.items()})
    return out


DOCUMENTS = _documents()


def _group(case):
    return crystal_group(DOCUMENTS[case])


def _components(crys, sets):
    return [make_subtorus(p, sol.basis) for sol in sets.values()
            if not sol.is_empty() for p in points(sol)]


@pytest.mark.parametrize("case", sorted(DOCUMENTS, key=str), ids=str)
def test_fixed_locus_geometry_matches_oracles(case):
    crys = _group(case)
    sets = oracle_fixed_sets(crys)
    offenders = tuple(i for i, sol in sets.items() if not sol.is_empty())
    assert is_torsion_free(crys).offenders == offenders
    for i, sol in sets.items():
        locus = quotient.fixed_points(crys, i)
        assert locus.is_empty() == sol.is_empty()
        assert locus.real_dim == (None if sol.is_empty() else sol.dim)
        own = crys.solve_fixed(i)
        assert (own.kind, own.basis, points(own)) == (sol.kind, sol.basis, points(sol))
        assert [(c.base, c.basis) for c in quotient.components(own)] == \
            [(p, sol.basis) for p in points(sol)]

    comps = _components(crys, sets)
    lattices = {}
    keyed = {}
    for c in comps:
        keyed.setdefault(quotient.subtorus_key(c, lattices), c)
    unique = oracle_dedupe(comps)
    assert list(keyed.values()) == unique

    placed = set()
    steps = [(s, crys.linear(crys.group.inv(s))) for s in crys.group.generators]
    for c in unique:
        if quotient.subtorus_key(c, lattices) in placed:
            continue
        orbit = quotient._orbit_keys(crys, c, lattices, steps)
        placed |= orbit
        assert orbit == {quotient.subtorus_key(o, lattices) for o in oracle_orbit(crys, c)}
        assert quotient.pointwise_stabilizer(crys, c) == oracle_stabilizer(crys, c)
        if not c.basis:
            # a point's setwise stabilizer is its pointwise stabilizer
            assert len(orbit) * len(oracle_stabilizer(crys, c)) == crys.order()
    assert placed == set(keyed)


@pytest.mark.parametrize("case", sorted(
    (c for c in DOCUMENTS if c[0] in ("b3diag_rank6", "s4double_rank8", "mixed_c2c2",
                                      "kummer4", "c6_rank2", "minus1_rank2")), key=str),
    ids=str)
def test_descriptor_matches_oracle(case):
    crys = _group(case)
    desc = quotient.orbifold_descriptor(crys, hodge.is_even(crys))
    classes, summary = oracle_descriptor(crys, oracle_fixed_sets(crys))
    assert [(c.representative.base, c.representative.basis, c.multiplicity, c.orbit_size)
            for c in desc.divisor_classes] == classes
    assert desc.stratum_summary == summary


def test_descriptor_work_counts(monkeypatch):
    # b3diag_rank6: no SNF equality test, and one stabilizer per orbit that
    # is not a point stratum of complex codimension >= 2, whose stabilizer
    # order is |G| / |orbit|
    crys = _group(("b3diag_rank6", None))
    counts = {"solve_affine_congruence": 0, "pointwise_stabilizer": 0}
    for module, name in ((exactla, "solve_affine_congruence"),
                         (quotient, "pointwise_stabilizer")):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    desc = quotient.orbifold_descriptor(crys, hodge.is_even(crys))
    monkeypatch.undo()
    sets = oracle_fixed_sets(crys)
    orbits = []
    for c in oracle_dedupe(_components(crys, sets)):
        if not any(any(oracle_subtori_equal(c, o) for o in orbit) for orbit in orbits):
            orbits.append(oracle_orbit(crys, c))
    scanned = [o for o in orbits if o[0].basis or crys.n < 2]
    assert (len(desc.divisor_classes), len(orbits), len(scanned)) == (5, 40, 20)
    assert counts == {"solve_affine_congruence": 0, "pointwise_stabilizer": len(scanned)}


@pytest.mark.parametrize("case, calls", [(("b3diag_rank6", 1), 99),
                                         (("s4double_rank8", 1), 40)], ids=str)
def test_descriptor_hnf_counts(case, calls, monkeypatch):
    # keys on forms alone: one HNF kernel per direction basis met and one
    # hnf per forms and generator, across the orbits of one descriptor
    crys = _group(case)
    ev = hodge.is_even(crys)
    count = [0]
    hnf = exactla.hnf

    def counted(*args):
        count[0] += 1
        return hnf(*args)

    monkeypatch.setattr(exactla, "hnf", counted)
    quotient.orbifold_descriptor(crys, ev)
    assert count[0] == calls


# ---------------------------------------------------------------------------
# canonical keys against the SNF equality test

def _unimodular(rank, moves):
    """A product of transvections e_i += s e_j, in the given order."""
    m = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for i, j, s in moves:
        i, j = i % rank, j % rank
        if i != j:
            m = [[m[a][b] + (s * m[j][b] if a == i else 0) for b in range(rank)]
                 for a in range(rank)]
    return IntMatrix.from_rows(m)


def _apply(U, shift, sub):
    base = mod1_vec(a + b for a, b in zip(U.mul_vec(sub.base), shift))
    return make_subtorus(base, [U.mul_vec(b) for b in sub.basis])


def subtorus_pair(draw, st):
    """(a, b): a random subtorus a, and b equal to it as a set or a near miss,
    both moved by one random unimodular map and lattice shift."""
    MOVES = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                               st.sampled_from((1, -1, 2))), max_size=5)
    rank = draw(st.integers(2, 4))
    dim = draw(st.integers(0, rank - 1))
    frame = _unimodular(rank, draw(MOVES))
    scale = draw(st.sampled_from((1, 1, 2)))
    basis = [tuple(scale * frame.at(i, j) for i in range(rank)) for j in range(dim)]
    den = st.integers(1, 6)
    base = [F(draw(st.integers(0, 11)), draw(den)) for _ in range(rank)]
    a = make_subtorus(mod1_vec(base), basis)
    along = [F(draw(st.integers(-3, 3)), draw(den)) for _ in basis]
    lattice = [draw(st.integers(-2, 2)) for _ in range(rank)]
    miss = [F(draw(st.integers(0, 2)), draw(den)) if draw(st.booleans()) else 0
            for _ in range(rank)]
    other = [x + l + m + sum(t * b[i] for t, b in zip(along, basis))
             for i, (x, l, m) in enumerate(zip(base, lattice, miss))]
    W = _unimodular(max(dim, 1), draw(MOVES))
    rescale = draw(st.sampled_from((1, 1, 3)))
    b = make_subtorus(mod1_vec(other), [
        tuple(rescale * sum(W.at(j, i) * basis[i][c] for i in range(dim)) for c in range(rank))
        for j in range(dim)])
    U = _unimodular(rank, draw(MOVES))
    shift = [F(draw(st.integers(0, 5)), draw(den)) for _ in range(rank)]
    return _apply(U, shift, a), _apply(U, shift, b)


def test_key_equality_is_subtorus_equality():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        a, b = subtorus_pair(data.draw, st)
        lattices = {}
        same = quotient.subtorus_key(a, lattices) == quotient.subtorus_key(b, lattices)
        assert same == oracle_subtori_equal(a, b)
        assert quotient.subtori_equal(a, b) == same

    check()
