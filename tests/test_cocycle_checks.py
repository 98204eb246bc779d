"""The generator-based cocycle checks against all-pairs and all-triples oracles.

VectorSystem.is_consistent checks the cocycle condition on G x S, for a
generating set S, and ExtensionCocycle.validate the cocycle identity, naming
its first failing triple on G x S x G.  The oracles below are the direct
checks on G x G and G x G x G in Fraction arithmetic; on every input both
must give the same answer.

`validate` checks f as the coboundary of its own row sums, and
`cocycle_from_system` builds f, both by coordinate rows along Cayley rows.
The triple loop and the pair loop they replaced are kept below as
references: the same values, and the same verdict and message on every
mutant, including entries past 64 bits and cocycles failing at several
triples.  `realizations_equivalent` solves its congruence on the generators;
the solve over every g of G is kept as its reference, with the same verdict
and witness.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from math import lcm
from pathlib import Path

import pytest
import family
from conftest import (
    cocycle_defect,
    corpus_documents,
    family_documents,
    over_one_denominator,
    translation,
    translations,
)

from crystorb import cli, crystal, exactla
from crystorb.corpus import corpus_names, load_corpus
from crystorb.crystal import (
    CocycleViolation,
    CrystData,
    ExtensionCocycle,
    VectorSystem,
    cocycle_from_system,
    verify_crystallographic,
)
from crystorb.exactla import IntMatrix
from crystorb.groupcore import MatrixGroup, closure

F = Fraction
GOLDEN = Path(__file__).parent / "golden"


def oracle_is_consistent(vs):
    """L(g)u_h + u_g - u_{gh} in Z^r for every pair (g, h)."""
    n = vs.group.order()
    return all(x.denominator == 1
               for i in range(n) for j in range(n)
               for x in cocycle_defect(vs, i, j))


def oracle_validate(f):
    """ExtensionCocycle.validate with the cocycle identity on every triple."""
    g = f.group
    n = g.order()
    for i in range(n):
        for j in range(n):
            v = f.values.get((i, j))
            if v is None or len(v) != g.rank or any(not isinstance(x, int) for x in v):
                raise CocycleViolation(f"missing or malformed value at {(i, j)}")
    for i in range(n):
        if any(f.values[(i, 0)]) or any(f.values[(0, i)]):
            raise CocycleViolation("cocycle is not normalized")
    for a in range(n):
        la = g.elements[a]
        for b in range(n):
            ab = g.mul(a, b)
            for c in range(n):
                bc = g.mul(b, c)
                lhs = la.mul_vec(f.values[(b, c)])
                if any(x - y + z - w for x, y, z, w in
                       zip(lhs, f.values[(ab, c)], f.values[(a, bc)], f.values[(a, b)])):
                    raise CocycleViolation(f"cocycle identity fails at {(a, b, c)}")


def loop_validate(f):
    """ExtensionCocycle.validate as the triple loop over G x S x G."""
    g = f.group
    n = g.order()
    vals = f.values
    for i in range(n):
        if any(vals[(i, 0)]) or any(vals[(0, i)]):
            raise CocycleViolation("cocycle is not normalized")
    for b in dict.fromkeys(g.generators):
        b_row = [g.mul(b, h) for h in range(n)]
        for a in range(n):
            la = g.elements[a]
            ab = g.mul(a, b)
            own = vals[(a, b)]
            for c, bc in enumerate(b_row):
                lhs = la.mul_vec(vals[(b, c)])
                rest = vals[(a, bc)]
                mid = vals[(ab, c)]
                if any(x - y + z - w for x, y, z, w in zip(lhs, mid, rest, own)):
                    raise CocycleViolation(f"cocycle identity fails at {(a, b, c)}")


def loop_cocycle_from_system(vs):
    """cocycle_from_system as the pair loop over G x G."""
    g, num, den = vs.group, vs.numerators, vs.den
    n = g.order()
    values = {}
    for i in range(n):
        lin = g.elements[i]
        ui = num[i]
        for j in range(n):
            d = [x + a - b for x, a, b in zip(lin.mul_vec(num[j]), ui, num[g.mul(i, j)])]
            if any(x % den for x in d):
                raise CocycleViolation("vector system is not a valid realization")
            values[(i, j)] = tuple(x // den for x in d)
    return ExtensionCocycle(g, values)


def verdict(check, f):
    """None when `check` accepts f, else its CocycleViolation message."""
    try:
        check(f)
    except CocycleViolation as exc:
        return str(exc)
    return None


def rejects(check, f):
    try:
        check(f)
    except CocycleViolation:
        return True
    return False


def document_group(doc):
    group, _ = cli._build_group(cli.parse_cryst_data(doc), 512)
    return group


def corpus_group(name):
    return document_group(load_corpus(name))


def system(group, vectors):
    """The VectorSystem of the rational vectors u_g."""
    return VectorSystem(group, *over_one_denominator(vectors))


def with_translation(vs, i, t):
    vectors = list(translations(vs))
    vectors[i] = tuple(t)
    return system(vs.group, vectors)


def with_value(f, key, v):
    values = dict(f.values)
    values[key] = tuple(v)
    return ExtensionCocycle(f.group, values)


def unit(rank, k=0):
    return tuple(1 if i == k else 0 for i in range(rank))


@pytest.mark.parametrize("name", corpus_names())
def test_corpus_checks_agree_with_oracles(name):
    vs = corpus_group(name)
    n, rank = vs.order(), vs.rank
    assert vs.is_consistent() and oracle_is_consistent(vs)
    f = cocycle_from_system(vs)
    f.validate()
    oracle_validate(f)
    # every single-element translation change, agreeing verdicts
    for i in range(n):
        for den in (2, 3):
            t = tuple(u + F(1, den) * e
                      for u, e in zip(translation(vs, i), unit(rank, i % rank)))
            bad = with_translation(vs, i, t)
            assert bad.is_consistent() == oracle_is_consistent(bad)
            assert verdict(cocycle_from_system, bad) == verdict(loop_cocycle_from_system, bad)
    # every single-value cocycle change off the normalized border
    for a in range(1, n):
        for b in range(1, n):
            for k in range(rank):
                bad = with_value(f, (a, b), tuple(x + e for x, e in
                                                  zip(f.values[(a, b)], unit(rank, k))))
                assert rejects(ExtensionCocycle.validate, bad) == \
                    rejects(oracle_validate, bad)


@pytest.mark.parametrize("name", corpus_names())
def test_coboundary_twists_accepted_by_both(name):
    # u_g + (L(g) - I)w is again consistent, and f + d(phi) again a
    # normalized cocycle, for any w in Q^r and phi: G -> Z^r with phi(1) = 0
    group = corpus_group(name)
    g = group.group
    n, rank = group.order(), group.rank
    w = tuple(F(k + 1, 5) for k in range(rank))
    shifted = system(g, [
        tuple(u + x - y for u, x, y in
              zip(translation(group, i), g.elements[i].mul_vec(w), w))
        for i in range(n)])
    assert shifted.is_consistent() and oracle_is_consistent(shifted)
    f = cocycle_from_system(shifted)
    phi = [tuple(0 for _ in range(rank))] + \
        [tuple((3 * i + k) % 4 - 1 for k in range(rank)) for i in range(1, n)]
    twisted = ExtensionCocycle(g, {
        (a, b): tuple(x + y - z + p for x, y, z, p in
                      zip(f.values[(a, b)], g.elements[a].mul_vec(phi[b]),
                          phi[g.mul(a, b)], phi[a]))
        for a in range(n) for b in range(n)})
    twisted.validate()
    oracle_validate(twisted)


class TestNonGeneratorMutations:
    def test_c3_square_translation(self):
        # c3_rank2 is generated by g (index 1); index 2 is g^2
        vs = corpus_group("c3_rank2")
        sq = vs.group.mul(1, 1)
        assert sq not in vs.group.generators and sq != 0
        bad = with_translation(vs, sq, (F(1, 3), F(0)))
        assert not bad.is_consistent()
        assert not oracle_is_consistent(bad)

    def test_mixed_c2c2_product_translation(self):
        # the product of the two generators is the only other element
        vs = corpus_group("mixed_c2c2")
        a, b = vs.group.generators
        ab = vs.group.mul(a, b)
        assert ab not in (0, a, b)
        bad = with_translation(vs, ab, tuple(u + F(1, 2) for u in translation(vs, ab)))
        assert not bad.is_consistent()
        assert not oracle_is_consistent(bad)

    def test_cocycle_value_at_non_generator(self):
        group = corpus_group("c3_rank2")
        f = cocycle_from_system(group)
        sq = group.group.mul(1, 1)
        bad = with_value(f, (1, sq), (1, 0))
        with pytest.raises(CocycleViolation):
            bad.validate()
        with pytest.raises(CocycleViolation):
            oracle_validate(bad)


class TestFailClosed:
    def test_nonintegral_identity_translation(self):
        for group in (closure([], rank=2), closure([[[-1, 0], [0, -1]]])):
            vectors = [(F(0), F(0))] * group.order()
            vectors[0] = (F(1, 2), F(0))
            vs = system(group, vectors)
            assert not vs.is_consistent()
            assert not oracle_is_consistent(vs)

    def test_subgroup_without_generators_checks_all_of_g(self):
        d4 = closure([[[0, -1], [1, 0]], [[1, 0], [0, -1]]])
        refl = d4.generators[1]
        sub = closure([d4.elements[refl]])
        assert sub.elements == (d4.elements[0], d4.elements[refl])
        # d(r, r) = (2/3, 0) for the reflection r = diag(1, -1)
        vs = system(sub, ((F(0), F(0)), (F(1, 3), F(0))))
        assert not vs.is_consistent()
        assert not oracle_is_consistent(vs)
        ok = system(sub, ((F(0), F(0)), (F(1, 2), F(1, 3))))
        assert ok.is_consistent() and oracle_is_consistent(ok)
        f = ExtensionCocycle(sub, {(0, 0): (0, 0), (0, 1): (0, 0),
                                   (1, 0): (0, 0), (1, 1): (1, 1)})
        with pytest.raises(CocycleViolation):
            f.validate()


def signed_permutations_rank4():
    """B4: the 384 signed permutation matrices on Z^4, three generators."""
    cycle = [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    swap = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    flip = [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    return CrystData.make(4, [(m, (0, 0, 0, 0)) for m in (cycle, swap, flip)])


def counted_products(monkeypatch):
    """A one-element list counting the MatrixGroup.mul calls from now on."""
    calls = [0]
    mul = MatrixGroup.mul

    def counting_mul(self, i, j):
        calls[0] += 1
        return mul(self, i, j)

    monkeypatch.setattr(MatrixGroup, "mul", counting_mul)
    return calls


def test_verify_work_is_linear_in_group_order(monkeypatch):
    calls = counted_products(monkeypatch)
    data = signed_permutations_rank4()
    group = verify_crystallographic(data)
    assert group.order() == 384
    assert calls[0] <= (len(data.generators) + 1) * group.order()


def test_realize_checks_survive_optimize(tmp_path):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    path = resources.files("crystorb") / "corpus" / "bdf_surface.json"
    cmd = [sys.executable, "-O", "-m", "crystorb.cli", "realize", "--format", "json"]
    good = subprocess.run(cmd + ["--input", str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert good.returncode == 0, good.stderr
    assert good.stdout == (GOLDEN / "bdf_surface.realize.json").read_text()
    # the unrealizable C2 cocycle f(g, g) = (1, 1) under -I is still refused
    doc = {"rank": 2, "generators": [{"linear": [[-1, 0], [0, -1]]}],
           "cocycle": [[1, 1, [1, 1]]]}
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(doc))
    bad = subprocess.run(cmd + ["--input", str(bad_path)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert bad.returncode == 1
    assert "cocycle identity fails" in bad.stderr


def twisted(f, phi):
    """f + d(phi): again a normalized cocycle for phi: G -> Z^r, phi(1) = 0."""
    g = f.group
    n = g.order()
    return ExtensionCocycle(g, {
        (a, b): tuple(x + y - z + p for x, y, z, p in
                      zip(f.values[(a, b)], g.elements[a].mul_vec(phi[b]),
                          phi[g.mul(a, b)], phi[a]))
        for a in range(n) for b in range(n)})


def kernel_documents():
    """The corpus, the scaling family at basis seeds 0-3, and B4 with a half
    translation on the transposition, by name."""
    docs = corpus_documents()
    for seed in range(4):
        docs.update((f"{name}@{seed}", doc) for name, doc in
                    family.seeded_documents(family_documents(), seed).items())
    docs["b4_half"] = {"rank": 4, "generators": [
        {"linear": lin.to_lists(), "translation": ["1/2" if k == 1 else "0", "0", "0", "0"]}
        for k, (lin, _) in enumerate(signed_permutations_rank4().generators)]}
    return docs


@pytest.mark.parametrize("name", sorted(kernel_documents()))
def test_kernels_match_the_loops(name):
    # the same values, and the same verdicts on mutants; on B4's 384
    # elements the triple loop runs on the mutants only, which fail at a =
    # 1 or 2, as it takes 1.5 s on a valid cocycle
    vs = document_group(kernel_documents()[name])
    f = cocycle_from_system(vs)
    assert f.values == loop_cocycle_from_system(vs).values
    assert verdict(ExtensionCocycle.validate, f) is None
    if vs.order() < 384:
        assert verdict(loop_validate, f) is None
    s = vs.group.generators[-1]
    for key in ((1, s), (2, 1)) if vs.order() > 2 else ():
        for delta in (1, -BIG):
            bad = with_value(f, key, tuple(x + delta * e for x, e in
                                           zip(f.values[key], unit(vs.rank, vs.rank - 1))))
            assert verdict(ExtensionCocycle.validate, bad) == verdict(loop_validate, bad)


def all_rows_equivalent(vs_a, vs_b):
    """realizations_equivalent with (L(g) - I) w = u_g - u'_g (mod Z^r)
    stacked for every g in G: (equivalent, shift)."""
    g = vs_a.group
    den = lcm(vs_a.den, vs_b.den)
    qa, qb = den // vs_a.den, den // vs_b.den
    diffs = [tuple(a * qa - b * qb for a, b in zip(na, nb))
             for na, nb in zip(vs_a.numerators, vs_b.numerators)]
    minus_identity = IntMatrix.identity(g.rank).neg()
    M = IntMatrix.from_rows([row for lin in g.elements
                             for row in lin.add(minus_identity).to_lists()])
    solved = exactla.solve_affine_congruence(M, den, [x for d in diffs for x in d])
    if solved is None:
        return False, ()
    wden, w = solved
    return True, tuple(F(x, wden) for x in w)


def equivalence_documents():
    """The corpus and the scaling family, unseeded and at basis seeds 0-3,
    each set seeded on its own."""
    docs = {}
    for named in (corpus_documents(), family_documents()):
        docs.update(named)
        for seed in range(4):
            docs.update((f"{name}@{seed}", doc) for name, doc in
                        family.seeded_documents(named, seed).items())
    return docs


@pytest.mark.parametrize("name", sorted(equivalence_documents()))
def test_equivalence_on_generators_matches_all_rows(name):
    # the input system against its average (as `realize` compares them),
    # against the zero system and against its double: the same verdict and
    # the same witness as the solve over every g
    vs = document_group(equivalence_documents()[name])
    g, n = vs.group, vs.order()
    zero = VectorSystem(g, 1, ((0,) * vs.rank,) * n)
    double = VectorSystem(g, vs.den, tuple(tuple(2 * x % vs.den for x in u)
                                           for u in vs.numerators))
    averaged = crystal.affine_realization(g, cocycle_from_system(vs))
    for other in (averaged, zero, double):
        eq = crystal.realizations_equivalent(vs, other)
        assert (eq.equivalent, eq.shift) == all_rows_equivalent(vs, other)


# phi with entries of both signs; BIG makes them past 64 bits
BIG = 2 ** 70


def phi_of(group, scale):
    rank = group.rank
    return [(0,) * rank] + [tuple(scale * ((3 * i + k) % 5 - 2) for k in range(rank))
                            for i in range(1, group.order())]


@pytest.mark.parametrize("name", corpus_names())
@pytest.mark.parametrize("scale", [1, -7, BIG, -BIG],
                         ids=["small", "negative", "big", "minus_big"])
def test_kernel_messages_match_the_loop(name, scale):
    # every single-value change of a twisted cocycle, by a unit, by -1 and
    # by 2^70 (0 modulo 2^64): the same verdict and the same message
    vs = corpus_group(name)
    n, rank = vs.order(), vs.rank
    f = twisted(cocycle_from_system(vs), phi_of(vs.group, scale))
    assert verdict(ExtensionCocycle.validate, f) is None
    rejected = 0
    for a in range(1, n):
        for b in range(1, n):
            for k in range(rank):
                for delta in (1, -1, BIG):
                    bad = with_value(f, (a, b), tuple(x + delta * e for x, e in
                                                      zip(f.values[(a, b)], unit(rank, k))))
                    want = verdict(loop_validate, bad)
                    rejected += want is not None
                    assert verdict(ExtensionCocycle.validate, bad) == want, (a, b, k, delta)
    assert rejected or n == 1


@pytest.mark.parametrize("name", corpus_names())
def test_unnormalized_coboundary_refused(name):
    # f + d(phi) with phi(1) != 0 satisfies the cocycle identity on every
    # triple, and |G| f = dU with it, but f(1, h) = phi(1) for every h:
    # only the normalization check refuses it
    vs = corpus_group(name)
    phi = phi_of(vs.group, 1)
    phi[0] = unit(vs.rank)
    f = twisted(cocycle_from_system(vs), phi)
    assert all(f.values[(0, h)] == phi[0] for h in range(vs.order()))
    assert verdict(ExtensionCocycle.validate, f) == "cocycle is not normalized" \
        == verdict(oracle_validate, f)


def test_twists_reach_past_64_bits():
    # the valid cocycles above carry entries of both signs past 2^70 where
    # G has nonzero coboundaries (on Z/2 acting by -1 every one vanishes)
    for scale in (BIG, -BIG):
        vs = corpus_group("d4_rank2")
        entries = [x for v in twisted(cocycle_from_system(vs),
                                      phi_of(vs.group, scale)).values.values() for x in v]
        assert min(entries) <= -BIG and max(entries) >= BIG


def failing_triples(f):
    """Every (a, s, c) failing the identity, s in S, in the loop's order."""
    g = f.group
    n = g.order()
    out = []
    for s in dict.fromkeys(g.generators):
        for a in range(n):
            for c in range(n):
                lhs = g.elements[a].mul_vec(f.values[(s, c)])
                if any(x - y + z - w for x, y, z, w in
                       zip(lhs, f.values[(g.mul(a, s), c)], f.values[(a, g.mul(s, c))],
                           f.values[(a, s)])):
                    out.append((a, s, c))
    return out


def test_first_failing_triple_is_the_loops():
    # cocycles failing at two triples (a1, s, c1) and (a2, s, c2) with
    # a1 < a2 and c2 < c1: the error names (a1, s, c1), as the loop does,
    # though the equation of (s, c2) fails first
    vs = corpus_group("d4_rank2")
    n = vs.order()
    f = cocycle_from_system(vs)
    found = 0
    for a in range(1, n):
        for b in range(1, n):
            bad = with_value(f, (a, b), tuple(x + e for x, e in
                                              zip(f.values[(a, b)], unit(2))))
            fails = failing_triples(bad)
            first = fails[0]
            found += any(s == first[1] and c < first[2] for _, s, c in fails)
            assert verdict(ExtensionCocycle.validate, bad) == \
                f"cocycle identity fails at {first}" == verdict(loop_validate, bad)
    assert found


@pytest.mark.parametrize("width", [1, 2, 9])
@pytest.mark.parametrize("sign", [1, -1])
def test_the_product_term_widens_the_fields(width, sign):
    # Z/2 acting on Z^3 by L, with f(L, L) = v: the identity fails only at
    # (L, L, L), by v - Lv = sign (2B, -2, 0) for B = 2^(8 width), a large
    # entry from L's off-diagonal 32 beside a small one of the other sign.
    # `width` sized the fields of an earlier packed check; at every width
    # the input must be rejected at that triple
    group = closure([[[-1, 0, 32], [0, -1, 0], [0, 0, 1]]])
    v = (0, -sign, -sign << 8 * width - 4)
    f = ExtensionCocycle(group, {(a, b): v if a == b == 1 else (0, 0, 0)
                                 for a in range(2) for b in range(2)})
    d = [x - y for x, y in zip(v, group.elements[1].mul_vec(v))]
    assert d == [2 * sign << 8 * width, -2 * sign, 0]
    assert max(3 * abs(v[2]), 32).bit_length() // 8 + 1 == width
    assert verdict(ExtensionCocycle.validate, f) == "cocycle identity fails at (1, 1, 1)" \
        == verdict(loop_validate, f)


def test_rescan_without_a_failing_triple_is_an_internal_fault(monkeypatch):
    # a coboundary check that rejects a cocycle no triple fails is a fault
    # of the kernel: exit 2 through ArithmeticError, which -O keeps
    vs = corpus_group("d4_rank2")
    f = cocycle_from_system(vs)
    coboundaries = crystal._coboundaries

    def shifted(group, num):
        for rows in coboundaries(group, num):
            yield [[x + 1 for x in row] for row in rows]

    monkeypatch.setattr(crystal, "_coboundaries", shifted)
    with pytest.raises(ArithmeticError, match="cocycle fails as a coboundary at no triple"):
        f.validate()


@pytest.mark.parametrize("name", corpus_names())
def test_validate_returns_the_row_sums(name):
    # U_g = sum over h of f(g, h), on a twisted cocycle with entries of
    # both signs
    vs = corpus_group(name)
    f = twisted(cocycle_from_system(vs), phi_of(vs.group, -7))
    n = vs.order()
    assert f.validate() == [tuple(sum(f.values[(g, h)][a] for h in range(n))
                                  for a in range(vs.rank)) for g in range(n)]


def test_realize_work_is_linear_in_group_order(monkeypatch):
    # the pair loop over G x G and the triple loop over G x S x G made
    # about |G|^2 + 2|S||G| = 5,472 products here
    doc = family_documents()["c6wr_rank4"]
    vs = document_group(doc)
    calls = counted_products(monkeypatch)
    crystal.affine_realization(vs.group, cocycle_from_system(vs))
    assert vs.order() == 72
    assert calls[0] <= (len(vs.group.generators) + 1) * vs.order()
