"""The generator-based cocycle checks against all-pairs and all-triples oracles.

VectorSystem.is_consistent checks the cocycle condition on G x S and
ExtensionCocycle.validate the cocycle identity on G x S x G, for a generating
set S.  The oracles below are the direct checks on G x G and G x G x G in
Fraction arithmetic; on every input both must give the same answer.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from conftest import cocycle_defect, over_one_denominator, translations

from crystorb import cli
from crystorb.corpus import corpus_names, load_corpus
from crystorb.crystal import (
    CocycleViolation,
    CrystData,
    ExtensionCocycle,
    VectorSystem,
    cocycle_from_system,
    verify_crystallographic,
)
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


def rejects(check, f):
    try:
        check(f)
    except CocycleViolation:
        return True
    return False


def corpus_group(name):
    group, _ = cli._build_group(cli.parse_cryst_data(load_corpus(name)), 512)
    return group


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
            t = tuple(u + F(1, den) * e for u, e in zip(vs.u(i), unit(rank, i % rank)))
            bad = with_translation(vs, i, t)
            assert bad.is_consistent() == oracle_is_consistent(bad)
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
              zip(group.u(i), g.elements[i].mul_vec(w), w))
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
        bad = with_translation(vs, ab, tuple(u + F(1, 2) for u in vs.u(ab)))
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


def test_verify_work_is_linear_in_group_order(monkeypatch):
    calls = [0]
    mul = MatrixGroup.mul

    def counting_mul(self, i, j):
        calls[0] += 1
        return mul(self, i, j)

    monkeypatch.setattr(MatrixGroup, "mul", counting_mul)
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
