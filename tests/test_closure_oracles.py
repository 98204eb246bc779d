"""One closure per crystallographic group, against the code it replaced.

`verify_crystallographic` used to close the group twice: the linear parts in
`groupcore.closure`, then the affine generators again in `_affine_closure`,
with `Fraction` translations, collecting every pure translation it met.
`normalize_action` repeated both closures every round, adjoining the linear
orbit of the pure translations until none was left.  Now the translations
are read off the linear closure's product table, the defects on G x S are
the pure translations, and the lattice is enlarged once.  The old closure
and loop are kept below as oracles.  On the corpus, the scaling family
(unseeded and at basis seeds 1-3), the inputs of test_crystal.py and seeded
mutants with a hidden translation, both must give the same translations,
reject the same inputs, absorb translations that generate the same lattice
and return the same basis change.

`quotient.gpr_subgroup` used to take the normal closure of the
pseudoreflections by conjugating with all of G and closing under all pairs;
that loop is kept as an oracle for the breadth-first search that replaced it.
"""

import json
import random
from fractions import Fraction as F

import family
import pytest
from conftest import (
    corpus_documents,
    family_documents,
    mod1_vec,
    over_one_denominator,
    translations,
)

from crystorb import cli, crystal, fieldlin, hodge, quotient
from crystorb.cli import parse_cryst_data
from crystorb.corpus import load_corpus
from crystorb.crystal import CrystData, KernelTooBig
from crystorb.exactla import IntMatrix
from crystorb.groupcore import DEFAULT_ORDER_BOUND, closure


# ---------------------------------------------------------------------------
# oracles: the affine closure and the normalization loop the package used to
# carry, and the normal-closure loop of gpr_subgroup

def oracle_affine_closure(data, bound=DEFAULT_ORDER_BOUND):
    """({linear entries: (linear part, translation)}, pure translations)."""
    rank = data.rank
    ident = IntMatrix.identity(rank)
    zero = tuple(F(0) for _ in range(rank))
    table = {ident.entries: (ident, zero)}
    pure = {}
    frontier = [(ident, zero)]
    while frontier:
        new = []
        for lin, trans in frontier:
            for glin, gtrans in data.generators:
                nl = lin.mul(glin)
                nt = mod1_vec(tuple(a + b for a, b in
                                    zip(lin.mul_vec(gtrans), trans)))
                key = nl.entries
                if key in table:
                    old = table[key][1]
                    if old != nt:
                        pure[mod1_vec(tuple(a - b for a, b in zip(nt, old)))] = True
                    continue
                table[key] = (nl, nt)
                new.append((nl, nt))
        frontier = new
        assert len(table) <= bound
    return table, list(pure)


def oracle_translations(data):
    """The translation of every element, in closure order, or None when a
    pure translation outside the lattice appears."""
    lin_group = closure([g for g, _ in data.generators], rank=data.rank)
    table, pure = oracle_affine_closure(data)
    if pure:
        return None
    assert len(table) == lin_group.order()
    return tuple(table[m.entries][1] for m in lin_group.elements)


def _identity(rank):
    return [[F(int(i == j)) for j in range(rank)] for i in range(rank)]


def _mul_vec(rows, v):
    return tuple(sum(a * x for a, x in zip(row, v)) for row in rows)


def oracle_normalize(data):
    """(basis change, absorbed translations, final translations)."""
    rank = data.rank
    current = data
    P_total = _identity(rank)
    absorbed = []
    for _ in range(64):
        lin_group = closure([g for g, _ in current.generators], rank=rank)
        _, pure = oracle_affine_closure(current)
        if not pure:
            return P_total, tuple(absorbed), oracle_translations(current)
        # the linear orbit, each vector once (the lattice it spans is the same)
        vectors = list(dict.fromkeys(m.mul_vec(t)
                                     for t in pure for m in lin_group.elements))
        P = crystal._lattice_with(rank, *over_one_denominator(vectors))
        absorbed.extend(_mul_vec(P_total, t) for t in pure)
        P_inv = fieldlin.inverse(P)
        lins = [fieldlin.mat_mul(fieldlin.mat_mul(P_inv, lin.to_lists()), P)
                for lin, _ in current.generators]
        assert all(x.denominator == 1 for m in lins for row in m for x in row)
        current = CrystData.make(rank, [(m, _mul_vec(P_inv, trans))
                                        for m, (_, trans) in zip(lins, current.generators)])
        P_total = fieldlin.mat_mul(P_total, P)
    raise AssertionError("lattice enlargement did not terminate")


def oracle_gpr_subgroup(crys):
    """Normal closure of the pseudoreflections: conjugate by all of G, close
    under all pairs, repeat until nothing changes."""
    g = crys.group
    current = {0} | set(quotient.pseudoreflections(quotient.all_fixed_loci(crys)))
    while True:
        grown = set(current)
        for h in range(g.order()):
            for s in current:
                grown.add(g.mul(g.mul(h, s), g.inv(h)))
        frontier = True
        while frontier:
            frontier = False
            for a in list(grown):
                for b in list(grown):
                    p = g.mul(a, b)
                    if p not in grown:
                        grown.add(p)
                        frontier = True
        if grown == current:
            return tuple(sorted(current))
        current = grown


# ---------------------------------------------------------------------------
# inputs

def _make(rank, gens):
    return CrystData.make(rank, [(m, tuple(F(x) for x in t)) for m, t in gens])


HANDWRITTEN = {
    "minus_identity": _make(2, [([[-1, 0], [0, -1]], (0, 0))]),
    "klein": _make(2, [([[1, 0], [0, -1]], (F(1, 2), 0))]),
    "bdf": _make(4, [([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
                      (F(1, 2), 0, 0, 0))]),
    "kummer": _make(4, [([[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
                         (0, 0, 0, 0))]),
    "trivial": _make(2, []),
    "pure_half": _make(2, [([[1, 0], [0, 1]], (F(1, 2), 0))]),
    "hidden_third": _make(2, [([[-1, 0], [0, -1]], (0, 0)),
                              ([[-1, 0], [0, -1]], (F(1, 3), 0))]),
    "absorb_half": _make(2, [([[1, 0], [0, 1]], (F(1, 2), 0)),
                             ([[-1, 0], [0, -1]], (0, 0))]),
    "minus_identity_shifted": _make(2, [([[-1, 0], [0, -1]], (F(1, 2), F(1, 2)))]),
    "swap_third": _make(2, [([[1, 0], [0, 1]], (0, F(1, 3))),
                            ([[0, 1], [1, 0]], (0, 0))]),
}


def _documents():
    docs = corpus_documents()
    generated = family_documents()
    out = {f"{n}@none": d for n, d in {**docs, **generated}.items()}
    for seed in (1, 2, 3):
        out.update({f"{n}@{seed}": d
                    for n, d in family.seeded_documents(generated, seed).items()})
    return out


def _mutant(data, rng):
    """`data` plus a copy of one generator whose translation is shifted by a
    random vector with denominator 2, 3, 4 or 6: a hidden pure translation."""
    lin, trans = rng.choice(data.generators)
    den = rng.choice((2, 3, 4, 6))
    shift = [F(rng.randrange(den), den) for _ in trans]
    shift[rng.randrange(len(shift))] = F(1, den)
    gens = list(data.generators)
    gens.insert(rng.randrange(len(gens) + 1), (lin, tuple(a + b for a, b in zip(trans, shift))))
    return CrystData.make(data.rank, gens)


def _inputs():
    out = {f"handwritten:{n}": d for n, d in HANDWRITTEN.items()}
    docs = _documents()
    out.update({f"doc:{n}": parse_cryst_data(d) for n, d in docs.items()})
    bases = [parse_cryst_data(docs[f"{n}@none"]) for n in
             ("c3_rank2", "d4_rank2", "q8_rank4", "mixed_c2c2", "s3_rank4",
              "c6wr_rank4", "c3wr_rank6", "s4double_rank8")]
    for seed in range(12):
        rng = random.Random(seed)
        out[f"mutant:{seed}"] = _mutant(bases[seed % len(bases)], rng)
    return out


INPUTS = _inputs()


def _in_lattice(vectors, P):
    P_inv = fieldlin.inverse(P)
    return all(x.denominator == 1 for v in vectors for x in _mul_vec(P_inv, v))


# ---------------------------------------------------------------------------
# tests

@pytest.mark.parametrize("label", sorted(INPUTS))
def test_one_closure_agrees_with_affine_closure(label):
    data = INPUTS[label]
    expected = oracle_translations(data)
    if expected is None:
        with pytest.raises(KernelTooBig) as info:
            crystal.verify_crystallographic(data)
        den, pure = info.value.den, info.value.numerators
        # the message prints no number: den may pass Python's digit limit
        assert not any(c.isdigit() for c in str(info.value))
    else:
        assert translations(crystal.verify_crystallographic(data)) == expected

    P, absorbed, final = oracle_normalize(data)
    res = crystal.normalize_action(data)
    assert res.changed == (expected is None) == bool(absorbed)
    assert [list(row) for row in res.basis_change] == P
    assert translations(res.group) == final
    if expected is None:
        assert res.absorbed == tuple(tuple(F(x, den) for x in v) for v in pure)
    # Z^r + <absorbed> is the same lattice on both sides
    assert _in_lattice(res.absorbed,
                       crystal._lattice_with(data.rank, *over_one_denominator(absorbed)))
    assert _in_lattice(absorbed,
                       crystal._lattice_with(data.rank, *over_one_denominator(res.absorbed)))


def test_mutants_hide_translations():
    mutants = [d for label, d in INPUTS.items() if label.startswith("mutant:")]
    assert all(oracle_translations(d) is None for d in mutants)
    assert any(len(crystal.normalize_action(d).absorbed) > 1 for d in mutants)


def test_b4_verify_forms_each_orbit_row_product_once(products):
    # one product of each orbit row +-e_i with each generator closes the
    # group, and no matrix product is formed; the products of the unit rows
    # e_i are the generators' rows, so only the 4 rows -e_i are multiplied
    data = parse_cryst_data(family_documents()["b4_rank4"])
    group = crystal.verify_crystallographic(data)
    assert (group.order(), len(data.generators), len(group.group.orbit)) == (384, 3, 8)
    assert products == {"mul": 0, "vec_mul": (8 - 4) * 3}


NOT_FINITE = ("error: input.generators: closure exceeded {} elements; "
              "group is not finite or the bound is too small\n")


def _verify(tmp_path, capsys, rank, linears, *flags):
    """(exit code, stdout, stderr) of `verify` on zero translations."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"rank": rank, "generators": [
        {"linear": m, "translation": [0] * rank} for m in linears]}))
    code = cli.main(["verify", "--input", str(path), "--format", "json", *flags])
    out, err = capsys.readouterr()
    return code, out, err


def test_shear_stops_after_r_bound_plus_one_orbit_rows(products, tmp_path, capsys):
    assert _verify(tmp_path, capsys, 2, [[[1, 1], [0, 1]]]) == (
        1, "", NOT_FINITE.format(DEFAULT_ORDER_BOUND))
    # one generator: one row product per orbit row scanned
    assert products["mul"] == 0 and products["vec_mul"] <= 2 * DEFAULT_ORDER_BOUND + 1


def test_bound_equal_to_the_order_closes(tmp_path, capsys):
    linears = [g.to_lists() for g, _ in parse_cryst_data(family_documents()["b4_rank4"]).generators]
    code, out, _ = _verify(tmp_path, capsys, 4, linears, "--bound", "384")
    assert code == 0 and json.loads(out)["result"]["order"] == 384
    assert _verify(tmp_path, capsys, 4, linears, "--bound", "383") == (
        1, "", NOT_FINITE.format(383))


def test_doubling_is_not_finite(tmp_path, capsys):
    assert _verify(tmp_path, capsys, 1, [[[2]]]) == (1, "", NOT_FINITE.format(DEFAULT_ORDER_BOUND))


def test_idempotent_generator_is_located(tmp_path, capsys):
    assert _verify(tmp_path, capsys, 2, [[[0, -1], [1, 0]], [[1, 0], [0, 0]]]) == (
        1, "", "error: input.generators[1].linear: must be invertible\n")


def test_cli_verify_closes_once_per_lattice(monkeypatch, tmp_path, capsys):
    # halftrans_rank2 has a pure translation: one closure rejects it and one
    # builds the rebased group (the parent made four, plus four affine ones)
    calls = []
    real = crystal.closure

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(crystal, "closure", counted)
    path = tmp_path / "halftrans.json"
    path.write_text(json.dumps(load_corpus("halftrans_rank2")))
    assert cli.main(["verify", "--input", str(path), "--format", "json"]) == 0
    assert '"normalized":true' in capsys.readouterr().out
    assert len(calls) == 2


def test_unabsorbed_translation_is_an_internal_fault(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(crystal, "_lattice_with", lambda rank, den, numerators: _identity(rank))
    path = tmp_path / "halftrans.json"
    path.write_text(json.dumps(load_corpus("halftrans_rank2")))
    assert cli.main(["verify", "--input", str(path), "--format", "json"]) == 2
    assert capsys.readouterr().err.startswith("internal error")


EVEN = [label for label in sorted(INPUTS) if label.startswith("doc:") and
        label.split(":")[1].split("@")[0] in
        ("bdf_surface", "c3_rank2", "c6_rank2", "halftrans_rank2", "kummer4", "minus1_rank2",
         "mixed_c2c2", "pseudoref_product", "q8_rank4", "rot4_rank2", "rot4_sum_rank4",
         "s3_rank4", "trivial_rank2", "trivial_rank4", "trivial_rank6", "c6c6_rank4",
         "c6wr_rank4", "b3diag_rank6", "c3wr_rank6", "s4double_rank8")]


@pytest.mark.parametrize("label", EVEN)
def test_gpr_subgroup_agrees_with_normal_closure(label):
    crys = crystal.normalize_action(INPUTS[label]).group
    assert hodge.is_even(crys).even
    refl = quotient.pseudoreflections(quotient.all_fixed_loci(crys))
    assert quotient.gpr_subgroup(crys.group, refl) == oracle_gpr_subgroup(crys)
