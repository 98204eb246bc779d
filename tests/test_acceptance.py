"""Acceptance suite: one test per criterion, each printing a PASS line.

Run as:  pytest tests/test_acceptance.py -v -s
"""

import json
from fractions import Fraction

from conftest import (
    cardinality,
    cocycle_defect,
    inner_product,
    l_minus_i,
    over_one_denominator,
    translation,
    validate_report,
)
from jcheck import assert_invariant_j

from crystorb import cli, crystal, fieldlin, hodge, quotient
from crystorb.corpus import corpus_names, load_corpus
from crystorb.crystal import (
    CrystData,
    VectorSystem,
    affine_realization,
    cocycle_from_system,
    is_torsion_free,
    normalize_action,
    realizations_equivalent,
    verify_crystallographic,
)
from crystorb.groupcore import character_table, closure, real_isotypic_dimensions
from crystorb.orbpi import central_line_quotient, coset_enumerate, platonic_check

F = Fraction


def describe(hodge_type):
    """A Hodge type as (labels, a, multiplicity - a) per class split."""
    return tuple((s.labels, s.a, s.multiplicity - s.a) for s in hodge_type.splits)


def announce(num, text):
    print(f"\nPASS criterion {num}: {text}")


def build(name):
    doc = load_corpus(name)
    data = CrystData.make(
        doc["rank"],
        [(g["linear"], tuple(F(t) for t in g["translation"]))
         for g in doc["generators"]])
    try:
        return verify_crystallographic(data)
    except crystal.KernelTooBig:
        return normalize_action(data).group


GROUPS = {name: build(name) for name in corpus_names()}


def test_criterion_1_platonic_classification():
    hits = set()
    for a in range(2, 101):
        for b in range(a, 101):
            for c in range(b, 101):
                if platonic_check(a, b, c):
                    hits.add((a, b, c))
    expected = {(2, 2, n) for n in range(2, 101)} | {(2, 3, 3), (2, 3, 4), (2, 3, 5)}
    assert hits == expected

    for a in range(2, 9):
        for b in range(a, 9):
            for c in range(b, 9):
                order = coset_enumerate(central_line_quotient(a, b, c), bound=10000)
                assert (order is not None) == platonic_check(a, b, c), (a, b, c)
    announce(1, "platonic triples classified by brute force to 100; "
                "enumeration verdict matches the inequality for max m <= 8")


def test_criterion_2_determinant_fixed_point_oracle():
    checked = 0
    for name, g in GROUPS.items():
        for gi in range(1, g.order()):
            d = fieldlin.det([[F(x) for x in row] for row in l_minus_i(g.linear(gi))])
            if d == 0:
                continue
            assert quotient.fixed_points(g, gi).real_dim == 0, (name, gi)
            assert cardinality(g.solve_fixed(gi)) == abs(d), (name, gi)
            checked += 1
    assert checked > 0

    kummer = GROUPS["kummer4"]
    assert cardinality(kummer.solve_fixed(1)) == 16
    desc = quotient.orbifold_descriptor(kummer, hodge.is_even(kummer))
    assert desc.classification.kind == "quasi_free"
    announce(2, f"|fixed points| = |det(L-I)| exactly on {checked} corpus elements; "
                "Kummer has 16 fixed points and is quasi-free")


def test_criterion_3_free_action_certification():
    bdf = GROUPS["bdf_surface"]
    assert is_torsion_free(bdf).torsion_free
    assert quotient.orbifold_descriptor(bdf, hodge.is_even(bdf)).classification.kind == "free"

    agreements = 0
    for name, g in GROUPS.items():
        tf = is_torsion_free(g).torsion_free
        ev = hodge.is_even(g)
        if ev.even:
            desc = quotient.orbifold_descriptor(g, ev)
            assert (desc.classification.kind == "free") == tf, name
            agreements += 1
    announce(3, f"Bagnera-de Franchis entry certified free by both routes; "
                f"torsion and classification answers agree on all {agreements} even entries")


def test_criterion_4_evenness_biconditional():
    assert len(GROUPS) >= 12
    linear_shapes = {name: g.group.elements for name, g in GROUPS.items()}
    assert any(g.rank == 2 and ((1, 0), (0, -1)) in g.group.elements
               for g in GROUPS.values()), "diag(1,-1) negative case required"
    assert any(((0, -1), (1, 0)) in g.group.elements
               and g.rank == 2 for g in GROUPS.values()), "order-4 rotation required"
    del linear_shapes

    exact_seen = algebraic_seen = 0
    for name, g in GROUPS.items():
        ev = hodge.is_even(g)
        try:
            s = hodge.invariant_complex_structure(g, ev)
        except ValueError:
            s = None
        assert (s is not None) == ev.even, name
        if s is None:
            continue
        if s.mode == "exact":
            exact_seen += 1
        else:
            assert s.mode == "algebraic", name
            algebraic_seen += 1
        assert_invariant_j(s.entries, g.group)
    assert exact_seen and algebraic_seen
    announce(4, f"complex structure exists iff even on all {len(GROUPS)} entries "
                f"({exact_seen} rational, {algebraic_seen} algebraic over a "
                f"cyclotomic field; all real, squaring to -I and commuting "
                f"with every element, exactly)")


def test_criterion_5_affine_realization():
    for name, g in GROUPS.items():
        f = cocycle_from_system(g)
        averaged = affine_realization(g.group, f)
        # exact cocycle condition: every defect is integral
        for i in range(g.order()):
            for j in range(g.order()):
                defect = cocycle_defect(averaged, i, j)
                assert all(x.denominator == 1 for x in defect), name
        assert realizations_equivalent(g, averaged).equivalent, name

    klein = GROUPS["klein_rank2"]
    assert translation(klein, 1) == (F(1, 2), F(0))
    zero = VectorSystem(klein.group, *over_one_denominator([(F(0),) * 2] * 2))
    assert not realizations_equivalent(klein, zero).equivalent
    announce(5, "averaged vector systems satisfy the cocycle condition exactly and "
                "match the input up to coboundary; the Klein translation (1/2, 0) "
                "is certified essential")


def test_criterion_6_character_machinery():
    c2 = closure([[[-1, 0], [0, -1]]])
    c3 = closure([[[0, -1], [1, -1]]])
    c4 = closure([[[0, -1], [1, 0]]])
    s3 = closure([[[0, -1], [1, -1]], [[0, 1], [1, 0]]])
    d4 = closure([[[0, -1], [1, 0]], [[1, 0], [0, -1]]])
    q8 = closure([[[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
                  [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]])
    tables = {"C2": character_table(c2), "C3": character_table(c3),
              "C4": character_table(c4), "S3": character_table(s3),
              "D4": character_table(d4), "Q8": character_table(q8)}
    for name, t in tables.items():
        k = len(t.classes)
        for a, chi_a in enumerate(t.characters):
            for b, chi_b in enumerate(t.characters):
                assert inner_product(t, chi_a, chi_b) == t.field(1 if a == b else 0), name
        for i in range(k):
            for j in range(k):
                total = t.field(0)
                for chi in t.characters:
                    total = total + chi.values[i] * chi.values[j].conjugate()
                want = t.field(F(t.group.order(), t.classes[i].size) if i == j else 0)
                assert total == want, name

    two_dim = next(chi for chi in tables["Q8"].characters if chi.degree == 2)
    assert two_dim.fs_indicator == -1

    for name, g in GROUPS.items():
        table = hodge.point_group_table(g)
        report = real_isotypic_dimensions(g.group, table)
        assert report.total_dim == g.rank, name
    announce(6, "row and column orthogonality exact for C2, C3, C4, S3, D4, Q8; "
                "the 2-dim Q8 character is quaternionic; isotypic dimensions sum "
                "to the rank on every corpus entry")


def test_criterion_7_orbifold_descriptor():
    prod = GROUPS["pseudoref_product"]
    desc = quotient.orbifold_descriptor(prod, hodge.is_even(prod))
    assert desc.classification.kind == "divisorial"
    assert sum(c.orbit_size for c in desc.divisor_classes) == 4
    assert all(c.multiplicity == 2 for c in desc.divisor_classes)
    assert len(quotient.gpr_subgroup(prod.group, desc.pseudoreflections)) == prod.order()

    mixed = GROUPS["mixed_c2c2"]
    fact = quotient.orbifold_descriptor(mixed, hodge.is_even(mixed)).factorization
    assert fact.index == 2
    assert fact.quasi_etale
    assert fact.audit and all(codim >= 2 for _, codim in fact.audit)
    announce(7, "product reflection gives 4 components of multiplicity 2 with "
                "G^pr = G; the mixed C2 x C2 factorization is certified quasi-etale")


def test_criterion_8_teichmueller_components():
    for n in (1, 2, 3):
        g = GROUPS[f"trivial_rank{2 * n}"]
        types = hodge.hodge_types(hodge.is_even(g))
        assert len(types) == 1
        assert hodge.component_dimension(types[0]) == n * n

    rot4 = GROUPS["rot4_rank2"]
    types = hodge.hodge_types(hodge.is_even(rot4))
    assert len(types) == 2
    assert [hodge.component_dimension(t) for t in types] == [0, 0]

    checked = 0
    for name, g in GROUPS.items():
        if not hodge.is_even(g).even:
            continue
        for t in hodge.hodge_types(hodge.is_even(g)):
            _, action = hodge.sample_subspace(g, t)
            oracle = hodge.tangent_dimension(action)
            assert oracle == hodge.component_dimension(t), (name, describe(t))
            checked += 1
    announce(8, f"trivial G gives one type of dimension n^2 for n in 1..3; the "
                f"order-4 rotation gives two rigid types; the tangent oracle "
                f"matches the Grassmannian formula on all {checked} corpus types")


def test_criterion_9_serialization_determinism(tmp_path, capsys):
    commands = ("verify", "even", "jstruct")
    for name in corpus_names():
        doc = load_corpus(name)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        # the document itself passes input validation
        cli._check_document(doc)
        cli.parse_cryst_data(doc)
        for command in commands:
            outputs = []
            for _ in range(2):
                code = cli.main([command, "--input", str(path), "--format", "json"])
                captured = capsys.readouterr()
                assert code == 0, (name, command, captured.err)
                outputs.append(captured.out)
            assert outputs[0] == outputs[1], (name, command)
            report = json.loads(outputs[0])
            assert validate_report(command, report)
    announce(9, "identical input reproduces byte-identical JSON for "
                "every corpus entry; all inputs and reports pass schema checks")
