"""Each group computes its invariants once and frees them with itself.

The conjugacy classes, the character table and the isotypic report live on
the MatrixGroup, and the fixed sets of the conjugacy classes on the
CrystGroup, as cached properties.  A whole `action` job therefore computes
each of them once, and nothing outside the group keeps it alive.  Each
command on the Hodge side decides evenness once and hands the report on,
and the sampler's generator action serves the tangent count.  A J read
off a sample point solves one determinant and no linear system.
The character table splits its class algebra without a linear solve, an
integer matrix product copies neither operand into lists, and the vector
system is built, checked and averaged in integers, with no Fraction.  The
lattice J search copies no group element into lists, the isotypic
multiplicities conjugate no character value, and the rational isotypic
projectors apply no Galois map to one.  Every order, inverse class, square
class, exponent and Galois image is read off one power map, one walk of
the powers of each class representative.  The commutant basis of the J
search is an integer kernel, with no elimination over Q.  A cocycle is
checked and averaged with no matrix-vector product, and the equivalence of
two vector systems is solved on the generators.
"""

import gc
import json
import weakref
from contextlib import contextmanager
from fractions import Fraction

import family
import pytest
from conftest import corpus_documents, crystal_group, family_documents
from jcheck import assert_invariant_j

from crystorb import cli, crystal, exactla, fieldlin, groupcore, hodge, quotient
from crystorb.cli import parse_cryst_data
from crystorb.corpus import load_corpus
from crystorb.cyclo import Cyclo

COUNTED = ((groupcore, "character_table"), (groupcore, "conjugacy_classes"),
           (groupcore, "real_isotypic_dimensions"), (exactla, "solve_mod_lattice"))


# the stages of an `action` report: each derived once per job from one pass
# over the fixed loci
ACTION_STAGES = ((hodge, "is_even"),) + tuple((quotient, name) for name in (
    "all_fixed_loci", "classify_action", "pseudoreflections", "gpr_subgroup",
    "factorization_report", "orbifold_descriptor"))


def _counter(monkeypatch, functions):
    """Call counts by name of the (module, name) functions, patched in place."""
    counts = dict.fromkeys((name for _, name in functions), 0)
    for module, name in functions:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


@pytest.fixture
def calls(monkeypatch):
    return _counter(monkeypatch, COUNTED)


def _group(name):
    return crystal.verify_crystallographic(parse_cryst_data(load_corpus(name)))


def _expected(nontrivial_classes):
    return {"character_table": 1, "conjugacy_classes": 1,
            "real_isotypic_dimensions": 1, "solve_mod_lattice": nontrivial_classes}


def test_action_job_computes_each_invariant_once(monkeypatch, capsys, tmp_path):
    # every corpus entry: a job on an even group builds one table and one
    # fixed set per nontrivial class, derives each answer once from one pass
    # over the fixed loci, and decides evenness once, in the command, which
    # hands the report to the descriptor; a job on a group that is not even
    # stops after that test
    stages = {name: 1 for _, name in ACTION_STAGES[1:]}
    even = []
    for name, doc in corpus_documents().items():
        classes = len(crystal_group(doc).group.classes)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        counts = _counter(monkeypatch, COUNTED + ACTION_STAGES)
        code = cli.main(["action", "--input", str(path), "--format", "json"])
        monkeypatch.undo()
        capsys.readouterr()
        is_even = counts.pop("is_even")
        if code == 0:
            even.append(name)
            assert is_even == 1, name
            assert counts == {**_expected(classes - 1), **stages}, name
        else:
            assert (code, is_even) == (1, 1), name
            assert all(counts[stage] == 0 for stage in stages), name
    assert len(even) == 15 and "mixed_c2c2" in even


def test_hodge_jobs_decide_evenness_once(monkeypatch, capsys, tmp_path):
    # every corpus entry: `even`, `jstruct`, `teich` and `action` test
    # evenness once, in the command, and the library reads that report; a
    # `teich` job solves the generator action of each sampled B once, in
    # the sampler's invariance check, and the tangent count reads it
    sampled = blocks = 0
    for name, doc in corpus_documents().items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        for command in ("even", "jstruct", "teich", "action"):
            counts = _counter(monkeypatch, ((hodge, "is_even"),))
            samples, solved = [], []
            sample, block_action = hodge.sample_subspace, hodge._block_action

            def recorded_sample(*args, **kwargs):
                result = sample(*args, **kwargs)
                samples.append(result[0])
                return result

            def recorded_action(crys, basis, indices):
                solved.append(basis)
                return block_action(crys, basis, indices)

            monkeypatch.setattr(hodge, "sample_subspace", recorded_sample)
            monkeypatch.setattr(hodge, "_block_action", recorded_action)
            cli.main([command, "--input", str(path), "--format", "json"])
            monkeypatch.undo()
            capsys.readouterr()
            assert counts == {"is_even": 1}, (name, command)
            for B in samples:
                assert sum(basis is B for basis in solved) == 1, (name, command)
            sampled += len(samples)
            blocks += sum(all(basis is not B for B in samples) for basis in solved)
    # nothing else is solved: the sampler cuts its joint eigenspaces in
    # lattice coordinates and solves no action on a rational block (the
    # pairing search it replaced solved 14)
    assert (sampled, blocks) == (22, 0)


def test_classification_and_descriptor_share_one_analysis(calls, monkeypatch):
    g = _group("c6_rank2")
    stages = _counter(monkeypatch, ACTION_STAGES)
    desc = quotient.orbifold_descriptor(g, hodge.is_even(g))
    assert desc.classification.kind == "divisorial"
    assert calls == _expected(len(g.group.classes) - 1)
    assert stages == dict.fromkeys(stages, 1)


def test_torsion_test_reads_the_fixed_sets(calls):
    # one fixed set per nontrivial conjugacy class: S3 has 2, and 5 elements
    g = _group("s3_rank4")
    crystal.is_torsion_free(g)
    quotient.all_fixed_loci(g)
    assert calls["solve_mod_lattice"] == len(g.group.classes) - 1 == 2


def test_group_is_freed_after_analysis():
    g = _group("c3_rank2")
    assert hodge.is_even(g).even
    assert hodge.invariant_complex_structure(g, hodge.is_even(g)) is not None
    ref = weakref.ref(g.group)
    del g
    gc.collect()
    assert ref() is None


def test_sample_point_j_costs_one_determinant(monkeypatch):
    # c3_rank2 and c6wr_rank4 (|G| = 72) have no rational J among the
    # pairing patterns and the group elements, so J is read off the sample
    # point, exactly over Q(zeta_12).  Reading it costs one determinant, the
    # degeneracy test of (B | conj B), and no orientation sign.
    counts = _counter(monkeypatch, ((hodge, "real_enclosure"), (fieldlin, "det")))
    docs = {**corpus_documents(), **family_documents()}
    for name in ("c3_rank2", "c6wr_rank4"):
        g = crystal_group(docs[name])
        ev = hodge.is_even(g)
        assert {c.fs_type for c in ev.report.classes} == {"complex"}
        counts.update(dict.fromkeys(counts, 0))
        J = hodge.invariant_complex_structure(g, ev)
        assert counts == {"real_enclosure": 0, "det": 1}, name
        assert J.mode == "algebraic" and J.field_order == 12
        assert_invariant_j(J.entries, g.group)


def test_realize_multiplies_no_vector_and_solves_on_the_generators(monkeypatch):
    # c6wr_rank4, |G| = 72 at rank 4: a valid cocycle is checked as the
    # coboundary of its row sums and averaged with no L(g)v product, and
    # the equivalence congruence stacks L(s) - I for the distinct
    # generators s only.  Checking the averaged system on S x G made 144
    # products, and stacking every g handed `snf` 288 rows.
    group = crystal_group(family_documents()["c6wr_rank4"])
    cocycle = crystal.cocycle_from_system(group)
    counts = _counter(monkeypatch, ((exactla.IntMatrix, "mul_vec"),))
    averaged = crystal.affine_realization(group.group, cocycle)
    assert counts == {"mul_vec": 0}
    rows, snf = [], exactla.snf

    def recorded(A, rhs=None):
        rows.append(A.rows)
        return snf(A, rhs)

    monkeypatch.setattr(exactla, "snf", recorded)
    assert crystal.realizations_equivalent(group, averaged).equivalent
    assert group.order() == 72
    assert rows == [len(set(group.group.generators)) * group.rank]


def test_power_questions_read_one_power_map(monkeypatch):
    # each scaling member at basis seed 1: once the classes are built, which
    # invert each generator once, evenness and the rational projectors walk
    # the powers of each class representative once, for the power map, and
    # no other element's.  Walking every element's powers and square as well
    # made 13,644 group products here.  The descriptor inverts each
    # generator once more.
    counts = _counter(monkeypatch, ((groupcore.MatrixGroup, "_powers"),
                                    (groupcore.MatrixGroup, "mul")))
    products = 0
    for name, doc in sorted(family.seeded_documents(family_documents(), 1).items()):
        crys = crystal_group(doc)
        k, gens = len(crys.group.classes), len(crys.group.generators)
        counts.update(_powers=0, mul=0)
        hodge.is_even(crys)
        hodge.rational_isotypic_projectors(crys.group, crys.group.table)
        assert counts["_powers"] == k, name
        products += counts["mul"]
        crys = crystal_group(doc)
        counts["_powers"] = 0
        ev = hodge.is_even(crys)
        if ev.even:
            quotient.orbifold_descriptor(crys, ev)
        assert counts["_powers"] <= k + 2 * gens, name
    assert products < 13644


def test_character_table_solves_no_system(monkeypatch):
    # c6c6_rank4: |G| = 36 and 36 classes, so every class matrix past the
    # first is restricted to spaces of dimension > 1 by reading pivot rows
    group = crystal_group(family_documents()["c6c6_rank4"]).group
    solves, charpolys = [], []
    solve, charpoly = fieldlin.solve_columns, fieldlin.charpoly

    def counted_solve(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    def counted_charpoly(*args, **kwargs):
        charpolys.append(1)
        return charpoly(*args, **kwargs)

    monkeypatch.setattr(fieldlin, "solve_columns", counted_solve)
    monkeypatch.setattr(fieldlin, "charpoly", counted_charpoly)
    table = groupcore.character_table(group)
    assert len(table.characters) == group.order() == 36
    assert solves == [] and len(charpolys) >= 2


def test_int_matrix_product_copies_nothing(monkeypatch):
    def forbidden(self):
        raise AssertionError("to_lists called")

    monkeypatch.setattr(exactla.IntMatrix, "to_lists", forbidden)
    g = crystal_group(family_documents()["b4_rank4"]).group
    members = {m.entries for m in g.elements}
    for a in g.elements[:24]:
        for b in g.elements[:24]:
            assert a.mul(b).entries in members
        assert a.mul_vec(tuple(range(g.rank))) == tuple(
            sum(a.at(i, j) * j for j in range(g.rank)) for i in range(g.rank))


def test_lattice_j_copies_only_the_generators(monkeypatch):
    # every corpus and scaling group whose J is a pairing pattern or a group
    # element: the search tests IntMatrix candidates, so J costs at most one
    # list copy per generator, not one per element of G
    counts = _counter(monkeypatch, ((exactla.IntMatrix, "to_lists"),))
    found = []
    search = hodge._rational_j

    def recorded(candidates, gens):
        J = search(candidates, gens)
        found.append(J is not None)
        return J

    monkeypatch.setattr(hodge, "_rational_j", recorded)
    lattice = 0
    for name, doc in sorted({**corpus_documents(), **family_documents()}.items()):
        g = crystal_group(doc)
        ev = hodge.is_even(g)
        if not ev.even:
            continue
        found.clear()
        counts["to_lists"] = 0
        hodge.invariant_complex_structure(g, ev)
        if found[0]:
            lattice += 1
            assert counts["to_lists"] <= len(g.group.generators), name
    assert lattice == 15


def test_isotypic_multiplicities_conjugate_nothing(monkeypatch):
    # the multiplicities are summed on integer coordinates and each complex
    # character's conjugate is the row read at the inverse classes
    counts = _counter(monkeypatch, ((Cyclo, "conjugate"),))
    complex_pairs = 0
    for name, doc in sorted({**corpus_documents(), **family_documents()}.items()):
        group = crystal_group(doc).group
        table = group.table
        counts["conjugate"] = 0
        report = groupcore.real_isotypic_dimensions(group, table)
        assert report == group.isotypic and counts["conjugate"] == 0, name
        complex_pairs += sum(c.fs_type == "complex" for c in report.classes)
    assert complex_pairs == 8


def test_rational_projectors_apply_no_galois_map(monkeypatch):
    # each Galois image of a row is the row read at the classes of a-th
    # powers, and each conjugate the row read at the inverse classes
    counts = _counter(monkeypatch, ((Cyclo, "galois"), (Cyclo, "conjugate")))
    orbits = 0
    for name, doc in sorted({**corpus_documents(), **family_documents()}.items()):
        group = crystal_group(doc).group
        table = group.table
        counts.update(galois=0, conjugate=0)
        blocks = hodge.rational_isotypic_projectors(group, table)
        assert counts == {"galois": 0, "conjugate": 0}, name
        orbits += sum(len(labels) > 1 for labels, _ in blocks)
    assert orbits == 8


@contextmanager
def fractions_built():
    """[n]: the number of Fractions built inside the block.  Fraction's own
    __new__ is put back on exit."""
    original = vars(Fraction)["__new__"]
    built = [0]

    def counted(cls, *args, **kwargs):
        built[0] += 1
        return original.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counted)
    try:
        yield built
    finally:
        Fraction.__new__ = original


# halftrans_rank2 is the corpus input with a pure translation to absorb
WITHOUT_NORMALIZATION = sorted(set(corpus_documents()) - {"halftrans_rank2"})
SMALL_SCALING = ("c6c6_rank4", "c6wr_rank4", "b3diag_rank6", "c3wr_rank6", "s4double_rank8")


@pytest.mark.parametrize("name", WITHOUT_NORMALIZATION + list(SMALL_SCALING))
def test_vector_system_work_builds_no_fraction(name):
    doc = {**corpus_documents(), **family_documents()}[name]
    data = parse_cryst_data(doc)
    with fractions_built() as built:
        group = crystal.verify_crystallographic(data)
        cocycle = crystal.cocycle_from_system(group)
        averaged = crystal.affine_realization(group.group, cocycle)
    assert built == [0]
    assert name not in SMALL_SCALING or group.order() <= 100
    assert averaged.is_consistent()
    # the congruence is solved and checked in integers; only the printed
    # witness, one coordinate per Fraction, leaves them
    with fractions_built() as built:
        witness = crystal.realizations_equivalent(group, averaged)
    assert witness.equivalent
    assert built[0] <= group.rank


def test_fraction_counter_counts_and_restores():
    original = vars(Fraction)["__new__"]
    with fractions_built() as built:
        Fraction(1, 2) + Fraction(1, 3)
    assert built[0] >= 3
    assert vars(Fraction)["__new__"] is original
