"""The one isotypic projector builder of `hodge` against the three it replaced.

`hodge` used to build the projector P = (1/|G|) sum_g (sum_chi chi(1)
conj chi(g)) L(g) three ways: per Galois orbit over Q
(`rational_isotypic_projectors`, which returned P itself), per character over
a cyclotomic field (`_isotypic_basis`) and per rational-valued character over
Q (`_rational_isotypic_basis`).  Those builders are kept below as oracles and
compared with `hodge.isotypic_basis` on every character of every corpus group
and of two generated groups with irrational characters, c6wr_rank4 and
c3wr_rank6.  The error split stays: a character that is not rational-valued
raises ValueError over Q, and a Galois-orbit sum that is not rational raises
ArithmeticError.

`isotypic_basis` sums |G| P on integer coordinates and makes one element
per entry.  The class-sum accumulation it replaced, one cyclotomic product
and sum per class and entry, is kept below as an oracle for P itself.
"""

from fractions import Fraction as F
from math import gcd

import json
import sys

import pytest
import family
from conftest import corpus_documents, crystal_group, cyclotomic_documents, family_documents

from crystorb import cli, fieldlin, hodge
from crystorb.cyclo import Cyclo
from crystorb.corpus import load_corpus
from crystorb.groupcore import CharacterTable

GENERATED = ("c6wr_rank4", "c3wr_rank6")


def _lookup(table):
    return {m: ci for ci, c in enumerate(table.classes) for m in c.members}


# ---------------------------------------------------------------------------
# oracles: the three builders the package used to carry

def oracle_rational_isotypic_projectors(group, table):
    e = table.field.order
    chars = table.characters
    orbits = []
    seen = set()
    for i, chi in enumerate(chars):
        if i in seen:
            continue
        orbit = {i}
        for a in range(1, e + 1):
            if gcd(a, e) != 1:
                continue
            mapped = tuple(v.galois(a) for v in chi.values)
            for j, other in enumerate(chars):
                if other.values == mapped:
                    orbit.add(j)
        seen |= orbit
        orbits.append(sorted(orbit))

    n = group.order()
    w = group.rank
    class_lookup = _lookup(table)
    out = []
    for orbit in orbits:
        proj = [[F(0)] * w for _ in range(w)]
        nonzero = False
        for g in range(n):
            ci = class_lookup[group.inv(g)]
            coeff = table.field(0)
            for oi in orbit:
                chi = chars[oi]
                coeff = coeff + chi.degree * chi.values[ci]
            if not coeff.is_rational():
                raise ArithmeticError("Galois-orbit character sum is not rational")
            c = coeff.rational_value() / n
            if c == 0:
                continue
            nonzero = True
            mat = group.elements[g]
            for i in range(w):
                for j in range(w):
                    proj[i][j] += c * mat.at(i, j)
        if nonzero and any(x != 0 for row in proj for x in row):
            labels = tuple(chars[oi].label for oi in orbit)
            out.append((labels, proj))
    return out


def oracle_isotypic_basis(crys, table, chi, field):
    n = crys.group.order()
    w = crys.rank
    lookup = _lookup(table)
    proj = [[field(0)] * w for _ in range(w)]
    scale = F(chi.degree, n)
    for g in range(n):
        val = chi.values[lookup[g]].conjugate().lift(field.order) * scale
        if val.is_zero():
            continue
        mat = crys.group.elements[g]
        for i in range(w):
            for j in range(w):
                if mat.at(i, j):
                    proj[i][j] = proj[i][j] + val * mat.at(i, j)
    red, pivots = fieldlin.rref(proj)
    return fieldlin.columns(proj, pivots)


def oracle_rational_isotypic_basis(crys, table, chi):
    n = crys.group.order()
    w = crys.rank
    lookup = _lookup(table)
    proj = [[F(0)] * w for _ in range(w)]
    for g in range(n):
        val = chi.values[lookup[g]].conjugate()
        if not val.is_rational():
            raise ValueError("character is not rational-valued")
        c = val.rational_value() * F(chi.degree, n)
        if c == 0:
            continue
        mat = crys.group.elements[g]
        for i in range(w):
            for j in range(w):
                proj[i][j] += c * mat.at(i, j)
    red, pivots = fieldlin.rref(proj)
    return fieldlin.columns(proj, pivots)


def oracle_entrywise_basis(group, table, chars, field=None):
    """hodge.isotypic_basis as it summed before class sums: c(class of g)
    L(g) over all g, entry by entry, one product per nonzero entry."""
    n = group.order()
    w = group.rank
    zero = F(0) if field is None else field(0)
    coeffs = []
    for cls in table.classes:
        ci = group.class_index[group.inv(cls.representative)]
        total = table.field(0)
        for chi in chars:
            total = total + chi.degree * chi.values[ci]
        c = total.rational_value() if field is None else total.lift(field.order)
        coeffs.append(c * F(1, n))
    proj = [[zero] * w for _ in range(w)]
    for g, ci in enumerate(group.class_index):
        c = coeffs[ci]
        if c == 0:
            continue
        mat = group.elements[g]
        for i in range(w):
            for j in range(w):
                if mat.at(i, j):
                    proj[i][j] = proj[i][j] + c * mat.at(i, j)
    red, pivots = fieldlin.rref(proj)
    return fieldlin.columns(proj, pivots)


def oracle_class_sum_projector(group, table, chars, field=None):
    """P as hodge.isotypic_basis summed it before integer accumulation: the
    class coefficient as one element, times each class-summed entry."""
    n = group.order()
    w = group.rank
    zero = F(0) if field is None else field(0)
    proj = [[zero] * w for _ in range(w)]
    for cls, powers in zip(table.classes, group.power_classes):
        total = table.field(0)
        for chi in chars:
            total = total + chi.degree * chi.values[powers[-1]]
        c = total.rational_value() if field is None else total.lift(field.order)
        c = c * F(1, n)
        if c == 0:
            continue
        class_sum = list(map(sum, zip(*(group.elements[g].entries for g in cls.members))))
        for i in range(w):
            for j in range(w):
                if class_sum[i * w + j]:
                    proj[i][j] = proj[i][j] + c * class_sum[i * w + j]
    return proj


# ---------------------------------------------------------------------------

def _groups():
    docs = corpus_documents()
    scaling = family_documents()
    docs.update({name: scaling[name] for name in GENERATED})
    return docs


@pytest.fixture(scope="module", params=sorted(_groups()))
def analysed(request):
    doc = _groups()[request.param]
    crys = crystal_group(doc)
    return crys, hodge.point_group_table(crys)


def test_every_character_over_the_sample_field(analysed):
    crys, table = analysed
    field = hodge._sample_field(table)
    for chi in table.characters:
        assert (hodge.isotypic_basis(crys.group, table, [chi], field)
                == oracle_isotypic_basis(crys, table, chi, field)), chi.label


def test_every_character_over_q(analysed):
    crys, table = analysed
    for chi in table.characters:
        try:
            want = oracle_rational_isotypic_basis(crys, table, chi)
        except ValueError:
            with pytest.raises(ValueError):
                hodge.isotypic_basis(crys.group, table, [chi])
            continue
        assert hodge.isotypic_basis(crys.group, table, [chi]) == want, chi.label


def test_every_galois_orbit(analysed):
    crys, table = analysed
    got = hodge.rational_isotypic_projectors(crys.group, table)
    want = oracle_rational_isotypic_projectors(crys.group, table)
    assert [labels for labels, _ in got] == [labels for labels, _ in want]
    for (_, basis), (_, proj) in zip(got, want):
        assert basis == fieldlin.columns(proj, fieldlin.rref(proj)[1])


def test_the_generated_groups_have_irrational_characters():
    for name in GENERATED:
        crys = crystal_group(_groups()[name])
        table = hodge.point_group_table(crys)
        assert any(not v.is_rational() for chi in table.characters for v in chi.values)


def test_irrational_character_over_q_is_a_value_error():
    crys = crystal_group(load_corpus("c3_rank2"))
    table = hodge.point_group_table(crys)
    chi = next(c for c in table.characters if not all(v.is_rational() for v in c.values))
    with pytest.raises(ValueError):
        oracle_rational_isotypic_basis(crys, table, chi)
    with pytest.raises(ValueError):
        hodge.isotypic_basis(crys.group, table, [chi])


def test_partial_galois_orbit_is_an_arithmetic_error():
    # a table holding one of two Galois-conjugate characters: its orbit sum
    # is not rational, which only an internal fault can produce
    crys = crystal_group(load_corpus("c3_rank2"))
    table = hodge.point_group_table(crys)
    chi = next(c for c in table.characters if not all(v.is_rational() for v in c.values))
    partial = CharacterTable(table.group, table.classes, table.field, (chi,))
    with pytest.raises(ArithmeticError):
        oracle_rational_isotypic_projectors(crys.group, partial)
    with pytest.raises(ArithmeticError):
        hodge.rational_isotypic_projectors(crys.group, partial)


def _class_sum_inputs():
    """The corpus and the scaling family at basis seeds 0-3."""
    docs = sorted(corpus_documents().items())
    for seed in range(4):
        docs += sorted((f"{name}@{seed}", doc) for name, doc in
                       family.seeded_documents(family_documents(), seed).items())
    return docs


@pytest.mark.parametrize("doc", [pytest.param(doc, id=name)
                                 for name, doc in _class_sum_inputs()])
def test_class_sums_match_the_entrywise_sum(doc):
    # each character over Q and over the sampler's field, and each Galois
    # orbit over Q, as rational_isotypic_projectors passes them
    crys = crystal_group(doc)
    group, table = crys.group, hodge.point_group_table(crys)
    field = hodge._sample_field(table)
    for chi in table.characters:
        assert (hodge.isotypic_basis(group, table, [chi], field)
                == oracle_entrywise_basis(group, table, [chi], field)), chi.label
        if all(v.is_rational() for v in chi.values):
            assert (hodge.isotypic_basis(group, table, [chi])
                    == oracle_entrywise_basis(group, table, [chi])), chi.label
    labels = {chi.label: chi for chi in table.characters}
    for orbit, _ in hodge.rational_isotypic_projectors(group, table):
        chars = [labels[label] for label in orbit]
        assert (hodge.isotypic_basis(group, table, chars)
                == oracle_entrywise_basis(group, table, chars)), orbit


def _projector(group, table, chars, field=None):
    """The matrix P that hodge.isotypic_basis hands to its one rref."""
    seen = []
    rref = fieldlin.rref

    def recorded(rows, p=None):
        seen.append([list(row) for row in rows])
        return rref(rows, p)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(fieldlin, "rref", recorded)
        hodge.isotypic_basis(group, table, chars, field)
    (proj,) = seen
    return proj


def _accumulation_inputs():
    """The corpus, the scaling family and the cyclotomic groups, unseeded and
    at basis seeds 0-3."""
    out = []
    for docs in (corpus_documents(), family_documents(), cyclotomic_documents()):
        out += sorted(docs.items())
        for seed in range(4):
            out += sorted((f"{name}@{seed}", doc) for name, doc in
                          family.seeded_documents(docs, seed).items())
    return out


@pytest.mark.parametrize("doc", [pytest.param(doc, id=name)
                                 for name, doc in _accumulation_inputs()])
def test_integer_accumulation_matches_the_class_sums(doc):
    # P for each character over the sampler's field and, when rational, over
    # Q, and for each Galois orbit over Q
    crys = crystal_group(doc)
    group, table = crys.group, hodge.point_group_table(crys)
    field = hodge._sample_field(table)
    cases = [([chi], field) for chi in table.characters]
    cases += [([chi], None) for chi in table.characters
              if all(v.is_rational() for v in chi.values)]
    labels = {chi.label: chi for chi in table.characters}
    cases += [([labels[label] for label in orbit], None)
              for orbit, _ in hodge.rational_isotypic_projectors(group, table)]
    for chars, over in cases:
        assert (_projector(group, table, chars, over)
                == oracle_class_sum_projector(group, table, chars, over)), \
            ([chi.label for chi in chars], over)


def test_accumulation_makes_no_cyclotomic_operation(monkeypatch, capsys, tmp_path):
    # the 7 scaling documents at basis seed 1 through the four Hodge
    # commands: no Cyclo product or sum is called from isotypic_basis (the
    # class-sum accumulation made 3,330 __mul__, 742 __rmul__ and 3,580
    # __add__ calls there)
    counts = {"__mul__": 0, "__add__": 0}
    for name in counts:
        original = getattr(Cyclo, name)

        def counted(self, other, _name=name, _original=original):
            if sys._getframe(1).f_code.co_name == "isotypic_basis":
                counts[_name] += 1
            return _original(self, other)

        monkeypatch.setattr(Cyclo, name, counted)
        monkeypatch.setattr(Cyclo, name.replace("__", "__r", 1), counted)
    calls = [0]
    basis = hodge.isotypic_basis

    def recorded(*args):
        calls[0] += 1
        return basis(*args)

    monkeypatch.setattr(hodge, "isotypic_basis", recorded)
    for name, doc in sorted(family.seeded_documents(family_documents(), 1).items()):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        for command in ("even", "jstruct", "action", "teich"):
            cli.main([command, "--input", str(path), "--format", "json"])
            capsys.readouterr()
    assert calls[0] > 0
    assert counts == {"__mul__": 0, "__add__": 0}
