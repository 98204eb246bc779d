"""The integer orthogonality check and the split of the class algebra
against oracles.

`_verify_orthogonality` checks that the table is square and checks the row
relations on the integer coordinates of the character values in Z[zeta_e],
each value packed into one integer; the column relations follow from those.
Two oracles check it: the direct check of both relations in Cyclo
arithmetic, and the term-by-term integer loop it replaced.  All accept every
real table; the integer checks reject each kind of corrupted table, and the
Cyclo oracle rejects those that break orthogonality.  A table missing one
character keeps its rows orthogonal: only the column relations, and so the
squareness check, reject it.

`_eigenlines` splits the class algebra over F_p on plain ints, building only
the class-matrix rows that the pivots of its bases name, with one reduction
per eigenvalue.  The split it replaced, over the `GF` element type with a
linear solve per space, is kept below verbatim; with it in place of
`_eigenlines` and the old orthogonality loop, `character_table` must build
the identical table on the corpus, the scaling family at basis seeds 0-3
and the property pools.

The lift runs one Fourier sum per Galois class: its base classes must be as
many as the conjugacy classes of cyclic subgroups, counted by brute force.
One character per Galois class of characters is lifted, as many as the base
classes, and every table must read the conjugate of each value at the
inverse class, which is where `_verify_orthogonality` reads it, once per
pair a <= b.
"""

import os
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import family
import pytest
from conftest import (
    corpus_documents,
    crystal_group,
    cyclotomic_documents,
    family_documents,
    inner_product,
)
from test_properties import GROUPS

from crystorb import cli, fieldlin, groupcore
from crystorb.corpus import corpus_names, load_corpus
from crystorb.cyclo import CycloField
from crystorb.groupcore import (
    Character,
    CharacterTable,
    _pack,
    _poly_at,
    _require,
    _unpack,
    _verify_orthogonality,
    character_table,
    closure,
)


# ---------------------------------------------------------------------------
# oracles: the F_p element type, the split over it and the orthogonality
# loop the package used to carry

class GF:
    """The residue v (mod p) in the prime field F_p.  Python ints mix in and
    are read mod p; division by 0 raises ZeroDivisionError."""

    __slots__ = ("v", "p")
    __hash__ = None

    def __init__(self, v, p):
        self.v, self.p = v % p, p

    def __add__(self, other):
        return GF(self.v + (other.v if type(other) is GF else other), self.p)

    __radd__ = __add__

    def __sub__(self, other):
        return GF(self.v - (other.v if type(other) is GF else other), self.p)

    def __rsub__(self, other):
        return GF(other - self.v, self.p)

    def __mul__(self, other):
        return GF(self.v * (other.v if type(other) is GF else other), self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        d = (other.v if type(other) is GF else other) % self.p
        if d == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return GF(self.v * pow(d, -1, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, (GF, int)):
            return (self.v - (other.v if type(other) is GF else other)) % self.p == 0
        return NotImplemented

    def __repr__(self):
        return f"GF({self.v}, {self.p})"


def oracle_eigenlines(group, p):
    """The split of the class algebra over GF, one class matrix M_j at a
    time, each space restricted by a linear solve."""
    n = group.order()
    classes = group.classes
    class_of = group.class_index
    k = len(classes)

    def class_matrix(j):
        T = [[0] * k for _ in range(k)]
        for x in classes[j].members:
            for y in range(n):
                T[class_of[y]][class_of[group.mul(x, y)]] += 1
        for i in range(k):
            for l in range(k):
                q, rem = divmod(T[i][l], classes[l].size)
                _require(rem == 0, "class structure constant is not integral")
                T[i][l] = q % p
        return T

    # split the class algebra into common eigenlines over F_p
    spaces = [[[1 if a == b else 0 for a in range(k)] for b in range(k)]]
    j = 1
    while j < k and any(len(sp) > 1 for sp in spaces):
        Mj = class_matrix(j)
        refined = []
        for sp in spaces:
            if len(sp) == 1:
                refined.append(sp)
                continue
            w = len(sp)
            B = [[sp[b][a] for b in range(w)] for a in range(k)]
            # Mj B = B R: R is Mj on the span of sp, in the basis sp
            R = fieldlin.solve_columns(
                [[GF(x, p) for x in row] for row in B],
                [[GF(sum(Mj[a][c] * B[c][b] for c in range(k)), p) for b in range(w)]
                 for a in range(k)])
            charpoly = [c.v for c in fieldlin.charpoly(R)]
            for lam in range(p):
                if _poly_at(charpoly, lam, p):
                    continue
                shifted = [[x - lam if i == j2 else x for j2, x in enumerate(row)]
                           for i, row in enumerate(R)]
                eigen = [[sum(B[a][b] * vec[b].v for b in range(w)) % p
                          for a in range(k)]
                         for vec in fieldlin.nullspace(shifted)]
                if eigen:
                    refined.append(eigen)
        spaces = refined
        j += 1
    if len(spaces) != k or any(len(sp) != 1 for sp in spaces):
        raise ArithmeticError("class algebra did not split into eigenlines")
    return [sp[0] for sp in spaces]


def _terms(x):
    """The nonzero (power, coefficient) pairs of a coordinate vector."""
    return [(i, c) for i, c in enumerate(x) if c]


def _reduced_sum(pairs, field):
    """Sum of x*y over pairs of integer polynomials given by their terms,
    reduced modulo the field's cyclotomic polynomial."""
    acc = [0] * (2 * field.degree - 1)
    for x, y in pairs:
        for i, a in x:
            for j, b in y:
                acc[i + j] += a * b
    return field.reduce(acc)


def oracle_terms_orthogonality(table):
    """The row relations term by term, without packing."""
    n = table.group.order()
    field = table.field
    _require(len(table.characters) == len(table.classes), "character table is not square")
    if any(v.den != 1 for chi in table.characters for v in chi.values):
        raise ArithmeticError("character value is not an algebraic integer")
    sizes = [c.size for c in table.classes]
    weighted = [[[(i, size * x) for i, x in _terms(v.num)]
                 for size, v in zip(sizes, chi.values)] for chi in table.characters]
    conjugates = [[_terms(field.galois_coords(v.num, -1)) for v in chi.values]
                  for chi in table.characters]
    # sum over classes of |C| chi_a conj chi_b = |G| delta_ab
    for a, x in enumerate(weighted):
        for b, y in enumerate(conjugates):
            want = [n if a == b else 0] + [0] * (field.degree - 1)
            if _reduced_sum(zip(x, y), field) != want:
                raise ArithmeticError("row orthogonality failed")


def oracle_character_table(group, monkeypatch):
    """`character_table` with the GF split and the term-by-term check."""
    with monkeypatch.context() as m:
        m.setattr(groupcore, "_eigenlines", oracle_eigenlines)
        m.setattr(groupcore, "_verify_orthogonality", oracle_terms_orthogonality)
        return character_table(group)


def oracle_verify_orthogonality(table):
    """Row and column orthogonality in Cyclo arithmetic."""
    field = table.field
    k = len(table.classes)
    n = table.group.order()
    for a, chi_a in enumerate(table.characters):
        for b, chi_b in enumerate(table.characters):
            ip = inner_product(table, chi_a, chi_b)
            if ip != field(1 if a == b else 0):
                raise ArithmeticError("row orthogonality failed")
    for i in range(k):
        for j in range(k):
            total = field(0)
            for chi in table.characters:
                total = total + chi.values[i] * chi.values[j].conjugate()
            want = field(Fraction(n, table.classes[i].size) if i == j else 0)
            if total != want:
                raise ArithmeticError("column orthogonality failed")


CHECKS = (_verify_orthogonality, oracle_terms_orthogonality)


def rejects(check, table):
    try:
        check(table)
    except ArithmeticError:
        return True
    return False


def perm(images):
    """Permutation matrix sending e_i to e_images[i]."""
    n = len(images)
    m = [[0] * n for _ in range(n)]
    for i, j in enumerate(images):
        m[j][i] = 1
    return m


def doubled(m):
    n = len(m)
    return [row + [0] * n for row in m] + [[0] * n + row for row in m]


INLINE = {
    # S4 permutations on Z^4 + Z^4, |G| = 24
    "s4double_rank8": [doubled(perm([1, 0, 2, 3])), doubled(perm([1, 2, 3, 0]))],
    # B3 signed permutations acting diagonally on Z^3 + Z^3, |G| = 48
    "b3diag_rank6": [doubled(perm([1, 0, 2])), doubled(perm([1, 2, 0])),
                     doubled([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])],
    # S5 permuting Z^5, |G| = 120 and exponent 60: 16 coordinates per value
    "s5_rank5": [perm([1, 0, 2, 3, 4]), perm([1, 2, 3, 4, 0])],
}


def point_group(name):
    if name in INLINE:
        return closure(INLINE[name])
    group, _ = cli._build_group(cli.parse_cryst_data(load_corpus(name)), 512)
    return group.group


def with_value(table, a, l, value):
    chars = list(table.characters)
    values = list(chars[a].values)
    values[l] = value
    chi = chars[a]
    chars[a] = Character(chi.label, chi.degree, tuple(values), chi.fs_indicator)
    return CharacterTable(table.group, table.classes, table.field, tuple(chars))


def swapped_values(table):
    """Swap two different values at non-identity classes in one row."""
    k = len(table.classes)
    for a, chi in enumerate(table.characters):
        for i in range(1, k):
            for j in range(i + 1, k):
                if chi.values[i] != chi.values[j]:
                    mutant = with_value(table, a, i, chi.values[j])
                    return with_value(mutant, a, j, chi.values[i])
    return None


def conjugated_value(table):
    """Replace the first non-real value by its complex conjugate."""
    for a, chi in enumerate(table.characters):
        for i, v in enumerate(chi.values):
            if v.conjugate() != v:
                return with_value(table, a, i, v.conjugate())
    return None


@pytest.mark.parametrize("name", corpus_names() + sorted(INLINE))
def test_integer_check_agrees_with_oracle(name):
    table = character_table(point_group(name))
    for check in CHECKS:
        check(table)
    oracle_verify_orthogonality(table)

    # a non-integral coordinate: never a character value
    last = len(table.classes) - 1
    off = table.characters[-1].values[last] + Fraction(1, 2)
    for check in CHECKS:
        with pytest.raises(ArithmeticError, match="algebraic integer"):
            check(with_value(table, len(table.characters) - 1, last, off))

    # a row doubled keeps every relation with another row: only its own
    # norm, the pair a = b, rejects it
    chi = table.characters[-1]
    doubled_row = Character(chi.label, chi.degree, tuple(2 * v for v in chi.values),
                            chi.fs_indicator)
    mutant = CharacterTable(table.group, table.classes, table.field,
                            table.characters[:-1] + (doubled_row,))
    for check in CHECKS:
        with pytest.raises(ArithmeticError, match="row orthogonality"):
            check(mutant)
    assert rejects(oracle_verify_orthogonality, mutant)

    if last == 0:
        return
    # the trivial character's 1 at the last class becomes zeta_e, another
    # root of unity; rows b != 0 pin row 0 down to a multiple of itself
    assert all(v == 1 for v in table.characters[0].values)
    mutant = with_value(table, 0, last, table.field.zeta(1))
    assert all(rejects(check, mutant) for check in CHECKS)
    assert rejects(oracle_verify_orthogonality, mutant)

    mutant = swapped_values(table)
    if mutant is not None:
        assert all(rejects(check, mutant) for check in CHECKS)
        assert rejects(oracle_verify_orthogonality, mutant)

    # a non-real value replaced by its complex conjugate breaks the relation
    # with the trivial character
    mutant = conjugated_value(table)
    if mutant is not None:
        assert all(rejects(check, mutant) for check in CHECKS)
        assert rejects(oracle_verify_orthogonality, mutant)


@pytest.mark.parametrize("name", corpus_names() + sorted(INLINE))
def test_dropped_character_rejected(name):
    table = character_table(point_group(name))
    if len(table.characters) == 1:
        return
    for a in (0, len(table.characters) - 1):
        chars = table.characters[:a] + table.characters[a + 1:]
        mutant = CharacterTable(table.group, table.classes, table.field, chars)
        for check in CHECKS:
            with pytest.raises(ArithmeticError, match="not square"):
                check(mutant)
        with pytest.raises(ArithmeticError, match="column orthogonality"):
            oracle_verify_orthogonality(mutant)


@pytest.mark.parametrize("name", corpus_names() + sorted(INLINE))
def test_swap_mutants_exist(name):
    # with k >= 3 two non-identity columns differ, as columns are independent
    table = character_table(point_group(name))
    assert (swapped_values(table) is None) == (len(table.classes) <= 2)


FORGED = """
import sys
from crystorb.groupcore import (Character, CharacterTable, character_table, closure,
                                real_isotypic_dimensions)

assert False, "assert statements must be off"
group = closure([[[-1]]])
table = character_table(group)
sign = table.characters[1]
# the sign character of C2 passed off as quaternionic: it occurs once in the
# rank-1 lattice, and a quaternionic constituent must occur evenly
forged = CharacterTable(table.group, table.classes, table.field, (
    table.characters[0], Character(sign.label, sign.degree, sign.values, -1)))
try:
    real_isotypic_dimensions(group, forged)
except ArithmeticError as exc:
    print(exc)
    sys.exit(0)
sys.exit(1)
"""


def test_table_checks_survive_optimize():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    run = subprocess.run([sys.executable, "-O", "-c", FORGED], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "quaternionic" in run.stdout


# ---------------------------------------------------------------------------
# the split on plain ints against the GF split

def _pooled_groups():
    """(name, point group) for the corpus, the inline groups, the scaling
    family at basis seeds 0-3 and the property pools."""
    out = [(name, point_group(name)) for name in corpus_names() + sorted(INLINE)]
    docs = family_documents()
    for seed in range(4):
        for name, doc in sorted(family.seeded_documents(docs, seed).items()):
            group, _ = cli._build_group(cli.parse_cryst_data(doc), 512)
            out.append((f"{name}@{seed}", group.group))
    out.extend((f"pool{i}", g.group) for i, g in enumerate(GROUPS))
    return out


def test_split_builds_the_oracle_tables(monkeypatch):
    exponents = set()
    for name, group in _pooled_groups():
        table = character_table(group)
        assert table == oracle_character_table(group, monkeypatch), name
        exponents.add(table.field.order)
    assert 60 in exponents


def test_eigenlines_are_the_oracle_lines():
    # the same lines in the same order, each scaled to lead with 1
    def normalized(lines, p):
        return [[x * pow(v[0], -1, p) % p for x in v] for v in lines]

    widest = 0
    for name, group in _pooled_groups():
        p = groupcore._dixon_prime(group.order(), group.exponent())
        assert normalized(groupcore._eigenlines(group, p), p) == \
            normalized(oracle_eigenlines(group, p), p), name
        widest = max(widest, len(group.classes))
    # the first space is all of F_p^k: c6c6_rank4 splits one of dimension 36
    assert widest == 36


def test_packing_width():
    # the widest coefficients that fit round-trip; one more carries into the
    # next slot, and a carry out of the last slot trips the guard
    for shift in (2, 5, 31, 64):
        top = (1 << (shift - 1)) - 1
        for coeffs in ([top, -top, 0, 1], [-top] * 7, [0, 0, top]):
            assert _unpack(_pack(coeffs, shift), shift, len(coeffs)) == coeffs
        assert _unpack(_pack([top + 1, 0], shift), shift, 2) == [-top - 1, 1]
        for coeffs in ([top + 1], [1, 2]):
            with pytest.raises(ArithmeticError, match="width"):
                _unpack(_pack(coeffs, shift), shift, 1)


MUTANTS = """
import sys
import family
from crystorb import cli
from crystorb.groupcore import Character, CharacterTable, _verify_orthogonality, closure

assert False, "assert statements must be off"
# C4 rotating Z^2: two non-real characters, values +-i; and c6c6_rank4, 36
# classes, where the conjugate is read at the inverse class
c6c6, _ = cli._build_group(cli.parse_cryst_data(family.scaling_family()["c6c6_rank4"][0]), 512)


def with_value(table, a, l, value):
    values = list(table.characters[a].values)
    values[l] = value
    chars = list(table.characters)
    chi = chars[a]
    chars[a] = Character(chi.label, chi.degree, tuple(values), chi.fs_indicator)
    return CharacterTable(table.group, table.classes, table.field, tuple(chars))


for table in (closure([[[0, -1], [1, 0]]]).table, c6c6.group.table):
    a, l = next((a, l) for a, chi in enumerate(table.characters)
                for l, v in enumerate(chi.values) if v.conjugate() != v)
    v = table.characters[a].values[l]
    for mutant in (with_value(table, a, l, v + 1), with_value(table, a, l, v.conjugate())):
        try:
            _verify_orthogonality(mutant)
        except ArithmeticError as exc:
            print(exc)
        else:
            sys.exit(1)
"""


def test_corrupted_tables_rejected_under_optimize():
    env = dict(os.environ)
    root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root / "perfbench"), env.get("PYTHONPATH", "")])
    run = subprocess.run([sys.executable, "-O", "-c", MUTANTS], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.count("row orthogonality failed") == 4


# ---------------------------------------------------------------------------
# one Fourier sum per Galois class, conjugates at inverse classes, each
# pair of characters checked once

def _seeded_groups():
    """(name, point group) for the corpus, the scaling family and the
    cyclotomic groups at basis seeds 0-3."""
    out = []
    for docs in (corpus_documents(), family_documents(), cyclotomic_documents()):
        for seed in range(4):
            for name, doc in sorted(family.seeded_documents(docs, seed).items()):
                out.append((f"{name}@{seed}", crystal_group(doc).group))
    return out


SEEDED = _seeded_groups()


def cyclic_subgroup_classes(group):
    """The number of conjugacy classes of cyclic subgroups, by conjugating
    a generator of each cyclic subgroup with every element."""
    n = group.order()
    table = [group.cayley_row(x) for x in range(n)]

    def cyclic(g):
        powers, cur = {0}, g
        while cur:
            powers.add(cur)
            cur = table[cur][g]
        return frozenset(powers)

    seen, count = set(), 0
    for g in range(n):
        if cyclic(g) in seen:
            continue
        count += 1
        seen.update(cyclic(table[table[x][g]][group.inv(x)]) for x in range(n))
    return count


def power_classes(group):
    return [[group.class_index[x] for x in group._powers(c.representative)[:-1]]
            for c in group.classes]


class CountedReads(list):
    """A list that counts the items read from it."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_one_fourier_sum_per_galois_class(monkeypatch):
    pins = {}
    lift = groupcore._lift
    reads = []

    def counted(chi_mod, d, pow_classes, bases, fourier, p, field):
        chi_mod = CountedReads(chi_mod)
        values = lift(chi_mod, d, pow_classes, bases, fourier, p, field)
        reads.append(chi_mod.reads)
        return values

    monkeypatch.setattr(groupcore, "_lift", counted)
    for name, group in SEEDED:
        pow_classes = power_classes(group)
        bases = groupcore._galois_bases(pow_classes)
        base_classes = [c for c, (b, _) in enumerate(bases) if b == c]
        for c, (b, s) in enumerate(bases):
            # c holds h^s for the representative h of b, s a unit mod o(h)
            o = len(pow_classes[b])
            assert b <= c and gcd(s, o) == 1 and pow_classes[b][s % o] == c, name
        assert len(base_classes) == cyclic_subgroup_classes(group), name
        reads.clear()
        table = character_table(group)
        # the Fourier sums read chi_mod at the power classes of bases only
        assert reads == [sum(len(pow_classes[b]) for b in base_classes)] * len(reads), name
        # one lift per Galois class of characters, chi^(a)(g) = chi(g^a)
        e = group.exponent()
        rows = {chi.values for chi in table.characters}
        orbits = {frozenset(tuple(chi.values[pc[a % len(pc)]] for pc in pow_classes)
                            for a in range(1, e + 1) if gcd(a, e) == 1)
                  for chi in table.characters}
        assert all(orbit <= rows for orbit in orbits), name
        assert len(reads) == len(orbits) == len(base_classes), name
        pins[name.split("@")[0]] = (len(base_classes), len(group.classes))

        inverse = [group.class_index[group.inv(c.representative)] for c in group.classes]
        for chi in table.characters:
            assert [chi.values[l] for l in inverse] == [v.conjugate() for v in chi.values]
    assert pins["c6c6_rank4"] == (20, 36)
    assert pins["c6wr_rank4"] == (17, 27)
    assert pins["c3wr_rank6"] == (9, 17)


def test_one_elimination_per_eigenvalue(monkeypatch):
    # the kernel basis of R - lambda I is the identity on its free columns,
    # which become the eigenspace's pivots: no second reduction
    counts = [0]
    rref = fieldlin.rref

    def counted(*args):
        counts[0] += 1
        return rref(*args)

    monkeypatch.setattr(fieldlin, "rref", counted)
    docs = family_documents()
    pins = {}
    for name in ("c6c6_rank4", "c6wr_rank4", "c3wr_rank6", "b3diag_rank6", "s4double_rank8"):
        group = crystal_group(docs[name]).group
        counts[0] = 0
        character_table(group)
        pins[name] = counts[0]
    assert pins == {"c6c6_rank4": 42, "c6wr_rank4": 31, "c3wr_rank6": 29,
                    "b3diag_rank6": 18, "s4double_rank8": 5}


def test_each_pair_checked_once(monkeypatch):
    calls = {"galois_coords": 0, "_unpack": 0}
    galois_coords, unpack = CycloField.galois_coords, groupcore._unpack

    def counted_galois(*args):
        calls["galois_coords"] += 1
        return galois_coords(*args)

    def counted_unpack(*args):
        calls["_unpack"] += 1
        return unpack(*args)

    tables = [(name, character_table(group)) for name, group in SEEDED]
    monkeypatch.setattr(CycloField, "galois_coords", counted_galois)
    monkeypatch.setattr(groupcore, "_unpack", counted_unpack)
    for name, table in tables:
        calls.update(galois_coords=0, _unpack=0)
        _verify_orthogonality(table)
        k = len(table.classes)
        assert calls == {"galois_coords": 0, "_unpack": k * (k + 1) // 2}, name


def test_conjugated_entry_rejected_on_c6c6():
    table = character_table(dict(SEEDED)["c6c6_rank4@1"])
    mutant = conjugated_value(table)
    a, l = next((a, l) for a, (x, y) in enumerate(zip(table.characters, mutant.characters))
                for l in range(len(table.classes)) if x.values[l] != y.values[l])
    inverse = table.group.class_index[table.group.inv(table.classes[l].representative)]
    assert inverse != l
    for check in CHECKS:
        with pytest.raises(ArithmeticError, match="row orthogonality"):
            check(mutant)
    assert rejects(oracle_verify_orthogonality, mutant)
