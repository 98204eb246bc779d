"""Finite integer matrix groups: closure from generators, conjugacy classes,
exact character tables, Frobenius-Schur indicators, isotypic dimensions.

Character tables are computed by the class-sum eigenvector method over a
prime field F_p with p = 1 (mod exponent), then lifted to exact cyclotomic
values by root-of-unity multiplicity recovery.  All published values are
exact; F_p only ever appears internally.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .cyclo import CycloField
from .exactla import IntMatrix

DEFAULT_ORDER_BOUND = 512


class ExceedsBound(Exception):
    """Closure or table computation passed the configured group-order bound."""


class MatrixGroup:
    """A finite group of invertible integer matrices of fixed rank.

    Elements are stored in a deterministic order: breadth-first over
    generator words, ties within a word length broken lexicographically by
    matrix entries.  The identity is always element 0.
    """

    def __init__(self, rank, elements, generator_indices):
        self.rank = rank
        self.elements = tuple(elements)
        self.generator_indices = tuple(generator_indices)
        self._index = {m.entries: i for i, m in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise ValueError("duplicate elements")
        if not self.elements[0].is_identity():
            raise ValueError("element 0 must be the identity")
        self._mul = {}
        self._inv = None
        self._orders = {}
        self._square_class_counts = None

    def order(self):
        return len(self.elements)

    def index_of(self, mat: IntMatrix):
        try:
            return self._index[mat.entries]
        except KeyError:
            raise ValueError("matrix is not an element of the group") from None

    def __contains__(self, mat):
        return isinstance(mat, IntMatrix) and mat.entries in self._index

    def mul(self, i, j):
        key = (i, j)
        k = self._mul.get(key)
        if k is None:
            k = self.index_of(self.elements[i].mul(self.elements[j]))
            self._mul[key] = k
        return k

    def inv(self, i):
        if self._inv is None:
            # a^k and a^(o-k) are inverse: one pass over the powers of a
            # settles every power of a
            inv = [None] * self.order()
            for a in range(self.order()):
                if inv[a] is None:
                    powers = [0, a]
                    while powers[-1] != 0:
                        powers.append(self.mul(powers[-1], a))
                    o = len(powers) - 1
                    for k in range(o):
                        inv[powers[k]] = powers[o - k]
            self._inv = inv
        return self._inv[i]

    def element_order(self, i):
        o = self._orders.get(i)
        if o is None:
            o, j = 1, i
            while j != 0:
                j = self.mul(j, i)
                o += 1
            self._orders[i] = o
        return o

    def exponent(self):
        e = 1
        for i in range(self.order()):
            o = self.element_order(i)
            e = e * o // gcd(e, o)
        return e

    def subgroup(self, element_indices):
        """Subgroup from a closed set of element indices, parent order kept."""
        idx = sorted(set(element_indices) | {0})
        elems = [self.elements[i] for i in idx]
        sub = MatrixGroup(self.rank, elems, ())
        for i in idx:
            for j in idx:
                if self.mul(i, j) not in idx:
                    raise ValueError("element set is not closed under products")
        return sub


def closure(generators, bound=DEFAULT_ORDER_BOUND, rank=None):
    """Close a generator list under multiplication.

    Raises ExceedsBound once more than `bound` distinct elements appear,
    which is how non-finite inputs surface.  With no generators the rank
    must be supplied and the trivial group is returned.
    """
    gens = [g if isinstance(g, IntMatrix) else IntMatrix.from_rows(g) for g in generators]
    if not gens:
        if rank is None:
            raise ValueError("rank required for an empty generator list")
        return MatrixGroup(rank, [IntMatrix.identity(rank)], ())
    r = gens[0].rows
    for g in gens:
        if g.rows != g.cols or g.rows != r:
            raise ValueError("generators must be square of equal rank")
        if g.det() == 0:
            raise ValueError("generators must be invertible")
    if rank is not None and rank != r:
        raise ValueError("declared rank does not match generators")

    ident = IntMatrix.identity(r)
    seen = {ident.entries}
    ordered = [ident]
    frontier = [ident]
    while frontier:
        level = []
        for w in frontier:
            for g in gens:
                nxt = w.mul(g)
                if nxt.entries not in seen:
                    seen.add(nxt.entries)
                    level.append(nxt)
                    if len(seen) > bound:
                        raise ExceedsBound(
                            f"closure exceeded {bound} elements; group is not finite "
                            f"or the bound is too small")
        level.sort(key=lambda m: m.entries)
        ordered.extend(level)
        frontier = level

    for g in gens:
        if abs(g.det()) != 1:
            raise ValueError("finite closure forces det = +-1; generator violates it")
    index = {m.entries: i for i, m in enumerate(ordered)}
    return MatrixGroup(r, ordered, tuple(index[g.entries] for g in gens))


@dataclass(frozen=True)
class ConjugacyClass:
    representative: int
    members: tuple
    size: int


def conjugacy_classes(group: MatrixGroup):
    """Partition into conjugacy classes, ordered by smallest member index."""
    n = group.order()
    assigned = [False] * n
    classes = []
    for i in range(n):
        if assigned[i]:
            continue
        orbit = set()
        for h in range(n):
            orbit.add(group.mul(group.mul(h, i), group.inv(h)))
        members = tuple(sorted(orbit))
        for m in members:
            assigned[m] = True
        classes.append(ConjugacyClass(members[0], members, len(members)))
    assert sum(c.size for c in classes) == n
    return classes


@dataclass(frozen=True)
class Character:
    label: str
    degree: int
    values: tuple          # one Cyclo per conjugacy class
    fs_indicator: int


@dataclass(frozen=True)
class CharacterTable:
    group: MatrixGroup
    classes: tuple
    field: CycloField
    characters: tuple

    def class_of(self, element_index):
        return self._class_lookup()[element_index]

    def _class_lookup(self):
        lookup = getattr(self, "_lookup_cache", None)
        if lookup is None:
            lookup = {}
            for ci, c in enumerate(self.classes):
                for m in c.members:
                    lookup[m] = ci
            object.__setattr__(self, "_lookup_cache", lookup)
        return lookup

    def inner_product(self, chi_a: Character, chi_b: Character):
        """Exact <a, b> = (1/|G|) sum over G of a(g) * conj(b(g))."""
        total = self.field(0)
        for c, va, vb in zip(self.classes, chi_a.values, chi_b.values):
            total = total + c.size * va * vb.conjugate()
        return total * Fraction(1, self.group.order())


# ---------------------------------------------------------------------------
# prime-field helpers (internal to the table computation)

def _fp_nullspace(mat, p):
    rows = [r[:] for r in mat]
    n = len(rows)
    m = len(rows[0]) if rows else 0
    pivots = []
    pr = 0
    for pc in range(m):
        piv = next((i for i in range(pr, n) if rows[i][pc] % p), None)
        if piv is None:
            continue
        rows[pr], rows[piv] = rows[piv], rows[pr]
        inv = pow(rows[pr][pc], p - 2, p)
        rows[pr] = [(x * inv) % p for x in rows[pr]]
        for i in range(n):
            if i != pr and rows[i][pc] % p:
                f = rows[i][pc]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == n:
            break
    basis = []
    for fc in range(m):
        if fc in pivots:
            continue
        v = [0] * m
        v[fc] = 1
        for k, pc in enumerate(pivots):
            v[pc] = (-rows[k][fc]) % p
        basis.append(v)
    return basis


def _fp_solve_columns(B, Y, p):
    """Solve B * X = Y column-wise for B with full column rank (mod p)."""
    k = len(B)
    w = len(B[0])
    ny = len(Y[0])
    aug = [B[i][:] + Y[i][:] for i in range(k)]
    pr = 0
    piv_cols = []
    for pc in range(w):
        piv = next((i for i in range(pr, k) if aug[i][pc] % p), None)
        if piv is None:
            raise ArithmeticError("basis matrix not of full column rank")
        aug[pr], aug[piv] = aug[piv], aug[pr]
        inv = pow(aug[pr][pc], p - 2, p)
        aug[pr] = [(x * inv) % p for x in aug[pr]]
        for i in range(k):
            if i != pr and aug[i][pc] % p:
                f = aug[i][pc]
                aug[i] = [(x - f * y) % p for x, y in zip(aug[i], aug[pr])]
        piv_cols.append(pc)
        pr += 1
    for i in range(pr, k):
        if any(x % p for x in aug[i][w:]):
            raise ArithmeticError("inconsistent restriction system")
    X = [[aug[r][w + j] for j in range(ny)] for r in range(w)]
    return X


def _fp_det(mat, p):
    rows = [r[:] for r in mat]
    n = len(rows)
    det = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] % p), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = (-det) % p
        det = (det * rows[c][c]) % p
        inv = pow(rows[c][c], p - 2, p)
        for i in range(c + 1, n):
            if rows[i][c] % p:
                f = (rows[i][c] * inv) % p
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[c])]
    return det % p


def _is_prime(n):
    if n < 2:
        return False
    for q in range(2, isqrt(n) + 1):
        if n % q == 0:
            return False
    return True


def _dixon_prime(order, exponent):
    p = exponent + 1
    while True:
        if p > 2 * isqrt(order) + 1 and (p - 1) % exponent == 0 and _is_prime(p):
            return p
        p += 1


def _root_of_unity(p, e):
    # an element of exact multiplicative order e in F_p*
    prime_divs = [q for q in range(2, e + 1) if e % q == 0 and _is_prime(q)]
    for c in range(2, p):
        z = pow(c, (p - 1) // e, p)
        if z == 1 and e > 1:
            continue
        if all(pow(z, e // q, p) != 1 for q in prime_divs):
            return z
    raise ArithmeticError("no primitive root found")


# ---------------------------------------------------------------------------

def character_table(group: MatrixGroup, bound=DEFAULT_ORDER_BOUND) -> CharacterTable:
    """Exact complex character table with Frobenius-Schur indicators.

    Row and column orthogonality are verified exactly before returning.
    """
    n = group.order()
    if n > bound:
        raise ExceedsBound(f"group order {n} exceeds bound {bound}")
    classes = conjugacy_classes(group)
    k = len(classes)
    e = group.exponent()
    field = CycloField(e)
    p = _dixon_prime(n, e)
    z = _root_of_unity(p, e) if e > 1 else 1

    class_of = {}
    for ci, c in enumerate(classes):
        for m in c.members:
            class_of[m] = ci

    def class_matrix(j):
        T = [[0] * k for _ in range(k)]
        for x in classes[j].members:
            for y in range(n):
                T[class_of[y]][class_of[group.mul(x, y)]] += 1
        for i in range(k):
            for l in range(k):
                q, rem = divmod(T[i][l], classes[l].size)
                assert rem == 0
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
            B = [[sp[b][a] for b in range(len(sp))] for a in range(k)]
            MB = [[sum(Mj[a][c] * B[c][b] for c in range(k)) % p
                   for b in range(len(sp))] for a in range(k)]
            R = _fp_solve_columns(B, MB, p)
            w = len(sp)
            roots = [lam for lam in range(p)
                     if _fp_det([[(R[i][j2] - (lam if i == j2 else 0)) % p
                                  for j2 in range(w)] for i in range(w)], p) == 0]
            for lam in roots:
                shifted = [[(R[i][j2] - (lam if i == j2 else 0)) % p
                            for j2 in range(w)] for i in range(w)]
                eigen = [[sum(B[a][b] * vec[b] for b in range(w)) % p
                          for a in range(k)]
                         for vec in _fp_nullspace(shifted, p)]
                if eigen:
                    refined.append(eigen)
        spaces = refined
        j += 1
    if len(spaces) != k or any(len(sp) != 1 for sp in spaces):
        raise ArithmeticError("class algebra did not split into eigenlines")

    inv_class = [class_of[group.inv(c.representative)] for c in classes]

    rows = []
    for sp in spaces:
        v = sp[0]
        v0inv = pow(v[0], p - 2, p)
        v = [(x * v0inv) % p for x in v]
        s = 0
        for i in range(k):
            s = (s + v[i] * v[inv_class[i]] * pow(classes[i].size, p - 2, p)) % p
        d2 = (n * pow(s, p - 2, p)) % p
        d = next((x for x in range(1, p) if (x * x) % p == d2 and x <= isqrt(n)), None)
        if d is None:
            raise ArithmeticError("degree recovery failed")
        chi_mod = [(d * v[i] * pow(classes[i].size, p - 2, p)) % p for i in range(k)]

        values = []
        for ci, c in enumerate(classes):
            g = c.representative
            pow_class = []
            cur = 0
            for _ in range(e):
                pow_class.append(class_of[cur])
                cur = group.mul(cur, g)
            exps = {}
            e_inv = pow(e % p, p - 2, p)
            for t in range(e):
                m_t = 0
                for s_ in range(e):
                    m_t = (m_t + chi_mod[pow_class[s_]] * pow(z, (-s_ * t) % (p - 1), p)) % p
                m_t = (m_t * e_inv) % p
                if m_t > d:
                    raise ArithmeticError("root-of-unity multiplicity out of range")
                if m_t:
                    exps[t] = exps.get(t, 0) + m_t
            values.append(field.from_exponents(exps) if exps else field(0))
        assert values[0].rational_value() == d
        rows.append((d, values))

    assert sum(d * d for d, _ in rows) == n

    # deterministic ordering: trivial character first, then degree, then values
    def sort_key(row):
        d, values = row
        trivial = all(val == field(1) for val in values)
        vkey = tuple(tuple((c.numerator, c.denominator) for c in val.coeffs)
                     for val in values)
        return (not trivial, d, vkey)

    rows.sort(key=sort_key)

    counts = _square_class_counts(group, class_of, k)
    characters = []
    for label_i, (d, values) in enumerate(rows):
        fs_total = field(0)
        for l in range(k):
            fs_total = fs_total + counts[l] * values[l]
        fs = (fs_total * Fraction(1, n)).rational_value()
        assert fs in (-1, 0, 1)
        characters.append(Character(f"chi{label_i}", d, tuple(values), int(fs)))

    table = CharacterTable(group, tuple(classes), field, tuple(characters))
    _verify_orthogonality(table)
    return table


def _square_class_counts(group, class_of, k):
    if group._square_class_counts is None:
        counts = [0] * k
        for g in range(group.order()):
            counts[class_of[group.mul(g, g)]] += 1
        group._square_class_counts = counts
    return group._square_class_counts


def _verify_orthogonality(table: CharacterTable):
    field = table.field
    k = len(table.classes)
    n = table.group.order()
    for a, chi_a in enumerate(table.characters):
        for b, chi_b in enumerate(table.characters):
            ip = table.inner_product(chi_a, chi_b)
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


def fs_indicator(chi: Character, table: CharacterTable):
    """Frobenius-Schur indicator (1/|G|) sum over g of chi(g^2)."""
    group = table.group
    class_of = table._class_lookup()
    counts = _square_class_counts(group, class_of, len(table.classes))
    total = table.field(0)
    for l, c in enumerate(counts):
        total = total + c * chi.values[l]
    return int((total * Fraction(1, group.order())).rational_value())


@dataclass(frozen=True)
class IsotypicClass:
    """One real-irreducible class of the lattice representation."""

    labels: tuple          # constituent complex-character labels
    fs_type: str           # "real" | "complex" | "quaternionic"
    degree: int            # degree of one complex constituent
    multiplicity: int      # multiplicity of one complex constituent
    complex_dim: int       # dim of the full class inside lattice tensor C
    admits_complex_structure: bool


@dataclass(frozen=True)
class IsotypicReport:
    rank: int
    classes: tuple

    @property
    def total_dim(self):
        return sum(c.complex_dim for c in self.classes)

    @property
    def all_even(self):
        return all(c.admits_complex_structure for c in self.classes)

    def odd_classes(self):
        return tuple(c for c in self.classes if not c.admits_complex_structure)


def real_isotypic_dimensions(rho: MatrixGroup, table: CharacterTable) -> IsotypicReport:
    """Decompose the lattice representation into real-irreducible classes.

    Complex-type conjugate character pairs merge into one class; each class
    reports the complex dimension of its isotypic piece of (lattice tensor C)
    and whether that piece admits an invariant complex structure.  For a
    class of real type this requires even multiplicity; complex and
    quaternionic classes always qualify.
    """
    if table.group is not rho and table.group.elements != rho.elements:
        raise ValueError("character table does not belong to the representation")
    field = table.field
    k = len(table.classes)
    traces = [sum(rho.elements[c.representative].at(i, i) for i in range(rho.rank))
              for c in table.classes]

    mults = []
    for chi in table.characters:
        total = field(0)
        for l in range(k):
            total = total + table.classes[l].size * traces[l] * chi.values[l].conjugate()
        m = (total * Fraction(1, rho.order())).rational_value()
        if m.denominator != 1 or m < 0:
            raise ArithmeticError("multiplicity is not a nonnegative integer")
        mults.append(int(m))

    conj_index = {}
    for i, chi in enumerate(table.characters):
        conj_values = tuple(v.conjugate() for v in chi.values)
        for j, other in enumerate(table.characters):
            if other.values == conj_values:
                conj_index[i] = j
                break
        else:
            raise ArithmeticError("conjugate character missing from table")

    out = []
    used = set()
    for i, chi in enumerate(table.characters):
        if i in used:
            continue
        m, d = mults[i], chi.degree
        if chi.fs_indicator == 1:
            used.add(i)
            if m == 0:
                continue
            out.append(IsotypicClass((chi.label,), "real", d, m, m * d, m % 2 == 0))
        elif chi.fs_indicator == -1:
            used.add(i)
            if m == 0:
                continue
            # a real representation contains quaternionic constituents evenly
            assert m % 2 == 0
            out.append(IsotypicClass((chi.label,), "quaternionic", d, m, m * d, True))
        else:
            j = conj_index[i]
            used.update((i, j))
            if m == 0 and mults[j] == 0:
                continue
            assert mults[j] == m
            labels = tuple(sorted((chi.label, table.characters[j].label)))
            out.append(IsotypicClass(labels, "complex", d, m, 2 * m * d, True))

    report = IsotypicReport(rho.rank, tuple(out))
    if report.total_dim != rho.rank:
        raise ArithmeticError("isotypic dimensions do not sum to the rank")
    return report
