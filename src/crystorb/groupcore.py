"""Finite integer matrix groups: closure from generators, conjugacy classes,
exact character tables, Frobenius-Schur indicators, isotypic dimensions.

Group products are index lookups: each group records, for a generating set S,
the index of every product w*s (an n x |S| table) and a word over S for every
element, so a product g*h walks h's word through the table and no matrix is
multiplied after the group is built.

Character tables are computed by the class-sum eigenvector method over a
prime field F_p with p = 1 (mod exponent), then lifted to exact cyclotomic
values by root-of-unity multiplicity recovery.  The linear algebra over F_p
(restriction, characteristic polynomial, eigenspaces) is `fieldlin`'s, on
`fieldlin.GF` elements.  All published values are exact; F_p only ever
appears internally.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from . import fieldlin
from .cyclo import CycloField
from .exactla import IntMatrix

DEFAULT_ORDER_BOUND = 512


class ExceedsBound(Exception):
    """Closure or table computation passed the configured group-order bound."""


def _require(cond, msg):
    """A self-check that stays on under `python -O`."""
    if not cond:
        raise ArithmeticError(msg)


class MatrixGroup:
    """A finite group of invertible integer matrices of fixed rank.

    Elements are stored in a deterministic order: breadth-first over
    generator words, ties within a word length broken lexicographically by
    matrix entries.  The identity is always element 0.

    `generators` is the generating set S the products are taken over: the
    recorded `generator_indices` when they generate the group, and all of its
    elements otherwise (subgroups and hand-built groups may record none, or a
    list that does not generate).  Products are index lookups, not matrix
    products.  `products` = (S, table, words) holds the index of w*s for every
    element w and every s in S, and a word over S for every element; `closure`
    and `subgroup` pass it in, and otherwise it is built here once with n*|S|
    matrix products.
    """

    def __init__(self, rank, elements, generator_indices, products=None):
        self.rank = rank
        self.elements = tuple(elements)
        self.generator_indices = tuple(generator_indices)
        self._index = {m.entries: i for i, m in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise ValueError("duplicate elements")
        if not self.elements[0].is_identity():
            raise ValueError("element 0 must be the identity")
        if products is None:
            products = (self._right_products(self.generator_indices)
                        or self._right_products(range(len(self.elements))))
        self.generators, self._right, self._words = products
        self._inv = None
        self._orders = {}
        self._square_class_counts = None

    def _right_products(self, gens):
        """(S, [w*s for s in S] per w, a word over S per element) for S = gens,
        or None when gens do not generate the group."""
        gens = tuple(gens)
        mats = [self.elements[s] for s in gens]
        right = [tuple(self.index_of(w.mul(m)) for m in mats) for w in self.elements]
        words = [None] * len(self.elements)
        words[0] = ()
        queue = [0]
        for w in queue:
            for k, x in enumerate(right[w]):
                if words[x] is None:
                    words[x] = words[w] + (k,)
                    queue.append(x)
        if len(queue) < len(self.elements):
            return None
        return gens, right, words

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
        right = self._right
        for k in self._words[j]:
            i = right[i][k]
        return i

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
        """Subgroup from a closed set of element indices, parent order kept.

        Its generating set is all of its elements, and its products are read
        off the parent's.
        """
        idx = sorted(set(element_indices) | {0})
        pos = {g: i for i, g in enumerate(idx)}
        try:
            right = [tuple(pos[self.mul(i, j)] for j in idx) for i in idx]
        except KeyError:
            raise ValueError("element set is not closed under products") from None
        words = [()] + [(i,) for i in range(1, len(idx))]
        return MatrixGroup(self.rank, [self.elements[i] for i in idx], (),
                           (tuple(range(len(idx))), right, words))


def closure(generators, bound=DEFAULT_ORDER_BOUND, rank=None):
    """Close a generator list under multiplication.

    Raises ExceedsBound once more than `bound` distinct elements appear,
    which is how non-finite inputs surface.  With no generators the rank
    must be supplied and the trivial group is returned.  Every product w*g it
    forms is recorded by index, so the group it returns multiplies by lookup.
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
    index = {ident.entries: 0}
    ordered = [ident]
    words = [()]
    right = []          # entries of ordered[w] * gens[k], made indices below
    start = 0
    while start < len(ordered):
        level = {}
        for w in range(start, len(ordered)):
            row = []
            for k, g in enumerate(gens):
                nxt = ordered[w].mul(g)
                key = nxt.entries
                if key not in index and key not in level:
                    level[key] = (nxt, words[w] + (k,))
                    if len(index) + len(level) > bound:
                        raise ExceedsBound(
                            f"closure exceeded {bound} elements; group is not finite "
                            f"or the bound is too small")
                row.append(key)
            right.append(row)
        start = len(ordered)
        for key in sorted(level):
            index[key] = len(ordered)
            ordered.append(level[key][0])
            words.append(level[key][1])

    for g in gens:
        if abs(g.det()) != 1:
            raise ValueError("finite closure forces det = +-1; generator violates it")
    gen_indices = tuple(index[g.entries] for g in gens)
    right = [tuple(index[key] for key in row) for row in right]
    return MatrixGroup(r, ordered, gen_indices, (gen_indices, right, words))


@dataclass(frozen=True)
class ConjugacyClass:
    representative: int
    members: tuple
    size: int


def conjugacy_classes(group: MatrixGroup):
    """Partition into conjugacy classes, ordered by smallest member index.

    Each class is the orbit of its smallest member under x -> s^-1 x s for s
    in the group's generating set.
    """
    n = group.order()
    conjugators = [(group.inv(s), s) for s in group.generators]
    assigned = [False] * n
    classes = []
    for i in range(n):
        if assigned[i]:
            continue
        assigned[i] = True
        orbit = [i]
        for x in orbit:
            for s_inv, s in conjugators:
                y = group.mul(s_inv, group.mul(x, s))
                if not assigned[y]:
                    assigned[y] = True
                    orbit.append(y)
        members = tuple(sorted(orbit))
        classes.append(ConjugacyClass(members[0], members, len(members)))
    _require(sum(c.size for c in classes) == n, "conjugacy classes do not partition G")
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

def _poly_at(coeffs, x, p):
    """Value mod p at x of the polynomial with coefficients c_0, c_1, ... ."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


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
    z_powers = [pow(z, t, p) for t in range(e)]

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
                [[fieldlin.GF(x, p) for x in row] for row in B],
                [[fieldlin.GF(sum(Mj[a][c] * B[c][b] for c in range(k)), p) for b in range(w)]
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
                    m_t = (m_t + chi_mod[pow_class[s_]] * z_powers[(-s_ * t) % e]) % p
                m_t = (m_t * e_inv) % p
                if m_t > d:
                    raise ArithmeticError("root-of-unity multiplicity out of range")
                if m_t:
                    exps[t] = exps.get(t, 0) + m_t
            values.append(field.from_exponents(exps) if exps else field(0))
        _require(values[0].rational_value() == d, "character degree mismatch")
        rows.append((d, values))

    _require(sum(d * d for d, _ in rows) == n, "squared degrees do not sum to |G|")

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
        _require(fs in (-1, 0, 1), "Frobenius-Schur indicator out of range")
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
    """Check row and column orthogonality exactly, in integer arithmetic.

    Character values are algebraic integers and 1, zeta, ..., zeta^(phi(e)-1)
    is a Z-basis of Z[zeta_e], so every coordinate must be an integer and each
    relation is an identity of integer polynomials modulo the monic Phi_e.
    """
    n = table.group.order()
    phi = [int(c) for c in table.field.modulus]
    coords = []
    for chi in table.characters:
        if any(c.denominator != 1 for v in chi.values for c in v.coeffs):
            raise ArithmeticError("character value is not an algebraic integer")
        coords.append([[int(c) for c in v.coeffs] for v in chi.values])
    values = [[_terms(x) for x in row] for row in coords]
    conjugates = [[_terms(table.field.galois_coords(x, -1)) for x in row] for row in coords]
    sizes = [c.size for c in table.classes]

    def expect(total):
        return [total] + [0] * (len(phi) - 2)

    for a, row_a in enumerate(values):
        weighted = [[(i, size * x) for i, x in v] for size, v in zip(sizes, row_a)]
        for b, conj_b in enumerate(conjugates):
            if _reduced_sum(zip(weighted, conj_b), phi) != expect(n if a == b else 0):
                raise ArithmeticError("row orthogonality failed")
    for i, size in enumerate(sizes):
        for j in range(len(sizes)):
            total = _reduced_sum(((row[i], crow[j]) for row, crow in zip(values, conjugates)),
                                 phi)
            if total != expect(n // size if i == j else 0):
                raise ArithmeticError("column orthogonality failed")


def _terms(x):
    """The nonzero (power, coefficient) pairs of a coordinate vector."""
    return [(i, c) for i, c in enumerate(x) if c]


def _reduced_sum(pairs, phi):
    """Sum of x*y over pairs of integer polynomials given by their terms,
    reduced modulo monic phi."""
    deg = len(phi) - 1
    acc = [0] * (2 * deg - 1)
    for x, y in pairs:
        for i, a in x:
            for j, b in y:
                acc[i + j] += a * b
    for top in range(len(acc) - 1, deg - 1, -1):
        c = acc[top]
        if c:
            for i in range(deg):
                acc[top - deg + i] -= c * phi[i]
    return acc[:deg]


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

    conj_rows = [tuple(v.conjugate() for v in chi.values) for chi in table.characters]

    mults = []
    for conj_values in conj_rows:
        total = field(0)
        for l in range(k):
            total = total + table.classes[l].size * traces[l] * conj_values[l]
        m = (total * Fraction(1, rho.order())).rational_value()
        if m.denominator != 1 or m < 0:
            raise ArithmeticError("multiplicity is not a nonnegative integer")
        mults.append(int(m))

    conj_index = {}
    for i, conj_values in enumerate(conj_rows):
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
            _require(m % 2 == 0, "odd multiplicity of a quaternionic constituent")
            out.append(IsotypicClass((chi.label,), "quaternionic", d, m, m * d, True))
        else:
            j = conj_index[i]
            used.update((i, j))
            if m == 0 and mults[j] == 0:
                continue
            _require(mults[j] == m, "complex conjugate constituents differ in multiplicity")
            labels = tuple(sorted((chi.label, table.characters[j].label)))
            out.append(IsotypicClass(labels, "complex", d, m, 2 * m * d, True))

    report = IsotypicReport(rho.rank, tuple(out))
    if report.total_dim != rho.rank:
        raise ArithmeticError("isotypic dimensions do not sum to the rank")
    return report
