"""Finite integer matrix groups: closure from generators, conjugacy classes,
exact character tables, Frobenius-Schur indicators, isotypic dimensions.

The closure computes no determinant: every generator must have a left
inverse inside its finite closure, read off the product table.

Every group comes from `closure`, and its generating set S, the images of
the given generators, generates it.  No matrix is multiplied, before or
after the group is built.  The closure first forms the orbit O of the unit
rows under v -> v*s for s in S, (|O| - r)*|S| row products, since e_i*s is
row i of s; O is the set of rows of all elements, so |O| <= r|G|, and each
generator permutes it.  An element is keyed by the tuple of the orbit
indices of its rows, and w*s is read off by r lookups in the permutation of
s; the element itself is the tuple of those rows, shared with O.  Group
products are index lookups too: each group records the index of every
product w*s (an n x |S| table) and a word over S for every element, so a
product g*h walks h's word through the table.  A whole row g*G is one walk
of the Schreier tree (`MatrixGroup.tree`), one lookup per element; the same
walk carries any value defined along the generators, such as the
translations of a crystallographic group, to all of G.  `MatrixGroup.images`
carries one vector v to every L(g)v: one dot product per orbit row, then r
lookups per element.

Every power question is read off the power map `MatrixGroup.power_classes`,
one walk of the powers of each class representative: an element's order,
its inverse class, its square class, the exponent and the Galois images of
a character row.

Character tables are computed by the class-sum eigenvector method over a
prime field F_p with p = 1 (mod exponent), then lifted to exact cyclotomic
values by root-of-unity multiplicity recovery (J. D. Dixon, Numer. Math.
10, 1967): for a class representative g of order o, a Fourier sum over
s, t < o of chi(g^s) gives the multiplicity of each eigenvalue
zeta_e^(t e/o).  The sum runs once per Galois class, the classes whose
elements generate conjugate cyclic subgroups: the others read the same
multiplicities off the power map.  Only one character per Galois class of
characters is lifted (G. J. A. Schneider, J. Symbolic Comput. 9, 1990): a
conjugate chi^(a) is chi read along the power map, chi^(a)(g) = chi(g^a).
The split works on plain ints mod p: each eigenspace is a basis that is the
identity on its pivot columns, the class matrix restricted to it is read
off the rows its pivots name, in class coordinates, and each eigenvalue
costs one `fieldlin.rref` with the prime given.  All published values are
exact; F_p only ever appears internally.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm
from operator import mul

from . import exactla, fieldlin
from .cyclo import CycloField

DEFAULT_ORDER_BOUND = 512


class ExceedsBound(Exception):
    """The closure passed the configured group-order bound."""


class SingularGenerator(ValueError):
    """Generator `index` has no left inverse in its finite closure."""

    def __init__(self, index):
        super().__init__(f"generator {index} is not invertible")
        self.index = index


def _require(cond, msg):
    """A self-check that stays on under `python -O`."""
    if not cond:
        raise ArithmeticError(msg)


class MatrixGroup:
    """A finite group of invertible integer matrices of fixed rank, each
    element a tuple of int row tuples.

    Built by `closure`, which passes the generating set S it closed, the
    table right[w][k] = index of w*S[k], a word over S for each element, the
    orbit of the unit rows and, for each element, the orbit indices of its
    rows.  Elements are stored in a deterministic order: breadth-first
    over generator words, ties within a word length broken lexicographically
    by matrix entries.  The identity is always element 0.

    Each group computes its invariants once, on first use, and keeps them as
    cached properties, freed with the group: its conjugacy classes and the
    class of every element, its power map and Galois class maps, its
    character table and its isotypic report.
    """

    def __init__(self, rank, elements, generators, right, words, orbit, row_keys):
        self.rank = rank
        self.elements = tuple(elements)
        self.generators = generators
        self.right = right
        self._words = words
        self.orbit = orbit
        self.row_keys = row_keys

    def order(self):
        return len(self.elements)

    def images(self, v):
        """[L(g)v for g in G]: one dot product per orbit row, then each
        element's rows looked up."""
        if len(v) != self.rank:
            raise ValueError("shape mismatch")
        dots = [sum(map(mul, row, v)) for row in self.orbit]
        return [tuple(map(dots.__getitem__, key)) for key in self.row_keys]

    @cached_property
    def tree(self):
        """The Schreier tree of S: an edge (x, w, k), x = w*S[k], for each x
        other than 1, reached first as `right` is scanned breadth first from
        1.  Parents come first: one pass carries a value to all of G."""
        seen = [True] + [False] * (self.order() - 1)
        queue, edges = [0], []
        for w in queue:
            for k, x in enumerate(self.right[w]):
                if not seen[x]:
                    seen[x] = True
                    queue.append(x)
                    edges.append((x, w, k))
        return tuple(edges)

    def cayley_row(self, i):
        """[i*g for g in G]: i*(w*s) = (i*w)*s along each tree edge."""
        row = [i] * self.order()
        right = self.right
        for x, w, k in self.tree:
            row[x] = right[row[w]][k]
        return row

    def mul(self, i, j):
        right = self.right
        for k in self._words[j]:
            i = right[i][k]
        return i

    def inv(self, i):
        """The inverse of i, its last power before 1: one walk of its powers.
        Classes read their inverse class off `power_classes` instead."""
        return self._powers(i)[-2]

    def element_order(self, i):
        return len(self.power_classes[self.class_index[i]])

    def _powers(self, a):
        """[a^0, a^1, ..., a^o] with a^o the identity, o the order of a."""
        powers = [0, a]
        while powers[-1] != 0:
            powers.append(self.mul(powers[-1], a))
        return powers

    @cached_property
    def classes(self):
        """The conjugacy classes, ordered by smallest member index."""
        return tuple(conjugacy_classes(self))

    @cached_property
    def class_index(self):
        """class_index[g] is the position in `classes` of the class of g."""
        index = [None] * self.order()
        for ci, c in enumerate(self.classes):
            for m in c.members:
                index[m] = ci
        return tuple(index)

    @cached_property
    def power_classes(self):
        """The power map: for each class, the classes of h^0, ..., h^(o-1)
        for its representative h of order o, the same for every member.  An
        entry's length is the order, its last member the inverse class and
        its member at 2 mod o the square class."""
        class_of = self.class_index
        return tuple(tuple(class_of[x] for x in self._powers(c.representative)[:-1])
                     for c in self.classes)

    @cached_property
    def galois_maps(self):
        """The class maps g -> g^a for the units a mod the exponent, distinct,
        identity first: the image of a character row under zeta -> zeta^a is
        the row read through one, chi^(a)(g) = chi(g^a)."""
        e = self.exponent()
        return tuple(dict.fromkeys(tuple(pc[a % len(pc)] for pc in self.power_classes)
                                   for a in range(1, e + 1) if gcd(a, e) == 1))

    @cached_property
    def table(self):
        """The exact character table."""
        return character_table(self)

    @cached_property
    def isotypic(self):
        """The real isotypic report of the lattice representation."""
        return real_isotypic_dimensions(self, self.table)

    def exponent(self):
        return lcm(*map(len, self.power_classes))


def _exceeds(bound):
    return ExceedsBound(f"closure exceeded {bound} elements; group is not finite "
                        f"or the bound is too small")


def _unit_row_orbit(gens, r, bound):
    """The orbit O of the r unit rows under v -> v*s for s in gens, sorted,
    with acts[k][i] = the index of O[i]*gens[k] and the indices of the unit
    rows.  O holds the rows of every product of generators, so a finite
    closure of n elements has |O| <= r*n: ExceedsBound once |O| > r*bound.
    e_i*s is row i of s, so only the other |O| - r rows are multiplied."""
    zero = (0,) * r
    rows = [zero[:i] + (1,) + zero[i + 1:] for i in range(r)]
    index = {v: i for i, v in enumerate(rows)}
    acts = [[] for _ in gens]
    cols = [tuple(zip(*g)) for g in gens]
    times = exactla.mul_vec
    limit = r * bound
    for j, v in enumerate(rows):        # grows while it is scanned: breadth first
        images = [g[j] for g in gens] if j < r else [times(c, v) for c in cols]
        for w, act in zip(images, acts):
            i = index.get(w)
            if i is None:
                i = index[w] = len(rows)
                rows.append(w)
                if i >= limit:
                    raise _exceeds(bound)
            act.append(i)
    # renumber in sorted row order: comparing index tuples then compares
    # matrices by their entries
    order = sorted(range(len(rows)), key=rows.__getitem__)
    pos = [0] * len(rows)
    for new, old in enumerate(order):
        pos[old] = new
    return ([rows[i] for i in order], [[pos[act[i]] for i in order] for act in acts],
            tuple(pos[:r]))


def closure(generators, bound=DEFAULT_ORDER_BOUND, rank=None):
    """Close a list of integer generator matrices (rows) under
    multiplication.

    Every element is found as a tuple of indices into the orbit O of the unit
    rows (see `_unit_row_orbit`), and w*s is r lookups in the map of O that s
    induces; no matrix product is formed.  Raises ExceedsBound once |O|
    passes r*bound or more than `bound` distinct elements appear, which is
    how non-finite inputs surface, and SingularGenerator when the finite
    closure holds no w with w*g = 1 for a generator g, all square of one
    rank.  With none it returns the trivial group of rank `rank`, generated
    by its identity.  Every product w*g it forms is recorded by index, so
    the group it returns multiplies by lookup.
    """
    gens = [tuple(map(tuple, g)) for g in generators]
    if not gens:
        ident = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
        return MatrixGroup(rank, [ident], (0,), [(0,)], [()], ident, [tuple(range(rank))])
    r = len(gens[0])
    orbit, acts, unit = _unit_row_orbit(gens, r, bound)
    index = {unit: 0}
    keys = [unit]
    words = [()]
    right = []          # keys of keys[w] * gens[k], made indices below
    start = 0
    while start < len(keys):
        level = {}
        for w in range(start, len(keys)):
            row = []
            key_w = keys[w]
            for k, act in enumerate(acts):
                key = tuple(map(act.__getitem__, key_w))
                if key not in index and key not in level:
                    level[key] = words[w] + (k,)
                    if len(index) + len(level) > bound:
                        raise _exceeds(bound)
                row.append(key)
            right.append(row)
        start = len(keys)
        for key in sorted(level):
            index[key] = len(keys)
            keys.append(key)
            words.append(level[key])

    right = [tuple(map(index.__getitem__, row)) for row in right]
    # a finite monoid in which each generator has a left inverse is a group,
    # and an integer matrix with an integer inverse has det +-1
    for k, column in enumerate(zip(*right)):
        if 0 not in column:
            raise SingularGenerator(k)
    elements = [tuple(map(orbit.__getitem__, key)) for key in keys]
    return MatrixGroup(r, elements, right[0], right, words, orbit, keys)


class ConjugacyClass:
    def __init__(self, representative, members, size):
        self.representative = representative
        self.members = members
        self.size = size


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


class Character:
    def __init__(self, label, degree, values, fs_indicator):
        self.label = label
        self.degree = degree
        self.values = values            # one Cyclo per conjugacy class
        self.fs_indicator = fs_indicator

    def __eq__(self, other):
        return type(other) is Character and vars(self) == vars(other)


class CharacterTable:
    def __init__(self, group, classes, field, characters):
        self.group = group
        self.classes = classes
        self.field = field
        self.characters = characters

    def __eq__(self, other):
        return type(other) is CharacterTable and vars(self) == vars(other)


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

def character_table(group: MatrixGroup) -> CharacterTable:
    """Exact complex character table with Frobenius-Schur indicators.

    Each eigenline of `_eigenlines` is one character mod p.  One character
    per Galois class of characters is lifted, by one Fourier sum per Galois
    class of elements (see `_galois_bases` and `_lift`), so its value at
    g^-1 is the complex conjugate of its value at g by construction.  Each
    conjugate chi^(a), a a unit mod the exponent, is read along the power
    map, chi^(a)(g) = chi(g^a), and must be another eigenline's character
    mod p.  The table is checked square and row-orthogonal, exactly, before
    returning; the column relations follow.
    """
    n = group.order()
    classes = group.classes
    k = len(classes)
    e = group.exponent()
    field = CycloField(e)
    p = _dixon_prime(n, e)
    z = _root_of_unity(p, e) if e > 1 else 1
    pow_classes = group.power_classes
    inv_class = [pc[-1] for pc in pow_classes]
    size_inv = [pow(c.size, p - 2, p) for c in classes]
    bases = _galois_bases(pow_classes)
    z_powers = [pow(z, t, p) for t in range(e)]
    # for each element order o, row t holds z^(-u t e/o) / o for u < o
    fourier = {}
    for o in set(map(len, pow_classes)):
        o_inv, step = pow(o, p - 2, p), e // o
        fourier[o] = [[z_powers[-u * t * step % e] * o_inv % p for u in range(o)]
                      for t in range(o)]
    degrees, chis = [], []
    for v in _eigenlines(group, p):
        v0inv = pow(v[0], p - 2, p)
        v = [(x * v0inv) % p for x in v]
        s = 0
        for i in range(k):
            s = (s + v[i] * v[inv_class[i]] * size_inv[i]) % p
        d2 = (n * pow(s, p - 2, p)) % p
        d = next((x for x in range(1, p) if (x * x) % p == d2 and x <= isqrt(n)), None)
        if d is None:
            raise ArithmeticError("degree recovery failed")
        degrees.append(d)
        chis.append(tuple((d * v[i] * size_inv[i]) % p for i in range(k)))

    index = {chi_mod: i for i, chi_mod in enumerate(chis)}
    lifted = [None] * k
    for i, chi_mod in enumerate(chis):
        if lifted[i] is not None:
            continue
        values = _lift(chi_mod, degrees[i], pow_classes, bases, fourier, p, field)
        _require(values[0].rational_value() == degrees[i], "character degree mismatch")
        lifted[i] = values
        for image in group.galois_maps:
            j = index.get(tuple(map(chi_mod.__getitem__, image)))
            if j is None:
                raise ArithmeticError("Galois conjugate of a character is not an eigenline")
            if lifted[j] is None:
                lifted[j] = [values[c] for c in image]
    rows = list(zip(degrees, lifted))

    _require(sum(d * d for d, _ in rows) == n, "squared degrees do not sum to |G|")

    # deterministic ordering: trivial character first, then degree, then values
    def sort_key(row):
        d, values = row
        trivial = all(val == 1 for val in values)
        return (not trivial, d, tuple((val.num, val.den) for val in values))

    rows.sort(key=sort_key)

    characters = []
    for label_i, (d, values) in enumerate(rows):
        fs = _indicator(group, values)
        _require(fs in (-1, 0, 1), "Frobenius-Schur indicator out of range")
        characters.append(Character(f"chi{label_i}", d, tuple(values), int(fs)))

    table = CharacterTable(group, classes, field, tuple(characters))
    _verify_orthogonality(table)
    return table


def _eigenlines(group, p):
    """The k common eigenlines over F_p of the class matrices M_1, M_2, ...,
    each as one vector of ints mod p, k the number of classes.

    Row a of M_j holds, for each class l, the number of pairs x in C_j,
    y in C_a with xy in C_l, divided by |C_l|.  Each space is kept as a
    basis v_1, v_2, ... with pivot columns P, v_l 1 at P_l and 0 at the
    other pivots, so for its basis matrix B (columns the basis) B restricted
    to the rows P is the identity, and the R with M_j B = B R is (M_j B)
    restricted to the rows P: only the rows of M_j that some pivot names
    are built, |C_a| |C_j| products each.  R is read in class coordinates:
    R[i][l] = M_j[P_i][P_l] + sum over the free columns m of M_j[P_i][m]
    v_l[m], and an eigenvector y of R is the vector with y_l at P_l and
    sum_l y_l v_l[m] at each free m.  The first space, all of F_p^k, has no
    free column and takes no product.  Each eigenvalue lambda costs one
    reduction of R - lambda I: its kernel basis, free variables set to one,
    is 1 at its own free column and 0 at the other free columns, so the
    free columns q, as P_q, are the pivots of the eigenspace."""
    classes = group.classes
    class_of = group.class_index
    k = len(classes)
    spaces = [([[int(a == b) for a in range(k)] for b in range(k)], list(range(k)))]
    j = 1
    while j < k and any(len(sp) > 1 for sp, _ in spaces):
        members = classes[j].members
        rows = {}
        for a in {a for sp, piv in spaces if len(sp) > 1 for a in piv}:
            counts = [0] * k
            for y in classes[a].members:
                for x in members:
                    counts[class_of[group.mul(x, y)]] += 1
            _require(all(count % c.size == 0 for count, c in zip(counts, classes)),
                     "class structure constant is not integral")
            rows[a] = [count // c.size % p for count, c in zip(counts, classes)]
        refined = []
        for sp, piv in spaces:
            if len(sp) == 1:
                refined.append((sp, piv))
                continue
            pivots = set(piv)
            free = [m for m in range(k) if m not in pivots]
            cols = [[v[m] for v in sp] for m in free]       # the basis at the free columns
            R = [[rows[a][q] for q in piv] for a in piv]
            if free:
                tails = list(zip(*cols))                    # v_l at the free columns
                R = [[(x + sum(map(mul, heads, tail))) % p for x, tail in zip(r, tails)]
                     for r, heads in zip(R, ([rows[a][m] for m in free] for a in piv))]
            charpoly = fieldlin.charpoly(R, p)
            for lam in range(p):
                if _poly_at(charpoly, lam, p):
                    continue
                shifted = [[x - lam if i == b else x for b, x in enumerate(row)]
                           for i, row in enumerate(R)]
                red, qs = fieldlin.rref(shifted, p)
                kernel = [q for q in range(len(piv)) if q not in qs]
                basis = []
                for q in kernel:
                    y = [0] * len(piv)
                    y[q] = 1
                    for r, pc in zip(red, qs):
                        y[pc] = -r[q] % p
                    v = [0] * k
                    for pq, x in zip(piv, y):
                        v[pq] = x
                    for m, col in zip(free, cols):
                        v[m] = sum(map(mul, y, col)) % p
                    basis.append(v)
                refined.append((basis, [piv[q] for q in kernel]))
        spaces = refined
        j += 1
    if len(spaces) != k or any(len(sp) != 1 for sp, _ in spaces):
        raise ArithmeticError("class algebra did not split into eigenlines")
    return [sp[0] for sp, _ in spaces]


def _galois_bases(pow_classes):
    """For each class c, (b, s): b the first class whose representative h
    has h^s in c for some s coprime to the order o of h, and the least such
    s, from the power map `pow_classes`.  Classes that generate conjugate
    cyclic subgroups share their b, the first of them, which is its own base
    with s = 1."""
    bases = [None] * len(pow_classes)
    for b, pow_class in enumerate(pow_classes):
        if bases[b] is None:
            o = len(pow_class)
            bases[b] = (b, 1)
            for s in range(2, o):
                if gcd(s, o) == 1 and bases[pow_class[s]] is None:
                    bases[pow_class[s]] = (b, s)
    return bases


def _lift(chi_mod, d, pow_classes, bases, fourier, p, field):
    """The exact class values of the degree-d character chi_mod (mod p),
    pow_classes the power map (`MatrixGroup.power_classes`), bases from
    `_galois_bases`, and fourier[o], for each element order o, the rows
    z^(-u t e/o) / o (u < o) of the Fourier sum over F_p, z an element of
    order e in F_p: rows built once per table.

    A Fourier sum runs at each base class only, one dot product per row: it
    gives the multiplicity m_t of each eigenvalue zeta_e^t of its
    representative h.  A class with base (b, s) holds h^s, whose eigenvalues
    are those of h to the s, so its value is sum m_t zeta_e^(t s).  Its own
    Fourier sum would give the same numbers, permuted: the power classes of
    h^s are those of h with each exponent times s, so m'_t = m_(t s^-1),
    and the bound m_t <= d checks them all."""
    e = field.order
    values = []
    exps_at = {}
    for c, (b, s) in enumerate(bases):
        if b != c:
            values.append(field.from_exponents({t * s % e: m for t, m in exps_at[b].items()}))
            continue
        pow_class = pow_classes[c]
        step = e // len(pow_class)
        chis = [chi_mod[x] for x in pow_class]
        exps = exps_at[c] = {}
        for t, row in enumerate(fourier[len(pow_class)]):
            m_t = sum(map(mul, chis, row)) % p
            if m_t > d:
                raise ArithmeticError("root-of-unity multiplicity out of range")
            if m_t:
                exps[t * step] = m_t
        values.append(field.from_exponents(exps))
    return values


def _verify_orthogonality(table: CharacterTable):
    """Check that the table is square and its rows orthogonal, exactly, in
    integer arithmetic.

    Character values are algebraic integers and 1, zeta, ..., zeta^(phi(e)-1)
    is a Z-basis of Z[zeta_e], so every coordinate must be an integer and each
    relation is an identity of integer polynomials modulo the monic Phi_e.
    Each value is packed into one integer, its polynomial at X = 2^shift
    (Kronecker substitution), so a row relation is one sum of products,
    unpacked into signed coefficients and reduced modulo Phi_e.

    The conjugate of chi(g) is read as chi(g^-1), at the inverse class: for
    a table from `character_table` the two are equal entry by entry, both
    built from the same base exponents by `_lift`.  The relation checked,
    S_ab = sum over C of |C| chi_a(C) chi_b(C^-1) = |G| delta_ab, is
    symmetric in a and b (C -> C^-1 keeps |C|), so only the k(k+1)/2 pairs
    a <= b are summed.  The column relations follow: with X the table, W =
    diag(|C|) and P the inversion of classes, X W P X^T = |G| I makes X
    invertible and gives X^T X = |G| P W^-1, i.e. sum over chi of chi(C)
    chi(D^-1) = |G| / |C| delta_CD.
    """
    group = table.group
    n = group.order()
    field = table.field
    k = len(table.classes)
    _require(len(table.characters) == k, "character table is not square")
    if any(v.den != 1 for chi in table.characters for v in chi.values):
        raise ArithmeticError("character value is not an algebraic integer")
    coords = [[v.num for v in chi.values] for chi in table.characters]
    top = max(abs(c) for row in coords for x in row for c in x)
    # a coefficient of sum over C of |C| chi_a(C) chi_b(C^-1), before
    # reduction, is at most |G| deg(Phi_e) top^2 < 2^(shift - 1) in absolute value
    shift = (2 * n * field.degree * top * top).bit_length()
    packed = [[_pack(x, shift) for x in row] for row in coords]
    weighted = [[c.size * x for c, x in zip(table.classes, row)] for row in packed]
    inverse = [pc[-1] for pc in group.power_classes]
    at_inverse = [list(map(row.__getitem__, inverse)) for row in packed]
    for a, x in enumerate(weighted):
        for b in range(a, k):
            want = [n if a == b else 0] + [0] * (field.degree - 1)
            total = _unpack(sum(map(mul, x, at_inverse[b])), shift, 2 * field.degree - 1)
            if field.reduce(total) != want:
                raise ArithmeticError("row orthogonality failed")


def _pack(coords, shift):
    """The integer polynomial with coefficients `coords` at X = 2^shift."""
    acc = 0
    for c in reversed(coords):
        acc = (acc << shift) + c
    return acc


def _unpack(value, shift, count):
    """The `count` signed coefficients, each of absolute value below
    2^(shift - 1), of the polynomial whose value at X = 2^shift is `value`."""
    half, mask = 1 << (shift - 1), (1 << shift) - 1
    coeffs = []
    for _ in range(count):
        c = value & mask
        if c >= half:
            c -= mask + 1
        coeffs.append(c)
        value = (value - c) >> shift
    _require(value == 0, "packed orthogonality sum exceeds its width")
    return coeffs


def _indicator(group, values):
    """(1/|G|) sum over classes C of |C| chi(C^2) for the class values of chi,
    summed on their integer coordinates (den 1, as _lift builds them)."""
    sizes = [c.size for c in group.classes]
    squares = [values[pc[2 % len(pc)]].num for pc in group.power_classes]
    total = [sum(map(mul, sizes, coords)) for coords in zip(*squares)]
    _require(not any(total[1:]), "Frobenius-Schur indicator is not rational")
    return Fraction(total[0], group.order())


class IsotypicClass:
    """One real-irreducible class of the lattice representation."""

    def __init__(self, labels, fs_type, degree, multiplicity, complex_dim,
                 admits_complex_structure):
        self.labels = labels                # constituent complex-character labels
        self.fs_type = fs_type              # "real" | "complex" | "quaternionic"
        self.degree = degree                # degree of one complex constituent
        self.multiplicity = multiplicity    # multiplicity of one complex constituent
        self.complex_dim = complex_dim      # dim of the full class inside lattice tensor C
        self.admits_complex_structure = admits_complex_structure

    def __eq__(self, other):
        return type(other) is IsotypicClass and vars(self) == vars(other)


class IsotypicReport:
    def __init__(self, rank, classes):
        self.rank = rank
        self.classes = classes

    def __eq__(self, other):
        return type(other) is IsotypicReport and vars(self) == vars(other)

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
    quaternionic classes always qualify.  `table` is rho's character table.
    """
    # |C| tr L(g) per class; the values are integer coordinates over den 1,
    # which _verify_orthogonality requires of the table
    weights = [c.size * sum(row[i] for i, row in enumerate(rho.elements[c.representative]))
               for c in table.classes]
    mults = []
    for chi in table.characters:
        # the multiplicity is real, so summing chi in place of conj chi gives it
        total = [sum(map(mul, weights, coords)) for coords in zip(*(v.num for v in chi.values))]
        m, r = divmod(total[0], rho.order())
        if r or m < 0 or any(total[1:]):
            raise ArithmeticError("multiplicity is not a nonnegative integer")
        mults.append(m)
    # conj chi(g) = chi(g^-1): the conjugate row is the row read at inverse classes
    index = {tuple(v.num for v in chi.values): i for i, chi in enumerate(table.characters)}
    inverse_class = [pc[-1] for pc in rho.power_classes]

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
            j = index.get(tuple(chi.values[l].num for l in inverse_class))
            if j is None:
                raise ArithmeticError("conjugate character missing from table")
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
