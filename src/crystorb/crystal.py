"""Crystallographic groups over the rationals: validation of the defining
axioms, vector systems, affine realizations by cocycle averaging, coboundary
equivalence of realizations, and torsion testing.

A group is presented by affine generators (integer linear part, rational
translation).  Internally everything is reduced modulo the lattice Z^r, so a
group element is a pair (linear part, translation in [0,1)^r) and the vector
system is stored on all of the finite quotient G, once, as integer
numerators over one denominator.  The group is closed once, on its linear
parts; translations, the pure translations outside Z^r and the cocycle
condition are all read off that closure's product table, the translations
along its Schreier tree.  The 2-cocycle of a vector system is built by
coordinate rows over all of G along Cayley rows of that tree, and Light's
test checks it as one packed integer equation per generator s and element
c.  Every loop that applies all of G to one vector, the translations and the
defects among them, reads `MatrixGroup.images`.  Fractions occur only in the
parsed input, in a lattice basis change and in the equivalence witness.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from math import lcm
from operator import add, floordiv, mod, mul, sub

from . import exactla, fieldlin
from .exactla import IntMatrix
from .groupcore import DEFAULT_ORDER_BOUND, ExceedsBound, MatrixGroup, _require, closure

F = Fraction


class NotFinite(Exception):
    """The point group closure exceeded its bound."""


class KernelTooBig(Exception):
    """Pure translations outside the lattice appeared; the conjugation
    action has kernel strictly larger than Z^r.  Carries every distinct one
    found, in scan order, as integer `numerators` over `den`, so
    normalize_action can absorb them.  The message names neither: `den` may
    have more digits than Python converts to a string."""

    def __init__(self, den, numerators):
        self.den = den
        self.numerators = tuple(numerators)
        super().__init__("a pure translation lies outside the lattice; "
                         "use normalize_action to absorb it")


class CocycleViolation(Exception):
    """A claimed 2-cocycle fails normalization or the cocycle identity."""


class CrystData:
    """Raw input: declared lattice rank plus affine generators."""

    def __init__(self, rank, generators):
        self.rank = rank
        self.generators = generators

    @staticmethod
    def make(rank, generators):
        return CrystData(rank, tuple(
            (lin if isinstance(lin, IntMatrix) else IntMatrix.from_rows(lin),
             tuple(F(t) for t in trans)) for lin, trans in generators))


class VectorSystem:
    """The map g -> u_g on all of G: u_g = numerators[g] / den, each
    coordinate reduced into [0, den)."""

    def __init__(self, group, den, numerators):
        self.group = group
        self.den = den
        self.numerators = numerators

    def is_consistent(self):
        """True iff L(g)u_h + u_g - u_{gh} lies in Z^r for all g, h in G.

        Checked on G x S for the group's generating set S (see _defects),
        plus u_1 in Z^r: the defect d is a coboundary, so
        L(g)d(h, s) - d(gh, s) + d(g, hs) - d(g, h) = 0, and with d(g, 1) =
        L(g)u_1 integrality extends to G x G by induction on the word of h.
        """
        g, num, den = self.group, self.numerators, self.den
        if any(x % den for x in num[0]):
            return False
        moved = [g.images(num[s]) for s in g.generators]
        return next(_defects(g, num, moved, den), None) is None


def _translations(group: MatrixGroup, moved, den):
    """Numerators over den of the u_g with u_1 = 0 and u_{w*s_k} = L(w)u_k +
    u_w (mod den) along each edge (w*s_k, w, k) of the group's Schreier
    tree; moved[k] = group.images(numerators of u_k)."""
    num = [(0,) * group.rank] * group.order()
    for x, w, k in group.tree:
        num[x] = tuple(map(mod, map(add, moved[k][w], num[w]), repeat(den)))
    return num


def _defects(group: MatrixGroup, num, moved, den):
    """Yield each nonzero d = L(w)u_k + u_w - u_{w*s_k} (mod den), for w in
    element order and every generator s_k; num[w] are the numerators of u_w
    and moved[k] = group.images(numerators of u_k).  With u_w from
    _translations, each d is a pure translation, and with Z^r the d generate
    the kernel of the map to the point group (Schreier's lemma)."""
    for w, row in enumerate(group.right):
        uw = num[w]
        for images, x in zip(moved, row):
            d = tuple(map(mod, map(sub, map(add, images[w], uw), num[x]), repeat(den)))
            if any(d):
                yield d


class CrystGroup(VectorSystem):
    """A validated crystallographic group with lattice Z^r: the point group
    with its vector system.  The class fixed sets are cached, once per
    group."""

    def __init__(self, group, den, numerators):
        if len(numerators) != group.order():
            raise ValueError("one translation per point-group element required")
        if any(numerators[0]):
            raise ValueError("identity element must carry zero translation")
        super().__init__(group, den, numerators)

    @property
    def rank(self):
        return self.group.rank

    def order(self):
        return self.group.order()

    def linear(self, i) -> IntMatrix:
        return self.group.elements[i]

    @cached_property
    def fixed_sets(self):
        """{g: fixed set of g} for the smallest g of each nontrivial class, in
        index order; Fix(h g h^-1) = h Fix(g) has the same shape."""
        return {c.representative: self.solve_fixed(c.representative)
                for c in self.group.classes[1:]}

    def solve_fixed(self, i):
        """The points the element i fixes: (L - I) v = -u (mod Z^r).  The
        package solves only class representatives, through `fixed_sets`."""
        L_minus_I = self.linear(i).add(IntMatrix.identity(self.rank).neg())
        return exactla.solve_mod_lattice(L_minus_I, self.den,
                                         tuple(-x for x in self.numerators[i]))

    def fixed_set(self, i):
        """The fixed set of the smallest conjugate of element i != 1."""
        g = self.group
        return self.fixed_sets[g.classes[g.class_index[i]].representative]

    def affine_image(self, i, num, den):
        """Numerators over den of the torus image of the point num/den under
        element i, reduced mod den; den is a multiple of self.den."""
        q = den // self.den
        return tuple((a + q * b) % den
                     for a, b in zip(self.linear(i).mul_vec(num), self.numerators[i]))

    @property
    def n(self):
        if self.rank % 2 != 0:
            raise ValueError("odd lattice rank has no complex dimension")
        return self.rank // 2


def verify_crystallographic(data: CrystData, bound=DEFAULT_ORDER_BOUND) -> CrystGroup:
    """Validate the crystallographic axioms and return the finished group.

    One closure of the linear parts: the point group must be finite.  The
    u_g, integer numerators over the lcm N of the generators' denominators,
    are read off its product table.  Nothing outside the lattice Z^r may act
    trivially: KernelTooBig carries the nonzero defects on G x S.  With none,
    the vector system is a cocycle (see VectorSystem.is_consistent)."""
    try:
        lin_group = closure([g for g, _ in data.generators], bound=bound, rank=data.rank)
    except ExceedsBound as exc:
        raise NotFinite(str(exc)) from exc
    shifts = [t for _, t in data.generators]
    den = lcm(*(x.denominator for t in shifts for x in t))
    moved = [lin_group.images([x.numerator * (den // x.denominator) for x in t])
             for t in shifts]
    num = _translations(lin_group, moved, den)
    pure = dict.fromkeys(_defects(lin_group, num, moved, den))
    if pure:
        raise KernelTooBig(den, pure)
    return CrystGroup(lin_group, den, tuple(num))


class NormalizedAction:
    """Result of absorbing pure translations into the lattice."""

    def __init__(self, group, basis_change, absorbed, changed):
        self.group = group
        self.basis_change = basis_change    # Fraction rows; columns: new basis, old coordinates
        self.absorbed = absorbed            # Fraction translations absorbed, old coordinates
        self.changed = changed


def normalize_action(data: CrystData, bound=DEFAULT_ORDER_BOUND) -> NormalizedAction:
    """Enlarge the lattice until the point group contains no translations.

    The defects that verify_crystallographic reports generate, with Z^r, the
    whole translation subgroup, which is G-stable; it becomes the lattice in
    one step and coordinates are rebased so the lattice is Z^r again.  The
    returned basis change P has the new basis vectors as columns (old
    coordinates): v_old = P v_new.  An enlarged lattice that is not G-stable,
    or a second defect, is an internal fault: unreachable for rational data.
    """
    rank = data.rank
    try:
        group = verify_crystallographic(data, bound)
        identity = tuple(tuple(F(int(i == j)) for j in range(rank)) for i in range(rank))
        return NormalizedAction(group, identity, (), False)
    except KernelTooBig as exc:
        den, pure = exc.den, exc.numerators
    P = _lattice_with(rank, den, pure)
    P_inv = fieldlin.inverse(P)
    new_gens = []
    for lin, trans in data.generators:
        new_lin = fieldlin.mat_mul(P_inv, fieldlin.mat_mul(lin.to_lists(), P))
        _require(all(x.denominator == 1 for row in new_lin for x in row),
                 "enlarged lattice is not stable under the action")
        new_gens.append((new_lin, [sum(map(mul, row, trans)) for row in P_inv]))
    try:
        group = verify_crystallographic(CrystData.make(rank, new_gens), bound)
    except KernelTooBig as exc:
        raise ArithmeticError(
            f"absorbed lattice still misses {exc.numerators[0]}/{exc.den}") from exc
    absorbed = tuple(tuple(F(x, den) for x in v) for v in pure)
    return NormalizedAction(group, P, absorbed, True)


def _lattice_with(rank, den, numerators):
    """Basis (as columns of Fraction rows) of Z^r + <v/den for v in
    numerators>, via HNF of the scaled generators."""
    rows = [[den if j == i else 0 for j in range(rank)] for i in range(rank)]
    rows += numerators
    H, _ = exactla.hnf(IntMatrix.from_rows(rows))
    _require(all(H.at(i, i) != 0 for i in range(rank)),
             "translations do not generate a rank-r lattice")
    # column j of P is the j-th HNF basis row, rescaled
    return tuple(tuple(F(H.at(j, i), den) for j in range(rank)) for i in range(rank))


class ExtensionCocycle:
    """A normalized integer 2-cocycle f: G x G -> Z^r."""

    def __init__(self, group, values):
        self.group = group
        self.values = values

    def validate(self):
        """Raise CocycleViolation unless f, an integer vector of lattice rank
        on each pair of G x G, is a normalized 2-cocycle: normalization
        f(g,1) = f(1,g) = 0 is checked for every g, the identity f(a,b) +
        f(ab,c) = L(a)f(b,c) + f(a,bc) on G x S x G for a generating set S
        only.  This is Light's associativity test on Z^r x_f G: the elements
        that associate in the middle position are closed under products and
        include Z^r and the lifts of S, which generate the extension.

        Each (s, c) is one integer equation over all a: F(h) stacks the
        f(a, h), F_s(c) the f(as, c) and L_k the k-th columns of the L(a),
        each vector packed by Kronecker substitution in fields wider than
        the entries' bound lets any sum reach, and F(s) + F_s(c) = sum over
        k of f(s,c)_k L_k + F(sc) holds iff it holds field by field.  The
        first s failing is rescanned triple by triple, so the error names
        the first failing triple in the order (s, a, c)."""
        g = self.group
        n, r = g.order(), g.rank
        vals = self.values
        for i in range(n):
            if any(vals[(i, 0)]) or any(vals[(0, i)]):
                raise CocycleViolation("cocycle is not normalized")
        top = max(map(abs, chain.from_iterable(vals.values())))
        ltop = max(abs(x) for m in g.elements for x in m.entries)
        # a field of F(s) + F_s(c) - sum f(s,c)_k L_k - F(sc) is below
        # (3 + r ltop) top in absolute value; every field lies below half
        bound = max((3 + r * ltop) * top, ltop)
        width = bound.bit_length() // 8 + 1
        half = 1 << (8 * width - 1)
        bias = int.from_bytes(half.to_bytes(width, "little") * (n * r), "little")

        def packed(ints):
            """The bytes of ints + half, `width` bytes each."""
            return b"".join(map(int.to_bytes, map(add, ints, repeat(half)),
                                repeat(width), repeat("little")))

        def stacked(data):
            return int.from_bytes(data, "little") - bias

        size = r * width        # data[h] holds f(a, h) for a in G, `size` bytes each
        data = [packed(chain.from_iterable(map(vals.__getitem__, zip(range(n), repeat(h)))))
                for h in range(n)]
        cols = [stacked(d) for d in data]
        lin_cols = [stacked(packed(chain.from_iterable(m.col_tuples[k] for m in g.elements)))
                    for k in range(r)]
        gens = [(s, [row[k] for row in g.right], g.cayley_row(s))   # a -> a*s, c -> s*c
                for s, k in {s: k for k, s in enumerate(g.generators)}.items()]
        failing = set()
        for c, col in enumerate(data):
            chunks = [col[i:i + size] for i in range(0, len(col), size)]
            for s, at_s, s_row in gens:
                shifted = stacked(b"".join(map(chunks.__getitem__, at_s)))
                if cols[s] + shifted != sum(map(mul, vals[(s, c)], lin_cols)) + cols[s_row[c]]:
                    failing.add(s)
        for s, at_s, s_row in gens:
            if s in failing:
                self._rescan(s, at_s, s_row)

    def _rescan(self, b, at_b, b_row):
        """Raise CocycleViolation at the first triple (a, b, c), in the
        order a, c, that fails the cocycle identity; at_b[a] = a*b and
        b_row[c] = b*c.  Finding none is an internal fault."""
        vals = self.values
        for a, ab in enumerate(at_b):
            la = self.group.elements[a]
            own = vals[(a, b)]
            for c, bc in enumerate(b_row):
                lhs = la.mul_vec(vals[(b, c)])
                rest = vals[(a, bc)]
                mid = vals[(ab, c)]
                if any(x - y + z - w for x, y, z, w in zip(lhs, mid, rest, own)):
                    raise CocycleViolation(f"cocycle identity fails at {(a, b, c)}")
        _require(False, "packed cocycle identity fails at no triple")


def cocycle_from_system(vs: VectorSystem) -> ExtensionCocycle:
    """The integer 2-cocycle of a vector system: f(g,h) = L(g)u_h + u_g - u_{gh}.

    Coordinate a of f(g, .) is built on all h at once: row a of L(g) times
    the coordinate rows of u, plus u_g's a-th coordinate, minus the a-th
    coordinate row read along g's Cayley row, checked divisible by den as a
    whole."""
    g, num, den = vs.group, vs.numerators, vs.den
    n = g.order()
    coords = list(zip(*num))        # coords[a][h] = a-th numerator of u_h
    values = {}
    for i in range(n):
        gh = g.cayley_row(i)
        rows = []
        for lrow, ui, ca in zip(g.elements[i].row_tuples, num[i], coords):
            acc = map(sub, repeat(ui), map(ca.__getitem__, gh))
            for x, cb in zip(lrow, coords):
                if x:
                    acc = map(add, acc, map(mul, cb, repeat(x)))
            acc = list(acc)
            if any(map(mod, acc, repeat(den))):
                raise CocycleViolation("vector system is not a valid realization")
            rows.append(map(floordiv, acc, repeat(den)))
        values.update(zip(zip(repeat(i), range(n)), zip(*rows)))
    return ExtensionCocycle(g, values)


def affine_realization(linear: MatrixGroup, cocycle: ExtensionCocycle) -> VectorSystem:
    """Vector system of the extension: u_g = (1/|G|) sum over h of f(g, h),
    for a cocycle f on the group `linear`.

    The averaged system satisfies L(g)u_h + u_g - u_{gh} = f(g,h) exactly,
    hence the cocycle condition modulo Z^r; both are checked before
    returning.  The first is checked on S x G for a generating set S: the
    difference of its two sides is a normalized 2-cocycle, which vanishes on
    G x G once it vanishes on S x G, by induction on word length.
    """
    cocycle.validate()
    n = linear.order()
    vals = cocycle.values
    # sums[g] = n u_g, an integer vector
    sums = [list(map(sum, zip(*map(vals.__getitem__, zip(repeat(i), range(n))))))
            for i in range(n)]
    # exact realization identity against the input cocycle
    for s in dict.fromkeys(linear.generators):
        lin = linear.elements[s]
        us = sums[s]
        for h, sh in enumerate(linear.cayley_row(s)):
            lhs = [x + a - b for x, a, b in zip(lin.mul_vec(sums[h]), us, sums[sh])]
            if lhs != [n * x for x in vals[(s, h)]]:
                raise CocycleViolation("averaged system does not realize the cocycle")
    vs = VectorSystem(linear, n, tuple(tuple(a % n for a in u) for u in sums))
    if not vs.is_consistent():
        raise CocycleViolation("averaged system fails the cocycle condition")
    return vs


class EquivalenceWitness:
    def __init__(self, equivalent, shift):
        self.equivalent = equivalent
        self.shift = shift      # w with u_g - u'_g = (L(g) - I) w (mod Z^r), or ()


def realizations_equivalent(vs_a: VectorSystem, vs_b: VectorSystem) -> EquivalenceWitness:
    """Decide coboundary equivalence of two vector systems on the same group.

    True iff some w in Q^r has u_g - u'_g = (L(g) - I) w (mod Z^r) for all g;
    the witness w is returned when it exists.  The congruence is solved and
    the witness checked in integer numerators.
    """
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
        return EquivalenceWitness(False, ())
    wden, w = solved
    q = wden // den     # confirm the witness over w's denominator
    for d, image in zip(diffs, g.images(w)):
        if any((x * q - y + z) % wden for x, y, z in zip(d, image, w)):
            raise AssertionError("congruence witness failed verification")
    return EquivalenceWitness(True, tuple(F(x, wden) for x in w))


class TorsionReport:
    def __init__(self, torsion_free, offenders):
        self.torsion_free = torsion_free
        self.offenders = offenders      # indices of nontrivial elements with fixed points


def is_torsion_free(group: CrystGroup) -> TorsionReport:
    """Torsion test: the group is torsion free iff no nontrivial element
    fixes a point of the torus, i.e. (L(g) - I) v = -u_g (mod Z^r) has no
    solution for every g != 1: one emptiness test per conjugacy class."""
    offenders = tuple(i for i in range(1, group.order())
                      if not group.fixed_set(i).is_empty())
    return TorsionReport(not offenders, offenders)
