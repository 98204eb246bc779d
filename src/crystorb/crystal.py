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
along its Schreier tree.  One kernel reads a coboundary L(g)u_h + u_g - u_gh
by coordinate rows over all h along g's Cayley row: it builds the 2-cocycle
of a vector system, and checks a cocycle f as |G| f = dU for its row sums
U_g = sum over h of f(g, h).  Every loop that applies all of G to one
vector, the translations and the defects among them, reads
`MatrixGroup.images`.  Fractions occur only in the parsed input, in a
lattice basis change and in the equivalence witness.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import lcm
from operator import add, floordiv, mod, mul, sub

from . import exactla, fieldlin
from .groupcore import DEFAULT_ORDER_BOUND, MatrixGroup, _require, closure

F = Fraction


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
        return CrystData(rank, tuple((tuple(map(tuple, lin)), tuple(F(t) for t in trans))
                                     for lin, trans in generators))


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

    def linear(self, i):
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
        L_minus_I = [[x - (j == k) for k, x in enumerate(row)]
                     for j, row in enumerate(self.linear(i))]
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
                     for a, b in zip(exactla.mul_vec(self.linear(i), num), self.numerators[i]))

    @property
    def n(self):
        if self.rank % 2 != 0:
            raise ValueError("odd lattice rank has no complex dimension")
        return self.rank // 2


def verify_crystallographic(data: CrystData, bound=DEFAULT_ORDER_BOUND) -> CrystGroup:
    """Validate the crystallographic axioms and return the finished group.

    One closure of the linear parts: the point group must be finite, else
    ExceedsBound propagates.  The u_g, integer numerators over the lcm N of
    the generators' denominators, are read off its product table.  Nothing
    outside the lattice Z^r may act trivially: KernelTooBig carries the
    nonzero defects on G x S.  With none, the vector system is a cocycle
    (see VectorSystem.is_consistent)."""
    lin_group = closure([g for g, _ in data.generators], bound=bound, rank=data.rank)
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
        new_lin = fieldlin.mat_mul(P_inv, fieldlin.mat_mul(lin, P))
        _require(all(x.denominator == 1 for row in new_lin for x in row),
                 "enlarged lattice is not stable under the action")
        new_gens.append(([[x.numerator for x in row] for row in new_lin],
                         [sum(map(mul, row, trans)) for row in P_inv]))
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
    H = exactla.hnf(rows)
    _require(all(H[i][i] != 0 for i in range(rank)),
             "translations do not generate a rank-r lattice")
    # column j of P is the j-th HNF basis row, rescaled
    return tuple(tuple(F(H[j][i], den) for j in range(rank)) for i in range(rank))


class ExtensionCocycle:
    """A normalized integer 2-cocycle f: G x G -> Z^r."""

    def __init__(self, group, values):
        self.group = group
        self.values = values

    def validate(self):
        """Raise CocycleViolation unless f, an integer vector of lattice rank
        on each pair of G x G, is a normalized 2-cocycle; return its row sums
        U_g = sum over h of f(g, h).

        Normalization f(g,1) = f(1,g) = 0 is checked for every g, then
        |G| f(g,h) = L(g)U_h + U_g - U_gh on G x G, row by row: summing the
        identity f(a,b) + f(ab,c) = L(a)f(b,c) + f(a,bc) over c gives it, and
        a coboundary is a cocycle.  A failing f fails the identity at some
        (a, s, c) with s a generator (Light's associativity test); a rescan
        of the generators names the first such triple in the order (s, a, c)."""
        g = self.group
        n = g.order()
        vals = self.values
        for i in range(n):
            if any(vals[(i, 0)]) or any(vals[(0, i)]):
                raise CocycleViolation("cocycle is not normalized")
        # rows[i][a][h] = f(i, h)_a
        rows = [list(zip(*map(vals.__getitem__, zip(repeat(i), range(n))))) for i in range(n)]
        sums = [tuple(map(sum, r)) for r in rows]
        for f_rows, d_rows in zip(rows, _coboundaries(g, sums)):
            if any(list(map(mul, fa, repeat(n))) != da for fa, da in zip(f_rows, d_rows)):
                for k in range(len(g.generators)):
                    self._rescan(k)
                raise ArithmeticError("cocycle fails as a coboundary at no triple")
        return sums

    def _rescan(self, k):
        """Raise CocycleViolation at the first triple (a, s, c), in the order
        a, c, that fails the cocycle identity, for the k-th generator s."""
        g, vals = self.group, self.values
        s = g.generators[k]
        s_row = g.cayley_row(s)
        for a, row in enumerate(g.right):
            la = g.elements[a]
            own = vals[(a, s)]
            for c, sc in enumerate(s_row):
                lhs = exactla.mul_vec(la, vals[(s, c)])
                rest = vals[(a, sc)]
                mid = vals[(row[k], c)]
                if any(x - y + z - w for x, y, z, w in zip(lhs, mid, rest, own)):
                    raise CocycleViolation(f"cocycle identity fails at {(a, s, c)}")


def _coboundaries(group, num):
    """For each i in G in order, the coordinate rows over h in G of
    L(i)u_h + u_i - u_{ih}, num[h] the numerators of u_h: row a of L(i)
    times the coordinate rows of u, plus u_i's a-th coordinate, minus the
    a-th coordinate row read along i's Cayley row."""
    coords = list(zip(*num))        # coords[a][h] = a-th numerator of u_h
    for i, ui in enumerate(num):
        ih = group.cayley_row(i)
        rows = []
        for lrow, x0, ca in zip(group.elements[i], ui, coords):
            acc = map(sub, repeat(x0), map(ca.__getitem__, ih))
            for x, cb in zip(lrow, coords):
                if x:
                    acc = map(add, acc, map(mul, cb, repeat(x)))
            rows.append(list(acc))
        yield rows


def cocycle_from_system(vs: VectorSystem) -> ExtensionCocycle:
    """The integer 2-cocycle of a vector system: f(g,h) = L(g)u_h + u_g - u_{gh},
    each coordinate row of f(g, .) checked divisible by den as a whole."""
    g, den = vs.group, vs.den
    n = g.order()
    values = {}
    for i, rows in enumerate(_coboundaries(g, vs.numerators)):
        if any(any(map(mod, row, repeat(den))) for row in rows):
            raise CocycleViolation("vector system is not a valid realization")
        values.update(zip(zip(repeat(i), range(n)),
                          zip(*(map(floordiv, row, repeat(den)) for row in rows))))
    return ExtensionCocycle(g, values)


def affine_realization(linear: MatrixGroup, cocycle: ExtensionCocycle) -> VectorSystem:
    """Vector system of the extension: u_g = (1/|G|) sum over h of f(g, h),
    for a cocycle f on the group `linear`.

    `validate` checks |G| f = L(g)U_h + U_g - U_gh for U = |G| u, so the
    averaged system realizes f exactly; it is checked consistent before
    returning."""
    n = linear.order()
    sums = cocycle.validate()
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
    the witness w is returned when it exists.  For consistent systems both
    sides are 1-cocycles modulo Z^r, so the congruence is solved on the
    generators only; the witness is checked on every g.  Both steps run in
    integer numerators.
    """
    g = vs_a.group
    den = lcm(vs_a.den, vs_b.den)
    qa, qb = den // vs_a.den, den // vs_b.den
    diffs = [tuple(a * qa - b * qb for a, b in zip(na, nb))
             for na, nb in zip(vs_a.numerators, vs_b.numerators)]
    gens = dict.fromkeys(g.generators)
    M = [[x - (i == j) for j, x in enumerate(row)]
         for s in gens for i, row in enumerate(g.elements[s])]
    solved = exactla.solve_affine_congruence(M, den, [x for s in gens for x in diffs[s]])
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
