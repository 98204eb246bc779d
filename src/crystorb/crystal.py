"""Crystallographic groups over the rationals: validation of the defining
axioms, vector systems, affine realizations by cocycle averaging, coboundary
equivalence of realizations, and torsion testing.

A group is presented by affine generators (integer linear part, rational
translation).  Internally everything is reduced modulo the lattice Z^r, so a
group element is a pair (linear part, translation in [0,1)^r) and the vector
system is stored on all of the finite quotient G.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import exactla
from .exactla import IntMatrix, RatMatrix, mod1_vec
from .groupcore import DEFAULT_ORDER_BOUND, ExceedsBound, MatrixGroup, closure

F = Fraction


class NotFinite(Exception):
    """The point group closure exceeded its bound."""


class KernelTooBig(Exception):
    """A pure translation outside the lattice appeared; the conjugation
    action has kernel strictly larger than Z^r.  Carries the offending
    translation so normalize_action can absorb it."""

    def __init__(self, translation):
        self.translation = tuple(translation)
        super().__init__(
            f"pure translation {self.translation} lies outside the lattice; "
            f"use normalize_action to absorb it")


class CocycleViolation(Exception):
    """A claimed 2-cocycle fails normalization or the cocycle identity."""


class NonLattice(Exception):
    """Adjoined translations fail to generate a discrete rank-r group.
    Unreachable for rational input data; kept for interface completeness."""


@dataclass(frozen=True)
class CrystData:
    """Raw input: declared lattice rank plus affine generators."""

    rank: int
    generators: tuple

    @staticmethod
    def make(rank, generators):
        gens = []
        for lin, trans in generators:
            lin = lin if isinstance(lin, IntMatrix) else IntMatrix.from_rows(lin)
            if lin.rows != rank or lin.cols != rank:
                raise ValueError("generator linear part has wrong shape")
            trans = tuple(F(t) for t in trans)
            if len(trans) != rank:
                raise ValueError("generator translation has wrong length")
            gens.append((lin, trans))
        return CrystData(rank, tuple(gens))


@dataclass(frozen=True)
class VectorSystem:
    """The map g -> u_g on all of G, translations reduced into [0,1)^r."""

    group: MatrixGroup
    translations: tuple

    def u(self, i):
        return self.translations[i]

    def cocycle_defect(self, i, j):
        """L(g_i) u_j + u_i - u_{ij}; integral for a valid system."""
        g = self.group
        lin = g.elements[i].to_rat()
        prod = g.mul(i, j)
        img = lin.mul_vec(self.translations[j])
        return tuple(a + b - c for a, b, c in
                     zip(img, self.translations[i], self.translations[prod]))

    def is_consistent(self):
        """True iff L(g)u_h + u_g - u_{gh} lies in Z^r for all g, h in G.

        Checked on S x G for a generating set S, plus u_1 in Z^r: the defect
        d obeys d(sg, h) = L(s)d(g, h) + d(s, gh) - d(s, g) and d(1, h) = u_1,
        so integrality extends to G x G by induction on word length.
        """
        g = self.group
        den = _common_denominator(self.translations)
        num = _numerators(self.translations, den)
        if any(x % den for x in num[0]):
            return False
        for s, row in _generator_products(g).items():
            lin = _rows(g.elements[s])
            us = num[s]
            for h, sh in enumerate(row):
                if any((x + a - b) % den for x, a, b in
                       zip(_apply(lin, num[h]), us, num[sh])):
                    return False
        return True


def _common_denominator(vectors):
    return lcm(*(x.denominator for v in vectors for x in v))


def _numerators(vectors, den):
    """Integer vectors N*v for rational vectors v with common denominator N."""
    return [tuple(x.numerator * (den // x.denominator) for x in v) for v in vectors]


def _rows(m: IntMatrix):
    return [m.row(i) for i in range(m.rows)]


def _apply(rows, v):
    return [sum(a * b for a, b in zip(row, v)) for row in rows]


def _generator_products(group: MatrixGroup):
    """{s: [s*h for h in G]} for the generating set S = group.generators, so
    every element is a word in S."""
    n = group.order()
    return {s: [group.mul(s, h) for h in range(n)] for s in group.generators}


class CrystGroup:
    """A validated crystallographic group with lattice Z^r."""

    def __init__(self, rank, group: MatrixGroup, translations):
        self.rank = rank
        self.group = group
        self.translations = tuple(mod1_vec(t) for t in translations)
        if len(self.translations) != group.order():
            raise ValueError("one translation per point-group element required")
        if any(x != 0 for x in self.translations[0]):
            raise ValueError("identity element must carry zero translation")

    def order(self):
        return self.group.order()

    def linear(self, i) -> IntMatrix:
        return self.group.elements[i]

    def u(self, i):
        return self.translations[i]

    @property
    def vector_system(self) -> VectorSystem:
        return VectorSystem(self.group, self.translations)

    def affine_image(self, i, point):
        """The torus image of `point` under element i, reduced into [0,1)^r."""
        lin = self.linear(i).to_rat()
        img = lin.mul_vec(tuple(F(x) for x in point))
        return mod1_vec(tuple(a + b for a, b in zip(img, self.u(i))))

    @property
    def n(self):
        if self.rank % 2 != 0:
            raise ValueError("odd lattice rank has no complex dimension")
        return self.rank // 2


def _affine_closure(data: CrystData, bound):
    """Close the affine generators modulo Z^r.

    Returns (elements, pure_translations) where elements maps linear-part
    entries to translations and pure_translations collects the nonzero
    translations found with identity linear part.
    """
    rank = data.rank
    ident = IntMatrix.identity(rank)
    zero = tuple(F(0) for _ in range(rank))
    table = {ident.entries: (ident, zero)}
    pure = {}
    frontier = [(ident, zero)]
    pair_bound = 4 * bound
    count = 1
    while frontier:
        new = []
        for lin, trans in frontier:
            for glin, gtrans in data.generators:
                nl = lin.mul(glin)
                nt = mod1_vec(tuple(a + b for a, b in
                                    zip(lin.to_rat().mul_vec(gtrans), trans)))
                key = nl.entries
                if key in table:
                    old = table[key][1]
                    if old != nt:
                        diff = mod1_vec(tuple(a - b for a, b in zip(nt, old)))
                        pure[diff] = True
                    continue
                table[key] = (nl, nt)
                new.append((nl, nt))
                count += 1
                if count > pair_bound:
                    raise NotFinite(
                        f"affine closure exceeded {pair_bound} cosets")
        frontier = new
    return table, list(pure)


def verify_crystallographic(data: CrystData, bound=DEFAULT_ORDER_BOUND) -> CrystGroup:
    """Validate the crystallographic axioms and return the finished group.

    Checks: the point group is finite, the lattice has the declared rank
    (always Z^r here), and nothing outside the lattice acts trivially, i.e.
    the linear part determines the group element.  The cocycle condition on
    the assembled vector system is verified exactly, on generators x G
    (see VectorSystem.is_consistent), which covers every pair.
    """
    try:
        lin_group = closure([g for g, _ in data.generators], bound=bound, rank=data.rank)
    except ExceedsBound as exc:
        raise NotFinite(str(exc)) from exc

    table, pure = _affine_closure(data, bound)
    if pure:
        raise KernelTooBig(pure[0])
    if len(table) != lin_group.order():
        # affine closure found elements the linear closure missed: impossible
        raise AssertionError("affine and linear closures disagree")

    translations = [table[m.entries][1] for m in lin_group.elements]
    group = CrystGroup(data.rank, lin_group, translations)
    if not group.vector_system.is_consistent():
        raise CocycleViolation("vector system fails the cocycle condition")
    return group


@dataclass(frozen=True)
class NormalizedAction:
    """Result of absorbing pure translations into the lattice."""

    group: CrystGroup
    basis_change: RatMatrix     # columns: new lattice basis in old coordinates
    absorbed: tuple             # translations absorbed, old coordinates
    changed: bool


def normalize_action(data: CrystData, bound=DEFAULT_ORDER_BOUND) -> NormalizedAction:
    """Enlarge the lattice until the point group contains no translations.

    Every pure translation discovered in the affine closure is adjoined to
    the lattice together with its orbit under the linear parts; coordinates
    are rebased so the lattice is Z^r again.  The returned basis change P
    has the new basis vectors as columns (old coordinates): v_old = P v_new.
    """
    rank = data.rank
    current = data
    P_total = RatMatrix.identity(rank)
    absorbed = []
    changed = False
    for _ in range(64):
        try:
            lin_group = closure([g for g, _ in current.generators],
                                bound=bound, rank=rank)
        except ExceedsBound as exc:
            raise NotFinite(str(exc)) from exc
        _, pure = _affine_closure(current, bound)
        if not pure:
            group = verify_crystallographic(current, bound)
            return NormalizedAction(group, P_total, tuple(absorbed), changed)
        changed = True
        # adjoin the full linear orbit so the enlarged lattice is G-stable
        vectors = []
        for t in pure:
            for m in lin_group.elements:
                vectors.append(m.to_rat().mul_vec(t))
        P = _lattice_with(rank, vectors)
        absorbed.extend(P_total.mul_vec(t) for t in pure)
        P_inv = P.inverse()
        new_gens = []
        for lin, trans in current.generators:
            new_lin = P_inv.mul(lin.to_rat()).mul(P)
            if not new_lin.is_integral():
                raise NonLattice("enlarged lattice is not stable under the action")
            new_gens.append((new_lin.to_int(), P_inv.mul_vec(trans)))
        current = CrystData.make(rank, new_gens)
        P_total = P_total.mul(P)
    raise NonLattice("lattice enlargement did not terminate")


def _lattice_with(rank, vectors):
    """Basis (as columns) of Z^r + <vectors>, via HNF of scaled generators."""
    den = 1
    for v in vectors:
        for x in v:
            den = lcm(den, x.denominator)
    rows = []
    for i in range(rank):
        rows.append([den if j == i else 0 for j in range(rank)])
    for v in vectors:
        rows.append([int(x * den) for x in v])
    H, _ = exactla.hnf(IntMatrix.from_rows(rows))
    if any(H.at(i, i) == 0 for i in range(rank)):
        raise NonLattice("translations do not generate a rank-r lattice")
    # column j of P is the j-th HNF basis row, rescaled
    return RatMatrix.from_rows([[F(H.at(j, i), den) for j in range(rank)]
                                for i in range(rank)])


@dataclass(frozen=True)
class ExtensionCocycle:
    """A normalized integer 2-cocycle f: G x G -> Z^r."""

    group: MatrixGroup
    values: dict

    def f(self, i, j):
        return self.values[(i, j)]

    def validate(self):
        """Raise CocycleViolation unless f is a normalized integer 2-cocycle.

        Values and normalization are checked on G x G, the identity
        f(a,b) + f(ab,c) = L(a)f(b,c) + f(a,bc) for b in a generating set S
        only.  This is Light's associativity test on Z^r x_f G: the elements
        that associate in the middle position are closed under products and
        include Z^r and the lifts of S, which generate the extension.
        """
        g = self.group
        n = g.order()
        rank = g.rank
        vals = self.values
        for i in range(n):
            for j in range(n):
                v = vals.get((i, j))
                if v is None or len(v) != rank:
                    raise CocycleViolation(f"missing or malformed value at {(i, j)}")
                if any(not isinstance(x, int) for x in v):
                    raise CocycleViolation("cocycle values must be integer vectors")
        for i in range(n):
            if any(vals[(i, 0)]) or any(vals[(0, i)]):
                raise CocycleViolation("cocycle is not normalized")
        lins = [_rows(m) for m in g.elements]
        for b, b_row in _generator_products(g).items():
            for a in range(n):
                la = lins[a]
                ab = g.mul(a, b)
                own = vals[(a, b)]
                for c, bc in enumerate(b_row):
                    lhs = _apply(la, vals[(b, c)])
                    rest = vals[(a, bc)]
                    mid = vals[(ab, c)]
                    if any(x - y + z - w for x, y, z, w in zip(lhs, mid, rest, own)):
                        raise CocycleViolation(f"cocycle identity fails at {(a, b, c)}")


def cocycle_from_system(vs: VectorSystem) -> ExtensionCocycle:
    """The integer 2-cocycle of a vector system: f(g,h) = L(g)u_h + u_g - u_{gh}."""
    g = vs.group
    n = g.order()
    den = _common_denominator(vs.translations)
    num = _numerators(vs.translations, den)
    values = {}
    for i in range(n):
        lin = _rows(g.elements[i])
        ui = num[i]
        for j in range(n):
            d = [x + a - b for x, a, b in zip(_apply(lin, num[j]), ui, num[g.mul(i, j)])]
            if any(x % den for x in d):
                raise CocycleViolation("vector system is not a valid realization")
            values[(i, j)] = tuple(x // den for x in d)
    return ExtensionCocycle(g, values)


def affine_realization(linear: MatrixGroup, cocycle: ExtensionCocycle) -> VectorSystem:
    """Vector system of the extension: u_g = (1/|G|) sum over h of f(g, h).

    The averaged system satisfies L(g)u_h + u_g - u_{gh} = f(g,h) exactly,
    hence the cocycle condition modulo Z^r; both are checked before
    returning.  The first is checked on S x G for a generating set S: the
    difference of its two sides is a normalized 2-cocycle, which vanishes on
    G x G once it vanishes on S x G, by induction on word length.
    """
    if cocycle.group is not linear and cocycle.group.elements != linear.elements:
        raise CocycleViolation("cocycle is defined on a different group")
    cocycle.validate()
    n = linear.order()
    vals = cocycle.values
    # sums[g] = n u_g, an integer vector
    sums = [[sum(col) for col in zip(*(vals[(i, j)] for j in range(n)))]
            for i in range(n)]
    # exact realization identity against the input cocycle
    for s, row in _generator_products(linear).items():
        lin = _rows(linear.elements[s])
        us = sums[s]
        for h, sh in enumerate(row):
            lhs = [x + a - b for x, a, b in zip(_apply(lin, sums[h]), us, sums[sh])]
            if lhs != [n * x for x in vals[(s, h)]]:
                raise CocycleViolation("averaged system does not realize the cocycle")
    vs = VectorSystem(linear, tuple(mod1_vec(tuple(F(a, n) for a in u)) for u in sums))
    if not vs.is_consistent():
        raise CocycleViolation("averaged system fails the cocycle condition")
    return vs


@dataclass(frozen=True)
class EquivalenceWitness:
    equivalent: bool
    shift: tuple    # w with u_g - u'_g = (L(g) - I) w (mod Z^r), or ()


def realizations_equivalent(vs_a: VectorSystem, vs_b: VectorSystem) -> EquivalenceWitness:
    """Decide coboundary equivalence of two vector systems on the same group.

    True iff some w in Q^r has u_g - u'_g = (L(g) - I) w (mod Z^r) for all g;
    the witness w is returned when it exists.
    """
    if vs_a.group is not vs_b.group and vs_a.group.elements != vs_b.group.elements:
        raise ValueError("vector systems live on different groups")
    g = vs_a.group
    rank = g.rank
    ident = IntMatrix.identity(rank)
    blocks = []
    rhs = []
    for i in range(g.order()):
        lin = g.elements[i]
        for r in range(rank):
            blocks.append([lin.at(r, c) - ident.at(r, c) for c in range(rank)])
        diff = tuple(a - b for a, b in zip(vs_a.u(i), vs_b.u(i)))
        rhs.extend(diff)
    M = IntMatrix.from_rows(blocks)
    w = exactla.solve_affine_congruence(M, rhs)
    if w is None:
        return EquivalenceWitness(False, ())
    # confirm the witness
    for i in range(g.order()):
        lin = g.elements[i].to_rat()
        img = lin.mul_vec(w)
        for a, b, x, ww in zip(vs_a.u(i), vs_b.u(i), img, w):
            if (a - b - (x - ww)).denominator != 1:
                raise AssertionError("congruence witness failed verification")
    return EquivalenceWitness(True, tuple(w))


@dataclass(frozen=True)
class TorsionReport:
    torsion_free: bool
    offenders: tuple    # indices of nontrivial elements with fixed points


def is_torsion_free(group: CrystGroup) -> TorsionReport:
    """Torsion test: the group is torsion free iff no nontrivial element
    fixes a point of the torus, i.e. (L(g) - I) v = -u_g (mod Z^r) has no
    solution for every g != 1."""
    rank = group.rank
    ident = IntMatrix.identity(rank)
    offenders = []
    for i in range(1, group.order()):
        lin = group.linear(i)
        A = IntMatrix(rank, rank, tuple(a - b for a, b in
                                        zip(lin.entries, ident.entries)))
        b = tuple(-x for x in group.u(i))
        sol = exactla.solve_mod_lattice(A, b)
        if not sol.is_empty():
            offenders.append(i)
    return TorsionReport(not offenders, tuple(offenders))
