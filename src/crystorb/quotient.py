"""Analysis of the finite group action on the torus: fixed loci of the
affine elements, free/quasi-free/divisorial classification, pseudoreflections
and the subgroup they generate, and the quotient-orbifold descriptor
(branch divisors with multiplicities plus the deeper-stratum summary).
Fixed subtori are told apart by the integer forms vanishing on them,
`exactla.kernel_q`'s HNF basis."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from . import exactla, fieldlin
from .crystal import CrystGroup
from .exactla import SolutionSet
from .groupcore import MatrixGroup, _require

F = Fraction


class FixedLocus:
    """The shape of the fixed set of g, (L(g) - I) v = -u_g on the torus,
    read off that of the smallest member of g's class.  complex_codim is
    filled when rank and locus dimension are even (always for an even group:
    the kernel of L(g) - I is invariant under any invariant J)."""

    def __init__(self, element_index, real_dim, complex_codim):
        self.element_index = element_index
        self.real_dim = real_dim            # None when empty
        self.complex_codim = complex_codim

    def is_empty(self):
        return self.real_dim is None


def components(sol: SolutionSet):
    """One Subtorus per connected component of a fixed set."""
    den, nums = sol.numerators
    return tuple(Subtorus(p, den, sol.basis) for p in nums)


class Subtorus:
    """An affine subtorus: base point num/den in [0,1)^r, num reduced mod
    den, plus integral directions."""

    def __init__(self, num, den, basis):
        self.num = num
        self.den = den
        self.basis = basis

    @property
    def base(self):
        return tuple(F(x, self.den) for x in self.num)


def subtorus_key(sub: Subtorus, lattices: dict):
    """Equal exactly for equal subsets of the torus: Y, the HNF basis of the
    integer forms vanishing on the direction lattice D, then Y*base mod 1 as
    numerators over their least denominator.  Y alone fixes the saturated D,
    the integer vectors it vanishes on, and rows of Y extend to a unimodular
    matrix, so Y*v is integral iff v lies in span(D) + Z^r.  The key names Y
    by a small index, so that it hashes no r x r tuple: keys compare only
    within one `lattices`, which keeps (index, Y) per direction basis met
    and per distinct Y (`_intern`)."""
    entry = lattices.get(sub.basis)
    if entry is None:
        entry = lattices[sub.basis] = _intern(
            lattices, tuple(exactla.kernel_q(sub.basis, len(sub.num))))
    return _key(entry, sub.num, sub.den)


def _intern(lattices, forms):
    """(index, forms), the index unique to `forms` within `lattices`."""
    return lattices.setdefault(("forms", forms), (len(lattices), forms))


def _key(entry, num, den):
    """The key of the subtorus through num/den whose forms are `entry`."""
    index, forms = entry
    y = [sum(map(mul, row, num)) % den for row in forms]
    g = gcd(den, *y)
    return index, den // g, tuple(x // g for x in y)


def subtori_equal(a: Subtorus, b: Subtorus) -> bool:
    """Equality as subsets of the torus: same span, base points congruent
    modulo the span plus the lattice."""
    lattices = {}
    return subtorus_key(a, lattices) == subtorus_key(b, lattices)


def fixed_points(crys: CrystGroup, gi) -> FixedLocus:
    """Fixed locus of the nontrivial element of index gi."""
    sol = crys.fixed_set(gi)
    if sol.is_empty():
        return FixedLocus(gi, None, None)
    rdim = sol.dim
    if crys.rank % 2 or rdim % 2:
        return FixedLocus(gi, rdim, None)
    return FixedLocus(gi, rdim, (crys.rank - rdim) // 2)


def all_fixed_loci(crys: CrystGroup):
    return tuple(fixed_points(crys, gi) for gi in range(1, crys.order()))


class ActionClassification:
    def __init__(self, kind, evidence):
        self.kind = kind            # "free" | "quasi_free" | "divisorial"
        self.evidence = evidence    # (element index, complex codim) at the extremes


def classify_action(loci) -> ActionClassification:
    """free: no fixed points; quasi_free: all loci of complex codim >= 2;
    divisorial: some locus of complex codim 1."""
    nonempty = [l for l in loci if not l.is_empty()]
    if not nonempty:
        return ActionClassification("free", ())
    _require(all(l.complex_codim is not None for l in nonempty),
             "odd-dimensional fixed locus in an even action")
    min_codim = min(l.complex_codim for l in nonempty)
    evidence = tuple((l.element_index, l.complex_codim)
                     for l in nonempty if l.complex_codim == min_codim)
    kind = "quasi_free" if min_codim >= 2 else "divisorial"
    return ActionClassification(kind, evidence)


def pseudoreflections(loci):
    """Nontrivial elements whose complex linear part fixes a hyperplane
    (eigenvalue-1 eigenspace of complex dimension n-1) and which actually
    fix points on the torus."""
    return tuple(l.element_index for l in loci if l.complex_codim == 1)


def gpr_subgroup(group: MatrixGroup, refl) -> tuple:
    """The sorted indices of the subgroup the pseudoreflections generate,
    searched breadth first from the identity.  It is normal: h Fix(g) =
    Fix(h g h^-1), so the pseudoreflections are closed under conjugation."""
    members = {0}
    queue = [0]
    for a in queue:
        for s in refl:
            p = group.mul(a, s)
            if p not in members:
                members.add(p)
                queue.append(p)
    return tuple(sorted(members))


class FactorizationReport:
    """The chain torus -> torus/G^pr -> torus/G with the quasi-etale audit
    of the second map."""

    def __init__(self, gpr_order, index, audit, quasi_etale):
        self.gpr_order = gpr_order
        self.index = index
        self.audit = audit          # (element, codim) for non-G^pr elements with loci
        self.quasi_etale = quasi_etale

    def __eq__(self, other):
        return type(other) is FactorizationReport and vars(self) == vars(other)


def factorization_report(group: MatrixGroup, loci, refl) -> FactorizationReport:
    members = set(gpr_subgroup(group, refl))
    audit = tuple((l.element_index, l.complex_codim) for l in loci
                  if not l.is_empty() and l.element_index not in members)
    return FactorizationReport(len(members), group.order() // len(members), audit,
                               all(codim >= 2 for _, codim in audit))


class DivisorClass:
    """A G-orbit of complex-codimension-1 fixed components on the torus."""

    def __init__(self, representative, multiplicity, orbit_size):
        self.representative = representative
        self.multiplicity = multiplicity    # order of the cyclic pointwise stabilizer
        self.orbit_size = orbit_size        # components on the torus in this class


class OrbifoldDescriptor:
    def __init__(self, classification, pseudoreflections, factorization, divisor_classes,
                 stratum_summary):
        self.classification = classification
        self.pseudoreflections = pseudoreflections
        self.factorization = factorization
        self.divisor_classes = divisor_classes
        self.stratum_summary = stratum_summary  # ((codim, stabilizer order), count), sorted


def _transform_subtorus(crys, h, sub: Subtorus) -> Subtorus:
    lin = crys.linear(h)
    den = lcm(sub.den, crys.den)
    num = crys.affine_image(h, [x * (den // sub.den) for x in sub.num], den)
    return Subtorus(num, den, tuple(exactla.mul_vec(lin, b) for b in sub.basis))


def pointwise_stabilizer(crys: CrystGroup, sub: Subtorus, fixers=None):
    """Indices of elements fixing the subtorus pointwise, in integers mod the
    common denominator of the base point and the translations.  Only the
    elements whose linear part fixes every direction, found through
    `MatrixGroup.images`, are tested on the base point; `fixers` keeps them
    per direction basis across the calls that share it."""
    if fixers is None:
        fixers = {}
    candidates = fixers.get(sub.basis)
    if candidates is None:
        moved = [crys.group.images(b) for b in sub.basis]
        candidates = fixers[sub.basis] = tuple(
            h for h in range(crys.order()) if all(m[h] == b for m, b in zip(moved, sub.basis)))
    den = lcm(sub.den, crys.den)
    num = tuple(x * (den // sub.den) for x in sub.num)
    return tuple(h for h in candidates if crys.affine_image(h, num, den) == num)


def _orbit_keys(crys, sub: Subtorus, lattices, steps):
    """The keys of the G-orbit of `sub`, breadth first over the generators S:
    |orbit|*|S| transforms (Holt, Eick and O'Brien, Handbook of Computational
    Group Theory, 2005, 4.1).  Members are carried as ((index, Y), num, den):
    the forms vanishing on s*D are those vanishing on D times L(s^-1), so
    the forms of s*C are the HNF of Y L(s^-1), one `hnf` per forms Y and
    generator s, kept in `lattices` under (index of Y, s) across the orbits
    of one descriptor, as are the `steps` (s, L(s^-1)), one inverse per
    generator."""
    keys = {subtorus_key(sub, lattices)}
    queue = [(lattices[sub.basis], sub.num, sub.den)]
    for entry, num, den in queue:
        common = lcm(den, crys.den)
        num = [x * (common // den) for x in num]
        index, forms = entry
        for s, s_inv in steps:
            moved = lattices.get((index, s))
            if moved is None:
                moved = lattices[index, s] = _intern(
                    lattices, forms and exactla.hnf(fieldlin.mat_mul(forms, s_inv)))
            image = crys.affine_image(s, num, common)
            key = _key(moved, image, common)
            if key not in keys:
                keys.add(key)
                queue.append((moved, image, common))
    return keys


def orbifold_descriptor(crys: CrystGroup, ev) -> OrbifoldDescriptor:
    """The classification, the pseudoreflections and the factorization
    through G^pr, then branch-divisor classes with multiplicities plus the
    summary of the deeper (complex codimension >= 2) singular strata, all
    read off one pass over the fixed loci.  Raises ValueError when the
    caller's evenness report `ev` (`hodge.is_even`) is not even.

    Divisor components are grouped into orbits of the full group action
    (classes live on the quotient); the multiplicity of a class is the
    order of the cyclic pointwise stabilizer of any of its components.
    Multiplicity-1 divisors cannot occur: every listed component is fixed
    by the nontrivial element that produced it.

    Fix(h g h^-1) = h Fix(g): the components of the smallest member of each
    class, in element then point order, meet every orbit, and each one
    outside the orbits found so far is its orbit's first component over all
    of G.  Conjugate components have stabilizers of equal order.

    A point is fixed pointwise by whatever fixes it as a set, so a point
    stratum of complex codimension >= 2 has stabilizer order |G| / |orbit|,
    with no group scan.  Every other component of one Fix(g) shares its
    directions `sol.basis`: the elements fixing them are found once, and
    only those are tested on each base point."""
    if not ev.even:
        raise ValueError("the action admits no invariant complex structure; "
                         "complex classification is undefined")
    loci = all_fixed_loci(crys)
    classification, refl = classify_action(loci), pseudoreflections(loci)
    lattices, fixers = {}, {}
    steps = [(s, crys.linear(crys.group.inv(s))) for s in crys.group.generators]
    placed = set()
    classes = []
    histogram = {}
    for g, sol in crys.fixed_sets.items():
        locus = loci[g - 1]
        for comp in components(sol):
            if subtorus_key(comp, lattices) in placed:
                continue
            orbit = _orbit_keys(crys, comp, lattices, steps)
            placed |= orbit
            if locus.complex_codim >= 2 and not sol.basis:
                m, r = divmod(crys.order(), len(orbit))
                _require(r == 0, "orbit size does not divide |G|")
            else:
                stab = pointwise_stabilizer(crys, comp, fixers)
                m = len(stab)
            if locus.complex_codim == 1:
                _require(m >= 2, "divisor component with trivial stabilizer")
                _require(any(crys.group.element_order(h) == m for h in stab),
                         "divisor stabilizer is not cyclic")
                _require(all(subtori_equal(_transform_subtorus(crys, h, comp), comp)
                             for h in stab), "a stabilizer element moves its divisor")
                classes.append(DivisorClass(comp, m, len(orbit)))
            else:
                key = (locus.complex_codim, m)
                histogram[key] = histogram.get(key, 0) + len(orbit)
    return OrbifoldDescriptor(classification, refl,
                              factorization_report(crys.group, loci, refl),
                              tuple(classes), tuple(sorted(histogram.items())))
