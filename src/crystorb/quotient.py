"""Analysis of the finite group action on the torus: fixed loci of the
affine elements, free/quasi-free/divisorial classification, pseudoreflections
and the subgroup they generate, and the quotient-orbifold descriptor
(branch divisors with multiplicities plus the deeper-stratum summary)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import exactla, fieldlin, hodge
from .crystal import CrystGroup
from .exactla import IntMatrix, SolutionSet
from .groupcore import MatrixGroup

F = Fraction


@dataclass(frozen=True)
class FixedLocus:
    """Solution set of (L(g) - I) v = -u_g on the torus for one element.

    complex_dim / complex_codim are filled when the lattice rank is even and
    the locus dimension is even (always the case for an even group, since
    the kernel of L(g) - I is invariant under any invariant J)."""

    element_index: int
    solutions: SolutionSet
    real_dim: object
    complex_dim: object
    complex_codim: object

    def is_empty(self):
        return self.solutions.is_empty()

    def components(self):
        """One Subtorus per connected component."""
        if self.is_empty():
            return ()
        return tuple(Subtorus.make(p, self.solutions.basis)
                     for p in self.solutions.points)


@dataclass(frozen=True)
class Subtorus:
    """An affine subtorus: base point in [0,1)^r plus integral directions."""

    base: tuple
    basis: tuple
    span_key: tuple

    @staticmethod
    def make(base, basis):
        base = tuple(F(x) for x in base)
        basis = tuple(tuple(int(x) for x in b) for b in basis)
        return Subtorus(base, basis, _span_key(basis, len(base)))

    @property
    def dim(self):
        return len(self.basis)


def _span_key(basis, r):
    if not basis:
        return ()
    red, pivots = fieldlin.rref([[F(x) for x in b] for b in basis])
    return tuple(tuple(red[i]) for i in range(len(pivots)))


def subtori_equal(a: Subtorus, b: Subtorus) -> bool:
    """Equality as subsets of the torus: same span, base points congruent
    modulo the span plus the lattice."""
    if a.span_key != b.span_key:
        return False
    diff = tuple(x - y for x, y in zip(a.base, b.base))
    if not a.basis:
        return all(d.denominator == 1 for d in diff)
    r = len(a.base)
    M = IntMatrix.from_rows([[a.basis[j][i] for j in range(len(a.basis))]
                             for i in range(r)])
    return exactla.solve_affine_congruence(M, diff) is not None


def fixed_points(crys: CrystGroup, g) -> FixedLocus:
    """Fixed locus of a nontrivial element (index or matrix)."""
    gi = g if isinstance(g, int) else crys.group.index_of(g)
    if gi == 0:
        raise ValueError("the identity fixes everything; pass a nontrivial element")
    rank = crys.rank
    sol = crys.fixed_sets[gi]
    if sol.is_empty():
        return FixedLocus(gi, sol, None, None, None)
    rdim = sol.dim
    cdim = ccodim = None
    if rank % 2 == 0 and rdim % 2 == 0:
        cdim = rdim // 2
        ccodim = rank // 2 - cdim
    return FixedLocus(gi, sol, rdim, cdim, ccodim)


def all_fixed_loci(crys: CrystGroup):
    return tuple(fixed_points(crys, gi) for gi in range(1, crys.order()))


@dataclass(frozen=True)
class FreeActionReport:
    free: bool
    offenders: tuple


def free_action_report(crys: CrystGroup) -> FreeActionReport:
    """Emptiness of every nontrivial fixed locus; no complex structure
    needed, hence usable on odd or non-even groups for cross-checks."""
    offenders = tuple(l.element_index for l in all_fixed_loci(crys) if not l.is_empty())
    return FreeActionReport(not offenders, offenders)


@dataclass(frozen=True)
class ActionClassification:
    kind: str              # "free" | "quasi_free" | "divisorial"
    evidence: tuple        # (element index, complex codim) at the extremes


def _require_even(crys):
    ev = hodge.is_even(crys)
    if not ev.even:
        raise ValueError("the action admits no invariant complex structure; "
                         "complex classification is undefined")
    return ev


def _check_j(crys, J):
    if J is not None and getattr(J, "mode", None) == "exact":
        gens = [hodge._frac_rows(crys.linear(gi)) for gi in crys.group.generators]
        if not hodge._commutes_with_all(J.rational_rows(), gens):
            raise ValueError("complex structure does not commute with the action")


def classify_action(crys: CrystGroup, J=None) -> ActionClassification:
    """free: no fixed points; quasi_free: all loci of complex codim >= 2;
    divisorial: some locus of complex codim 1."""
    _require_even(crys)
    _check_j(crys, J)
    nonempty = [l for l in all_fixed_loci(crys) if not l.is_empty()]
    if not nonempty:
        return ActionClassification("free", ())
    for l in nonempty:
        if l.complex_codim is None:
            raise ArithmeticError("odd-dimensional fixed locus in an even action")
    min_codim = min(l.complex_codim for l in nonempty)
    evidence = tuple((l.element_index, l.complex_codim)
                     for l in nonempty if l.complex_codim == min_codim)
    kind = "quasi_free" if min_codim >= 2 else "divisorial"
    return ActionClassification(kind, evidence)


def pseudoreflections(crys: CrystGroup, J=None):
    """Nontrivial elements whose complex linear part fixes a hyperplane
    (eigenvalue-1 eigenspace of complex dimension n-1) and which actually
    fix points on the torus."""
    _require_even(crys)
    _check_j(crys, J)
    out = []
    for l in all_fixed_loci(crys):
        if l.is_empty():
            continue
        if l.complex_codim == 1:
            out.append(l.element_index)
    return tuple(out)


def gpr_subgroup(crys: CrystGroup, J=None) -> MatrixGroup:
    """The subgroup generated by the pseudoreflections, searched breadth
    first from the identity.  It is normal: h Fix(g) = Fix(h g h^-1), so the
    pseudoreflections are closed under conjugation."""
    refl = pseudoreflections(crys, J)
    g = crys.group
    members = {0}
    queue = [0]
    for a in queue:
        for s in refl:
            p = g.mul(a, s)
            if p not in members:
                members.add(p)
                queue.append(p)
    return g.subgroup(members)


@dataclass(frozen=True)
class FactorizationReport:
    """The chain torus -> torus/G^pr -> torus/G with the quasi-etale audit
    of the second map."""

    gpr_order: int
    gpr_indices: tuple
    index: int
    first_map_trivial: bool     # G^pr = 1: first quotient is the identity
    second_map_trivial: bool    # G^pr = G: second quotient is the identity
    audit: tuple                # (element, codim) for non-G^pr elements with loci
    quasi_etale: bool


def factorization_report(crys: CrystGroup, J=None) -> FactorizationReport:
    _require_even(crys)
    g = crys.group
    sub = gpr_subgroup(crys, J)
    sub_entries = {m.entries for m in sub.elements}
    indices = tuple(i for i in range(g.order())
                    if g.elements[i].entries in sub_entries)
    audit = []
    for l in all_fixed_loci(crys):
        if l.is_empty() or l.element_index in indices:
            continue
        audit.append((l.element_index, l.complex_codim))
    quasi_etale = all(codim >= 2 for _, codim in audit)
    return FactorizationReport(
        gpr_order=sub.order(),
        gpr_indices=indices,
        index=g.order() // sub.order(),
        first_map_trivial=sub.order() == 1,
        second_map_trivial=sub.order() == g.order(),
        audit=tuple(audit),
        quasi_etale=quasi_etale,
    )


@dataclass(frozen=True)
class DivisorClass:
    """A G-orbit of complex-codimension-1 fixed components on the torus."""

    representative: Subtorus
    multiplicity: int        # order of the cyclic pointwise stabilizer
    orbit_size: int
    component_count: int     # components on the torus in this class


@dataclass(frozen=True)
class OrbifoldDescriptor:
    kind: str
    divisor_classes: tuple
    stratum_summary: tuple   # ((complex codim, stabilizer order), count), sorted

    @property
    def is_free(self):
        return self.kind == "free"


def _transform_subtorus(crys, h, sub: Subtorus) -> Subtorus:
    lin = crys.linear(h)
    base = crys.affine_image(h, sub.base)
    basis = tuple(tuple(lin.mul_vec(b)) for b in sub.basis)
    return Subtorus.make(base, basis)


def pointwise_stabilizer(crys: CrystGroup, sub: Subtorus):
    """Indices of elements fixing the subtorus pointwise."""
    out = []
    for h, A in enumerate(crys.linear_minus_identity):
        if any(any(x != 0 for x in A.mul_vec(b)) for b in sub.basis):
            continue
        img = A.mul_vec(sub.base)
        if all((a + b).denominator == 1 for a, b in zip(img, crys.u(h))):
            out.append(h)
    return tuple(out)


def _dedupe_components(comps):
    unique = []
    for c in comps:
        if not any(subtori_equal(c, u) for u in unique):
            unique.append(c)
    return unique


def orbifold_descriptor(crys: CrystGroup, J=None) -> OrbifoldDescriptor:
    """Branch-divisor classes with multiplicities plus the summary of the
    deeper (complex codimension >= 2) singular strata.

    Divisor components are grouped into orbits of the full group action
    (classes live on the quotient); the multiplicity of a class is the
    order of the cyclic pointwise stabilizer of any of its components.
    Multiplicity-1 divisors cannot occur: every listed component is fixed
    by the nontrivial element that produced it."""
    _require_even(crys)
    classification = classify_action(crys, J)
    loci = [l for l in all_fixed_loci(crys) if not l.is_empty()]

    divisor_comps = []
    deep_comps = []
    for l in loci:
        for comp in l.components():
            (divisor_comps if l.complex_codim == 1 else deep_comps).append(comp)
    divisor_comps = _dedupe_components(divisor_comps)
    deep_comps = _dedupe_components(deep_comps)

    classes = []
    unassigned = list(divisor_comps)
    while unassigned:
        rep = unassigned[0]
        orbit = []
        for h in range(crys.order()):
            img = _transform_subtorus(crys, h, rep)
            if not any(subtori_equal(img, o) for o in orbit):
                orbit.append(img)
        remaining = []
        for c in unassigned:
            if not any(subtori_equal(c, o) for o in orbit):
                remaining.append(c)
        unassigned = remaining
        stab = pointwise_stabilizer(crys, rep)
        m = len(stab)
        if m < 2:
            raise ArithmeticError("divisor component with trivial stabilizer")
        if not any(crys.group.element_order(h) == m for h in stab):
            raise ArithmeticError("divisor stabilizer is not cyclic")
        classes.append(DivisorClass(rep, m, len(orbit), len(orbit)))

    histogram = {}
    for comp in deep_comps:
        stab = pointwise_stabilizer(crys, comp)
        codim = crys.n - comp.dim // 2
        key = (codim, len(stab))
        histogram[key] = histogram.get(key, 0) + 1
    summary = tuple(sorted(histogram.items()))

    return OrbifoldDescriptor(classification.kind, tuple(classes), summary)
