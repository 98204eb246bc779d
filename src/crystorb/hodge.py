"""The complex-structure side: evenness of a crystallographic group,
construction of invariant complex structures, period-type matrices with the
orientation test, Hodge types, and dimensions of the fixed-locus components
of the torus parameter space.

Everything here is exact; nothing is numeric.  Existence of J is decided by
evenness of the isotypic data.  The lattice J is the first pairing pattern or
group element that `_rational_j` accepts, an IntMatrix checked on the
generators; when none is, J is read off the exact sample point of the first
Hodge type: with M = (B | conj B) for a basis B of the sampled V, J = M
diag(iI, -iI) M^-1, whose entries lie in a cyclotomic field.  The sample
point is built by linear algebra alone, with no search: over the sample
field K the isotypic part is W_chi = U (x) K^m (Serre, Linear
Representations of Finite Groups, 2.6), a joint eigenspace of commuting
elements cut down to dimension m is u0 (x) K^m, and G-spans of its vectors
give every split.  A period matrix is its 2n rows of n Cyclo entries of one
field.  `_sylvester_rows` writes the tangent equations X A = B X.  Signs are
read off `cyclo.real_enclosure`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from math import gcd, lcm

from . import fieldlin
from .crystal import CrystGroup
from .cyclo import CycloField, real_enclosure
from .exactla import IntMatrix
from .groupcore import CharacterTable, MatrixGroup, _require

F = Fraction


class UnsupportedSample(Exception):
    """A Hodge type whose sample point `sample_subspace` does not construct."""


class DegenerateOmega(Exception):
    """det(Omega | conj Omega) vanished: the columns do not split C^2n."""


def point_group_table(crys: CrystGroup) -> CharacterTable:
    return crys.group.table


class EvennessReport:
    def __init__(self, even, report, odd_witness):
        self.even = even
        self.report = report
        self.odd_witness = odd_witness      # offending class labels, or ("odd_rank",)


def is_even(crys: CrystGroup) -> EvennessReport:
    """Even rank plus an invariant-complex-structure-admitting isotypic
    decomposition.  The odd witness lists every blocking class."""
    report = crys.group.isotypic
    witness = []
    if crys.rank % 2 != 0:
        witness.append("odd_rank")
    witness.extend(c.labels[0] if len(c.labels) == 1 else "|".join(c.labels)
                   for c in report.odd_classes())
    return EvennessReport(not witness, report, tuple(witness))


class ComplexStructure:
    """An exact J: Fractions when every entry is rational ("exact"), else
    Cyclo values of one field Q(zeta_N) ("algebraic")."""

    def __init__(self, entries):
        self.entries = entries

    def __eq__(self, other):
        return type(other) is ComplexStructure and vars(self) == vars(other)

    @staticmethod
    def of(J):
        if all(type(x) is F or x.is_rational() for row in J for x in row):
            J = [[F(x) if type(x) is F else x.rational_value() for x in row] for row in J]
        return ComplexStructure(tuple(tuple(row) for row in J))

    @property
    def mode(self):
        return "exact" if type(self.entries[0][0]) is F else "algebraic"

    @property
    def field_order(self):
        return self.entries[0][0].field.order


# ---------------------------------------------------------------------------
# exact search machinery

def _is_minus_identity(A):
    w = len(A)
    return all(A[i][j] == (F(-1) if i == j else 0) for i in range(w) for j in range(w))


def _block_action(crys: CrystGroup, basis, indices):
    """The matrices of the elements `indices` on the span of the columns of
    `basis`, in those coordinates; ArithmeticError if it is not invariant."""
    return [fieldlin.solve_columns(basis, fieldlin.mat_mul(crys.linear(g).row_tuples, basis))
            for g in indices]


def _sylvester_rows(A, B):
    """The linear equations X A - B X = 0 in the row-major entries of the
    len(B) x len(A) matrix X: row (i, j) holds A[b][j] at column (i, b) and
    -B[i][a] at column (a, j).  Exact over any field."""
    p, q = len(B), len(A)
    zero = A[0][0] - A[0][0]
    rows = []
    for i in range(p):
        for j in range(q):
            row = [zero] * (p * q)
            for b in range(q):
                row[i * q + b] += A[b][j]
            for a in range(p):
                row[a * q + j] -= B[i][a]
            rows.append(row)
    return rows


def _standard_pairings(w):
    """Two fixed pairings of coordinates; both square to -I iff w is even."""
    n = w // 2
    out = []
    for pairs in (((i, n + i) for i in range(n)), ((i, i + 1) for i in range(0, w - 1, 2))):
        rows = [[0] * w for _ in range(w)]
        for i, j in pairs:
            rows[i][j], rows[j][i] = -1, 1
        out.append(IntMatrix.from_rows(rows))
    return out


def _rational_j(candidates, gens):
    """The first IntMatrix candidate N with N^2 = -I that commutes with every
    generator IntMatrix, as Fraction rows; or None.  A pairing pattern or an
    element of finite order squares to -c I only for c = 1."""
    minus_identity = IntMatrix.identity(gens[0].rows).neg()
    for N in candidates:
        if N.mul(N) == minus_identity and all(N.mul(m) == m.mul(N) for m in gens):
            return [[F(x) for x in row] for row in N.row_tuples]
    return None


def isotypic_basis(group: MatrixGroup, table: CharacterTable, chars, field=None):
    """Columns spanning the image of P = (1/|G|) sum over g of
    (sum over chi in chars of chi(1) conj chi(g)) L(g), the isotypic part of
    the characters `chars` in the lattice representation.

    The entries lie in Q when `field` is None, and a coefficient that is not
    rational is a ValueError; otherwise in the cyclotomic `field`, which
    must contain the table's field.  The coefficient is constant on each
    class, and |G| times it is an algebraic integer: its integer coordinates
    over the table's field are one sum over `chars`.  The integer L(g) are
    summed per class, each entry of |G| P is summed on integer coordinates,
    and one element of `field`, or one Fraction, is made per entry over the
    denominator |G|: no cyclotomic product is taken."""
    n = group.order()
    w = group.rank
    e = table.field.order
    if field is not None and field.order % e:
        raise ValueError("the field does not contain the table's field")
    acc = [[0] * table.field.degree for _ in range(w * w)]
    for cls, powers in zip(table.classes, group.power_classes):
        # conj chi(g) = chi(g^-1): the values at the inverse classes, integer
        # coordinates over den 1 (_verify_orthogonality requires it)
        coords = [0] * table.field.degree
        for chi in chars:
            for t, x in enumerate(chi.values[powers[-1]].num):
                coords[t] += chi.degree * x
        if field is None and any(coords[1:]):
            raise ValueError("class coefficient is not rational")
        terms = [(t, x) for t, x in enumerate(coords) if x]
        if not terms:
            continue
        class_sum = map(sum, zip(*(group.elements[g].entries for g in cls.members)))
        for entry, c in zip(acc, class_sum):
            if c:
                for t, x in terms:
                    entry[t] += c * x
    if field is None:
        entries = [F(entry[0], n) for entry in acc]
    else:
        step = field.order // e
        entries = [field.from_exponents({t * step: x for t, x in enumerate(entry)}, n)
                   for entry in acc]
    proj = [entries[i * w:(i + 1) * w] for i in range(w)]
    red, pivots = fieldlin.rref(proj)
    return fieldlin.columns(proj, pivots)


def rational_isotypic_projectors(group: MatrixGroup, table: CharacterTable):
    """The rational (Galois-orbit) isotypic components of the lattice.

    Returns a list of (labels, rational column basis of the projector's
    image), one per Galois orbit of characters; zero components are
    dropped."""
    chars = table.characters
    index = {chi.values: i for i, chi in enumerate(chars)}
    out = []
    seen = set()
    for i, chi in enumerate(chars):
        if i in seen:
            continue
        rows = (tuple(chi.values[ci] for ci in image) for image in group.galois_maps)
        orbit = sorted({index[values] for values in rows if values in index})
        seen.update(orbit)
        try:
            basis = isotypic_basis(group, table, [chars[oi] for oi in orbit])
        except ValueError:
            raise ArithmeticError("Galois-orbit character sum is not rational") from None
        if basis[0]:
            out.append((tuple(chars[oi].label for oi in orbit), basis))
    return out


def invariant_complex_structure(crys: CrystGroup, ev: EvennessReport) -> ComplexStructure:
    """Construct a complex structure commuting with the point group.

    Existence is decided by the caller's evenness report `ev` alone:
    ValueError when it is not even.  For an even group J is the first
    pairing pattern, then group element, that squares to -I and commutes
    with every generator.  When there is none, J is the complex structure of the sample point of the first Hodge
    type, exact over a cyclotomic field; UnsupportedSample when the sampler
    does not construct that type."""
    if not ev.even:
        raise ValueError("a group that is not even admits no invariant complex structure")
    elements = crys.group.elements
    gens = [elements[s] for s in crys.group.generators]
    J = _rational_j(itertools.chain(_standard_pairings(crys.rank), elements), gens)
    if J is None:
        B, _ = sample_subspace(crys, hodge_types(ev)[0])
        J = torus_from_omega(B).entries
    _require(_is_minus_identity(fieldlin.mat_mul(J, J)), "J does not square to -I")
    _require(all(fieldlin.mat_mul(J, m.row_tuples) == fieldlin.mat_mul(m.row_tuples, J)
                 for m in gens), "J does not commute with the action")
    return ComplexStructure.of(J)


# ---------------------------------------------------------------------------
# period matrices, rows indexed by the lattice basis

GAUSS = CycloField(4)


def _i_power(n, field: CycloField):
    """i^n in the smallest cyclotomic field containing `field` and i."""
    big = CycloField(lcm(field.order, 4))
    return big.zeta(n * (big.order // 4))


def _split_det(omega):
    """det(Omega | conj Omega); DegenerateOmega when it vanishes (the
    columns and their conjugates fail to span)."""
    d = fieldlin.det(fieldlin.hstack(omega, _conj_cols(omega)))
    if d == 0:
        raise DegenerateOmega("det(Omega | conj Omega) = 0")
    return d


def omega_in_T(omega) -> bool:
    """Sign test i^n det(Omega | conj Omega) > 0.

    The quantity is real by conjugation symmetry; its rational enclosure is
    refined until it excludes 0.  DegenerateOmega is raised when the
    determinant vanishes."""
    d = _split_det(omega)
    val = _i_power(len(omega[0]), d.field) * d
    _require(val == val.conjugate(), "i^n det(Omega | conj Omega) is not real")
    p = 64
    while (bounds := real_enclosure(val, p))[0] <= 0 <= bounds[1]:
        p *= 2
    return bounds[0] > 0


def torus_from_omega(omega) -> ComplexStructure:
    """The complex structure of the torus (lattice tensor R)/Z^2n pulled
    back from multiplication by i on the column span V: J = M diag(iI, -iI)
    M^-1 for M = (Omega | conj Omega), i on V and -i on conj V.  The bottom
    half of M^-1 is the conjugate of its top half M1, so J = i Omega M1 +
    conj(i Omega M1).

    Every Omega whose columns and their conjugates span gives a torus, in T
    or not; DegenerateOmega is raised for any other."""
    _split_det(omega)
    M1 = fieldlin.inverse(fieldlin.hstack(omega, _conj_cols(omega)))[:len(omega[0])]
    i_unit = _i_power(1, omega[0][0].field)
    J = [[i_unit * z + (i_unit * z).conjugate() for z in row]
         for row in fieldlin.mat_mul(omega, M1)]
    _require(_is_minus_identity(fieldlin.mat_mul(J, J)),
             "J of the period matrix does not square to -I")
    return ComplexStructure.of(J)


# ---------------------------------------------------------------------------
# Hodge types

class ClassSplit:
    """Dimension split of one real-irreducible class between V and conj V."""

    def __init__(self, labels, fs_type, degree, multiplicity, a):
        self.labels = labels
        self.fs_type = fs_type
        self.degree = degree
        self.multiplicity = multiplicity    # complex multiplicity of one constituent
        self.a = a                          # sub-multiplicity assigned to labels[0] inside V

    @property
    def dims(self):
        return (self.a * self.degree, (self.multiplicity - self.a) * self.degree)


class HodgeType:
    def __init__(self, splits):
        self.splits = splits

    @property
    def holomorphic_dim(self):
        return sum((s.multiplicity if s.fs_type == "complex" else s.multiplicity // 2)
                   * s.degree for s in self.splits)


def hodge_types(ev: EvennessReport):
    """All admissible splits d_chi + d_chibar across conjugate pairs, read
    off the caller's evenness report `ev`.

    Complex-type pairs admit any split of their multiplicity; real and
    quaternionic classes are forced to the balanced split.  The total
    holomorphic dimension is n for every type."""
    if not ev.even:
        raise ValueError("Hodge types exist only for even groups")
    classes = ev.report.classes
    choice_sets = []
    for c in classes:
        if c.fs_type == "complex":
            choice_sets.append(range(c.multiplicity + 1))
        else:
            choice_sets.append((c.multiplicity // 2,))
    out = []
    for combo in itertools.product(*choice_sets):
        splits = tuple(ClassSplit(c.labels, c.fs_type, c.degree, c.multiplicity, a)
                       for c, a in zip(classes, combo))
        t = HodgeType(splits)
        _require(2 * t.holomorphic_dim == ev.report.rank,
                 "Hodge type does not have dimension n")
        out.append(t)
    return out


def component_dimension(t: HodgeType) -> int:
    """Dimension of the fixed-locus component: a product of Grassmannians of
    multiplicity spaces, sum of a*(m-a) per constituent character."""
    total = 0
    for s in t.splits:
        contrib = s.a * (s.multiplicity - s.a)
        total += 2 * contrib if s.fs_type == "complex" else contrib
    return total


# ---------------------------------------------------------------------------
# exact sample points and the tangent-space oracle

def _sample_field(table: CharacterTable) -> CycloField:
    return CycloField(lcm(table.field.order, 4))


def _conj_cols(cols):
    return [[z.conjugate() for z in row] for row in cols]


def _joint_eigenvectors(crys: CrystGroup, table: CharacterTable, chi, W, m, field):
    """m vectors y_j = u0 (x) s_j spanning a joint eigenspace of commuting
    elements in W_chi = U (x) K^m, the columns of W, or None.  One pass runs
    over the eigenvalues zeta_q^t, t prime to q, of the elements g != 1, by q
    and then by g, whose multiplicity on U, (1/o) sum over j of chi(g^j)
    zeta_q^(-jt) for g of order o, lies strictly between 0 and chi(1).  A g
    that commutes with those used and cuts the eigenspace Y properly
    replaces Y by the kernel of L(g) - zeta_q^t on it.  A rational W stays
    in Fractions while the eigenvalue is +-1."""
    group, K, e = crys.group, table.field, table.field.order

    @cache
    def multiplicity(c, q, t):
        powers = group.power_classes[c]
        return sum((chi.values[pc] * K.zeta(-j * t * (e // q) % e)
                    for j, pc in enumerate(powers)), K(0)).rational_value() / len(powers)

    eigenvalues = ((g, q, t) for q in range(1, e + 1) if e % q == 0
                   for g in range(1, group.order())
                   if len(group.power_classes[group.class_index[g]]) % q == 0
                   for t in range(q)
                   if gcd(t, q) == 1 and 0 < multiplicity(group.class_index[g], q, t) < chi.degree)
    Y, used = W, []
    for g, q, t in eigenvalues:
        if len(Y[0]) == m:
            break
        if any(group.mul(g, h) != group.mul(h, g) for h in used):
            continue
        Y = [[field(x) for x in row] for row in Y] if q > 2 else Y
        lam = field.zeta(t * (field.order // q)) if q > 2 else (-1) ** t
        LY = fieldlin.mat_mul(crys.linear(g).row_tuples, Y)
        N = fieldlin.nullspace([[x - lam * y for x, y in zip(r, z)] for r, z in zip(LY, Y)])
        if 0 < len(N) < len(Y[0]):
            Y = fieldlin.mat_mul(Y, [list(c) for c in zip(*N)])
            used.append(g)
    return [[field(x) for x in y] for y in zip(*Y)] if len(Y[0]) == m else None


def _g_span(mats, vectors, echelon):
    """Extends the echelon rows [(pivot, row)], each 1 at its pivot and 0 at
    the pivots before it, by the span of `vectors` under the generator
    matrices `mats`; returns the rows added."""
    start, vectors = len(echelon), list(vectors)
    while vectors:
        v = vectors.pop()
        for p, row in echelon:
            f = v[p]
            if f != 0:
                v = [x - f * y for x, y in zip(v, row)]
        p = next((j for j, x in enumerate(v) if x != 0), None)
        if p is not None:
            inv = 1 / v[p]
            v = [x * inv for x in v]
            echelon.append((p, v))
            vectors += [[sum(a * x for a, x in zip(r, v)) for r in m] for m in mats]
    return [row for _, row in echelon[start:]]


def _half_span(mats, ys, i_unit):
    """A basis of the G-span A of m/2 combinations of the joint eigenvectors
    of a real or quaternionic class: from each pair y_p, y_q the first of
    y_p + i y_q, y_p + y_q, y_p, y_q that keeps rank(A | conj A) = 2 dim A;
    None when a pair gives none."""
    echelon = []
    for p, q in zip(ys[::2], ys[1::2]):
        for c in ([x + i_unit * y for x, y in zip(p, q)], [x + y for x, y in zip(p, q)], p, q):
            trial = list(echelon)
            rows = [row for _, row in trial] if _g_span(mats, [c], trial) else []
            if rows and len(_g_span((), _conj_cols(rows), list(trial))) == len(rows):
                echelon = trial
                break
        else:
            return None
    return [row for _, row in echelon]


def sample_subspace(crys: CrystGroup, t: HodgeType):
    """An explicit invariant subspace of the given Hodge type.

    Returns (B, action): B a 2n x n matrix over the sample field K (list of
    rows) whose columns span V with V + conj V = C^2n, and the generators'
    matrices rho_g on it, L(g) B = B rho_g, which the invariance check
    solves.  As every L(g) is real, conj W_chi = W_conj chi: a complex pair
    of degree 1, or split a in {0, m}, contributes the first a d columns of
    a basis of W_chi and the conjugates of the others.  A real class of
    degree 1 contributes w_2j + i w_2j+1 over its block's columns w; any
    other class, G-spans of its joint eigenvectors, the first a and the
    conjugates of the others for a complex pair, `_half_span` for a real or
    quaternionic class.  UnsupportedSample when none are found."""
    table = point_group_table(crys)
    group = crys.group
    field = _sample_field(table)
    i_unit = _i_power(1, field)
    mats = [crys.linear(s).row_tuples for s in group.generators]
    chars = {c.label: c for c in table.characters}
    blocks = None
    cols = []
    for s in t.splits:
        chi = chars[s.labels[0]]
        m, d, a = s.multiplicity, s.degree, s.a
        if s.fs_type != "complex" and all(v.is_rational() for v in chi.values):
            # a rational character is its own Galois orbit
            blocks = blocks or dict(rational_isotypic_projectors(group, table))
            W = blocks[(chi.label,)]
        else:
            W = isotypic_basis(group, table, [chi], field)
        if s.fs_type == "complex" and (d == 1 or a in (0, m)):
            cols.append([row[:a * d] + [z.conjugate() for z in row[a * d:]] for row in W])
            continue
        if d == 1:   # L(g) is +-1 on the block
            w = list(zip(*W))
            vectors = [[x + i_unit * y for x, y in zip(p, q)] for p, q in zip(w[::2], w[1::2])]
        elif (ys := _joint_eigenvectors(crys, table, chi, W, m, field)) is None:
            vectors = None
        elif s.fs_type == "complex":
            vectors = _g_span(mats, ys[:a], []) + _conj_cols(_g_span(mats, ys[a:], []))
        else:
            vectors = _half_span(mats, ys, i_unit)
        if vectors is None:
            raise UnsupportedSample(f"no joint eigenspace or combination for {chi.label}")
        cols.append([list(row) for row in zip(*vectors)])

    B = fieldlin.hstack(*cols)
    _require(len(B[0]) == crys.n, "sampled subspace does not have dimension n")
    _require(fieldlin.rank(fieldlin.hstack(B, _conj_cols(B))) == crys.rank,
             "sampled subspace meets its conjugate")
    return B, _block_action(crys, B, group.generators)   # raises if not invariant


def tangent_dimension(action) -> int:
    """Dimension of the invariant-subspace deformations at a sample point.

    Computed as the rank deficiency of the equivariance equations on maps
    Psi from the subspace to its complementary conjugate: with L(g) B = B rho_g
    and L(g) real, L(g) conj B = conj B conj(rho_g), so Psi rho_g =
    conj(rho_g) Psi for every generator, with `action` the rho_g that
    `sample_subspace` returns.  A pure linear-algebra computation,
    independent of the character-theoretic dimension formula."""
    rows = [row for rho in action for row in _sylvester_rows(rho, _conj_cols(rho))]
    return len(fieldlin.nullspace(rows))

