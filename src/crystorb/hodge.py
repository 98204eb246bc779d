"""The complex-structure side: evenness of a crystallographic group,
construction of invariant complex structures, period-type matrices with the
orientation test, Hodge types, and dimensions of the fixed-locus components
of the torus parameter space.

Everything here is exact; nothing is numeric.  Existence of J is decided by
evenness of the isotypic data.  The lattice J is the first pairing pattern or
group element that `_rational_j` accepts, an IntMatrix checked on the
generators; when none is, J is read off the exact sample point of the first
Hodge type: with M = (B | conj B) for a basis B of the sampled V, J = M
diag(iI, -iI) M^-1, whose entries lie in a cyclotomic field.  A period
matrix is its 2n rows of n Cyclo entries of one field.  One builder,
`_sylvester_rows`, writes the equations X A = B X of both the commutant and
the tangent space.  Signs are read off `cyclo.real_enclosure`.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction
from functools import cache
from math import gcd, isqrt, lcm
from operator import mul

from . import fieldlin
from .crystal import CrystGroup
from .cyclo import CycloField, real_enclosure
from .exactla import IntMatrix, kernel_q
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


def _commutant_basis(acts, w):
    """Basis of the integer matrices commuting with every action matrix
    (rows): the HNF kernel basis of `kernel_q`, as w x w IntMatrix values."""
    rows = [row for m in acts for row in _sylvester_rows(m, m)]
    return [IntMatrix(w, w, v) for v in kernel_q(rows, w * w)]


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


def _over_integers(X):
    """(N, d) with X = N / d: d the least common denominator of the
    rational matrix X, N an IntMatrix."""
    d = lcm(*(x.denominator for row in X for x in row))
    return IntMatrix(len(X), len(X[0]),
                     tuple(x.numerator * (d // x.denominator) for row in X for x in row)), d


def _minus_square(N):
    """c > 0 with N^2 = -c I for the IntMatrix N, an integer; else None."""
    square = N.mul(N).entries
    c = -square[0]
    minus_c = tuple(-c * x for x in IntMatrix.identity(N.rows).entries)
    return c if c > 0 and square == minus_c else None


def _candidates(basis, w, seed):
    """The IntMatrix basis matrices, their pairwise sums and differences,
    then eight seeded combinations with coefficients in [-3, 3]."""
    out = list(basis)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            out.append(basis[i].add(basis[j]))
            out.append(basis[i].add(basis[j].neg()))
    rng = random.Random(seed)
    for _ in range(8):
        coeffs = [rng.randint(-3, 3) for _ in basis]
        out.append(IntMatrix(w, w, tuple(sum(map(mul, coeffs, column))
                                         for column in zip(*(b.entries for b in basis)))))
    return out


def _rational_j(candidates, gens):
    """The first N / sqrt(c) over the IntMatrix candidates N with N^2 = -c I,
    c a square, that commutes with every generator IntMatrix; or None.  c > 0
    makes N invertible."""
    for N in candidates:
        c = _minus_square(N)
        if c is None:
            continue
        s = isqrt(c)
        if s * s == c and all(N.mul(m) == m.mul(N) for m in gens):
            return [[F(x, s) for x in row] for row in N.row_tuples]
    return None


def isotypic_basis(group: MatrixGroup, table: CharacterTable, chars, field=None):
    """Columns spanning the image of P = (1/|G|) sum over g of
    (sum over chi in chars of chi(1) conj chi(g)) L(g), the isotypic part of
    the characters `chars` in the lattice representation.

    The entries lie in Q when `field` is None, and a coefficient that is not
    rational is a ValueError; otherwise in the cyclotomic `field`, which
    must contain the table's field.  The coefficient is constant on each
    class, so the integer L(g) are summed per class first: one product per
    class and entry."""
    n = group.order()
    w = group.rank
    zero = F(0) if field is None else field(0)
    proj = [[zero] * w for _ in range(w)]
    # conj chi(g) = chi(g^-1): the values at the inverse classes
    for cls, powers in zip(table.classes, group.power_classes):
        total = table.field(0)
        for chi in chars:
            total = total + chi.degree * chi.values[powers[-1]]
        c = total.rational_value() if field is None else total.lift(field.order)
        c = c * F(1, n)
        if c == 0:
            continue
        class_sum = list(map(sum, zip(*(group.elements[g].entries for g in cls.members))))
        for i in range(w):
            for j in range(w):
                if class_sum[i * w + j]:
                    proj[i][j] = proj[i][j] + c * class_sum[i * w + j]
    red, pivots = fieldlin.rref(proj)
    return fieldlin.columns(proj, pivots)


def rational_isotypic_projectors(group: MatrixGroup, table: CharacterTable):
    """The rational (Galois-orbit) isotypic components of the lattice.

    Returns a list of (labels, rational column basis of the projector's
    image), one per Galois orbit of characters; zero components are
    dropped."""
    e = table.field.order
    # chi^(a)(g) = chi(g^a), and e is the group's exponent: the image of a
    # row under zeta -> zeta^a is the row read at the classes of a-th powers
    images = {tuple(pc[a % len(pc)] for pc in group.power_classes)
              for a in range(1, e + 1) if gcd(a, e) == 1}
    chars = table.characters
    index = {chi.values: i for i, chi in enumerate(chars)}
    out = []
    seen = set()
    for i, chi in enumerate(chars):
        if i in seen:
            continue
        rows = (tuple(chi.values[ci] for ci in image) for image in images)
        orbit = sorted({index[values] for values in rows if values in index})
        seen.update(orbit)
        try:
            basis = isotypic_basis(group, table, [chars[oi] for oi in orbit])
        except ValueError:
            raise ArithmeticError("Galois-orbit character sum is not rational") from None
        if basis[0]:
            out.append((tuple(chars[oi].label for oi in orbit), basis))
    return out


def invariant_complex_structure(crys: CrystGroup, ev: EvennessReport,
                                seed=0) -> ComplexStructure:
    """Construct a complex structure commuting with the point group.

    Existence is decided by the caller's evenness report `ev` alone:
    ValueError when it is not even.  For an even group J is X / sqrt(c) for
    the first pairing pattern, then group element, X with X^2 = -c I, c a
    rational square, that commutes with every generator.  When there is
    none, J is the complex structure of the sample point of the first Hodge
    type, exact over a cyclotomic field; UnsupportedSample when the sampler
    does not construct that type."""
    if not ev.even:
        raise ValueError("a group that is not even admits no invariant complex structure")
    elements = crys.group.elements
    gens = [elements[s] for s in crys.group.generators]
    J = _rational_j(itertools.chain(_standard_pairings(crys.rank), elements), gens)
    if J is None:
        B, _ = sample_subspace(crys, hodge_types(ev)[0], seed)
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


def _negative_square(vs):
    """A matrix X in the span of `vs` with XY + YX = b(X, Y) I for every Y
    in the span and b(X, X) < 0, or None: Lagrange's diagonalization of the
    form b, which the span must carry."""
    def b(X, Y):   # the (0, 0) entry of XY + YX
        return sum(X[0][k] * Y[k][0] + Y[0][k] * X[k][0] for k in range(len(X)))

    def plus(X, s, Y):
        return [[x + s * y for x, y in zip(r, q)] for r, q in zip(X, Y)]

    while vs:
        v = next((v for v in vs if b(v, v) != 0), None)
        if v is None:
            # all isotropic: u - w or u + w squares to -2|b(u, w)| I
            u, w = next(((u, w) for u, w in itertools.combinations(vs, 2) if b(u, w) != 0),
                        (None, None))
            return None if u is None else plus(u, -1 if b(u, w) > 0 else 1, w)
        if b(v, v) < 0:
            return v
        vs = [plus(u, -F(b(u, v), b(v, v)), v) for u in vs if u is not v]
        vs = [u for u in vs if any(x != 0 for row in u for x in row)]
    return None


def _multiplicity_pairing(acts, w, seed):
    """(X, c) with X^2 = -c I, c > 0 rational, X commuting with `acts`: a
    rational pairing (c = 1), else a pairing from the trace-zero part of the
    commutant, X - (tr X / w) I over its basis X.  On a multiplicity space
    of dimension 2 over the block's division algebra, trace-zero X and Y
    have XY + YX scalar (Cayley-Hamilton in M_2(Q); pure quaternions), and
    the form has a negative direction.  `acts` are scaled to integers once."""
    gens = [_over_integers(m)[0] for m in acts]
    commutant = cache(lambda: _commutant_basis([m.row_tuples for m in gens], w))

    def candidates():   # the pairing patterns, then seeded commutant combinations
        yield from _standard_pairings(w)
        yield from _candidates(commutant(), w, seed)

    X = _rational_j(candidates(), gens)
    if X is not None:
        return X, F(1)
    traceless = []
    for N in commutant():
        t = F(sum(N.at(i, i) for i in range(w)), w)
        traceless.append([[x - t if i == j else x for j, x in enumerate(row)]
                          for i, row in enumerate(N.row_tuples)])
    X = _negative_square(traceless)
    if X is not None:
        N, d = _over_integers(X)
        c = _minus_square(N)
        if c is not None:
            return X, F(c, d * d)
    raise UnsupportedSample("no multiplicity-space pairing found")


def _sqrt_rational(c):
    """A square root of the positive rational c in a cyclotomic field, as
    sqrt(num den) / den.  Each prime p of odd exponent in num den contributes
    sqrt 2 = zeta_8 + zeta_8^-1, or, for p odd, the quadratic Gauss sum
    g = sum over a mod p of zeta_p^(a^2), with g^2 = p for p = 1 (mod 4) and
    g^2 = -p for p = 3 (mod 4), where sqrt p = -i g."""
    m, k, odd = c.numerator * c.denominator, 1, []
    for p in itertools.count(2):
        if p * p > m:
            break
        e = 0
        while m % p == 0:
            m, e = m // p, e + 1
        k *= p ** (e // 2)
        if e % 2:
            odd.append(p)
    if m > 1:
        odd.append(m)
    K = CycloField(lcm(*(8 if q == 2 else 4 * q for q in odd)))
    root = K(F(k, c.denominator))
    for q in odd:
        if q == 2:
            z = K.zeta(K.order // 8)
            root = root * (z + z.conjugate())
        else:
            g = K.from_exponents(Counter(K.order // q * a * a % K.order for a in range(q)))
            root = root * (g if q % 4 == 1 else g * K.zeta(3 * K.order // 4))
    return root


def sample_subspace(crys: CrystGroup, t: HodgeType, seed=0):
    """An explicit invariant subspace of the given Hodge type.

    Returns (B, action): B a 2n x n matrix over a cyclotomic field (list of
    rows) whose columns span V with V + conj V = C^2n, and action the
    matrices rho_g of the generators on it, L(g) B = B rho_g, which the
    invariance check solves.  A complex pair (chi, conj chi) contributes
    the first a d columns of a basis W of the isotypic part W_chi, then the
    conjugates of its other (m - a) d columns: every L(g) is real, so conj
    W_chi = W_conj chi, and those conjugates complement conj V inside it.  A
    real or quaternionic class contributes the i sqrt(c)-eigenspace of a
    pairing X of its rational isotypic block, X^2 = -c I, over a field that
    also holds sqrt(c).  Raises UnsupportedSample for the types the sampler
    does not construct."""
    table = point_group_table(crys)
    gens = crys.group.generators
    field = _sample_field(table)
    chars = {c.label: c for c in table.characters}
    w = crys.rank
    cols = []
    blocks = None

    for s in t.splits:
        if s.fs_type == "complex":
            m, d, a = s.multiplicity, s.degree, s.a
            if d > 1 and a not in (0, m):
                raise UnsupportedSample(
                    "sampling of intermediate splits needs degree-1 constituents")
            W = isotypic_basis(crys.group, table, [chars[s.labels[0]]], field)
            cols.append([row[:a * d] + [z.conjugate() for z in row[a * d:]] for row in W])
        else:
            chi = chars[s.labels[0]]
            if not all(v.is_rational() for v in chi.values):
                raise UnsupportedSample(
                    "sampling of real or quaternionic classes needs rational characters")
            # a rational character is its own Galois orbit
            if blocks is None:
                blocks = dict(rational_isotypic_projectors(crys.group, table))
            R = blocks[(chi.label,)]
            width = len(R[0])
            X, c = _multiplicity_pairing(_block_action(crys, R, gens), width, seed)
            root = _sqrt_rational(c)
            _require(root * root == c, "the square root of c does not square to c")
            K = CycloField(lcm(field.order, root.field.order))
            eigenvalue = _i_power(1, K) * root
            shifted = [[K(X[i][j]) - (eigenvalue if i == j else 0)
                        for j in range(width)] for i in range(width)]
            ys = fieldlin.nullspace(shifted)
            _require(len(ys) == width // 2, "eigenspace of the pairing has the wrong dimension")
            Rf = [[K(x) for x in row] for row in R]
            cols.append(fieldlin.mat_mul(Rf, [[y[k] for y in ys] for k in range(width)]))

    K = CycloField(lcm(*(col[0][0].field.order for col in cols)))
    B = fieldlin.hstack(*([[K(x) for x in row] for row in col] for col in cols))
    _require(len(B[0]) == crys.n, "sampled subspace does not have dimension n")
    _require(fieldlin.rank(fieldlin.hstack(B, _conj_cols(B))) == w,
             "sampled subspace meets its conjugate")
    return B, _block_action(crys, B, gens)   # raises if not invariant


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

