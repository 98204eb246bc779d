"""The complex-structure side: evenness of a crystallographic group,
construction of invariant complex structures, period-type matrices with the
orientation test, Hodge types, and dimensions of the fixed-locus components
of the torus parameter space.

Existence questions are decided exactly (evenness of isotypic data); the
numeric path only ever constructs a certificate for an answer that is
already known, and reports max-norm residuals at 128-bit precision.  One
search, `_rational_j`, finds every rational J, with invariance checked on the
generators; one builder, `_matrix_equation`, writes every linear matrix
equation.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

import mpmath

from . import fieldlin
from .crystal import CrystGroup
from .cyclo import CycloField
from .exactla import IntMatrix, kernel_q
from .groupcore import CharacterTable, IsotypicReport, MatrixGroup, _require

F = Fraction

RESIDUAL_TOLERANCE = "1e-30"
DEFAULT_PRECISION = 128


class NumericalFailure(Exception):
    """The certified-residual construction failed after all retries.  This
    signals an implementation problem: existence was already decided."""


class UnsupportedSample(Exception):
    """A Hodge type whose sample point `sample_subspace` does not construct."""


class DegenerateOmega(Exception):
    """det(Omega | conj Omega) vanished: the columns do not split C^2n."""


def point_group_table(crys: CrystGroup) -> CharacterTable:
    return crys.group.table


@dataclass(frozen=True)
class EvennessReport:
    even: bool
    report: IsotypicReport
    odd_witness: tuple    # offending class labels, or ("odd_rank",)


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


@dataclass(frozen=True)
class ComplexStructure:
    mode: str                 # "exact" | "approximate"
    entries: tuple            # Fractions (exact) or mpf (approximate)
    precision_bits: int
    j_squared_residual: object
    commutator_residual: object

    @property
    def dim(self):
        return len(self.entries)


@dataclass(frozen=True)
class JSearchResult:
    structure: object         # ComplexStructure or None
    evenness: EvennessReport


# ---------------------------------------------------------------------------
# exact search machinery

def _is_minus_identity(A):
    w = len(A)
    return all(A[i][j] == (F(-1) if i == j else 0) for i in range(w) for j in range(w))


def _commutes_with_all(J, mats):
    return all(fieldlin.mat_mul(J, m) == fieldlin.mat_mul(m, J) for m in mats)


def _identity(w, one=F(1)):
    zero = one - one
    return [[one if i == j else zero for j in range(w)] for i in range(w)]


def _neg(M):
    return [[-x for x in row] for row in M]


def _block_action(crys: CrystGroup, basis, indices):
    """The matrices of the elements `indices` on the span of the columns of
    `basis`, in those coordinates; ArithmeticError if it is not invariant."""
    return [fieldlin.solve_columns(basis, fieldlin.mat_mul(crys.linear(g).to_lists(), basis))
            for g in indices]


def _matrix_equation(terms):
    """The linear equations sum over (P, Q) in `terms` of P X Q = 0 in the
    row-major entries of X: row (i, j), column (a, b) holds the sum of
    P[i][a] Q[b][j].  Exact over any field."""
    P0, Q0 = terms[0]
    inner = len(Q0)
    zero = P0[0][0] - P0[0][0]
    rows = []
    for i in range(len(P0)):
        for j in range(len(Q0[0])):
            row = [zero] * (len(P0[0]) * inner)
            for P, Q in terms:
                for a, x in enumerate(P[i]):
                    if x != 0:
                        for b in range(inner):
                            if Q[b][j] != 0:
                                row[a * inner + b] += x * Q[b][j]
            rows.append(row)
    return rows


def _kernel_matrices(rows, w):
    """The primitive integer kernel basis of `kernel_q`, as w x w matrices."""
    return [[list(v[i * w:(i + 1) * w]) for i in range(w)]
            for v in kernel_q(rows)]


def _invariant_skew_basis(gens, w):
    """Rational basis of {A skew : m^T A m = A for every generator m}."""
    rows = []
    for i in range(w):
        for j in range(i, w):
            row = [F(0)] * (w * w)
            row[i * w + j] += 1
            row[j * w + i] += 1
            rows.append(row)
    for m in gens:
        rows += _matrix_equation([([list(c) for c in zip(*m)], m),
                                  (_neg(_identity(w)), _identity(w))])
    return _kernel_matrices(rows, w)


def _commutant_basis(acts, w):
    """Rational basis of matrices commuting with every action matrix."""
    rows = []
    for m in acts:
        rows += _matrix_equation([(_identity(w), m), (_neg(m), _identity(w))])
    return _kernel_matrices(rows, w)


def _sum_gram(mats, w):
    """Sum of m^T m over mats in the entries' own type, as Fractions."""
    S = [[0] * w for _ in range(w)]
    for m in mats:
        for i in range(w):
            for j in range(w):
                S[i][j] += sum(m[a][i] * m[a][j] for a in range(w))
    return [[F(x) for x in row] for row in S]


def _standard_pairings(w):
    """Two fixed pairings of coordinates; both square to -I iff w is even."""
    n = w // 2
    block = [[F(0)] * w for _ in range(w)]
    for i in range(n):
        block[i][n + i] = F(-1)
        block[n + i][i] = F(1)
    inter = [[F(0)] * w for _ in range(w)]
    for i in range(0, w - 1, 2):
        inter[i][i + 1] = F(-1)
        inter[i + 1][i] = F(1)
    return [block, inter]


def _scaled_root(X):
    """J = X / sqrt(c) when X^2 = -c I with c a square rational, c > 0;
    else None.  c > 0 makes X invertible."""
    w = len(X)
    X2 = fieldlin.mat_mul(X, X)
    c = -X2[0][0]
    if c <= 0:
        return None
    for i in range(w):
        for j in range(w):
            if X2[i][j] != (-c if i == j else 0):
                return None
    num, den = c.numerator, c.denominator
    sn, sd = isqrt(num), isqrt(den)
    if sn * sn != num or sd * sd != den:
        return None
    s = F(sn, sd)
    return [[x / s for x in row] for row in X]


def _candidates(basis, w, seed, attempts, spread):
    """The basis matrices, their pairwise sums and differences, then
    `attempts` seeded combinations with coefficients in [-spread, spread]."""
    out = list(basis)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            out.append([[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(basis[i], basis[j])])
            out.append([[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(basis[i], basis[j])])
    rng = random.Random(seed)
    for _ in range(attempts):
        coeffs = [F(rng.randint(-spread, spread)) for _ in basis]
        out.append([[sum((c * b[i][j] for c, b in zip(coeffs, basis)), F(0))
                     for j in range(w)] for i in range(w)])
    return out


def _rational_j(candidates, gens):
    """The first X / sqrt(c) over the candidates X with X^2 = -c I, c a
    rational square, that commutes with every generator matrix; or None."""
    for X in candidates:
        J = _scaled_root(X)
        if J is not None and _commutes_with_all(J, gens):
            return J
    return None


def _action_j(mats, gens, seed):
    """(J, forms): the search over the pairing patterns, the action matrices
    `mats`, then skew quotients S^-1 A, with S the Gram sum over `mats`;
    forms = (S, S^-1, skew basis), None when they were not needed."""
    w = len(mats[0])
    J = _rational_j(itertools.chain(_standard_pairings(w), mats), gens)
    if J is not None:
        return J, None
    S = _sum_gram(mats, w)
    Sinv = fieldlin.inverse(S)
    skew = _invariant_skew_basis(gens, w)
    quotients = (fieldlin.mat_mul(Sinv, A) for A in _candidates(skew, w, seed, 8, 4))
    return _rational_j(quotients, gens), (S, Sinv, skew)


def isotypic_basis(group: MatrixGroup, table: CharacterTable, chars, field=None):
    """Columns spanning the image of P = (1/|G|) sum over g of
    (sum over chi in chars of chi(1) conj chi(g)) L(g), the isotypic part of
    the characters `chars` in the lattice representation.

    The entries lie in Q when `field` is None, and raise ValueError when a
    coefficient is not rational; otherwise in the cyclotomic `field`, which
    must contain the table's field."""
    n = group.order()
    w = group.rank
    zero = F(0) if field is None else field(0)
    coeffs = []
    for ci in range(len(table.classes)):
        total = table.field(0)
        for chi in chars:
            total = total + chi.degree * chi.values[ci].conjugate()
        c = total.rational_value() if field is None else total.lift(field.order)
        coeffs.append(c * F(1, n))
    proj = [[zero] * w for _ in range(w)]
    for g, ci in enumerate(group.class_index):
        c = coeffs[ci]
        if c == 0:
            continue
        mat = group.elements[g]
        for i in range(w):
            for j in range(w):
                if mat.at(i, j):
                    proj[i][j] = proj[i][j] + c * mat.at(i, j)
    red, pivots = fieldlin.rref(proj)
    return fieldlin.columns(proj, pivots)


def rational_isotypic_projectors(group: MatrixGroup, table: CharacterTable):
    """The rational (Galois-orbit) isotypic components of the lattice.

    Returns a list of (labels, rational column basis of the projector's
    image), one per Galois orbit of characters; zero components are
    dropped."""
    e = table.field.order
    units = [a for a in range(1, e + 1) if gcd(a, e) == 1]
    chars = table.characters
    index = {chi.values: i for i, chi in enumerate(chars)}
    out = []
    seen = set()
    for i, chi in enumerate(chars):
        if i in seen:
            continue
        images = (tuple(v.galois(a) for v in chi.values) for a in units)
        orbit = sorted({index[values] for values in images if values in index})
        seen.update(orbit)
        try:
            basis = isotypic_basis(group, table, [chars[oi] for oi in orbit])
        except ValueError:
            raise ArithmeticError("Galois-orbit character sum is not rational") from None
        if basis[0]:
            out.append((tuple(chars[oi].label for oi in orbit), basis))
    return out


def _blockwise_exact_j(crys, seed):
    """J = T diag(J_1, ..., J_k) T^-1 from one rational J_i per rational
    isotypic block, T the columns of the blocks; None when a block has none,
    or when the one block is the lattice, where the search already failed."""
    w = crys.rank
    blocks = rational_isotypic_projectors(crys.group, point_group_table(crys))
    if len(blocks) == 1:
        return None
    bases = []
    sub_js = []
    for _, basis in blocks:
        acts = _block_action(crys, basis, range(crys.order()))
        block_gens = [acts[s] for s in crys.group.generators]
        J_block, _ = _action_j(acts, block_gens, seed)
        if J_block is None:
            return None
        bases.append(basis)
        sub_js.append(J_block)
    T = fieldlin.hstack(*bases)
    if len(T[0]) != w:
        return None
    D = [[F(0)] * w for _ in range(w)]
    off = 0
    for Jb in sub_js:
        k = len(Jb)
        for i in range(k):
            for j in range(k):
                D[off + i][off + j] = Jb[i][j]
        off += k
    J = fieldlin.mat_mul(fieldlin.mat_mul(T, D), fieldlin.inverse(T))
    return J


# ---------------------------------------------------------------------------

def invariant_complex_structure(crys: CrystGroup, seed=0,
                                precision=DEFAULT_PRECISION,
                                retries=8) -> JSearchResult:
    """Construct a complex structure commuting with the point group.

    Existence is decided by is_even alone.  For an even group one search
    takes the first X with X^2 = -c I, c a rational square, whose X / sqrt(c)
    commutes with every generator: pairing patterns, group elements, then
    skew quotients S^-1 A (S the Gram sum over G, A an invariant skew form);
    then the same search on each rational isotypic block, when there are
    several; then a certified approximate J, whose commutator residual is a
    maximum over all of G."""
    ev = is_even(crys)
    if not ev.even:
        return JSearchResult(None, ev)
    mats = [m.to_lists() for m in crys.group.elements]
    gens = [mats[s] for s in crys.group.generators]

    J, forms = _action_j(mats, gens, seed)
    if J is None:
        J = _blockwise_exact_j(crys, seed)
    if J is not None:
        _require(_is_minus_identity(fieldlin.mat_mul(J, J)), "exact J does not square to -I")
        _require(_commutes_with_all(J, gens), "exact J does not commute with the action")
        structure = ComplexStructure(
            "exact", tuple(tuple(r) for r in J), precision, F(0), F(0))
        return JSearchResult(structure, ev)

    structure = _approximate_j(mats, forms, seed, precision, retries)
    return JSearchResult(structure, ev)


def _approximate_j(mats, forms, seed, precision, retries):
    S, Sinv, skew = forms
    w = len(S)
    if not skew:
        raise NumericalFailure("no invariant skew forms; evenness bookkeeping broken")
    rng = random.Random(seed)
    tol = None
    for attempt in range(retries):
        if attempt == 0:
            coeffs = [F(1)] * len(skew)
        else:
            coeffs = [F(rng.randint(-9, 9)) for _ in skew]
        A = [[sum((c * b[i][j] for c, b in zip(coeffs, skew)), F(0))
              for j in range(w)] for i in range(w)]
        if fieldlin.det(A) == 0:
            continue
        X = fieldlin.mat_mul(Sinv, A)
        T = [[-x for x in row] for row in fieldlin.mat_mul(X, X)]
        with mpmath.workprec(precision):
            tol = mpmath.mpf(RESIDUAL_TOLERANCE)
            Smp = mpmath.matrix([[_to_mpf(x) for x in row] for row in S])
            L = mpmath.cholesky(Smp)
            R = L.T
            Rinv = R ** -1
            Tmp = mpmath.matrix([[_to_mpf(x) for x in row] for row in T])
            Tp = R * Tmp * Rinv
            Tp = (Tp + Tp.T) / 2
            E, Q = mpmath.eigsy(Tp)
            if min(E) <= 0:
                continue
            D = mpmath.diag([1 / mpmath.sqrt(E[i]) for i in range(w)])
            Tinvhalf = Q * D * Q.T
            Xmp = mpmath.matrix([[_to_mpf(x) for x in row] for row in X])
            Jmp = Xmp * Rinv * Tinvhalf * R
            r1 = _max_norm(Jmp * Jmp + mpmath.eye(w))
            r2 = mpmath.mpf(0)
            for m in mats:
                Mmp = mpmath.matrix([[_to_mpf(x) for x in row] for row in m])
                r2 = max(r2, _max_norm(Jmp * Mmp - Mmp * Jmp))
            if r1 <= tol and r2 <= tol:
                entries = tuple(tuple(Jmp[i, j] for j in range(w)) for i in range(w))
                return ComplexStructure("approximate", entries, precision, r1, r2)
    raise NumericalFailure(
        f"no certified complex structure after {retries} attempts")


def _to_mpf(x):
    return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)


def _max_norm(M):
    return max(abs(M[i, j]) for i in range(M.rows) for j in range(M.cols))


# ---------------------------------------------------------------------------
# Omega matrices

GAUSS = CycloField(4)


@dataclass(frozen=True)
class OmegaMatrix:
    """A 2n x n complex matrix; rows are indexed by the lattice basis.

    Exact mode stores Gaussian rationals (elements of Q(i)); approximate
    mode stores mpmath complex numbers tagged with their precision."""

    mode: str
    rows: int
    cols: int
    entries: tuple
    precision_bits: int = DEFAULT_PRECISION

    @staticmethod
    def exact(pairs):
        rows = len(pairs)
        cols = len(pairs[0])
        ent = tuple(tuple(GAUSS(F(re)) + GAUSS(F(im)) * GAUSS.zeta() for re, im in row)
                    for row in pairs)
        return OmegaMatrix("exact", rows, cols, ent)

    @staticmethod
    def approximate(values, precision=DEFAULT_PRECISION):
        rows = len(values)
        cols = len(values[0])
        with mpmath.workprec(precision):
            ent = tuple(tuple(mpmath.mpc(v) for v in row) for row in values)
        return OmegaMatrix("approximate", rows, cols, ent, precision)

    def conjugate_entries(self):
        if self.mode == "exact":
            return [[z.conjugate() for z in row] for row in self.entries]
        return [[mpmath.conj(z) for z in row] for row in self.entries]


def _half_dim(omega: OmegaMatrix):
    if omega.rows != 2 * omega.cols:
        raise ValueError("omega must have shape 2n x n")
    return omega.cols


def omega_in_T(omega: OmegaMatrix) -> bool:
    """Sign test i^n det(Omega | conj Omega) > 0.

    The quantity is automatically real; DegenerateOmega is raised when the
    determinant vanishes (the columns and their conjugates fail to span)."""
    n = _half_dim(omega)
    if omega.mode == "exact":
        M = fieldlin.hstack([list(r) for r in omega.entries],
                            omega.conjugate_entries())
        d = fieldlin.det(M)
        if d == 0:
            raise DegenerateOmega("det(Omega | conj Omega) = 0")
        val = d.field.zeta(n * (d.field.order // 4)) * d
        sign = val.rational_value()   # i^n det is real by conjugation symmetry
        return sign > 0
    with mpmath.workprec(omega.precision_bits):
        M = mpmath.matrix([list(r) + [mpmath.conj(z) for z in r2]
                           for r, r2 in zip(omega.entries, omega.entries)])
        d = mpmath.det(M)
        scale = max(mpmath.mpf(1), max(abs(z) for row in omega.entries for z in row)) ** (2 * n)
        if abs(d) <= mpmath.mpf(RESIDUAL_TOLERANCE) * scale:
            raise DegenerateOmega("det(Omega | conj Omega) is numerically zero")
        val = mpmath.mpc(0, 1) ** n * d
        if abs(val.imag) > abs(val) * mpmath.mpf("1e-20"):
            raise ArithmeticError("i^n det failed to be real")
        return val.real > 0


@dataclass(frozen=True)
class TorusModel:
    """The torus (lattice tensor R)/Z^2n with the complex structure pulled
    back from multiplication by i on the column span."""

    J: ComplexStructure
    projection: tuple     # top half of (Omega | conj Omega)^{-1}: V-coordinates
    mode: str


def torus_from_omega(omega: OmegaMatrix) -> TorusModel:
    n = _half_dim(omega)
    if not omega_in_T(omega):
        raise ValueError("omega is outside the oriented parameter space")
    if omega.mode == "exact":
        O = [list(r) for r in omega.entries]
        M = fieldlin.hstack(O, omega.conjugate_entries())
        Minv = fieldlin.inverse(M)
        M1 = Minv[:n]
        i_unit = GAUSS.zeta()
        iOM1 = [[i_unit * x for x in row] for row in fieldlin.mat_mul(O, M1)]
        J = [[(z + z.conjugate()).rational_value() for z in row] for row in iOM1]
        JJ = fieldlin.mat_mul(J, J)
        _require(_is_minus_identity(JJ), "J of the period matrix does not square to -I")
        proj = tuple(tuple((F(z.num[0], z.den), F(z.num[1], z.den)) for z in row) for row in M1)
        structure = ComplexStructure("exact", tuple(tuple(r) for r in J),
                                     omega.precision_bits, F(0), F(0))
        return TorusModel(structure, proj, "exact")
    with mpmath.workprec(omega.precision_bits):
        rows = 2 * n
        M = mpmath.matrix([list(r) + [mpmath.conj(z) for z in r]
                           for r in omega.entries])
        Minv = M ** -1
        O = mpmath.matrix([list(r) for r in omega.entries])
        M1 = Minv[:n, :]
        iOM1 = mpmath.mpc(0, 1) * (O * M1)
        J = mpmath.matrix(rows, rows)
        for i in range(rows):
            for j in range(rows):
                J[i, j] = 2 * iOM1[i, j].real
        res = _max_norm(J * J + mpmath.eye(rows))
        structure = ComplexStructure(
            "approximate",
            tuple(tuple(J[i, j] for j in range(rows)) for i in range(rows)),
            omega.precision_bits, res, mpmath.mpf(0))
        proj = tuple(tuple(M1[i, j] for j in range(2 * n)) for i in range(n))
        return TorusModel(structure, proj, "approximate")


def right_action(omega: OmegaMatrix, g: IntMatrix) -> OmegaMatrix:
    """The parameter-space action of a point-group element.

    Implemented on column spans: the subspace moves by the inverse linear
    part, so acting by g then h equals acting by g*h (a right action) and
    the fixed points are exactly the invariant subspaces."""
    if g.rows != omega.rows or g.cols != omega.rows:
        raise ValueError("group element has incompatible shape")
    try:
        inv = fieldlin.inverse([[F(x) for x in row] for row in g.to_lists()])
    except ArithmeticError:
        raise ValueError("matrix is singular") from None
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("matrix has non-integer entries")
    ginv = [[int(x) for x in row] for row in inv]
    if omega.mode == "exact":
        rows = []
        for i in range(omega.rows):
            row = []
            for j in range(omega.cols):
                acc = GAUSS(0)
                for k in range(omega.rows):
                    acc = acc + ginv[i][k] * omega.entries[k][j]
                row.append(acc)
            rows.append(tuple(row))
        return OmegaMatrix("exact", omega.rows, omega.cols, tuple(rows),
                           omega.precision_bits)
    with mpmath.workprec(omega.precision_bits):
        rows = []
        for i in range(omega.rows):
            row = []
            for j in range(omega.cols):
                acc = mpmath.mpc(0)
                for k in range(omega.rows):
                    acc += ginv[i][k] * omega.entries[k][j]
                row.append(acc)
            rows.append(tuple(row))
        return OmegaMatrix("approximate", omega.rows, omega.cols, tuple(rows),
                           omega.precision_bits)


def same_span(a: OmegaMatrix, b: OmegaMatrix) -> bool:
    if a.mode != "exact" or b.mode != "exact":
        raise ValueError("span comparison implemented for exact matrices")
    stacked = fieldlin.hstack([list(r) for r in a.entries],
                              [list(r) for r in b.entries])
    return fieldlin.rank(stacked) == a.cols


# ---------------------------------------------------------------------------
# Hodge types

@dataclass(frozen=True)
class ClassSplit:
    """Dimension split of one real-irreducible class between V and conj V."""

    labels: tuple
    fs_type: str
    degree: int
    multiplicity: int     # complex multiplicity of one constituent
    a: int                # sub-multiplicity assigned to labels[0] inside V

    @property
    def dims(self):
        return (self.a * self.degree, (self.multiplicity - self.a) * self.degree)


@dataclass(frozen=True)
class HodgeType:
    splits: tuple

    @property
    def holomorphic_dim(self):
        total = 0
        for s in self.splits:
            if s.fs_type == "complex":
                total += s.multiplicity * s.degree
            else:
                total += (s.multiplicity // 2) * s.degree
        return total

    def describe(self):
        return tuple((s.labels, s.a, s.multiplicity - s.a) for s in self.splits)


def hodge_types(crys: CrystGroup):
    """All admissible splits d_chi + d_chibar across conjugate pairs.

    Complex-type pairs admit any split of their multiplicity; real and
    quaternionic classes are forced to the balanced split.  The total
    holomorphic dimension is n for every type."""
    ev = is_even(crys)
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
        _require(t.holomorphic_dim == crys.n, "Hodge type does not have dimension n")
        out.append(t)
    return out


def component_dimension(t: HodgeType, crys: CrystGroup) -> int:
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
    e = table.field.order
    E = e * 4 // gcd(e, 4)
    return CycloField(E)


def _conj_cols(cols):
    return [[z.conjugate() for z in row] for row in cols]


def _commutant_candidates(acts, w, seed):
    """The pairing patterns, then seeded combinations of the commutant."""
    yield from _standard_pairings(w)
    yield from _candidates(_commutant_basis(acts, w), w, seed, 8, 3)


def sample_subspace(crys: CrystGroup, t: HodgeType, seed=0):
    """An explicit invariant subspace of the given Hodge type.

    Returns a 2n x n matrix over a cyclotomic field (list of rows); columns
    span V with V + conj V = C^2n.  Raises UnsupportedSample for the types
    the sampler does not construct."""
    table = point_group_table(crys)
    gens = crys.group.generators
    field = _sample_field(table)
    i_unit = field.zeta(field.order // 4)
    chars = {c.label: c for c in table.characters}
    w = crys.rank
    cols = []

    for s in t.splits:
        if s.fs_type == "complex":
            m, d, a = s.multiplicity, s.degree, s.a
            if d > 1 and a not in (0, m):
                raise UnsupportedSample(
                    "sampling of intermediate splits needs degree-1 constituents")
            WA = isotypic_basis(crys.group, table, [chars[s.labels[0]]], field)
            WB = isotypic_basis(crys.group, table, [chars[s.labels[1]]], field)
            VA = fieldlin.columns(WA, range(a * d))
            conjVA = _conj_cols(VA)
            target = m * d
            chosen = None
            for combo in itertools.combinations(range(target), target - a * d):
                cand = fieldlin.columns(WB, combo)
                test = fieldlin.hstack(cand, conjVA) if a else cand
                if fieldlin.rank(test) == target:
                    chosen = cand
                    break
            if chosen is None:
                raise ArithmeticError("no transversal complement found")
            if a:
                cols.append(VA)
            if target - a * d:
                cols.append(chosen)
        else:
            chi = chars[s.labels[0]]
            if not all(v.is_rational() for v in chi.values):
                raise UnsupportedSample(
                    "sampling of real or quaternionic classes needs rational characters")
            R = isotypic_basis(crys.group, table, [chi])
            width = len(R[0])
            acts = _block_action(crys, R, gens)
            X = _rational_j(_commutant_candidates(acts, width, seed), acts)
            if X is None:
                raise UnsupportedSample("no rational multiplicity-space pairing found")
            shifted = [[field(X[i][j]) - (i_unit if i == j else field(0))
                        for j in range(width)] for i in range(width)]
            ys = fieldlin.nullspace(shifted)
            _require(len(ys) == width // 2, "i-eigenspace of the pairing has the wrong dimension")
            Rf = [[field(x) for x in row] for row in R]
            block = fieldlin.mat_mul(Rf, [[y[k] for y in ys] for k in range(width)])
            cols.append(block)

    B = fieldlin.hstack(*cols)
    _require(len(B[0]) == crys.n, "sampled subspace does not have dimension n")
    _require(fieldlin.rank(fieldlin.hstack(B, _conj_cols(B))) == w,
             "sampled subspace meets its conjugate")
    _block_action(crys, B, gens)   # raises if not invariant
    return B


def tangent_dimension(crys: CrystGroup, B) -> int:
    """Dimension of the invariant-subspace deformations at a sample point.

    Computed as the rank deficiency of the equivariance equations on maps
    from the subspace to its complementary conjugate: a pure linear-algebra
    computation, independent of the character-theoretic dimension formula."""
    n = crys.n
    C = _conj_cols(B)
    M = fieldlin.hstack(B, C)
    Minv = fieldlin.inverse(M)
    identity = _identity(n, B[0][0].field(1))
    rows = []
    gens = crys.group.generators or (0,)
    for gi, rho in zip(gens, _block_action(crys, B, gens)):
        Q = fieldlin.mat_mul(Minv, fieldlin.mat_mul(crys.linear(gi).to_lists(), C))[n:]
        # unknown Psi (n x n): Psi rho - Q Psi = 0
        rows += _matrix_equation([(identity, rho), (_neg(Q), identity)])
    return len(fieldlin.nullspace(rows))


def sample_omega(crys: CrystGroup, t: HodgeType, seed=0,
                 precision=DEFAULT_PRECISION) -> OmegaMatrix:
    """An OmegaMatrix at a sample point of the component; exact whenever the
    entries are Gaussian rationals, else approximate at the precision."""
    B = sample_subspace(crys, t, seed)
    field = B[0][0].field
    pairs = []
    exact = True
    for row in B:
        prow = []
        for z in row:
            re2 = z + z.conjugate()
            im2 = (z - z.conjugate()) / field.zeta(field.order // 4)
            if re2.is_rational() and im2.is_rational():
                prow.append((re2.rational_value() / 2, im2.rational_value() / 2))
            else:
                exact = False
                break
        if not exact:
            break
        pairs.append(prow)
    if exact:
        return OmegaMatrix.exact(pairs)
    with mpmath.workprec(precision):
        values = [[z.complex_value(mpmath) for z in row] for row in B]
    return OmegaMatrix.approximate(values, precision)
