"""The inputs the suite shares: the 19 corpus documents, the 7 documents of
the benchmark's scaling family, ten cyclotomic lattice groups with known
characters, the doubled extraspecial group of order 32, and the
crystallographic group a document
normalizes to; and the Fraction check helpers several modules read vector
systems and integer kernels with.  Test modules import these by name (`from conftest import
...`); seed the two document sets with `family.seeded_documents` exactly as
each test did, since a seed's basis changes depend on which documents are
seeded together."""

from fractions import Fraction
from math import lcm
from operator import mul

import family
import pytest

from crystorb import exactla, fieldlin
from crystorb.cli import parse_cryst_data
from crystorb.corpus import corpus_names, load_corpus
from crystorb.crystal import normalize_action

# jcheck is no test module: rewritten, its asserts still run under python -O
pytest.register_assert_rewrite("jcheck")


def corpus_documents():
    """The corpus documents by name."""
    return {name: load_corpus(name) for name in corpus_names()}


def family_documents():
    """The scaling-family documents by name."""
    return {name: doc for name, (doc, _) in family.scaling_family().items()}


def _cyclotomic_polynomial(n):
    """The coefficients of Phi_n, constant term first: x^n - 1 divided by
    Phi_d for every proper divisor d of n, each monic."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            q = _cyclotomic_polynomial(d)
            rest, poly = poly, []
            for k in range(len(rest) - len(q), -1, -1):
                c = rest[k + len(q) - 1]
                poly.insert(0, c)
                for i, a in enumerate(q):
                    rest[k + i] -= c * a
            assert not any(rest)
    return poly


def _zeta_powers(n):
    """The coordinates of zeta_n^k, k = 0, ..., n - 1, in the basis 1, zeta,
    ..., zeta^(phi(n) - 1) of Z[zeta_n]."""
    phi = _cyclotomic_polynomial(n)
    out, v = [], [1] + [0] * (len(phi) - 2)
    for _ in range(n):
        out.append(v)
        v = [x - v[-1] * c for x, c in zip([0] + v[:-1], phi)]
    return out


def cyclotomic_documents():
    """<zeta_n> semidirect H acting on Z[zeta_n]^2, H generated by the Galois
    maps zeta -> zeta^u: order n |H|, rank 2 phi(n).  The dihedral D5 and
    D9, C9 : C3, F21 and F42, C12 : C2 three ways, C8 : (Z/8)^x and
    C12 : (Z/12)^x.  They have real characters with irrational values and
    complex pairs of degree 3."""
    cases = [(5, (4,)), (7, (2,)), (9, (8,)), (9, (4,)), (12, (5,)), (12, (7,)),
             (12, (11,)), (7, (3,)), (8, (3, 5)), (12, (5, 7))]
    docs = {}
    for n, units in cases:
        powers = _zeta_powers(n)
        r = len(powers[0])

        def doubled(images):   # the map zeta^k -> zeta^images[k] on both copies
            m = [[powers[images[j] % n][i] for j in range(r)] for i in range(r)]
            return [row + [0] * r for row in m] + [[0] * r + row for row in m]

        maps = [doubled(range(1, r + 1))] + [doubled([u * k for k in range(r)]) for u in units]
        docs[f"cyc{n}_u{'_'.join(map(str, units))}"] = {
            "rank": 2 * r, "generators": [{"linear": m, "translation": [0] * (2 * r)}
                                          for m in maps]}
    return docs


def extraspecial_documents():
    """The extraspecial group 2^(1+4)_+ of order 32 on Z^8, generated by
    r (x) I, s (x) I, I (x) r and I (x) s for r = [[0, -1], [1, 0]] and
    s = diag(1, -1), each taken as diag(M, M).  Its one real class has
    degree 4 and multiplicity 2, and no element has an eigenvalue of
    multiplicity 1 on the constituent: one element's eigenspace is never a
    joint eigenspace of dimension 2."""
    r, s, one = [[0, -1], [1, 0]], [[1, 0], [0, -1]], [[1, 0], [0, 1]]

    def kron(A, B):
        return [[a * b for a in row_a for b in row_b] for row_a in A for row_b in B]

    def doubled(M):
        return [row + [0] * 4 for row in M] + [[0] * 4 + row for row in M]

    maps = [doubled(kron(r, one)), doubled(kron(s, one)),
            doubled(kron(one, r)), doubled(kron(one, s))]
    return {"extraspecial32_rank8": {
        "rank": 8, "generators": [{"linear": m, "translation": [0] * 8} for m in maps]}}


def identity(rank):
    """The identity matrix, as a tuple of int rows."""
    return tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))


def mat_product(A, B):
    """The product of two matrices, as a tuple of row tuples."""
    return tuple(tuple(sum(map(mul, row, col)) for col in zip(*B)) for row in A)


def l_minus_i(L):
    """L - I, as lists of int rows."""
    return [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(L)]


def crystal_group(doc):
    """The crystallographic group of a CLI document, pure translations
    absorbed into the lattice."""
    return normalize_action(parse_cryst_data(doc)).group


def over_one_denominator(vectors):
    """(den, numerators) of rational vectors, as a VectorSystem stores them:
    den the lcm of their denominators, each numerator reduced into [0, den)."""
    vectors = [[Fraction(x) for x in v] for v in vectors]
    den = lcm(*(x.denominator for v in vectors for x in v))
    return den, tuple(tuple(x.numerator * (den // x.denominator) % den for x in v)
                      for v in vectors)


def congruence_rhs(vector):
    """(den, numerators) of one rational right-hand side of the torus
    solvers, through over_one_denominator."""
    den, (num,) = over_one_denominator([vector])
    return den, num


def integer_rows(A):
    """Each row of the rational matrix A times the lcm of its denominators:
    integer rows with the kernel of A, as `exactla.kernel_q` takes them."""
    return [[int(x * lcm(*(y.denominator for y in row))) for x in row] for row in A]


def translation(vs, i):
    """u_g of a vector system for the element of index i, as Fractions in
    [0,1)^r."""
    return tuple(Fraction(x, vs.den) for x in vs.numerators[i])


def translations(vs):
    """Every u_g of a vector system, as Fractions in [0,1)^r."""
    return tuple(translation(vs, i) for i in range(vs.group.order()))


def mod1_vec(v):
    """Reduce a rational vector into [0,1)^r."""
    return tuple(Fraction(x) % 1 for x in v)


def cocycle_defect(vs, i, j):
    """L(g_i) u_j + u_i - u_{ij}; integral for a valid system."""
    g = vs.group
    img = exactla.mul_vec(g.elements[i], translation(vs, j))
    return tuple(a + b - c for a, b, c in
                 zip(img, translation(vs, i), translation(vs, g.mul(i, j))))


def points(sol):
    """The points of a torus SolutionSet, as Fractions in [0,1)^r."""
    den, nums = sol.numerators
    return tuple(tuple(Fraction(x, den) for x in p) for p in nums)


def cardinality(sol):
    """The number of points of a finite torus SolutionSet."""
    if sol.kind != "finite":
        raise ValueError("cardinality only defined for finite solution sets")
    return len(sol.numerators[1])


@pytest.fixture
def products(monkeypatch):
    """The number of `fieldlin.mat_mul` (matrix) and `exactla.mul_vec`
    (matrix times vector) products formed while the test runs."""
    calls = {"mat_mul": 0, "mul_vec": 0}
    for module, name in ((fieldlin, "mat_mul"), (exactla, "mul_vec")):
        def counted(a, b, name=name, real=getattr(module, name)):
            calls[name] += 1
            return real(a, b)
        monkeypatch.setattr(module, name, counted)
    return calls


def inner_product(table, chi_a, chi_b):
    """Exact <a, b> = (1/|G|) sum over G of a(g) * conj(b(g))."""
    total = table.field(0)
    for c, va, vb in zip(table.classes, chi_a.values, chi_b.values):
        total = total + c.size * va * vb.conjugate()
    return total * Fraction(1, table.group.order())


# minimal output schema: required keys per command
REPORT_KEYS = {
    "verify": {"rank", "order", "elements", "torsion_free"},
    "realize": {"input_system", "averaged_system", "equivalent"},
    "even": {"even", "classes"},
    "jstruct": {"exists"},
    "action": {"classification", "divisor_classes", "stratum_summary"},
    "teich": {"even", "types"},
    "platonic": set(),
}


def validate_report(command, report):
    """True for a report of `command` that carries every required key;
    otherwise a ValueError."""
    if not isinstance(report, dict) or "command" not in report or "result" not in report:
        raise ValueError("report must carry command and result")
    if report["command"] != command:
        raise ValueError("report command mismatch")
    missing = REPORT_KEYS[command] - set(report["result"])
    if missing:
        raise ValueError(f"report missing keys: {sorted(missing)}")
    return True
