"""The inputs the suite shares: the 19 corpus documents, the 7 documents of
the benchmark's scaling family, and the crystallographic group a document
normalizes to; and the Fraction check helpers several modules read vector
systems with.  Test modules import these by name (`from conftest import
...`); seed the two document sets with `family.seeded_documents` exactly as
each test did, since a seed's basis changes depend on which documents are
seeded together."""

from fractions import Fraction
from math import lcm

import family

from crystorb.cli import parse_cryst_data
from crystorb.corpus import corpus_names, load_corpus
from crystorb.crystal import normalize_action


def corpus_documents():
    """The corpus documents by name."""
    return {name: load_corpus(name) for name in corpus_names()}


def family_documents():
    """The scaling-family documents by name."""
    return {name: doc for name, (doc, _) in family.scaling_family().items()}


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


def translations(vs):
    """Every u_g of a vector system, as Fractions in [0,1)^r."""
    return tuple(vs.u(i) for i in range(vs.group.order()))


def mod1_vec(v):
    """Reduce a rational vector into [0,1)^r."""
    return tuple(Fraction(x) % 1 for x in v)


def cocycle_defect(vs, i, j):
    """L(g_i) u_j + u_i - u_{ij}; integral for a valid system."""
    g = vs.group
    img = g.elements[i].mul_vec(vs.u(j))
    return tuple(a + b - c for a, b, c in zip(img, vs.u(i), vs.u(g.mul(i, j))))


def points(sol):
    """The points of a torus SolutionSet, as Fractions in [0,1)^r."""
    den, nums = sol.numerators
    return tuple(tuple(Fraction(x, den) for x in p) for p in nums)


def cardinality(sol):
    """The number of points of a finite torus SolutionSet."""
    if sol.kind != "finite":
        raise ValueError("cardinality only defined for finite solution sets")
    return len(sol.numerators[1])


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
