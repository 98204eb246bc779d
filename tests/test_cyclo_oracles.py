"""Integer cyclotomic arithmetic against the Fraction-backed implementation
it replaced, and the character-table lift over element orders against the
lift over the full exponent.

The oracles below are the former `Cyclo` and `CycloField`: power-basis
coordinates as Fractions, products reduced by Fraction polynomial division,
and the inverse by the extended Euclidean algorithm against Phi_e.  The lift
oracle is Dixon's multiplicity recovery summed over s, t < e, the exponent
of the group.  The work-count tests pin what the integer layer saves: one
inverse per pivot in `fieldlin.rref`, and no Fraction in a product of
integral elements.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import family
import pytest
from conftest import corpus_documents, crystal_group, family_documents

from crystorb import fieldlin, groupcore
from crystorb.cyclo import Cyclo, CycloField, cyclotomic_polynomial

ROOT = Path(__file__).resolve().parent.parent

F = Fraction
ORDERS = (1, 2, 3, 4, 5, 6, 8, 9, 12, 24, 36, 60)


# ---------------------------------------------------------------------------
# the Fraction-backed oracle

def _poly_mod(poly, modulus):
    poly = list(poly)
    deg = len(modulus) - 1
    while len(poly) > deg:
        c = poly[-1]
        if c != 0:
            shift = len(poly) - 1 - deg
            for i in range(deg):
                poly[shift + i] -= c * modulus[i]
        poly.pop()
    return poly + [F(0)] * (deg - len(poly))


def _poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_divmod(a, b):
    a = list(a)
    db = max(i for i, c in enumerate(b) if c != 0)
    q = [F(0)] * max(len(a) - db, 1)
    for k in range(len(a) - db - 1, -1, -1):
        f = a[k + db] / b[db]
        q[k] = f
        for i in range(db + 1):
            a[k + i] -= f * b[i]
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return q, a


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [F(0)] * (n - len(a))
    b = list(b) + [F(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


class OracleField:
    def __init__(self, order):
        self.order = order
        self.modulus = tuple(F(c) for c in cyclotomic_polynomial(order))
        self.degree = len(self.modulus) - 1

    def __call__(self, value):
        return OracleCyclo(self, (F(value),) + (F(0),) * (self.degree - 1))

    def zeta(self, power=1):
        return self.from_exponents({power % self.order: 1})

    def from_exponents(self, exps):
        acc = [F(0)] * self.degree
        for t, c in exps.items():
            poly = [F(0)] * (t % self.order) + [F(1)]
            for i, x in enumerate(_poly_mod(poly, self.modulus)):
                acc[i] += F(c) * x
        return OracleCyclo(self, tuple(acc))


class OracleCyclo:
    def __init__(self, field, coeffs):
        self.field, self.coeffs = field, tuple(coeffs)

    def __add__(self, o):
        return OracleCyclo(self.field, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    def __sub__(self, o):
        return OracleCyclo(self.field, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __mul__(self, o):
        prod = _poly_mul(self.coeffs, o.coeffs)
        return OracleCyclo(self.field, _poly_mod(prod, self.field.modulus))

    def inverse(self):
        if all(c == 0 for c in self.coeffs):
            raise ZeroDivisionError
        a, b = list(self.field.modulus), list(self.coeffs)
        s0, s1 = [F(0)], [F(1)]
        while any(b):
            q, r = _poly_divmod(a, b)
            a, b = b, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        lead = next(c for c in reversed(a) if c != 0)
        return OracleCyclo(self.field, _poly_mod([c / lead for c in s0], self.field.modulus))

    def galois(self, a):
        field = self.field
        out = field(0)
        for t, c in enumerate(self.coeffs):
            out = out + OracleCyclo(field, [c * x for x in field.zeta(a * t).coeffs])
        return out

    def lift(self, new_order):
        big = OracleField(new_order)
        step = new_order // self.field.order
        out = big(0)
        for t, c in enumerate(self.coeffs):
            out = out + OracleCyclo(big, [c * x for x in big.zeta(step * t).coeffs])
        return out


def oracle_lift(group, chi_mod, d, z_powers, p, e):
    """Multiplicities of the e-th roots of unity from the sum over s, t < e."""
    values = []
    for c in group.classes:
        pow_class, cur = [], 0
        for _ in range(e):
            pow_class.append(group.class_index[cur])
            cur = group.mul(cur, c.representative)
        exps = {}
        for t in range(e):
            m_t = sum(chi_mod[pow_class[s]] * z_powers[(-s * t) % e] for s in range(e))
            m_t = m_t * pow(e, p - 2, p) % p
            if m_t > d:
                raise ArithmeticError("root-of-unity multiplicity out of range")
            if m_t:
                exps[t] = m_t
        values.append(OracleField(e).from_exponents(exps))
    return values


# ---------------------------------------------------------------------------
# differential tests

def _random_coeffs(rng, degree, integral=False):
    out = []
    for _ in range(degree):
        if rng.random() < 0.3:
            out.append(F(0))
        else:
            out.append(F(rng.randint(-9, 9), 1 if integral else rng.randint(1, 6)))
    return out


def _pair(field, oracle_field, coeffs):
    return Cyclo(field, tuple(coeffs)), OracleCyclo(oracle_field, coeffs)


def _same(x, oracle):
    return x.coeffs == tuple(oracle.coeffs)


@pytest.mark.parametrize("e", ORDERS)
def test_arithmetic_matches_oracle(e):
    rng = random.Random(e)
    K, O = CycloField(e), OracleField(e)
    for _ in range(12):
        integral = rng.random() < 0.5
        x, ox = _pair(K, O, _random_coeffs(rng, K.degree, integral))
        y, oy = _pair(K, O, _random_coeffs(rng, K.degree, integral))
        assert _same(x + y, ox + oy)
        assert _same(x - y, ox - oy)
        assert _same(x * y, ox * oy)
        assert (x == y) == (x.coeffs == y.coeffs)
        assert x == Cyclo(K, ox.coeffs)
        assert x.is_rational() == all(c == 0 for c in ox.coeffs[1:])
        if x.is_rational():
            assert x.rational_value() == ox.coeffs[0]
        if not y.is_zero():
            assert _same(y.inverse(), oy.inverse())
            assert _same(x / y, ox * oy.inverse())
        for a in range(1, e + 1):
            if gcd(a, e) == 1:
                assert _same(x.galois(a), ox.galois(a))
        assert _same(x.conjugate(), ox.galois(e - 1))
        for big in (2 * e, 3 * e):
            assert _same(x.lift(big), ox.lift(big))
            assert x.lift(big).field is CycloField(big)


@pytest.mark.parametrize("e", ORDERS)
def test_from_exponents_matches_oracle(e):
    rng = random.Random(100 + e)
    K, O = CycloField(e), OracleField(e)
    for _ in range(10):
        exps = {rng.randrange(-2 * e, 2 * e): rng.randint(0, 12) for _ in range(rng.randint(0, 6))}
        assert _same(K.from_exponents(exps), O.from_exponents(exps))
    assert _same(K.zeta(), O.zeta())


def test_scalars_and_lowest_terms():
    K = CycloField(12)
    x = Cyclo(K, [F(1, 2), F(1, 3), 0, F(5, 6)])
    assert (x.num, x.den) == ((3, 2, 0, 5), 6)
    assert (x * 6).den == 1 and (x * F(6, 5)).den == 5
    assert (x * 0).num == (0, 0, 0, 0) and (x * 0).den == 1
    assert (x - x) == 0 and (x - x).den == 1
    assert x + 1 == 1 + x and (1 - x) == -(x - 1)
    assert K(F(-3, 4)).rational_value() == F(-3, 4)
    assert K(F(-3, 4)).inverse() == K(F(-4, 3))


# ---------------------------------------------------------------------------
# a property test

def test_field_axioms_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    coords = st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=7),
                      min_size=8, max_size=8)

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.sampled_from((5, 8, 12, 24)), coords, coords, coords)
    def check(e, a, b, c):
        K, O = CycloField(e), OracleField(e)
        x, ox = _pair(K, O, a[:K.degree])
        y, oy = _pair(K, O, b[:K.degree])
        z = Cyclo(K, c[:K.degree])
        assert _same(x * y, ox * oy)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x - y + y == x
        if not x.is_zero():
            assert x * x.inverse() == 1
            assert _same(x.inverse(), ox.inverse())
        assert hash(x * y) == hash(y * x)

    check()


# ---------------------------------------------------------------------------
# character tables: the lift over element orders against the lift over e

def _point_groups():
    corpus = corpus_documents()
    scaling = family_documents()
    assert (len(corpus), len(scaling)) == (19, 7)
    cases = []
    for seed in (1, 2, 3):
        for docs in (corpus, scaling):
            for name, doc in sorted(family.seeded_documents(docs, seed).items()):
                cases.append(pytest.param(doc, id=f"{name}-{seed}"))
    return cases


@pytest.mark.parametrize("doc", _point_groups())
def test_character_table_lift_matches_exponent_sum(doc, monkeypatch):
    # one lift per Galois class of characters; each conjugate chi^(a), read
    # along the power map, is the oracle's lift of chi_mod read the same way
    group = crystal_group(doc).group
    lifted = []
    lift = groupcore._lift

    def recorded(chi_mod, d, pow_classes, bases, fourier, p, field):
        values = lift(chi_mod, d, pow_classes, bases, fourier, p, field)
        lifted.append((chi_mod, d, p, values))
        return values

    monkeypatch.setattr(groupcore, "_lift", recorded)
    table = groupcore.character_table(group)
    e = group.exponent()
    assert table.field is CycloField(e)
    p = groupcore._dixon_prime(group.order(), e)
    z = groupcore._root_of_unity(p, e) if e > 1 else 1
    z_powers = [pow(z, t, p) for t in range(e)]

    def power_class(h, a):
        x = 0
        for _ in range(a):
            x = group.mul(x, h)
        return group.class_index[x]

    images = {tuple(power_class(c.representative, a) for c in group.classes)
              for a in range(1, e + 1) if gcd(a, e) == 1}
    rows = {tuple(v.num for v in chi.values) for chi in table.characters}
    conjugates = set()
    for chi_mod, d, lift_p, values in lifted:
        assert lift_p == p
        for image in images:
            conj_mod = [chi_mod[c] for c in image]
            conj = [values[c] for c in image]
            expected = oracle_lift(group, conj_mod, d, z_powers, p, e)
            assert [v.coeffs for v in conj] == [tuple(x.coeffs) for x in expected]
            conjugates.add(tuple(v.num for v in conj))
    assert conjugates == rows and len(rows) == len(table.characters)


# ---------------------------------------------------------------------------
# work counts

def test_rref_inverts_each_pivot_once(monkeypatch):
    K = CycloField(12)
    rng = random.Random(3)
    rows = [[Cyclo(K, _random_coeffs(rng, K.degree)) for _ in range(6)] for _ in range(4)]
    calls = []
    inverse = Cyclo.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(Cyclo, "inverse", counted)
    red, pivots = fieldlin.rref(rows)
    assert len(pivots) == 4
    assert len(calls) == len(pivots)
    monkeypatch.undo()
    # the reduced rows are the oracle's: pivot entries one, rows in the span
    assert all(red[k][pc] == 1 for k, pc in enumerate(pivots))
    assert fieldlin.rank(rows + red) == 4


def test_integral_products_build_no_fraction(monkeypatch):
    K = CycloField(60)
    rng = random.Random(5)
    xs = [Cyclo(K, _random_coeffs(rng, K.degree, integral=True)) for _ in range(6)]
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    for x in xs:
        for y in xs:
            x * y
            x * 3
            x.conjugate()
            x + y
    monkeypatch.undo()
    assert made == []


def test_zero_norm_raises_under_python_O():
    code = (
        "from crystorb.cyclo import CycloField\n"
        "K = CycloField(12)\n"
        "x = K.zeta() + 2\n"
        "K.galois_coords = lambda coords, a: [0] * K.degree\n"
        "try:\n"
        "    x.inverse()\n"
        "except ArithmeticError as err:\n"
        "    print('raised', err)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("raised norm is not a nonzero rational")


def test_hash_agrees_with_equality():
    K = CycloField(12)
    assert K(2) == 2 and len({K(2), 2}) == 1
    assert hash(K(F(1, 2))) == hash(F(1, 2))
    assert len({K.zeta(3) * K.zeta(3), K.zeta(6), -K.zeta(0) * K.zeta(6) * -1}) == 1
    assert K.zeta(2) != K.zeta(4)
    # elements of different fields may be equal with different hashes
    assert CycloField(3).zeta() == K.zeta(4)
