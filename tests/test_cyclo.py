import random
from fractions import Fraction
from math import gcd

import pytest

from crystorb.cyclo import Cyclo, CycloField, cyclotomic_polynomial

F = Fraction


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_zeta_order():
    for e in (2, 3, 4, 5, 6, 8, 12):
        K = CycloField(e)
        z = K.zeta()
        acc = K.one
        for k in range(1, e):
            acc = acc * z
            assert acc != K.one
        assert acc * z == K.one


def test_gaussian_arithmetic():
    K = CycloField(4)
    i = K.zeta()
    assert i * i == K(-1)
    assert (K(1) + i) * (K(1) - i) == K(2)
    assert (K(1) / (K(1) + i)) * (K(1) + i) == K(1)


def test_inverse_random():
    K = CycloField(12)
    vals = [K(3), K.zeta() + 1, K.zeta(5) - K(F(1, 2)), K.zeta(2) * 7 + K.zeta(3)]
    for v in vals:
        assert v * v.inverse() == K.one


def test_conjugation():
    K = CycloField(4)
    i = K.zeta()
    assert i.conjugate() == -i
    v = K(2) + 3 * i
    assert (v * v.conjugate()) == K(13)
    # sums of conjugate pairs are real (rational here)
    K3 = CycloField(3)
    w = K3.zeta()
    assert (w + w.conjugate()) == K3(-1)


def test_lift_and_cross_field():
    K3, K12 = CycloField(3), CycloField(12)
    w = K3.zeta()
    lifted = w.lift(12)
    assert lifted == K12.zeta(4)
    assert lifted * lifted * lifted == K12.one
    # mixed arithmetic coerces upward
    assert (K12.zeta(3) * w) == K12.zeta(7)


def test_rational_detection():
    K = CycloField(6)
    z = K.zeta()
    v = z + z.conjugate()  # 2*cos(pi/3) = 1
    assert v.is_rational()
    assert v.rational_value() == 1
    with pytest.raises(ValueError):
        z.rational_value()


def test_galois():
    K = CycloField(5)
    z = K.zeta()
    tr = z + z.galois(2) + z.galois(3) + z.galois(4)
    assert tr.rational_value() == -1


def oracle_galois(x, a):
    """zeta -> zeta^a by rewriting each basis power t as zeta^(a t)."""
    field = x.field
    out = field(0)
    for t, c in enumerate(x.coeffs):
        if c != 0:
            out = out + c * field.zeta((a * t) % field.order)
    return out


def test_galois_matches_oracle():
    # the oracle costs O(degree) per nonzero coordinate, so the random
    # elements have at most four
    rng = random.Random(7)
    for e in range(1, 61):
        K = CycloField(e)
        xs = []
        for _ in range(2):
            coeffs = [F(0)] * K.degree
            for t in rng.sample(range(K.degree), min(K.degree, 4)):
                coeffs[t] = F(rng.randint(-9, 9), rng.randint(1, 4))
            xs.append(Cyclo(K, tuple(coeffs)))
        for a in range(1, e + 1):
            if gcd(a, e) != 1:
                with pytest.raises(ValueError):
                    xs[0].galois(a)
                continue
            for x in xs:
                image = x.galois(a)
                assert image.coeffs == oracle_galois(x, a).coeffs
                assert all(type(c) is Fraction for c in image.coeffs)
        for x in xs:
            assert x.conjugate() == oracle_galois(x, e - 1)


def test_complex_value():
    import mpmath

    K = CycloField(4)
    v = K(2) + 3 * K.zeta()
    c = v.complex_value(mpmath.mp)
    assert abs(c - mpmath.mpc(2, 3)) < mpmath.mpf("1e-30")
