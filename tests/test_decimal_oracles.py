"""mpmath as a test-only oracle for the decimals of an algebraic J:
`cli.decimal_str` must print what mpmath.nstr prints for the same number
evaluated at four times the bits, at 64, 128 and 256 bits, on every
algebraic J of the even corpus and family inputs at basis seeds 0-3, and on
seeded random real cyclotomic numbers small and large enough to be printed
in both notations."""

import random
from fractions import Fraction

import family
import pytest
from conftest import corpus_documents, crystal_group, family_documents

from crystorb import hodge
from crystorb.cli import decimal_str
from crystorb.cyclo import CycloField

mpmath = pytest.importorskip("mpmath")

F = Fraction
PRECISIONS = (64, 128, 256)


def digits_for(bits):
    """The number of significant digits printed at `bits`."""
    return max(6, int(bits * 0.30103) - 2)


def oracle(x, bits):
    """mpmath.nstr of the real part of x, evaluated at 4 * bits."""
    with mpmath.workprec(4 * bits):
        total = mpmath.mpf(0)
        for t, c in enumerate(x.coeffs):
            if c:
                total += (mpmath.mpf(c.numerator) / c.denominator
                          * mpmath.cospi(mpmath.mpf(2 * t) / x.field.order))
        return mpmath.nstr(total, digits_for(bits), strip_zeros=False)


@pytest.fixture(scope="module")
def even_runs():
    """(runs, the J of every run where J is algebraic) over the even corpus
    and family inputs at basis seeds 0-3."""
    docs = {**corpus_documents(), **family_documents()}
    runs, algebraic = 0, []
    for seed in range(4):
        for name, doc in sorted(family.seeded_documents(docs, seed).items()):
            g = crystal_group(doc)
            ev = hodge.is_even(g)
            if ev.even:
                runs += 1
                J = hodge.invariant_complex_structure(g, ev)
                if J.mode == "algebraic":
                    algebraic.append((name, seed, J))
    return runs, algebraic


@pytest.mark.parametrize("bits", PRECISIONS)
def test_every_algebraic_j_prints_as_the_oracle(even_runs, bits):
    runs, algebraic = even_runs
    assert runs == 80 and len(algebraic) == 20
    for name, seed, J in algebraic:
        for row in J.entries:
            for x in row:
                assert decimal_str(x, bits) == oracle(x, bits), (name, seed)


@pytest.mark.parametrize("bits", PRECISIONS)
def test_random_real_numbers_print_as_the_oracle(bits):
    # scales 10^-20 to 10^40, widened to reach both ends of the fixed
    # notation's exponent range -(digits // 3) < e < digits
    digits, rng, printed = digits_for(bits), random.Random(bits), []
    for _ in range(400):
        K = CycloField(rng.randint(1, 60))
        x = K.from_exponents({t: rng.randint(-9, 9) for t in range(K.order)})
        scale = rng.randint(min(-20, -digits // 3 - 8), max(40, digits + 8))
        x = (x + x.conjugate()) * F(10) ** scale / rng.randint(1, 12)
        printed.append(decimal_str(x, bits))
        assert printed[-1] == oracle(x, bits), x
    assert any("e" in s for s in printed) and any("e" not in s for s in printed)


@pytest.mark.parametrize("value", [0, 1, -1, F(1, 3), F(-2, 7), 10 ** 16 + 1, 10 ** 30,
                                   F(1, 7 * 10 ** 20), F(123456789, 1000),
                                   F(-999999999999999999999, 10 ** 21)])
@pytest.mark.parametrize("bits", PRECISIONS)
def test_rationals_print_as_the_oracle(value, bits):
    x = CycloField(5)(value)
    assert decimal_str(x, bits) == oracle(x, bits)


def test_a_tie_rounds_half_up():
    # 64 bits print 17 digits; 1 + 5e-17 lies halfway between two of them
    assert decimal_str(CycloField(1)(1 + F(5, 10 ** 17)), 64) == "1.0000000000000001"
    assert decimal_str(CycloField(1)(-1 - F(5, 10 ** 17)), 64) == "-1.0000000000000001"
