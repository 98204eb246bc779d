"""Exact cyclotomic arithmetic: Q(zeta_e) in the power basis 1, zeta, ...,
zeta^(phi(e)-1), modulo the e-th cyclotomic polynomial Phi_e.

An element is a tuple of integer coordinates `num` over one positive
denominator `den`, in lowest terms (zero is 0/1), so equal elements of one
field have equal (num, den).  Phi_e is monic with integer coefficients: sums,
differences and products are integer loops, and a product reduced modulo
Phi_e stays integral.  The inverse is the product of the other Galois
conjugates over the norm.  `coeffs` is a Fraction view for callers outside
the arithmetic, and `real_enclosure` bounds the real part by rationals."""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import add, sub


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int):
    """Integer coefficients of Phi_e, ascending degree, monic: x^e - 1 over
    the monic Phi_d of the proper divisors d of e, by exact long division."""
    if e < 1:
        raise ValueError("order must be positive")
    num = [-1] + [0] * (e - 1) + [1]
    for d in range(1, e):
        if e % d == 0:
            den = cyclotomic_polynomial(d)
            k = len(den) - 1
            quot = [0] * (len(num) - k)
            for i in range(len(quot) - 1, -1, -1):
                quot[i] = q = num[i + k]
                for j, c in enumerate(den):
                    num[i + j] -= q * c
            if any(num):
                raise ArithmeticError("non-exact polynomial division")
            num = quot
    return tuple(num)


class CycloField:
    """The field Q(zeta_e); a factory and arithmetic context for elements.
    `modulus` is Phi_e; the powers of zeta are tabulated on first use."""

    _cache = {}

    def __new__(cls, order):
        if order in cls._cache:
            return cls._cache[order]
        self = super().__new__(cls)
        self.order = order
        self.modulus = cyclotomic_polynomial(order)
        self.degree = len(self.modulus) - 1
        self._phi_terms = tuple((i, c) for i, c in enumerate(self.modulus[:-1]) if c)
        cls._cache[order] = self
        return self

    def __repr__(self):
        return f"CycloField({self.order})"

    def __call__(self, value):
        if type(value) is Cyclo:
            if value.field is self:
                return value
            return value.lift(self.order)
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        num, den = value.as_integer_ratio()
        return _make(self, [num] + [0] * (self.degree - 1), den)

    def zeta(self, power=1):
        """zeta_e^power as a field element."""
        return self.from_exponents({power: 1})

    def from_exponents(self, exps, den=1):
        """Element (sum_t c_t * zeta^t) / den from a map t -> integer c_t,
        den > 0."""
        return _make(self, self._combine(exps.items()), den)

    def galois_coords(self, coords, a):
        """The image of integer coordinates `coords` under zeta -> zeta^a, a
        coprime to the order: each basis power t becomes zeta^(a t)."""
        if gcd(a, self.order) != 1:
            raise ValueError("automorphism exponent not coprime to order")
        return self._combine((a * t, c) for t, c in enumerate(coords))

    @cached_property
    def _powers(self):
        # the nonzero (index, coordinate) pairs of zeta^t for t < e
        cur, out = [1] + [0] * (self.degree - 1), []
        for _ in range(self.order):
            out.append(tuple((i, x) for i, x in enumerate(cur) if x))
            cur = self.reduce([0] + cur)
        return tuple(out)

    def _combine(self, terms):
        """Integer coordinates of sum c * zeta^t over the (t, c) pairs."""
        powers, e, acc = self._powers, self.order, [0] * self.degree
        for t, c in terms:
            if c:
                for i, x in powers[t % e]:
                    acc[i] += c * x
        return acc

    def reduce(self, acc):
        """The integer polynomial `acc` reduced modulo Phi_e, in place."""
        d = self.degree
        for top in range(len(acc) - 1, d - 1, -1):
            c = acc[top]
            if c:
                for i, p in self._phi_terms:
                    acc[top - d + i] -= c * p
        del acc[d:]
        return acc

    def _mul(self, x, y):
        """Integer coordinates of the product of integer coordinates x, y."""
        acc = [0] * (2 * self.degree - 1)
        ys = [(j, b) for j, b in enumerate(y) if b]
        for i, a in enumerate(x):
            if a:
                for j, b in ys:
                    acc[i + j] += a * b
        return self.reduce(acc)


def _make(field, num, den=1):
    """The element num/den of `field`, den > 0, in lowest terms."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
    out = object.__new__(Cyclo)
    out.field = field
    out.num = tuple(num)
    out.den = den
    return out


class Cyclo:
    """An element num/den of Q(zeta_e), immutable.

    Equal elements of one field hash alike, and a rational element hashes
    like its Fraction.  Elements of different fields compare equal when one
    lifts to the other, but their hashes may differ."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in coeffs))
        self.field = field
        self.num = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self.den = den

    @property
    def coeffs(self):
        """The coordinates as Fractions."""
        return tuple(Fraction(x, self.den) for x in self.num)

    def _coerce(self, other):
        if type(other) is Cyclo:
            if other.field is self.field:
                return other
            if self.field.order % other.field.order == 0:
                return other.lift(self.field.order)
            raise ValueError("elements of incompatible cyclotomic fields")
        return self.field(other)

    def _add(self, o, op):
        a, b = self.den, o.den
        if a == b:
            return _make(self.field, list(map(op, self.num, o.num)), a)
        return _make(self.field, [op(x * b, y * a) for x, y in zip(self.num, o.num)], a * b)

    def __add__(self, other):
        return self._add(self._coerce(other), add)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.field, [-x for x in self.num], self.den)

    def __sub__(self, other):
        return self._add(self._coerce(other), sub)

    def __rsub__(self, other):
        return self._coerce(other)._add(self, sub)

    def __mul__(self, other):
        t = type(other)
        if t is int:
            return _make(self.field, [x * other for x in self.num], self.den)
        if t is Fraction:
            return _make(self.field, [x * other.numerator for x in self.num],
                         self.den * other.denominator)
        o = self._coerce(other)
        return _make(self.field, self.field._mul(self.num, o.num), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self):
        """The product of the other Galois conjugates over the norm."""
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        field, e = self.field, self.field.order
        adj = [1] + [0] * (field.degree - 1)
        if not self.is_rational():
            for a in range(2, e):
                if gcd(a, e) == 1:
                    adj = field._mul(adj, field.galois_coords(self.num, a))
        norm = field._mul(self.num, adj)
        # a self-check that stays on under `python -O`
        if not norm[0] or any(norm[1:]):
            raise ArithmeticError("norm is not a nonzero rational")
        scale = self.den if norm[0] > 0 else -self.den
        return _make(field, [scale * x for x in adj], abs(norm[0]))

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __eq__(self, other):
        if type(other) is int:
            return self.den == 1 and self.num[0] == other and not any(self.num[1:])
        try:
            o = self._coerce(other)
        except (ValueError, TypeError):
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        if self.is_rational():
            return hash(self.rational_value())
        return hash((self.field.order, self.num, self.den))

    def is_zero(self):
        return not any(self.num)

    def is_rational(self):
        return not any(self.num[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("value is not rational")
        return Fraction(self.num[0], self.den)

    def conjugate(self):
        """Complex conjugation, zeta -> zeta^(e-1)."""
        return self.galois(self.field.order - 1)

    def galois(self, a):
        """The automorphism zeta -> zeta^a (a coprime to the order)."""
        return _make(self.field, self.field.galois_coords(self.num, a), self.den)

    def lift(self, new_order):
        """Reinterpret in Q(zeta_E) for e | E via zeta_e = zeta_E^(E/e)."""
        e = self.field.order
        if new_order % e != 0:
            raise ValueError("target order must be a multiple")
        big = CycloField(new_order)
        step = new_order // e
        return _make(big, big._combine((step * t, c) for t, c in enumerate(self.num)),
                     self.den)

    def __repr__(self):
        if self.is_rational():
            return str(self.rational_value())
        terms = " + ".join(f"{c}*z^{t}" for t, c in enumerate(self.coeffs) if c)
        return f"({terms} | z=zeta_{self.field.order})"


def _pi_fixed(q):
    """(A, E) with |pi 2^q - A| <= E < 8q, from pi = 16 arctan(1/5) -
    4 arctan(1/239) in integers scaled by 2^q: each floored term is short by
    less than 1, and each alternating tail is below its first omitted term."""
    scale, total, err = 1 << q, 0, 0
    for k, weight in ((5, 16), (239, -4)):
        u, j = scale // k, 0
        while u:
            total += weight * (-1) ** j * (u // (2 * j + 1))
            u, j = u // (k * k), j + 1
        err += abs(weight) * (j + 1)
    return total, err


@lru_cache(maxsize=None)
def _cosines(order, q):
    """(c, r) with |cos(2 pi t / order) 2^q - c| <= r for each power-basis
    index t, at w = q + 16 bits: the angle 2 pi min(t, order - t) / order <=
    pi is off by at most E + 1, and each Taylor term is the last one times
    angle^2 / ((2k - 1) 2k), floored, so the k-th is short by less than k (the
    factor is below 1 from k = 2 on) and the tail is below the first term
    that floors to 0."""
    w = q + 16
    pi, pi_err = _pi_fixed(w)
    out = [(1 << q, 0)]
    for t in range(1, CycloField(order).degree):
        theta = 2 * min(t, order - t) * pi // order
        square, term, total, k = theta * theta, 1 << w, 1 << w, 0
        while term:
            k += 1
            term = term * square // ((2 * k - 1) * 2 * k << 2 * w)
            total += -term if k % 2 else term
        err = k * (k + 1) // 2 + pi_err + 1
        out.append((total >> 16, (err >> 16) + 2))
    return tuple(out)


def real_enclosure(x, p):
    """Rationals lo <= Re x <= hi, a small multiple of 2^-p times the sum of
    |coordinates| apart, and equal for rational x (cos 0 is exact)."""
    mid = rad = 0
    for c, (m, r) in zip(x.num, _cosines(x.field.order, p)):
        mid += c * m
        rad += abs(c) * r
    return Fraction(mid - rad, x.den << p), Fraction(mid + rad, x.den << p)
