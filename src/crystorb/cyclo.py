"""Exact cyclotomic arithmetic: Q(zeta_e) as rational coordinate vectors in
the power basis 1, zeta, ..., zeta^(phi(e)-1), reduced modulo the e-th
cyclotomic polynomial."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int):
    """Integer coefficients of Phi_e, ascending degree, monic."""
    if e < 1:
        raise ValueError("order must be positive")
    # x^e - 1 divided by the product of Phi_d over proper divisors d | e
    num = [-1] + [0] * (e - 1) + [1]
    for d in range(1, e):
        if e % d == 0:
            num = _poly_div_exact(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


def _poly_div_exact(num, den):
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        if c % den[-1] != 0:
            raise ArithmeticError("non-exact polynomial division")
        q = c // den[-1]
        out[k] = q
        for i, dc in enumerate(den):
            num[k + i] -= q * dc
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


class CycloField:
    """The field Q(zeta_e); a factory and arithmetic context for elements."""

    _cache = {}

    def __new__(cls, order):
        if order in cls._cache:
            return cls._cache[order]
        self = super().__new__(cls)
        self.order = order
        poly = cyclotomic_polynomial(order)
        self.degree = len(poly) - 1
        self.modulus = tuple(Fraction(c) for c in poly)
        self._galois_maps = {}
        cls._cache[order] = self
        return self

    def __repr__(self):
        return f"CycloField({self.order})"

    def __call__(self, value):
        if isinstance(value, Cyclo):
            if value.field is self:
                return value
            return value.lift(self.order)
        coeffs = [Fraction(0)] * self.degree
        if self.degree > 0:
            coeffs[0] = Fraction(value)
            return Cyclo(self, tuple(coeffs))
        raise ValueError("degenerate field")

    @property
    def zero(self):
        return self(0)

    @property
    def one(self):
        return self(1)

    def zeta(self, power=1):
        """zeta_e^power as a field element."""
        return self.from_exponents({power % self.order: Fraction(1)})

    def from_exponents(self, exps):
        """Element sum_t c_t * zeta^t from an exponent -> coefficient map."""
        acc = [Fraction(0)] * self.degree
        for t, c in exps.items():
            t %= self.order
            red = self._reduce_power(t)
            for i, x in enumerate(red):
                acc[i] += Fraction(c) * x
        return Cyclo(self, tuple(acc))

    def galois_coords(self, coords, a):
        """Coordinates of the image of the element with power-basis
        coordinates `coords` under zeta -> zeta^a (a coprime to the order).

        The map is cached per a as the integer coordinates of zeta^(a t) for
        each basis power t, so integer coordinates stay integers.
        """
        a %= self.order
        rows = self._galois_maps.get(a)
        if rows is None:
            if gcd(a, self.order) != 1:
                raise ValueError("automorphism exponent not coprime to order")
            rows = tuple(tuple(int(x) for x in self._reduce_power(a * t % self.order))
                         for t in range(self.degree))
            self._galois_maps[a] = rows
        out = [0] * self.degree
        for c, row in zip(coords, rows):
            if c:
                for i, x in enumerate(row):
                    if x:
                        out[i] += c * x
        return out

    @lru_cache(maxsize=None)
    def _reduce_power(self, t):
        # coordinates of zeta^t in the power basis
        poly = [Fraction(0)] * (t + 1)
        poly[t] = Fraction(1)
        return tuple(_poly_mod(poly, self.modulus))


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
    poly += [Fraction(0)] * (deg - len(poly))
    return poly


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y != 0:
                out[i + j] += x * y
    return out


class Cyclo:
    """An element of Q(zeta_e), immutable."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, Cyclo):
            if other.field is self.field:
                return other
            if self.field.order % other.field.order == 0:
                return other.lift(self.field.order)
            raise ValueError("elements of incompatible cyclotomic fields")
        return self.field(other)

    def __add__(self, other):
        o = self._coerce(other)
        return Cyclo(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        prod = _poly_mul(list(self.coeffs), list(o.coeffs))
        return Cyclo(self.field, tuple(_poly_mod(prod, self.field.modulus)))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        # extended Euclid in Q[x] against the cyclotomic modulus
        a = list(self.field.modulus)
        b = list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(b):
            q, r = _poly_divmod(a, b)
            a, b = b, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        lead = next(c for c in reversed(a) if c != 0)
        inv = [c / lead for c in s0]
        return Cyclo(self.field, tuple(_poly_mod(inv, self.field.modulus)))

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except (ValueError, TypeError):
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.field.order, self.coeffs))

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def is_rational(self):
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("value is not rational")
        return self.coeffs[0]

    def conjugate(self):
        """Complex conjugation, zeta -> zeta^(e-1)."""
        return self.galois(self.field.order - 1)

    def galois(self, a):
        """The automorphism zeta -> zeta^a (a coprime to the order)."""
        out = self.field.galois_coords(self.coeffs, a)
        return Cyclo(self.field, tuple(Fraction(x) for x in out))

    def lift(self, new_order):
        """Reinterpret in Q(zeta_E) for e | E via zeta_e = zeta_E^(E/e)."""
        e = self.field.order
        if new_order % e != 0:
            raise ValueError("target order must be a multiple")
        big = CycloField(new_order)
        step = new_order // e
        out = big(0)
        for t, c in enumerate(self.coeffs):
            if c != 0:
                out = out + c * big.zeta(step * t)
        return out

    def complex_value(self, mp):
        """Numeric value at zeta = exp(2 pi i / e) using an mpmath context."""
        e = self.field.order
        total = mp.mpc(0)
        for t, c in enumerate(self.coeffs):
            if c != 0:
                total += mp.mpf(c.numerator) / mp.mpf(c.denominator) * mp.expjpi(mp.mpf(2 * t) / e)
        return total

    def __repr__(self):
        if self.is_rational():
            return str(self.coeffs[0])
        parts = []
        for t, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if t == 0:
                parts.append(str(c))
            elif t == 1:
                parts.append(f"{c}*z")
            else:
                parts.append(f"{c}*z^{t}")
        return "(" + " + ".join(parts) + f" | z=zeta_{self.field.order})"


def _poly_divmod(a, b):
    a = list(a)
    db = max(i for i, c in enumerate(b) if c != 0)
    lead = b[db]
    q = [Fraction(0)] * max(len(a) - db, 1)
    for k in range(len(a) - db - 1, -1, -1):
        c = a[k + db]
        if c == 0:
            continue
        f = c / lead
        q[k] = f
        for i in range(db + 1):
            a[k + i] -= f * b[i]
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return q, a


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]
