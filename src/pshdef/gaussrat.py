"""Exact complex rationals (Gaussian rationals).

Coefficient domain for the polynomial layer.  A value is held as three
arbitrary-precision ints `(a, b, d)`, meaning `(a + b i) / d`, normalised
so that `d > 0` and `gcd(a, b, d) == 1`; equal values have equal triples.
Each ring operation is plain integer arithmetic and one gcd.  All
arithmetic is exact; conversion to float happens only at evaluation time.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _ratio(x) -> tuple:
    """(numerator, denominator) of an exact rational."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, str):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"not an exact rational: {x!r}")


def _parts(x) -> tuple:
    """(a, b, d) of a Gaussian rational, int or Fraction operand."""
    if isinstance(x, GaussianRational):
        return x._a, x._b, x._d
    if isinstance(x, int):
        return x, 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    if isinstance(x, complex):
        raise TypeError("floats are not exact; build from Fraction instead")
    raise TypeError(f"cannot coerce {x!r} to GaussianRational")


class GaussianRational:
    """(a + b*i) / d with a, b, d ints, d > 0 and gcd(a, b, d) == 1.

    Built from exact real and imaginary parts (int, Fraction or str);
    `re` and `im` read them back as Fractions.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        n1, q1 = _ratio(re)
        n2, q2 = _ratio(im)
        _fill(self, n1 * q2, n2 * q1, q1 * q2)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __delattr__(self, name):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def of(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        return _make(*_parts(x))

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        a, b, d = _parts(other)
        d1 = self._d
        if d == d1:
            return _make(self._a + a, self._b + b, d)
        return _make(self._a * d + a * d1, self._b * d + b * d1, d1 * d)

    __radd__ = __add__

    def __sub__(self, other):
        a, b, d = _parts(other)
        d1 = self._d
        if d == d1:
            return _make(self._a - a, self._b - b, d)
        return _make(self._a * d - a * d1, self._b * d - b * d1, d1 * d)

    def __rsub__(self, other):
        return GaussianRational.of(other) - self

    def __mul__(self, other):
        a2, b2, d2 = _parts(other)
        a1, b1 = self._a, self._b
        if not b2:  # a real factor (int, Fraction): two products, not four
            return _make(a1 * a2, b1 * a2, self._d * d2)
        return _make(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a2, b2, d2 = _parts(other)
        norm = a2 * a2 + b2 * b2
        if not norm:
            raise ZeroDivisionError("division by zero GaussianRational")
        a1, b1 = self._a, self._b
        # ((a1 + b1 i) / d1) / ((a2 + b2 i) / d2)
        #   = (a1 + b1 i)(a2 - b2 i) d2 / (d1 (a2^2 + b2^2))
        return _make(
            (a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, self._d * norm
        )

    def __rtruediv__(self, other):
        return GaussianRational.of(other) / self

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def conjugate(self) -> "GaussianRational":
        return _make(self._a, -self._b, self._d)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not (self._a or self._b)

    def is_real(self) -> bool:
        return not self._b

    def __bool__(self):
        return bool(self._a or self._b)

    def __eq__(self, other):
        try:
            a, b, d = _parts(other)
        except TypeError:
            return NotImplemented
        return self._a == a and self._b == b and self._d == d

    def __hash__(self):
        # a real value hashes as the int or Fraction it equals
        if not self._b:
            return hash(self._a) if self._d == 1 else hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    # -- conversion ------------------------------------------------------

    def to_complex(self) -> complex:
        # int true division is correctly rounded: each part is float(Fraction)
        return complex(self._a / self._d) + 1j * complex(self._b / self._d)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_gaussian(self)


_new = object.__new__
_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__


def _fill(r: GaussianRational, a: int, b: int, d: int) -> GaussianRational:
    """Store (a + b i) / d, d > 0, in r, reduced by gcd(a, b, d)."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    _set_a(r, a)
    _set_b(r, b)
    _set_d(r, d)
    return r


def _make(a: int, b: int, d: int) -> GaussianRational:
    """A new (a + b i) / d, d > 0, reduced by gcd(a, b, d)."""
    return _fill(_new(GaussianRational), a, b, d)


I = GaussianRational(0, 1)
# 1/(2i) = -i/2, the coefficient of w in Im w
INV_2I = GaussianRational(0, Fraction(-1, 2))


def format_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_gaussian(c: GaussianRational) -> str:
    """Exact text form: `3/4`, `-2`, `(1/2 i)`, `(-i)`, `(3 - 1/2 i)`."""
    if c.im == 0:
        return format_fraction(c.re)
    if c.re == 0:
        mag = "" if abs(c.im) == 1 else format_fraction(abs(c.im)) + " "
        return f"(-{mag}i)" if c.im < 0 else f"({mag}i)"
    sign = "+" if c.im > 0 else "-"
    mag = "" if abs(c.im) == 1 else format_fraction(abs(c.im)) + " "
    return f"({format_fraction(c.re)} {sign} {mag}i)"
