"""Exact complex rationals (Gaussian rationals).

Coefficient domain for the polynomial layer: pairs of arbitrary-precision
`fractions.Fraction` values.  All arithmetic is exact; conversion to float
happens only at evaluation time.
"""

from __future__ import annotations

from fractions import Fraction


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class GaussianRational:
    """a + b*i with a, b exact rationals."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def of(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x, 0)
        if isinstance(x, complex):
            raise TypeError("floats are not exact; build from Fraction instead")
        raise TypeError(f"cannot coerce {x!r} to GaussianRational")

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return GaussianRational.of(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):  # two products, not four
            return GaussianRational(self.re * other, self.im * other)
        o = GaussianRational.of(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GaussianRational.of(other)
        den = o.re * o.re + o.im * o.im
        if den == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / den,
            (self.im * o.re - self.re * o.im) / den,
        )

    def __rtruediv__(self, other):
        return GaussianRational.of(other) / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        try:
            o = GaussianRational.of(other)
        except TypeError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    # -- conversion ------------------------------------------------------

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_gaussian(self)


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
