"""Polynomials in z_1..z_m, conj(z_1)..conj(z_m), w, conj(w) with exact coefficients.

Sparse representation: a dict from exponent monomials to GaussianRational
coefficients; zero coefficients are never stored.  The complex monomial basis
is canonical -- real-variable expressions like Im w or (Re z)^2 are expanded
into it on construction.  Wirtinger derivatives are formal partials in this
basis, so d/dz treats conj(z) as an independent variable.

Floats appear only in `eval`; everything else is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Union

from .gaussrat import GaussianRational, format_gaussian, INV_2I

Scalar = Union[int, Fraction, GaussianRational]


class Monomial(NamedTuple):
    """Exponents: a over z, b over conj(z), c on w, d on conj(w)."""

    a: tuple
    b: tuple
    c: int
    d: int

    def degree(self) -> int:
        return sum(self.a) + sum(self.b) + self.c + self.d

    def conjugate(self) -> "Monomial":
        return Monomial(self.b, self.a, self.d, self.c)

    def mul(self, other: "Monomial") -> "Monomial":
        return Monomial(
            tuple(x + y for x, y in zip(self.a, other.a)),
            tuple(x + y for x, y in zip(self.b, other.b)),
            self.c + other.c,
            self.d + other.d,
        )

    def sort_key(self):
        return (self.degree(), self.a, self.b, self.c, self.d)


class DimensionMismatch(ValueError):
    """Operands live over different numbers of z variables."""


class WPoly:
    """Polynomial over the z/zbar/w/wbar monomial basis.

    `nz` is the number of z variables (the ambient complex dimension is
    nz + 1, the last coordinate being w).
    """

    __slots__ = ("nz", "terms", "_compiled")

    def __init__(self, nz: int, terms: dict | None = None):
        if nz < 1:
            raise ValueError("need at least one z variable")
        self.nz = nz
        pruned = {}
        if terms:
            for m, c in terms.items():
                c = GaussianRational.of(c)
                if not c.is_zero():
                    pruned[m] = c
        self.terms = pruned
        self._compiled = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, nz: int) -> "WPoly":
        return cls(nz, {})

    @classmethod
    def const(cls, nz: int, c) -> "WPoly":
        return cls(nz, {_unit_monomial(nz): GaussianRational.of(c)})

    @classmethod
    def one(cls, nz: int) -> "WPoly":
        return cls.const(nz, 1)

    @classmethod
    def var_z(cls, nz: int, j: int = 0) -> "WPoly":
        return cls(nz, {_single(nz, "a", j): GaussianRational.of(1)})

    @classmethod
    def var_zbar(cls, nz: int, j: int = 0) -> "WPoly":
        return cls(nz, {_single(nz, "b", j): GaussianRational.of(1)})

    @classmethod
    def var_w(cls, nz: int) -> "WPoly":
        return cls(nz, {_single(nz, "c", 0): GaussianRational.of(1)})

    @classmethod
    def var_wbar(cls, nz: int) -> "WPoly":
        return cls(nz, {_single(nz, "d", 0): GaussianRational.of(1)})

    # -- ring operations -------------------------------------------------

    def _check(self, other: "WPoly"):
        if self.nz != other.nz:
            raise DimensionMismatch(f"nz mismatch: {self.nz} vs {other.nz}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = WPoly.const(self.nz, other)
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            out[m] = c if s is None else s + c
        return WPoly(self.nz, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = WPoly.const(self.nz, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return WPoly(self.nz, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        self._check(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1.mul(m2)
                c = c1 * c2
                s = out.get(m)
                out[m] = c if s is None else s + c
        return WPoly(self.nz, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def scale(self, c) -> "WPoly":
        c = GaussianRational.of(c)
        return WPoly(self.nz, {m: k * c for m, k in self.terms.items()})

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = WPoly.one(self.nz)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, WPoly):
            return NotImplemented
        return self.nz == other.nz and self.terms == other.terms

    def __hash__(self):
        return hash((self.nz, frozenset(self.terms.items())))

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((m.degree() for m in self.terms), default=-1)

    def min_degree(self) -> int:
        """Lowest total degree among stored monomials; -1 for zero."""
        return min((m.degree() for m in self.terms), default=-1)

    def coeff(self, m: Monomial) -> GaussianRational:
        return self.terms.get(m, GaussianRational(0, 0))

    def constant_term(self) -> GaussianRational:
        """The value at the origin."""
        return self.coeff(_unit_monomial(self.nz))

    def conjugate(self) -> "WPoly":
        return WPoly(
            self.nz,
            {m.conjugate(): c.conjugate() for m, c in self.terms.items()},
        )

    def is_real(self) -> bool:
        """coeff(m) == conj(coeff(conj(m))) for every monomial."""
        for m, c in self.terms.items():
            if self.coeff(m.conjugate()).conjugate() != c:
                return False
        return True

    def truncate(self, cap: int) -> "WPoly":
        """Drop all monomials of total degree > cap."""
        return WPoly(
            self.nz, {m: c for m, c in self.terms.items() if m.degree() <= cap}
        )

    # -- Wirtinger calculus ---------------------------------------------

    def dz(self, j: int = 0) -> "WPoly":
        return self._formal_deriv("a", j)

    def dzbar(self, j: int = 0) -> "WPoly":
        return self._formal_deriv("b", j)

    def dw(self) -> "WPoly":
        return self._formal_deriv("c", 0)

    def dwbar(self) -> "WPoly":
        return self._formal_deriv("d", 0)

    def _formal_deriv(self, field: str, j: int) -> "WPoly":
        out = {}
        for m, c in self.terms.items():
            e = _get_exp(m, field, j)
            if e == 0:
                continue
            out[_set_exp(m, field, j, e - 1)] = c * e
        return WPoly(self.nz, out)

    def antideriv_z(self, j: int = 0) -> "WPoly":
        """Formal antiderivative in z_j; constant of integration 0."""
        out = {}
        for m, c in self.terms.items():
            e = _get_exp(m, "a", j)
            out[_set_exp(m, "a", j, e + 1)] = c / (e + 1)
        return WPoly(self.nz, out)

    # -- evaluation ------------------------------------------------------

    def eval(self, z, w):
        """Evaluate at a point.

        `z` is a scalar (nz == 1) or sequence of length nz, `w` a scalar.
        GaussianRational/Fraction/int coordinates give an exact
        GaussianRational result; anything else goes through complex floats.
        Array-shaped complex input is delegated to the compiled evaluator.
        """
        import numpy as np

        if isinstance(z, np.ndarray) or isinstance(w, np.ndarray):
            from .numeval import compiled

            zarr = np.atleast_2d(np.asarray(z, dtype=complex))
            if zarr.shape[-1] != self.nz:
                zarr = zarr.reshape(-1, self.nz)
            return compiled(self).eval(zarr, np.asarray(w, dtype=complex))

        if isinstance(z, (tuple, list)):
            zs = tuple(z)
        elif self.nz == 1:
            zs = (z,)
        else:
            raise DimensionMismatch(f"expected {self.nz} z coordinates")
        if len(zs) != self.nz:
            raise DimensionMismatch(f"expected {self.nz} z coordinates")
        exact = all(
            isinstance(v, (int, Fraction, GaussianRational)) for v in (*zs, w)
        )
        if exact:
            zg = [GaussianRational.of(v) for v in zs]
            wg = GaussianRational.of(w)
            acc = GaussianRational(0, 0)
            for m, c in self.terms.items():
                t = c
                for x, ea, eb in zip(zg, m.a, m.b):
                    for _ in range(ea):
                        t = t * x
                    xc = x.conjugate()
                    for _ in range(eb):
                        t = t * xc
                for _ in range(m.c):
                    t = t * wg
                wc = wg.conjugate()
                for _ in range(m.d):
                    t = t * wc
                acc = acc + t
            return acc
        zc = [complex(v) for v in zs]
        wc = complex(w)
        acc = 0j
        for m, c in self.terms.items():
            t = c.to_complex()
            for x, ea, eb in zip(zc, m.a, m.b):
                if ea:
                    t *= x**ea
                if eb:
                    t *= x.conjugate() ** eb
            if m.c:
                t *= wc**m.c
            if m.d:
                t *= wc.conjugate() ** m.d
            acc += t
        return acc

    # -- text ------------------------------------------------------------

    def canonical_str(self) -> str:
        return canonical_str(self)

    def __repr__(self):
        return f"WPoly({self.canonical_str()!r})"


# -- monomial plumbing ---------------------------------------------------


def _unit_monomial(nz: int) -> Monomial:
    return Monomial((0,) * nz, (0,) * nz, 0, 0)


def _single(nz: int, field: str, j: int) -> Monomial:
    m = _unit_monomial(nz)
    return _set_exp(m, field, j, 1)


def _get_exp(m: Monomial, field: str, j: int) -> int:
    if field == "a":
        return m.a[j]
    if field == "b":
        return m.b[j]
    return m.c if field == "c" else m.d


def _set_exp(m: Monomial, field: str, j: int, e: int) -> Monomial:
    if field == "a":
        return m._replace(a=m.a[:j] + (e,) + m.a[j + 1 :])
    if field == "b":
        return m._replace(b=m.b[:j] + (e,) + m.b[j + 1 :])
    if field == "c":
        return m._replace(c=e)
    return m._replace(d=e)


# -- real-part builders --------------------------------------------------


def realify(q: WPoly) -> WPoly:
    """q + conj(q); always a real polynomial."""
    return q + q.conjugate()


def re_z(nz: int, j: int = 0) -> WPoly:
    return (WPoly.var_z(nz, j) + WPoly.var_zbar(nz, j)).scale(Fraction(1, 2))


def im_z(nz: int, j: int = 0) -> WPoly:
    # (z - zbar)/(2i)
    return (WPoly.var_z(nz, j) - WPoly.var_zbar(nz, j)).scale(INV_2I)


def re_w(nz: int) -> WPoly:
    return (WPoly.var_w(nz) + WPoly.var_wbar(nz)).scale(Fraction(1, 2))


def im_w(nz: int) -> WPoly:
    return (WPoly.var_w(nz) - WPoly.var_wbar(nz)).scale(INV_2I)


def abs2(p: WPoly) -> WPoly:
    """p * conj(p); |p|^2 as a polynomial."""
    return p * p.conjugate()


# -- canonical text form -------------------------------------------------


def _var_name(base: str, j: int, nz: int) -> str:
    if base in ("w", "wbar"):
        return base
    return base if nz == 1 else f"{base}{j + 1}"


def _monomial_str(m: Monomial, nz: int) -> str:
    parts = []
    for j, e in enumerate(m.a):
        if e:
            n = _var_name("z", j, nz)
            parts.append(n if e == 1 else f"{n}^{e}")
    for j, e in enumerate(m.b):
        if e:
            n = _var_name("zbar", j, nz)
            parts.append(n if e == 1 else f"{n}^{e}")
    if m.c:
        parts.append("w" if m.c == 1 else f"w^{m.c}")
    if m.d:
        parts.append("wbar" if m.d == 1 else f"wbar^{m.d}")
    return " ".join(parts)


def canonical_str(p: WPoly) -> str:
    """Sorted-monomial text form, `coeff * z^a zbar^b w^c wbar^d` terms.

    Coefficients print as exact rationals; the output parses back through
    the expression parser to an identical WPoly.
    """
    if not p.terms:
        return "0"
    items = sorted(p.terms.items(), key=lambda kv: kv[0].sort_key())
    pieces = []
    for m, c in items:
        mono = _monomial_str(m, p.nz)
        negated = False
        if c.im == 0 or (c.re == 0 and c.im != 0):
            # pure real or pure imaginary: pull the sign out front
            key = c.re if c.im == 0 else c.im
            if key < 0:
                negated = True
                c = -c
        if c.im == 0 and abs(c.re) == 1 and mono:
            body = mono
        else:
            cs = format_gaussian(c)
            body = cs if not mono else f"{cs} * {mono}"
        if not pieces:
            pieces.append(("-" if negated else "") + body)
        else:
            pieces.append(("- " if negated else "+ ") + body)
    return " ".join(pieces)
