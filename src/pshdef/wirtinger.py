"""Exact sparse polynomials: the one ring both lanes compute in.

`SparsePoly` is a dict from flat exponent tuples to nonzero exact
coefficients; zero coefficients are never stored.  It implements the whole
ring once -- sums, products, powers, scaling, degrees, truncation, the
partial derivative and antiderivative in one exponent slot, and the one
change of variables, `substitute` -- and orders terms by (total degree,
exponents).  Its lanes differ only in the coefficient ring, the key layout
and the variable names:

- `WPoly`, polynomials in z_1..z_m, conj(z_1)..conj(z_m), w, conj(w) with
  GaussianRational coefficients, keyed (a_1..a_m, b_1..b_m, c, d).  The
  complex monomial basis is canonical -- real-variable expressions like
  Im w or (Re z)^2 are expanded into it on construction.  Wirtinger
  derivatives are formal partials in this basis, so d/dz treats conj(z) as
  an independent variable, and conjugation swaps z with conj(z), w with
  conj(w).
- `RPoly`, polynomials in x_1..x_n, y with Fraction coefficients, keyed
  (e_1..e_n, e_y), for the real lane (`realconvex`).

Each class declares its variable names once; they fix its key layout, its
canonical text (`canonical_str`) and the names the expression parser
accepts.

Floats appear only in `eval` and the compiled evaluator; everything else
is exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import add, mul

import numpy as np

from .gaussrat import GaussianRational, I, format_gaussian, INV_2I
from .numeval import compiled

_SCALARS = (int, Fraction, GaussianRational)


class DimensionMismatch(ValueError):
    """Operands are of different lanes or over different numbers of variables."""


def _order(item):
    e = item[0]
    return (sum(e), e)


def var_slot(j: int, n: int, start: int = 0) -> int:
    """Exponent slot of variable j in the block of n slots at `start`."""
    if not 0 <= j < n:
        raise IndexError(f"variable index {j} out of range for {n} variables")
    return start + j


class SparsePoly:
    """Polynomial with exact coefficients over `n` variables.

    Used as is, it has GaussianRational coefficients and one exponent slot
    per variable.  A lane overrides `ring` (the coefficient constructor),
    its variable names and its Hessian slots.  It gives the compiled
    evaluator `z_columns` and `w_columns` (the value of each slot at
    numeric points: the `indexed` slots from the first coordinates, the
    `single` ones from the last) and `numeric` (a coefficient as a float or
    complex), the point tables `point_columns` (the real coordinates of
    points by column name), and the boundary sampler `precisions` (the
    point dtype, then its extended one), `tangential_point` and `boundary_w`
    (a point's Z and the tangential part U of its W from the `width(n) - 1`
    tangential coordinates, and its W from U and the normal coordinate).
    Ring operations need operands of the same lane and n; int, Fraction and
    GaussianRational scalars act as constants.
    """

    __slots__ = ("n", "terms", "_compiled")
    ring = staticmethod(GaussianRational.of)
    # Variable names: each family in `indexed` names a block of n slots
    # (`v` alone when n == 1, else `v1`..`vn`), each name in `single` one
    # slot after the blocks.
    indexed = ("v",)
    single = ()
    # the families whose slots index the rows, and those whose slots index
    # the columns, of the Hessian entry table (`cr.hessian_entries`)
    hessian_rows = hessian_cols = ("v",)
    # what the parser needs besides the names: the name of n, the value of
    # `i` (None where there is none) and a note for messages about names
    # the lane lacks
    size_name = "n"
    imag_unit = I
    unknown_note = ""

    @classmethod
    def width(cls, n: int) -> int:
        """Exponent slots for n variables."""
        return len(cls.indexed) * n + len(cls.single)

    @classmethod
    def names(cls, n: int) -> list:
        """The name of each exponent slot."""
        out = [v for f in cls.indexed for v in indexed_names(f + "{}", n)]
        return out + list(cls.single)

    @classmethod
    def slots(cls, families, n: int) -> list:
        """The exponent slots of the named variable families, in order."""
        family = [f for f in cls.indexed for _ in range(n)] + list(cls.single)
        return [i for f in families for i, g in enumerate(family) if g == f]

    def __init__(self, n: int, terms: dict | None = None):
        if n < 1:
            raise ValueError("need at least one variable")
        self.n = n
        ring = self.ring
        pruned = {}
        if terms:
            for e, c in terms.items():
                c = ring(c)
                if c:
                    pruned[e] = c
        self.terms = pruned
        self._compiled = None

    def _like(self, terms: dict):
        return type(self)(self.n, terms)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, n: int):
        return cls(n)

    @classmethod
    def const(cls, n: int, c):
        return cls(n, {(0,) * cls.width(n): c})

    @classmethod
    def one(cls, n: int):
        return cls.const(n, 1)

    @classmethod
    def var(cls, n: int, j: int, start: int = 0):
        """Variable j (0 <= j < n) of the block of slots at `start`."""
        e = [0] * cls.width(n)
        e[var_slot(j, n, start)] = 1
        return cls(n, {tuple(e): 1})

    # -- ring operations -------------------------------------------------

    def _operand(self, other):
        if isinstance(other, _SCALARS):
            return self.const(self.n, other)
        if type(other) is not type(self) or other.n != self.n:
            raise DimensionMismatch(
                f"cannot combine {type(self).__name__}({self.n}) with {other!r}"
            )
        return other

    def __add__(self, other):
        other = self._operand(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            out[e] = c if s is None else s + c
        return self._like(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._operand(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._like({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        other = self._operand(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                c = c1 * c2
                s = out.get(e)
                out[e] = c if s is None else s + c
        return self._like(out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def scale(self, c):
        c = self.ring(c)
        return self._like({e: k * c for e, k in self.terms.items()})

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return reduce(mul, [self] * k, self.one(self.n))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self):
        return f"{type(self).__name__}({canonical_str(self)!r})"

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(map(sum, self.terms), default=-1)

    def min_degree(self) -> int:
        """Lowest total degree among stored terms; -1 for zero."""
        return min(map(sum, self.terms), default=-1)

    def coeff(self, e):
        return self.terms.get(tuple(e), self.ring(0))

    def constant_term(self):
        """The value at the origin."""
        return self.coeff((0,) * self.width(self.n))

    def truncate(self, cap: int):
        """Drop all terms of total degree > cap."""
        return self._like({e: c for e, c in self.terms.items() if sum(e) <= cap})

    def sorted_terms(self) -> list:
        """(exponents, coefficient) pairs by total degree, then exponents."""
        return sorted(self.terms.items(), key=_order)

    # -- calculus in one exponent slot -----------------------------------

    def partial(self, i: int):
        """Formal partial derivative in slot i."""
        out = {}
        for e, c in self.terms.items():
            k = e[i]
            if k:
                out[e[:i] + (k - 1,) + e[i + 1 :]] = c * k
        return self._like(out)

    def antiderivative(self, i: int):
        """Formal antiderivative in slot i; constant of integration 0."""
        out = {}
        for e, c in self.terms.items():
            k = e[i] + 1
            out[e[:i] + (k,) + e[i + 1 :]] = c / k
        return self._like(out)

    # -- change of variables ---------------------------------------------

    def substitute(self, images):
        """This polynomial with exponent slot i replaced by `images[i]`.

        The polynomial images share one lane and n, which may differ from
        this polynomial's, and the result is in that lane; exact scalars
        among them act as constants.  When every image is an exact scalar,
        the result is a scalar: the exact value at that point.  Each term
        is its coefficient times the powers of its slots' images in slot
        order, and each power is built once per call by repeated products
        (a scalar has no `**`).
        """
        if len(images) != self.width(self.n):
            raise DimensionMismatch(
                f"{len(images)} images for {self.width(self.n)} exponent slots"
            )
        g = next((g for g in images if isinstance(g, SparsePoly)), None)
        one = self.ring(1) if g is None else g.one(g.n)
        powers = {}
        acc = one * 0
        for e, c in self.terms.items():
            t = one * c
            for i, k in enumerate(e):
                if k:
                    if (i, k) not in powers:
                        powers[i, k] = reduce(mul, [images[i]] * k, one)
                    t = t * powers[i, k]
            acc = acc + t
        return acc


class WPoly(SparsePoly):
    """Polynomial over the z/zbar/w/wbar monomial basis.

    `nz` is the number of z variables (the ambient complex dimension is
    nz + 1, the last coordinate being w).
    """

    __slots__ = ()
    # perfbench's tracer wraps WPoly.__mul__, so it must sit in this class
    __mul__ = SparsePoly.__mul__
    numeric = staticmethod(GaussianRational.to_complex)
    mode = "complex"
    indexed = ("z", "zbar")
    single = ("w", "wbar")
    hessian_rows = ("z", "w")
    hessian_cols = ("zbar", "wbar")
    size_name = "nz"

    @staticmethod
    def z_columns(Z) -> list:
        return [*Z.T, *np.conj(Z).T]

    @staticmethod
    def w_columns(W) -> list:
        return [W, np.conj(W)]

    precisions = (np.complex128, np.clongdouble)

    @staticmethod
    def tangential_point(coords, n: int):  # (Re z, Im z, Re w) -> (Z, Re w)
        return coords[:, :n] + 1j * coords[:, n : 2 * n], coords[:, -1]

    @staticmethod
    def boundary_w(U, V):  # Im w is the normal coordinate
        return U + 1j * V

    @staticmethod
    def point_columns(Z, W) -> dict:
        """The real coordinates of points (Z, W) as named table columns."""
        nz = Z.shape[1]
        out = {}
        for z, re, im in zip(
            Z.T, indexed_names("re_z{}", nz), indexed_names("im_z{}", nz)
        ):
            out[re], out[im] = z.real, z.imag
        out["re_w"], out["im_w"] = W.real, W.imag
        return out

    @property
    def nz(self) -> int:
        return self.n

    # -- variables and Wirtinger derivatives -----------------------------

    @classmethod
    def var_z(cls, nz: int, j: int = 0) -> "WPoly":
        return cls.var(nz, j)

    @classmethod
    def var_zbar(cls, nz: int, j: int = 0) -> "WPoly":
        return cls.var(nz, j, nz)

    @classmethod
    def var_w(cls, nz: int) -> "WPoly":
        return cls.var(nz, 0, 2 * nz)

    @classmethod
    def var_wbar(cls, nz: int) -> "WPoly":
        return cls.var(nz, 0, 2 * nz + 1)

    def dz(self, j: int = 0) -> "WPoly":
        return self.partial(var_slot(j, self.n))

    def dzbar(self, j: int = 0) -> "WPoly":
        return self.partial(var_slot(j, self.n, self.n))

    def dw(self) -> "WPoly":
        return self.partial(2 * self.n)

    def dwbar(self) -> "WPoly":
        return self.partial(2 * self.n + 1)

    def antideriv_z(self, j: int = 0) -> "WPoly":
        """Formal antiderivative in z_j; constant of integration 0."""
        return self.antiderivative(var_slot(j, self.n))

    # -- conjugation -----------------------------------------------------

    def conj_key(self, e: tuple) -> tuple:
        """Exponents of the conjugate monomial."""
        n = self.n
        return (*e[n : 2 * n], *e[:n], e[-1], e[-2])

    def conjugate(self) -> "WPoly":
        terms = self.terms.items()
        return self._like({self.conj_key(e): c.conjugate() for e, c in terms})

    def is_real(self) -> bool:
        """coeff(m) == conj(coeff(conj(m))) for every monomial."""
        return all(
            self.coeff(self.conj_key(e)).conjugate() == c
            for e, c in self.terms.items()
        )

    # -- evaluation ------------------------------------------------------

    def eval(self, z, w):
        """Evaluate at a point.

        `z` is a scalar (nz == 1) or sequence of length nz, `w` a scalar.
        GaussianRational/Fraction/int coordinates give an exact
        GaussianRational result; anything else goes through the compiled
        evaluator in complex floats.  Array-shaped input gives an array.
        """
        if isinstance(z, np.ndarray) or isinstance(w, np.ndarray):
            zarr = np.atleast_2d(np.asarray(z, dtype=complex))
            if zarr.shape[-1] != self.nz:
                zarr = zarr.reshape(-1, self.nz)
            return compiled(self).eval(zarr, np.asarray(w, dtype=complex))
        zs = tuple(z) if isinstance(z, (tuple, list)) else (z,)
        if len(zs) != self.nz:
            raise DimensionMismatch(f"expected {self.nz} z coordinates")
        if not all(isinstance(v, _SCALARS) for v in (*zs, w)):
            Z = np.array([zs], dtype=complex)
            return complex(compiled(self).eval(Z, np.array([w], dtype=complex))[0])
        pt = [GaussianRational.of(v) for v in (*zs, w)]
        vals = pt[:-1] + [v.conjugate() for v in pt[:-1]] + [pt[-1], pt[-1].conjugate()]
        return self.substitute(vals)


class RPoly(SparsePoly):
    """Polynomial over (x_1..x_nx, y) with exact rational coefficients.

    Exponent keys are tuples of length nx + 1, the last slot for y.  Real
    coefficients in real variables: conjugation is the identity.
    """

    __slots__ = ()
    ring = Fraction
    numeric = float
    mode = "real"
    indexed = ("x",)
    single = ("y",)
    hessian_rows = hessian_cols = ("x", "y")
    size_name = "nx"
    imag_unit = None
    unknown_note = " in real mode"

    @staticmethod
    def z_columns(X) -> list:
        return [*X.T]

    @staticmethod
    def w_columns(Y) -> list:
        return [Y]

    precisions = (np.float64, np.longdouble)

    @staticmethod
    def tangential_point(coords, n: int):  # x -> (X, None): y is all normal
        return coords, None

    @staticmethod
    def boundary_w(U, V):  # y is the normal coordinate
        return V

    @classmethod
    def point_columns(cls, X, Y) -> dict:
        """The coordinates of points (X, Y) as named table columns."""
        return dict(zip(cls.names(X.shape[1]), [*X.T, Y]))

    @property
    def nx(self) -> int:
        return self.n

    @classmethod
    def var_x(cls, nx: int, j: int = 0) -> "RPoly":
        return cls.var(nx, j)

    @classmethod
    def var_y(cls, nx: int) -> "RPoly":
        return cls.var(nx, 0, nx)

    def d_x(self, j: int = 0) -> "RPoly":
        return self.partial(var_slot(j, self.n))

    def d_y(self) -> "RPoly":
        return self.partial(self.n)

    def conjugate(self) -> "RPoly":
        return self

    def eval(self, X, Y) -> np.ndarray:
        """Values at rows of X (m, nx) and Y (m,), float64."""
        Y = np.asarray(Y, dtype=np.float64)
        X = np.asarray(X, dtype=np.float64).reshape(len(Y), self.nx)
        return compiled(self).eval(X, Y)


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


def indexed_names(template: str, n: int) -> list:
    """`template` for each of n variables: `z` alone, else `z1`..`zn`."""
    return [template.format("" if n == 1 else j + 1) for j in range(n)]


def term_text(terms: dict, names, factor_sep: str = " ", coeff_sep: str = " * ") -> str:
    """Signed sum of `coeff * monomial` pieces in term order; "0" if empty.

    `names[i]` names exponent slot i.  A pure real or pure imaginary
    coefficient has its sign pulled out front, and a unit coefficient is
    left off a monomial.
    """
    pieces = []
    for e, c in sorted(terms.items(), key=_order):
        mono = factor_sep.join(
            n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k
        )
        c = GaussianRational.of(c)
        negated = (c.re if c.im == 0 else c.im if c.re == 0 else 0) < 0
        if negated:
            c = -c
        if c == 1 and mono:
            body = mono
        else:
            body = format_gaussian(c) + (coeff_sep + mono if mono else "")
        if pieces:
            pieces.append(("- " if negated else "+ ") + body)
        else:
            pieces.append(("-" if negated else "") + body)
    return " ".join(pieces) or "0"


def canonical_str(p: SparsePoly) -> str:
    """Sorted-monomial text form over the lane's variable names, such as
    `coeff * z^a zbar^b w^c wbar^d` terms.

    Coefficients print as exact rationals; the output parses back through
    the expression parser to an identical polynomial.
    """
    return term_text(p.terms, p.names(p.n))
