"""CR geometry of boundaries in normal form r = Im w + F.

The hypersurface is {r = 0} with F real of degree >= 2, so the w-linear part
is exactly Im w and dr never vanishes near the origin.  The Levi form is
the Hessian of r on the tangential frame v_j = r_w e_j - r_{z_j} e_w, kept
as an exact polynomial; one general-n code path, with j = 0 the only index
in complex dimension 2.  The frame and the form serve both lanes: for a
real domain r = y + G the frame is v_j = r_y e_j - r_{x_j} e_y, and the
form is the real Hessian of r there, whose sign decides convexity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .gaussrat import GaussianRational
from .wirtinger import SparsePoly, WPoly, im_w, var_slot

# coefficient of w in Im w: 1/(2i)
_W_COEFF = GaussianRational(0, Fraction(-1, 2))


class NormalFormError(ValueError):
    """Input fails its lane's normal form, r = Im w + F or r = y + G; lists
    every violated clause."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def normal_form_violations(p: WPoly) -> list[str]:
    out = []
    if not p.is_real():
        out.append("polynomial is not real")
    if not p.constant_term().is_zero():
        out.append("nonzero constant term")
    # the coefficient of a linear monomial is its partial's constant term
    if p.dw().constant_term() != _W_COEFF:
        out.append("coefficient of w is not 1/(2i) (linear part must be Im w)")
    if p.dwbar().constant_term() != _W_COEFF.conjugate():
        out.append("coefficient of wbar is not -1/(2i) (linear part must be Im w)")
    for j in range(p.nz):
        if p.dz(j).constant_term() or p.dzbar(j).constant_term():
            out.append(f"linear term in z_{j + 1}")
    return out


def validate_normal_form(p: WPoly) -> "DefiningFunction":
    """Return the validated DefiningFunction or raise with all violated clauses."""
    violations = normal_form_violations(p)
    if violations:
        raise NormalFormError(violations)
    return DefiningFunction(p)


@dataclass
class Domain:
    """A validated defining function with a cache of what derives from it."""

    poly: SparsePoly
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def cached(self, key, build):
        """The value stored under key; build() runs once per key, whatever
        it returns."""
        try:
            return self._cache[key]
        except KeyError:
            v = self._cache[key] = build()
            return v

    def gradient(self) -> list:
        """r's partials in its Hessian row slots (see `hessian_entries`),
        built once; the lanes' d_z, d_w and d_y return its entries."""
        p = self.poly
        return self.cached(
            "gradient", lambda: [p.partial(a) for a in p.slots(p.hessian_rows, p.n)]
        )

    def times(self, f: SparsePoly) -> SparsePoly:
        """The exact product f r, built once per f."""
        return self.cached(("times", f), lambda: f * self.poly)

    def levi(self, j: int = 0, k: int | None = None) -> SparsePoly:
        """`levi_form(self, j, k)`, built once per entry."""
        k = j if k is None else k
        return self.cached(("levi", j, k), lambda: levi_form(self, j, k))


@dataclass
class DefiningFunction(Domain):
    """A validated local defining function r = Im w + F."""

    poly: WPoly

    @property
    def nz(self) -> int:
        return self.poly.nz

    def higher_order_part(self) -> WPoly:
        """F = r - Im w (all terms of degree >= 2)."""
        return self.poly - im_w(self.poly.nz)

    def d_z(self, j: int) -> WPoly:
        return self.gradient()[var_slot(j, self.nz)]

    def d_zbar(self, j: int) -> WPoly:
        return self.cached(("dzbar", j), lambda: self.poly.dzbar(j))

    def d_w(self) -> WPoly:
        return self.gradient()[-1]

    def d_wbar(self) -> WPoly:
        return self.cached("dwbar", lambda: self.poly.dwbar())

    def normal_slope(self) -> WPoly:
        """d r / d(Im w) = i (r_w - r_wbar), the slope of a boundary
        projection's Newton solve."""
        return self.cached(
            "dv", lambda: (self.d_w() - self.d_wbar()).scale(GaussianRational(0, 1))
        )

    def grad_z_sq(self) -> WPoly:
        return self.cached("gradsq", lambda: gradient_z_sq(self))


def hessian_entries(f: SparsePoly) -> list[list[SparsePoly]]:
    """H[a][b], the partial of f in its class's a-th Hessian row slot and
    b-th column slot: f_{u_a ubar_b} with u = (z_1..z_m, w) for a WPoly,
    f_{x_a x_b} with x = (x_1..x_n, y) for an RPoly."""
    rows, cols = (f.slots(s, f.n) for s in (f.hessian_rows, f.hessian_cols))
    return [[d.partial(b) for b in cols] for d in (f.partial(a) for a in rows)]


def hessian_minor_det(f: WPoly, j: int = 0) -> WPoly:
    """2x2 minor f_{z_j zbar_j} f_{w wbar} - f_{z_j wbar} f_{zbar_j w}."""
    return f.dz(j).dzbar(j) * f.dw().dwbar() - f.dz(j).dwbar() * f.dzbar(j).dw()


def levi_form(r: Domain, j: int = 0, k: int | None = None) -> SparsePoly:
    """Entry (j, k) of r's Hessian on the tangential frame, exactly:
    v_j^T H conj(v_k), H = `hessian_entries(r.poly)`, v_j = g_last e_j -
    g_j e_last, g = r.gradient(); k defaults to j.  Entry (j, j) is the
    Levi form r_{z_j zbar_j}|r_w|^2 + r_{w wbar}|r_{z_j}|^2 -
    2 Re(r_{z_j wbar} r_w r_{zbar_j}) of a WPoly, and the tangential form
    r_xx r_y^2 - 2 r_xy r_x r_y + r_yy r_x^2 in x_j of an RPoly."""
    g = r.gradient()
    H = r.cached("hessian", lambda: hessian_entries(r.poly))
    # the nonzero (slot, entry) pairs of v_j and v_k
    vj, vk = [((i, g[-1]), (-1, -g[i])) for i in (j, j if k is None else k)]
    return sum(x * sum(H[a][b] * y.conjugate() for b, y in vk) for a, x in vj)


def gradient_z_sq(r: DefiningFunction) -> WPoly:
    """Sum over j of |r_{z_j}|^2 as an exact polynomial."""
    acc = WPoly.zero(r.nz)
    for j in range(r.nz):
        acc = acc + r.d_z(j) * r.d_zbar(j)
    return acc


def levi_origin_value(r: DefiningFunction, j: int = 0) -> GaussianRational:
    """Exact rational Levi value at 0 (strong pseudoconvexity test)."""
    return r.levi(j).constant_term()
