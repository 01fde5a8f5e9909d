"""CR geometry of boundaries in normal form r = Im w + F.

The hypersurface is {r = 0} with F real of degree >= 2, so the w-linear part
is exactly Im w and dr never vanishes near the origin.  The Levi form is
taken along the tangential frame v_j = <0,..,r_w,..,0, -r_{z_j}> and is kept
as an exact polynomial; one general-n code path, with j = 0 the only index
in complex dimension 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .gaussrat import GaussianRational
from .wirtinger import Monomial, WPoly, im_w

# coefficient of w in Im w: 1/(2i)
_W_COEFF = GaussianRational(0, Fraction(-1, 2))


class NormalFormError(ValueError):
    """Input fails the r = Im w + F normal form; lists every violated clause."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def normal_form_violations(p: WPoly) -> list[str]:
    out = []
    if not p.is_real():
        out.append("polynomial is not real")
    unit = Monomial((0,) * p.nz, (0,) * p.nz, 0, 0)
    if not p.coeff(unit).is_zero():
        out.append("nonzero constant term")
    w_mono = unit._replace(c=1)
    wbar_mono = unit._replace(d=1)
    if p.coeff(w_mono) != _W_COEFF:
        out.append("coefficient of w is not 1/(2i) (linear part must be Im w)")
    if p.coeff(wbar_mono) != _W_COEFF.conjugate():
        out.append("coefficient of wbar is not -1/(2i) (linear part must be Im w)")
    for j in range(p.nz):
        zc = p.coeff(unit._replace(a=unit.a[:j] + (1,) + unit.a[j + 1 :]))
        zbc = p.coeff(unit._replace(b=unit.b[:j] + (1,) + unit.b[j + 1 :]))
        if not (zc.is_zero() and zbc.is_zero()):
            out.append(f"linear term in z_{j + 1}")
    return out


def validate_normal_form(p: WPoly) -> "DefiningFunction":
    """Return the validated DefiningFunction or raise with all violated clauses."""
    violations = normal_form_violations(p)
    if violations:
        raise NormalFormError(violations)
    return DefiningFunction(p)


@dataclass
class DefiningFunction:
    """A validated local defining function r = Im w + F."""

    poly: WPoly
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def nz(self) -> int:
        return self.poly.nz

    def higher_order_part(self) -> WPoly:
        """F = r - Im w (all terms of degree >= 2)."""
        return self.poly - im_w(self.poly.nz)

    def cached(self, key, build):
        v = self._cache.get(key)
        if v is None:
            v = build()
            self._cache[key] = v
        return v

    def d_z(self, j: int) -> WPoly:
        return self.cached(("dz", j), lambda: self.poly.dz(j))

    def d_zbar(self, j: int) -> WPoly:
        return self.cached(("dzbar", j), lambda: self.poly.dzbar(j))

    def d_w(self) -> WPoly:
        return self.cached("dw", lambda: self.poly.dw())

    def d_wbar(self) -> WPoly:
        return self.cached("dwbar", lambda: self.poly.dwbar())

    def levi(self, j: int = 0) -> WPoly:
        return self.cached(("levi", j), lambda: levi_form(self, j))

    def grad_z_sq(self) -> WPoly:
        return self.cached("gradsq", lambda: gradient_z_sq(self))


def hessian_entries(f: WPoly) -> list[list[WPoly]]:
    """H[j][k] = f_{x_j xbar_k} with slots (z_1..z_m, w)."""
    first = [f.dz(j) for j in range(f.nz)] + [f.dw()]
    return [
        [d.dzbar(k) for k in range(f.nz)] + [d.dwbar()] for d in first
    ]


def hessian_minor_det(f: WPoly, j: int = 0) -> WPoly:
    """2x2 minor f_{z_j zbar_j} f_{w wbar} - f_{z_j wbar} f_{zbar_j w}."""
    return f.dz(j).dzbar(j) * f.dw().dwbar() - f.dz(j).dwbar() * f.dzbar(j).dw()


def levi_form(r: DefiningFunction, j: int = 0) -> WPoly:
    """Exact tangential Levi polynomial along v_j.

    r_{z_j zbar_j}|r_w|^2 + r_{w wbar}|r_{z_j}|^2
      - (r_{z_j wbar} r_w r_{zbar_j} + conjugate).
    """
    p = r.poly
    rz = r.d_z(j)
    rzb = r.d_zbar(j)
    rw = r.d_w()
    rwb = r.d_wbar()
    cross = p.dz(j).dwbar() * rw * rzb
    return (
        p.dz(j).dzbar(j) * rw * rwb
        + p.dw().dwbar() * rz * rzb
        - (cross + cross.conjugate())
    )


def gradient_z_sq(r: DefiningFunction) -> WPoly:
    """Sum over j of |r_{z_j}|^2 as an exact polynomial."""
    acc = WPoly.zero(r.nz)
    for j in range(r.nz):
        acc = acc + r.d_z(j) * r.d_zbar(j)
    return acc


def levi_origin_value(r: DefiningFunction, j: int = 0) -> GaussianRational:
    """Exact rational Levi value at 0 (strong pseudoconvexity test)."""
    return r.levi(j).constant_term()
