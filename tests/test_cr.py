"""Defining functions, Levi forms, Hessian machinery."""

import random
from fractions import Fraction

import pytest

from conftest import random_normal_form, random_rpoly
from pshdef.catalog import type4_domain
from pshdef.cr import (
    DefiningFunction,
    NormalFormError,
    hessian_entries,
    hessian_minor_det,
    levi_form,
    levi_origin_value,
    normal_form_violations,
    validate_normal_form,
)
from pshdef.exprparse import parse_rpoly
from pshdef.gaussrat import GaussianRational
from pshdef.realconvex import validate_real_normal_form
from pshdef.wirtinger import RPoly, WPoly, abs2, im_w, re_w, re_z


def tangent_vector(r, j=0):
    """v_j: r_w in slot j, -r_{z_j} in the w slot, zero elsewhere."""
    v = [WPoly.zero(r.nz) for _ in range(r.nz + 1)]
    v[j] = r.d_w()
    v[r.nz] = -r.d_z(j)
    return v


def hessian_form(f, v, u=None):
    """Complex Hessian of f applied to v and u (default v): sum of
    f_{jk} v_j conj(u_k)."""
    H = hessian_entries(f)
    acc = WPoly.zero(f.nz)
    for j, vj in enumerate(v):
        for k, uk in enumerate(v if u is None else u):
            acc = acc + H[j][k] * vj * uk.conjugate()
    return acc


def test_violation_clauses():
    nz = 1
    w = WPoly.var_w(nz)
    assert "polynomial is not real" in normal_form_violations(w)
    assert any("constant" in v for v in normal_form_violations(im_w(nz) + WPoly.one(nz)))
    assert any("linear term in z_1" in v for v in normal_form_violations(im_w(nz) + re_z(nz)))
    bad_w = re_w(nz) + abs2(WPoly.var_z(nz))
    assert any("Im w" in v for v in normal_form_violations(bad_w))


def test_validate_accepts_and_rejects():
    good = im_w(1) + abs2(WPoly.var_z(1))
    r = validate_normal_form(good)
    assert isinstance(r, DefiningFunction)
    with pytest.raises(NormalFormError):
        validate_normal_form(im_w(1) + re_z(1))


def test_levi_formula_on_fixtures(r10, r8, ball, halfspace):
    """The Levi polynomial agrees with its textbook expansion, term by term."""
    for r in (r10, r8, ball, halfspace):
        p = r.poly
        rw, rwb = p.dw(), p.dwbar()
        rz, rzb = p.dz(0), p.dzbar(0)
        cross = p.dz(0).dwbar() * rw * rzb
        expected = (
            p.dz(0).dzbar(0) * rw * rwb
            + p.dw().dwbar() * rz * rzb
            - (cross + cross.conjugate())
        )
        assert levi_form(r, 0) == expected


def test_levi_formula_on_random_domains():
    rng = random.Random(99)
    for _ in range(8):
        p = random_normal_form(rng)
        r = validate_normal_form(p)
        L = levi_form(r, 0)
        assert L.is_real()
        assert L == hessian_form(p, tangent_vector(r, 0))
    # the real lane's form is the real Hessian of r on v_j = r_y e_j - r_{x_j} e_y
    for nx in (1, 1, 1, 2, 2, 3):
        G = random_rpoly(rng, nx)
        G = RPoly(nx, {e: c for e, c in G.terms.items() if sum(e) >= 2})
        r = validate_real_normal_form(RPoly.var_y(nx) + G)
        p = r.poly
        for j in range(nx):
            rx, ry = p.d_x(j), p.d_y()
            expected = (
                rx.d_x(j) * ry * ry - (rx.d_y() * rx * ry).scale(2) + ry.d_y() * rx * rx
            )
            assert levi_form(r, j) == expected


@pytest.mark.parametrize("nz", [2, 3])
def test_levi_entries_on_random_domains(nz):
    """Entry (j, k) is the Hessian of r on v_j and v_k, Hermitian in (j, k),
    and entry (j, j) is the Levi form of j, as `levi` caches it."""
    rng = random.Random(nz)
    for _ in range(4):
        p = random_normal_form(rng, nz, max_deg=4)
        r = validate_normal_form(p)
        for j in range(nz):
            assert r.levi(j, j) is r.levi(j)
            assert r.levi(j) == levi_form(r, j)
            for k in range(nz):
                L = levi_form(r, j, k)
                assert L == hessian_form(p, tangent_vector(r, j), tangent_vector(r, k))
                assert L.conjugate() == levi_form(r, k, j)


def test_gradient_is_the_hessian_row_partials():
    """r.gradient() lists the partials in the Hessian row slots, in both
    lanes, and the lane's partials are its entries, built once."""
    rng = random.Random(5)
    for nz in (1, 2, 3):
        r = validate_normal_form(random_normal_form(rng, nz, max_deg=4))
        p = r.poly
        assert r.gradient() == [p.dz(j) for j in range(nz)] + [p.dw()]
        assert r.gradient() is r.gradient()
        for j in range(nz):
            assert r.d_z(j) is r.gradient()[j]
        assert r.d_w() is r.gradient()[-1]
        with pytest.raises(IndexError):
            r.d_z(nz)
    for text in ("y + x^2 + x y", "y + x1^2 + x2^4 + x1 y"):
        r = validate_real_normal_form(parse_rpoly(text))
        p, nx = r.poly, r.nx
        assert r.gradient() == [p.d_x(j) for j in range(nx)] + [p.d_y()]
        assert r.d_y() is r.gradient()[-1]


def test_levi_matches_hessian_on_tangent_vector(r10):
    assert levi_form(r10, 0) == hessian_form(r10.poly, tangent_vector(r10, 0))


def test_ball_levi_is_constant_quarter(ball):
    L = levi_form(ball, 0)
    assert L.degree() == 0
    assert L.coeff(next(iter(L.terms))) == GaussianRational(Fraction(1, 4), 0)
    assert levi_origin_value(ball) == GaussianRational(Fraction(1, 4), 0)


def test_halfspace_levi_vanishes(halfspace):
    assert levi_form(halfspace, 0).is_zero()
    assert levi_origin_value(halfspace) == GaussianRational(0, 0)


def test_type4_hessian_facts(r10, r8):
    for A, r in ((10, r10), (8, r8)):
        p = r.poly
        rww = p.dw().dwbar()
        assert rww.degree() == 0
        assert rww.coeff(next(iter(rww.terms))) == GaussianRational(Fraction(-A, 2), 0)
        rzw = p.dz(0).dwbar()
        assert rzw == WPoly.one(1)
        assert levi_origin_value(r) == GaussianRational(0, 0)


@pytest.mark.parametrize(
    "f",
    [type4_domain(10).poly, parse_rpoly("y + x1*y + x1^2*x2^2")],
    ids=["A=10", "real"],
)
def test_hessian_entries_symmetry(f):
    """One table serves both lanes: f_{u_j ubar_k} over (z, w) for a WPoly,
    f_{x_a x_b} over (x, y) for an RPoly, Hermitian or symmetric."""
    H = hessian_entries(f)
    n = f.n + 1
    assert len(H) == n and all(len(row) == n for row in H)
    for a in range(n):
        for b in range(n):
            assert H[a][b] == H[b][a].conjugate()
    if isinstance(f, RPoly):
        for a in range(n):
            assert H[a] == [f.partial(a).partial(b) for b in range(n)]
    else:
        rows = [f.dz(j) for j in range(f.nz)] + [f.dw()]
        assert H == [[d.dzbar(k) for k in range(f.nz)] + [d.dwbar()] for d in rows]


def test_minor_det_structure(r10):
    p = r10.poly
    expected = p.dz(0).dzbar(0) * p.dw().dwbar() - p.dz(0).dwbar() * p.dzbar(0).dw()
    assert hessian_minor_det(p, 0) == expected


def test_levi_four_point_fd(r10):
    """Four-point symmetric difference quotient recovers the Hessian form."""
    rng = random.Random(4)
    p = r10.poly
    v = tangent_vector(r10, 0)
    H = hessian_entries(p)
    for _ in range(6):
        z = complex(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
        w = complex(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
        vz = complex(v[0].eval(z, w))
        vw = complex(v[1].eval(z, w))
        t = 1e-4

        def at(eps):
            return complex(p.eval(z + eps * vz, w + eps * vw)).real

        s = at(t) + at(-t) + at(1j * t) + at(-1j * t) - 4 * at(0)
        fd = s / (4 * t * t)
        xi = (vz, vw)
        sym = sum(
            complex(H[j][k].eval(z, w)) * xi[j] * xi[k].conjugate()
            for j in range(2)
            for k in range(2)
        ).real
        assert abs(fd - sym) <= 1e-5 * (1 + abs(sym))
        levi_val = complex(levi_form(r10, 0).eval(z, w)).real
        assert abs(levi_val - sym) <= 1e-9 * (1 + abs(sym))


def test_defining_function_caches(r10):
    assert r10.d_z(0) is r10.d_z(0)
    assert r10.d_w() is r10.d_w()
    assert r10.levi(0) == levi_form(r10, 0)


def test_higher_order_part(r10):
    hi = r10.higher_order_part()
    assert hi.min_degree() >= 2
    assert im_w(1) + hi == r10.poly


def test_grad_z_sq(r10):
    g = r10.grad_z_sq()
    assert g == r10.poly.dz(0) * r10.poly.dzbar(0)
    assert g.is_real()


@pytest.mark.parametrize("lane", ["complex", "real"])
def test_cached_builds_once_per_key(lane):
    """A cached value is kept by key presence, so a build that returns None
    (or any other falsy value) runs once per key, in both lanes."""
    from pshdef.exprparse import parse_rpoly, parse_wpoly
    from pshdef.realconvex import validate_real_normal_form

    if lane == "complex":
        r = validate_normal_form(parse_wpoly("Im(w) + abs2(z)"))
    else:
        r = validate_real_normal_form(parse_rpoly("y + x^2"))
    calls = []

    def build():
        calls.append(1)
        return None

    assert r.cached("none", build) is None
    assert r.cached("none", build) is None
    assert len(calls) == 1
    assert r.cached(("zero", 0), lambda: calls.append(2) or 0) == 0
    assert r.cached(("zero", 0), lambda: calls.append(2) or 0) == 0
    assert calls == [1, 2]
