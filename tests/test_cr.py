"""Defining functions, Levi forms, Hessian machinery."""

import random
from fractions import Fraction

import pytest

from conftest import random_normal_form
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
from pshdef.gaussrat import GaussianRational
from pshdef.wirtinger import WPoly, abs2, im_w, re_w, re_z


def tangent_vector(r, j=0):
    """v_j: r_w in slot j, -r_{z_j} in the w slot, zero elsewhere."""
    v = [WPoly.zero(r.nz) for _ in range(r.nz + 1)]
    v[j] = r.d_w()
    v[r.nz] = -r.d_z(j)
    return v


def hessian_form(f, v):
    """Complex Hessian of f applied to v: sum of f_{jk} v_j conj(v_k)."""
    H = hessian_entries(f)
    acc = WPoly.zero(f.nz)
    for j, vj in enumerate(v):
        for k, vk in enumerate(v):
            acc = acc + H[j][k] * vj * vk.conjugate()
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


def test_hessian_entries_symmetry(r10):
    H = hessian_entries(r10.poly)
    n = r10.nz + 1
    for j in range(n):
        for k in range(n):
            assert H[j][k] == H[k][j].conjugate()


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
