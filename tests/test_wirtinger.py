"""Polynomial core: arithmetic, Wirtinger derivatives, string round-trips."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_dz, fd_dw, random_wpoly
from pshdef.exprparse import parse_wpoly
from pshdef.gaussrat import GaussianRational
from pshdef.numeval import compiled
from pshdef.wirtinger import (
    WPoly,
    abs2,
    canonical_str,
    im_w,
    im_z,
    re_w,
    re_z,
    realify,
)

Z = WPoly.var_z(1)
ZB = WPoly.var_zbar(1)
W = WPoly.var_w(1)
WB = WPoly.var_wbar(1)


def test_basic_arithmetic():
    p = (Z + ZB) * (Z + ZB)
    q = Z * Z + (Z * ZB).scale(GaussianRational(2, 0)) + ZB * ZB
    assert p == q
    assert (p - q).is_zero()
    assert (-p + p).is_zero()


def test_scale_and_power():
    p = Z.scale(Fraction(3, 2))
    assert p.eval(Fraction(2), Fraction(0)) == GaussianRational(3, 0)
    assert (Z**3) == Z * Z * Z
    assert (Z**0) == WPoly.one(1)


def test_degree_and_min_degree():
    p = Z * ZB + W * W * W
    assert p.degree() == 3
    assert p.min_degree() == 2
    assert WPoly.zero(1).is_zero()


def test_real_atoms_are_real():
    for p in (re_z(1), im_z(1), re_w(1), im_w(1)):
        assert p.is_real()
        assert p.conjugate() == p


def test_re_im_reconstruct_z():
    i_unit = GaussianRational(0, 1)
    assert re_z(1) + im_z(1).scale(i_unit) == Z
    assert re_w(1) + im_w(1).scale(i_unit) == W


def test_abs2_matches_conjugate_product():
    rng = random.Random(5)
    for _ in range(10):
        p = random_wpoly(rng)
        assert abs2(p) == p * p.conjugate()
        assert abs2(p).is_real()


def test_dz_dzbar_product_rule():
    rng = random.Random(7)
    for _ in range(10):
        p = random_wpoly(rng, max_deg=3)
        q = random_wpoly(rng, max_deg=3)
        assert (p * q).dz(0) == p.dz(0) * q + p * q.dz(0)
        assert (p * q).dwbar() == p.dwbar() * q + p * q.dwbar()


def test_conjugate_swaps_derivatives():
    rng = random.Random(11)
    for _ in range(10):
        p = random_wpoly(rng)
        assert p.dz(0).conjugate() == p.conjugate().dzbar(0)
        assert p.dw().conjugate() == p.conjugate().dwbar()


def test_formal_partials_of_monomial():
    p = Z * Z * WB
    assert p.dz(0) == (Z * WB).scale(2)
    assert p.dwbar() == Z * Z
    assert p.dzbar(0).is_zero()
    assert p.dw().is_zero()


def test_fd_agreement_dz():
    """Symbolic z-derivative matches central differences at random points."""
    rng = random.Random(42)
    for _ in range(20):
        p = random_wpoly(rng, max_deg=4)
        dz = p.dz(0)
        for _ in range(10):
            z = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
            w = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
            sym = complex(dz.eval(z, w))
            num = fd_dz(p, z, w)
            assert abs(sym - num) <= 1e-6 * (1 + abs(sym))


def test_fd_agreement_dw():
    rng = random.Random(43)
    for _ in range(10):
        p = random_wpoly(rng, max_deg=4)
        dw = p.dw()
        z = complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
        w = complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
        assert abs(complex(dw.eval(z, w)) - fd_dw(p, z, w)) <= 1e-6


@given(st.integers(0, 10_000))
@settings(deadline=None, max_examples=60)
def test_realify_is_real(seed):
    p = random_wpoly(random.Random(seed))
    r = realify(p)
    assert r.is_real()
    assert r == r.conjugate()
    z, w = 0.13 + 0.07j, -0.02 + 0.21j
    assert abs(complex(r.eval(z, w)).imag) < 1e-12


@given(st.integers(0, 10_000))
@settings(deadline=None, max_examples=60)
def test_antiderivative_inverts_dz(seed):
    p = random_wpoly(random.Random(seed))
    q = p.antideriv_z(0)
    assert q.dz(0) == p


def test_antideriv_z_of_monomials():
    assert (Z * Z * WB).antideriv_z(0) == (Z * Z * Z * WB).scale(Fraction(1, 3))
    assert ZB.antideriv_z(0) == Z * ZB
    assert WPoly.zero(1).antideriv_z(0).is_zero()


def test_truncate_by_degree():
    p = Z + Z * Z * Z + W * W * W * W * W
    assert p.truncate(3) == Z + Z * Z * Z
    assert p.truncate(0).is_zero()
    assert p.truncate(4) == Z + Z * Z * Z


def test_canonical_str_round_trip():
    rng = random.Random(17)
    for _ in range(25):
        p = random_wpoly(rng)
        s = canonical_str(p)
        assert parse_wpoly(s, nz=1) == p


def test_canonical_str_stable():
    p = W + Z * ZB + Z * ZB  # accumulate then print
    s1 = canonical_str(p)
    s2 = canonical_str(parse_wpoly(s1, nz=1))
    assert s1 == s2


def test_exact_eval_matches_compiled():
    rng = random.Random(23)
    for _ in range(10):
        p = random_wpoly(rng)
        zq = Fraction(rng.randint(-3, 3), 7)
        wq = Fraction(rng.randint(-3, 3), 5)
        exact = p.eval(zq, wq)
        assert isinstance(exact, GaussianRational)
        Zs = np.array([[complex(zq)]])
        Ws = np.array([complex(wq)])
        num = compiled(p).eval(Zs, Ws)[0]
        assert abs(exact.to_complex() - num) < 1e-12


def test_eval_dimension_mismatch():
    from pshdef.wirtinger import DimensionMismatch

    p2 = WPoly.var_z(2, 0)
    with pytest.raises(DimensionMismatch):
        p2.eval(1, 0)


def test_multivariable_derivatives():
    z1 = WPoly.var_z(2, 0)
    z2 = WPoly.var_z(2, 1)
    p = z1 * z1 * z2
    assert p.dz(0) == z1.scale(GaussianRational(2, 0)) * z2
    assert p.dz(1) == z1 * z1
    assert p.dzbar(0).is_zero()


@pytest.mark.parametrize("seed", range(4))
def test_real_factor_product_matches_promoted(seed):
    """An int or Fraction factor takes the two-product branch of
    `GaussianRational.__mul__`; the result equals the product with the
    factor promoted to a Gaussian rational, from either side."""
    rng = random.Random(seed)

    def frac():
        return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))

    for _ in range(200):
        c = GaussianRational(frac(), frac())
        k = rng.choice([rng.randint(-50, 50), frac()])
        promoted = c * GaussianRational(k, 0)
        for product in (c * k, k * c):
            assert product == promoted
            assert type(product.re) is Fraction and type(product.im) is Fraction
