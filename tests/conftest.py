"""Shared fixtures and deterministic polynomial generators."""

import random
from fractions import Fraction

import numpy as np
import pytest

from pshdef import construct, realconvex
from pshdef.catalog import ball_like, half_space, mixed_c3_example, type4_domain
from pshdef.construct import k_ladder, run_construction
from pshdef.dominance import (
    ESCAPE_FLOOR,
    ESCAPE_GROWTH,
    ESCAPE_RUN,
    _direction,
    _num_sq,
    _ratios,
)
from pshdef.numeval import compiled
from pshdef.verify import sample_boundary
from pshdef.wirtinger import WPoly, im_w, im_z, re_w, re_z


@pytest.fixture(scope="session")
def r10():
    return type4_domain(10)


@pytest.fixture(scope="session")
def r8():
    return type4_domain(8)


@pytest.fixture(scope="session")
def r7():
    return type4_domain(7)


@pytest.fixture(scope="session")
def ball():
    return ball_like(1)


@pytest.fixture(scope="session")
def halfspace():
    return half_space(1)


@pytest.fixture(scope="session")
def c3_mixed():
    return mixed_c3_example()


@pytest.fixture(scope="session")
def r10_report(r10):
    return run_construction(r10)


@pytest.fixture(scope="session")
def r8_report(r8):
    return run_construction(r8)


@pytest.fixture(scope="session")
def small_shell(r10):
    return sample_boundary(r10, 1e-2, 300, seed=0)


# -- the K ladder -------------------------------------------------------


def linear_k_ladder(base, step, factor, max_k_exp, stats):
    """Reference K ladder: walk K = 1, 2, 4, ..., 2^max_k_exp until the
    Hessian base + K step passes.  `construct.k_ladder` starts from the rung
    the rank-one step's factor predicts and must agree with this walk on
    K, pass/fail and rows; the walk needs no prediction and ignores
    factor."""
    ladder = []
    for e in range(max_k_exp + 1):
        K = 2**e
        st = stats(base + K * step)
        ladder.append(
            {
                "K": K,
                "min_diag": st.min_diag,
                "min_minor": st.min_minor,
                "min_eig": st.min_eig,
                "passed": st.passed,
            }
        )
        if st.passed:
            break
    return ladder, K, st


@pytest.fixture
def watch_k_ladder(monkeypatch):
    """watch_k_ladder(check) makes every K ladder either lane searches
    call check(base, step, factor, max_k_exp, stats) first, and returns the
    list of check results.  The check runs inside the search because
    `stats` reads the scan points of its radius only until k_search moves
    on."""

    def watch(check):
        results = []

        def checked(*args):
            results.append(check(*args))
            return k_ladder(*args)

        monkeypatch.setattr(construct, "k_ladder", checked)
        monkeypatch.setattr(realconvex, "k_ladder", checked)
        return results

    return watch


# -- the curve-escape scan ---------------------------------------------


def loop_curve_escape(numerators, bound_poly, probes):
    """Reference curve scan: one curve at a time, keeping the first curve
    with the largest final ratio.  `dominance._curve_escape` tests all
    curves at once and must return the same witness.  Returns
    (curve index, witness), or (None, None) when no curve escapes."""
    nc, nt, nz = probes.curve_Z.shape
    Z = probes.curve_Z.reshape(-1, nz)
    W = probes.curve_W.reshape(-1)
    num = _num_sq(numerators, Z, W).reshape(nc, nt)
    bv = compiled(bound_poly).eval(Z, W).real.reshape(nc, nt)
    best = None
    for i in range(nc):
        ok = probes.curve_ok[i]
        t = probes.t_values[ok]
        if len(t) < ESCAPE_RUN:
            continue
        ratio = _ratios(num[i][ok], bv[i][ok])
        tail = ratio[-ESCAPE_RUN:]  # t decreases along the array
        if not np.all(np.isfinite(tail)):
            continue
        if np.any(np.diff(tail) <= 0):
            continue
        if tail[-1] < ESCAPE_FLOOR or tail[-1] < ESCAPE_GROWTH * tail[0]:
            continue
        if best is None or tail[-1] > best[1]:
            best = (i, float(tail[-1]), ratio, t)
    if best is None:
        return None, None
    i, final, ratio, t = best
    last = int(np.flatnonzero(probes.curve_ok[i])[-1])
    z_row = probes.curve_Z[i, last]
    w = probes.curve_W[i, last]
    return i, {
        "curve": probes.family.curves[i].describe(),
        "direction": _direction(z_row, w),
        "point": {
            "z": [[c.real, c.imag] for c in z_row],
            "w": [w.real, w.imag],
        },
        "t": [float(x) for x in t],
        "ratios": [float(x) for x in ratio],
        "final_ratio": final,
    }


# -- deterministic random polynomials -------------------------------------


def random_real_monomial(rng: random.Random, nz: int, max_deg: int) -> WPoly:
    """A product of Re/Im atoms with total degree in [2, max_deg]."""
    atoms = []
    for j in range(nz):
        atoms.append(re_z(nz, j))
        atoms.append(im_z(nz, j))
    atoms.append(re_w(nz))
    deg = rng.randint(2, max_deg)
    p = WPoly.one(nz)
    for _ in range(deg):
        p = p * rng.choice(atoms)
    c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return p.scale(c if c else Fraction(1))


def random_normal_form(rng: random.Random, nz: int = 1, max_deg: int = 6) -> WPoly:
    """A valid defining polynomial Im w + F, F real of degree 2..max_deg."""
    F = WPoly.zero(nz)
    for _ in range(rng.randint(1, 4)):
        F = F + random_real_monomial(rng, nz, max_deg)
    return im_w(nz) + F


def random_real_T(rng: random.Random, nz: int = 1, max_deg: int = 3) -> WPoly:
    """A real multiplier part T vanishing at 0, degree 1..max_deg."""
    atoms = []
    for j in range(nz):
        atoms.append(re_z(nz, j))
        atoms.append(im_z(nz, j))
    atoms.append(re_w(nz))
    atoms.append(im_w(nz))
    T = WPoly.zero(nz)
    for _ in range(rng.randint(1, 3)):
        deg = rng.randint(1, max_deg)
        p = WPoly.one(nz)
        for _ in range(deg):
            p = p * rng.choice(atoms)
        T = T + p.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
    return T


def random_wpoly(rng: random.Random, nz: int = 1, max_deg: int = 4) -> WPoly:
    """A random complex polynomial in z, zbar, w, wbar."""
    from pshdef.gaussrat import GaussianRational

    p = WPoly.zero(nz)
    vars_ = []
    for j in range(nz):
        vars_.append(WPoly.var_z(nz, j))
        vars_.append(WPoly.var_zbar(nz, j))
    vars_.append(WPoly.var_w(nz))
    vars_.append(WPoly.var_wbar(nz))
    for _ in range(rng.randint(1, 5)):
        m = WPoly.one(nz)
        for _ in range(rng.randint(0, max_deg)):
            m = m * rng.choice(vars_)
        c = GaussianRational(
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
        )
        p = p + m.scale(c)
    return p


def random_rpoly(rng: random.Random, nx: int = 1, max_deg: int = 4):
    """A random real polynomial in x_1..x_nx, y."""
    RPoly = realconvex.RPoly
    vars_ = [RPoly.var_x(nx, j) for j in range(nx)] + [RPoly.var_y(nx)]
    p = RPoly.zero(nx)
    for _ in range(rng.randint(1, 5)):
        m = RPoly.const(nx, Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        for _ in range(rng.randint(0, max_deg)):
            m = m * rng.choice(vars_)
        p = p + m
    return p


def fd_dz(p: WPoly, z, w: complex, j: int = 0, step: float = 1e-5):
    """Central-difference Wirtinger z_j derivative: (d/dx - i d/dy)/2."""
    zs = [z] if p.nz == 1 and not isinstance(z, (tuple, list)) else list(z)

    def at(dz):
        pt = list(zs)
        pt[j] = pt[j] + dz
        return complex(p.eval(pt[0] if p.nz == 1 else tuple(pt), complex(w)))

    dx = (at(step) - at(-step)) / (2 * step)
    dy = (at(1j * step) - at(-1j * step)) / (2 * step)
    return 0.5 * (dx - 1j * dy)


def fd_dw(p: WPoly, z, w: complex, step: float = 1e-5):
    """Central-difference Wirtinger w derivative."""

    def at(dw):
        return complex(p.eval(z, complex(w) + dw))

    dx = (at(step) - at(-step)) / (2 * step)
    dy = (at(1j * step) - at(-1j * step)) / (2 * step)
    return 0.5 * (dx - 1j * dy)
