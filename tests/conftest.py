"""Shared fixtures and deterministic polynomial generators."""

import math
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
from pshdef.gaussrat import format_gaussian
from pshdef.numeval import compiled
from pshdef.verify import last_slot_minors, ldl, point_norms, sample_boundary
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


def entry_planar(A):
    """A copy of a stack (m, n, n), or of points (m, n), that holds each
    entry's values over the points contiguously, as `hessian_stack` does."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(A, 0, -1)), -1, 0)


def rank_one_term(g):
    """2 g g* per point: on the boundary, the Hessian of r^2."""
    return 2.0 * (g[:, :, None] * np.conj(g)[:, None, :])


def linear_k_ladder(base, g, max_k_exp, stats):
    """Reference K ladder: walk K = 1, 2, 4, ..., 2^max_k_exp until the
    Hessian base + 2K g g* passes.  `construct.k_ladder` reads its rung off
    rung 0 and must agree with this walk on pass/fail, and on K and the
    result when it passes."""
    step = rank_one_term(g)
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


def reference_lift_exp(H1, g, tol):
    """Reference lift: the least e whose rung passes, read off rung 0 with
    dense (m, n) arrays: phi over the bad points' rows of y and d, and
    every minor and slope from the stack's diagonal and last column at
    once.  `construct.lift_exp` reads columns and must return the same
    float."""
    d, y = ldl(H1, -tol, g)
    negative = np.sum(d < 0, axis=1)
    if not np.isfinite(d).all() or np.any(negative > 1):
        return math.inf
    bad = negative == 1
    phi = np.sum((y[bad] * np.conj(y[bad])).real / d[bad], axis=1)
    gj, gn = g[:, :-1], g[:, -1:]
    diag = np.diagonal(H1, axis1=1, axis2=2).real
    col = H1[:, :-1, -1]
    m0 = last_slot_minors(H1)
    cross = (np.conj(col) * gj * np.conj(gn)).real
    slope = diag[:, :-1] * np.abs(gn) ** 2 + diag[:, -1:] * np.abs(gj) ** 2 - 2 * cross
    fails = m0 < -tol
    with np.errstate(divide="ignore", invalid="ignore"):
        need = np.concatenate([(-tol - m0[fails]) / (2 * slope[fails]), -0.5 / phi])
    if not len(need) or not np.all((need > 0) & np.isfinite(need)):
        return math.inf
    return math.log2(1.0 + float(need.max()))


@pytest.fixture
def watch_k_ladder(monkeypatch):
    """watch_k_ladder(check) makes every K ladder either lane searches
    (both through `construct.k_search`) call check(base, g, max_k_exp,
    stats) first, and returns the list of check results.  The check runs
    inside the search because `stats` reads the scan points of its radius
    only until k_search moves on."""

    def watch(check):
        results = []

        def checked(*args):
            results.append(check(*args))
            return k_ladder(*args)

        monkeypatch.setattr(construct, "k_ladder", checked)
        return results

    return watch


# -- the boundary sampler ----------------------------------------------


def reference_sample_ball(d, radius, count, seed, lift):
    """Reference ball fill: a fresh scipy Halton sampler per call, normal
    quantiles from scipy.  `verify.sample_ball` reads one numpy stream per
    (d, seed) and domain, and must return the same bytes for every shell."""
    from scipy.stats import norm, qmc

    sampler = qmc.Halton(d=d + 1, scramble=True, seed=seed)
    kept = []
    have = 0
    for _ in range(8):
        raw = sampler.random(max(64, int((count - have) * 1.25)))
        dirs = norm.ppf(raw[:, :d])
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radial = 0.93 * radius * raw[:, d] ** (1.0 / d)
        parts, ok = lift(dirs * radial[:, None])
        keep = ok & (point_norms(*parts) <= radius)
        kept.append([a[keep] for a in parts])
        have += int(np.sum(keep))
        if have >= count:
            break
    assert have >= count
    return [np.concatenate(arrays)[:count] for arrays in zip(*kept)]


# -- the curve-escape scan ---------------------------------------------


def loop_curve_escape(numerators, bound_poly, probes):
    """Reference curve scan: one curve at a time, keeping the first curve
    with the largest final ratio.  `dominance._curve_escape` tests all
    curves at once and must return the same witness.  Returns
    (curve index, witness), or (None, None) when no curve escapes."""
    nc, nt = probes.ok.shape
    Z, W = probes.Z, probes.W
    num = _num_sq(numerators, Z, W).reshape(nc, nt)
    bv = compiled(bound_poly).eval(Z, W).real.reshape(nc, nt)
    best = None
    for i in range(nc):
        ok = probes.ok[i]
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
    # the points by (curve, parameter), as the rows of ok lay them out
    last = int(np.flatnonzero(probes.ok[i])[-1])
    z_row = Z.reshape(nc, nt, -1)[i, last]
    w = W.reshape(nc, nt)[i, last]
    return i, {
        "curve": probes.curves[i].describe(),
        "direction": _direction(z_row, w),
        "point": {
            "z": [[c.real, c.imag] for c in z_row],
            "w": [w.real, w.imag],
        },
        "t": [float(x) for x in t],
        "ratios": [float(x) for x in ratio],
        "final_ratio": final,
    }


# -- Gaussian rationals ---------------------------------------------------


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class PairGaussian:
    """Reference Gaussian rational: a + b*i as a pair of Fractions, each
    operation done in Fraction arithmetic.  `gaussrat.GaussianRational`
    holds (a + b i) / d as three ints and must give the same values, text
    and floats."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def of(x) -> "PairGaussian":
        if isinstance(x, PairGaussian):
            return x
        if isinstance(x, (int, Fraction)):
            return PairGaussian(x, 0)
        if isinstance(x, complex):
            raise TypeError("floats are not exact; build from Fraction instead")
        raise TypeError(f"cannot coerce {x!r} to GaussianRational")

    def __add__(self, other):
        o = PairGaussian.of(other)
        return PairGaussian(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = PairGaussian.of(other)
        return PairGaussian(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return PairGaussian.of(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):  # two products, not four
            return PairGaussian(self.re * other, self.im * other)
        o = PairGaussian.of(other)
        return PairGaussian(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = PairGaussian.of(other)
        den = o.re * o.re + o.im * o.im
        if den == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return PairGaussian(
            (self.re * o.re + self.im * o.im) / den,
            (self.im * o.re - self.re * o.im) / den,
        )

    def __rtruediv__(self, other):
        return PairGaussian.of(other) / self

    def __neg__(self):
        return PairGaussian(-self.re, -self.im)

    def conjugate(self) -> "PairGaussian":
        return PairGaussian(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        try:
            o = PairGaussian.of(other)
        except TypeError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_gaussian(self)


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
