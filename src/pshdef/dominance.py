"""Dominance testing: is |P|^2 controlled by the Levi form near the origin?

The question "does |P|^2 <= C * B hold on the boundary near 0" is decided
three ways, in order:

1. Exact certificates.  P identically zero; B positive at the origin; P
   nonvanishing where B vanishes; or a rational Sylvester test proving the
   boundary-reduced quadratic part of B positive definite while every
   numerator vanishes at 0.
2. Curve escape.  A family of probe curves through 0 is projected onto the
   boundary; a ratio that keeps growing along shrinking dyadic parameters
   refutes dominance and yields a witness direction.
3. Shell stability.  If the per-shell sup ratio has stopped increasing, the
   bound is accepted with C = twice the observed sup.

Anything else is reported as Unknown with the collected data; callers
treat Unknown conservatively.

The probe points are fixed by the domain and a seed alone.  They meet a
domain as two `verify.PointSet`s, each cached on the domain under its
own key: the boundary shells at the radii 2^-e, e in DYADIC_EXPS, with
SHELL_POINTS points each (`project_probes(r, seed)`), and the curves of
`default_probes(nz, seed)` at the same parameters t (`probe_curves(r,
seed)`).  The curve set holds each distinct point once: the amplitudes
and parameters are powers of two, so about a quarter of the stock (curve,
t) grid repeats an earlier cell's (z, Re w) exactly, and an index lays the
curves out over the distinct points (`_distinct_rows`, built once per
nz).  No curve and no parameter is dropped.  Each set keeps the values of
the bound polynomials read on it, so every check reads one evaluation of
each bound per set.  The curves are Newton-solved only when a check reads
them, so a verdict the shells decide (B positive at the origin, or the
Sylvester certificate, whose constant is read off the shell ratios)
projects none.  Neither set refers back to its domain, so a finished
request's domain is freed without waiting for the cyclic collector.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .cr import DefiningFunction
from .gaussrat import I
from .numeval import compiled
from .verify import (
    PointSet,
    boundary_points,
    point_norms,
    point_report,
    project_to_boundary,
)
from .wirtinger import SparsePoly, WPoly, canonical_str, indexed_names, term_text

DYADIC_EXPS = tuple(range(3, 17))  # t = 2^-3 .. 2^-16
RADII = tuple(2.0**-e for e in DYADIC_EXPS)  # the shell radii and curve parameters
SHELL_POINTS = 160  # points per probe shell
SEEDED_CURVES = 32  # the random probe curves of a seed, after the stock ones
ESCAPE_RUN = 5
ESCAPE_GROWTH = 8.0
ESCAPE_FLOOR = 100.0
STABLE_FACTOR = 1.10
STABLE = "shell sup ratios stable"  # the reason of the heuristic Dominated path
NUM_FLOOR = 1e-30


class Bound(Enum):
    """Right-hand side used in |P|^2 <= C * B."""

    LEVI_ONLY = "levi"
    LEVI_PLUS_GRAD = "levi+grad"


class Curve(NamedTuple):
    """Probe curve z_k(t) = zdir_k t^zpow, Re w(t) = wamp t^wpow."""

    zdir: tuple
    zpow: int
    wamp: float
    wpow: int

    def describe(self) -> str:
        zs = ", ".join(
            f"{c.real:g}{c.imag:+g}i" if c.imag else f"{c.real:g}" for c in self.zdir
        )
        return f"z=({zs})*t^{self.zpow}, Re w={self.wamp:g}*t^{self.wpow}"


@functools.cache
def _stock_curves(nz: int) -> tuple:
    """The seed-free probe curves, built once per nz."""
    curves = []
    scales = (0.25, 0.5, 1.0, 2.0, 4.0)

    def unit(k, amp):
        return tuple(amp if i == k else 0j for i in range(nz))

    for k in range(nz):
        for s in scales:
            for t16 in range(16):
                amp = s * cmath.exp(2j * math.pi * t16 / 16)
                for zp in (1, 2):
                    curves.append(Curve(unit(k, amp), zp, 0.0, 1))
    for eta in (1.0, -1.0):
        for wp in (1, 2):
            curves.append(Curve((0j,) * nz, 1, eta, wp))
    for k in range(nz):
        for s in scales:
            for t8 in range(8):
                amp = s * cmath.exp(2j * math.pi * t8 / 8)
                for zp in (1, 2, 3):
                    for wp in (1, 2, 3):
                        for eta in (1.0, -1.0):
                            curves.append(Curve(unit(k, amp), zp, eta, wp))
    return tuple(curves)


def default_probes(nz: int, seed: int = 0) -> tuple:
    """The probe curves of (nz, seed); only the last SEEDED_CURVES, random,
    depend on seed."""
    curves = list(_stock_curves(nz))
    rng = np.random.default_rng(seed)
    for _ in range(SEEDED_CURVES):
        zdir = tuple(
            complex(a, b)
            for a, b in zip(rng.standard_normal(nz), rng.standard_normal(nz))
        )
        curves.append(Curve(zdir, 1, float(rng.standard_normal()), 1))
    return tuple(curves)


class ProbeShells(PointSet):
    """The probe shells on the boundary of a specific domain, in RADII
    order: shell k holds points cuts[k] to cuts[k + 1]."""

    cuts = SHELL_POINTS * np.arange(len(RADII) + 1)  # cuts[0] = 0, cuts[-1] = n_points


@dataclass
class ProbeCurves(PointSet):
    """Probe curves projected onto the boundary of a specific domain.  Z, W
    and ok hold each distinct curve point once, in the order of its first
    (curve, t) cell; curve i's point at t_values[k] is row index[i, k]."""

    curves: tuple  # of Curve
    ok: np.ndarray  # bool, per row
    index: np.ndarray  # int (n_curves, n_t)
    t_values: np.ndarray

    @functools.cached_property
    def _norms(self) -> np.ndarray:
        """|(z, w)| per point; computed once per set."""
        return point_norms(self.Z, self.W)

    def in_ball_points(self, radius: float):
        """Converged points with |(z, w)| <= radius."""
        keep = self.ok & (self._norms <= radius)
        return self.Z[keep], self.W[keep]


def _curve_points(curves, t, out):
    """Fill out (n_curves, n_t, nz) with each curve's z at the parameters
    t, and return its Re w, flattened in the same order."""
    zdir, zpow, wamp, wpow = (np.array(a) for a in zip(*curves))
    tz = t ** zpow[:, None]  # (n_curves, n_t)
    np.multiply(zdir.astype(complex)[:, None, :], tz[:, :, None], out=out)
    return (wamp[:, None] * t ** wpow[:, None]).reshape(-1)


@functools.cache
def _distinct_rows(nz: int):
    """The (curve, t) grid of `default_probes(nz, seed)`, any seed, as
    distinct points: the cells (flat, ascending) where each point first
    occurs, and the (n_curves, n_t) map from a cell to its point's row
    among them.  Stock points are one when their (z, Re w) inputs are
    equal bit for bit; the seeded curves' points are all kept.  Built once
    per nz; holds integers only."""
    stock, nt = _stock_curves(nz), len(RADII)
    Z = np.empty((len(stock), nt, nz), dtype=complex)
    U = _curve_points(stock, np.array(RADII), Z)
    bits = np.concatenate(
        [Z.reshape(len(U), nz).view(np.int64), U.view(np.int64)[:, None]], axis=1
    )
    order = np.lexsort(bits.T)  # stable: equal points stay in grid order
    key = bits[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = np.any(key[1:] != key[:-1], axis=1)
    first = order[new]  # per point, its first cell
    rows = np.sort(first)
    index = np.empty(len(order), dtype=np.intp)
    index[order] = np.searchsorted(rows, first)[np.cumsum(new) - 1]
    seeded = np.arange(SEEDED_CURVES * nt)
    rows = np.concatenate([rows, len(order) + seeded])
    index = np.concatenate([index, len(first) + seeded]).reshape(-1, nt)
    for arr in (rows, index):
        arr.flags.writeable = False
    return rows, index


def project_probes(r: DefiningFunction, seed: int = 0) -> ProbeShells:
    """Sample the probe shells of this seed on r's boundary into one point
    set (cached on r).  The shells are sampled together
    (`verify.boundary_points`): each holds the points
    `verify.sample_boundary` gives for its (radius, SHELL_POINTS, seed).
    The curves are projected apart, when read (`probe_curves`)."""

    def build():
        shells = boundary_points(r, RADII, SHELL_POINTS, seed)
        Z, W = (np.concatenate(a) for a in zip(*shells))
        for arr in (Z, W):
            arr.flags.writeable = False
        return ProbeShells(Z=Z, W=W)

    return r.cached(("probes", seed), build)


def probe_curves(r: DefiningFunction, seed: int = 0) -> ProbeCurves:
    """Project every curve of `default_probes(r.nz, seed)` onto r's
    boundary (cached on r under its own key, so the shells alone never pay
    for it).  Each distinct curve point is projected once (see
    `_distinct_rows`), and all of them form one Newton group."""

    def build():
        curves = default_probes(r.nz, seed)
        rows, index = _distinct_rows(r.nz)
        t = np.array(RADII)
        Z = np.empty((len(curves), len(t), r.nz), dtype=complex)
        U = _curve_points(curves, t, Z)[rows]
        Z = Z.reshape(-1, r.nz)[rows]
        W, ok = project_to_boundary(r, Z, U)
        for arr in (Z, W, ok):
            arr.flags.writeable = False
        return ProbeCurves(curves=curves, Z=Z, W=W, ok=ok, index=index, t_values=t)

    return r.cached(("probe_curves", seed), build)


@dataclass
class DominanceVerdict:
    status: str  # "Dominated" | "NotDominated" | "Unknown"
    constant: float | None
    reason: str
    witness: dict | None
    shell_ratios: list
    numerators: list
    bound: str

    def as_dict(self) -> dict:
        return dict(vars(self))


# -- exact real form and the quadratic certificate ------------------------


def real_form(p: WPoly) -> dict:
    """Real-polynomial form of a real WPoly.

    Returns {exponents: Fraction} over (x_1..x_nz, y_1..y_nz, u, v) with
    z_k = x_k + i y_k, w = u + i v.  Raises if p is not real-valued.
    """
    if not p.is_real():
        raise ValueError("real_form needs a real-valued polynomial")
    nz = p.nz
    n = 2 * nz + 2
    x = [SparsePoly.var(n, i) for i in range(n)]
    # what each WPoly slot (z_k, zbar_k, w, wbar) becomes in x, y, u, v
    subs = [x[k] + x[nz + k].scale(s) for s in (I, -I) for k in range(nz)]
    subs += [x[2 * nz] + x[2 * nz + 1].scale(s) for s in (I, -I)]
    powers = {}
    acc = SparsePoly.zero(n)
    for e, c in p.terms.items():
        t = SparsePoly.const(n, c)
        for i, k in enumerate(e):
            if k:
                if (i, k) not in powers:
                    powers[i, k] = subs[i] ** k
                t = t * powers[i, k]
        acc = acc + t
    out = {}
    for e, c in acc.terms.items():
        if c.im != 0:
            raise AssertionError("imaginary residue in real_form expansion")
        out[e] = c.re
    return out


def real_basis_str(p: WPoly) -> str:
    """Text form of a real WPoly over Re/Im factors, e.g. `-4*Im(z)`.

    Parses back to the same polynomial; raises on non-real input.
    """
    names = indexed_names("Re(z{})", p.nz) + indexed_names("Im(z{})", p.nz)
    return term_text(real_form(p), names + ["Re(w)", "Im(w)"], "*", "*")


def _det_fraction(M) -> Fraction:
    n = len(M)
    M = [row[:] for row in M]
    det = Fraction(1)
    for i in range(n):
        piv = next((k for k in range(i, n) if M[k][i] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != i:
            M[i], M[piv] = M[piv], M[i]
            det = -det
        det *= M[i][i]
        for k in range(i + 1, n):
            f = M[k][i] / M[i][i]
            for j in range(i, n):
                M[k][j] -= f * M[i][j]
    return det


def _sylvester_pd(M) -> bool:
    """Positive definiteness of an exact rational symmetric matrix."""
    for d in range(1, len(M) + 1):
        if _det_fraction([row[:d] for row in M[:d]]) <= 0:
            return False
    return True


def boundary_quadratic(B: WPoly, r: DefiningFunction):
    """Order-2 part of B restricted to the boundary, as a rational matrix.

    Works in the tangential variables (x_1..x_nz, y_1..y_nz, u); the
    normal variable v = Im w is eliminated via v = -F + O(3), so a linear
    v term of B feeds -coeff * F_2 into the quadratic form.  Returns None
    when B has a tangential linear part (no order-2 certificate exists).
    `real_form` keeps degrees, so only the parts of degree <= 2 of B and F
    are expanded.
    """
    nz = B.nz
    d = 2 * nz + 1
    rf = real_form(B.truncate(2))
    c_v = Fraction(0)
    quad: dict = {}
    for e, c in rf.items():
        deg = sum(e)
        if deg == 1:
            if e[d] == 1:
                c_v = c
            else:
                return None
        elif deg == 2 and e[d] == 0:
            quad[e[:d]] = quad.get(e[:d], Fraction(0)) + c
    if c_v != 0:
        f2 = real_form(r.higher_order_part().truncate(2))
        for e, c in f2.items():
            if sum(e) == 2 and e[d] == 0:
                quad[e[:d]] = quad.get(e[:d], Fraction(0)) - c_v * c
    M = [[Fraction(0)] * d for _ in range(d)]
    for e, c in quad.items():
        idx = [i for i in range(d) for _ in range(e[i])]
        a, b = idx[0], idx[1]
        if a == b:
            M[a][a] += c
        else:
            M[a][b] += c / 2
            M[b][a] += c / 2
    return M


# -- ratio scans ----------------------------------------------------------


def _num_sq(numerators, Z, W):
    acc = None
    for p in numerators:
        v = np.abs(compiled(p).eval(Z, W)) ** 2
        acc = v if acc is None else acc + v
    return acc


def _ratios(num_sq, bvals):
    den = np.where(bvals > 0, bvals, 0.0)
    zero_den = den == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num_sq / den
    out[zero_den & (num_sq < NUM_FLOOR)] = 0.0
    out[zero_den & (num_sq >= NUM_FLOOR)] = np.inf
    return out


def _direction(z_row, w) -> list:
    vec = []
    for c in z_row:
        vec.extend([c.real, c.imag])
    vec.append(w.real)
    n = math.sqrt(sum(x * x for x in vec))
    return [x / n for x in vec] if n > 0 else vec


def _probe_values(numerators, B: WPoly, points: PointSet):
    """|P|^2 summed over the numerators, and Re B, at a probe set's points:
    one evaluation of each numerator, and B read from the set."""
    return _num_sq(numerators, points.Z, points.W), points.values(B).real


def _curve_escape(num, bvals, probe: ProbeCurves):
    """Best escaping curve, or None.  num and bvals are `_probe_values` at
    the curve points, read through the set's index.

    Escape means: along the last ESCAPE_RUN converged dyadic parameters the
    ratio is finite, strictly increasing, grows by >= ESCAPE_GROWTH overall,
    and ends above ESCAPE_FLOOR.  The curve with the largest final ratio
    wins; the first one on ties.
    """
    index = probe.index
    ok = probe.ok[index]
    ratio = _ratios(num, bvals)[index]
    # t decreases along a row, so a row's tail is its last ESCAPE_RUN
    # converged entries: those with at most ESCAPE_RUN converged from the end
    from_end = np.cumsum(ok[:, ::-1], axis=1)[:, ::-1]
    rows = np.flatnonzero(from_end[:, 0] >= ESCAPE_RUN)
    in_tail = ok[rows] & (from_end[rows] <= ESCAPE_RUN)
    tail = ratio[rows][in_tail].reshape(len(rows), ESCAPE_RUN)
    with np.errstate(invalid="ignore"):
        escapes = (
            np.all(np.isfinite(tail), axis=1)
            & np.all(np.diff(tail, axis=1) > 0, axis=1)
            & (tail[:, -1] >= ESCAPE_FLOOR)
            & (tail[:, -1] >= ESCAPE_GROWTH * tail[:, 0])
        )
    if not escapes.any():
        return None
    final = np.where(escapes, tail[:, -1], -np.inf)
    k = int(np.argmax(final))  # first index of the maximum
    i = int(rows[k])
    row_ok = ok[i]
    last = int(index[i, np.flatnonzero(row_ok)[-1]])
    return {
        "curve": probe.curves[i].describe(),
        "direction": _direction(probe.Z[last], probe.W[last]),
        "point": point_report(probe.Z, probe.W, last),
        "t": [float(x) for x in probe.t_values[row_ok]],
        "ratios": [float(x) for x in ratio[i, row_ok]],
        "final_ratio": float(final[k]),
    }


def _shell_ratios(numerators, B: WPoly, shells: ProbeShells) -> list:
    """Per shell, the sup of the finite ratios |P|^2 / Re B (0.0 when none
    is finite)."""
    ratio = _ratios(*_probe_values(numerators, B, shells))
    ratio[~np.isfinite(ratio)] = -np.inf
    sups = np.maximum.reduceat(ratio, shells.cuts[:-1])
    return [float(x) if x > -np.inf else 0.0 for x in sups]


def _quadratic_pd(B: WPoly, r: DefiningFunction) -> bool:
    """Sylvester verdict on the boundary quadratic part of B (cached on r)."""

    def build():
        M = boundary_quadratic(B, r)
        return M is not None and _sylvester_pd(M)

    return r.cached(("quadratic_pd", B), build)


# -- main entry points ----------------------------------------------------


def bound_poly_for(r: DefiningFunction, bound: Bound, j: int = 0) -> WPoly:
    """The bound polynomial B for `bound` along v_j (built once per r)."""
    if bound is Bound.LEVI_ONLY:
        return r.levi(j)
    return r.cached(("bound", bound, j), lambda: r.levi(j) + r.grad_z_sq())


def dominance_check(
    numerators,
    bound: Bound,
    r: DefiningFunction,
    seed: int = 0,
    j: int = 0,
    bound_poly: WPoly | None = None,
) -> DominanceVerdict:
    """Decide |P|^2 <= C * B near 0 on the boundary of {r < 0}.

    `numerators` is one WPoly or a list (summed as squares on the left).
    The bound defaults to the tangential Levi form, optionally plus
    |grad_z r|^2; pass bound_poly to override.  The probe points are
    those of `seed`.  Past a zero numerator, each Dominated path (B
    positive at 0, the Sylvester certificate, stable shell ratios) gives
    C = twice the largest shell sup ratio.
    """
    if isinstance(numerators, WPoly):
        numerators = [numerators]
    numerators = [p for p in numerators if not p.is_zero()]
    B = bound_poly if bound_poly is not None else bound_poly_for(r, bound, j)

    def verdict(status, constant, reason, witness=None, sups=()):
        return DominanceVerdict(
            status=status,
            constant=constant,
            reason=reason,
            witness=witness,
            shell_ratios=list(sups),
            numerators=[canonical_str(p) for p in numerators],
            bound=bound.value,
        )

    if not numerators:
        return verdict("Dominated", 0.0, "numerator is identically zero")

    b0 = B.constant_term()
    vanishing = all(p.constant_term().is_zero() for p in numerators)
    if b0.re > 0 and b0.im == 0:
        reason = "bound positive at the origin"
    elif not vanishing or b0.re < 0:
        reason = (
            "bound negative at the origin"
            if vanishing
            else "numerator nonvanishing where the bound vanishes"
        )
        origin = point_report(np.zeros((1, r.nz), complex), np.zeros(1, complex), 0)
        return verdict("NotDominated", None, reason, {"point": origin})
    elif b0.is_zero() and _quadratic_pd(B, r):  # every numerator vanishes at 0 here
        reason = "bound has positive definite boundary quadratic part"
    else:
        curves = probe_curves(r, seed)
        escape = _curve_escape(*_probe_values(numerators, B, curves), curves)
        if escape is not None:
            reason = "ratio escapes along a probe curve"
            return verdict("NotDominated", None, reason, escape)
        reason = STABLE

    sups = _shell_ratios(numerators, B, project_probes(r, seed))
    a, b, c = sups[-3:]
    if reason == STABLE and not (b <= STABLE_FACTOR * a and c <= STABLE_FACTOR * b):
        reason = "no certificate, no escaping curve, shell ratios not stable"
        return verdict("Unknown", None, reason, sups=sups)
    return verdict("Dominated", 2.0 * max(sups), reason, sups=sups)


@dataclass
class TermClassification:
    monomial: str
    verdict: DominanceVerdict

    def as_dict(self) -> dict:
        return {"monomial": self.monomial, "verdict": self.verdict.as_dict()}


@dataclass
class SplitResult:
    """g = S + E with E dominated and S needing cancellation."""

    S: WPoly
    E: WPoly
    terms: list
    has_unknown: bool

    def as_dict(self) -> dict:
        return {
            "S": canonical_str(self.S),
            "E": canonical_str(self.E),
            "terms": [t.as_dict() for t in self.terms],
            "has_unknown": self.has_unknown,
        }


def split_S_E(
    g: WPoly,
    r: DefiningFunction,
    bound: Bound,
    seed: int = 0,
    j: int = 0,
) -> SplitResult:
    """Classify each monomial of g; dominated terms go to E, the rest to S.

    Unknown verdicts are treated as not dominated (kept in S) and flagged.
    """
    S = WPoly.zero(g.nz)
    E = WPoly.zero(g.nz)
    terms = []
    has_unknown = False
    for m, c in g.sorted_terms():
        mono = WPoly(g.nz, {m: c})
        v = dominance_check(mono, bound, r, seed, j=j)
        terms.append(TermClassification(canonical_str(mono), v))
        if v.status == "Dominated":
            E = E + mono
        else:
            S = S + mono
            if v.status == "Unknown":
                has_unknown = True
    return SplitResult(S=S, E=E, terms=terms, has_unknown=has_unknown)


def levi_dominance_gate(r: DefiningFunction, seed: int = 0) -> DominanceVerdict:
    """Check |grad_z r|^2 <= C * (sum of tangential Levi forms) near 0.

    Failure produces the witness direction along which the gradient
    escapes every Levi multiple.
    """
    nums = [r.d_z(j) for j in range(r.nz)]
    B = r.levi(0)
    for j in range(1, r.nz):
        B = B + r.levi(j)
    return dominance_check(nums, Bound.LEVI_ONLY, r, seed, bound_poly=B)
