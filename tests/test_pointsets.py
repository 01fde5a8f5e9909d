"""Whole point sets: the Z-fixed evaluator, grouped Newton, the multi-radius
sampler and the probe point sets.

Each path must give the floats of the per-piece computation it replaces,
byte for byte, so the reports built on them stay as they were.
"""

import gc
import random
import weakref

import numpy as np
import pytest

from conftest import random_rpoly, random_wpoly
from pshdef import dominance, numeval, verify
from pshdef.catalog import ball_like, type4_domain
from pshdef.construct import ConstructConfig, run_construction
from pshdef.cr import validate_normal_form
from pshdef.exprparse import parse_rpoly, parse_wpoly
from pshdef.numeval import compiled
from pshdef.sampler import BallStream
from pshdef.wirtinger import RPoly, WPoly

BALL3_TILTED = "Im(w) + abs2(z1) + abs2(z2) + abs2(z3) + 4*Re(z1)*Re(w) - 10*Re(w)^2"


def same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# -- the Z-fixed evaluator ---------------------------------------------------


def complex_points(rng, m, n, dtype):
    Z = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))).astype(dtype)
    Ws = [
        (rng.standard_normal(m) + 1j * rng.standard_normal(m)).astype(dtype)
        for _ in range(3)
    ]
    return Z, Ws


def real_points(rng, m, n, dtype):
    return rng.standard_normal((m, n)), [rng.standard_normal(m) for _ in range(3)]


FIXED_CASES = {
    "constant": (lambda: WPoly.const(2, 3), complex_points),
    "W-free": (
        lambda: parse_wpoly("abs2(z1)^2 + 3*Re(z2) - z1*z2^2", 2),
        complex_points,
    ),
    "zero": (lambda: WPoly.zero(2), complex_points),
    "with constant": (
        lambda: parse_wpoly("2 + Im(w) + abs2(z1)*Re(w)^2", 2),
        complex_points,
    ),
    "real lane": (lambda: parse_rpoly("1 + y + x1^2*y^3 - 5*x2", 2), real_points),
    "real zero": (lambda: RPoly.zero(2), real_points),
}


def check_fixed(p, Z, Ws):
    ev = compiled(p)
    fixed = ev.at(Z)
    # a second pass reads the same prefixes: no call may alter them
    for W in Ws + Ws:
        assert same(fixed(W), ev.eval(Z, W))


@pytest.mark.parametrize("name", list(FIXED_CASES))
def test_fixed_z_equals_eval(name):
    make, points = FIXED_CASES[name]
    for dtype in (np.complex128, np.clongdouble):  # the real lane reads floats
        Z, Ws = points(np.random.default_rng(5), 40, 2, dtype)
        check_fixed(make(), Z, Ws)


@pytest.mark.parametrize("dtype", [np.complex128, np.clongdouble])
def test_fixed_z_equals_eval_random(dtype):
    rng = random.Random(17)
    points = np.random.default_rng(7)
    for nz in (1, 2, 3):
        for _ in range(20):
            p = random_wpoly(rng, nz=nz, max_deg=5)
            check_fixed(p, *complex_points(points, 30, nz, dtype))
    for nx in (1, 2):
        for _ in range(20):
            p = random_rpoly(rng, nx=nx, max_deg=5)
            check_fixed(p, *real_points(points, 30, nx, None))


def test_fixed_z_stores_one_prefix_per_z_part():
    """One array per distinct (coefficient, Z exponents) pair; a term with
    no Z factor keeps its coefficient as a scalar."""
    r = validate_normal_form(parse_wpoly(BALL3_TILTED, 3))
    fixed = compiled(r.poly).at(np.ones((4, 3), dtype=complex))
    arrays = {id(p): p for p, _ in fixed.terms if np.ndim(p)}
    # |z1|^2, |z2|^2, |z3|^2 and z1, zbar1 (each shared by w and wbar)
    assert len(arrays) == 5
    assert len(fixed.terms) == len(r.poly.terms) == 12
    pure_w = [p for p, _ in fixed.terms if not np.ndim(p)]
    assert len(pure_w) == 5  # w, wbar, w^2, w wbar, wbar^2


# -- grouped Newton ------------------------------------------------------------


def test_grouped_newton_equals_solo_runs():
    """Groups stop on their own.  v^2 = c has no real root for c < 0, so
    that group runs into the 60-step cap while the others stop early."""
    rng = np.random.default_rng(3)
    groups = [
        (rng.uniform(1, 2, 7), rng.uniform(0.5, 3, 7)),  # root sqrt(c)
        (np.full(5, -1.0), rng.uniform(0.5, 3, 5)),  # no root: the cap
        (rng.uniform(1e-6, 1e-4, 9), rng.uniform(1e-3, 1e-2, 9)),
        (np.array([4.0]), np.array([2.0])),  # converged at the start
    ]
    c = np.concatenate([g[0] for g in groups])
    v0 = np.concatenate([g[1] for g in groups])
    starts = np.cumsum([0] + [len(g[0]) for g in groups])[:-1]
    calls = []

    def solve(c, v0, starts=None):
        def value(v):
            calls.append(len(v))
            return v * v - c

        return verify.newton(value, lambda v: 2 * v, v0, starts)

    v, ok = solve(c, v0, starts)
    assert len(calls) == 61  # the capped group ran all 60 steps
    for a, (cg, vg) in zip(starts, groups):
        calls.clear()
        v1, ok1 = solve(cg, vg)
        assert same(v[a : a + len(cg)], v1) and same(ok[a : a + len(cg)], ok1)
    assert not ok[starts[1] : starts[2]].any() and ok[: starts[1]].all()


@pytest.mark.parametrize(
    "dtype, radii",
    [
        (np.complex128, [0.5, 1e-2, 1e-3, 2.0**-13]),
        (np.clongdouble, [2.0**-14, 2.0**-15, 2.0**-16]),
    ],
)
def test_grouped_projection_equals_solo(dtype, radii):
    """project_to_boundary with groups, one per radius, gives each group
    the W and flags of its own call, in either precision."""
    r = type4_domain(8)
    rng = np.random.default_rng(11)
    parts = []
    for x in radii:
        z = x * (rng.standard_normal(50) + 1j * rng.standard_normal(50)) / 3
        parts.append((z[:, None], x * rng.standard_normal(50) / 3))
    Z = np.concatenate([p[0] for p in parts])
    U = np.concatenate([p[1] for p in parts])
    starts = np.arange(len(radii)) * 50
    W, ok = verify.project_to_boundary(r, Z, U, dtype, starts=starts)
    for a, (z, u) in zip(starts, parts):
        W1, ok1 = verify.project_to_boundary(r, z, u, dtype)
        assert same(W[a : a + 50], W1) and same(ok[a : a + 50], ok1)


# -- one sampler for many radii ----------------------------------------------


def test_sample_ball_radii_equal_solo_calls():
    """Each radius reads the stream as its own call would, with top-up
    rounds taken by some radii and not by others."""

    def lift(coords, starts=None):
        # fails points by their first coordinate, pushes some out of the ball
        keep = coords[:, 0] > -0.2 * np.abs(coords).max(axis=1)
        return (1.1 * coords, np.zeros(len(coords))), keep

    radii = [1e-6, 0.5, 1e-3, 0.1]
    for count in (30, 200):
        got = verify.sample_ball(BallStream(3, 5), radii, count, lift)
        for x, pts in zip(radii, got):
            [want] = verify.sample_ball(BallStream(3, 5), [x], count, lift)
            assert all(same(a, b) for a, b in zip(pts, want))


def test_boundary_points_equal_solo_calls():
    """Both precisions, one sample_ball each, against one call per radius."""
    radii = [2.0**-e for e in (3, 9, 13, 14, 16)]
    got = verify.boundary_points(ball_like(2), radii, 120, seed=4)
    for x, (Z, W) in zip(radii, got):
        [(Z1, W1)] = verify.boundary_points(ball_like(2), [x], 120, seed=4)
        assert same(Z, Z1) and same(W, W1)


# -- the probe point sets ---------------------------------------------------


def test_probe_shells_are_one_array():
    """The probe shells form one read-only point set, each shell the points
    of a fresh domain's sample_boundary; the curves form their own."""
    r = ball_like(2)
    shells = dominance.project_probes(r, 1)
    assert len(dominance.DYADIC_EXPS) == len(shells.cuts) - 1
    assert shells.cuts[0] == 0 and shells.cuts[-1] == len(shells.W)
    for k, e in enumerate(dominance.DYADIC_EXPS):
        a, b = shells.cuts[k], shells.cuts[k + 1]
        assert b - a == 160
        # the probe shell holds the points of a fresh domain's sample_boundary
        fresh = verify.sample_boundary(ball_like(2), 2.0**-e, 160, 1)
        assert same(fresh.Z, shells.Z[a:b]) and same(fresh.W, shells.W[a:b])
    # sample_boundary is the one route into r's shell cache
    assert not [key for key in r._cache if key[0] == "shell"]
    assert not (shells.Z.flags.writeable or shells.W.flags.writeable)
    curves = dominance.probe_curves(r, 1)
    assert curves.curves == dominance.default_probes(2, 1)
    assert len(curves.W) == curves.ok.size == len(curves.curves) * len(dominance.DYADIC_EXPS)
    assert not (curves.Z.flags.writeable or curves.W.flags.writeable)


def test_in_ball_points_match_fresh_norms(monkeypatch):
    """The curve-point norms are computed once per projected family, and
    each radius selects the points a fresh norm computation selects."""
    calls = []
    norms = dominance.point_norms
    monkeypatch.setattr(
        dominance, "point_norms", lambda *a: calls.append(1) or norms(*a)
    )
    for r in (type4_domain(8), validate_normal_form(parse_wpoly(BALL3_TILTED, 3))):
        proj = dominance.probe_curves(r, 2)
        Z, W = proj.Z, proj.W
        fresh = np.sqrt(np.sum(np.abs(Z) ** 2, axis=1) + np.abs(W) ** 2)
        for radius in (1e-2, 2.5e-3, 2.0**-10, 1e-5, 0.3):
            keep = proj.ok.reshape(-1) & (fresh <= radius)
            pz, pw = proj.in_ball_points(radius)
            assert same(pz, Z[keep]) and same(pw, W[keep])
    assert len(calls) == 2


def test_probe_projection_and_bounds_structure(monkeypatch):
    """On a fresh domain the probe shells take at most two projections (one
    per precision) and the curves one more, made when they are first read;
    a construction evaluates each bound polynomial once over each set."""
    projections = []
    project = verify.project_to_boundary

    def counted(*args, **kwargs):
        projections.append(len(args[2]))
        return project(*args, **kwargs)

    # dominance binds the name at import, as verify's own callers read it
    for module in (verify, dominance):
        monkeypatch.setattr(module, "project_to_boundary", counted)
    r = type4_domain(8)
    shells = dominance.project_probes(r, 2)
    assert 1 <= len(projections) <= 2
    assert sum(projections) >= shells.cuts[-1]
    curves = dominance.probe_curves(r, 2)
    assert len(projections) <= 3
    assert projections[-1] == len(curves.W)  # the curves, in one solve

    on_set = {}
    evaluate = numeval.CompiledPoly.eval

    def recorded(self, Z, W):
        for points in (shells, curves):
            if np.shares_memory(W, points.W):
                key = id(self), id(points)
                on_set[key] = on_set.get(key, 0) + 1
        return evaluate(self, Z, W)

    monkeypatch.setattr(numeval.CompiledPoly, "eval", recorded)
    report = run_construction(r, ConstructConfig(seed=2))
    assert report.status == "Certified"
    bounds = {
        id(points): [f for kind, f in points._cache if kind == "values"]
        for points in (shells, curves)
    }
    assert len(bounds[id(shells)]) >= 2 and bounds[id(curves)]
    for points in (shells, curves):
        for B in bounds[id(points)]:
            assert on_set[id(compiled(B)), id(points)] == 1


def test_blocks_leave_the_floats(monkeypatch):
    """An evaluation in blocks of points equals one in a single block."""
    rng = random.Random(23)
    points = np.random.default_rng(9)
    polys = [random_wpoly(rng, nz=2, max_deg=5) for _ in range(10)]
    # 21 points: five blocks of 4 and one of a single point
    sets = [complex_points(points, 21, 2, dt) for dt in (np.complex128, np.clongdouble)]
    whole = [
        (compiled(p).eval(Z, Ws[0]), compiled(p).at(Z)(Ws[0]))
        for p in polys
        for Z, Ws in sets
    ]
    monkeypatch.setattr(numeval, "EVAL_BLOCK", 4)
    blocked = [
        (compiled(p).eval(Z, Ws[0]), compiled(p).at(Z)(Ws[0]))
        for p in polys
        for Z, Ws in sets
    ]
    for (a, b), (c, d) in zip(whole, blocked):
        assert same(a, c) and same(b, d) and same(a, b)


# -- no reference cycles ---------------------------------------------------

TYPE4_A8 = "Im(w) + abs2(z)^2 + 100*abs2(z)^3 + 4*Re(z)*Re(w) - 8*Re(w)^2"
NZ2_QUARTIC = "Im(w) + abs2(z1)^2 + abs2(z2)^2 + 4*Re(z1)*Re(w) - 10*Re(w)^2"


def test_requests_free_their_domain_without_the_collector():
    """Nothing cached on a domain refers back to it, so dropping the last
    reference frees the domain and its point sets at once, with the cyclic
    collector off.  A cycle (say, a probe set holding its domain) would
    keep every finished request's arrays alive until a collection runs,
    and peak memory would grow with the request rate."""
    gc.disable()
    try:
        for text in (TYPE4_A8, NZ2_QUARTIC):
            r = validate_normal_form(parse_wpoly(text))
            run_construction(r)
            assert [key for key in r._cache if key[0] == "probe_curves"]
            ref = weakref.ref(r)
            del r
            assert ref() is None
        r = validate_normal_form(parse_wpoly(NZ2_QUARTIC))
        T = parse_wpoly("-4*Im(z1)", 2)
        h = WPoly.one(2) + T + r.poly.scale(64)
        shell = verify.sample_boundary(r, 1e-2, 2000, 0)
        verify.psd_check(h * r.poly, shell)
        verify.identity_check_prop31(r, 64, T, shell)
        verify.necessary_conditions_check(r, h, shell, 64)
        assert [key for key in r._cache if key[0] == "probe_curves"]
        ref = weakref.ref(r)
        del r, shell
        assert ref() is None
    finally:
        gc.enable()
