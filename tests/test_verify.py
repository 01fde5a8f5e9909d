"""Numeric verification: shells, PSD scans, the determinant identity."""

import collections
import dataclasses
import json
import math
import random
import sys
import warnings

import numpy as np
import pytest
from fractions import Fraction

from conftest import entry_planar, linear_k_ladder, rank_one_term
from pshdef import dominance, numeval, verify
from pshdef.catalog import ball_like, half_space, mixed_c3_example, type4_domain
from pshdef.cli import main
from pshdef.construct import k_ladder, k_search, lift_exp, run_construction
from pshdef.cr import hessian_entries, hessian_minor_det, validate_normal_form
from pshdef.exprparse import parse_wpoly
from pshdef.gaussrat import GaussianRational
from pshdef.numeval import compiled
from pshdef.report import hessian_csv
from pshdef.verify import (
    H_MIN,
    Shell,
    IdentityCheckResult,
    check_certificate,
    identity_check_prop31,
    hessian_values,
    diagonals,
    eigen_candidates,
    h_floor_failure,
    last_slot_minors,
    ldl,
    least_eigenvalues,
    levi_scan,
    necessary_conditions_check,
    point_norms,
    project_to_boundary,
    psd_check,
    psd_result,
    sample_boundary,
    sample_collar,
)
from pshdef.wirtinger import WPoly, abs2, im_z, re_z

TYPE4 = "Im(w) + abs2(z)^2 + 100*abs2(z)^3 + 4*Re(z)*Re(w) - {A}*Re(w)^2"
# (r, 1 + T, K) of certificates the construction finds
CERTIFICATES = {
    "A=8": (TYPE4.format(A=8), "1 - 4*Im(z) + 8*Im(z)^2 - 8*Re(z)^2", 16),
    "A=10": (TYPE4.format(A=10), "1 - 4*Im(z)", 64),
    "nz2_quartic": (
        "Im(w) + abs2(z1)^2 + abs2(z2)^2 + 4*Re(z1)*Re(w) - 10*Re(w)^2",
        "1 - 4*Im(z1)",
        64,
    ),
    "ball3_tilted": (
        "Im(w) + abs2(z1) + abs2(z2) + abs2(z3) + 4*Re(z1)*Re(w) - 10*Re(w)^2",
        "1",
        16,
    ),
}


def certificate(name):
    """(r, T, K, h) of a CERTIFICATES entry."""
    r_text, p1_text, K = CERTIFICATES[name]
    r = validate_normal_form(parse_wpoly(r_text))
    p1 = parse_wpoly(p1_text, r.nz)
    return r, p1 - WPoly.one(r.nz), K, p1 + r.poly.scale(Fraction(K))


def one_point_shell(nz=1):
    return Shell(
        radius=0.0,
        seed=0,
        Z=np.zeros((1, nz), dtype=complex),
        W=np.zeros(1, dtype=complex),
        residuals=np.zeros(1),
    )


def test_shell_invariants(r10, small_shell):
    s = small_shell
    assert s.count == 300
    assert float(np.max(s.residuals)) <= 1e-12
    assert float(np.max(point_norms(s.Z, s.W))) <= 1e-2
    again = sample_boundary(r10, 1e-2, 300, seed=0)
    assert np.array_equal(s.Z, again.Z)
    assert np.array_equal(s.W, again.W)


def test_shell_seed_changes_points(r10, small_shell):
    other = sample_boundary(r10, 1e-2, 300, seed=1)
    assert not np.array_equal(small_shell.Z, other.Z)


def test_projection_ball_point(ball):
    Z = np.array([[0.1 + 0.0j]])
    W, ok = project_to_boundary(ball, Z, np.array([0.0]))
    assert ok[0]
    assert abs(W[0].real) <= 1e-15
    assert abs(W[0].imag - (-0.01)) <= 1e-12


def test_projection_halfspace_point(halfspace):
    Z = np.array([[0.1 + 0.0j]])
    W, ok = project_to_boundary(halfspace, Z, np.array([0.004]))
    assert ok[0]
    assert W[0] == 0.004 + 0j


def test_projection_r8_point(r8):
    Z = np.array([[0.04 + 0.0j]])
    W, ok = project_to_boundary(r8, Z, np.array([0.01]))
    assert ok[0]
    val = complex(r8.poly.eval(complex(Z[0, 0]), complex(W[0])))
    assert abs(val.real) <= 1e-12


def test_psd_identity_hessian(ball):
    f = abs2(WPoly.var_z(1)) + abs2(WPoly.var_w(1))
    shell = sample_boundary(ball, 1e-2, 200, seed=0)
    res = psd_check(f, shell)
    assert res.passed
    assert res.min_eig == 1.0
    assert res.min_diag == 1.0
    assert res.min_minor == 1.0
    assert res.count == 200


def test_psd_partial_multiplier_fails(r8, r8_report, watch_k_ladder):
    """No ladder K certifies the stage-1 candidate (1 - 4 Im z + K r) r."""
    stage1 = r8_report.stages[0]
    walks = watch_k_ladder(lambda *args: linear_k_ladder(*args)[0])
    k_search(r8, stage1.T_after, None, curves=True)
    assert len(walks) == 2  # the configured and the shrunk radius
    for ladder in walks:
        assert len(ladder) == 21
        assert all(not step["passed"] for step in ladder)
    # rung 0 puts every passing K above the top rung: the search stops there
    assert [(row["K"], row["passed"]) for row in stage1.k_search.ladder] == [(1, False)]
    # the violation lives on the boundary curve Re z = 4 Re w, Im z = 0;
    # a shell of points marching down that line defeats every K
    t = np.array([2.0**-k for k in range(5, 21)])
    Z = (4 * t).reshape(-1, 1).astype(complex)
    W, ok = project_to_boundary(r8, Z, t)
    assert ok.all()
    shell = Shell(
        radius=float(np.max(np.abs(W))) + 0.13,
        seed=0,
        Z=Z,
        W=W,
        residuals=np.zeros(len(t)),
    )
    for e in range(21):
        h = WPoly.one(1) + im_z(1).scale(Fraction(-4)) + r8.poly.scale(Fraction(2**e))
        assert not psd_check(h * r8.poly, shell).passed


def test_psd_full_multiplier_passes(r8, r8_report):
    final = r8_report.final
    h = WPoly.one(1) + final.T + r8.poly.scale(Fraction(final.K))
    shell = sample_boundary(r8, r8_report.verification["radius"], 2000, seed=0)
    res = psd_check(h * r8.poly, shell, 1e-9)
    assert res.passed


def test_identity_ball_origin(ball):
    res = identity_check_prop31(ball, 5, WPoly.zero(1), one_point_shell())
    assert res.max_lhs == 2.5
    assert res.max_deviation == 0.0
    assert res.passed


def test_identity_k_zero_exact(r10, small_shell):
    T = im_z(1).scale(Fraction(-4))
    res = identity_check_prop31(r10, 0, T, small_shell)
    assert res.max_deviation == 0.0
    assert res.passed


def test_identity_r10_k3(r10):
    shell = sample_boundary(r10, 1e-2, 100, seed=0)
    res = identity_check_prop31(r10, 3, im_z(1).scale(Fraction(-4)), shell)
    assert res.passed
    assert res.tolerance == 1e-8 * (1 + res.max_lhs)


def test_identity_deviation_tracks_residual(r10):
    """Off-boundary error enters the identity linearly, to leading order."""
    shell = sample_boundary(r10, 1e-2, 100, seed=0)
    T = im_z(1).scale(Fraction(-4))

    def dev(eps):
        off = Shell(
            radius=shell.radius,
            seed=shell.seed,
            Z=shell.Z,
            W=shell.W + 1j * eps,
            residuals=shell.residuals,
        )
        return identity_check_prop31(r10, 3, T, off).max_deviation

    d1 = dev(1e-7)
    d2 = dev(2e-7)
    assert d1 > 0
    assert 1.5 <= d2 / d1 <= 2.5


@pytest.mark.parametrize("name", CERTIFICATES)
def test_stack_minors_match_exact_minor(name):
    """The z_j/w minors read from the numeric Hessian stack agree with the
    exact minor polynomial evaluated on the same shell."""
    r, _, _, h = certificate(name)
    rho = h * r.poly
    shell = sample_boundary(r, 1e-2, 500, seed=0)
    minors = last_slot_minors(hessian_values(rho, shell.Z, shell.W))
    assert minors.shape == (500, r.nz)
    for j in range(r.nz):
        exact = compiled(hessian_minor_det(rho, j)).eval(shell.Z, shell.W).real
        bound = 1e-12 * (1 + np.max(np.abs(exact)))
        assert np.max(np.abs(minors[:, j] - exact)) <= bound


def test_identity_fails_off_the_boundary(r10):
    """Inward collar points break the identity by far more than its
    tolerance: the check measures the boundary, not its own arithmetic."""
    T = im_z(1).scale(Fraction(-4))
    on = identity_check_prop31(r10, 64, T, sample_boundary(r10, 1e-2, 500, seed=0))
    collar = sample_collar(r10, 1e-2, 500, seed=0, delta=1e-3)
    off = identity_check_prop31(r10, 64, T, collar)
    assert on.passed
    assert not off.passed
    assert off.max_deviation > 1e3 * off.tolerance


# (domain, T, K): the identity holds for every T and K
PROP31_EXACT = {
    "A=10": (lambda: type4_domain(10), "-4*Im(z)", 64),
    "A=8": (lambda: type4_domain(8), "-4*Im(z) + 8*Im(z)^2 - 8*Re(z)^2", 16),
    "mixed_c3": (mixed_c3_example, "-4*Im(z1)", 64),
    "ball3": (lambda: ball_like(3), "0", 16),
}


def exact_boundary_points(r, count: int = 3) -> list:
    """count Gaussian-rational points (z, w) with r(z, w) = 0 exactly."""
    rng = random.Random(31)

    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    points = []
    for _ in range(count):
        z = [GaussianRational(rational(), rational()) for _ in range(r.nz)]
        u = rational()
        # no catalog F has an Im w term, so r(z, u + iv) = v + r(z, u)
        w = GaussianRational(u, -r.poly.eval(z, u).re)
        assert r.poly.eval(z, w).is_zero()
        points.append((z, w))
    return points


@pytest.mark.parametrize("name", list(PROP31_EXACT))
def test_identity_prop31_exact(name):
    """Prop 3.1's determinant identity holds exactly at Gaussian-rational
    boundary points.  With h = 1 + T + K r and M_jk(H) = H_ww H_jk -
    H_jw H_wk, on r = 0: M_jk(Hess(h r)) = M_jk(Hess((1 + T) r)) + 2K h
    L_jk, L_jk = r.levi(j, k), for every j and k."""
    build, T_text, K = PROP31_EXACT[name]
    r = build()
    nz = r.nz
    p = WPoly.one(nz) + parse_wpoly(T_text, nz)
    h = p + r.poly.scale(K)
    tables = [hessian_entries(r.times(f)) for f in (h, p)]
    lifts = []
    for z, w in exact_boundary_points(r):
        hv = h.eval(z, w)
        for j in range(nz):
            for k in range(nz):
                M = [
                    H[nz][nz].eval(z, w) * H[j][k].eval(z, w)
                    - H[j][nz].eval(z, w) * H[nz][k].eval(z, w)
                    for H in tables
                ]
                lift = hv * r.levi(j, k).eval(z, w) * (2 * K)
                assert (M[0] - M[1] - lift).is_zero()
                lifts.append(lift)
    assert any(not x.is_zero() for x in lifts)


# PROP31_EXACT's certificates and h = 1 + r on A=8, which fails the PSD scan
SLACK_EXACT = {**PROP31_EXACT, "A=8 T=0 K=1": (lambda: type4_domain(8), "0", 1)}


@pytest.mark.parametrize("name", list(SLACK_EXACT))
def test_necessary_inequalities_follow_from_psd(name):
    """The paper's four pointwise inequalities for h r plurisubharmonic
    hold wherever the Hessian of h r is PSD, exactly at Gaussian-rational
    boundary points.  Per j, with a, b, c the entries (z_j, z_j), (z_j, w),
    (w, w) of Hess(h r), p = r_{z_j}, q = r_w and Q(s, t) = s^2 a |q|^2 +
    t^2 c |p|^2 - 2 s t Re(q b conj(p)), the block's form at (s q, -t p):
    on r = 0, h L_j = Q(1, 1), and the slacks times |q|^2 are
        upper_zz        Q(1, 2)
        lower_zz_mixed  Q(2, 1) / 2
        lower_zz_levi   Q(1, -1) / 2
        offdiag_sq      (a c - |b|^2) |q|^2 + c Q(1, 2),
    non-negative when the block is.  The slacks are the paper's
    inequalities, in h L_j and the entries."""
    build, T_text, K = SLACK_EXACT[name]
    r = build()
    nz = r.nz
    h = WPoly.one(nz) + parse_wpoly(T_text, nz) + r.poly.scale(K)
    H = hessian_entries(r.times(h))
    for z, w in exact_boundary_points(r):
        for j in range(nz):
            a, b, c = (H[s][t].eval(z, w) for s, t in ((j, j), (j, nz), (nz, nz)))
            p, q = r.d_z(j).eval(z, w), r.d_w().eval(z, w)
            p2, q2, b2 = (x * x.conjugate() for x in (p, q, b))
            assert not q2.is_zero()

            def Q(s, t):
                cross = q * b * p.conjugate()
                return a * q2 * s**2 + c * p2 * t**2 - (cross + cross.conjugate()) * (s * t)

            hL = h.eval(z, w) * r.levi(j).eval(z, w)
            slacks = {
                "upper_zz": 2 * hL / q2 + 2 * c * p2 / q2 - a,
                "lower_zz_mixed": a - c * p2 / (2 * q2) + hL / q2,
                "lower_zz_levi": a - hL / (2 * q2) + c * p2 / q2,
                "offdiag_sq": 2 * c * hL / q2 + 2 * c * c * p2 / q2 - b2,
            }
            assert hL == Q(1, 1)
            assert slacks["upper_zz"] * q2 == Q(1, 2)
            assert slacks["lower_zz_mixed"] * q2 == Q(2, 1) / 2
            assert slacks["lower_zz_levi"] * q2 == Q(1, -1) / 2
            assert slacks["offdiag_sq"] * q2 == (a * c - b2) * q2 + c * Q(1, 2)


def uncached(shell):
    """The shell's points in a shell that has evaluated nothing."""
    return dataclasses.replace(shell)


@pytest.mark.parametrize("name", CERTIFICATES)
def test_check_certificate_matches_standalone_checks(name):
    """One shared Hessian stack gives the reports each check gives alone."""
    r, T, K, h = certificate(name)
    shell = sample_boundary(r, 1e-2, 500, seed=0)
    checks, _, rho = check_certificate(r, T, K, shell)
    assert rho == h * r.poly
    assert list(checks) == ["psd", "necessary"]
    assert checks["psd"] == psd_check(rho, uncached(shell)).as_dict()
    alone = necessary_conditions_check(r, h, uncached(shell), K)
    assert checks["necessary"] == alone.as_dict()


@pytest.mark.parametrize("name", CERTIFICATES)
def test_checks_of_one_shell_share_its_stacks(name, monkeypatch):
    """psd_check, the identity and the necessary conditions on one shell
    evaluate the Hessian of h r once, and each reports what it reports on
    a shell that has evaluated nothing, float for float."""
    r, T, K, h = certificate(name)
    rho = h * r.poly
    shell = sample_boundary(r, 1e-2, 500, seed=0)
    alone = [
        psd_check(rho, uncached(shell)),
        identity_check_prop31(r, K, T, uncached(shell)),
        necessary_conditions_check(r, h, uncached(shell), K),
    ]
    built = []
    entries = verify.hessian_entries
    monkeypatch.setattr(verify, "hessian_entries", lambda f: built.append(f) or entries(f))
    shared = [
        psd_check(rho, shell),
        identity_check_prop31(r, K, T, shell),
        necessary_conditions_check(r, h, shell, K),
    ]
    assert built == [rho, (WPoly.one(r.nz) + T) * r.poly]
    for a, b in zip(shared, alone):
        assert json.dumps(a.as_dict()) == json.dumps(b.as_dict())
    H = shell.hessian(h * r.poly)  # an equal polynomial reads the same stack
    assert H is shell.hessian(rho) and not H.flags.writeable
    assert len(built) == 2


# polynomials one certificate check evaluates over its shell: the distinct
# Hessian entries of h r, h, 1 + T, r_wbar and the log-derivative numerators
CHECK_EVALUATIONS = {"A=10": 7, "ball3_tilted": 14}


@pytest.mark.parametrize("name", list(CHECK_EVALUATIONS))
def test_certificate_check_evaluates_each_polynomial_once(name, monkeypatch):
    """One certificate check on a fresh shell evaluates no polynomial
    twice over it, and forms one exact product with r, h r: the checks
    read h, 1 + T, r_wbar, the log-derivative numerators and the Hessian
    stack of h r from the shell, each stack entry once."""
    r, T, K, _ = certificate(name)
    shell = sample_boundary(r, 1e-2, 2000, 0)
    evaluated = collections.Counter()
    evaluate = numeval.CompiledPoly.eval

    def counted(self, Z, W):
        if np.shares_memory(W, shell.W):  # keyed by the polynomial's terms
            evaluated[self.coeffs.tobytes(), repr(self.factors)] += 1
        return evaluate(self, Z, W)

    products = []
    multiply = WPoly.__mul__

    def counted_mul(f, g):
        if g is r.poly:
            products.append(f)
        return multiply(f, g)

    monkeypatch.setattr(numeval.CompiledPoly, "eval", counted)
    monkeypatch.setattr(WPoly, "__mul__", counted_mul)
    _, failed, _ = check_certificate(r, T, K, shell)
    assert not failed
    assert max(evaluated.values()) == 1
    assert sum(evaluated.values()) == CHECK_EVALUATIONS[name]
    assert len(products) == 1


def test_coefficient_outside_double_range_is_no_verdict(monkeypatch):
    """A coefficient no double holds is an input error even where the
    necessary check meets it first: only the h floor's error becomes a
    failed check."""
    r, T, _, _ = certificate("A=10")
    shell = sample_boundary(r, 1e-2, 2000, 0)
    monkeypatch.setattr(verify, "psd_check", lambda *args: None)
    with pytest.raises(ValueError, match="outside the double range") as info:
        check_certificate(r, T, 10**400, shell)
    assert not isinstance(info.value, verify.HFloorError)


@pytest.mark.parametrize("name", ["A=10", "ball3_tilted"])
def test_shell_decided_verification_projects_no_curve(name, monkeypatch):
    """A certificate whose log-derivative verdict the probe shells decide
    (a positive definite boundary quadratic part, or a bound positive at
    the origin) is checked on a fresh domain without projecting any probe
    curve."""

    def refuse(*args):
        raise AssertionError("probe curves projected")

    monkeypatch.setattr(dominance, "probe_curves", refuse)
    r, T, K, _ = certificate(name)
    checks, failed, _ = check_certificate(r, T, K, sample_boundary(r, 1e-2, 2000, 0))
    assert not failed
    assert checks["necessary"]["log_deriv_verdict"]["reason"] in (
        "bound has positive definite boundary quadratic part",
        "bound positive at the origin",
    )
    assert [key for key in r._cache if key[0] == "probes"]
    assert not [key for key in r._cache if key[0] == "probe_curves"]


def test_curve_scan_verdict_is_independent_of_read_order():
    """On nz2_quartic the log-derivative verdict reads the probe curves (no
    escape) and then the shells (stable ratios).  A domain whose curves
    were projected first gives the same verdict, the one pinned here."""
    verdicts = []
    for curves_first in (False, True):
        r, T, K, h = certificate("nz2_quartic")
        if curves_first:
            dominance.probe_curves(r, 0)
        shell = sample_boundary(r, 1e-2, 2000, 0)
        nec = necessary_conditions_check(r, h, shell, K)
        verdicts.append(json.dumps(nec.log_deriv_verdict.as_dict()))
    assert verdicts[0] == verdicts[1]
    verdict = json.loads(verdicts[0])
    assert verdict["reason"] == "shell sup ratios stable"
    assert verdict["constant"] == 36.282410081580004
    assert verdict["shell_ratios"][0] == 18.141205040790002
    assert verdict["shell_ratios"][-1] == 17.989179301287432


def test_verdicts_expand_no_exact_minor(monkeypatch, capsys):
    """A construction and `pshdef verify` expand no exact Hessian minor, and
    `boundary_quadratic` hands `real_form` nothing above degree 2."""

    def refuse(*args, **kwargs):
        raise AssertionError("exact Hessian minor expanded")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "pshdef" and hasattr(module, "hessian_minor_det"):
            monkeypatch.setattr(module, "hessian_minor_det", refuse)
    real_form, boundary_quadratic = dominance.real_form, dominance.boundary_quadratic
    inside, degrees = [], []

    def quadratic(B, r):
        inside.append(B)
        try:
            return boundary_quadratic(B, r)
        finally:
            inside.pop()

    def form(p):
        if inside:
            degrees.append(p.degree())
        return real_form(p)

    monkeypatch.setattr(dominance, "boundary_quadratic", quadratic)
    monkeypatch.setattr(dominance, "real_form", form)
    assert run_construction(type4_domain(8)).status == "Certified"
    r_text, p1_text, K = CERTIFICATES["A=10"]
    assert main(["verify", "--r", r_text, "--h", p1_text, "--K", str(K)]) == 0
    assert "pass" in capsys.readouterr().out
    assert degrees and max(degrees) <= 2


def test_necessary_certified_r10(r10, r10_report):
    final = r10_report.final
    h = WPoly.one(1) + final.T + r10.poly.scale(Fraction(final.K))
    shell = sample_boundary(r10, 1e-2, 500, seed=0)
    res = necessary_conditions_check(r10, h, shell, K=r10_report.final.K)
    assert res.all_hold
    assert res.log_deriv_verdict.status == "Dominated"


def test_necessary_trivial_h_fails(r8):
    shell = sample_boundary(r8, 1e-2, 500, seed=0)
    res = necessary_conditions_check(r8, WPoly.one(1), shell)
    assert not res.all_hold
    assert res.log_deriv_verdict.status == "NotDominated"


def test_necessary_halfspace_equalities(halfspace):
    shell = sample_boundary(halfspace, 1e-2, 200, seed=0)
    res = necessary_conditions_check(halfspace, WPoly.one(1), shell)
    assert res.all_hold
    assert res.log_deriv_max == 0.0
    assert res.log_deriv_verdict.reason == "numerator is identically zero"


def test_necessary_rejects_vanishing_h(r10):
    shell = sample_boundary(r10, 1e-2, 500, seed=0)
    h = WPoly.one(1) + re_z(1).scale(Fraction(-150))
    with pytest.raises(ValueError, match="vanishes"):
        necessary_conditions_check(r10, h, shell)


@pytest.mark.parametrize(
    "least_h, fails", [(0.5, False), (7.0, False), (0.4999, True), (0.0, True), (math.nan, True)]
)
def test_h_floor_failure_edges(least_h, fails):
    """At the floor passes, below it or NaN fails with the witness."""
    got = h_floor_failure(least_h)
    if fails:
        assert got.keys() == {"min_abs_h", "h_floor"} and got["h_floor"] == H_MIN
        assert got["min_abs_h"] is least_h
    else:
        assert got is None


def test_levi_scan_clean(r10):
    scan = levi_scan(r10, 1e-2, 2000, seed=0)
    assert scan.nonnegative
    assert scan.negative_count == 0
    assert scan.count == 2000


def test_levi_scan_finds_negative(r7):
    scan = levi_scan(r7, 1e-2, 10_000, seed=0)
    assert scan.min_value < -1e-9
    assert not scan.nonnegative
    assert scan.negative_count > 0
    assert scan.worst_point["w"] is not None


def test_collar_points_inside(r10):
    collar = sample_collar(r10, 1e-2, 200, seed=0, delta=1e-4)
    vals = np.array(
        [complex(r10.poly.eval(complex(z[0]), complex(w))).real
         for z, w in zip(collar.Z, collar.W)]
    )
    assert np.all(vals < 0)
    assert np.all(vals > -1e-4)
    assert float(np.max(point_norms(collar.Z, collar.W))) <= 1e-2


def test_least_eigenvalues_closed_form(r10, small_shell):
    H = hessian_values(r10.poly, small_shell.Z, small_shell.W)
    fast = least_eigenvalues(H)
    ref = np.linalg.eigvalsh(H)[:, 0]
    assert np.max(np.abs(fast - ref)) <= 1e-12


def test_closed_form_keeps_its_floats_in_ordinary_range():
    """On 2x2 stacks whose squares are finite, the least eigenvalue and the
    minor are the plain closed forms, float for float: the determinant over
    the largest eigenvalue where the trace is positive, else the trace's
    half less the root."""
    rng = np.random.default_rng(11)
    for real, scale in ((False, 1.0), (True, 1.0), (False, 1e-100), (False, 1e100)):
        H = _hermitian(rng, 3000, 2, real) * scale
        a, b, c = H[:, 0, 0].real, H[:, 0, 1], H[:, 1, 1].real
        half = 0.5 * (a + c)
        root = np.hypot(0.5 * (a - c), np.abs(b))
        det = a * c - np.abs(b) ** 2
        want = np.where(half > 0, det / (half + root), half - root)
        assert (half > 0).any() and (half <= 0).any()
        assert np.array_equal(least_eigenvalues(H), want)
        assert np.array_equal(last_slot_minors(H)[:, 0], a * c - np.abs(b) ** 2)


@pytest.mark.parametrize("scale", [1e160, 1e250, 1e300])
def test_least_2x2_across_the_double_range(scale):
    """Where the closed form's squares overflow, the least eigenvalue stays
    finite and agrees with the solver's, with no warning."""
    rng = np.random.default_rng(3)
    H = _spectrum(rng, rng.uniform(-2.0, 2.0, size=(500, 2))) * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = least_eigenvalues(H)
    assert np.isfinite(fast).all()
    assert np.max(np.abs(fast - np.linalg.eigvalsh(H)[:, 0])) <= 1e-12 * scale


@pytest.mark.parametrize(
    "M, least",
    [([[1.0, 0.0], [0.0, 1e160]], 1.0), ([[2e160, 1e160j], [-1e160j, 2e160]], 1e160)],
    ids=["diagonal", "off_diagonal"],
)
def test_psd_result_passes_psd_stacks_at_1e160(M, least):
    """PSD stacks at 1e160 pass, with a finite least eigenvalue and no NaN
    minor (the off-diagonal one's minor, 3e320, is out of range: inf)."""
    H = np.repeat(np.array([M], dtype=complex), 4, axis=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        st = psd_result(H, 1e-9, lambda i: i)
    assert st.passed
    assert st.min_eig == pytest.approx(least, rel=1e-12)
    assert st.min_minor > 0


@pytest.mark.parametrize(
    "M", [[[1e-12, 0.0], [0.0, 1e4]], [[1e4, 0.0], [0.0, 1e-12]]], ids=["low", "high"]
)
def test_least_2x2_keeps_a_tiny_eigenvalue(M):
    """An eigenvalue 1e16 times smaller than the other is read to a relative
    1e-12, not lost to cancellation against the larger one."""
    H = np.repeat(np.array([M], dtype=complex), 4, axis=0)
    assert least_eigenvalues(H) == pytest.approx(1e-12, rel=1e-12)


def test_psd_check_rejects_empty_shell(r10):
    shell = sample_boundary(r10, 1e-2, 0)
    assert shell.count == 0
    with pytest.raises(ValueError, match="at least one point"):
        psd_check(r10.poly, shell)


# -- the LDL* kernel and the eigenvalue screen ------------------------------


def _hermitian(rng, m, n, real=False):
    M = rng.normal(size=(m, n, n))
    if not real:
        M = M + 1j * rng.normal(size=(m, n, n))
    return (M + np.conj(np.swapaxes(M, 1, 2))) / 2


def _spectrum(rng, lam, real=False):
    """Q diag(lam) Q* per point, Q a random orthogonal or unitary frame."""
    m, n = lam.shape
    M = _hermitian(rng, m, n, real)
    Q, _ = np.linalg.qr(M + 3 * np.eye(n))
    return (Q * lam[:, None, :]) @ np.conj(np.swapaxes(Q, 1, 2))


def _full(H):
    eigs = least_eigenvalues(H)
    i = int(np.argmin(eigs))
    return float(eigs[i]), i


def _screened(H):
    st = psd_result(H, 1e-9, lambda i: i)
    return st.min_eig, st.worst_point


def _rank_one_plateau(rng, n, share, real, C=None):
    """C + 2 g g* at 600 points, as a ladder rung over a constant base C:
    g is 0 at a share of the points, which copy C exactly, and orthogonal
    to C's least eigenvector at half the others, whose least eigenvalue is
    C's in exact arithmetic and ties it within rounding.  C defaults to a
    random Hermitian (or real symmetric) matrix."""
    if C is None:
        C = _hermitian(rng, 1, n, real)[0]
    v = np.linalg.eigh(C)[1][:, 0]
    g = rng.normal(size=(600, n))
    if not real:
        g = g + 1j * rng.normal(size=(600, n))
    zero = rng.random(600) < share
    g[zero] = 0
    orth = ~zero & (rng.random(600) < 0.5)
    g[orth] -= np.outer(g[orth] @ np.conj(v), v)
    return C + rank_one_term(g)


def _screen_stacks():
    rng = np.random.default_rng(7)
    stacks = {}
    for n in (3, 4):
        stacks[f"complex n={n}"] = _hermitian(rng, 600, n)
        stacks[f"real n={n}"] = _hermitian(rng, 600, n, real=True)
        # mostly clear of the minimum, as passing rungs are
        stacks[f"shifted n={n}"] = _hermitian(rng, 600, n) + 5 * np.eye(n)
        stacks[f"all bad n={n}"] = -_spectrum(rng, rng.uniform(1, 2, size=(600, n)))
        # least eigenvalue 0 in exact arithmetic, rounding noise of both
        # signs: a plateau the width of the screen's margin
        lam = rng.uniform(0.5, 2, size=(600, n))
        lam[:, 0] = 0.0
        stacks[f"near-zero PSD n={n}"] = _spectrum(rng, lam)
    # a constant Levi-like matrix with eigenvalues (5/2, -1/2, 1), repeated
    # between random points clear of it: the minimum is a tied plateau
    levi = np.array([[1, 1.5, 0], [1.5, 1, 0], [0, 0, 1]], dtype=complex)
    plateau = _hermitian(rng, 600, 3) + 5 * np.eye(3)
    plateau[rng.choice(600, size=200, replace=False)] = levi
    stacks["plateau"] = plateau
    for entry, name in (((1, 2), "NaN off-diagonal"), ((1, 1), "NaN diagonal")):
        H = _hermitian(rng, 600, 3) + 5 * np.eye(3)
        H[300][entry] = H[300][entry[::-1]] = np.nan
        stacks[name] = H
    # n = 5 and 6, which the screen serves (ball_like(4) reaches the ladder
    # at n = 5) without the margin argument of n <= 4
    rng = np.random.default_rng(8)
    for n in (5, 6):
        stacks[f"complex n={n}"] = _hermitian(rng, 600, n)
        stacks[f"real n={n}"] = _hermitian(rng, 600, n, real=True)
        stacks[f"shifted n={n}"] = _hermitian(rng, 600, n) + 5 * np.eye(n)
        lam = rng.uniform(0.5, 2, size=(600, n))
        lam[:, 0] = 0.0
        stacks[f"near-zero PSD n={n}"] = _spectrum(rng, lam)
        # the Levi-matrix counterexample's form: eigenvalues 5/2, -1/2, 1, ...
        levi = np.eye(n, dtype=complex)
        levi[0, 1] = levi[1, 0] = 1.5
        for share, real, C in ((0.1, False, levi), (0.5, False, None), (0.9, True, None)):
            name = f"rank-one plateau n={n} {'real' if real else 'complex'} zero g {share}"
            stacks[name] = _rank_one_plateau(rng, n, share, real, C)
    return stacks


SCREEN_STACKS = _screen_stacks()


@pytest.mark.parametrize("name", list(SCREEN_STACKS))
def test_screen_keeps_minimum_and_first_point(monkeypatch, name):
    """The screened scan's least eigenvalue and worst point are the full
    scan's least eigenvalue and its first argmin, the same floats; a stack
    holding a NaN fails at its NaN point instead.  The screen ranks its
    seeds by the cheap difference form of the 2x2 least eigenvalue, never
    the accurate one; any seeds keep it sound."""
    H = SCREEN_STACKS[name]
    if name.startswith("NaN"):
        st = psd_result(H, 1e-9, lambda i: i)
        assert not st.passed and math.isnan(st.min_eig) and st.worst_point == 300
        return
    want = _full(H)

    def refuse(*args):
        raise AssertionError("the screen ranks with the difference form")

    monkeypatch.setattr(verify, "_least_2x2", refuse)
    assert _screened(H) == want
    if name in ("complex n=4", "real n=4", "shifted n=4"):
        assert len(eigen_candidates(H, diagonals(H))) < len(H) / 2


def _huge_stacks():
    # 1e160 squared is out of range, and so is the sum of two entries of 1e308
    wide = np.zeros((40, 3, 3), dtype=complex)
    wide[:, 0, 0] = wide[:, 1, 1] = 1e160
    wide[:, 2, 2] = 1
    wide[:, 0, 2] = wide[:, 2, 0] = 1e80
    top = np.tile(np.diag([1e308, 1e308]).astype(complex), (40, 1, 1))
    return {"3x3 at 1e160": wide, "2x2 at 1e308": top}


@pytest.mark.parametrize("name", list(_huge_stacks()))
def test_psd_result_warns_nowhere_on_huge_finite_stacks(name):
    """Finite entries whose squares or sum leave the double range raise no
    warning: the screen sizes a point by max |H_jk| itself, and the
    finiteness test reads the overflowed sum without warning.  The screened
    minimum and its first point stay the full scan's."""
    H = _huge_stacks()[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _screened(H)
        if H.shape[-1] > 2:
            eigen_candidates(H, diagonals(H))
    assert got == _full(H)


@pytest.mark.parametrize("mirrored", [False, True], ids=["one entry", "mirrored"])
@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "n, entry",
    # (0, 1) of a 3x3 stack lies in no last-slot minor
    [(4, (0, 1)), (3, (1, 2)), (3, (0, 1))],
    ids=["4x4 (0,1)", "3x3 (1,2)", "3x3 (0,1)"],
)
def test_psd_result_fails_non_finite(n, entry, value, mirrored):
    """A non-finite entry fails the pass rule and raises nothing: Python's
    min drops a NaN that is not its first argument, and eigvalsh can give
    a finite least eigenvalue at a NaN point or raise at a NaN diagonal.
    The worst point is the first one holding such an entry."""
    bad = [40, 70]
    H = np.tile(np.eye(n, dtype=complex), (100, 1, 1))
    for i in bad:
        H[i][entry] = value
        if mirrored:
            H[i][entry[::-1]] = value
    st = psd_result(H, 1e-9, lambda i: i)
    assert not st.passed
    assert math.isnan(st.min_eig)
    assert st.worst_point == bad[0]


@pytest.mark.parametrize("n", [3, 4])
def test_screen_keeps_points_with_non_finite_pivots(monkeypatch, n):
    """A zero pivot leaves every later pivot NaN, which is not > 0: the
    screen cannot show such a point clear of the minimum, so it keeps it,
    whether the NaN is its first pivot or its last."""
    H = SCREEN_STACKS[f"shifted n={n}"]
    dropped = np.setdiff1d(np.arange(len(H)), eigen_candidates(H, diagonals(H)))
    first, last = dropped[:5], dropped[-5:]
    assert len(dropped) > len(H) / 2
    screen_ldl = verify.ldl

    def nan_pivots(A, shift, rhs=None):
        d, y = screen_ldl(A, shift, rhs)
        d = d.copy()
        d[first, 0] = 0.0
        d[first, 1:] = np.nan
        d[last, -1] = np.nan
        return d, y

    monkeypatch.setattr(verify, "ldl", nan_pivots)
    kept = eigen_candidates(H, diagonals(H))
    assert set(first) | set(last) <= set(kept)
    others = np.setdiff1d(kept, np.concatenate([first, last]))
    assert np.array_equal(others, np.setdiff1d(np.arange(len(H)), dropped))


def test_screen_plateau_keeps_every_tie():
    """Every point of the plateau is a candidate, so the first of them is
    the worst point."""
    H = SCREEN_STACKS["plateau"]
    idx = eigen_candidates(H, diagonals(H))
    tied = np.flatnonzero(np.all(H == H[np.argmin(least_eigenvalues(H))], axis=(1, 2)))
    assert set(tied) <= set(idx)
    assert _screened(H)[1] == tied[0]


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_ldl_inertia_matches_eigenvalues(n, real):
    """The number of negative pivots of H + tol I is the number of
    eigenvalues of H below -tol (Sylvester's law of inertia)."""
    rng = np.random.default_rng(n + 10 * real)
    tol = 1e-9
    stacks = [_hermitian(rng, 500, n, real)]
    if n > 2 and not real:
        stacks.append(SCREEN_STACKS[f"near-zero PSD n={n}"])
    for H in stacks:
        d, y = ldl(H, -tol)
        assert y is None
        below = np.sum(np.linalg.eigvalsh(H) < -tol, axis=1)
        assert np.array_equal(np.sum(d < 0, axis=1), below)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ldl_quadratic_form_matches_solve(n):
    """sum |y|^2 / d is g* (H + tol I)^-1 g, to 1e-12 of the sum of the
    terms' sizes, which is |phi| itself where H + tol I is positive
    definite; the stacks hold at most one negative eigenvalue, as
    `lift_exp` reads them."""
    rng = np.random.default_rng(n)
    tol = 1e-9
    lam = rng.uniform(0.5, 2, size=(400, n))
    lam[:200, 0] *= -1
    H = _spectrum(rng, lam)
    g = rng.normal(size=(400, n)) + 1j * rng.normal(size=(400, n))
    d, y = ldl(H, -tol, g)
    terms = (y * np.conj(y)).real / d
    phi = terms.sum(axis=1)
    C = H + tol * np.eye(n)
    ref = np.sum(np.conj(g) * np.linalg.solve(C, g[:, :, None])[:, :, 0], axis=1).real
    assert np.all(np.abs(phi - ref) <= 1e-12 * np.abs(terms).sum(axis=1))
    assert np.all(phi[200:] > 0)


def _layout_outputs(H, base, g, tol):
    """Everything the scan kernels return on H, and the K ladder on base
    and g, with the stacks the ladder hands its stats copied out."""
    stacks = []

    def stats(A):
        stacks.append(np.ascontiguousarray(A))
        return psd_result(A, tol, lambda i: i)

    ladder, K, st = k_ladder(base, g, 20, stats)
    return {
        "ldl": ldl(H, -tol),
        "ldl rhs": ldl(H, -tol, g),
        "eigen_candidates": eigen_candidates(H, diagonals(H)),
        "psd_result": psd_result(H, tol, lambda i: i).as_dict(),
        "lift_exp": lift_exp(H, g, tol),
        "k_ladder": (ladder, K, st.as_dict()),
        "rungs": stacks,
    }


def _bitwise(x):
    """x with every float and array spelled out bit for bit."""
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, np.ascontiguousarray(x).tobytes())
    if isinstance(x, (list, tuple)):
        return [_bitwise(v) for v in x]
    if isinstance(x, dict):
        return {k: _bitwise(v) for k, v in x.items()}
    return repr(x)


@pytest.mark.parametrize(
    "n, real", [(2, False), (3, False), (4, False), (3, True)], ids=["2", "3", "4", "real 3"]
)
def test_kernels_read_either_layout(n, real):
    """`ldl` (with and without a right side), the eigen screen, the pass
    rule, `lift_exp` and the K ladder give the same floats and indices on a
    C-ordered stack and on its entry-planar copy: the pipeline builds
    entry-planar stacks, and tests and other callers hand either layout.  A
    third of the points have one small negative eigenvalue, which the
    ladder lifts at a second rung."""
    rng = np.random.default_rng(0)
    m, tol = 300, 1e-9
    lam = rng.uniform(0.5, 2, size=(m, n))
    lam[: m // 3, 0] = -rng.uniform(1e-6, 1e-4, size=m // 3)
    H = _spectrum(rng, lam, real)
    g = rng.normal(size=(m, n))
    if not real:
        g = g + 1j * rng.normal(size=(m, n))
    base = H - rank_one_term(g)  # rung 0 is H, up to rounding
    c_order = _layout_outputs(H, base, g, tol)
    planar = _layout_outputs(entry_planar(H), entry_planar(base), entry_planar(g), tol)
    assert entry_planar(H)[:, n - 1, 0].flags.c_contiguous
    assert _bitwise(planar) == _bitwise(c_order)
    assert math.isfinite(c_order["lift_exp"]) and len(c_order["rungs"]) == 2
    assert (c_order["eigen_candidates"] is None) == (n == 2)


@pytest.mark.parametrize("name", ["nz2_quartic", "ball3_tilted"])
def test_hessian_csv_minimum_is_psd_worst_point(name):
    """The CSV table solves every point's least eigenvalue and the PSD check
    only its screen's candidates: the table's least `least_eig` and its
    first row are the check's min_eig and worst point."""
    r, T, K, h = certificate(name)
    f = h * r.poly
    shell = sample_boundary(r, 1e-2, 2000, seed=0)
    lines = hessian_csv(f, shell).splitlines()
    col = lines[0].split(",").index("least_eig")
    eigs = np.array([float(line.split(",")[col]) for line in lines[1:]])
    i = int(np.argmin(eigs))
    psd = psd_check(f, shell)
    assert psd.min_eig == eigs[i]
    Z, W = shell.Z, shell.W
    assert psd.worst_point == {
        "z": [[float(z.real), float(z.imag)] for z in Z[i]],
        "w": [float(W[i].real), float(W[i].imag)],
    }
