"""Real convex lane: RPoly, boundary sampling, the y-derivative multiplier."""

import importlib
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import random_rpoly
from pshdef import construct, verify
from pshdef.catalog import type4_domain
from pshdef.construct import SHRINK, k_search
from pshdef.cr import NormalFormError, levi_form
from pshdef.exprparse import parse_rpoly
from pshdef.realconvex import (
    RealConfig,
    convex_multiplier,
    convexity_check,
    real_hessian_check,
    real_hessian_values,
    real_normal_form_violations,
    sample_real_boundary,
    validate_real_normal_form,
)
from pshdef.verify import (
    EXTENDED_BELOW,
    H_MIN,
    hessian_values,
    point_norms,
    point_report,
    project_to_boundary,
    psd_check,
    sample_boundary,
)
from pshdef.wirtinger import RPoly, canonical_str

X = RPoly.var_x(1)
Y = RPoly.var_y(1)


def rp(text, nv=1):
    return validate_real_normal_form(parse_rpoly(text, nv))


def test_rpoly_arithmetic():
    p = (X + Y) ** 2
    assert p == X * X + (X * Y).scale(2) + Y * Y
    assert (p - p).is_zero()
    assert p.degree() == 2
    assert (X * X * Y).min_degree() == 3
    assert RPoly.const(1, 5).constant_term() == 5
    assert RPoly.const(1, 5).degree() == 0
    assert X.constant_term() == 0 and X.degree() == 1
    assert RPoly.zero(1).constant_term() == 0
    assert RPoly.zero(1).degree() == RPoly.zero(1).min_degree() == -1


def test_rpoly_derivatives():
    p = X * X * Y + Y * Y * Y
    assert p.d_x(0) == (X * Y).scale(2)
    assert p.d_y() == X * X + (Y * Y).scale(3)


def test_rpoly_fd_agreement():
    rng = random.Random(31)
    for _ in range(10):
        p = random_rpoly(rng)
        dx = p.d_x(0)
        for _ in range(5):
            x = rng.uniform(-0.3, 0.3)
            y = rng.uniform(-0.3, 0.3)
            Xa = np.array([[x]])
            Ya = np.array([y])
            h = 1e-6
            num = (
                p.eval(np.array([[x + h]]), Ya) - p.eval(np.array([[x - h]]), Ya)
            )[0] / (2 * h)
            assert abs(dx.eval(Xa, Ya)[0] - num) <= 1e-6 * (1 + abs(num))


def test_rpoly_eval_matches_exact_sum():
    """The compiled evaluator agrees with a term-by-term exact sum."""
    rng = random.Random(41)
    for _ in range(20):
        nx = rng.randint(1, 2)
        p = random_rpoly(rng, nx)
        pts = [[Fraction(rng.randint(-9, 9), 10) for _ in range(nx + 1)] for _ in range(5)]
        exact = [
            sum(c * math.prod(v**k for v, k in zip(pt, e)) for e, c in p.terms.items())
            for pt in pts
        ]
        X = np.array([[float(v) for v in pt[:nx]] for pt in pts])
        Ya = np.array([float(pt[nx]) for pt in pts])
        got = p.eval(X, Ya)
        assert got.dtype == np.float64
        # every coordinate is below 1 in size, so each term is below its |c|
        scale = 1 + float(sum(abs(c) for c in p.terms.values()))
        assert np.all(np.abs(got - np.array([float(v) for v in exact])) <= 1e-14 * scale)


def test_rpoly_round_trip():
    rng = random.Random(37)
    for _ in range(20):
        p = random_rpoly(rng)
        assert parse_rpoly(canonical_str(p), 1) == p


def test_real_violations():
    assert real_normal_form_violations(Y + X * X) == []
    assert any("constant" in v for v in real_normal_form_violations(Y + RPoly.const(1, 1)))
    assert any("y" in v for v in real_normal_form_violations(Y.scale(2) + X * X))
    assert any("linear" in v for v in real_normal_form_violations(Y + X))
    with pytest.raises(NormalFormError):
        validate_real_normal_form(Y + X)


def test_projection_and_shell():
    r = validate_real_normal_form(Y + X * X)
    Yv, ok = project_to_boundary(r, np.array([[0.1]]))
    assert ok[0]
    assert abs(Yv[0] + 0.01) <= 1e-12
    shell = sample_real_boundary(r, 1e-2, 200, seed=0)
    assert shell.count == 200
    assert float(np.max(shell.residuals)) <= 1e-12
    assert float(np.max(point_norms(shell.Z, shell.W))) <= 1e-2
    again = sample_real_boundary(r, 1e-2, 200, seed=0)
    assert np.array_equal(shell.Z, again.Z)
    assert np.array_equal(shell.W, again.W)


# -- the shared boundary layer ----------------------------------------------


def test_real_shell_is_the_shared_shell():
    """A real shell read through verify.sample_boundary is the cached
    object sample_real_boundary gave, x in Z and y in W, both float64."""
    r = rp("y + x1^2 + x2^4", 2)
    shell = sample_real_boundary(r, 1e-2, 200, seed=3)
    assert sample_boundary(r, 1e-2, 200, seed=3) is shell
    assert shell.Z.shape == (200, 2) and shell.Z.dtype == shell.W.dtype == np.float64


@pytest.fixture
def projections(monkeypatch):
    """Records (domain, dtype) of every verify.project_to_boundary call."""
    calls = []
    project = verify.project_to_boundary

    def recorded(r, Z, U=None, dtype=None, **kwargs):
        calls.append((r, dtype))
        return project(r, Z, U, dtype, **kwargs)

    monkeypatch.setattr(verify, "project_to_boundary", recorded)
    return calls


def test_real_newton_is_the_shared_projection(projections):
    r = rp("y + x^2 + x*y")
    shell = sample_real_boundary(r, 1e-2, 200, seed=0)
    assert projections and all(d is r for d, _ in projections)
    assert {dtype for _, dtype in projections} == {np.float64}
    assert float(np.max(shell.residuals)) <= 1e-12


@pytest.mark.parametrize("radius", [EXTENDED_BELOW / 2, 2.0**-20])
def test_small_real_shell_is_solved_in_extended_precision(projections, radius):
    """Below radius EXTENDED_BELOW both lanes solve the normal coordinate
    in extended precision; the real shell comes back in float64."""
    r = rp("y + x1^2 + x2^4 + x1*y", 2)
    shell = sample_real_boundary(r, radius, 300, seed=1)
    assert {dtype for _, dtype in projections} == {np.longdouble}
    assert shell.count == 300 and shell.W.dtype == np.float64
    assert float(np.max(shell.residuals)) <= 1e-12
    assert float(np.max(point_norms(shell.Z, shell.W))) <= radius


def test_point_report_keeps_each_lane_keys():
    """One point report per lane: z/w pairs for complex points, x/y floats
    for real ones, in the PSD statistics of either lane."""
    r = rp("y + x1^2 + x2^2", 2)
    shell = sample_real_boundary(r, 1e-2, 50, seed=0)
    real = point_report(shell.Z, shell.W, 7)
    assert real == {"x": [float(x) for x in shell.Z[7]], "y": float(shell.W[7])}
    assert set(psd_check(r.poly, shell).worst_point) == {"x", "y"}
    r10 = type4_domain(10)
    cshell = sample_boundary(r10, 1e-2, 50, seed=0)
    z, w = cshell.Z[7, 0], cshell.W[7]
    assert point_report(cshell.Z, cshell.W, 7) == {
        "z": [[float(z.real), float(z.imag)]],
        "w": [float(w.real), float(w.imag)],
    }
    assert set(psd_check(r10.poly, cshell).worst_point) == {"z", "w"}


def test_one_hessian_stack_for_both_lanes():
    """verify.hessian_values reads an RPoly's table from the shared
    cr.hessian_entries and gives the real lane's float64 stack, bit for
    bit; a complex shell's stack stays complex128."""
    r = validate_real_normal_form(parse_rpoly("y + x1*y + x1^2*x2^2 + x2^2"))
    shell = sample_real_boundary(r, 1e-2, 200, seed=0)
    f = r.poly * (RPoly.one(2) + r.d_y())
    real = real_hessian_values(f, shell.Z, shell.W)
    shared = hessian_values(f, shell.Z, shell.W)
    assert real.dtype == shared.dtype == np.float64
    assert real.shape == (200, 3, 3)
    assert real.tobytes() == shared.tobytes()
    r10 = type4_domain(10)
    cshell = sample_boundary(r10, 1e-2, 50, seed=0)
    assert hessian_values(r10.poly, cshell.Z, cshell.W).dtype == np.complex128


def test_hessian_check_examples():
    conv = validate_real_normal_form(Y + X * X)
    shell = sample_real_boundary(conv, 1e-2, 200, seed=0)

    bowl = X * X + Y * Y
    res = real_hessian_check(bowl, shell)
    assert res.passed
    assert res.min_eig == 2.0

    quart = validate_real_normal_form(Y + X**4)
    qshell = sample_real_boundary(quart, 1e-2, 200, seed=0)
    self_res = real_hessian_check(quart.poly, qshell)
    assert self_res.passed
    assert self_res.min_eig >= -1e-9
    assert self_res.min_eig <= 1e-6  # flat direction: smallest eigenvalue near 0

    concave = Y - X * X
    bad = real_hessian_check(concave, shell)
    assert not bad.passed
    assert bad.min_diag == -2.0


def test_hessian_check_rejects_empty_shell():
    r = validate_real_normal_form(Y + X * X)
    shell = sample_real_boundary(r, 1e-2, 0)
    assert shell.count == 0
    with pytest.raises(ValueError, match="at least one point"):
        real_hessian_check(r.poly, shell)


def test_tangential_form_values():
    conv = validate_real_normal_form(Y + X * X)
    tf = levi_form(conv, 0)
    assert tf.coeff((0, 0)) == 2
    conc = validate_real_normal_form(Y - X * X)
    assert levi_form(conc, 0).coeff((0, 0)) == -2


def test_tangential_form_fd_probe():
    """Second difference along the tangent line matches the form."""
    r = validate_real_normal_form(Y + X**4 + X * X * Y)
    rng = random.Random(3)
    p = r.poly
    for _ in range(10):
        x = rng.uniform(-0.05, 0.05)
        Yv, ok = project_to_boundary(r, np.array([[x]]))
        assert ok[0]
        y = float(Yv[0])
        Xa, Ya = np.array([[x]]), np.array([y])
        vx = float(r.d_y().eval(Xa, Ya)[0])
        vy = -float(r.gradient()[0].eval(Xa, Ya)[0])
        t = 1e-4

        def at(s):
            return float(p.eval(np.array([[x + s * vx]]), np.array([y + s * vy]))[0])

        second = (at(t) - 2 * at(0) + at(-t)) / (t * t)
        form = float(levi_form(r, 0).eval(Xa, Ya)[0])
        assert abs(second - form) <= 1e-6 * (1 + abs(form))


def test_convexity_check_witness():
    conc = validate_real_normal_form(Y - X * X)
    shell = sample_real_boundary(conc, 1e-2, 300, seed=0)
    out = convexity_check(conc, shell)
    assert not out["passed"]
    assert out["witness"]["j"] == 1
    assert abs(out["witness"]["value"] + 2.0) <= 1e-9
    assert out["min_value"] < -1


def test_convexity_check_reads_the_full_matrix():
    """The precheck takes the least eigenvalue of the tangential matrix:
    [[2, 3], [3, 2]] reads -1 where its diagonal reads 2, and the witness
    names the least diagonal entry at its point."""
    r = rp("y + x1^2 + x2^2 + 3*x1*x2", 2)
    shell = sample_real_boundary(r, 1e-2, 300, seed=0)
    diag = min(float(levi_form(r, j).eval(shell.Z, shell.W).min()) for j in range(2))
    assert diag == 2.0
    out = convexity_check(r, shell)
    assert not out["passed"]
    assert out["min_value"] == pytest.approx(-1.0, abs=1e-12)
    assert out["witness"]["j"] == 1 and out["witness"]["value"] == out["min_value"]
    # positive definite off the diagonal: least eigenvalue 1, not 2
    r = rp("y + x1^2 + x2^2 + x3^2 + x1*x2", 3)
    out = convexity_check(r, sample_real_boundary(r, 1e-2, 300, seed=0))
    assert out["passed"] and out["min_value"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("text", ["y + x^4", "y - x^2 + x y", "y + x^2 + x^3 y"])
def test_convexity_check_one_variable_is_the_form(text):
    """At nx = 1 the 1x1 matrix's eigenvalue is the form itself, float for
    float, so the precheck reads what the form's minimum reads."""
    r = rp(text)
    shell = sample_real_boundary(r, 1e-2, 500, seed=1)
    vals = levi_form(r, 0).eval(shell.Z, shell.W)
    out = convexity_check(r, shell)
    assert out["min_value"] == float(vals.min())
    if not out["passed"]:
        assert out["witness"]["point"]["x"] == [float(shell.Z[np.argmin(vals), 0])]


def test_multiplier_parabola():
    rep = convex_multiplier(rp("y + x^2"))
    assert rep.status == "Certified"
    assert rep.final["K"] <= 2**4
    assert rep.final["T"] == "1"
    assert rep.final["stage"] == 0
    assert rep.verification["hessian"]["passed"]
    assert any("transplanted" in m for m in rep.messages)


def test_multiplier_quartic():
    rep = convex_multiplier(rp("y + x^4"))
    assert rep.status == "Certified"
    assert rep.final["K"] >= 1
    assert rep.verification["hessian"]["passed"]


def test_multiplier_flat_halfspace():
    rep = convex_multiplier(rp("y"))
    assert rep.status == "Certified"
    assert rep.final["K"] == 1


def test_multiplier_concave_obstructed():
    rep = convex_multiplier(rp("y - x^2"))
    assert rep.status == "Obstructed"
    assert rep.obstruction["kind"] == "not_convex"
    assert rep.final is None
    assert abs(rep.obstruction["witness"]["value"] + 2.0) <= 1e-9


def test_multiplier_two_variables():
    rep = convex_multiplier(rp("y + x1^2 + x2^4", 3))
    assert rep.status == "Certified"
    assert rep.verification["hessian"]["passed"]


def test_multiplier_h_floor_stops_search():
    """|1 + r_y| = |1 + 800 x| is below the h floor at both radii, so the
    search stops with the h floor witness, as the complex lane's does, and
    the claim names the h floor, not the ladder that never ran."""
    rep = convex_multiplier(rp("y + 10*x^2 + 800*x*y"))
    assert rep.status == "Exhausted"
    assert rep.final is None and rep.verification is None
    ks = rep.k_search
    assert not ks["found"] and ks["ladder"] == []
    assert ks["shrunk"] and ks["radius"] == 1e-2 * SHRINK
    assert ks["witness"]["h_floor"] == H_MIN
    assert ks["witness"]["min_abs_h"] < H_MIN
    assert rep.obstruction == {
        "kind": "k_search_failed",
        "claim": "|1 + r_y| drops below the h floor 0.5 on the shell, "
        "so no ladder K was tried",
        "witness": ks["witness"],
    }
    assert rep.convexity_precheck["passed"]


def test_multiplier_ladder_failure_shrinks(monkeypatch):
    """A ladder that fails at every rung shrinks the radius once, and the
    witness names the worst point, as in the complex lane.  K = 128 passes,
    so with the top rung lowered to 16 rung 0 puts every passing K above
    the top: the search stops at rung 0, whose scan is the witness."""
    monkeypatch.setattr(construct, "MAX_K_EXP", 4)
    rep = convex_multiplier(rp("y + x^2 + 10*x*y"))
    assert rep.status == "Exhausted"
    ks = rep.k_search
    assert ks["shrunk"] and ks["radius"] == 1e-2 * SHRINK
    assert [row["K"] for row in ks["ladder"]] == [ks["witness"]["K"]] == [1]
    assert not ks["ladder"][-1]["passed"]
    assert set(ks["witness"]) == {"K", "point", "min_eig", "min_minor", "min_diag"}
    assert set(ks["witness"]["point"]) == {"x", "y"}


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("seed", [0, 3])
def test_lanes_share_one_k_search(monkeypatch, seed):
    """The real lane's K search is the complex lane's `k_search` of
    T = r_y: on every real benchmark input its report equals that search's,
    each run on a fresh domain."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    expected = importlib.import_module("expected")
    config = RealConfig(seed=seed)
    for row in expected.CONVEX:
        rep = convex_multiplier(validate_real_normal_form(parse_rpoly(row.r)), config)
        r = validate_real_normal_form(parse_rpoly(row.r))
        assert rep.k_search == k_search(r, r.d_y(), config).as_dict(), row.name


def test_real_report_shape():
    rep = convex_multiplier(rp("y + x^2"))
    d = rep.as_dict()
    assert d["schema_version"] == 1
    assert d["mode"] == "real"
    assert d["status"] == "Certified"
    assert set(d) >= {
        "defining_function",
        "config",
        "convexity_precheck",
        "stages",
        "final",
        "obstruction",
        "verification",
        "k_search",
        "messages",
    }
    assert d["defining_function"]["nx"] == 1
    tr = rep.trace()
    assert "status: Certified" in tr
