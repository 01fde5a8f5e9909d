"""Staged multiplier construction and the K ladder."""

import json
import math
import random
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    entry_planar,
    full_layout_k_search,
    linear_k_ladder,
    random_wpoly,
    rank_one_term,
    reference_lift_exp,
)
from pshdef import cli, construct, dominance, realconvex, verify
from pshdef.catalog import ball_like, mixed_c3_example, type4_domain
from pshdef.construct import (
    MAX_K_EXP,
    SHRINK,
    ConstructConfig,
    NotPseudoconvexError,
    absorb_r_multiples,
    k_ladder,
    k_search,
    lift_exp,
    run_construction,
    search_failure,
    solve_stage,
    strong_psc_shortcut,
)
from pshdef.cr import validate_normal_form
from pshdef.exprparse import parse_rpoly, parse_wpoly
from pshdef.gaussrat import GaussianRational
from pshdef.numeval import compiled
from pshdef.realconvex import (
    convex_multiplier,
    sample_real_boundary,
    validate_real_normal_form,
)
from pshdef.cr import hessian_entries
from pshdef.verify import (
    H_MIN,
    MAX_SAMPLES,
    TOL,
    PsdCheckResult,
    check_certificate,
    gradient_stack,
    hessian_stack,
    hessian_values,
    psd_check,
    psd_stats,
    sample_boundary,
)
from pshdef.wirtinger import WPoly, canonical_str, im_z, re_w, re_z


@given(st.integers(0, 10_000))
@settings(deadline=None, max_examples=80)
def test_stage_exactness(seed):
    """d/dz T_inc - 2iS - residual vanishes identically."""
    S = random_wpoly(random.Random(seed))
    T_inc, residual = solve_stage(S, 0)
    assert T_inc.is_real()
    two_i_S = S.scale(GaussianRational(0, 2))
    assert (T_inc.dz(0) - two_i_S - residual).is_zero()


def test_solve_stage_constant_source():
    T_inc, residual = solve_stage(WPoly.one(1), 0)
    assert T_inc == im_z(1).scale(Fraction(-4))
    assert residual.is_zero()


def test_solve_stage_degree_two_source():
    S = (
        im_z(1).scale(Fraction(-4))
        + re_z(1).scale(GaussianRational(0, 4))
        + re_w(1).scale(GaussianRational(0, -16))
    )
    T_inc, residual = solve_stage(S, 0)
    expected = (
        (im_z(1) * im_z(1)).scale(Fraction(8))
        - (re_z(1) * re_z(1)).scale(Fraction(8))
        + (re_z(1) * re_w(1)).scale(Fraction(64))
    )
    assert T_inc == expected
    assert residual.is_zero()


def test_solve_stage_zero_source():
    T_inc, residual = solve_stage(WPoly.zero(1), 0)
    assert T_inc.is_zero()
    assert residual.is_zero()


def test_absorb_drops_r_pair(r8):
    T = (
        (im_z(1) * im_z(1)).scale(Fraction(8))
        - (re_z(1) * re_z(1)).scale(Fraction(8))
        + (re_z(1) * re_w(1)).scale(Fraction(64))
    )
    reduced, absorbed = absorb_r_multiples(T, r8)
    assert reduced == (im_z(1) * im_z(1)).scale(Fraction(8)) - (
        re_z(1) * re_z(1)
    ).scale(Fraction(8))
    total = WPoly.zero(1)
    for p in absorbed:
        total = total + p
    assert reduced + total == T
    assert total == (re_z(1) * re_w(1)).scale(Fraction(64))


def test_absorb_leaves_T1_alone(r8):
    T = im_z(1).scale(Fraction(-4))
    reduced, absorbed = absorb_r_multiples(T, r8)
    assert reduced == T
    assert absorbed == []


def test_absorb_zero(r8):
    reduced, absorbed = absorb_r_multiples(WPoly.zero(1), r8)
    assert reduced.is_zero()
    assert absorbed == []


def test_shortcut_ball_yes(ball):
    assert strong_psc_shortcut(ball) is True


def test_shortcut_degenerate_no(r10, halfspace):
    assert strong_psc_shortcut(r10) is False
    assert strong_psc_shortcut(halfspace) is False


def test_r10_run(r10, r10_report):
    rep = r10_report
    assert rep.status == "Certified"
    assert len(rep.stages) == 1
    assert rep.final.T == im_z(1).scale(Fraction(-4))
    assert rep.final.as_dict()["T"] == "-4*Im(z)"
    assert rep.final.K == 64
    assert rep.final.K <= 2**20
    assert rep.stages[0].k_search.found
    assert rep.shortcut_used is False
    for entry in rep.contraction:
        assert entry["ratio"] < 1.0
    assert rep.cancellation["ok"]
    assert rep.verification["psd"]["passed"]
    assert rep.verification["necessary"]["all_hold"]


def test_r8_run(r8, r8_report):
    rep = r8_report
    assert rep.status == "Certified"
    assert len(rep.stages) == 2

    ks1 = rep.stages[0].k_search
    assert ks1 is not None and not ks1.found
    assert ks1.shrunk is True
    assert ks1.witness is not None
    assert ks1.witness["min_eig"] < 0 or ks1.witness["min_minor"] < 0

    expected_T = (
        im_z(1).scale(Fraction(-4))
        + (im_z(1) * im_z(1)).scale(Fraction(8))
        - (re_z(1) * re_z(1)).scale(Fraction(8))
    )
    assert rep.final.T == expected_T
    assert rep.final.K == 16
    assert rep.stages[1].absorbed == [
        "16 * zbar wbar + 16 * z w",
        "16 * zbar w + 16 * z wbar",
    ]
    assert len(rep.contraction) == 2
    for entry in rep.contraction:
        assert entry["ratio"] < 1.0
    assert rep.verification["psd"]["passed"]


def test_construction_runs_no_gate(monkeypatch):
    """No construction verdict reads the gradient-vs-Levi gate (A=8
    certifies with it NotDominated), so run_construction never calls it;
    `pshdef analyze` does."""
    gate = dominance.levi_dominance_gate
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return gate(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("pshdef") and getattr(module, "levi_dominance_gate", None) is gate:
            monkeypatch.setattr(module, "levi_dominance_gate", counted)
    rep = run_construction(type4_domain(8))
    assert rep.status == "Certified" and calls == []
    assert "gate" not in rep.as_dict()
    assert not any("gate" in m for m in rep.messages)
    cli.main(["analyze", "--r", canonical_str(type4_domain(8).poly)])
    assert len(calls) == 1


def test_certified_replay(r8, r8_report):
    """A stored certificate re-verifies on a fresh shell."""
    rep = r8_report
    h = WPoly.one(1) + rep.final.T + r8.poly.scale(Fraction(rep.final.K))
    rho = h * r8.poly
    shell = sample_boundary(r8, rep.verification["radius"], 500, seed=3)
    res = psd_check(rho, shell, 1e-9)
    assert res.passed


def test_r7_raises(r7):
    """A = 7 is not pseudoconvex, at the default sampling too, where a
    settable PSD slack of 1e-4 once let it through."""
    for config in (ConstructConfig(), ConstructConfig(samples=4000)):
        with pytest.raises(NotPseudoconvexError) as ei:
            run_construction(r7, config)
        scan = ei.value.scan
        assert scan.min_value < -1e-9
        assert scan.worst_point is not None


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="A = 8 - 10^-6 is not pseudoconvex, but its Levi form goes negative "
    "only within about 1e-5 of 0 in Re w, and by far less than TOL, so no "
    "sampled check sees it: the run certifies A = 8's multiplier "
    "(T = -4 Im z + 8 Im(z)^2 - 8 Re(z)^2, K = 16, 2 stages)",
)
@pytest.mark.parametrize("seed", range(6))
def test_just_below_the_threshold_is_not_certified(seed):
    """The family is pseudoconvex only for A >= 8: the boundary quadratic
    part of the Levi form, (x - 4u)^2 + y^2 + (2A - 16) u^2 with
    z = x + iy and u = Re w, is indefinite for A < 8.  An exact Sylvester
    test of that form would refute the input."""
    r = type4_domain(Fraction(7999999, 1000000))
    rep = run_construction(r, ConstructConfig(seed=seed))
    assert rep.status != "Certified"


def test_halfspace_run(halfspace):
    rep = run_construction(halfspace)
    assert rep.status == "Certified"
    assert rep.final.T.is_zero()
    assert rep.final.K == 1


def test_ball_run(ball):
    rep = run_construction(ball)
    assert rep.status == "Certified"
    assert rep.shortcut_used is True
    assert rep.final.T.is_zero()
    assert rep.final.K == 1
    assert len(rep.stages) == 1
    assert rep.stages[0].index == 0


def test_c3_ball_shortcut():
    from pshdef.catalog import ball_like

    b2 = ball_like(2)
    rep = run_construction(b2)
    assert rep.status == "Certified"
    assert rep.shortcut_used is True
    assert rep.final.T.is_zero()


def test_cancellation_reads_every_j():
    """The cancellation record's sup_next_mixed is the max over every j of
    sup |((1 + T_next) r)_{z_j wbar}| on the inner probe shell, recomputed
    here on that shell sampled by a fresh domain.  On this input the z_2
    derivative gives the larger sup, so reading z_1 alone falls short.  (The
    input's Certified verdict is itself wrong: along z = (0, t) its Levi
    matrix is indefinite, below what the absolute tol can see.)"""
    text = "Im(w) + abs2(z1)^2 + abs2(z2)^2 + 4*Re(z1*z2)*Re(w) - 10*Re(w)^2"
    r = validate_normal_form(parse_wpoly(text, 2))
    rep = run_construction(r, ConstructConfig(seed=3))
    rho1 = (WPoly.one(2) + rep.stages[0].T_after) * r.poly
    inner = sample_boundary(
        validate_normal_form(parse_wpoly(text, 2)), 2.0**-16, 160, seed=3
    )
    sups = [
        float(np.max(np.abs(compiled(rho1.dz(j).dwbar()).eval(inner.Z, inner.W))))
        for j in range(2)
    ]
    assert sups[1] > sups[0] > 0
    assert rep.cancellation["sup_next_mixed"] == max(sups)


def test_c3_mixed_stage_algebra(c3_mixed):
    # The first stage reproduces the single-variable algebra: the z1
    # equation has source 1 (so T gains -4 Im z1) and the z2 equation
    # contributes nothing.  No ladder K can close the certificate here:
    # rho_{z1 zbar2} = T_{z1} r_{zbar2} picks up a K-independent coupling
    # 2i z2 while rho_{z1 zbar1} vanishes identically on the z2-axis
    # boundary points, so the 2x2 z-block has negative determinant at
    # those points for every K.  The honest terminal state is Exhausted.
    rep = run_construction(c3_mixed)
    assert rep.status == "Exhausted"
    st1 = rep.stages[0]
    assert st1.parts[0].split.S == WPoly.one(2)
    assert st1.parts[1].split.S.is_zero()
    assert st1.T_after == im_z(2, 0).scale(Fraction(-4))
    assert st1.k_search is not None and not st1.k_search.found
    assert rep.obstruction["kind"] == "fixpoint"
    assert rep.final is None


RE_Z1Z2 = "Im(w) + abs2(z1)^2 + abs2(z2)^2 + 4*Re(z1*z2)*Re(w) - 10*Re(w)^2"
RE_Z1_IM_Z2 = "Im(w) + abs2(z1)^2 + abs2(z2)^2 + 4*Re(z1)*Im(z2)*Re(w) - 10*Re(w)^2"


@pytest.mark.parametrize(
    "source, merged, failure",
    [
        (RE_Z1Z2, "-4*Im(z1*z2)", None),
        (RE_Z1_IM_Z2, None, {"j": 2, "monomial": "-2 * zbar1"}),
        (["Re(z1*z2)", "3*Re(z1*z2)"], None, {"j": 2, "monomial": "-z1"}),
    ],
    ids=["Re(z1 z2)", "Re(z1) Im(z2)", "conflicting pair"],
)
def test_stage_system_rule(monkeypatch, source, merged, failure):
    """The union of the increments must solve every z_j's stage equation.

    Re(z1 z2): both increments are -4 Im(z1 z2), which solves both
    equations.  Re(z1) Im(z2): the increments are -4 Im z1 Im z2 and
    4 Re z1 Re z2; the union keeps the first whole, whose z2 derivative
    z1 - zbar1 misses equation 2's z1 + zbar1 by -2 zbar1.  The pair
    Re(z1 z2), 3 Re(z1 z2) shares a monomial with two coefficients; the
    first one wins and misses equation 2 by -z1.
    """
    if isinstance(source, list):
        rep, incs = None, [parse_wpoly(s, 2) for s in source]
    else:
        r = validate_normal_form(parse_wpoly(source, 2))
        monkeypatch.setattr(construct, "MAX_STAGES", 1)
        rep = run_construction(r)
        incs = [p.T_inc for p in rep.stages[0].parts]
    expected = None if merged is None else parse_wpoly(merged, 2)
    assert construct._merge_increments(incs) == (expected, failure)
    if rep is None:
        return
    stage = rep.stages[0]
    if failure is None:
        # only the stage algebra is pinned here, not the final status
        assert incs == [expected, expected]
        assert stage.T_increment == expected and stage.k_search is not None
    else:
        assert rep.status == "Obstructed" and stage.k_search is None
        assert rep.obstruction == {
            "kind": "incompatible_system",
            "stage": 1,
            **failure,
            "claim": rep.obstruction["claim"],
        }
        assert rep.obstruction["claim"].startswith("no real T solves")


RESIDUAL_BLOCKED = "Im(w) + abs2(z)^3 + abs2(z)*Im(w)"


def test_residual_not_dominated_stage_algebra():
    """S = (i/2) zbar solves to T_inc = -2|z|^2 with residual -zbar, which
    the dominance check rejects; the claim names that residual only."""
    rep = run_construction(validate_normal_form(parse_wpoly(RESIDUAL_BLOCKED, 1)))
    assert rep.status == "Obstructed"
    assert rep.obstruction["kind"] == "residual_not_dominated"
    assert rep.obstruction["stage"] == 1 and rep.obstruction["j"] == 1
    assert rep.obstruction["claim"].startswith("the residual for z_1 at stage 1")
    part = rep.stages[0].parts[0]
    assert part.split.S == parse_wpoly("(i/2)*zbar", 1)
    assert part.T_inc == parse_wpoly("-2*abs2(z)", 1)
    assert part.residual == parse_wpoly("-zbar", 1)
    assert part.residual_verdict.status == "NotDominated"


@pytest.mark.parametrize("seed", range(3))
def test_residual_not_dominated_input_has_a_certificate(seed):
    """The blocked input is not a negative verdict: T = -|z|^2, K = 1
    passes the full certificate check.  -|z|^2 solves T_z = 2iS exactly;
    the stage's realify doubles the self-conjugate |z|^2 term instead."""
    r = validate_normal_form(parse_wpoly(RESIDUAL_BLOCKED, 1))
    T = parse_wpoly("-abs2(z)", 1)
    assert T.dz(0) == parse_wpoly("(i/2)*zbar", 1).scale(GaussianRational(0, 2))
    shell = sample_boundary(r, 1e-2, 2000, seed)
    checks, failed, _ = check_certificate(r, T, 1, shell)
    assert failed == [] and checks["psd"]["passed"]


def test_degree_cap_is_derived(r8, r8_report):
    """The degree cap is 2 + max(deg r, deg T_1), set once at stage 1, and
    no stage's T exceeds it."""
    stages = r8_report.stages
    assert stages[0].index == 1
    cap = 2 + max(r8.poly.degree(), stages[0].T_after.degree())
    notes = [m for m in r8_report.messages if m.startswith("degree cap")]
    assert notes == [f"degree cap set to {cap}"]
    assert all(s.T_after.degree() <= cap for s in stages)


def test_stage_split_once_per_polynomial(monkeypatch):
    """A = 8 absorbs nothing in stage 1, so stage 2 splits the g(T_1) the
    contraction metric already split: three splits (g(0), g(T_1), g(T_2))
    for four reads."""
    calls = []
    split = construct.split_S_E

    def counting(g, *args):
        calls.append(g)
        return split(g, *args)

    monkeypatch.setattr(construct, "split_S_E", counting)
    rep = run_construction(type4_domain(8))
    assert rep.status == "Certified" and len(rep.stages) == 2
    assert not rep.stages[0].absorbed
    assert len(calls) == len(set(calls)) == 3
    assert calls[1] == rep.stages[1].parts[0].g


def test_ladder_solves_few_eigenvalues(monkeypatch):
    """ball3_tilted's K search scans about 25k 4x4 points per rung (each
    distinct curve point once); the LDL* screen hands the eigen solver
    under a tenth of them."""
    scanned, solved = [], []
    stats, least = verify.psd_result, verify.least_eigenvalues

    def counting_stats(H, *args):
        scanned.append(len(H))
        return stats(H, *args)

    def counting_least(H):
        solved.append(len(H))
        return least(H)

    monkeypatch.setattr(verify, "psd_result", counting_stats)
    monkeypatch.setattr(verify, "least_eigenvalues", counting_least)
    r = _complex("Im(w) + abs2(z1) + abs2(z2) + abs2(z3) + 4*Re(z1)*Re(w) - 10*Re(w)^2", 3)
    ks = k_search(r, WPoly.zero(3), None, curves=True)
    assert ks.found and ks.K == 16 and len(ks.ladder) == 2
    assert len(scanned) == 2 and min(scanned) > 24_000
    assert sum(solved) < 0.1 * sum(scanned)


def test_k_search_standalone(r10):
    ks = k_search(r10, im_z(1).scale(Fraction(-4)), None, curves=True)
    assert ks.found and ks.K == 64
    rows = {step["K"]: step for step in ks.ladder}
    assert rows[64]["passed"]
    Ks = [step["K"] for step in ks.ladder]
    assert Ks == sorted(Ks)


def test_k_search_h_floor_fails_at_both_radii(r10):
    """|1 + T| < H_MIN on both shells: a failed result, no ladder, no crash."""
    ks = k_search(r10, re_z(1).scale(1000), None, curves=True)
    assert not ks.found and ks.K is None
    assert ks.ladder == []
    assert ks.shrunk and ks.radius == 1e-2 * 0.25
    assert ks.witness["h_floor"] == H_MIN
    assert 0 <= ks.witness["min_abs_h"] < H_MIN


def _scripted_k_search(monkeypatch, script):
    """k_search of T = 50 Re z on the ball, its ladder played from a script:
    per radius tried, whether |1 + T| fails the h floor there, and the
    (passed, K) the ladder returns (None where the floor fails).  The floor
    is set through verify.H_MIN.  |1 + T| is least on the larger shell, so
    a floor between the two shells' least values fails at the first radius
    only, and a floor of 10 at both; a ladder raises the floor to 10 when
    the next radius is to fail it.  Returns the result and the least
    |1 + T| per radius."""
    r, p = ball_like(1), WPoly.one(1) + re_z(1).scale(50)
    config = ConstructConfig()
    least = [
        float(np.abs(sample_boundary(r, x, config.samples, config.seed).values(p)).min())
        for x in (config.radius, config.radius * SHRINK)
    ]
    assert H_MIN < least[0] < least[1]
    fails = [f for f, _ in script]
    if fails[0]:
        monkeypatch.setattr(verify, "H_MIN", 10.0 if fails[1] else sum(least) / 2)
    played = iter([(i, out) for i, (f, out) in enumerate(script) if not f])

    def ladder(base, g, max_k_exp, stats):
        assert len(g) == config.samples  # no probes: the shell alone
        i, (passed, K) = next(played)
        if i + 1 < len(script) and fails[i + 1]:
            monkeypatch.setattr(verify, "H_MIN", 10.0)
        eig = 1.0 if passed else -1.0
        st = PsdCheckResult(passed, 1e-9, 2.0, 3.0, eig, {"radius": i}, 5)
        return [{"K": K, "passed": passed}], K, st

    monkeypatch.setattr(construct, "k_ladder", ladder)
    ks = k_search(r, p - WPoly.one(1), config)
    assert next(played, None) is None  # every scripted ladder ran
    return ks, least


FLOOR = (True, None)


@pytest.mark.parametrize(
    "script, found, K, witness",
    [
        ([(False, (True, 8))], True, 8, None),
        ([FLOOR, FLOOR], False, None, "h_floor"),
        ([FLOOR, (False, (True, 16))], True, 16, None),
        ([(False, (False, 2**20)), (False, (True, 64))], True, 64, None),
        (
            [(False, (False, 2**20)), (False, (False, 4))],
            False,
            None,
            {"K": 4, "point": {"radius": 1}, "min_eig": -1.0, "min_minor": 3.0,
             "min_diag": 2.0},
        ),
    ],
    ids=["first_pass", "floor_twice", "floor_then_pass", "ladder_then_pass", "ladder_twice"],
)
def test_radius_search_branches(monkeypatch, script, found, K, witness):
    """k_search's h floor, ladder and single radius shrink, branch by branch."""
    ks, least = _scripted_k_search(monkeypatch, script)
    if witness == "h_floor":
        witness = {"min_abs_h": least[1], "h_floor": 10.0}
    assert (ks.found, ks.K, ks.witness) == (found, K, witness)
    config = ConstructConfig()
    assert ks.radius == [config.radius, config.radius * SHRINK][len(script) - 1]
    assert ks.shrunk == (len(script) == 2)
    floor_fails, outcome = script[-1]
    if floor_fails:
        assert ks.ladder == [] and ks.stats is None
    else:
        passed, last_K = outcome
        assert ks.ladder == [{"K": last_K, "passed": passed}]
        assert (ks.stats is not None) == found


FLOOR_CLAIM = "|1 + T| drops below the h floor 10.0 on the shell, so no ladder K was tried"


@pytest.mark.parametrize(
    "script, claim",
    [
        ([FLOOR, FLOOR], FLOOR_CLAIM),
        ([(False, (False, 2**20)), (False, (False, 4))], "no ladder K certifies"),
        ([(False, (False, 2**20)), FLOOR], FLOOR_CLAIM),
    ],
    ids=["floor_twice", "ladder_twice", "ladder_then_floor"],
)
def test_search_failure_reads_the_witness(monkeypatch, script, claim):
    """The claim follows the witness of the final radius."""
    ks, _ = _scripted_k_search(monkeypatch, script)
    assert search_failure(ks.witness, "1 + T", "no ladder K certifies") == claim


def test_k_search_failed_claim_names_h_floor(monkeypatch):
    """With the h floor above |1 + T| everywhere, the ball's search stops
    at the floor in the shortcut and in the stage loop; the obstruction
    names the floor of the witness, not the ladder."""
    monkeypatch.setattr(verify, "H_MIN", 10.0)
    rep = run_construction(ball_like(1))
    assert rep.status == "Exhausted"
    assert rep.stages[-1].k_search.ladder == []
    assert rep.obstruction["kind"] == "k_search_failed"
    assert rep.obstruction["witness"]["h_floor"] == 10.0
    assert rep.obstruction["claim"] == (
        "nothing left to cancel and |1 + T| drops below the h floor 10.0 on "
        "the shell, so no ladder K was tried"
    )


def test_failed_final_check_withdraws_certificate(r10, monkeypatch):
    """A failed necessary check withdraws the certificate, as it fails
    `pshdef verify`; h below the floor is reported, not raised."""
    message = "h vanishes (|h| < 1/2) on the sampled shell"

    def vanishing(*args, **kwargs):
        raise verify.HFloorError(message)

    monkeypatch.setattr(verify, "necessary_conditions_check", vanishing)
    rep = run_construction(r10)
    assert rep.status == "Exhausted"
    assert rep.final is None
    assert "final verification failed; certificate withdrawn" in rep.messages
    assert rep.verification["necessary"] == {"error": message}
    assert rep.verification["psd"]["passed"]


def test_log_derivative_verdict_withdraws_certificate():
    """The log-derivative verdict decides on its own: on this input the
    final check's PSD scan passes and the verdict is NotDominated, so the
    certificate is withdrawn."""
    r = validate_normal_form(
        parse_wpoly("(1 + Re(z1) + Re(w))*(Im(w) + abs2(z1)^2 + abs2(z2)^2)")
    )
    rep = run_construction(r, ConstructConfig(seed=0))
    assert rep.status == "Exhausted"
    assert rep.final is None
    assert "final verification failed; certificate withdrawn" in rep.messages
    assert rep.verification["psd"]["passed"]
    necessary = rep.verification["necessary"]
    assert necessary["all_hold"] is False
    assert necessary["log_deriv_verdict"]["status"] == "NotDominated"


# -- the computed K ladder against the linear walk -------------------------


def check_against_linear(base, g, max_k_exp, stats):
    """k_ladder passes or fails with the linear walk, and when it passes it
    returns the walk's K and result.  It evaluates at most two rungs, only
    rung 0 when rung 0 puts every passing K above 2^max_k_exp, and its rows
    agree byte for byte with the walk's wherever both evaluated a rung.
    Returns the number of rungs evaluated."""
    evaluated = []

    def counting(H):
        evaluated.append(stats(H))
        return evaluated[-1]

    ladder, K, st = k_ladder(base, g, max_k_exp, counting)
    ref_ladder, ref_K, ref_st = linear_k_ladder(base, g, max_k_exp, stats)
    assert st.passed == ref_st.passed
    if st.passed:
        assert K == ref_K
        assert st.as_dict() == ref_st.as_dict()
    assert len(ladder) == len(evaluated) <= 2
    rung0 = evaluated[0]
    if not rung0.passed and lift_exp(base + rank_one_term(g), g, rung0.tol) > max_k_exp:
        assert len(ladder) == 1
    Ks = [row["K"] for row in ladder]
    assert Ks[0] == 1 and Ks == sorted(set(Ks)) and Ks[-1] == K
    ref_rows = {row["K"]: json.dumps(row) for row in ref_ladder}
    for row in ladder:
        if row["K"] in ref_rows:
            assert json.dumps(row) == ref_rows[row["K"]]
    return len(evaluated)


def _complex(text, nz):
    return validate_normal_form(parse_wpoly(text, nz))


def _real(text, nx):
    return validate_real_normal_form(parse_rpoly(text, nx))


@pytest.mark.parametrize(
    "lane, text, n",
    [
        ("complex", "Im(w) + abs2(z)^2 + 100*abs2(z)^3 + 4*Re(z)*Re(w) - 10*Re(w)^2", 1),
        ("complex", "Im(w) + abs2(z1) + abs2(z2) + abs2(z3) + 4*Re(z1)*Re(w) - 10*Re(w)^2", 3),
        ("real", "y + x^2", 1),
        ("real", "y + x y + x^2", 1),
    ],
    ids=["A=10", "ball3_tilted", "real y+x^2", "real y+xy+x^2"],
)
def test_boundary_hessian_of_r_squared_is_rank_one(lane, text, n):
    """Both lanes scan K r as (K - 1) 2 g g* over rung 0.  That rests on
    Hess(r^2) = 2 g g* + 2 r Hess r: on a shell the difference is at most
    2 |r| |Hess r|, so a constant times the shell's max_residual, plus
    rounding of the entries."""
    if lane == "complex":
        r = _complex(text, n)
        shell = sample_boundary(r, 1e-2, 500, seed=0)
        g = np.stack(
            [compiled(r.d_z(j)).eval(shell.Z, shell.W) for j in range(r.nz)]
            + [compiled(r.d_w()).eval(shell.Z, shell.W)],
            axis=1,
        )
    else:
        r = _real(text, n)
        shell = sample_real_boundary(r, 1e-2, 500, seed=0)
        g = np.stack(
            [r.gradient()[j].eval(shell.Z, shell.W) for j in range(r.nx)]
            + [r.d_y().eval(shell.Z, shell.W)],
            axis=1,
        )
    exact = hessian_values(r.poly * r.poly, shell.Z, shell.W)
    hess_r = np.abs(hessian_values(r.poly, shell.Z, shell.W)).max()
    gg = rank_one_term(g)
    scale = max(1.0, np.abs(gg).max())
    bound = 4 * shell.residuals.max() * hess_r + 16 * np.finfo(float).eps * scale
    assert np.abs(exact - gg).max() <= bound
    # the bound is tight enough to tell the wrong scale or orientation
    assert np.abs(exact - gg / 2).max() > 1e6 * bound
    if lane == "complex":
        assert np.abs(exact - rank_one_term(np.conj(g))).max() > 1e6 * bound


NZ2_QUARTIC = "Im(w) + abs2(z1)^2 + abs2(z2)^2 + 4*Re(z1)*Re(w) - 10*Re(w)^2"
BALL3_TILTED = "Im(w) + abs2(z1) + abs2(z2) + abs2(z3) + 4*Re(z1)*Re(w) - 10*Re(w)^2"
LEVI_MATRIX = "Im(w) + abs2(z1) + abs2(z2) + 3*Re(z1*zbar2)"

# every catalog fixture, the nz >= 2 inputs beside them, and the real lane
LADDER_RUNS = {
    "A=10": lambda: run_construction(type4_domain(10)),
    "A=8": lambda: run_construction(type4_domain(8)),
    "mixed_c3": lambda: run_construction(mixed_c3_example()),
    "ball1": lambda: run_construction(ball_like(1)),
    "ball2": lambda: run_construction(ball_like(2)),
    "ball3": lambda: run_construction(ball_like(3)),
    "nz2_quartic": lambda: run_construction(_complex(NZ2_QUARTIC, 2)),
    "ball3_tilted": lambda: run_construction(_complex(BALL3_TILTED, 3)),
    "levi_matrix": lambda: run_construction(_complex(LEVI_MATRIX, 2)),
    "real y+x^2": lambda: convex_multiplier(_real("y + x^2", 1)),
    "real y+x^4": lambda: convex_multiplier(_real("y + x^4", 1)),
    "real y+x1^2+x2^4": lambda: convex_multiplier(_real("y + x1^2 + x2^4", 2)),
    "real y+xy+x^2": lambda: convex_multiplier(_real("y + x y + x^2", 1)),
}


@pytest.mark.parametrize("name", list(LADDER_RUNS))
def test_k_ladder_matches_linear_walk(name, watch_k_ladder):
    """Every ladder a run searches, at every stage and radius, evaluates at
    most two rungs."""

    def check(base, g, max_k_exp, stats):
        assert check_against_linear(base, g, 0, stats) == 1
        return check_against_linear(base, g, max_k_exp, stats)

    checked = watch_k_ladder(check)
    LADDER_RUNS[name]()
    assert checked and max(checked) <= 2


@pytest.mark.parametrize("name", list(LADDER_RUNS))
def test_k_search_matches_full_layout(name, monkeypatch):
    """Every K search a run makes scans each distinct probe-curve point once
    and gives the found flag, K, ladder rows and witness, byte for byte,
    of the search over the full (curve, t) layout."""
    searched = []

    def checked(r, T, config=None, curves=False):
        got = k_search(r, T, config, curves)
        want = full_layout_k_search(r, T, config, curves)
        assert json.dumps(got.as_dict()) == json.dumps(want.as_dict())
        searched.append(curves)
        return got

    # the real lane binds k_search at import
    for module in (construct, realconvex):
        monkeypatch.setattr(module, "k_search", checked)
    LADDER_RUNS[name]()
    assert searched and all(searched) == (not name.startswith("real"))


def _is_entry_planar(A) -> bool:
    """Whether each entry of a stack (m, n, n), or each column of points
    (m, n), is one contiguous array over the points."""
    return all(A[(slice(None), *i)].flags.c_contiguous for i in np.ndindex(A.shape[1:]))


@pytest.mark.parametrize(
    "lane, text, n",
    [("complex", BALL3_TILTED, 3), ("real", "y + x1^2 + x2^4 + x1 y", 2)],
    ids=["WPoly", "RPoly"],
)
def test_hessian_stack_is_entry_planar(lane, text, n):
    """hessian_stack stores each entry's values over the points contiguously,
    for a WPoly table (complex) and an RPoly one (real)."""
    if lane == "complex":
        r = _complex(text, n)
        shell = sample_boundary(r, 1e-2, 300, seed=0)
    else:
        r = _real(text, n)
        shell = sample_real_boundary(r, 1e-2, 300, seed=0)
    H = hessian_stack(hessian_entries(r.poly * r.poly), shell.values)
    assert H.shape == (300, n + 1, n + 1)
    assert H.dtype == (np.complex128 if lane == "complex" else np.float64)
    assert _is_entry_planar(H)


@pytest.mark.parametrize(
    "name, rungs",
    [("A=8", 2), ("ball3_tilted", 2), ("levi_matrix", 1), ("real y+xy+x^2", 2)],
)
def test_k_ladder_rungs_are_base_plus_rank_one(name, rungs, watch_k_ladder):
    """Both lanes hand the ladder an entry-planar base and gradient, and
    every stack the ladder hands its stats is entry-planar and equals
    base + 2^e 2 g g*, formed densely, float for float."""

    def check(base, g, max_k_exp, stats):
        assert _is_entry_planar(base) and _is_entry_planar(g)
        stacks = []

        def recording(H):
            stacks.append(H)
            return stats(H)

        ladder, _, _ = k_ladder(base, g, max_k_exp, recording)
        assert len(stacks) == len(ladder)
        for row, H in zip(ladder, stacks):
            assert _is_entry_planar(H)
            assert np.array_equal(H, base + row["K"] * rank_one_term(g))
        return len(stacks)

    counts = watch_k_ladder(check)
    LADDER_RUNS[name]()
    assert counts and max(counts) == rungs


# the nz >= 2 benchmark rows and the two type4 worked examples
SEARCH_ONCE = {
    "A=10": lambda: type4_domain(10),
    "A=8": lambda: type4_domain(8),
    "mixed_c3": mixed_c3_example,
    "nz2_quartic": lambda: _complex(NZ2_QUARTIC, 2),
    "ball3_tilted": lambda: _complex(BALL3_TILTED, 3),
    "ball2": lambda: ball_like(2),
    "levi_matrix": lambda: _complex(LEVI_MATRIX, 2),
}


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", list(SEARCH_ONCE))
def test_each_candidate_is_k_searched_once(monkeypatch, name, seed):
    """A run K-searches no T twice: a stage that merges nothing reads the
    search its T already had.  levi_matrix's shortcut search of T = 0
    fails and its stage 1 merges nothing, so its one search is stage 1's."""
    searched = []
    search = construct.k_search

    def counted(r, T, *args, **kwargs):
        searched.append(T)
        return search(r, T, *args, **kwargs)

    monkeypatch.setattr(construct, "k_search", counted)
    config = ConstructConfig(seed=seed)
    rep = run_construction(SEARCH_ONCE[name](), config)
    assert searched and len(set(searched)) == len(searched)
    if name == "levi_matrix":
        assert len(searched) == 1
        r = SEARCH_ONCE[name]()
        fresh = search(r, WPoly.zero(2), config, curves=True)
        assert rep.stages[0].index == 1
        assert rep.stages[0].k_search.as_dict() == fresh.as_dict()


def test_k_ladder_high_top_rung(monkeypatch, watch_k_ladder):
    """Rounding in the PSD scan grows with K (A=10 reads min_eig about
    -K 2^-55 at its worst point), so from 2^26 up the top rung fails the
    -tol test although K = 64 passes.  The search must still find 64."""
    monkeypatch.setattr(construct, "MAX_K_EXP", 40)
    checked = watch_k_ladder(
        lambda base, g, max_k_exp, stats: check_against_linear(base, g, 30, stats)
    )
    rep = run_construction(type4_domain(10))
    assert checked
    assert rep.status == "Certified" and rep.final.K == 64
    ladder = rep.stages[0].k_search.ladder
    assert max(row["K"] for row in ladder) <= 2**8


def _psd_stats(m, n):
    rng = np.random.default_rng(0)
    Z = rng.normal(size=(m, n - 1)) + 0j
    W = rng.normal(size=m) + 0j
    return lambda H: psd_stats(H, Z, W, 1e-9)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("seed", range(8))
def test_k_ladder_random_rank_one_step(n, seed):
    """Hermitian base plus a PSD rank-one step 2 g g*, the shape of both
    lanes: the rung read off rung 0 is the walk's, and each search
    evaluates at most two rungs."""
    rng = np.random.default_rng(seed)
    m = 40
    M = rng.normal(size=(m, n, n)) + 1j * rng.normal(size=(m, n, n))
    g = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    gg = g[:, :, None] * np.conj(g)[:, None, :]
    # the stack passes once 2K outgrows a at every point, so the top of a
    # sets the answer anywhere from rung 0 to beyond the top rung
    a = 2.0 ** rng.uniform(-3, 23) * rng.uniform(0, 1, size=(m, 1, 1))
    base = M @ M.conj().transpose(0, 2, 1) / n - a * gg
    for max_k_exp in (0, 1, 2, 5, 20, 30):
        assert check_against_linear(base, g, max_k_exp, _psd_stats(m, n)) <= 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_k_ladder_negative_direction_orthogonal_to_step(n):
    """A negative direction the rank-one term cannot reach: phi >= 0, so
    no K lifts it; the search stops at rung 0 and fails like the walk."""
    rng = np.random.default_rng(n)
    m = 30
    D = np.zeros((m, n, n), dtype=complex)
    D[:, 0, 0] = -rng.uniform(1, 2, size=m)
    for j in range(1, n):
        D[:, j, j] = rng.uniform(1, 2, size=m)
    g0 = np.zeros((m, n), dtype=complex)
    g0[:, 1:] = rng.normal(size=(m, n - 1)) + 1j * rng.normal(size=(m, n - 1))
    # the same structure in a random unitary frame per point
    Q, _ = np.linalg.qr(rng.normal(size=(m, n, n)) + 1j * rng.normal(size=(m, n, n)))
    base = Q @ D @ Q.conj().transpose(0, 2, 1)
    g = np.einsum("mjk,mk->mj", Q, g0)
    stats = _psd_stats(m, n)
    assert lift_exp(base + rank_one_term(g), g, 1e-9) == math.inf
    ladder, K, st = k_ladder(base, g, 20, stats)
    assert [row["K"] for row in ladder] == [1] and not st.passed
    check_against_linear(base, g, 20, stats)


def test_k_ladder_minor_failure_above_prediction():
    """At K = 32 the least eigenvalue reads -tol/2, but the (z, w) minor
    L (2K - 2 - b) stays below -tol until K = 64: the minor's threshold
    sets e, so the search scans K = 1 and 64 only, like the walk's
    answer."""
    m = 4
    L = 1e6 * (1 + np.arange(m))
    b = 62 + 0.5e-9  # 2 (K - 1) - b = -tol / 2 at K = 32
    g = np.zeros((m, 2), dtype=complex)
    g[:, 1] = 1.0
    H1 = np.zeros((m, 2, 2), dtype=complex)
    H1[:, 0, 0] = L
    H1[:, 1, 1] = -b
    base = H1 - rank_one_term(g)
    stats = _psd_stats(m, 2)
    ladder, K, st = k_ladder(base, g, 20, stats)
    assert [row["K"] for row in ladder] == [1, 64] and K == 64 and st.passed
    check_against_linear(base, g, 20, stats)
    at32 = stats(base + 32 * rank_one_term(g))
    assert at32.min_eig >= -1e-9 > at32.min_minor


@pytest.mark.parametrize("a, b", [(-0.5e-9, 0.0), (0.0, 1e-3)], ids=["falling", "flat"])
def test_k_ladder_minor_cannot_lift(a, b):
    """A failing (z, w) minor whose slope in K is negative (diagonal entry
    -tol/2) or zero (diagonal entry 0, g along w) is lifted by no K: the
    search stops at rung 0 and fails like the walk."""
    m = 3
    g = np.zeros((m, 2), dtype=complex)
    g[:, 1] = 1.0
    H1 = np.zeros((m, 2, 2), dtype=complex)
    H1[:, 0, 0] = a
    H1[:, 0, 1] = H1[:, 1, 0] = b
    H1[:, 1, 1] = 4.0 * (1 + np.arange(m))
    base = H1 - rank_one_term(g)
    stats = _psd_stats(m, 2)
    rung0 = stats(H1)
    assert rung0.min_minor < -1e-9 and not rung0.passed
    assert lift_exp(H1, g, rung0.tol) == math.inf
    ladder, K, st = k_ladder(base, g, 20, stats)
    assert [row["K"] for row in ladder] == [1] and not st.passed
    check_against_linear(base, g, 20, stats)


@pytest.mark.parametrize(
    "max_k_exp, Ks", [(8, [1]), (9, [1, 512])], ids=["top_2^8", "top_2^9"]
)
def test_k_ladder_lift_above_top(max_k_exp, Ks):
    """Rung 0 reads -1000 along w, which 2K g g* lifts from K = 501 on:
    lift_exp lies between 8 and 9.  With the top rung at 2^8 the search
    stops at rung 0 and fails like the walk; at 2^9 it scans 512 and
    passes like the walk."""
    m = 4
    g = np.zeros((m, 2), dtype=complex)
    g[:, 1] = 1.0
    H1 = np.zeros((m, 2, 2), dtype=complex)
    H1[:, 0, 0] = 1 + np.arange(m)
    H1[:, 1, 1] = -1000.0
    base = H1 - rank_one_term(g)
    stats = _psd_stats(m, 2)
    assert 8 < lift_exp(H1, g, 1e-9) < 9
    ladder, K, st = k_ladder(base, g, max_k_exp, stats)
    assert [row["K"] for row in ladder] == Ks and st.passed == (max_k_exp == 9)
    assert check_against_linear(base, g, max_k_exp, stats) == len(Ks)


# -- lift_exp against the dense reference -------------------------------


def _assert_lift_matches_reference(H1, g, tol):
    """lift_exp returns the dense reference's float on a C-ordered stack
    and on its entry-planar copy; returns that float."""
    want = reference_lift_exp(H1, g, tol)
    assert lift_exp(H1, g, tol) == want
    assert lift_exp(entry_planar(H1), entry_planar(g), tol) == want
    return want


def _rung0(rng, m, n, real, share):
    """Rung 0 H1 = P + (2 - a) g g* of a base P - a g g*, P with
    eigenvalues in [1/2, 2] and |g| = 1: a share of the points has a in
    [6, 2^12], so one eigenvalue below -2 that a finite K lifts, and the
    others a = 0, no eigenvalue below 1/2.  Returns H1, g and the bad
    points."""
    M = rng.normal(size=(m, n, n))
    g = rng.normal(size=(m, n))
    if not real:
        M = M + 1j * rng.normal(size=(m, n, n))
        g = g + 1j * rng.normal(size=(m, n))
    Q, _ = np.linalg.qr(M)
    P = (Q * rng.uniform(0.5, 2, size=(m, 1, n))) @ np.conj(np.swapaxes(Q, 1, 2))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    bad = rng.uniform(size=m) < share
    a = np.where(bad, 2.0 ** rng.uniform(np.log2(6), 12, size=m), 0.0)
    return P + (2 - a)[:, None, None] * rank_one_term(g) / 2, g, bad


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize(
    "share", [1.0, 0.5, 0.0], ids=["all bad", "some bad", "none bad"]
)
def test_lift_exp_matches_reference_on_random_rungs(share, n, real):
    """Every point, some points or no point with one eigenvalue below
    -tol: the column-planar lift reads the reference's float, finite
    exactly when some point is bad."""
    rng = np.random.default_rng([n, int(real), int(4 * share)])
    tol = 1e-9
    H1, g, bad = _rung0(rng, 300, n, real, share)
    d, _ = verify.ldl(H1, -tol)
    assert np.array_equal(np.sum(d < 0, axis=1), bad.astype(int))
    lift = _assert_lift_matches_reference(H1, g, tol)
    assert math.isfinite(lift) == bool(bad.any())


def _diagonal_rung0(m, n, diag):
    H1 = np.zeros((m, n, n), dtype=complex)
    for j, v in enumerate(diag):
        H1[:, j, j] = v
    return H1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lift_exp_matches_reference_on_each_inf_path(n):
    """Two negative pivots, phi >= 0, a non-finite pivot and a failing
    minor that does not grow each lift no point: both read inf.  A minor
    that fails while no point is bad, and grows, gives a finite lift."""
    m, tol = 20, 1e-9
    g = np.zeros((m, n), dtype=complex)
    g[:, -1] = 1.0
    ones = [1.0] * (n - 2)
    cases = {
        # a second eigenvalue below -tol, which no rank-one term lifts
        "two negative pivots": _diagonal_rung0(m, n, [-1.0, *ones, -2.0]),
        # the negative direction is orthogonal to g
        "phi >= 0": _diagonal_rung0(m, n, [-1.0, *ones, 2.0]),
        # minor L (-tol / 2) < -tol with slope -tol / 2 < 0
        "falling minor": _diagonal_rung0(m, n, [*ones, -0.5 * tol, 4.0]),
        # a zero pivot of C = H1 + tol I: every later pivot is not finite
        "zero pivot": _diagonal_rung0(m, n, [-tol, *ones, -1.0]),
        "non-finite pivot": _diagonal_rung0(m, n, [-1.0, *ones, 2.0]),
    }
    H1 = cases["non-finite pivot"]
    H1[7, -1, 0] = H1[7, 0, -1] = np.nan
    for name, H1 in cases.items():
        assert _assert_lift_matches_reference(H1, g, tol) == math.inf, name
    # the minor's slope L |g_n|^2 is positive: no point is bad, yet K lifts it
    grows = _diagonal_rung0(m, n, [1e6, *ones, -0.25 * tol])
    assert math.isfinite(_assert_lift_matches_reference(grows, g, tol))


@pytest.mark.parametrize("name", list(LADDER_RUNS))
def test_lift_exp_matches_reference_on_ladder_runs(name, watch_k_ladder):
    """On the rung-0 stack of every ladder a run searches, lift_exp and the
    dense reference return the same float."""

    def check(base, g, max_k_exp, stats):
        rung0 = []

        def recording(H):
            rung0.append((H, stats(H)))
            return rung0[0][1]

        k_ladder(base, g, 0, recording)
        H1, st = rung0[0]
        return _assert_lift_matches_reference(H1, g, st.tol)

    lifts = watch_k_ladder(check)
    LADDER_RUNS[name]()
    assert lifts


# -- the top rung ---------------------------------------------------------


@pytest.mark.parametrize(
    "make, grad2, unresolved",
    [
        (lambda: type4_domain(10), 0.25, 23),
        (lambda: validate_real_normal_form(parse_rpoly("y + x^2")), 1.0, 21),
    ],
    ids=["complex", "real"],
)
def test_max_k_exp_is_bounded(make, grad2, unresolved):
    """The top rung is fixed at 2^20, where the scan still resolves a
    rung: its largest entry, about 2K |grad r(0)|^2, rounds by eps times
    that, under half the slack TOL in each lane; from 2^unresolved on, the
    rounding is about TOL itself (0.93 TOL)."""
    r = make()
    g = gradient_stack(r, np.zeros((1, r.poly.n)), np.zeros(1))
    assert float(np.sum(np.abs(g) ** 2)) == grad2

    def rounding(e):
        return np.finfo(float).eps * 2 * 2**e * grad2

    assert MAX_K_EXP == 20 and MAX_K_EXP < unresolved
    assert rounding(unresolved - 1) < TOL / 2 < rounding(unresolved) < TOL


def test_top_rung_refuses_what_the_slack_cannot_resolve():
    """A = 8 + 10^-7 needs a K past the top rung: the run stops at
    k_search_failed, and no rung it scans lies above 2^MAX_K_EXP."""
    rep = run_construction(type4_domain(Fraction(80000001, 10000000)))
    assert rep.status == "Exhausted"
    assert rep.obstruction["kind"] == "k_search_failed"
    rungs = [row["K"] for s in rep.stages if s.k_search for row in s.k_search.ladder]
    assert rungs and max(rungs) <= 2**MAX_K_EXP


def test_config_accepts_samples_up_to_the_cap():
    assert ConstructConfig(samples=MAX_SAMPLES).samples == MAX_SAMPLES == 10**6
    with pytest.raises(ValueError, match="^samples must be <= 1000000, got 1000001$"):
        ConstructConfig(samples=MAX_SAMPLES + 1)


def test_negative_seed_is_rejected():
    """No Halton scramble has a negative seed: the config names the field.
    One row covers both lanes, since `RealConfig is ConstructConfig`
    (`test_cli.py::test_config_fields`)."""
    assert ConstructConfig(seed=0).seed == 0
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        ConstructConfig(seed=-1)


def test_k_ladder_top_rung_at_max_k_exp():
    """g = 2^-500 along w and rung 0 reads -2^22.5 there, so lift_exp lies
    between 1021 and 1022: with max_k_exp = 1022, the largest whose scale
    2^(max_k_exp + 1) is a finite double, the ladder scans the top rung
    K = 2^1022, and the rung passes."""
    m = 4
    g = np.zeros((m, 2), dtype=complex)
    g[:, 1] = 2.0**-500
    H1 = np.zeros((m, 2, 2), dtype=complex)
    H1[:, 0, 0] = 1 + np.arange(m)
    H1[:, 1, 1] = -(2.0**22.5)
    base = H1 - rank_one_term(g)
    stats = _psd_stats(m, 2)
    assert 1021 < lift_exp(H1, g, 1e-9) < 1022
    ladder, K, st = k_ladder(base, g, 1022, stats)
    assert [row["K"] for row in ladder] == [1, 2**1022] and K == 2**1022 and st.passed
    assert check_against_linear(base, g, 1022, stats) == 2


@pytest.mark.parametrize(
    "H1, g",
    [
        ([[1.0, 0.0], [0.0, -(2.0**-20)]], [0.0, 2.0**-530]),
        ([[1e200, 0.0], [0.0, -1e200]], [0.0, 1.0]),
    ],
    ids=["threshold", "minor"],
)
def test_lift_exp_out_of_range_is_silent(H1, g):
    """A lift out of double range is inf, with no warning: the threshold
    -1/(2 phi) overflows the divide for phi = -2^-1040, and the minor a c
    overflows the multiply for entries of 1e200."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lift_exp(np.array([H1]), np.array([g]), 1e-9) == math.inf


def test_report_dict_shape(r10_report):
    d = r10_report.as_dict()
    assert d["schema_version"] == 1
    assert d["mode"] == "complex"
    assert d["status"] == "Certified"
    assert d["defining_function"]["nz"] == 1
    assert "z^2 zbar^2" in d["defining_function"]["text"]
    assert isinstance(d["stages"], list) and d["stages"]
    tr = r10_report.trace()
    assert "status: Certified" in tr
    assert "T = -4*Im(z)" in tr
