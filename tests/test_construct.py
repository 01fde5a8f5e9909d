"""Staged multiplier construction and the K ladder."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_wpoly
from pshdef.catalog import type4_domain
from pshdef.construct import (
    ConstructConfig,
    NotPseudoconvexError,
    absorb_r_multiples,
    k_search,
    run_construction,
    solve_stage,
    strong_psc_shortcut,
)
from pshdef.gaussrat import GaussianRational
from pshdef.verify import psd_check, sample_boundary
from pshdef.wirtinger import WPoly, im_z, re_w, re_z


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
    cand = strong_psc_shortcut(ball)
    assert cand is not None
    assert cand.T.is_zero()
    assert cand.K is None


def test_shortcut_degenerate_no(r10, halfspace):
    assert strong_psc_shortcut(r10) is None
    assert strong_psc_shortcut(halfspace) is None


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
    assert rep.verification["identity"]["passed"]
    assert rep.verification["necessary"]["all_hold"]
    assert rep.gate["status"] == "Dominated"


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
    assert rep.gate["status"] == "NotDominated"


def test_certified_replay(r8, r8_report):
    """A stored certificate re-verifies on a fresh shell."""
    rep = r8_report
    h = rep.final.h_poly(r8)
    rho = h * r8.poly
    shell = sample_boundary(r8, rep.verification["radius"], 500, seed=3)
    res = psd_check(rho, shell, 1e-9)
    assert res.passed


def test_r7_raises(r7):
    with pytest.raises(NotPseudoconvexError) as ei:
        run_construction(r7, ConstructConfig(samples=4000))
    scan = ei.value.scan
    assert scan.min_value < -1e-9
    assert scan.worst_point is not None


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


def test_degree_cap(r8):
    rep = run_construction(r8, ConstructConfig(degree_cap=2))
    assert rep.status == "Certified"
    assert rep.final.T.degree() <= 2


def test_absorb_disabled(r8):
    # Without absorption the re-entrant Re z Re w term keeps feeding the
    # mixed derivative, so the loop cannot close within the stage budget.
    rep = run_construction(r8, ConstructConfig(absorb=False))
    assert rep.status == "Exhausted"
    for s in rep.stages:
        assert s.absorbed == []


def test_k_search_standalone(r10):
    ks = k_search(r10, im_z(1).scale(Fraction(-4)))
    assert ks.found and ks.K == 64
    assert ks.ladder[-1]["passed"]
    assert all(not step["passed"] for step in ks.ladder[:-1])


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
