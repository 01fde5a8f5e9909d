"""Ratio domination: exact certificates and probe-curve escapes."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    BALL3_TILTED,
    LEVI_MATRIX,
    NZ2_QUARTIC,
    loop_curve_escape,
    random_wpoly,
)
from pshdef import construct
from pshdef.catalog import ball_like, half_space, mixed_c3_example, type4_domain
from pshdef.construct import run_construction
from pshdef.cr import validate_normal_form
from pshdef.dominance import (
    ESCAPE_RUN,
    STABLE,
    Bound,
    Curve,
    ProbeCurves,
    _curve_escape,
    boundary_quadratic,
    bound_poly_for,
    default_probes,
    dominance_check,
    levi_dominance_gate,
    probe_curves,
    real_basis_str,
    real_form,
    split_S_E,
)
from pshdef.exprparse import parse_wpoly
from pshdef.gaussrat import GaussianRational
from pshdef.wirtinger import WPoly, canonical_str, im_w, im_z, re_z, re_w, realify


def eval_real_form(rf: dict, point):
    """rf at a point given in its slot order (x_1..x_nz, y_1..y_nz, u, v)."""
    acc = Fraction(0)
    for e, c in rf.items():
        t = c
        for base, exp in zip(point, e):
            t *= base**exp
        acc += t
    return acc


def test_real_form_exact():
    rng = random.Random(13)
    for nz in (1, 2):
        zk, wbar = WPoly.var_z(nz, nz - 1), WPoly.var_wbar(nz)
        cubes = (zk * zk.conjugate()) ** 3 + realify(zk**3 * wbar**2)
        for k in range(13):
            # twelve random polynomials, then exponents above 2 in one slot
            p = realify(random_wpoly(rng, nz, 4 if nz == 1 else 3)) if k < 12 else cubes
            rf = real_form(p)
            assert all(len(e) == 2 * nz + 2 for e in rf)
            for _ in range(4):
                xs = [Fraction(rng.randint(-3, 3), 5) for _ in range(nz)]
                ys = [Fraction(rng.randint(-3, 3), 7) for _ in range(nz)]
                u = Fraction(rng.randint(-3, 3), 4)
                v = Fraction(rng.randint(-3, 3), 3)
                z = [GaussianRational(x, y) for x, y in zip(xs, ys)]
                w = GaussianRational(u, v)
                direct = p.eval(z, w)
                assert direct.im == 0
                assert direct.re == eval_real_form(rf, xs + ys + [u, v])


def test_real_form_slot_order_nz2():
    """Re z2 * Im z1 * Re w lands on the (x_2, y_1, u) slots."""
    p = re_z(2, 1) * im_z(2, 0) * re_w(2)
    assert real_form(p) == {(0, 1, 1, 0, 1, 0): Fraction(1)}
    assert real_basis_str(p) == "Re(z2)*Im(z1)*Re(w)"


def test_real_form_rejects_nonreal():
    with pytest.raises(ValueError):
        real_form(WPoly.var_z(1))


def test_real_basis_str_round_trip():
    cases = [
        im_z(1).scale(Fraction(-4)),
        (im_z(1) * im_z(1)).scale(Fraction(8)) - (re_z(1) * re_z(1)).scale(Fraction(8)),
        re_w(1) + im_z(1) * re_z(1),
        WPoly.zero(1),
    ]
    rng = random.Random(29)
    for _ in range(6):
        cases.append(realify(random_wpoly(rng, max_deg=3)))
    for p in cases:
        s = real_basis_str(p)
        assert parse_wpoly(s, nz=1) == p
    cases2 = [
        im_z(2, 1).scale(Fraction(-4)) + re_z(2, 0) * im_w(2),
        re_z(2, 0) * re_z(2, 1) - (im_z(2, 1) * im_z(2, 1)).scale(Fraction(3, 2)),
        WPoly.zero(2),
    ]
    for _ in range(6):
        cases2.append(realify(random_wpoly(rng, nz=2, max_deg=3)))
    for p in cases2:
        s = real_basis_str(p)
        assert parse_wpoly(s, nz=2) == p


def test_real_basis_str_known_text():
    assert real_basis_str(im_z(1).scale(Fraction(-4))) == "-4*Im(z)"


def test_zero_numerator_dominated(ball):
    v = dominance_check([WPoly.zero(1)], Bound.LEVI_ONLY, ball)
    assert v.status == "Dominated"
    assert v.constant == 0.0


def test_positive_origin_bound(ball):
    v = levi_dominance_gate(ball)
    assert v.status == "Dominated"
    assert "positive at the origin" in v.reason
    assert v.constant is not None and v.constant > 0


def test_flat_bound_nonzero_numerator(halfspace):
    v = dominance_check([WPoly.one(1)], Bound.LEVI_ONLY, halfspace)
    assert v.status == "NotDominated"
    assert "nonvanishing" in v.reason
    assert v.witness["point"]["w"] == [0.0, 0.0]


def test_gate_r10_dominated(r10):
    v = levi_dominance_gate(r10)
    assert v.status == "Dominated"
    assert "positive definite" in v.reason
    assert v.constant is not None and math.isfinite(v.constant)


def test_gate_r8_not_dominated(r8):
    v = levi_dominance_gate(r8)
    assert v.status == "NotDominated"
    d = v.witness["direction"]
    assert len(d) == 3
    assert abs(d[1]) <= 1e-3  # Im z = 0 on the escape line
    assert abs(d[0] - 4 * d[2]) <= 1e-3  # Re z = 4 Re w
    assert v.witness["final_ratio"] >= 100.0
    ratios = v.witness["ratios"]
    assert all(b > a for a, b in zip(ratios[-5:], ratios[-4:]))


def test_gate_witness_deterministic(r8):
    a = levi_dominance_gate(r8).as_dict()
    b = levi_dominance_gate(r8).as_dict()
    assert a == b


def test_dominated_constant_bounds_fresh_probes(r10):
    v = levi_dominance_gate(r10)
    v2 = levi_dominance_gate(r10, seed=7)
    assert v2.status == "Dominated"
    # stored C carries a 2x margin, so the probe points of a fresh seed stay under it
    assert max(v2.shell_ratios) <= v.constant


def test_bound_widening_is_monotone(r10, r8, ball):
    """Anything dominated by the Levi alone stays dominated by Levi + grad."""
    for r in (r10, ball):
        for p in (r.d_z(0), r.higher_order_part().dz(0)):
            narrow = dominance_check([p], Bound.LEVI_ONLY, r)
            if narrow.status != "Dominated":
                continue
            wide = dominance_check([p], Bound.LEVI_PLUS_GRAD, r)
            assert wide.status == "Dominated"


def test_boundary_quadratic_r10():
    r = type4_domain(10)
    from pshdef.dominance import _sylvester_pd, bound_poly_for

    M = boundary_quadratic(bound_poly_for(r, Bound.LEVI_ONLY), r)
    assert M is not None
    assert _sylvester_pd(M)
    for row in M:
        for entry in row:
            assert isinstance(entry, Fraction)


def test_boundary_quadratic_r8_not_pd():
    r = type4_domain(8)
    from pshdef.dominance import _sylvester_pd, bound_poly_for

    M = boundary_quadratic(bound_poly_for(r, Bound.LEVI_ONLY), r)
    assert M is None or not _sylvester_pd(M)


def test_split_S_E_partition(r8):
    g = r8.higher_order_part().dz(0)
    res = split_S_E(g, r8, Bound.LEVI_PLUS_GRAD)
    assert res.S + res.E == g
    assert len(res.terms) == len(g.terms)
    for t in res.terms:
        assert t.verdict.status in ("Dominated", "NotDominated", "Unknown")
    # every E monomial individually carries a Dominated verdict
    dominated = {t.monomial for t in res.terms if t.verdict.status == "Dominated"}
    for m, c in res.E.terms.items():
        assert canonical_str(WPoly(g.nz, {m: c})) in dominated


def test_a8_contraction_split_matches_one_group_calls(monkeypatch):
    """A=8's stage-2 contraction split (16 terms: 2 escapes, 14 stable),
    classified as one batch, gives each monomial the verdict a one-group
    call gives it alone."""
    r = type4_domain(8)
    calls = []

    def recording(g, domain, bound, seed=0, j=0):
        calls.append((g, bound, seed, j))
        return split_S_E(g, domain, bound, seed, j)

    monkeypatch.setattr(construct, "split_S_E", recording)
    run_construction(r)
    ((g, bound, seed, j),) = [c for c in calls if len(c[0].terms) == 16]
    res = split_S_E(g, r, bound, seed, j)
    reasons = [t.verdict.reason for t in res.terms]
    assert reasons.count("ratio escapes along a probe curve") == 2
    assert reasons.count(STABLE) == 14
    for (m, c), term in zip(g.sorted_terms(), res.terms):
        mono = WPoly(g.nz, {m: c})
        alone = dominance_check(mono, bound, r, seed, j=j)
        assert term.monomial == canonical_str(mono)
        # json keeps nan and inf comparable
        assert json.dumps(term.verdict.as_dict()) == json.dumps(alone.as_dict())


def full_expansion_quadratic(B, r):
    """Reference boundary quadratic: the real forms of all of B and F, of
    which only the degree-2 part is kept."""
    d = 2 * B.nz + 1
    c_v, quad = Fraction(0), {}
    for e, c in real_form(B).items():
        if sum(e) == 1:
            if e[d] != 1:
                return None
            c_v = c
        elif sum(e) == 2 and e[d] == 0:
            quad[e[:d]] = quad.get(e[:d], 0) + c
    if c_v:
        for e, c in real_form(r.higher_order_part()).items():
            if sum(e) == 2 and e[d] == 0:
                quad[e[:d]] = quad.get(e[:d], 0) - c_v * c
    M = [[Fraction(0)] * d for _ in range(d)]
    for e, c in quad.items():
        a, b = [i for i in range(d) for _ in range(e[i])]
        M[a][b] += c / 2
        M[b][a] += c / 2
    return M


@pytest.mark.parametrize(
    "make",
    [
        lambda: half_space(1),
        lambda: ball_like(1),
        lambda: ball_like(3),
        lambda: type4_domain(8),
        lambda: type4_domain(10),
        mixed_c3_example,
    ],
    ids=["half_space", "ball", "ball3", "A=8", "A=10", "mixed_c3"],
)
def test_boundary_quadratic_matches_full_expansion(make):
    """Every bound the pipeline tests (Levi alone, with |grad_z r|^2, and the
    gate's Levi sum), plus Levi with |r_{z_j}|^2 as one more input."""
    r = make()
    levi_sum = WPoly.zero(r.nz)
    bounds = []
    for j in range(r.nz):
        bounds += [bound_poly_for(r, bound, j) for bound in Bound]
        bounds.append(r.levi(j) + r.d_z(j) * r.d_zbar(j))
        levi_sum = levi_sum + r.levi(j)
    for B in bounds + [levi_sum]:
        assert boundary_quadratic(B, r) == full_expansion_quadratic(B, r)


def test_probe_families_share_the_stock_curves():
    """Only the 32 seeded curves are built per seed."""
    a, b = default_probes(2, seed=0), default_probes(2, seed=1)
    n = len(a) - 32
    assert all(x is y for x, y in zip(a[:n], b[:n]))
    assert a[n:] != b[n:]
    assert default_probes(2, seed=1) == b


@pytest.mark.parametrize("nz", [1, 2, 3])
def test_project_probes_curve_points(nz):
    """The curve points, read through the set's index, match a per-curve
    loop byte for byte: curve i's are z = zdir t^zpow with Re w = wamp
    t^wpow at the set's t values."""
    r = ball_like(nz)
    curves = default_probes(nz, 0)
    proj = probe_curves(r, 0)
    assert proj.curves == curves
    t = proj.t_values
    Z = np.empty((len(curves), len(t), nz), dtype=complex)
    U = np.empty((len(curves), len(t)))
    for i, c in enumerate(curves):
        for k in range(nz):
            Z[i, :, k] = c.zdir[k] * t**c.zpow
        U[i] = c.wamp * t**c.wpow
    # the set holds each distinct point once; its index lays out the grid
    assert proj.Z[proj.index].tobytes() == Z.tobytes()
    assert proj.W.real[proj.index].tobytes() == U.tobytes()


def test_probe_family_deterministic():
    a = default_probes(1, seed=0)
    b = default_probes(1, seed=0)
    assert len(a) == len(b)
    for ca, cb in zip(a, b):
        assert ca.describe() == cb.describe()


# -- the curve-escape scan against the per-curve loop ----------------------

PARITY_DOMAINS = {
    "A=7": lambda: type4_domain(7),
    "A=8": lambda: type4_domain(8),
    "A=10": lambda: type4_domain(10),
    "A=12": lambda: type4_domain(12),
    "mixed_c3": mixed_c3_example,
    "ball1": lambda: ball_like(1),
    "ball2": lambda: ball_like(2),
    "ball3": lambda: ball_like(3),
    "nz2_quartic": lambda: validate_normal_form(parse_wpoly(NZ2_QUARTIC, 2)),
    "ball3_tilted": lambda: validate_normal_form(parse_wpoly(BALL3_TILTED, 3)),
    "levi_matrix": lambda: validate_normal_form(parse_wpoly(LEVI_MATRIX, 2)),
}


def assert_same_escapes(numerator_sets, B, proj):
    """The vectorized scan, of each numerator set alone and of all of them
    as one batch, picks the loop reference's curve and witness for each
    set.  Returns the witnesses (None where no curve escapes)."""
    batch = _curve_escape(numerator_sets, B, proj)
    assert len(batch) == len(numerator_sets)
    for numerators, got in zip(numerator_sets, batch):
        i, expected = loop_curve_escape(numerators, B, proj)
        alone = _curve_escape([numerators], B, proj)[0]
        if i is None:
            assert alone is None and got is None
            continue
        assert alone["curve"] == proj.curves[i].describe()
        # json keeps nan and inf comparable and is what reports are made of
        assert json.dumps(alone) == json.dumps(expected)
        assert json.dumps(got) == json.dumps(expected)
    return batch


@pytest.mark.parametrize("name", list(PARITY_DOMAINS))
def test_curve_escape_matches_loop(name):
    """The numerator sets the gate and the stage-1 split send to the curve
    scan, under every bound the pipeline uses."""
    r = PARITY_DOMAINS[name]()
    nz = r.nz
    proj = probe_curves(r, 0)
    gate_B = r.levi(0)
    for j in range(1, nz):
        gate_B = gate_B + r.levi(j)
    bounds = [gate_B]
    for j in range(nz):
        bounds += [bound_poly_for(r, bound, j) for bound in Bound]
    numerator_sets = [[r.d_z(j) for j in range(nz)]]
    for j in range(nz):
        g = r.poly.dz(j).dwbar()
        numerator_sets.append([g])
        numerator_sets += [[WPoly(nz, {m: c})] for m, c in g.terms.items()]
    numerator_sets = [
        [p for p in nums if not p.is_zero()]
        for nums in numerator_sets
        if any(not p.is_zero() for p in nums)
    ]
    witnesses = [
        w for B in bounds for w in assert_same_escapes(numerator_sets, B, proj)
    ]
    if name in ("A=7", "A=8"):
        assert any(witnesses)  # the gradient escapes the Levi form


def synthetic_probes(rows, ok):
    """ProbeCurves whose scan of P = z against B = |w|^2 reads the
    given ratios: a finite ratio x sits at z = sqrt(x), w = 1; inf at
    z = 1, w = 0; nan at z = nan, w = 1.  Cells with the same ratio and
    flag share one point, in the order of their first cell, as repeated
    curve points share one in `probe_curves`."""
    rows = np.asarray(rows, dtype=float)
    nc, nt = rows.shape
    cells = list(zip(rows.flat, np.asarray(ok, dtype=bool).flat))
    first = {}
    cell_of = [first.setdefault((x.tobytes(), f), i) for i, (x, f) in enumerate(cells)]
    kept = np.unique(cell_of)
    x = rows.reshape(-1)[kept]
    Z = np.sqrt(np.where(np.isfinite(x), x, 0.0)).astype(complex)
    Z[np.isinf(x)] = 1.0
    Z[np.isnan(x)] = np.nan
    W = np.where(np.isinf(x), 0.0, 1.0).astype(complex)
    curves = tuple(Curve((complex(i + 1),), 1, 0.0, 1) for i in range(nc))
    return ProbeCurves(
        curves=curves,
        Z=Z[:, None],
        W=W,
        ok=np.array([cells[i][1] for i in kept]),
        index=np.searchsorted(kept, cell_of).reshape(nc, nt),
        t_values=np.array([2.0**-e for e in range(3, 3 + nt)]),
    )


INF, NAN = math.inf, math.nan
RISE = [1.0, 2.0, 20.0, 40.0, 80.0, 160.0, 320.0]  # escapes, final 320

SYNTHETIC = {
    "plain": ([RISE], [[True] * 7]),
    # the hole breaks the rise unless it is skipped
    "hole skipped": (
        [[1.0, 2.0, 20.0, 40.0, 0.5, 80.0, 160.0, 320.0]],
        [[True, True, True, True, False, True, True, True]],
    ),
    # skipping the hole pulls the falling 50 into the tail
    "hole pulls in a fall": (
        [[1.0, 50.0, 20.0, 40.0, 80.0, 90.0, 320.0]],
        [[True, True, False, True, True, True, True]],
    ),
    "last point unconverged": (
        [RISE + [0.0]],
        [[True] * 7 + [False]],
    ),
    "short rows": (
        [RISE, RISE, [1.0] * 7],
        [
            [False, False, False, True, True, True, True],
            [True, False, True, False, True, False, True],
            [False] * 7,
        ],
    ),
    "exactly ESCAPE_RUN points": (
        [RISE],
        [[False] * (7 - ESCAPE_RUN) + [True] * ESCAPE_RUN],
    ),
    "inf and nan in the tail": (
        [
            [1.0, 2.0, 20.0, INF, 80.0, 160.0, 320.0],
            [1.0, 2.0, 20.0, 40.0, 80.0, 160.0, NAN],
            [1.0, 2.0, 20.0, 40.0, 80.0, 160.0, INF],
        ],
        [[True] * 7] * 3,
    ),
    "inf and nan before the tail": (
        [
            [INF, NAN, 20.0, 40.0, 80.0, 160.0, 320.0],
            [NAN, INF, 20.0, 40.0, 80.0, 160.0, 300.0],
        ],
        [[True] * 7] * 2,
    ),
    "tie on the final ratio": (
        [
            [1.0, 2.0, 20.0, 40.0, 80.0, 160.0, 200.0],
            [1.0, 2.0, 30.0, 50.0, 90.0, 170.0, 320.0],
            RISE,
            [1.0, 2.0, 3.0, 40.0, 80.0, 160.0, 320.0],
        ],
        [[True] * 7] * 4,
    ),
    "below the floor or the growth": (
        [
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 99.0],
            [1.0, 2.0, 50.0, 60.0, 70.0, 80.0, 390.0],
        ],
        [[True] * 7] * 2,
    ),
    "flat step": (
        [[1.0, 2.0, 20.0, 40.0, 40.0, 160.0, 320.0]],
        [[True] * 7],
    ),
}


@pytest.mark.parametrize("case", list(SYNTHETIC))
def test_curve_escape_matches_loop_synthetic(case):
    rows, ok = SYNTHETIC[case]
    proj = synthetic_probes(rows, ok)
    z = WPoly.var_z(1)
    # P = z reads the given ratios; 2z reads four times them, and (z, z)
    # twice them, with the same inf, nan and holes
    witness, *_ = assert_same_escapes(
        [[z], [z.scale(2)], [z, z]], parse_wpoly("w*wbar", 1), proj
    )
    expected_escape = case in (
        "plain",
        "hole skipped",
        "last point unconverged",
        "exactly ESCAPE_RUN points",
        "inf and nan before the tail",
        "tie on the final ratio",
    )
    assert (witness is not None) == expected_escape
    if case == "tie on the final ratio":
        # rows 1, 2 and 3 tie at 320; the first one wins
        assert witness["curve"] == proj.curves[1].describe()
