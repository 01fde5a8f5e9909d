"""Frame invariance: verdicts under exact unitary changes of the z coordinates.

Whether a local plurisubharmonic defining function exists does not depend
on holomorphic coordinates.  Each input is mapped through
`SparsePoly.substitute` by a Gaussian-rational unitary map `z -> U z`, with
`w` fixed: the phase `(3 + 4i)/5` on one `z_j`, a transposition, or the
rotation `(3/5, 4/5)` of a pair.  At seed 0 the mapped run must end with the
unmapped run's status and obstruction kind, and a certified mapped run's
`(T, K)`, pulled back through `U^-1 = U*`, must pass `check_certificate` on
the unmapped input on the shells of seeds 0-3.  K is not compared: it is
read off a sampled scan, and it moves under the maps (A = 8 goes from 16 to
512, A = 17/2 from 256 to 128).
"""

import functools
from fractions import Fraction

import pytest

from conftest import BALL3_TILTED, LEVI_MATRIX, NZ2_QUARTIC
from pshdef.catalog import ball_like, half_space, mixed_c3_example, type4_domain
from pshdef.construct import ConstructConfig, NotPseudoconvexError, run_construction
from pshdef.cr import validate_normal_form
from pshdef.exprparse import parse_rpoly, parse_wpoly
from pshdef.gaussrat import GaussianRational
from pshdef.verify import check_certificate, sample_boundary
from pshdef.wirtinger import DimensionMismatch, RPoly, WPoly, im_w, im_z


INPUTS = {
    **{
        f"A={a}": functools.partial(type4_domain, Fraction(a))
        for a in ["7", "15/2", "8", "17/2", "9", "10", "12", "16"]
    },
    "mixed_c3": mixed_c3_example,
    "nz2_quartic": lambda: validate_normal_form(parse_wpoly(NZ2_QUARTIC, 2)),
    "ball3_tilted": lambda: validate_normal_form(parse_wpoly(BALL3_TILTED, 3)),
    **{f"ball_like({n})": functools.partial(ball_like, n) for n in (1, 2, 3)},
    **{f"half_space({n})": functools.partial(half_space, n) for n in (1, 2)},
    "levi_matrix": lambda: validate_normal_form(parse_wpoly(LEVI_MATRIX, 2)),
}

PHASE = GaussianRational(Fraction(3, 5), Fraction(4, 5))
COS, SIN = Fraction(3, 5), Fraction(4, 5)


def unitary_maps(nz: int) -> dict:
    """Name -> the matrix U of `z -> U z`: each phase, transposition and
    pair rotation over nz coordinates."""

    def matrix(entries):
        U = [[int(j == k) for k in range(nz)] for j in range(nz)]
        for (j, k), u in entries.items():
            U[j][k] = u
        return U

    out = {f"phase{j + 1}": matrix({(j, j): PHASE}) for j in range(nz)}
    for j in range(nz):
        for k in range(j + 1, nz):
            pair = f"{j + 1}{k + 1}"
            out["swap" + pair] = matrix({(j, j): 0, (k, k): 0, (j, k): 1, (k, j): 1})
            out["rot" + pair] = matrix(
                {(j, j): COS, (k, k): COS, (j, k): -SIN, (k, j): SIN}
            )
    return out


def images(U) -> list:
    """The slot images of `z -> U z`, `w -> w`: `z_j` goes to
    `sum_k U_jk z_k`, and `zbar_j` to its conjugate."""
    nz = len(U)
    z = [
        sum((WPoly.var_z(nz, k).scale(u) for k, u in enumerate(row)), WPoly.zero(nz))
        for row in U
    ]
    return z + [p.conjugate() for p in z] + [WPoly.var_w(nz), WPoly.var_wbar(nz)]


def inverse(U):
    """U^-1 = U*, the conjugate transpose of a unitary U."""
    conj = [[GaussianRational.of(u).conjugate() for u in row] for row in U]
    return [list(col) for col in zip(*conj)]


@functools.cache
def domain(name: str):
    return INPUTS[name]()


def outcome(r):
    """(status, obstruction kind, report) at seed 0; a failed Levi precheck
    reads as `pshdef construct` reports it."""
    try:
        rep = run_construction(r)
    except NotPseudoconvexError:
        return "Obstructed", "not_pseudoconvex", None
    return rep.status, rep.obstruction and rep.obstruction["kind"], rep


@functools.cache
def unmapped(name: str) -> tuple:
    return outcome(domain(name))[:2]


# Defects the maps expose, each deterministic at seeds 0-3.
XFAIL = {
    ("levi_matrix", "rot12"): "the rotated input raises NotPseudoconvexError, "
    "the unrotated one ends Exhausted / k_search_failed: levi_scan reads only "
    "the diagonal of the Levi matrix (ROADMAP item 1)",
    ("mixed_c3", "rot12"): "the rotated input ends Exhausted / k_search_failed, "
    "the unrotated one at fixpoint; it is not pseudoconvex (ROADMAP item 1)",
    ("A=8", "phase1"): "certified in one stage at K = 512 with the pull-back of "
    "-4*Im(z), which fails the PSD scan at seeds 0, 1 and 2: a sampled pass "
    "(ROADMAP items 9 and 14)",
    ("A=17/2", "phase1"): "certified at K = 128, below the sampled limit 143.8; "
    "the pull-back fails the PSD scan at seed 0 (ROADMAP items 9 and 14)",
}

ROWS = [
    (name, frame) for name in INPUTS for frame in unitary_maps(domain(name).nz)
]


@pytest.mark.parametrize("name, frame", ROWS, ids=[f"{n}-{f}" for n, f in ROWS])
def test_substitute_round_trip(name, frame):
    """A map, then its inverse, gives the input back exactly, and the mapped
    polynomial at a point is the input at the mapped point."""
    p = domain(name).poly
    U = unitary_maps(p.nz)[frame]
    q = p.substitute(images(U))
    assert q.is_real()
    assert q.substitute(images(inverse(U))) == p
    z = [GaussianRational(Fraction(j + 1, 7), Fraction(-2, j + 3)) for j in range(p.nz)]
    w = GaussianRational(Fraction(1, 5), Fraction(1, 9))
    Uz = [sum((u * v for u, v in zip(row, z)), GaussianRational(0)) for row in U]
    assert q.eval(z, w) == p.eval(Uz, w)


@pytest.mark.parametrize(
    "name, frame",
    [
        pytest.param(
            *row,
            marks=pytest.mark.xfail(
                reason=XFAIL[row], raises=AssertionError, strict=True
            ),
        )
        if row in XFAIL
        else row
        for row in ROWS
    ],
    ids=[f"{n}-{f}" for n, f in ROWS],
)
def test_verdict_is_frame_invariant(name, frame):
    r = domain(name)
    U = unitary_maps(r.nz)[frame]
    status, kind, rep = outcome(validate_normal_form(r.poly.substitute(images(U))))
    assert (status, kind) == unmapped(name)
    if status != "Certified":
        return
    T = rep.final.T.substitute(images(inverse(U)))
    for seed in range(4):
        shell = sample_boundary(
            r, rep.verification["radius"], ConstructConfig().samples, seed
        )
        _, failed, _ = check_certificate(r, T, rep.final.K, shell)
        assert not failed, f"seed {seed}: the pull-back fails {failed}"


def test_substitute_rpoly_images():
    """RPoly images: a real shear of x and its inverse, exact scalars for
    evaluation, and the tube map x -> Im z, y -> Im w into the complex lane."""
    p = parse_rpoly("y + x1^2 + x2^4 + x1*y", 2)
    x1, x2, y = RPoly.var_x(2, 0), RPoly.var_x(2, 1), RPoly.var_y(2)
    q = p.substitute([x1 + x2.scale(2), x2, y])
    assert q == parse_rpoly("y + (x1 + 2*x2)^2 + x2^4 + (x1 + 2*x2)*y", 2)
    assert q.substitute([x1 - x2.scale(2), x2, y]) == p
    value = -1 + Fraction(1, 4) + 81 - Fraction(1, 2)  # at x = (1/2, 3), y = -1
    assert p.substitute([Fraction(1, 2), 3, -1]) == value
    tube = p.substitute([im_z(2, 0), im_z(2, 1), im_w(2)])
    assert tube == parse_wpoly("Im(w) + Im(z1)^2 + Im(z2)^4 + Im(z1)*Im(w)", 2)
    with pytest.raises(DimensionMismatch, match="^2 images for 3 exponent slots$"):
        p.substitute([x1, x2])
