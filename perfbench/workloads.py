"""The three workloads: request generation, the timed call, outcome checks.

Every request hands the program only expression text, so each one parses
its input and builds a fresh `DefiningFunction` with empty per-r caches,
as one `pshdef` CLI invocation does.  Requests are grouped into passes that
hold each input class once; a run measures whole passes, so every seed
weighs the classes equally.

The program is reached through module attributes (`construct.run_construction`,
not a from-import), so the tracer's patches see every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from pshdef import construct, cr, dominance, exprparse, realconvex, verify, wirtinger

import expected
from expected import Construct, Convex, Verify

RADIUS = 1e-2  # ConstructConfig / RealConfig / `pshdef verify` defaults
SAMPLES = 2000
TOL = 1e-9
MAX_K = 2**20


@dataclass(frozen=True)
class Outcome:
    """What one request answered, reduced to the fields the table checks."""

    verdict: str  # status, "pass"/"fail", or the name of an exception raised
    crashed: bool = False  # raised an exception no table row expects
    T: str | None = None
    K: int | None = None
    stages: int | None = None
    radius: float | None = None


@dataclass
class Workload:
    tail_pct: int  # the verdict_ref.tail percentile
    min_passes: int  # so that >= 10 requests lie beyond tail_pct
    passes: object  # () -> iterator over lists of (row, request seed)
    expected_T: dict  # row -> parsed expected T (WPoly or RPoly)


def _type4_passes(rng: random.Random):
    """A=8, one one-stage A and one sub-threshold A per pass.

    The one-stage and sub-threshold values are dealt from reshuffled decks,
    so over every five passes each family member appears equally often.
    """
    ones, subs = [], []
    while True:
        if not ones:
            ones = rng.sample(expected.TYPE4_ONE_STAGE, len(expected.TYPE4_ONE_STAGE))
        if not subs:
            subs = rng.sample(
                expected.TYPE4_SUB_THRESHOLD, len(expected.TYPE4_SUB_THRESHOLD)
            )
        rows = [
            expected.type4_row(expected.TYPE4_TWO_STAGE),
            expected.type4_row(ones.pop()),
            expected.type4_row(subs.pop()),
        ]
        rng.shuffle(rows)
        yield rows


def _shuffled(rows: tuple):
    def passes(rng: random.Random):
        while True:
            yield rng.sample(rows, len(rows))

    return passes


TYPE4_ROWS = tuple(
    expected.type4_row(A)
    for A in (expected.TYPE4_TWO_STAGE,)
    + expected.TYPE4_ONE_STAGE
    + expected.TYPE4_SUB_THRESHOLD
)

# name -> (tail percentile, minimum passes, every row, seeded pass generator).
# The tail is the highest percentile with at least ten requests beyond it
# after the minimum number of passes, which a 30 s run reaches on this
# host; the minimum keeps that true on a slower one.
WORKLOADS = {
    # The exact algebra and the dominance gate do the work; the 2x2 K ladder
    # has a closed form.  A=8 is the slow class that sets the tail.  Fifteen
    # passes put p77 a quarter of the way into the A=8 requests, clear of the
    # fastest one, whose time swings most from run to run.
    "type4-staged": (77, 15, TYPE4_ROWS, _type4_passes),
    # The batched eigvalsh of the K ladder dominates.  First-rung and
    # full-ladder inputs side by side, so a ladder change that helps one
    # and costs the other shows; the Levi-matrix counterexample stays in.
    "multiz-ladder": (50, 4, expected.MULTIZ, _shuffled(expected.MULTIZ)),
    # Checking finished certificates and the real lane, no staged search: a
    # dominance or ladder change should leave it where it is.  Of its ten
    # classes four are faster and four slower than the two A=10 checks at
    # K=1 and K=64, which take the same time, so the median lies mid-way
    # through those two rather than on the flank of one.
    "certify-check": (
        95,
        20,
        expected.CERTIFY + expected.CONVEX,
        _shuffled(expected.CERTIFY + expected.CONVEX),
    ),
}

# One cheap request per lane (staged search with the ladder, certificate
# check, real lane), run untimed before measuring so that first-call costs
# inside numpy and scipy do not land on whichever class a seed puts first.
WARMUP = tuple(
    row
    for row in expected.MULTIZ + expected.CERTIFY + expected.CONVEX
    if row.name in ("ball2", "verify A=10 T=0", "convex y+x^2")
)


def _seeded(make_passes, rng: random.Random):
    """Give every request its own construction or shell seed, drawn from the
    run's generator.

    How long a request takes depends on its sample points, by up to a third
    on one input; drawing a new seed per request averages that out within
    a run instead of fixing it for the whole run.  Request seeds are even,
    so `seed + 1` is a shell no request sampled (see `recheck_certificate`).
    """
    for rows in make_passes(rng):
        yield [(row, 2 * rng.randrange(2**30)) for row in rows]


def build(name: str, seed: int) -> Workload:
    """The workload's inputs: its seeded pass generator and the parsed table."""
    tail_pct, min_passes, rows, make_passes = WORKLOADS[name]
    expected_T = {}
    for row in rows:
        if isinstance(row, Construct) and row.T is not None:
            nz = exprparse.parse_wpoly(row.r).nz
            expected_T[row] = exprparse.parse_wpoly(row.T, nz)
        elif isinstance(row, Convex):
            nx = exprparse.parse_rpoly(row.r).nx
            expected_T[row] = exprparse.parse_rpoly(row.T, nx)
    return Workload(
        tail_pct,
        min_passes,
        lambda: _seeded(make_passes, random.Random(seed)),
        expected_T,
    )


# -- the timed call -------------------------------------------------------


def verify_certificate(row: Verify, seed: int) -> bool:
    """In-process `pshdef verify`: psd, identity and necessary conditions."""
    r = cr.validate_normal_form(exprparse.parse_wpoly(row.r))
    p1 = exprparse.parse_wpoly(row.h, r.nz)
    T = p1 - wirtinger.WPoly.one(r.nz)
    h = p1 + r.poly.scale(Fraction(row.K))
    shell = verify.sample_boundary(r, RADIUS, SAMPLES, seed)
    psd = verify.psd_check(h * r.poly, shell, TOL)
    ident = verify.identity_check_prop31(r, row.K, T, shell)
    try:
        nec = verify.necessary_conditions_check(r, h, shell, row.K, TOL)
    except ValueError:  # h vanishes on the shell: the CLI reports a failure
        return False
    nec_failed = not nec.all_hold or (
        nec.log_deriv_verdict is not None
        and nec.log_deriv_verdict.status == "NotDominated"
    )
    return psd.passed and ident.passed and not nec_failed


def call(row, seed: int):
    """One request, from expression text to verdict; this is what is timed."""
    if isinstance(row, Construct):
        r = cr.validate_normal_form(exprparse.parse_wpoly(row.r))
        try:
            return construct.run_construction(r, construct.ConstructConfig(seed=seed))
        except construct.NotPseudoconvexError as e:
            return e
    if isinstance(row, Verify):
        return verify_certificate(row, seed)
    r = realconvex.validate_real_normal_form(exprparse.parse_rpoly(row.r))
    return realconvex.convex_multiplier(r, realconvex.RealConfig(seed=seed))


# -- checking answers -----------------------------------------------------


def summarise(row, answer) -> Outcome:
    if isinstance(answer, construct.NotPseudoconvexError):
        return Outcome(type(answer).__name__)
    if isinstance(answer, Exception):
        return Outcome(type(answer).__name__, crashed=True)
    if isinstance(row, Verify):
        return Outcome("pass" if answer else "fail")
    if isinstance(row, Convex):
        final = answer.final or {}
        radius = answer.k_search["radius"] if answer.k_search else None
        return Outcome(answer.status, T=final.get("T"), K=final.get("K"), radius=radius)
    final = answer.final
    if final is None:
        return Outcome(answer.status, stages=len(answer.stages))
    return Outcome(
        answer.status,
        T=dominance.real_basis_str(final.T),
        K=final.K,
        stages=len(answer.stages),
        radius=answer.verification["radius"],
    )


def _certified_T(row, outcome: Outcome):
    if isinstance(row, Convex):
        nx = exprparse.parse_rpoly(row.r).nx
        return exprparse.parse_rpoly(outcome.T, nx)
    nz = exprparse.parse_wpoly(row.r).nz
    return exprparse.parse_wpoly(outcome.T, nz)


def judge(work: Workload, row, outcome: Outcome) -> tuple[bool, str | None]:
    """(right, problem): right means the table's verdict; problem is an
    answer that is neither the table's nor the row's recorded open defect."""
    if isinstance(row, Verify):
        want = "pass" if row.passes else "fail"
        if outcome.verdict == want:
            return True, None
        if outcome.verdict == row.open_defect:
            return False, None
        return False, f"{row.name}: {outcome.verdict}, expected {want}"
    if outcome.verdict != row.status:
        if isinstance(row, Construct) and outcome.verdict == row.open_defect:
            return False, None
        return False, f"{row.name}: {outcome.verdict}, expected {row.status}"
    if row.status != "Certified":
        return True, None
    if _certified_T(row, outcome) != work.expected_T[row]:
        return False, f"{row.name}: T = {outcome.T}, expected {row.T}"
    if isinstance(row, Construct) and row.stages not in (None, outcome.stages):
        return False, f"{row.name}: {outcome.stages} stages, expected {row.stages}"
    K = outcome.K
    if not (isinstance(K, int) and 1 <= K <= MAX_K and K & (K - 1) == 0):
        return False, f"{row.name}: K = {K} is not a power of two <= 2^20"
    return True, None


def recheck_certificate(row, outcome: Outcome, seed: int) -> bool:
    """PSD and identity checks of a returned certificate on a fresh shell.

    The shell's seed differs from the one the construction sampled with, so
    a certificate tuned to its own sample points does not pass by accident.
    """
    T = _certified_T(row, outcome)
    if isinstance(row, Convex):
        r = realconvex.validate_real_normal_form(exprparse.parse_rpoly(row.r))
        h = realconvex.RPoly.const(r.nx, 1) + r.poly.scale(outcome.K) + T
        shell = realconvex.sample_real_boundary(r, outcome.radius, SAMPLES, seed + 1)
        return realconvex.real_hessian_check(h * r.poly, shell, TOL).passed
    r = cr.validate_normal_form(exprparse.parse_wpoly(row.r))
    h = wirtinger.WPoly.one(r.nz) + T + r.poly.scale(Fraction(outcome.K))
    shell = verify.sample_boundary(r, outcome.radius, SAMPLES, seed + 1)
    return (
        verify.psd_check(h * r.poly, shell, TOL).passed
        and verify.identity_check_prop31(r, outcome.K, T, shell).passed
    )
