"""Multiplier construction: stage solving, absorption, K search, the loop.

The engine builds candidates h = 1 + Kr + T for a plurisubharmonic
defining function rho = h r.  Each stage splits the current mixed
derivative (rho_n)_{z w-bar} into a significant part S and a dominated
error E, solves T_z = 2iS by z-antidifferentiation + realification,
drops r-multiples from the increment, and reads K off the scan at K = 1.
The split and the residual are measured against the Levi form.
Certification is numeric: the PSD scan of h r on a boundary shell plus the
log-derivative verdict (`verify.check_certificate`); obstruction reports
carry the witness that stopped the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .cr import DefiningFunction, Domain, levi_origin_value
from .dominance import (
    Bound,
    DominanceVerdict,
    SplitResult,
    dominance_check,
    probe_curves,
    project_probes,
    real_basis_str,
    split_S_E,
)
from .gaussrat import GaussianRational
from .numeval import compiled
from .report import SCHEMA_VERSION
from .verify import (
    TOL,
    PsdCheckResult,
    check_certificate,
    check_sampling,
    gradient_stack,
    h_floor_failure,
    hessian_values,
    ldl,
    levi_scan,
    psd_stats,
    sample_boundary,
)
from .wirtinger import SparsePoly, WPoly, canonical_str, realify

SHRINK = 0.25
MAX_K_EXP = 1022  # the top rung's scale 2^(e + 1) stays a finite double


def check_search_config(config, *counts: str) -> None:
    """Reject the sampling and ladder settings no scan can certify from,
    and negative values of the named counts.  max_k_exp is
    at most MAX_K_EXP, so that a rung's scale 2^(max_k_exp + 1) is a
    finite double.  Shared by the complex and the real lane's configs;
    raises ValueError."""
    check_sampling(config.radius, config.samples, config.seed)
    if config.max_k_exp > MAX_K_EXP:
        raise ValueError(f"max_k_exp must be <= {MAX_K_EXP}, got {config.max_k_exp}")
    for name in ("max_k_exp", *counts):
        value = getattr(config, name)
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


class NotPseudoconvexError(RuntimeError):
    """Levi scan found a negative tangential value at the requested radius."""

    def __init__(self, scan):
        self.scan = scan
        p = scan.worst_point
        super().__init__(
            f"negative Levi value {scan.min_value:.3e} at z={p['z']}, w={p['w']}"
        )


@dataclass
class ConstructConfig:
    radius: float = 1e-2
    samples: int = 2000
    seed: int = 0
    max_stages: int = 4
    max_k_exp: int = 20

    def __post_init__(self):
        check_search_config(self, "max_stages")

    def as_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class MultiplierCandidate:
    """h = 1 + Kr + T; K stays None until a ladder search fixes it."""

    T: WPoly
    K: int | None
    stage: int
    residual: WPoly
    absorbed_terms: list

    def as_dict(self) -> dict:
        return {
            "T": real_basis_str(self.T),
            "K": self.K,
            "stage": self.stage,
            "residual": canonical_str(self.residual),
            "absorbed_terms": list(self.absorbed_terms),
        }


@dataclass
class KSearchResult:
    found: bool
    K: int | None
    ladder: list
    witness: dict | None
    radius: float
    shrunk: bool
    # the passing rung's PSD statistics; not part of the report
    stats: PsdCheckResult | None = field(default=None, repr=False, compare=False)

    def as_dict(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "stats"}


@dataclass
class StagePart:
    j: int
    g: WPoly
    split: SplitResult
    T_inc: WPoly
    residual: WPoly
    residual_verdict: DominanceVerdict | None

    def as_dict(self) -> dict:
        return {
            "j": self.j,
            "g": canonical_str(self.g),
            "split": self.split.as_dict(),
            "T_inc": real_basis_str(self.T_inc),
            "residual": canonical_str(self.residual),
            "residual_verdict": self.residual_verdict.as_dict()
            if self.residual_verdict is not None
            else None,
        }


@dataclass
class StageRecord:
    index: int
    parts: list
    absorbed: list
    T_increment: WPoly
    T_after: WPoly
    k_search: KSearchResult | None

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "parts": [p.as_dict() for p in self.parts],
            "absorbed": list(self.absorbed),
            "T_increment": real_basis_str(self.T_increment),
            "T_after": real_basis_str(self.T_after),
            "k_search": self.k_search.as_dict() if self.k_search else None,
        }


@dataclass
class ConstructionReport:
    status: str  # "Certified" | "Obstructed" | "Exhausted"
    r_text: str
    nz: int
    config: ConstructConfig
    levi_precheck: dict
    shortcut_used: bool
    stages: list
    final: MultiplierCandidate | None
    obstruction: dict | None
    verification: dict | None
    contraction: list
    cancellation: dict | None
    messages: list

    def as_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "mode": "complex",
            "status": self.status,
            "defining_function": {"nz": self.nz, "text": self.r_text},
            "config": self.config.as_dict(),
            "levi_precheck": self.levi_precheck,
            "shortcut_used": self.shortcut_used,
            "stages": [s.as_dict() for s in self.stages],
            "final": self.final.as_dict() if self.final else None,
            "obstruction": self.obstruction,
            "verification": self.verification,
            "contraction": self.contraction,
            "cancellation": self.cancellation,
            "messages": list(self.messages),
        }

    def trace(self) -> str:
        lines = [f"status: {self.status}"]
        lines.append(f"r = {self.r_text}")
        if self.shortcut_used:
            lines.append("shortcut: Levi form positive at 0, T = 0")
        for s in self.stages:
            lines.append(f"stage {s.index}:")
            for p in s.parts:
                lines.append(f"  j={p.j + 1}: g = {canonical_str(p.g)}")
                lines.append(f"    S = {canonical_str(p.split.S)}")
                lines.append(f"    E = {canonical_str(p.split.E)}")
                lines.append(f"    T_inc = {real_basis_str(p.T_inc)}")
                lines.append(f"    residual = {canonical_str(p.residual)}")
            if s.absorbed:
                lines.append(f"  absorbed: {', '.join(s.absorbed)}")
            lines.append(f"  T = {real_basis_str(s.T_after)}")
            if s.k_search:
                if s.k_search.found:
                    lines.append(f"  K search: K = {s.k_search.K}")
                else:
                    lines.append("  K search: failed (witness recorded)")
        if self.final is not None:
            lines.append(
                f"final: T = {real_basis_str(self.final.T)}, K = {self.final.K}"
            )
        if self.obstruction:
            ob = self.obstruction
            lines.append(f"obstruction: {ob['kind']} at stage {ob['stage']}")
            if "monomial" in ob:
                lines.append(f"  j={ob['j']}: monomial {ob['monomial']}")
        for m in self.messages:
            lines.append(f"note: {m}")
        return "\n".join(lines)


# -- stage algebra --------------------------------------------------------


def solve_stage(S: WPoly, j: int = 0):
    """Solve T_z = 2iS on the realified side.

    Returns (T_inc, residual) with T_inc = realify(antideriv_z(2iS)) and
    residual the extra term d/dz_j of the conjugated antiderivative, so
    d/dz_j T_inc = 2iS + residual holds exactly.
    """
    q = S.scale(GaussianRational(0, Fraction(2))).antideriv_z(j)
    T_inc = realify(q)
    residual = q.conjugate().dz(j)
    return T_inc, residual


def absorb_r_multiples(T: WPoly, r: DefiningFunction):
    """Drop conjugate-pair terms of T that are real multiples of r terms.

    Pairs {m, conj m} of T equal to a real rational lambda times the same
    pair inside r's higher-order part are removed (they re-enter through
    Kr).  Returns (reduced T, list of removed polynomials).
    """
    F = r.higher_order_part()
    reduced = T
    absorbed = []
    seen = set()
    for m, c in T.sorted_terms():
        if m in seen:
            continue
        mc = T.conj_key(m)
        seen.add(m)
        seen.add(mc)
        base = F.terms.get(m)
        if base is None:
            continue
        lam = c / base
        if lam.im != 0 or lam.re == 0:
            continue
        if mc != m:
            base_c = F.terms.get(mc)
            tc = T.terms.get(mc)
            if base_c is None or tc is None or tc / base_c != lam:
                continue
        pair = WPoly(T.nz, {m: c} if mc == m else {m: c, mc: T.terms[mc]})
        reduced = reduced - pair
        absorbed.append(pair)
    return reduced, absorbed


# -- K ladder -------------------------------------------------------------


def _at(mask, *columns):
    """The columns at the points where mask holds: the columns themselves,
    not copies, when it holds at every point."""
    return columns if mask.all() else tuple(x[mask] for x in columns)


def lift_exp(H1, g, tol: float) -> float:
    """Least real e such that the stack H1 + 2k g g*, k = 2^e - 1, passes
    the pass rule with tolerance tol at every point, in exact arithmetic;
    inf when no K does.

    H1 is rung 0's stack base + 2 g g*, so k = K - 1 reaches rung K, and
    each statistic has a closed form in k.  A last-slot minor with
    entries a, b, c is affine in k, the k^2 part cancelling:
    m(k) = m0 + 2k (a |g_n|^2 + c |g_j|^2 - 2 Re(conj(b) g_j conj(g_n))),
    so a failing minor needs a positive slope.  The eigenvalues are read
    off one `ldl` of C = H1 + tol I with right side g.  A point whose
    least eigenvalue is below -tol has a negative pivot; two negative
    pivots mean, by Sylvester's law of inertia, a second eigenvalue below
    -tol, which by interlacing no rank-one update lifts.  With one, and
    phi = g* C^-1 g = sum |y|^2 / d, the matrix determinant lemma gives
    det(C + 2k g g*) = det C (1 + 2k phi), so the point passes exactly
    when phi < 0 and k >= -1/(2 phi).  The diagonal test is implied by the
    eigenvalue test.  A value that is not finite lifts no point, and so
    neither does C singular where it matters: a zero pivot leaves the
    later pivots non-finite, or phi when it is a bad point's last.

    `ldl` returns d and y column-planar, so phi is summed column by column:
    over every point, with no copy, when every point is bad, else over
    the bad points.  Each minor and its slope are formed from the
    contiguous entries H1[:, j, j], H1[:, j, -1], H1[:, -1, -1] and the
    columns g[:, j], g[:, -1], not from strided diagonals of the stack.
    """
    d, y = ldl(H1, -tol, g)
    negative = np.sum(d < 0, axis=1)
    if not np.isfinite(d).all() or np.any(negative > 1):
        return math.inf
    bad = negative == 1
    n = H1.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(n):
            yk, dk = _at(bad, y[:, k], d[:, k])
            term = (yk * np.conj(yk)).real / dk
            phi = term if k == 0 else phi + term
        need = [-0.5 / phi]
        del phi, term  # freed, like cross below, to keep the call's peak low
        c, gn = H1[:, -1, -1].real, g[:, -1]
        for j in range(n - 1):
            a, b, gj = H1[:, j, j].real, H1[:, j, -1], g[:, j]
            m0 = a * c - np.abs(b) ** 2
            fails = m0 < -tol
            if fails.any():
                cross = np.conj(b)
                cross *= gj
                cross *= np.conj(gn)
                slope = a * np.abs(gn) ** 2 + c * np.abs(gj) ** 2 - 2 * cross.real
                del cross
                m0, slope = _at(fails, m0, slope)
                need.append((-tol - m0) / (2 * slope))
    need = np.concatenate(need)
    if not len(need) or not np.all((need > 0) & np.isfinite(need)):
        return math.inf
    return math.log2(1.0 + float(need.max()))


def k_ladder(base, g, max_k_exp: int, stats):
    """The K = 2^e, 0 <= e <= max_k_exp, read off rung 0, and its scan.

    base is the Hessian of (h - K r) r and g the gradient of r, per point.
    Hess(r^2) = 2 g g* + 2 r Hess r and r = 0 on the boundary, so there
    the stack at K is base + 2K g g*.  Rung 0 (K = 1) goes first; if it
    fails and `lift_exp`, reading rung 0's stack, puts the least passing e
    at most max_k_exp, the scan at 2^e, e rounded up to at least 1, is the
    verdict; else rung 0's is.  stats maps a Hessian stack to its
    PsdCheckResult.  Returns the rows of the rungs evaluated in ascending
    K, and the last K with its result.  A rung is built entry by entry into
    an entry-planar stack (see `verify.hessian_stack`), in g's dtype, from
    the columns base[:, j, k] and g[:, j]; no dense g g* stack is formed.
    Each entry g_j conj(g_k) is scaled once, by 2^(e + 1) = 2K, which is
    exact, so a rung with finite entries equals base + K (2 g g*) float for
    float.
    """
    m, n = g.shape

    def rung(e):
        gc = np.conj(g)
        H = np.empty((n, n, m), g.dtype).transpose(2, 0, 1)
        for j in range(n):
            for k in range(n):
                t = H[:, j, k]
                np.multiply(g[:, j], gc[:, k], out=t)
                t *= 2.0 ** (e + 1)
                t += base[:, j, k]
        return H

    H1 = rung(0)
    results = {0: stats(H1)}
    e = 0
    if not results[0].passed and max_k_exp > 0:
        lift = lift_exp(H1, g, results[0].tol)
        del H1  # freed before rung e's stack is built
        if lift <= max_k_exp:
            e = max(1, math.ceil(lift))
            results[e] = stats(rung(e))
    ladder = [
        {
            "K": 2**k,
            "min_diag": st.min_diag,
            "min_minor": st.min_minor,
            "min_eig": st.min_eig,
            "passed": st.passed,
        }
        for k, st in results.items()
    ]
    return ladder, 2**e, results[e]


def search_failure(witness: dict, h_part: str, ladder_claim: str) -> str:
    """Why a failed `k_search` failed, read from its witness: h_part (the
    K-free part of h) dropped below the h floor, so no ladder ran, or else
    ladder_claim."""
    if "h_floor" in witness:
        return (
            f"|{h_part}| drops below the h floor {witness['h_floor']} on the "
            "shell, so no ladder K was tried"
        )
    return ladder_claim


def k_search(r: Domain, T: SparsePoly, config=None, curves=False) -> KSearchResult:
    """Smallest power-of-two K making (1 + Kr + T) r pass the PSD scan, in
    either lane: config is a `ConstructConfig` or a `RealConfig`.

    On the boundary the Hessian is Hess((1 + T) r) plus 2K g g*, g the
    gradient of r, so `k_ladder` gets those two and reads K off the scan
    at K = 1.  The scan set is the sampled shell, plus, when curves is
    true, every in-ball point of the probe curves of config.seed, each
    distinct point once (the complex construction scans them, the real
    lane does not).  A shell where |1 + T| fails `verify.h_floor_failure`
    skips the ladder; that, or failure at every rung tried, shrinks the
    radius once by SHRINK.  The result's ladder lists the rungs evaluated
    at the final radius; it is empty when the h floor fails there.
    """
    config = config or ConstructConfig()
    p = type(r.poly).one(r.poly.n) + T
    radius = config.radius
    for shrunk in (False, True):
        if shrunk:
            radius *= SHRINK
        shell = sample_boundary(r, radius, config.samples, config.seed)
        witness = h_floor_failure(float(np.abs(shell.values(p)).min()))
        if witness is not None:
            ladder = []
            continue
        Z, W = shell.Z, shell.W
        if curves:
            pz, pw = probe_curves(r, config.seed).in_ball_points(radius)
            Z, W = np.concatenate([Z, pz]), np.concatenate([W, pw])
            del pz, pw  # freed before the ladder's stacks are built
        ladder, K, st = k_ladder(
            hessian_values(r.times(p), Z, W),
            gradient_stack(r, Z, W),
            config.max_k_exp,
            lambda H: psd_stats(H, Z, W, TOL),
        )
        if st.passed:
            return KSearchResult(True, K, ladder, None, radius, shrunk, st)
        witness = {
            "K": K,
            "point": st.worst_point,
            "min_eig": st.min_eig,
            "min_minor": st.min_minor,
            "min_diag": st.min_diag,
        }
    return KSearchResult(False, None, ladder, witness, radius, True)


def strong_psc_shortcut(r: DefiningFunction) -> bool:
    """Whether T = 0 is worth a K search before any stage: every diagonal
    Levi entry is positive at the origin.  False means it vanishes (or
    worse) at 0 and staged solving is needed."""
    return all(levi_origin_value(r, j).re > 0 for j in range(r.nz))


# -- the loop -------------------------------------------------------------


def _stage_split(r: DefiningFunction, T: WPoly, j: int, seed: int):
    """g = ((1 + T) r)_{z_j w-bar} and its S/E split against the Levi form,
    computed once per (T, j, seed) on r: the contraction metric splits
    g(T_next), which the next stage splits again when nothing was absorbed."""

    def build():
        g = r.times(WPoly.one(r.nz) + T).dz(j).dwbar()
        return g, split_S_E(g, r, Bound.LEVI_ONLY, seed, j)

    return r.cached(("stage_split", T, j, seed), build)


def _sup_abs(p: WPoly, points) -> float:
    if p.is_zero():
        return 0.0
    return float(np.max(np.abs(compiled(p).eval(*points))))


def _merge_increments(incs: list):
    """One real T for the stage system T_{z_j} = 2i S_j + residual_j, all j.

    The merge is the union of the per-j increments, a monomial keeping its
    first coefficient.  `solve_stage` makes incs[j] solve equation j, so
    the merge solves it exactly when its z_j derivative equals incs[j]'s.
    A real T solving every equation agrees with each incs[j] on the terms
    in z_j or zbar_j, so it is the merge up to terms free of z; hence a
    failing j proves the system has no real solution.  Returns (merged,
    None), or (None, failure) naming the first failing j and the first
    monomial where merged_{z_j} is wrong.
    """
    nz = incs[0].nz
    merged = {}
    for inc in incs:
        for m, c in inc.terms.items():
            merged.setdefault(m, c)
    merged = WPoly(nz, merged)
    for j, inc in enumerate(incs):
        wrong = merged.dz(j) - inc.dz(j)
        if not wrong.is_zero():
            m, c = wrong.sorted_terms()[0]
            return None, {"j": j + 1, "monomial": canonical_str(WPoly(nz, {m: c}))}
    return merged, None


def run_construction(
    r: DefiningFunction, config: ConstructConfig | None = None
) -> ConstructionReport:
    """Run the staged construction until certified, obstructed, or out of
    stages.  Raises NotPseudoconvexError when the Levi precheck fails.

    `ks` holds the K search of the current T, which a stage that merges
    nothing reads, so no T is searched twice; a stage that returns a T
    already tried (0 or one an earlier stage reached) ends the loop at a
    fixpoint.  A stage exit only sets the obstruction; the status is read
    once, after the loop."""
    config = config or ConstructConfig()
    nz = r.nz
    one = WPoly.one(nz)
    zero = WPoly.zero(nz)
    messages = []

    scan = levi_scan(r, config.radius, config.samples, config.seed)
    if not scan.nonnegative:
        raise NotPseudoconvexError(scan)

    shells = project_probes(r, config.seed)
    a = shells.cuts[-2]  # the last probe shell starts here
    inner = shells.Z[a:], shells.W[a:]

    stages = []
    contraction = []
    cancellation = None
    obstruction = None
    T = zero
    tried = {T}  # every T the run has reached
    ks = None  # the K search of T, once run

    shortcut_used = strong_psc_shortcut(r)
    if shortcut_used:
        ks = k_search(r, T, config, curves=True)
        if ks.found:
            stages.append(StageRecord(0, [], [], zero, T, ks))
        else:
            messages.append("shortcut K search failed; entering stage loop")

    T_tel = zero  # un-absorbed telescoping sum, used for the contraction metric
    degree_cap = None  # 2 + max(deg r, deg T_1), fixed at the first stage
    sup_cur = None

    n = 0
    while not (ks and ks.found):
        if n == config.max_stages:
            obstruction = {
                "kind": "max_stages",
                "stage": n,
                "witness": stages[-1].k_search.witness if stages else None,
                "claim": "stage budget exhausted without certification",
            }
            break
        n += 1
        stage = StageRecord(n, [], [], zero, T, None)
        stages.append(stage)
        obstructed_part = None
        for j in range(nz):
            g, sp = _stage_split(r, T, j, config.seed)
            T_inc, residual = solve_stage(sp.S, j)
            rv = None
            if not residual.is_zero():
                rv = dominance_check(residual, Bound.LEVI_ONLY, r, config.seed, j=j)
                if rv.status == "NotDominated":
                    obstructed_part = (j, rv)
            stage.parts.append(StagePart(j, g, sp, T_inc, residual, rv))
            if sp.has_unknown:
                messages.append(
                    f"stage {n}, j={j + 1}: unknown dominance verdicts kept in S"
                )
        if obstructed_part is not None:
            j, rv = obstructed_part
            obstruction = {
                "kind": "residual_not_dominated",
                "stage": n,
                "j": j + 1,
                "verdict": rv.as_dict(),
                "claim": (
                    f"the residual for z_{j + 1} at stage {n} is not "
                    "dominated, so the stages stop here; this does not rule "
                    "out another multiplier"
                ),
            }
            break

        merged, failure = _merge_increments([p.T_inc for p in stage.parts])
        if failure is not None:
            obstruction = {
                "kind": "incompatible_system",
                "stage": n,
                **failure,
                "claim": "no real T solves T_{z_j} = 2i S_j + residual_j for "
                "every j: the union of the increments fails equation j at "
                "the monomial shown",
            }
            break

        if merged.is_zero():
            ks = stage.k_search = ks or k_search(r, T, config, curves=True)
            if not ks.found:
                obstruction = {
                    "kind": "k_search_failed",
                    "stage": n,
                    "witness": ks.witness,
                    "claim": "nothing left to cancel and "
                    + search_failure(ks.witness, "1 + T", "no ladder K certifies"),
                }
            break

        stage.T_increment, absorbed = absorb_r_multiples(merged, r)
        stage.absorbed = [canonical_str(p) for p in absorbed]

        T_next = T + stage.T_increment
        T_tel_next = T_tel + merged
        if degree_cap is None:
            degree_cap = 2 + max(r.poly.degree(), T_next.degree())
            messages.append(f"degree cap set to {degree_cap}")
        T_next = T_next.truncate(degree_cap)
        T_tel_next = T_tel_next.truncate(degree_cap)

        if T_next in tried:
            obstruction = {
                "kind": "fixpoint",
                "stage": n,
                "claim": "stage returned a T already tried",
            }
            break

        # contraction metric on the un-absorbed telescoping sums
        if sup_cur is None:
            sup_cur = max(_sup_abs(p.split.S, inner) for p in stage.parts)
        sup_next = 0.0
        for j in range(nz):
            _, sp_tel = _stage_split(r, T_tel_next, j, config.seed)
            sup_next = max(sup_next, _sup_abs(sp_tel.S, inner))
        entry = {"stage": n, "sup_S": sup_cur, "sup_S_next": sup_next}
        if sup_cur > 0:
            entry["ratio"] = sup_next / sup_cur
        contraction.append(entry)

        if n == 1:
            # the next stage's mixed derivatives against this stage's S
            rho1 = r.times(one + T_next)
            g_sup = max(_sup_abs(rho1.dz(j).dwbar(), inner) for j in range(nz))
            s_sup = entry["sup_S"]
            cancellation = {
                "sup_next_mixed": g_sup,
                "sup_S": s_sup,
                "ok": bool(s_sup == 0.0 or g_sup <= 0.5 * s_sup),
            }

        T, T_tel, sup_cur = T_next, T_tel_next, sup_next
        tried.add(T)
        ks = stage.k_search = k_search(r, T, config, curves=True)
        stage.T_after = T

    final = None
    verification = None
    if obstruction is None:  # the loop stops unobstructed only on a found K
        final = MultiplierCandidate(
            T, ks.K, n, zero, [a for s in stages for a in s.absorbed]
        )
        shell = sample_boundary(r, ks.radius, config.samples, config.seed)
        checks, failed, _ = check_certificate(r, T, ks.K, shell)
        verification = {"radius": ks.radius, **checks}
        if failed:
            messages.append("final verification failed; certificate withdrawn")
            final = None

    if final is not None:
        status = "Certified"
    elif obstruction and obstruction["kind"] in (
        "residual_not_dominated",
        "incompatible_system",
    ):
        status = "Obstructed"
    else:
        status = "Exhausted"

    return ConstructionReport(
        status=status,
        r_text=canonical_str(r.poly),
        nz=nz,
        config=config,
        levi_precheck=scan.as_dict(),
        shortcut_used=shortcut_used,
        stages=stages,
        final=final,
        obstruction=obstruction,
        verification=verification,
        contraction=contraction,
        cancellation=cancellation,
        messages=messages,
    )
