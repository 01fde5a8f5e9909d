"""Multiplier construction: stage solving, absorption, K search, the loop.

The engine builds candidates h = 1 + Kr + T for a plurisubharmonic
defining function rho = h r.  Each stage splits the current mixed
derivative (rho_n)_{z w-bar} into a significant part S and a dominated
error E, solves T_z = 2iS by z-antidifferentiation + realification,
optionally drops r-multiples from the increment, and retries a K ladder.
Certification is numeric (PSD sampling plus the determinant identity);
obstruction reports carry the witness that stopped the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cr import DefiningFunction, levi_origin_value
from .dominance import (
    Bound,
    DominanceVerdict,
    ProbeFamily,
    SplitResult,
    default_probes,
    dominance_check,
    levi_dominance_gate,
    project_probes,
    real_basis_str,
    split_S_E,
)
from .gaussrat import GaussianRational
from .numeval import compiled
from .report import SCHEMA_VERSION
from .verify import (
    DEFAULT_TOL,
    H_MIN,
    check_sampling,
    hessian_values,
    identity_check_prop31,
    levi_scan,
    necessary_conditions_check,
    psd_check,
    psd_stats,
    sample_boundary,
)
from .wirtinger import WPoly, canonical_str, realify

SHRINK = 0.25


def check_search_config(config) -> None:
    """Reject the sampling and ladder settings no scan can certify from.

    Shared by the complex and the real lane's configs; raises ValueError.
    """
    check_sampling(config.radius, config.samples, config.tol)
    if config.max_k_exp < 0:
        raise ValueError(f"max_k_exp must be >= 0, got {config.max_k_exp}")


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
    degree_cap: int | None = None
    max_k_exp: int = 20
    tol: float = DEFAULT_TOL
    bound: Bound = Bound.LEVI_ONLY  # or its value, such as "levi"
    absorb: bool = True

    def __post_init__(self):
        self.bound = Bound(self.bound)
        check_search_config(self)

    def as_dict(self) -> dict:
        return {
            "radius": self.radius,
            "samples": self.samples,
            "seed": self.seed,
            "max_stages": self.max_stages,
            "degree_cap": self.degree_cap,
            "max_k_exp": self.max_k_exp,
            "tol": self.tol,
            "bound": self.bound.value,
            "absorb": self.absorb,
        }


@dataclass
class MultiplierCandidate:
    """h = 1 + Kr + T; K stays None until a ladder search fixes it."""

    T: WPoly
    K: int | None
    stage: int
    residual: WPoly
    absorbed_terms: list

    def h_poly(self, r: DefiningFunction) -> WPoly:
        h = WPoly.one(r.nz) + self.T
        if self.K:
            h = h + r.poly.scale(Fraction(self.K))
        return h

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

    def as_dict(self) -> dict:
        return {
            "found": self.found,
            "K": self.K,
            "ladder": self.ladder,
            "witness": self.witness,
            "radius": self.radius,
            "shrunk": self.shrunk,
        }


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
    cross_checks: list
    absorbed: list
    T_increment: WPoly
    T_after: WPoly
    k_search: KSearchResult | None

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "parts": [p.as_dict() for p in self.parts],
            "cross_checks": self.cross_checks,
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
    gate: dict
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
            "gate": self.gate,
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


def _scan_points(r, shell, probes, radius):
    proj = project_probes(r, probes)
    pz, pw = proj.in_ball_points(radius)
    if len(pw):
        return np.concatenate([shell.Z, pz]), np.concatenate([shell.W, pw])
    return shell.Z, shell.W


def predicted_exp(base, step, factor, rung0, max_k_exp: int) -> int:
    """Lowest exponent e in [1, max_k_exp] at which the rank-one step can
    lift every point where rung 0 fails the least-eigenvalue test.

    Rung 0's Hessian is H1 = base + step, with step = 2 g g* and g = factor
    per point; rung0 is its PsdCheckResult.  At a point whose least
    eigenvalue is below -tol, C = H1 + tol I has a negative eigenvalue.  If
    it has a second one, no K passes: a rank-one update moves the least
    eigenvalue at most up to the second.  Otherwise, with phi = g* C^-1 g,
    the matrix determinant lemma gives det(C + 2k g g*) = det C (1 + 2k phi),
    so the point passes at K = 1 + k exactly when phi < 0 and
    k >= -1/(2 phi).  Returns max_k_exp when no K can lift some point or a
    value is not finite, and 1 when no point fails the test.
    """
    least, second = rung0.low_eigs.T
    bad = least < -rung0.tol
    if not bad.any():
        return 1
    if np.any(second[bad] < -rung0.tol):
        return max_k_exp
    C = base[bad]  # a copy: the mask selects
    C += step[bad]
    diag = np.arange(C.shape[-1])
    C[:, diag, diag] += rung0.tol
    g = factor[bad]
    with np.errstate(divide="ignore", invalid="ignore"):
        if C.shape[-1] == 2:  # closed form, as in least_eigenvalues
            a, b, c = C[:, 0, 0].real, C[:, 0, 1], C[:, 1, 1].real
            g1, g2 = g[:, 0], g[:, 1]
            quad = c * np.abs(g1) ** 2 + a * np.abs(g2) ** 2
            phi = (quad - 2 * (np.conj(g1) * b * g2).real) / (a * c - np.abs(b) ** 2)
        else:
            try:
                x = np.linalg.solve(C, g[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:  # C singular at some point
                return max_k_exp
            phi = np.sum(np.conj(g) * x, axis=1).real
        need = -0.5 / phi
    if not np.all((need > 0) & np.isfinite(need)):  # some phi >= 0 or not finite
        return max_k_exp
    e = math.ceil(math.log2(1.0 + float(need.max())))
    return min(max(1, e), max_k_exp)


def k_ladder(base, step, factor, max_k_exp: int, stats):
    """Smallest K = 2^e, 0 <= e <= max_k_exp, for which the Hessian
    base + K step passes, searched from the rung the rank-one step predicts.

    step = 2 g g* is positive semidefinite at every point (g = factor), so
    by Weyl's inequality the least eigenvalue of base + K step cannot fall
    as K grows, and passing is monotone in e.  Rung 0 (K = 1) goes first.
    If it fails, `predicted_exp` reads from its failing points the lowest
    rung e* at which the least-eigenvalue test can pass; the pass rule
    contains that test, so in exact arithmetic e* is a lower bound on the
    answer.  If e* passes, the rung below it is tried and, if it passes too,
    the search bisects between rung 0 and it.  If e* fails, the search
    doubles the exponent, e* to 2 e*, 4 e*, ..., then max_k_exp, stops at
    the first passing rung and bisects between it and the failing rung
    below.  Rounding grows with K, so a high rung can fail where a lower one
    passes; no rung above the first passing one in that climb is evaluated,
    and that rung's K is at most the square of the answer's.  The K
    returned did pass; only its minimality rests on monotonicity.  stats
    maps a Hessian stack to its PsdCheckResult.  Returns the rows of the
    rungs evaluated in ascending K, and the K returned with its result: the
    lowest passing rung, or the top rung tried when none passes.
    """
    results = {}

    def passes(e: int) -> bool:
        results[e] = stats(base + 2**e * step)
        return results[e].passed

    lo, hi = -1, 0  # lo: highest rung seen failing; hi: the rung tried
    if not passes(0) and max_k_exp > 0:
        first = predicted_exp(base, step, factor, results[0], max_k_exp)
        lo, hi = 0, first
        while not passes(hi) and hi < max_k_exp:
            lo, hi = hi, min(2 * hi, max_k_exp)
        if first > 1 and results[first].passed:
            if passes(hi - 1):
                hi -= 1
            else:
                lo = hi - 1
    if results[hi].passed:
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if passes(mid):
                hi = mid
            else:
                lo = mid
    ladder = [
        {
            "K": 2**e,
            "min_diag": st.min_diag,
            "min_minor": st.min_minor,
            "min_eig": st.min_eig,
            "passed": st.passed,
        }
        for e, st in sorted(results.items())
    ]
    return ladder, 2**hi, results[hi]


def k_search(
    r: DefiningFunction,
    T: WPoly,
    config: ConstructConfig | None = None,
    probes: ProbeFamily | None = None,
) -> KSearchResult:
    """Smallest power-of-two K making (1 + Kr + T) r pass the PSD scan.

    On the boundary the Hessian is affine in K: H((1+T)r) plus K times a
    positive semidefinite rank-one gradient term, so `k_ladder` searches
    the exponent of K by doubling and bisection over one set of
    evaluations.  The scan set is the sampled shell plus every in-ball
    probe-curve point; failure at every rung tried, or |1 + T| below the
    h floor on the shell, shrinks the radius once.  The result's ladder
    lists the rungs evaluated at the final radius; it is empty when the h
    floor fails at both radii.
    """
    config = config or ConstructConfig()
    probes = probes if probes is not None else default_probes(r.nz, config.seed)
    one = WPoly.one(r.nz)
    radius = config.radius
    shrunk = False
    for attempt in (0, 1):
        shell = sample_boundary(r, radius, config.samples, config.seed)
        habs = np.abs(compiled(one + T).eval(shell.Z, shell.W))
        if habs.min() < H_MIN:
            if attempt == 1:
                witness = {"min_abs_h": float(habs.min()), "h_floor": H_MIN}
                return KSearchResult(False, None, [], witness, radius, True)
            radius *= SHRINK
            shrunk = True
            continue
        Z, W = _scan_points(r, shell, probes, radius)
        base = hessian_values((one + T) * r.poly, Z, W)
        G = np.stack(
            [compiled(r.d_z(j)).eval(Z, W) for j in range(r.nz)]
            + [compiled(r.d_w()).eval(Z, W)],
            axis=1,
        )
        step = 2.0 * (G[:, :, None] * np.conj(G)[:, None, :])
        ladder, K, st = k_ladder(
            base, step, G, config.max_k_exp, lambda H: psd_stats(H, Z, W, config.tol)
        )
        if st.passed:
            return KSearchResult(True, K, ladder, None, radius, shrunk)
        if attempt == 0:
            radius *= SHRINK
            shrunk = True
    witness = {
        "K": K,
        "point": st.worst_point,
        "min_eig": st.min_eig,
        "min_minor": st.min_minor,
        "min_diag": st.min_diag,
    }
    return KSearchResult(False, None, ladder, witness, radius, shrunk)


def strong_psc_shortcut(r: DefiningFunction):
    """T = 0 candidate when the Levi form is positive at the origin.

    Returns the candidate, or None when the form vanishes (or worse) at 0
    and staged solving is needed.
    """
    for j in range(r.nz):
        v = levi_origin_value(r, j)
        if not v.re > 0:
            return None
    return MultiplierCandidate(
        T=WPoly.zero(r.nz), K=None, stage=0, residual=WPoly.zero(r.nz), absorbed_terms=[]
    )


# -- the loop -------------------------------------------------------------


def _cross_bound(r: DefiningFunction, j: int) -> WPoly:
    """Levi form along v_j plus |r_{z_j}|^2, the cross-derivative bound."""
    return r.cached(
        ("cross_bound", j), lambda: r.levi(j) + r.d_z(j) * r.d_z(j).conjugate()
    )


def _g_poly(r: DefiningFunction, T: WPoly, j: int) -> WPoly:
    return ((WPoly.one(r.nz) + T) * r.poly).dz(j).dwbar()


def _sup_abs(p: WPoly, shell) -> float:
    if p.is_zero():
        return 0.0
    return float(np.max(np.abs(compiled(p).eval(shell.Z, shell.W))))


def _merge_increments(incs: list):
    """Union of per-j increments; same monomial must carry the same
    coefficient everywhere it appears.  Returns (merged, conflict)."""
    nz = incs[0].nz
    merged = {}
    owner = {}
    for j, inc in enumerate(incs):
        for m, c in inc.terms.items():
            if m in merged:
                if merged[m] != c:
                    return None, {
                        "pair": [owner[m] + 1, j + 1],
                        "monomial": canonical_str(WPoly(nz, {m: c})),
                    }
            else:
                merged[m] = c
                owner[m] = j
    return WPoly(nz, merged), None


def run_construction(
    r: DefiningFunction, config: ConstructConfig | None = None
) -> ConstructionReport:
    """Run the staged construction until certified, obstructed, or out of
    stages.  Raises NotPseudoconvexError when the Levi precheck fails."""
    config = config or ConstructConfig()
    nz = r.nz
    probes = default_probes(nz, config.seed)
    one = WPoly.one(nz)
    zero = WPoly.zero(nz)
    messages = []

    scan = levi_scan(r, config.radius, config.samples, config.seed, config.tol)
    if scan.min_value < -config.tol:
        raise NotPseudoconvexError(scan)
    gate = levi_dominance_gate(r, probes)
    if not gate.dominated:
        messages.append("gradient-vs-Levi gate: " + gate.status)

    proj = project_probes(r, probes)
    inner = proj.shells[-1]

    stages = []
    contraction = []
    cancellation = None
    shortcut_used = False
    status = None
    final = None
    obstruction = None

    cand = strong_psc_shortcut(r)
    if cand is not None:
        shortcut_used = True
        ks = k_search(r, zero, config, probes)
        if ks.found:
            final = MultiplierCandidate(zero, ks.K, 0, zero, [])
            status = "Certified"
            stages.append(
                StageRecord(0, [], [], [], zero, zero, ks)
            )
        else:
            messages.append("shortcut K search failed; entering stage loop")

    T = zero
    T_tel = zero  # un-absorbed telescoping sum, used for the contraction metric
    degree_cap = config.degree_cap
    sup_cur = None

    n = 0
    while status is None and n < config.max_stages:
        n += 1
        parts = []
        incs = []
        obstructed_part = None
        for j in range(nz):
            g = _g_poly(r, T, j)
            sp = split_S_E(g, r, config.bound, probes, j)
            T_inc, residual = solve_stage(sp.S, j)
            rv = None
            if not residual.is_zero():
                rv = dominance_check(residual, config.bound, r, probes, j=j)
                if rv.status == "NotDominated":
                    obstructed_part = (j, rv)
            parts.append(StagePart(j, g, sp, T_inc, residual, rv))
            incs.append(T_inc)
            if sp.has_unknown:
                messages.append(
                    f"stage {n}, j={j + 1}: unknown dominance verdicts kept in S"
                )
        if obstructed_part is not None:
            j, rv = obstructed_part
            status = "Obstructed"
            obstruction = {
                "kind": "residual_not_dominated",
                "stage": n,
                "j": j + 1,
                "verdict": rv.as_dict(),
                "claim": (
                    "the stage equation leaves a residual that no Levi "
                    "multiple dominates; no multiplier of this form can "
                    "produce a plurisubharmonic defining function near 0"
                ),
            }
            stages.append(StageRecord(n, parts, [], [], zero, T, None))
            break

        cross = []
        cross_obstructed = None
        if nz >= 2:
            for j in range(nz):
                for k in range(j + 1, nz):
                    d = incs[j].dz(k) - incs[k].dz(j)
                    if d.is_zero():
                        continue
                    rec = {"pair": [j + 1, k + 1], "difference": canonical_str(d)}
                    verdicts = []
                    for idx in (j, k):
                        v = dominance_check(
                            d,
                            Bound.LEVI_PLUS_GRAD,
                            r,
                            probes,
                            j=idx,
                            bound_poly=_cross_bound(r, idx),
                        )
                        verdicts.append(v)
                    rec["verdicts"] = [v.as_dict() for v in verdicts]
                    cross.append(rec)
                    if any(v.status == "NotDominated" for v in verdicts):
                        cross_obstructed = rec
                    elif any(v.status == "Unknown" for v in verdicts):
                        messages.append(
                            f"stage {n}: cross-derivative check unknown for "
                            f"pair ({j + 1}, {k + 1})"
                        )
        if cross_obstructed is not None:
            status = "Obstructed"
            obstruction = {
                "kind": "incompatible_system",
                "stage": n,
                "pair": cross_obstructed["pair"],
                "difference": cross_obstructed["difference"],
                "claim": "per-coordinate increments have incompatible mixed derivatives",
            }
            stages.append(StageRecord(n, parts, cross, [], zero, T, None))
            break

        merged, conflict = _merge_increments(incs)
        if conflict is not None:
            status = "Obstructed"
            obstruction = {
                "kind": "coefficient_conflict",
                "stage": n,
                **conflict,
                "claim": "per-coordinate increments disagree on a shared monomial",
            }
            stages.append(StageRecord(n, parts, cross, [], zero, T, None))
            break

        if merged.is_zero():
            ks = k_search(r, T, config, probes)
            stages.append(StageRecord(n, parts, cross, [], zero, T, ks))
            if ks.found:
                status = "Certified"
                final = MultiplierCandidate(
                    T, ks.K, n, zero, _all_absorbed(stages)
                )
            else:
                status = "Exhausted"
                obstruction = {
                    "kind": "k_search_failed",
                    "stage": n,
                    "witness": ks.witness,
                    "claim": "nothing left to cancel and no ladder K certifies",
                }
            break

        absorbed_polys = []
        inc_absorbed = merged
        if config.absorb:
            inc_absorbed, absorbed_polys = absorb_r_multiples(merged, r)
        absorbed_strs = [canonical_str(p) for p in absorbed_polys]

        T_next = T + inc_absorbed
        T_tel_next = T_tel + merged
        if degree_cap is None:
            degree_cap = 2 + max(r.poly.degree(), T_next.degree())
            messages.append(f"degree cap set to {degree_cap}")
        T_next = T_next.truncate(degree_cap)
        T_tel_next = T_tel_next.truncate(degree_cap)

        if T_next == T:
            status = "Exhausted"
            obstruction = {
                "kind": "fixpoint",
                "stage": n,
                "claim": "stage produced no change in T",
            }
            stages.append(
                StageRecord(n, parts, cross, absorbed_strs, inc_absorbed, T, None)
            )
            break

        # contraction metric on the un-absorbed telescoping sums
        if sup_cur is None:
            sup_cur = max(_sup_abs(p.split.S, inner) for p in parts)
        sup_next = 0.0
        for j in range(nz):
            sp_tel = split_S_E(_g_poly(r, T_tel_next, j), r, config.bound, probes, j)
            sup_next = max(sup_next, _sup_abs(sp_tel.S, inner))
        entry = {"stage": n, "sup_S": sup_cur, "sup_S_next": sup_next}
        if sup_cur > 0:
            entry["ratio"] = sup_next / sup_cur
        contraction.append(entry)

        if n == 1:
            rho1 = (one + T_next) * r.poly
            g1 = rho1.dz(0).dwbar()
            s_sup = max(_sup_abs(p.split.S, inner) for p in parts)
            g_sup = _sup_abs(g1, inner)
            cancellation = {
                "sup_next_mixed": g_sup,
                "sup_S": s_sup,
                "ok": bool(s_sup == 0.0 or g_sup <= 0.5 * s_sup),
            }

        ks = k_search(r, T_next, config, probes)
        stages.append(
            StageRecord(n, parts, cross, absorbed_strs, inc_absorbed, T_next, ks)
        )
        T = T_next
        T_tel = T_tel_next
        sup_cur = sup_next
        if ks.found:
            status = "Certified"
            final = MultiplierCandidate(T, ks.K, n, zero, _all_absorbed(stages))

    if status is None:
        status = "Exhausted"
        last_ks = stages[-1].k_search if stages else None
        obstruction = {
            "kind": "max_stages",
            "stage": n,
            "witness": last_ks.witness if last_ks and not last_ks.found else None,
            "claim": "stage budget exhausted without certification",
        }

    verification = None
    if status == "Certified":
        ks_rec = stages[-1].k_search
        radius = ks_rec.radius if ks_rec else config.radius
        shell = sample_boundary(r, radius, config.samples, config.seed)
        h = final.h_poly(r)
        rho = h * r.poly
        psd = psd_check(rho, shell, config.tol)
        ident = identity_check_prop31(r, final.K, final.T, shell)
        nec = necessary_conditions_check(
            r, h, shell, K=final.K, tol=config.tol, probes=probes
        )
        verification = {
            "radius": radius,
            "psd": psd.as_dict(),
            "identity": ident.as_dict(),
            "necessary": nec.as_dict(),
        }
        if not (psd.passed and ident.passed):
            status = "Exhausted"
            messages.append("final verification failed; certificate withdrawn")
            final = None

    return ConstructionReport(
        status=status,
        r_text=canonical_str(r.poly),
        nz=nz,
        config=config,
        levi_precheck=scan.as_dict(),
        gate=gate.as_dict(),
        shortcut_used=shortcut_used,
        stages=stages,
        final=final,
        obstruction=obstruction,
        verification=verification,
        contraction=contraction,
        cancellation=cancellation,
        messages=messages,
    )


def _all_absorbed(stages) -> list:
    out = []
    for s in stages:
        out.extend(s.absorbed)
    return out
