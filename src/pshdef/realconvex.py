"""Real-coordinates lane: convexity and the explicit multiplier 1 + Kr + r_y.

Domains {r < 0} in R^n with r = y + G(x, y), G of degree >= 2, so r_y is 1
near 0.  Because r_y is real it already solves the log-derivative equation,
and the whole staged construction collapses to the fixed choice T = r_y plus
a ladder over K.  The lane runs on the complex lane's cores: its
polynomials are `wirtinger.RPoly`, the exact sparse polynomial with rational
coefficients over (x_1..x_n, y), parsed and printed by the same code as
`WPoly`; its gradient, Hessian entries and tangential forms (`cr.levi_form`
on the frame v_j = r_y e_j - r_{x_j} e_y) are `cr.Domain`'s, and its
normal-form error is `cr.NormalFormError`; and the numeric side is the
compiled evaluator (`numeval`), the boundary layer of `verify` (the shell,
sampled and Newton-projected on the slope r_y, the point reports, the
Hessian and gradient stacks, the PSD statistics and the h floor), and the
K search (`construct.k_search`, with T = r_y).  Its own parts are the
r = y + G normal form, the convexity precheck and the multiplier.  A real
shell holds x in Z and y in W, and its settings are a
`construct.ConstructConfig`.  `sample_real_boundary`,
`real_hessian_values`, `real_psd_stats` and `real_hessian_check` are each
one call into `verify`, and `RealConfig` is `ConstructConfig`; they are
kept by name with `validate_real_normal_form` because the benchmark
builds, calls or traces each by name; the pipeline uses the shared names
itself.

Off the boundary, with p = 1 + r_y, the Hessian determinant of r*h in a
tangential (x_j, y) plane expands as

    H_rh = H_rp + 4 K^2 r^2 H_r + 4 K^2 r L_r + 2 K L_rp
           + 2 K r [(rp)_xx r_yy + (rp)_yy r_xx - 2 (rp)_xy r_xy]

with L the tangential form.  Documented for reference; nothing here
evaluates it, positivity is only ever checked on the boundary itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construct import ConstructConfig, k_search, search_failure
from .cr import Domain, NormalFormError
from .report import SCHEMA_VERSION
from .verify import (
    TOL,
    PsdCheckResult,
    Shell,
    h_floor_failure,
    hessian_stack,
    hessian_values,
    least_eigenvalues,
    point_report,
    psd_check,
    psd_stats,
    sample_boundary,
)
from .wirtinger import RPoly, canonical_str


# -- normal form ----------------------------------------------------------


def real_normal_form_violations(p: RPoly) -> list[str]:
    out = []
    if p.constant_term() != 0:
        out.append("nonzero constant term")
    if p.d_y().constant_term() != 1:
        out.append("coefficient of y is not 1")
    for j in range(p.nx):
        if p.d_x(j).constant_term() != 0:
            out.append(f"linear term in x_{j + 1}")
    return out


def validate_real_normal_form(p: RPoly) -> "RealDefiningFunction":
    violations = real_normal_form_violations(p)
    if violations:
        raise NormalFormError(violations)
    return RealDefiningFunction(p)


@dataclass
class RealDefiningFunction(Domain):
    """A validated local defining function r = y + G."""

    poly: RPoly

    @property
    def nx(self) -> int:
        return self.poly.nx

    def d_y(self) -> RPoly:
        return self.gradient()[-1]

    def normal_slope(self) -> RPoly:
        """r_y, the slope of a boundary projection's Newton solve for y."""
        return self.d_y()


# -- the real lane's names for the shared parts ---------------------------

RealConfig = ConstructConfig


def sample_real_boundary(
    r: RealDefiningFunction, radius: float, count: int, seed: int = 0
) -> Shell:
    """`verify.sample_boundary`: x fills the ball, y is Newton-solved."""
    return sample_boundary(r, radius, count, seed)


def real_hessian_values(f: RPoly, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """`verify.hessian_values`: symmetric, slots (x_1..x_nx, y)."""
    return hessian_values(f, X, Y)


def real_psd_stats(H: np.ndarray, X, Y, tol: float) -> PsdCheckResult:
    """`verify.psd_stats`, its worst point as {"x", "y"}."""
    return psd_stats(H, X, Y, tol)


def real_hessian_check(f: RPoly, shell: Shell, tol: float = TOL) -> PsdCheckResult:
    """`verify.psd_check`: the full real Hessian of f over the shell."""
    return psd_check(f, shell, tol)


def check_real_certificate(
    r: RealDefiningFunction, h: RPoly, shell: Shell
) -> tuple[dict, list, RPoly]:
    """The pass rule for a real-lane multiplier h on a shell, the
    counterpart of `verify.check_certificate`: the real Hessian of h r
    passes the PSD scan, and |h| clears the h floor.  Returns the scan's
    report under "hessian", the names of the checks that failed, "hessian"
    and "h_floor" (the certificate passes when that list is empty), and
    h r."""
    rho = r.times(h)
    hessian = psd_check(rho, shell)
    least_h = float(np.abs(shell.values(h)).min())
    passed = {"hessian": hessian.passed, "h_floor": h_floor_failure(least_h) is None}
    failed = [name for name, ok in passed.items() if not ok]
    return {"hessian": hessian.as_dict()}, failed, rho


# -- tangential convexity -------------------------------------------------


def convexity_check(r: RealDefiningFunction, shell: Shell) -> dict:
    """Least eigenvalue of the tangential matrix r.levi(j, k) over the
    shell, with witness: the first point holding it and its least diagonal
    entry j."""
    n = r.nx
    # symmetric: one polynomial per pair j <= k
    L = [[r.levi(min(j, k), max(j, k)) for k in range(n)] for j in range(n)]
    H = hessian_stack(L, shell.values)
    eigs = least_eigenvalues(H)
    i = int(np.argmin(eigs))
    value = float(eigs[i])
    passed = value >= -TOL
    out = {"min_value": value, "passed": passed, "witness": None}
    if not passed:
        out["witness"] = {
            "j": int(np.argmin(np.diagonal(H[i]))) + 1,
            "point": point_report(shell.Z, shell.W, i),
            "value": value,
        }
    return out


# -- the multiplier -------------------------------------------------------


@dataclass
class RealReport:
    """Outcome of the real-lane pipeline; same envelope as the complex one."""

    status: str  # "Certified" | "Obstructed" | "Exhausted"
    r_text: str
    nx: int
    config: ConstructConfig
    convexity_precheck: dict
    final: dict | None
    obstruction: dict | None
    verification: dict | None
    k_search: dict | None
    messages: list

    def as_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "mode": "real",
            "status": self.status,
            "defining_function": {"nx": self.nx, "text": self.r_text},
            "config": self.config.as_dict(),
            "convexity_precheck": self.convexity_precheck,
            "stages": [],
            "final": self.final,
            "obstruction": self.obstruction,
            "verification": self.verification,
            "k_search": self.k_search,
            "messages": list(self.messages),
        }

    def trace(self) -> str:
        lines = [f"status: {self.status}"]
        lines.append(f"r = {self.r_text}")
        if self.final:
            lines.append(f"final: T = {self.final['T']}, K = {self.final['K']}")
        if self.obstruction:
            lines.append(f"obstruction: {self.obstruction['kind']}")
        for m in self.messages:
            lines.append(f"note: {m}")
        return "\n".join(lines)


def convex_multiplier(
    r: RealDefiningFunction, config: ConstructConfig | None = None
) -> RealReport:
    """Certify r * (1 + Kr + r_y) convex near 0, K read off the K ladder's rung 0.

    Convexity of the input (the tangential matrix PSD on the shell of
    config.radius) is a precondition, checked once before the search; a
    violation reports an obstruction with witness.  The search is the
    complex lane's `construct.k_search` of T = r_y on the shell alone: the
    h floor |1 + r_y| >= 1/2, the K ladder and the single radius shrink.
    """
    config = config or ConstructConfig()
    ry = r.d_y()
    h_text = f"1 + K * ({canonical_str(r.poly)}) + {canonical_str(ry)}"
    messages = [
        "h floor and ladder limits transplanted from the complex lane",
    ]
    precheck = convexity_check(
        r, sample_boundary(r, config.radius, config.samples, config.seed)
    )
    report = RealReport(
        status="Exhausted",
        r_text=canonical_str(r.poly),
        nx=r.nx,
        config=config,
        convexity_precheck=precheck,
        final=None,
        obstruction=None,
        verification=None,
        k_search=None,
        messages=messages,
    )
    if not precheck["passed"]:
        report.status = "Obstructed"
        report.obstruction = {
            "kind": "not_convex",
            "claim": "a tangential direction has negative second derivative; "
            "the domain is not convex near 0",
            "witness": precheck["witness"],
        }
        return report

    ks = k_search(r, ry, config)
    report.k_search = ks.as_dict()
    if not ks.found:
        report.obstruction = {
            "kind": "k_search_failed",
            "claim": search_failure(
                ks.witness,
                "1 + r_y",
                "no ladder K makes the product Hessian positive "
                "semi-definite on the shell",
            ),
            "witness": ks.witness,
        }
        return report

    report.status = "Certified"
    report.final = {
        "T": canonical_str(ry),
        "K": ks.K,
        "stage": 0,
        "residual": "0",
        "absorbed_terms": [],
        "h": h_text,
    }
    report.verification = {"hessian": ks.stats.as_dict()}
    return report
