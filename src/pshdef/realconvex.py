"""Real-coordinates lane: convexity and the explicit multiplier 1 + Kr + r_y.

Domains {r < 0} in R^n with r = y + G(x, y), G of degree >= 2, so r_y is 1
near 0.  Because r_y is real it already solves the log-derivative equation,
and the whole staged construction collapses to the fixed choice T = r_y plus
a ladder over K.  The lane runs on the complex lane's cores: its
polynomials are `wirtinger.RPoly`, the exact sparse polynomial with rational
coefficients over (x_1..x_n, y), parsed and printed by the same code as
`WPoly`; its Hessian entries come from `cr.hessian_entries` and its
normal-form error is `cr.NormalFormError`; and the numeric side is the
compiled evaluator (`numeval`), the shell, the Halton ball sampler, the
Newton solver, the Hessian stack, the PSD statistics and the h floor
(`verify`), and the K ladder and the radius search (`construct`).  Its own
parts are the r = y + G normal form, the Newton lift of y, the point
reports and the tangential forms.  A real shell holds x in Z and y in W.
The sampler, the Hessian values, the PSD statistics, the Hessian check
and the normal-form check keep their real-lane names: the benchmark calls
or traces each by name.

Off the boundary, with p = 1 + r_y, the Hessian determinant of r*h in a
tangential (x_j, y) plane expands as

    H_rh = H_rp + 4 K^2 r^2 H_r + 4 K^2 r L_r + 2 K L_rp
           + 2 K r [(rp)_xx r_yy + (rp)_yy r_xx - 2 (rp)_xy r_xy]

with L the tangential form below.  Documented for reference; nothing here
evaluates it, positivity is only ever checked on the boundary itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construct import (
    ConstructConfig,
    check_search_config,
    k_ladder,
    radius_search,
    search_failure,
)
from .cr import Domain, NormalFormError, hessian_entries
from .numeval import compiled
from .report import SCHEMA_VERSION
from .verify import (
    DEFAULT_TOL,
    PsdCheckResult,
    Shell,
    ball_stream,
    h_floor_failure,
    hessian_stack,
    newton,
    psd_result,
    sample_ball,
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
    higher = p - RPoly.var_y(p.nx)
    if not higher.is_zero() and higher.min_degree() < 2:
        out.append("remainder has terms of degree < 2")
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

    def d_x(self, j: int = 0) -> RPoly:
        return self.cached(("dx", j), lambda: self.poly.d_x(j))

    def d_y(self) -> RPoly:
        return self.cached("dy", lambda: self.poly.d_y())


# -- boundary sampling ----------------------------------------------------


def project_to_real_boundary(r: RealDefiningFunction, X, starts=None):
    """Solve y so r(x, y) = 0 by Newton from y = 0.

    `starts` splits the points into `verify.newton` groups; X stays fixed,
    so r and r_y are evaluated through `CompiledPoly.at`.  Returns (Y, ok)
    where ok flags points with |r| <= 1e-12.
    """
    X = np.asarray(X, dtype=np.float64).reshape(-1, r.nx)
    rp = compiled(r.poly).at(X)
    ry = compiled(r.d_y()).at(X)
    return newton(rp, ry, np.zeros(len(X)), starts)


def sample_real_boundary(
    r: RealDefiningFunction,
    radius: float,
    count: int,
    seed: int = 0,
) -> Shell:
    """Low-discrepancy boundary points filling the ball of the given radius.

    The x coordinates fill the ball (see `verify.sample_ball`) from r's
    Halton stream of this seed; y is Newton-solved.  The shell holds x in Z
    and y in W, and is cached on r like `verify.sample_boundary`; the arrays
    are read-only.
    """

    def lift(X, starts=None):
        Y, ok = project_to_real_boundary(r, X, starts)
        return (X, Y), ok

    def build():
        [(X, Y)] = sample_ball(ball_stream(r, r.nx, seed), [radius], count, lift)
        res = np.abs(r.poly.eval(X, Y))
        for a in (X, Y, res):
            a.flags.writeable = False
        return Shell(radius=radius, seed=seed, Z=X, W=Y, residuals=res)

    return r.cached(("shell", radius, count, seed), build)


# -- Hessian checks -------------------------------------------------------


def real_hessian_values(f: RPoly, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Real Hessian of f at each point: array (m, n, n), symmetric, in the
    slot order (x_1..x_nx, y)."""
    return hessian_stack(hessian_entries(f), X, Y)


def _real_point_dict(X, Y, i) -> dict:
    return {
        "x": [float(X[i, j]) for j in range(X.shape[1])],
        "y": float(Y[i]),
    }


def real_psd_stats(H: np.ndarray, X, Y, tol: float) -> PsdCheckResult:
    return psd_result(H, tol, lambda i: _real_point_dict(X, Y, i))


def real_hessian_check(f: RPoly, shell: Shell, tol: float = DEFAULT_TOL) -> PsdCheckResult:
    """Full real Hessian PSD sampling of f over the shell."""
    H = real_hessian_values(f, shell.Z, shell.W)
    return real_psd_stats(H, shell.Z, shell.W, tol)


def check_real_certificate(
    r: RealDefiningFunction, h: RPoly, shell: Shell, tol: float = DEFAULT_TOL
) -> tuple[dict, list, RPoly]:
    """The pass rule for a real-lane multiplier h on a shell, the
    counterpart of `verify.check_certificate`: the real Hessian of h r
    passes the PSD scan, and |h| clears the h floor.  Returns the scan's
    report under "hessian", the names of the checks that failed, "hessian"
    and "h_floor" (the certificate passes when that list is empty), and
    h r."""
    rho = h * r.poly
    hessian = real_hessian_check(rho, shell, tol)
    least_h = float(np.abs(h.eval(shell.Z, shell.W)).min())
    passed = {"hessian": hessian.passed, "h_floor": h_floor_failure(least_h) is None}
    failed = [name for name, ok in passed.items() if not ok]
    return {"hessian": hessian.as_dict()}, failed, rho


# -- tangential convexity -------------------------------------------------


def tangential_form(r: RealDefiningFunction, j: int = 0) -> RPoly:
    """Hessian of r on the tangential vector v_j = r_y e_j - r_{x_j} e_y.

    Equals r_xx r_y^2 - 2 r_xy r_x r_y + r_yy r_x^2; nonnegative on the
    boundary exactly when the domain is convex in the x_j direction.
    """
    rx = r.d_x(j)
    ry = r.d_y()
    rxx = rx.d_x(j)
    rxy = rx.d_y()
    ryy = ry.d_y()
    return rxx * ry * ry - (rxy * rx * ry).scale(2) + ryy * rx * rx


def convexity_check(
    r: RealDefiningFunction, shell: Shell, tol: float = DEFAULT_TOL
) -> dict:
    """Minimum of every tangential form over the shell, with witness."""
    worst = None
    for j in range(r.nx):
        vals = tangential_form(r, j).eval(shell.Z, shell.W)
        i = int(np.argmin(vals))
        if worst is None or vals[i] < worst[0]:
            worst = (float(vals[i]), j, i)
    value, j, i = worst
    passed = value >= -tol
    out = {"min_value": value, "passed": passed, "witness": None}
    if not passed:
        out["witness"] = {
            "j": j + 1,
            "point": _real_point_dict(shell.Z, shell.W, i),
            "value": value,
        }
    return out


# -- the multiplier -------------------------------------------------------


@dataclass
class RealConfig:
    radius: float = ConstructConfig.radius
    samples: int = ConstructConfig.samples
    seed: int = ConstructConfig.seed
    max_k_exp: int = ConstructConfig.max_k_exp
    tol: float = ConstructConfig.tol

    def __post_init__(self):
        check_search_config(self)

    def as_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class RealReport:
    """Outcome of the real-lane pipeline; same envelope as the complex one."""

    status: str  # "Certified" | "Obstructed" | "Exhausted"
    r_text: str
    nx: int
    config: RealConfig
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
    r: RealDefiningFunction, config: RealConfig | None = None
) -> RealReport:
    """Certify r * (1 + Kr + r_y) convex near 0, K read off the K ladder's rung 0.

    Convexity of the input (every tangential form >= 0 on the shell of
    config.radius) is a precondition, checked once before the search; a
    violation reports an obstruction with witness.  The search is the
    complex lane's `construct.radius_search`: the h floor |1 + r_y| >= 1/2,
    the K ladder and the single radius shrink.  The ladder gets only the
    Hessian of r (1 + r_y) and the gradient of r.
    """
    config = config or RealConfig()
    ry = r.d_y()
    h_text = f"1 + K * ({canonical_str(r.poly)}) + {canonical_str(ry)}"
    messages = [
        "h floor and ladder limits transplanted from the complex lane",
    ]
    precheck = convexity_check(
        r, sample_real_boundary(r, config.radius, config.samples, config.seed), config.tol
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

    def attempt(radius):
        shell = sample_real_boundary(r, radius, config.samples, config.seed)
        X, Y = shell.Z, shell.W
        least_h = float(np.min(np.abs(1.0 + ry.eval(X, Y))))

        def run_ladder():
            # rho = r (1 + Kr + r_y) = (r + r r_y) + K r^2
            base = real_hessian_values(r.poly + r.poly * ry, X, Y)
            grad = np.stack(
                [r.d_x(j).eval(X, Y) for j in range(r.nx)] + [ry.eval(X, Y)], axis=0
            ).T
            return k_ladder(
                base, grad, config.max_k_exp, lambda H: real_psd_stats(H, X, Y, config.tol)
            )

        return least_h, run_ladder

    ks = radius_search(config, attempt)
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
