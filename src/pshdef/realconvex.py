"""Real-coordinates lane: convexity and the explicit multiplier 1 + Kr + r_y.

Domains {r < 0} in R^n with r = y + G(x, y), G of degree >= 2, so r_y is 1
near 0.  Because r_y is real it already solves the log-derivative equation,
and the whole staged construction collapses to the fixed choice T = r_y plus
a ladder over K.  The lane runs on the complex lane's cores: `RPoly` is
the exact sparse polynomial of `wirtinger` with rational coefficients over
(x_1..x_n, y), and the numeric side is the compiled evaluator (`numeval`),
the Halton ball sampler, the Newton solver, the PSD statistics and the h
floor (`verify`), and the K ladder and radius shrink (`construct`).  Only
the coordinates differ.

Off the boundary, with p = 1 + r_y, the Hessian determinant of r*h in a
tangential (x_j, y) plane expands as

    H_rh = H_rp + 4 K^2 r^2 H_r + 4 K^2 r L_r + 2 K L_rp
           + 2 K r [(rp)_xx r_yy + (rp)_yy r_xx - 2 (rp)_xy r_xy]

with L the tangential form below.  Documented for reference; nothing here
evaluates it, positivity is only ever checked on the boundary itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .construct import SHRINK, KSearchResult, check_search_config, k_ladder
from .numeval import compiled
from .verify import (
    DEFAULT_TOL,
    H_MIN,
    PsdCheckResult,
    Shell,
    ball_stream,
    hessian_stack,
    newton,
    point_norms,
    psd_result,
    sample_ball,
)
from .wirtinger import SparsePoly, indexed_names, term_text, var_slot


class RPoly(SparsePoly):
    """Polynomial over (x_1..x_nx, y) with exact rational coefficients.

    Exponent keys are tuples of length nx + 1, the last slot for y.
    """

    __slots__ = ()
    ring = Fraction
    numeric = float

    @staticmethod
    def width(nx: int) -> int:
        return nx + 1

    @staticmethod
    def columns(X, Y) -> list:
        return [*X.T, Y]

    @property
    def nx(self) -> int:
        return self.n

    @classmethod
    def var_x(cls, nx: int, j: int = 0) -> "RPoly":
        return cls.var(nx, j)

    @classmethod
    def var_y(cls, nx: int) -> "RPoly":
        return cls.var(nx, 0, nx)

    def d_x(self, j: int = 0) -> "RPoly":
        return self.partial(var_slot(j, self.n))

    def d_y(self) -> "RPoly":
        return self.partial(self.n)

    def eval(self, X, Y) -> np.ndarray:
        """Values at rows of X (m, nx) and Y (m,), float64."""
        Y = np.asarray(Y, dtype=np.float64)
        X = np.asarray(X, dtype=np.float64).reshape(len(Y), self.nx)
        return compiled(self).eval(X, Y)

    def __repr__(self):
        return f"RPoly({canonical_rstr(self)!r})"


def canonical_rstr(p: RPoly) -> str:
    """Sorted-monomial text form; parses back to an identical RPoly."""
    return term_text(p.terms, indexed_names("x{}", p.nx) + ["y"])


# -- normal form ----------------------------------------------------------


class RealNormalFormError(ValueError):
    """Input fails the r = y + G normal form; lists every violated clause."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


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
        raise RealNormalFormError(violations)
    return RealDefiningFunction(p)


@dataclass
class RealDefiningFunction:
    """A validated local defining function r = y + G."""

    poly: RPoly
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def nx(self) -> int:
        return self.poly.nx

    def cached(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def d_x(self, j: int = 0) -> RPoly:
        return self.cached(("dx", j), lambda: self.poly.d_x(j))

    def d_y(self) -> RPoly:
        return self.cached("dy", lambda: self.poly.d_y())


# -- boundary sampling ----------------------------------------------------


def project_to_real_boundary(r: RealDefiningFunction, X):
    """Solve y so r(x, y) = 0 by Newton from y = 0.

    Returns (Y, ok) where ok flags points with |r| <= 1e-12.
    """
    X = np.asarray(X, dtype=np.float64).reshape(-1, r.nx)
    ry = r.d_y()
    return newton(lambda Y: r.poly.eval(X, Y), lambda Y: ry.eval(X, Y), np.zeros(len(X)))


@dataclass
class RealShell(Shell):
    """Points (x, y) on the boundary."""

    X: np.ndarray  # (count, nx)
    Y: np.ndarray  # (count,)
    residuals: np.ndarray

    def norms(self) -> np.ndarray:
        return point_norms(self.X, self.Y)


def sample_real_boundary(
    r: RealDefiningFunction,
    radius: float,
    count: int,
    seed: int = 0,
) -> RealShell:
    """Low-discrepancy boundary points filling the ball of the given radius.

    The x coordinates fill the ball (see `verify.sample_ball`) from r's
    Halton stream of this seed; y is Newton-solved.
    """

    def lift(X):
        Y, ok = project_to_real_boundary(r, X)
        return (X, Y), ok

    X, Y = sample_ball(ball_stream(r, r.nx, seed), radius, count, lift)
    res = np.abs(r.poly.eval(X, Y))
    return RealShell(radius=radius, seed=seed, X=X, Y=Y, residuals=res)


# -- Hessian checks -------------------------------------------------------


def real_hessian_entries(f: RPoly) -> list:
    """Upper-triangular (nx+1)x(nx+1) second-derivative polynomials."""
    n = f.nx + 1

    def d(a: int) -> RPoly:
        return f.d_x(a) if a < f.nx else f.d_y()

    firsts = [d(a) for a in range(n)]
    out = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            g = firsts[a]
            out[a][b] = g.d_x(b) if b < f.nx else g.d_y()
    return out


def real_hessian_values(f: RPoly, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Real Hessian of f at each point: array (m, n, n), symmetric."""
    return hessian_stack(real_hessian_entries(f), X, Y, np.float64)


def _real_point_dict(X, Y, i) -> dict:
    return {
        "x": [float(X[i, j]) for j in range(X.shape[1])],
        "y": float(Y[i]),
    }


def real_psd_stats(H: np.ndarray, X, Y, tol: float) -> PsdCheckResult:
    return psd_result(H, tol, lambda i: _real_point_dict(X, Y, i))


def real_hessian_check(f: RPoly, shell: RealShell, tol: float = DEFAULT_TOL) -> PsdCheckResult:
    """Full real Hessian PSD sampling of f over the shell."""
    H = real_hessian_values(f, shell.X, shell.Y)
    return real_psd_stats(H, shell.X, shell.Y, tol)


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
    r: RealDefiningFunction, shell: RealShell, tol: float = DEFAULT_TOL
) -> dict:
    """Minimum of every tangential form over the shell, with witness."""
    worst = None
    for j in range(r.nx):
        vals = tangential_form(r, j).eval(shell.X, shell.Y)
        i = int(np.argmin(vals))
        if worst is None or vals[i] < worst[0]:
            worst = (float(vals[i]), j, i)
    value, j, i = worst
    passed = value >= -tol
    out = {"min_value": value, "passed": passed, "witness": None}
    if not passed:
        out["witness"] = {
            "j": j + 1,
            "point": _real_point_dict(shell.X, shell.Y, i),
            "value": value,
        }
    return out


# -- the multiplier -------------------------------------------------------


@dataclass
class RealConfig:
    radius: float = 1e-2
    samples: int = 2000
    seed: int = 0
    max_k_exp: int = 20
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        check_search_config(self)

    def as_dict(self) -> dict:
        return {
            "radius": self.radius,
            "samples": self.samples,
            "seed": self.seed,
            "max_k_exp": self.max_k_exp,
            "tol": self.tol,
        }


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
            "schema_version": 1,
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
    """Certify r * (1 + Kr + r_y) convex near 0, K from the searched K ladder.

    Convexity of the input (every tangential form >= 0 on the shell) is a
    precondition; a violation reports an obstruction with witness.  The h
    floor |1 + r_y| >= 1/2 triggers the same single radius shrink as the
    complex lane.
    """
    config = config or RealConfig()
    ry = r.d_y()
    h_text = f"1 + K * ({canonical_rstr(r.poly)}) + {canonical_rstr(ry)}"
    messages = [
        "h floor and ladder limits transplanted from the complex lane",
    ]

    radius = config.radius
    shrunk = False
    shell = None
    precheck = None
    for attempt in range(2):
        shell = sample_real_boundary(r, radius, config.samples, config.seed)
        precheck = convexity_check(r, shell, config.tol)
        hbase = 1.0 + ry.eval(shell.X, shell.Y)
        if np.min(np.abs(hbase)) >= H_MIN or attempt:
            break
        radius *= SHRINK
        shrunk = True

    report = RealReport(
        status="Exhausted",
        r_text=canonical_rstr(r.poly),
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

    # rho = r (1 + Kr + r_y) = (r + r r_y) + K r^2: Hessian is linear in K,
    # and on the shell Hess(r^2) = 2 grad r grad r^T + 2 r Hess r is rank one
    # up to the boundary residual
    base = real_hessian_values(r.poly + r.poly * ry, shell.X, shell.Y)
    quad = real_hessian_values(r.poly * r.poly, shell.X, shell.Y)
    grad = np.stack(
        [r.d_x(j).eval(shell.X, shell.Y) for j in range(r.nx)]
        + [ry.eval(shell.X, shell.Y)],
        axis=1,
    )
    ladder, K, stats = k_ladder(
        base,
        quad,
        grad,
        config.max_k_exp,
        lambda H: real_psd_stats(H, shell.X, shell.Y, config.tol),
    )
    witness = None
    if not stats.passed:
        witness = {
            "K": K,
            "min_eig": stats.min_eig,
            "min_minor": stats.min_minor,
            "min_diag": stats.min_diag,
        }
    report.k_search = KSearchResult(
        stats.passed, K if stats.passed else None, ladder, witness, radius, shrunk
    ).as_dict()
    if witness is not None:
        report.obstruction = {
            "kind": "k_search_failed",
            "claim": "no ladder K makes the product Hessian positive "
            "semi-definite on the shell",
            "witness": witness,
        }
        return report

    report.status = "Certified"
    report.final = {
        "T": canonical_rstr(ry),
        "K": K,
        "stage": 0,
        "residual": "0",
        "absorbed_terms": [],
        "h": h_text,
    }
    report.verification = {"hessian": stats.as_dict()}
    return report
