"""Numeric boundary verification: sampling, PSD scans, identity checks.

Boundary points come from a low-discrepancy tangential sample (the
scrambled Halton stream of `sampler`, plain numpy) with Im w recovered by
1-D Newton (residual <= 1e-12).  PSD checks look at Hessian diagonals, all
z_j/w 2x2 minors, and the least eigenvalue; n = 2 uses the closed-form
eigenvalue, larger n a batched solve.  Everything is deterministic under a
fixed seed.  The ball sampler, the Newton solver, the PSD statistics and
the h floor serve the real lane too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .gaussrat import GaussianRational
from .cr import DefiningFunction, hessian_entries, hessian_minor_det
from .numeval import compiled
from .sampler import BallStream
from .wirtinger import WPoly, indexed_names

NEWTON_TARGET = 1e-13
RESIDUAL_BOUND = 1e-12
DEFAULT_TOL = 1e-9
H_MIN = 0.5  # floor on |h| (and |1 + T|) over a shell


def check_sampling(radius: float, samples: int, tol: float) -> None:
    """Reject a shell no scan can certify from: radius not finite or <= 0,
    samples < 1, tol < 0 or NaN.  Raises ValueError."""
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be finite and > 0, got {radius}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol}")


class ProbeConfigurationError(RuntimeError):
    """No boundary-projectable points under the requested configuration."""


def _dv_poly(r: DefiningFunction) -> WPoly:
    # d r / d(Im w) = i (r_w - r_wbar)
    return r.cached(
        "dv", lambda: (r.d_w() - r.d_wbar()).scale(GaussianRational(0, 1))
    )


def newton(value, slope, v):
    """Solve value(v) = 0 per point by Newton steps from v.

    Stops after 60 steps or once every |value| <= NEWTON_TARGET; slopes
    smaller than 1e-6 in size are clamped to +-1.  Returns (v, ok) where ok
    flags points with |value| <= RESIDUAL_BOUND.
    """
    vals = value(v)
    for _ in range(60):
        if np.max(np.abs(vals), initial=0.0) <= NEWTON_TARGET:
            break
        s = slope(v)
        s = np.where(np.abs(s) < 1e-6, np.sign(s + 1e-30), s)
        v = v - vals / s
        vals = value(v)
    return v, np.abs(vals) <= RESIDUAL_BOUND


def project_to_boundary(r: DefiningFunction, Z, U, dtype=np.complex128, targets=None):
    """Solve Im w so r(z, u + i v) = target by Newton from v = 0.

    The default target is 0 (the boundary); per-point negative targets give
    inward collar points.  Returns (W, ok) where ok flags points with
    |r - target| <= 1e-12.
    """
    rp = compiled(r.poly)
    rv = compiled(_dv_poly(r))
    Z = np.asarray(Z, dtype=dtype).reshape(len(U), r.nz)
    U = np.asarray(U, dtype=np.float64)
    tgt = 0.0 if targets is None else np.asarray(targets, dtype=np.float64)
    V = np.zeros(len(U), dtype=np.longdouble if dtype == np.clongdouble else np.float64)
    V, ok = newton(
        lambda V: rp.eval(Z, (U + 1j * V).astype(dtype)).real - tgt,
        lambda V: rv.eval(Z, (U + 1j * V).astype(dtype)).real,
        V,
    )
    return (U + 1j * V).astype(np.complex128), ok


def point_norms(P: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Euclidean norm of each point (P[i], q[i]), complex or real."""
    return np.sqrt(np.sum(np.abs(P) ** 2, axis=1) + np.abs(q) ** 2)


@dataclass
class Shell:
    """Boundary sample within the closed ball of `radius`.

    Subclasses hold the points of one lane and a residual per point, and
    give their real coordinate columns by name (`coordinates`) and the
    Hessian of a polynomial at each point (`hessian`).
    """

    radius: float
    seed: int

    @property
    def count(self) -> int:
        return len(self.residuals)

    def as_dict(self) -> dict:
        return {
            "radius": self.radius,
            "seed": self.seed,
            "count": self.count,
            "max_residual": float(np.max(self.residuals)) if self.count else 0.0,
        }


@dataclass
class BoundaryShell(Shell):
    """Points (z, w) on the boundary."""

    Z: np.ndarray  # (count, nz) complex
    W: np.ndarray  # (count,) complex
    residuals: np.ndarray

    def norms(self) -> np.ndarray:
        return point_norms(self.Z, self.W)

    def coordinates(self) -> dict:
        nz = self.Z.shape[1]
        out = {}
        for z, re, im in zip(
            self.Z.T, indexed_names("re_z{}", nz), indexed_names("im_z{}", nz)
        ):
            out[re], out[im] = z.real, z.imag
        out["re_w"], out["im_w"] = self.W.real, self.W.imag
        return out

    def hessian(self, f: WPoly) -> np.ndarray:
        return hessian_values(f, self.Z, self.W)


def ball_stream(r, d: int, seed: int) -> BallStream:
    """The Halton ball-fill stream of (d, seed), built once per domain r."""
    return r.cached(("halton", d, seed), lambda: BallStream(d, seed))


def sample_ball(stream: BallStream, radius: float, count: int, lift):
    """Boundary points over a low-discrepancy fill of a ball.

    Tangential coordinates are Halton-distributed in the ball of
    0.93*radius in R^d, read from the start of `stream`.  lift(coords)
    solves for the rest of each point and returns ((P, q), ok): the points
    as in `point_norms` and a convergence flag.  Non-convergent or
    out-of-ball points are dropped and topped up from the next stream
    indices, for at most 8 rounds.  Returns P and q, cut to `count` points.
    """
    kept = []
    have = start = 0
    for _ in range(8):
        n = max(64, int((count - have) * 1.25))
        dirs, radial = stream.take(start, n)
        start += n
        parts, ok = lift(dirs * (0.93 * radius * radial)[:, None])
        keep = ok & (point_norms(*parts) <= radius)
        kept.append([a[keep] for a in parts])
        have += int(np.sum(keep))
        if have >= count:
            break
    if have < count:
        raise ProbeConfigurationError(
            f"only {have}/{count} boundary points projectable at radius {radius}"
        )
    return [np.concatenate(arrays)[:count] for arrays in zip(*kept)]


def sample_boundary(
    r: DefiningFunction,
    radius: float,
    count: int,
    seed: int = 0,
) -> BoundaryShell:
    """Low-discrepancy boundary points filling the ball of the given radius.

    Tangential coordinates (Re z, Im z, Re w) fill the ball (see
    `sample_ball`); Im w is Newton-solved.  The shell is cached on r by
    (radius, count, seed), so every scan of one domain at those settings
    reads the same points; its arrays are read-only.  Shells of one seed
    share r's Halton stream.
    """
    nz = r.nz
    dtype = np.clongdouble if radius < 1e-4 else np.complex128

    def lift(coords):
        Z = coords[:, :nz] + 1j * coords[:, nz : 2 * nz]
        W, ok = project_to_boundary(r, Z, coords[:, -1], dtype=dtype)
        return (Z, W), ok

    def build():
        Z, W = sample_ball(ball_stream(r, 2 * nz + 1, seed), radius, count, lift)
        res = np.abs(compiled(r.poly).eval(Z, W).real)
        for a in (Z, W, res):
            a.flags.writeable = False
        return BoundaryShell(radius=radius, seed=seed, Z=Z, W=W, residuals=res)

    return r.cached(("shell", radius, count, seed), build)


def sample_collar(
    r: DefiningFunction,
    radius: float,
    count: int,
    seed: int = 0,
    delta: float = 1e-4,
) -> BoundaryShell:
    """Inward points with r in (-delta, 0), for exploratory use only.

    Nothing normative is checked off the boundary; callers must label any
    derived statistics accordingly.  Targets spread evenly in (-delta, 0)
    and residuals measure |r - target|.
    """
    shell = sample_boundary(r, radius, count, seed)
    targets = -delta * (np.arange(shell.count) + 0.5) / shell.count
    W, ok = project_to_boundary(r, shell.Z, shell.W.real, targets=targets)
    keep = ok & (point_norms(shell.Z, W) <= radius)
    if not np.any(keep):
        raise ProbeConfigurationError(
            f"no collar points projectable at radius {radius}, delta {delta}"
        )
    Z, W, targets = shell.Z[keep], W[keep], targets[keep]
    res = np.abs(compiled(r.poly).eval(Z, W).real - targets)
    return BoundaryShell(radius=radius, seed=seed, Z=Z, W=W, residuals=res)


# -- Hessian evaluation ---------------------------------------------------


def hessian_stack(H: list, Z, W, dtype) -> np.ndarray:
    """Values (m, n, n) of the n x n Hessian entry table H at each point.

    Entries on and above the diagonal are evaluated; those below are their
    conjugates.
    """
    n = len(H)
    out = np.empty((len(W), n, n), dtype=dtype)
    for j in range(n):
        for k in range(j, n):
            vals = compiled(H[j][k]).eval(Z, W)
            out[:, j, k] = vals
            if k != j:
                out[:, k, j] = np.conj(vals)
    return out


def hessian_values(f: WPoly, Z: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Complex Hessian of f at each point: array (m, n, n), Hermitian."""
    return hessian_stack(hessian_entries(f), Z, W, complex)


def least_eigenvalues(H: np.ndarray) -> np.ndarray:
    """The two smallest eigenvalues per point, ascending, shape (m, 2);
    closed form for 2x2, solver otherwise."""
    n = H.shape[-1]
    if n == 2:
        a = H[:, 0, 0].real
        c = H[:, 1, 1].real
        b = H[:, 0, 1]
        half = 0.5 * (a + c)
        disc = np.sqrt((0.5 * (a - c)) ** 2 + np.abs(b) ** 2)
        return np.stack([half - disc, half + disc], axis=1)
    return np.linalg.eigvalsh(H)[:, :2]


@dataclass
class PsdCheckResult:
    passed: bool
    tol: float
    min_diag: float
    min_minor: float
    min_eig: float
    worst_point: dict
    count: int
    # the two least eigenvalues per point, (m, 2), for the K search; not
    # part of the report
    low_eigs: np.ndarray | None = field(default=None, repr=False, compare=False)

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "tol": self.tol,
            "min_diag": self.min_diag,
            "min_minor": self.min_minor,
            "min_eig": self.min_eig,
            "worst_point": self.worst_point,
            "count": self.count,
        }


def _point_dict(Z, W, i) -> dict:
    return {
        "z": [[float(Z[i, j].real), float(Z[i, j].imag)] for j in range(Z.shape[1])],
        "w": [float(W[i].real), float(W[i].imag)],
    }


def psd_arrays(H: np.ndarray):
    """Per-point PSD statistics of a Hermitian (or real symmetric) stack.

    Returns the diagonals (m, n), the 2x2 minors of each slot with the
    last one (m, n - 1) and the two least eigenvalues (m, 2).  An empty stack
    raises ValueError: no points are no evidence.
    """
    if not len(H):
        raise ValueError("PSD statistics need at least one point")
    n = H.shape[-1]
    diags = np.stack([H[:, j, j].real for j in range(n)], axis=1)
    minors = np.stack(
        [
            H[:, j, j].real * H[:, n - 1, n - 1].real
            - np.abs(H[:, j, n - 1]) ** 2
            for j in range(n - 1)
        ],
        axis=1,
    )
    return diags, minors, least_eigenvalues(H)


def psd_result(H: np.ndarray, tol: float, point) -> PsdCheckResult:
    """The pass rule: every diagonal, minor and least eigenvalue >= -tol.

    point(i) describes point i for the report's worst point.
    """
    diags, minors, low_eigs = psd_arrays(H)
    eigs = low_eigs[:, 0]
    min_diag = float(diags.min())
    min_minor = float(minors.min())
    min_eig = float(eigs.min())
    return PsdCheckResult(
        passed=bool(min(min_diag, min_minor, min_eig) >= -tol),
        tol=tol,
        min_diag=min_diag,
        min_minor=min_minor,
        min_eig=min_eig,
        worst_point=point(int(np.argmin(eigs))),
        count=len(eigs),
        low_eigs=low_eigs,
    )


def psd_stats(H: np.ndarray, Z, W, tol: float) -> PsdCheckResult:
    return psd_result(H, tol, lambda i: _point_dict(Z, W, i))


def psd_check(f: WPoly, shell: BoundaryShell, tol: float = DEFAULT_TOL) -> PsdCheckResult:
    """Sampled positive-semidefiniteness of the complex Hessian of f.

    Checks diagonal entries, every (z_j, w) 2x2 minor, and the least
    eigenvalue of the full Hessian; passes iff all minima >= -tol.
    """
    H = hessian_values(f, shell.Z, shell.W)
    return psd_stats(H, shell.Z, shell.W, tol)


# -- Determinant identity -------------------------------------------------


@dataclass
class IdentityCheckResult:
    max_deviation: float
    max_lhs: float
    tolerance: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "max_deviation": self.max_deviation,
            "max_lhs": self.max_lhs,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def identity_check_prop31(
    r: DefiningFunction,
    K,
    T: WPoly,
    shell: BoundaryShell,
    rel_tol: float = 1e-8,
) -> IdentityCheckResult:
    """On-boundary determinant identity for rho = (1 + K r + T) r.

    Per j, the z_j/w Hessian minor of rho must equal
    2 K h L_j + (same minor of (1 + T) r); the deviation is O(boundary
    residual) and is compared against rel_tol * (1 + max |LHS|).
    """
    nz = r.nz
    one = WPoly.one(nz)
    h = one + r.poly.scale(Fraction(K)) + T
    p = one + T
    rho = h * r.poly
    base = p * r.poly
    max_dev = 0.0
    max_lhs = 0.0
    hv = compiled(h).eval(shell.Z, shell.W)
    for j in range(nz):
        lhs = compiled(hessian_minor_det(rho, j)).eval(shell.Z, shell.W).real
        rhs = (
            2.0
            * float(K)
            * hv.real
            * compiled(r.levi(j)).eval(shell.Z, shell.W).real
            + compiled(hessian_minor_det(base, j)).eval(shell.Z, shell.W).real
        )
        max_dev = max(max_dev, float(np.max(np.abs(lhs - rhs))))
        max_lhs = max(max_lhs, float(np.max(np.abs(lhs))))
    tol = rel_tol * (1.0 + max_lhs)
    return IdentityCheckResult(
        max_deviation=max_dev, max_lhs=max_lhs, tolerance=tol, passed=max_dev <= tol
    )


# -- Levi scan ------------------------------------------------------------


@dataclass
class LeviScanResult:
    min_value: float
    worst_point: dict
    negative_count: int
    count: int
    tol: float

    @property
    def nonnegative(self) -> bool:
        return self.min_value >= -self.tol

    def as_dict(self) -> dict:
        return {
            "min_value": self.min_value,
            "worst_point": self.worst_point,
            "negative_count": self.negative_count,
            "count": self.count,
            "tol": self.tol,
            "nonnegative": self.nonnegative,
        }


def levi_scan(
    r: DefiningFunction,
    radius: float,
    samples: int = 2000,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> LeviScanResult:
    """Scan tangential Levi values over a boundary ball sample."""
    shell = sample_boundary(r, radius, samples, seed)
    Z, W = shell.Z, shell.W
    vals = None
    for j in range(r.nz):
        v = compiled(r.levi(j)).eval(Z, W).real
        vals = v if vals is None else np.minimum(vals, v)
    i = int(np.argmin(vals))
    return LeviScanResult(
        min_value=float(vals[i]),
        worst_point=_point_dict(Z, W, i),
        negative_count=int(np.sum(vals < -tol)),
        count=len(vals),
        tol=tol,
    )


# -- Necessary conditions -------------------------------------------------


@dataclass
class InequalityRecord:
    name: str
    min_slack: float
    holds: bool
    worst_point: dict

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "min_slack": self.min_slack,
            "holds": self.holds,
            "worst_point": self.worst_point,
        }


@dataclass
class NecessaryConditionsResult:
    inequalities: list
    log_deriv_max: float
    log_deriv_verdict: object  # DominanceVerdict
    all_hold: bool

    def as_dict(self) -> dict:
        return {
            "inequalities": [q.as_dict() for q in self.inequalities],
            "log_deriv_max": self.log_deriv_max,
            "log_deriv_verdict": self.log_deriv_verdict.as_dict()
            if self.log_deriv_verdict is not None
            else None,
            "all_hold": self.all_hold,
        }


def necessary_conditions_check(
    r: DefiningFunction,
    h: WPoly,
    shell: BoundaryShell,
    K=0,
    tol: float = DEFAULT_TOL,
    probes=None,
    check_log_deriv: bool = True,
) -> NecessaryConditionsResult:
    """Pointwise necessary inequalities for rho = h r plurisubharmonic.

    Evaluates, per j, the four tangential-frame inequalities (slack >= -tol
    reported with witnesses), then the log-derivative deviation
    d/dz_j log(1+T) + d/dz_j log r_wbar via its polynomial numerator,
    classified by dominance against Levi + |grad_z r|^2.
    """
    nz = r.nz
    Z, W = shell.Z, shell.W
    hv = compiled(h).eval(Z, W)
    if np.abs(hv).min() < H_MIN:
        raise ValueError("h vanishes (|h| < 1/2) on the sampled shell")
    rho = h * r.poly
    p1 = h - r.poly.scale(Fraction(K))  # 1 + T on and off the boundary
    hvals = hv.real
    rww = compiled(rho.dw().dwbar()).eval(Z, W).real
    rw2 = np.abs(compiled(r.d_w()).eval(Z, W)) ** 2
    records = []
    for j in range(nz):
        L = compiled(r.levi(j)).eval(Z, W).real
        rz2 = np.abs(compiled(r.d_z(j)).eval(Z, W)) ** 2
        rzz = compiled(rho.dz(j).dzbar(j)).eval(Z, W).real
        rzw2 = np.abs(compiled(rho.dz(j).dwbar()).eval(Z, W)) ** 2
        hL = hvals * L
        slacks = {
            "upper_zz": 2 * hL / rw2 + 2 * rww * rz2 / rw2 - rzz,
            "lower_zz_mixed": rzz - rww * rz2 / (2 * rw2) + hL / rw2,
            "lower_zz_levi": rzz - hL / (2 * rw2) + rww * rz2 / rw2,
            "offdiag_sq": 2 * rww * hL / rw2 + 2 * rww**2 * rz2 / rw2 - rzw2,
        }
        for name, s in slacks.items():
            i = int(np.argmin(s))
            records.append(
                InequalityRecord(
                    name=f"{name}[j={j + 1}]",
                    min_slack=float(s[i]),
                    holds=bool(s[i] >= -tol),
                    worst_point=_point_dict(Z, W, i),
                )
            )
    log_max = 0.0
    verdict = None
    if check_log_deriv:
        from .dominance import Bound, dominance_check, default_probes

        if probes is None:
            probes = default_probes(r.nz, shell.seed)
        worst = None
        for j in range(nz):
            num_poly = p1.dz(j) * r.d_wbar() + p1 * r.poly.dz(j).dwbar()
            num = compiled(num_poly).eval(Z, W)
            den = compiled(p1).eval(Z, W) * compiled(r.d_wbar()).eval(Z, W)
            log_max = max(log_max, float(np.max(np.abs(num / den))))
            v = dominance_check(num_poly, Bound.LEVI_PLUS_GRAD, r, probes, j=j)
            if worst is None or _verdict_rank(v) > _verdict_rank(worst):
                worst = v
        verdict = worst
    all_hold = all(q.holds for q in records)
    return NecessaryConditionsResult(
        inequalities=records,
        log_deriv_max=log_max,
        log_deriv_verdict=verdict,
        all_hold=all_hold,
    )


def _verdict_rank(v) -> int:
    order = {"Dominated": 0, "Unknown": 1, "NotDominated": 2}
    return order.get(v.status, 1)
