"""Numeric boundary verification: sampling, PSD scans, the pass rule.

Both lanes' boundary layer.  Boundary points come from a low-discrepancy
tangential sample (the scrambled Halton stream of `sampler`, plain numpy)
with the normal coordinate, Im w or y, recovered by 1-D Newton on the
domain's `normal_slope` (residual <= 1e-12); the polynomial class says how
a point splits, and `point_report` gives it as either lane's reports do.
PSD checks look at Hessian diagonals, all 2x2 minors with the last slot,
and the least eigenvalue, each against the one fixed slack TOL; n = 2
uses the closed-form eigenvalue, larger n a batched solve at the points a
batched LDL* screen leaves.  Everything is deterministic under a fixed seed.  A `PointSet` (a `Shell`, or the probe
shells or curves of a seed) keeps the values and the Hessian stacks
evaluated on it, one per polynomial, so the checks of one certificate read
one evaluation of each of h r's Hessian entries, h, 1 + T, r_wbar and the
log-derivative numerators; they live and die with the set, which is cached
on its domain.  `check_certificate` is the complex lane's one pass rule for
a finished certificate: the PSD scan of h r and the log-derivative verdict.
`h_floor_failure` is the one h floor test of both lanes.
`identity_check_prop31` is kept by name because the benchmark calls and
traces it; no pipeline code calls it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cr import DefiningFunction, Domain, hessian_entries
from .numeval import compiled
from .sampler import BallStream
from .wirtinger import WPoly

NEWTON_TARGET = 1e-13
RESIDUAL_BOUND = 1e-12
TOL = 1e-9  # the PSD slack: every scan passes a value >= -TOL
IDENTITY_REL_TOL = 1e-8  # `identity_check_prop31`'s bound, relative to 1 + max |LHS|
EXTENDED_BELOW = 1e-4  # shells of smaller radius are solved in extended precision
H_MIN = 0.5  # floor on |h| (and |1 + T|) over a shell


def h_floor_failure(least_h: float) -> dict | None:
    """The one h floor test: None when a shell's least |h| (or |1 + T|)
    is at least H_MIN, else the witness {"min_abs_h", "h_floor"}.  A NaN
    least |h| fails."""
    if least_h >= H_MIN:
        return None
    return {"min_abs_h": least_h, "h_floor": H_MIN}


def check_sampling(radius: float, samples: int, seed: int) -> None:
    """Reject a shell no scan can certify from: radius not finite or <= 0,
    samples < 1, seed < 0 (no Halton scramble has one).  Raises
    ValueError."""
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be finite and > 0, got {radius}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


class HFloorError(ValueError):
    """|h| drops below H_MIN on a shell: no Hessian sign of h r is reliable."""


class ProbeConfigurationError(RuntimeError):
    """No boundary-projectable points under the requested configuration."""


def newton(value, slope, v, starts=None):
    """Solve value(v) = 0 per point by Newton steps from v.

    The points form groups that start at the offsets `starts` (one group
    when None).  A group takes no step after 60, nor once each of its
    |value| <= NEWTON_TARGET, so it gets the floats a run on it alone would
    give.  value and slope are evaluated at every point, and the points of
    a stopped group keep their v.  Slopes smaller than 1e-6 in size are
    clamped to +-1.  Returns (v, ok) where ok flags points with
    |value| <= RESIDUAL_BOUND.
    """
    cuts = [0, len(v)] if starts is None else [*starts, len(v)]
    sizes = np.diff(cuts)
    vals = value(v)
    for _ in range(60):
        moving = [
            not np.max(np.abs(vals[a:b]), initial=0.0) <= NEWTON_TARGET  # NaN moves
            for a, b in zip(cuts, cuts[1:])
        ]
        if not any(moving):
            break
        s = slope(v)
        step = v - vals / np.where(np.abs(s) < 1e-6, np.sign(s + 1e-30), s)
        del s, vals  # not held through the next evaluation
        v = step if all(moving) else np.where(np.repeat(moving, sizes), step, v)
        vals = value(v)
    return v, np.abs(vals) <= RESIDUAL_BOUND


def project_to_boundary(r: Domain, Z, U=None, dtype=None, targets=None, starts=None):
    """Solve the normal coordinate v so r(Z, W) = target by Newton from v = 0.

    W is `boundary_w(U, v)` of r's polynomial class: u + i v, U the
    points' Re w, or y = v (U None).  Points are evaluated in `dtype`, one
    of the class's `precisions` (the first by default), and v is solved in
    its real precision.  The default target is 0 (the boundary); per-point
    negative targets give inward collar points.  `starts` splits the points
    into `newton` groups.  Z stays fixed, so r and `r.normal_slope()` are
    evaluated through `CompiledPoly.at`.  Returns (W, ok), W in the first
    precision, where ok flags points with |r - target| <= 1e-12.  Far out
    of range (a huge radius) a residual overflows or turns NaN; it fails
    that bound, so its point is dropped, and no warning is raised.
    """
    lane = type(r.poly)
    dtype = lane.precisions[0] if dtype is None else dtype
    Z = np.asarray(Z, dtype=dtype).reshape(-1, r.poly.n)
    U = None if U is None else np.asarray(U, dtype=np.float64)
    tgt = 0.0 if targets is None else np.asarray(targets, dtype=np.float64)

    def at(V):
        return lane.boundary_w(U, V).astype(dtype, copy=False)

    with np.errstate(over="ignore", invalid="ignore"):
        rp = compiled(r.poly).at(Z)
        rv = compiled(r.normal_slope()).at(Z)
        V, ok = newton(
            lambda V: rp(at(V)).real - tgt,
            lambda V: rv(at(V)).real,
            np.zeros(len(Z), dtype=np.finfo(dtype).dtype),
            starts,
        )
    return lane.boundary_w(U, V).astype(lane.precisions[0]), ok


def point_norms(P: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Euclidean norm of each point (P[i], q[i]), complex or real; inf,
    without a warning, where the squares overflow."""
    with np.errstate(over="ignore"):
        return np.sqrt(np.sum(np.abs(P) ** 2, axis=1) + np.abs(q) ** 2)


@dataclass
class PointSet:
    """Points of either lane as `CompiledPoly.eval` reads them: (z, w)
    complex, or real with x in Z and y in W.  A set keeps what is
    evaluated on it, read-only and once per polynomial (keyed by its == and
    hash): the values of a polynomial (`values`) and its Hessian stack
    (`hessian`), so every check of the set reads one evaluation of each.
    They live and die with the set."""

    Z: np.ndarray  # (m, n)
    W: np.ndarray  # (m,)

    @functools.cached_property
    def _cache(self) -> dict:
        return {}

    def _read(self, key, build) -> np.ndarray:
        out = self._cache.get(key)
        if out is None:
            out = self._cache[key] = build()
            out.flags.writeable = False
        return out

    def values(self, f) -> np.ndarray:
        """f at every point."""
        return self._read(("values", f), lambda: compiled(f).eval(self.Z, self.W))

    def hessian(self, f) -> np.ndarray:
        """`hessian_values` of f at every point, its entries read through
        `values`."""
        return self._read(
            ("hessian", f), lambda: hessian_stack(hessian_entries(f), self.values)
        )


@dataclass
class Shell(PointSet):
    """Boundary points within the closed ball of `radius`, with a residual
    per point."""

    radius: float
    seed: int
    residuals: np.ndarray

    @property
    def count(self) -> int:
        return len(self.residuals)


def ball_stream(r, d: int, seed: int) -> BallStream:
    """The Halton ball-fill stream of (d, seed), built once per domain r."""
    return r.cached(("halton", d, seed), lambda: BallStream(d, seed))


def sample_ball(stream: BallStream, radii, count: int, lift):
    """Boundary points over a low-discrepancy fill of a ball, per radius.

    For each radius, tangential coordinates are Halton-distributed in the
    ball of 0.93*radius in R^d, read from the start of `stream`.
    lift(coords, starts) solves for the rest of each point and returns
    ((P, q), ok): the points as in `point_norms` and a convergence flag;
    each radius' coordinates form one `newton` group, starting at its
    offset in starts.  Non-convergent or out-of-ball points are dropped and
    topped up from the next stream indices, for at most 8 rounds, and one
    lift call per round takes every radius still short.  Each radius reads
    the stream as a call with it alone would.  Returns [P, q] per radius,
    cut to `count` points.
    """
    kept = [[] for _ in radii]
    have = [0] * len(radii)
    start = [0] * len(radii)
    short = list(range(len(radii)))
    for _ in range(8):
        coords = []
        for i in short:
            n = max(64, int((count - have[i]) * 1.25))
            dirs, radial = stream.take(start[i], n)
            start[i] += n
            coords.append(dirs * (0.93 * radii[i] * radial)[:, None])
        cuts = np.cumsum([0] + [len(c) for c in coords])
        parts, ok = lift(np.concatenate(coords), cuts[:-1])
        norms = point_norms(*parts)
        for i, a, b in zip(short, cuts, cuts[1:]):
            keep = ok[a:b] & (norms[a:b] <= radii[i])
            kept[i].append([x[a:b][keep] for x in parts])
            have[i] += int(np.sum(keep))
        short = [i for i in short if have[i] < count]
        if not short:
            break
    if short:
        i = short[0]
        raise ProbeConfigurationError(
            f"only {have[i]}/{count} boundary points projectable "
            f"at radius {radii[i]}"
        )
    return [[np.concatenate(arrays)[:count] for arrays in zip(*k)] for k in kept]


def boundary_points(r: Domain, radii, count: int, seed: int = 0) -> list:
    """Boundary points (Z, W) filling the ball of each radius.

    Tangential coordinates, (Re z, Im z, Re w) or x, fill the ball (see
    `sample_ball`) from r's Halton stream of this seed; r's polynomial
    class splits them (`tangential_point`).  The normal coordinate is
    Newton-solved (`project_to_boundary`), in extended precision below
    radius EXTENDED_BELOW, in one `sample_ball` per precision.
    """
    lane, n = type(r.poly), r.poly.n
    out = [None] * len(radii)
    for dtype, low in zip(lane.precisions, (False, True)):
        idx = [i for i, x in enumerate(radii) if (x < EXTENDED_BELOW) == low]
        if not idx:
            continue

        def lift(coords, starts=None):
            Z, U = lane.tangential_point(coords, n)
            W, ok = project_to_boundary(r, Z, U, dtype, starts=starts)
            return (Z, W), ok

        # one exponent slot per real dimension, less the normal coordinate
        stream = ball_stream(r, lane.width(n) - 1, seed)
        for i, pts in zip(idx, sample_ball(stream, [radii[i] for i in idx], count, lift)):
            out[i] = pts
    return out


def sample_boundary(
    r: Domain,
    radius: float,
    count: int,
    seed: int = 0,
) -> Shell:
    """Low-discrepancy boundary points filling the ball of the given radius.

    The points are `boundary_points`.  The shell is cached on r by
    (radius, count, seed), so every scan of one domain at those settings
    reads the same points; its arrays are read-only.  Shells of one seed
    share r's Halton stream.
    """

    def build():
        [(Z, W)] = boundary_points(r, [radius], count, seed)
        res = np.abs(compiled(r.poly).eval(Z, W).real)
        for a in (Z, W, res):
            a.flags.writeable = False
        return Shell(radius=radius, seed=seed, Z=Z, W=W, residuals=res)

    return r.cached(("shell", radius, count, seed), build)


def sample_collar(
    r: DefiningFunction,
    radius: float,
    count: int,
    seed: int = 0,
    delta: float = 1e-4,
) -> Shell:
    """Inward points with r in (-delta, 0), for exploratory use only.

    Nothing normative is checked off the boundary; callers must label any
    derived statistics accordingly.  Targets spread evenly in (-delta, 0)
    and residuals measure |r - target|.  Raises ValueError unless delta is
    finite and > 0.
    """
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be finite and > 0, got {delta}")
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
    return Shell(radius=radius, seed=seed, Z=Z, W=W, residuals=res)


# -- Hessian evaluation ---------------------------------------------------


def hessian_stack(H: list, values) -> np.ndarray:
    """Values (m, n, n) of the n x n Hessian entry table H at each point,
    values(f) giving an entry f at every point.

    Entries on and above the diagonal are read; those below are their
    conjugates.  The stack takes the dtype of the evaluated entries: complex
    for a WPoly table, float for an RPoly one.  It is entry-planar: the
    (m, n, n) view of an (n, n, m) array, so each entry H[:, j, k] over
    the points is one contiguous array, as the PSD statistics and `ldl`
    read it.
    """
    n = len(H)
    out = None
    for j in range(n):
        for k in range(j, n):
            vals = values(H[j][k])
            if out is None:
                out = np.empty((n, n, len(vals)), dtype=vals.dtype).transpose(2, 0, 1)
            out[:, j, k] = vals
            if k != j:
                out[:, k, j] = np.conj(vals)
    return out


def gradient_stack(r, Z, W) -> np.ndarray:
    """r.gradient() at each point, (m, n), as `k_ladder` reads it: the view
    of an (n, m) array, so each partial's values are contiguous."""
    return np.stack([compiled(d).eval(Z, W) for d in r.gradient()], axis=0).T


def hessian_values(f: WPoly, Z: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Complex Hessian of f at each point: array (m, n, n), Hermitian.  An
    RPoly at real points gives its real symmetric Hessian."""
    return hessian_stack(hessian_entries(f), lambda e: compiled(e).eval(Z, W))


RESCALE = 2.0**-600  # takes entries below 2^1024 under 2^424: their squares are finite


def _in_range(form, degree: int, a, b, c):
    """form(a, b, c) per point, for a form homogeneous of `degree` in the
    entries of [[a, b], [conj(b), c]] (a, c real, b = |b|).  Where it is
    not finite, it is evaluated again on the entries times RESCALE, exact
    powers of two, and scaled back, so finite entries give a finite value
    wherever the form's value is a double; elsewhere its floats stand."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = form(a, b, c)
        redo = ~np.isfinite(out)
        if redo.any():
            low = form(*(x[redo] * RESCALE for x in (a, b, c)))
            for _ in range(degree):
                low /= RESCALE
            out[redo] = low
    return out


def _least_2x2(a, b, c):
    # With a positive trace the least eigenvalue is the determinant over
    # the largest one, which keeps its relative accuracy when it is tiny
    # beside the largest; the difference form would cancel there.  hypot
    # keeps the root finite where its squares overflow (diag(1, 1e160)).
    half = 0.5 * (a + c)
    root = np.hypot(0.5 * (a - c), b)
    out = half - root
    np.divide(a * c - b**2, half + root, out=out, where=half > 0)
    return out


def _difference_2x2(a, b, c):
    # the textbook form: cheaper than _least_2x2, and accurate to rounding
    # of the larger eigenvalue, which is all a ranking needs
    return 0.5 * (a + c) - np.sqrt((0.5 * (a - c)) ** 2 + b**2)


def least_2x2(a, b, c):
    """Least eigenvalue of [[a, b], [conj(b), c]] per point, given a and c
    real and b = |b|; in range for entries across the double range."""
    return _in_range(_least_2x2, 1, a, b, c)


def least_eigenvalues(H: np.ndarray) -> np.ndarray:
    """The least eigenvalue per point, shape (m,); the entry itself for
    1x1, closed form for 2x2, solver otherwise."""
    if H.shape[-1] == 1:
        return H[:, 0, 0].real
    if H.shape[-1] == 2:
        return least_2x2(H[:, 0, 0].real, np.abs(H[:, 0, 1]), H[:, 1, 1].real)
    return np.linalg.eigvalsh(H)[:, 0]


LDL_BLOCK = 2048  # points per `ldl` block: bounds its column temporaries


def ldl(H: np.ndarray, shift, rhs: np.ndarray | None = None):
    """LDL* of H - shift I at each point, without pivoting.

    H is a Hermitian (or real symmetric) stack (m, n, n), read as 1-D
    columns of its entries on and below the diagonal, which suits small n;
    each column is contiguous in an entry-planar stack (see
    `hessian_stack`), and a C-ordered one gives the same floats.  shift is
    a scalar or one value per point.  Returns the pivots d (m, n)
    and, given rhs (m, n), the y (m, n) solving L y = rhs, so that
    rhs* (H - shift I)^-1 rhs = sum |y|^2 / d; else None.  d and y are
    column-planar, (m, n) views of (n, m) arrays, so each column d[:, k]
    or y[:, k] is contiguous.  While every pivot is nonzero, the number of
    negative pivots is the number of eigenvalues below shift (Sylvester's
    law of inertia).  A zero pivot leaves every later pivot non-finite,
    and a NaN entry some pivot.  Points go through in blocks of LDL_BLOCK.
    """
    m, n = H.shape[:2]
    shift = np.broadcast_to(shift, (m,))
    d = np.empty((n, m))
    y = None if rhs is None else np.empty((n, m), np.result_type(H, rhs))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo in range(0, m, LDL_BLOCK):
            b = slice(lo, lo + LDL_BLOCK)
            L = [[None] * n for _ in range(n)]
            Ec = [[None] * n for _ in range(n)]  # Ec[j][k] = conj(L_jk) d_k
            for k in range(n):
                dk = H[b, k, k].real - shift[b]
                for p in range(k):
                    dk = dk - (L[k][p] * Ec[k][p]).real
                d[k, b] = dk
                for j in range(k + 1, n):
                    e = H[b, j, k]
                    for p in range(k):
                        e = e - L[j][p] * Ec[k][p]
                    Ec[j][k] = np.conj(e)
                    L[j][k] = e / dk
            if rhs is not None:
                for k in range(n):
                    yk = rhs[b, k]
                    for p in range(k):
                        yk = yk - L[k][p] * y[p, b]
                    y[k, b] = yk
    return d.T, None if y is None else y.T


@dataclass
class PsdCheckResult:
    passed: bool
    tol: float
    min_diag: float
    min_minor: float
    min_eig: float
    worst_point: dict
    count: int

    def as_dict(self) -> dict:
        return dict(vars(self))


def point_report(Z, W, i) -> dict:
    """Point i of a point set as the reports give it: {"z": [[Re, Im] per
    z_j], "w": [Re, Im]} for complex points, {"x": [x_j], "y": y} for a
    real shell's."""
    if not np.iscomplexobj(W):
        return {"x": [float(x) for x in Z[i]], "y": float(W[i])}
    return {
        "z": [[float(z.real), float(z.imag)] for z in Z[i]],
        "w": [float(W[i].real), float(W[i].imag)],
    }


def last_slot_minors(H: np.ndarray) -> np.ndarray:
    """The 2x2 minors of each slot with the last one, (m, n - 1), of a
    Hermitian (or real symmetric) stack: the z_j/w minors of a complex
    Hessian.  Like `diagonals`, each column is contiguous."""
    n = H.shape[-1]
    return np.stack(
        [
            _in_range(
                _minor, 2, H[:, j, j].real, np.abs(H[:, j, n - 1]), H[:, n - 1, n - 1].real
            )
            for j in range(n - 1)
        ],
        axis=0,
    ).T


def _minor(a, b, c):
    return a * c - b**2


def diagonals(H: np.ndarray) -> np.ndarray:
    """The real diagonals (m, n) of a Hermitian (or real symmetric) stack,
    each column contiguous, as the stack's entries are in `hessian_stack`.
    An empty stack raises ValueError: no points are no evidence."""
    if not len(H):
        raise ValueError("PSD statistics need at least one point")
    return np.stack([H[:, j, j].real for j in range(H.shape[-1])], axis=0).T


def psd_arrays(H: np.ndarray):
    """Per-point PSD statistics of a Hermitian (or real symmetric) stack:
    the `diagonals` (m, n), the `last_slot_minors` (m, n - 1) and the
    least eigenvalues (m,)."""
    return diagonals(H), last_slot_minors(H), least_eigenvalues(H)


SCREEN_SEEDS = 32  # points whose least eigenvalues give the screen's bound
SCREEN_MARGIN = 2.0**-40  # the screen's shift above that bound, relative


def eigen_candidates(H: np.ndarray, diags: np.ndarray):
    """The points of an n >= 3 stack where the least eigenvalue can be the
    stack's minimum, as indices in ascending order; None means every point.
    diags are the stack's `diagonals`.

    t is the least eigenvalue of the SCREEN_SEEDS points whose 2x2
    principal submatrices have the smallest least eigenvalue, an upper
    bound on the point's own (Cauchy interlacing); that eigenvalue only
    ranks the points, so it is read in the cheaper difference form (kept
    in range by `_in_range`), and any choice of seeds keeps the screen
    sound, t being a computed eigenvalue.  A point drops out when
    H - s I, with s = t + SCREEN_MARGIN (max |H_jk| + |t|) over its
    entries, has only positive `ldl` pivots; a NaN pivot, which a zero
    pivot leaves in every later slot, is not positive, so its point stays.
    For n <= 4 that margin is well over ten times the backward error of
    the LDL* and the eigen solver together, so a dropped point's computed
    least eigenvalue lies strictly above t.  The seed points stay in, so
    the minimum and its first index over the candidates are those over the
    stack, the same floats.  n = 2 has a closed form, and a t that is not
    finite screens nothing.  The screen also serves n = 5 and 6
    (`catalog.ball_like(4)` reaches the ladder at n = 5), where the margin
    is not argued; there the tests pin the screened minimum and its first
    index to the full scan's on random, near-zero PSD and shifted stacks,
    and on plateaus C + 2 g g* whose g is 0 at some points and orthogonal
    to C's least eigenvector at others, so that many points tie the
    minimum within rounding.
    """
    n = H.shape[-1]
    if n < 3 or len(H) <= SCREEN_SEEDS:
        return None
    bound = np.full(len(H), np.inf)
    size = np.abs(diags[:, 0])  # max |H_jk| over the point's entries
    for j in range(1, n):
        np.maximum(size, np.abs(diags[:, j]), out=size)
    for j, k in zip(*np.triu_indices(n, 1)):
        b = np.abs(H[:, j, k])
        rank = _in_range(_difference_2x2, 1, diags[:, j], b, diags[:, k])
        np.minimum(bound, rank, out=bound)
        np.maximum(size, b, out=size)
    seeds = np.argpartition(bound, SCREEN_SEEDS)[:SCREEN_SEEDS]
    t = float(least_eigenvalues(H[seeds]).min())
    if not math.isfinite(t):
        return None
    shift = size  # s, formed in place of size
    shift += abs(t)
    shift *= SCREEN_MARGIN
    shift += t
    keep = ~np.all(ldl(H, shift)[0] > 0, axis=1)
    keep[seeds] = True
    return np.flatnonzero(keep)


def psd_result(H: np.ndarray, tol: float, point) -> PsdCheckResult:
    """The pass rule: every diagonal, minor and least eigenvalue >= -tol.

    point(i) describes point i for the report's worst point, the first
    point with the least eigenvalue.  Eigenvalues are solved only at the
    `eigen_candidates`, which give the same minimum and the same point as
    a scan of every point.  A stack with a non-finite entry fails, with
    min_eig nan and the first point holding such an entry as the worst.
    """
    diags = diagonals(H)
    min_diag = float(diags.min())
    min_minor = float(last_slot_minors(H).min())
    with np.errstate(over="ignore", invalid="ignore"):
        total = H.sum()
    if not np.isfinite(total):  # a non-finite entry, or the sum overflowed
        finite = np.isfinite(H).all(axis=(1, 2))
        if not finite.all():
            return PsdCheckResult(
                passed=False,
                tol=tol,
                min_diag=min_diag,
                min_minor=min_minor,
                min_eig=math.nan,
                worst_point=point(int(np.argmin(finite))),
                count=len(H),
            )
    idx = eigen_candidates(H, diags)
    eigs = least_eigenvalues(H if idx is None else H[idx])
    i = int(np.argmin(eigs))
    min_eig = float(eigs[i])
    return PsdCheckResult(
        passed=bool(min(min_diag, min_minor, min_eig) >= -tol),
        tol=tol,
        min_diag=min_diag,
        min_minor=min_minor,
        min_eig=min_eig,
        worst_point=point(i if idx is None else int(idx[i])),
        count=len(H),
    )


def psd_stats(H: np.ndarray, Z, W, tol: float) -> PsdCheckResult:
    """`psd_result` of a stack over the points (Z, W), its worst point
    given by `point_report`."""
    return psd_result(H, tol, lambda i: point_report(Z, W, i))


def psd_check(f, shell: Shell, tol: float = TOL) -> PsdCheckResult:
    """Sampled positive-semidefiniteness of the Hessian of f over a shell:
    complex for a WPoly, real for an RPoly on a real shell.

    Checks diagonal entries, every 2x2 minor with the last slot ((z_j, w)
    or (x_j, y)), and the least eigenvalue of the full Hessian; passes iff
    all minima >= -tol.
    """
    return psd_stats(shell.hessian(f), shell.Z, shell.W, tol)


# -- Determinant identity -------------------------------------------------


@dataclass
class IdentityCheckResult:
    """`identity_check_prop31`'s report, kept with it for the benchmark."""

    max_deviation: float
    max_lhs: float
    tolerance: float
    passed: bool

    def as_dict(self) -> dict:
        return dict(vars(self))


def identity_check_prop31(
    r: DefiningFunction,
    K,
    T: WPoly,
    shell: Shell,
    rel_tol: float = IDENTITY_REL_TOL,
) -> IdentityCheckResult:
    """On-boundary determinant identity for rho = (1 + K r + T) r.

    Per j, the z_j/w Hessian minor of rho must equal
    2 K h L_j + (same minor of (1 + T) r); the deviation is O(boundary
    residual) and is compared against rel_tol * (1 + max |LHS|).  Both
    minors are read from the shell's Hessian stacks of rho and of
    (1 + T) r, so the two sides are computed independently.  The identity
    holds exactly on r = 0 (the tests prove it over Gaussian rationals),
    so sampled it can fail only through rounding or off the boundary; no
    pipeline code calls it, and it is kept by name because the benchmark
    calls and traces it.
    """
    p = WPoly.one(r.nz) + T
    h = p + r.poly.scale(Fraction(K))
    lhs = last_slot_minors(shell.hessian(r.times(h)))
    base = last_slot_minors(shell.hessian(r.times(p)))
    max_dev = 0.0
    max_lhs = 0.0
    hv = shell.values(h)
    for j in range(r.nz):
        rhs = 2.0 * float(K) * hv.real * shell.values(r.levi(j)).real + base[:, j]
        max_dev = max(max_dev, float(np.max(np.abs(lhs[:, j] - rhs))))
        max_lhs = max(max_lhs, float(np.max(np.abs(lhs[:, j]))))
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
    r: DefiningFunction, radius: float, samples: int = 2000, seed: int = 0
) -> LeviScanResult:
    """Scan tangential Levi values over a boundary ball sample."""
    shell = sample_boundary(r, radius, samples, seed)
    vals = None
    for j in range(r.nz):
        v = shell.values(r.levi(j)).real
        vals = v if vals is None else np.minimum(vals, v)
    i = int(np.argmin(vals))
    return LeviScanResult(
        min_value=float(vals[i]),
        worst_point=point_report(shell.Z, shell.W, i),
        negative_count=int(np.sum(vals < -TOL)),
        count=len(vals),
        tol=TOL,
    )


# -- Necessary conditions -------------------------------------------------


@dataclass
class NecessaryConditionsResult:
    log_deriv_max: float
    log_deriv_verdict: object  # DominanceVerdict
    all_hold: bool

    def as_dict(self) -> dict:
        return {
            "log_deriv_max": self.log_deriv_max,
            "log_deriv_verdict": self.log_deriv_verdict.as_dict(),
            "all_hold": self.all_hold,
        }


def necessary_conditions_check(
    r: DefiningFunction,
    h: WPoly,
    shell: Shell,
    K=0,
    tol: float = TOL,
) -> NecessaryConditionsResult:
    """The log-derivative condition for rho = h r plurisubharmonic.

    The deviation d/dz_j log(1+T) + d/dz_j log r_wbar, read on the shell
    through its polynomial numerator, is classified per j by dominance
    against Levi + |grad_z r|^2 on the probe points of the shell's seed;
    the worst verdict stands, and the condition holds unless it is
    NotDominated.  The paper's four pointwise inequalities on the (z_j, w)
    block of Hess(h r) are not evaluated: on r = 0 each is a non-negative
    combination of values of that block's Hermitian form, so a passing PSD
    scan of h r implies them.  tol is not read.  Raises HFloorError when
    |h| drops below H_MIN on the shell.
    """
    hv = shell.values(h)
    if h_floor_failure(float(np.abs(hv).min())) is not None:
        raise HFloorError(f"h vanishes (|h| < {Fraction(H_MIN)}) on the sampled shell")
    from .dominance import Bound, dominance_check

    p1 = h - r.poly.scale(Fraction(K))  # 1 + T on and off the boundary
    log_max = 0.0
    verdict = None
    den = shell.values(p1) * shell.values(r.d_wbar())
    for j in range(r.nz):
        num_poly = p1.dz(j) * r.d_wbar() + p1 * r.poly.dz(j).dwbar()
        num = shell.values(num_poly)
        log_max = max(log_max, float(np.max(np.abs(num / den))))
        v = dominance_check(num_poly, Bound.LEVI_PLUS_GRAD, r, shell.seed, j=j)
        if verdict is None or _verdict_rank(v) > _verdict_rank(verdict):
            verdict = v
    return NecessaryConditionsResult(
        log_deriv_max=log_max,
        log_deriv_verdict=verdict,
        all_hold=verdict.status != "NotDominated",
    )


def _verdict_rank(v) -> int:
    order = {"Dominated": 0, "Unknown": 1, "NotDominated": 2}
    return order.get(v.status, 1)


# -- the certificate ------------------------------------------------------


def check_certificate(
    r: DefiningFunction, T: WPoly, K, shell: Shell
) -> tuple[dict, list, WPoly]:
    """The pass rule for a certificate h = 1 + T + K r on a shell.

    Runs the PSD scan of h r and the necessary conditions (the h floor and
    the log-derivative verdict).  Returns their reports under "psd" and
    "necessary", the names of the checks that failed (the certificate
    passes when that list is empty) and h r.  When h drops below the h
    floor on the shell, the necessary entry is {"error": message} and
    fails.
    """
    h = WPoly.one(r.nz) + T + r.poly.scale(Fraction(K))
    rho = r.times(h)
    psd = psd_check(rho, shell)
    try:
        nec = necessary_conditions_check(r, h, shell, K)
    except HFloorError as e:
        nec_dict, nec_passed = {"error": str(e)}, False
    else:
        nec_dict, nec_passed = nec.as_dict(), nec.all_hold
    checks = {"psd": psd.as_dict(), "necessary": nec_dict}
    passed = {"psd": psd.passed, "necessary": nec_passed}
    return checks, [name for name, ok in passed.items() if not ok], rho
