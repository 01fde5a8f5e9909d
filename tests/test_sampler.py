"""The numpy boundary sampler against scipy, and its per-domain stream.

`sampler.Halton` and `sampler.ndtri` must equal scipy's scrambled Halton
and `ndtri` bit for bit, so that every shell, and so every report, stays
what the scipy-based sampler gave.  scipy is imported inside the tests
only: the program does not load it.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import reference_sample_ball
from pshdef import realconvex, verify
from pshdef.catalog import ball_like, mixed_c3_example, type4_domain
from pshdef.construct import SHRINK, ConstructConfig, run_construction
from pshdef.dominance import DYADIC_EXPS
from pshdef.exprparse import parse_rpoly
from pshdef.realconvex import RealConfig, convex_multiplier, validate_real_normal_form
from pshdef.sampler import BallStream, Halton, first_primes, ndtri

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 1, 2, 3, 5, 8, 13, 17, 42, 1234, 2**40 + 7)


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_first_primes():
    from scipy.stats._qmc import n_primes

    assert first_primes(1) == [2]
    assert first_primes(300) == [int(p) for p in n_primes(300)]


@pytest.mark.parametrize("d", range(2, 8))
def test_halton_equals_scipy(d):
    """Three successive draws of uneven sizes, at eleven seeds."""
    from scipy.stats import qmc

    for seed in SEEDS:
        ref = qmc.Halton(d=d, scramble=True, seed=seed)
        mine = Halton(d, seed)
        start = 0
        for n in (64, 37, 2500):
            want = ref.random(n)
            got = mine.points(start, n)
            start += n
            assert same_bytes(got, want), (d, seed, n)
            assert got.flags.f_contiguous == want.flags.f_contiguous


def test_halton_any_start():
    """A point depends on its index only, not on where a draw begins."""
    h = Halton(5, 3)
    whole = h.points(0, 3000)
    for start, n in ((0, 1), (1, 63), (511, 2), (2186, 814)):
        assert same_bytes(h.points(start, n), whole[start : start + n])


def test_ndtri_equals_scipy():
    from scipy.special import ndtri as scipy_ndtri
    from scipy.stats import qmc

    draw = qmc.Halton(d=7, scramble=True, seed=11).random(4000)
    assert same_bytes(ndtri(draw), scipy_ndtri(draw))
    edges = np.array(
        [
            np.exp(-2.0),
            1.0 - np.exp(-2.0),
            np.nextafter(np.exp(-2.0), 0.0),
            np.nextafter(1.0 - np.exp(-2.0), 1.0),
            0.5,
            np.finfo(float).tiny,
            5e-324,
            np.exp(-32.0),
            1e-300,
            2.0**-53,
            1.0 - 2.0**-53,
            0.0,
            1.0,
        ]
    )
    assert same_bytes(ndtri(edges), scipy_ndtri(edges))
    assert np.isnan(ndtri(np.array([-0.5, 1.5, np.nan]))).all()
    # the tails, where the logarithms matter
    u = np.random.default_rng(5).random(200_000)
    for p in (u**8, 1.0 - u**8, np.exp(-700.0 * u)):
        assert same_bytes(ndtri(p), scipy_ndtri(p))


def test_ball_stream_slices():
    """take() reads one growing sequence: a draw is the slice of a single
    long draw, whatever was read before, and is read-only."""
    whole = BallStream(5, 7).take(0, 3000)
    stream = BallStream(5, 7)
    for start, n in ((0, 250), (0, 64), (250, 2500), (40, 100), (2750, 250)):
        dirs, radial = stream.take(start, n)
        assert same_bytes(dirs, whole[0][start : start + n])
        assert same_bytes(radial, whole[1][start : start + n])
        assert not (dirs.flags.writeable or radial.flags.writeable)
    assert np.allclose(np.linalg.norm(whole[0], axis=1), 1.0)
    assert ((whole[1] >= 0.0) & (whole[1] < 1.0)).all()


def test_top_up_rounds_equal_reference():
    """Rounds after the first read the next stream indices, as successive
    draws of the per-call sampler do, also on a stream read before."""

    def half(coords, starts=None):  # keeps about half the points of each round
        return (coords, np.zeros(len(coords))), coords[:, 0] > 0.0

    stream = BallStream(3, 5)
    for count in (500, 90, 700):
        [got] = verify.sample_ball(stream, [0.5], count, half)
        want = reference_sample_ball(3, 0.5, count, 5, half)
        assert all(same_bytes(a, b) for a, b in zip(got, want))
        assert len(got[0]) == count


# -- one stream per (d, seed) and domain ------------------------------------


@pytest.fixture
def checked_sample_ball(monkeypatch):
    """Makes every sample_ball call of either lane also run the per-call
    scipy reference for each of its radii and require the same bytes;
    records the streams built and the (radius, count, seed) of every shell
    checked."""
    seen = {"shells": [], "streams": []}
    sample_ball = verify.sample_ball

    def checked(stream, radii, count, lift):
        got = sample_ball(stream, radii, count, lift)
        assert len(got) == len(radii)
        for radius, pts in zip(radii, got):
            want = reference_sample_ball(stream.d, radius, count, stream.seed, lift)
            assert len(pts) == len(want)
            assert all(same_bytes(a, b) for a, b in zip(pts, want)), (radius, count)
            seen["shells"].append((radius, count, stream.seed))
        return got

    class Recorded(BallStream):
        def __init__(self, d, seed):
            seen["streams"].append((d, seed))
            super().__init__(d, seed)

    monkeypatch.setattr(verify, "sample_ball", checked)
    monkeypatch.setattr(realconvex, "sample_ball", checked)
    monkeypatch.setattr(verify, "BallStream", Recorded)
    return seen


@pytest.mark.parametrize(
    "make, seed",
    [(lambda: type4_domain(8), 0), (lambda: ball_like(2), 3), (mixed_c3_example, 0)],
    ids=["type4_8", "ball_like2", "mixed_c3"],
)
def test_shells_equal_reference(checked_sample_ball, make, seed):
    """Every shell of a construction, the 14 probe radii and each
    construction radius, equals the scipy reference's; the run builds one
    stream, and a second domain builds its own."""
    config = ConstructConfig(seed=seed)
    r = make()
    report = run_construction(r, config)
    shells = checked_sample_ball["shells"]
    assert {(2.0**-e, 160, seed) for e in DYADIC_EXPS} <= set(shells)
    assert (config.radius, config.samples, seed) in shells
    if report.verification:
        final = report.verification["radius"]
    else:  # Exhausted after the K ladder at both radii
        assert report.status == "Exhausted"
        final = config.radius * SHRINK
    assert (final, config.samples, seed) in shells
    d = 2 * r.nz + 1
    assert checked_sample_ball["streams"] == [(d, seed)]
    run_construction(make(), config)
    assert checked_sample_ball["streams"] == [(d, seed)] * 2


def test_real_shells_equal_reference(checked_sample_ball):
    r = validate_real_normal_form(parse_rpoly("y + x1^2 + x2^4", 2))
    config = RealConfig(seed=4)
    assert convex_multiplier(r, config).status == "Certified"
    realconvex.sample_real_boundary(r, 5e-3, 700, seed=4)
    realconvex.sample_real_boundary(r, 5e-3, 64, seed=9)
    shells = checked_sample_ball["shells"]
    assert (config.radius, config.samples, 4) in shells
    assert (5e-3, 64, 9) in shells
    assert checked_sample_ball["streams"] == [(2, 4), (2, 9)]


# -- no scipy at run time -----------------------------------------------------


def test_cli_import_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys, pshdef.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0].startswith('scipy')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
