"""Acceptance gate: one test per stated criterion, pinned tolerances.

Each test prints `CRITERION n PASS` on success (visible with -s); under
`pytest -v` the per-test PASSED/FAILED line carries the same information.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from conftest import random_normal_form, random_real_T
from pshdef.catalog import ball_like, type4_domain
from pshdef.construct import ConstructConfig, run_construction, solve_stage
from pshdef.cr import levi_origin_value, validate_normal_form
from pshdef.dominance import levi_dominance_gate
from pshdef.exprparse import parse_rpoly
from pshdef.gaussrat import GaussianRational
from pshdef.realconvex import convex_multiplier, validate_real_normal_form
from pshdef.verify import identity_check_prop31, levi_scan, sample_boundary
from pshdef.wirtinger import WPoly, im_z, re_z, realify

GOLDEN = Path(__file__).parent / "golden"

R10_SRC = "Im(w) + abs2(z)^2 + 100*abs2(z)^3 + 4*Re(z)*Re(w) - 10*Re(w)^2"
R8_SRC = "Im(w) + abs2(z)^2 + 100*abs2(z)^3 + 4*Re(z)*Re(w) - 8*Re(w)^2"


class _Budget:
    def __init__(self, n, seconds, quiet=False):
        self.n = n
        self.seconds = seconds
        self.quiet = quiet

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None and elapsed > self.seconds:
            print(f"CRITERION {self.n} FAIL (over budget: {elapsed:.1f}s)")
            raise AssertionError(
                f"criterion {self.n} exceeded its {self.seconds}s budget: {elapsed:.1f}s"
            )
        if not self.quiet:
            print(f"CRITERION {self.n} {'PASS' if exc_type is None else 'FAIL'}")
        return False


def test_criterion_1_identity():
    """Determinant identity on random defining functions."""
    with _Budget(1, 30):
        rng = random.Random(101)
        done = 0
        while done < 10:
            r_poly = random_normal_form(rng, nz=1, max_deg=6)
            r = validate_normal_form(r_poly)
            K = rng.randint(1, 8)
            T = random_real_T(rng, nz=1, max_deg=3)
            shell = sample_boundary(r, 1e-2, 200, seed=done)
            res = identity_check_prop31(r, K, T, shell, rel_tol=1e-8)
            assert res.passed, (
                f"identity deviation {res.max_deviation} over tolerance "
                f"{res.tolerance} for sample {done}"
            )
            done += 1


def test_criterion_2_a10_construction():
    """A = 10: one stage, canonical T, ladder K, PSD certificate."""
    with _Budget(2, 60):
        rep = run_construction(type4_domain(10))
        assert rep.status == "Certified"
        assert len(rep.stages) == 1
        assert rep.final.T == im_z(1).scale(Fraction(-4))
        assert rep.final.as_dict()["T"] == "-4*Im(z)"
        assert rep.final.K is not None and rep.final.K <= 2**20
        psd = rep.verification["psd"]
        assert psd["passed"]
        assert psd["tol"] == 1e-9
        assert psd["count"] >= 2000
        assert rep.verification["radius"] == 1e-2


def test_criterion_3_a8_construction():
    """A = 8: stage-1 ladder failure with witness, stage-2 certificate."""
    with _Budget(3, 120):
        rep = run_construction(type4_domain(8))
        assert rep.status == "Certified"
        assert len(rep.stages) == 2
        ks1 = rep.stages[0].k_search
        assert ks1 is not None and not ks1.found
        assert ks1.witness is not None
        assert "point" in ks1.witness
        inc2 = rep.stages[1].T_increment
        expected = (im_z(1) * im_z(1)).scale(Fraction(8)) - (
            re_z(1) * re_z(1)
        ).scale(Fraction(8))
        assert inc2 == expected
        assert any("z w" in s or "zbar w" in s for s in rep.stages[1].absorbed)
        assert rep.final.K is not None
        assert rep.verification["radius"] == 1e-2
        assert rep.verification["psd"]["passed"]


def test_criterion_4_dominance_fixtures():
    """Gradient-vs-Levi gate on the A = 10 and A = 8 fixtures."""
    with _Budget(4, 60):
        v10 = levi_dominance_gate(type4_domain(10))
        assert v10.status == "Dominated"

        v8 = levi_dominance_gate(type4_domain(8))
        assert v8.status == "NotDominated"
        d = v8.witness["direction"]  # (Re z, Im z, Re w), unit length
        assert abs(d[1]) <= 1e-3
        assert abs(d[0] - 4 * d[2]) <= 1e-3
        ratios = v8.witness["ratios"]
        tail = ratios[-5:]
        assert len(tail) == 5
        assert all(b > a for a, b in zip(tail, tail[1:]))


def test_criterion_5_pseudoconvexity_threshold():
    """Levi scans: clean for A in {8, 10}, negative witness for A = 7."""
    with _Budget(5, 60):
        for A in (8, 10):
            scan = levi_scan(type4_domain(A), 1e-2, 2000, seed=0)
            assert scan.negative_count == 0, f"A={A} scan found negatives"
        scan7 = levi_scan(type4_domain(7), 1e-2, 10_000, seed=0)
        assert scan7.min_value < -1e-9
        assert scan7.negative_count > 0


def test_criterion_6_strong_psc_shortcut():
    """Ball fixture: T = 0 certificate and exact origin Levi value."""
    with _Budget(6, 30):
        ball = ball_like(1)
        assert levi_origin_value(ball) == GaussianRational(Fraction(1, 4), 0)
        rep = run_construction(ball)
        assert rep.status == "Certified"
        assert rep.shortcut_used
        assert rep.final.T.is_zero()
        assert rep.final.K is not None


def test_criterion_7_property_suites():
    """Spot checks of the property-level invariants plus golden stability."""
    with _Budget(7, 60):
        # derivative vs central finite difference at 1e-6
        from conftest import fd_dz, random_wpoly

        rng = random.Random(77)
        for _ in range(5):
            p = random_wpoly(rng, max_deg=4)
            z = complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
            w = complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
            sym = complex(p.dz(0).eval(z, w))
            assert abs(sym - fd_dz(p, z, w)) <= 1e-6 * (1 + abs(sym))

        # realify produces exactly self-conjugate polynomials
        for _ in range(5):
            q = realify(random_wpoly(rng))
            assert q.is_real() and q == q.conjugate()

        # stage exactness: d/dz T_inc - 2iS - residual is the exact zero
        for _ in range(5):
            S = random_wpoly(rng)
            T_inc, residual = solve_stage(S, 0)
            assert (
                T_inc.dz(0) - S.scale(GaussianRational(0, 2)) - residual
            ).is_zero()

        # S-contraction on the certified staged fixtures
        for A in (8, 10):
            rep = run_construction(type4_domain(A))
            assert rep.status == "Certified"
            assert rep.contraction, f"A={A}: no contraction entries"
            for entry in rep.contraction:
                assert entry["ratio"] < 1.0

        # golden JSON reports are byte-stable under the default seed
        for src, name in ((R10_SRC, "r10_report.json"), (R8_SRC, "r8_report.json")):
            proc = subprocess.run(
                [sys.executable, "-m", "pshdef.cli", "construct", "--r", src, "--json"],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0
            assert proc.stdout == (GOLDEN / name).read_text(), (
                f"golden file {name} drifted"
            )


def test_criterion_8_real_convex_analog():
    """y + x^2 and y + x^4 certify with h = 1 + K r + r_y."""
    # per-fixture 10 s budgets; one summary line for the criterion
    for src in ("y + x^2", "y + x^4"):
        with _Budget(8, 10, quiet=True):
            r = validate_real_normal_form(parse_rpoly(src, 1))
            rep = convex_multiplier(r)
            assert rep.status == "Certified", f"{src} did not certify"
            ry = r.d_y()
            from pshdef.wirtinger import canonical_str

            assert rep.final["T"] == canonical_str(ry)
            assert rep.final["K"] is not None
            assert rep.final["h"].startswith("1 + K * (")
            assert rep.verification["hessian"]["passed"]
    print("CRITERION 8 PASS")
