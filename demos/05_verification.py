"""
Verifying a multiplier certificate
==================================

Two checks decide a certificate: a PSD scan of the complex Hessian of
h r over a boundary shell, and the log-derivative verdict of the
necessary conditions.  The paper's pointwise inequalities need no scan
of their own, since on the boundary a PSD Hessian of h r implies them.
"""

from fractions import Fraction

from pshdef.catalog import type4_domain
from pshdef.verify import (
    check_certificate,
    necessary_conditions_check,
    psd_check,
    sample_boundary,
)
from pshdef.wirtinger import WPoly, im_z

r = type4_domain(10)
T = im_z(1).scale(Fraction(-4))
K = 64
h = WPoly.one(1) + T + r.poly.scale(Fraction(K))
shell = sample_boundary(r, 1e-2, 2000, seed=0)
print("shell:", shell.count, "points, max residual", float(shell.residuals.max()))

rho = h * r.poly
psd = psd_check(rho, shell)
print(f"psd: passed={psd.passed} min_eig={psd.min_eig:.3e} min_diag={psd.min_diag:.3e}")

nec = necessary_conditions_check(r, h, shell, K=K)
verdict = nec.log_deriv_verdict
print(f"log-derivative: max {nec.log_deriv_max:.3e}, {verdict.status} ({verdict.reason})")

_, failed, _ = check_certificate(r, T, K, shell)
print("check_certificate:", "pass" if not failed else f"fail {failed}")

# the PSD scan fails for the trivial multiplier h = 1
bad = psd_check(r.poly, shell)
print(f"h=1: passed={bad.passed} min_diag={bad.min_diag:.3e} (r_wwbar = -5)")
