"""A fixed reference workload that gauges how fast the host runs right now.

On a shared host the same code runs 20-40% faster or slower from one
minute to the next, as other tenants come and go.  The benchmark runs this
workload between requests, once per 0.5 s of request time and outside any
request's measured time, and reports request times in units of its median
time in the same run (`ref`), so that a change of host speed moves both and
cancels.

The work mirrors the program's own mix and uses none of its code, so a
change to pshdef cannot move it: exact `Fraction` arithmetic over a
dict-of-monomials product (as in `WPoly.__mul__`), batched `eigvalsh` of
small Hermitian matrices (as in the K ladder) and numpy evaluation of a
polynomial term by term on sample points (as in `CompiledPoly.eval`), in
about the shares 45/35/20 of its time.  Over 15 s windows of a 200 s run
on a 2-vCPU Xeon host, request times of all three workloads varied by
13% (coefficient of variation) and their ratio to this mix by 3-5%; to
any one of its parts alone, by 4-9%.  It takes 20-30 ms there.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((400, 3, 3)) + 1j * _rng.standard_normal((400, 3, 3))
_HERMITIAN = _A + _A.conj().transpose(0, 2, 1)
_POINTS = _rng.standard_normal((4, 2000))
_MONOMIALS = [tuple(int(e) for e in _rng.integers(0, 4, 4)) for _ in range(30)]
_POLY = {(i, j): Fraction(i + 1, j + 2) for i in range(12) for j in range(12)}
_FACTOR = list(_POLY.items())[:20]


def _work() -> tuple[int, float]:
    product: dict = {}
    for (a, b), x in _POLY.items():
        for (c, d), y in _FACTOR:
            key = (a + c, b + d)
            product[key] = product.get(key, 0) + x * y
    least = 0.0
    for _ in range(12):
        least += float(np.linalg.eigvalsh(_HERMITIAN)[:, 0].sum())
    values = np.zeros(_POINTS.shape[1])
    for exponents in _MONOMIALS:
        term = np.ones(_POINTS.shape[1])
        for x, e in zip(_POINTS, exponents):
            if e:
                term = term * x**e
        values += 0.5 * term
    return len(product), least + float(values.sum())


# the result every run must give; a wrong one means the host is not sane
EXPECTED = _work()


def timed() -> float:
    """Seconds taken by one run of the reference workload."""
    t0 = time.perf_counter()
    result = _work()
    elapsed = time.perf_counter() - t0
    if result != EXPECTED:
        raise RuntimeError(f"reference workload gave {result}, expected {EXPECTED}")
    return elapsed
