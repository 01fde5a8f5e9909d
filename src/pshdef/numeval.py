"""Vectorized evaluation of polynomials over numpy point arrays.

A polynomial compiles once into exponent rows (its flat keys in term order)
and coefficients; evaluation builds a power table per exponent slot, so each
monomial costs a few elementwise multiplies.  The polynomial's lane gives
the slot values: a WPoly's are (z_1..z_m, conj z_1..conj z_m, w, conj w), an
RPoly's (x_1..x_n, y).  Used by every numeric module (boundary sampling, PSD
scans, dominance probing, the real lane).
"""

from __future__ import annotations

import numpy as np


class CompiledPoly:
    __slots__ = ("columns", "exps", "coeffs")

    def __init__(self, p):
        items = p.sorted_terms()
        self.columns = type(p).columns
        self.exps = np.array([e for e, _ in items], dtype=np.int64).reshape(
            len(items), p.width(p.n)
        )
        self.coeffs = np.array([p.numeric(c) for _, c in items])

    def eval(self, Z: np.ndarray, W: np.ndarray) -> np.ndarray:
        """Z has shape (m, n), W shape (m,); returns (m,) values.

        Complex for a WPoly; float for an RPoly at real points.
        """
        Z = np.asarray(Z)
        W = np.asarray(W)
        m = W.shape[0]
        acc = np.zeros(m, dtype=np.result_type(W.dtype, self.coeffs.dtype))
        if not len(self.coeffs):
            return acc
        # power tables up to the max exponent actually used per column
        tables = []
        for k, col in enumerate(self.columns(Z, W)):
            top = int(self.exps[:, k].max())
            t = [np.ones(m, dtype=col.dtype)]
            for _ in range(top):
                t.append(t[-1] * col)
            tables.append(t)
        for row, c in zip(self.exps, self.coeffs):
            term = np.full(m, c, dtype=acc.dtype)
            for k, e in enumerate(row):
                if e:
                    term = term * tables[k][e]
            acc += term
        return acc


def compiled(p) -> CompiledPoly:
    """Compile a WPoly or RPoly, with caching on the polynomial object."""
    c = p._compiled
    if c is None:
        c = CompiledPoly(p)
        p._compiled = c
    return c
