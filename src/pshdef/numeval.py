"""Vectorized evaluation of polynomials over numpy point arrays.

A polynomial compiles once into exponent rows + coefficients; evaluation
builds per-variable power tables so each monomial costs a few elementwise
multiplies.  A WPoly evaluates over the columns (z_1..z_m, conj z_1..conj
z_m, w, conj w), a real-lane RPoly over (x_1..x_n, y).  Used by every
numeric module (boundary sampling, PSD scans, dominance probing, the real
lane).
"""

from __future__ import annotations

import numpy as np

from .wirtinger import WPoly


class CompiledPoly:
    __slots__ = ("n", "conj", "exps", "coeffs")

    def __init__(self, p):
        if isinstance(p, WPoly):
            self.n, self.conj = p.nz, True
            items = sorted(p.terms.items(), key=lambda kv: kv[0].sort_key())
            rows = [(*m.a, *m.b, m.c, m.d) for m, _ in items]
            self.coeffs = np.array([c.to_complex() for _, c in items], dtype=complex)
        else:  # RPoly: exponent tuples over (x_1..x_n, y), rational coefficients
            self.n, self.conj = p.nx, False
            items = sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
            rows = [e for e, _ in items]
            self.coeffs = np.array([float(c) for _, c in items], dtype=np.float64)
        width = 2 * self.n + 2 if self.conj else self.n + 1
        self.exps = np.array(rows, dtype=np.int64).reshape(len(rows), width)

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
        cols = [Z[:, j] for j in range(self.n)]
        if self.conj:
            cols += [np.conj(Z[:, j]) for j in range(self.n)]
            cols += [W, np.conj(W)]
        else:
            cols.append(W)
        # power tables up to the max exponent actually used per column
        tables = []
        for k, col in enumerate(cols):
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
