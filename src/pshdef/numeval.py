"""Vectorized evaluation of polynomials over numpy point arrays.

A polynomial compiles once into exponent rows (its flat keys in term order)
and coefficients; evaluation builds a power table per exponent slot, so each
monomial costs a few elementwise multiplies.  The polynomial's lane gives
the slot values: a WPoly's are (z_1..z_m, conj z_1..conj z_m) from Z and
(w, conj w) from W, an RPoly's (x_1..x_n) from X and y from Y.  Used by
every numeric module (boundary sampling, PSD scans, dominance probing, the
real lane).

Callers evaluate whole point sets (the probe shells, or the probe curves)
in one call rather than one call per piece; a large set goes
through in blocks of points, so its power tables stay small.  Several
polynomials on one set share each block's tables (`eval_many`, of which
`CompiledPoly.eval` is the one-polynomial case).  A Newton
solve moves only W, so `CompiledPoly.at(Z)` forms each term's coefficient
times its Z factors once and each call then multiplies in the W factors
alone: the same multiplies in the same order as `eval`, so the same
floats.
"""

from __future__ import annotations

import numpy as np

EVAL_BLOCK = 4096  # points per block of an evaluation: bounds its power tables


def _blocks(m: int):
    """Slices of at most EVAL_BLOCK points covering m points.  Every
    operation is elementwise, so a block's floats are those of the whole."""
    return [slice(lo, lo + EVAL_BLOCK) for lo in range(0, m, EVAL_BLOCK)]


def _tables(cols, tops) -> list:
    """Power tables col^1 .. col^top per column, top the max exponent used."""
    tables = []
    for col, top in zip(cols, tops):
        t = [col]
        for _ in range(top - 1):
            t.append(t[-1] * col)
        tables.append(t)
    return tables


def _term(term, factors, tables):
    """term times each (column, power index) factor, in column order.

    Each product is a new array: numpy's complex multiply formed in place
    can differ in the last bit (it does for one point)."""
    for k, i in factors:
        term = term * tables[k][i]
    return term


def _numeric(p, m, c):
    """Coefficient c of monomial m of p as a float or complex, the one place
    exact coefficients become floats; a ValueError names a term no double
    holds."""
    try:
        return p.numeric(c)
    except OverflowError:
        from .wirtinger import canonical_str  # wirtinger imports this module

        term = canonical_str(type(p)(p.n, {m: c}))
        raise ValueError(f"the term {term} has a coefficient outside the double range")


def eval_many(polys, Z: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The compiled polynomials `polys`, all of one lane and n, at the
    points (Z, W): row i holds polys[i]'s values.

    Each block of points builds one power table per column, up to the
    largest exponent any of them uses, and each term keeps its multiplies
    and their order, so row i holds the floats of `polys[i].eval(Z, W)`.
    """
    Z = np.asarray(Z)
    W = np.asarray(W)
    dtype = np.result_type(W.dtype, *(p.coeffs.dtype for p in polys))
    out = np.zeros((len(polys), W.shape[0]), dtype=dtype)
    live = [(row, p) for row, p in zip(out, polys) if p.factors]
    if not live:
        return out
    lane = live[0][1]
    tops = [max(t) for t in zip(*(p.tops for _, p in live))]
    for b in _blocks(len(W)):
        tables = _tables([*lane.z_columns(Z[b]), *lane.w_columns(W[b])], tops)
        for row, p in live:
            part = row[b]
            for c, f in zip(p.coeffs, p.factors):
                part += _term(c, f, tables)  # a constant term adds c itself
    return out


class CompiledPoly:
    __slots__ = ("z_columns", "w_columns", "coeffs", "factors", "split", "tops")

    def __init__(self, p):
        items = p.sorted_terms()
        lane = type(p)
        self.z_columns, self.w_columns = lane.z_columns, lane.w_columns
        exps = np.array([e for e, _ in items], dtype=np.int64).reshape(
            len(items), p.width(p.n)
        )
        self.coeffs = np.array([_numeric(p, m, c) for m, c in items])
        # slots before `split` come from Z, the rest from W
        self.split = len(lane.indexed) * p.n
        self.factors = [
            [(k, int(e) - 1) for k, e in enumerate(row) if e] for row in exps
        ]
        self.tops = [int(t) for t in exps.max(axis=0)] if len(items) else []

    def eval(self, Z: np.ndarray, W: np.ndarray) -> np.ndarray:
        """Z has shape (m, n), W shape (m,); returns (m,) values.

        Complex for a WPoly; float for an RPoly at real points.
        """
        return eval_many([self], Z, W)[0]

    def at(self, Z: np.ndarray) -> "FixedZ":
        """This polynomial at the points Z, as a function of W alone."""
        return FixedZ(self, np.asarray(Z))


class FixedZ:
    """A compiled polynomial with Z fixed: `self(W)` equals `eval(Z, W)`.

    Each term's coefficient times its Z factors (its prefix) is formed
    once, one array per distinct (coefficient, Z exponents) pair; a term
    with no Z factor keeps its coefficient as a scalar.  A call multiplies
    the W factors onto the prefixes and sums in term order.
    """

    __slots__ = ("poly", "terms")

    def __init__(self, poly: CompiledPoly, Z: np.ndarray):
        self.poly = poly
        split = poly.split
        tables = _tables(poly.z_columns(Z), poly.tops[:split])
        prefixes = {}
        self.terms = []
        for c, f in zip(poly.coeffs, poly.factors):
            n = sum(k < split for k, _ in f)
            key = (c, tuple(f[:n]))
            if key not in prefixes:
                prefixes[key] = _term(c, f[:n], tables)
            self.terms.append(
                (prefixes[key], [(k - split, i) for k, i in f[n:]])
            )

    def __call__(self, W: np.ndarray) -> np.ndarray:
        poly = self.poly
        W = np.asarray(W)
        acc = np.zeros(W.shape[0], dtype=np.result_type(W.dtype, poly.coeffs.dtype))
        if not self.terms:
            return acc
        for b in _blocks(len(W)):
            tables = _tables(poly.w_columns(W[b]), poly.tops[poly.split :])
            part = acc[b]
            for prefix, f in self.terms:
                part += _term(prefix[b] if np.ndim(prefix) else prefix, f, tables)
        return acc


def compiled(p) -> CompiledPoly:
    """Compile a WPoly or RPoly, with caching on the polynomial object."""
    c = p._compiled
    if c is None:
        c = CompiledPoly(p)
        p._compiled = c
    return c
