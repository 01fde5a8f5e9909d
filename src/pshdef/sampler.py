"""Scrambled Halton points and the inverse normal CDF, in numpy.

`Halton` is Owen's randomized Halton sequence (A. B. Owen, "A randomized
Halton algorithm in R", arXiv:1706.02808, Algorithm 1) as
`scipy.stats.qmc.Halton(d, scramble=True, seed=seed)` draws it, and
`ndtri` is the Cephes rational approximation behind `scipy.special.ndtri`.
Both reproduce scipy bit for bit: the digit sums and the Horner steps run
in scipy's order, and the tail logarithms use libm through `math.log`
(numpy's vectorized log differs from libm in the last place).
`BallStream` turns one (dimension, seed) sequence into the unit directions
and radial factors that `verify.sample_ball` reads.
"""

from __future__ import annotations

import math

import numpy as np


def first_primes(n: int) -> list[int]:
    """The first n primes, from a sieve grown until it holds n of them."""
    top = 16
    while True:
        sieve = np.ones(top, dtype=bool)
        sieve[:2] = False
        for p in range(2, math.isqrt(top - 1) + 1):
            if sieve[p]:
                sieve[p * p :: p] = False
        primes = np.flatnonzero(sieve)
        if len(primes) >= n:
            return [int(p) for p in primes[:n]]
        top *= 2


class Halton:
    """The scrambled Halton sequence in d dimensions, addressed by index.

    Coordinate k has the k-th prime b as its base and ceil(54 / log2 b) - 1
    digit permutations: rows of arange(b), each shuffled in turn by one
    `np.random.default_rng(seed)` over all bases in order.  Point i sums,
    per row j, perm[j][digit j of i] * b^-(j+1), with b^-(j+1) formed by
    repeated division as scipy forms it.
    """

    def __init__(self, d: int, seed: int):
        rng = np.random.default_rng(seed)
        self.bases = first_primes(d)
        # per base, row j holds perm[j] * b^-(j+1): the summands themselves
        self.terms = []
        for b in self.bases:
            count = math.ceil(54 / math.log2(b)) - 1
            # permuted(axis=1) shuffles row after row, as scipy's loop does
            perms = rng.permuted(np.repeat(np.arange(b)[None], count, axis=0), axis=1)
            scales = [1.0 / b]
            for _ in range(count - 1):
                scales.append(scales[-1] / b)
            self.terms.append(perms * np.array(scales)[:, None])

    def points(self, start: int, n: int) -> np.ndarray:
        """Points start .. start + n - 1, shape (n, d), Fortran order as
        scipy returns them."""
        out = np.zeros((len(self.bases), n))
        top = start + n - 1
        for col, b, terms in zip(out, self.bases, self.terms):
            q = np.arange(start, start + n, dtype=np.int64)
            digits = 1
            while b**digits <= top:
                digits += 1
            for row in terms[:digits]:
                quot = q // b
                col += row[q - quot * b]
                q = quot
            for row in terms[digits:]:  # every digit left is 0
                col += row[0]
        return out.T


# Cephes ndtri coefficients: P0/Q0 for |p - 1/2| <= 1/2 - exp(-2), P1/Q1
# and P2/Q2 in the tails for sqrt(-2 log p) below and above 8.
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)


def _polevl(x, coefs):
    ans = coefs[0]
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coefs):
    # leading coefficient 1
    ans = x + coefs[0]
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def _libm_log(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.log, x.tolist()), np.float64, len(x))


def ndtri(p) -> np.ndarray:
    """Inverse of the standard normal CDF, elementwise, C order: -inf at
    0, inf at 1, NaN outside [0, 1]."""
    p = np.asarray(p, dtype=np.float64)
    out = np.full(p.shape, np.nan)
    flip = p > 1.0 - _EXP_M2
    y = np.where(flip, 1.0 - p, p)
    mid = y > _EXP_M2
    ym = y[mid] - 0.5
    y2 = ym * ym
    out[mid] = (ym + ym * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))) * _S2PI
    tail = ~mid & (y > 0.0)
    x = np.sqrt(-2.0 * _libm_log(y[tail]))
    x0 = x - _libm_log(x) / x
    z = 1.0 / x
    x1 = np.empty_like(x)
    for part, P, Q in ((x < 8.0, _P1, _Q1), (x >= 8.0, _P2, _Q2)):
        zp = z[part]
        x1[part] = zp * _polevl(zp, P) / _p1evl(zp, Q)
    x = x0 - x1
    out[tail] = np.where(flip[tail], x, -x)
    out[y == 0.0] = -np.inf
    out[flip & (y == 0.0)] = np.inf
    return out


class BallStream:
    """Ball-fill inputs from the Halton sequence of one (d, seed): per
    index, a unit direction in R^d (normal quantiles of the first d
    coordinates, normalized) and the radial factor u^(1/d) of the last.

    Indices are computed once, as reads first reach them; `take` returns
    read-only slices.
    """

    def __init__(self, d: int, seed: int):
        self.d = d
        self.seed = seed
        self._halton = Halton(d + 1, seed)
        self._dirs = np.empty((0, d))
        self._radial = np.empty(0)

    def take(self, start: int, n: int):
        """Directions (n, d) and radial factors (n,) of indices start ..
        start + n - 1."""
        have = len(self._radial)
        if start + n > have:
            raw = self._halton.points(have, start + n - have)
            dirs = ndtri(raw[:, : self.d])
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            self._dirs = np.concatenate([self._dirs, dirs])
            self._radial = np.concatenate([self._radial, raw[:, self.d] ** (1.0 / self.d)])
            for a in (self._dirs, self._radial):
                a.flags.writeable = False
        return self._dirs[start : start + n], self._radial[start : start + n]
