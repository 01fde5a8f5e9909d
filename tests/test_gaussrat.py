"""Gaussian rationals: the three-int class against the Fraction-pair
reference (`conftest.PairGaussian`), and the exact layer's use of it."""

import operator
import random
from fractions import Fraction

import pytest

from conftest import PairGaussian
from pshdef import cr, gaussrat
from pshdef.catalog import type4_domain
from pshdef.gaussrat import GaussianRational, format_gaussian
from pshdef.wirtinger import WPoly

HUGE = 10**60
BINARY = (operator.add, operator.sub, operator.mul, operator.truediv)


def _rational(rng):
    """An exact rational as int, Fraction or str: zero, small or huge."""
    kind = rng.randrange(6)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-9, 9)
    if kind == 2:
        return Fraction(rng.randint(-HUGE, HUGE), rng.randint(1, HUGE))
    q = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
    return str(q) if kind == 3 else q


def _pair(rng):
    """One value as (GaussianRational, PairGaussian)."""
    re, im = _rational(rng), _rational(rng)
    return GaussianRational(re, im), PairGaussian(re, im)


def _scalar(rng):
    """An int or Fraction operand."""
    q = _rational(rng)
    return Fraction(q) if isinstance(q, str) else q


def _outcome(f):
    """f's value, or the type of the arithmetic error it raised."""
    try:
        return f()
    except (ZeroDivisionError, OverflowError) as e:
        return type(e)


def _floats(x):
    z = x.to_complex()
    return z.real.hex(), z.imag.hex()  # the sign of a zero included


def _assert_same(g, p):
    """g holds p's value: the same parts, text and floats."""
    assert type(g) is GaussianRational
    assert type(g.re) is Fraction and type(g.im) is Fraction
    assert (g.re, g.im) == (p.re, p.im)
    assert str(g) == str(p) == format_gaussian(p)
    assert repr(g) == repr(p)
    assert (bool(g), g.is_zero(), g.is_real()) == (bool(p), p.is_zero(), p.is_real())
    assert _outcome(lambda: _floats(g)) == _outcome(lambda: _floats(p))


@pytest.mark.parametrize("seed", range(6))
def test_operations_match_fraction_pairs(seed):
    """Random chains of + - * /, negation and conjugation, with Gaussian,
    int and Fraction operands on either side, give the reference's values,
    comparisons, text and bit-equal floats, and the same ZeroDivisionError."""
    rng = random.Random(seed)
    pool = [_pair(rng) for _ in range(8)]
    for g, p in pool:
        _assert_same(g, p)
    for _ in range(400):
        g, p = rng.choice(pool)
        kind = rng.randrange(4)
        if kind == 0:
            unary = rng.choice((operator.neg, lambda x: x.conjugate()))
            out = unary(g), unary(p)
        else:
            op = rng.choice(BINARY)
            if kind == 1:
                g2, p2 = rng.choice(pool)
                assert (g == g2) == (p == p2)
            else:
                g2 = p2 = _scalar(rng)
                assert (g == g2) == (p == p2) == (g2 == g)
            if kind == 3:  # the scalar on the left
                g, p, g2, p2 = g2, p2, g, p
            out = _outcome(lambda: op(g, g2)), _outcome(lambda: op(p, p2))
        if out[1] is ZeroDivisionError:
            assert out[0] is ZeroDivisionError
            continue
        _assert_same(*out)
        if len(str(out[1])) < 2000:  # keep chains from growing without bound
            pool[rng.randrange(len(pool))] = out


def test_huge_values_convert_like_fractions():
    """Parts past the float range raise OverflowError in both classes; parts
    below it round to the same (signed) zeros."""
    big, tiny = 10**400, Fraction(1, 10**400)
    for re, im in ((big, 1), (1, -big), (tiny, -tiny), (-tiny, 3), (Fraction(-1, 3), tiny)):
        g, p = GaussianRational(re, im), PairGaussian(re, im)
        _assert_same(g, p)


def test_equal_values_hash_equally():
    """A value reached along different paths is equal and hashes equally."""
    half = [
        GaussianRational(Fraction(2, 4)),
        GaussianRational(1) / 2,
        GaussianRational("1/2", 0),
        GaussianRational.of(Fraction(1, 2)),
        GaussianRational(1, 1) - GaussianRational(Fraction(1, 2), 1),
        GaussianRational(0, 1) * GaussianRational(0, Fraction(-1, 2)),
    ]
    assert all(v == half[0] and hash(v) == hash(half[0]) for v in half)
    rng = random.Random(3)
    for _ in range(200):
        x, _ = _pair(rng)
        y, _ = _pair(rng)
        k = _scalar(rng) or 7
        paths = [x + y - y, -(-x), x.conjugate().conjugate(), x * k / k, (x * 6) / 6]
        paths.append(GaussianRational(x.re, x.im))
        if y:
            paths.append(x * y / y)
        for v in paths:
            assert v == x and hash(v) == hash(x)


def test_real_values_hash_like_int_and_fraction_keys(monkeypatch):
    """A real value is the same dict key and set member as the int or
    Fraction it equals; the int case hashes without building a Fraction."""
    for x in (0, 3, -7, 10**40, Fraction(1, 2), Fraction(-5, 3), Fraction(1, 10**30)):
        g = GaussianRational.of(x)
        assert hash(g) == hash(x)
        assert {x: "x"}.get(g) == "x" and {g: "g"}.get(x) == "g"
        assert len({g, x}) == 1
    assert {3: "x"}.get(GaussianRational(3, 1)) is None
    built = []
    monkeypatch.setattr(gaussrat, "Fraction", lambda *a: built.append(a) or Fraction(*a))
    hash(GaussianRational(3))
    hash(GaussianRational(3, 2))
    assert built == []
    assert hash(GaussianRational(3) / 2) == hash(Fraction(3, 2)) and built == [(3, 2)]


def test_division_by_zero_raises():
    x = GaussianRational(Fraction(3, 4), -2)
    zero = GaussianRational(0, 0)
    for divide in (
        lambda: x / 0,
        lambda: x / Fraction(0),
        lambda: x / zero,
        lambda: 5 / zero,
        lambda: Fraction(1, 3) / zero,
        lambda: zero / zero,
    ):
        with pytest.raises(ZeroDivisionError):
            divide()


def test_immutable():
    x = GaussianRational(1, 2)
    for name in ("re", "im", "_a", "_b", "_d", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 5)
    for name in ("re", "_a", "_d"):
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == GaussianRational(1, 2) and str(x) == "(1 + 2 i)"


@pytest.mark.parametrize("value", [1.0, 1j, "1/2", None])
def test_inexact_and_text_operands_rejected(value):
    """Floats, complex numbers and strings are not exact operands: `of` and
    the ring operations raise TypeError, as the reference does, and
    equality with them is False."""
    x, p = GaussianRational(1, 2), PairGaussian(1, 2)
    for cls in (GaussianRational, PairGaussian):
        with pytest.raises(TypeError):
            cls.of(value)
    for a, b in ((x, value), (value, x), (p, value), (value, p)):
        for op in BINARY:
            with pytest.raises(TypeError):
                op(a, b)
    assert (x == value) is (p == value) is False


def test_exact_layer_does_no_fraction_arithmetic(monkeypatch, r8_report):
    """On A=8, the product h r, its Hessian entries and the Levi form make
    no Fraction +, -, * or /: every coefficient operation is on ints."""
    r = type4_domain(8)
    final = r8_report.final
    h = WPoly.one(1) + final.T + r.poly.scale(Fraction(final.K))
    calls = []
    for name in ("__mul__", "__add__", "__sub__", "__truediv__"):

        def counted(self, other, _method=getattr(Fraction, name), _name=name):
            calls.append(_name)
            return _method(self, other)

        monkeypatch.setattr(Fraction, name, counted)
    rho = h * r.poly
    cr.hessian_entries(rho)
    cr.levi_form(r)
    assert calls == []
    Fraction(1, 2) * 3  # the counter is live
    assert calls == ["__mul__"]
