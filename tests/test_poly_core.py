"""The shared sparse-polynomial core, checked the same way in both lanes."""

import random
from dataclasses import dataclass
from typing import Callable

import pytest

from conftest import random_rpoly, random_wpoly
from pshdef.exprparse import parse_rpoly, parse_wpoly
from pshdef.wirtinger import DimensionMismatch, RPoly, WPoly, canonical_str


N = 2  # variables per lane: enough to tell the slots of two variables apart


@dataclass(frozen=True)
class Lane:
    cls: type
    random: Callable  # rng -> polynomial over N variables
    text: Callable
    parse: Callable


LANES = {
    "complex": Lane(
        WPoly,
        lambda rng: random_wpoly(rng, nz=N, max_deg=3),
        canonical_str,
        lambda s: parse_wpoly(s, nz=N),
    ),
    "real": Lane(
        RPoly,
        lambda rng: random_rpoly(rng, nx=N, max_deg=3),
        canonical_str,
        lambda s: parse_rpoly(s, N),
    ),
}


@pytest.fixture(params=sorted(LANES))
def lane(request) -> Lane:
    return LANES[request.param]


def test_ring_laws(lane):
    rng = random.Random(101)
    one = lane.cls.one(N)
    for _ in range(8):
        p, q, s = (lane.random(rng) for _ in range(3))
        assert p * (q + s) == p * q + p * s
        assert (p + q) * s == p * s + q * s
        assert p * q == q * p
        assert (p + q) - q == p
        assert p * one == p and (p - p).is_zero()
        power = one
        for k in range(4):
            assert p**k == power
            power = power * p


def test_product_rule_every_slot(lane):
    rng = random.Random(103)
    for _ in range(8):
        p, q = lane.random(rng), lane.random(rng)
        for i in range(lane.cls.width(N)):
            assert (p * q).partial(i) == p.partial(i) * q + p * q.partial(i)
            assert p.antiderivative(i).partial(i) == p


def test_equal_polynomials_hash_equal(lane):
    rng = random.Random(107)
    for _ in range(8):
        p = lane.random(rng)
        items = list(p.terms.items())
        rng.shuffle(items)
        q = lane.cls.zero(N)
        for e, c in items:
            q = q + lane.cls(N, {e: c})
        assert q == p and hash(q) == hash(p)
        r = lane.cls(N, dict(reversed(items)))
        assert r == p and hash(r) == hash(p)


def test_zero_has_degree_minus_one(lane):
    zero = lane.cls.zero(N)
    assert zero.is_zero()
    assert zero.degree() == zero.min_degree() == -1
    assert lane.cls.const(N, 0) == zero
    assert lane.cls.one(N).degree() == 0
    p = lane.random(random.Random(109))
    assert (p - p).degree() == -1
    assert p.truncate(-1) == zero and p.truncate(p.degree()) == p


def test_canonical_text_round_trips(lane):
    rng = random.Random(113)
    for _ in range(20):
        p = lane.random(rng)
        text = lane.text(p)
        assert lane.parse(text) == p
        assert lane.text(lane.parse(text)) == text
    assert lane.text(lane.cls.zero(N)) == "0"


def test_operands_must_share_lane_and_dimension(lane):
    p = lane.cls.one(N)
    other = RPoly if lane.cls is WPoly else WPoly
    with pytest.raises(DimensionMismatch):
        p + lane.cls.one(N + 1)
    with pytest.raises(DimensionMismatch):
        p * other.one(N)
    assert p != other.one(N)


@pytest.mark.parametrize(
    "build",
    [
        lambda: WPoly.var_z(2, 2),
        lambda: WPoly.var_z(2, -1),
        lambda: WPoly.var_zbar(1, 1),
        lambda: WPoly.var_w(1).dz(1),
        lambda: WPoly.var_w(1).dzbar(-1),
        lambda: WPoly.var_w(2).antideriv_z(2),
        lambda: RPoly.var_x(2, 2),
        lambda: RPoly.var_x(1, -1),
        lambda: RPoly.var_y(1).d_x(1),
    ],
)
def test_variable_index_out_of_range(build):
    with pytest.raises(IndexError):
        build()
