"""Every lowering rule and lowering error of the expression parser, both lanes."""

from fractions import Fraction

import pytest

from pshdef.exprparse import ExprSyntaxError, parse_rpoly, parse_wpoly
from pshdef.gaussrat import GaussianRational
from pshdef.wirtinger import RPoly, WPoly

PARSE = {"complex": parse_wpoly, "real": parse_rpoly}

Z, ZB, W, WB = WPoly.var_z(1), WPoly.var_zbar(1), WPoly.var_w(1), WPoly.var_wbar(1)
X, Y = RPoly.var_x(1), RPoly.var_y(1)
HALF = Fraction(1, 2)
I = GaussianRational(0, 1)

# (lane, source, number of variables, expected polynomial)
RULES = [
    ("complex", "7", 1, WPoly.const(1, 7)),
    ("complex", "5/2", 1, WPoly.const(1, Fraction(5, 2))),
    ("complex", "1.25", 1, WPoly.const(1, Fraction(5, 4))),
    ("complex", "i", 1, WPoly.const(1, I)),
    ("complex", "2 i", 1, WPoly.const(1, GaussianRational(0, 2))),
    ("complex", "z", 1, Z),
    ("complex", "zbar", 1, ZB),
    ("complex", "w", 1, W),
    ("complex", "wbar", 1, WB),
    ("complex", "z2", 2, WPoly.var_z(2, 1)),
    ("complex", "zbar2", 2, WPoly.var_zbar(2, 1)),
    ("complex", "z1 + w", 2, WPoly.var_z(2, 0) + WPoly.var_w(2)),
    ("complex", "Re(z)", 1, (Z + ZB).scale(HALF)),
    ("complex", "Im(z)", 1, (Z - ZB).scale(GaussianRational(0, -HALF))),
    ("complex", "Im(2)", 1, WPoly.zero(1)),
    ("complex", "conj(i z)", 1, ZB.scale(-I)),
    ("complex", "abs2(z + w)", 1, (Z + W) * (ZB + WB)),
    ("complex", "-z", 1, -Z),
    ("complex", "+z", 1, Z),
    ("complex", "z + w", 1, Z + W),
    ("complex", "z - w", 1, Z - W),
    ("complex", "z * w", 1, Z * W),
    ("complex", "z w", 1, Z * W),
    ("complex", "z / 4", 1, Z.scale(Fraction(1, 4))),
    ("complex", "z / (1 + i)", 1, Z.scale(GaussianRational(HALF, -HALF))),
    ("complex", "z^3", 1, Z * Z * Z),
    ("complex", "z^0", 1, WPoly.one(1)),
    ("complex", "z^(1 + 1)", 1, Z * Z),
    ("complex", "2^2^3", 1, WPoly.const(1, 256)),
    ("complex", "z^64", 1, Z**64),
    ("complex", "-z^2", 1, -(Z * Z)),
    ("real", "7", 1, RPoly.const(1, 7)),
    ("real", "5/2", 1, RPoly.const(1, Fraction(5, 2))),
    ("real", "1.25", 1, RPoly.const(1, Fraction(5, 4))),
    ("real", "x", 1, X),
    ("real", "y", 1, Y),
    ("real", "x2", 2, RPoly.var_x(2, 1)),
    ("real", "x1 + y", 2, RPoly.var_x(2, 0) + RPoly.var_y(2)),
    ("real", "Re(x + y)", 1, X + Y),
    ("real", "Im(x + y)", 1, RPoly.zero(1)),
    ("real", "conj(x)", 1, X),
    ("real", "abs2(x + y)", 1, (X + Y) * (X + Y)),
    ("real", "-x", 1, -X),
    ("real", "+x", 1, X),
    ("real", "x + y", 1, X + Y),
    ("real", "x - y", 1, X - Y),
    ("real", "x * y", 1, X * Y),
    ("real", "x y", 1, X * Y),
    ("real", "x / 4", 1, X.scale(Fraction(1, 4))),
    ("real", "x / (1/3)", 1, X.scale(3)),
    ("real", "x^3", 1, X * X * X),
    ("real", "x^0", 1, RPoly.one(1)),
    ("real", "x^(1 + 1)", 1, X * X),
    ("real", "-x^2", 1, -(X * X)),
    # MAX_NESTING levels: the outermost expression and 255 parentheses
    ("complex", "(" * 255 + "z" + ")" * 255, 1, Z),
]

NESTED = "expression nested deeper than 256 levels"
# (lane, source, number of variables, message, column)
ERRORS = [
    ("complex", "z^z", 1, "expected a constant here", 2),
    ("complex", "w / z", 1, "expected a constant here", 3),
    ("complex", "z^(-1)", 1, "exponent must be a nonnegative integer", 2),
    ("complex", "z^-1", 1, "exponent must be a nonnegative integer", 2),
    ("complex", "z^(1/2)", 1, "exponent must be a nonnegative integer", 2),
    ("complex", "z^i", 1, "exponent must be a nonnegative integer", 2),
    ("complex", "z / 0", 1, "division by zero", 3),
    ("complex", "z / (i - i)", 1, "division by zero", 3),
    ("complex", "Im(w) + q", 1, "unknown variable 'q'", 9),
    ("complex", "x", 1, "unknown variable 'x'", 1),
    ("complex", "w2", 1, "unknown variable 'w2'", 1),
    ("complex", "z + z2", 1, "variable z2 out of range (nz=1)", 5),
    ("complex", "zbar3", 2, "variable zbar3 out of range (nz=2)", 1),
    ("complex", "z0", 1, "variable z0 out of range (nz=1)", 1),
    ("complex", "z01", 1, "variable z01 has a leading zero in its index", 1),
    ("complex", "z^65", 1, "exponent must be a nonnegative integer at most 64", 2),
    ("complex", "2^2^7", 1, "exponent must be a nonnegative integer at most 64", 2),
    ("complex", "2^2^30", 1, "exponent must be a nonnegative integer at most 64", 2),
    ("complex", "z + 2^(z^70)", 1, "exponent must be a nonnegative integer at most 64", 9),
    ("real", "x^x", 1, "expected a constant here", 2),
    ("real", "y / x", 1, "expected a constant here", 3),
    ("real", "x^(-1)", 1, "exponent must be a nonnegative integer", 2),
    ("real", "x^-1", 1, "exponent must be a nonnegative integer", 2),
    ("real", "x^(1/2)", 1, "exponent must be a nonnegative integer", 2),
    ("real", "x / 0", 1, "division by zero", 3),
    ("real", "x / (y - y)", 1, "division by zero", 3),
    ("real", "x / (2 - 2)", 1, "division by zero", 3),
    ("real", "i", 1, "imaginary unit not available in real mode", 1),
    ("real", "y + 2 i x", 1, "imaginary unit not available in real mode", 7),
    ("real", "y + q", 1, "unknown variable 'q' in real mode", 5),
    ("real", "z", 1, "unknown variable 'z' in real mode", 1),
    ("real", "y2", 1, "unknown variable 'y2' in real mode", 1),
    ("real", "x + x2", 1, "variable x2 out of range (nx=1)", 5),
    ("real", "x0", 2, "variable x0 out of range (nx=2)", 1),
    ("real", "x01", 1, "variable x01 has a leading zero in its index", 1),
    ("real", "x^65", 1, "exponent must be a nonnegative integer at most 64", 2),
    # the polynomial is built as the source is read, so the first error the
    # reading meets wins, before a syntax error further on
    ("complex", "q + (", 1, "unknown variable 'q'", 1),
    ("complex", "z^z + $", 1, "expected a constant here", 2),
    ("complex", "z + $ + q", 1, "unexpected character '$'", 5),
    ("real", "i + (", 1, "imaginary unit not available in real mode", 1),
    ("real", "x + x2 ^ (", 1, "variable x2 out of range (nx=1)", 5),
    # past MAX_NESTING levels, at the token that opens level 257; `+` opens
    # level 2, so the 256th parenthesis after it is the first refused
    ("complex", "Im(w) + " + "(" * 330 + "abs2(z)" + ")" * 330, 1, NESTED, 264),
    ("complex", "+" * 500 + "abs2(z)", 1, NESTED, 257),
]


# a test id shows the first 24 characters of its source
@pytest.mark.parametrize(
    "lane, src, n, expected", RULES, ids=[f"{c[0]}:{c[1][:24]}" for c in RULES]
)
def test_lowering_rule(lane, src, n, expected):
    assert PARSE[lane](src, n) == expected


@pytest.mark.parametrize(
    "lane, src, n, message, col", ERRORS, ids=[f"{c[0]}:{c[1][:24]}" for c in ERRORS]
)
def test_lowering_error(lane, src, n, message, col):
    with pytest.raises(ExprSyntaxError) as info:
        PARSE[lane](src, n)
    assert str(info.value) == f"line 1, col {col}: {message}"
    assert (info.value.line, info.value.col) == (1, col)


@pytest.mark.parametrize(
    "lane, src, n",
    [
        ("complex", "Im(w) + abs2(z)", 1),
        ("complex", "Im(w) + abs2(z3) + zbar1", 3),
        ("complex", "Im(w) + abs2(zbar2)", 2),
        ("real", "y + x^2", 1),
        ("real", "y + x1^2 + x4^4", 4),
    ],
)
def test_variable_count_inferred(lane, src, n):
    """Omitting the count takes the highest index of the lane's families."""
    p = PARSE[lane](src)
    assert p.n == n
    assert p == PARSE[lane](src, n)

