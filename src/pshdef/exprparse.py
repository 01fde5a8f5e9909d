"""Expression surface for defining functions and multipliers.

Accepts rationals (integers, decimals, and `/` with constant divisor),
variables z, z1..zm, w (plus zbar/wbar and the imaginary unit `i`, so
canonical polynomial text round-trips), the functions Re, Im, conj, abs2,
operators + - * ^ with integer powers up to MAX_EXPONENT, and
juxtaposition products like `2 i` or `z^2 zbar`, nested at most
MAX_NESTING deep.  Real mode uses x, x1.., y instead.

`parse` goes from text to polynomial in one pass: the Pratt parser builds
the polynomial of each subexpression as it reduces it, and stops at the
first error it meets, so a bad variable is reported before a syntax error
later in the source.  The polynomial class supplies the variable names,
conjugation, whether `i` exists and the wording of its errors.  Errors
carry line/column positions.
"""

from __future__ import annotations

import functools
import re as _re
from dataclasses import dataclass
from fractions import Fraction

from .gaussrat import GaussianRational, INV_2I
from .wirtinger import RPoly, WPoly

_TOKEN_RE = _re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)

MAX_EXPONENT = 64  # the largest power `^` takes
# the deepest a subexpression may nest: each operand, parenthesis, function
# argument and sign is one level, and each level a few Python frames
MAX_NESTING = 256


def _im(p):
    d = p - p.conjugate()
    # zero for real p; a lane without i could not divide by 2i
    return d if d.is_zero() else d.scale(INV_2I)


# On a real lane conjugation is the identity, so Re and conj change
# nothing, Im gives 0 and abs2 squares.
_FUNCS = {
    "Re": lambda p: (p + p.conjugate()).scale(Fraction(1, 2)),
    "Im": _im,
    "conj": lambda p: p.conjugate(),
    "abs2": lambda p: p * p.conjugate(),
}


class ExprSyntaxError(ValueError):
    """Parse failure, annotated with source position."""

    def __init__(self, message: str, source: str, pos: int):
        self.pos = pos
        prefix = source[:pos]
        self.line = prefix.count("\n") + 1
        self.col = pos - (prefix.rfind("\n") + 1) + 1
        super().__init__(f"line {self.line}, col {self.col}: {message}")


@dataclass(frozen=True)
class Token:
    kind: str  # "num" | "ident" | "op" | "end"; "bad" for a character no token takes
    text: str
    pos: int


def _tokenize(src: str) -> list[Token]:
    """The tokens of src up to its end, or up to its first bad character."""
    out = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            bad = len(src) - len(stripped)
            out.append(Token("bad", src[bad], bad))
            return out
        out.append(Token(m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    out.append(Token("end", "", len(src)))
    return out


@functools.cache
def _families(cls):
    """Matches `<family><index>` for the indexed families of a lane."""
    return _re.compile(rf"^({'|'.join(cls.indexed)})(\d*)$")


_BIN_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_JUXTA_PREC = 20


class _Parser:
    """Pratt parser over the tokens of `src` whose reductions are the ring
    operations of lane `cls` over n indexed variables."""

    def __init__(self, src: str, cls, n: int | None):
        self.src = src
        self.cls = cls
        self.toks = _tokenize(src)
        self.k = 0
        self.depth = 0  # the `expr` calls open
        if n is None:
            # the highest index of the lane's indexed variables; at least 1
            family = _families(cls).match
            names = (family(t.text) for t in self.toks if t.kind == "ident")
            n = max([1] + [int(m.group(2)) for m in names if m and m.group(2)])
        self.n = n

    def peek(self) -> Token:
        t = self.toks[self.k]
        if t.kind == "bad":
            self.fail(f"unexpected character {t.text!r}", t)
        return t

    def next(self) -> Token:
        t = self.peek()
        self.k += 1
        return t

    def fail(self, msg: str, tok: Token):
        raise ExprSyntaxError(msg, self.src, tok.pos)

    def parse(self):
        p = self.expr(0)
        t = self.peek()
        if t.kind != "end":
            self.fail(f"unexpected {t.text!r}", t)
        return p

    def constant(self, p, tok: Token):
        """The value of a constant polynomial."""
        if p.degree() > 0:
            self.fail("expected a constant here", tok)
        return p.constant_term()

    def expr(self, min_prec: int):
        """The subexpression from here whose operators bind at least as
        tightly as min_prec.  Every descent passes through here, so it
        refuses the token that would open level MAX_NESTING + 1."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"expression nested deeper than {MAX_NESTING} levels", self.peek())
        left = self.prefix()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text in _BIN_PREC:
                prec = _BIN_PREC[t.text]
                if prec < min_prec:
                    break
                self.next()
                # ^ is right-associative, the rest left
                right = self.expr(prec if t.text == "^" else prec + 1)
                left = self.binary(t, left, right)
                continue
            if t.kind in ("num", "ident") or (t.kind == "op" and t.text == "("):
                # juxtaposition product, same tier as *
                if _JUXTA_PREC < min_prec:
                    break
                left = left * self.expr(_JUXTA_PREC + 1)
                continue
            break
        self.depth -= 1
        return left

    def binary(self, op: Token, left, right):
        if op.text == "+":
            return left + right
        if op.text == "-":
            return left - right
        if op.text == "*":
            return left * right
        if op.text == "/":
            c = self.constant(right, op)
            if not c:
                self.fail("division by zero", op)
            return left.scale(left.ring(1) / c)
        # ^
        e = GaussianRational.of(self.constant(right, op))
        if e.im != 0 or e.re.denominator != 1 or e.re < 0:
            self.fail("exponent must be a nonnegative integer", op)
        if e.re > MAX_EXPONENT:
            self.fail(
                f"exponent must be a nonnegative integer at most {MAX_EXPONENT}", op
            )
        return left ** int(e.re)

    def prefix(self):
        cls, n = self.cls, self.n
        t = self.next()
        if t.kind == "num":
            return cls.const(n, Fraction(t.text))  # a decimal is read exactly
        if t.kind == "ident":
            if t.text == "i":
                if cls.imag_unit is None:
                    self.fail(f"imaginary unit not available{cls.unknown_note}", t)
                return cls.const(n, cls.imag_unit)
            if t.text in _FUNCS:
                lp = self.next()
                if not (lp.kind == "op" and lp.text == "("):
                    self.fail(f"{t.text} needs a parenthesized argument", lp)
                return _FUNCS[t.text](self.closed())
            return self.variable(t)
        if t.kind == "op" and t.text == "(":
            return self.closed()
        if t.kind == "op" and t.text == "-":
            return -self.expr(25)
        if t.kind == "op" and t.text == "+":
            return self.expr(25)
        self.fail(
            "unexpected end of input" if t.kind == "end" else f"unexpected {t.text!r}",
            t,
        )

    def closed(self):
        """The expression up to a closing parenthesis, which it consumes."""
        p = self.expr(0)
        rp = self.next()
        if not (rp.kind == "op" and rp.text == ")"):
            self.fail("unbalanced parenthesis", rp)
        return p

    def variable(self, t: Token):
        """z<k>/zbar<k>/x<k> (plain z, zbar, x mean k = 1) or a single name
        such as w.  A 0-led k (z01) names no variable."""
        cls, n = self.cls, self.n
        m = _families(cls).match(t.text)
        if m:
            k = m.group(2)
            if len(k) > 1 and k[0] == "0":
                self.fail(f"variable {t.text} has a leading zero in its index", t)
            j = int(k or 1) - 1
            if not 0 <= j < n:
                self.fail(f"variable {t.text} out of range ({cls.size_name}={n})", t)
            return cls.var(n, j, cls.indexed.index(m.group(1)) * n)
        if t.text in cls.single:
            return cls.var(n, 0, len(cls.indexed) * n + cls.single.index(t.text))
        self.fail(f"unknown variable {t.text!r}{cls.unknown_note}", t)


def parse(src: str, cls, n: int | None = None):
    """The polynomial of lane `cls` (WPoly or RPoly) that `src` spells, over
    n indexed variables; n defaults to the highest index that `src` gives a
    variable of the lane's indexed families, at least 1.  Raises
    ExprSyntaxError with line/column on failure, ValueError for n < 1."""
    if n is not None and n < 1:
        raise ValueError(f"{cls.size_name} must be >= 1, got {n}")
    return _Parser(src, cls, n).parse()


def parse_wpoly(src: str, nz: int | None = None) -> WPoly:
    return parse(src, WPoly, nz)


def parse_rpoly(src: str, nx: int | None = None) -> RPoly:
    return parse(src, RPoly, nx)
