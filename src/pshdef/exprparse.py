"""Expression surface for defining functions and multipliers.

Accepts rationals (integers, decimals, and `/` with constant divisor),
variables z, z1..zm, w (plus zbar/wbar and the imaginary unit `i`, so
canonical polynomial text round-trips), the functions Re, Im, conj, abs2,
operators + - * ^ with integer powers, and juxtaposition products like
`2 i` or `z^2 zbar`.  Real mode uses x, x1.., y instead.

One AST walk (`lower`) serves both lanes: the polynomial class supplies
the variable names, conjugation, whether `i` exists and the wording of
its errors.  Syntax errors carry line/column positions.
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

_FUNCS = ("Re", "Im", "conj", "abs2")


class ExprSyntaxError(ValueError):
    """Parse or lowering failure, annotated with source position."""

    def __init__(self, message: str, source: str, pos: int):
        self.pos = pos
        prefix = source[:pos]
        self.line = prefix.count("\n") + 1
        self.col = pos - (prefix.rfind("\n") + 1) + 1
        super().__init__(f"line {self.line}, col {self.col}: {message}")


@dataclass(frozen=True)
class Token:
    kind: str  # "num" | "ident" | "op" | "end"
    text: str
    pos: int


def _tokenize(src: str) -> list[Token]:
    out = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            bad = len(src) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {src[bad]!r}", src, bad)
        if m.lastgroup is None:
            break
        out.append(Token(m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    out.append(Token("end", "", len(src)))
    return out


# -- AST -----------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: Fraction
    pos: int


@dataclass(frozen=True)
class Imag:
    pos: int


@dataclass(frozen=True)
class Var:
    name: str
    pos: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: object
    pos: int


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object
    pos: int


@dataclass(frozen=True)
class Neg:
    operand: object
    pos: int


ExprAst = object  # Num | Imag | Var | Call | Bin | Neg


_BIN_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_JUXTA_PREC = 20


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.k = 0

    def peek(self) -> Token:
        return self.toks[self.k]

    def next(self) -> Token:
        t = self.toks[self.k]
        self.k += 1
        return t

    def fail(self, msg: str, tok: Token):
        raise ExprSyntaxError(msg, self.src, tok.pos)

    def parse(self) -> ExprAst:
        e = self.expr(0)
        t = self.peek()
        if t.kind != "end":
            self.fail(f"unexpected {t.text!r}", t)
        return e

    def expr(self, min_prec: int) -> ExprAst:
        left = self.prefix()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text in _BIN_PREC:
                prec = _BIN_PREC[t.text]
                if prec < min_prec:
                    return left
                self.next()
                # ^ is right-associative, the rest left
                right = self.expr(prec if t.text == "^" else prec + 1)
                left = Bin(t.text, left, right, t.pos)
                continue
            if t.kind in ("num", "ident") or (t.kind == "op" and t.text == "("):
                # juxtaposition product, same tier as *
                if _JUXTA_PREC < min_prec:
                    return left
                right = self.expr(_JUXTA_PREC + 1)
                left = Bin("*", left, right, t.pos)
                continue
            return left

    def prefix(self) -> ExprAst:
        t = self.next()
        if t.kind == "num":
            if "." in t.text:
                whole, frac = t.text.split(".")
                val = Fraction(int(whole or 0)) + Fraction(
                    int(frac), 10 ** len(frac)
                )
            else:
                val = Fraction(int(t.text))
            return Num(val, t.pos)
        if t.kind == "ident":
            if t.text == "i":
                return Imag(t.pos)
            if t.text in _FUNCS:
                lp = self.next()
                if not (lp.kind == "op" and lp.text == "("):
                    self.fail(f"{t.text} needs a parenthesized argument", lp)
                arg = self.expr(0)
                rp = self.next()
                if not (rp.kind == "op" and rp.text == ")"):
                    self.fail("unbalanced parenthesis", rp)
                return Call(t.text, arg, t.pos)
            return Var(t.text, t.pos)
        if t.kind == "op" and t.text == "(":
            e = self.expr(0)
            rp = self.next()
            if not (rp.kind == "op" and rp.text == ")"):
                self.fail("unbalanced parenthesis", rp)
            return e
        if t.kind == "op" and t.text == "-":
            return Neg(self.expr(25), t.pos)
        if t.kind == "op" and t.text == "+":
            return self.expr(25)
        self.fail(
            "unexpected end of input" if t.kind == "end" else f"unexpected {t.text!r}",
            t,
        )


def parse(src: str) -> ExprAst:
    """Parse to an AST; raises ExprSyntaxError with line/column on failure."""
    return _Parser(src).parse()


# -- variable discovery --------------------------------------------------


@functools.cache
def _families(cls):
    """Matches `<family><index>` for the indexed families of a lane."""
    return _re.compile(rf"^({'|'.join(cls.indexed)})(\d*)$")


def _walk(ast):
    yield ast
    if isinstance(ast, Call):
        yield from _walk(ast.arg)
    elif isinstance(ast, Bin):
        yield from _walk(ast.left)
        yield from _walk(ast.right)
    elif isinstance(ast, Neg):
        yield from _walk(ast.operand)


def infer_n(ast, cls) -> int:
    """Highest index of the lane's indexed variables mentioned; at least 1."""
    top = 1
    for node in _walk(ast):
        if isinstance(node, Var):
            m = _families(cls).match(node.name)
            if m and m.group(2):
                top = max(top, int(m.group(2)))
    return top


# -- lowering ------------------------------------------------------------


def _const_of(p, src, pos):
    """The value of a constant polynomial."""
    if p.degree() > 0:
        raise ExprSyntaxError("expected a constant here", src, pos)
    return p.constant_term()


def _var_index(node: Var, m, n: int, size_name: str, src: str) -> int:
    """0-based index of z<k>/zbar<k>/x<k> (plain z, zbar, x mean k = 1).
    A 0-led k (z01) names no variable."""
    k = m.group(2)
    j = int(k or 1) - 1
    if len(k) > 1 and k[0] == "0":
        raise ExprSyntaxError(
            f"variable {node.name} has a leading zero in its index", src, node.pos
        )
    if not 0 <= j < n:
        raise ExprSyntaxError(
            f"variable {node.name} out of range ({size_name}={n})", src, node.pos
        )
    return j


def lower(ast, cls, n: int, src: str = ""):
    """Lower an AST to a polynomial of lane `cls` over n indexed variables.

    The lane supplies its variable names and slots, its conjugation, the
    value of `i` (None where there is none) and the note its messages about
    missing names carry.  On a real lane conjugation is the identity, so
    Re and conj change nothing, Im gives 0 and abs2 squares.
    """

    def variable(node: Var):
        m = _families(cls).match(node.name)
        if m:
            block = cls.indexed.index(m.group(1))
            return cls.var(n, _var_index(node, m, n, cls.size_name, src), block * n)
        if node.name in cls.single:
            return cls.var(n, 0, len(cls.indexed) * n + cls.single.index(node.name))
        raise ExprSyntaxError(
            f"unknown variable {node.name!r}{cls.unknown_note}", src, node.pos
        )

    def go(node):
        if isinstance(node, Num):
            return cls.const(n, node.value)
        if isinstance(node, Imag):
            if cls.imag_unit is None:
                raise ExprSyntaxError(
                    f"imaginary unit not available{cls.unknown_note}", src, node.pos
                )
            return cls.const(n, cls.imag_unit)
        if isinstance(node, Var):
            return variable(node)
        if isinstance(node, Call):
            p = go(node.arg)
            if node.func == "Re":
                return (p + p.conjugate()).scale(Fraction(1, 2))
            if node.func == "Im":
                d = p - p.conjugate()
                # zero for real p; a lane without i could not divide by 2i
                return d if d.is_zero() else d.scale(INV_2I)
            if node.func == "conj":
                return p.conjugate()
            return p * p.conjugate()  # abs2
        if isinstance(node, Neg):
            return -go(node.operand)
        if isinstance(node, Bin):
            if node.op == "^":
                base = go(node.left)
                e = GaussianRational.of(_const_of(go(node.right), src, node.pos))
                if e.im != 0 or e.re.denominator != 1 or e.re < 0:
                    raise ExprSyntaxError(
                        "exponent must be a nonnegative integer", src, node.pos
                    )
                return base ** int(e.re)
            l = go(node.left)
            r = go(node.right)
            if node.op == "+":
                return l + r
            if node.op == "-":
                return l - r
            if node.op == "*":
                return l * r
            c = _const_of(r, src, node.pos)
            if not c:
                raise ExprSyntaxError("division by zero", src, node.pos)
            return l.scale(l.ring(1) / c)
        raise TypeError(f"bad AST node {node!r}")

    return go(ast)


def parse_poly(src: str, cls, n: int | None = None):
    """Parse + lower in one step; n inferred from the source if omitted.
    Raises ValueError for n < 1."""
    if n is not None and n < 1:
        raise ValueError(f"{cls.size_name} must be >= 1, got {n}")
    ast = parse(src)
    return lower(ast, cls, infer_n(ast, cls) if n is None else n, src)


def parse_wpoly(src: str, nz: int | None = None) -> WPoly:
    return parse_poly(src, WPoly, nz)


def parse_rpoly(src: str, nx: int | None = None) -> RPoly:
    return parse_poly(src, RPoly, nx)
