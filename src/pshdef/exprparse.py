"""Expression surface for defining functions and multipliers.

Accepts rationals (integers, decimals, and `/` with constant divisor),
variables z, z1..zm, w (plus zbar/wbar and the imaginary unit `i`, so
canonical polynomial text round-trips), the functions Re, Im, conj, abs2,
operators + - * ^ with integer powers, and juxtaposition products like
`2 i` or `z^2 zbar`.  Real mode uses x, x1.., y instead.

Syntax errors carry line/column positions.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction

from .gaussrat import GaussianRational, INV_2I
from .wirtinger import WPoly

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

_ZVAR = _re.compile(r"^(z|zbar)(\d*)$")
_XVAR = _re.compile(r"^(x)(\d*)$")


def _walk(ast):
    yield ast
    if isinstance(ast, Call):
        yield from _walk(ast.arg)
    elif isinstance(ast, Bin):
        yield from _walk(ast.left)
        yield from _walk(ast.right)
    elif isinstance(ast, Neg):
        yield from _walk(ast.operand)


def infer_nz(ast, real: bool = False) -> int:
    """Number of z (or x) variables mentioned; at least 1."""
    top = 1
    pat = _XVAR if real else _ZVAR
    for node in _walk(ast):
        if isinstance(node, Var):
            m = pat.match(node.name)
            if m and m.group(2):
                top = max(top, int(m.group(2)))
    return top


# -- lowering ------------------------------------------------------------


def _const_of(p, src, pos):
    """The value of a constant WPoly or RPoly."""
    if p.degree() > 0:
        raise ExprSyntaxError("expected a constant here", src, pos)
    return p.constant_term()


def _var_index(node: Var, m, n: int, lane: str, src: str) -> int:
    """0-based index of z<k>/zbar<k>/x<k> (plain z, zbar, x mean k = 1)."""
    j = int(m.group(2) or 1) - 1
    if not 0 <= j < n:
        raise ExprSyntaxError(
            f"variable {node.name} out of range ({lane}={n})", src, node.pos
        )
    return j


def lower_complex(ast, nz: int, src: str = "") -> WPoly:
    """Lower an AST to a WPoly over nz z-variables."""

    def go(node) -> WPoly:
        if isinstance(node, Num):
            return WPoly.const(nz, Fraction(node.value))
        if isinstance(node, Imag):
            return WPoly.const(nz, GaussianRational(0, 1))
        if isinstance(node, Var):
            m = _ZVAR.match(node.name)
            if m:
                j = _var_index(node, m, nz, "nz", src)
                return (
                    WPoly.var_zbar(nz, j) if m.group(1) == "zbar" else WPoly.var_z(nz, j)
                )
            if node.name == "w":
                return WPoly.var_w(nz)
            if node.name == "wbar":
                return WPoly.var_wbar(nz)
            raise ExprSyntaxError(f"unknown variable {node.name!r}", src, node.pos)
        if isinstance(node, Call):
            p = go(node.arg)
            if node.func == "Re":
                return (p + p.conjugate()).scale(Fraction(1, 2))
            if node.func == "Im":
                return (p - p.conjugate()).scale(INV_2I)
            if node.func == "conj":
                return p.conjugate()
            return p * p.conjugate()  # abs2
        if isinstance(node, Neg):
            return -go(node.operand)
        if isinstance(node, Bin):
            if node.op == "^":
                base = go(node.left)
                expc = _const_of(go(node.right), src, node.pos)
                if expc.im != 0 or expc.re.denominator != 1 or expc.re < 0:
                    raise ExprSyntaxError(
                        "exponent must be a nonnegative integer", src, node.pos
                    )
                return base ** int(expc.re)
            l = go(node.left)
            r = go(node.right)
            if node.op == "+":
                return l + r
            if node.op == "-":
                return l - r
            if node.op == "*":
                return l * r
            c = _const_of(r, src, node.pos)
            if c.is_zero():
                raise ExprSyntaxError("division by zero", src, node.pos)
            return l.scale(GaussianRational(1) / c)
        raise TypeError(f"bad AST node {node!r}")

    return go(ast)


def parse_wpoly(src: str, nz: int | None = None) -> WPoly:
    """Parse + lower in one step; nz inferred from the source if omitted."""
    ast = parse(src)
    if nz is None:
        nz = infer_nz(ast)
    return lower_complex(ast, nz, src)


def lower_real(ast, nv: int, src: str = ""):
    """Lower to an RPoly over (x_1..x_nv, y); Re/Im/conj/abs2 get real semantics."""
    from .realconvex import RPoly

    def go(node):
        if isinstance(node, Num):
            return RPoly.const(nv, node.value)
        if isinstance(node, Imag):
            raise ExprSyntaxError("imaginary unit not available in real mode", src, node.pos)
        if isinstance(node, Var):
            m = _XVAR.match(node.name)
            if m:
                return RPoly.var_x(nv, _var_index(node, m, nv, "nx", src))
            if node.name == "y":
                return RPoly.var_y(nv)
            raise ExprSyntaxError(
                f"unknown variable {node.name!r} in real mode", src, node.pos
            )
        if isinstance(node, Call):
            p = go(node.arg)
            if node.func == "Im":
                return RPoly.const(nv, 0)
            if node.func == "abs2":
                return p * p
            return p  # Re, conj are identities on real polynomials
        if isinstance(node, Neg):
            return -go(node.operand)
        if isinstance(node, Bin):
            if node.op == "^":
                base = go(node.left)
                e = _const_of(go(node.right), src, node.pos)
                if e.denominator != 1 or e < 0:
                    raise ExprSyntaxError(
                        "exponent must be a nonnegative integer", src, node.pos
                    )
                return base ** int(e)
            l = go(node.left)
            r = go(node.right)
            if node.op == "+":
                return l + r
            if node.op == "-":
                return l - r
            if node.op == "*":
                return l * r
            c = _const_of(r, src, node.pos)
            if c == 0:
                raise ExprSyntaxError("division by zero", src, node.pos)
            return l.scale(Fraction(1) / c)
        raise TypeError(f"bad AST node {node!r}")

    return go(ast)


def parse_rpoly(src: str, nv: int | None = None):
    ast = parse(src)
    if nv is None:
        nv = infer_nz(ast, real=True)
    return lower_real(ast, nv, src)
