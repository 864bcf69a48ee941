"""Lexer and recursive-descent parser for the identity language."""

from __future__ import annotations

import re
from fractions import Fraction

from ..errors import DslSyntaxError
from .nodes import (
    Add,
    Appell,
    BilateralSum,
    ChainSum,
    Div,
    Expr,
    Hecke,
    IAdd,
    IBinom,
    IdentitySpec,
    IMul,
    INeg,
    IntExpr,
    IntLit,
    IPow,
    ISub,
    IVar,
    Mul,
    Neg,
    NumPoly,
    ParamDecl,
    Poch,
    Pow,
    QBinom,
    QPow,
    RangeSum,
    Rational,
    Span,
    Sub,
    Theta,
    ZBind,
    ZPow,
)

# Grammar (EBNF; whitespace and "# ..." comments are insignificant):
#
#   file       = identity+
#   identity   = "identity" NAME "{" param* "scale" INT "order" INT zbind?
#                "lhs" expr "rhs" expr "}"
#   param      = "param" NAME "in" INT ".." (INT | NAME)
#   zbind      = "z" "=" "-"? "q" "^" "(" intexpr ")"
#   expr       = term (("+" | "-") term)*
#   term       = factor (("*" | "/") factor)*
#   factor     = "-" factor | primary
#   primary    = atom ("^" (INT | "(" intexpr ")"))?
#   atom       = INT | "q" | "z" | "(" expr ")"
#              | "poch" "(" expr ("," expr)* ";" step ("," intexpr)? ")"
#              | "theta" "(" expr ("," expr)* ";" step ")"
#              | "qbinom" "(" intexpr "," intexpr ")"
#              | "sum" "(" sumhead "," expr ")"
#              | "num" "(" intexpr ")"
#              | "appell" "(" NAME "," expr "," intexpr ")"
#              | "hecke" "(" NAME "," NAME "," ("full" | "half") ","
#                        expr ("," intexpr)? ")"
#   step       = "q" ("^" (INT | "(" intexpr ")"))?
#   sumhead    = NAME (">=" NAME)* ">=" "0"
#              | NAME "in" "Z"
#              | NAME "in" intexpr ".." intexpr
#   intexpr    = iterm (("+" | "-") iterm)*
#   iterm      = ifactor ("*" ifactor)*
#   ifactor    = "-" ifactor | iatom ("^" INT)?
#   iatom      = INT | NAME | "binom" "(" intexpr "," "2" ")"
#              | "(" intexpr ")"
#
# Exponents on q and z are in scaled units: q^(E) is q to the power E/scale
# and the bare letter q is one natural power, i.e. q^(scale). A bare step
# letter q likewise means step exponent = scale. Fractions in source are
# spelled with "/" (division), so INT is the only numeric literal.

_TOKEN = re.compile(
    r"""(?P<ws>\s+|\#[^\n]*)
      | (?P<int>\d+)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>>=|\.\.|[{}(),;^*/+\-=])
    """,
    re.VERBOSE,
)

_CALLS = ("poch", "theta", "qbinom", "sum", "num", "appell", "hecke", "binom")

# Deepest expression the parser accepts, counting both the nesting it
# recurses through and the depth of the tree it builds. Every later walk of
# a tree (evaluation, bounds, validation, printing) recurses a few frames a
# level, so this keeps them all far below the interpreter's recursion limit.
MAX_DEPTH = 100


def _tokenize(text: str):
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            line, col = _linecol(text, pos)
            raise DslSyntaxError(f"unexpected character {text[pos]!r}", line, col, (pos, pos + 1))
        if m.lastgroup != "ws":
            toks.append((m.lastgroup, m.group(), m.start(), m.end()))
        pos = m.end()
    toks.append(("eof", "", len(text), len(text)))
    return toks


def _linecol(text: str, pos: int):
    line = text.count("\n", 0, pos) + 1
    col = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return line, col


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.scale = 1
        self.nest = 0

    # -- token plumbing --

    def peek(self, ahead: int = 0):
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def at(self, value: str) -> bool:
        kind, tok, _, _ = self.peek()
        return tok == value and kind in ("op", "name")

    def take(self):
        tok = self.toks[self.i]
        if tok[0] != "eof":
            self.i += 1
        return tok

    def expect(self, value: str):
        kind, tok, start, end = self.peek()
        if tok != value or kind == "eof":
            self.fail(f"expected {value!r}" + (f", found {tok!r}" if tok else " before end of input"))
        return self.take()

    def fail(self, message: str):
        _, _, start, end = self.peek()
        line, col = _linecol(self.text, start)
        raise DslSyntaxError(message, line, col, (start, max(end, start + 1)))

    # -- depth guard --

    def nested(self, parse):
        """Run a parse step one level deeper; the outermost step checks its tree."""
        self.nest += 1
        if self.nest > MAX_DEPTH:
            self.fail(f"expression nested deeper than {MAX_DEPTH} levels")
        node = parse()
        self.nest -= 1
        if not self.nest:
            self.check_depth(node)
        return node

    def check_depth(self, root) -> None:
        """Reject a tree deeper than MAX_DEPTH at the first node past it."""
        stack = [(root, 1)]
        while stack:
            node, depth = stack.pop()
            if depth > MAX_DEPTH:
                start, end = node.span.start, node.span.end
                line, col = _linecol(self.text, start)
                raise DslSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels",
                                     line, col, (start, max(end, start + 1)))
            for name in node._fields:
                value = getattr(node, name)
                for child in value if isinstance(value, tuple) else (value,):
                    if isinstance(child, (Expr, IntExpr)):
                        stack.append((child, depth + 1))

    def name(self, what: str = "name") -> tuple:
        kind, tok, start, end = self.peek()
        if kind != "name":
            self.fail(f"expected {what}, found {tok!r}" if tok else f"expected {what}")
        if tok in _CALLS or tok in (
            "identity", "param", "scale", "order", "lhs", "rhs", "in", "Z",
            "q", "z", "full", "half",
        ):
            self.fail(f"{tok!r} is reserved and cannot be used as a {what}")
        return self.take()

    def integer(self) -> tuple:
        kind, tok, start, end = self.peek()
        if kind != "int":
            self.fail(f"expected integer, found {tok!r}" if tok else "expected integer")
        return self.take()

    def span(self, start: int) -> Span:
        return Span(start, self.toks[self.i - 1][3])

    # -- integer polynomials --

    def intexpr(self) -> IntExpr:
        return self.nested(self.isum)

    def isum(self) -> IntExpr:
        start = self.peek()[2]
        e = self.iterm()
        while self.at("+") or self.at("-"):
            op = self.take()[1]
            r = self.iterm()
            cls = IAdd if op == "+" else ISub
            e = cls(left=e, right=r, span=self.span(start))
        return e

    def iterm(self) -> IntExpr:
        start = self.peek()[2]
        e = self.ifactor()
        while self.at("*"):
            self.take()
            r = self.ifactor()
            e = IMul(left=e, right=r, span=self.span(start))
        return e

    def ifactor(self) -> IntExpr:
        start = self.peek()[2]
        if self.at("-"):
            self.take()
            arg = self.nested(self.ifactor)
            return INeg(arg=arg, span=self.span(start))
        e = self.iatom()
        if self.at("^"):
            self.take()
            _, tok, _, _ = self.integer()
            e = IPow(base=e, power=int(tok), span=self.span(start))
        return e

    def iatom(self) -> IntExpr:
        kind, tok, start, end = self.peek()
        if kind == "int":
            self.take()
            return IntLit(value=int(tok), span=self.span(start))
        if tok == "binom":
            self.take()
            self.expect("(")
            arg = self.intexpr()
            self.expect(",")
            _, two, _, _ = self.integer()
            if two != "2":
                self.fail("binom supports only second entry 2")
            self.expect(")")
            return IBinom(arg=arg, span=self.span(start))
        if tok == "(":
            self.take()
            e = self.intexpr()
            self.expect(")")
            return e
        if kind == "name":
            self.name("index or parameter")
            return IVar(name=tok, span=self.span(start))
        self.fail(f"expected integer expression, found {tok!r}" if tok else "expected integer expression")

    # -- series expressions --

    def expr(self) -> Expr:
        return self.nested(self.sum_expr)

    def sum_expr(self) -> Expr:
        start = self.peek()[2]
        e = self.term()
        while self.at("+") or self.at("-"):
            op = self.take()[1]
            r = self.term()
            cls = Add if op == "+" else Sub
            e = cls(left=e, right=r, span=self.span(start))
        return e

    def term(self):
        start = self.peek()[2]
        e = self.factor()
        while self.at("*") or self.at("/"):
            op = self.take()[1]
            r = self.factor()
            cls = Mul if op == "*" else Div
            e = cls(left=e, right=r, span=self.span(start))
        return e

    def factor(self):
        start = self.peek()[2]
        if self.at("-"):
            self.take()
            arg = self.nested(self.factor)
            return Neg(arg=arg, span=self.span(start))
        return self.primary()

    def powtail(self) -> IntExpr | None:
        if not self.at("^"):
            return None
        self.take()
        kind, tok, start, _ = self.peek()
        if kind == "int":
            self.take()
            return IntLit(value=int(tok), span=self.span(start))
        self.expect("(")
        e = self.intexpr()
        self.expect(")")
        return e

    def primary(self):
        kind, tok, start, end = self.peek()
        if kind == "int":
            self.take()
            base = Rational(value=Fraction(int(tok)), span=self.span(start))
            exp = self.powtail()
            return base if exp is None else Pow(base=base, exp=exp, span=self.span(start))
        if tok == "q" or tok == "z":
            self.take()
            cls = QPow if tok == "q" else ZPow
            return cls(exp=self.powtail(), span=self.span(start))
        if tok == "(":
            self.take()
            e = self.expr()
            self.expect(")")
            exp = self.powtail()
            return e if exp is None else Pow(base=e, exp=exp, span=self.span(start))
        if tok in ("poch", "theta"):
            return self.poch_or_theta()
        if tok == "qbinom":
            self.take()
            self.expect("(")
            top = self.intexpr()
            self.expect(",")
            bottom = self.intexpr()
            self.expect(")")
            return QBinom(top=top, bottom=bottom, span=self.span(start))
        if tok == "sum":
            return self.sum_atom()
        if tok == "num":
            self.take()
            self.expect("(")
            poly = self.intexpr()
            self.expect(")")
            return NumPoly(poly=poly, span=self.span(start))
        if tok == "appell":
            self.take()
            self.expect("(")
            _, index, _, _ = self.name("summation index")
            self.expect(",")
            num = self.expr()
            self.expect(",")
            den = self.intexpr()
            self.expect(")")
            return Appell(index=index, num=num, den=den, span=self.span(start))
        if tok == "hecke":
            return self.hecke_atom()
        self.fail(f"unknown identifier {tok!r}" if kind == "name" else
                  (f"expected expression, found {tok!r}" if tok else "expected expression"))

    def step(self) -> IntExpr:
        kind, tok, start, _ = self.peek()
        if tok != "q":
            self.fail(f"expected step base q, found {tok!r}" if tok else "expected step base q")
        self.take()
        exp = self.powtail()
        if exp is None:
            return IntLit(value=self.scale, span=self.span(start))
        return exp

    def poch_or_theta(self):
        kind, tok, start, _ = self.take()
        head = tok
        self.expect("(")
        bases = [self.expr()]
        while self.at(","):
            self.take()
            bases.append(self.expr())
        self.expect(";")
        step = self.step()
        length = None
        if head == "poch" and self.at(","):
            self.take()
            length = self.intexpr()
        self.expect(")")
        if head == "poch":
            return Poch(bases=tuple(bases), step=step, length=length, span=self.span(start))
        return Theta(bases=tuple(bases), step=step, span=self.span(start))

    def sum_atom(self):
        _, _, start, _ = self.take()
        self.expect("(")
        _, first, _, _ = self.name("summation index")
        if self.at(">="):
            indices = [first]
            while self.at(">="):
                self.take()
                kind, tok, _, _ = self.peek()
                if kind == "int":
                    if tok != "0":
                        self.fail("chain must terminate at 0")
                    self.take()
                    break
                _, nxt, _, _ = self.name("summation index")
                indices.append(nxt)
            else:
                self.fail("chain must terminate at 0")
            self.expect(",")
            body = self.expr()
            self.expect(")")
            return ChainSum(indices=tuple(indices), body=body, span=self.span(start))
        if not self.at("in"):
            self.fail("expected '>=' or 'in' after summation index")
        self.take()
        kind, tok, _, _ = self.peek()
        if kind == "name" and tok == "Z":
            self.take()
            self.expect(",")
            body = self.expr()
            self.expect(")")
            return BilateralSum(index=first, body=body, span=self.span(start))
        lo = self.intexpr()
        self.expect("..")
        hi = self.intexpr()
        self.expect(",")
        body = self.expr()
        self.expect(")")
        return RangeSum(index=first, lo=lo, hi=hi, body=body, span=self.span(start))

    def hecke_atom(self):
        _, _, start, _ = self.take()
        self.expect("(")
        _, outer, _, _ = self.name("row index")
        self.expect(",")
        _, inner, _, _ = self.name("column index")
        self.expect(",")
        kind, region, _, _ = self.peek()
        if region not in ("full", "half"):
            self.fail("expected region 'full' or 'half'")
        self.take()
        self.expect(",")
        body = self.expr()
        den = None
        if self.at(","):
            self.take()
            den = self.intexpr()
        self.expect(")")
        return Hecke(outer=outer, inner=inner, region=region, body=body, den=den, span=self.span(start))

    # -- identities --

    def identity(self) -> IdentitySpec:
        _, _, start, _ = self.expect("identity")
        _, name, _, _ = self.name("identity name")
        self.expect("{")
        params = []
        while self.at("param"):
            _, _, pstart, _ = self.take()
            _, pname, _, _ = self.name("parameter name")
            self.expect("in")
            _, lo, _, _ = self.integer()
            self.expect("..")
            kind, hi, _, _ = self.peek()
            if kind == "int":
                self.take()
                hi_val: object = int(hi)
            else:
                _, hi_val, _, _ = self.name("parameter bound")
            params.append(ParamDecl(name=pname, lo=int(lo), hi=hi_val, span=self.span(pstart)))
        self.expect("scale")
        _, scale, _, _ = self.integer()
        self.scale = int(scale)
        if self.scale < 1:
            self.fail("scale must be >= 1")
        self.expect("order")
        _, order, _, _ = self.integer()
        zbind = None
        if self.at("z"):
            _, _, zstart, _ = self.take()
            self.expect("=")
            sign = 1
            if self.at("-"):
                self.take()
                sign = -1
            if not self.at("q"):
                self.fail("z binding must be a signed power of q")
            self.take()
            self.expect("^")
            self.expect("(")
            qexp = self.intexpr()
            self.expect(")")
            zbind = ZBind(sign=sign, qexp=qexp, span=self.span(zstart))
        self.expect("lhs")
        lhs = self.expr()
        self.expect("rhs")
        rhs = self.expr()
        self.expect("}")
        return IdentitySpec(
            name=name,
            params=tuple(params),
            scale=self.scale,
            order=int(order),
            zbind=zbind,
            lhs=lhs,
            rhs=rhs,
            span=self.span(start),
        )

    def file(self) -> tuple:
        specs = [self.identity()]
        while self.peek()[0] != "eof":
            specs.append(self.identity())
        return tuple(specs)


def parse_file(text: str) -> tuple:
    """Parse a source file into its identity specs."""
    return _Parser(text).file()


def parse(text: str) -> IdentitySpec:
    """Parse a source containing exactly one identity."""
    specs = parse_file(text)
    if len(specs) != 1:
        raise DslSyntaxError(f"expected one identity, found {len(specs)}", 1, 1, (0, 1))
    return specs[0]


def parse_expr(text: str, scale: int = 1):
    """Parse a standalone expression at the given scale."""
    p = _Parser(text)
    p.scale = scale
    e = p.expr()
    if p.peek()[0] != "eof":
        p.fail("unexpected trailing input")
    return e
