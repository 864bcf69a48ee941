"""AST for the identity language: node types and the canonical printer."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

__all__ = [
    "Span",
    "IntExpr",
    "IntLit",
    "IVar",
    "IAdd",
    "ISub",
    "IMul",
    "INeg",
    "IPow",
    "IBinom",
    "Expr",
    "Rational",
    "QPow",
    "ZPow",
    "Pow",
    "Neg",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "NumPoly",
    "Poch",
    "Theta",
    "QBinom",
    "ChainSum",
    "BilateralSum",
    "RangeSum",
    "Appell",
    "Hecke",
    "ParamDecl",
    "ZBind",
    "IdentitySpec",
    "int_eval",
    "int_closure",
    "int_vars",
    "pretty_print",
    "pretty_print_expr",
]


@dataclass(frozen=True)
class Span:
    """Half-open codepoint range [start, end) into the source text."""

    start: int
    end: int


def _span_field():
    return field(default=None, compare=False, repr=False)


# -- integer exponent polynomials -------------------------------------------


@dataclass(frozen=True)
class IntExpr:
    span: Span | None = _span_field()


@dataclass(frozen=True)
class IntLit(IntExpr):
    value: int = 0


@dataclass(frozen=True)
class IVar(IntExpr):
    name: str = ""


@dataclass(frozen=True)
class IAdd(IntExpr):
    left: IntExpr = None
    right: IntExpr = None


@dataclass(frozen=True)
class ISub(IntExpr):
    left: IntExpr = None
    right: IntExpr = None


@dataclass(frozen=True)
class IMul(IntExpr):
    left: IntExpr = None
    right: IntExpr = None


@dataclass(frozen=True)
class INeg(IntExpr):
    arg: IntExpr = None


@dataclass(frozen=True)
class IPow(IntExpr):
    base: IntExpr = None
    power: int = 2


@dataclass(frozen=True)
class IBinom(IntExpr):
    # binom(arg, 2) = arg*(arg-1)/2, always an integer.
    arg: IntExpr = None


# -- series expressions ------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    span: Span | None = _span_field()


@dataclass(frozen=True)
class Rational(Expr):
    """Nonnegative integer literal; fractions are written with '/'."""

    value: Fraction = Fraction(0)


@dataclass(frozen=True)
class QPow(Expr):
    """q^(exp) in scaled units; exp None is bare q, one natural power."""

    exp: IntExpr | None = None


@dataclass(frozen=True)
class ZPow(Expr):
    exp: IntExpr | None = None


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr = None
    exp: IntExpr = None


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr = None


@dataclass(frozen=True)
class Add(Expr):
    left: Expr = None
    right: Expr = None


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr = None
    right: Expr = None


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr = None
    right: Expr = None


@dataclass(frozen=True)
class Div(Expr):
    left: Expr = None
    right: Expr = None


@dataclass(frozen=True)
class NumPoly(Expr):
    """Integer polynomial value used as a plain coefficient, num(E)."""

    poly: IntExpr = None


@dataclass(frozen=True)
class Poch(Expr):
    """poch(b1, ..., bk; step[, length]); infinite product when length is None."""

    bases: tuple = ()
    step: IntExpr = None
    length: IntExpr | None = None


@dataclass(frozen=True)
class Theta(Expr):
    """theta(b1, ..., bk; step), the product of infinite factors."""

    bases: tuple = ()
    step: IntExpr = None


@dataclass(frozen=True)
class QBinom(Expr):
    top: IntExpr = None
    bottom: IntExpr = None


@dataclass(frozen=True)
class ChainSum(Expr):
    """sum(n1>=n2>=...>=nk>=0, body)."""

    indices: tuple = ()
    body: Expr = None


@dataclass(frozen=True)
class BilateralSum(Expr):
    """sum(n in Z, body)."""

    index: str = ""
    body: Expr = None


@dataclass(frozen=True)
class RangeSum(Expr):
    """sum(j in lo..hi, body) over a finite integer window."""

    index: str = ""
    lo: IntExpr = None
    hi: IntExpr = None
    body: Expr = None


@dataclass(frozen=True)
class Appell(Expr):
    """appell(n, numerator, den): bilateral sum of numerator / (1 + q^(den))."""

    index: str = ""
    num: Expr = None
    den: IntExpr = None


@dataclass(frozen=True)
class Hecke(Expr):
    """hecke(n, j, region, body[, den]): rows n >= 0, j over the region."""

    outer: str = ""
    inner: str = ""
    region: str = "full"
    body: Expr = None
    den: IntExpr | None = None


# -- identity container ------------------------------------------------------


@dataclass(frozen=True)
class ParamDecl:
    """Declared integer parameter; hi may name an earlier parameter."""

    name: str
    lo: int
    hi: object
    span: Span | None = _span_field()


@dataclass(frozen=True)
class ZBind:
    """Monomial binding z = sign * q^(qexp) in scaled units."""

    sign: int
    qexp: IntExpr
    span: Span | None = _span_field()


@dataclass(frozen=True)
class IdentitySpec:
    """One identity; ``plans`` holds each side's evaluation plan once it is compiled."""

    name: str
    params: tuple
    scale: int
    order: int
    zbind: ZBind | None
    lhs: Expr
    rhs: Expr
    span: Span | None = _span_field()
    plans: dict = field(default_factory=dict, init=False, compare=False, repr=False)


# -- integer expression evaluation ------------------------------------------


def int_eval(e: IntExpr, env: dict) -> int:
    """Evaluate an integer polynomial under the given variable bindings."""
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, IVar):
        if e.name not in env:
            raise KeyError(f"unbound variable {e.name!r}")
        return env[e.name]
    if isinstance(e, IAdd):
        return int_eval(e.left, env) + int_eval(e.right, env)
    if isinstance(e, ISub):
        return int_eval(e.left, env) - int_eval(e.right, env)
    if isinstance(e, IMul):
        return int_eval(e.left, env) * int_eval(e.right, env)
    if isinstance(e, INeg):
        return -int_eval(e.arg, env)
    if isinstance(e, IPow):
        return int_eval(e.base, env) ** e.power
    if isinstance(e, IBinom):
        v = int_eval(e.arg, env)
        return v * (v - 1) // 2
    raise TypeError(f"not an integer expression: {e!r}")


def int_closure(e: IntExpr):
    """An integer polynomial as a closure over the bindings: int_eval, lowered once.

    A literal operand is folded into its operation. An unbound name raises
    the KeyError int_eval raises.
    """
    if isinstance(e, IntLit):
        v = e.value
        return lambda env: v
    if isinstance(e, IVar):
        name = e.name

        def var(env):
            try:
                return env[name]
            except KeyError:
                raise KeyError(f"unbound variable {name!r}") from None

        return var
    if isinstance(e, (IAdd, ISub, IMul)):
        a, b = int_closure(e.left), int_closure(e.right)
        if isinstance(e, IMul):
            if isinstance(e.left, IntLit):
                k = e.left.value
                return lambda env: k * b(env)
            return lambda env: a(env) * b(env)
        k = e.right.value if isinstance(e.right, IntLit) else None
        if isinstance(e, IAdd):
            return (lambda env: a(env) + k) if k is not None else (lambda env: a(env) + b(env))
        return (lambda env: a(env) - k) if k is not None else (lambda env: a(env) - b(env))
    if isinstance(e, INeg):
        a = int_closure(e.arg)
        return lambda env: -a(env)
    if isinstance(e, IPow):
        a, k = int_closure(e.base), e.power
        return lambda env: a(env) ** k
    if isinstance(e, IBinom):
        a = int_closure(e.arg)

        def binom(env):
            v = a(env)
            return v * (v - 1) // 2

        return binom
    raise TypeError(f"not an integer expression: {e!r}")


def int_vars(e: IntExpr, out: set | None = None) -> set:
    """Collect the variable names appearing in an integer polynomial."""
    if out is None:
        out = set()
    if isinstance(e, IVar):
        out.add(e.name)
    elif isinstance(e, (IAdd, ISub, IMul)):
        int_vars(e.left, out)
        int_vars(e.right, out)
    elif isinstance(e, INeg):
        int_vars(e.arg, out)
    elif isinstance(e, IPow):
        int_vars(e.base, out)
    elif isinstance(e, IBinom):
        int_vars(e.arg, out)
    return out


# -- canonical printer -------------------------------------------------------

# Precedence levels: sums bind loosest, then products, then unary minus,
# then atoms; a child is parenthesized when it binds looser than its slot.
_ADD, _MUL, _UNARY, _ATOM = 1, 2, 3, 4


def _ip(e: IntExpr, level: int = _ADD) -> str:
    if isinstance(e, IntLit):
        s, mine = str(e.value), _ATOM if e.value >= 0 else _UNARY
    elif isinstance(e, IVar):
        s, mine = e.name, _ATOM
    elif isinstance(e, IAdd):
        s, mine = f"{_ip(e.left, _ADD)}+{_ip(e.right, _MUL)}", _ADD
    elif isinstance(e, ISub):
        s, mine = f"{_ip(e.left, _ADD)}-{_ip(e.right, _MUL)}", _ADD
    elif isinstance(e, IMul):
        s, mine = f"{_ip(e.left, _MUL)}*{_ip(e.right, _UNARY)}", _MUL
    elif isinstance(e, INeg):
        s, mine = f"-{_ip(e.arg, _UNARY)}", _UNARY
    elif isinstance(e, IPow):
        s, mine = f"{_ip(e.base, _ATOM)}^{e.power}", _UNARY
    elif isinstance(e, IBinom):
        s, mine = f"binom({_ip(e.arg)},2)", _ATOM
    else:
        raise TypeError(f"not an integer expression: {e!r}")
    return f"({s})" if mine < level else s


def _step(e: IntExpr, scale: int) -> str:
    if isinstance(e, IntLit):
        if e.value == scale:
            return "q"
        if e.value >= 0:
            return f"q^{e.value}"
    return f"q^({_ip(e)})"


def _qz(letter: str, exp: IntExpr | None) -> str:
    if exp is None:
        return letter
    if isinstance(exp, IntLit) and exp.value >= 0:
        return f"{letter}^{exp.value}"
    return f"{letter}^({_ip(exp)})"


def _pp(e: Expr, scale: int, level: int = _ADD) -> str:
    if isinstance(e, Rational):
        s, mine = str(e.value), _ATOM
    elif isinstance(e, QPow):
        s, mine = _qz("q", e.exp), _ATOM
    elif isinstance(e, ZPow):
        s, mine = _qz("z", e.exp), _ATOM
    elif isinstance(e, Pow):
        s, mine = f"{_pp(e.base, scale, _ATOM)}^({_ip(e.exp)})", _UNARY
    elif isinstance(e, Neg):
        s, mine = f"-{_pp(e.arg, scale, _UNARY)}", _UNARY
    elif isinstance(e, Add):
        s, mine = f"{_pp(e.left, scale, _ADD)} + {_pp(e.right, scale, _MUL)}", _ADD
    elif isinstance(e, Sub):
        s, mine = f"{_pp(e.left, scale, _ADD)} - {_pp(e.right, scale, _MUL)}", _ADD
    elif isinstance(e, Mul):
        s, mine = f"{_pp(e.left, scale, _MUL)}*{_pp(e.right, scale, _UNARY)}", _MUL
    elif isinstance(e, Div):
        s, mine = f"{_pp(e.left, scale, _MUL)}/{_pp(e.right, scale, _UNARY)}", _MUL
    elif isinstance(e, NumPoly):
        s, mine = f"num({_ip(e.poly)})", _ATOM
    elif isinstance(e, (Poch, Theta)):
        head = "poch" if isinstance(e, Poch) else "theta"
        bases = ", ".join(_pp(b, scale) for b in e.bases)
        tail = f", {_ip(e.length)}" if isinstance(e, Poch) and e.length is not None else ""
        s, mine = f"{head}({bases}; {_step(e.step, scale)}{tail})", _ATOM
    elif isinstance(e, QBinom):
        s, mine = f"qbinom({_ip(e.top)}, {_ip(e.bottom)})", _ATOM
    elif isinstance(e, ChainSum):
        chain = ">=".join(e.indices) + ">=0"
        s, mine = f"sum({chain}, {_pp(e.body, scale)})", _ATOM
    elif isinstance(e, BilateralSum):
        s, mine = f"sum({e.index} in Z, {_pp(e.body, scale)})", _ATOM
    elif isinstance(e, RangeSum):
        s, mine = f"sum({e.index} in {_ip(e.lo, _MUL)}..{_ip(e.hi, _MUL)}, {_pp(e.body, scale)})", _ATOM
    elif isinstance(e, Appell):
        s, mine = f"appell({e.index}, {_pp(e.num, scale)}, {_ip(e.den)})", _ATOM
    elif isinstance(e, Hecke):
        tail = f", {_ip(e.den)}" if e.den is not None else ""
        s, mine = f"hecke({e.outer}, {e.inner}, {e.region}, {_pp(e.body, scale)}{tail})", _ATOM
    else:
        raise TypeError(f"not an expression: {e!r}")
    return f"({s})" if mine < level else s


def pretty_print_expr(e: Expr, scale: int = 1) -> str:
    """Render one expression in canonical minimal-parenthesis form."""
    return _pp(e, scale)


def pretty_print(spec: IdentitySpec) -> str:
    """Render an identity spec; parsing the output rebuilds an equal AST."""
    lines = [f"identity {spec.name} {{"]
    for p in spec.params:
        hi = p.hi if isinstance(p.hi, str) else str(p.hi)
        lines.append(f"  param {p.name} in {p.lo}..{hi}")
    lines.append(f"  scale {spec.scale} order {spec.order}")
    if spec.zbind is not None:
        sign = "-" if spec.zbind.sign < 0 else ""
        lines.append(f"  z = {sign}q^({_ip(spec.zbind.qexp)})")
    lines.append(f"  lhs {_pp(spec.lhs, spec.scale)}")
    lines.append(f"  rhs {_pp(spec.rhs, spec.scale)}")
    lines.append("}")
    return "\n".join(lines) + "\n"
