"""AST for the identity language: node types and the canonical printer.

Every node class derives from ``Node``. It reads the class's annotated
fields and their defaults once, when the class is created (PEP 487); a
subclass's fields follow those of its bases. All node classes share one
constructor, equality, hash and repr, and refuse assignment: nothing is
generated or compiled per class. Two nodes are equal only when they are of
the same class with equal fields, and a node hashes as the tuple of those
fields. ``span``, the node's place in the source text, takes no part in
equality, hashing or repr; nor does ``IdentitySpec.plans``, a fresh dict per
spec that holds each side's compiled plan.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

__all__ = [
    "Node",
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


class Node:
    """Base of the node classes: immutable, and compared, hashed and shown by its fields.

    ``_fields`` names the constructor's arguments in order, ``_defaults``
    holds the defaults of those that have one, and ``_keys`` names the
    fields that equality, hashing and repr read: all but ``span``.
    """

    _fields = ()
    _defaults = {}
    _keys = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._fields = cls._fields + tuple(name for name in own if name not in cls._fields)
        cls._defaults = {name: getattr(cls, name) for name in cls._fields if hasattr(cls, name)}
        cls._keys = tuple(name for name in cls._fields if name != "span")

    def __init__(self, *args, **kwargs):
        fields, defaults, put = self._fields, self._defaults, object.__setattr__
        if args:
            if len(args) > len(fields):
                raise TypeError(f"{type(self).__name__}() takes {len(fields)} arguments")
            for name, value in zip(fields, args):
                if name in kwargs:
                    raise TypeError(f"{type(self).__name__}() got two values for {name!r}")
                kwargs[name] = value
        try:
            for name in fields:
                put(self, name, kwargs.pop(name) if name in kwargs else defaults[name])
        except KeyError:
            raise TypeError(f"{type(self).__name__}() missing argument {name!r}") from None
        if kwargs:
            raise TypeError(f"{type(self).__name__}() got unexpected arguments {sorted(kwargs)}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._keys])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._keys)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Span(Node):
    """Half-open codepoint range [start, end) into the source text."""

    start: int
    end: int


# -- integer exponent polynomials -------------------------------------------


class IntExpr(Node):
    span: Span | None = None


class IntLit(IntExpr):
    value: int = 0


class IVar(IntExpr):
    name: str = ""


class IAdd(IntExpr):
    left: IntExpr = None
    right: IntExpr = None


class ISub(IntExpr):
    left: IntExpr = None
    right: IntExpr = None


class IMul(IntExpr):
    left: IntExpr = None
    right: IntExpr = None


class INeg(IntExpr):
    arg: IntExpr = None


class IPow(IntExpr):
    base: IntExpr = None
    power: int = 2


class IBinom(IntExpr):
    # binom(arg, 2) = arg*(arg-1)/2, always an integer.
    arg: IntExpr = None


# -- series expressions ------------------------------------------------------


class Expr(Node):
    span: Span | None = None


class Rational(Expr):
    """Nonnegative integer literal; fractions are written with '/'."""

    value: Fraction = Fraction(0)


class QPow(Expr):
    """q^(exp) in scaled units; exp None is bare q, one natural power."""

    exp: IntExpr | None = None


class ZPow(Expr):
    exp: IntExpr | None = None


class Pow(Expr):
    base: Expr = None
    exp: IntExpr = None


class Neg(Expr):
    arg: Expr = None


class Add(Expr):
    left: Expr = None
    right: Expr = None


class Sub(Expr):
    left: Expr = None
    right: Expr = None


class Mul(Expr):
    left: Expr = None
    right: Expr = None


class Div(Expr):
    left: Expr = None
    right: Expr = None


class NumPoly(Expr):
    """Integer polynomial value used as a plain coefficient, num(E)."""

    poly: IntExpr = None


class Poch(Expr):
    """poch(b1, ..., bk; step[, length]); infinite product when length is None."""

    bases: tuple = ()
    step: IntExpr = None
    length: IntExpr | None = None


class Theta(Expr):
    """theta(b1, ..., bk; step), the product of infinite factors."""

    bases: tuple = ()
    step: IntExpr = None


class QBinom(Expr):
    top: IntExpr = None
    bottom: IntExpr = None


class ChainSum(Expr):
    """sum(n1>=n2>=...>=nk>=0, body)."""

    indices: tuple = ()
    body: Expr = None


class BilateralSum(Expr):
    """sum(n in Z, body)."""

    index: str = ""
    body: Expr = None


class RangeSum(Expr):
    """sum(j in lo..hi, body) over a finite integer window."""

    index: str = ""
    lo: IntExpr = None
    hi: IntExpr = None
    body: Expr = None


class Appell(Expr):
    """appell(n, numerator, den): bilateral sum of numerator / (1 + q^(den))."""

    index: str = ""
    num: Expr = None
    den: IntExpr = None


class Hecke(Expr):
    """hecke(n, j, region, body[, den]): rows n >= 0, j over the region."""

    outer: str = ""
    inner: str = ""
    region: str = "full"
    body: Expr = None
    den: IntExpr | None = None


# -- identity container ------------------------------------------------------


class ParamDecl(Node):
    """Declared integer parameter; hi may name an earlier parameter."""

    name: str
    lo: int
    hi: object
    span: Span | None = None


class ZBind(Node):
    """Monomial binding z = sign * q^(qexp) in scaled units."""

    sign: int
    qexp: IntExpr
    span: Span | None = None


class IdentitySpec(Node):
    """One identity; ``plans`` holds each side's evaluation plan once it is compiled."""

    name: str
    params: tuple
    scale: int
    order: int
    zbind: ZBind | None
    lhs: Expr
    rhs: Expr
    span: Span | None = None

    @cached_property
    def plans(self) -> dict:
        return {}


# -- integer expression evaluation ------------------------------------------


def int_eval(e: IntExpr, env: dict) -> int:
    """Evaluate an integer polynomial under the given variable bindings.

    An unbound name raises KeyError(name).
    """
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, IVar):
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
        return lambda env: env[name]
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
