"""Independent brute-force expansion of identity ASTs on flat term dicts."""

from __future__ import annotations

from fractions import Fraction

from .errors import NonUnitLeadingError, PoleError, SpecError, TerminationError
from .dsl.nodes import (
    Add,
    Appell,
    BilateralSum,
    ChainSum,
    Div,
    Hecke,
    IdentitySpec,
    Mul,
    Neg,
    NumPoly,
    Poch,
    Pow,
    QBinom,
    QPow,
    RangeSum,
    Rational,
    Sub,
    Theta,
    ZPow,
    int_eval,
)

# Everything here is deliberately first-principles, with its own convolution,
# inversion, and summation loops, so it can cross-check the engine path.
# Terms live in flat dicts {(qexp, zexp): Fraction} with qexp in scaled units.
# Each expansion also carries hi, the exponent through which its terms are
# guaranteed to agree with the untruncated object (None means everywhere).
# Truncation against factors with negative exponents lowers hi; the top-level
# driver watches the final hi and reruns at a raised working order until the
# requested order is certified.

_EMPTY_RUN = 8


def _hmin(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class _Ex:
    """Flat expansion with a correctness bound."""

    __slots__ = ("t", "hi")

    def __init__(self, t: dict, hi: int | None):
        self.t = t
        self.hi = hi

    def low(self) -> int | None:
        """Least exponent the untruncated object could carry a term at."""
        if self.t:
            return min(qe for qe, _ in self.t)
        return None if self.hi is None else self.hi + 1


def _zero() -> _Ex:
    return _Ex({}, None)


def _is_zero(a: _Ex) -> bool:
    return not a.t and a.hi is None


def _add(a: _Ex, b: _Ex) -> _Ex:
    t = dict(a.t)
    for k, c in b.t.items():
        s = t.get(k, 0) + c
        if s:
            t[k] = s
        else:
            t.pop(k, None)
    return _Ex(t, _hmin(a.hi, b.hi))


def _scalar(a: _Ex, c: Fraction) -> _Ex:
    if not c:
        return _zero()
    return _Ex({k: v * c for k, v in a.t.items()}, a.hi)


def _mul(a: _Ex, b: _Ex, w: int) -> _Ex:
    if _is_zero(a) or _is_zero(b):
        return _zero()
    t: dict = {}
    for (qa, za), ca in a.t.items():
        for (qb, zb), cb in b.t.items():
            qe = qa + qb
            if qe > w:
                continue
            k = (qe, za + zb)
            s = t.get(k, 0) + ca * cb
            if s:
                t[k] = s
            else:
                t.pop(k, None)
    hi = None
    la, lb = a.low(), b.low()
    if a.hi is not None:
        hi = a.hi + lb if lb is not None else None
    if b.hi is not None:
        hi = _hmin(hi, b.hi + la if la is not None else None)
    return _Ex(t, _hmin(hi, None if _fits(a, b, w) else w))


def _fits(a: _Ex, b: _Ex, w: int) -> bool:
    # The window clip at w only costs accuracy when the true product can
    # carry terms above w, which needs both factors nonvanishing up there.
    la, lb = a.low(), b.low()
    if la is None or lb is None:
        return True
    ha = a.hi if a.hi is not None else max(qe for qe, _ in a.t)
    hb = b.hi if b.hi is not None else max(qe for qe, _ in b.t)
    return ha + hb <= w


def _shift(a: _Ex, zexp: int, qexp: int, w: int) -> _Ex:
    t = {(qe + qexp, ze + zexp): c for (qe, ze), c in a.t.items() if qe + qexp <= w}
    hi = a.hi if a.hi is None else a.hi + qexp
    if len(t) != len(a.t):
        hi = _hmin(hi, w)
    return _Ex(t, hi)


def _inv(a: _Ex, w: int) -> _Ex:
    if _is_zero(a):
        raise PoleError("cannot invert the zero expansion")
    if not a.t:
        raise NonUnitLeadingError("expansion vanishes through its whole window")
    qmin = min(qe for qe, _ in a.t)
    lead = [(k, c) for k, c in a.t.items() if k[0] == qmin]
    if len(lead) != 1:
        raise NonUnitLeadingError("lowest slice is not a single monomial")
    (q0, z0), c0 = lead[0]
    linv = _Ex({(-q0, -z0): Fraction(1) / c0}, None)
    rest = _Ex({k: c for k, c in a.t.items() if k != (q0, z0)}, a.hi)
    if not rest.t:
        return _Ex(linv.t, None if a.hi is None else a.hi - 2 * q0)
    u = _mul(linv, rest, w)
    out = _Ex({(0, 0): Fraction(1)}, None)
    power = _Ex({(0, 0): Fraction(1)}, None)
    while True:
        power = _scalar(_mul(power, u, w), Fraction(-1))
        if not power.t:
            break
        out = _add(out, _Ex(power.t, None))
    # The tail of the geometric sum lives above the window, so w itself is
    # the honest bound even when u is exact.
    out.hi = _hmin(u.hi, w)
    return _mul(linv, out, w)


class _State:
    """Evaluation frame: working order, scale, folded z, index bindings."""

    __slots__ = ("w", "scale", "zfold", "env", "cache")

    def __init__(self, w: int, scale: int, zfold, env: dict, cache: dict | None = None):
        self.w = w
        self.scale = scale
        self.zfold = zfold
        self.env = env
        self.cache = {} if cache is None else cache

    def bind(self, name: str, value: int) -> "_State":
        env = dict(self.env)
        env[name] = value
        return _State(self.w, self.scale, self.zfold, env, self.cache)

    def monomial(self, coeff, zexp: int = 0, qexp: int = 0) -> _Ex:
        c = Fraction(coeff)
        if not c:
            return _zero()
        if self.zfold is not None and zexp:
            sign, e = self.zfold
            qexp += zexp * e
            if sign < 0 and zexp % 2:
                c = -c
            zexp = 0
        if qexp > self.w:
            return _Ex({}, self.w)
        return _Ex({(qexp, zexp): c}, None)


def _mono_triple(e, st: _State):
    """Read a product base structurally as one monomial (coeff, zexp, qexp)."""
    if isinstance(e, Rational):
        return e.value, 0, 0
    if isinstance(e, NumPoly):
        return Fraction(int_eval(e.poly, st.env)), 0, 0
    if isinstance(e, Neg):
        c, ze, qe = _mono_triple(e.arg, st)
        return -c, ze, qe
    if isinstance(e, QPow):
        p = st.scale if e.exp is None else int_eval(e.exp, st.env)
        return Fraction(1), 0, p
    if isinstance(e, ZPow):
        p = 1 if e.exp is None else int_eval(e.exp, st.env)
        return Fraction(1), p, 0
    if isinstance(e, Mul):
        c1, z1, q1 = _mono_triple(e.left, st)
        c2, z2, q2 = _mono_triple(e.right, st)
        return c1 * c2, z1 + z2, q1 + q2
    if isinstance(e, Div):
        c1, z1, q1 = _mono_triple(e.left, st)
        c2, z2, q2 = _mono_triple(e.right, st)
        if not c2:
            raise PoleError("division by a zero base")
        return c1 / c2, z1 - z2, q1 - q2
    if isinstance(e, Pow):
        p = int_eval(e.exp, st.env)
        c, ze, qe = _mono_triple(e.base, st)
        if not c:
            if p < 0:
                raise PoleError("zero base raised to a negative power")
            return (Fraction(1), 0, 0) if p == 0 else (Fraction(0), 0, 0)
        return c**p, ze * p, qe * p
    raise SpecError("product base must be a single monomial")


def _eval_poch(bases, step_expr, length_expr, st: _State) -> _Ex:
    step = int_eval(step_expr, st.env)
    if step < 1:
        raise SpecError("product step must be >= 1")
    count = None
    if length_expr is not None:
        count = int_eval(length_expr, st.env)
        if count < 0:
            raise SpecError("product length must be >= 0")
    triples = tuple(_mono_triple(b, st) for b in bases)
    # Leaf tuples of nested sums resolve to the same few products over and
    # over; the expansion depends only on the resolved data and the window.
    key = (triples, step, count, st.w)
    hit = st.cache.get(key)
    if hit is not None:
        return hit
    out = _Ex({(0, 0): Fraction(1)}, None)
    for c, ze, qe in triples:
        t = 0
        while True:
            if count is not None and t >= count:
                break
            factor = st.monomial(-c, ze, qe + t * step)
            if count is None and not factor.t:
                # Later factors sit above the window, but against negative
                # exponents in the running product they would still reach
                # down to w + low + 1, so certify only up to w + low.
                lo = out.low()
                bound = st.w if lo is None or lo >= 0 else st.w + lo
                out.hi = _hmin(out.hi, bound)
                break
            out = _mul(out, _add(_Ex({(0, 0): Fraction(1)}, None), factor), st.w)
            if _is_zero(out):
                st.cache[key] = out
                return out
            t += 1
    st.cache[key] = out
    return out


def _qbinom(top: int, bottom: int, st: _State) -> _Ex:
    # Pascal recurrence in powers of q^scale keeps this division-free.
    if bottom < 0 or bottom > top:
        return _zero()
    one = _Ex({(0, 0): Fraction(1)}, None)
    row = [one]
    for n in range(1, top + 1):
        new = [one]
        for k in range(1, n):
            new.append(_add(row[k - 1], _shift(row[k], 0, k * st.scale, st.w)))
        new.append(one)
        row = new
    return row[bottom]


def _over_unit_plus(term: _Ex, dexp: int, st: _State) -> _Ex:
    """Divide by (1 + q^dexp), rewriting nonpositive dexp exactly first."""
    if dexp < 0:
        term = _shift(term, 0, -dexp, st.w)
        dexp = -dexp
    if dexp == 0:
        return _scalar(term, Fraction(1, 2))
    geom = _Ex({(k * dexp, 0): Fraction(-1 if k % 2 else 1) for k in range(st.w // dexp + 1)}, st.w)
    return _mul(term, geom, st.w)


def _run_sum(emit, start: int, direction: int, st: _State) -> _Ex:
    cap = 4 * (st.w + 1)
    out = _zero()
    empties = 0
    n = start
    while True:
        if abs(n) > cap:
            raise TerminationError("sum exceeded its index cap without settling")
        term = emit(n)
        out = _add(out, term)
        if term.t:
            empties = 0
        else:
            empties += 1
            if empties >= _EMPTY_RUN and abs(n) >= 2 * _EMPTY_RUN:
                break
        n += direction
    return out


def _eval(node, st: _State) -> _Ex:
    if isinstance(node, Rational):
        return st.monomial(node.value)
    if isinstance(node, QPow):
        e = st.scale if node.exp is None else int_eval(node.exp, st.env)
        return st.monomial(1, 0, e)
    if isinstance(node, ZPow):
        e = 1 if node.exp is None else int_eval(node.exp, st.env)
        return st.monomial(1, e, 0)
    if isinstance(node, Pow):
        e = int_eval(node.exp, st.env)
        base = _eval(node.base, st)
        if e < 0:
            return _inv(_pow(base, -e, st), st.w)
        return _pow(base, e, st)
    if isinstance(node, Neg):
        return _scalar(_eval(node.arg, st), Fraction(-1))
    if isinstance(node, Add):
        return _add(_eval(node.left, st), _eval(node.right, st))
    if isinstance(node, Sub):
        return _add(_eval(node.left, st), _scalar(_eval(node.right, st), Fraction(-1)))
    if isinstance(node, Mul):
        return _mul(_eval(node.left, st), _eval(node.right, st), st.w)
    if isinstance(node, Div):
        return _mul(_eval(node.left, st), _inv(_eval(node.right, st), st.w), st.w)
    if isinstance(node, NumPoly):
        return st.monomial(int_eval(node.poly, st.env))
    if isinstance(node, Poch):
        return _eval_poch(node.bases, node.step, node.length, st)
    if isinstance(node, Theta):
        return _eval_poch(node.bases, node.step, None, st)
    if isinstance(node, QBinom):
        return _qbinom(int_eval(node.top, st.env), int_eval(node.bottom, st.env), st)
    if isinstance(node, ChainSum):
        return _chain(node, st)
    if isinstance(node, BilateralSum):
        up = _run_sum(lambda n: _eval(node.body, st.bind(node.index, n)), 0, 1, st)
        down = _run_sum(lambda n: _eval(node.body, st.bind(node.index, n)), -1, -1, st)
        return _add(up, down)
    if isinstance(node, RangeSum):
        lo = int_eval(node.lo, st.env)
        hi = int_eval(node.hi, st.env)
        out = _zero()
        for v in range(lo, hi + 1):
            out = _add(out, _eval(node.body, st.bind(node.index, v)))
        return out
    if isinstance(node, Appell):

        def emit(n):
            inner = st.bind(node.index, n)
            num = _eval(node.num, inner)
            return _over_unit_plus(num, int_eval(node.den, inner.env), inner)

        return _add(_run_sum(emit, 0, 1, st), _run_sum(emit, -1, -1, st))
    if isinstance(node, Hecke):

        def emit_row(n):
            m = n // 2 if node.region == "half" else n
            row = _zero()
            for j in range(-m, m + 1):
                inner = st.bind(node.outer, n).bind(node.inner, j)
                term = _eval(node.body, inner)
                if node.den is not None:
                    term = _over_unit_plus(term, int_eval(node.den, inner.env), inner)
                row = _add(row, term)
            return row

        return _run_sum(emit_row, 0, 1, st)
    raise TypeError(f"not an expression node: {node!r}")


def _pow(base: _Ex, e: int, st: _State) -> _Ex:
    """base^e by binary powering: about 2 log2(e) products, not e."""
    out = _Ex({(0, 0): Fraction(1)}, None)
    while e:
        if e & 1:
            out = _mul(out, base, st.w)
        e >>= 1
        if e:
            base = _mul(base, base, st.w)
    return out


def _chain(node: ChainSum, st: _State) -> _Ex:

    def level(i: int, bound: int | None, frame: _State) -> _Ex:
        if i == len(node.indices):
            return _eval(node.body, frame)
        if bound is None:
            return _run_sum(lambda v: level(i + 1, v, frame.bind(node.indices[i], v)), 0, 1, frame)
        out = _zero()
        for v in range(0, bound + 1):
            out = _add(out, level(i + 1, v, frame.bind(node.indices[i], v)))
        return out

    return level(0, None, st)


def _drive(expr, order: int, scale: int, zfold, env: dict) -> dict:
    w = order
    for _ in range(6):
        try:
            out = _eval(expr, _State(w, scale, zfold, dict(env)))
        except KeyError as e:
            raise SpecError(f"unbound identifier {e.args[0]!r}") from e
        if out.hi is None or out.hi >= order:
            return {k: c for k, c in out.t.items() if c and k[0] <= order}
        w += order - out.hi
    raise TerminationError("could not certify the requested order")


def brute_force_expand(spec: IdentitySpec, side: str, bindings: dict | None = None,
                       order: int | None = None) -> dict:
    """Expand one side of an identity to {(scaled qexp, zexp): coefficient}."""
    if side not in ("lhs", "rhs"):
        raise SpecError("side must be 'lhs' or 'rhs'")
    env = dict(bindings or {})
    for p in spec.params:
        if p.name not in env:
            raise SpecError(f"missing binding for parameter {p.name!r}")
    zfold = None
    if spec.zbind is not None:
        zfold = (spec.zbind.sign, int_eval(spec.zbind.qexp, env))
    expr = spec.lhs if side == "lhs" else spec.rhs
    return _drive(expr, spec.order if order is None else order, spec.scale, zfold, env)


def expand_expr(expr, scale: int = 1, order: int = 30, zfold=None,
                env: dict | None = None) -> dict:
    """Expand a standalone expression AST with the same semantics."""
    return _drive(expr, order, scale, zfold, dict(env or {}))
