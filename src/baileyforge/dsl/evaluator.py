"""Compile identity ASTs onto the exact truncated-series layer."""

from __future__ import annotations

from fractions import Fraction

from ..engine import _Budget
from ..errors import PoleError, RegionError, SpecError, TerminationError
from ..series import (
    EvalContext,
    Monomial,
    QSeries,
    binomials,
    monomial,
    qbinomial,
    retruncate,
    times_binomials,
    zero,
)
from ..special import (
    AppellLerchSpec,
    HeckeSpec,
    appell_lerch_sum,
    hard_cap,
    hecke_sum,
)
from . import growth
from .growth import RAY_T, base_triple
from .nodes import (
    Add,
    Appell,
    BilateralSum,
    ChainSum,
    Div,
    Hecke,
    IdentitySpec,
    INeg,
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

_EMPTY_RUN = 8


class _St:
    """Evaluation frame: context, integer bindings and shared budget."""

    __slots__ = ("ctx", "env", "budget")

    def __init__(self, ctx: EvalContext, env: dict, budget: _Budget):
        self.ctx = ctx
        self.env = env
        self.budget = budget

    def bind(self, name: str, value: int) -> "_St":
        env = dict(self.env)
        env[name] = value
        return _St(self.ctx, env, self.budget)

    def lifted(self, lift: int) -> "_St":
        if lift <= 0:
            return self
        ctx = EvalContext(self.ctx.scale, self.ctx.order + lift, self.ctx.z_interp)
        return _St(ctx, self.env, self.budget)


# -- products ----------------------------------------------------------------


def _flatten(node, power: int, st: _St, box: list, factors: list):
    if isinstance(node, Mul):
        _flatten(node.left, power, st, box, factors)
        _flatten(node.right, power, st, box, factors)
    elif isinstance(node, Div):
        _flatten(node.left, power, st, box, factors)
        _flatten(node.right, -power, st, box, factors)
    elif isinstance(node, Neg):
        if power % 2:
            box[0] = -box[0]
        _flatten(node.arg, power, st, box, factors)
    elif isinstance(node, Rational):
        if not node.value and power < 0:
            raise PoleError("division by zero")
        box[0] = box[0] * Fraction(node.value) ** power
    elif isinstance(node, Pow):
        e = int_eval(node.exp, st.env)
        if e:
            _flatten(node.base, power * e, st, box, factors)
    else:
        factors.append((node, power))


def _combine(series_factors, head: QSeries) -> QSeries:
    out = head
    for s, p in series_factors:
        piece = s ** abs(p)
        if p < 0:
            piece = piece.invert()
        out = out * piece
    return out


def _product(node, st: _St) -> QSeries:
    """A product of factors to integer powers, lowered onto the series layer.

    Plain q- and z-powers, scalars and the lead monomials of Pochhammer and
    theta factors (``binomials``) fuse into one exact head monomial. General
    factors (sums, qbinom, num, ...) are series multiplied into the head, and
    general divisors are inverted. The binomial factors of the Pochhammer and
    theta products are then applied to that product in place: they have
    valuation 0 and are exact at any order, so only the head and the general
    factors decide the early exit above the order and the working-order lift.
    """
    box = [1]
    raw: list = []
    _flatten(node, 1, st, box, raw)
    scalar = box[0]
    # Fuse plain q- and z-powers into one exact monomial so a large positive
    # exponent truncates together with its partners instead of one at a time.
    fused_z = 0
    fused_q = 0
    general: list = []
    num: list = []
    den: list = []
    vanishes = False
    for f, p in raw:
        if isinstance(f, QPow):
            fused_q += p * (st.ctx.scale if f.exp is None else int_eval(f.exp, st.env))
        elif isinstance(f, ZPow):
            fused_z += p * (1 if f.exp is None else int_eval(f.exp, st.env))
        elif isinstance(f, (Poch, Theta)):
            (c, ze, qe), runs = binomials(st.ctx, *_poch_args(f, st))
            if not c:
                if p < 0:
                    raise PoleError("division by a vanishing factor")
                vanishes = True
                continue
            if c != 1:
                scalar *= Fraction(c) ** p
            fused_z += p * ze
            fused_q += p * qe
            (num if p > 0 else den).extend(runs * abs(p))
        else:
            general.append((f, p))
    zi = st.ctx.z_interp
    fused_min = fused_q + (fused_z * zi.qexp if zi is not None else 0)
    if not general and not num and not den and not vanishes:
        return monomial(st.ctx, scalar, fused_z, fused_q)
    # The head is exact at any order; it lifts only against general factors.
    lift = max(0, -fused_min) if general else 0
    evaluated = []
    saw_zero = vanishes
    val = fused_min
    for f, p in general:
        s = _eval(f, st)
        if s.is_zero():
            if p >= 0:
                saw_zero = True
                evaluated.append((s, p))
                continue
            s = _divisor_above(f, st)
        # The inverse of a factor of valuation v > 0 is exact only up to 2v
        # below the working order, so a divisor lifts by twice its share.
        contrib = p * s.min_exponent()
        val += contrib
        lift += max(0, -contrib * (2 if p < 0 else 1))
        evaluated.append((s, p))
    # Valuations add, so a product of nonzero factors above the order is zero.
    if not saw_zero and val > st.ctx.order:
        return zero(st.ctx)
    wst = st
    if lift:
        # Negative minimal exponents would eat into the window during the
        # multiplications, so redo every general factor above the order.
        wst = st.lifted(lift)
        evaluated = [(_eval(f, wst), p) for f, p in general]
        for s, p in evaluated:
            if p < 0 and s.is_zero():
                raise PoleError("division by a vanishing factor")
    if vanishes or (saw_zero and not lift):
        return zero(st.ctx)
    out = _combine(evaluated, monomial(wst.ctx, scalar, fused_z, fused_q))
    return retruncate(times_binomials(out, num, den), st.ctx)


def _divisor_above(f, st: _St) -> QSeries:
    """A divisor that truncates to zero, evaluated at a working order it survives.

    Its valuation may lie above the order. Working orders rise by doubling
    lifts up to hard_cap; a divisor still zero there is a pole.
    """
    top = hard_cap(st.ctx) - st.ctx.order
    lift = 1
    while True:
        s = _eval(f, st.lifted(lift))
        if not s.is_zero():
            return s
        if lift == top:
            raise PoleError("division by a vanishing factor")
        lift = min(2 * lift, top)


def _poch_args(f, st: _St):
    """A Pochhammer or theta factor's base triples, step and length (None: infinite)."""
    step = int_eval(f.step, st.env)
    if step < 1:
        raise SpecError("product step must be >= 1")
    length = None
    if isinstance(f, Poch) and f.length is not None:
        length = int_eval(f.length, st.env)
        if length < 0:
            raise SpecError("product length must be >= 0")
    return tuple(base_triple(b, st.env, st.ctx.scale) for b in f.bases), step, length


# -- summation loops ---------------------------------------------------------


def _last(st: _St, body, start: int, subs, inner=(), bound=None, whole=True):
    """Certified last ray index of a sum, or None.

    The sum's term at ray index t is bounded below as body is under the
    substitutions subs, with ``inner`` names relaxed over [0, bound]
    (``growth.ray_floor``). When body is the whole term (``whole``), there
    is one substitution and no inner name, and its bound is exact (lower ==
    upper), every term is nonzero with exactly that lowest exponent; a
    bound at or below the order past hard_cap then proves a term there, and
    the result is an index past hard_cap.
    """
    zi = st.ctx.z_interp
    zfold = None if zi is None else (zi.sign, zi.qexp)
    floor = growth.ray_floor(body, subs, st.env, st.ctx.scale, zfold, inner, bound)
    if floor is None:
        return None
    cap = hard_cap(st.ctx)
    last = growth.last_index(floor, start, st.ctx.order, cap)
    if last is None and whole and not inner and len(subs) == 1:
        lower, upper = growth.term_bounds(body, subs[0], st.env, st.ctx.scale, zfold)
        if lower == upper and growth.dips_past(floor, cap, st.ctx.order):
            return cap + 1
    return last


def _one_sided(st: _St, emit, start: int, direction: int, last=None) -> QSeries:
    """Sum emit(n) for n = start, start + direction, ... along one ray.

    A certified last index (``_last``) stops the sum at |n| = last, since
    every later term truncates to zero; one past hard_cap raises at once. A
    sum without one keeps the empty-run rule: it stops after _EMPTY_RUN zero
    terms in a row once |n| >= 2 * _EMPTY_RUN, and raises when |n| passes
    hard_cap first. Each term spends one unit of the budget.
    """
    out = zero(st.ctx)
    cap = hard_cap(st.ctx)
    if last is not None:
        if last > cap:
            raise TerminationError("sum exceeded its index cap without settling")
        for t in range(abs(start), last + 1):
            st.budget.spend()
            out = out + emit(direction * t)
        return out
    empties = 0
    n = start
    while True:
        if abs(n) > cap:
            raise TerminationError("sum exceeded its index cap without settling")
        st.budget.spend()
        term = emit(n)
        out = out + term
        if term.is_zero():
            empties += 1
            if empties >= _EMPTY_RUN and abs(n) >= 2 * _EMPTY_RUN:
                break
        else:
            empties = 0
        n += direction
    return out


def _two_sided(st: _St, emit, body, index: str, den=None) -> QSeries:
    """A sum over index in Z whose term is body, or body / (1 + q^den)."""
    out = zero(st.ctx)
    for start, ray in ((0, RAY_T), (1, growth.mneg(RAY_T))):
        sub = {index: ray}
        term, whole = body, True
        if den is not None:
            term, whole = _den_term(body, den, sub, st.env, start)
        direction = -1 if start else 1
        out = out + _one_sided(st, emit, -start, direction,
                               _last(st, term, start, (sub,), whole=whole))
    return out


def _den_term(body, den, sub: dict, env: dict, start: int):
    """A node bounding body / (1 + q^den) along a ray, and whether it is the whole term.

    1/(1 + q^d) has lowest exponent max(0, -d): 0 where d >= 0 and -d where
    d <= 0. Where den keeps one sign on the whole ray, body or body * q^(-den)
    has the term's lowest exponent; elsewhere body only bounds it from below.
    """
    d = _ray(den, sub, env)
    if d is not None and len(d) <= 2:
        slope = d[1] if len(d) > 1 else 0
        first = d[0] + slope * start
        if slope >= 0 and first >= 0:
            return body, True
        if slope <= 0 and first <= 0:
            return Mul(left=body, right=QPow(exp=INeg(arg=den))), True
    return body, False


def _chain_sum(node: ChainSum, st: _St) -> QSeries:
    idxs = node.indices

    def level(i: int, bound: int, frame: _St) -> QSeries:
        if i == len(idxs):
            st.budget.spend()
            return _eval(node.body, frame)
        acc = zero(st.ctx)
        for v in range(0, bound + 1):
            acc = acc + level(i + 1, v, frame.bind(idxs[i], v))
        return acc

    # Inner indices run over the box 0 <= n_i <= n_1.
    sub = {i: growth.mvar(i) for i in idxs[1:]}
    sub[idxs[0]] = RAY_T
    last = _last(st, node.body, 0, (sub,), idxs[1:], RAY_T)
    return _one_sided(st, lambda v: level(1, v, st.bind(idxs[0], v)), 0, 1, last)


def _den_join(s: QSeries, dexp: int) -> QSeries:
    """s / (1 + q^dexp), divided in place whatever the valuation of s.

    1/(1 + q^0) is 1/2, and for dexp < 0, 1/(1 + q^dexp) = q^(-dexp) / (1 + q^(-dexp)).
    """
    if dexp == 0:
        return s * Fraction(1, 2)
    return times_binomials(s, (), ((-1, 0, abs(dexp), 1, 1),), (1, 0, max(0, -dexp)))


# -- special-series recognition ----------------------------------------------


def _pieces(node, box: list, out: list) -> bool:
    if isinstance(node, Mul):
        return _pieces(node.left, box, out) and _pieces(node.right, box, out)
    if isinstance(node, Neg):
        box[0] = -box[0]
        return _pieces(node.arg, box, out)
    if isinstance(node, Rational):
        box[0] = box[0] * Fraction(node.value)
        return True
    if isinstance(node, (Pow, QPow, ZPow)):
        out.append(node)
        return True
    return False


def _ray(e, sub: dict, env: dict):
    """Ray coefficients of an integer expression under sub, or None."""
    return growth.ray_coeffs(growth.mpoly(e, sub, env))


def _match_appell(node: Appell, st: _St):
    box = [Fraction(1)]
    pieces: list = []
    if not _pieces(node.num, box, pieces):
        return None
    sub = {node.index: RAY_T}
    alt = 0
    zpow = 0
    qp: dict = {}
    for p in pieces:
        if isinstance(p, Pow):
            if not (isinstance(p.base, Neg) and isinstance(p.base.arg, Rational)
                    and p.base.arg.value == 1):
                return None
            ep = _ray(p.exp, sub, st.env)
            if ep is None or len(ep) > 2 or (len(ep) > 1 and ep[1].denominator != 1):
                return None
            c1 = int(ep[1]) if len(ep) > 1 else 0
            c0 = ep[0]
            if c0.denominator != 1:
                return None
            if (c1 % 2) == 1:
                alt ^= 1
            if int(c0) % 2:
                box[0] = -box[0]
        elif isinstance(p, ZPow):
            # The matched form has only z^(zpow * n); a bare z is z^1.
            ep = None if p.exp is None else _ray(p.exp, sub, st.env)
            if ep is None or len(ep) > 2 or ep[0] != 0:
                return None
            zpow += int(ep[1]) if len(ep) > 1 else 0
        elif isinstance(p, QPow):
            ep = growth.mconst(st.ctx.scale) if p.exp is None else growth.mpoly(p.exp, sub, st.env)
            if ep is None:
                return None
            qp = growth.madd(qp, ep)
        else:
            return None
    qp = growth.ray_coeffs(qp)
    dp = _ray(node.den, sub, st.env)
    if qp is None or len(qp) > 3 or dp is None or len(dp) > 2:
        return None
    quad = qp[2] if len(qp) > 2 else Fraction(0)
    lin = qp[1] if len(qp) > 1 else Fraction(0)
    cst = qp[0]
    if cst.denominator != 1:
        return None
    dc = dp[1] if len(dp) > 1 else Fraction(0)
    ds = dp[0]
    if dc.denominator != 1 or ds.denominator != 1:
        return None
    try:
        # The constant exponent stays in the spec, so the window check sees it.
        spec = AppellLerchSpec(alt, zpow, quad, lin, 1, int(dc), int(ds), int(cst))
    except ValueError:
        return None
    return box[0], spec


def _appell(node: Appell, st: _St) -> QSeries:
    match = _match_appell(node, st)
    if match is not None:
        sc, spec = match
        s = appell_lerch_sum(st.ctx, spec)
        return s if sc == 1 else s * sc

    def emit(n):
        inner = st.bind(node.index, n)
        d = int_eval(node.den, inner.env)
        return _den_join(_eval(node.num, inner), d)

    return _two_sided(st, emit, node.num, node.index, node.den)


def _match_hecke(node: Hecke, st: _St):
    box = [Fraction(1)]
    pieces: list = []
    if not _pieces(node.body, box, pieces):
        return None
    n_, j_ = node.outer, node.inner
    nsub = {n_: RAY_T, j_: growth.mconst(0)}
    jsub = {n_: growth.mconst(0), j_: RAY_T}
    alt = 0
    zpow = 0
    pn: dict = {}
    pj: dict = {}
    for p in pieces:
        if isinstance(p, Pow):
            if not (isinstance(p.base, Neg) and isinstance(p.base.arg, Rational)
                    and p.base.arg.value == 1):
                return None
            en = _ray(p.exp, nsub, st.env)
            ej = _ray(p.exp, jsub, st.env)
            if en is None or ej is None or len(ej) > 2 or en not in ([0], ej[:1]):
                return None
            if len(ej) > 1 and ej[1] == 1 and ej[0] == 0:
                alt ^= 1
            elif ej != [0]:
                return None
        elif isinstance(p, ZPow):
            # The matched form has only z^(zpow * j); a bare z is z^1.
            if p.exp is None:
                return None
            ep = _ray(p.exp, jsub, st.env)
            en = _ray(p.exp, nsub, st.env)
            if ep is None or en != [0] or len(ep) > 2 or ep[0] != 0:
                return None
            zpow += int(ep[1]) if len(ep) > 1 else 0
        elif isinstance(p, QPow):
            if p.exp is None:
                pn = growth.madd(pn, growth.mconst(st.ctx.scale))
                continue
            a = growth.mpoly(p.exp, nsub, st.env)
            b = growth.mpoly(p.exp, jsub, st.env)
            if a is None or b is None:
                return None
            pn = growth.madd(pn, a)
            # b's constant term is already counted inside a.
            pj = growth.madd(pj, {m: c for m, c in b.items() if m})
        else:
            return None
    pn = growth.ray_coeffs(pn)
    pj = growth.ray_coeffs(pj)
    if pn is None or pj is None or len(pn) > 3 or len(pj) > 3:
        return None
    # Reject mixed n*j terms by direct evaluation at witness points.
    for nn, jj in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 2)):
        envp = dict(st.env)
        envp[n_] = nn
        envp[j_] = jj
        total = Fraction(0)
        for p in pieces:
            if isinstance(p, QPow):
                total += st.ctx.scale if p.exp is None else int_eval(p.exp, envp)
        expect = growth.ray_value(pn, nn) + growth.ray_value(pj, jj)
        if total != expect:
            return None
    a0 = pn[0]
    a1 = pn[1] if len(pn) > 1 else Fraction(0)
    a2 = pn[2] if len(pn) > 2 else Fraction(0)
    b1 = pj[1] if len(pj) > 1 else Fraction(0)
    b2 = pj[2] if len(pj) > 2 else Fraction(0)
    den = None
    if node.den is not None:
        dj = _ray(node.den, jsub, st.env)
        dn = _ray(node.den, nsub, st.env)
        if dj is None or dn is None or len(dj) > 2 or dn != dj[:1]:
            return None
        dc = dj[1] if len(dj) > 1 else Fraction(0)
        if dc.denominator != 1 or dj[0].denominator != 1:
            return None
        den = (1, int(dc), int(dj[0]))
    try:
        spec = HeckeSpec(node.region, alt, zpow, (a2, a1, a0), (b2, b1), den)
    except ValueError:
        return None
    return box[0], spec


def _hecke(node: Hecke, st: _St) -> QSeries:
    match = _match_hecke(node, st)
    if match is not None:
        sc, spec = match
        try:
            return hecke_sum(st.ctx, spec) * Fraction(sc)
        except RegionError:
            pass

    def emit_row(n):
        m = n // 2 if node.region == "half" else n
        row = zero(st.ctx)
        for j in range(-m, m + 1):
            inner = st.bind(node.outer, n).bind(node.inner, j)
            body = _eval(node.body, inner)
            if node.den is not None:
                d = int_eval(node.den, inner.env)
                body = _den_join(body, d)
            row = row + body
        return row

    # Row n sums j over [-n, n] (full) or [-n/2, n/2] (half): bound the body
    # at j = +j' and j = -j' with j' relaxed over that half-width. A factor
    # 1/(1 + q^d) only raises the lowest exponent.
    width = RAY_T if node.region != "half" else growth.mmul(RAY_T, growth.mconst(Fraction(1, 2)))
    jv = growth.mvar(node.inner)
    subs = ({node.outer: RAY_T, node.inner: jv}, {node.outer: RAY_T, node.inner: growth.mneg(jv)})
    return _one_sided(st, emit_row, 0, 1, _last(st, node.body, 0, subs, (node.inner,), width))


# -- dispatch ----------------------------------------------------------------


def _eval(node, st: _St) -> QSeries:
    if isinstance(node, Rational):
        return monomial(st.ctx, node.value)
    if isinstance(node, QPow):
        e = st.ctx.scale if node.exp is None else int_eval(node.exp, st.env)
        return monomial(st.ctx, 1, 0, e)
    if isinstance(node, ZPow):
        e = 1 if node.exp is None else int_eval(node.exp, st.env)
        return monomial(st.ctx, 1, e, 0)
    if isinstance(node, NumPoly):
        return monomial(st.ctx, int_eval(node.poly, st.env))
    if isinstance(node, Add):
        return _eval(node.left, st) + _eval(node.right, st)
    if isinstance(node, Sub):
        return _eval(node.left, st) - _eval(node.right, st)
    if isinstance(node, (Mul, Div, Pow, Neg, Poch, Theta)):
        return _product(node, st)
    if isinstance(node, QBinom):
        return qbinomial(st.ctx, int_eval(node.top, st.env), int_eval(node.bottom, st.env))
    if isinstance(node, ChainSum):
        return _chain_sum(node, st)
    if isinstance(node, BilateralSum):
        def emit(n):
            return _eval(node.body, st.bind(node.index, n))
        return _two_sided(st, emit, node.body, node.index)
    if isinstance(node, RangeSum):
        lo = int_eval(node.lo, st.env)
        hi = int_eval(node.hi, st.env)
        acc = zero(st.ctx)
        for v in range(lo, hi + 1):
            acc = acc + _eval(node.body, st.bind(node.index, v))
        return acc
    if isinstance(node, Appell):
        return _appell(node, st)
    if isinstance(node, Hecke):
        return _hecke(node, st)
    raise SpecError(f"unsupported expression node {type(node).__name__}")


# -- entry points ------------------------------------------------------------


def bindings_env(spec: IdentitySpec, bindings: dict | None) -> dict:
    """Resolve and range-check parameter bindings for a spec."""
    env: dict = {}
    given = dict(bindings or {})
    for p in spec.params:
        if p.name not in given:
            raise SpecError(f"missing binding for parameter {p.name!r}")
        v = int(given.pop(p.name))
        hi = p.hi if isinstance(p.hi, int) else env[p.hi]
        if not (p.lo <= v <= hi):
            raise SpecError(f"parameter {p.name}={v} outside {p.lo}..{hi}")
        env[p.name] = v
    if given:
        stray = ", ".join(sorted(given))
        raise SpecError(f"unknown parameter bindings: {stray}")
    return env


def context_for(spec: IdentitySpec, env: dict, order: int | None = None) -> EvalContext:
    """Build the evaluation context a spec calls for."""
    z_interp = None
    if spec.zbind is not None:
        z_interp = Monomial(spec.zbind.sign, int_eval(spec.zbind.qexp, env))
    return EvalContext(spec.scale, spec.order if order is None else order, z_interp)


def evaluate(spec: IdentitySpec, bindings: dict | None = None, side: str = "lhs",
             order: int | None = None, max_terms: int | None = None) -> QSeries:
    """Evaluate one side of an identity spec to a truncated series."""
    if side not in ("lhs", "rhs"):
        raise SpecError("side must be 'lhs' or 'rhs'")
    env = bindings_env(spec, bindings)
    ctx = context_for(spec, env, order)
    st = _St(ctx, env, _Budget(max_terms))
    expr = spec.lhs if side == "lhs" else spec.rhs
    try:
        return _eval(expr, st)
    except KeyError as e:
        raise SpecError(f"unbound identifier {e.args[0]!r}") from e


def evaluate_expr(expr, scale: int = 1, order: int = 50, z_interp: Monomial | None = None,
                  env: dict | None = None, max_terms: int | None = None) -> QSeries:
    """Evaluate a bare expression node to a truncated series."""
    ctx = EvalContext(scale, order, z_interp)
    st = _St(ctx, dict(env or {}), _Budget(max_terms))
    try:
        return _eval(expr, st)
    except KeyError as e:
        raise SpecError(f"unbound identifier {e.args[0]!r}") from e
