"""Compile identity ASTs onto the exact truncated-series layer."""

from __future__ import annotations

from fractions import Fraction

from ..engine import _Budget, retruncate
from ..errors import PoleError, RegionError, SpecError, TerminationError
from ..series import (
    EvalContext,
    Monomial,
    QSeries,
    monomial,
    poch_finite,
    poch_infinite,
    qbinomial,
    zero,
)
from ..special import (
    AppellLerchSpec,
    HeckeSpec,
    appell_lerch_sum,
    geometric_inverse,
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
    """Evaluation frame: context, integer bindings, shared budget and cache."""

    __slots__ = ("ctx", "env", "budget", "cache")

    def __init__(self, ctx: EvalContext, env: dict, budget: _Budget, cache: dict):
        self.ctx = ctx
        self.env = env
        self.budget = budget
        self.cache = cache

    def bind(self, name: str, value: int) -> "_St":
        env = dict(self.env)
        env[name] = value
        return _St(self.ctx, env, self.budget, self.cache)

    def lifted(self, lift: int) -> "_St":
        if lift <= 0:
            return self
        ctx = EvalContext(self.ctx.scale, self.ctx.order + lift, self.ctx.z_interp)
        return _St(ctx, self.env, self.budget, self.cache)


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


def _factor(f, st: _St):
    """A product factor's series and, for a reusable product, its resolved key."""
    if isinstance(f, Poch):
        return _poch_series(st, f.bases, f.step, f.length)
    if isinstance(f, Theta):
        return _poch_series(st, f.bases, f.step, None)
    return _eval(f, st), None


def _combine(series_factors, head: QSeries, st: "_St") -> QSeries:
    out = head
    for s, p, fkey in series_factors:
        ck = None if fkey is None else ("pw", st.ctx.order, fkey, p)
        piece = st.cache.get(ck) if ck is not None else None
        if piece is None:
            piece = s
            for _ in range(abs(p) - 1):
                piece = piece * s
            if p < 0:
                piece = piece.invert()
            if ck is not None:
                st.cache[ck] = piece
        out = out * piece
    return out


def _product(node, st: _St) -> QSeries:
    box = [Fraction(1)]
    raw: list = []
    _flatten(node, 1, st, box, raw)
    scalar = box[0]
    # Fuse plain q- and z-powers into one exact monomial so a large positive
    # exponent truncates together with its partners instead of one at a time.
    fused_z = 0
    fused_q = 0
    factors: list = []
    for f, p in raw:
        if isinstance(f, QPow):
            fused_q += p * (st.ctx.scale if f.exp is None else int_eval(f.exp, st.env))
        elif isinstance(f, ZPow):
            fused_z += p * (1 if f.exp is None else int_eval(f.exp, st.env))
        else:
            factors.append((f, p))
    zi = st.ctx.z_interp
    fused_min = fused_q + (fused_z * zi.qexp if zi is not None else 0)
    lift = max(0, -fused_min)
    if not factors:
        return monomial(st.ctx, scalar, fused_z, fused_q)
    evaluated = []
    saw_zero = False
    val = fused_min
    for f, p in factors:
        s, fkey = _factor(f, st)
        if s.is_zero():
            if p >= 0:
                saw_zero = True
                evaluated.append((s, p, None))
                continue
            s = _divisor_above(f, st)
        # The inverse of a factor of valuation v > 0 is exact only up to 2v
        # below the working order, so a divisor lifts by twice its share.
        contrib = p * s.min_exponent()
        val += contrib
        lift += max(0, -contrib * (2 if p < 0 else 1))
        evaluated.append((s, p, fkey))
    # Valuations add, so a product of nonzero factors above the order is zero.
    if not saw_zero and val > st.ctx.order:
        return zero(st.ctx)
    if lift == 0:
        if saw_zero:
            return zero(st.ctx)
        head = monomial(st.ctx, scalar, fused_z, fused_q)
        return _combine(evaluated, head, st)
    # Negative minimal exponents would eat into the window during the
    # multiplications, so redo every factor above the order and pull back.
    wst = st.lifted(lift)
    evaluated = []
    for f, p in factors:
        s, fkey = _factor(f, wst)
        evaluated.append((s, p, fkey))
    for s, p, _ in evaluated:
        if p < 0 and s.is_zero():
            raise PoleError("division by a vanishing factor")
    head = monomial(wst.ctx, scalar, fused_z, fused_q)
    return retruncate(_combine(evaluated, head, wst), st.ctx)


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


# -- pochhammer lowering -----------------------------------------------------


def _poch_series(st: _St, bases, step_expr, length_expr):
    """A resolved Pochhammer product and its key (base triples, step, length)."""
    step = int_eval(step_expr, st.env)
    if step < 1:
        raise SpecError("product step must be >= 1")
    length = None
    if length_expr is not None:
        length = int_eval(length_expr, st.env)
        if length < 0:
            raise SpecError("product length must be >= 0")
    triples = tuple(base_triple(b, st.env, st.ctx.scale) for b in bases)
    # Nested sums hit the same resolved product many times; scale and z fold
    # are fixed per evaluation, so the resolved data plus order identify it.
    key = (triples, step, length)
    memo_key = ("poch", st.ctx.order, key)
    hit = st.cache.get(memo_key)
    if hit is not None:
        return hit, key
    lift = 0
    for c, ze, qe in triples:
        if ze == 0 or st.ctx.z_interp is not None:
            eff = qe if ze == 0 else qe + ze * st.ctx.z_interp.qexp
            t = 0
            while eff + t * step < 0 and (length is None or t < length):
                lift += -(eff + t * step)
                t += 1
    wctx = st.lifted(lift).ctx
    if length is None:
        out = poch_infinite(wctx, triples, step, strict=False)
    else:
        out = poch_finite(wctx, triples, step, length)
    if lift:
        out = retruncate(out, st.ctx)
    st.cache[memo_key] = out
    return out, key


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


def _two_sided(st: _St, emit, body, index: str, whole=True) -> QSeries:
    """A sum over index in Z whose terms are bounded below as body's are."""
    return (_one_sided(st, emit, 0, 1, _last(st, body, 0, ({index: RAY_T},), whole=whole))
            + _one_sided(st, emit, -1, -1,
                         _last(st, body, 1, ({index: growth.mneg(RAY_T)},), whole=whole)))


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


def _apply_den(s: QSeries, dexp: int, ctx: EvalContext) -> QSeries:
    if dexp > 0:
        return s * geometric_inverse(ctx, 1, dexp)
    if dexp == 0:
        return s * Fraction(1, 2)
    return s * monomial(ctx, 1, 0, -dexp) * geometric_inverse(ctx, 1, -dexp)


def _den_join(body_s: QSeries, dexp: int, st: _St, rebuild) -> QSeries:
    """Multiply a term by 1/(1+q^dexp) with the exact nonpositive rewrites."""
    if body_s.is_zero():
        return body_s
    m = body_s.min_exponent()
    if m >= 0:
        return _apply_den(body_s, dexp, st.ctx)
    # A negative minimum in the term eats into the window against the
    # geometric factor, so rebuild the term above the order first.
    wst = st.lifted(-m)
    return retruncate(_apply_den(rebuild(wst), dexp, wst.ctx), st.ctx)


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
        spec = AppellLerchSpec(alt, zpow, quad, lin, 1, int(dc), int(ds))
    except ValueError:
        return None
    return box[0], int(cst), spec


def _appell(node: Appell, st: _St) -> QSeries:
    match = _match_appell(node, st)
    if match is not None:
        sc, cst, spec = match
        s = appell_lerch_sum(st.ctx, spec)
        return s * monomial(st.ctx, sc, 0, cst)

    def emit(n):
        inner = st.bind(node.index, n)
        d = int_eval(node.den, inner.env)
        return _den_join(_eval(node.num, inner), d, inner,
                         lambda w: _eval(node.num, w.bind(node.index, n)))

    # 1/(1 + q^d) has lowest exponent max(0, -d), so the numerator bounds the
    # term from below but is not the whole term.
    return _two_sided(st, emit, node.num, node.index, whole=False)


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
                body = _den_join(body, d, inner,
                                 lambda w, nn=n, jj=j: _eval(
                                     node.body, w.bind(node.outer, nn).bind(node.inner, jj)))
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
    if isinstance(node, (Mul, Div, Pow, Neg)):
        return _product(node, st)
    if isinstance(node, (Poch, Theta)):
        return _factor(node, st)[0]
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
    st = _St(ctx, env, _Budget(max_terms), {})
    expr = spec.lhs if side == "lhs" else spec.rhs
    try:
        return _eval(expr, st)
    except KeyError as e:
        raise SpecError(f"unbound identifier {e.args[0]!r}") from e


def evaluate_expr(expr, scale: int = 1, order: int = 50, z_interp: Monomial | None = None,
                  env: dict | None = None, max_terms: int | None = None) -> QSeries:
    """Evaluate a bare expression node to a truncated series."""
    ctx = EvalContext(scale, order, z_interp)
    st = _St(ctx, dict(env or {}), _Budget(max_terms), {})
    try:
        return _eval(expr, st)
    except KeyError as e:
        raise SpecError(f"unbound identifier {e.args[0]!r}") from e
