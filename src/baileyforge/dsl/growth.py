"""Exponent-growth analysis for summation bodies.

Integer expressions lower to polynomials in several variables (``mpoly``),
and ``term_bounds`` bounds the lowest q-exponent of a summation term from
below and, for a term that never vanishes, from above. Along one ray a
polynomial is read as its coefficient list (``ray_coeffs``). Two users
share this:

* the evaluator turns the lower bound into a certified last index
  (``ray_floor``, ``last_index``): every term past it truncates to zero at
  the working order, so the sum stops there. A sum whose terms admit no
  such bound keeps the evaluator's empty-run rule;
* the validator reports a sum whose upper bound does not grow along a ray,
  since its terms then never clear the window (``grows_both_ways``,
  ``grows_forward``).

All arithmetic is exact (``Fraction``/``int``). Every polynomial variable is
nonnegative: the ray index t of a sum (the backward ray of a two-sided sum
substitutes n = -t with t >= 1), inner chain indices, range indices with a
nonnegative lower end, and the magnitude of a Hecke row's inner index.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..errors import PoleError, SeriesError, SpecError
from ..series import _exact
from .nodes import (
    Add,
    Div,
    IAdd,
    IBinom,
    IMul,
    INeg,
    IPow,
    ISub,
    IntLit,
    IVar,
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

# Polynomials in several variables are dicts {monomial: Fraction}; a monomial
# is a sorted tuple of (name, power) pairs and () is the constant monomial.
# RAY names the ray variable t, a name no identifier can spell.

RAY = "@t"


def mconst(v) -> dict:
    v = Fraction(v)
    return {(): v} if v else {}


def mvar(name: str) -> dict:
    return {((name, 1),): Fraction(1)}


RAY_T = mvar(RAY)


def _put(out: dict, m, c):
    s = out.get(m, 0) + c
    if s:
        out[m] = s
    else:
        out.pop(m, None)


def madd(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        _put(out, m, c)
    return out


def mneg(a: dict) -> dict:
    return {m: -c for m, c in a.items()}


def _mono_mul(m1, m2):
    if not m1 or not m2:
        return m1 or m2
    powers = dict(m1)
    for v, k in m2:
        powers[v] = powers.get(v, 0) + k
    return tuple(sorted(powers.items()))


def mmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            _put(out, _mono_mul(m1, m2), c1 * c2)
    return out


def mpow(a: dict, k: int) -> dict:
    out = mconst(1)
    for _ in range(k):
        out = mmul(out, a)
    return out


def mmin(a: dict, b: dict) -> dict:
    """Coefficientwise minimum: a lower bound of both where every variable is >= 0."""
    out: dict = {}
    for m in a.keys() | b.keys():
        _put(out, m, min(a.get(m, 0), b.get(m, 0)))
    return out


def _is_const(p: dict) -> bool:
    return p.keys() <= {()}


def relax(p: dict, name: str, bound: dict) -> dict:
    """Lower bound of p free of ``name``, for 0 <= name <= bound.

    bound must have nonnegative coefficients. A monomial holding ``name`` is
    dropped when its coefficient is positive (it is >= 0) and takes ``name``
    at ``bound`` when negative.
    """
    out: dict = {}
    for m, c in p.items():
        k = dict(m).get(name, 0)
        if not k:
            _put(out, m, c)
        elif c < 0:
            rest = {tuple(x for x in m if x[0] != name): c}
            for mm, cc in mmul(rest, mpow(bound, k)).items():
                _put(out, mm, cc)
    return out


def mpoly(e, sub: dict, env: dict):
    """Polynomial of an integer expression in several variables.

    sub maps identifier names to polynomials; identifiers found in env are
    constants; any other identifier makes the result None.
    """
    if isinstance(e, IntLit):
        return mconst(e.value)
    if isinstance(e, IVar):
        if e.name in sub:
            return sub[e.name]
        if e.name in env:
            return mconst(env[e.name])
        return None
    if isinstance(e, (IAdd, ISub, IMul)):
        a, b = mpoly(e.left, sub, env), mpoly(e.right, sub, env)
        if a is None or b is None:
            return None
        if isinstance(e, IAdd):
            return madd(a, b)
        if isinstance(e, ISub):
            return madd(a, mneg(b))
        return mmul(a, b)
    if isinstance(e, (INeg, IPow, IBinom)):
        a = mpoly(e.base if isinstance(e, IPow) else e.arg, sub, env)
        if a is None:
            return None
        if isinstance(e, INeg):
            return mneg(a)
        if isinstance(e, IPow):
            return mpow(a, e.power)
        return mmul(mmul(a, madd(a, mconst(-1))), mconst(Fraction(1, 2)))
    return None


def ray_coeffs(p):
    """Coefficients [c0, c1, ...] of a polynomial in the ray variable alone.

    The list has no trailing zeros ([0] for the zero polynomial). None when
    p is None or holds another variable.
    """
    if p is None:
        return None
    out = [Fraction(0)]
    for m, c in p.items():
        if len(m) > 1 or (m and m[0][0] != RAY):
            return None
        k = m[0][1] if m else 0
        out.extend([Fraction(0)] * (k + 1 - len(out)))
        out[k] = c
    return out


def ray_value(p, t):
    """The value at t of a polynomial given as ray coefficients."""
    return sum(c * t ** k for k, c in enumerate(p))


def grows_both_ways(p) -> bool:
    """True when ray coefficients p tend to +infinity in both ray directions."""
    return p is not None and len(p) == 3 and p[2] > 0


def grows_forward(p) -> bool:
    """True when ray coefficients p tend to +infinity as the ray variable grows."""
    return p is not None and len(p) in (2, 3) and p[-1] > 0


# -- product bases -----------------------------------------------------------


def base_triple(b, env: dict, scale: int):
    """Read a product base structurally as one monomial (coeff, zexp, qexp).

    Structural, not via evaluation: a base monomial above the working order
    would otherwise truncate to nothing and look like a malformed base. The
    coefficient is an int when integral, so cache keys hash as ints.
    """
    if isinstance(b, Rational):
        return _exact(b.value), 0, 0
    if isinstance(b, NumPoly):
        return int_eval(b.poly, env), 0, 0
    if isinstance(b, Neg):
        c, ze, qe = base_triple(b.arg, env, scale)
        return -c, ze, qe
    if isinstance(b, QPow):
        p = scale if b.exp is None else int_eval(b.exp, env)
        return 1, 0, p
    if isinstance(b, ZPow):
        p = 1 if b.exp is None else int_eval(b.exp, env)
        return 1, p, 0
    if isinstance(b, Mul):
        c1, z1, q1 = base_triple(b.left, env, scale)
        c2, z2, q2 = base_triple(b.right, env, scale)
        return _exact(c1 * c2), z1 + z2, q1 + q2
    if isinstance(b, Div):
        c1, z1, q1 = base_triple(b.left, env, scale)
        c2, z2, q2 = base_triple(b.right, env, scale)
        if not c2:
            raise PoleError("division by a zero base")
        return _exact(Fraction(c1) / c2), z1 - z2, q1 - q2
    if isinstance(b, Pow):
        p = int_eval(b.exp, env)
        c, ze, qe = base_triple(b.base, env, scale)
        if not c:
            if p < 0:
                raise PoleError("zero base raised to a negative power")
            return (1, 0, 0) if p == 0 else (0, 0, 0)
        return _exact(Fraction(c) ** p), ze * p, qe * p
    raise SpecError("product base must be a single monomial")


# -- lowest-exponent bounds of summation terms -------------------------------

_UNKNOWN = (None, None)


def _plus(a, b):
    return None if a is None or b is None else madd(a, b)


def _minus(a, b):
    return None if a is None or b is None else madd(a, mneg(b))


def _times(a, k):
    return None if a is None else mmul(a, mconst(k))


def _product_bounds(expr, sub: dict, env: dict, scale: int, zfold):
    # Only bases and steps fixed along the sum are certified: names bound by
    # the sum are taken out of env, so reading a base that uses one fails.
    fixed = {k: v for k, v in env.items() if k not in sub}
    try:
        step = int_eval(expr.step, fixed)
        triples = [base_triple(b, fixed, scale) for b in expr.bases]
    except (KeyError, SeriesError):
        return _UNKNOWN
    if step < 1:
        return _UNKNOWN
    # A length that moves with the sum counts every negative factor.
    length = None
    fixed = True
    if isinstance(expr, Poch) and expr.length is not None:
        lp = mpoly(expr.length, sub, env)
        fixed = lp is not None and _is_const(lp)
        if fixed:
            length = int(lp.get((), 0))
    lift = 0
    vanishes = False
    for c, ze, qe in triples:
        if not c:
            continue
        if ze and zfold is None:
            eff, folded = qe, None          # z stays formal: never 1 - q^0
        elif ze:
            eff = qe + ze * zfold[1]
            folded = -c if zfold[0] == -1 and ze % 2 else c
        else:
            eff, folded = qe, c
        k = 0
        while eff + k * step < 0 and (length is None or k < length):
            lift -= eff + k * step
            k += 1
        # A factor 1 - q^0 at some t < length makes the whole product vanish.
        if (folded == 1 and eff <= 0 and eff % step == 0
                and (length is None or -eff // step < length)):
            vanishes = True
    if vanishes:
        return mconst(-lift), None
    # A nonvanishing product of fixed length has lowest exponent exactly -lift.
    return mconst(-lift), (mconst(-lift) if fixed else {})


def term_bounds(expr, sub: dict, env: dict, scale: int, zfold):
    """(lower, upper) polynomial bounds on the lowest q-exponent of expr.

    sub maps bound index names to polynomials in nonnegative variables; env
    holds the fixed parameters; zfold is (sign, qexp) of a z binding, None
    for formal z. ``lower`` is None when no bound is proven. ``upper`` is
    None unless expr provably never vanishes: exactly then it may divide.
    The lowest exponent of a product is the sum of its factors' lowest
    exponents, and that of 1/D is minus that of D. A sum takes the
    coefficientwise minimum of its parts' lower bounds.
    """
    if isinstance(expr, Rational):
        return {}, ({} if expr.value else None)
    if isinstance(expr, (NumPoly, QBinom)):
        return {}, None
    if isinstance(expr, QPow):
        e = mconst(scale) if expr.exp is None else mpoly(expr.exp, sub, env)
        return e, e
    if isinstance(expr, ZPow):
        if zfold is None:
            return {}, {}
        e = mconst(1) if expr.exp is None else mpoly(expr.exp, sub, env)
        e = _times(e, zfold[1])
        return e, e
    if isinstance(expr, Neg):
        return term_bounds(expr.arg, sub, env, scale, zfold)
    if isinstance(expr, (Mul, Div)):
        alo, aup = term_bounds(expr.left, sub, env, scale, zfold)
        blo, bup = term_bounds(expr.right, sub, env, scale, zfold)
        if isinstance(expr, Mul):
            return _plus(alo, blo), _plus(aup, bup)
        return _minus(alo, bup), _minus(aup, blo)
    if isinstance(expr, (Add, Sub)):
        alo, _ = term_bounds(expr.left, sub, env, scale, zfold)
        blo, _ = term_bounds(expr.right, sub, env, scale, zfold)
        return (None if alo is None or blo is None else mmin(alo, blo)), None
    if isinstance(expr, Pow):
        e = mpoly(expr.exp, sub, env)
        if e is None:
            return _UNKNOWN
        if _is_const(e):
            k = int(e.get((), 0))
            if k == 0:
                return {}, {}
            lo, up = term_bounds(expr.base, sub, env, scale, zfold)
            return (_times(lo, k), _times(up, k)) if k > 0 else (_times(up, k), _times(lo, k))
        # A power that moves with an index needs the base's exact lowest
        # exponent, which a nonvanishing monomial has.
        lo, up = term_bounds(expr.base, sub, env, scale, zfold)
        if lo is None or lo != up:
            return _UNKNOWN
        x = mmul(e, lo)
        return x, x
    if isinstance(expr, (Poch, Theta)):
        return _product_bounds(expr, sub, env, scale, zfold)
    if isinstance(expr, RangeSum):
        lo_p = mpoly(expr.lo, sub, env)
        hi_p = mpoly(expr.hi, sub, env)
        if (lo_p is None or hi_p is None or not _is_const(lo_p) or lo_p.get((), 0) < 0
                or any(c < 0 for c in hi_p.values())):
            return _UNKNOWN
        inner = dict(sub)
        inner[expr.index] = mvar(expr.index)
        lo, _ = term_bounds(expr.body, inner, env, scale, zfold)
        return (None if lo is None else relax(lo, expr.index, hi_p)), None
    return _UNKNOWN


def ray_floor(body, subs, env: dict, scale: int, zfold, inner=(), bound=None):
    """Lower bound, as ray coefficients, on the lowest q-exponent of a sum's term.

    Each substitution in subs puts the ray variable (``RAY_T`` or its
    negative) and the ``inner`` names into the body, and the bound is the
    minimum over them; each inner name is relaxed over [0, bound]. None when
    no bound is proven.
    """
    floor = None
    for sub in subs:
        lo, _ = term_bounds(body, sub, env, scale, zfold)
        if lo is None:
            return None
        floor = lo if floor is None else mmin(floor, lo)
    for name in inner:
        floor = relax(floor, name, bound)
    return ray_coeffs(floor)


def last_index(p, start: int, order: int, cap: int):
    """Certified last index of a sum along a ray, or None.

    p(t), given as ray coefficients without trailing zeros, bounds the
    lowest q-exponent of the term at ray index t from below.
    The result is the largest t >= start with p(t) <= order (start - 1 when
    there is none): every later term truncates to zero. The scan runs until
    t is past Cauchy's bound on the roots of p', where p increases, and
    p(t) > order. None when p has degree 0 or a leading coefficient <= 0,
    and when the scan is not done by t = cap + 1: a lower bound at or below
    the order past the cap does not prove a term is nonzero there, so such a
    sum is left to the caller's empty-run rule.
    """
    if len(p) < 2 or p[-1] <= 0:
        return None
    dp = [k * c for k, c in enumerate(p)][1:]
    r = 1 + max((abs(c / dp[-1]) for c in dp[:-1]), default=-2)
    last = start - 1
    t = start
    while True:
        if ray_value(p, t) <= order:
            last = t
        elif t > r:
            return last
        if t > cap:
            return None
        t += 1


def dips_past(p, cap: int, order: int) -> bool:
    """True when p(t) <= order is seen at an integer t > cap.

    p is given as ray coefficients. It is checked at t = cap + 1 and, for a
    quadratic with positive leading coefficient, at the integers next to its
    vertex past the cap, where it is lowest; a dip of a higher degree
    further out is not looked for.
    """
    ts = {cap + 1}
    if len(p) == 3 and p[2] > 0:
        v = -p[1] / (2 * p[2])
        ts.update(t for t in (math.floor(v), math.ceil(v)) if t > cap)
    return any(ray_value(p, t) <= order for t in ts)
