"""Exponent-growth analysis for summation bodies.

Integer expressions lower to polynomials in several variables (``mpoly``),
and ``term_bounds`` bounds the lowest q-exponent of a summation term from
below and, for a term that never vanishes, from above. Along one ray a
polynomial is read as its coefficient list (``ray_coeffs``). Two users
share this:

* the evaluator turns the lower bound into a certified last index
  (``ray_floor``, ``last_index``): every term past it truncates to zero at
  the working order, so the sum stops there. A sum whose terms admit no
  such bound keeps the evaluator's empty-run rule. A range sum skips the
  terms above the order and visits the others as the bound rises
  (``free_floor``, ``range_values``);
* the validator reports a sum whose upper bound does not grow along a ray,
  since its terms then never clear the window (``grows_both_ways``,
  ``grows_forward``).

All arithmetic is exact (``Fraction``/``int``). Every polynomial variable is
nonnegative: the ray index t of a sum (the backward ray of a two-sided sum
substitutes n = -t with t >= 1), inner chain indices, range indices with a
nonnegative lower end, the magnitude of a Hecke row's inner index, and in a
``free_floor`` every name, which ``floor_along`` checks at its values.
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
    int_closure,
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
    v = 0
    for c in reversed(p):
        v = v * t + c
    return v


def grows_both_ways(p) -> bool:
    """True when ray coefficients p tend to +infinity in both ray directions.

    That is when p has even positive degree and a positive leading coefficient.
    """
    return p is not None and len(p) % 2 == 1 and len(p) > 1 and p[-1] > 0


def grows_forward(p) -> bool:
    """True when ray coefficients p tend to +infinity as the ray variable grows."""
    return p is not None and len(p) > 1 and p[-1] > 0


# -- product bases -----------------------------------------------------------


def base_closure(b, scale: int):
    """A product base as a closure from the bindings to one monomial (coeff, zexp, qexp).

    The base is read structurally, not via evaluation: a base monomial above
    the working order would otherwise truncate to nothing and look like a
    malformed base. The coefficient is an int when integral, so cache keys
    hash as ints. A malformed base raises when the closure runs.
    """
    if isinstance(b, Rational):
        t = (_exact(b.value), 0, 0)
        return lambda env: t
    if isinstance(b, NumPoly):
        f = int_closure(b.poly)
        return lambda env: (f(env), 0, 0)
    if isinstance(b, (QPow, ZPow)):
        if b.exp is None:
            t = (1, 0, scale) if isinstance(b, QPow) else (1, 1, 0)
            return lambda env: t
        f = int_closure(b.exp)
        if isinstance(b, QPow):
            return lambda env: (1, 0, f(env))
        return lambda env: (1, f(env), 0)
    if isinstance(b, Neg):
        f = base_closure(b.arg, scale)

        def neg(env):
            c, ze, qe = f(env)
            return -c, ze, qe

        return neg
    if isinstance(b, Mul):
        f, g = base_closure(b.left, scale), base_closure(b.right, scale)

        def mul(env):
            (c1, z1, q1), (c2, z2, q2) = f(env), g(env)
            return _exact(c1 * c2), z1 + z2, q1 + q2

        return mul
    if isinstance(b, Div):
        f, g = base_closure(b.left, scale), base_closure(b.right, scale)

        def div(env):
            (c1, z1, q1), (c2, z2, q2) = f(env), g(env)
            if not c2:
                raise PoleError("division by a zero base")
            return _exact(Fraction(c1) / c2), z1 - z2, q1 - q2

        return div
    if isinstance(b, Pow):
        f, g = int_closure(b.exp), base_closure(b.base, scale)

        def power(env):
            p = f(env)
            c, ze, qe = g(env)
            if not c:
                if p < 0:
                    raise PoleError("zero base raised to a negative power")
                return (1, 0, 0) if p == 0 else (0, 0, 0)
            return _exact(Fraction(c) ** p), ze * p, qe * p

        return power

    def malformed(env):
        raise SpecError("product base must be a single monomial")

    return malformed


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
        triples = [base_closure(b, scale)(fixed) for b in expr.bases]
    except KeyError:
        return _moving_bounds(expr, sub, env, scale, zfold)
    except SeriesError:
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


def _moving_bounds(expr, sub: dict, env: dict, scale: int, zfold):
    # A length-one product 1 - b whose base moves with the sum. If b has
    # exponent e, the factor has lowest exponent min(0, e), exact where e
    # keeps one sign; it vanishes only where e = 0 and b = 1.
    if not isinstance(expr, Poch) or len(expr.bases) != 1 or expr.length is None:
        return _UNKNOWN
    b = expr.bases[0]
    lo, up = term_bounds(b, sub, env, scale, zfold)
    if lo is None or mpoly(expr.length, sub, env) != mconst(1):
        return _UNKNOWN
    rises, falls = (all(sign * c >= 0 for c in lo.values()) for sign in (1, -1))
    nonzero = (rises or falls) and lo.get((), 0) != 0
    if lo != up or not (nonzero or _coeff(b) not in (None, 1)):
        return mmin({}, lo), None
    return mmin({}, lo), (lo if falls else {})


def _coeff(e):
    """The nonzero coefficient of e read as a product of rationals and q-powers, or None."""
    if isinstance(e, Rational):
        return e.value or None
    if isinstance(e, QPow):
        return Fraction(1)
    if isinstance(e, Neg):
        c = _coeff(e.arg)
        return None if c is None else -c
    if isinstance(e, (Mul, Div)):
        c1, c2 = _coeff(e.left), _coeff(e.right)
        if c1 is None or c2 is None:
            return None
        return c1 * c2 if isinstance(e, Mul) else c1 / c2
    return None


def two_monomials(node):
    """m1 +- m2 as m1 * (-+m2/m1; q)_1 where m1, m2 are products of rationals and q-powers."""
    if not isinstance(node, (Add, Sub)) or None in (_coeff(node.left), _coeff(node.right)):
        return None
    base = Div(left=node.right, right=node.left)
    one = IntLit(value=1)
    poch = Poch(bases=(Neg(arg=base) if isinstance(node, Add) else base,), step=one, length=one)
    return Mul(left=node.left, right=poch)


def term_bounds(expr, sub: dict, env: dict, scale: int, zfold):
    """(lower, upper) polynomial bounds on the lowest q-exponent of expr.

    sub maps bound index names to polynomials in nonnegative variables; env
    holds the fixed parameters; zfold is (sign, qexp) of a z binding, None
    for formal z. ``lower`` is None when no bound is proven. ``upper`` is
    None unless expr provably never vanishes: exactly then it may divide.
    The lowest exponent of a product is the sum of its factors' lowest
    exponents, and that of 1/D is minus that of D. A sum of two monomials is
    the product ``two_monomials`` makes of it; any other sum takes the
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
        two = two_monomials(expr)
        if two is not None:
            return term_bounds(two, sub, env, scale, zfold)
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


class _EveryName(dict):
    """A substitution that reads every name as a variable of its own."""

    def __contains__(self, name):
        return True

    def __missing__(self, name):
        return mvar(name)


def free_floor(body, scale: int, zfold):
    """Lower bound on the lowest q-exponent of body as a polynomial in all its names.

    Every name is a variable of its own, so the bound holds wherever each
    name is >= 0. None when no bound is proven.
    """
    try:
        return term_bounds(body, _EveryName(), {}, scale, zfold)[0]
    except SeriesError:
        return None


def floor_along(floor, name: str, env: dict):
    """A ``free_floor`` with every other name read from env, as ray coefficients in name.

    None when another name is unbound or negative there.
    """
    out: dict = {}
    for m, c in floor.items():
        k = 0
        for v, e in m:
            if v == name:
                k = e
                continue
            x = env.get(v)
            if x is None or x < 0:
                return None
            c *= x ** e
        out[k] = out.get(k, 0) + c
    return [out.get(k, 0) for k in range(max(out, default=0) + 1)]


def _over(p, order: int) -> list:
    """d * (p - order) for ray coefficients p: integer coefficients, the sign of p - order."""
    d = math.lcm(*(Fraction(c).denominator for c in p))
    q = [int(c * d) for c in p]
    q[0] -= order * d
    return q


def _past_roots(q) -> int:
    """An integer past Cauchy's bound 1 + max |q_k / q_top| on the real roots of q."""
    return 2 + (max(map(abs, q[:-1])) // abs(q[-1]) if len(q) > 1 else 0)


def range_values(floor, name: str, env: dict, lo: int, hi: int, order: int):
    """The values lo..hi of name at which the floor is at most the order.

    floor is a ``free_floor``; at the other values the term truncates to
    zero. The values come in the order in which the floor rises from end to
    end. None when the floor does not apply: lo < 0, or ``floor_along``
    gives none.
    """
    p = None if lo < 0 else floor_along(floor, name, env)
    if p is None:
        return None
    q = _over(p, order)
    values = range(lo, hi + 1)
    if ray_value(q, hi) < ray_value(q, lo):
        values = reversed(values)
    return [v for v in values if ray_value(q, v) <= 0]


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
    there is none): every later term truncates to zero. Past Cauchy's bound
    on the roots of p - order, p > order; up to there p is monotone between
    its turns (``_turns``), and the last t of each stretch with p(t) <=
    order is found by bisection. None when p has degree 0 or a leading
    coefficient <= 0, and when that t lies past cap: a lower bound at or
    below the order past the cap does not prove a term is nonzero there, so
    such a sum is left to the caller's empty-run rule.
    """
    if len(p) < 2 or p[-1] <= 0:
        return None
    q = _over(p, order)
    top = max(start, _past_roots(q))
    last = start - 1
    cuts = _turns(q, start, top)
    for lo, hi in zip(cuts, cuts[1:] or cuts):
        # On [lo, hi] q is monotone: find its last integer with q <= 0.
        if ray_value(q, hi) <= 0:
            last = max(last, hi)
        elif ray_value(q, lo) <= 0:
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if ray_value(q, mid) <= 0 else (lo, mid)
            last = max(last, lo)
    return None if last > cap else last


def _turns(p, a: int, b: int) -> list:
    """Sorted integers of [a, b], a and b among them, between which p is monotone.

    p is given as ray coefficients. A sign change of p' is narrowed by
    bisection to two integers next to each other, so p is least over the
    integers of [a, b] at one of the results.
    """
    if len(p) <= 2:
        return [a, b]
    dp = [k * c for k, c in enumerate(p)][1:]
    cuts = _turns(dp, a, b)
    out = set(cuts)
    for lo, hi in zip(cuts, cuts[1:]):
        rising = ray_value(dp, lo) > 0
        if (ray_value(dp, hi) > 0) != rising:
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if (ray_value(dp, mid) > 0) == rising else (lo, mid)
            out.update((lo, hi))
    return sorted(out)


def dips_past(p, cap: int, order: int) -> bool:
    """True when p(t) <= order at an integer t > cap.

    p is given as ray coefficients. Past Cauchy's bound on the roots of
    p - order, p - order has the sign of its leading coefficient; up to
    there it is least at one of its turns (``_turns``).
    """
    q = _over(p, order)
    return any(ray_value(q, t) <= 0 for t in _turns(q, cap + 1, max(cap + 1, _past_roots(q))))
