"""Exponent-growth analysis for summation bodies.

Integer expressions expand to polynomials in several variables (``mpoly``),
and ``lower_bounds`` bounds the lowest q-exponent of a summation term from
below and, for a term that never vanishes, from above. A bound is lowered
once against its substitution, the names a sum binds: exponents are
expanded with the parameters kept as variables of their own, and product
bases, steps and lengths become closures. A run substitutes the parameters'
values, reads a product's lowest exponent by the series' one rule
(``_poch_floor``), keeps its vanishing check, and combines the resulting
small numeric polynomials. Along one ray a polynomial is read as its
coefficient list (``ray_coeffs``). The evaluator lowers each sum's bound
along each of its rays once (``lower_floor``) and visits only the indices
at which the bound is at most the working order, as the bound rises
(``range_values``): every other term truncates to zero. A ray without an
upper end ends where the bound passes the order for good; one whose bound
is unproven or does not grow (``grows_forward``) has no certified last
index, and the evaluator refuses it, which the validator reports.

All arithmetic is exact (``Fraction``/``int``). Every polynomial variable is
nonnegative: the ray index t of a sum (the backward ray of a two-sided sum
substitutes n = -t with t >= 1), inner chain indices, the magnitude of a
range index (below 0 a range sum substitutes j = -j') or its offset from a
rising lower end, and the magnitude of a Hecke row's inner index. Parameters and outer indices are constants of any sign.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..errors import PoleError, SeriesError, SpecError
from ..series import _exact, _poch_floor
from .nodes import (
    Add,
    Div,
    IAdd,
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
    int_vars,
)

# Polynomials in several variables are dicts {monomial: int or Fraction}; a
# monomial is a sorted tuple of (name, power) pairs and () is the constant
# monomial. No polynomial is changed once built, so an operation may return
# an operand. RAY names the ray variable t and OFFSET the offset j' of a
# range index from a rising lower end, j = lo + j': names no identifier spells.

RAY, OFFSET = "@t", "@j"


def mconst(v) -> dict:
    return {(): v} if v else {}


def mvar(name: str) -> dict:
    return {((name, 1),): 1}


RAY_T = mvar(RAY)


def _put(out: dict, m, c):
    s = out.get(m, 0) + c
    if s:
        out[m] = s
    else:
        out.pop(m, None)


def madd(a: dict, b: dict) -> dict:
    if not (a and b):
        return a or b
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


def substitute(p: dict, name: str, value: dict) -> dict:
    """p with the variable ``name`` replaced by the polynomial value."""
    out: dict = {}
    for m, c in p.items():
        rest = {tuple(x for x in m if x[0] != name): c}
        for mm, cc in mmul(rest, mpow(value, dict(m).get(name, 0))).items():
            _put(out, mm, cc)
    return out


def mpoly(e, sub: dict) -> dict:
    """Polynomial of an integer expression; sub maps each of its names to a polynomial."""
    if isinstance(e, IntLit):
        return mconst(e.value)
    if isinstance(e, IVar):
        return sub[e.name]
    if isinstance(e, (IAdd, ISub, IMul)):
        a, b = mpoly(e.left, sub), mpoly(e.right, sub)
        if isinstance(e, IAdd):
            return madd(a, b)
        if isinstance(e, ISub):
            return madd(a, mneg(b))
        return mmul(a, b)
    a = mpoly(e.base if isinstance(e, IPow) else e.arg, sub)
    if isinstance(e, INeg):
        return mneg(a)
    if isinstance(e, IPow):
        return mpow(a, e.power)
    return mmul(mmul(a, madd(a, mconst(-1))), mconst(Fraction(1, 2)))


def ray_coeffs(p):
    """Coefficients [c0, c1, ...] of a polynomial in the ray variable alone.

    The list has no trailing zeros ([0] for the zero polynomial). None when
    p is None or holds another variable.
    """
    if p is None:
        return None
    out = [0]
    for m, c in p.items():
        if len(m) > 1 or (m and m[0][0] != RAY):
            return None
        k = m[0][1] if m else 0
        out.extend([0] * (k + 1 - len(out)))
        out[k] = c
    return out


def ray_value(p, t):
    """The value at t of a polynomial given as ray coefficients."""
    v = 0
    for c in reversed(p):
        v = v * t + c
    return v


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
#
# A bound is lowered once against its substitution: the result is a closure
# (env, zfold) -> (lower, upper) over the bindings and the z fold, whose
# polynomials hold only the substituted variables.

_UNKNOWN = (None, None)
_ONE = mconst(1)


def _unknown(env, zfold):
    return _UNKNOWN


def _plus(a, b):
    return None if a is None or b is None else madd(a, b)


def _minus(a, b):
    return None if a is None or b is None else madd(a, mneg(b))


def _times(a, k):
    return None if a is None else mmul(a, mconst(k))


def _on_first_use(lower, *args):
    """The closure lower(*args) gives, lowered when it is first called.

    For parts of a bound that most runs never reach; lowering reads no
    binding and raises nothing, so lowering late changes no result.
    """
    lowered = None

    def run(env, zfold):
        nonlocal lowered
        if lowered is None:
            lowered = lower(*args)
        return lowered(env, zfold)

    return run


def _lower_int(e, sub: dict):
    """An integer expression as a closure from the bindings to its polynomial in sub's variables.

    The expansion runs once, with every name outside sub a variable of its
    own; a run substitutes those names' values, and gives None when one of
    them is unbound.
    """
    names = int_vars(e) - sub.keys()
    p = mpoly(e, {**sub, **{x: mvar(x) for x in names}})
    if not names:
        return lambda env: p
    terms = [(tuple(x for x in m if x[0] not in names), c, tuple(x for x in m if x[0] in names))
             for m, c in p.items()]
    names = tuple(names)

    def poly(env):
        for x in names:
            if x not in env:
                return None
        out: dict = {}
        for m, c, free in terms:
            for x, k in free:
                c *= env[x] ** k
            _put(out, m, c)
        return out

    return poly


def _lower_product(expr, sub: dict, scale: int):
    # Only bases and steps fixed along the sum are certified: names bound by
    # the sum are taken out of env, so reading a base that uses one fails.
    step_of = int_closure(expr.step)
    fns = [base_closure(b, scale) for b in expr.bases]
    length_of = None
    if isinstance(expr, Poch) and expr.length is not None:
        length_of = _lower_int(expr.length, sub)
    moving = _unknown
    if length_of is not None and len(expr.bases) == 1:
        moving = _on_first_use(_lower_moving, expr.bases[0], sub, scale, length_of)

    def product(env, zfold):
        fixed = env
        for k in sub:
            if k in env:
                fixed = {k: v for k, v in env.items() if k not in sub}
                break
        try:
            step = step_of(fixed)
            triples = [f(fixed) for f in fns]
        except KeyError:
            return moving(env, zfold)
        except SeriesError:
            return _UNKNOWN
        if step < 1:
            return _UNKNOWN
        # A length that moves with the sum counts every negative factor.
        length = None
        constant = True
        if length_of is not None:
            lp = length_of(env)
            constant = lp is not None and _is_const(lp)
            if constant:
                length = int(lp.get((), 0))
        low = 0
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
            low += _poch_floor(eff, step, length)
            # A factor 1 - q^0 at some t < length makes the whole product vanish.
            if (folded == 1 and eff <= 0 and eff % step == 0
                    and (length is None or -eff // step < length)):
                vanishes = True
        if vanishes:
            return mconst(low), None
        # A nonvanishing product of fixed length has lowest exponent exactly low.
        return mconst(low), (mconst(low) if constant else {})

    return product


def _lower_moving(b, sub: dict, scale: int, length_of):
    # A length-one product 1 - b whose base moves with the sum. If b has
    # exponent e, the factor has lowest exponent min(0, e), exact where e
    # keeps one sign; it vanishes only where e = 0 and b = 1. Lowered only
    # where a base or step reads a name the bindings lack.
    base = lower_bounds(b, sub, scale)
    unit = _coeff(b) in (None, 1)

    def moving(env, zfold):
        lo, up = base(env, zfold)
        if lo is None or length_of(env) != _ONE:
            return _UNKNOWN
        rises, falls = (all(sign * c >= 0 for c in lo.values()) for sign in (1, -1))
        nonzero = (rises or falls) and lo.get((), 0) != 0
        if lo != up or not (nonzero or not unit):
            return mmin({}, lo), None
        return mmin({}, lo), (lo if falls else {})

    return moving


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


def _lower_range(expr: RangeSum, sub: dict, scale: int):
    # The window splits at 0: j = j' over [0, hi] and, below 0, j = -j' over
    # [1, -lo]; each part relaxes j' over [0, its width], and the bound is
    # the lower of the two. A lower end that rises with an enclosing index
    # (nonnegative coefficients) is not split: the bound at j, substituted
    # j = lo + j', relaxes j' over [0, hi - lo].
    lo_of, hi_of = _lower_int(expr.lo, sub), _lower_int(expr.hi, sub)
    j = mvar(expr.index)
    up = lower_bounds(expr.body, {**sub, expr.index: j}, scale)
    down = _on_first_use(lower_bounds, expr.body, {**sub, expr.index: mneg(j)}, scale)

    def range_sum(env, zfold):
        lo_p, hi_p = lo_of(env), hi_of(env)
        if lo_p is None or hi_p is None or any(c < 0 for c in hi_p.values()):
            return _UNKNOWN
        if not _is_const(lo_p) and all(c >= 0 for c in lo_p.values()):
            lo, width = up(env, zfold)[0], madd(hi_p, mneg(lo_p))
            if lo is None or any(c < 0 for c in width.values()):
                return _UNKNOWN
            lo = substitute(lo, expr.index, madd(lo_p, mvar(OFFSET)))
            return relax(lo, OFFSET, width), None
        parts = [(up, hi_p)]
        if not (_is_const(lo_p) and lo_p.get((), 0) >= 0):
            if any(c > 0 for c in lo_p.values()):
                return _UNKNOWN
            parts.append((down, mneg(lo_p)))
        out = None
        for body, width in parts:
            lo, _ = body(env, zfold)
            if lo is None:
                return _UNKNOWN
            lo = relax(lo, expr.index, width)
            out = lo if out is None else mmin(out, lo)
        return out, None

    return range_sum


def lower_bounds(expr, sub: dict, scale: int):
    """(lower, upper) polynomial bounds on the lowest q-exponent of expr, lowered once.

    The result is a closure (env, zfold) -> (lower, upper). sub maps bound
    index names to polynomials in nonnegative variables; env holds the fixed
    parameters; zfold is (sign, qexp) of a z binding, None for formal z.
    ``lower`` is None when no bound is proven. ``upper`` is None unless expr
    provably never vanishes: exactly then it may divide. The lowest exponent
    of a product is the sum of its factors' lowest exponents, and that of
    1/D is minus that of D. A sum of two monomials is the product
    ``two_monomials`` makes of it; any other sum takes the coefficientwise
    minimum of its parts' lower bounds.
    """
    if isinstance(expr, Rational):
        r = ({}, ({} if expr.value else None))
        return lambda env, zfold: r
    if isinstance(expr, (NumPoly, QBinom)):
        r = ({}, None)
        return lambda env, zfold: r
    if isinstance(expr, QPow):
        e = (lambda env: mconst(scale)) if expr.exp is None else _lower_int(expr.exp, sub)

        def qpow(env, zfold):
            p = e(env)
            return p, p

        return qpow
    if isinstance(expr, ZPow):
        e = (lambda env: _ONE) if expr.exp is None else _lower_int(expr.exp, sub)

        def zpow(env, zfold):
            if zfold is None:
                return {}, {}
            p = _times(e(env), zfold[1])
            return p, p

        return zpow
    if isinstance(expr, Neg):
        return lower_bounds(expr.arg, sub, scale)
    if isinstance(expr, (Mul, Div)):
        a, b = lower_bounds(expr.left, sub, scale), lower_bounds(expr.right, sub, scale)
        if isinstance(expr, Mul):
            def mul(env, zfold):
                (alo, aup), (blo, bup) = a(env, zfold), b(env, zfold)
                return _plus(alo, blo), _plus(aup, bup)

            return mul

        def div(env, zfold):
            (alo, aup), (blo, bup) = a(env, zfold), b(env, zfold)
            return _minus(alo, bup), _minus(aup, blo)

        return div
    if isinstance(expr, (Add, Sub)):
        two = two_monomials(expr)
        if two is not None:
            return lower_bounds(two, sub, scale)
        a, b = lower_bounds(expr.left, sub, scale), lower_bounds(expr.right, sub, scale)

        def add(env, zfold):
            alo, blo = a(env, zfold)[0], b(env, zfold)[0]
            return (None if alo is None or blo is None else mmin(alo, blo)), None

        return add
    if isinstance(expr, Pow):
        e, base = _lower_int(expr.exp, sub), lower_bounds(expr.base, sub, scale)

        def power(env, zfold):
            k = e(env)
            if k is None:
                return _UNKNOWN
            if _is_const(k):
                k = int(k.get((), 0))
                if k == 0:
                    return {}, {}
                lo, up = base(env, zfold)
                return (_times(lo, k), _times(up, k)) if k > 0 else (_times(up, k), _times(lo, k))
            # A power that moves with an index needs the base's exact lowest
            # exponent, which a nonvanishing monomial has.
            lo, up = base(env, zfold)
            if lo is None or lo != up:
                return _UNKNOWN
            x = mmul(k, lo)
            return x, x

        return power
    if isinstance(expr, (Poch, Theta)):
        return _lower_product(expr, sub, scale)
    if isinstance(expr, RangeSum):
        return _lower_range(expr, sub, scale)
    return _unknown


def lower_floor(body, subs, scale: int, inner=(), bound=None):
    """A sum's term bound, lowered once: a closure (env, zfold) -> floor.

    floor bounds the lowest q-exponent of the sum's term from below, as ray
    coefficients. Each substitution in subs puts the ray variable (``RAY_T``
    or its negative) and the ``inner`` names into the body, and the bound is
    the minimum over them; each inner name is relaxed over [0, bound]. floor
    is None when no bound is proven.
    """
    bounds = [lower_bounds(body, sub, scale) for sub in subs]

    def floor(env, zfold):
        out = None
        for f in bounds:
            lo = f(env, zfold)[0]
            if lo is None:
                return None
            out = lo if out is None else mmin(out, lo)
        for name in inner:
            out = relax(out, name, bound)
        return ray_coeffs(out)

    return floor


def _over(p, order: int) -> list:
    """d * (p - order) for ray coefficients p: integer coefficients, the sign of p - order."""
    d = math.lcm(*(c.denominator for c in p))
    q = [int(c * d) for c in p]
    q[0] -= order * d
    return q


def _past_roots(q) -> int:
    """An integer past Cauchy's bound 1 + max |q_k / q_top| on the real roots of q."""
    return 2 + (max(map(abs, q[:-1])) // abs(q[-1]) if len(q) > 1 else 0)


def _runs(q, a: int, b: int) -> list:
    """The maximal runs (first, last) of integers of [a, b] at which q <= 0, ascending.

    q is given as ray coefficients. Between its turns (``_turns``) q is
    monotone, so on each stretch those integers form a prefix or a suffix,
    whose end is found by bisection: the cost does not grow with b - a.
    """
    runs: list = []
    cuts = _turns(q, a, b)
    for lo, hi in zip(cuts, cuts[1:] or cuts):
        at_lo, at_hi = ray_value(q, lo) <= 0, ray_value(q, hi) <= 0
        if not (at_lo or at_hi):
            continue
        first, last = lo, hi
        if at_lo != at_hi:
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if (ray_value(q, mid) <= 0) == at_lo else (lo, mid)
            first, last = (first, lo) if at_lo else (hi, last)
        if runs and first <= runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], max(runs[-1][1], last))
        else:
            runs.append((first, last))
    return runs


def range_values(p, a: int, b, order: int) -> list:
    """The integers of [a, b] at which ray coefficients p are at most the order, as ranges.

    They come in the order in which p rises from end to end: from a up, or
    from b down when p(b) < p(a) (``_runs``). b None stands for the end of
    the ray, for a p that grows (``grows_forward``): past Cauchy's bound on
    the roots of p - order (``_past_roots``), p stays above the order.
    """
    q = _over(p, order)
    if b is None:
        b = max(a, _past_roots(q))
    if b < a:
        return []
    runs = _runs(q, a, b)
    if ray_value(q, b) < ray_value(q, a):
        return [range(y, x - 1, -1) for x, y in reversed(runs)]
    return [range(x, y + 1) for x, y in runs]


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

