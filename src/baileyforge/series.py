"""Truncated bivariate Laurent series with exact rational coefficients.

A series lives in variables q and z. q-exponents are integers in scaled
units: under a context with scale d, the stored exponent e means q^(e/d).
z-exponents are plain integers. Coefficients are exact rationals, never
floats (a float input raises TypeError). Series are compared up to the
context order: all terms with scaled q-exponent <= order are retained,
everything above is dropped.

A series is stored as the kernel works on it: one dense list of int
entries per z-exponent over a common lowest q-exponent, and one positive
denominator (``QSeries``). Every operation works on ints only: the kernel
(``times_binomials``) copies the columns onto its window and runs its
passes on them, ring operations and sums (``_Sum``) add columns
entrywise, and no operation converts the table to another layout. A
coefficient reads back as an int when integral, else a fractions.Fraction.

Resource guard: a retained term with z-exponent e must satisfy
d*binom(|e|,2) <= order. Every series built from the supported identity
family stays inside this region; a violation aborts. The guard reads each
z-column once, whenever a series is made.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from math import gcd, isqrt, lcm
from operator import add, sub

from .errors import (
    BudgetError,
    ContextMismatchError,
    DivergentProductError,
    NonUnitLeadingError,
    ZDegreeError,
)

Rational = Fraction

__all__ = [
    "Rational",
    "Monomial",
    "EvalContext",
    "hard_cap",
    "QSeries",
    "zero",
    "one",
    "monomial",
    "poch_finite",
    "poch_infinite",
    "qbinomial",
    "binomials",
    "times_binomials",
    "dilate",
    "retruncate",
    "equal_up_to",
    "first_mismatch",
    "render",
    "render_terms",
]


@dataclass(frozen=True)
class Monomial:
    """Interpretation of z as sign * q^(qexp), qexp in scaled units."""

    sign: int
    qexp: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("monomial sign must be +1 or -1")


@dataclass(frozen=True)
class EvalContext:
    """Evaluation context: scale d, truncation order, z interpretation.

    z_cap, the z-degree guard cap, is derived from scale and order.
    """

    scale: int = 1
    order: int = 50
    z_interp: Monomial | None = None
    z_cap: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.scale < 1:
            raise ValueError("scale must be >= 1")
        if self.order < 0:
            raise ValueError("order must be >= 0")
        # Largest j >= 1 with scale*binom(j, 2) <= order, that is with
        # j*(j - 1) <= 2*order // scale; |z-exponent| may not exceed it.
        object.__setattr__(self, "z_cap", (1 + isqrt(1 + 4 * (2 * self.order // self.scale))) // 2)

    @property
    def is_formal(self) -> bool:
        return self.z_interp is None


def hard_cap(ctx: EvalContext) -> int:
    """Universal bound on summation index magnitude."""
    return 4 * (ctx.order + 1)


def term_budget() -> int:
    return int(os.environ.get("BAILEY_FORGE_MAX_TERMS", "500000"))


class _Budget:
    """Caps total summation-term evaluations for one evaluation call."""

    __slots__ = ("left",)

    def __init__(self, limit: int | None = None):
        self.left = term_budget() if limit is None else limit

    def spend(self, n: int = 1):
        self.left -= n
        if self.left < 0:
            raise BudgetError("term budget exhausted (BAILEY_FORGE_MAX_TERMS)")


def _lead(col: list) -> int:
    """Index of the first nonzero entry of a column, or its length when there is none."""
    for v in filter(None, col):
        return col.index(v)
    return len(col)


def _check_keys(ctx: EvalContext, lo: int, cols: dict) -> None:
    """Raise ZDegreeError for a z-column outside the guard region, each column checked once.

    Under a folded context the only column is z^0; under a formal one every
    |z-exponent| is at most ctx.z_cap. The error names the offending term
    with the lowest q-exponent among the first terms of the columns.
    """
    if not ctx.is_formal:
        if cols and (len(cols) > 1 or 0 not in cols):
            raise ZDegreeError("z-exponent survived monomial folding")
        return
    cap = ctx.z_cap
    if cols and (max(cols) > cap or min(cols) < -cap):
        qe, ze = min((lo + _lead(col), z) for z, col in cols.items() if abs(z) > cap)
        raise ZDegreeError(
            f"z-exponent {ze} at q-exponent {qe} exceeds guard cap "
            f"{cap} (scale {ctx.scale}, order {ctx.order})"
        )


class QSeries:
    """Immutable truncated Laurent series over a fixed context.

    The table is one dense list of int entries per z-exponent over a
    common lowest q-exponent and one denominator ``_d`` >= 1: z^z * q^(_lo + i)
    has the coefficient ``_c[z][i] / _d``. It is canonical: no column is
    empty or ends in a zero, some column starts with a nonzero, none
    reaches past the order, and ``_d`` is coprime to the entries, so
    equality compares the lists and ``_lo`` is the valuation.
    """

    __slots__ = ("ctx", "_lo", "_c", "_d")

    def __init__(self, ctx: EvalContext, data: dict | None = None):
        """The series sum data[qe][ze] * z^ze * q^qe; terms above the order are dropped."""
        terms = [(qe, ze, _pair(c)) for qe, zd in (data or {}).items() if qe <= ctx.order
                 for ze, c in zd.items()]
        terms = [t for t in terms if t[2][0]]
        lo = min((qe for qe, _, _ in terms), default=0)
        d = lcm(1, *(r for _, _, (_, r) in terms))
        cols: dict = {}
        for qe, ze, (p, r) in terms:
            col = cols.setdefault(ze, [])
            i = qe - lo
            if len(col) <= i:
                col += [0] * (i + 1 - len(col))
            col[i] = p * (d // r)
        self._set(ctx, lo, cols, d)

    def _set(self, ctx: EvalContext, lo: int, cols: dict, d: int) -> "QSeries":
        """Hold the int columns cols over lo and the denominator d >= 1, made canonical in place.

        The columns become the series' own. They are cut at the order and
        trimmed, empty ones dropped, and lo moves up to the lowest nonzero
        exponent. Unless d is 1, one gcd over the entries reduces it.
        """
        n = ctx.order - lo + 1
        if n <= 0:
            cols = {}
        # k: the fewest leading zeros of a column.
        k = n
        for z, col in list(cols.items()):
            if len(col) > n:
                del col[n:]
            if col and not col[-1]:
                del col[len(col) - _lead(col[::-1]):]
            if not col:
                del cols[z]
            elif col[0]:
                k = 0
            elif k:
                k = min(k, _lead(col))
        g = 1 if d == 1 else gcd(d, *(gcd(*col) for col in cols.values()))
        if g != 1:
            cols, d = {z: [v // g for v in col] for z, col in cols.items()}, d // g
        if cols and k:
            for col in cols.values():
                del col[:k]
            lo += k
        _check_keys(ctx, lo, cols)
        self.ctx = ctx
        self._lo = lo if cols else 0
        self._c = cols
        self._d = d
        return self

    # -- inspection ---------------------------------------------------------

    def terms(self):
        """Yield (qexp, zexp, coeff) in ascending (qexp, zexp) order."""
        cols = [(z, self._c[z]) for z in sorted(self._c)]
        d = self._d
        for i in range(max(map(len, self._c.values()), default=0)):
            for z, col in cols:
                if i < len(col) and col[i]:
                    yield self._lo + i, z, _value(col[i], d)

    def coefficient(self, qexp: int, zexp: int = 0) -> int | Fraction:
        """Coefficient of z^zexp q^(qexp/scale): an int when integral, else a Fraction."""
        col = self._c.get(zexp)
        i = qexp - self._lo
        return _value(col[i], self._d) if col is not None and 0 <= i < len(col) else 0

    def min_exponent(self):
        """Smallest scaled q-exponent with a nonzero term, or None."""
        return self._lo if self._c else None

    def is_zero(self) -> bool:
        return not self._c

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.ctx, self._lo, self._d, self._c) == (other.ctx, other._lo, other._d, other._c)

    __hash__ = None

    def __repr__(self):
        n = sum(len(col) - col.count(0) for col in self._c.values())
        return f"<QSeries scale={self.ctx.scale} order={self.ctx.order} terms={n}>"

    # -- ring operations ----------------------------------------------------

    def _comp(self, other) -> "QSeries":
        if isinstance(other, QSeries):
            if other.ctx != self.ctx:
                raise ContextMismatchError(
                    f"contexts differ: {self.ctx} vs {other.ctx}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return monomial(self.ctx, other)
        return NotImplemented

    def _plus(self, other, sign: int):
        other = self._comp(other)
        if other is NotImplemented:
            return other
        acc = _Sum()
        acc.add(self)
        acc.add(other, sign)
        return acc.series(self.ctx)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p, r = _pair(other)
            if not p:
                return zero(self.ctx)
            return _new(self.ctx, self._lo, {z: [v * p for v in col] for z, col in self._c.items()},
                        self._d * r)
        other = self._comp(other)
        if other is NotImplemented:
            return other
        return _mul_raw(self, other)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("series power must be a nonnegative integer")
        out = None
        base = self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return one(self.ctx) if out is None else out

    def invert(self) -> "QSeries":
        """Multiplicative inverse; needs a single-monomial lowest slice.

        With self = mc * z^mz * q^m * (1 + u) / _d, where u has only
        positive q-exponents, 1/(1 + u) = sum_n b_n q^n with b_0 = 1 and
        b_n = -sum_{k=1..n} u_k b_{n-k}, each b_n a Laurent polynomial in z,
        up to n = top = order + m. mc * u has int entries, so the columns
        kept, B_n = mc^top * b_n, divide exactly by mc at each step, and
        the inverse is _d * B / mc^(top + 1).
        """
        cols = self._c
        if not cols:
            raise NonUnitLeadingError("cannot invert the zero series")
        m = self._lo
        lead = [(z, col[0]) for z, col in cols.items() if col[0]]
        if len(lead) != 1:
            raise NonUnitLeadingError(
                f"lowest q-slice (exponent {m}) is not a single monomial in z"
            )
        ((mz, mc),) = lead
        top = self.ctx.order + m
        if top < 0:
            return zero(self.ctx)
        # The terms mc * u_k * z^zu of mc * u, k = 1..top, by rising k.
        u = sorted((k, z - mz, col[k]) for z, col in cols.items()
                   for k in range(1, min(top + 1, len(col))) if col[k])
        # The columns of B, each B_0 .. B_top.
        b = {0: [mc ** top] + [0] * top}
        for n in range(1, top + 1):
            row: dict = {}
            for k, zu, cu in u:
                if k > n:
                    break
                for zb, col in b.items():
                    v = col[n - k]
                    if v:
                        row[zb + zu] = row.get(zb + zu, 0) - cu * v
            for z, v in row.items():
                if v:
                    b.setdefault(z, [0] * (top + 1))[n] = v // mc
        scale = self._d if mc > 0 or top % 2 else -self._d
        return _new(self.ctx, -m, {z - mz: [v * scale for v in col] for z, col in b.items()},
                    abs(mc) ** (top + 1))


def _new(ctx: EvalContext, lo: int, cols: dict, d: int = 1) -> QSeries:
    """The series of the int columns cols over lo and the denominator d (``QSeries._set``)."""
    return QSeries.__new__(QSeries)._set(ctx, lo, cols, d)


def _exact(c) -> int | Fraction:
    """An exact coefficient: an int when c is integral, else a Fraction.

    A float raises TypeError: coefficients are exact, and int / int and
    int ** -k give floats, so callers divide through Fraction and pass the
    quotient here.
    """
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise TypeError(f"coefficient {c!r} is a float; coefficients must be exact")
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _pair(c) -> tuple:
    """The exact coefficient c (``_exact``) as (numerator, denominator >= 1) in lowest terms."""
    c = c if type(c) is int else _exact(c)
    return c.numerator, c.denominator


def _value(v: int, d: int) -> int | Fraction:
    """The coefficient v / d: an int when integral, else a Fraction."""
    return v if d == 1 else _exact(Fraction(v, d))


class _Sum:
    """A running sum of series of one context, added up in place in the column layout.

    ``series`` hands the columns, over the lcm of the denominators added,
    to its result, so a sum is read once.
    """

    __slots__ = ("lo", "cols", "d")

    def __init__(self):
        self.lo = 0
        self.cols: dict = {}
        self.d = 1

    def add(self, s: QSeries, sign: int = 1) -> None:
        """Add s, or -s when sign is -1."""
        if not s._c:
            return
        cols = self.cols
        den = self.d if s._d == self.d else lcm(self.d, s._d)
        if den != self.d:
            for col in cols.values():
                col[:] = [v * (den // self.d) for v in col]
            self.d = den
        k = den // s._d  # takes s's entries over the sum's denominator
        d = s._lo - self.lo
        if d < 0 and cols:
            pad = [0] * -d
            for col in cols.values():
                col[:0] = pad
        if d < 0 or not cols:
            self.lo, d = s._lo, 0
        op = add if sign > 0 else sub
        for z, col in s._c.items():
            if k != 1:
                col = [v * k for v in col]
            t = cols.get(z)
            if t is None:
                cols[z] = [0] * d + (col if sign > 0 else [-v for v in col])
                continue
            m = d + len(col)
            if len(t) < m:
                t += [0] * (m - len(t))
            t[d:m] = map(op, t[d:m], col)

    def series(self, ctx: EvalContext) -> QSeries:
        return _new(ctx, self.lo, self.cols, self.d)


def _mul_raw(a: QSeries, b: QSeries) -> QSeries:
    """a * b at a's context: every pair of z-columns convolved, up to the order."""
    ctx = a.ctx
    lo = a._lo + b._lo
    width = max(map(len, a._c.values()), default=0) + max(map(len, b._c.values()), default=0) - 1
    n = min(ctx.order - lo + 1, width)
    out: dict = {}
    if n > 0:
        bnz = [(zb, [(j, y) for j, y in enumerate(cb[:n]) if y]) for zb, cb in b._c.items()]
        for za, ca in a._c.items():
            for zb, nz in bnz:
                col = out.get(za + zb)
                if col is None:
                    col = out[za + zb] = [0] * n
                for i, x in enumerate(ca[:n]):
                    if x:
                        lim = n - i
                        for j, y in nz:
                            if j >= lim:
                                break
                            col[i + j] += x * y
    return _new(ctx, lo, out, a._d * b._d)


# -- builders ---------------------------------------------------------------


def zero(ctx: EvalContext) -> QSeries:
    return _new(ctx, 0, {})


def one(ctx: EvalContext) -> QSeries:
    return monomial(ctx, 1)


def monomial(ctx: EvalContext, coeff, zexp: int = 0, qexp: int = 0) -> QSeries:
    """Build coeff * z^zexp * q^(qexp/scale), folding z under a monomial context."""
    p, r = _pair(coeff)
    if not p:
        return zero(ctx)
    p, zexp, qexp = _fold(ctx, p, zexp, qexp)
    return _new(ctx, qexp, {zexp: [p]}, r)


def _fold(ctx: EvalContext, c, ze: int, qe: int):
    """c * z^ze * q^qe with z replaced by its monomial under a folded context."""
    zi = ctx.z_interp
    if zi is None or not ze:
        return c, ze, qe
    return (-c if zi.sign == -1 and ze % 2 else c), 0, qe + ze * zi.qexp


# -- binomial factors ---------------------------------------------------------


def _bases(ctx: EvalContext, base) -> tuple:
    """One base triple or a tuple of them, as exact triples folded under ctx."""
    if base and not isinstance(base[0], (tuple, list)):
        base = (base,)
    return tuple(_fold(ctx, _exact(c), int(ze), int(qe)) for c, ze, qe in base)


def binomials(ctx: EvalContext, base, step: int, length, *, strict: bool = False):
    """prod_{t<length} prod_b (1 - b*q^(t*step)) as a monomial times runs of binomials.

    base is one triple b = (coeff, zexp, qexp) or a tuple of them; length
    None is the infinite product. The result (lead, runs) reads the product
    as lead * prod_{u<count} (1 - c*z^a*q^(e + u*d)) over the runs
    (c, a, e, d, count): lead = (coeff, zexp, qexp) is a monomial, count is
    None for a run without end, and every run is folded under ctx, starts
    at e >= 0 and is not a pure scalar. Runs are not truncated: the kernel
    (``times_binomials``) stops each where it passes the order of the
    product it is applied to.

    A factor with e < 0 is rewritten as -c*z^a*q^e * (1 - z^-a*q^-e/c) and
    its monomial joins lead; a pure scalar 1 - c joins lead's coefficient,
    which is 0 when the product vanishes. A formal z-power past the guard
    cap raises ZDegreeError. Under strict, an infinite product with a pure-q
    factor of nonpositive order raises DivergentProductError unless that
    factor is 1 - q^0.
    """
    if step < 1:
        raise ValueError("product step must be >= 1")
    lc, lz, lq = 1, 0, 0
    runs: list = []
    for c, a, e0 in _bases(ctx, base):
        if not c or length == 0:
            continue
        if length is None and strict and not a and e0 <= 0 and not (c == 1 and e0 == 0):
            raise DivergentProductError(
                f"infinite product factor (1 - {c}*q^{e0}) has nonpositive order"
            )
        if a and abs(a) > ctx.z_cap and e0 <= ctx.order:
            _check_keys(ctx, e0, {a: [c]})
        # Factors up to q^0 are rewritten one by one; the rest form one run.
        t = 0
        while (length is None or t < length) and e0 + t * step <= 0:
            e = e0 + t * step
            if e < 0:
                lc, lz, lq = -c * lc, lz + a, lq + e
                runs.append((_exact(1 / Fraction(c)), -a, -e, 1, 1))
            elif a:
                runs.append((c, a, 0, 1, 1))
            else:
                lc = _exact(lc * (1 - c))
                if not lc:
                    return (0, 0, 0), []
            t += 1
        if length is None or t < length:
            runs.append((c, a, e0 + t * step, step, None if length is None else length - t))
    return (lc, lz, lq), runs


def _factors(runs, n: int, divide: bool) -> tuple:
    """The factors (u, w, a, e) of runs with e < n, each c read as u/w, and the scale they need.

    It is w per numerator factor and w^((n-1)//e) per divisor run from q^e, the most it chains.
    """
    out, scale = [], 1
    for c, a, e, d, count in runs:
        xs = range(e, n if count is None else min(n, e + count * d), d)
        if type(c) is int:
            out += [(c, 1, a, x) for x in xs]
            continue
        u, w = _pair(c)
        out += [(u, w, a, x) for x in xs]
        if w != 1:
            scale *= w ** ((n - 1) // e if divide else len(xs))
    return out, scale


def times_binomials(s: QSeries, num=(), den=(), lead=(1, 0, 0)) -> QSeries:
    """s * lead * prod_num / prod_den of runs of binomials, at s's order.

    lead = (coeff, zexp, qexp) is a folded monomial, and num and den hold
    folded runs (c, a, e, d, count) of factors 1 - c*z^a*q^(e + u*d) with
    e >= 0, as ``binomials`` gives them. The columns of s are copied once
    onto the window of the product, shifted by lead. Each numerator factor
    then subtracts c times column z - a, shifted up by e, from column z (as
    read before the factor), and each divisor adds it by the ascending
    recurrence (as read after); factors past the window are 1 there
    (``_column_passes``, ``_z_pass``). Both passes are exact at the order
    whatever the valuation of s, so no factor lifts the order, needs a
    series of its own or reaches ``QSeries.invert``. The shift by lead is
    exact when its exponent is >= 0 or s is a monomial. A divisor needs
    e > 0: 1 - c*z^a with no q-power is not a unit. The passes run on ints:
    a coefficient c = u/w scales the window once (``_factors``), so every
    step divides by w exactly.
    """
    ctx = s.ctx
    for _, a, e, _, _ in den:
        if e <= 0:
            raise NonUnitLeadingError(
                f"divisor 1 - c*z^{a}*q^{e} has no positive q-exponent"
            )
    lc, lz, lq = lead
    p, r = _pair(lc)
    if not s._c or not p:
        return zero(ctx)
    lo = s._lo + lq
    n = ctx.order - lo + 1
    if n <= 0:
        return zero(ctx)
    fnum, snum = _factors(num, n, False)
    fden, sden = _factors(den, n, True)
    mult = p * snum * sden
    # Each column is copied onto the window, q-exponents lo .. lo + n - 1.
    cols: dict = {}
    for z, col in s._c.items():
        col = col[:n]
        if mult != 1:
            col = [v * mult for v in col]
        col += [0] * (n - len(col))
        cols[z + lz] = col
    qnum = [f for f in fnum if not f[2]]
    qden = [f for f in fden if not f[2]]
    if qnum or qden:
        for col in cols.values():
            _column_passes(col, qnum, qden)
    for u, w, a, e in fnum:
        if a:
            _z_pass(cols, n, u, w, a, e, False)
    for u, w, a, e in fden:
        if a:
            _z_pass(cols, n, u, w, a, e, True)
    return _new(ctx, lo, cols, s._d * r * snum * sden)


def _column_passes(a: list, num, den) -> None:
    """Apply pure-q factors to one column, in place, from its first nonzero entry f on."""
    n = len(a)
    f = _lead(a)
    for u, w, _, e in num:
        a[f + e:] = _minus(a[f + e:], a[f:], u, w)
    for u, w, _, e in den:
        if w == 1:
            for i in range(f + e, n):
                v = a[i - e]
                if v:
                    a[i] += u * v
        else:
            for i in range(f + e, n):
                v = a[i - e]
                if v:
                    a[i] += u * v // w


def _z_pass(cols: dict, n: int, u: int, w: int, a: int, e: int, divide: bool) -> None:
    """Apply 1 - (u/w)*z^a*q^e, or with divide its inverse (e > 0), to the columns in place.

    The factor takes column z, shifted up by e, into column z + a, from the
    first nonzero entry f of column z on, and a column whose f + e lies past
    the window gives nothing. The factor subtracts u/w times the old column
    z, so the columns are visited against the direction of a, each read
    before it is written, whatever e. The divisor adds u/w times the new
    column z, chained along a, so the columns are visited along a; a column
    the divisor makes is continued at once, since only column z feeds z + a.
    """
    for z in sorted(cols, reverse=(a > 0) != divide):
        while True:
            src = cols[z]
            f = _lead(src)
            if f + e >= n:
                break
            col = cols.get(z + a)
            made = col is None
            if made:
                col = cols[z + a] = [0] * n
            col[f + e:] = _minus(col[f + e:], src[f:], -u if divide else u, w)
            if not (divide and made):
                break
            z += a


def _minus(x: list, y: list, u: int, w: int):
    """x - (u/w)*y entrywise, over the length of x (w divides u*y); u/w = +-1 runs at C speed."""
    if w != 1:
        return [s - u * v // w if v else s for s, v in zip(x, y)]
    if u == 1:
        return map(sub, x, y)
    if u == -1:
        return map(add, x, y)
    return [s - u * v if v else s for s, v in zip(x, y)]


def poch_finite(ctx: EvalContext, base, step: int, length: int) -> QSeries:
    """Finite product prod_{t<length} prod_b (1 - b*q^(t*step)), exact to the order.

    base is one triple b = (coeff, zexp, qexp) or a tuple of them, and the
    result is the product over all of them. A factor below q^0 joins the
    lead monomial (``binomials``), so the product is exact whatever the
    signs of its exponents.
    """
    if length < 0:
        raise ValueError("poch_finite length must be >= 0")
    if step < 1:
        raise ValueError("poch_finite step must be >= 1")
    lead, runs = binomials(ctx, base, step, length)
    return times_binomials(monomial(ctx, *lead), runs)


def poch_infinite(ctx: EvalContext, base, step: int, *, strict: bool = True) -> QSeries:
    """Infinite product prod_{t>=0} prod_b (1 - b*q^(t*step)), exact to the order.

    base is one triple b = (coeff, zexp, qexp) or a tuple of them, and the
    result is the product over all of them; factors beyond the truncation
    order are dropped and a factor below q^0 joins the lead monomial
    (``binomials``). A factor whose folded form is pure-q with nonpositive
    exponent signals a product outside the usual convergence region;
    strict mode rejects it unless the factor is identically zero (which
    collapses the product).
    """
    lead, runs = binomials(ctx, base, step, None, strict=strict)
    return times_binomials(monomial(ctx, *lead), runs)


def qbinomial(ctx: EvalContext, n: int, k: int) -> QSeries:
    """Gaussian binomial coefficient as a series (zero when out of range)."""
    if k < 0 or k > n:
        return zero(ctx)
    # (Q;Q)_n / ((Q;Q)_k (Q;Q)_(n-k)) with Q = q^scale: after cancelling
    # (Q;Q)_(n-k), the factors 1 - Q^(n-k+i) over 1 - Q^i for i = 1..k,
    # divided in place.
    d = ctx.scale
    k = min(k, n - k)
    return times_binomials(one(ctx), [(1, 0, d * (n - k + 1), d, k)], [(1, 0, d, d, k)])


# -- product forms -----------------------------------------------------------
#
# A hypergeometric term is a head monomial times Pochhammer reads (bases,
# step, length), as ``binomials`` reads them, to the powers +-1. Term n is an
# earlier term times the factors that changed (Gasper and Rahman, Basic
# Hypergeometric Series, 1.2). ``_from_last`` is the one rule that reaches a
# term so, for the DSL evaluator's products and the engine's product forms
# (``_stepped``) alike. A product form is (num, den, lead): Pochhammer
# products over and under a folded monomial lead = (coeff, zexp, qexp).
# ``_form_floor`` is the one rule for a form's lowest q-exponent, which
# bounds the indices a sum of forms visits.


def _read(lead, reads, read):
    """(joined lead, numerator runs, divisor runs) of lead times the products of reads.

    reads holds Pochhammer products (base, step, length) to the powers +-1,
    as pairs (args, power), and read(args) gives their ``binomials`` read
    (length None: the infinite product). lead = (coeff, zexp, qexp) is a
    folded monomial; each product's own monomial joins it.
    """
    c, ze, qe = lead
    nruns: list = []
    druns: list = []
    for args, p in reads:
        (bc, bz, bq), runs = read(args)
        if p > 0:
            c, ze, qe = c * bc, ze + bz, qe + bq
            nruns += runs
        else:
            if not bc:
                raise NonUnitLeadingError("cannot invert the zero series")
            c, ze, qe = Fraction(c) / bc, ze - bz, qe - bq
            druns += runs
    return (c, ze, qe), nruns, druns


def _times(s: QSeries, num=(), den=(), lead=(1, 0, 0)) -> QSeries:
    """s * lead * prod(num) / prod(den), applied to s in place at its order.

    The products are read by ``_read`` and go to one ``times_binomials``
    call, so no product is built as a series. Exact at the order when the
    joined lead exponent is >= 0 or s is a monomial; otherwise it is the
    exact product of s as truncated.
    """
    reads = [(args, p) for side, p in ((num, 1), (den, -1)) for args in side]
    lead, nruns, druns = _read(lead, reads, lambda args: binomials(s.ctx, *args))
    return times_binomials(s, nruns, druns, lead)


def _poch_floor(e: int, step: int, length) -> int:
    """sum_{t<length} min(0, e + t*step): the lowest q-exponent of (b*q^e; q^step)_length.

    Each factor 1 - b*q^(e + t*step) below q^0 starts at its own exponent
    (``binomials``), the others at q^0. length None is the infinite product;
    a length <= 0 gives 0.
    """
    t = -(e // step) if e < 0 else 0
    if length is not None and length < t:
        t = max(length, 0)
    return t * e + step * t * (t - 1) // 2


def _form_floor(ctx: EvalContext, num=(), den=(), lead=(1, 0, 0)) -> int:
    """The lowest q-exponent of lead * prod(num) / prod(den), as ``_times`` reads the form.

    Exact unless the form vanishes. z is folded under ctx (a formal z is a
    variable of its own, so a factor with z starts at its q-exponent), a
    base with coefficient 0 is the factor 1, and each divisor subtracts the
    floor of its product (``_poch_floor``).
    """
    zi = ctx.z_interp
    fold = 0 if zi is None else zi.qexp
    e = lead[2] + lead[1] * fold
    for side, sign in ((num, 1), (den, -1)):
        for bases, step, length in side:
            if not isinstance(bases[0], (tuple, list)):
                bases = (bases,)
            for c, ze, qe in bases:
                if c:
                    e += sign * _poch_floor(qe + ze * fold, step, length)
    return e


# The cost model of ``_from_last``, in coefficient updates. A term built
# anew applies each of its factors once over its window of n exponents. One
# reached from an earlier term applies each factor that changed as if twice,
# since it works on the earlier term's full window, copies and trims that
# window at about the cost of two passes, and pairs the reads at the cost of
# _PAIRING updates. The earlier term is the row term (the same inner index
# one outer step back) where a row holds one that the guards admit and the
# step from it pays, else the last term; the reads are paired once for each
# of the two that is tried.
_PAIRING = 200


def _from_last(ctx: EvalContext, lasts: dict, key, reads: list, head: QSeries, read,
               row: dict | None = None) -> QSeries:
    """head times the runs of reads (args, power +-1), from an earlier term under key where cheaper.

    read(args) gives the ``binomials`` read (lead, runs) of args. The last
    term under key in lasts is kept with its order, head and reads, and so
    is the term under key in row when a row is given: in a range sum nested
    in another sum, the row holds the term at the same inner index one
    outer step back, where often one factor changed. That term is tried
    first, then the last term. When the new head's exponent is no lower
    than an earlier term's, the new term lies in a window no larger, so it
    is that term times the ratio of the heads and the factors that changed
    (``_delta``), exact at the order. Otherwise, and where the cost model
    above says that does not pay, the term is built from its head; a term
    too small to pay is not kept.
    """
    if head.is_zero():
        return head
    hq = head.min_exponent()
    ((hz, (hc,)),) = head._c.items()
    hc = _value(hc, head._d)
    n = ctx.order - hq + 1
    # The factors the term built anew applies, within its window.
    full = 0
    for args, _ in reads:
        full += len(args[0]) * (n if args[2] is None else min(args[2], n))
    if (full - 2) * n <= _PAIRING:
        return times_binomials(head, *_runs(read, reads))
    last = lasts.get(key)
    delta = None
    if row is not None:
        held = row.get(key)
        if held is not None and held is not last and held[0] == ctx.order and held[2][2] <= hq:
            delta = _delta(read, held[1], reads, n, full)
            if delta is not None:
                last = held
    if delta is None and last is not None and last[0] == ctx.order and last[2][2] <= hq:
        delta = _delta(read, last[1], reads, n, full)
    if delta is None:
        out = times_binomials(head, *_runs(read, reads))
    else:
        lc, lz, lq = last[2]
        ratio = 1 if hc == lc else Fraction(hc) / lc
        out = times_binomials(last[3], *delta, (ratio, hz - lz, hq - lq))
    lasts[key] = kept = (ctx.order, reads, (hc, hz, hq), out)
    if row is not None:
        row[key] = kept
    return out


def _runs(read, reads) -> tuple:
    """The numerator and divisor runs of reads (args, power)."""
    num: list = []
    den: list = []
    for args, p in reads:
        (num if p > 0 else den).extend(read(args)[1])
    return num, den


def _delta(read, old: list, new: list, n: int, full: int):
    """Runs (num, den) that take the product of the reads old to that of new, or None.

    Reads in the same place with the same bases, step and power differ by
    their lengths: a product grown from length m to l gains
    (base*q^(m*step); q^step)_(l-m), one shrunk loses the same factors.
    Any other change takes the old read out (power -p) and puts the new one
    in. A factor that leaves the numerator becomes a divisor, which needs a
    positive q-exponent. None when one does not have it, when the reads do
    not pair up, or when the change does not pay against full, the factors
    of the new product within the window of n exponents: factors are
    counted from the reads' arguments, len(bases) per unit of length.
    """
    if len(old) != len(new):
        return None
    moved = 0
    changes: list = []
    for (a, p), (b, pb) in zip(old, new):
        if a == b and p == pb:
            continue
        if a[0] == b[0] and a[1] == b[1] and p == pb and a[2] is not None and b[2] is not None:
            (bases, step, m), length = a, b[2]
            k = step * min(m, length)
            shifted = tuple((c, ze, qe + k) for c, ze, qe in bases)
            changes.append(((shifted, step, abs(length - m)), p if length > m else -p))
        else:
            changes += [(a, -p), (b, pb)]
    for args, _ in changes:
        moved += len(args[0]) * (n if args[2] is None else min(args[2], n))
    if (full - 2 * moved - 2) * n <= _PAIRING:
        return None
    num, den = _runs(read, changes)
    if any(run[2] <= 0 for run in den):
        return None
    return num, den


def _stepped(ctx: EvalContext, form):
    """n -> the product form(n) applied to 1, reached from the last term held (``_from_last``).

    Each product (base, step, length) of the form is a read of power +1 in
    num and -1 in den, under the form's joined lead (``_read``) as head.
    The head and ``_from_last`` share one read of each product. Only the
    last term is held, so a caller that reads a term twice memoises it.
    Terms at n < 0 are zero.
    """
    lasts: dict = {}

    def term(n: int) -> QSeries:
        if n < 0:
            return zero(ctx)
        num, den, lead = form(n)
        reads = [((base if isinstance(base[0], tuple) else (base,), step, length), p)
                 for side, p in ((num, 1), (den, -1)) for base, step, length in side]
        got = {args: binomials(ctx, *args) for args, _ in reads}

        def read(args):
            return got[args] if args in got else binomials(ctx, *args)

        head = monomial(ctx, *_read(lead, reads, read)[0])
        return _from_last(ctx, lasts, None, reads, head, read)

    return term


def retruncate(s: QSeries, ctx: EvalContext) -> QSeries:
    """Restrict a series computed at a higher order back to ctx.

    ctx has s's scale and z binding and an order no higher than s's;
    anything else would relabel or invent terms, and raises
    ContextMismatchError.
    """
    if s.ctx == ctx:
        return s
    if (ctx.scale, ctx.z_interp) != (s.ctx.scale, s.ctx.z_interp) or ctx.order > s.ctx.order:
        raise ContextMismatchError(f"cannot retruncate a series at {s.ctx} to {ctx}")
    n = max(0, ctx.order - s._lo + 1)
    return _new(ctx, s._lo, {z: col[:n] for z, col in s._c.items()}, s._d)


def dilate(s: QSeries, m: int) -> QSeries:
    """Multiply every q-exponent by m (substitute q^(1/d) -> q^(m/d))."""
    if m < 1:
        raise ValueError("dilation factor must be >= 1")
    keep = max(0, s.ctx.order // m - s._lo + 1)
    out = {}
    for z, col in s._c.items():
        col = col[:keep]
        if col:
            out[z] = [0] * (m * len(col) - m + 1)
            out[z][::m] = col
    return _new(s.ctx, s._lo * m, out, s._d)


# -- comparison and display -------------------------------------------------


def first_mismatch(a: QSeries, b: QSeries):
    """Lowest differing (qexp, zexp, coeff_a, coeff_b), or None if equal."""
    if a.ctx != b.ctx:
        raise ContextMismatchError(f"contexts differ: {a.ctx} vs {b.ctx}")
    if a == b:
        return None
    return _dict_mismatch({(qe, ze): c for qe, ze, c in a.terms()},
                          {(qe, ze): c for qe, ze, c in b.terms()})


def _dict_mismatch(ta: dict, tb: dict):
    """Lowest differing (qexp, zexp, coeff_a, coeff_b) of two {(qexp, zexp): coeff} tables."""
    for key in sorted(ta.keys() | tb.keys()):
        ca = ta.get(key, 0)
        cb = tb.get(key, 0)
        if ca != cb:
            return (*key, ca, cb)
    return None


def equal_up_to(a: QSeries, b: QSeries) -> bool:
    return first_mismatch(a, b) is None


def _fmt_qexp(qe: int, scale: int) -> str:
    if qe % scale == 0:
        return str(qe // scale)
    f = Fraction(qe, scale)
    return f"{f.numerator}/{f.denominator}"


def render_terms(terms, scale: int, max_terms: int | None = None) -> str:
    """Sorted (qexp, zexp, coeff) triples listed one q-exponent per line.

    With max_terms, the listing ends with "..." after the line that reaches it.
    """
    lines = []
    count = 0
    for qe, row in groupby(terms, key=lambda t: t[0]):
        parts = []
        for _, ze, c in row:
            if ze == 0:
                parts.append(str(c))
            elif ze == 1:
                parts.append(f"{c}*z")
            else:
                parts.append(f"{c}*z^{ze}")
        count += len(parts)
        lines.append(f"q^{_fmt_qexp(qe, scale)}: " + " + ".join(parts))
        if max_terms is not None and count >= max_terms:
            lines.append("...")
            break
    return "\n".join(lines) if lines else "0"


def render(s: QSeries, max_terms: int = 200) -> str:
    """Human-readable listing, one q-exponent per line."""
    return render_terms(s.terms(), s.ctx.scale, max_terms)
