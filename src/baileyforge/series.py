"""Truncated bivariate Laurent series with exact rational coefficients.

A series lives in variables q and z. q-exponents are integers in scaled
units: under a context with scale d, the stored exponent e means q^(e/d).
z-exponents are plain integers. Coefficients are exact rationals: a
coefficient is a Python int when it is integral on entry and a
fractions.Fraction otherwise, never a float. Integral series therefore run
on native integer arithmetic; int and Fraction compare and hash alike, so
the mix is invisible to equality and to printed output. Series are
compared up to the context order: all terms with scaled q-exponent <= order
are retained, everything above is dropped.

Resource guard: a retained term with z-exponent e must satisfy
d*binom(|e|,2) <= order. Every series built from the supported identity
family stays inside this region; a violation aborts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    ContextMismatchError,
    DivergentProductError,
    NonUnitLeadingError,
    ZDegreeError,
)

Rational = Fraction
_ZERO = 0

__all__ = [
    "Rational",
    "Monomial",
    "EvalContext",
    "QSeries",
    "zero",
    "one",
    "monomial",
    "poch_finite",
    "poch_infinite",
    "qbinomial",
    "dilate",
    "equal_up_to",
    "first_mismatch",
    "render",
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
    """Evaluation context: scale d, truncation order, z interpretation."""

    scale: int = 1
    order: int = 50
    z_interp: Monomial | None = None

    def __post_init__(self):
        if self.scale < 1:
            raise ValueError("scale must be >= 1")
        if self.order < 0:
            raise ValueError("order must be >= 0")

    @property
    def is_formal(self) -> bool:
        return self.z_interp is None

    @property
    def z_cap(self) -> int:
        return _z_cap(self.scale, self.order)


@lru_cache(maxsize=None)
def _z_cap(scale: int, order: int) -> int:
    # Largest j with scale*binom(j,2) <= order; |z-exponent| may not exceed it.
    j = 1
    while scale * (j + 1) * j // 2 <= order:
        j += 1
    return j


def _check_keys(ctx: EvalContext, data: dict) -> None:
    cap = ctx.z_cap
    for qe, zd in data.items():
        for ze in zd:
            if abs(ze) > cap:
                raise ZDegreeError(
                    f"z-exponent {ze} at q-exponent {qe} exceeds guard cap "
                    f"{cap} (scale {ctx.scale}, order {ctx.order})"
                )


class QSeries:
    """Immutable truncated Laurent series over a fixed context."""

    __slots__ = ("ctx", "_c")

    def __init__(self, ctx: EvalContext, data: dict | None = None, *, _trusted=False):
        self.ctx = ctx
        if data is None:
            data = {}
        if not _trusted:
            clean: dict[int, dict[int, int | Fraction]] = {}
            for qe, zd in data.items():
                if qe > ctx.order:
                    continue
                keep = {ze: _exact(c) for ze, c in zd.items() if c}
                if keep:
                    clean[qe] = keep
            data = clean
        if not ctx.is_formal:
            for zd in data.values():
                if any(ze != 0 for ze in zd):
                    raise ZDegreeError("z-exponent survived monomial folding")
        _check_keys(ctx, data)
        self._c = data

    # -- inspection ---------------------------------------------------------

    def terms(self):
        """Yield (qexp, zexp, coeff) in ascending (qexp, zexp) order."""
        for qe in sorted(self._c):
            zd = self._c[qe]
            for ze in sorted(zd):
                yield qe, ze, zd[ze]

    def coefficient(self, qexp: int, zexp: int = 0) -> int | Fraction:
        """Coefficient of z^zexp q^(qexp/scale): an int when integral, else a Fraction."""
        return self._c.get(qexp, {}).get(zexp, _ZERO)

    def min_exponent(self):
        """Smallest scaled q-exponent with a nonzero term, or None."""
        return min(self._c) if self._c else None

    def is_zero(self) -> bool:
        return not self._c

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.ctx == other.ctx and self._c == other._c

    __hash__ = None

    def __repr__(self):
        n = sum(len(zd) for zd in self._c.values())
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

    def __add__(self, other):
        other = self._comp(other)
        if other is NotImplemented:
            return other
        out = {qe: dict(zd) for qe, zd in self._c.items()}
        _acc_into(out, other._c)
        return QSeries(self.ctx, out, _trusted=True)

    __radd__ = __add__

    def __neg__(self):
        return QSeries(
            self.ctx,
            {qe: {ze: -c for ze, c in zd.items()} for qe, zd in self._c.items()},
            _trusted=True,
        )

    def __sub__(self, other):
        other = self._comp(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _exact(other)
            if not c:
                return zero(self.ctx)
            return QSeries(
                self.ctx,
                {qe: {ze: v * c for ze, v in zd.items()} for qe, zd in self._c.items()},
                _trusted=True,
            )
        other = self._comp(other)
        if other is NotImplemented:
            return other
        return QSeries(
            self.ctx, _ints(_mul_raw(self._c, other._c, self.ctx.order)), _trusted=True
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("series power must be a nonnegative integer")
        out = one(self.ctx)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def invert(self) -> "QSeries":
        """Multiplicative inverse; needs a single-monomial lowest slice.

        With self = mc * z^mz * q^m * (1 + u), where u has only positive
        q-exponents, 1/(1 + u) = sum_n b_n q^n with b_0 = 1 and
        b_n = -sum_{k=1..n} u_k b_{n-k}, each b_n a Laurent polynomial in z.
        Rows up to n = order + m are needed.
        """
        if not self._c:
            raise NonUnitLeadingError("cannot invert the zero series")
        m = min(self._c)
        lead = self._c[m]
        if len(lead) != 1:
            raise NonUnitLeadingError(
                f"lowest q-slice (exponent {m}) is not a single monomial in z"
            )
        ((mz, mc),) = lead.items()
        inv = _exact(1 / Fraction(mc))
        top = self.ctx.order + m
        # Rows u_k of u, each a list of (z-exponent, coefficient).
        u = sorted(
            (qe - m, [(ze - mz, c * inv) for ze, c in zd.items()])
            for qe, zd in self._c.items()
            if 0 < qe - m <= top
        )
        b = [[(0, 1)]] if top >= 0 else []
        for n in range(1, top + 1):
            row: dict[int, int | Fraction] = {}
            for k, uk in u:
                if k > n:
                    break
                for zb, cb in b[n - k]:
                    for zu, cu in uk:
                        z = zu + zb
                        row[z] = row.get(z, 0) - cu * cb
            b.append([(z, c) for z, c in row.items() if c])
        res = {
            n - m: {z - mz: c * inv for z, c in bn}
            for n, bn in enumerate(b)
            if bn
        }
        return QSeries(self.ctx, res, _trusted=True)


def _exact(c) -> int | Fraction:
    """An exact coefficient: an int when c is integral, else a Fraction.

    Coefficients never become floats: int / int and int ** -k give floats,
    so callers divide through Fraction and pass the quotient here.
    """
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _ints(data: dict) -> dict:
    """Turn the integral Fractions of a coefficient table into ints, in place."""
    for zd in data.values():
        for ze, c in zd.items():
            if type(c) is not int and c.denominator == 1:
                zd[ze] = c.numerator
    return data


def _acc_into(target: dict, src: dict) -> None:
    for qe, zd in src.items():
        row = target.get(qe)
        if row is None:
            target[qe] = dict(zd)
            continue
        for ze, c in zd.items():
            s = row.get(ze, _ZERO) + c
            if s:
                row[ze] = s
            elif ze in row:
                del row[ze]
        if not row:
            del target[qe]


def _mul_raw(a: dict, b: dict, order: int) -> dict:
    if len(a) > len(b):
        a, b = b, a
    bitems = sorted(b.items())
    out: dict[int, dict[int, int | Fraction]] = {}
    for qa, zda in a.items():
        lim = order - qa
        for qb, zdb in bitems:
            if qb > lim:
                break
            row = out.setdefault(qa + qb, {})
            for za, ca in zda.items():
                for zb, cb in zdb.items():
                    z = za + zb
                    s = row.get(z, _ZERO) + ca * cb
                    if s:
                        row[z] = s
                    elif z in row:
                        del row[z]
    return {qe: zd for qe, zd in out.items() if zd}


# -- builders ---------------------------------------------------------------


def zero(ctx: EvalContext) -> QSeries:
    return QSeries(ctx, {}, _trusted=True)


def one(ctx: EvalContext) -> QSeries:
    return monomial(ctx, 1)


def monomial(ctx: EvalContext, coeff, zexp: int = 0, qexp: int = 0) -> QSeries:
    """Build coeff * z^zexp * q^(qexp/scale), folding z under a monomial context."""
    c = _exact(coeff)
    if not c:
        return zero(ctx)
    c, zexp, qexp = _fold(ctx, c, zexp, qexp)
    if qexp > ctx.order:
        return zero(ctx)
    return QSeries(ctx, {qexp: {zexp: c}})


def _fold(ctx: EvalContext, c, ze: int, qe: int):
    """c * z^ze * q^qe with z replaced by its monomial under a folded context."""
    zi = ctx.z_interp
    if zi is None or not ze:
        return c, ze, qe
    return (-c if zi.sign == -1 and ze % 2 else c), 0, qe + ze * zi.qexp


# Longest chain of uncached prefixes one poch_finite call builds recursively:
# far below the interpreter's recursion limit, and above every product
# length the catalog reaches at its shipped orders (117), so those products
# take a single cache lookup.
_POCH_STRIDE = 128


def poch_finite(ctx: EvalContext, base, step: int, length: int) -> QSeries:
    """Finite product prod_{t<length} prod_b (1 - b*q^(t*step)).

    base is one triple b = (coeff, zexp, qexp) or a tuple of them, and the
    result is the product over all of them, built one binomial factor at a
    time. It is exact to the order when every folded factor exponent is
    >= 0; otherwise the caller works at an order lifted by the negative
    exponents and retruncates, as the DSL evaluator does.
    """
    if length < 0:
        raise ValueError("poch_finite length must be >= 0")
    if step < 1:
        raise ValueError("poch_finite step must be >= 1")
    bases = _bases(ctx, base)
    if _vanishes(ctx, bases, step, length, False):
        return zero(ctx)
    # Each prefix is built from the cached one before it, recursively.
    # Warming every _POCH_STRIDE-th prefix in increasing length first keeps
    # that recursion shallow at any length; a product of at most
    # _POCH_STRIDE factors is a single cache lookup.
    for n in range(_POCH_STRIDE, length, _POCH_STRIDE):
        _poch_finite_cached(ctx, bases, step, n)
    return _poch_finite_cached(ctx, bases, step, length)


def _bases(ctx: EvalContext, base) -> tuple:
    """One base triple or a tuple of them, as exact triples folded under ctx."""
    if base and not isinstance(base[0], (tuple, list)):
        base = (base,)
    return tuple(_fold(ctx, _exact(c), int(ze), int(qe)) for c, ze, qe in base)


def _vanishes(ctx: EvalContext, bases, step: int, length, strict: bool) -> bool:
    """True when a factor 1 - q^0 makes the product over folded bases vanish.

    length is None for an infinite product. Bases are scanned in order and
    each base's factors in t order, so a product vanishes or raises where a
    base-by-base build would: a formal z-power past the guard cap raises
    ZDegreeError, and under strict a pure-q factor of nonpositive order
    raises DivergentProductError unless it is 1 - q^0.
    """
    if length == 0:
        return False
    for c, ze, qe in bases:
        if qe > ctx.order:
            continue
        if ze:
            if c:
                _check_keys(ctx, {qe: {ze: c}})
        elif qe <= 0:
            if strict and not (c == 1 and qe == 0):
                raise DivergentProductError(
                    f"infinite product factor (1 - {c}*q^{qe}) has nonpositive order"
                )
            if c == 1 and qe % step == 0 and (length is None or -qe // step < length):
                return True
    return False


def _times_binomial(s: QSeries, c, ze: int, qe: int) -> QSeries:
    """s * (1 - c*z^ze*q^qe) for a folded factor, truncated at the order.

    A factor whose monomial lies above the order truncates to 1.
    """
    order = s.ctx.order
    if not c or qe > order:
        return s
    out = {e: dict(zd) for e, zd in s._c.items()}
    for e, zd in s._c.items():
        te = e + qe
        if te > order:
            continue
        row = out.setdefault(te, {})
        for z, v in zd.items():
            tz = z + ze
            x = row.get(tz, _ZERO) - c * v
            if type(x) is not int and x.denominator == 1:
                x = x.numerator
            if x:
                row[tz] = x
            elif tz in row:
                del row[tz]
        if not row:
            del out[te]
    return QSeries(s.ctx, out, _trusted=True)


@lru_cache(maxsize=None)
def _poch_finite_cached(ctx, bases, step, length):
    if length == 0:
        return one(ctx)
    out = _poch_finite_cached(ctx, bases, step, length - 1)
    shift = (length - 1) * step
    for c, ze, qe in bases:
        out = _times_binomial(out, c, ze, qe + shift)
    return out


def poch_infinite(ctx: EvalContext, base, step: int, *, strict: bool = True) -> QSeries:
    """Infinite product prod_{t>=0} prod_b (1 - b*q^(t*step)).

    base is one triple b = (coeff, zexp, qexp) or a tuple of them, and the
    result is the product over all of them, built one binomial factor at a
    time; factors beyond the truncation order are dropped. It is exact to
    the order when every folded factor exponent is >= 0; otherwise the
    caller lifts, as for poch_finite. A factor whose folded form is pure-q
    with nonpositive exponent is exact but signals a product outside the
    usual convergence region; strict mode rejects it unless the factor is
    identically zero (which collapses the product).
    """
    if step < 1:
        raise ValueError("poch_infinite step must be >= 1")
    return _poch_infinite_cached(ctx, _bases(ctx, base), step, strict)


@lru_cache(maxsize=None)
def _poch_infinite_cached(ctx, bases, step, strict):
    if _vanishes(ctx, bases, step, None, strict):
        return zero(ctx)
    out = one(ctx)
    # Folded exponents grow with t, so every factor past `last` is above the order.
    last = max(((ctx.order - qe) // step for _, _, qe in bases), default=-1)
    for t in range(last + 1):
        for c, ze, qe in bases:
            out = _times_binomial(out, c, ze, qe + t * step)
    return out


def qbinomial(ctx: EvalContext, n: int, k: int) -> QSeries:
    """Gaussian binomial coefficient as a series (zero when out of range)."""
    if k < 0 or k > n:
        return zero(ctx)
    return _qbinomial_cached(ctx, n, k)


@lru_cache(maxsize=None)
def _qbinomial_cached(ctx, n, k):
    d = ctx.scale
    num = poch_finite(ctx, (1, 0, d), d, n)
    den = poch_finite(ctx, (1, 0, d), d, k) * poch_finite(ctx, (1, 0, d), d, n - k)
    return num * den.invert()


def dilate(s: QSeries, m: int) -> QSeries:
    """Multiply every q-exponent by m (substitute q^(1/d) -> q^(m/d))."""
    if m < 1:
        raise ValueError("dilation factor must be >= 1")
    out = {}
    for qe, zd in s._c.items():
        if qe * m <= s.ctx.order:
            out[qe * m] = dict(zd)
    return QSeries(s.ctx, out, _trusted=True)


# -- comparison and display -------------------------------------------------


def first_mismatch(a: QSeries, b: QSeries):
    """Lowest differing (qexp, zexp, coeff_a, coeff_b), or None if equal."""
    if a.ctx != b.ctx:
        raise ContextMismatchError(f"contexts differ: {a.ctx} vs {b.ctx}")
    for qe in sorted(set(a._c) | set(b._c)):
        za = a._c.get(qe, {})
        zb = b._c.get(qe, {})
        for ze in sorted(set(za) | set(zb)):
            ca = za.get(ze, _ZERO)
            cb = zb.get(ze, _ZERO)
            if ca != cb:
                return qe, ze, ca, cb
    return None


def equal_up_to(a: QSeries, b: QSeries) -> bool:
    return first_mismatch(a, b) is None


def _fmt_qexp(qe: int, scale: int) -> str:
    if qe % scale == 0:
        return str(qe // scale)
    f = Fraction(qe, scale)
    return f"{f.numerator}/{f.denominator}"


def render(s: QSeries, max_terms: int = 200) -> str:
    """Human-readable listing, one q-exponent per line."""
    lines = []
    count = 0
    for qe in sorted(s._c):
        parts = []
        zd = s._c[qe]
        for ze in sorted(zd):
            c = zd[ze]
            if ze == 0:
                parts.append(str(c))
            elif ze == 1:
                parts.append(f"{c}*z")
            else:
                parts.append(f"{c}*z^{ze}")
            count += 1
        lines.append(f"q^{_fmt_qexp(qe, s.ctx.scale)}: " + " + ".join(parts))
        if count >= max_terms:
            lines.append("...")
            break
    return "\n".join(lines) if lines else "0"
