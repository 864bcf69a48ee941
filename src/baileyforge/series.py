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
from itertools import groupby

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


def hard_cap(ctx: EvalContext) -> int:
    """Universal bound on summation index magnitude."""
    return 4 * (ctx.order + 1)


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
                _ints({qe: {ze: v * c for ze, v in zd.items()} for qe, zd in self._c.items()}),
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
        return QSeries(self.ctx, _ints(res), _trusted=True)


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
    """Add the table src into target, in place; an integral sum is kept as an int."""
    for qe, zd in src.items():
        row = target.get(qe)
        if row is None:
            target[qe] = dict(zd)
            continue
        for ze, c in zd.items():
            s = row.get(ze, _ZERO) + c
            if s:
                row[ze] = s if type(s) is int or s.denominator != 1 else s.numerator
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
            _check_keys(ctx, {e0: {a: c}})
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


def _factors(runs, n: int) -> list:
    """The factors (c, a, e) of runs with e < n."""
    out = []
    for c, a, e, d, count in runs:
        stop = n if count is None else min(n, e + count * d)
        out.extend([(c, a, x) for x in range(e, stop, d)])
    return out


def times_binomials(s: QSeries, num=(), den=(), lead=(1, 0, 0)) -> QSeries:
    """s * lead * prod_num / prod_den of runs of binomials, at s's order.

    lead = (coeff, zexp, qexp) is a folded monomial, and num and den hold
    folded runs (c, a, e, d, count) of factors 1 - c*z^a*q^(e + u*d) with
    e >= 0, as ``binomials`` gives them. The table is copied once, shifted
    by lead. Each numerator factor is then applied by a descending pass
    row[i] -= c*z^a*row[i-e], and each divisor by the ascending recurrence
    row[i] += c*z^a*row[i-e]; factors past the order of the copy are 1
    there. Both passes are exact at the order whatever the valuation of s,
    so no factor lifts the order, needs a series of its own or reaches
    ``QSeries.invert``. The shift by lead is exact when its exponent is
    >= 0 or s is a monomial. A divisor needs e > 0: 1 - c*z^a with no
    q-power is not a unit.
    """
    ctx = s.ctx
    for _, a, e, _, _ in den:
        if e <= 0:
            raise NonUnitLeadingError(
                f"divisor 1 - c*z^{a}*q^{e} has no positive q-exponent"
            )
    lc, lz, lq = lead
    lc = _exact(lc)
    if not s._c or not lc:
        return zero(ctx)
    lo = min(s._c) + lq
    n = ctx.order - lo + 1
    if n <= 0:
        return zero(ctx)
    # A factor without z acts on each z-column alone: a pass over one dense
    # list of coefficients, q-exponents lo .. lo + n - 1.
    cols: dict = {}
    for e, zd in s._c.items():
        i = e + lq - lo
        if i < n:
            for z, v in zd.items():
                col = cols.get(z + lz)
                if col is None:
                    col = cols[z + lz] = [0] * n
                col[i] = v * lc
    num = _factors(num, n)
    den = _factors(den, n)
    qnum = [f for f in num if not f[1]]
    qden = [f for f in den if not f[1]]
    for col in cols.values():
        _column_passes(col, qnum, qden)
    znum = [f for f in num if f[1]]
    zden = [f for f in den if f[1]]
    if znum or zden:
        data = _row_passes(cols, n, lo, znum, zden)
    else:
        data = {}
        for z, col in cols.items():
            for i, v in enumerate(col):
                if v:
                    data.setdefault(lo + i, {})[z] = v
    return QSeries(ctx, _ints(data), _trusted=True)


def _column_passes(a: list, num, den) -> None:
    """Apply pure-q factors to one dense coefficient list, in place."""
    n = len(a)
    for c, _, e in num:
        if not e:
            a[:] = [x - c * x for x in a]
            continue
        for i in range(n - 1, e - 1, -1):
            v = a[i - e]
            if v:
                a[i] -= c * v
    for c, _, e in den:
        for i in range(e, n):
            v = a[i - e]
            if v:
                a[i] += c * v


def _row_passes(cols: dict, n: int, lo: int, num, den) -> dict:
    """Apply factors carrying z to z-Laurent rows (dicts), one per q-exponent."""
    rows: list = [None] * n
    for z, col in cols.items():
        for i, v in enumerate(col):
            if v:
                row = rows[i]
                if row is None:
                    rows[i] = {z: v}
                else:
                    row[z] = v
    for c, a, e in num:
        if not e:
            for i, row in enumerate(rows):
                if row:
                    rows[i] = _axpy(dict(row), row, -c, a)
            continue
        for i in range(n - 1, e - 1, -1):
            src = rows[i - e]
            if src:
                rows[i] = _axpy(rows[i], src, -c, a)
    for c, a, e in den:
        for i in range(e, n):
            src = rows[i - e]
            if src:
                rows[i] = _axpy(rows[i], src, c, a)
    data: dict = {}
    for i, row in enumerate(rows):
        if row:
            row = {z: v for z, v in row.items() if v}
            if row:
                data[lo + i] = row
    return data


def _axpy(row, src: dict, c, a: int) -> dict:
    """row + c * z^a * src, into row unless it is None; zeros are kept."""
    if row is None:
        return {z + a: c * v for z, v in src.items()}
    get = row.get
    for z, v in src.items():
        row[z + a] = get(z + a, 0) + c * v
    return row


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


def retruncate(s: QSeries, ctx: EvalContext) -> QSeries:
    """Restrict a series computed at a higher order back to ctx."""
    if s.ctx == ctx:
        return s
    data: dict[int, dict] = {}
    for qe, ze, c in s.terms():
        if qe <= ctx.order:
            data.setdefault(qe, {})[ze] = c
    return QSeries(ctx, data)


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
