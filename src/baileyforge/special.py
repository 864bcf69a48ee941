"""Closed-form Appell-Lerch and Hecke-type sums, kept as a reference.

The DSL evaluator sums every ``appell(...)`` and ``hecke(...)`` node term by
term and does not call this module. What is left here has two jobs:

* it is an independent closed-form reference for those two node kinds:
  ``appell_lerch_sum`` (``AppellLerchSpec``) and ``hecke_sum``
  (``HeckeSpec``) rewrite a negative denominator exponent and expand each
  geometric tail (``_geom_tail``) on their own, and the tests compare the
  evaluator against them;
* the benchmark's layer probes trace ``appell_lerch_sum``, ``hecke_sum`` and
  ``geometric_inverse`` by name, which is also why the package imports this
  module.

All exponent arguments are in scaled units of the evaluation context.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import PoleError, RegionError, TerminationError
from .series import EvalContext, QSeries, hard_cap, monomial, zero

__all__ = [
    "AppellLerchSpec",
    "HeckeSpec",
    "appell_lerch_sum",
    "hecke_sum",
    "geometric_inverse",
]


@lru_cache(maxsize=None)
def geometric_inverse(ctx: EvalContext, sign: int, qexp: int) -> QSeries:
    """Series 1/(1 + sign*q^qexp) for qexp > 0, via the geometric expansion."""
    if qexp <= 0:
        raise ValueError("geometric_inverse needs a positive exponent")
    out = zero(ctx)
    k = 0
    while k * qexp <= ctx.order:
        out = out + monomial(ctx, (-sign) ** (k % 2), 0, k * qexp)
        k += 1
    return out


def _geom_tail(ctx: EvalContext, coeff, zexp: int, qexp: int, sign: int, dexp: int) -> QSeries:
    """Window part of coeff * z^zexp * q^qexp / (1 + sign*q^dexp), dexp > 0.

    The expansion runs until the folded exponent clears the order, so a
    numerator dipping below q^0 still gets its full geometric tail.
    """
    zi = ctx.z_interp
    folded = qexp + (zexp * zi.qexp if zi is not None else 0)
    out = zero(ctx)
    k = 0
    while folded + k * dexp <= ctx.order:
        out = out + monomial(ctx, coeff * (-sign) ** (k % 2), zexp, qexp + k * dexp)
        k += 1
    return out


@dataclass(frozen=True)
class AppellLerchSpec:
    """Bilateral sum of (-1)^(alt*n) z^(zpow*n) q^(quad*n^2+lin*n+const) / (1 + den_sign*q^(den_coef*n+den_shift)).

    quad/lin are Fractions in scaled units; the exponent must be integral for
    every n, so 2*quad and quad+lin are integers. quad > 0 drives termination.
    """

    alt: int
    zpow: int
    quad: Fraction
    lin: Fraction
    den_sign: int
    den_coef: int
    den_shift: int = 0
    const: int = 0

    def __post_init__(self):
        object.__setattr__(self, "quad", Fraction(self.quad))
        object.__setattr__(self, "lin", Fraction(self.lin))
        if self.alt not in (0, 1):
            raise ValueError("alt must be 0 or 1")
        if self.den_sign not in (1, -1):
            raise ValueError("den_sign must be +1 or -1")
        if self.quad <= 0:
            raise ValueError("quadratic exponent coefficient must be positive")
        if (2 * self.quad).denominator != 1 or (self.quad + self.lin).denominator != 1:
            raise ValueError("exponent must be integral at every index")

    def exponent(self, n: int) -> int:
        e = self.quad * n * n + self.lin * n
        return int(e) + self.const


def appell_lerch_sum(ctx: EvalContext, spec: AppellLerchSpec) -> QSeries:
    """Evaluate an Appell-Lerch sum over all integers n.

    Denominators with nonpositive exponent E = den_coef*n + den_shift are
    rewritten: 1/(1+q^E) = q^(-E)/(q^(-E)+1) and 1/(1-q^E) = -q^(-E)/(1-q^(-E)).
    E = 0 gives coefficient 1/2 for sign +1 and a pole for sign -1.
    """
    zi = ctx.z_interp
    cap = hard_cap(ctx)

    def min_order(n):
        e = spec.exponent(n)
        if zi is not None:
            e += spec.zpow * n * zi.qexp
        den = spec.den_coef * n + spec.den_shift
        if den < 0:
            e += -den
        return e

    if min_order(cap) <= ctx.order or min_order(-cap) <= ctx.order:
        raise TerminationError("Appell-Lerch sum does not leave the window")
    acc = zero(ctx)
    for n in range(-cap, cap + 1):
        if min_order(n) > ctx.order:
            continue
        coeff = Fraction(-1) ** ((spec.alt * n) % 2)
        ze = spec.zpow * n
        e = spec.exponent(n)
        den = spec.den_coef * n + spec.den_shift
        if den > 0:
            term = _geom_tail(ctx, coeff, ze, e, spec.den_sign, den)
        elif den == 0:
            if spec.den_sign == -1:
                raise PoleError(f"denominator vanishes at index {n}")
            term = monomial(ctx, coeff * Fraction(1, 2), ze, e)
        else:
            # 1/(1 + s*q^den) = s*q^(-den)/(1 + s*q^(-den)) for den < 0.
            term = _geom_tail(ctx, coeff * spec.den_sign, ze, e - den, spec.den_sign, -den)
        acc = acc + term
    return acc


@dataclass(frozen=True)
class HeckeSpec:
    """Double sum over n >= 0 and j in a region of (-1)^(alt*j) z^(zpow*j) q^(outer(n)+inner(j)).

    outer = (a2, a1, a0) and inner = (b2, b1) are scaled-unit Fraction
    coefficient tuples; region is "full" (|j| <= n) or "half" (|j| <= n//2);
    den, when present, is (sign, coef, shift) for 1 + sign*q^(coef*j+shift).
    """

    region: str
    alt: int
    zpow: int
    outer: tuple
    inner: tuple
    den: tuple | None = None

    def __post_init__(self):
        if self.region not in ("full", "half"):
            raise ValueError("region must be 'full' or 'half'")
        object.__setattr__(self, "outer", tuple(Fraction(c) for c in self.outer))
        object.__setattr__(self, "inner", tuple(Fraction(c) for c in self.inner))

    def outer_exp(self, n: int) -> Fraction:
        a2, a1, a0 = self.outer
        return a2 * n * n + a1 * n + a0

    def inner_exp(self, j: int) -> Fraction:
        b2, b1 = self.inner
        return b2 * j * j + b1 * j

    def jrange(self, n: int):
        m = n if self.region == "full" else n // 2
        return range(-m, m + 1)


def hecke_sum(ctx: EvalContext, spec: HeckeSpec) -> QSeries:
    """Evaluate a Hecke-type double sum.

    The per-row minimal retained exponent must be nondecreasing from row 2
    on; rows stop once it passes the order. Denominator exponents are
    rewritten exactly as in the Appell-Lerch evaluator.
    """
    zi = ctx.z_interp
    cap = hard_cap(ctx)

    def term_parts(n, j):
        e = spec.outer_exp(n) + spec.inner_exp(j)
        if e.denominator != 1:
            raise ValueError(f"non-integral exponent at (n={n}, j={j})")
        e = int(e)
        den = None
        extra = 0
        if spec.den is not None:
            sign, coef, shift = spec.den
            dexp = coef * j + shift
            den = (sign, dexp)
            if dexp < 0:
                extra = -dexp
        folded = e + (spec.zpow * j * zi.qexp if zi is not None else 0)
        return e, den, folded + extra

    def row_min(n):
        vals = [term_parts(n, j)[2] for j in spec.jrange(n)]
        return min(vals) if vals else None

    acc = zero(ctx)
    prev = None
    n = 0
    while n <= cap:
        m = row_min(n)
        if n >= 2 and prev is not None and m < prev:
            raise RegionError(
                f"row minimal exponent decreased at n={n}: {m} < {prev}"
            )
        if n >= 2:
            prev = m
        if n >= 2 and m > ctx.order:
            break
        for j in spec.jrange(n):
            e, den, mo = term_parts(n, j)
            if mo > ctx.order:
                continue
            coeff = Fraction(-1) ** ((spec.alt * j) % 2)
            ze = spec.zpow * j
            if den is None:
                acc = acc + monomial(ctx, coeff, ze, e)
                continue
            sign, dexp = den
            if dexp > 0:
                acc = acc + _geom_tail(ctx, coeff, ze, e, sign, dexp)
            elif dexp == 0:
                if sign == -1:
                    raise PoleError(f"denominator vanishes at (n={n}, j={j})")
                acc = acc + monomial(ctx, coeff * Fraction(1, 2), ze, e)
            else:
                # 1/(1 + s*q^dexp) = s*q^(-dexp)/(1 + s*q^(-dexp)) for dexp < 0.
                acc = acc + _geom_tail(ctx, coeff * sign, ze, e - dexp, sign, -dexp)
        n += 1
    else:
        raise TerminationError("Hecke sum rows never left the window")
    return acc
