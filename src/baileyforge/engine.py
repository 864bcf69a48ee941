"""Bilateral pair machinery: the main pair, its transforms, and evaluators.

A bilateral pair at dilation r (base q^(r/d) under a scale-d context) is a
pair of sequences alpha_n (n ranging over all integers) and beta_n (zero
for n < 0) tied by the defining convolution

    beta_n = sum_{j=-n..n} alpha_j / ((Q;Q)_{n-j} (Q;Q)_{n+j}),   Q = q^r.

Transforms produce new pairs from old (square-weight chain step, two-limit
chain step, and two halving lattice walks); evaluators turn a pair into the
two sides of a summation identity. Sums alternating toward a nonzero
coefficientwise limit are evaluated in the Abel sense:

    sum (-1)^n c_n := c_inf/2 + sum_{n>=0} (-1)^n (c_n - c_inf),

which needs the pair to carry its coefficientwise beta limit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .errors import BudgetError, NegativeFloorError, NonUnitLeadingError, TerminationError
from .series import (
    EvalContext,
    QSeries,
    binomials,
    monomial,
    one,
    poch_finite,
    poch_infinite,
    times_binomials,
    zero,
)
from .special import geometric_inverse, hard_cap

__all__ = [
    "INFINITE",
    "BilateralPair",
    "key_pair",
    "closed_form_djk_pair",
    "closed_form_jouhet_pair",
    "verify_pair_definition",
    "weak_lemma_eval",
    "chain_step",
    "general_chain_step",
    "bms_general_eval",
    "lattice_djk",
    "lattice_jouhet",
    "iterated_lattice_eval",
    "definition_limit_eval",
    "aw_lemma_eval",
    "multisum_lhs",
]


class _InfiniteLimit:
    def __repr__(self):
        return "INFINITE"


INFINITE = _InfiniteLimit()


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


@dataclass
class BilateralPair:
    """Bilateral pair with termination metadata.

    alpha_floor(n) must lower-bound the minimal retained q-exponent of
    alpha(n) (z interpretation already folded in); beta(n) must have
    nonnegative minimal exponent. beta_limit, when present, returns the
    coefficientwise limit of beta_n.
    """

    ctx: EvalContext
    dilation: int
    alpha: Callable[[int], QSeries]
    beta: Callable[[int], QSeries]
    alpha_floor: Callable[[int], int]
    beta_limit: Callable[[], QSeries] | None = None
    label: str = ""


def _memo_seq(fn):
    cache: dict[int, QSeries] = {}

    def wrapped(n: int) -> QSeries:
        if n not in cache:
            cache[n] = fn(n)
        return cache[n]

    return wrapped


def _memo_thunk(fn):
    box: list = []

    def wrapped() -> QSeries:
        if not box:
            box.append(fn())
        return box[0]

    return wrapped


def _zfold(ctx: EvalContext) -> int:
    zi = ctx.z_interp
    return zi.qexp if zi is not None else 0


def _over_poch(s: QSeries, base, step: int, length) -> QSeries:
    """s / (base; q^step)_length (length None: the infinite product), divided in place."""
    (c, ze, qe), runs = binomials(s.ctx, base, step, length)
    if not c:
        raise NonUnitLeadingError("cannot invert the zero series")
    return times_binomials(s, (), runs, (Fraction(1) / c, -ze, -qe))


@lru_cache(maxsize=None)
def _inv_poch(ctx, base, step, length):
    """1 / (base; q^step)_length; length None is the infinite product."""
    return _over_poch(one(ctx), base, step, length)


def _inv_one_plus(ctx: EvalContext, qexp: int) -> QSeries:
    """1/(1+q^qexp) for any sign of qexp, with the negative-exponent rewrite."""
    if qexp > 0:
        return geometric_inverse(ctx, 1, qexp)
    if qexp == 0:
        return monomial(ctx, Fraction(1, 2))
    return monomial(ctx, 1, 0, -qexp) * geometric_inverse(ctx, 1, -qexp)


def poch_signed(ctx: EvalContext, base, step: int, n: int) -> QSeries:
    """Pochhammer with integer index of either sign."""
    if n >= 0:
        return poch_finite(ctx, base, step, n)
    c, ze, qe = base
    m = -n
    return _inv_poch(ctx, (Fraction(c), ze, qe - m * step), step, m)


def _over_poch_signed(s: QSeries, base, step: int, n: int) -> QSeries:
    """s / poch_signed(base, step, n): an in-place division, or for n < 0 a product."""
    if n >= 0:
        return _over_poch(s, base, step, n)
    c, ze, qe = base
    return s * poch_finite(s.ctx, (c, ze, qe + n * step), step, -n)


def poch_signed_min(qe: int, step: int, n: int) -> int:
    """Exact minimal q-exponent of a signed pure-q Pochhammer factor."""
    if n >= 0:
        return sum(min(0, qe + t * step) for t in range(n))
    m = -n
    return -sum(min(0, qe - t * step) for t in range(1, m + 1))


def _lift_ctx(ctx: EvalContext, lift: int) -> EvalContext:
    return EvalContext(ctx.scale, ctx.order + lift, ctx.z_interp) if lift > 0 else ctx


def retruncate(s: QSeries, ctx: EvalContext) -> QSeries:
    """Restrict a series computed at a higher order back to ctx."""
    if s.ctx == ctx:
        return s
    data: dict[int, dict] = {}
    for qe, ze, c in s.terms():
        if qe <= ctx.order:
            data.setdefault(qe, {})[ze] = c
    return QSeries(ctx, data)


def _qshift(s: QSeries, e: int) -> QSeries:
    """Multiply by q^e term by term; exact for e >= 0, unlike a truncated
    monomial whose exponent may overflow the order on its own."""
    data: dict[int, dict] = {}
    for qe, ze, c in s.terms():
        if qe + e <= s.ctx.order:
            data.setdefault(qe + e, {})[ze] = c
    return QSeries(s.ctx, data)


# -- pair constructors ------------------------------------------------------


def key_pair(ctx: EvalContext, dilation: int | None = None) -> BilateralPair:
    """The main pair: alpha_n = (-1)^n z^n Q^binom(n,2), beta_n = (z, Q/z; Q)_n / (Q; Q)_2n."""
    r = ctx.scale if dilation is None else dilation
    a = _zfold(ctx)

    def alpha(n: int) -> QSeries:
        return monomial(ctx, (-1) ** (n % 2), n, r * n * (n - 1) // 2)

    def beta(n: int) -> QSeries:
        if n < 0:
            return zero(ctx)
        num = poch_finite(ctx, ((1, 1, 0), (1, -1, r)), r, n)
        return num * _inv_poch(ctx, (Fraction(1), 0, r), r, 2 * n)

    def floor(n: int) -> int:
        return r * n * (n - 1) // 2 + n * a

    def limit() -> QSeries:
        prod = poch_infinite(ctx, ((1, 1, 0), (1, -1, r)), r, strict=False)
        return prod * _inv_poch(ctx, (Fraction(1), 0, r), r, None)

    return BilateralPair(
        ctx, r, _memo_seq(alpha), _memo_seq(beta), floor, _memo_thunk(limit), "key"
    )


def closed_form_djk_pair(ctx: EvalContext, dilation: int | None = None) -> BilateralPair:
    """Closed form of the halving lattice walk that rescales alpha."""
    u = ctx.scale if dilation is None else dilation
    a = _zfold(ctx)

    def alpha(n: int) -> QSeries:
        num = monomial(ctx, 2 * (-1) ** (n % 2), n, u * n * n)
        return num * _inv_one_plus(ctx, 2 * u * n)

    def beta(n: int) -> QSeries:
        if n < 0:
            return zero(ctx)
        acc = zero(ctx)
        for j in range(n + 1):
            t = poch_finite(ctx, (-1, 0, 0), u, 2 * j)
            t = t * poch_finite(ctx, ((1, 1, 0), (1, -1, 2 * u)), 2 * u, j)
            t = t * monomial(ctx, 1, 0, u * j)
            t = t * _inv_poch(ctx, (Fraction(1), 0, 2 * u), 2 * u, n - j)
            t = t * _inv_poch(ctx, (Fraction(1), 0, 2 * u), 2 * u, 2 * j)
            acc = acc + t
        return acc

    def floor(n: int) -> int:
        e = u * n * n + n * a
        if n < 0:
            e += 2 * u * (-n)
        return e

    return BilateralPair(ctx, u, _memo_seq(alpha), _memo_seq(beta), floor, None, "closed-djk")


def closed_form_jouhet_pair(ctx: EvalContext, dilation: int | None = None) -> BilateralPair:
    """Closed form of the halving lattice walk that keeps alpha fixed."""
    u = ctx.scale if dilation is None else dilation
    a = _zfold(ctx)

    def alpha(n: int) -> QSeries:
        return monomial(ctx, (-1) ** (n % 2), n, u * n * (n - 1))

    def beta(n: int) -> QSeries:
        if n < 0:
            return zero(ctx)
        acc = zero(ctx)
        for j in range(n + 1):
            t = poch_finite(ctx, ((1, 1, 0), (1, -1, 2 * u)), 2 * u, j)
            t = t * monomial(ctx, 1, 0, u * (n - j))
            t = t * _inv_poch(ctx, (Fraction(1), 0, 2 * u), 2 * u, n - j)
            t = t * _inv_poch(ctx, (Fraction(1), 0, u), u, 2 * j)
            acc = acc + t
        return acc

    def floor(n: int) -> int:
        return u * n * (n - 1) + n * a

    return BilateralPair(ctx, u, _memo_seq(alpha), _memo_seq(beta), floor, None, "closed-jouhet")


# -- pair verification ------------------------------------------------------


def verify_pair_definition(pair: BilateralPair, n_max: int) -> bool:
    """Check the defining convolution for 0 <= n <= n_max (and vanishing below)."""
    ctx, r = pair.ctx, pair.dilation
    for n in (-1, -2, -3):
        if not pair.beta(n).is_zero():
            return False
    for n in range(n_max + 1):
        acc = zero(ctx)
        for j in range(-n, n + 1):
            t = pair.alpha(j)
            t = t * _inv_poch(ctx, (Fraction(1), 0, r), r, n - j)
            t = t * _inv_poch(ctx, (Fraction(1), 0, r), r, n + j)
            acc = acc + t
        if acc != pair.beta(n):
            return False
    return True


# -- summation scaffolding --------------------------------------------------


def _indices(bound, order, cap, *, bilateral, budget):
    """All indices whose lower bound clears the order, guarded at the cap."""
    if bilateral:
        rng = range(-cap, cap + 1)
        if bound(cap) <= order or bound(-cap) <= order:
            raise TerminationError("bilateral sum does not leave the window by the cap")
    else:
        rng = range(cap + 1)
        if bound(cap) <= order:
            raise TerminationError("sum does not leave the window by the cap")
    out = []
    for n in rng:
        if bound(n) <= order:
            out.append(n)
    budget.spend(len(out))
    return out


def _abel_alternating(ctx, term, term_limit, budget) -> QSeries:
    """Abel value of sum_{n>=0} (-1)^n term(n) with term(n) -> term_limit."""
    acc = term_limit * Fraction(1, 2)
    zeros = 0
    n = 0
    cap = hard_cap(ctx)
    while zeros < 3:
        if n > cap:
            raise TerminationError("alternating tail failed to stabilize by the cap")
        budget.spend()
        diff = term(n) - term_limit
        if diff.is_zero():
            zeros += 1
        else:
            zeros = 0
            acc = acc + diff * ((-1) ** (n % 2))
        n += 1
    return acc


# -- two-limit weight machinery ---------------------------------------------


@dataclass(frozen=True)
class _Weights:
    """Weights of the two-limit evaluator at (x, y) and dilation r.

    The beta weight is (x, y; Q)_n (Q/xy)^n with infinite limits folded in
    by the rule (x; Q)_n x^(-n) -> (-1)^n Q^binom(n,2); the alpha weight
    divides it by (Q/x, Q/y; Q)_n. Minimal-exponent companions are exact.
    """

    ctx: EvalContext
    r: int
    x: object
    y: object

    def beta_weight(self, n: int) -> QSeries:
        # Factors with negative minimal exponents can cancel against large
        # positive partial minima; work at a lifted order, then re-truncate.
        ctx, r = self.ctx, self.r
        lift = 0
        qshift = r * n
        for p in (self.x, self.y):
            if p is INFINITE:
                qshift += r * n * (n - 1) // 2
            else:
                lift += max(0, -poch_signed_min(p.qexp, r, n))
                qshift -= p.qexp * n
        lift += max(0, -qshift)
        wctx = _lift_ctx(ctx, lift)
        out = one(wctx)
        sign = 1
        for p in (self.x, self.y):
            if p is not INFINITE:
                out = out * poch_signed(wctx, (p.sign, 0, p.qexp), r, n)
            if (p is INFINITE or p.sign == -1) and n % 2:
                sign = -sign
        return retruncate(out * monomial(wctx, sign, 0, qshift), ctx)

    def beta_weight_min(self, n: int) -> int:
        r = self.r
        e = r * n
        for p in (self.x, self.y):
            if p is INFINITE:
                e += r * n * (n - 1) // 2
            else:
                e += poch_signed_min(p.qexp, r, n) - p.qexp * n
        return e

    def alpha_weight(self, n: int) -> QSeries:
        # Lift past the exact negativity of each factor so that the
        # numerator/denominator cancellation survives truncation.
        ctx, r = self.ctx, self.r
        lift = max(0, -self.beta_weight_min(n))
        for p in (self.x, self.y):
            if p is not INFINITE:
                lift += max(0, poch_signed_min(r - p.qexp, r, n))
        wctx = _lift_ctx(ctx, lift)
        w = self if wctx is ctx else _Weights(wctx, r, self.x, self.y)
        out = w.beta_weight(n)
        for p in (self.x, self.y):
            if p is not INFINITE:
                out = _over_poch_signed(out, (p.sign, 0, r - p.qexp), r, n)
        return retruncate(out, ctx)

    def alpha_weight_min(self, n: int) -> int:
        e = self.beta_weight_min(n)
        for p in (self.x, self.y):
            if p is not INFINITE:
                e -= poch_signed_min(self.r - p.qexp, self.r, n)
        return e

    def prefactor(self) -> QSeries:
        ctx, r = self.ctx, self.r
        out = _inv_poch(ctx, (Fraction(1), 0, r), r, None)
        for p in (self.x, self.y):
            if p is not INFINITE:
                out = out * poch_infinite(ctx, (p.sign, 0, r - p.qexp), r, strict=False)
        if self.x is not INFINITE and self.y is not INFINITE:
            sigma = self.x.sign * self.y.sign
            kappa = r - self.x.qexp - self.y.qexp
            out = out * _inv_poch(ctx, (Fraction(sigma), 0, kappa), r, None)
        return out

    def abel_sign(self):
        """-1 when the beta side is alternating with a unit power part."""
        if self.x is INFINITE or self.y is INFINITE:
            return None
        if self.r - self.x.qexp - self.y.qexp == 0 and self.x.sign * self.y.sign == -1:
            return -1
        return None


def _abel_beta_side(pair: BilateralPair, x, y, budget) -> QSeries:
    """Abel value of sum_n (x, y; Q)_n (-1)^n beta_n for the zero-growth setting."""
    ctx, r = pair.ctx, pair.dilation
    if pair.beta_limit is None:
        raise TerminationError("alternating zero-growth sum needs a pair with a beta limit")

    bases = ((x.sign, 0, x.qexp), (y.sign, 0, y.qexp))

    def term(n):
        return poch_finite(ctx, bases, r, n) * pair.beta(n)

    lim = poch_infinite(ctx, bases, r, strict=False) * pair.beta_limit()
    return _abel_alternating(ctx, term, lim, budget)


def bms_general_eval(pair: BilateralPair, x, y):
    """Both sides of the two-limit bilateral summation at (x, y).

    Returns (lhs, rhs): lhs sums beta-weight * beta_n over n >= 0, rhs is
    the prefactor times the bilateral alpha-weighted sum. The alternating
    zero-growth setting is evaluated in the Abel sense and needs the pair's
    beta limit.
    """
    ctx = pair.ctx
    w = _Weights(ctx, pair.dilation, x, y)
    budget = _Budget()
    cap = hard_cap(ctx)

    if w.abel_sign() is not None:
        lhs = _abel_beta_side(pair, x, y, budget)
    else:
        lhs = zero(ctx)
        for n in _indices(w.beta_weight_min, ctx.order, cap, bilateral=False, budget=budget):
            lhs = lhs + w.beta_weight(n) * pair.beta(n)

    def alpha_bound(n):
        return w.alpha_weight_min(n) + pair.alpha_floor(n)

    asum = zero(ctx)
    for n in _indices(alpha_bound, ctx.order, cap, bilateral=True, budget=budget):
        asum = asum + w.alpha_weight(n) * pair.alpha(n)
    rhs = w.prefactor() * asum
    return lhs, rhs


# -- the five collected single-sum forms ------------------------------------


def weak_lemma_eval(pair: BilateralPair, variant: str):
    """Both sides of the five collected single-sum forms V1..V5.

    V1: square weights; V2: half-square weights with the odd-shift product
    (even dilation only); V3: alternating step-2 product, Abel on the beta
    side, printed factor 2 on the left; V4: triangular weights with the
    shifted product; V5: shifted-triangular weights with the unshifted
    product and split poles on the right.
    """
    ctx, r = pair.ctx, pair.dilation
    budget = _Budget()
    cap = hard_cap(ctx)
    inv_euler = _inv_poch(ctx, (Fraction(1), 0, r), r, None)

    def beta_sum(weight, weight_min):
        acc = zero(ctx)
        for n in _indices(weight_min, ctx.order, cap, bilateral=False, budget=budget):
            acc = acc + weight(n) * pair.beta(n)
        return acc

    def alpha_sum(weight, weight_min):
        def bound(n):
            return weight_min(n) + pair.alpha_floor(n)

        acc = zero(ctx)
        for n in _indices(bound, ctx.order, cap, bilateral=True, budget=budget):
            acc = acc + weight(n) * pair.alpha(n)
        return acc

    if variant == "V1":
        lhs = beta_sum(lambda n: monomial(ctx, 1, 0, r * n * n), lambda n: r * n * n)
        rhs = inv_euler * alpha_sum(
            lambda n: monomial(ctx, 1, 0, r * n * n), lambda n: r * n * n
        )
        return lhs, rhs

    if variant == "V2":
        if r % 2:
            raise ValueError("V2 needs an even dilation (half-step exponents)")
        h = r // 2

        def wb(n):
            return monomial(ctx, 1, 0, h * n * n) * poch_finite(ctx, (-1, 0, h), r, n)

        lhs = beta_sum(wb, lambda n: h * n * n)
        rhs = (
            poch_infinite(ctx, (-1, 0, h), r)
            * inv_euler
            * alpha_sum(lambda n: monomial(ctx, 1, 0, h * n * n), lambda n: h * n * n)
        )
        return lhs, rhs

    if variant == "V3":
        if pair.beta_limit is None:
            raise TerminationError("V3 needs a pair with a beta limit")

        def term(n):
            return poch_finite(ctx, (1, 0, r), 2 * r, n) * pair.beta(n)

        lim = poch_infinite(ctx, (1, 0, r), 2 * r) * pair.beta_limit()
        lhs = _abel_alternating(ctx, term, lim, budget) * 2
        pref = poch_infinite(ctx, (1, 0, r), 2 * r) * _inv_poch(
            ctx, (Fraction(1), 0, 2 * r), 2 * r, None
        )
        rhs = pref * alpha_sum(lambda n: monomial(ctx, (-1) ** (n % 2)), lambda n: 0)
        return lhs, rhs

    if variant == "V4":

        def wb(n):
            return monomial(ctx, 1, 0, r * n * (n - 1) // 2) * poch_finite(
                ctx, (-1, 0, r), r, n
            )

        def wa(n):
            return monomial(ctx, 1, 0, r * n * (n - 1) // 2) * (
                one(ctx) + monomial(ctx, 1, 0, r * n)
            )

        def wa_min(n):
            return r * n * (n - 1) // 2 + min(0, r * n)

        lhs = beta_sum(wb, lambda n: r * n * (n - 1) // 2)
        pref = poch_infinite(ctx, (-1, 0, r), r) * inv_euler
        rhs = pref * alpha_sum(wa, wa_min)
        return lhs, rhs

    if variant == "V5":

        def wb(n):
            return monomial(ctx, 1, 0, r * n * (n + 1) // 2) * poch_finite(
                ctx, (-1, 0, 0), r, n
            )

        def wa(n):
            return monomial(ctx, 1, 0, r * n * (n + 1) // 2) * _inv_one_plus(ctx, r * n)

        def wa_min(n):
            return r * n * (n + 1) // 2 + (-r * n if n < 0 else 0)

        lhs = beta_sum(wb, lambda n: r * n * (n + 1) // 2)
        pref = 2 * poch_infinite(ctx, (-1, 0, r), r) * inv_euler
        rhs = pref * alpha_sum(wa, wa_min)
        return lhs, rhs

    raise ValueError(f"unknown variant {variant!r}")


# -- transforms -------------------------------------------------------------


def chain_step(pair: BilateralPair) -> BilateralPair:
    """Square-weight chain step: alpha'_n = Q^(n^2) alpha_n."""
    ctx, r = pair.ctx, pair.dilation

    def alpha(n: int) -> QSeries:
        return monomial(ctx, 1, 0, r * n * n) * pair.alpha(n)

    def beta(n: int) -> QSeries:
        if n < 0:
            return zero(ctx)
        acc = zero(ctx)
        for j in range(n + 1):
            t = monomial(ctx, 1, 0, r * j * j) * pair.beta(j)
            acc = acc + t * _inv_poch(ctx, (Fraction(1), 0, r), r, n - j)
        return acc

    def floor(n: int) -> int:
        return r * n * n + pair.alpha_floor(n)

    def limit() -> QSeries:
        budget = _Budget()
        acc = zero(ctx)
        for j in _indices(
            lambda v: r * v * v, ctx.order, hard_cap(ctx), bilateral=False, budget=budget
        ):
            acc = acc + monomial(ctx, 1, 0, r * j * j) * pair.beta(j)
        return _inv_poch(ctx, (Fraction(1), 0, r), r, None) * acc

    return BilateralPair(
        ctx, r, _memo_seq(alpha), _memo_seq(beta), floor, _memo_thunk(limit),
        f"chain({pair.label})",
    )


def general_chain_step(pair: BilateralPair, x, y) -> BilateralPair:
    """Two-limit chain step; reduces to chain_step when both limits are infinite."""
    ctx, r = pair.ctx, pair.dilation
    w = _Weights(ctx, r, x, y)
    if x is not INFINITE and y is not INFINITE:
        kernel_base = (Fraction(x.sign * y.sign), 0, r - x.qexp - y.qexp)
    else:
        kernel_base = None

    def alpha(n: int) -> QSeries:
        return w.alpha_weight(n) * pair.alpha(n)

    def beta(n: int) -> QSeries:
        if n < 0:
            return zero(ctx)
        acc = zero(ctx)
        for j in range(n + 1):
            t = w.beta_weight(j) * pair.beta(j)
            t = t * _inv_poch(ctx, (Fraction(1), 0, r), r, n - j)
            if kernel_base is not None:
                t = t * poch_finite(ctx, kernel_base, r, n - j)
            acc = acc + t
        for p in (x, y):
            if p is not INFINITE:
                acc = _over_poch(acc, (p.sign, 0, r - p.qexp), r, n)
        return acc

    def floor(n: int) -> int:
        return w.alpha_weight_min(n) + pair.alpha_floor(n)

    def limit() -> QSeries:
        budget = _Budget()
        if w.abel_sign() is not None:
            core = _abel_beta_side(pair, x, y, budget)
        else:
            core = zero(ctx)
            for j in _indices(
                w.beta_weight_min, ctx.order, hard_cap(ctx), bilateral=False, budget=budget
            ):
                core = core + w.beta_weight(j) * pair.beta(j)
        out = core * _inv_poch(ctx, (Fraction(1), 0, r), r, None)
        if kernel_base is not None:
            out = out * poch_infinite(ctx, kernel_base, r, strict=False)
        for p in (x, y):
            if p is not INFINITE:
                out = out * _inv_poch(ctx, (Fraction(p.sign), 0, r - p.qexp), r, None)
        return out

    return BilateralPair(
        ctx, r, _memo_seq(alpha), _memo_seq(beta), floor, _memo_thunk(limit),
        f"gchain({pair.label})",
    )


def lattice_djk(pair: BilateralPair) -> BilateralPair:
    """Halving lattice walk that rescales alpha by 2 Q^n / (1 + Q^(2n))."""
    ctx = pair.ctx
    if pair.dilation % 2:
        raise ValueError("lattice walk needs an even dilation")
    s = pair.dilation // 2

    def alpha(n: int) -> QSeries:
        return 2 * monomial(ctx, 1, 0, s * n) * _inv_one_plus(ctx, 2 * s * n) * pair.alpha(n)

    def beta(n: int) -> QSeries:
        if n < 0:
            return zero(ctx)
        acc = zero(ctx)
        for j in range(n + 1):
            t = poch_finite(ctx, (-1, 0, 0), s, 2 * j) * monomial(ctx, 1, 0, s * j)
            t = t * pair.beta(j)
            t = t * _inv_poch(ctx, (Fraction(1), 0, 2 * s), 2 * s, n - j)
            acc = acc + t
        return acc

    def floor(n: int) -> int:
        e = s * n + pair.alpha_floor(n)
        if n < 0:
            e += -2 * s * n
        return e

    def limit() -> QSeries:
        budget = _Budget()
        acc = zero(ctx)
        for j in _indices(
            lambda v: s * v, ctx.order, hard_cap(ctx), bilateral=False, budget=budget
        ):
            t = poch_finite(ctx, (-1, 0, 0), s, 2 * j) * monomial(ctx, 1, 0, s * j)
            acc = acc + t * pair.beta(j)
        return _inv_poch(ctx, (Fraction(1), 0, 2 * s), 2 * s, None) * acc

    return BilateralPair(
        ctx, s, _memo_seq(alpha), _memo_seq(beta), floor, _memo_thunk(limit),
        f"djk({pair.label})",
    )


def lattice_jouhet(pair: BilateralPair) -> BilateralPair:
    """Halving lattice walk that keeps alpha fixed."""
    ctx = pair.ctx
    if pair.dilation % 2:
        raise ValueError("lattice walk needs an even dilation")
    s = pair.dilation // 2

    def beta(n: int) -> QSeries:
        if n < 0:
            return zero(ctx)
        acc = zero(ctx)
        for j in range(n + 1):
            t = poch_finite(ctx, (-1, 0, s), s, 2 * j) * monomial(ctx, 1, 0, s * (n - j))
            t = t * pair.beta(j)
            t = t * _inv_poch(ctx, (Fraction(1), 0, 2 * s), 2 * s, n - j)
            acc = acc + t
        return acc

    def limit() -> QSeries:
        if pair.beta_limit is None:
            raise TerminationError("lattice limit needs the base pair's beta limit")
        budget = _Budget()
        tail = zero(ctx)
        for m in _indices(
            lambda v: s * v, ctx.order, hard_cap(ctx), bilateral=False, budget=budget
        ):
            tail = tail + monomial(ctx, 1, 0, s * m) * _inv_poch(
                ctx, (Fraction(1), 0, 2 * s), 2 * s, m
            )
        return poch_infinite(ctx, (-1, 0, s), s) * pair.beta_limit() * tail

    return BilateralPair(
        ctx, s, pair.alpha, _memo_seq(beta), pair.alpha_floor,
        _memo_thunk(limit), f"jouhet({pair.label})",
    )


def iterated_lattice_eval(ctx: EvalContext, which: str, k: int, x, y):
    """Both sides after k-1 lattice walks from the main pair at dilation 2^(k-1)."""
    if k < 2:
        raise ValueError("iterated walk needs k >= 2")
    if which == "djk":
        step = lattice_djk
    elif which == "jouhet":
        step = lattice_jouhet
    else:
        raise ValueError("which must be 'djk' or 'jouhet'")
    pair = key_pair(ctx, ctx.scale * 2 ** (k - 1))
    for _ in range(k - 1):
        pair = step(pair)
    return bms_general_eval(pair, x, y)


def definition_limit_eval(pair: BilateralPair):
    """Limit of the defining convolution: (beta limit, (Q;Q)_inf^-2 sum alpha)."""
    if pair.beta_limit is None:
        raise TerminationError("pair carries no beta limit")
    ctx, r = pair.ctx, pair.dilation
    budget = _Budget()
    acc = zero(ctx)
    for n in _indices(
        pair.alpha_floor, ctx.order, hard_cap(ctx), bilateral=True, budget=budget
    ):
        acc = acc + pair.alpha(n)
    inv_e = _inv_poch(ctx, (Fraction(1), 0, r), r, None)
    return pair.beta_limit(), inv_e * inv_e * acc


# -- double-sum transforms --------------------------------------------------


def aw_lemma_eval(pair: BilateralPair, which: str):
    """Both sides of the two double-sum transforms for pairs at even dilation.

    I:  sum (Q^2;Q^2)_2n Q^n beta_n / (-Q;Q)_{2n+1}
        = sum_n Q^(n(n+1)) sum_{|j|<=n} Q^(-j^2) alpha_j
    II: sum (Q;Q)_2n Q^n beta_n
        = sum_n Q^(binom(n+1,2)) sum_{|j|<=n//2} Q^(-2j^2) alpha_j
    with Q = q^u, u = dilation/2. Both sides must be genuine power series.
    """
    ctx = pair.ctx
    if pair.dilation % 2:
        raise ValueError("double-sum transform needs an even dilation")
    u = pair.dilation // 2
    budget = _Budget()
    cap = hard_cap(ctx)

    if which == "I":

        def lweight(n):
            t = poch_finite(ctx, (1, 0, 2 * u), 2 * u, 2 * n) * monomial(ctx, 1, 0, u * n)
            return t * _inv_poch(ctx, (Fraction(-1), 0, u), u, 2 * n + 1)

        def outer(n):
            return u * n * (n + 1)

        def jrange(n):
            return range(-n, n + 1)

        def inner_qexp(j):
            return -u * j * j

    elif which == "II":

        def lweight(n):
            return poch_finite(ctx, (1, 0, u), u, 2 * n) * monomial(ctx, 1, 0, u * n)

        def outer(n):
            return u * n * (n + 1) // 2

        def jrange(n):
            return range(-(n // 2), n // 2 + 1)

        def inner_qexp(j):
            return -2 * u * j * j

    else:
        raise ValueError("which must be 'I' or 'II'")

    lhs = zero(ctx)
    for n in _indices(lambda v: u * v, ctx.order, cap, bilateral=False, budget=budget):
        lhs = lhs + lweight(n) * pair.beta(n)

    def row_bound(n):
        return min(outer(n) + inner_qexp(j) + pair.alpha_floor(j) for j in jrange(n))

    rhs = zero(ctx)
    for n in _indices(row_bound, ctx.order, cap, bilateral=False, budget=budget):
        for j in jrange(n):
            # outer + inner >= 0 for |j| within the row, so the fused
            # shift is exact even when each part overflows the order.
            shift = outer(n) + inner_qexp(j)
            if shift + pair.alpha_floor(j) > ctx.order:
                continue
            budget.spend()
            rhs = rhs + _qshift(pair.alpha(j), shift)

    for side, name in ((lhs, "left"), (rhs, "right")):
        m = side.min_exponent()
        if m is not None and m < 0:
            raise NegativeFloorError(f"{name} side has negative minimal exponent {m}")
    return lhs, rhs


# -- literal multisums ------------------------------------------------------


def multisum_lhs(kind: str, k: int, ctx: EvalContext, pair: BilateralPair | None = None,
                 x=INFINITE, y=INFINITE) -> QSeries:
    """Literal bucketed enumeration of the k-fold chain multisums.

    Kinds: "AG1" (square weights at base q), "AG2" (square weights at base
    q^2 with the odd-shift product on the inner index), "LAT1"/"LAT2" (the
    two k-fold lattice multisums with two-limit outer weights). The inner
    index carries the main pair's beta at the matching dilation unless a
    pair is given explicitly.

    Structure: indices n_1 >= ... >= n_k >= 0; level i carries a weight
    W_i(n_i), each adjacent pair a kernel K_i(n_i - n_{i+1}) (plus a pure
    power coupling for LAT2), and the inner index a beta factor. Evaluated
    by dynamic programming from the outside in.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    d = ctx.scale
    budget = _Budget()
    cap = hard_cap(ctx)

    if kind in ("AG1", "AG2"):
        base = d if kind == "AG1" else 2 * d
        if pair is None:
            pair = key_pair(ctx, base)

        def weight(i, n):
            w = monomial(ctx, 1, 0, d * n * n)
            if kind == "AG2" and i == k:
                w = w * poch_finite(ctx, (-1, 0, d), 2 * d, n)
            return w

        def weight_min(i, n):
            return d * n * n

        def kernel(i, delta):
            return _inv_poch(ctx, (Fraction(1), 0, base), base, delta)

        def kernel_shift(i):
            return 0

    elif kind in ("LAT1", "LAT2"):
        if k < 2:
            raise ValueError("lattice multisums need k >= 2")
        u = d
        if pair is None:
            pair = key_pair(ctx, u * 2 ** (k - 1))
        w2 = _Weights(ctx, u, x, y)

        def weight(i, n):
            if i == 1:
                return w2.beta_weight(n)
            p = 2 ** (i - 2) * u
            if kind == "LAT1":
                return poch_finite(ctx, (-1, 0, 0), p, 2 * n) * monomial(ctx, 1, 0, p * n)
            return poch_finite(ctx, (-1, 0, p), p, 2 * n)

        def weight_min(i, n):
            if i == 1:
                return w2.beta_weight_min(n)
            return 2 ** (i - 2) * u * n if kind == "LAT1" else 0

        def kernel(i, delta):
            p = 2 ** (i - 1) * u
            return _inv_poch(ctx, (Fraction(1), 0, 2 * p), 2 * p, delta)

        def kernel_shift(i):
            return 2 ** (i - 1) * u if kind == "LAT2" else 0

    else:
        raise ValueError(f"unknown multisum kind {kind!r}")

    # B_i(v) lower-bounds the minimal exponent of the partial sum S_i(v);
    # kernels and couplings have nonnegative minimal exponents, so only the
    # weights and the previous level's bound contribute.
    bound_prev: list[int] | None = None
    series_prev: dict[int, QSeries] | None = None

    for i in range(1, k):
        totals = [
            weight_min(i, n) + (bound_prev[n] if bound_prev is not None else 0)
            for n in range(cap + 1)
        ]
        if totals[cap] <= ctx.order:
            raise TerminationError("chain level does not leave the window by the cap")
        suffix = totals[:]
        for v in range(cap - 1, -1, -1):
            suffix[v] = min(suffix[v], suffix[v + 1])
        shift = kernel_shift(i)
        new_series: dict[int, QSeries] = {}
        for v in range(cap + 1):
            if suffix[v] > ctx.order:
                break
            acc = zero(ctx)
            for n in range(v, cap + 1):
                if totals[n] > ctx.order:
                    continue
                budget.spend()
                t = weight(i, n)
                if series_prev is not None:
                    t = t * series_prev[n]
                t = t * kernel(i, n - v)
                if shift:
                    t = t * monomial(ctx, 1, 0, shift * (n - v))
                acc = acc + t
            new_series[v] = acc
        series_prev = new_series
        bound_prev = suffix

    inner_totals = [
        weight_min(k, n) + (bound_prev[n] if bound_prev is not None else 0)
        for n in range(cap + 1)
    ]
    if inner_totals[cap] <= ctx.order:
        raise TerminationError("inner level does not leave the window by the cap")
    acc = zero(ctx)
    for n in range(cap + 1):
        if inner_totals[n] > ctx.order:
            continue
        budget.spend()
        t = weight(k, n) * pair.beta(n)
        if series_prev is not None:
            t = t * series_prev[n]
        acc = acc + t
    return acc
