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
from typing import Callable

from .errors import BudgetError, NegativeFloorError, NonUnitLeadingError, TerminationError
from .series import (
    EvalContext,
    QSeries,
    binomials,
    hard_cap,
    monomial,
    one,
    times_binomials,
    zero,
)

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


def _times(s: QSeries, num=(), den=(), lead=(1, 0, 0)) -> QSeries:
    """s * lead * prod(num) / prod(den), applied to s in place at its order.

    num and den hold Pochhammer products (base, step, length) as
    ``binomials`` reads them (length None: the infinite product), and lead =
    (coeff, zexp, qexp) is a folded monomial. Each product's own monomial
    joins lead and its runs go to one ``times_binomials`` call, so no
    product is built as a series. Exact at the order when the joined lead
    exponent is >= 0 or s is a monomial; otherwise it is the exact product
    of s as truncated.
    """
    ctx = s.ctx
    c, ze, qe = lead
    nruns: list = []
    druns: list = []
    for base, step, length in num:
        (bc, bz, bq), runs = binomials(ctx, base, step, length)
        c, ze, qe = c * bc, ze + bz, qe + bq
        nruns += runs
    for base, step, length in den:
        (bc, bz, bq), runs = binomials(ctx, base, step, length)
        if not bc:
            raise NonUnitLeadingError("cannot invert the zero series")
        c, ze, qe = Fraction(c) / bc, ze - bz, qe - bq
        druns += runs
    return times_binomials(s, nruns, druns, (c, ze, qe))


def _signed(num: list, den: list, base, step: int, n: int) -> None:
    """Add (base; q^step)_n at an index of either sign to num / den.

    For n < 0 the product is 1 / (base*q^(n*step); q^step)_(-n).
    """
    if n >= 0:
        num.append((base, step, n))
    else:
        c, ze, qe = base
        den.append(((c, ze, qe + n * step), step, -n))


def _bailey_sum(terms, step: int, shift: int = 0, kernel=None) -> QSeries:
    """sum_k terms[k] q^(shift*k) (kernel; Q)_k / (Q; Q)_k with Q = q^step.

    Summed in Horner form from the last term out,
        t_0 + q^shift (1 - kernel)/(1 - Q) (t_1 + q^shift (1 - kernel Q)/(1 - Q^2) (t_2 + ...)),
    with one pass of one numerator and one divisor factor per level. kernel
    is a base triple with q-exponent >= 0, or None for no numerator. The
    Bailey convolution sum_j a_j (kernel; Q)_(n-j) q^(shift(n-j)) / (Q; Q)_(n-j)
    is terms = (a_n, ..., a_0).
    """
    acc = terms[-1]
    for k in range(len(terms) - 2, -1, -1):
        num = ()
        if kernel is not None:
            c, ze, qe = kernel
            num = (((c, ze, qe + k * step), step, 1),)
        acc = terms[k] + _times(acc, num, (((1, 0, (k + 1) * step), step, 1),), (1, 0, shift))
    return acc


def _convolve(ctx: EvalContext, a, n: int, step: int, shift: int = 0, kernel=None) -> QSeries:
    """The Bailey convolution of the memoised terms a(0..n); zero for n < 0."""
    if n < 0:
        return zero(ctx)
    return _bailey_sum([a(j) for j in range(n, -1, -1)], step, shift, kernel)


def poch_signed_min(qe: int, step: int, n: int) -> int:
    """Exact minimal q-exponent of (q^qe; q^step)_n at an index of either sign.

    For n >= 0 the factors below q^0 are the first t = min(n, ceil(-qe/step));
    for n < 0 the divisors 1 - q^(qe - t*step) below q^0 are those with
    t > qe/step, t <= -n. Each is an arithmetic sum.
    """
    if n >= 0:
        t = min(n, max(0, -(qe // step)))
        return t * qe + step * t * (t - 1) // 2
    m = -n
    lo = max(1, qe // step + 1)
    t = max(0, m - lo + 1)
    return step * (lo + m) * t // 2 - t * qe


# -- pair constructors ------------------------------------------------------


def key_pair(ctx: EvalContext, dilation: int | None = None) -> BilateralPair:
    """The main pair: alpha_n = (-1)^n z^n Q^binom(n,2), beta_n = (z, Q/z; Q)_n / (Q; Q)_2n."""
    r = ctx.scale if dilation is None else dilation
    a = _zfold(ctx)
    zbases = ((1, 1, 0), (1, -1, r))

    def alpha(n: int) -> QSeries:
        return monomial(ctx, (-1) ** (n % 2), n, r * n * (n - 1) // 2)

    def beta(n: int) -> QSeries:
        if n < 0:
            return zero(ctx)
        return _times(one(ctx), [(zbases, r, n)], [((1, 0, r), r, 2 * n)])

    def floor(n: int) -> int:
        return r * n * (n - 1) // 2 + n * a

    def limit() -> QSeries:
        return _times(one(ctx), [(zbases, r, None)], [((1, 0, r), r, None)])

    return BilateralPair(
        ctx, r, _memo_seq(alpha), _memo_seq(beta), floor, _memo_thunk(limit), "key"
    )


def closed_form_djk_pair(ctx: EvalContext, dilation: int | None = None) -> BilateralPair:
    """Closed form of the halving lattice walk that rescales alpha."""
    u = ctx.scale if dilation is None else dilation
    a = _zfold(ctx)

    def alpha(n: int) -> QSeries:
        num = monomial(ctx, 2 * (-1) ** (n % 2), n, u * n * n)
        return _times(num, den=[((-1, 0, 2 * u * n), 1, 1)])

    @_memo_seq
    def term(j: int) -> QSeries:
        num = [((-1, 0, 0), u, 2 * j), (((1, 1, 0), (1, -1, 2 * u)), 2 * u, j)]
        return _times(one(ctx), num, [((1, 0, 2 * u), 2 * u, 2 * j)], (1, 0, u * j))

    def floor(n: int) -> int:
        e = u * n * n + n * a
        if n < 0:
            e += 2 * u * (-n)
        return e

    return BilateralPair(
        ctx, u, _memo_seq(alpha), _memo_seq(lambda n: _convolve(ctx, term, n, 2 * u)), floor,
        None, "closed-djk",
    )


def closed_form_jouhet_pair(ctx: EvalContext, dilation: int | None = None) -> BilateralPair:
    """Closed form of the halving lattice walk that keeps alpha fixed."""
    u = ctx.scale if dilation is None else dilation
    a = _zfold(ctx)

    def alpha(n: int) -> QSeries:
        return monomial(ctx, (-1) ** (n % 2), n, u * n * (n - 1))

    @_memo_seq
    def term(j: int) -> QSeries:
        num = [(((1, 1, 0), (1, -1, 2 * u)), 2 * u, j)]
        return _times(one(ctx), num, [((1, 0, u), u, 2 * j)])

    def floor(n: int) -> int:
        return u * n * (n - 1) + n * a

    return BilateralPair(
        ctx, u, _memo_seq(alpha), _memo_seq(lambda n: _convolve(ctx, term, n, 2 * u, u)), floor,
        None, "closed-jouhet",
    )


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
            acc = acc + _times(pair.alpha(j), den=[((1, 0, r), r, n - j), ((1, 0, r), r, n + j)])
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

    r: int
    x: object
    y: object

    def apply(self, s: QSeries, n: int, alpha: bool = False) -> QSeries:
        """s times the beta weight at n, or with alpha the alpha weight, in one pass."""
        r = self.r
        num: list = []
        den: list = []
        qshift, sign = r * n, 1
        for p in (self.x, self.y):
            if p is INFINITE:
                qshift += r * n * (n - 1) // 2
            else:
                _signed(num, den, (p.sign, 0, p.qexp), r, n)
                if alpha:
                    _signed(den, num, (p.sign, 0, r - p.qexp), r, n)
                qshift -= p.qexp * n
            if (p is INFINITE or p.sign == -1) and n % 2:
                sign = -sign
        return _times(s, num, den, (sign, 0, qshift))

    def beta_weight_min(self, n: int) -> int:
        r = self.r
        e = r * n
        for p in (self.x, self.y):
            if p is INFINITE:
                e += r * n * (n - 1) // 2
            else:
                e += poch_signed_min(p.qexp, r, n) - p.qexp * n
        return e

    def alpha_weight_min(self, n: int) -> int:
        e = self.beta_weight_min(n)
        for p in (self.x, self.y):
            if p is not INFINITE:
                e -= poch_signed_min(self.r - p.qexp, self.r, n)
        return e

    def kernel(self):
        """The base Q/xy of the two-limit kernel, or None with an infinite limit."""
        if self.x is INFINITE or self.y is INFINITE:
            return None
        return (self.x.sign * self.y.sign, 0, self.r - self.x.qexp - self.y.qexp)

    def prefactor(self, s: QSeries) -> QSeries:
        """s times (Q/x, Q/y; Q)_inf / (Q, Q/xy; Q)_inf over the finite limits."""
        r = self.r
        num = [((p.sign, 0, r - p.qexp), r, None) for p in (self.x, self.y) if p is not INFINITE]
        den = [((1, 0, r), r, None)]
        kernel = self.kernel()
        if kernel is not None:
            den.append((kernel, r, None))
        return _times(s, num, den)

    def abel_sign(self):
        """-1 when the beta side is alternating with a unit power part (Q/xy = -1)."""
        return -1 if self.kernel() == (-1, 0, 0) else None


def _abel_beta_side(pair: BilateralPair, x, y, budget) -> QSeries:
    """Abel value of sum_n (x, y; Q)_n (-1)^n beta_n for the zero-growth setting."""
    ctx, r = pair.ctx, pair.dilation
    if pair.beta_limit is None:
        raise TerminationError("alternating zero-growth sum needs a pair with a beta limit")

    bases = ((x.sign, 0, x.qexp), (y.sign, 0, y.qexp))

    def term(n):
        return _times(pair.beta(n), [(bases, r, n)])

    lim = _times(pair.beta_limit(), [(bases, r, None)])
    return _abel_alternating(ctx, term, lim, budget)


def bms_general_eval(pair: BilateralPair, x, y):
    """Both sides of the two-limit bilateral summation at (x, y).

    Returns (lhs, rhs): lhs sums beta-weight * beta_n over n >= 0, rhs is
    the prefactor times the bilateral alpha-weighted sum. The alternating
    zero-growth setting is evaluated in the Abel sense and needs the pair's
    beta limit.
    """
    ctx = pair.ctx
    w = _Weights(pair.dilation, x, y)
    budget = _Budget()
    cap = hard_cap(ctx)

    if w.abel_sign() is not None:
        lhs = _abel_beta_side(pair, x, y, budget)
    else:
        lhs = zero(ctx)
        for n in _indices(w.beta_weight_min, ctx.order, cap, bilateral=False, budget=budget):
            lhs = lhs + w.apply(pair.beta(n), n)

    def alpha_bound(n):
        return w.alpha_weight_min(n) + pair.alpha_floor(n)

    asum = zero(ctx)
    for n in _indices(alpha_bound, ctx.order, cap, bilateral=True, budget=budget):
        asum = asum + w.apply(pair.alpha(n), n, alpha=True)
    return lhs, w.prefactor(asum)


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
    euler = ((1, 0, r), r, None)

    # Each weight is applied to its term: weight(n, s) is s times it.
    def beta_sum(weight, weight_min):
        acc = zero(ctx)
        for n in _indices(weight_min, ctx.order, cap, bilateral=False, budget=budget):
            acc = acc + weight(n, pair.beta(n))
        return acc

    def alpha_sum(weight, weight_min):
        def bound(n):
            return weight_min(n) + pair.alpha_floor(n)

        acc = zero(ctx)
        for n in _indices(bound, ctx.order, cap, bilateral=True, budget=budget):
            acc = acc + weight(n, pair.alpha(n))
        return acc

    if variant == "V1":

        def square(n, s):
            return _times(s, lead=(1, 0, r * n * n))

        lhs = beta_sum(square, lambda n: r * n * n)
        rhs = _times(alpha_sum(square, lambda n: r * n * n), den=[euler])
        return lhs, rhs

    if variant == "V2":
        if r % 2:
            raise ValueError("V2 needs an even dilation (half-step exponents)")
        h = r // 2

        def wb(n, s):
            return _times(s, [((-1, 0, h), r, n)], lead=(1, 0, h * n * n))

        def wa(n, s):
            return _times(s, lead=(1, 0, h * n * n))

        lhs = beta_sum(wb, lambda n: h * n * n)
        rhs = _times(alpha_sum(wa, lambda n: h * n * n), [((-1, 0, h), r, None)], [euler])
        return lhs, rhs

    if variant == "V3":
        if pair.beta_limit is None:
            raise TerminationError("V3 needs a pair with a beta limit")
        odd = ((1, 0, r), 2 * r)

        def term(n):
            return _times(pair.beta(n), [odd + (n,)])

        lim = _times(pair.beta_limit(), [odd + (None,)])
        lhs = _abel_alternating(ctx, term, lim, budget) * 2
        asum = alpha_sum(lambda n, s: -s if n % 2 else s, lambda n: 0)
        rhs = _times(asum, [odd + (None,)], [((1, 0, 2 * r), 2 * r, None)])
        return lhs, rhs

    if variant == "V4":

        def wb(n, s):
            return _times(s, [((-1, 0, r), r, n)], lead=(1, 0, r * n * (n - 1) // 2))

        def wa(n, s):
            return _times(s, [((-1, 0, r * n), 1, 1)], lead=(1, 0, r * n * (n - 1) // 2))

        def wa_min(n):
            return r * n * (n - 1) // 2 + min(0, r * n)

        lhs = beta_sum(wb, lambda n: r * n * (n - 1) // 2)
        rhs = _times(alpha_sum(wa, wa_min), [((-1, 0, r), r, None)], [euler])
        return lhs, rhs

    if variant == "V5":

        def wb(n, s):
            return _times(s, [((-1, 0, 0), r, n)], lead=(1, 0, r * n * (n + 1) // 2))

        def wa(n, s):
            return _times(s, den=[((-1, 0, r * n), 1, 1)], lead=(1, 0, r * n * (n + 1) // 2))

        def wa_min(n):
            return r * n * (n + 1) // 2 + (-r * n if n < 0 else 0)

        lhs = beta_sum(wb, lambda n: r * n * (n + 1) // 2)
        rhs = _times(alpha_sum(wa, wa_min), [((-1, 0, r), r, None)], [euler], (2, 0, 0))
        return lhs, rhs

    raise ValueError(f"unknown variant {variant!r}")


# -- transforms -------------------------------------------------------------


def chain_step(pair: BilateralPair) -> BilateralPair:
    """Square-weight chain step: alpha'_n = Q^(n^2) alpha_n."""
    ctx, r = pair.ctx, pair.dilation

    def alpha(n: int) -> QSeries:
        return _times(pair.alpha(n), lead=(1, 0, r * n * n))

    @_memo_seq
    def term(j: int) -> QSeries:
        return _times(pair.beta(j), lead=(1, 0, r * j * j))

    def floor(n: int) -> int:
        return r * n * n + pair.alpha_floor(n)

    def limit() -> QSeries:
        budget = _Budget()
        acc = zero(ctx)
        for j in _indices(
            lambda v: r * v * v, ctx.order, hard_cap(ctx), bilateral=False, budget=budget
        ):
            acc = acc + term(j)
        return _times(acc, den=[((1, 0, r), r, None)])

    return BilateralPair(
        ctx, r, _memo_seq(alpha), _memo_seq(lambda n: _convolve(ctx, term, n, r)), floor,
        _memo_thunk(limit), f"chain({pair.label})",
    )


def general_chain_step(pair: BilateralPair, x, y) -> BilateralPair:
    """Two-limit chain step; reduces to chain_step when both limits are infinite.

    With both limits finite the kernel base is Q/xy = +-q^kappa. kappa < 0
    raises NegativeFloorError: the beta weights then fall like q^(kappa*n),
    so the new beta_n needs coefficients of the base pair's beta_j past the
    order, which the pair does not hold.
    """
    ctx, r = pair.ctx, pair.dilation
    w = _Weights(r, x, y)
    kernel = w.kernel()
    if kernel is not None and kernel[2] < 0:
        raise NegativeFloorError(
            f"general_chain_step: kernel exponent r - x.qexp - y.qexp = {kernel[2]} is "
            "negative, so the transformed beta is not exact at the order"
        )
    limits = [((p.sign, 0, r - p.qexp), r) for p in (x, y) if p is not INFINITE]

    def alpha(n: int) -> QSeries:
        return w.apply(pair.alpha(n), n, alpha=True)

    @_memo_seq
    def term(j: int) -> QSeries:
        return w.apply(pair.beta(j), j)

    def beta(n: int) -> QSeries:
        acc = _convolve(ctx, term, n, r, kernel=kernel)
        return _times(acc, den=[lim + (n,) for lim in limits]) if n >= 0 else acc

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
                core = core + term(j)
        num = [] if kernel is None else [(kernel, r, None)]
        den = [((1, 0, r), r, None)] + [lim + (None,) for lim in limits]
        return _times(core, num, den)

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
        return _times(pair.alpha(n), den=[((-1, 0, 2 * s * n), 1, 1)], lead=(2, 0, s * n))

    @_memo_seq
    def term(j: int) -> QSeries:
        return _times(pair.beta(j), [((-1, 0, 0), s, 2 * j)], lead=(1, 0, s * j))

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
            acc = acc + term(j)
        return _times(acc, den=[((1, 0, 2 * s), 2 * s, None)])

    return BilateralPair(
        ctx, s, _memo_seq(alpha), _memo_seq(lambda n: _convolve(ctx, term, n, 2 * s)), floor,
        _memo_thunk(limit), f"djk({pair.label})",
    )


def lattice_jouhet(pair: BilateralPair) -> BilateralPair:
    """Halving lattice walk that keeps alpha fixed."""
    ctx = pair.ctx
    if pair.dilation % 2:
        raise ValueError("lattice walk needs an even dilation")
    s = pair.dilation // 2

    @_memo_seq
    def term(j: int) -> QSeries:
        return _times(pair.beta(j), [((-1, 0, s), s, 2 * j)])

    def limit() -> QSeries:
        # sum_m q^(sm) / (q^2s; q^2s)_m = 1 / (q^s; q^2s)_inf by Euler's identity.
        if pair.beta_limit is None:
            raise TerminationError("lattice limit needs the base pair's beta limit")
        return _times(pair.beta_limit(), [((-1, 0, s), s, None)], [((1, 0, s), 2 * s, None)])

    return BilateralPair(
        ctx, s, pair.alpha, _memo_seq(lambda n: _convolve(ctx, term, n, 2 * s, s)),
        pair.alpha_floor, _memo_thunk(limit), f"jouhet({pair.label})",
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
    euler = ((1, 0, r), r, None)
    return pair.beta_limit(), _times(acc, den=[euler, euler])


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

        def lweight(n, s):
            num = [((1, 0, 2 * u), 2 * u, 2 * n)]
            return _times(s, num, [((-1, 0, u), u, 2 * n + 1)], (1, 0, u * n))

        def outer(n):
            return u * n * (n + 1)

        def jrange(n):
            return range(-n, n + 1)

        def inner_qexp(j):
            return -u * j * j

    elif which == "II":

        def lweight(n, s):
            return _times(s, [((1, 0, u), u, 2 * n)], lead=(1, 0, u * n))

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
        lhs = lhs + lweight(n, pair.beta(n))

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
            rhs = rhs + _times(pair.alpha(j), lead=(1, 0, shift))

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
    W_i(n_i), each adjacent pair a kernel q^(shift*delta) / (Q; Q)_delta at
    delta = n_i - n_(i+1), and the inner index a beta factor. Evaluated by
    dynamic programming from the outside in; each level's sum over
    n_i >= n_(i+1) is a Bailey sum in Horner form.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    d = ctx.scale
    budget = _Budget()
    cap = hard_cap(ctx)

    # weight(i, n, s) is s times W_i(n); kernel(i) is the (step, shift) of
    # the kernel below level i.
    if kind in ("AG1", "AG2"):
        base = d if kind == "AG1" else 2 * d
        if pair is None:
            pair = key_pair(ctx, base)

        def weight(i, n, s):
            num = [((-1, 0, d), 2 * d, n)] if kind == "AG2" and i == k else []
            return _times(s, num, lead=(1, 0, d * n * n))

        def weight_min(i, n):
            return d * n * n

        def kernel(i):
            return base, 0

    elif kind in ("LAT1", "LAT2"):
        if k < 2:
            raise ValueError("lattice multisums need k >= 2")
        u = d
        if pair is None:
            pair = key_pair(ctx, u * 2 ** (k - 1))
        w2 = _Weights(u, x, y)

        def weight(i, n, s):
            if i == 1:
                return w2.apply(s, n)
            p = 2 ** (i - 2) * u
            if kind == "LAT1":
                return _times(s, [((-1, 0, 0), p, 2 * n)], lead=(1, 0, p * n))
            return _times(s, [((-1, 0, p), p, 2 * n)])

        def weight_min(i, n):
            if i == 1:
                return w2.beta_weight_min(n)
            return 2 ** (i - 2) * u * n if kind == "LAT1" else 0

        def kernel(i):
            p = 2 ** (i - 1) * u
            return 2 * p, (p if kind == "LAT2" else 0)

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
        live = [n for n in range(cap + 1) if totals[n] <= ctx.order]
        terms = {
            n: weight(i, n, one(ctx) if series_prev is None else series_prev[n]) for n in live
        }
        step, shift = kernel(i)
        empty = zero(ctx)
        new_series: dict[int, QSeries] = {}
        for v in range(cap + 1):
            if suffix[v] > ctx.order:
                break
            budget.spend(sum(1 for n in live if n >= v))
            row = [terms.get(n, empty) for n in range(v, live[-1] + 1)]
            new_series[v] = _bailey_sum(row, step, shift)
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
        t = weight(k, n, pair.beta(n))
        if series_prev is not None:
            t = t * series_prev[n]
        acc = acc + t
    return acc
